"""Command-line front end: `helmscat simulate|reconstruct|bench`.

All outputs are deterministic for a fixed seed; wall-clock timing columns
are written as 0.0 unless --wall-time is passed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .forward import (HelmholtzForward, ScatteringScene, SolverConfig,
                      forward_lis, make_circular_geometry,
                      sensor_green_operator)
from .grid import Grid2D
from .inverse import (ReconstructionConfig, eta_from_potential,
                      reconstruct_fbs)
from .krylov import BicgstabBreakdown
from .lis import sample_green_kernel, solve_lis
from .oracle import DiskScene, analytic_disk_field, relative_error


class SolverFailure(RuntimeError):
    pass


def _build_grid(cfg) -> Grid2D:
    L = cfg.side_length_cm
    return Grid2D(cfg.grid_points, L, (-L / 2.0, -L / 2.0))


def _build_scene(cfg) -> ScatteringScene:
    active = cfg.active_sensors if cfg.active_sensors > 0 else None
    geom = make_circular_geometry(cfg.num_views, cfg.num_sensors,
                                  cfg.sensor_radius_cm, cfg.wavelength_cm,
                                  center=(0.0, 0.0), active_count=active)
    return ScatteringScene(_build_grid(cfg), cfg.eta_b, geom)


def _solver_config(cfg) -> SolverConfig:
    return SolverConfig(abl_points=cfg.abl_points, beta=cfg.beta,
                        levels=cfg.mg_levels, nu1=cfg.nu1, nu2=cfg.nu2,
                        omega=cfg.omega_s, cycle_type=cfg.cycle_type,
                        tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)


def _parse_disk_list(text: str) -> list[tuple[float, float, float, float]]:
    disks = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        vals = [float(tok) for tok in part.split(",")]
        if len(vals) != 4:
            raise io.ConfigError(
                "phantom_disks entries must be x,y,radius,eta")
        disks.append(tuple(vals))
    return disks


def _build_eta(cfg, grid: Grid2D) -> np.ndarray:
    x, y = grid.coords()
    eta = np.full(x.shape, cfg.eta_b)
    if cfg.scene == "disk":
        if cfg.disk_radius_cm <= 0.0:
            raise io.ConfigError("disk scene requires disk_radius_cm > 0")
        eta[np.hypot(x, y) <= cfg.disk_radius_cm] = cfg.disk_eta
    elif cfg.scene == "phantom":
        disks = _parse_disk_list(cfg.phantom_disks)
        if not disks:
            raise io.ConfigError("phantom scene requires phantom_disks")
        for cx, cy, rad, val in disks:
            eta[np.hypot(x - cx, y - cy) <= rad] = val
    elif cfg.scene == "file":
        if not cfg.scene_file:
            raise io.ConfigError("file scene requires scene_file")
        eta = io.read_field(cfg.scene_file)
        if np.iscomplexobj(eta) or eta.shape != x.shape:
            raise io.ConfigError("scene_file must be a real field on the grid")
        if not np.all(np.isfinite(eta)):
            raise io.ConfigError("scene_file has non-finite values")
    else:
        raise io.ConfigError(f"unknown scene {cfg.scene!r}")
    return eta


def _potential(eta: np.ndarray, eta_b: float, k0: float) -> np.ndarray:
    return k0**2 * (eta**2 - eta_b**2)


def cmd_simulate(cfg, out_dir: Path, wall_time: bool) -> list[Path]:
    scene = _build_scene(cfg)
    solver = _solver_config(cfg)
    eta = _build_eta(cfg, scene.grid)
    f = _potential(eta, cfg.eta_b, scene.k0)
    g_full = sensor_green_operator(scene.grid, scene.geometry.sensors,
                                   scene.k0, scene.eta_b)
    views, rows = [], []
    if cfg.model == "mgh":
        fwd = HelmholtzForward(scene, f, solver)
    elif cfg.model == "lis":
        kernel = sample_green_kernel(scene.grid, scene.k0, scene.eta_b)
    else:
        raise io.ConfigError(f"unknown model {cfg.model!r}")
    for q in range(scene.geometry.num_views):
        t0 = time.perf_counter()
        if cfg.model == "mgh":
            u_tot, report = fwd.total_field(q)
        else:
            from .forward import plane_wave
            u_in = plane_wave(scene.grid, scene.geometry.directions[q],
                              scene.k0, scene.eta_b, scene.geometry.u0)
            u_tot, report = solve_lis(kernel, f, u_in, tol=solver.tol,
                                      max_iter=solver.max_iter)
        if not report.converged:
            raise SolverFailure(f"view {q} did not converge")
        y = g_full[scene.geometry.active[q]] @ (f * u_tot).ravel()
        views.append(y)
        elapsed = time.perf_counter() - t0 if wall_time else 0.0
        rows.append([q, report.iterations, int(report.converged),
                     float(report.residual_history[-1]
                           / max(report.residual_history[0], 1e-300)),
                     float(report.work_units), elapsed])
    meas_path = out_dir / "measurements.csv"
    rep_path = out_dir / "reports.csv"
    io.write_measurements_csv(meas_path, scene.geometry, views)
    io.write_rows_csv(rep_path,
                      ["view", "iterations", "converged", "final_rel_residual",
                       "work_units", "seconds"], rows)
    return [meas_path, rep_path]


def cmd_reconstruct(cfg, out_dir: Path, wall_time: bool) -> list[Path]:
    scene = _build_scene(cfg)
    solver = _solver_config(cfg)
    measurements = io.read_measurements_csv(cfg.measurements_file,
                                            scene.geometry)
    eta_true = None
    if cfg.ground_truth_file:
        eta_true = io.read_field(cfg.ground_truth_file)
    subset = cfg.subset_size if cfg.subset_size > 0 else cfg.num_views
    s = scene.grid.points_per_side
    if cfg.iterations == 0:
        f_star = np.zeros((s, s))
        history = None
    else:
        rcfg = ReconstructionConfig(
            gamma=cfg.gamma, tau=cfg.tau, iterations=cfg.iterations,
            subset_size=subset, seed=cfg.seed,
            inner_prox_iterations=cfg.inner_prox_iterations, solver=solver)
        f_star, history = reconstruct_fbs(measurements, scene, rcfg,
                                          eta_true=eta_true)
    eta_star = eta_from_potential(f_star, cfg.eta_b, scene.k0)
    eta_path = out_dir / "eta.hsf"
    f_path = out_dir / "f.hsf"
    hist_path = out_dir / "history.csv"
    io.write_field(eta_path, eta_star)
    io.write_field(f_path, f_star)
    rows = []
    if history is not None:
        for i in range(len(history.objective)):
            snr_val = history.snr_db[i] if history.snr_db else ""
            rows.append([i + 1, history.objective[i], snr_val,
                         history.work_units[i],
                         history.seconds[i] if wall_time else 0.0])
    io.write_rows_csv(hist_path,
                      ["iter", "objective", "snr_db", "work_units", "seconds"],
                      rows)
    return [eta_path, f_path, hist_path]


def cmd_bench(cfg, out_dir: Path, wall_time: bool) -> list[Path]:
    contrasts = io.parse_float_list(cfg.contrast_list) or [0.0]
    radii = io.parse_float_list(cfg.radius_list_lambda)
    if not radii:
        raise io.ConfigError("bench requires radius_list_lambda")
    models = [m.strip() for m in cfg.bench_models.split(",") if m.strip()]
    grid = _build_grid(cfg)
    lam = cfg.wavelength_cm
    k0 = 2.0 * np.pi / lam
    solver = _solver_config(cfg)
    # first view of the single-view geometry below shines along -x
    direction = (-1.0, 0.0)
    kernel = None
    rows = []
    for contrast in contrasts:
        eta_disk = cfg.eta_b * np.sqrt(1.0 + contrast)
        for radius_l in radii:
            radius = radius_l * lam
            disk = DiskScene(radius, eta_disk, cfg.eta_b, lam)
            u_ref = analytic_disk_field(disk, grid, direction)
            x, y = grid.coords()
            f = np.where(np.hypot(x, y) <= radius,
                         k0**2 * (eta_disk**2 - cfg.eta_b**2), 0.0)
            for model in models:
                t0 = time.perf_counter()
                if model == "mgh":
                    geom = make_circular_geometry(
                        1, 4, grid.side_length * 2.0, lam)
                    scene = ScatteringScene(grid, cfg.eta_b, geom)
                    fwd = HelmholtzForward(scene, f, solver)
                    u_tot, report = fwd.total_field(0)
                elif model == "lis":
                    if kernel is None:
                        kernel = sample_green_kernel(grid, k0, cfg.eta_b)
                    from .forward import plane_wave
                    u_in = plane_wave(grid, direction, k0, cfg.eta_b)
                    u_tot, report = solve_lis(kernel, f, u_in,
                                              tol=solver.tol,
                                              max_iter=solver.max_iter)
                else:
                    raise io.ConfigError(f"unknown bench model {model!r}")
                if not report.converged:
                    raise SolverFailure(
                        f"{model} did not converge at contrast {contrast}, "
                        f"radius {radius_l} lambda")
                err = relative_error(u_tot, u_ref)
                elapsed = time.perf_counter() - t0 if wall_time else 0.0
                rows.append([contrast, radius_l, model, report.iterations,
                             elapsed, err])
    path = out_dir / "bench.csv"
    io.write_rows_csv(path, ["contrast", "radius_lambda", "model",
                             "iterations", "wall_seconds",
                             "relative_error_vs_analytic"], rows)
    return [path]


_COMMANDS = {"simulate": cmd_simulate, "reconstruct": cmd_reconstruct,
             "bench": cmd_bench}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="helmscat",
        description="2-D diffraction tomography with a multigrid-"
                    "preconditioned Helmholtz solver")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for interface compatibility; the "
                             "implementation is single-threaded")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--wall-time", action="store_true",
                        help="write real wall-clock timings instead of 0.0 "
                             "(makes outputs non-reproducible)")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    written: list[Path] = []
    try:
        cfg = io.parse_config(args.config, args.command)
        if args.seed is not None:
            cfg.values["seed"] = args.seed
        out_dir.mkdir(parents=True, exist_ok=True)
        written = _COMMANDS[args.command](cfg, out_dir, args.wall_time)
    except (io.ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _cleanup(written, out_dir, args.command)
        return 2
    except (SolverFailure, BicgstabBreakdown, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        _cleanup(written, out_dir, args.command)
        return 3
    return 0


_OUTPUTS = {
    "simulate": ["measurements.csv", "reports.csv"],
    "reconstruct": ["eta.hsf", "f.hsf", "history.csv"],
    "bench": ["bench.csv"],
}


def _cleanup(written: list[Path], out_dir: Path, command: str):
    candidates = set(written) | {out_dir / name for name in _OUTPUTS[command]}
    for path in candidates:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
