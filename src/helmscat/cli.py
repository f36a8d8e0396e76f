"""Command-line front end: `helmscat simulate|reconstruct|bench`.

All outputs are deterministic for a fixed seed; wall-clock timing columns
are written as 0.0 unless --wall-time is passed.  Each command computes
first and then writes each output to ``out(name)``, which records the path
in ``out_dir``; a failed run removes the paths it recorded and nothing else.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .forward import (HelmholtzForward, LisForward, ScatteringScene,
                      SolverConfig, make_circular_geometry)
from .grid import Grid2D
from .inverse import (ReconstructionConfig, eta_from_potential,
                      reconstruct_fbs)
from .oracle import DiskScene, analytic_disk_field, relative_error


_BACKENDS = {"mgh": HelmholtzForward, "lis": LisForward}


def _build_grid(cfg) -> Grid2D:
    L = cfg.side_length_cm
    return Grid2D(cfg.grid_points, L, (-L / 2.0, -L / 2.0))


def _build_scene(cfg) -> ScatteringScene:
    if cfg.active_sensors < 0:
        raise io.ConfigError(f"active_sensors must be nonnegative (0 means "
                             f"all sensors), got {cfg.active_sensors}")
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


def _read_grid_field(cfg, key: str, grid: Grid2D) -> np.ndarray:
    """The HSF1 field named by config key ``key``, checked to be real,
    finite and on ``grid``."""
    field = io.read_field(getattr(cfg, key))
    s = grid.points_per_side
    if np.iscomplexobj(field) or field.shape != (s, s):
        raise io.ConfigError(f"{key} must be a real field on the {s}x{s} "
                             f"grid, got a {field.dtype} field of shape "
                             f"{field.shape}")
    if not np.all(np.isfinite(field)):
        raise io.ConfigError(f"{key} has non-finite values")
    return field


def _check_index(key: str, eta, eta_b: float, k0: float) -> None:
    """Rejects positive indices ``eta`` (one or an array) of config key
    ``key`` whose square is 0, or whose potential k0^2 (eta^2 - eta_b^2)
    overflows, before numpy would warn of it."""
    lo, hi = float(np.min(eta)), float(np.max(eta))
    if not lo * lo > 0.0:
        raise io.ConfigError(f"{key} holds an index {lo:g} whose square is 0")
    if not k0 * k0 * (hi * hi - eta_b * eta_b) < math.inf:
        raise io.ConfigError(f"{key} holds an index {hi:g} whose potential "
                             f"k0^2 (eta^2 - eta_b^2) is not finite")


def _build_eta(cfg, scene: ScatteringScene) -> np.ndarray:
    x, y = scene.grid.coords()
    eta = np.full(x.shape, cfg.eta_b)
    # the potential reads only eta^2: an index of -1.2 would act as 1.2
    if cfg.scene == "disk":
        if cfg.disk_radius_cm <= 0.0 or cfg.disk_eta <= 0.0:
            raise io.ConfigError("disk scene requires disk_radius_cm > 0 "
                                 "and disk_eta > 0")
        _check_index("disk_eta", cfg.disk_eta, cfg.eta_b, scene.k0)
        eta[np.hypot(x, y) <= cfg.disk_radius_cm] = cfg.disk_eta
    elif cfg.scene == "phantom":
        if not cfg.phantom_disks:
            raise io.ConfigError("phantom scene requires phantom_disks")
        for cx, cy, rad, val in cfg.phantom_disks:
            _check_index("phantom_disks", val, cfg.eta_b, scene.k0)
            eta[np.hypot(x - cx, y - cy) <= rad] = val
    elif cfg.scene == "file":
        if not cfg.scene_file:
            raise io.ConfigError("file scene requires scene_file")
        eta = _read_grid_field(cfg, "scene_file", scene.grid)
        if np.any(eta <= 0.0):
            raise io.ConfigError("scene_file indices must be positive")
        _check_index("scene_file", eta, cfg.eta_b, scene.k0)
    return eta


def _potential(eta: np.ndarray, eta_b: float, k0: float) -> np.ndarray:
    return k0**2 * (eta**2 - eta_b**2)


def cmd_simulate(cfg, out, wall_time: bool):
    scene = _build_scene(cfg)
    solver = _solver_config(cfg)
    eta = _build_eta(cfg, scene)
    f = _potential(eta, cfg.eta_b, scene.k0)
    scene.sensor_operator  # before any solve: lower peak, early sensor check
    model = _BACKENDS[cfg.model](scene, f, solver)
    num_views = scene.geometry.num_views
    t0 = time.perf_counter()
    views, reports = model.predict(range(num_views))
    # one batched solve: each view is charged an equal share of its time
    elapsed = (time.perf_counter() - t0) / num_views if wall_time else 0.0
    rows = []
    for q, report in enumerate(reports):
        if not report.converged:
            raise RuntimeError(f"view {q} did not converge")
        rows.append([q, report.iterations, int(report.converged),
                     float(report.residual_history[-1]
                           / max(report.residual_history[0], 1e-300)),
                     float(report.work_units), elapsed])
    io.write_measurements_csv(out("measurements.csv"), scene.geometry, views)
    io.write_rows_csv(out("reports.csv"),
                      ["view", "iterations", "converged", "final_rel_residual",
                       "work_units", "seconds"], rows)


def cmd_reconstruct(cfg, out, wall_time: bool):
    if cfg.model != "mgh":
        raise io.ConfigError(f"reconstruct requires model = mgh, got "
                             f"{cfg.model}: TV-FBS has no adjoint of the "
                             f"Lippmann-Schwinger model yet")
    scene = _build_scene(cfg)
    solver = _solver_config(cfg)
    if cfg.subset_size < 0:
        raise ValueError(f"subset_size must be nonnegative (0 means all "
                         f"views), got {cfg.subset_size}")
    # checks the counts also for a run of 0 iterations
    rcfg = ReconstructionConfig(
        gamma=cfg.gamma, tau=cfg.tau, iterations=cfg.iterations,
        subset_size=cfg.subset_size or cfg.num_views, seed=cfg.seed,
        inner_prox_iterations=cfg.inner_prox_iterations, solver=solver)
    measurements = io.read_measurements_csv(cfg.measurements_file,
                                            scene.geometry)
    eta_true = None
    if cfg.ground_truth_file:
        eta_true = _read_grid_field(cfg, "ground_truth_file", scene.grid)
    f_star, history = reconstruct_fbs(measurements, scene, rcfg,
                                      eta_true=eta_true)
    eta_star = eta_from_potential(f_star, cfg.eta_b, scene.k0)
    rows = []
    for i in range(len(history.objective)):
        snr_val = history.snr_db[i] if history.snr_db else ""
        rows.append([i + 1, history.objective[i], snr_val,
                     history.work_units[i],
                     history.seconds[i] if wall_time else 0.0])
    io.write_field(out("eta.hsf"), eta_star)
    io.write_field(out("f.hsf"), f_star)
    io.write_rows_csv(out("history.csv"),
                      ["iter", "objective", "snr_db", "work_units", "seconds"],
                      rows)


def cmd_bench(cfg, out, wall_time: bool):
    grid = _build_grid(cfg)
    lam = cfg.wavelength_cm
    solver = _solver_config(cfg)
    # one view, whose incident wave shines along -x; its sensors are unused
    scene = ScatteringScene(grid, cfg.eta_b, make_circular_geometry(
        1, 4, grid.side_length * 2.0, lam))
    contrasts = cfg.contrast_list or (0.0,)
    if not all(c > -1.0 for c in contrasts):
        raise io.ConfigError(f"contrast_list {contrasts}: each contrast "
                             f"must be above -1")
    # the analytic field is for the whole disk, the models see the grid
    half = grid.side_length / 2.0
    radii = cfg.radius_list_lambda
    if not radii or not all(0.0 < r * lam <= half for r in radii):
        raise io.ConfigError(f"bench requires radius_list_lambda, with radii "
                             f"r in 0 < r * wavelength_cm <= {half} cm")
    if not cfg.bench_models:
        raise io.ConfigError("bench_models must list at least one model")
    x, y = grid.coords()
    rows = []
    for contrast in contrasts:
        eta_disk = cfg.eta_b * np.sqrt(1.0 + contrast)
        for radius_l in radii:
            radius = radius_l * lam
            disk = DiskScene(radius, eta_disk, cfg.eta_b, lam)
            u_ref = analytic_disk_field(disk, grid, (-1.0, 0.0))
            f = np.where(np.hypot(x, y) <= radius,
                         scene.k0**2 * (eta_disk**2 - cfg.eta_b**2), 0.0)
            for model in cfg.bench_models:
                t0 = time.perf_counter()
                backend = _BACKENDS[model](scene, f, solver)
                (u_tot,), (report,) = backend.fields([0])
                if not report.converged:
                    raise RuntimeError(
                        f"{model} did not converge at contrast {contrast}, "
                        f"radius {radius_l} lambda")
                err = relative_error(u_tot, u_ref)
                elapsed = time.perf_counter() - t0 if wall_time else 0.0
                rows.append([contrast, radius_l, model, report.iterations,
                             elapsed, err])
    io.write_rows_csv(out("bench.csv"),
                      ["contrast", "radius_lambda", "model", "iterations",
                       "wall_seconds", "relative_error_vs_analytic"], rows)


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
    if args.threads < 1:
        print(f"error: --threads must be at least 1, got {args.threads}",
              file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    begun: list[Path] = []

    def out(name: str) -> Path:
        begun.append(out_dir / name)
        return begun[-1]

    try:
        cfg = io.parse_config(args.config, args.command)
        if args.seed is not None:
            cfg.seed = args.seed
        out_dir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out, args.wall_time)
        return 0
    except (ValueError, OSError) as exc:     # ConfigError, FileNotFoundError
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except MemoryError as exc:               # a grid too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        code = 2
    except (RuntimeError, ZeroDivisionError) as exc:
        # unconverged, BicgstabBreakdown, or a zero smoother diagonal
        print(f"solver failure: {exc}", file=sys.stderr)
        code = 3
    for path in begun:  # a directory, or a path we may not remove, stays
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
