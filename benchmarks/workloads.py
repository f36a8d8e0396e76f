"""Workload definitions, inputs generated from the seed (cached on disk),
and the oracle checks applied to each worker's outputs.

The seed moves the disk centre by a whole number of cells of the 256^2 grid
(at most ``JITTER`` each way) and sets the FBS subset seed.  Everything a
worker reads is written to one input directory per workload and seed; its
SHA-256 is printed so that two commits can be shown to have run identical
inputs.  Reference fields are kept apart from the inputs and are used only
by the checks here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import warnings
from pathlib import Path

import numpy as np

WAVELENGTH = 10.0
K0 = 2.0 * math.pi / WAVELENGTH
FINE_POINTS = 256
FINE_H = 0.125                 # criterion 1's grid: 256^2 over 31.875 cm
SIDE = (FINE_POINTS - 1) * FINE_H
JITTER = 4                     # disk-centre jitter, in fine cells each way
ERR_BOUND = 1.5e-2             # criterion 1
SNR_MIN_DB = 15.0              # criterion 7

_ACQUISITION = {"sensors": 40, "sensor_radius": 40.0,
                "wavelength": WAVELENGTH, "eta_b": 1.0, "side": SIDE}
_FINE_MGH = {"abl_points": 32, "beta": 0.15, "levels": 3, "tol": 1e-6,
             "max_iter": 500}

WORKLOADS = {
    "forward-mgh-256": dict(
        _ACQUISITION, kind="forward", model="mgh", points=FINE_POINTS,
        views=8, eta_disk=2.2, radius=12.5, solver=_FINE_MGH),
    "forward-lis-256": dict(
        _ACQUISITION, kind="forward", model="lis", points=FINE_POINTS,
        views=4, eta_disk=math.sqrt(2.0), radius=12.5,
        solver={"tol": 1e-6, "max_iter": 500}),
    "reconstruct-64": dict(
        _ACQUISITION, kind="reconstruct", points=64, views=8, eta_disk=1.1,
        radius=6.0, data_points=FINE_POINTS, data_solver=_FINE_MGH,
        solver={"abl_points": 4, "beta": 0.0, "levels": 2, "tol": 1e-6,
                "max_iter": 500},
        gamma=0.02, tau=1e-3, iterations=20, subset_size=8),
}


def ops_per_batch(params: dict) -> int:
    """Operations one worker attempts: views solved, or FBS iterations."""
    return params["iterations"] if params["kind"] == "reconstruct" \
        else params["views"]


def _grid(hs, points: int, side: float):
    """The workload's square domain, centred on the origin."""
    return hs.Grid2D(points, side, (-side / 2.0, -side / 2.0))


def _disk(grid, center, radius, inside, outside):
    x, y = grid.coords()
    return np.where(np.hypot(x - center[0], y - center[1]) <= radius,
                    inside, outside)


def _key(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()
                          ).hexdigest()[:16]


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _write_atomically(target: Path, fill):
    """Runs ``fill(tmp_dir)`` and renames the directory into place, so an
    interrupted run never leaves a half-written cache entry."""
    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    fill(tmp)
    shutil.rmtree(target, ignore_errors=True)
    os.replace(tmp, target)


def prepare_inputs(hs, name: str, seed: int, cache: Path
                   ) -> tuple[Path, dict, str]:
    """Input directory, parameters and digest for one workload and seed."""
    shift = [int(v) for v in
             np.random.default_rng(seed).integers(-JITTER, JITTER + 1, 2)]
    params = dict(WORKLOADS[name], name=name, seed=seed, shift=shift,
                  center=[shift[0] * FINE_H, shift[1] * FINE_H])
    target = cache / "inputs" / f"{name}-seed{seed}-{_key(params)}"
    if not target.is_dir():
        _write_atomically(target, lambda d: _fill_inputs(hs, params, d))
    return target, params, _digest(target)


def _fill_inputs(hs, p: dict, d: Path):
    (d / "params.json").write_text(json.dumps(p, sort_keys=True))
    contrast = K0**2 * (p["eta_disk"]**2 - p["eta_b"]**2)
    if p["kind"] == "forward":
        f = _disk(_grid(hs, p["points"], p["side"]), p["center"], p["radius"],
                  contrast, 0.0)
        np.save(d / "f.npy", f)
        return
    # reconstruct: criterion 7's disk simulated by MGH on the 256^2 grid
    grid = _grid(hs, p["data_points"], p["side"])
    geom = hs.make_circular_geometry(p["views"], p["sensors"],
                                     p["sensor_radius"], p["wavelength"])
    scene = hs.ScatteringScene(grid, p["eta_b"], geom)
    f = _disk(grid, p["center"], p["radius"], contrast, 0.0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*points per wavelength")
        fwd = hs.HelmholtzForward(scene, f, hs.SolverConfig(**p["data_solver"]))
    g_full = hs.sensor_green_operator(grid, geom.sensors, K0, p["eta_b"])
    views = []
    for q in range(p["views"]):
        u, rep = fwd.total_field(q)
        if not rep.converged:
            raise RuntimeError(f"data simulation: view {q} did not converge")
        views.append(g_full[geom.active[q]] @ (f * u).ravel())
    from helmscat.io import write_measurements_csv
    write_measurements_csv(d / "measurements.csv", geom, views)


def _centred_references(hs, p: dict, cache: Path) -> np.ndarray:
    """Analytic total fields of the disk at the domain centre, one per
    view, on the grid padded by ``JITTER`` cells each way.  They do not
    depend on the seed, so one cache entry serves every seed."""
    spec = {k: p[k] for k in ("points", "side", "views", "eta_disk",
                              "radius", "eta_b", "wavelength", "sensors",
                              "sensor_radius")}
    spec["jitter"] = JITTER
    target = cache / "refs" / f"{p['name']}-{_key(spec)}"

    def fill(d: Path):
        points = p["points"] + 2 * JITTER
        o = -p["side"] / 2.0 - JITTER * FINE_H
        grid = hs.Grid2D(points, (points - 1) * FINE_H, (o, o))
        disk = hs.DiskScene(p["radius"], p["eta_disk"], p["eta_b"],
                            p["wavelength"])
        geom = hs.make_circular_geometry(p["views"], p["sensors"],
                                         p["sensor_radius"], p["wavelength"])
        refs = np.stack([hs.analytic_disk_field(disk, grid,
                                                tuple(geom.directions[q]))
                         for q in range(p["views"])])
        np.save(d / "u.npy", refs)

    if not target.is_dir():
        _write_atomically(target, fill)
    return np.load(target / "u.npy")


def forward_references(hs, p: dict, cache: Path) -> np.ndarray:
    """Analytic total field of each view for the seed's disk centre.

    With the centre c moved by whole cells, the field on the domain equals
    exp(j kb <d, c>) times the centred field on the domain moved by -c,
    which is a window of the padded centred grid.
    """
    refs = _centred_references(hs, p, cache)
    geom = hs.make_circular_geometry(p["views"], p["sensors"],
                                     p["sensor_radius"], p["wavelength"])
    i, j = JITTER - p["shift"][0], JITTER - p["shift"][1]
    s = p["points"]
    kb = K0 * p["eta_b"]
    out = np.empty((p["views"], s, s), dtype=complex)
    for q in range(p["views"]):
        phase = np.exp(1j * kb * float(geom.directions[q] @ p["center"]))
        out[q] = phase * refs[q, i:i + s, j:j + s]
    return out


def true_index(hs, p: dict) -> np.ndarray:
    """The reconstruction target: the disk's refractive index on the 64^2
    grid."""
    return _disk(_grid(hs, p["points"], p["side"]), p["center"],
                 p["radius"], p["eta_disk"], p["eta_b"])


def check_forward(hs, u, y, converged, refs) -> tuple[list[str | None],
                                                      list[float]]:
    """Per view: the failure reason (None when the view passes) and
    criterion 1's error against the analytic field."""
    reasons, errs = [], []
    for q in range(len(refs)):
        finite = bool(np.all(np.isfinite(u[q])) and np.all(np.isfinite(y[q])))
        err = hs.relative_error(u[q], refs[q]) if finite else math.inf
        errs.append(err)
        if not converged[q]:
            reasons.append(f"view {q}: solve did not converge")
        elif not finite:
            reasons.append(f"view {q}: non-finite output")
        elif not err <= ERR_BOUND:
            reasons.append(f"view {q}: error {err:.3e} > {ERR_BOUND:g}")
        else:
            reasons.append(None)
    return reasons, errs


def check_reconstruction(hs, f, p: dict, eta_true
                         ) -> tuple[str | None, float]:
    """Failure reason (None on a pass) and ||eta* - eta|| / ||eta||.

    Criterion 7: the SNR reaches ``SNR_MIN_DB`` and rises above that of
    the starting image (the background index alone), which by itself
    scores about 30 dB on this disk.
    """
    if not np.all(np.isfinite(f)):
        return "non-finite reconstruction", math.inf
    eta = hs.eta_from_potential(f, p["eta_b"], K0)
    if not np.all(np.isfinite(eta)):
        return "non-finite refractive index", math.inf
    err = float(np.linalg.norm(eta - eta_true) / np.linalg.norm(eta_true))
    snr = hs.snr(eta, eta_true)
    start = hs.snr(np.full_like(eta, p["eta_b"]), eta_true)
    if not (snr >= SNR_MIN_DB and snr > start):
        return (f"SNR {snr:.2f} dB: needs >= {SNR_MIN_DB:g} dB and above "
                f"the {start:.2f} dB of the starting image"), err
    return None, err
