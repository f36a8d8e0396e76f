"""One batch job of a benchmark workload, in a fresh process.

    python3 benchmarks/worker.py --inputs DIR --out FILE.npz [--spans FILE]

Reads only the generated inputs in DIR, runs the workload through
helmscat's public API, writes its outputs to FILE.npz for the oracle
checks in ``run.py``, and prints a JSON summary as its last line.  Times
are taken from the first statement of this file, so ``setup_s`` and
``wall_s`` include the import of helmscat.  With ``--spans`` the run is
traced: wrappers record spans around helmscat's public functions, the
spans are written to FILE, and per-layer metrics join the summary.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import helmscat as hs  # noqa: E402
from helmscat import io as hs_io  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402

warnings.filterwarnings("ignore", message=".*points per wavelength")


def _grid(p):
    return hs.Grid2D(p["points"], p["side"], (-p["side"] / 2.0,) * 2)


def _geometry(p):
    return hs.make_circular_geometry(p["views"], p["sensors"],
                                     p["sensor_radius"], p["wavelength"])


def _peak_rss_mib() -> float:
    """High-water resident set size of this process's own address space.
    ``ru_maxrss`` would also count the parent's memory at fork time, which
    Linux carries across exec."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_forward(p, inputs: Path, phase):
    """Solves every view of the scene and predicts its measurements."""
    with phase("bench.setup"):
        f = np.load(inputs / "f.npy")
        grid = _grid(p)
        geom = _geometry(p)
        scene = hs.ScatteringScene(grid, p["eta_b"], geom)
        g_full = hs.sensor_green_operator(grid, geom.sensors, scene.k0,
                                          scene.eta_b)
        if p["model"] == "mgh":
            model = hs.HelmholtzForward(scene, f, hs.SolverConfig(**p["solver"]))
        else:
            kernel = hs.sample_green_kernel(grid, scene.k0, scene.eta_b)
    setup_end = time.perf_counter()

    views = p["views"]
    u = np.zeros((views, grid.points_per_side, grid.points_per_side), complex)
    y = np.zeros((views, geom.sensors.shape[0]), complex)
    converged = np.zeros(views, bool)
    iterations = np.zeros(views, int)
    errors = [None] * views
    for q in range(views):
        with phase("bench.op"):
            try:
                if p["model"] == "mgh":
                    u_q, rep = model.total_field(q)
                else:
                    u_in = hs.plane_wave(grid, geom.directions[q], scene.k0,
                                         scene.eta_b, geom.u0)
                    u_q, rep = hs.solve_lis(kernel, f, u_in, **p["solver"])
                mask = geom.active[q]
                y[q, :mask.sum()] = g_full[mask] @ (f * u_q).ravel()
            except RuntimeError as exc:     # includes BicgstabBreakdown
                errors[q] = f"view {q}: {type(exc).__name__}: {exc}"
                continue
        u[q], converged[q], iterations[q] = u_q, rep.converged, rep.iterations
    end = time.perf_counter()

    counts = {"solves": views, "krylov.iterations": int(iterations.sum()),
              "multigrid.work_units":
                  model.hier.meter.total if p["model"] == "mgh" else 0.0,
              "output_sha256": _sha(u, y)}
    outputs = {"u": u, "y": y, "converged": converged}
    return setup_end, end, errors, counts, outputs


def run_reconstruct(p, inputs: Path, phase):
    """Reconstructs the scene from its measurements by TV-FBS."""
    with phase("bench.setup"):
        grid = _grid(p)
        geom = _geometry(p)
        scene = hs.ScatteringScene(grid, p["eta_b"], geom)
        ms = hs_io.read_measurements_csv(inputs / "measurements.csv", geom)
        rc = hs.ReconstructionConfig(
            gamma=p["gamma"], tau=p["tau"], iterations=p["iterations"],
            subset_size=p["subset_size"], seed=p["seed"],
            solver=hs.SolverConfig(**p["solver"]))
    setup_end = time.perf_counter()

    errors = [None] * p["iterations"]
    f = np.full((grid.points_per_side,) * 2, np.nan)
    work_units = 0.0
    with phase("bench.op"):
        try:
            f, history = hs.reconstruct_fbs(ms, scene, rc)
            work_units = history.work_units[-1]
        except RuntimeError as exc:     # a forward or adjoint solve failed
            errors = [f"{type(exc).__name__}: {exc}"] * p["iterations"]
    end = time.perf_counter()

    counts = {"multigrid.work_units": work_units, "output_sha256": _sha(f)}
    return setup_end, end, errors, counts, {"f": f}


RUNNERS = {"forward": run_forward, "reconstruct": run_reconstruct}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    p = json.loads((args.inputs / "params.json").read_text())

    tracer = Tracer() if args.spans else None
    traced = tracer.installed() if tracer else contextlib.nullcontext()
    phase = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with traced:
        setup_end, end, errors, counts, outputs = RUNNERS[p["kind"]](
            p, args.inputs, phase)

    np.savez(args.out, **outputs)
    summary = {
        "wall_s": end - T0, "setup_s": setup_end - T0,
        "ops": len(errors), "errors": errors, "counts": counts,
        "peak_rss_mb": _peak_rss_mib(),
    }
    if tracer:
        tracer.write(args.spans)
        summary["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
