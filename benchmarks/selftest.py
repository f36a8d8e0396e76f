"""Self-tests of the benchmark's own machinery (not of helmscat).

    python3 benchmarks/selftest.py

Checks that the oracle rejects perturbed outputs, that self-time and
per-layer arithmetic is right on a synthetic span tree, that a traced solve
counts what the solver reports and leaves no wrapper behind, and that the
inputs and references are pure functions of the seed.  Exits 1 on the
first failure.
"""

import shutil
import sys
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import helmscat as hs  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

warnings.filterwarnings("ignore", message=".*points per wavelength")
SCRATCH = ROOT / ".bench_cache" / "selftest"

# a 33^2 scene with the fine grid's mesh, small enough to solve in a blink
SMALL = dict(wl.WORKLOADS["forward-mgh-256"], name="small", points=33,
             side=32 * wl.FINE_H, radius=1.5, eta_disk=1.3, views=2,
             solver={"abl_points": 4, "beta": 0.15, "levels": 2,
                     "tol": 1e-6, "max_iter": 200})


def _small_scene():
    grid = hs.Grid2D(SMALL["points"], SMALL["side"],
                     (-SMALL["side"] / 2.0,) * 2)
    geom = hs.make_circular_geometry(SMALL["views"], SMALL["sensors"],
                                     SMALL["sensor_radius"], wl.WAVELENGTH)
    return grid, hs.ScatteringScene(grid, 1.0, geom)


def test_oracle_rejects_perturbed_outputs():
    grid, scene = _small_scene()
    disk = hs.DiskScene(SMALL["radius"], SMALL["eta_disk"], 1.0,
                        wl.WAVELENGTH)
    refs = np.stack([hs.analytic_disk_field(disk, grid, tuple(d))
                     for d in scene.geometry.directions])
    y = np.ones((2, 4), complex)
    ok = np.ones(2, bool)
    reasons, errs = wl.check_forward(hs, refs.copy(), y, ok, refs)
    assert reasons == [None, None] and errs == [0.0, 0.0], reasons
    perturbed = refs.copy()
    perturbed[1] *= 1.2                 # error 0.04 > 1.5e-2
    reasons, errs = wl.check_forward(hs, perturbed, y, ok, refs)
    assert reasons[0] is None and "error" in reasons[1], reasons
    nan = refs.copy()
    nan[0, 3, 3] = np.nan
    assert "non-finite" in wl.check_forward(hs, nan, y, ok, refs)[0][0]
    reasons, _ = wl.check_forward(hs, refs, y, np.array([True, False]), refs)
    assert "converge" in reasons[1], reasons

    p = dict(wl.WORKLOADS["reconstruct-64"], center=[0.0, 0.0])
    eta_true = wl.true_index(hs, p)
    f_true = wl.K0**2 * (eta_true**2 - 1.0)
    reason, err = wl.check_reconstruction(hs, f_true, p, eta_true)
    assert reason is None and err < 1e-12, (reason, err)
    f_off = wl.K0**2 * ((1.25 * eta_true)**2 - 1.0)     # SNR 12 dB
    reason, _ = wl.check_reconstruction(hs, f_off, p, eta_true)
    assert reason and "SNR" in reason, reason
    reason, _ = wl.check_reconstruction(hs, np.zeros_like(f_true), p,
                                        eta_true)
    assert reason and "starting image" in reason, reason


def test_self_times_on_synthetic_tree():
    def span(name, start, end, parent, size=None, tag=None):
        return [name, start, end, parent, size, tag, False]
    spans = [
        span("bench.op", 0.0, 10.0, -1),
        span("krylov.bicgstab", 1.0, 9.0, 0, 9, 3),
        span("multigrid.mg_cycle", 2.0, 6.0, 1, 9, 0),
        span("multigrid.damped_jacobi", 2.5, 3.0, 2, 9, 1),
        span("multigrid.mg_cycle", 3.0, 4.0, 2, 5, 1),
        span("multigrid.damped_jacobi", 3.25, 3.5, 4, 5, 2),
        span("helmholtz.apply", 7.0, 8.0, 1, 9),
        span("helmholtz.apply", 8.0, 8.5, 1, 5),
    ]
    own = tracing.self_times(spans)
    assert own == [2.0, 2.5, 2.5, 0.5, 0.75, 0.25, 1.0, 0.5], own
    m = tracing.layer_metrics(spans)
    assert m["krylov.bicgstab.self_s"] == 2.5
    assert m["multigrid.mg_cycle.calls"] == 2
    assert m["multigrid.mg_cycle.s"] == 5.0
    assert m["multigrid.mg_cycle.self_s"] == 3.25
    assert m["multigrid.mg_cycle.ms_per_call"] == 4000.0     # finest only
    assert m["helmholtz.apply.ms_per_call"] == 1000.0
    assert m["multigrid.damped_jacobi.ms_per_sweep"] == 500.0
    assert m["krylov.bicgstab.ms_per_iter"] == 8000.0 / 3
    assert m["krylov.iterations"] == 3 and m["krylov.iterations_max"] == 3
    assert m["multigrid.work_units"] == 1.0 + 2 * 0.25
    assert m["inverse.solves_per_iter"] == 0.0 and m["trace.spans"] == 8


def _snapshot():
    seen = {}
    for mod in tracing._helmscat_modules():
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    seen[(mod.__name__, attr, meth)] = fn
    return seen


def test_traced_solve_counts_and_cleanup():
    _, scene = _small_scene()
    f = SMALL["eta_disk"]**2 - 1.0
    f = np.where(np.hypot(*scene.grid.coords()) <= SMALL["radius"],
                 wl.K0**2 * f, 0.0)
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert hs.bicgstab is not before[("helmscat", "bicgstab")]
        fwd = hs.HelmholtzForward(scene, f, hs.SolverConfig(**SMALL["solver"]))
        reports = [fwd.total_field(q)[1] for q in range(SMALL["views"])]
    after = _snapshot()
    assert tracing.leftover_wrappers() == []
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before), \
        [k for k in before if before[k] is not after[k]]
    m = tracing.layer_metrics(tracer.spans)
    assert m["krylov.bicgstab.calls"] == SMALL["views"]
    assert m["krylov.iterations"] == sum(r.iterations for r in reports)
    assert m["multigrid.work_units"] == fwd.hier.meter.total
    assert m["multigrid.hierarchy_build.calls"] == 1
    assert m["forward.total_field.calls"] == SMALL["views"]
    # after the run, calls go to the originals and record nothing
    n = len(tracer.spans)
    fwd.total_field(0)
    assert len(tracer.spans) == n


def test_inputs_and_references_follow_the_seed():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        a = wl.prepare_inputs(hs, "forward-lis-256", 5, SCRATCH / "a")
        b = wl.prepare_inputs(hs, "forward-lis-256", 5, SCRATCH / "b")
        c = wl.prepare_inputs(hs, "forward-lis-256", 6, SCRATCH / "a")
        assert a[2] == b[2], "same seed, different inputs"
        assert a[1]["shift"] != c[1]["shift"] and a[2] != c[2]

        # the windowed centred reference equals a direct evaluation at the
        # shifted centre
        p = dict(SMALL, shift=[2, -3], center=[2 * wl.FINE_H, -3 * wl.FINE_H])
        refs = wl.forward_references(hs, p, SCRATCH)
        grid, scene = _small_scene()
        disk = hs.DiskScene(p["radius"], p["eta_disk"], 1.0, wl.WAVELENGTH,
                            tuple(p["center"]))
        for q, d in enumerate(scene.geometry.directions):
            direct = hs.analytic_disk_field(disk, grid, tuple(d))
            assert np.max(np.abs(refs[q] - direct)) < 1e-10 * np.max(
                np.abs(direct))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def main():
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for t in tests:
        try:
            t()
        except AssertionError:
            print(f"FAIL {t.__name__}")
            traceback.print_exc()
            return 1
        print(f"ok   {t.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
