"""End-to-end acceptance suite.

Each test prints one CRITERION line (unbuffered, past pytest's capture) so a
plain run shows the scoreboard:

    CRITERION n (<short description>): PASS|FAIL <details>
"""

import numpy as np
import pytest

import helmscat as hs
from helmscat import io
from helmscat.cli import main
from helmscat.forward import sensor_green_operator
from helmscat.inverse import (_forward_diff, _tv_prox_dual, tv_prox,
                              tv_value)
from helmscat.lis import apply_green_convolution
from helmscat.multigrid import (lfa_symbols, prolong_bilinear,
                                restrict_full_weighting)

LAM = 10.0
K0 = 2.0 * np.pi / LAM


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _criterion(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"CRITERION {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def fig4_grid():
    s, h = 256, 0.125
    side = (s - 1) * h
    return hs.Grid2D(s, side, (-side / 2.0, -side / 2.0))


@pytest.fixture(scope="module")
def fig4_kernel(fig4_grid):
    return hs.sample_green_kernel(fig4_grid, K0, 1.0)


def _disk_potential(grid, radius, eta_disk, eta_b=1.0):
    x, y = grid.coords()
    return np.where(np.hypot(x, y) <= radius,
                    K0 ** 2 * (eta_disk ** 2 - eta_b ** 2), 0.0)


@pytest.mark.slow
def test_criterion_1_forward_accuracy(fig4_grid, fig4_kernel):
    """High-contrast disk: both forward models vs the analytic series."""
    eta_disk, radius = 2.2, 1.25 * LAM
    f = _disk_potential(fig4_grid, radius, eta_disk)
    u_ref = hs.analytic_disk_field(hs.DiskScene(radius, eta_disk, 1.0, LAM),
                                   fig4_grid, (-1.0, 0.0))

    geom = hs.make_circular_geometry(1, 4, 100.0, LAM)
    scene = hs.ScatteringScene(fig4_grid, 1.0, geom)
    cfg = hs.SolverConfig(abl_points=32, beta=0.15, levels=3, tol=1e-6,
                          max_iter=500)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    u_mgh, rep_m = fwd.total_field(0)
    err_mgh = hs.relative_error(u_mgh, u_ref)

    u_in = hs.plane_wave(fig4_grid, (-1.0, 0.0), K0, 1.0)
    u_lis, rep_l = hs.solve_lis(fig4_kernel, f, u_in, tol=1e-6,
                                max_iter=4000)
    err_lis = hs.relative_error(u_lis, u_ref)

    ok = (rep_m.converged and rep_l.converged
          and err_mgh <= 1.5e-2 and err_lis <= 1.5e-2)
    _criterion(1, "disk forward accuracy at 256^2, index 2.2", ok,
               f"grid err {err_mgh:.2e}, integral err {err_lis:.2e}")


@pytest.mark.slow
def test_criterion_2_contrast_robustness(fig4_grid, fig4_kernel):
    """Iteration counts across contrasts 1..4 of the permittivity."""
    radius = 1.25 * LAM
    geom = hs.make_circular_geometry(1, 4, 100.0, LAM)
    scene = hs.ScatteringScene(fig4_grid, 1.0, geom)
    cfg = hs.SolverConfig(abl_points=32, beta=0.15, levels=3, tol=1e-6,
                          max_iter=500)
    u_in = hs.plane_wave(fig4_grid, (-1.0, 0.0), K0, 1.0)
    x, y = fig4_grid.coords()
    mask = np.hypot(x, y) <= radius
    it_mgh, it_lis, conv_mgh = [], [], []
    for contrast in [1.0, 2.0, 3.0, 4.0]:
        f = np.where(mask, K0 ** 2 * contrast, 0.0)
        fwd = hs.HelmholtzForward(scene, f, cfg)
        _, rep_m = fwd.total_field(0)
        _, rep_l = hs.solve_lis(fig4_kernel, f, u_in, tol=1e-6,
                                max_iter=5000)
        it_mgh.append(rep_m.iterations)
        it_lis.append(rep_l.iterations)
        conv_mgh.append(rep_m.converged and rep_m.iterations <= 500)
    lis_increasing = all(b > a for a, b in zip(it_lis, it_lis[1:]))
    mgh_flat = it_mgh[-1] <= 3 * it_mgh[0]
    ok = lis_increasing and mgh_flat and all(conv_mgh)
    _criterion(2, "robustness to contrast", ok,
               f"grid iters {it_mgh}, integral iters {it_lis}")


def test_criterion_3_dense_equivalence(multigrid_path, monkeypatch):
    """Iterative solutions vs dense direct solves on a small grid: the
    multigrid-preconditioned solve (forced by ``multigrid_path``) and the
    sparse-LU path this grid size takes by default."""
    g = hs.Grid2D(33, 16.0, (-8.0, -8.0))
    f = _disk_potential(g, 5.0, 1.3)
    geom = hs.make_circular_geometry(1, 4, 40.0, LAM)
    scene = hs.ScatteringScene(g, 1.0, geom)
    cfg = hs.SolverConfig(abl_points=4, beta=0.15, levels=2, tol=1e-6,
                          max_iter=500)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    b = fwd.f_ext * hs.plane_wave(fwd.eg, geom.directions[0], K0, 1.0)
    (u_sc,), _ = fwd._solve(b[None].copy())
    u_dense = hs.dense_reference_solve(fwd.op, b)
    rel_mgh = (np.linalg.norm(u_sc - u_dense)
               / np.linalg.norm(u_dense))
    monkeypatch.undo()                  # back to the default selection
    fwd_lu = hs.HelmholtzForward(scene, f, cfg)
    (u_lu,), _ = fwd_lu._solve(b[None].copy())
    rel_lu = np.linalg.norm(u_lu - u_dense) / np.linalg.norm(u_dense)
    levels_ok = len(fwd.hier.levels) == 2 and len(fwd_lu.hier.levels) == 1

    kernel = hs.sample_green_kernel(g, K0, 1.0)
    u_in = hs.plane_wave(g, geom.directions[0], K0, 1.0)
    u_lis, _ = hs.solve_lis(kernel, f, u_in, tol=1e-6, max_iter=500)
    s = g.points_per_side
    n = s * s
    A = np.empty((n, n), dtype=complex)
    e = np.zeros((s, s), dtype=complex)
    for j in range(n):
        e.ravel()[j] = 1.0
        A[:, j] = (e - apply_green_convolution(kernel, f * e)).ravel()
        e.ravel()[j] = 0.0
    u_lis_dense = np.linalg.solve(A, u_in.ravel()).reshape(s, s)
    rel_lis = (np.linalg.norm(u_lis - u_lis_dense)
               / np.linalg.norm(u_lis_dense))
    ok = rel_mgh <= 1e-5 and rel_lu <= 1e-5 and rel_lis <= 1e-5 \
        and levels_ok
    _criterion(3, "iterative vs dense direct solves", ok,
               f"grid {rel_mgh:.2e}, grid LU {rel_lu:.2e}, "
               f"integral {rel_lis:.2e}")


def test_criterion_4_gradient_and_jvp():
    """Fidelity gradient and measurement-map directional derivative vs
    finite differences on a 17x17 scene."""
    s = 17
    g = hs.Grid2D(s, 16.0, (-8.0, -8.0))
    geom = hs.make_circular_geometry(2, 8, 40.0, LAM)
    scene = hs.ScatteringScene(g, 1.0, geom)
    cfg = hs.SolverConfig(abl_points=4, beta=0.15, levels=2, tol=1e-10,
                          max_iter=500)
    x, y = g.coords()
    f = np.where(np.hypot(x, y) <= 4.0, K0 ** 2 * (1.2 ** 2 - 1.0), 0.0)
    f_other = np.where(np.hypot(x - 1.0, y) <= 3.0,
                       K0 ** 2 * (1.15 ** 2 - 1.0), 0.0)
    g_full = sensor_green_operator(g, geom.sensors, K0, 1.0)
    fwd_o = hs.HelmholtzForward(scene, f_other, cfg)
    views = []
    for q in range(2):
        u, _ = fwd_o.total_field(q)
        views.append(g_full[geom.active[q]] @ (f_other * u).ravel())
    ms = hs.MeasurementSet(views)

    subset = [0, 1]
    grad, _, _ = hs.gradient_data_fidelity(scene, f, subset, ms, cfg)
    rng = np.random.default_rng(7)
    v = rng.standard_normal((s, s))

    def fidelity(ff):
        fw = hs.HelmholtzForward(scene, ff, cfg)
        total = 0.0
        for q in subset:
            u, _ = fw.total_field(q)
            r = g_full[geom.active[q]] @ (ff * u).ravel() - ms.views[q]
            total += 0.5 * np.linalg.norm(r) ** 2
        return total

    eps = 1e-5
    fd = (fidelity(f + eps * v) - fidelity(f - eps * v)) / (2.0 * eps)
    an = float(np.sum(grad * v))
    rel_grad = abs(an - fd) / abs(fd)

    fwd = hs.HelmholtzForward(scene, f, cfg)
    (dy,), _ = fwd.jvp([0], v)
    eps2 = 1e-6
    fw1 = hs.HelmholtzForward(scene, f + eps2 * v, cfg)
    u1, _ = fw1.total_field(0)
    u0, _ = fwd.total_field(0)
    y1 = g_full[geom.active[0]] @ ((f + eps2 * v) * u1).ravel()
    y0 = g_full[geom.active[0]] @ (f * u0).ravel()
    fd_dy = (y1 - y0) / eps2
    rel_jvp = np.linalg.norm(dy - fd_dy) / np.linalg.norm(fd_dy)

    ok = rel_grad <= 1e-5 and rel_jvp <= 1e-4
    _criterion(4, "gradient and Jacobian-vector products", ok,
               f"gradient {rel_grad:.2e}, jvp {rel_jvp:.2e}")


def test_criterion_5_multigrid_algebra():
    rng = np.random.default_rng(0)
    sc, sf = 9, 17
    xc = rng.standard_normal((sc, sc)) + 1j * rng.standard_normal((sc, sc))
    yf = rng.standard_normal((sf, sf)) + 1j * rng.standard_normal((sf, sf))
    lhs = np.vdot(yf, prolong_bilinear(xc))
    rhs = 4.0 * np.vdot(restrict_full_weighting(yf), xc)
    adjoint_ok = abs(lhs - rhs) <= 1e-13 * abs(lhs)

    const_ok = (np.allclose(prolong_bilinear(np.full((sc, sc), 2.0)), 2.0)
                and np.allclose(
                    restrict_full_weighting(np.full((sf, sf), 2.0))[1:-1, 1:-1],
                    2.0))

    g = hs.Grid2D(33, 32.0, (-16.0, -16.0))
    eg = hs.build_extended_grid(g, 4, 0.15, 3)
    se = eg.points_per_side
    op = hs.assemble(eg, np.ones((se, se)), K0)
    hier = hs.MgHierarchy(op, 3, nu1=1, nu2=1)
    b = np.ones((se, se), dtype=complex)
    hs.mg_cycle(hier, b, np.zeros_like(b))
    work = hier.meter.total
    work_ok = work < (4.0 / 3.0) * 2.0

    sym = lfa_symbols(1.0, 0.8, (0.0, 0.0))["s_symbol"]
    lfa_ok = abs(abs(sym) - 1.2667) < 1e-3 and abs(sym) > 1.0

    ok = adjoint_ok and const_ok and work_ok and lfa_ok
    _criterion(5, "multigrid transfer/work/smoother-symbol algebra", ok,
               f"adjoint gap {abs(lhs - rhs):.1e}, cycle work {work:.2f} WU, "
               f"|s(0,0)| {abs(sym):.4f}")


def _convex_solver_gap(v, weight, out):
    """Objective of ``out`` minus the optimum a convex solver finds for the
    nonnegative TV prox of ``v``, or None when cvxpy is not installed."""
    try:
        import cvxpy as cp
    except ImportError:
        return None
    W = cp.Variable(v.shape)
    dx = W[1:, :] - W[:-1, :]
    dy = W[:, 1:] - W[:, :-1]
    tv = cp.sum(cp.norm(cp.vstack([cp.vec(dx[:, :-1], order="C"),
                                   cp.vec(dy[:-1, :], order="C")]), axis=0))
    tv = tv + cp.sum(cp.abs(dx[:, -1])) + cp.sum(cp.abs(dy[-1, :]))
    prob = cp.Problem(
        cp.Minimize(0.5 * cp.sum_squares(W - v) + weight * tv), [W >= 0])
    prob.solve(solver=cp.CLARABEL)

    def objective(w):
        return 0.5 * np.sum((w - v) ** 2) + weight * tv_value(w)

    return objective(out) - objective(W.value)


def test_criterion_6_tv_prox():
    # certified without a convex solver: for a dual p with |p| <= 1, the
    # duality gap weight * (TV(x) - <p, D x>) bounds the primal
    # suboptimality of x
    rng = np.random.default_rng(3)
    v = rng.standard_normal((16, 16)) * 0.5 + 0.3
    weight = 0.2
    out, p = _tv_prox_dual(v, weight, 1500)
    same = np.array_equal(out, tv_prox(v, weight, 1500))
    gap = weight * (tv_value(out) - np.sum(p * _forward_diff(out)))
    feasible = np.max(np.hypot(*p)) <= 1.0 + 1e-12
    nonneg = bool(np.all(out >= 0.0))
    c = np.full((16, 16), 1.3)
    fixed = np.allclose(tv_prox(c, weight, 300), c, atol=1e-9)
    ok = same and gap < 1e-6 and feasible and nonneg and fixed
    detail = f"duality gap {gap:.2e}"
    solver_gap = _convex_solver_gap(v, weight, out)
    if solver_gap is not None:
        ok = ok and solver_gap < 1e-6
        detail += f", objective gap vs convex solver {solver_gap:.2e}"
    _criterion(6, "TV proximal operator optimality", ok, detail)


@pytest.mark.slow
def test_criterion_7_reconstruction(fig4_grid):
    """Inverse-crime disk: data at 256^2, reconstruction at 64^2."""
    eta_disk, radius = 1.1, 6.0
    geom = hs.make_circular_geometry(8, 40, 40.0, LAM)
    scene_d = hs.ScatteringScene(fig4_grid, 1.0, geom)
    cfg_d = hs.SolverConfig(abl_points=32, beta=0.15, levels=3, tol=1e-6,
                            max_iter=500)
    f_d = _disk_potential(fig4_grid, radius, eta_disk)
    fwd = hs.HelmholtzForward(scene_d, f_d, cfg_d)
    g_full = sensor_green_operator(fig4_grid, geom.sensors, K0, 1.0)
    views = []
    for q in range(8):
        u, rep = fwd.total_field(q)
        assert rep.converged
        views.append(g_full[geom.active[q]] @ (f_d * u).ravel())
    ms = hs.MeasurementSet(views)

    side = fig4_grid.side_length
    gr = hs.Grid2D(64, side, (-side / 2.0, -side / 2.0))
    xr, yr = gr.coords()
    eta_true = np.where(np.hypot(xr, yr) <= radius, eta_disk, 1.0)
    scene_r = hs.ScatteringScene(gr, 1.0, geom)
    cfg_r = hs.SolverConfig(abl_points=4, beta=0.0, levels=2, tol=1e-6,
                            max_iter=500)
    rc = hs.ReconstructionConfig(gamma=0.02, tau=1e-3, iterations=150,
                                 subset_size=8, seed=0, solver=cfg_r)
    f1, h1 = hs.reconstruct_fbs(ms, scene_r, rc, eta_true=eta_true)
    f2, h2 = hs.reconstruct_fbs(ms, scene_r, rc, eta_true=eta_true)

    snr_final = h1.snr_db[-1]
    increasing = h1.snr_db[-1] > h1.snr_db[0]
    reproducible = (h1.objective == h2.objective
                    and h1.snr_db == h2.snr_db
                    and np.array_equal(f1, f2))
    ok = snr_final >= 15.0 and increasing and reproducible
    _criterion(7, "end-to-end reconstruction quality", ok,
               f"snr {h1.snr_db[0]:.1f} -> {snr_final:.1f} dB, "
               f"reproducible {reproducible}")


def test_criterion_8_cli_determinism(tmp_path):
    base = """
side_length_cm = 16.0
grid_points = 33
wavelength_cm = 10.0
abl_points = 4
beta = 0.15
mg_levels = 2
num_views = 2
num_sensors = 8
sensor_radius_cm = 40.0
"""
    sim = tmp_path / "sim.cfg"
    sim.write_text(base + "scene = disk\ndisk_radius_cm = 5.0\n"
                          "disk_eta = 1.2\n")
    ok = True
    details = []
    outputs = {}
    for run in ("a", "b"):
        d = tmp_path / f"sim_{run}"
        assert main(["simulate", "--config", str(sim),
                     "--out-dir", str(d)]) == 0
        outputs[run] = {p.name: p.read_bytes() for p in d.iterdir()}
    same = outputs["a"] == outputs["b"]
    ok &= same
    details.append(f"simulate {same}")

    rec = tmp_path / "rec.cfg"
    rec.write_text(base + f"""
measurements_file = {tmp_path / 'sim_a' / 'measurements.csv'}
gamma = 0.05
tau = 0.001
iterations = 3
subset_size = 1
seed = 2
""")
    for run in ("a", "b"):
        d = tmp_path / f"rec_{run}"
        assert main(["reconstruct", "--config", str(rec),
                     "--out-dir", str(d)]) == 0
        outputs[run] = {p.name: p.read_bytes() for p in d.iterdir()}
    same = outputs["a"] == outputs["b"]
    ok &= same
    details.append(f"reconstruct {same}")

    ben = tmp_path / "bench.cfg"
    ben.write_text(base + "contrast_list = 0.5,1.0\n"
                          "radius_list_lambda = 0.5\n"
                          "bench_models = lis,mgh\n")
    for run in ("a", "b"):
        d = tmp_path / f"ben_{run}"
        assert main(["bench", "--config", str(ben),
                     "--out-dir", str(d)]) == 0
        outputs[run] = {p.name: p.read_bytes() for p in d.iterdir()}
    same = outputs["a"] == outputs["b"]
    ok &= same
    details.append(f"bench {same}")
    _criterion(8, "byte-identical CLI reruns", ok, ", ".join(details))
