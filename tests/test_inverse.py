
import numpy as np
import pytest

import helmscat as hs
from helmscat.forward import sensor_green_operator
from helmscat.inverse import (_forward_diff, _neg_divergence, select_subset,
                              tv_prox, tv_value)


def test_tv_value_by_hand():
    w = np.array([[0.0, 1.0], [0.0, 1.0]])
    # forward differences: dx rows are zero, dy = 1 in both rows
    assert tv_value(w) == pytest.approx(2.0)
    assert tv_value(np.full((5, 5), 3.0)) == 0.0


def test_tv_value_isotropic():
    w = np.zeros((3, 3))
    w[1, 1] = 1.0
    # point spike: two unit forward differences meet at (0,1)/(1,0) style
    # corners; the (0,0)-anchored pair combines isotropically
    expected = np.hypot(1.0, 0.0) * 4 + 0.0
    # differences: dx[0,1]=1, dx[1,1]=-1, dy[1,0]=1, dy[1,1]=-1; pairs at
    # (1,0): hypot(dx=?,dy=1); recompute directly
    dx = np.zeros((3, 3)); dy = np.zeros((3, 3))
    dx[:-1, :] = w[1:, :] - w[:-1, :]
    dy[:, :-1] = w[:, 1:] - w[:, :-1]
    assert tv_value(w) == pytest.approx(np.sum(np.hypot(dx, dy)))


def test_prox_zero_weight_projects():
    w = np.array([[-1.0, 2.0], [0.5, -0.1]])
    np.testing.assert_array_equal(tv_prox(w, 0.0), np.maximum(w, 0.0))


def test_prox_nonnegative_output():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((12, 12))
    out = tv_prox(w, 0.3, 100)
    assert np.all(out >= 0.0)


def test_prox_fixed_point_on_constants():
    w = np.full((10, 10), 1.7)
    out = tv_prox(w, 0.2, 200)
    np.testing.assert_allclose(out, 1.7, atol=1e-10)


def test_prox_negative_weight_rejected():
    for weight in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="weight must be nonnegative"):
            tv_prox(np.zeros((4, 4)), weight)
    for inner_iters in (0, -3):
        with pytest.raises(ValueError, match="inner_iters must be at least"):
            tv_prox(np.zeros((4, 4)), 0.5, inner_iters)


def test_snr_values():
    eta_true = np.full((4, 4), 2.0)
    assert hs.snr(eta_true, eta_true) == np.inf
    eta_star = eta_true.copy()
    eta_star += 0.2
    expected = 20.0 * np.log10(np.linalg.norm(eta_true)
                               / np.linalg.norm(eta_true - eta_star))
    assert hs.snr(eta_star, eta_true) == pytest.approx(expected)
    # mismatched shapes would broadcast to 1.25 dB
    with pytest.raises(ValueError, match="does not match"):
        hs.snr(np.ones((3, 3)), np.full(3, 2.0))


def test_eta_potential_round_trip():
    k0 = 2.0 * np.pi / 10.0
    eta = np.array([[1.0, 1.2], [1.5, 1.0]])
    f = k0 ** 2 * (eta ** 2 - 1.0)
    np.testing.assert_allclose(hs.eta_from_potential(f, 1.0, k0), eta)


def test_select_subset_deterministic():
    a = select_subset(np.random.default_rng(5), 20, 6)
    b = select_subset(np.random.default_rng(5), 20, 6)
    assert a == b
    assert a == sorted(a)
    assert len(set(a)) == 6
    assert all(0 <= q < 20 for q in a)


def test_config_validation():
    with pytest.raises(ValueError):
        hs.ReconstructionConfig(gamma=0.0, tau=1.0, iterations=1,
                                subset_size=1)
    with pytest.raises(ValueError):
        hs.ReconstructionConfig(gamma=1.0, tau=1.0, iterations=1,
                                subset_size=0)
    for bad, match in ((dict(gamma=np.nan), "gamma and tau"),
                       (dict(tau=np.nan), "gamma and tau"),
                       (dict(tau=np.inf), "gamma and tau"),
                       (dict(iterations=-2), "iterations must be"),
                       (dict(subset_size=-5), "subset_size must be"),
                       (dict(inner_prox_iterations=0), "inner_prox_it"),
                       (dict(inner_prox_iterations=-3), "inner_prox_it"),
                       (dict(seed=-1), "seed must be nonnegative, got -1")):
        kwargs = dict(gamma=1.0, tau=1.0, iterations=1, subset_size=1)
        kwargs.update(bad)
        with pytest.raises(ValueError, match=match):
            hs.ReconstructionConfig(**kwargs)
    # zero iterations is a valid (empty) run
    hs.ReconstructionConfig(gamma=1.0, tau=1.0, iterations=0, subset_size=1)


def _toy_problem(active_count=None):
    lam = 10.0
    g = hs.Grid2D(17, 16.0, (-8.0, -8.0))
    geom = hs.make_circular_geometry(3, 10, 40.0, lam,
                                     active_count=active_count)
    scene = hs.ScatteringScene(g, 1.0, geom)
    cfg = hs.SolverConfig(abl_points=4, beta=0.0, levels=2, tol=1e-8)
    k0 = scene.k0
    x, y = g.coords()
    f_true = np.where(np.hypot(x, y) <= 4.0, k0 ** 2 * (1.1 ** 2 - 1.0), 0.0)
    g_full = sensor_green_operator(g, geom.sensors, k0, 1.0)
    fwd = hs.HelmholtzForward(scene, f_true, cfg)
    views = []
    for q in range(3):
        u, _ = fwd.total_field(q)
        views.append(g_full[geom.active[q]] @ (f_true * u).ravel())
    return scene, cfg, f_true, hs.MeasurementSet(views)


def test_data_fidelity_zero_at_truth():
    scene, cfg, f_true, ms = _toy_problem()
    for q in range(3):
        val = hs.data_fidelity(scene, f_true, q, ms.views[q], cfg)
        assert val < 1e-16


def test_gradient_vanishes_at_global_minimum():
    scene, cfg, f_true, ms = _toy_problem()
    grad, fid, wu = hs.gradient_data_fidelity(scene, f_true, [0, 1, 2],
                                              ms, cfg)
    scale_grad, scale_fid, _ = hs.gradient_data_fidelity(
        scene, np.zeros_like(f_true), [0, 1, 2], ms, cfg)
    assert fid < 1e-14 * scale_fid
    assert np.abs(grad).max() < 1e-7 * np.abs(scale_grad).max()


def test_reconstruction_recovers_toy_potential():
    scene, cfg, f_true, ms = _toy_problem()
    x, y = scene.grid.coords()
    eta_true = hs.eta_from_potential(f_true, 1.0, scene.k0)
    rc = hs.ReconstructionConfig(gamma=0.05, tau=1e-4, iterations=30,
                                 subset_size=3, seed=0, solver=cfg)
    f_star, history = hs.reconstruct_fbs(ms, scene, rc, eta_true=eta_true)
    assert history.snr_db[-1] > history.snr_db[0]
    assert len(history.objective) == 30
    assert history.objective[-1] < history.objective[0]
    assert np.all(f_star >= 0.0)


def test_reconstruction_history_without_truth():
    scene, cfg, f_true, ms = _toy_problem()
    rc = hs.ReconstructionConfig(gamma=0.05, tau=1e-4, iterations=2,
                                 subset_size=2, seed=1, solver=cfg)
    f_star, history = hs.reconstruct_fbs(ms, scene, rc)
    assert history.snr_db == []
    assert len(history.work_units) == 2
    assert history.work_units[-1] >= history.work_units[0]


def test_gradient_reuses_given_sensor_operator(monkeypatch):
    from helmscat import forward
    scene, cfg, f_true, ms = _toy_problem()
    f = 0.5 * f_true
    grad, fid, _ = hs.gradient_data_fidelity(scene, f, [0, 2], ms, cfg)
    g_full = sensor_green_operator(scene.grid, scene.geometry.sensors,
                                   scene.k0, scene.eta_b)
    g_full.flags.writeable = False

    def unexpected(*args, **kwargs):
        raise AssertionError("sensor operator rebuilt")

    monkeypatch.setattr(forward, "sensor_green_operator", unexpected)
    given, _, _, _ = _toy_problem()
    given.__dict__["sensor_operator"] = g_full
    grad_g, fid_g, _ = hs.gradient_data_fidelity(given, f, [0, 2], ms, cfg)
    np.testing.assert_array_equal(grad_g, grad)
    assert fid_g == fid


def test_scene_builds_each_operator_once(monkeypatch):
    from helmscat import forward
    scene, cfg, f_true, ms = _toy_problem(active_count=6)
    g_ref = sensor_green_operator(scene.grid, scene.geometry.sensors,
                                  scene.k0, scene.eta_b)
    calls = {"sensor_green_operator": 0, "sample_green_kernel": 0}

    def counting(name):
        build = getattr(forward, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)
        monkeypatch.setattr(forward, name, wrapper)

    counting("sensor_green_operator")
    counting("sample_green_kernel")
    f = 0.5 * f_true
    y_mgh, _ = hs.forward_mgh(scene, f, 1, cfg)
    y_lis, _ = hs.forward_lis(scene, f, 1, cfg)
    hs.forward_lis(scene, f, 2, cfg)
    hs.data_fidelity(scene, f, 0, ms.views[0], cfg)
    hs.gradient_data_fidelity(scene, f, [0, 2], ms, cfg)
    rc = hs.ReconstructionConfig(gamma=0.05, tau=1e-4, iterations=2,
                                 subset_size=2, seed=1, solver=cfg)
    hs.reconstruct_fbs(ms, scene, rc)
    assert calls == {"sensor_green_operator": 1, "sample_green_kernel": 1}
    # the cached operator gives the values of a freshly built one
    active = scene.geometry.active[1]
    u_mgh, _ = hs.HelmholtzForward(scene, f, cfg).total_field(1)
    (u_lis,), _ = forward.LisForward(scene, f, cfg).fields([1])
    np.testing.assert_array_equal(y_mgh, g_ref[active] @ (f * u_mgh).ravel())
    np.testing.assert_array_equal(y_lis, g_ref[active] @ (f * u_lis).ravel())
    assert not scene.sensor_operator.flags.writeable


def test_reconstruction_builds_sensor_operator_once(monkeypatch):
    import helmscat.forward as forward
    scene, cfg, f_true, ms = _toy_problem()
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return sensor_green_operator(*args, **kwargs)

    monkeypatch.setattr(forward, "sensor_green_operator", counting)
    rc = hs.ReconstructionConfig(gamma=0.05, tau=1e-4, iterations=3,
                                 subset_size=2, seed=1, solver=cfg)
    f1, _ = hs.reconstruct_fbs(ms, scene, rc)
    assert len(calls) == 1
    f2, _ = hs.reconstruct_fbs(ms, scene, rc)
    np.testing.assert_array_equal(f1, f2)


def _row_copy_gradient(scene, f, subset, ms, cfg, g_full):
    """The gradient as first written: a copy of the active rows of G and
    the product with its conjugated transpose, from cold starts."""
    fwd = hs.HelmholtzForward(scene, f, cfg)
    s = scene.grid.points_per_side
    grad = np.zeros((s, s))
    fidelity = 0.0
    for q in sorted(subset):
        u_tot, _ = fwd.total_field(q)
        g_active = g_full[scene.geometry.active[q]]
        resid = g_active @ (fwd.f * u_tot).ravel() - ms.views[q]
        fidelity += 0.5 * float(np.linalg.norm(resid) ** 2)
        w = (g_active.conj().T @ resid).reshape(s, s)
        rhs = hs.embed_potential((fwd.f * w).astype(complex), fwd.eg)
        z, _ = fwd.adjoint_solve(rhs)
        grad += np.real(np.conj(u_tot) * (w + hs.restrict_to_roi(z, fwd.eg)))
    return grad, fidelity


@pytest.mark.parametrize("active_count", [None, 6])
def test_gradient_matches_row_copy_expression(active_count):
    scene, cfg, f_true, ms = _toy_problem(active_count)
    assert ms.views[0].size == (active_count or 10)
    g_full = sensor_green_operator(scene.grid, scene.geometry.sensors,
                                   scene.k0, scene.eta_b)
    f = 0.5 * f_true
    grad, fid, _ = hs.gradient_data_fidelity(scene, f, [2, 0], ms, cfg)
    grad_ref, fid_ref = _row_copy_gradient(scene, f, [2, 0], ms, cfg, g_full)
    # the gradient takes one matrix product with G for all views, which
    # rounds differently from the reference's per-view vector products
    assert np.abs(grad - grad_ref).max() <= 1e-14 * np.abs(grad_ref).max()
    assert fid == pytest.approx(fid_ref, rel=1e-14)


@pytest.mark.usefixtures("multigrid_path")
def test_gradient_warm_buffers_match_cold_and_hold_solutions():
    scene, cfg, f_true, ms = _toy_problem()
    f = 0.5 * f_true
    fwd = hs.HelmholtzForward(scene, f, cfg)
    warm = {}
    grad0, fid0, _ = hs.gradient_data_fidelity(scene, 0.45 * f_true, [0, 2],
                                               ms, cfg, warm=warm)
    # view 1 is not in the subset
    assert set(warm) == {(kind, q) for kind in ("forward", "adjoint")
                         for q in (0, 2)}
    grad_cold, fid_cold, wu_cold = hs.gradient_data_fidelity(
        scene, f, [0, 2], ms, cfg)
    grad_warm, fid_warm, wu_warm = hs.gradient_data_fidelity(
        scene, f, [0, 2], ms, cfg, warm=warm)
    assert wu_warm < wu_cold
    scale = np.abs(grad_cold).max()
    assert np.abs(grad_warm - grad_cold).max() <= 1e-6 * scale
    assert fid_warm == pytest.approx(fid_cold, rel=1e-6)
    # the forward buffers hold the scattered fields at f
    for q in (0, 2):
        u_in = hs.plane_wave(fwd.eg, scene.geometry.directions[q], scene.k0,
                             scene.eta_b, scene.geometry.u0)
        (u_sc,), _ = fwd._solve((fwd.f_ext * u_in)[None])
        assert np.linalg.norm(warm[("forward", q)] - u_sc) \
            <= 1e-6 * np.linalg.norm(u_sc)


@pytest.mark.usefixtures("multigrid_path")
def test_gradient_work_units_equal_the_hierarchys_meter():
    # summed from the solve reports, they are what a hierarchy meters over
    # the same forward and adjoint solves
    scene, cfg, f_true, ms = _toy_problem()
    f, subset = 0.5 * f_true, [0, 2]
    _, _, wu = hs.gradient_data_fidelity(scene, f, subset, ms, cfg)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    y, _ = fwd.predict(subset)
    fwd.adjoint(subset, [y_q - ms.views[q] for q, y_q in zip(subset, y)])
    assert wu > 0.0 and wu == fwd.hier.meter.total


def test_reconstruction_threads_one_warm_block(monkeypatch):
    import helmscat.forward as forward
    import helmscat.inverse as inverse
    scene, cfg, f_true, ms = _toy_problem()
    seen = []

    def recording(*args, warm=None, **kwargs):
        seen.append(warm)
        return hs.gradient_data_fidelity(*args, warm=warm, **kwargs)

    monkeypatch.setattr(inverse, "gradient_data_fidelity", recording)
    rc = hs.ReconstructionConfig(gamma=0.05, tau=1e-4, iterations=3,
                                 subset_size=2, seed=1, solver=cfg)
    rng = np.random.default_rng(rc.seed)
    touched = {q for _ in range(rc.iterations)
               for q in select_subset(rng, 3, rc.subset_size)}
    # one container for the whole run; the direct path solves exactly and
    # leaves it empty
    hs.reconstruct_fbs(ms, scene, rc)
    assert len(seen) == 3 and all(w is seen[0] for w in seen)
    assert seen[0] == {}
    seen.clear()
    monkeypatch.setattr(forward, "_DIRECT_MAX_UNKNOWNS", 0)
    hs.reconstruct_fbs(ms, scene, rc)
    se = hs.build_extended_grid(scene.grid, cfg.abl_points, cfg.beta,
                                cfg.levels).points_per_side
    assert len(seen) == 3 and all(w is seen[0] for w in seen)
    assert set(seen[0]) == {(kind, q) for kind in ("forward", "adjoint")
                            for q in touched}
    assert all(b.shape == (se, se) and b.dtype == complex
               for b in seen[0].values())


@pytest.mark.usefixtures("multigrid_path")
def test_warm_starts_save_reconstruction_work(monkeypatch):
    import helmscat.inverse as inverse
    scene, cfg, f_true, ms = _toy_problem()
    rc = hs.ReconstructionConfig(gamma=0.05, tau=1e-4, iterations=4,
                                 subset_size=3, seed=1, solver=cfg)
    f_warm, h_warm = hs.reconstruct_fbs(ms, scene, rc)

    def cold(*args, warm=None, **kwargs):
        return hs.gradient_data_fidelity(*args, **kwargs)

    monkeypatch.setattr(inverse, "gradient_data_fidelity", cold)
    f_cold, h_cold = hs.reconstruct_fbs(ms, scene, rc)
    assert h_warm.work_units[-1] < h_cold.work_units[-1]
    assert np.abs(f_warm - f_cold).max() <= 1e-6 * np.abs(f_cold).max()


def test_measurement_length_must_match_active_sensors():
    scene, cfg, f_true, ms = _toy_problem()
    short = hs.MeasurementSet([ms.views[0], ms.views[1][:1], ms.views[2]])
    msg = "view 1: 1 values for 10 active sensors"
    with pytest.raises(ValueError, match=msg):
        hs.data_fidelity(scene, f_true, 1, short.views[1], cfg)
    with pytest.raises(ValueError, match=msg):
        hs.gradient_data_fidelity(scene, f_true, [0, 1], short, cfg)
    # checked for every view before the first iteration, whichever subsets
    # the run would draw
    rc = hs.ReconstructionConfig(gamma=0.05, tau=1e-4, iterations=1,
                                 subset_size=1, solver=cfg)
    with pytest.raises(ValueError, match=msg):
        hs.reconstruct_fbs(short, scene, rc)


def test_measurement_count_message_shared_with_csv_writer(tmp_path):
    # the CSV writer and the reconstruction check one rule, in one message
    from helmscat import io
    scene, cfg, f_true, ms = _toy_problem()
    short = hs.MeasurementSet([ms.views[0], ms.views[1][:1], ms.views[2]])
    with pytest.raises(ValueError) as written:
        io.write_measurements_csv(tmp_path / "m.csv", scene.geometry,
                                  short.views)
    with pytest.raises(ValueError) as fitted:
        hs.gradient_data_fidelity(scene, f_true, [0, 1], short, cfg)
    assert str(written.value) == str(fitted.value)
    assert str(fitted.value) == ("view 1: 1 values for 10 active sensors "
                                 "(shape (1,))")
    assert not (tmp_path / "m.csv").exists()


def test_reconstruction_rejects_oversized_subset():
    scene, cfg, f_true, ms = _toy_problem()
    rc = hs.ReconstructionConfig(gamma=0.05, tau=1e-4, iterations=1,
                                 subset_size=4, solver=cfg)
    with pytest.raises(ValueError, match="subset_size 4 exceeds the 3 views"):
        hs.reconstruct_fbs(ms, scene, rc)


def test_reconstruction_runs_bit_identical():
    scene, cfg, f_true, ms = _toy_problem()
    eta_true = hs.eta_from_potential(f_true, 1.0, scene.k0)
    rc = hs.ReconstructionConfig(gamma=0.05, tau=1e-4, iterations=6,
                                 subset_size=2, seed=4, solver=cfg)
    f1, h1 = hs.reconstruct_fbs(ms, scene, rc, eta_true=eta_true)
    f2, h2 = hs.reconstruct_fbs(ms, scene, rc, eta_true=eta_true)
    np.testing.assert_array_equal(f1, f2)
    assert h1.objective == h2.objective
    assert h1.snr_db == h2.snr_db
    assert h1.work_units == h2.work_units


def test_direct_gradient_matches_multigrid_gradient(monkeypatch):
    import dataclasses
    from helmscat import forward
    scene, cfg, f_true, ms = _toy_problem(active_count=6)
    cfg = dataclasses.replace(cfg, tol=1e-12)
    f = 0.5 * f_true
    grad, fid, wu = hs.gradient_data_fidelity(scene, f, [0, 1, 2], ms, cfg)
    assert wu == 0.0
    monkeypatch.setattr(forward, "_DIRECT_MAX_UNKNOWNS", 0)
    grad_mg, fid_mg, wu_mg = hs.gradient_data_fidelity(scene, f, [0, 1, 2],
                                                       ms, cfg)
    assert wu_mg > 0.0
    assert np.linalg.norm(grad - grad_mg) <= 1e-8 * np.linalg.norm(grad_mg)
    assert fid == pytest.approx(fid_mg, rel=1e-8)


def test_direct_reconstruction_solve_and_wave_counts(monkeypatch):
    from helmscat import forward, krylov, multigrid
    scene, cfg, f_true, ms = _toy_problem()
    calls = {"plane_wave": 0, "bicgstab": 0, "coarsest_solve": 0}

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(forward, "plane_wave")
    counting(forward, "bicgstab")
    counting(multigrid.MgHierarchy, "coarsest_solve")
    assert krylov.bicgstab is not forward.bicgstab
    rc = hs.ReconstructionConfig(gamma=0.05, tau=1e-4, iterations=4,
                                 subset_size=2, seed=1, solver=cfg)
    hs.reconstruct_fbs(ms, scene, rc)
    # one incident-wave stack per forward solve, one LU solve per direction
    # and iteration, and no Krylov iterations around the exact solves
    assert calls == {"plane_wave": rc.iterations,
                     "bicgstab": 0,
                     "coarsest_solve": 2 * rc.iterations}


def test_forward_diff_stacks_both_axes_and_its_adjoint():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((5, 6))
    d = _forward_diff(w)
    assert d.shape == (2, 5, 6)
    np.testing.assert_array_equal(d[0, :-1], w[1:] - w[:-1])
    np.testing.assert_array_equal(d[1, :, :-1], w[:, 1:] - w[:, :-1])
    assert not d[0, -1].any() and not d[1, :, -1].any()
    # <D w, p> = <w, D^T p>
    p = rng.standard_normal((2, 5, 6))
    assert np.sum(d * p) == pytest.approx(np.sum(w * _neg_divergence(p)))


def _textbook_fgp(w, weight, inner_iters):
    # Beck and Teboulle's fast gradient projection on the dual, with freshly
    # allocated differences and steps
    def grad(x):
        d = np.zeros((2,) + x.shape)
        d[0, :-1, :] = x[1:, :] - x[:-1, :]
        d[1, :, :-1] = x[:, 1:] - x[:, :-1]
        return d

    def neg_div(q):
        out = np.zeros(q.shape[1:])
        out[:-1, :] -= q[0, :-1, :]
        out[1:, :] += q[0, :-1, :]
        out[:, :-1] -= q[1, :, :-1]
        out[:, 1:] += q[1, :, :-1]
        return out

    p = np.zeros((2,) + w.shape)
    b = p.copy()
    t = 1.0
    for _ in range(inner_iters):
        x = np.maximum(w - weight * neg_div(b), 0.0)
        c = b + grad(x) / (8.0 * weight)
        p_new = c / np.maximum(1.0, np.sqrt(c[0] * c[0] + c[1] * c[1]))
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        b = p_new + ((t - 1.0) / t_new) * (p_new - p)
        p, t = p_new, t_new
    return np.maximum(w - weight * neg_div(p), 0.0), p


@pytest.mark.parametrize("shape, weight, iters", [((5, 6), 0.3, 7),
                                                  ((64, 64), 0.02, 50)])
def test_tv_prox_dual_matches_textbook_loop(shape, weight, iters):
    from helmscat.inverse import _tv_prox_dual
    w = np.random.default_rng(11).standard_normal(shape)
    x, p = _tv_prox_dual(w, weight, iters)
    x_ref, p_ref = _textbook_fgp(w, weight, iters)
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(p, p_ref)
