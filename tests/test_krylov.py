import numpy as np
import pytest

from helmscat import BicgstabBreakdown, bicgstab


def test_identity_system_converges_instantly():
    b = np.array([1.0 + 2.0j, -3.0j, 0.5])
    x, report = bicgstab(lambda v: v, b, tol=1e-10, max_iter=10)
    assert report.converged
    np.testing.assert_allclose(x, b, rtol=1e-10)


def test_zero_rhs():
    x, report = bicgstab(lambda v: 2.0 * v, np.zeros(4, dtype=complex))
    assert report.converged
    assert report.iterations == 0
    np.testing.assert_array_equal(x, 0.0)


def test_random_complex_system():
    rng = np.random.default_rng(0)
    n = 30
    A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         + 6.0 * np.eye(n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, report = bicgstab(lambda v: A @ v, b, tol=1e-12, max_iter=200)
    assert report.converged
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-8)


def test_preconditioned_converges_faster():
    rng = np.random.default_rng(1)
    n = 40
    d = 1.0 + 9.0 * rng.random(n)
    A = np.diag(d) + 0.01 * rng.standard_normal((n, n))
    b = rng.standard_normal(n).astype(complex)
    _, plain = bicgstab(lambda v: A @ v, b, tol=1e-10, max_iter=500)
    _, prec = bicgstab(lambda v: A @ v, b, apply_M=lambda v: v / d,
                       tol=1e-10, max_iter=500)
    assert prec.converged
    assert prec.iterations <= plain.iterations


def test_initial_guess_honored():
    rng = np.random.default_rng(2)
    n = 10
    A = 3.0 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
    x_true = rng.standard_normal(n).astype(complex)
    b = A @ x_true
    x, report = bicgstab(lambda v: A @ v, b, x0=x_true, tol=1e-12)
    assert report.converged
    assert report.iterations == 0


def test_residual_history_and_stop_rule():
    rng = np.random.default_rng(3)
    n = 25
    A = 5.0 * np.eye(n) + rng.standard_normal((n, n))
    b = rng.standard_normal(n).astype(complex)
    tol = 1e-8
    x, report = bicgstab(lambda v: A @ v, b, tol=tol, max_iter=300)
    assert report.converged
    assert report.residual_history[0] == pytest.approx(np.linalg.norm(b))
    assert report.residual_history[-1] <= tol * np.linalg.norm(b)
    assert len(report.residual_history) >= report.iterations


def test_non_convergence_reported():
    rng = np.random.default_rng(4)
    n = 50
    A = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    b = rng.standard_normal(n).astype(complex)
    x, report = bicgstab(lambda v: A @ v, b, tol=1e-14, max_iter=2)
    assert not report.converged
    assert report.iterations == 2


def test_breakdown_raises():
    # 90-degree rotation: the first search direction v = A r is orthogonal
    # to the shadow residual, so the recurrence cannot proceed
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    b = np.array([1.0 + 0.0j, 0.0])
    with pytest.raises(BicgstabBreakdown):
        bicgstab(lambda v: A @ v, b, tol=1e-12, max_iter=10)


def test_argument_validation():
    b = np.ones(3, dtype=complex)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            bicgstab(lambda v: v, b, tol=tol)
    with pytest.raises(ValueError):
        bicgstab(lambda v: v, b, max_iter=0)


def test_half_step_exit():
    # A = I converges at the half step (s = 0 exactly); the stabilization
    # denominator <t, t> would vanish if the iteration continued
    rng = np.random.default_rng(5)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x, report = bicgstab(lambda v: v.copy(), b, x0=0.5 * b, tol=1e-12)
    assert report.converged
    np.testing.assert_allclose(x, b, rtol=1e-12)


def test_nan_rhs_stops_at_once():
    # a NaN right-hand side used to run all max_iter iterations
    A = 3.0 * np.eye(6)
    b = np.ones(6, dtype=complex)
    b[2] = np.nan
    calls = []
    apply_M = lambda v: calls.append(1) or v / 3.0
    x, report = bicgstab(lambda v: A @ v, b, apply_M=apply_M, tol=1e-10,
                         max_iter=500)
    assert not report.converged
    assert report.iterations <= 1
    assert len(calls) <= 2
    assert np.isnan(report.residual_history[-1])


def test_non_finite_operator_output_stops_run():
    # the operator is non-finite from its first application, the first
    # search direction; the zero start takes the finite initial residual
    # from b without applying it
    b = np.ones(4, dtype=complex)
    with np.errstate(invalid="ignore"):
        x, report = bicgstab(lambda v: v * np.inf, b, tol=1e-10,
                             max_iter=500)
    assert not report.converged
    assert report.iterations == 1
    assert np.isfinite(report.residual_history[0])
    assert not np.isfinite(report.residual_history[-1])


def test_zero_start_skips_the_initial_operator_apply():
    # A = 2I converges at the first half-step: one apply for the search
    # direction, plus one for b - A x0 only when a guess is given
    calls = []

    def apply_A(v):
        calls.append(1)
        return 2.0 * v

    b = np.array([1.0 + 2.0j, -3.0j, 0.5, 2.0])
    x, report = bicgstab(apply_A, b, tol=1e-12)
    assert report.converged and report.iterations == 1 and len(calls) == 1
    x_guess, report_guess = bicgstab(apply_A, b, x0=np.zeros(4, complex),
                                     tol=1e-12)
    assert len(calls) == 3
    np.testing.assert_array_equal(x, x_guess)
    assert report.residual_history == report_guess.residual_history
    # b is not written through the residual
    np.testing.assert_array_equal(b, [1.0 + 2.0j, -3.0j, 0.5, 2.0])


def _textbook_bicgstab(apply_A, b, apply_M, x0, tol, max_iter):
    # preconditioned Bi-CGSTAB with a fresh array for every vector, the
    # same stop rules, and no breakdown checks
    b = np.asarray(b, dtype=complex)
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=complex)
    threshold = tol * float(np.linalg.norm(b))
    r = b - apply_A(x)
    r_hat = r.copy()
    history = [float(np.linalg.norm(r_hat))]
    rho_prev = alpha = sigma = 1.0 + 0.0j
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    if not np.isfinite(history[0]) or history[0] <= threshold:
        return x, history
    for _ in range(max_iter):
        rho = np.vdot(r_hat, r)
        beta = (rho / rho_prev) * (alpha / sigma)
        p = r + beta * (p - sigma * v)
        y = apply_M(p)
        v = apply_A(y)
        alpha = rho / np.vdot(r_hat, v)
        h = x + alpha * y
        s = r - alpha * v
        s_norm = float(np.linalg.norm(s))
        if not np.isfinite(s_norm) or s_norm <= threshold:
            history.append(s_norm)
            if np.isfinite(s_norm):
                x = h
            break
        z = apply_M(s)
        t = apply_A(z)
        sigma = np.vdot(t, s) / np.vdot(t, t)
        x = h + sigma * z
        r = s - sigma * t
        rho_prev = rho
        history.append(float(np.linalg.norm(r)))
        if not np.isfinite(history[-1]) or history[-1] <= threshold:
            break
    return x, history


def _assert_matches_textbook(apply_A, b, apply_M=None, x0=None, tol=1e-10,
                             max_iter=200):
    x_ref, hist_ref = _textbook_bicgstab(
        apply_A, b, apply_M or (lambda v: v), x0, tol, max_iter)
    x, report = bicgstab(apply_A, b, apply_M=apply_M, x0=x0, tol=tol,
                         max_iter=max_iter)
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(report.residual_history, hist_ref)
    assert report.iterations == len(hist_ref) - 1
    return report


def _dominant_system(seed, n=40):
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         + 8.0 * np.eye(n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return A, b, rng


def test_in_place_updates_bit_identical_to_textbook_loop():
    A, b, rng = _dominant_system(6)
    d = np.diag(A).copy()
    report = _assert_matches_textbook(lambda v: A @ v, b,
                                      apply_M=lambda v: v / d)
    assert report.converged and report.iterations > 3
    x0 = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    _assert_matches_textbook(lambda v: A @ v, b, x0=x0, tol=1e-13)
    # the caller's guess is copied, not updated
    x0_before = x0.copy()
    bicgstab(lambda v: A @ v, b, x0=x0)
    np.testing.assert_array_equal(x0, x0_before)


def test_in_place_updates_with_aliasing_operators():
    # an operator and a preconditioner that return their argument hand the
    # solver's own p and r back as y, v, z and t; the default
    # preconditioner alone hands back p and r as y and z
    b = np.array([1.0 + 2.0j, -3.0j, 0.5, 2.0])
    _assert_matches_textbook(lambda v: v, b, x0=np.zeros(4, dtype=complex),
                             tol=1e-12)
    A, b, _ = _dominant_system(8)
    _assert_matches_textbook(lambda v: A @ v, b)


@pytest.mark.filterwarnings("ignore:coarsest level has")
def test_multigrid_preconditioned_bit_identical_to_textbook_loop():
    from helmscat import Grid2D, MgHierarchy, assemble, build_extended_grid
    g = Grid2D(17, 16.0, (0.0, 0.0))
    eg = build_extended_grid(g, 4, 0.15, 2)
    se = eg.points_per_side
    rng = np.random.default_rng(7)
    op = assemble(eg, 1.0 + 0.1 * rng.random((se, se)), 0.5)
    hier = MgHierarchy(op, 2)
    b = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    report = _assert_matches_textbook(op.apply, b,
                                      apply_M=hier.as_preconditioner(),
                                      tol=1e-12)
    assert report.converged


def _nan_after_first_call():
    calls = []

    def apply_A(v):
        calls.append(1)
        return v * (np.nan if len(calls) > 1 else 2.0)
    return apply_A


def test_half_step_failure_returns_previous_iterate():
    # the operator turns NaN on its second application, so the half-step
    # residual s is NaN: the solver returns x0, not x0 + alpha y
    b = np.ones(4, dtype=complex)
    x0 = np.full(4, 0.25 + 0.0j)
    with np.errstate(invalid="ignore"):
        x_ref, hist_ref = _textbook_bicgstab(_nan_after_first_call(), b,
                                             lambda v: v, x0, 1e-10, 50)
        x, report = bicgstab(_nan_after_first_call(), b, x0=x0, tol=1e-10,
                             max_iter=50)
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(report.residual_history, hist_ref)
    assert not report.converged
    assert report.iterations == 1


def test_nan_rhs_bit_identical_to_textbook_loop():
    A = 3.0 * np.eye(6)
    b = np.ones(6, dtype=complex)
    b[2] = np.nan
    report = _assert_matches_textbook(lambda v: A @ v, b,
                                      apply_M=lambda v: v / 3.0)
    assert not report.converged
