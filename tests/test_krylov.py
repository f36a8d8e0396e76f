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
    with pytest.raises(ValueError):
        bicgstab(lambda v: v, b, tol=0.0)
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
    # the operator turns non-finite on its second application (the first
    # search direction), after a finite initial residual
    calls = []

    def apply_A(v):
        calls.append(1)
        return v * (np.inf if len(calls) > 1 else 2.0)

    b = np.ones(4, dtype=complex)
    with np.errstate(invalid="ignore"):
        x, report = bicgstab(apply_A, b, tol=1e-10, max_iter=500)
    assert not report.converged
    assert report.iterations == 1
    assert np.isfinite(report.residual_history[0])
    assert not np.isfinite(report.residual_history[-1])
