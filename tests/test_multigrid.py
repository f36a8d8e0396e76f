import warnings

import numpy as np
import pytest

from helmscat import (Grid2D, build_extended_grid, assemble, MgHierarchy,
                      WorkUnitMeter, damped_jacobi, restrict_full_weighting,
                      prolong_bilinear, coarsen_operator, mg_cycle,
                      lfa_symbols, bicgstab, dense_reference_solve)
from helmscat.helmholtz import HelmholtzOperator, LevelGeometry


def _operator(s=17, beta=0.15, abl=4, levels=2, k0=1.5, seed=0):
    g = Grid2D(s, float(s - 1), (0.0, 0.0))
    eg = build_extended_grid(g, abl, beta, levels)
    se = eg.points_per_side
    rng = np.random.default_rng(seed)
    eta_sq = 1.0 + 0.1 * rng.random((se, se))
    return eg, assemble(eg, eta_sq, k0, beta)


def test_transfer_adjoint_relation():
    # <P x, y>_fine = 4 <x, R y>_coarse for the bilinear/full-weighting pair
    rng = np.random.default_rng(0)
    sc, sf = 9, 17
    x = rng.standard_normal((sc, sc)) + 1j * rng.standard_normal((sc, sc))
    y = rng.standard_normal((sf, sf)) + 1j * rng.standard_normal((sf, sf))
    lhs = np.vdot(y, prolong_bilinear(x))
    rhs = 4.0 * np.vdot(restrict_full_weighting(y), x)
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_prolongation_preserves_constants():
    c = 3.7 * np.ones((9, 9))
    np.testing.assert_allclose(prolong_bilinear(c), 3.7)


def test_restriction_preserves_constants_interior():
    c = 2.5 * np.ones((17, 17))
    r = restrict_full_weighting(c)
    # out-of-grid fine samples read as zero, so only the ring is affected
    np.testing.assert_allclose(r[1:-1, 1:-1], 2.5)


def test_restriction_shape_and_weights():
    f = np.zeros((9, 9))
    f[4, 4] = 16.0
    r = restrict_full_weighting(f)
    assert r.shape == (5, 5)
    assert r[2, 2] == 4.0   # center weight 4/16
    assert r[2, 1] == 0.0   # the spike is not an edge neighbor of (2,1)
    f2 = np.zeros((9, 9))
    f2[3, 4] = 16.0         # edge neighbor of coarse (2, 2), weight 2/16
    assert restrict_full_weighting(f2)[2, 2] == 2.0
    f3 = np.zeros((9, 9))
    f3[3, 3] = 16.0         # corner neighbor, weight 1/16
    assert restrict_full_weighting(f3)[2, 2] == 1.0


def test_restriction_requires_odd_side():
    with pytest.raises(ValueError):
        restrict_full_weighting(np.zeros((8, 8)))


def test_damped_jacobi_fixed_point():
    eg, op = _operator()
    se = eg.points_per_side
    rng = np.random.default_rng(1)
    x = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    b = op.apply(x)
    out = damped_jacobi(op, b, x.copy(), 0.8, 3)
    np.testing.assert_allclose(out, x, rtol=1e-12)


def test_damped_jacobi_validation():
    eg, op = _operator()
    b = np.zeros((eg.points_per_side,) * 2, dtype=complex)
    with pytest.raises(ValueError):
        damped_jacobi(op, b, b, 0.0, 1)
    with pytest.raises(ValueError):
        damped_jacobi(op, b, b, 0.8, -1)


def test_coarse_operator_background_ring():
    eg, op = _operator(beta=0.1)
    op_c = coarsen_operator(op)
    bg = op.eta_sq[0, 0]
    assert np.all(op_c.eta_sq[0, :] == bg)
    assert np.all(op_c.eta_sq[:, -1] == bg)
    assert op_c.h == 2.0 * op.h
    assert op_c.side == (op.side + 1) // 2


def test_work_unit_meter():
    m = WorkUnitMeter()
    m.record(0, 2)
    m.record(1, 2)
    m.record(2, 2)
    assert m.total == pytest.approx(2.0 * (1.0 + 0.25 + 0.0625))
    m.reset()
    assert m.total == 0.0


def test_cycle_work_under_geometric_bound():
    # smoother work of one cycle stays below (4/3)*(nu1+nu2) fine-grid sweeps
    eg, op = _operator(s=33, abl=4, levels=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hier = MgHierarchy(op, 3, nu1=1, nu2=1, omega=0.8)
    se = eg.points_per_side
    b = np.ones((se, se), dtype=complex)
    mg_cycle(hier, b, np.zeros_like(b))
    assert hier.meter.total < (4.0 / 3.0) * 2.0


def test_cycle_reduces_residual():
    eg, op = _operator(s=17, abl=4, levels=2, k0=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hier = MgHierarchy(op, 2)
    se = eg.points_per_side
    rng = np.random.default_rng(2)
    b = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    v = mg_cycle(hier, b, np.zeros_like(b))
    assert np.linalg.norm(b - op.apply(v)) < 0.5 * np.linalg.norm(b)


def test_w_cycle_at_least_as_good_as_v():
    eg, op = _operator(s=17, abl=4, levels=2, k0=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hv = MgHierarchy(op, 2, cycle_type=1)
        hw = MgHierarchy(op, 2, cycle_type=2)
    se = eg.points_per_side
    rng = np.random.default_rng(3)
    b = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    rv = np.linalg.norm(b - op.apply(mg_cycle(hv, b, np.zeros_like(b))))
    rw = np.linalg.norm(b - op.apply(mg_cycle(hw, b, np.zeros_like(b))))
    assert rw <= rv


def test_preconditioned_solve_matches_dense():
    eg, op = _operator(s=17, abl=4, levels=2, k0=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hier = MgHierarchy(op, 2)
    se = eg.points_per_side
    rng = np.random.default_rng(4)
    b = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    x, report = bicgstab(op.apply, b, apply_M=hier.as_preconditioner(),
                         tol=1e-12, max_iter=200, work_meter=hier.meter)
    assert report.converged
    x_ref = dense_reference_solve(op, b)
    assert np.linalg.norm(x - x_ref) < 1e-9 * np.linalg.norm(x_ref)
    assert report.work_units > 0.0


def test_coarse_resolution_warning():
    # 10-points-per-wavelength rule violated on the coarsest level
    eg, op = _operator(s=17, abl=4, levels=3, k0=1.5)
    with pytest.warns(UserWarning, match="points per wavelength"):
        MgHierarchy(op, 3)


def test_lfa_smoother_symbol_at_zero_frequency():
    # (kh)^2 = 1, omega = 0.8: s(0, 0) = 0.2 + 1.6/3 * 2 = 19/15
    sym = lfa_symbols(1.0, 0.8, (0.0, 0.0))
    assert sym["s_symbol"] == pytest.approx(19.0 / 15.0)
    assert abs(sym["s_symbol"]) > 1.0


def test_lfa_operator_symbol():
    sym = lfa_symbols(1.0, 0.8, (np.pi, np.pi))
    # a = 4 - 2(cos pi + cos pi) - 1 = 7
    assert sym["a_symbol"] == pytest.approx(7.0)


def test_lfa_singular_point():
    with pytest.raises(ZeroDivisionError):
        lfa_symbols(2.0, 0.8, (0.0, 0.0))


@pytest.mark.parametrize("sweeps", [0, 1, 2])
def test_damped_jacobi_zero_guess_matches_zero_array(sweeps):
    eg, op = _operator()
    se = eg.points_per_side
    rng = np.random.default_rng(5)
    b = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    from_zeros = damped_jacobi(op, b, np.zeros_like(b), 0.8, sweeps)
    from_none = damped_jacobi(op, b, None, 0.8, sweeps)
    assert from_none.shape == b.shape
    np.testing.assert_array_equal(from_none, from_zeros)


def test_damped_jacobi_leaves_initial_guess_untouched():
    eg, op = _operator()
    se = eg.points_per_side
    rng = np.random.default_rng(6)
    b = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    v = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    v_before = v.copy()
    damped_jacobi(op, b, v, 0.8, 2)
    np.testing.assert_array_equal(v, v_before)


@pytest.mark.parametrize("cycle_type", [1, 2])
def test_mg_cycle_zero_guess_matches_zero_array(cycle_type):
    eg, op = _operator(s=33, abl=4, levels=3, k0=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hier = MgHierarchy(op, 3, cycle_type=cycle_type)
    se = eg.points_per_side
    rng = np.random.default_rng(7)
    b = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    from_zeros = mg_cycle(hier, b, np.zeros_like(b))
    wu_zeros = hier.meter.total
    from_none = mg_cycle(hier, b, None)
    assert (np.linalg.norm(from_none - from_zeros)
            <= 1e-14 * np.linalg.norm(from_zeros))
    # the zero-guess sweep is metered as a full sweep
    assert hier.meter.total == pytest.approx(2.0 * wu_zeros)


def _zero_diagonal_operator():
    # h = 1, eta^2 = 1, k0 = 2, beta = 0: interior diagonal 4/h^2 - k0^2 = 0
    geom = LevelGeometry(5, 1.0, (0.0, 0.0), (0.0, 0.0), (4.0, 4.0), 0.0)
    return HelmholtzOperator(geom, np.ones((5, 5)), 2.0, 0.0)


@pytest.mark.parametrize("v", [None, "zeros"])
def test_damped_jacobi_zero_diagonal_raises(v):
    op = _zero_diagonal_operator()
    assert np.any(op.diagonal() == 0.0)
    b = np.ones((5, 5), dtype=complex)
    v0 = np.zeros_like(b) if v == "zeros" else None
    with pytest.raises(ZeroDivisionError, match="zero diagonal entry"):
        damped_jacobi(op, b, v0, 0.8, 1)


def test_inverse_diagonal_cached_and_read_only():
    eg, op = _operator()
    d_inv = op.inverse_diagonal()
    assert op.inverse_diagonal() is d_inv
    np.testing.assert_allclose(d_inv * op.diagonal(), 1.0, rtol=1e-15)
    with pytest.raises(ValueError):
        d_inv[0, 0] = 0.0


def test_coarsest_solve_accurate_at_high_contrast():
    # criterion 1's 3-level hierarchy (321^2 extended, coarsest 81^2) with
    # permittivity contrast 4 inside the disk: the sparse LU must keep
    # partial pivoting, which a pivot-free factorization loses (~1e-11)
    g = Grid2D(256, 31.875, (-15.9375, -15.9375))
    eg = build_extended_grid(g, 32, 0.15, 3)
    se = eg.points_per_side
    x = (np.arange(se) - se // 2) * eg.h
    xx, yy = np.meshgrid(x, x, indexing="ij")
    eta_sq = np.where(np.hypot(xx, yy) <= 12.5, 5.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        hier = MgHierarchy(assemble(eg, eta_sq, 2.0 * np.pi / 10.0, 0.15), 3)
    coarsest = hier.levels[-1]
    assert coarsest.side == 81
    rng = np.random.default_rng(4)
    b = rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81))
    v = hier.coarsest_solve(b)
    res = np.linalg.norm(coarsest.apply(v) - b) / np.linalg.norm(b)
    assert res <= 1e-12
