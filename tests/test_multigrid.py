import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from helmscat import (Grid2D, build_extended_grid, assemble, MgHierarchy,
                      WorkUnitMeter, damped_jacobi, restrict_full_weighting,
                      prolong_bilinear, coarsen_operator, mg_cycle,
                      lfa_symbols, bicgstab, dense_reference_solve)
from helmscat.helmholtz import HelmholtzOperator


def _operator(s=17, beta=0.15, abl=4, levels=2, k0=1.5, seed=0):
    g = Grid2D(s, float(s - 1), (0.0, 0.0))
    eg = build_extended_grid(g, abl, beta, levels)
    se = eg.points_per_side
    rng = np.random.default_rng(seed)
    eta_sq = 1.0 + 0.1 * rng.random((se, se))
    return eg, assemble(eg, eta_sq, k0)


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


@pytest.mark.parametrize("kwargs, needle", [
    ({"nu1": -1}, "sweeps must be nonnegative"),
    ({"nu2": -1}, "sweeps must be nonnegative"),
    ({"omega": 0.0}, r"omega must be in \(0, 1\]"),
    ({"omega": 1.5}, r"omega must be in \(0, 1\]"),
    ({"omega": np.nan}, r"omega must be in \(0, 1\]"),
])
def test_hierarchy_rejects_bad_smoothing(kwargs, needle):
    # at construction, as a bad n_levels or cycle_type is, not at the
    # first cycle
    eg, op = _operator(s=17, abl=4, levels=2, k0=0.5)
    with pytest.raises(ValueError, match=needle):
        MgHierarchy(op, 2, **kwargs)


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
    hier = MgHierarchy(op, 3, nu1=1, nu2=1, omega=0.8)
    se = eg.points_per_side
    b = np.ones((se, se), dtype=complex)
    mg_cycle(hier, b, np.zeros_like(b))
    assert hier.meter.total < (4.0 / 3.0) * 2.0


def test_cycle_reduces_residual():
    eg, op = _operator(s=17, abl=4, levels=2, k0=0.5)
    hier = MgHierarchy(op, 2)
    se = eg.points_per_side
    rng = np.random.default_rng(2)
    b = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    v = mg_cycle(hier, b, np.zeros_like(b))
    assert np.linalg.norm(b - op.apply(v)) < 0.5 * np.linalg.norm(b)


def test_w_cycle_at_least_as_good_as_v():
    eg, op = _operator(s=17, abl=4, levels=2, k0=0.5)
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
    hier = MgHierarchy(op, 2)
    se = eg.points_per_side
    rng = np.random.default_rng(4)
    b = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    x, report = bicgstab(op.apply, b, apply_M=hier.as_preconditioner(),
                         tol=1e-12, max_iter=200)
    assert report.converged
    x_ref = dense_reference_solve(op, b)
    assert np.linalg.norm(x - x_ref) < 1e-9 * np.linalg.norm(x_ref)
    assert hier.meter.total > 0.0


def test_coarse_resolution_warning():
    # 10-points-per-wavelength rule violated on the coarsest level
    eg, op = _operator(s=17, abl=4, levels=3, k0=1.5)
    with pytest.warns(UserWarning, match="points per wavelength"):
        MgHierarchy(op, 3)


def test_one_level_hierarchy_does_not_warn():
    # the same under-resolved operator, solved directly: no coarse grid
    eg, op = _operator(s=17, abl=4, levels=3, k0=1.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        MgHierarchy(op, 1)
    assert not [w for w in caught if issubclass(w.category, UserWarning)]


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
    return HelmholtzOperator(1.0, np.ones((5, 5)),
                             np.ones((5, 5), dtype=complex), 2.0)


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
    hier = MgHierarchy(assemble(eg, eta_sq, 2.0 * np.pi / 10.0), 3)
    coarsest = hier.levels[-1]
    assert coarsest.side == 81
    rng = np.random.default_rng(4)
    b = rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81))
    v = hier.coarsest_solve(b)
    res = np.linalg.norm(coarsest.apply(v) - b) / np.linalg.norm(b)
    assert res <= 1e-12


def _random_field(rng, s):
    return rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))


@pytest.mark.parametrize("levels", [1, 3])
def test_preconditioner_results_are_separate_arrays(levels):
    eg, op = _operator(s=33, abl=4, levels=3, k0=0.5)
    hier = MgHierarchy(op, levels)
    apply_m = hier.as_preconditioner()
    se = eg.points_per_side
    rng = np.random.default_rng(8)
    b1, b2 = _random_field(rng, se), _random_field(rng, se)
    b1_before, b2_before = b1.copy(), b2.copy()
    y1 = apply_m(b1)
    y1_before = y1.copy()
    y2 = apply_m(b2)
    assert not np.shares_memory(y1, y2)
    np.testing.assert_array_equal(y1, y1_before)
    np.testing.assert_array_equal(b1, b1_before)
    np.testing.assert_array_equal(b2, b2_before)
    # no result is one of the hierarchy's work arrays
    for level in range(levels - 1):
        w = hier.work[level]
        for a in (w.t, w.rows, w.r_c):
            assert not np.shares_memory(a, y1)
            assert not np.shares_memory(a, y2)
    # the same input gives the same output again
    np.testing.assert_array_equal(apply_m(b1), y1)


def _reference_restrict(r):
    # full weighting with a zero-padded copy, 3x3 stencil written out
    p = np.pad(r, 1)
    w = (4.0 * p[1:-1, 1:-1]
         + 2.0 * (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:])
         + p[:-2, :-2] + p[:-2, 2:] + p[2:, :-2] + p[2:, 2:]) / 16.0
    return w[0::2, 0::2]


def _reference_prolong(e):
    sf = 2 * e.shape[0] - 1
    out = np.zeros((sf, sf), dtype=e.dtype)
    out[0::2, 0::2] = e
    out[1::2, 0::2] = 0.5 * (e[:-1, :] + e[1:, :])
    out[0::2, 1::2] = 0.5 * (e[:, :-1] + e[:, 1:])
    out[1::2, 1::2] = 0.25 * (e[:-1, :-1] + e[:-1, 1:]
                              + e[1:, :-1] + e[1:, 1:])
    return out


def _reference_cycle(hier, b, v, level=0):
    # textbook V/W cycle that allocates every intermediate
    op = hier.levels[level]
    if level == len(hier.levels) - 1:
        lu = splu(op.as_sparse())
        return lu.solve(b.ravel()).reshape(b.shape)
    d_inv = 1.0 / op.diagonal()

    def smooth(v, sweeps):
        for _ in range(sweeps):
            v = v - hier.omega * d_inv * (op.apply(v) - b)
        return v

    v = smooth(np.zeros_like(b) if v is None else v, hier.nu1)
    r_c = _reference_restrict(b - op.apply(v))
    e_c = None
    for _ in range(hier.cycle_type):
        e_c = _reference_cycle(hier, r_c, e_c, level + 1)
    return smooth(v + _reference_prolong(e_c), hier.nu2)


@pytest.mark.parametrize("cycle_type", [1, 2])
@pytest.mark.parametrize("nu", [1, 2])
def test_cycle_matches_reference_cycle(cycle_type, nu):
    eg, op = _operator(s=33, abl=4, levels=3, k0=0.5)
    hier = MgHierarchy(op, 3, nu1=nu, nu2=nu, cycle_type=cycle_type)
    se = eg.points_per_side
    rng = np.random.default_rng(9)
    b = _random_field(rng, se)
    v0 = _random_field(rng, se)
    for guess in (None, v0):
        ref = _reference_cycle(hier, b, guess)
        # twice: the second cycle runs on work arrays the first one left
        for _ in range(2):
            got = mg_cycle(hier, b, guess)
            assert (np.linalg.norm(got - ref)
                    <= 1e-13 * np.linalg.norm(ref))
    # the metered work is the cycle's, whatever arrays it ran on
    per_cycle = 2 * nu * sum(cycle_type**p * 4.0**(-p) for p in range(2))
    assert hier.meter.total == pytest.approx(4 * per_cycle)


@pytest.mark.parametrize("sweeps", [0, 1, 3])
@pytest.mark.parametrize("start", ["none", "array"])
def test_damped_jacobi_out_and_in_place_match_allocating(sweeps, start):
    eg, op = _operator()
    se = eg.points_per_side
    rng = np.random.default_rng(10)
    b = _random_field(rng, se)
    v = None if start == "none" else _random_field(rng, se)
    expected = damped_jacobi(op, b, v, 0.8, sweeps)
    out = np.full((se, se), np.nan, dtype=complex)
    assert damped_jacobi(op, b, v, 0.8, sweeps, out=out) is out
    np.testing.assert_array_equal(out, expected)
    if v is not None:
        damped_jacobi(op, b, v, 0.8, sweeps, out=v)
        np.testing.assert_array_equal(v, expected)


def test_transfers_write_every_entry_of_out():
    rng = np.random.default_rng(11)
    r = _random_field(rng, 17)
    out = np.full((9, 9), np.nan, dtype=complex)
    rows = np.full((9, 17), np.nan, dtype=complex)
    assert restrict_full_weighting(r, out=out, rows=rows) is out
    np.testing.assert_array_equal(out, restrict_full_weighting(r))
    np.testing.assert_allclose(out, _reference_restrict(r), rtol=1e-14)
    e = _random_field(rng, 9)
    fine = np.full((17, 17), np.nan, dtype=complex)
    assert prolong_bilinear(e, out=fine) is fine
    np.testing.assert_array_equal(fine, prolong_bilinear(e))
    np.testing.assert_allclose(fine, _reference_prolong(e), rtol=1e-14)


def _reference_level(eg, eta_sq, k0, p):
    """alpha and diagonal of level p rebuilt from that level's own
    coordinates, mesh 2^p h: the ROI distance on the level's meshgrid,
    the ABL profile, then the Sommerfeld-folded diagonal."""
    h = 2**p * eg.h
    side = eta_sq.shape[0]
    ax = eg.origin[0] + h * np.arange(side)
    ay = eg.origin[1] + h * np.arange(side)
    x, y = np.meshgrid(ax, ay, indexing="ij")
    lo, hi = eg.roi_box
    dx = np.maximum(np.maximum(lo[0] - x, x - hi[0]), 0.0)
    dy = np.maximum(np.maximum(lo[1] - y, y - hi[1]), 0.0)
    if eg.abl_strength == 0.0:
        alpha = np.ones((side, side), dtype=complex)
    else:
        d = np.hypot(dx, dy) / eg.abl_thickness
        alpha = 1.0 - 1j * eg.abl_strength * d**2
    h2 = h**2
    k_eta = k0 * np.sqrt(eta_sq)
    diag = (4.0 / h2 - alpha * k0**2 * eta_sq).astype(complex)
    diag[0, :] -= (1.0 + 1j * h * k_eta[0, :]) / h2
    diag[-1, :] -= (1.0 + 1j * h * k_eta[-1, :]) / h2
    diag[:, 0] -= (1.0 + 1j * h * k_eta[:, 0]) / h2
    diag[:, -1] -= (1.0 + 1j * h * k_eta[:, -1]) / h2
    return alpha, diag


@pytest.mark.parametrize("inner, abl, levels, pad", [
    # the 256^2 benchmark geometry: 321^2 extended, 3 levels
    (Grid2D(256, 31.875, (-15.9375, -15.9375)), 32, 3, 1),
    # non-dyadic mesh 7.3/10, no layer on the low sides, 2 pad cells high
    (Grid2D(11, 7.3, (-3.65, -3.65)), 0, 3, 2)],
    ids=["321^2 benchmark", "side 7.3 pad 2"])
def test_coarse_levels_match_per_level_construction(inner, abl, levels, pad):
    eg = build_extended_grid(inner, abl, 0.15, levels)
    assert eg.pad == pad
    se = eg.points_per_side
    k0 = 2.0 * np.pi / 10.0
    x = (np.arange(se) - se // 2) * eg.h
    eta_sq = np.where(np.hypot(x[:, None], x) <= 0.4 * se * eg.h, 2.0, 1.0)
    ops = [assemble(eg, eta_sq, k0)]
    for _ in range(levels - 1):
        ops.append(coarsen_operator(ops[-1]))
    for p, op in enumerate(ops):
        alpha, diag = _reference_level(eg, op.eta_sq, k0, p)
        np.testing.assert_array_equal(op.alpha, alpha)
        np.testing.assert_array_equal(op.diagonal(), diag)
        assert op.h == 2**p * eg.h


def test_coarsen_operator_rejects_small_level():
    op = HelmholtzOperator(1.0, np.ones((3, 3)), np.ones((3, 3)), 1.0)
    with pytest.raises(ValueError, match="cannot coarsen"):
        coarsen_operator(op)


def _disk_operator(index, beta):
    # the 73^2 extended grid of a 64^2 region: the direct path
    eg = build_extended_grid(Grid2D(64, 16.0, (-8.0, -8.0)), 4, beta, 2)
    x = eg.origin[0] + eg.h * np.arange(eg.points_per_side)
    eta_sq = np.where(np.hypot(x[:, None], x) <= 5.0, index ** 2, 1.0)
    return assemble(eg, eta_sq, 2.0 * np.pi / 2.5)


@pytest.mark.parametrize("index, beta", [(1.1, 0.0), (4.0, 0.15)])
def test_kept_column_order_solves_bit_for_bit(index, beta):
    # a second hierarchy of a side factors in the first one's column order,
    # computing none, and solves as a fresh minimum-degree factorization
    op = _disk_operator(index, beta)
    s = op.side
    n = s * s
    assert s == 73
    first = MgHierarchy(op, 1)
    hier = MgHierarchy(op, 1)
    np.testing.assert_array_equal(hier._coarse_lu.perm_c, np.arange(n))
    lu = splu(op.as_sparse(), permc_spec="MMD_AT_PLUS_A", panel_size=4,
              relax=1)
    if index == 4.0:
        # rows are pivoted away from the diagonal
        assert np.any(lu.perm_r != lu.perm_c)
    rng = np.random.default_rng(5)
    b = rng.standard_normal((3, s, s)) + 1j * rng.standard_normal((3, s, s))
    ref = lu.solve(b.reshape(3, n).T).T.reshape(b.shape)
    np.testing.assert_array_equal(hier.coarsest_solve(b), ref)
    np.testing.assert_array_equal(first.coarsest_solve(b), ref)
    np.testing.assert_array_equal(hier.coarsest_solve(b[1]),
                                  lu.solve(b[1].reshape(n, 1)).reshape(s, s))


def test_coarsest_solve_of_a_real_field_is_complex(monkeypatch):
    # through a side's first factor and through its kept column order alike
    monkeypatch.setattr(MgHierarchy, "_kept_orders", {})
    op = _disk_operator(1.1, 0.0)
    b = np.random.default_rng(6).standard_normal((2, op.side, op.side))
    for hier in (MgHierarchy(op, 1), MgHierarchy(op, 1)):
        np.testing.assert_array_equal(hier.coarsest_solve(b),
                                      hier.coarsest_solve(b + 0j))


def test_first_factorization_of_a_side_orders_by_minimum_degree(monkeypatch):
    monkeypatch.setattr(MgHierarchy, "_kept_orders", {})
    op = _disk_operator(1.1, 0.0)
    hier = MgHierarchy(op, 1)
    lu = splu(op.as_sparse(), permc_spec="MMD_AT_PLUS_A", panel_size=4,
              relax=1)
    np.testing.assert_array_equal(hier._coarse_lu.perm_c, lu.perm_c)
    pattern = MgHierarchy._kept_orders[op.side]
    number = pattern.number
    np.testing.assert_array_equal(number, lu.perm_c)
    np.testing.assert_array_equal(pattern.order[number],
                                  np.arange(op.side ** 2))
