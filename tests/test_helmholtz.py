import numpy as np
import pytest

from helmscat import Grid2D, build_extended_grid, assemble
from helmscat.helmholtz import HelmholtzOperator, LevelGeometry, abl_profile


def _setup(s=9, abl=3, beta=0.2, levels=1, side=8.0, k0=1.0,
           eta_sq=None, seed=0):
    g = Grid2D(s, side, (-side / 2.0, -side / 2.0))
    eg = build_extended_grid(g, abl, beta, levels)
    se = eg.points_per_side
    if eta_sq is None:
        rng = np.random.default_rng(seed)
        eta_sq = 1.0 + 0.3 * rng.random((se, se))
    op = assemble(eg, eta_sq, k0, beta)
    return eg, op


def test_abl_profile_is_one_on_roi():
    eg, op = _setup()
    geom = op.geom
    alpha = abl_profile(geom, 0.2)
    d = geom.roi_distance()
    np.testing.assert_allclose(alpha[d == 0.0], 1.0)


def test_abl_profile_rim_value():
    # at the midpoint of an outer edge the distance equals the layer
    # thickness, so alpha = 1 - j*beta there
    beta = 0.2
    eg, op = _setup(beta=beta)
    alpha = abl_profile(op.geom, beta)
    mid = eg.points_per_side // 2
    assert alpha[0, mid] == pytest.approx(1.0 - 1j * beta)


def test_abl_profile_quadratic():
    beta = 0.3
    eg, op = _setup(abl=4, beta=beta)
    alpha = abl_profile(op.geom, beta)
    mid = eg.points_per_side // 2
    # one cell in from the rim: distance 3h of thickness 4h
    assert alpha[1, mid] == pytest.approx(1.0 - 1j * beta * (3.0 / 4.0) ** 2)


def test_interior_stencil_row():
    eg, op = _setup(beta=0.0)
    se = eg.points_per_side
    rng = np.random.default_rng(1)
    u = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    out = op.apply(u)
    i, j = se // 2, se // 2
    h2 = op.h ** 2
    expected = ((4.0 * u[i, j] - u[i - 1, j] - u[i + 1, j]
                 - u[i, j - 1] - u[i, j + 1]) / h2
                - op.k0 ** 2 * op.eta_sq[i, j] * u[i, j])
    assert out[i, j] == pytest.approx(expected, rel=1e-13)


def test_sommerfeld_fold_on_boundary_row():
    eg, op = _setup(beta=0.0)
    se = eg.points_per_side
    u = np.zeros((se, se), dtype=complex)
    j = se // 2
    u[0, j] = 1.0
    out = op.apply(u)
    h2 = op.h ** 2
    keta = op.k0 * np.sqrt(op.eta_sq[0, j])
    # the ghost neighbor u[-1, j] = (1 + j*h*k*eta) * u[0, j]
    expected = ((4.0 - (1.0 + 1j * op.h * keta)) / h2
                - op.k0 ** 2 * op.eta_sq[0, j])
    assert out[0, j] == pytest.approx(expected, rel=1e-13)


def test_matrix_is_complex_symmetric():
    eg, op = _setup(beta=0.25)
    A = op.as_sparse().toarray()
    np.testing.assert_allclose(A, A.T, rtol=0, atol=1e-14)


def test_apply_matches_sparse():
    eg, op = _setup(beta=0.15)
    se = eg.points_per_side
    rng = np.random.default_rng(2)
    u = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    via_sparse = (op.as_sparse() @ u.ravel()).reshape(se, se)
    np.testing.assert_allclose(op.apply(u), via_sparse, rtol=1e-13)


def test_adjoint_identity():
    eg, op = _setup(beta=0.15)
    se = eg.points_per_side
    rng = np.random.default_rng(3)
    u = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    v = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    lhs = np.vdot(v, op.apply(u))
    rhs = np.vdot(op.apply_adjoint(v), u)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_eta_sq_must_be_positive():
    g = Grid2D(9, 8.0)
    eg = build_extended_grid(g, 2, 0.1, 1)
    se = eg.points_per_side
    eta_sq = np.ones((se, se))
    eta_sq[4, 4] = 0.0
    with pytest.raises(ValueError):
        assemble(eg, eta_sq, 1.0, 0.1)


def test_beta_without_layer_rejected():
    g = Grid2D(9, 8.0)
    geom = LevelGeometry(9, 1.0, (0.0, 0.0), (0.0, 0.0), (8.0, 8.0), 0.0)
    with pytest.raises(ValueError):
        abl_profile(geom, 0.1)


def test_shape_mismatch_rejected():
    eg, op = _setup()
    with pytest.raises(ValueError):
        op.apply(np.zeros((3, 3), dtype=complex))


def test_apply_matches_sparse_non_dyadic_mesh():
    # h = 7.3 / 8 is not a power of two, so the h^2 pre-scaled diagonal and
    # the single 1/h^2 scaling round differently from the assembled matrix
    eg, op = _setup(side=7.3, beta=0.15)
    assert op.h == pytest.approx(0.9125)
    se = eg.points_per_side
    rng = np.random.default_rng(4)
    u = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    via_sparse = (op.as_sparse() @ u.ravel()).reshape(se, se)
    scale = np.abs(via_sparse).max()
    np.testing.assert_allclose(op.apply(u), via_sparse, rtol=1e-13,
                               atol=1e-14 * scale)
    # a real field goes through the same complex stencil
    real_via_sparse = (op.as_sparse() @ u.real.ravel()).reshape(se, se)
    np.testing.assert_allclose(op.apply(u.real), real_via_sparse,
                               rtol=1e-13, atol=1e-14 * scale)


def _dyadic_operator(s):
    # h = 1/2, k0 = 1/2, eta^2 = 1, beta = 0: every diagonal entry, h^2 and
    # 1/h^2 are short binary fractions, so integer-valued fields are
    # multiplied and summed without rounding in any order
    geom = LevelGeometry(s, 0.5, (0.0, 0.0), (0.0, 0.0),
                         (0.5 * (s - 1),) * 2, 0.0)
    return HelmholtzOperator(geom, np.ones((s, s)), 0.5, 0.0)


@pytest.mark.parametrize("s", [5, 17, 65])
def test_apply_out_equals_sparse_bitwise(s):
    # exact arithmetic turns any neighbour that a flat shift wrongly reads
    # across a row end (or misses) into a visible difference
    op = _dyadic_operator(s)
    rng = np.random.default_rng(s)
    u = (rng.integers(-64, 64, (s, s))
         + 1j * rng.integers(-64, 64, (s, s))).astype(complex)
    u_before = u.copy()
    out = np.full((s, s), np.nan, dtype=complex)
    assert op.apply(u, out=out) is out
    via_sparse = (op.as_sparse() @ u.ravel()).reshape(s, s)
    np.testing.assert_array_equal(out, via_sparse)
    np.testing.assert_array_equal(op.apply(u), via_sparse)
    np.testing.assert_array_equal(u, u_before)


def _strided_apply(op, u):
    # the 2-D stencil as four strided neighbour subtractions
    out = op._diag_h2 * u
    out[1:, :] -= u[:-1, :]
    out[:-1, :] -= u[1:, :]
    out[:, 1:] -= u[:, :-1]
    out[:, :-1] -= u[:, 1:]
    out *= op._inv_h2
    return out


@pytest.mark.parametrize("side", [8.0, 7.3])
def test_flat_apply_bit_identical_to_strided_stencil(side):
    eg, op = _setup(side=side, beta=0.15)
    se = eg.points_per_side
    rng = np.random.default_rng(5)
    u = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    np.testing.assert_array_equal(op.apply(u), _strided_apply(op, u))
    np.testing.assert_array_equal(op.apply(u.real), _strided_apply(op, u.real))


def test_apply_rejects_unusable_out():
    eg, op = _setup()
    se = eg.points_per_side
    u = np.ones((se, se), dtype=complex)
    for bad in (u, np.empty((se + 1, se), dtype=complex),
                np.empty((se, se)), np.empty((se, se), dtype=complex).T,
                np.empty((se, 2 * se), dtype=complex)[:, ::2]):
        with pytest.raises(ValueError, match="out must be"):
            op.apply(u, out=bad)
