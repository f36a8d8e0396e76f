import numpy as np
import pytest
from scipy import sparse

from helmscat import Grid2D, ExtendedGrid2D, build_extended_grid, assemble
from helmscat.helmholtz import (HelmholtzOperator, StencilPattern,
                                abl_profile)


def _setup(s=9, abl=3, beta=0.2, levels=1, side=8.0, k0=1.0,
           eta_sq=None, seed=0):
    g = Grid2D(s, side, (-side / 2.0, -side / 2.0))
    eg = build_extended_grid(g, abl, beta, levels)
    se = eg.points_per_side
    if eta_sq is None:
        rng = np.random.default_rng(seed)
        eta_sq = 1.0 + 0.3 * rng.random((se, se))
    op = assemble(eg, eta_sq, k0)
    return eg, op


def test_abl_profile_is_one_on_roi():
    eg, op = _setup()
    alpha = abl_profile(eg)
    np.testing.assert_allclose(alpha[eg.inner_slice], 1.0)


def test_abl_profile_rim_value():
    # at the midpoint of an outer edge the distance equals the layer
    # thickness, so alpha = 1 - j*beta there
    beta = 0.2
    eg, op = _setup(beta=beta)
    alpha = abl_profile(eg)
    mid = eg.points_per_side // 2
    assert alpha[0, mid] == pytest.approx(1.0 - 1j * beta)


def test_abl_profile_quadratic():
    beta = 0.3
    eg, op = _setup(abl=4, beta=beta)
    alpha = abl_profile(eg)
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
    for bad in (0.0, -1.0, np.nan, np.inf):
        eta_sq = np.ones((se, se))
        eta_sq[4, 4] = bad
        with pytest.raises(ValueError, match="eta\\^2 must be positive"):
            assemble(eg, eta_sq, 1.0)


@pytest.mark.parametrize("h, k0", [(0.5, np.nan), (0.5, -1.0), (0.5, 0.0),
                                   (0.5, np.inf), (np.nan, 1.0), (0.0, 1.0),
                                   (-0.5, 1.0), (np.inf, 1.0)])
def test_mesh_and_wavenumber_must_be_positive_and_finite(h, k0):
    with pytest.raises(ValueError, match="h and k0 must be positive"):
        HelmholtzOperator(h, np.ones((5, 5)), np.ones((5, 5)), k0)


@pytest.mark.parametrize("eta_shape, alpha_shape, needle", [
    ((5, 6), (5, 6), "square"), ((25,), (25,), "square"),
    ((5, 5), (7, 7), "alpha shape"), ((5, 5), (5,), "alpha shape")])
def test_field_shapes_rejected(eta_shape, alpha_shape, needle):
    with pytest.raises(ValueError, match=needle):
        HelmholtzOperator(0.5, np.ones(eta_shape), np.ones(alpha_shape), 1.0)


def test_beta_without_layer_rejected():
    eg = ExtendedGrid2D(Grid2D(9, 8.0), 0, 0.1)
    assert eg.abl_thickness == 0.0
    with pytest.raises(ValueError, match="nonempty absorbing layer"):
        abl_profile(eg)
    with pytest.raises(ValueError, match="nonempty absorbing layer"):
        assemble(eg, np.ones((9, 9)), 1.0)


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
    return HelmholtzOperator(0.5, np.ones((s, s)),
                             np.ones((s, s), dtype=complex), 0.5)


# sides past the one-block limit: the first side that splits (2 blocks of
# 111 rows), one whose last block is a row short (112 + 111) and 321 (3 x 107)
BLOCKED_SIDES = [222, 223, 321]


@pytest.mark.parametrize("s", [5, 17, 65] + BLOCKED_SIDES)
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


@pytest.mark.parametrize("s, rows", [(65, 65), (221, 221), (222, 111),
                                     (223, 112), (321, 107)])
def test_apply_row_blocks_are_sized_from_one_field(s, rows):
    # fields up to 221^2 (764 KiB) take one block; larger ones split into
    # equal blocks of whole rows, the last one shorter when s does not divide
    op = _dyadic_operator(s)
    assert op._block_len == rows * s


@pytest.mark.parametrize("s", BLOCKED_SIDES)
def test_blocked_apply_bit_identical_to_strided_stencil(s):
    rng = np.random.default_rng(s)
    op = HelmholtzOperator(8.0 / s, 1.0 + 0.3 * rng.random((s, s)),
                           1.0 - 0.15j * rng.random((s, s)), 1.0)
    u = (rng.standard_normal((2, s, s))
         + 1j * rng.standard_normal((2, s, s)))
    stacked = op.apply(u)
    for i in range(2):
        ref = _strided_apply(op, u[i])
        np.testing.assert_array_equal(op.apply(u[i]), ref)
        np.testing.assert_array_equal(stacked[i], ref)
    np.testing.assert_array_equal(op.apply(u[0].real),
                                  _strided_apply(op, u[0].real))
    fortran = np.asfortranarray(u[1])
    np.testing.assert_array_equal(op.apply(fortran), stacked[1])
    np.testing.assert_array_equal(op.apply_adjoint(fortran),
                                  np.conj(_strided_apply(op, np.conj(u[1]))))


def test_apply_rejects_unusable_out():
    eg, op = _setup()
    se = eg.points_per_side
    u = np.ones((se, se), dtype=complex)
    for bad in (u, np.empty((se + 1, se), dtype=complex),
                np.empty((se, se)), np.empty((se, se), dtype=complex).T,
                np.empty((se, 2 * se), dtype=complex)[:, ::2]):
        with pytest.raises(ValueError, match="out must be"):
            op.apply(u, out=bad)


def test_apply_takes_a_stack_field_by_field():
    eg, op = _setup(side=7.3, beta=0.15)
    se = eg.points_per_side
    rng = np.random.default_rng(9)
    u = (rng.standard_normal((2, 3, se, se))
         + 1j * rng.standard_normal((2, 3, se, se)))
    out = np.empty_like(u)
    assert op.apply(u, out=out) is out
    adj = op.apply_adjoint(u)
    for i in range(2):
        for j in range(3):
            np.testing.assert_array_equal(out[i, j], op.apply(u[i, j]))
            np.testing.assert_array_equal(adj[i, j],
                                          op.apply_adjoint(u[i, j]))
    with pytest.raises(ValueError, match="out must be"):
        op.apply(u, out=np.empty((se, se), dtype=complex))
    with pytest.raises(ValueError, match="does not match grid"):
        op.apply(u[..., :-1])


def test_mesh_size_whose_square_underflows_rejected():
    with pytest.raises(ValueError, match="h\\^2 or 1/h\\^2"):
        Grid2D(17, 1e-300)
    ones = np.ones((5, 5))
    for h in (1e-200, 1e-160, 1e200):
        with pytest.raises(ValueError, match="h and k0 must be positive"):
            HelmholtzOperator(h, ones, ones.astype(complex), 1.0)


def _diags_matrix(op):
    # the 5-point matrix as sparse.diags builds it, the row-wrap couplings
    # dropped
    s = op.side
    n = s * s
    off1 = np.full(n - 1, -1.0 / op.h ** 2)
    off1[s - 1::s] = 0.0
    offs = np.full(n - s, -1.0 / op.h ** 2)
    return sparse.diags([op.diagonal().ravel(), off1, off1, offs, offs],
                        [0, 1, -1, s, -s], format="csc", dtype=complex)


@pytest.mark.parametrize("s", [3, 5, 41, 73])
def test_as_sparse_equals_diags_construction(s):
    rng = np.random.default_rng(s)
    alpha = 1.0 - 0.2j * rng.random((s, s))
    op = HelmholtzOperator(0.3, 1.0 + rng.random((s, s)), alpha, 1.7)
    A, ref = op.as_sparse(), _diags_matrix(op)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(A, name), getattr(ref, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    # the matrix owns its arrays: writing them leaves the next one intact
    A.indices[:] = 0
    np.testing.assert_array_equal(op.as_sparse().indices, ref.indices)


def test_renumbered_pattern_assembles_the_permuted_matrix():
    s = 9
    rng = np.random.default_rng(3)
    op = HelmholtzOperator(0.5, 1.0 + rng.random((s, s)),
                           np.ones((s, s), dtype=complex), 1.2)
    order = rng.permutation(s * s)
    pattern = StencilPattern(s, order)
    np.testing.assert_array_equal(pattern.order, order)
    np.testing.assert_array_equal(pattern.number[pattern.order],
                                  np.arange(s * s))
    for name in ("order", "number", "indptr", "indices", "diagonal"):
        assert not getattr(pattern, name).flags.writeable
    A = op.as_sparse(pattern)
    dense = op.as_sparse().toarray()
    np.testing.assert_array_equal(A.toarray(), dense[order][:, order])
    # each column keeps its rows in row-major sequence
    for k in range(s * s):
        rows = order[A.indices[A.indptr[k]:A.indptr[k + 1]]]
        assert np.all(np.diff(rows) > 0)
