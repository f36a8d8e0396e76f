"""Matrix-free application of the discretized Helmholtz operator.

The operator encodes -laplacian - alpha*k0^2*eta^2 with the classic 5-point
stencil.  Ghost values outside the grid are eliminated with the first-order
Sommerfeld closure u_ghost = (1 + j*h*k0*eta_boundary) * u_boundary, which
folds into the diagonal.  The ABL damping profile is

    alpha(x) = 1 - j*beta*(dist(x, roi)/L)^2

so alpha = 1 on the region of interest and 1 - j*beta at the outer rim.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .grid import ExtendedGrid2D


def abl_profile(eg: ExtendedGrid2D) -> np.ndarray:
    """Complex damping field alpha on the extended grid, from its ABL
    strength beta and layer thickness.  The distance to the region of
    interest is the hypot of one 1-D distance per axis."""
    s = eg.points_per_side
    beta = eg.abl_strength
    if beta == 0.0:
        return np.ones((s, s), dtype=complex)
    if eg.abl_thickness <= 0.0:
        raise ValueError("beta > 0 requires a nonempty absorbing layer")
    lo, hi = eg.roi_box
    dist = []
    for axis in (0, 1):
        x = eg.origin[axis] + eg.h * np.arange(s)
        dist.append(np.maximum(np.maximum(lo[axis] - x, x - hi[axis]), 0.0))
    d = np.hypot(dist[0][:, None], dist[1]) / eg.abl_thickness
    return 1.0 - 1j * beta * d**2


# apply() splits a complex field larger than this many bytes into equal
# blocks of whole rows no larger than it, so that each block's passes over
# u and out stay in a core's L2 cache.  Chosen from a sweep at 384-896 KiB
# on a Xeon with 2 MiB of L2: 321^2 fields split in 3 blocks, every side up
# to 221 takes one.
_BLOCK_BYTES = 768 * 1024


class HelmholtzOperator:
    """Stencil form of -laplacian - alpha*k0^2*eta^2 on one level of mesh
    size ``h``, whose side is that of the square ``eta_sq``."""

    def __init__(self, h: float, eta_sq: np.ndarray, alpha: np.ndarray,
                 k0: float):
        eta_sq = np.asarray(eta_sq, dtype=float)
        if eta_sq.ndim != 2 or eta_sq.shape[0] != eta_sq.shape[1]:
            raise ValueError("eta_sq must be a square field")
        if not (0.0 < eta_sq.min() and eta_sq.max() < math.inf):
            raise ValueError("eta^2 must be positive and finite")
        if np.shape(alpha) != eta_sq.shape:
            raise ValueError("alpha shape does not match eta_sq")
        if not (0.0 < h and 0.0 < h * h < math.inf
                and 1.0 / (h * h) < math.inf
                and 0.0 < k0 and k0 * k0 < math.inf):
            raise ValueError("h and k0 must be positive and finite, with "
                             "h^2, 1/h^2 and k0^2 finite and above 0")
        self.eta_sq = eta_sq
        self.k0 = k0
        self.h = h
        self.alpha = alpha

        h2 = self.h**2
        # apply() works on h^2 * A and scales by 1/h^2 once at the end
        self._diag_h2 = self.diagonal() * h2
        self._inv_h2 = 1.0 / h2
        s = self.side
        blocks = -(-s * s * self._diag_h2.itemsize // _BLOCK_BYTES)
        self._block_len = -(-s // blocks) * s   # flat length of a row block
        self._inv_diag = None

    @property
    def side(self) -> int:
        return self.eta_sq.shape[0]

    def apply(self, u: np.ndarray, *, out: np.ndarray | None = None
              ) -> np.ndarray:
        """A u for a field or a stack of fields (shape (..., s, s)), written
        into ``out`` (a C-contiguous complex array of ``u``'s shape that is
        not ``u``) when given.

        All four neighbour terms are shifts of each flattened field.  Along
        axis 1 a flat shift by one also reaches across each row end, so the
        entries it wraps into are saved before and restored after; every
        entry then sees the same operations in the same order as the 2-D
        stencil, and the result is bit-identical to it.  A field larger
        than ``_BLOCK_BYTES`` is done one block of rows at a time, each
        block reading the rows next to it from ``u``, and a stack of such
        fields is blocked across the stack; every entry still sees the same
        operations, so the result is the same bit for bit."""
        s = self.side
        if u.shape[-2:] != (s, s):
            raise ValueError(f"field shape {u.shape} does not match grid {s}")
        if out is None:
            out = np.empty(u.shape, dtype=complex)
        elif (out.shape != u.shape or out.dtype != complex
              or not out.flags.c_contiguous or np.may_share_memory(out, u)):
            raise ValueError("out must be a separate C-contiguous complex "
                             "array of the field's shape")
        n = s * s
        o = out.reshape(u.shape[:-2] + (n,))
        f = u.reshape(o.shape)
        step = self._block_len
        for a in range(0, n, step):
            self._stencil_rows(o, f, a, min(a + step, n))
        return out

    def _stencil_rows(self, o: np.ndarray, f: np.ndarray, a: int, b: int
                      ) -> None:
        """Flat entries a:b (whole rows) of A f into ``o``, for flattened
        fields ``f`` that do not overlap ``o``; the rows next to the block
        are read from ``f``."""
        s, n = self.side, self.eta_sq.size
        ob = o[..., a:b]
        np.multiply(self._diag_h2.reshape(-1)[a:b], f[..., a:b], out=ob)
        lo, hi = max(a, s), min(b, n - s)
        o[..., lo:b] -= f[..., lo - s:b - s]
        o[..., a:hi] -= f[..., a + s:hi + s]
        first = o[..., a + s:b:s].copy()         # column 0 but the first row's
        o[..., a + 1:b] -= f[..., a:b - 1]
        o[..., a + s:b:s] = first
        last = o[..., a + s - 1:b - 1:s].copy()  # column s-1 but the last row's
        o[..., a:b - 1] -= f[..., a + 1:b]
        o[..., a + s - 1:b - 1:s] = last
        ob *= self._inv_h2

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        # The matrix is complex symmetric (all asymmetric boundary terms
        # fold into the diagonal), so A^H v = conj(A conj(v)).
        return np.conj(self.apply(np.conj(v)))

    def diagonal(self) -> np.ndarray:
        """The diagonal as a new (s, s) array, evaluated on each call."""
        h2 = self.h**2
        # Sommerfeld fold: the missing neighbor contributes
        # -(1 + j*h*k0*eta_boundary)/h^2 on the boundary row itself.
        k_eta = self.k0 * np.sqrt(self.eta_sq)
        diag = (4.0 / h2 - self.alpha * self.k0**2 * self.eta_sq).astype(
            complex, copy=False)
        diag[0, :] -= (1.0 + 1j * self.h * k_eta[0, :]) / h2
        diag[-1, :] -= (1.0 + 1j * self.h * k_eta[-1, :]) / h2
        diag[:, 0] -= (1.0 + 1j * self.h * k_eta[:, 0]) / h2
        diag[:, -1] -= (1.0 + 1j * self.h * k_eta[:, -1]) / h2
        return diag

    def inverse_diagonal(self) -> np.ndarray:
        """Read-only 1/diagonal, computed and checked for zeros on first
        use, then cached for the lifetime of the operator."""
        if self._inv_diag is None:
            diag = self.diagonal()
            if np.any(diag == 0.0):
                raise ZeroDivisionError("operator has a zero diagonal entry")
            inv = 1.0 / diag
            inv.flags.writeable = False
            self._inv_diag = inv
        return self._inv_diag

    def as_sparse(self, pattern: StencilPattern | None = None
                  ) -> sparse.csc_matrix:
        """Assembled matrix in row-major vector ordering (used for the exact
        coarsest-level solve), or, with a ``pattern`` of this side, the
        matrix of the unknowns as that pattern numbers them: the pattern's
        entries filled with -1/h^2 off the diagonal and with the operator's
        diagonal.  In row-major order it is the matrix ``sparse.diags``
        builds, except that a diagonal entry that is exactly 0 stays in it
        as an explicit zero.  The matrix owns its arrays."""
        n = self.side * self.side
        p = (StencilPattern(self.side, np.arange(n)) if pattern is None
             else pattern)
        data = np.full(p.indices.size, -1.0 / self.h**2, dtype=complex)
        data[p.diagonal] = self.diagonal().ravel()
        return sparse.csc_matrix((data, p.indices.copy(), p.indptr.copy()),
                                 shape=(n, n))


class StencilPattern:
    """CSC structure of the 5-point matrix on an s-by-s grid, with no
    coupling across row ends, for the unknowns numbered so that the
    row-major unknown ``order[k]`` is unknown k, and ``number[j]`` is the
    number of row-major unknown j.  Column k holds the rows j - s, j - 1,
    j, j + 1 and j + s of j = ``order[k]`` that lie on the grid, in that
    row-major sequence, renumbered.  ``diagonal[j]`` is the position in the
    data of row-major unknown j's diagonal entry; every other entry is an
    off-diagonal.  ``order``, ``number`` and ``diagonal`` are intp, the
    index type of the takes that read them; ``indptr`` and ``indices`` are
    int32, as SuperLU and ``sparse.diags`` have them.  The arrays are
    read-only."""

    def __init__(self, side: int, order: np.ndarray):
        s = side
        n = s * s
        order = np.array(order, dtype=np.intp)
        number = np.empty(n, dtype=np.intp)
        number[order] = np.arange(n)
        r, c = np.divmod(order, s)
        rows = order[:, None] + np.array([-s, -1, 0, 1, s])
        present = np.column_stack([r > 0, c > 0, np.ones(n, dtype=bool),
                                   c < s - 1, r < s - 1])
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(present.sum(axis=1), out=indptr[1:])
        diagonal = np.empty(n, dtype=np.intp)
        diagonal[order] = indptr[:-1] + present[:, 0] + present[:, 1]
        self.order, self.number, self.indptr = order, number, indptr
        self.indices = number[rows[present]].astype(np.int32)
        self.diagonal = diagonal
        for a in (order, number, indptr, self.indices, diagonal):
            a.flags.writeable = False


def assemble(eg: ExtendedGrid2D, eta_sq: np.ndarray, k0: float
             ) -> HelmholtzOperator:
    """Build the finest-level operator for an extended grid."""
    return HelmholtzOperator(eg.h, eta_sq, abl_profile(eg), k0)
