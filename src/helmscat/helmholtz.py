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
        # Sommerfeld fold: the missing neighbor contributes
        # -(1 + j*h*k0*eta_boundary)/h^2 on the boundary row itself.
        k_eta = k0 * np.sqrt(self.eta_sq)
        diag = (4.0 / h2 - self.alpha * k0**2 * self.eta_sq).astype(complex)
        diag[0, :] -= (1.0 + 1j * self.h * k_eta[0, :]) / h2
        diag[-1, :] -= (1.0 + 1j * self.h * k_eta[-1, :]) / h2
        diag[:, 0] -= (1.0 + 1j * self.h * k_eta[:, 0]) / h2
        diag[:, -1] -= (1.0 + 1j * self.h * k_eta[:, -1]) / h2
        self._diag = diag
        # apply() works on h^2 * A and scales by 1/h^2 once at the end
        self._diag_h2 = diag * h2
        self._inv_h2 = 1.0 / h2
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
        stencil, and the result is bit-identical to it."""
        s = self.side
        if u.shape[-2:] != (s, s):
            raise ValueError(f"field shape {u.shape} does not match grid {s}")
        if out is None:
            out = np.empty(u.shape, dtype=complex)
        elif (out.shape != u.shape or out.dtype != complex
              or not out.flags.c_contiguous or np.may_share_memory(out, u)):
            raise ValueError("out must be a separate C-contiguous complex "
                             "array of the field's shape")
        np.multiply(self._diag_h2, u, out=out)
        o = out.reshape(u.shape[:-2] + (-1,))
        f = u.reshape(o.shape)
        o[..., s:] -= f[..., :-s]
        o[..., :-s] -= f[..., s:]
        first = o[..., s::s].copy()        # column 0 of rows 1..s-1
        o[..., 1:] -= f[..., :-1]
        o[..., s::s] = first
        last = o[..., s - 1:-1:s].copy()   # column s-1 of rows 0..s-2
        o[..., :-1] -= f[..., 1:]
        o[..., s - 1:-1:s] = last
        out *= self._inv_h2
        return out

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        # The matrix is complex symmetric (all asymmetric boundary terms
        # fold into the diagonal), so A^H v = conj(A conj(v)).
        return np.conj(self.apply(np.conj(v)))

    def diagonal(self) -> np.ndarray:
        return self._diag.copy()

    def inverse_diagonal(self) -> np.ndarray:
        """Read-only 1/diagonal, computed and checked for zeros on first
        use, then cached for the lifetime of the operator."""
        if self._inv_diag is None:
            if np.any(self._diag == 0.0):
                raise ZeroDivisionError("operator has a zero diagonal entry")
            inv = 1.0 / self._diag
            inv.flags.writeable = False
            self._inv_diag = inv
        return self._inv_diag

    def as_sparse(self) -> sparse.csc_matrix:
        """Assembled matrix in row-major vector ordering (used for the exact
        coarsest-level solve)."""
        s = self.side
        n = s * s
        h2 = self.h**2
        main = self._diag.ravel()
        # neighbors along axis 1 (fast index) and axis 0 (stride s)
        off1 = np.full(n - 1, -1.0 / h2)
        off1[s - 1::s] = 0.0  # no coupling across row wrap
        offs = np.full(n - s, -1.0 / h2)
        A = sparse.diags(
            [main, off1, off1, offs, offs],
            [0, 1, -1, s, -s], format="csc", dtype=complex)
        return A


def assemble(eg: ExtendedGrid2D, eta_sq: np.ndarray, k0: float
             ) -> HelmholtzOperator:
    """Build the finest-level operator for an extended grid."""
    return HelmholtzOperator(eg.h, eta_sq, abl_profile(eg), k0)
