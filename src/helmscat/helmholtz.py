"""Matrix-free application of the discretized Helmholtz operator.

The operator encodes -laplacian - alpha*k0^2*eta^2 with the classic 5-point
stencil.  Ghost values outside the grid are eliminated with the first-order
Sommerfeld closure u_ghost = (1 + j*h*k0*eta_boundary) * u_boundary, which
folds into the diagonal.  The ABL damping profile is

    alpha(x) = 1 - j*beta*(dist(x, roi)/L)^2

so alpha = 1 on the region of interest and 1 - j*beta at the outer rim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .grid import ExtendedGrid2D


@dataclass(frozen=True)
class LevelGeometry:
    """Geometry of one discretization level of the extended domain."""

    side: int
    mesh: float
    origin: tuple[float, float]
    roi_lo: tuple[float, float]
    roi_hi: tuple[float, float]
    abl_thickness: float

    @classmethod
    def from_extended_grid(cls, eg: ExtendedGrid2D) -> "LevelGeometry":
        lo, hi = eg.roi_box
        return cls(eg.points_per_side, eg.h, eg.origin, lo, hi,
                   eg.abl_thickness)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        ax = self.origin[0] + self.mesh * np.arange(self.side)
        ay = self.origin[1] + self.mesh * np.arange(self.side)
        return np.meshgrid(ax, ay, indexing="ij")

    def roi_distance(self) -> np.ndarray:
        """Distance of each grid point to the region-of-interest box."""
        x, y = self.coords()
        dx = np.maximum(np.maximum(self.roi_lo[0] - x, x - self.roi_hi[0]), 0.0)
        dy = np.maximum(np.maximum(self.roi_lo[1] - y, y - self.roi_hi[1]), 0.0)
        return np.hypot(dx, dy)

    def coarsen(self) -> "LevelGeometry":
        if self.side % 2 == 0 or self.side < 5:
            raise ValueError("cannot coarsen this level")
        return LevelGeometry((self.side + 1) // 2, 2.0 * self.mesh,
                             self.origin, self.roi_lo, self.roi_hi,
                             self.abl_thickness)


def abl_profile(geom: LevelGeometry, beta: float) -> np.ndarray:
    """Complex damping field alpha on a level."""
    if beta == 0.0:
        return np.ones((geom.side, geom.side), dtype=complex)
    if geom.abl_thickness <= 0.0:
        raise ValueError("beta > 0 requires a nonempty absorbing layer")
    d = geom.roi_distance() / geom.abl_thickness
    return 1.0 - 1j * beta * d**2


class HelmholtzOperator:
    """Stencil form of -laplacian - alpha*k0^2*eta^2 on one level."""

    def __init__(self, geom: LevelGeometry, eta_sq: np.ndarray, k0: float,
                 beta: float):
        s = geom.side
        if eta_sq.shape != (s, s):
            raise ValueError("eta_sq shape does not match level geometry")
        if np.min(eta_sq) <= 0.0:
            raise ValueError("eta^2 must be strictly positive")
        self.geom = geom
        self.eta_sq = np.asarray(eta_sq, dtype=float)
        self.k0 = k0
        self.beta = beta
        self.h = geom.mesh
        self.alpha = abl_profile(geom, beta)

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
        return self.geom.side

    def _check(self, u: np.ndarray):
        s = self.side
        if u.shape != (s, s):
            raise ValueError(f"field shape {u.shape} does not match grid {s}")

    def apply(self, u: np.ndarray, *, out: np.ndarray | None = None
              ) -> np.ndarray:
        """A u, written into ``out`` (a C-contiguous complex (s, s) array
        that is not ``u``) when given.

        All four neighbour terms are shifts of the flattened field.  Along
        axis 1 a flat shift by one also reaches across each row end, so the
        entries it wraps into are saved before and restored after; every
        entry then sees the same operations in the same order as the 2-D
        stencil, and the result is bit-identical to it."""
        self._check(u)
        s = self.side
        if out is None:
            out = np.empty((s, s), dtype=complex)
        elif (out.shape != (s, s) or out.dtype != complex
              or not out.flags.c_contiguous or np.may_share_memory(out, u)):
            raise ValueError("out must be a separate C-contiguous complex "
                             "field of the grid's shape")
        np.multiply(self._diag_h2, u, out=out)
        o = out.reshape(-1)
        f = u.reshape(-1)
        o[s:] -= f[:-s]
        o[:-s] -= f[s:]
        first = o[s::s].copy()          # column 0 of rows 1..s-1
        o[1:] -= f[:-1]
        o[s::s] = first
        last = o[s - 1:-1:s].copy()     # column s-1 of rows 0..s-2
        o[:-1] -= f[1:]
        o[s - 1:-1:s] = last
        out *= self._inv_h2
        return out

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        # The matrix is complex symmetric (all asymmetric boundary terms
        # fold into the diagonal), so A^H v = conj(A conj(v)).
        self._check(v)
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


def assemble(eg: ExtendedGrid2D, eta_sq: np.ndarray, k0: float,
             beta: float) -> HelmholtzOperator:
    """Build the finest-level operator for an extended grid."""
    return HelmholtzOperator(LevelGeometry.from_extended_grid(eg), eta_sq,
                             k0, beta)
