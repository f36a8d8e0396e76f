"""Ground-truth generators: the cylindrical-harmonic series for a plane
wave scattered by a penetrable circular cylinder, dense reference solves for
tiny grids, and error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import h1vp, hankel1, jv, jvp

from .grid import Grid2D
from .helmholtz import HelmholtzOperator

# Most orders a disk's series may take.  A disk with kd*a = 1e4 is some 3200
# interior wavelengths across, far beyond any grid this package can solve,
# and its series would cost 1e4 passes over the grid; the cap stops such a
# disk before its arrays are allocated.
_MAX_ORDER = 10_000


@dataclass(frozen=True)
class DiskScene:
    """A homogeneous disk of refractive index ``eta_disk`` immersed in a
    background of index ``eta_b``."""

    radius: float
    eta_disk: float
    eta_b: float
    wavelength: float
    center: tuple[float, float] = (0.0, 0.0)
    truncation_order: int = 0

    def __post_init__(self):
        if not all(0.0 < v < np.inf for v in (self.radius, self.eta_disk,
                                               self.eta_b, self.wavelength)):
            raise ValueError("radius, refractive indices and wavelength must "
                             "be positive and finite")
        kda = self.k0 * self.eta_disk * self.radius
        if not kda <= _MAX_ORDER:
            raise ValueError(f"{self.label}: the series cannot be sized, "
                             f"k*a = {kda:.3g} needs more than {_MAX_ORDER} "
                             f"orders")
        min_order = int(np.ceil(kda)) + 15
        if self.truncation_order == 0:
            # default margin deeper than the floor so the tail test clears
            object.__setattr__(self, "truncation_order", min_order + 15)
        elif self.truncation_order < min_order:
            raise ValueError(f"truncation_order must be >= {min_order}")

    @property
    def k0(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def label(self) -> str:
        return (f"disk of radius {self.radius:g} cm and index "
                f"{self.eta_disk:g}")


def disk_series_coefficients(scene: DiskScene
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Scattered (outside) and transmitted (inside) series coefficients for
    orders 0..truncation_order, fixed by continuity of the field and its
    radial derivative at the disk boundary.  Raises ``ValueError`` naming
    the disk when a coefficient is not finite: Bessel or Hankel values of
    the orders it needs under- or overflow."""
    a = scene.radius
    kb = scene.k0 * scene.eta_b
    kd = scene.k0 * scene.eta_disk
    n = np.arange(scene.truncation_order + 1)
    with np.errstate(all="ignore"):
        num = kb * jvp(n, kb * a) * jv(n, kd * a) - kd * jv(n, kb * a) * jvp(n, kd * a)
        den = kd * hankel1(n, kb * a) * jvp(n, kd * a) - kb * h1vp(n, kb * a) * jv(n, kd * a)
        b = num / den
        c = (jv(n, kb * a) + b * hankel1(n, kb * a)) / jv(n, kd * a)
    bad = ~(np.isfinite(b) & np.isfinite(c))
    if bad.any():
        raise ValueError(f"{scene.label}: series coefficient of order "
                         f"{np.argmax(bad)} is not finite")
    return b, c


def analytic_disk_field(scene: DiskScene, grid: Grid2D,
                        direction: tuple[float, float],
                        u0: complex = 1.0) -> np.ndarray:
    """Total field of a unit-speed plane wave u0*exp(j*kb*<d, x>) scattered
    by the disk, sampled on ``grid``.

    Outside: incident + sum_n b_n j^n H_n^(1)(kb r) e^(j n phi');
    inside:  sum_n c_n j^n J_n(kd r) e^(j n phi'), with phi' measured from
    the propagation direction.
    """
    d = np.asarray(direction, dtype=float)
    if not np.isclose(np.hypot(*d), 1.0, rtol=0.0, atol=1e-12):
        raise ValueError("direction must be a unit vector")
    kb = scene.k0 * scene.eta_b
    kd = scene.k0 * scene.eta_disk
    a = scene.radius
    b, c = disk_series_coefficients(scene)

    x, y = grid.coords()
    dx = x - scene.center[0]
    dy = y - scene.center[1]
    r = np.hypot(dx, dy)
    phi = np.arctan2(dy, dx) - np.arctan2(d[1], d[0])
    inside = r < a
    outside = ~inside

    # incident-wave phase referenced to the disk center
    phase0 = u0 * np.exp(1j * kb * (d[0] * scene.center[0]
                                    + d[1] * scene.center[1]))

    u = np.zeros(x.shape, dtype=complex)
    u[outside] = np.exp(1j * kb * r[outside] * np.cos(phi[outside]))
    tail = 0.0
    for n in range(scene.truncation_order + 1):
        eps = 1.0 if n == 0 else 2.0
        ang = np.cos(n * phi)
        term_out = eps * 1j**n * b[n] * hankel1(n, kb * r[outside]) * ang[outside]
        term_in = eps * 1j**n * c[n] * jv(n, kd * r[inside]) * ang[inside]
        u[outside] += term_out
        u[inside] += term_in
        tail = max(np.max(np.abs(term_out), initial=0.0),
                   np.max(np.abs(term_in), initial=0.0))
    scale = np.max(np.abs(u))
    if tail > 1e-12 * scale:
        raise RuntimeError(
            f"series not converged: last term {tail:.2e} vs scale {scale:.2e}")
    return phase0 * u


def dense_reference_solve(op: HelmholtzOperator, b: np.ndarray) -> np.ndarray:
    """Brute-force direct solve: the operator is densified column by column
    through ``apply`` on unit vectors, then LU-factored."""
    s = op.side
    if s > 41:
        raise ValueError("dense reference limited to grids <= 41^2")
    n = s * s
    A = np.empty((n, n), dtype=complex)
    e = np.zeros((s, s), dtype=complex)
    for j in range(n):
        e.ravel()[j] = 1.0
        A[:, j] = op.apply(e).ravel()
        e.ravel()[j] = 0.0
    lu = lu_factor(A)
    return lu_solve(lu, b.ravel()).reshape(s, s)


def relative_error(u: np.ndarray, u_ref: np.ndarray) -> float:
    """Squared-norm error ratio ||u - u_ref||^2 / ||u_ref||^2."""
    if np.shape(u) != np.shape(u_ref):
        raise ValueError(f"field shape {np.shape(u)} does not match the "
                         f"reference shape {np.shape(u_ref)}")
    denom = np.linalg.norm(u_ref)
    if denom == 0.0:
        raise ValueError("reference field is zero")
    return float(np.linalg.norm(u - u_ref)**2 / denom**2)
