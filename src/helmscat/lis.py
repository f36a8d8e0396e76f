"""Lippmann-Schwinger baseline: free-space Green's function sampled on a
2x-padded grid, FFT convolution, and the total-field solve
(I - G diag(f)) u = u_in via un-preconditioned Bi-CGSTAB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import fft
from scipy.special import j0, j1, y0, y1

from .grid import Grid2D
from .krylov import SolveReport, bicgstab


def green_value(k: float, r) -> np.ndarray:
    """Free-space 2-D Green's function (j/4) H0^(1)(k r), no cell weight.

    H0^(1) = J0 + j Y0 is evaluated with the real-argument routines ``j0``
    and ``y0``; the general complex-order ``hankel1`` is about three times
    slower and agrees to within 1e-13 relative."""
    kr = k * np.asarray(r)
    return 0.25j * (j0(kr) + 1j * y0(kr))


# Gauss-Legendre nodes for the angular integral of the singular cell; the
# integrand is smooth on [0, pi/4], and 24 nodes match adaptive quadrature
# to 1e-13 relative for k*h up to 4*pi
_CELL_QUAD_NODES = 24


def _singular_cell_integral(k: float, h: float) -> complex:
    """Integral of the Green's function over the h-by-h cell centered at the
    singularity.

    In polar coordinates the radial integral is analytic:
        int_0^R J0(kr) r dr = R J1(kR) / k
        int_0^R Y0(kr) r dr = R Y1(kR) / k + 2 / (pi k^2),
    which leaves a smooth 1-D integral over the angle (8-fold symmetry of
    the square cell), evaluated with a fixed Gauss-Legendre rule.
    """
    x, w = leggauss(_CELL_QUAD_NODES)
    theta = (np.pi / 8.0) * (x + 1.0)
    w = (np.pi / 8.0) * w
    R = 0.5 * h / np.cos(theta)
    # Re[(j/4)(J0 + jY0)] = -(1/4) * Y0-part
    re = w @ (-0.25 * (R * y1(k * R) / k + 2.0 / (np.pi * k**2)))
    im = w @ (0.25 * R * j1(k * R) / k)
    return complex(8.0 * (re + 1j * im))


@dataclass
class GreenKernel:
    """Discretized Green's kernel with the quadrature weight h^2 folded in;
    ``spectrum`` is the FFT of the kernel on the (2s)^2 padded grid."""

    grid: Grid2D
    k0: float
    eta_b: float
    spectrum: np.ndarray
    singular_value: complex


def sample_green_kernel(grid: Grid2D, k0: float, eta_b: float) -> GreenKernel:
    """Green's kernel at the offsets of the (2s)^2 padded grid, index i
    standing for offset i below s and i - 2s from s on.

    The kernel depends on |offset| only, so the Green's function is
    evaluated on the (s+1)^2 quadrant of distinct |offsets| and mirrored
    into the padded grid."""
    if k0 * eta_b <= 0.0:
        raise ValueError("k0 * eta_b must be positive")
    s = grid.points_per_side
    h = grid.h
    k = k0 * eta_b
    off = np.arange(s + 1)
    r = h * np.hypot(off[:, None], off)
    quadrant = np.empty((s + 1, s + 1), dtype=complex)
    nz = r > 0
    quadrant[nz] = h**2 * green_value(k, r[nz])
    g0 = _singular_cell_integral(k, h)
    quadrant[0, 0] = g0
    idx = np.arange(2 * s)
    mirror = np.where(idx < s, idx, 2 * s - idx)
    kern = quadrant[mirror[:, None], mirror]
    return GreenKernel(grid, k0, eta_b, np.fft.fft2(kern), g0)


def apply_green_convolution(kernel: GreenKernel, w: np.ndarray) -> np.ndarray:
    """Aperiodic convolution of a field on the region of interest with the
    Green's kernel, via zero padding to twice the side.

    The padded transform is pruned: the forward pass along axis 0 runs on
    the s nonzero columns only, and the inverse pass along axis 0 on the s
    kept columns only, so no padded copy of ``w`` is made."""
    s = kernel.grid.points_per_side
    if w.shape != (s, s):
        raise ValueError(f"field shape {w.shape} does not match grid {s}")
    spec = fft.fft(fft.fft(w, n=2 * s, axis=0), n=2 * s, axis=1,
                   overwrite_x=True)
    spec *= kernel.spectrum
    conv = fft.ifft(spec, axis=1, overwrite_x=True)[:, :s]
    return fft.ifft(conv, axis=0, overwrite_x=True)[:s]


def solve_lis(kernel: GreenKernel, f: np.ndarray, u_in: np.ndarray,
              tol: float = 1e-6, max_iter: int = 1000
              ) -> tuple[np.ndarray, SolveReport]:
    """Total field on the region of interest from the scattering potential
    ``f`` and incident field ``u_in``."""
    s = kernel.grid.points_per_side
    if f.shape != (s, s) or u_in.shape != (s, s):
        raise ValueError("f and u_in must live on the kernel grid")

    def apply_A(u):
        return u - apply_green_convolution(kernel, f * u)

    return bicgstab(apply_A, u_in.astype(complex), tol=tol,
                    max_iter=max_iter)
