"""Lippmann-Schwinger baseline: free-space Green's function sampled on a
zero-padded grid, FFT convolution, and the total-field solve
(I - G diag(f)) u = u_in via un-preconditioned Bi-CGSTAB on the smallest
square window that holds the support of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
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
    """Discretized Green's kernel with the quadrature weight h^2 folded in,
    for fields on an s-by-s grid.

    ``quadrant`` (read-only) holds the kernel at the (s+1)^2 distinct
    |offsets|, the singular cell at ``quadrant[0, 0]``; ``spectrum`` is
    the FFT of the kernel on the padded grid, whose side is the padded
    length of :func:`apply_green_convolution`."""

    spectrum: np.ndarray
    quadrant: np.ndarray

    @property
    def side(self) -> int:
        """Points per side s of the grid the kernel convolves on."""
        return self.quadrant.shape[0] - 1


def _padded_kernel(quadrant: np.ndarray, n: int) -> GreenKernel:
    """The kernel of an n-by-n grid from the read-only ``quadrant``, padded
    to ``next_fast_len(2n - 1)``: the first length with only small prime
    factors that keeps the convolution aperiodic.  Index i stands for
    offset i or i - length, whichever is shorter; |offsets| past the
    quadrant, which no convolution reaches, are clipped to its last row."""
    from scipy import fft  # here, so that only LiS callers load scipy.fft

    length = fft.next_fast_len(2 * n - 1)
    idx = np.arange(length)
    mirror = np.minimum(np.minimum(idx, length - idx), quadrant.shape[0] - 1)
    return GreenKernel(np.fft.fft2(quadrant[mirror[:, None], mirror]),
                       quadrant[:n + 1, :n + 1])


def sample_green_kernel(grid: Grid2D, k0: float, eta_b: float) -> GreenKernel:
    """Green's kernel of the grid, padded by :func:`_padded_kernel`.

    The kernel depends on |offset| only, so the Green's function is
    evaluated on the (s+1)^2 quadrant of distinct |offsets| and mirrored
    into the padded grid."""
    if not 0.0 < k0 * eta_b < math.inf:
        raise ValueError("k0 * eta_b must be positive and finite")
    s = grid.points_per_side
    h = grid.h
    k = k0 * eta_b
    off = np.arange(s + 1)
    r = h * np.hypot(off[:, None], off)
    quadrant = np.empty((s + 1, s + 1), dtype=complex)
    nz = r > 0
    quadrant[nz] = h**2 * green_value(k, r[nz])
    quadrant[0, 0] = _singular_cell_integral(k, h)
    quadrant.flags.writeable = False
    return _padded_kernel(quadrant, s)


def apply_green_convolution(kernel: GreenKernel, w: np.ndarray) -> np.ndarray:
    """Aperiodic convolution of a field on the kernel's grid with the
    Green's kernel, via zero padding to the side of ``kernel.spectrum``.

    The padded transform is pruned: the forward pass along axis 0 runs on
    the s nonzero columns only, and the inverse pass along axis 0 on the s
    kept columns only, so no padded copy of ``w`` is made.  The result
    owns its data: keeping it does not keep the padded buffer."""
    from scipy import fft  # a GreenKernel can be built without _padded_kernel

    s = kernel.side
    if w.shape != (s, s):
        raise ValueError(f"field shape {w.shape} does not match grid {s}")
    length = kernel.spectrum.shape[0]
    spec = fft.fft(fft.fft(w, n=length, axis=0), n=length, axis=1,
                   overwrite_x=True)
    spec *= kernel.spectrum
    conv = fft.ifft(spec, axis=1, overwrite_x=True)[:, :s]
    return fft.ifft(conv, axis=0, overwrite_x=True)[:s].copy()


def _support_window(f: np.ndarray) -> tuple[slice, slice] | None:
    """The smallest square window of the grid, at least 3 points wide
    (the least a :class:`Grid2D` has), that holds the nonzero rows and
    columns of ``f``; None when ``f`` is zero."""
    s = f.shape[0]
    rows = np.flatnonzero(np.any(f, axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(np.any(f, axis=0))
    n = max(rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1, 3)
    r0, c0 = min(rows[0], s - n), min(cols[0], s - n)
    return slice(r0, r0 + n), slice(c0, c0 + n)


def solve_lis(kernel: GreenKernel, f: np.ndarray, u_in: np.ndarray,
              tol: float = 1e-6, max_iter: int = 1000
              ) -> tuple[np.ndarray, SolveReport]:
    """Total field on the region of interest from the scattering potential
    ``f`` and incident field ``u_in``.

    Outside the support of ``f`` the total field is explicit,
    u = u_in + G(f u), so Bi-CGSTAB runs only on the smallest square
    window B that holds the support, with a kernel padded to a fast FFT
    length.  The field returned is the window solution u_B inside B and
    u_in + G(f u_B) outside it, from one convolution on the whole grid.
    Its residual on the grid is then the window residual, so the window
    solve stops at ||r_B|| <= tol * ||u_in||, the full solve's own test.
    A window as large as the grid is solved on the grid's own kernel, and
    ``f = 0`` returns ``u_in`` with no iteration.  ``tol`` must lie in
    (0, 1); the window solve's own tolerance may exceed 1.  This is the
    one-field case of :func:`_solve_stack`."""
    u = u_in.astype(complex)[None]
    reports = _solve_stack(kernel, f, u, tol, max_iter)
    return u[0], reports[0]


def _solve_stack(kernel: GreenKernel, f: np.ndarray, u: np.ndarray,
                 tol: float, max_iter: int) -> list[SolveReport]:
    """Writes the total field of each incident field of the complex stack
    ``u`` (shape (V, s, s)) over it, as :func:`solve_lis` states, and
    returns one report per field.  The window, its copy of ``f``, its
    kernel and the operator v -> v - G(f_B v) are made once for the
    stack; only the Bi-CGSTAB solve and the extension run per field."""
    s = kernel.side
    if not 0.0 < tol < 1.0:
        # the unsolved field's relative residual is 1: tol >= 1 passes it
        raise ValueError("tol must be positive and less than 1")
    if f.shape != (s, s) or u.shape[1:] != (s, s):
        raise ValueError("f and u_in must live on the kernel grid")
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(u))):
        raise ValueError("f and u_in must be finite")
    window = _support_window(f)
    if window is None:
        return [SolveReport(0, [0.0], converged=True) for _ in u]
    n = window[0].stop - window[0].start
    # the window kernel is made after the stack and held through the loop,
    # so that the solves' temporaries lie above both on the heap and are
    # handed back together once freed
    f_b = np.ascontiguousarray(f[window])
    window_kernel = kernel if n == s else _padded_kernel(kernel.quadrant, n)

    def apply(v):
        # written over the fresh array G(f_B v): the difference allocates
        # no field of its own
        g = apply_green_convolution(window_kernel, f_b * v)
        return np.subtract(v, g, out=g)

    reports = []
    for u_i in u:
        b = u_i[window].copy()
        b_norm = np.linalg.norm(b)
        scale = np.linalg.norm(u_i) / b_norm if b_norm > 0.0 else 1.0
        u_b, report = bicgstab(apply, b, tol=tol * scale, max_iter=max_iter)
        if n < s:
            fu = np.zeros((s, s), dtype=complex)
            fu[window] = f_b * u_b
            u_i += apply_green_convolution(kernel, fu)
        u_i[window] = u_b
        reports.append(report)
    return reports
