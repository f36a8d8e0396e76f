"""Uniform square grids and the embedding between the region of interest
and the extended domain that carries the absorbing boundary layer (ABL).

Fields on a grid are plain ``numpy`` arrays of shape ``(s, s)`` indexed
``[m, n]``; the physical coordinate of index ``(m, n)`` is
``origin + (m*h, n*h)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


def check_count(name: str, value, least: int) -> None:
    """Raises TypeError unless ``value`` is a Python or numpy integer, and
    ValueError when it is below ``least``; NaN is not an integer."""
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if not value >= least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def check_positive(name: str, value) -> None:
    """Raises ValueError unless ``value`` lies in (0, inf); NaN fails."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_nonnegative(name: str, value) -> None:
    """Raises ValueError unless ``value`` lies in [0, inf); NaN fails."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got "
                         f"{value!r}")


def check_finite(name: str, values) -> None:
    """Raises ValueError unless every entry of ``values``, a number or an
    array, is finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")


def check_point(name: str, p) -> None:
    """Raises ValueError unless ``p`` is two finite numbers."""
    if np.shape(p) != (2,):
        raise ValueError(f"{name} must be two numbers, got {p!r}")
    check_finite(name, p)


def check_directions(name: str, d: np.ndarray) -> None:
    """Raises ValueError unless every direction of ``d``, shape (..., 2),
    has unit length to within 1e-12."""
    if not np.allclose(np.hypot(d[..., 0], d[..., 1]), 1.0, rtol=0.0,
                       atol=1e-12):
        raise ValueError(f"{name} must be a unit vector")


@dataclass(frozen=True)
class Grid2D:
    """Uniform square grid with ``points_per_side**2`` vertices.

    ``side_length`` is the physical extent in cm, so the mesh size is
    ``h = side_length / (points_per_side - 1)``.
    """

    points_per_side: int
    side_length: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        check_count("points_per_side", self.points_per_side, 3)
        check_positive("side_length", self.side_length)
        h2 = self.h * self.h
        if not (0.0 < h2 < math.inf and 1.0 / h2 < math.inf):
            raise ValueError(f"side_length {self.side_length} gives a mesh "
                             f"size h = {self.h:g} whose h^2 or 1/h^2 is "
                             f"zero or not finite")
        check_point("origin", self.origin)

    @property
    def h(self) -> float:
        return self.side_length / (self.points_per_side - 1)

    @property
    def num_points(self) -> int:
        return self.points_per_side**2

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of physical coordinates, shape (s, s) each."""
        s = self.points_per_side
        ax = self.origin[0] + self.h * np.arange(s)
        ay = self.origin[1] + self.h * np.arange(s)
        return np.meshgrid(ax, ay, indexing="ij")


@dataclass(frozen=True)
class ExtendedGrid2D:
    """The ABL-padded domain around an inner region of interest.

    The inner grid sits ``abl_points`` cells in from the low sides; the high
    sides carry ``abl_points + pad`` cells, where ``pad`` is the smallest
    count that makes the extended side compatible with vertex-centered
    coarsening over the requested number of multigrid levels.
    """

    inner: Grid2D
    abl_points: int
    abl_strength: float
    pad: int = 0

    def __post_init__(self):
        check_count("abl_points", self.abl_points, 0)
        check_count("pad", self.pad, 0)
        # callers pass the strength as beta
        check_nonnegative("beta", self.abl_strength)

    @property
    def points_per_side(self) -> int:
        return self.inner.points_per_side + 2 * self.abl_points + self.pad

    @property
    def h(self) -> float:
        return self.inner.h

    @property
    def origin(self) -> tuple[float, float]:
        off = self.abl_points * self.h
        return (self.inner.origin[0] - off, self.inner.origin[1] - off)

    @property
    def abl_thickness(self) -> float:
        """Thickness L of the absorbing layer (thickest side), in cm."""
        return (self.abl_points + self.pad) * self.h

    @property
    def roi_box(self) -> tuple[tuple[float, float], tuple[float, float]]:
        lo = self.inner.origin
        ext = self.inner.side_length
        return lo, (lo[0] + ext, lo[1] + ext)

    @property
    def inner_slice(self) -> tuple[slice, slice]:
        p = self.abl_points
        s = self.inner.points_per_side
        return (slice(p, p + s), slice(p, p + s))


def build_extended_grid(inner: Grid2D, abl_points: int, beta: float,
                        levels: int) -> ExtendedGrid2D:
    """Pad ``inner`` with an ABL and whatever extra cells are needed so that
    every coarsening step of a ``levels``-deep hierarchy lands on an odd
    side count (side ≡ 1 mod 2**(levels-1)).
    """
    check_count("levels", levels, 1)
    mod = 2 ** (levels - 1)
    # the extended grid checks abl_points and beta
    eg = ExtendedGrid2D(inner, abl_points, beta,
                        (1 - inner.points_per_side - 2 * abl_points) % mod)
    coarsest = (eg.points_per_side - 1) // mod + 1
    if coarsest < 3:
        raise ValueError(
            f"{levels} levels leave a degenerate coarsest grid "
            f"({coarsest} points per side)")
    return eg


def embed_potential(f: np.ndarray, eg: ExtendedGrid2D) -> np.ndarray:
    """Copy a field from the region of interest into the extended domain;
    the ABL/pad region is zero (the object may not overlap it).  Leading
    axes of ``f`` are kept: a stack of fields embeds field by field."""
    s = eg.inner.points_per_side
    if f.shape[-2:] != (s, s):
        raise ValueError(f"field shape {f.shape} does not match inner grid {s}")
    se = eg.points_per_side
    out = np.zeros(f.shape[:-2] + (se, se), dtype=f.dtype)
    out[(...,) + eg.inner_slice] = f
    return out


def restrict_to_roi(u: np.ndarray, eg: ExtendedGrid2D) -> np.ndarray:
    """Pure index selection of the region-of-interest block, of each field
    of a stack when ``u`` has leading axes."""
    se = eg.points_per_side
    if u.shape[-2:] != (se, se):
        raise ValueError(f"field shape {u.shape} does not match extended grid {se}")
    return u[(...,) + eg.inner_slice].copy()
