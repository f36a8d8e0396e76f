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


def check_integer(name: str, value) -> None:
    """Raises TypeError unless ``value`` is a Python or numpy integer."""
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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
        check_integer("points_per_side", self.points_per_side)
        if not self.points_per_side >= 3:
            raise ValueError("grid needs at least 3 points per side")
        if not 0.0 < self.side_length < math.inf:
            raise ValueError("side_length must be positive and finite")
        h2 = self.h * self.h
        if not (0.0 < h2 < math.inf and 1.0 / h2 < math.inf):
            raise ValueError(f"side_length {self.side_length} gives a mesh "
                             f"size h = {self.h:g} whose h^2 or 1/h^2 is "
                             f"zero or not finite")
        if not all(math.isfinite(c) for c in self.origin):
            raise ValueError("origin must be finite")

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
        check_integer("abl_points", self.abl_points)
        check_integer("pad", self.pad)
        if not (self.abl_points >= 0 and self.pad >= 0):
            raise ValueError("abl_points and pad must be nonnegative")
        if not 0.0 <= self.abl_strength < math.inf:
            raise ValueError("abl_strength must be nonnegative and finite")

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
    check_integer("levels", levels)
    if not abl_points >= 0:
        raise ValueError("abl_points must be nonnegative")
    if not 0.0 <= beta < math.inf:
        raise ValueError("beta must be nonnegative and finite")
    if not levels >= 1:
        raise ValueError("levels must be at least 1")
    base = inner.points_per_side + 2 * abl_points
    mod = 2 ** (levels - 1)
    pad = (1 - base) % mod
    side = base + pad
    coarsest = (side - 1) // mod + 1
    if coarsest < 3:
        raise ValueError(
            f"{levels} levels leave a degenerate coarsest grid "
            f"({coarsest} points per side)")
    return ExtendedGrid2D(inner, abl_points, beta, pad)


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
