import numpy as np
import pytest

import helmscat as hs
from helmscat import (Grid2D, build_extended_grid, embed_potential,
                      restrict_to_roi)


def test_mesh_size():
    g = Grid2D(33, 16.0)
    assert g.h == 0.5
    assert g.num_points == 33 * 33


def test_coords_corners():
    g = Grid2D(5, 4.0, (-2.0, -2.0))
    x, y = g.coords()
    assert x[0, 0] == -2.0 and y[0, 0] == -2.0
    assert x[-1, -1] == 2.0 and y[-1, -1] == 2.0
    # first index moves along x
    assert x[1, 0] == -1.0 and y[1, 0] == -2.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(2, 1.0)
    with pytest.raises(ValueError):
        Grid2D(5, -1.0)
    for side in (np.nan, np.inf):
        with pytest.raises(ValueError, match="side_length"):
            Grid2D(9, side)
    for origin in ((np.nan, 0.0), (0.0, -np.inf)):
        with pytest.raises(ValueError, match="origin"):
            Grid2D(9, 1.0, origin)
    # coords() reads two numbers
    for origin in ((0.0,), (0.0, 0.0, 0.0), 0.0):
        with pytest.raises(ValueError, match="origin must be two numbers"):
            Grid2D(33, 10.0, origin)
    for beta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="beta must be nonnegative"):
            build_extended_grid(Grid2D(9, 1.0), 2, beta, 1)


@pytest.mark.parametrize("point", [(np.nan, 0.0), (0.0,), (0.0, 0.0, 1.0)],
                         ids=["nan", "one number", "three numbers"])
@pytest.mark.parametrize("make", [
    lambda p: hs.make_circular_geometry(2, 4, 40.0, 10.0, center=p),
    lambda p: hs.DiskScene(1.0, 1.2, 1.0, 10.0, center=p)],
    ids=["geometry", "disk"])
def test_centers_must_be_two_finite_numbers(make, point):
    # a NaN center once gave a NaN disk field, one number an IndexError, and
    # three numbers a geometry about the first two
    needle = "must be finite" if len(point) == 2 else "must be two numbers"
    with pytest.raises(ValueError, match=f"^center {needle}"):
        make(point)


@pytest.mark.parametrize("make, name", [
    (lambda v: Grid2D(v, 1.0), "points_per_side"),
    (lambda v: build_extended_grid(Grid2D(17, 1.0), 4, 0.1, v), "levels"),
    (lambda v: build_extended_grid(Grid2D(17, 1.0), v, 0.1, 2), "abl_points"),
    (lambda v: hs.SolverConfig(levels=v), "levels"),
    (lambda v: hs.SolverConfig(max_iter=v), "max_iter"),
    (lambda v: hs.ReconstructionConfig(1.0, 1.0, iterations=v,
                                       subset_size=1), "iterations"),
], ids=["grid", "extended levels", "extended abl", "solver levels",
        "solver max_iter", "reconstruction iterations"])
def test_integer_sizes_reject_non_integers(make, name):
    # a float size would construct and then fail, or not, inside a solve
    make(np.int64(3))
    for bad in (2.5, 3.0):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            make(bad)


def test_extended_side_large_case():
    # 256 inner points, 32-cell layer, 3 levels: 256 + 64 = 320, one pad
    # cell makes 321 which halves twice (321 -> 161 -> 81)
    g = Grid2D(256, 31.875)
    eg = build_extended_grid(g, 32, 0.15, 3)
    assert eg.points_per_side == 321
    assert eg.pad == 1


def test_extended_no_pad_when_compatible():
    g = Grid2D(9, 8.0)
    eg = build_extended_grid(g, 0, 0.0, 3)
    assert eg.pad == 0
    assert eg.points_per_side == 9


def test_pad_goes_to_high_side():
    g = Grid2D(9, 8.0, (0.0, 0.0))
    eg = build_extended_grid(g, 2, 0.1, 3)
    # base 13 needs pad 0 to hit 13 = 4*3+1
    assert eg.pad == 0
    # low-side offset is exactly abl_points cells
    assert eg.origin == (-2.0 * g.h, -2.0 * g.h)


def test_abl_thickness_includes_pad():
    g = Grid2D(10, 9.0)
    eg = build_extended_grid(g, 3, 0.1, 3)
    # base = 16, next side congruent to 1 mod 4 is 17
    assert eg.pad == 1
    assert eg.abl_thickness == (3 + 1) * g.h


def test_degenerate_coarsest_rejected():
    g = Grid2D(5, 4.0)
    with pytest.raises(ValueError):
        build_extended_grid(g, 0, 0.0, 4)


def test_embed_restrict_round_trip():
    g = Grid2D(7, 6.0, (-3.0, -3.0))
    eg = build_extended_grid(g, 2, 0.1, 2)
    rng = np.random.default_rng(0)
    f = rng.standard_normal((7, 7))
    fe = embed_potential(f, eg)
    assert fe.shape == (eg.points_per_side,) * 2
    np.testing.assert_array_equal(restrict_to_roi(fe, eg), f)
    # everything outside the inner block is zero
    total = np.sum(np.abs(fe))
    assert np.isclose(total, np.sum(np.abs(f)))


def test_embed_shape_mismatch():
    g = Grid2D(7, 6.0)
    eg = build_extended_grid(g, 2, 0.1, 2)
    with pytest.raises(ValueError):
        embed_potential(np.zeros((5, 5)), eg)
    with pytest.raises(ValueError):
        restrict_to_roi(np.zeros((7, 7)), eg)


def test_roi_box():
    g = Grid2D(9, 8.0, (-4.0, -4.0))
    eg = build_extended_grid(g, 2, 0.1, 1)
    lo, hi = eg.roi_box
    assert lo == (-4.0, -4.0)
    assert hi == (4.0, 4.0)
