import re

import numpy as np
import pytest
from scipy.special import h1vp, hankel1, jv, jvp, yv

from helmscat import (Grid2D, DiskScene, analytic_disk_field,
                      dense_reference_solve, relative_error,
                      build_extended_grid, assemble)
from helmscat.oracle import disk_series_coefficients


def test_bessel_reference_values():
    # frozen literature values guard the special-function dependency
    assert jv(0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-14)
    assert yv(0, 1.0) == pytest.approx(0.08825696421567696, abs=1e-14)
    assert jv(1, 1.0) == pytest.approx(0.4400505857449335, abs=1e-14)
    h = hankel1(0, 1.0)
    assert h.real == pytest.approx(jv(0, 1.0), abs=1e-14)
    assert h.imag == pytest.approx(yv(0, 1.0), abs=1e-14)


def test_series_coefficients_satisfy_continuity():
    scene = DiskScene(1.25, 1.6, 1.0, 1.0)
    b, c = disk_series_coefficients(scene)
    kb = scene.k0 * scene.eta_b
    kd = scene.k0 * scene.eta_disk
    a = scene.radius
    n = np.arange(scene.truncation_order + 1)
    # value continuity at r = a
    lhs = jv(n, kb * a) + b * hankel1(n, kb * a)
    rhs = c * jv(n, kd * a)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)
    # radial-derivative continuity at r = a
    lhs_d = kb * (jvp(n, kb * a) + b * h1vp(n, kb * a))
    rhs_d = kd * c * jvp(n, kd * a)
    np.testing.assert_allclose(lhs_d, rhs_d, rtol=1e-10, atol=1e-12)


def test_zero_contrast_field_is_incident_wave():
    lam = 10.0
    scene = DiskScene(3.0, 1.0 + 1e-14, 1.0, lam)
    g = Grid2D(17, 16.0, (-8.0, -8.0))
    u = analytic_disk_field(scene, g, (0.0, 1.0))
    x, y = g.coords()
    expected = np.exp(1j * scene.k0 * y)
    np.testing.assert_allclose(u, expected, atol=1e-10)


def test_field_rotation_symmetry():
    # rotating the illumination by 90 degrees transposes the sampled field
    # of a centered disk on a symmetric grid
    scene = DiskScene(4.0, 1.4, 1.0, 10.0)
    g = Grid2D(21, 16.0, (-8.0, -8.0))
    ux = analytic_disk_field(scene, g, (1.0, 0.0))
    uy = analytic_disk_field(scene, g, (0.0, 1.0))
    np.testing.assert_allclose(ux, uy.T, rtol=1e-10, atol=1e-12)


def test_center_phase_referencing():
    # off-center disk equals the centered solution shifted, with the
    # incident phase at the center accounted for
    lam = 10.0
    g0 = Grid2D(15, 7.0, (-3.5, -3.5))
    g1 = Grid2D(15, 7.0, (-1.5, -3.5))
    centered = DiskScene(2.0, 1.3, 1.0, lam)
    shifted = DiskScene(2.0, 1.3, 1.0, lam, center=(2.0, 0.0))
    u0 = analytic_disk_field(centered, g0, (1.0, 0.0))
    u1 = analytic_disk_field(shifted, g1, (1.0, 0.0))
    np.testing.assert_allclose(u1, u0 * np.exp(1j * centered.k0 * 2.0),
                               rtol=1e-10)


def test_truncation_floor_enforced():
    with pytest.raises(ValueError):
        DiskScene(1.25, 2.2, 1.0, 1.0, truncation_order=3)
    for args in ((-1.0, 2.2, 1.0), (np.nan, 2.2, 1.0), (1.25, np.nan, 1.0),
                 (1.25, 2.2, np.inf)):
        with pytest.raises(ValueError, match="must be positive"):
            DiskScene(*args, 1.0)
    # a negative wavelength would give the conjugate field, and 0 a bare
    # ZeroDivisionError
    for wavelength in (-10.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="must be positive"):
            DiskScene(1.25, 2.2, 1.0, wavelength)


def test_direction_must_be_unit():
    scene = DiskScene(2.0, 1.3, 1.0, 10.0)
    g = Grid2D(9, 8.0, (-4.0, -4.0))
    with pytest.raises(ValueError):
        analytic_disk_field(scene, g, (1.0, 1.0))


def test_dense_reference_residual():
    g = Grid2D(9, 8.0, (-4.0, -4.0))
    eg = build_extended_grid(g, 2, 0.1, 1)
    se = eg.points_per_side
    rng = np.random.default_rng(0)
    eta_sq = 1.0 + 0.2 * rng.random((se, se))
    op = assemble(eg, eta_sq, 1.0)
    b = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    x = dense_reference_solve(op, b)
    assert np.linalg.norm(op.apply(x) - b) < 1e-10 * np.linalg.norm(b)


def test_dense_reference_size_cap():
    g = Grid2D(43, 42.0)
    eg = build_extended_grid(g, 0, 0.0, 1)
    op = assemble(eg, np.ones((43, 43)), 1.0)
    with pytest.raises(ValueError):
        dense_reference_solve(op, np.zeros((43, 43), dtype=complex))


def test_relative_error_is_squared_ratio():
    u_ref = np.array([3.0 + 4.0j, 0.0])
    assert relative_error(2.0 * u_ref, u_ref) == pytest.approx(1.0)
    assert relative_error(u_ref, u_ref) == 0.0
    with pytest.raises(ValueError):
        relative_error(u_ref, np.zeros(2))
    # mismatched shapes would broadcast to 0.0
    with pytest.raises(ValueError, match="does not match"):
        relative_error(np.ones((3, 3)), np.ones(3))


def test_series_breakdown_names_the_disk():
    # orders far above kb*a under- and overflow: 0/0 and 0*inf
    for disk, needle in (
            (DiskScene(5.0, 1000.0, 1.0, 10.0),
             "disk of radius 5 cm and index 1000: series coefficient of "
             "order 185 is not finite"),
            (DiskScene(1e-299, 1.2, 1.0, 10.0),
             "disk of radius 1e-299 cm and index 1.2: series coefficient")):
        with pytest.raises(ValueError, match=needle):
            disk_series_coefficients(disk)
    # too many orders to size: rejected before any array is allocated
    for eta in (1e5, 1e150):
        needle = re.escape(f"index {eta:g}: the series cannot be sized")
        with pytest.raises(ValueError, match=needle):
            DiskScene(5.0, eta, 1.0, 10.0)
