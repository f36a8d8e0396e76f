import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import hankel1

from helmscat import (Grid2D, DiskScene, analytic_disk_field, relative_error,
                      sample_green_kernel, apply_green_convolution, solve_lis,
                      plane_wave)
from helmscat.lis import green_value, _singular_cell_integral


def test_green_value_frozen_point():
    # (j/4) H0^(1)(1) with H0^(1)(1) = J0(1) + j Y0(1)
    g = green_value(1.0, 1.0)
    assert g.real == pytest.approx(-0.25 * 0.08825696421567696, abs=1e-14)
    assert g.imag == pytest.approx(0.25 * 0.7651976865579666, abs=1e-14)


def test_green_value_outgoing_decay():
    # amplitude decays like 1/sqrt(r) at large argument
    r = np.array([50.0, 200.0])
    vals = np.abs(green_value(1.0, r))
    assert vals[1] == pytest.approx(vals[0] / 2.0, rel=1e-2)


def test_singular_cell_against_brute_force():
    k, h = 0.9, 0.25
    # midpoint rule over the singular cell; an even count keeps the sample
    # points away from the singularity at the center
    n = 800
    t = (np.arange(n) + 0.5) / n * h - h / 2.0
    x, y = np.meshgrid(t, t, indexing="ij")
    r = np.hypot(x, y)
    brute = np.sum(green_value(k, r)) * (h / n) ** 2
    exact = _singular_cell_integral(k, h)
    assert abs(brute - exact) < 1e-6 * abs(exact)


def test_convolution_matches_direct_sum():
    g = Grid2D(9, 4.0, (-2.0, -2.0))
    kernel = sample_green_kernel(g, 1.3, 1.0)
    rng = np.random.default_rng(0)
    w = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    out = apply_green_convolution(kernel, w)
    x, y = g.coords()
    k = 1.3
    direct = np.zeros((9, 9), dtype=complex)
    for i in range(9):
        for j in range(9):
            r = np.hypot(x - x[i, j], y - y[i, j])
            gv = np.where(r > 0, green_value(k, np.maximum(r, 1e-12)), 0.0)
            gv = gv * g.h ** 2
            gv[i, j] = kernel.singular_value
            direct[i, j] = np.sum(gv * w)
    np.testing.assert_allclose(out, direct, rtol=1e-11, atol=1e-13)


def test_zero_potential_returns_incident():
    g = Grid2D(17, 16.0, (-8.0, -8.0))
    kernel = sample_green_kernel(g, 2.0 * np.pi / 10.0, 1.0)
    u_in = plane_wave(g, (1.0, 0.0), 2.0 * np.pi / 10.0, 1.0)
    u, report = solve_lis(kernel, np.zeros((17, 17)), u_in)
    assert report.converged
    assert report.iterations <= 1
    np.testing.assert_allclose(u, u_in)


def test_disk_field_accuracy():
    lam, eta_b, eta_d = 10.0, 1.0, 1.4
    k0 = 2.0 * np.pi / lam
    g = Grid2D(65, 32.0, (-16.0, -16.0))
    x, y = g.coords()
    f = np.where(np.hypot(x, y) <= 12.5,
                 k0 ** 2 * (eta_d ** 2 - eta_b ** 2), 0.0)
    kernel = sample_green_kernel(g, k0, eta_b)
    u_in = plane_wave(g, (0.0, -1.0), k0, eta_b)
    u, report = solve_lis(kernel, f, u_in, tol=1e-8, max_iter=1000)
    assert report.converged
    scene = DiskScene(12.5, eta_d, eta_b, lam)
    u_ref = analytic_disk_field(scene, g, (0.0, -1.0))
    assert relative_error(u, u_ref) < 1e-2


def test_shape_validation():
    g = Grid2D(9, 4.0)
    kernel = sample_green_kernel(g, 1.0, 1.0)
    with pytest.raises(ValueError):
        apply_green_convolution(kernel, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        solve_lis(kernel, np.zeros((5, 5)), np.zeros((9, 9)))
    with pytest.raises(ValueError):
        sample_green_kernel(g, 0.0, 1.0)


def test_green_value_matches_hankel1():
    kr = np.logspace(-3, 3, 200)
    ref = 0.25j * hankel1(0, kr)
    np.testing.assert_allclose(green_value(1.0, kr), ref, rtol=1e-13)
    # k scales the argument, and a scalar distance gives a scalar
    np.testing.assert_allclose(green_value(2.5, kr / 2.5), ref, rtol=1e-13)
    g = green_value(0.7, 3.0)
    assert np.ndim(g) == 0
    assert abs(g - 0.25j * hankel1(0, 2.1)) <= 1e-13 * abs(g)


def _padded_fft2_convolution(kernel, w):
    s = w.shape[0]
    padded = np.zeros((2 * s, 2 * s), dtype=complex)
    padded[:s, :s] = w
    return np.fft.ifft2(np.fft.fft2(padded) * kernel.spectrum)[:s, :s]


@pytest.mark.parametrize("s", [16, 17])
def test_convolution_matches_padded_fft2(s):
    g = Grid2D(s, 8.0, (-4.0, -4.0))
    kernel = sample_green_kernel(g, 1.3, 1.0)
    rng = np.random.default_rng(s)
    w = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
    w_before = w.copy()
    out = apply_green_convolution(kernel, w)
    ref = _padded_fft2_convolution(kernel, w)
    assert out.shape == (s, s)
    np.testing.assert_allclose(out, ref, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(ref)))
    np.testing.assert_array_equal(w, w_before)
    # a real field is convolved like its complex embedding
    np.testing.assert_allclose(apply_green_convolution(kernel, w.real),
                               _padded_fft2_convolution(kernel, w.real),
                               rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))


def test_import_leaves_scipy_integrate_unloaded():
    code = ("import sys, helmscat; "
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("kh", np.geomspace(0.04, 12.6, 9))
def test_singular_cell_matches_adaptive_quadrature(kh):
    from scipy.integrate import quad
    from scipy.special import j1, y1
    h = 0.25
    k = kh / h

    def radius(theta):
        return 0.5 * h / np.cos(theta)

    def re_part(theta):
        R = radius(theta)
        return -0.25 * (R * y1(k * R) / k + 2.0 / (np.pi * k ** 2))

    def im_part(theta):
        R = radius(theta)
        return 0.25 * R * j1(k * R) / k

    re, _ = quad(re_part, 0.0, np.pi / 4.0, epsabs=1e-15, epsrel=1e-14)
    im, _ = quad(im_part, 0.0, np.pi / 4.0, epsabs=1e-15, epsrel=1e-14)
    ref = 8.0 * (re + 1j * im)
    assert abs(_singular_cell_integral(k, h) - ref) <= 1e-12 * abs(ref)


def test_kernel_build_leaves_scipy_integrate_unloaded():
    code = ("import sys, helmscat; "
            "helmscat.sample_green_kernel(helmscat.Grid2D(9, 4.0, "
            "(-2.0, -2.0)), 1.3, 1.0); "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("s", [16, 17])
def test_kernel_spectrum_matches_full_grid_construction(s):
    # the Green's function on every offset of the padded grid, as sampled
    # before the kernel was mirrored from its quadrant
    g = Grid2D(s, 6.0, (-3.0, -3.0))
    k = 1.3 * 1.1
    idx = np.arange(2 * s)
    off = np.where(idx < s, idx, idx - 2 * s)
    om, on = np.meshgrid(off, off, indexing="ij")
    r = g.h * np.hypot(om, on)
    kern = np.zeros((2 * s, 2 * s), dtype=complex)
    nz = r > 0
    kern[nz] = g.h**2 * green_value(k, r[nz])
    kern[0, 0] = _singular_cell_integral(k, g.h)
    kernel = sample_green_kernel(g, 1.3, 1.1)
    assert kernel.spectrum.tobytes() == np.fft.fft2(kern).tobytes()
