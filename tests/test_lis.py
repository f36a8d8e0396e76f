import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import fft as scipy_fft
from scipy.special import hankel1

from helmscat import (Grid2D, DiskScene, analytic_disk_field, relative_error,
                      sample_green_kernel, apply_green_convolution, solve_lis,
                      plane_wave)
from helmscat.krylov import bicgstab
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


def _direct_convolution(g, k, w):
    """The convolution with the Green's kernel as a sum over the grid, the
    singular cell integrated over its square."""
    x, y = g.coords()
    s = g.points_per_side
    direct = np.zeros((s, s), dtype=complex)
    for i in range(s):
        for j in range(s):
            r = np.hypot(x - x[i, j], y - y[i, j])
            gv = np.where(r > 0, green_value(k, np.maximum(r, 1e-12)), 0.0)
            gv = gv * g.h ** 2
            gv[i, j] = _singular_cell_integral(k, g.h)
            direct[i, j] = np.sum(gv * w)
    return direct


def test_convolution_matches_direct_sum():
    g = Grid2D(9, 4.0, (-2.0, -2.0))
    kernel = sample_green_kernel(g, 1.3, 1.0)
    rng = np.random.default_rng(0)
    w = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    out = apply_green_convolution(kernel, w)
    np.testing.assert_allclose(out, _direct_convolution(g, 1.3, w),
                               rtol=1e-11, atol=1e-13)


def test_grid_kernel_pads_to_a_fast_length():
    # 2s = 82 = 2 * 41 is not a fast length; 81 = 3^4 is, at 2s - 1
    g = Grid2D(41, 8.0, (-4.0, -4.0))
    kernel = sample_green_kernel(g, 1.3, 1.0)
    assert kernel.spectrum.shape == (81, 81)
    rng = np.random.default_rng(41)
    w = rng.standard_normal((41, 41)) + 1j * rng.standard_normal((41, 41))
    out = apply_green_convolution(kernel, w)
    np.testing.assert_allclose(out, _direct_convolution(g, 1.3, w),
                               rtol=1e-11, atol=1e-13)


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
    for k0, eta_b in ((0.0, 1.0), (np.nan, 1.0), (1.0, np.nan),
                      (np.inf, 1.0)):
        with pytest.raises(ValueError, match="k0 \\* eta_b must be positive"):
            sample_green_kernel(g, k0, eta_b)


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
    length = kernel.spectrum.shape[0]
    padded = np.zeros((length, length), dtype=complex)
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
    # a field of its own, not a view that keeps the padded buffer alive
    assert out.shape == (s, s) and out.flags.owndata
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
    # 32 for s = 16, and 33 = 3 * 11 for s = 17
    length = scipy_fft.next_fast_len(2 * s - 1)
    idx = np.arange(length)
    off = np.where(idx < s, idx, idx - length)
    om, on = np.meshgrid(off, off, indexing="ij")
    r = g.h * np.hypot(om, on)
    kern = np.zeros((length, length), dtype=complex)
    nz = r > 0
    kern[nz] = g.h**2 * green_value(k, r[nz])
    kern[0, 0] = _singular_cell_integral(k, g.h)
    kernel = sample_green_kernel(g, 1.3, 1.1)
    assert kernel.spectrum.tobytes() == np.fft.fft2(kern).tobytes()


def _full_grid_solve(kernel, f, u_in, tol, max_iter=1000):
    """The solve on the whole grid, as it ran before the support window."""
    return bicgstab(lambda u: u - apply_green_convolution(kernel, f * u),
                    u_in.astype(complex), tol=tol, max_iter=max_iter)


def _window_problem(s=33):
    g = Grid2D(s, 16.0, (-8.0, -8.0))
    k0 = 2.0 * np.pi / 10.0
    return (g, sample_green_kernel(g, k0, 1.0),
            plane_wave(g, (0.6, -0.8), k0, 1.0), k0 ** 2 * (1.2 ** 2 - 1.0))


def test_full_support_solve_bit_identical_to_full_grid_solve():
    g, kernel, u_in, contrast = _window_problem(17)
    rng = np.random.default_rng(3)
    # the second potential is one row across the grid: its square window
    # is the whole grid
    for f in (contrast * rng.random((17, 17)),
              _support(17, 3, slice(None), contrast)):
        u, rep = solve_lis(kernel, f, u_in, tol=1e-8)
        u_ref, rep_ref = _full_grid_solve(kernel, f, u_in, 1e-8)
        assert u.tobytes() == u_ref.tobytes()
        assert rep.iterations == rep_ref.iterations
        assert rep.residual_history == rep_ref.residual_history


def _support(s, rows, cols, value):
    f = np.zeros((s, s))
    f[rows, cols] = value
    return f


@pytest.mark.parametrize("name", ["disk", "high edge", "non-square",
                                  "one cell", "corner cell"])
def test_window_solve_matches_full_grid_solve(name):
    s = 33
    g, kernel, u_in, contrast = _window_problem(s)
    x, y = g.coords()
    f = {"disk": np.where(np.hypot(x - 1.0, y + 0.5) <= 4.0, contrast, 0.0),
         # rows 31-32 and columns 3-9: the 7-wide window is clipped back
         # from the high row edge
         "high edge": _support(s, slice(31, 33), slice(3, 10), contrast),
         "non-square": _support(s, slice(4, 20), slice(10, 13), contrast),
         "one cell": _support(s, 12, 20, 4.0 * contrast),
         "corner cell": _support(s, 32, 32, 4.0 * contrast)}[name]
    tol = 1e-8
    u, rep = solve_lis(kernel, f, u_in, tol=tol)
    u_ref, rep_ref = _full_grid_solve(kernel, f, u_in, tol)
    assert rep.converged and rep_ref.converged
    assert relative_error(u, u_ref) <= 10 * tol
    # the returned field meets the full solve's stopping test on the grid
    r = u_in - (u - apply_green_convolution(kernel, f * u))
    assert np.linalg.norm(r) <= tol * np.linalg.norm(u_in)


def test_window_solve_of_zero_incident_field_is_zero():
    g, kernel, u_in, contrast = _window_problem(17)
    f = _support(17, slice(4, 9), slice(6, 10), contrast)
    u, rep = solve_lis(kernel, f, np.zeros((17, 17)))
    assert rep.converged and rep.iterations == 0
    assert not np.any(u)


def _counting_convolution(monkeypatch):
    """Patches the module's convolution with one that records the padded
    side of every kernel it is given."""
    from helmscat import lis
    sides = []
    original = lis.apply_green_convolution

    def counted(kernel, w):
        sides.append(kernel.spectrum.shape[0])
        return original(kernel, w)

    monkeypatch.setattr(lis, "apply_green_convolution", counted)
    return sides


def _counting_bicgstab(monkeypatch):
    """Patches the module's Bi-CGSTAB with one that records, per call, the
    shapes of the fields its operator is applied to and the report it
    returns."""
    from helmscat import lis
    calls = []
    original = lis.bicgstab

    def counted(apply_A, b, **kwargs):
        applies = []

        def apply(u):
            applies.append(u.shape)
            return apply_A(u)
        x, report = original(apply, b, **kwargs)
        calls.append((applies, report))
        return x, report

    monkeypatch.setattr(lis, "bicgstab", counted)
    return calls


def test_window_solve_routes_every_convolution_through_one_function(
        monkeypatch):
    g, kernel, u_in, contrast = _window_problem()
    x, y = g.coords()
    f = np.where(np.hypot(x, y) <= 4.0, contrast, 0.0)
    calls = _counting_bicgstab(monkeypatch)
    sides = _counting_convolution(monkeypatch)
    _, rep = solve_lis(kernel, f, u_in)
    assert rep.converged and rep.iterations > 1
    (applies, _), = calls
    # one convolution per operator apply on the window, then one on the
    # whole grid for the field outside it
    n = applies[0][0]
    assert n < 33 and set(applies) == {(n, n)}
    assert len(sides) == len(applies) + 1
    assert sides[-1] == 2 * 33
    assert set(sides[:-1]) == {scipy_fft.next_fast_len(2 * n - 1)}


@pytest.mark.parametrize("support", ["window", "grid"])
def test_solve_makes_one_bicgstab_call_and_returns_its_report(monkeypatch,
                                                              support):
    # the traced benchmark counts one krylov.bicgstab span per LIS solve.
    # One row across the grid has the whole grid as its square window: it
    # is solved on the grid's own kernel, and no convolution follows
    g, kernel, u_in, contrast = _window_problem(17)
    if support == "window":
        f, n = _support(17, slice(4, 9), slice(6, 10), contrast), 5
    else:
        f, n = _support(17, 3, slice(None), contrast), 17
    calls = _counting_bicgstab(monkeypatch)
    sides = _counting_convolution(monkeypatch)
    _, rep = solve_lis(kernel, f, u_in)
    (applies, report), = calls
    assert report is rep and rep.converged and rep.iterations > 1
    assert set(applies) == {(n, n)}
    extension = [kernel.spectrum.shape[0]] if n < 17 else []
    assert sides == ([scipy_fft.next_fast_len(2 * n - 1)] * len(applies)
                     + extension)


def test_window_of_201_pads_to_a_fast_length(monkeypatch):
    s = 205
    g = Grid2D(s, 25.5, (-12.75, -12.75))
    k0 = 2.0 * np.pi / 10.0
    kernel = sample_green_kernel(g, k0, 1.0)
    u_in = plane_wave(g, (1.0, 0.0), k0, 1.0)
    f = _support(s, slice(2, 203), slice(50, 60), 0.01)
    sides = _counting_convolution(monkeypatch)
    solve_lis(kernel, f, u_in, max_iter=1)
    # 2 * 201 = 402 = 2 * 3 * 67; 405 = 3^4 * 5 is the next fast length,
    # and the grid's 410 = 2 * 5 * 41 gives way to 420 = 2^2 * 3 * 5 * 7
    assert set(sides[:-1]) == {405}
    assert sides[-1] == 420


def test_kernel_quadrant_is_read_only():
    g = Grid2D(9, 4.0, (-2.0, -2.0))
    kernel = sample_green_kernel(g, 1.3, 1.0)
    assert kernel.quadrant.shape == (10, 10)
    assert kernel.quadrant[0, 0] == _singular_cell_integral(1.3, g.h)
    with pytest.raises(ValueError):
        kernel.quadrant[1, 1] = 0.0


@pytest.mark.parametrize("bad", ["f", "u_in"])
def test_solve_rejects_non_finite_input(bad):
    g, kernel, u_in, contrast = _window_problem(17)
    f = np.zeros((17, 17))
    f[5:9, 5:9] = contrast
    (f if bad == "f" else u_in)[0, 0] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        solve_lis(kernel, f, u_in)


@pytest.mark.parametrize("tol", [1.0, 2.0])
def test_solve_rejects_tol_of_one_or_more(tol):
    # the unsolved window has relative residual 1, so it would pass as
    # converged in 0 iterations
    g, kernel, u_in, contrast = _window_problem()
    f = _support(33, slice(12, 21), slice(12, 21), contrast)
    with pytest.raises(ValueError, match="tol must be positive and less"):
        solve_lis(kernel, f, u_in, tol=tol)
