"""The benchmark (``benchmarks/worker.py`` and ``benchmarks/workloads.py``)
calls helmscat's public functions with fixed argument names and reads
fixed attributes of their results.  These tests make the same calls, with
the same names, on a 33^2 scene, so that a change to one of those entry
points fails here rather than in a benchmark run."""

import math

import numpy as np

import helmscat as hs
from helmscat import io as hs_io

SIDE = 16.0
WAVELENGTH = 10.0


def _scene(views=2):
    grid = hs.Grid2D(33, SIDE, (-SIDE / 2.0,) * 2)
    geom = hs.make_circular_geometry(views, 8, 40.0, WAVELENGTH)
    return hs.ScatteringScene(grid, 1.0, geom)


def _disk(grid, inside, outside):
    x, y = grid.coords()
    return np.where(np.hypot(x, y) <= 4.0, inside, outside)


def test_forward_calls(multigrid_path):
    scene = _scene()
    grid, geom = scene.grid, scene.geometry
    f = _disk(grid, scene.k0**2 * (1.2**2 - 1.0), 0.0)
    g_full = hs.sensor_green_operator(grid, geom.sensors, scene.k0,
                                      scene.eta_b)
    assert g_full.shape == (8, grid.num_points)

    solver = {"abl_points": 4, "beta": 0.15, "levels": 2, "tol": 1e-6,
              "max_iter": 500}
    model = hs.HelmholtzForward(scene, f, hs.SolverConfig(**solver))
    u_q, rep = model.total_field(0)
    assert u_q.shape == (33, 33) and rep.converged and rep.iterations >= 1
    assert model.hier.meter.total > 0.0
    disk = hs.DiskScene(4.0, 1.2, 1.0, WAVELENGTH)
    ref = hs.analytic_disk_field(disk, grid, tuple(geom.directions[0]))
    assert hs.relative_error(u_q, ref) < 0.1

    kernel = hs.sample_green_kernel(grid, scene.k0, scene.eta_b)
    u_in = hs.plane_wave(grid, geom.directions[0], scene.k0, scene.eta_b,
                         geom.u0)
    u_l, rep_l = hs.solve_lis(kernel, f, u_in, tol=1e-6, max_iter=500)
    assert u_l.shape == (33, 33) and rep_l.converged
    y = g_full[geom.active[0]] @ (f * u_l).ravel()
    assert np.all(np.isfinite(y))


def test_reconstruct_calls(tmp_path):
    scene = _scene()
    grid, geom = scene.grid, scene.geometry
    eta_true = _disk(grid, 1.1, 1.0)
    f = scene.k0**2 * (eta_true**2 - 1.0)
    model = hs.HelmholtzForward(scene, f, hs.SolverConfig(abl_points=4))
    views = []
    for q in range(geom.num_views):
        u, rep = model.total_field(q)
        assert rep.converged
        views.append(scene.sensor_operator[geom.active[q]] @ (f * u).ravel())
    path = tmp_path / "measurements.csv"
    hs_io.write_measurements_csv(path, geom, views)
    ms = hs_io.read_measurements_csv(path, geom)
    assert ms.num_views == geom.num_views

    solver = {"abl_points": 4, "beta": 0.0, "levels": 2, "tol": 1e-6,
              "max_iter": 500}
    rc = hs.ReconstructionConfig(gamma=0.02, tau=1e-3, iterations=2,
                                 subset_size=2, seed=3,
                                 solver=hs.SolverConfig(**solver))
    f_rec, history = hs.reconstruct_fbs(ms, scene, rc)
    assert f_rec.shape == (33, 33)
    assert len(history.work_units) == 2
    assert math.isfinite(history.work_units[-1])
    eta = hs.eta_from_potential(f_rec, 1.0, scene.k0)
    assert math.isfinite(hs.snr(eta, eta_true))

