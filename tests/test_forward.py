import dataclasses

import numpy as np
import pytest
from scipy.special import hankel1

import helmscat as hs
from helmscat.forward import LisForward, sensor_green_operator


def _small_scene(s=33, side=16.0, views=2, sensors=8, radius=40.0, lam=10.0):
    g = hs.Grid2D(s, side, (-side / 2.0, -side / 2.0))
    geom = hs.make_circular_geometry(views, sensors, radius, lam)
    return hs.ScatteringScene(g, 1.0, geom)


def test_plane_wave_values():
    g = hs.Grid2D(5, 4.0, (0.0, 0.0))
    k0 = np.pi / 2.0
    u = hs.plane_wave(g, (1.0, 0.0), k0, 1.0)
    np.testing.assert_allclose(np.abs(u), 1.0)
    assert u[0, 0] == pytest.approx(1.0)
    assert u[2, 0] == pytest.approx(np.exp(1j * np.pi), abs=1e-12)
    with pytest.raises(ValueError):
        hs.plane_wave(g, (2.0, 0.0), k0, 1.0)
    for shape in [(3,), (2, 3)]:
        with pytest.raises(ValueError,
                           match=r"shape \(2,\) or \(V, 2\), got"):
            hs.plane_wave(g, np.full(shape, 0.5), k0, 1.0)


def _plane_wave_reference(grid, direction, k0, eta_b, u0=1.0):
    """The wave as exp of the phase summed over the full meshgrid."""
    x, y = grid.coords()
    return u0 * np.exp(1j * k0 * eta_b * (direction[0] * x + direction[1] * y))


def test_plane_wave_matches_exp_of_phase_sum():
    # the 8 views of the 256^2 benchmark on its 321^2 extended grid, which
    # plane_wave reads directly, against the Grid2D of the same points
    inner = hs.Grid2D(256, 31.875, (-15.9375, -15.9375))
    eg = hs.build_extended_grid(inner, 32, 0.15, 3)
    side = eg.points_per_side
    assert side == 321
    ext = hs.Grid2D(side, (side - 1) * eg.h, eg.origin)
    geom = hs.make_circular_geometry(8, 40, 40.0, 10.0)
    for d in geom.directions:
        u = hs.plane_wave(eg, d, geom.k0, 1.0)
        ref = _plane_wave_reference(ext, d, geom.k0, 1.0)
        assert u.shape == (side, side)
        assert np.max(np.abs(u - ref)) <= 1e-14
    g = hs.Grid2D(17, 6.0, (-2.0, 1.0))
    u0 = 0.7 - 0.4j
    u = hs.plane_wave(g, (0.6, -0.8), 1.1, 1.3, u0)
    ref = _plane_wave_reference(g, (0.6, -0.8), 1.1, 1.3, u0)
    assert np.max(np.abs(u - ref)) <= 1e-14


def test_plane_wave_stack_matches_one_direction_calls():
    # the 8 benchmark views on the 321^2 extended grid, and the empty and
    # one-row stacks, bit for bit
    inner = hs.Grid2D(256, 31.875, (-15.9375, -15.9375))
    eg = hs.build_extended_grid(inner, 32, 0.15, 3)
    geom = hs.make_circular_geometry(8, 40, 40.0, 10.0)
    u0 = 0.7 - 0.4j
    for views in (range(8), range(0), range(1)):
        d = geom.directions[list(views)]
        stack = hs.plane_wave(eg, d, geom.k0, 1.0, u0)
        assert stack.shape == (len(views), 321, 321)
        for q, u_q in zip(views, stack):
            one = hs.plane_wave(eg, geom.directions[q], geom.k0, 1.0, u0)
            assert one.shape == (321, 321)
            assert u_q.tobytes() == one.tobytes()


def test_geometry_directions_point_inward():
    geom = hs.make_circular_geometry(4, 16, 40.0, 10.0)
    np.testing.assert_allclose(geom.directions[0], [-1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(geom.directions[1], [0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(np.hypot(geom.directions[:, 0],
                                        geom.directions[:, 1]), 1.0)


def test_active_sensors_face_the_source():
    geom = hs.make_circular_geometry(2, 16, 40.0, 10.0, active_count=5)
    assert np.all(geom.active.sum(axis=1) == 5)
    # view 0 source sits at (+R, 0); the far side is around sensor 8
    active_ids = np.flatnonzero(geom.active[0])
    assert 8 in active_ids
    assert 0 not in active_ids


def test_sensor_operator_rejects_interior_sensors():
    g = hs.Grid2D(9, 8.0, (-4.0, -4.0))
    with pytest.raises(ValueError):
        sensor_green_operator(g, np.array([[0.0, 0.0]]), 1.0, 1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_sensor_operator_rejects_non_finite_sensors(bad):
    g = hs.Grid2D(9, 8.0, (-4.0, -4.0))
    with pytest.raises(ValueError, match="sensor positions must be finite"):
        sensor_green_operator(g, np.array([[10.0, 0.0], [bad, 0.0]]), 1.0,
                              1.0)


def test_sensor_operator_entries():
    g = hs.Grid2D(9, 8.0, (-4.0, -4.0))
    sensors = np.array([[10.0, 0.0]])
    G = sensor_green_operator(g, sensors, 1.0, 1.0)
    assert G.shape == (1, 81)
    x, y = g.coords()
    from helmscat.lis import green_value
    r = np.hypot(x.ravel() - 10.0, y.ravel())
    np.testing.assert_allclose(G[0], g.h ** 2 * green_value(1.0, r))


def test_sensor_operator_matches_hankel1():
    g = hs.Grid2D(12, 6.0, (-3.0, -2.0))
    sensors = np.array([[10.0, 0.0], [-7.0, 5.5], [0.3, -9.0]])
    k0, eta_b = 1.7, 1.2
    G = sensor_green_operator(g, sensors, k0, eta_b)
    x, y = g.coords()
    ref = np.empty((3, 144), dtype=complex)
    for m, (sx, sy) in enumerate(sensors):
        r = np.sqrt((sx - x.ravel()) ** 2 + (sy - y.ravel()) ** 2)
        ref[m] = g.h ** 2 * 0.25j * hankel1(0, k0 * eta_b * r)
    np.testing.assert_allclose(G, ref, rtol=1e-13)


def _row_expression(grid, sensors, k):
    """Each sensor's row, evaluated on its own."""
    from helmscat.lis import green_value
    x, y = (c.ravel() for c in grid.coords())
    for sx, sy in sensors:
        yield grid.h**2 * green_value(k, np.hypot(sx - x, sy - y))


def _built_with_evaluated_rows(monkeypatch, grid, sensors, k0, eta_b):
    """The sensor operator and the indices of the rows that called
    ``green_value``, found from the distances each call was given."""
    from helmscat import forward
    green_value = forward.green_value
    calls = []

    def recording(k, r):
        calls.append(np.array(r))
        return green_value(k, r)

    monkeypatch.setattr(forward, "green_value", recording)
    G = sensor_green_operator(grid, sensors, k0, eta_b)
    monkeypatch.undo()
    x, y = (c.ravel() for c in grid.coords())
    dist = np.hypot(sensors[:, 0, None] - x, sensors[:, 1, None] - y)
    rows = [int(np.flatnonzero((dist == r).all(axis=1))[0]) for r in calls]
    return G, rows


def _max_relative_error(G, grid, sensors, k):
    return max(float(np.max(np.abs(row - ref) / np.abs(ref)))
               for row, ref in zip(G, _row_expression(grid, sensors, k)))


def _square_images(row, s):
    """The 8 images of an s-by-s row under the square's symmetries."""
    a = row.reshape(s, s)
    for flipped in (a, a[::-1], a[:, ::-1], a[::-1, ::-1]):
        yield flipped
        yield flipped.T


def test_sensor_operator_blocks_match_full_expression(monkeypatch):
    # the evaluated rows have the bytes of the whole M-by-N expression; a
    # reused row is an image of an evaluated one, and the sensors, made by
    # cos and sin, are images of each other only to within an ulp
    from helmscat.lis import green_value
    k0, eta_b = 2.0 * np.pi / 10.0, 1.3
    for s, count, centre in ((33, 40, (0.0, 0.0)), (17, 400, (0.0, 0.0)),
                             (64, 400, (0.0, 0.0)), (33, 40, (1.3, -0.7))):
        g = hs.Grid2D(s, 16.0, (-8.0, -8.0))
        sensors = hs.make_circular_geometry(1, count, 40.0, 10.0,
                                            center=centre).sensors
        x, y = g.coords()
        full = g.h**2 * green_value(k0 * eta_b,
                                    np.hypot(sensors[:, 0, None] - x.ravel(),
                                             sensors[:, 1, None] - y.ravel()))
        G, rows = _built_with_evaluated_rows(monkeypatch, g, sensors, k0,
                                             eta_b)
        assert G.shape == full.shape and G.dtype == full.dtype
        assert G[rows].tobytes() == full[rows].tobytes()
        assert np.max(np.abs(G - full) / np.abs(full)) <= 1e-13
        if centre != (0.0, 0.0):
            # no symmetric pair: every row is evaluated
            assert len(rows) == count
            for row, ref in zip(G, _row_expression(g, sensors, k0 * eta_b)):
                assert row.tobytes() == ref.tobytes()


@pytest.mark.parametrize("s", [17, 33, 256])
@pytest.mark.parametrize("count", [1, 3, 37, 40, 64])
def test_sensor_operator_orbit_reuse_matches_direct_evaluation(s, count):
    g = hs.Grid2D(s, 31.875, (-15.9375, -15.9375))
    sensors = hs.make_circular_geometry(1, count, 40.0, 10.0).sensors
    k0, eta_b = 2.0 * np.pi / 10.0, 1.3
    G = sensor_green_operator(g, sensors, k0, eta_b)
    assert _max_relative_error(G, g, sensors, k0 * eta_b) <= 1e-13


def test_sensor_operator_orbit_reuse_on_a_grid_with_unequal_origins(
        monkeypatch):
    # the grid's centre is (6, 13): the circle around it has the orbits
    # of the centred one
    g = hs.Grid2D(33, 16.0, (-2.0, 5.0))
    sensors = hs.make_circular_geometry(1, 40, 30.0, 10.0,
                                        center=(6.0, 13.0)).sensors
    G, rows = _built_with_evaluated_rows(monkeypatch, g, sensors, 0.9, 1.1)
    assert rows == list(range(6))
    assert _max_relative_error(G, g, sensors, 0.9 * 1.1) <= 1e-13


def test_sensor_operator_at_random_angles(monkeypatch):
    angles = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 40)
    sensors = 40.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    g = hs.Grid2D(33, 16.0, (-8.0, -8.0))
    G, rows = _built_with_evaluated_rows(monkeypatch, g, sensors, 0.6, 1.0)
    assert rows == list(range(40))
    assert _max_relative_error(G, g, sensors, 0.6) <= 1e-13


def test_sensor_operator_reused_rows_are_images_of_evaluated_rows(
        monkeypatch):
    s = 33
    g = hs.Grid2D(s, 16.0, (-8.0, -8.0))
    sensors = hs.make_circular_geometry(1, 40, 40.0, 10.0).sensors
    G, rows = _built_with_evaluated_rows(monkeypatch, g, sensors, 0.6, 1.0)
    images = {image.tobytes() for i in rows
              for image in _square_images(G[i], s)}
    for i in sorted(set(range(40)) - set(rows)):
        assert G[i].reshape(s, s).tobytes() in images


@pytest.mark.parametrize("centre, evaluations", [((0.0, 0.0), 6),
                                                 ((1.3, -0.7), 40)])
def test_sensor_operator_green_evaluations_per_orbit(monkeypatch, centre,
                                                     evaluations):
    # the workloads' acquisition: 40 sensors on a 40 cm circle around the
    # 256^2 grid, whose 8 symmetries leave 6 distinct rows when centred
    from helmscat import forward
    calls = []
    green_value = forward.green_value
    monkeypatch.setattr(forward, "green_value",
                        lambda k, r: calls.append(k) or green_value(k, r))
    g = hs.Grid2D(256, 31.875, (-15.9375, -15.9375))
    sensors = hs.make_circular_geometry(8, 40, 40.0, 10.0,
                                        center=centre).sensors
    sensor_green_operator(g, sensors, 2.0 * np.pi / 10.0, 1.0)
    assert len(calls) == evaluations


def test_sensor_operator_peak_memory_does_not_grow_with_sensors():
    import tracemalloc
    g = hs.Grid2D(128, 16.0, (-8.0, -8.0))
    sensors = hs.make_circular_geometry(1, 40, 40.0, 10.0).sensors
    tracemalloc.start()
    try:
        G = sensor_green_operator(g, sensors, 2.0 * np.pi / 10.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.nbytes == 10 * 2**20
    assert peak <= G.nbytes + 4 * 2**20


@pytest.mark.parametrize("k0, eta_b", [(1.0, 0.0), (1.0, -1.0), (-1.0, 1.0)])
def test_sensor_operator_rejects_nonpositive_wavenumber(k0, eta_b):
    g = hs.Grid2D(9, 8.0, (-4.0, -4.0))
    with pytest.raises(ValueError, match="k0 \\* eta_b must be positive"):
        sensor_green_operator(g, np.array([[10.0, 0.0]]), k0, eta_b)
    # plane waves check the same product: a negative one would give the
    # conjugate wave, and 0 a constant field
    with pytest.raises(ValueError, match="k0 \\* eta_b must be positive"):
        hs.plane_wave(g, (1.0, 0.0), k0, eta_b)


@pytest.mark.parametrize("eta_b", [0.0, -1.0, np.nan, np.inf])
def test_scene_rejects_bad_background_index(eta_b):
    g = hs.Grid2D(9, 8.0, (-4.0, -4.0))
    geom = hs.make_circular_geometry(2, 4, 40.0, 10.0)
    with pytest.raises(ValueError, match="eta_b must be finite and positive"):
        hs.ScatteringScene(g, eta_b, geom)


@pytest.mark.parametrize("field, value, needle", [
    ("levels", 0, "levels"), ("nu1", -1, "nu1"), ("nu2", -1, "nu2"),
    ("omega", 0.0, "omega"), ("omega", 1.5, "omega"),
    ("omega", np.nan, "omega"), ("cycle_type", 0, "cycle_type"),
    ("tol", 0.0, "tol"), ("tol", np.nan, "tol"),
    ("tol", 1.0, "less than 1"), ("tol", 2.0, "less than 1"),
    ("max_iter", 0, "max_iter"),
    ("abl_points", -1, "abl_points"), ("beta", -0.1, "beta")])
def test_solver_config_rejects_bad_values(field, value, needle):
    with pytest.raises(ValueError, match=needle):
        hs.SolverConfig(**{field: value})


@pytest.mark.usefixtures("multigrid_path")
def test_total_field_evaluates_incident_wave_once(monkeypatch):
    # a view's incident wave is evaluated once per solve
    from helmscat import forward
    scene = _small_scene()
    cfg = hs.SolverConfig(abl_points=4, beta=0.15, levels=2)
    s = scene.grid.points_per_side
    f = np.full((s, s), 0.05)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    u_in = hs.plane_wave(fwd.eg, scene.geometry.directions[1], scene.k0,
                         scene.eta_b)
    (u_sc,), _ = fwd._solve((fwd.f_ext * u_in)[None])
    u_ref = hs.restrict_to_roi(u_sc + u_in, fwd.eg)
    original = forward.plane_wave
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(forward, "plane_wave", counting)
    u_tot, _ = fwd.total_field(1)
    assert len(calls) == 1
    np.testing.assert_array_equal(u_tot, u_ref)


def test_zero_potential_scatters_nothing():
    scene = _small_scene()
    cfg = hs.SolverConfig(abl_points=4, beta=0.15, levels=2)
    s = scene.grid.points_per_side
    fwd = hs.HelmholtzForward(scene, np.zeros((s, s)), cfg)
    u_in = hs.plane_wave(fwd.eg, scene.geometry.directions[0], scene.k0,
                         scene.eta_b)
    (u_sc,), (report,) = fwd._solve((fwd.f_ext * u_in)[None])
    assert report.converged
    np.testing.assert_array_equal(u_sc, 0.0)
    y, _ = hs.forward_mgh(scene, np.zeros((s, s)), 0, cfg)
    np.testing.assert_array_equal(y, 0.0)


def test_models_agree_on_measurements():
    scene = _small_scene()
    k0 = scene.k0
    x, y = scene.grid.coords()
    f = np.where(np.hypot(x, y) <= 5.0, k0 ** 2 * (1.2 ** 2 - 1.0), 0.0)
    cfg = hs.SolverConfig(abl_points=6, beta=0.15, levels=2, tol=1e-8)
    y_mgh, rep1 = hs.forward_mgh(scene, f, 0, cfg)
    y_lis, rep2 = hs.forward_lis(scene, f, 0, cfg)
    assert rep1.converged and rep2.converged
    assert np.linalg.norm(y_mgh - y_lis) < 0.05 * np.linalg.norm(y_lis)


def test_total_field_against_analytic_disk():
    lam, eta_d = 10.0, 1.4
    scene = _small_scene(s=65, side=32.0)
    k0 = scene.k0
    x, y = scene.grid.coords()
    f = np.where(np.hypot(x, y) <= 12.5, k0 ** 2 * (eta_d ** 2 - 1.0), 0.0)
    cfg = hs.SolverConfig(abl_points=8, beta=0.15, levels=3, tol=1e-8)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    u_tot, report = fwd.total_field(0)
    assert report.converged
    disk = hs.DiskScene(12.5, eta_d, 1.0, lam)
    u_ref = hs.analytic_disk_field(disk, scene.grid,
                                   scene.geometry.directions[0])
    assert hs.relative_error(u_tot, u_ref) < 2e-2


def test_adjoint_solve_residual():
    scene = _small_scene()
    k0 = scene.k0
    x, y = scene.grid.coords()
    f = np.where(np.hypot(x, y) <= 5.0, k0 ** 2 * 0.3, 0.0)
    cfg = hs.SolverConfig(abl_points=4, beta=0.15, levels=2, tol=1e-10)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    se = fwd.eg.points_per_side
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal((se, se)) + 1j * rng.standard_normal((se, se))
    z, report = fwd.adjoint_solve(rhs)
    assert report.converged
    res = fwd.op.apply_adjoint(z) - rhs
    assert np.linalg.norm(res) < 1e-8 * np.linalg.norm(rhs)


def test_potential_lower_bound_checked():
    scene = _small_scene()
    s = scene.grid.points_per_side
    f = np.zeros((s, s))
    f[5, 5] = -2.0 * scene.k0 ** 2  # would push eta^2 below zero
    cfg = hs.SolverConfig(abl_points=4, levels=2)
    with pytest.raises(ValueError):
        hs.HelmholtzForward(scene, f, cfg)


def test_measurement_set_rejects_nonfinite():
    with pytest.raises(ValueError):
        hs.MeasurementSet([np.array([1.0, np.nan])])


def _warm_problem():
    scene = _small_scene()
    k0 = scene.k0
    x, y = scene.grid.coords()
    f = np.where(np.hypot(x, y) <= 5.0, k0 ** 2 * 0.3, 0.0)
    cfg = hs.SolverConfig(abl_points=4, beta=0.15, levels=2, tol=1e-10)
    return scene, f, cfg


@pytest.mark.usefixtures("multigrid_path")
def test_warm_total_field_matches_cold_and_fills_buffer():
    scene, f, cfg = _warm_problem()
    cold = hs.HelmholtzForward(scene, f, cfg)
    u_cold, rep_cold = cold.total_field(1)
    # the guess: the solution at a nearby potential
    warm = {}
    hs.HelmholtzForward(scene, 0.9 * f, cfg).fields([1], warm)
    buf = warm[("forward", 1)]
    (u_warm,), (rep_warm,) = cold.fields([1], warm)
    assert rep_warm.converged
    assert rep_warm.iterations < rep_cold.iterations
    assert np.linalg.norm(u_warm - u_cold) <= 1e-8 * np.linalg.norm(u_cold)
    # the same buffer now holds the new scattered field on the extended grid
    assert list(warm) == [("forward", 1)] and warm[("forward", 1)] is buf
    u_in = hs.plane_wave(cold.eg, scene.geometry.directions[1], scene.k0,
                         scene.eta_b)
    np.testing.assert_array_equal(
        hs.restrict_to_roi(buf + u_in, cold.eg), u_warm)
    res = cold.op.apply(buf) - cold.f_ext * u_in
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(cold.f_ext * u_in)


@pytest.mark.usefixtures("multigrid_path")
def test_warm_adjoint_solve_matches_cold_and_fills_buffer():
    scene, f, cfg = _warm_problem()
    fwd = hs.HelmholtzForward(scene, f, cfg)
    rng = np.random.default_rng(1)
    r = [rng.standard_normal(8) + 1j * rng.standard_normal(8)]
    back_cold, (rep_cold,) = fwd.adjoint([1], r)
    # the guess: the solution at a nearby potential
    warm = {}
    hs.HelmholtzForward(scene, 0.9 * f, cfg).adjoint([1], r, warm)
    buf = warm[("adjoint", 1)]
    back_warm, (rep_warm,) = fwd.adjoint([1], r, warm)
    assert rep_warm.converged
    assert rep_warm.iterations < rep_cold.iterations
    assert np.linalg.norm(back_warm - back_cold) \
        <= 1e-8 * np.linalg.norm(back_cold)
    # the buffer holds the solution x of A x = conj(b), b = embed(f G^H r),
    # whose conjugate is the adjoint solution
    assert list(warm) == [("adjoint", 1)] and warm[("adjoint", 1)] is buf
    w = fwd.measure_adjoint([1], r)
    np.testing.assert_array_equal(
        w + hs.restrict_to_roi(np.conj(buf), fwd.eg), back_warm)
    rhs = hs.embed_potential(fwd.f * w[0], fwd.eg)
    res = fwd.op.apply_adjoint(np.conj(buf)) - rhs
    assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(rhs)


@pytest.mark.usefixtures("multigrid_path")
def test_filled_warm_slots_are_written_in_place(monkeypatch):
    # once every view's slot holds a guess, a round of forward and adjoint
    # solves allocates no new slot
    from helmscat import forward
    scene = _small_scene(views=3)
    x, y = scene.grid.coords()
    f = np.where(np.hypot(x, y) <= 5.0, scene.k0 ** 2 * 0.3, 0.0)
    fwd = hs.HelmholtzForward(scene, f, hs.SolverConfig(
        abl_points=4, beta=0.15, levels=2))
    assert fwd.eg.points_per_side == 41
    r = np.ones((3, 8), dtype=complex)
    warm = {}
    fwd.fields(range(3), warm)
    fwd.adjoint(range(3), r, warm)
    slots = dict(warm)
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty_like(self, *args, **kwargs):
            calls.append(args)
            return np.empty_like(*args, **kwargs)

    monkeypatch.setattr(forward, "np", CountingNumpy())
    fwd.fields(range(3), warm)
    fwd.adjoint(range(3), r, warm)
    assert len(calls) == 0
    assert all(warm[key] is slot for key, slot in slots.items())


@pytest.mark.usefixtures("multigrid_path")
def test_zero_warm_buffer_equals_cold_start():
    scene, f, cfg = _warm_problem()
    fwd = hs.HelmholtzForward(scene, f, cfg)
    u_cold, rep_cold = fwd.fields([0, 1])
    u_warm, rep_warm = fwd.fields([0, 1], {})
    np.testing.assert_array_equal(u_warm, u_cold)
    assert rep_warm == rep_cold
    rng = np.random.default_rng(2)
    r = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    back_cold, rep_cold = fwd.adjoint([0, 1], r)
    back_warm, rep_warm = fwd.adjoint([0, 1], r, {})
    np.testing.assert_array_equal(back_warm, back_cold)
    assert rep_warm == rep_cold


@pytest.mark.usefixtures("multigrid_path")
def test_multigrid_solve_writes_over_its_stack():
    # each view's solution is written over its right-hand side, bit for bit
    # the solution of that right-hand side solved alone
    scene, f, cfg = _warm_problem()
    fwd = hs.HelmholtzForward(scene, f, cfg)
    b = fwd.f_ext * np.stack([hs.plane_wave(fwd.eg, d, scene.k0, scene.eta_b)
                              for d in scene.geometry.directions])
    rhs = b.copy()
    x, reports = fwd._solve(b)
    assert x is b
    for x_i, rhs_i, report in zip(x, rhs, reports):
        alone, (report_alone,) = fwd._solve(rhs_i[None].copy())
        np.testing.assert_array_equal(x_i, alone[0])
        assert report == report_alone


def test_lis_fields_written_over_incident_waves(monkeypatch):
    from helmscat import forward
    scene, f, cfg = _warm_problem()
    original = forward.plane_wave
    stacks = []

    def capturing(*args):
        stacks.append(original(*args))
        return stacks[-1]

    monkeypatch.setattr(forward, "plane_wave", capturing)
    u, reports = LisForward(scene, f, cfg).fields([0, 1])
    assert len(stacks) == 1 and u is stacks[0]
    g = scene.geometry
    for q, u_q, report in zip([0, 1], u, reports):
        u_in = hs.plane_wave(scene.grid, g.directions[q], scene.k0,
                             scene.eta_b, g.u0)
        ref, report_ref = hs.solve_lis(scene.green_kernel, f, u_in,
                                       tol=cfg.tol, max_iter=cfg.max_iter)
        np.testing.assert_array_equal(u_q, ref)
        assert report == report_ref


def test_lis_fields_build_one_window_kernel_per_call(monkeypatch):
    # the disk's window is smaller than the grid, so the batch pads one
    # window kernel and shares it between its views
    from helmscat import lis
    scene = _small_scene(views=3)
    _, f, cfg = _warm_problem()
    padded = lis._padded_kernel
    sides = []

    def counted(quadrant, n):
        sides.append(n)
        return padded(quadrant, n)

    model = LisForward(scene, f, cfg)
    scene.green_kernel      # the grid's kernel, built before the count
    monkeypatch.setattr(lis, "_padded_kernel", counted)
    _, reports = model.fields(range(3))
    assert len(sides) == 1 and sides[0] < scene.grid.points_per_side
    assert len(reports) == 3 and all(r.converged for r in reports)


def test_lis_fields_of_zero_potential_are_the_incident_waves(monkeypatch):
    from helmscat import forward
    scene = _small_scene(views=3)
    original = forward.plane_wave
    stacks = []

    def capturing(*args):
        stacks.append(original(*args))
        return stacks[-1]

    monkeypatch.setattr(forward, "plane_wave", capturing)
    u, reports = LisForward(scene, np.zeros((33, 33)),
                            hs.SolverConfig()).fields(range(3))
    assert len(stacks) == 1 and u is stacks[0]
    g = scene.geometry
    for u_q, d in zip(u, g.directions):
        np.testing.assert_array_equal(
            u_q, hs.plane_wave(scene.grid, d, scene.k0, scene.eta_b, g.u0))
    assert [(r.iterations, r.converged) for r in reports] == [(0, True)] * 3


@pytest.mark.usefixtures("multigrid_path")
def test_batched_fields_peak_memory():
    # fields(range(V)) holds one stack of V extended fields, the incident
    # waves that become the right-hand sides and then the solutions, the
    # stack of the incident waves on the region of interest, V (s/se)^2
    # extended fields, and the work of one view's Bi-CGSTAB solve and
    # multigrid cycle: 12 more fields on this 41^2 grid, under the bound
    # of 14
    import tracemalloc
    views = 16
    scene = _small_scene(views=views)
    x, y = scene.grid.coords()
    f = np.where(np.hypot(x, y) <= 5.0, scene.k0 ** 2 * 0.3, 0.0)
    fwd = hs.HelmholtzForward(scene, f, hs.SolverConfig(
        abl_points=4, beta=0.15, levels=2))
    fwd.fields([0])  # builds the smoother's inverse diagonal, kept after
    field_bytes = fwd.eg.points_per_side ** 2 * 16
    tracemalloc.start()
    try:
        fwd.fields(range(views))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    roi_share = (scene.grid.points_per_side / fwd.eg.points_per_side) ** 2
    assert peak <= ((1 + roi_share) * views + 14) * field_bytes


def test_geometry_rejects_a_radius_whose_distances_overflow():
    with pytest.raises(ValueError, match=r"sensor radius 1e\+160 is too "
                                         r"large"):
        hs.make_circular_geometry(4, 8, 1e160, 10.0, active_count=3)
    # below the limit the active sensors are those of an ordinary radius
    ref = hs.make_circular_geometry(4, 8, 40.0, 10.0, active_count=3)
    big = hs.make_circular_geometry(4, 8, 1e150, 10.0, active_count=3)
    np.testing.assert_array_equal(big.active, ref.active)
    assert [list(np.flatnonzero(a)) for a in ref.active] == [
        [3, 4, 5], [5, 6, 7], [0, 1, 7], [1, 2, 3]]


@pytest.mark.parametrize("views, sensors", [(0, 8), (2, 0), (-1, 8)])
def test_geometry_rejects_empty_counts(views, sensors):
    with pytest.raises(ValueError, match="at least one view"):
        hs.make_circular_geometry(views, sensors, 40.0, 10.0)


@pytest.mark.parametrize("radius", [-40.0, 0.0, np.nan])
def test_geometry_rejects_nonpositive_radius(radius):
    # at radius -40 the active sensors of view 0 would sit where its wave
    # comes from: <s, d> = -28.3, -40, -28.3 in place of 28.3, 40, 28.3
    with pytest.raises(ValueError, match=f"sensor radius {radius} must be "
                                         f"positive"):
        hs.make_circular_geometry(4, 8, radius, 10.0, active_count=3)


@pytest.mark.parametrize("active", [0, -1, 9])
def test_geometry_rejects_active_count_out_of_range(active):
    with pytest.raises(ValueError, match="active sensor count"):
        hs.make_circular_geometry(2, 8, 40.0, 10.0, active_count=active)


@pytest.mark.parametrize("field, bad, needle", [
    ("active", lambda g: g.active.astype(np.int8), "must be boolean"),
    ("directions", lambda g: g.directions[:, :1], "must have shape"),
    ("u0", lambda g: complex(np.nan, 0.0), "u0 must be finite"),
    ("sensors", lambda g: np.zeros((6, 3)), r"\(M, 2\), got \(6, 3\)"),
    ("sensors", lambda g: g.sensors[:, :1], r"\(M, 2\), got \(6, 1\)"),
    ("sensors", lambda g: g.sensors[:, 0], r"\(M, 2\), got \(6,\)"),
])
def test_geometry_rejects_malformed_fields(field, bad, needle):
    geom = hs.make_circular_geometry(2, 6, 40.0, 10.0, active_count=3)
    with pytest.raises(ValueError, match=needle):
        dataclasses.replace(geom, **{field: bad(geom)})


def test_directions_off_unit_length_are_rejected():
    # a norm of 1 + 1e-9 passes numpy's default rtol of 1e-5, and its
    # plane waves would run at (1 + 1e-9) k
    d = np.array([1.0 + 1e-9, 0.0])
    ref = hs.make_circular_geometry(1, 4, 40.0, 10.0)
    with pytest.raises(ValueError, match="unit vectors"):
        dataclasses.replace(ref, directions=d[None])
    g = hs.Grid2D(5, 4.0, (0.0, 0.0))
    with pytest.raises(ValueError, match="unit vector"):
        hs.plane_wave(g, d, 1.0, 1.0)
    # a stack is checked row by row
    with pytest.raises(ValueError, match="unit vector"):
        hs.plane_wave(g, np.stack([(0.0, 1.0), d, (-1.0, 0.0)]), 1.0, 1.0)
    with pytest.raises(ValueError, match="unit vector"):
        hs.analytic_disk_field(hs.DiskScene(1.0, 1.1, 1.0, 10.0), g, d)


def test_geometry_from_lists_stores_arrays():
    ref = hs.make_circular_geometry(2, 6, 40.0, 10.0, active_count=3)
    geom = hs.AcquisitionGeometry(ref.directions.tolist(),
                                  ref.sensors.tolist(), ref.active.tolist(),
                                  ref.wavelength)
    assert geom.num_views == 2
    for name in ("directions", "sensors", "active"):
        np.testing.assert_array_equal(getattr(geom, name),
                                      getattr(ref, name))
    assert geom.directions.dtype == geom.sensors.dtype == np.float64
    # arrays pass through as they are
    same = dataclasses.replace(ref)
    assert same.directions is ref.directions
    assert same.sensors is ref.sensors


def test_geometry_accepts_every_sensor_active():
    geom = hs.make_circular_geometry(2, 8, 40.0, 10.0, active_count=8)
    assert geom.active.all()


def test_forward_models_use_given_sensor_operator(monkeypatch):
    from helmscat import forward
    scene = _small_scene()
    k0 = scene.k0
    x, y = scene.grid.coords()
    f = np.where(np.hypot(x, y) <= 5.0, k0 ** 2 * (1.2 ** 2 - 1.0), 0.0)
    cfg = hs.SolverConfig(abl_points=4, beta=0.15, levels=2)
    y_mgh, _ = hs.forward_mgh(scene, f, 1, cfg)
    y_lis, _ = hs.forward_lis(scene, f, 1, cfg)
    g_full = sensor_green_operator(scene.grid, scene.geometry.sensors, k0,
                                   scene.eta_b)
    g_full.flags.writeable = False
    kernel = hs.sample_green_kernel(scene.grid, k0, scene.eta_b)

    def unexpected(*args, **kwargs):
        raise AssertionError("sensor operator rebuilt")

    monkeypatch.setattr(forward, "sensor_green_operator", unexpected)
    monkeypatch.setattr(forward, "sample_green_kernel", unexpected)
    # a scene given prebuilt operators uses them and builds nothing
    given = _small_scene()
    given.__dict__["sensor_operator"] = g_full
    given.__dict__["green_kernel"] = kernel
    y_mgh_g, _ = hs.forward_mgh(given, f, 1, cfg)
    y_lis_g, _ = hs.forward_lis(given, f, 1, cfg)
    np.testing.assert_array_equal(y_mgh_g, y_mgh)
    np.testing.assert_array_equal(y_lis_g, y_lis)
    # the scene that built its own operators reuses them
    y_mgh_s, _ = hs.forward_mgh(scene, f, 1, cfg)
    y_lis_s, _ = hs.forward_lis(scene, f, 1, cfg)
    np.testing.assert_array_equal(y_mgh_s, y_mgh)
    np.testing.assert_array_equal(y_lis_s, y_lis)


def _reconstruct_64_scene():
    """The reconstruction scene of criterion 7: 64^2, ABL 4, 73^2 extended
    grid, index-1.1 disk."""
    side = 255 * 0.125
    g = hs.Grid2D(64, side, (-side / 2.0, -side / 2.0))
    scene = hs.ScatteringScene(g, 1.0,
                               hs.make_circular_geometry(8, 40, 40.0, 10.0))
    x, y = g.coords()
    f = np.where(np.hypot(x, y) <= 6.0, scene.k0 ** 2 * (1.1 ** 2 - 1.0), 0.0)
    return scene, f


def test_small_grid_solves_with_one_lu(monkeypatch):
    from helmscat import forward
    scene, f = _reconstruct_64_scene()
    cfg = hs.SolverConfig(abl_points=4, beta=0.0, levels=2, tol=1e-10)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    assert fwd.eg.points_per_side == 73
    assert len(fwd.hier.levels) == 1
    u, rep = fwd.total_field(3)
    assert rep.converged and rep.iterations == 1 and rep.work_units == 0.0
    monkeypatch.setattr(forward, "_DIRECT_MAX_UNKNOWNS", 0)
    fwd_mg = hs.HelmholtzForward(scene, f, cfg)
    assert len(fwd_mg.hier.levels) == 2
    u_mg, rep_mg = fwd_mg.total_field(3)
    assert rep_mg.converged and rep_mg.iterations > 1
    assert rep_mg.work_units > 0.0
    assert np.linalg.norm(u - u_mg) <= 1e-8 * np.linalg.norm(u_mg)


def test_large_grid_keeps_multigrid_levels():
    s, h = 256, 0.125
    side = (s - 1) * h
    g = hs.Grid2D(s, side, (-side / 2.0, -side / 2.0))
    scene = hs.ScatteringScene(g, 1.0,
                               hs.make_circular_geometry(1, 4, 100.0, 10.0))
    cfg = hs.SolverConfig(abl_points=32, beta=0.15, levels=3)
    fwd = hs.HelmholtzForward(scene, np.zeros((s, s)), cfg)
    assert fwd.eg.points_per_side == 321
    assert [op.side for op in fwd.hier.levels] == [321, 161, 81]


def test_direct_path_stops_on_nan_rhs():
    scene, f = _reconstruct_64_scene()
    cfg = hs.SolverConfig(abl_points=4, beta=0.0, levels=2)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    assert len(fwd.hier.levels) == 1
    rhs = np.ones((73, 73), dtype=complex)
    rhs[10, 20] = np.nan
    _, rep = fwd.adjoint_solve(rhs)
    assert not rep.converged


def test_batched_direct_solves_match_single_view_solves():
    scene, f = _reconstruct_64_scene()
    cfg = hs.SolverConfig(abl_points=4, beta=0.0, levels=2)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    assert fwd.direct and len(fwd.hier.levels) == 1
    views = [1, 4, 5, 7]
    u, reports = fwd.fields(views)
    assert u.shape == (4, 64, 64)
    for i, q in enumerate(views):
        u_q, rep_q = fwd.total_field(q)
        np.testing.assert_array_equal(u[i], u_q)
        assert reports[i] == rep_q
        assert rep_q.converged and rep_q.iterations == 1
        assert rep_q.work_units == 0.0
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal((3, 73, 73)) + 1j * rng.standard_normal(
        (3, 73, 73))
    # the batched adjoint solve: A x_i = conj(rhs_i), z_i = conj(x_i)
    x, reports = fwd._solve(np.conj(rhs))
    z = np.conj(x)
    for i in range(3):
        z_i, rep_i = fwd.adjoint_solve(rhs[i])
        np.testing.assert_array_equal(z[i], z_i)
        assert reports[i] == rep_i and rep_i.converged
    res = fwd.op.apply_adjoint(z[2]) - rhs[2]
    assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs[2])


def test_direct_nan_rhs_fails_only_its_view():
    scene, f = _reconstruct_64_scene()
    cfg = hs.SolverConfig(abl_points=4, beta=0.0, levels=2)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    r = [np.ones(40, dtype=complex) for _ in range(3)]
    r[1][7] = np.nan
    back, reports = fwd.adjoint([0, 3, 6], r)
    assert [rep.converged for rep in reports] == [True, False, True]
    assert all(rep.iterations == 1 and rep.work_units == 0.0
               for rep in reports)
    assert not np.isfinite(reports[1].residual_history[-1])
    assert np.all(np.isfinite(back[[0, 2]]))


def test_jvp_batches_views():
    scene, f = _reconstruct_64_scene()
    cfg = hs.SolverConfig(abl_points=4, beta=0.0, levels=2)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    v = np.random.default_rng(3).standard_normal(f.shape)
    dy, reports = fwd.jvp([2, 5], v)
    assert len(dy) == 2 and all(rep.converged for rep in reports)
    (dy5,), _ = fwd.jvp([5], v)
    np.testing.assert_allclose(dy[1], dy5, rtol=1e-13, atol=0)


@pytest.mark.usefixtures("multigrid_path")
@pytest.mark.parametrize("levels, iterations, work_units",
                         [(2, [6, 6], 66.0), (3, [13, 13], 195.0)])
def test_multigrid_solve_counts_pinned(levels, iterations, work_units):
    # Krylov iterations and work units of a forced-multigrid solve (41^2
    # extended grid, disk of index 1.5), as the allocating cycle and
    # Bi-CGSTAB gave them: the work arrays and in-place updates round
    # differently at most in the last bits, which must not move the counts
    scene = _small_scene()
    x, y = scene.grid.coords()
    f = np.where(np.hypot(x, y) <= 5.0, scene.k0 ** 2 * (1.5 ** 2 - 1.0), 0.0)
    cfg = hs.SolverConfig(abl_points=4, beta=0.15, levels=levels, nu2=2,
                          tol=1e-8)
    fwd = hs.HelmholtzForward(scene, f, cfg)
    assert fwd.eg.points_per_side == 41 and not fwd.direct
    _, reports = fwd.fields([0, 1])
    assert all(r.converged for r in reports)
    assert [r.iterations for r in reports] == iterations
    assert fwd.hier.meter.total == work_units


@pytest.mark.usefixtures("multigrid_path")
def test_multigrid_reports_carry_their_solves_work_units(monkeypatch):
    from helmscat import forward
    scene = _small_scene(views=3)
    x, y = scene.grid.coords()
    f = np.where(np.hypot(x, y) <= 5.0, scene.k0 ** 2 * (1.5 ** 2 - 1.0), 0.0)
    fwd = hs.HelmholtzForward(scene, f, hs.SolverConfig(
        abl_points=4, beta=0.15, levels=3))
    spent = []

    def metered(*args, **kwargs):
        wu0 = fwd.hier.meter.total
        solved = hs.bicgstab(*args, **kwargs)
        spent.append(fwd.hier.meter.total - wu0)
        return solved

    monkeypatch.setattr(forward, "bicgstab", metered)
    _, reports = fwd.fields([0, 1, 2])
    r = [np.ones(8, dtype=complex)] * 3
    _, adjoint_reports = fwd.adjoint([0, 1, 2], r)
    assert len(spent) == 6 and all(wu > 0.0 for wu in spent)
    assert [rep.work_units for rep in reports + adjoint_reports] == spent


@pytest.mark.parametrize("k0", [np.nan, np.inf])
def test_sensor_operator_rejects_non_finite_wavenumber(k0):
    g = hs.Grid2D(9, 8.0, (-4.0, -4.0))
    with pytest.raises(ValueError, match="k0 \\* eta_b must be positive"):
        sensor_green_operator(g, np.array([[10.0, 0.0]]), k0, 1.0)
    with pytest.raises(ValueError, match="k0 \\* eta_b must be positive"):
        hs.plane_wave(g, (1.0, 0.0), k0, 1.0)


@pytest.mark.parametrize("kwargs", [dict(wavelength=np.nan),
                                    dict(wavelength=np.inf),
                                    dict(sensor_radius=np.nan)])
def test_geometry_rejects_non_finite_values(kwargs):
    args = dict(num_views=2, num_sensors=4, sensor_radius=40.0,
                wavelength=10.0)
    args.update(kwargs)
    with pytest.raises(ValueError, match="must be"):
        hs.make_circular_geometry(**args)


@pytest.mark.parametrize("model", [hs.HelmholtzForward, LisForward])
def test_forward_models_reject_non_finite_potential(model):
    g = hs.Grid2D(9, 8.0, (-4.0, -4.0))
    scene = hs.ScatteringScene(g, 1.0, hs.make_circular_geometry(2, 4, 40.0,
                                                                 10.0))
    f = np.zeros((9, 9))
    f[4, 4] = np.nan
    with pytest.raises(ValueError, match="f must be finite"):
        model(scene, f, hs.SolverConfig(abl_points=2, beta=0.0, levels=1))
