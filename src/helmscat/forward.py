"""Acquisition geometry, incident plane waves, the sensor propagation
operator, and the two forward imaging models (Helmholtz/multigrid and
Lippmann-Schwinger)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (Grid2D, build_extended_grid, check_count,
                   check_directions, check_finite, check_nonnegative,
                   check_point, check_positive, embed_potential,
                   restrict_to_roi)
from .helmholtz import assemble
from .krylov import SolveReport, bicgstab, check_tolerance
from .lis import GreenKernel, _solve_stack, green_value, sample_green_kernel
from .multigrid import MgHierarchy, check_cycle

# Extended grids with at most this many unknowns are solved with one sparse
# LU of the whole operator, a one-level hierarchy, instead of multigrid.
# The LU is faster at every size measured up to 321^2, but its fill grows
# faster than the grid, so memory sets the limit: 81^2 is the coarsest grid
# of the 3-level 321^2 hierarchy, and the direct path never holds a larger
# factor than multigrid does there.
_DIRECT_MAX_UNKNOWNS = 81 * 81


@dataclass(frozen=True)
class AcquisitionGeometry:
    """Per-view incident directions, sensor positions, and the boolean mask
    of sensors active for each view."""

    directions: np.ndarray        # (Q, 2) unit vectors
    sensors: np.ndarray           # (M, 2) physical positions
    active: np.ndarray            # (Q, M) bool
    wavelength: float
    u0: complex = 1.0 + 0.0j

    def __post_init__(self):
        # stored as arrays, so that lists are taken too
        object.__setattr__(self, "directions",
                           np.asarray(self.directions, dtype=float))
        object.__setattr__(self, "sensors",
                           np.asarray(self.sensors, dtype=float))
        object.__setattr__(self, "active", np.asarray(self.active))
        d = self.directions
        if d.ndim != 2 or d.shape[1] != 2:
            raise ValueError(f"directions must have shape (Q, 2), "
                             f"got {d.shape}")
        check_directions("directions", d)
        if self.sensors.ndim != 2 or self.sensors.shape[1] != 2:
            raise ValueError(f"sensors must have shape (M, 2), "
                             f"got {self.sensors.shape}")
        if self.active.dtype != bool:
            raise ValueError(f"active mask must be boolean, got "
                             f"{self.active.dtype}")
        if self.active.shape != (d.shape[0], self.sensors.shape[0]):
            raise ValueError("active mask shape mismatch")
        check_finite("u0", self.u0)
        check_finite("sensor positions", self.sensors)
        if not (0.0 < self.wavelength < math.inf
                and self.k0 * self.k0 < math.inf):
            raise ValueError(f"wavelength must be positive and finite, with "
                             f"a finite k0^2, got {self.wavelength}")
        if not self.k0 * self.k0 > 0.0:
            raise ValueError(f"wavelength {self.wavelength} gives k0^2 = 0")

    @property
    def num_views(self) -> int:
        return self.directions.shape[0]

    @property
    def k0(self) -> float:
        return 2.0 * np.pi / self.wavelength


def make_circular_geometry(num_views: int, num_sensors: int,
                           sensor_radius: float, wavelength: float,
                           center: tuple[float, float] = (0.0, 0.0),
                           active_count: int | None = None
                           ) -> AcquisitionGeometry:
    """Sources uniformly spread on a circle, shining toward the center;
    sensors uniformly on the same-center circle of ``sensor_radius``.  For
    each view, the ``active_count`` sensors farthest from the source are
    recorded (all of them when None)."""
    check_count("num_views", num_views, 1)
    check_count("num_sensors", num_sensors, 1)
    check_positive("sensor_radius", sensor_radius)
    diameter = 2.0 * float(sensor_radius)
    if not diameter * diameter < math.inf:
        raise ValueError(f"sensor radius {sensor_radius} is too large: the "
                         f"squared sensor distances overflow")
    check_point("center", center)
    if active_count is None:
        active_count = num_sensors
    check_count("active_count", active_count, 1)
    if active_count > num_sensors:
        raise ValueError(f"active sensor count {active_count} out of range "
                         f"[1, {num_sensors}]")
    va = 2.0 * np.pi * np.arange(num_views) / num_views
    directions = -np.column_stack([np.cos(va), np.sin(va)])
    sa = 2.0 * np.pi * np.arange(num_sensors) / num_sensors
    sensors = np.column_stack([center[0] + sensor_radius * np.cos(sa),
                               center[1] + sensor_radius * np.sin(sa)])
    source_pos = np.column_stack([center[0] + sensor_radius * np.cos(va),
                                  center[1] + sensor_radius * np.sin(va)])
    active = np.zeros((num_views, num_sensors), dtype=bool)
    for q in range(num_views):
        dist = np.linalg.norm(sensors - source_pos[q], axis=1)
        idx = np.argsort(-dist, kind="stable")[:active_count]
        active[q, np.sort(idx)] = True
    return AcquisitionGeometry(directions, sensors, active, wavelength)


@dataclass
class MeasurementSet:
    """Per-view complex measurement vectors (one entry per active sensor)."""

    views: list[np.ndarray]

    def __post_init__(self):
        for y in self.views:
            check_finite("measurements", y)

    @property
    def num_views(self) -> int:
        return len(self.views)


@dataclass(frozen=True)
class ScatteringScene:
    """Region of interest, background index, and acquisition geometry."""

    grid: Grid2D
    eta_b: float
    geometry: AcquisitionGeometry

    def __post_init__(self):
        if not 0.0 < self.eta_b < math.inf:
            raise ValueError(f"background index eta_b must be finite and "
                             f"positive, got {self.eta_b}")
        if not self.eta_b * self.eta_b < math.inf:
            raise ValueError(f"background index eta_b = {self.eta_b} has no "
                             f"finite square")
        if not self.eta_b * self.eta_b > 0.0:
            raise ValueError(f"eta_b = {self.eta_b} has a square of 0")

    @property
    def k0(self) -> float:
        return self.geometry.k0

    def eta_sq_nonpositive(self, f: np.ndarray) -> bool:
        """Whether the potential ``f`` puts eta^2 = eta_b^2 + f / k0^2
        below 0 somewhere: no forward model is defined there."""
        return bool(np.min(f) < -self.k0**2 * self.eta_b**2)

    @cached_property
    def sensor_operator(self) -> np.ndarray:
        """The scene's :func:`sensor_green_operator`, read-only.  Like the
        Green kernel it does not depend on the potential: it is built on
        first use and shared by every model of the scene."""
        g = sensor_green_operator(self.grid, self.geometry.sensors, self.k0,
                                  self.eta_b)
        g.flags.writeable = False
        return g

    @cached_property
    def green_kernel(self) -> GreenKernel:
        """The scene's Lippmann-Schwinger :class:`GreenKernel`."""
        return sample_green_kernel(self.grid, self.k0, self.eta_b)


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and solver settings shared by the forward models."""

    abl_points: int = 0
    beta: float = 0.0
    levels: int = 2
    nu1: int = 1
    nu2: int = 1
    omega: float = 0.8
    cycle_type: int = 1
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        check_count("abl_points", self.abl_points, 0)
        check_count("levels", self.levels, 1)
        check_cycle(self.nu1, self.nu2, self.omega, self.cycle_type)
        check_count("max_iter", self.max_iter, 1)
        check_tolerance(self.tol)
        check_nonnegative("beta", self.beta)


def plane_wave(grid: Grid2D, direction, k0: float, eta_b: float,
               u0: complex = 1.0) -> np.ndarray:
    """Samples u0 * exp(j * k0 * eta_b * <d, x>) on a Grid2D or an extended
    grid for the unit direction ``d``: one (s, s) wave for a ``direction``
    of shape (2,), a (V, s, s) stack for a (V, 2) stack of directions.
    Each wave is the outer product of one exponential per axis: two
    (..., s) exponentials and one broadcast product."""
    check_positive("k0 * eta_b", k0 * eta_b)
    check_finite("u0", u0)
    d = np.asarray(direction, dtype=float)
    if d.ndim not in (1, 2) or d.shape[-1] != 2:
        raise ValueError(f"direction must have shape (2,) or (V, 2), "
                         f"got {d.shape}")
    check_directions("direction", d)
    k = k0 * eta_b
    steps = grid.h * np.arange(grid.points_per_side)
    ex = u0 * np.exp(1j * k * d[..., :1] * (grid.origin[0] + steps))
    ey = np.exp(1j * k * d[..., 1:] * (grid.origin[1] + steps))
    return ex[..., :, None] * ey[..., None, :]


def _check_measurement_count(geometry, view: int, y):
    """Raises ValueError unless ``y`` holds one value per active sensor of
    ``view`` (read from ``geometry.active`` alone): a vector of another
    length would broadcast silently, or be written short."""
    count = int(np.count_nonzero(geometry.active[view]))
    if np.shape(y) != (count,):
        raise ValueError(f"view {view}: {np.size(y)} values for {count} "
                         f"active sensors (shape {np.shape(y)})")


# The 8 symmetries of the square grid about its centre, as the signs
# (sx, sy) that negate the axes of an offset d from the centre, then a swap
# of its axes for the last four (see :func:`sensor_green_operator`)
_AXIS_SIGNS = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])


def sensor_green_operator(grid: Grid2D, sensors: np.ndarray, k0: float,
                          eta_b: float) -> np.ndarray:
    """Dense M-by-N map from a source density on the grid to the scattered
    field at the sensors: entry (s, n) = h^2 * g(|x_s - x_n|).

    The result is allocated once and filled one sensor row at a time, so
    the temporaries of the distance and Green evaluations do not grow
    with M.  The grid's points are symmetric about its centre c under a
    negation of either axis and a swap of the axes.  A sensor whose offset
    p - c is, to within 8 ulps of the largest offset, (sx d_x, sy d_y) or
    that pair swapped, for the offset d of a sensor evaluated before it,
    copies that sensor's s-by-s row read as [::sx, ::sy], or its
    transpose, and evaluates no Green's function; every other sensor's row
    is evaluated."""
    check_positive("k0 * eta_b", k0 * eta_b)
    check_finite("sensor positions", sensors)
    lo = np.array(grid.origin)
    hi = lo + grid.side_length
    inside = np.all((sensors >= lo) & (sensors <= hi), axis=1)
    if np.any(inside):
        raise ValueError("sensors must lie strictly outside the domain")
    x, y = (c.ravel() for c in grid.coords())
    s = grid.points_per_side
    offsets = sensors - (lo + 0.5 * grid.side_length)
    tol = 8.0 * np.finfo(float).eps * np.max(
        np.hypot(offsets[:, 0], offsets[:, 1]), initial=0.0)
    # images[8 j:8 j + 8] holds the 8 images of sensor evaluated[j]'s offset
    images = np.empty((8 * len(sensors), 2))
    evaluated = []
    g = np.empty((sensors.shape[0], x.size), dtype=complex)
    for i, (row, (sx, sy), d) in enumerate(zip(g, sensors, offsets)):
        n = 8 * len(evaluated)
        match = np.flatnonzero(np.max(np.abs(images[:n] - d), axis=1) <= tol)
        if match.size:
            source, sym = divmod(int(match[0]), 8)
            fx, fy = _AXIS_SIGNS[sym % 4]
            image = g[evaluated[source]].reshape(s, s)[::fx, ::fy]
            row.reshape(s, s)[...] = image.T if sym >= 4 else image
            continue
        images[n:n + 4] = _AXIS_SIGNS * d
        images[n + 4:n + 8] = images[n:n + 4, ::-1]
        evaluated.append(i)
        # dist stays bound until the next row's is made: with every
        # temporary of a row freed, a 40 x 256^2 build took 30k minor page
        # faults instead of 1.5k and about 20% longer (glibc 2.36, x86-64)
        dist = np.hypot(sx - x, sy - y)
        row[:] = grid.h**2 * green_value(k0 * eta_b, dist)
    return g


class _ForwardModel:
    """Scene, potential ``f`` and the sensor map, over a list of views;
    subclasses add ``fields(views)``, the stack of total fields."""

    def __init__(self, scene: ScatteringScene, f: np.ndarray,
                 cfg: SolverConfig):
        self.scene = scene
        self.cfg = cfg
        self.f = np.asarray(f, dtype=float)
        check_finite("the scattering potential f", self.f)

    def measure(self, views, sources: np.ndarray) -> list[np.ndarray]:
        """Per view of ``views``, the field at its active sensors radiated
        by the matching source of the stack ``sources`` on the region of
        interest (``f * u`` for total fields ``u``).  One product with the
        scene's sensor operator serves every view; each view then keeps
        its active sensors."""
        full = sources.reshape(len(views), -1) @ self.scene.sensor_operator.T
        active = self.scene.geometry.active
        return [full[i, active[q]] for i, q in enumerate(views)]

    def measure_adjoint(self, views, r) -> np.ndarray:
        """Adjoint of :meth:`measure`: G^H r_i on the region of interest for
        each view's sensor vector ``r[i]``, as one product of the stacked
        residual rows (zero at inactive sensors) with the scene's operator,
        with no row copy or conjugated transpose of G."""
        g = self.scene.sensor_operator
        active = self.scene.geometry.active
        rows = np.zeros((len(views), g.shape[0]), dtype=complex)
        for i, q in enumerate(views):
            rows[i, active[q]] = np.conj(r[i])
        return np.conj(rows @ g).reshape((len(views),) + self.f.shape)

    def _incident_waves(self, grid, views) -> np.ndarray:
        """Stack of the incident waves of ``views`` on ``grid``."""
        g = self.scene.geometry
        return plane_wave(grid, g.directions[list(views)], self.scene.k0,
                          self.scene.eta_b, g.u0)

    def predict(self, views) -> tuple[list[np.ndarray], list[SolveReport]]:
        """Predicted scattered-field measurements of each of ``views``,
        G (f u), and the reports of the total-field solves."""
        u, reports = self.fields(views)
        return self.measure(views, self.f * u), reports


class HelmholtzForward(_ForwardModel):
    """Helmholtz forward model for a fixed scattering potential: caches the
    extended grid, operator, and multigrid hierarchy across views.

    Every solve takes a stack of right-hand sides, one per view.  On the
    direct path (``direct``: at most ``_DIRECT_MAX_UNKNOWNS`` unknowns) the
    stack is one multi-column LU solve; on the multigrid path each view
    runs its own multigrid-preconditioned Bi-CGSTAB, which can start from a
    warm guess (see :meth:`fields`)."""

    def __init__(self, scene: ScatteringScene, f: np.ndarray,
                 cfg: SolverConfig):
        super().__init__(scene, f, cfg)
        k0 = scene.k0
        self.eg = build_extended_grid(scene.grid, cfg.abl_points, cfg.beta,
                                      cfg.levels)
        self.f_ext = embed_potential(self.f, self.eg)
        eta_sq = scene.eta_b**2 + self.f_ext / k0**2
        self.op = assemble(self.eg, eta_sq, k0)
        # one level: the "cycle" is the exact coarsest solve of the whole
        # operator
        self.direct = self.eg.points_per_side**2 <= _DIRECT_MAX_UNKNOWNS
        self.hier = MgHierarchy(self.op, 1 if self.direct else cfg.levels,
                                cfg.nu1, cfg.nu2, cfg.omega, cfg.cycle_type)
        self._precond = self.hier.as_preconditioner()

    def _solve(self, b: np.ndarray, warm=None, keys=()
               ) -> tuple[np.ndarray, list[SolveReport]]:
        """Solve A x_i = b_i for each field of the complex stack ``b``.

        Direct path: one multi-column LU solve and one stacked residual,
        ||b_i - A x_i|| <= tol ||b_i|| per field, reported as one iteration
        with no work units (a non-finite residual does not converge); the
        solve is exact, so ``warm`` is neither read nor filled.  Multigrid
        path: Bi-CGSTAB per field, preconditioned by the hierarchy, whose
        meter gives each report's work units; each x_i is written over b_i,
        so ``b`` is consumed and returned.  With a ``warm`` dict, field i
        starts from ``warm[keys[i]]`` when that holds a guess, and its
        solution is copied into that entry, a buffer allocated on first use
        and then overwritten in place."""
        if not self.direct:
            reports = []
            for i, b_i in enumerate(b):
                x0 = None if warm is None else warm.get(keys[i])
                wu0 = self.hier.meter.total
                # into b_i directly: a named solution outlives its view
                b_i[...], report = bicgstab(self.op.apply, b_i, self._precond,
                                            x0, self.cfg.tol,
                                            self.cfg.max_iter)
                report.work_units = self.hier.meter.total - wu0
                reports.append(report)
                if x0 is not None:
                    x0[...] = b_i
                elif warm is not None:
                    warm[keys[i]] = b_i.copy()
            return b, reports
        x = self.hier.coarsest_solve(b)
        r = self.op.apply(x)
        r -= b
        reports = []
        for b_i, r_i in zip(b, r):
            b_norm = float(np.linalg.norm(b_i))
            r_norm = float(np.linalg.norm(r_i))
            reports.append(SolveReport(
                1, [b_norm, r_norm],
                math.isfinite(r_norm) and r_norm <= self.cfg.tol * b_norm))
        return x, reports

    def fields(self, views, warm=None
               ) -> tuple[np.ndarray, list[SolveReport]]:
        """Total fields of ``views`` on the region of interest, a stack of
        shape (len(views), s, s), and one report per view.

        ``warm``, an optional dict that the caller keeps across calls (and
        across models of nearby potentials) and never reads: on the
        multigrid path each view's solve starts from that view's scattered
        field stored there by an earlier call, if any, and stores its new
        one.  The direct path neither reads nor fills it."""
        b = self._incident_waves(self.eg, views)
        u = restrict_to_roi(b, self.eg)
        b *= self.f_ext
        u_sc, reports = self._solve(b, warm, [("forward", q) for q in views])
        u += u_sc[(...,) + self.eg.inner_slice]
        return u, reports

    def total_field(self, view: int) -> tuple[np.ndarray, SolveReport]:
        """Total field of one view, the one-view case of :meth:`fields`."""
        u, reports = self.fields([view])
        return u[0], reports[0]

    def jvp(self, views, v: np.ndarray
            ) -> tuple[list[np.ndarray], list[SolveReport]]:
        """Directional derivatives of the measurement map of each of
        ``views`` at the stored potential, in the direction ``v`` (a real
        field on the region of interest): d/dt [G (f + t v) u(f + t v)] at
        t = 0, which is G (v u + f du) with A du = v u.  One batched solve
        gives the fields, one the tangents; the reports are the latter's."""
        u, _ = self.fields(views)
        source = v * u
        du, reports = self._solve(embed_potential(source, self.eg))
        return self.measure(
            views, source + self.f * restrict_to_roi(du, self.eg)), reports

    def adjoint_solve(self, rhs: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """Solve A^H z = rhs on the extended domain, the one-field case of
        the solve in :meth:`adjoint`: the operator is complex symmetric, so
        z = conj(x) with A x = conj(rhs)."""
        x, reports = self._solve(np.conj(rhs, dtype=complex)[None])
        return np.conj(x[0]), reports[0]

    def adjoint(self, views, r, warm=None
                ) -> tuple[np.ndarray, list[SolveReport]]:
        """Adjoint of the measurement map's response to a change of the
        induced source, for each of ``views`` with sensor vector ``r[i]``:
        the stack w_i + restrict(A^{-H} embed(f w_i)) with w_i = G^H r_i.
        Times conj(u_i), its real part is the gradient of
        0.5 ||H(f) - y||^2 at residual r_i = H(f) - y (see
        :func:`gradient_data_fidelity`).  The solve is A x_i = conj(b_i)
        with b_i = embed(f w_i), as A is complex symmetric; ``warm`` keeps
        the x_i, as :meth:`fields` keeps the scattered fields."""
        b = embed_potential(self.f * self.measure_adjoint(views, r), self.eg)
        x, reports = self._solve(np.conj(b, out=b), warm,
                                 [("adjoint", q) for q in views])
        # G^H r again rather than held through the solve: a lower peak
        w = self.measure_adjoint(views, r)
        w += restrict_to_roi(np.conj(x, out=x), self.eg)
        return w, reports


class LisForward(_ForwardModel):
    """Lippmann-Schwinger forward model for a fixed scattering potential,
    on the scene's Green kernel."""

    def fields(self, views) -> tuple[np.ndarray, list[SolveReport]]:
        """Total fields of ``views`` on the region of interest, each written
        over its incident wave: one window and window kernel for the batch,
        one Krylov solve per view."""
        u = self._incident_waves(self.scene.grid, views)
        return u, _solve_stack(self.scene.green_kernel, self.f, u,
                               self.cfg.tol, self.cfg.max_iter)


def forward_mgh(scene: ScatteringScene, f: np.ndarray, view: int,
                cfg: SolverConfig) -> tuple[np.ndarray, SolveReport]:
    """Predicted scattered-field measurements for one view with the
    multigrid-preconditioned Helmholtz model."""
    y, reports = HelmholtzForward(scene, f, cfg).predict([view])
    return y[0], reports[0]


def forward_lis(scene: ScatteringScene, f: np.ndarray, view: int,
                cfg: SolverConfig) -> tuple[np.ndarray, SolveReport]:
    """Predicted scattered-field measurements for one view with the
    Lippmann-Schwinger model."""
    y, reports = LisForward(scene, f, cfg).predict([view])
    return y[0], reports[0]
