"""Acquisition geometry, incident plane waves, the sensor propagation
operator, and the two forward imaging models (Helmholtz/multigrid and
Lippmann-Schwinger)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (Grid2D, build_extended_grid, embed_potential,
                   restrict_to_roi)
from .helmholtz import assemble
from .krylov import SolveReport, bicgstab
from .lis import GreenKernel, green_value, sample_green_kernel, solve_lis
from .multigrid import MgHierarchy

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
        d = np.asarray(self.directions, dtype=float)
        if not np.allclose(np.hypot(d[:, 0], d[:, 1]), 1.0, atol=1e-12):
            raise ValueError("directions must be unit vectors")
        if self.active.shape != (d.shape[0], self.sensors.shape[0]):
            raise ValueError("active mask shape mismatch")
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")

    @property
    def num_views(self) -> int:
        return self.directions.shape[0]

    @property
    def k0(self) -> float:
        return 2.0 * np.pi / self.wavelength


def make_circular_geometry(num_views: int, num_sensors: int,
                           sensor_radius: float, wavelength: float,
                           center: tuple[float, float] = (0.0, 0.0),
                           active_count: int | None = None,
                           u0: complex = 1.0) -> AcquisitionGeometry:
    """Sources uniformly spread on a circle, shining toward the center;
    sensors uniformly on the same-center circle of ``sensor_radius``.  For
    each view, the ``active_count`` sensors farthest from the source are
    recorded (all of them when None)."""
    if num_views < 1 or num_sensors < 1:
        raise ValueError(f"need at least one view and one sensor, got "
                         f"{num_views} views and {num_sensors} sensors")
    if active_count is not None and not 1 <= active_count <= num_sensors:
        raise ValueError(f"active sensor count {active_count} out of range "
                         f"[1, {num_sensors}]")
    va = 2.0 * np.pi * np.arange(num_views) / num_views
    directions = -np.column_stack([np.cos(va), np.sin(va)])
    sa = 2.0 * np.pi * np.arange(num_sensors) / num_sensors
    sensors = np.column_stack([center[0] + sensor_radius * np.cos(sa),
                               center[1] + sensor_radius * np.sin(sa)])
    if active_count is None:
        active_count = num_sensors
    source_pos = np.column_stack([center[0] + sensor_radius * np.cos(va),
                                  center[1] + sensor_radius * np.sin(va)])
    active = np.zeros((num_views, num_sensors), dtype=bool)
    for q in range(num_views):
        dist = np.linalg.norm(sensors - source_pos[q], axis=1)
        idx = np.argsort(-dist, kind="stable")[:active_count]
        active[q, np.sort(idx)] = True
    return AcquisitionGeometry(directions, sensors, active, wavelength, u0)


@dataclass
class MeasurementSet:
    """Per-view complex measurement vectors (one entry per active sensor)."""

    views: list[np.ndarray]

    def __post_init__(self):
        for y in self.views:
            if not np.all(np.isfinite(y)):
                raise ValueError("measurements must be finite")

    @property
    def num_views(self) -> int:
        return len(self.views)


@dataclass(frozen=True)
class ScatteringScene:
    """Region of interest, background index, and acquisition geometry."""

    grid: Grid2D
    eta_b: float
    geometry: AcquisitionGeometry

    @property
    def k0(self) -> float:
        return self.geometry.k0


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


def plane_wave(grid: Grid2D, direction: tuple[float, float], k0: float,
               eta_b: float, u0: complex = 1.0) -> np.ndarray:
    """Samples u0 * exp(j * k0 * eta_b * <direction, x>) on the grid."""
    d = np.asarray(direction, dtype=float)
    if not np.isclose(np.hypot(*d), 1.0):
        raise ValueError("direction must be a unit vector")
    x, y = grid.coords()
    return u0 * np.exp(1j * k0 * eta_b * (d[0] * x + d[1] * y))


def sensor_green_operator(grid: Grid2D, sensors: np.ndarray, k0: float,
                          eta_b: float) -> np.ndarray:
    """Dense M-by-N map from a source density on the grid to the scattered
    field at the sensors: entry (s, n) = h^2 * g(|x_s - x_n|)."""
    x, y = grid.coords()
    lo = np.array(grid.origin)
    hi = lo + grid.side_length
    inside = np.all((sensors >= lo) & (sensors <= hi), axis=1)
    if np.any(inside):
        raise ValueError("sensors must lie strictly outside the domain")
    dist = np.hypot(sensors[:, 0, None] - x.ravel(),
                    sensors[:, 1, None] - y.ravel())
    return grid.h**2 * green_value(k0 * eta_b, dist)


class HelmholtzForward:
    """Helmholtz forward model for a fixed scattering potential: caches the
    extended grid, operator, and multigrid hierarchy across views."""

    def __init__(self, scene: ScatteringScene, f: np.ndarray,
                 cfg: SolverConfig):
        k0 = scene.k0
        if np.min(f) < -k0**2 * scene.eta_b**2:
            raise ValueError("f would make eta^2 nonpositive")
        self.scene = scene
        self.cfg = cfg
        self.f = np.asarray(f, dtype=float)
        self.eg = build_extended_grid(scene.grid, cfg.abl_points, cfg.beta,
                                      cfg.levels)
        self.f_ext = embed_potential(self.f, self.eg)
        eta_sq = scene.eta_b**2 + self.f_ext / k0**2
        self.op = assemble(self.eg, eta_sq, k0, cfg.beta)
        # one level: the "cycle" is the exact coarsest solve of the whole
        # operator, and Bi-CGSTAB converges in one iteration
        small = self.eg.points_per_side**2 <= _DIRECT_MAX_UNKNOWNS
        self.hier = MgHierarchy(self.op, 1 if small else cfg.levels, cfg.nu1,
                                cfg.nu2, cfg.omega, cfg.cycle_type)
        self._precond = self.hier.as_preconditioner()
        ext_grid_like = _extended_as_grid(self.eg)
        self._ext_grid = ext_grid_like

    def incident_extended(self, view: int) -> np.ndarray:
        g = self.scene.geometry
        return plane_wave(self._ext_grid, g.directions[view], self.scene.k0,
                          self.scene.eta_b, g.u0)

    def _solve(self, b: np.ndarray, x0: np.ndarray | None = None
               ) -> tuple[np.ndarray, SolveReport]:
        """Bi-CGSTAB for A x = b, started from ``x0`` and preconditioned by
        the hierarchy (multigrid, or on small grids the exact LU)."""
        return bicgstab(self.op.apply, b, apply_M=self._precond, x0=x0,
                        tol=self.cfg.tol, max_iter=self.cfg.max_iter,
                        work_meter=self.hier.meter)

    def scattered_field(self, view: int) -> tuple[np.ndarray, SolveReport]:
        """Scattered field on the extended domain."""
        return self._solve(self.f_ext * self.incident_extended(view))

    def total_field(self, view: int, warm: np.ndarray | None = None
                    ) -> tuple[np.ndarray, SolveReport]:
        """Total field on the region of interest.

        ``warm``, an optional complex array on the extended grid, holds a
        guess of the scattered field (for instance the previous solution
        at a nearby potential): the solve starts from it and overwrites
        it with the new scattered field."""
        u_in = self.incident_extended(view)
        u_sc, report = self._solve(self.f_ext * u_in, warm)
        if warm is not None:
            warm[...] = u_sc
        u_tot = restrict_to_roi(u_sc + u_in, self.eg)
        return u_tot, report

    def jvp(self, view: int, v: np.ndarray,
            g_full: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """Directional derivative of the measurement map at the stored
        potential, in the direction ``v`` (a real field on the region of
        interest): d/dt [G (f + t v) u(f + t v)] at t = 0."""
        u_tot, _ = self.total_field(view)
        rhs = embed_potential((v * u_tot).astype(complex), self.eg)
        du_ext, report = self._solve(rhs)
        du = restrict_to_roi(du_ext, self.eg)
        mask = self.scene.geometry.active[view]
        dy = g_full[mask] @ (v * u_tot + self.f * du).ravel()
        return dy, report

    def adjoint_solve(self, rhs: np.ndarray, warm: np.ndarray | None = None
                      ) -> tuple[np.ndarray, SolveReport]:
        """Solve A^H z = rhs on the extended domain.  The operator is
        complex symmetric, so this is a conjugated solve with the same
        multigrid hierarchy.

        ``warm``, an optional complex array on the extended grid, holds a
        guess of z: the solve starts from it and overwrites it with z."""
        x, report = self._solve(np.conj(rhs),
                                None if warm is None else np.conj(warm))
        z = np.conj(x)
        if warm is not None:
            warm[...] = z
        return z, report


def _extended_as_grid(eg) -> Grid2D:
    side = eg.points_per_side
    return Grid2D(side, (side - 1) * eg.h, eg.origin)


def _predict(scene: ScatteringScene, f: np.ndarray, u_total: np.ndarray,
             view: int, g_full: np.ndarray | None) -> np.ndarray:
    if g_full is None:
        g_full = sensor_green_operator(scene.grid, scene.geometry.sensors,
                                       scene.k0, scene.eta_b)
    mask = scene.geometry.active[view]
    return g_full[mask] @ (f * u_total).ravel()


def forward_mgh(scene: ScatteringScene, f: np.ndarray, view: int,
                cfg: SolverConfig, g_full: np.ndarray | None = None
                ) -> tuple[np.ndarray, SolveReport]:
    """Predicted scattered-field measurements for one view with the
    multigrid-preconditioned Helmholtz model.  ``g_full`` is the scene's
    sensor operator, built here when not given."""
    fwd = HelmholtzForward(scene, f, cfg)
    u_tot, report = fwd.total_field(view)
    return _predict(scene, fwd.f, u_tot, view, g_full), report


def forward_lis(scene: ScatteringScene, f: np.ndarray, view: int,
                cfg: SolverConfig,
                kernel: GreenKernel | None = None,
                g_full: np.ndarray | None = None
                ) -> tuple[np.ndarray, SolveReport]:
    """Predicted scattered-field measurements for one view with the
    Lippmann-Schwinger model.  ``kernel`` and the sensor operator
    ``g_full`` are built here when not given."""
    if kernel is None:
        kernel = sample_green_kernel(scene.grid, scene.k0, scene.eta_b)
    g = scene.geometry
    u_in = plane_wave(scene.grid, g.directions[view], scene.k0, scene.eta_b,
                      g.u0)
    u_tot, report = solve_lis(kernel, f, u_in, tol=cfg.tol,
                              max_iter=cfg.max_iter)
    return _predict(scene, np.asarray(f, float), u_tot, view, g_full), report
