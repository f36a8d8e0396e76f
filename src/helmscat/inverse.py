"""Reconstruction engine: quadratic data fidelity, its gradient through the
adjoint of the forward-model Jacobian, the isotropic-TV proximal step with
nonnegativity, and accelerated forward-backward splitting over stochastic
view subsets."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .forward import (HelmholtzForward, ScatteringScene, SolverConfig,
                      _check_measurement_count)
from .grid import check_integer


@dataclass
class ReconstructionConfig:
    gamma: float
    tau: float
    iterations: int
    subset_size: int
    seed: int = 0
    inner_prox_iterations: int = 50
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not (0.0 < self.gamma < math.inf and 0.0 < self.tau < math.inf):
            raise ValueError("gamma and tau must be positive and finite")
        for name in ("iterations", "subset_size", "inner_prox_iterations",
                     "seed"):
            check_integer(name, getattr(self, name))
        if not self.iterations >= 0:
            raise ValueError("iterations must be nonnegative")
        if not self.subset_size >= 1:
            raise ValueError("subset_size must be at least 1")
        if not self.inner_prox_iterations >= 1:
            raise ValueError("inner_prox_iterations must be at least 1")
        if not self.seed >= 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class ReconstructionHistory:
    objective: list[float] = field(default_factory=list)
    snr_db: list[float] = field(default_factory=list)
    work_units: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)


def data_fidelity(scene: ScatteringScene, f: np.ndarray, view: int,
                  y: np.ndarray, cfg: SolverConfig) -> float:
    """0.5 * || H(f) - y ||^2 for one view."""
    _check_measurement_count(scene.geometry, view, y)
    y_pred, _ = HelmholtzForward(scene, f, cfg).predict([view])
    return 0.5 * float(np.linalg.norm(y_pred[0] - y)**2)


def _require_converged(kind: str, views, reports):
    for q, rep in zip(views, reports):
        if not rep.converged:
            raise RuntimeError(f"{kind} solve failed for view {q}")


def gradient_data_fidelity(scene: ScatteringScene, f: np.ndarray,
                           subset, measurements, cfg: SolverConfig,
                           warm: dict | None = None
                           ) -> tuple[np.ndarray, float, float]:
    """Summed gradient of the per-view quadratic fidelities over ``subset``
    (fixed ascending view order), plus the subset fidelity value and the
    work units its solves report.  ``warm``, an optional dict that the caller
    keeps across calls and never reads, lets the forward model start each
    view's solves from its solutions of an earlier call (see
    :meth:`HelmholtzForward.fields`).

    All views of the subset are solved together, forward then adjoint
    (see :class:`HelmholtzForward`).  Per view: r = H(f) - y, w = G^H r on
    the region of interest, then
    grad += Re(conj(u) * (w + restrict(A^{-H} embed(f * w)))).
    """
    subset = sorted(subset)
    for q in subset:
        _check_measurement_count(scene.geometry, q, measurements.views[q])
    fwd = HelmholtzForward(scene, f, cfg)
    u, reports = fwd.fields(subset, warm)
    _require_converged("forward", subset, reports)
    resid = [y - measurements.views[q]
             for q, y in zip(subset, fwd.measure(subset, fwd.f * u))]
    fidelity = sum(0.5 * float(np.linalg.norm(r)**2) for r in resid)
    back, adjoint_reports = fwd.adjoint(subset, resid, warm)
    _require_converged("adjoint", subset, adjoint_reports)
    grad = np.real(np.conj(u) * back).sum(axis=0)
    return grad, fidelity, sum(r.work_units for r in reports + adjoint_reports)


def _forward_diff(w: np.ndarray, *, out: np.ndarray | None = None
                  ) -> np.ndarray:
    """The gradient of ``w`` as one (2, s, s) stack, written into ``out``
    when given: component 0 along axis 0, component 1 along axis 1, each
    zero past its far edge."""
    if out is None:
        out = np.empty((2,) + w.shape, dtype=w.dtype)
    np.subtract(w[1:, :], w[:-1, :], out=out[0, :-1, :])
    out[0, -1, :] = 0.0
    np.subtract(w[:, 1:], w[:, :-1], out=out[1, :, :-1])
    out[1, :, -1] = 0.0
    return out


def _neg_divergence(p: np.ndarray, *, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """Adjoint of :func:`_forward_diff`, written into ``out`` when given."""
    if out is None:
        out = np.empty_like(p[0])
    out.fill(0.0)
    out[:-1, :] -= p[0, :-1, :]
    out[1:, :] += p[0, :-1, :]
    out[:, :-1] -= p[1, :, :-1]
    out[:, 1:] += p[1, :, :-1]
    return out


def tv_value(w: np.ndarray) -> float:
    """Isotropic total variation with forward differences and a replicate
    (zero-gradient) far boundary."""
    return float(np.sum(np.hypot(*_forward_diff(w))))


def tv_prox(w: np.ndarray, weight: float, inner_iters: int = 50
            ) -> np.ndarray:
    """Proximal map of weight*TV restricted to the nonnegative orthant,
    via fast gradient projection on the dual."""
    if not 0.0 <= weight < math.inf:
        raise ValueError("weight must be nonnegative and finite")
    if not inner_iters >= 1:
        raise ValueError("inner_iters must be at least 1")
    if weight == 0.0:
        return np.maximum(w, 0.0)
    return _tv_prox_dual(w, weight, inner_iters)[0]


def _tv_prox_dual(w: np.ndarray, weight: float, inner_iters: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Fast gradient projection (Beck and Teboulle, 2009) on the dual of
    the nonnegative TV prox, ``weight > 0``: returns the primal point
    x = max(w - weight * D^T p, 0) and the dual p, a (2, s, s) stack like
    :func:`_forward_diff`'s with |p| <= 1 pointwise."""
    dtype = np.result_type(w, np.float64)
    p = np.zeros((2,) + w.shape, dtype=dtype)
    b = p.copy()        # the extrapolated dual, then the step from it
    p_new = np.empty_like(p)
    grad = np.empty_like(p)
    x, norm, norm_1 = np.empty((3,) + w.shape, dtype=dtype)
    t = 1.0
    for _ in range(inner_iters):
        # x = max(w - weight * D^T b, 0)
        np.multiply(weight, _neg_divergence(b, out=x), out=x)
        np.maximum(np.subtract(w, x, out=x), 0.0, out=x)
        # a step along the dual gradient D x, projected onto |p| <= 1
        np.divide(_forward_diff(x, out=grad), 8.0 * weight, out=grad)
        c = np.add(b, grad, out=b)
        np.multiply(c[0], c[0], out=norm)
        norm += np.multiply(c[1], c[1], out=norm_1)
        np.maximum(1.0, np.sqrt(norm, out=norm), out=norm)
        np.divide(c, norm, out=p_new)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_new
        # b = p_new + mom * (p_new - p)
        np.multiply(mom, np.subtract(p_new, p, out=b), out=b)
        b += p_new
        p, p_new, t = p_new, p, t_new
    return np.maximum(w - weight * _neg_divergence(p), 0.0), p


def snr(eta_star: np.ndarray, eta_true: np.ndarray) -> float:
    """20 log10(||eta_true|| / ||eta_true - eta_star||), +inf at equality."""
    if np.shape(eta_star) != np.shape(eta_true):
        raise ValueError(f"image shape {np.shape(eta_star)} does not match "
                         f"the true image shape {np.shape(eta_true)}")
    err = np.linalg.norm(eta_true - eta_star)
    if err == 0.0:
        return float("inf")
    return float(20.0 * np.log10(np.linalg.norm(eta_true) / err))


def eta_from_potential(f: np.ndarray, eta_b: float, k0: float) -> np.ndarray:
    return np.sqrt(eta_b**2 + f / k0**2)


def select_subset(rng: np.random.Generator, num_views: int,
                  subset_size: int) -> list[int]:
    """Seeded draw of a view subset; a pure function of the generator state
    and (num_views, subset_size)."""
    return sorted(rng.permutation(num_views)[:subset_size].tolist())


def reconstruct_fbs(measurements, scene: ScatteringScene,
                    config: ReconstructionConfig,
                    eta_true: np.ndarray | None = None
                    ) -> tuple[np.ndarray, ReconstructionHistory]:
    """Accelerated forward-backward splitting on the scattering potential.

    Momentum follows the classic alpha update; the gradient is evaluated at
    the extrapolated point.  The logged objective is the selected subset's
    data fidelity at the extrapolated point plus tau * TV of the new
    iterate.
    """
    num_views = scene.geometry.num_views
    if measurements.num_views != num_views:
        raise ValueError("measurement views do not match geometry")
    for q, y in enumerate(measurements.views):
        _check_measurement_count(scene.geometry, q, y)
    if config.subset_size > num_views:
        raise ValueError(f"subset_size {config.subset_size} exceeds the "
                         f"{num_views} views")
    s = scene.grid.points_per_side
    f = np.zeros((s, s))
    f_bar = f.copy()
    alpha = 1.0
    rng = np.random.default_rng(config.seed)
    history = ReconstructionHistory()
    t0 = time.perf_counter()
    scene.sensor_operator  # build it before any LU: a lower memory peak
    # late iterates barely move, so each view's previous forward and
    # adjoint solutions are good initial guesses
    warm = {}
    work = 0.0
    for it in range(1, config.iterations + 1):
        if scene.eta_sq_nonpositive(f_bar):
            raise ValueError(f"iteration {it}: the extrapolated potential "
                             f"makes eta^2 nonpositive (gamma = "
                             f"{config.gamma} may be too large)")
        subset = select_subset(rng, num_views, config.subset_size)
        grad, fidelity, wu = gradient_data_fidelity(
            scene, f_bar, subset, measurements, config.solver, warm=warm)
        f_new = tv_prox(f_bar - config.gamma * grad,
                        config.gamma * config.tau,
                        config.inner_prox_iterations)
        alpha_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * alpha * alpha))
        f_bar = f_new + ((alpha - 1.0) / alpha_new) * (f_new - f)
        f, alpha = f_new, alpha_new

        work += wu
        history.objective.append(fidelity + config.tau * tv_value(f_new))
        if eta_true is not None:
            eta_star = eta_from_potential(f_new, scene.eta_b, scene.k0)
            history.snr_db.append(snr(eta_star, eta_true))
        history.work_units.append(work)
        history.seconds.append(time.perf_counter() - t0)
    return f, history
