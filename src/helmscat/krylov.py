"""Preconditioned Bi-CGSTAB, generic over operator and preconditioner
callables operating on complex 2-D fields (or flat vectors)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# near machine-zero: transient loss of significance in rho is survivable,
# so only a scalar at roughly eps^2 of the problem scale stops the run
BREAKDOWN_TOL = float(np.finfo(float).eps) ** 2


class BicgstabBreakdown(RuntimeError):
    """A Bi-CGSTAB scalar (rho, <r0hat, v>, or <t, t>) vanished relative to
    the problem scale; the recurrence cannot continue."""


@dataclass
class SolveReport:
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False
    # preconditioner work; the caller that meters it fills this in
    work_units: float = 0.0


def bicgstab(apply_A, b, apply_M=None, x0=None, tol=1e-6, max_iter=1000):
    """Solve A x = b with Bi-CGSTAB, applying the (linear, zero-started)
    preconditioner ``apply_M`` to the search directions.  Started from
    zero (``x0=None``), the initial residual is b itself, with no
    operator apply.

    Stops when ||r|| <= tol * ||b||.  Returns ``(x, SolveReport)``; on
    non-convergence the partial iterate is returned with
    ``converged=False``.  A non-finite residual norm (NaN or inf in ``b``,
    ``x0`` or the operators) also stops the run with ``converged=False``,
    at the first step that produces it; the norm is kept as the last entry
    of ``residual_history``.  Raises :class:`BicgstabBreakdown` on a
    vanishing recurrence scalar.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not max_iter >= 1:
        raise ValueError("max_iter must be at least 1")
    if apply_M is None:
        apply_M = lambda v: v

    b = np.asarray(b, dtype=complex)

    b_norm = float(np.linalg.norm(b))
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=complex).copy()
        r = b - apply_A(x)
    r_hat = r.copy()
    r_hat_norm = np.linalg.norm(r_hat)
    r_norm = float(r_hat_norm)
    rho_prev = 1.0 + 0.0j
    alpha = 1.0 + 0.0j
    sigma = 1.0 + 0.0j
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    # x, r and p are updated in place through one scratch product; each
    # update keeps the textbook operand order (scalar * vector, then
    # vector +/- product), as complex multiplication in numpy is not
    # bitwise commutative
    prod = np.empty_like(b)

    report = SolveReport(iterations=0, residual_history=[r_norm])
    threshold = tol * b_norm
    while (math.isfinite(r_norm) and r_norm > threshold
           and report.iterations < max_iter):
        report.iterations += 1
        it = report.iterations
        rho = np.vdot(r_hat, r)
        scale = r_hat_norm * r_norm
        if abs(rho) < BREAKDOWN_TOL * max(scale, 1e-300):
            raise BicgstabBreakdown(f"rho breakdown at iteration {it}")
        beta = (rho / rho_prev) * (alpha / sigma)
        # p = r + beta * (p - sigma * v)
        np.multiply(sigma, v, out=prod)
        np.subtract(p, prod, out=p)
        np.multiply(beta, p, out=p)
        np.add(r, p, out=p)
        y = apply_M(p)
        v = apply_A(y)
        denom = np.vdot(r_hat, v)
        scale = r_hat_norm * np.linalg.norm(v)
        if abs(denom) < BREAKDOWN_TOL * max(scale, 1e-300):
            raise BicgstabBreakdown(f"<r0hat, v> breakdown at iteration {it}")
        alpha = rho / denom
        # s = r - alpha * v, held in r; x moves to x + alpha * y only once
        # s is finite, so a failed half-step returns the previous iterate
        np.multiply(alpha, v, out=prod)
        s = np.subtract(r, prod, out=r)
        r_norm = float(np.linalg.norm(s))
        if math.isfinite(r_norm):
            np.multiply(alpha, y, out=prod)
            np.add(x, prod, out=x)
        if not (math.isfinite(r_norm) and r_norm > threshold):
            # a non-finite or already converged half-step; the
            # stabilization solve would divide by <t,t> ~ 0
            report.residual_history.append(r_norm)
            break
        z = apply_M(s)
        t = apply_A(z)
        tt = np.vdot(t, t)
        if abs(tt) < BREAKDOWN_TOL * max(tt.real, 1e-300):
            raise BicgstabBreakdown(f"<t, t> breakdown at iteration {it}")
        sigma = np.vdot(t, s) / tt
        # x = h + sigma * z and r = s - sigma * t
        np.multiply(sigma, z, out=prod)
        np.add(x, prod, out=x)
        np.multiply(sigma, t, out=prod)
        np.subtract(r, prod, out=r)
        rho_prev = rho
        r_norm = float(np.linalg.norm(r))
        report.residual_history.append(r_norm)

    report.converged = math.isfinite(r_norm) and r_norm <= threshold
    return x, report
