"""Geometric multigrid cycle used as a preconditioner for the Helmholtz
system: damped-Jacobi smoothing, full-weighting restriction, bilinear
prolongation, rediscretized coarse operators, and an exact coarsest solve.

As written, the transfer stencils satisfy P = 4*R^T (the prolongation is the
adjoint of the restriction up to the scale 4 absorbed by the 1/16 weights).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .grid import check_count
from .helmholtz import _EDGES, HelmholtzOperator, StencilPattern


def _check_omega(omega: float) -> None:
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"omega must be in (0, 1], got {omega!r}")


def check_cycle(nu1: int, nu2: int, omega: float, cycle_type: int) -> None:
    """Raises TypeError or ValueError unless the sweep counts ``nu1`` and
    ``nu2`` are nonnegative integers, the damping ``omega`` lies in (0, 1]
    and ``cycle_type`` is an integer of at least 1 (1 for V-cycles, 2 for
    W-cycles)."""
    check_count("nu1", nu1, 0)
    check_count("nu2", nu2, 0)
    _check_omega(omega)
    check_count("cycle_type", cycle_type, 1)


def damped_jacobi(op: HelmholtzOperator, b: np.ndarray,
                  v: np.ndarray | None, omega: float,
                  sweeps: int, *, out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """v <- v - omega * D^{-1} (A v - b), repeated ``sweeps`` times.

    ``v=None`` starts from the zero field: the first sweep is then
    omega * D^{-1} b, computed without applying the operator, and with
    ``sweeps=0`` the result is the zero field.  The result goes to ``out``
    when given (a C-contiguous complex field, which may be ``v`` itself to
    smooth in place) and to a new array otherwise; an array ``v`` that is
    not ``out`` is never modified.  ``scratch``, a complex field that is
    none of ``b``, ``v`` and ``out``, holds each sweep's residual; one is
    allocated for the call when not given.  D^{-1} is the operator's
    inverse diagonal, built and checked once per operator; a zero diagonal
    entry raises ``ZeroDivisionError``.
    """
    _check_omega(omega)
    check_count("sweeps", sweeps, 0)
    d_inv = op.inverse_diagonal()
    if out is None:
        out = np.empty(np.shape(b), dtype=complex)
    if v is None:
        if sweeps == 0:
            out.fill(0.0)
            return out
        np.multiply(b, d_inv, out=out)
        out *= omega
        sweeps -= 1
        v = out
    if sweeps and scratch is None:
        scratch = np.empty_like(out)
    for _ in range(sweeps):
        t = op.apply(v, out=scratch)
        t -= b
        t *= d_inv
        t *= omega
        np.subtract(v, t, out=out)
        v = out
    if v is not out:
        out[...] = v
    return out


def restrict_full_weighting(r_fine: np.ndarray, *,
                            out: np.ndarray | None = None,
                            rows: np.ndarray | None = None) -> np.ndarray:
    """Full-weighting transfer to the twice-coarser grid; fine samples that
    fall outside the grid read as zero.

    The 3x3 stencil [1 2 1]^T [1 2 1] / 16 is applied as two 1-D passes,
    rows then columns, with no padded copy of ``r_fine``.  ``out`` (coarse
    side squared) receives the result and ``rows`` (coarse side by fine
    side) the row pass, each allocated when not given."""
    sf = r_fine.shape[0]
    if sf % 2 == 0:
        raise ValueError("fine side must be odd")
    sc = (sf + 1) // 2
    dtype = np.result_type(r_fine, 1.0)
    if rows is None:
        rows = np.empty((sc, sf), dtype=dtype)
    if out is None:
        out = np.empty((sc, sc), dtype=dtype)
    odd = r_fine[1::2, :]
    np.multiply(2.0, r_fine[0::2, :], out=rows)
    rows[1:, :] += odd
    rows[:-1, :] += odd
    odd = rows[:, 1::2]
    np.multiply(2.0, rows[:, 0::2], out=out)
    out[:, 1:] += odd
    out[:, :-1] += odd
    out *= 1.0 / 16.0
    return out


def prolong_bilinear(e_coarse: np.ndarray, *,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Bilinear interpolation to the twice-finer grid: even-even indices
    copy, mixed parities average two coarse neighbors, odd-odd four.

    Two 1-D passes, each writing ``out`` (allocated when not given) in
    full: the even rows interpolate along axis 1, then each odd row is the
    mean of the two even rows around it, a contiguous row operation.  An
    odd-odd entry is thus ((a + b)/2 + (c + d)/2)/2 of its four coarse
    neighbors."""
    sc = e_coarse.shape[0]
    sf = 2 * sc - 1
    if out is None:
        out = np.empty((sf, sf), dtype=e_coarse.dtype)
    even = out[0::2, :]
    even[:, 0::2] = e_coarse
    mid = even[:, 1::2]
    np.add(e_coarse[:, :-1], e_coarse[:, 1:], out=mid)
    mid *= 0.5
    odd = out[1::2, :]
    np.add(even[:-1, :], even[1:, :], out=odd)
    odd *= 0.5
    return out


def coarsen_operator(fine_op: HelmholtzOperator) -> HelmholtzOperator:
    """Rediscretize at double mesh size: the Laplacian is rebuilt at 2h, the
    squared-index field is transferred by full weighting with its boundary
    ring reset to the background value, and the ABL profile is sampled at
    the coarse points, the even-indexed fine points."""
    if fine_op.side < 5:
        raise ValueError("cannot coarsen a level of fewer than 5 points "
                         "per side")
    eta_sq_c = restrict_full_weighting(fine_op.eta_sq)
    background = fine_op.eta_sq[0, 0]
    for edge in _EDGES:
        eta_sq_c[edge] = background
    return HelmholtzOperator(2.0 * fine_op.h, eta_sq_c,
                             fine_op.alpha[::2, ::2], fine_op.k0)


@dataclass
class WorkUnitMeter:
    """Running total of smoother sweeps, each weighted 2^(-2p) at level p
    (d = 2); every weight is a power of 2, so the total is exact.

    Only smoother sweeps count: residuals, transfers and the coarsest
    solve are not metered.  A sweep from the zero guess (``v=None`` in
    :func:`damped_jacobi`) counts as a full sweep, although it skips the
    operator application.
    """

    total: float = 0.0

    def record(self, level: int, sweeps: int):
        self.total += sweeps * 4.0**(-level)


class LevelWork:
    """Work arrays of one smoothing level, allocated once and overwritten
    by every cycle: the field ``t``, which holds the smoother's and the
    cycle's residual and then the prolonged correction, and the row pass
    ``rows`` and result ``r_c`` of the restriction to the next coarser
    level."""

    def __init__(self, side: int, coarse_side: int):
        self.t = np.empty((side, side), dtype=complex)
        self.rows = np.empty((coarse_side, side), dtype=complex)
        self.r_c = np.empty((coarse_side, coarse_side), dtype=complex)


class MgHierarchy:
    """Per-level operators plus smoothing/cycling configuration, and
    ``work``, the :class:`LevelWork` of each level but the coarsest (none
    for a one-level, direct hierarchy; 3.5 MiB for the 3-level set at
    321^2).  The work arrays are shared by every cycle, so a hierarchy
    runs one cycle at a time."""

    def __init__(self, fine_op: HelmholtzOperator, n_levels: int,
                 nu1: int = 1, nu2: int = 1, omega: float = 0.8,
                 cycle_type: int = 1):
        check_count("n_levels", n_levels, 1)
        check_cycle(nu1, nu2, omega, cycle_type)
        self.nu1, self.nu2, self.omega = nu1, nu2, omega
        self.cycle_type = cycle_type
        self.levels = [fine_op]
        for _ in range(n_levels - 1):
            self.levels.append(coarsen_operator(self.levels[-1]))
        coarsest = self.levels[-1]
        if coarsest.side < 3:
            raise ValueError("coarsest grid degenerate")
        wavelength = 2.0 * np.pi / (coarsest.k0 * np.sqrt(np.max(coarsest.eta_sq)))
        ppw = wavelength / coarsest.h
        # one level is an exact solve: there is no coarse grid to resolve
        if n_levels > 1 and ppw < 10.0:
            warnings.warn(
                f"coarsest level has {ppw:.1f} points per wavelength "
                "(rule of thumb is 10)", stacklevel=2)
        self._coarse_pattern = self._factor(coarsest)
        self.meter = WorkUnitMeter()
        self.work = [LevelWork(fine.side, coarse.side)
                     for fine, coarse in zip(self.levels, self.levels[1:])]

    # per grid side, the pattern numbered as the side's first factorization
    # orders its columns
    _kept_orders: dict[int, StencilPattern] = {}

    def _factor(self, op: HelmholtzOperator) -> StencilPattern:
        """Factors ``op`` into ``self._coarse_lu``; returns the pattern it
        was assembled in, whose numbering the factor solves in.

        Minimum-degree ordering on A^T + A suits the symmetric 5-point
        pattern: 20-40% less fill than COLAMD at 37^2-81^2 and a faster
        solve.  SuperLU's partial pivoting stays on; without it the
        residual at contrast 4 grows from 1e-14 to 1e-11.  Narrow panels
        and no supernode relaxation build the factor faster and with a
        smaller peak workspace; the fill and the solve time do not change.

        The column order SuperLU settles on, the ordering and then the
        postorder of its elimination tree, depends on the pattern alone,
        which every operator of a side shares.  So the first factorization
        of a side, in row-major order, keeps it, and later operators of
        that side are assembled with their unknowns numbered in that order
        and factored as they stand, with no ordering computed.  The
        renumbering is symmetric, so that SuperLU's preference for the
        diagonal pivot on a tie finds the same entry, and each column keeps
        its rows in their row-major sequence, the sequence its pivot search
        walks; the factors, and every solve, are then bit for bit those of
        a fresh factorization."""
        kept = MgHierarchy._kept_orders.get(op.side)
        pattern = (StencilPattern(op.side, np.arange(op.side**2))
                   if kept is None else kept)
        A = op.as_sparse(pattern)
        # a column's rows are not ascending in a kept numbering; marked
        # canonical, as the row-major matrix is, splu keeps their sequence
        # instead of sorting them
        A.has_canonical_format = True
        self._coarse_lu = splu(
            A, permc_spec="MMD_AT_PLUS_A" if kept is None else "NATURAL",
            panel_size=4, relax=1)
        if kept is None:
            # SuperLU's perm_c gives each unknown's column in A Pc
            MgHierarchy._kept_orders[op.side] = StencilPattern(
                op.side, np.argsort(self._coarse_lu.perm_c))
        return pattern

    def coarsest_solve(self, b: np.ndarray) -> np.ndarray:
        """Exact solve on the coarsest level, for one field or a stack of
        fields (shape (..., s, s)): a stack goes to SuperLU as one
        multi-column solve, each field a Fortran-ordered column, and every
        column comes out bit-identical to its own single solve.  A real
        field solves as a complex one.  The factor solves for the right-hand
        sides numbered as its pattern numbers the unknowns (see
        :meth:`_factor`), and its solutions are put back in row-major
        order."""
        p = self._coarse_pattern
        # SuperLU solves a copy of its right-hand sides, so the renumbered
        # ones, complex, can take the solution back in row-major order.  The
        # indices are permutations, always in range: "clip" spares the
        # check, and the copy that "raise" makes of an ``out``
        x = np.take(np.asarray(b, dtype=complex).reshape(-1, p.order.size),
                    p.order, axis=1, mode="clip")
        y = self._coarse_lu.solve(x.T).T
        return np.take(y, p.number, axis=1, out=x,
                       mode="clip").reshape(b.shape)

    def as_preconditioner(self):
        """Callable applying one multigrid cycle from a zero initial guess
        (a fixed linear operator, as a Krylov preconditioner requires)."""
        def apply_m(b):
            return mg_cycle(self, b, None)
        return apply_m


def mg_cycle(hier: MgHierarchy, b: np.ndarray, v0: np.ndarray | None,
             level: int = 0) -> np.ndarray:
    """One multigrid cycle (V for cycle_type=1, W for 2) on ``level``;
    ``v0=None`` is the zero initial guess (see :func:`damped_jacobi`).

    The result is the only array the cycle allocates, and it is never a
    work array; ``b`` and ``v0`` are read only.  Residual, restriction and
    correction live in the level's work arrays, ``hier.work[level]``, and
    the smoothers update the result in place."""
    op = hier.levels[level]
    if level == len(hier.levels) - 1:
        return hier.coarsest_solve(b)
    w = hier.work[level]
    v = damped_jacobi(op, b, v0, hier.omega, hier.nu1, scratch=w.t)
    hier.meter.record(level, hier.nu1)
    r = op.apply(v, out=w.t)
    restrict_full_weighting(np.subtract(b, r, out=r), out=w.r_c,
                            rows=w.rows)
    e_c = None
    for _ in range(hier.cycle_type):
        e_c = mg_cycle(hier, w.r_c, e_c, level + 1)
    v_corr = prolong_bilinear(e_c, out=w.t)
    np.add(v_corr, v, out=v)
    damped_jacobi(op, b, v, hier.omega, hier.nu2, out=v, scratch=w.t)
    hier.meter.record(level, hier.nu2)
    return v


def lfa_symbols(k_times_h: float, omega: float,
                theta: tuple[float, float]) -> dict[str, complex]:
    """Constant-coefficient symbols of the operator (with h^2 folded out)
    and of the damped-Jacobi iteration at frequency theta."""
    kh2 = k_times_h**2
    if kh2 == 4.0:
        raise ZeroDivisionError("smoother symbol undefined at (kh)^2 = 4")
    c = np.cos(theta[0]) + np.cos(theta[1])
    a = 4.0 - 2.0 * c - kh2
    s = 1.0 - omega + (2.0 * omega / (4.0 - kh2)) * c
    return {"a_symbol": complex(a), "s_symbol": complex(s)}
