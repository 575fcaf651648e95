"""Backward integration of the Riccati terminal-value problem.

Integrates dP/dt = -f(P, 0) from P(T) = N in reversed time with an embedded
Dormand-Prince 5(4) pair and PI step control, monitoring the positivity
constraint on the effective control weight and detecting blow-up.  Blow-up is
declared when the trajectory escapes in C^1: either ||P|| or ||dP/dt|| exceeds
the configured cap.  On sampled coefficient paths a vanishing-denominator
singularity keeps P bounded while its velocity explodes, so watching only
||P|| would silently miss the loss of a continuous solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_EPS_POS,
    PIECEWISE_CONSTANT_LEFT,
    ProblemData,
    eval_f,
    lq_terms,
    min_eigenvalue,
    symmetrize,
)
from .errors import StepLimit

__all__ = [
    "SolverConfig",
    "RiccatiSolution",
    "COMPLETED",
    "CONSTRAINT_VIOLATION",
    "BLOWUP",
    "solve_riccati",
    "check_solution_residual",
    "derive_gain_margin",
]

COMPLETED = "completed"
CONSTRAINT_VIOLATION = "constraint-violation"
BLOWUP = "blowup"

# Dormand-Prince 5(4) tableau (FSAL).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_ERR = _B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

# largest output grid; every output time is a step boundary
MAX_OUTPUT_POINTS = 100_000

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


@dataclass
class SolverConfig:
    """Tolerances and caps for the backward Riccati integration."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_norm: float = 1e8
    eps_pos: float = DEFAULT_EPS_POS
    max_steps: int = 1_000_000
    output_points: int = 513

    def validate(self):
        # written so that NaN fails: every comparison with NaN is False
        if not all(x > 0.0 for x in (self.rel_tol, self.abs_tol, self.max_norm, self.eps_pos)):
            raise ValueError("tolerances and caps must be positive")
        if not 2 <= self.output_points <= MAX_OUTPUT_POINTS:
            raise ValueError(f"output_points must be from 2 to {MAX_OUTPUT_POINTS}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


@dataclass
class RiccatiSolution:
    """Backward Riccati trajectory on an ascending output grid.

    ``P[j]`` is the solution at ``grid[j]``; ``gain[j]`` the feedback gain
    Gamma(P[j], 0) and ``margin[j]`` the minimal eigenvalue of the effective
    control weight there.  On constraint violation or blow-up the trajectory
    covers (t_event, T] only.
    """

    grid: np.ndarray
    P: np.ndarray
    gain: np.ndarray
    margin: np.ndarray
    status: str
    t_event: float | None
    accepted_steps: int
    rejected_steps: int
    margin_min_dense: float

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED

    @property
    def P0(self) -> np.ndarray:
        if not self.completed:
            raise ValueError(f"P(0) undefined: solver status is {self.status!r}")
        return self.P[0]

    def value_at(self, xi) -> float:
        """Value function xi' P(0) xi (requires a completed solve)."""
        xi = np.asarray(xi, dtype=float)
        return float(xi @ self.P0 @ xi)


def derive_gain_margin(data: ProblemData, grid, P):
    """Feedback gains Gamma(P, 0) and constraint margins along a stored P path."""
    hat, rhs, _ = lq_terms(data.stacked_at(grid), P)
    return -np.linalg.solve(hat, rhs), min_eigenvalue(hat)


def _hermite(theta, y0, f0, y1, f1, h):
    """Cubic Hermite interpolation on one step, theta in [0, 1]."""
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2 * t3 - 3 * t2 + 1) * y0
        + (t3 - 2 * t2 + theta) * h * f0
        + (-2 * t3 + 3 * t2) * y1
        + (t3 - t2) * h * f1
    )


def _fro(M):
    return float(np.sqrt(np.sum(M * M)))


def solve_riccati(data: ProblemData, config: SolverConfig | None = None) -> RiccatiSolution:
    """Integrate the Riccati problem backward from P(T) = N.

    Returns a RiccatiSolution with status ``completed``,
    ``constraint-violation`` or ``blowup``; in the two event cases the event
    time is bracketed to within 1e-6 * T by bisection on the violating step.
    Raises StepLimit when the step budget is exhausted.
    """
    config = config or SolverConfig()
    config.validate()
    n = data.n
    T = data.T
    eps_pos = config.eps_pos
    nan_slope = np.full(n * n, np.nan)
    if data.time_invariant:
        # a property of the data: skip the per-call coefficient lookup
        constant = data.stacked_at(0.0)

        def coeffs(t):
            return constant
    else:
        coeffs = data.stacked_at

    def terms_at(s, y, frozen=None):
        """lq_terms at t = T - s for y ~ P(T - s).

        ``frozen`` overrides the coefficient lookup; under piecewise-constant
        interpolation a step's coefficients are sampled once at its midpoint
        so that stages landing exactly on a breakpoint stay on the piece
        being integrated.
        """
        P = y.reshape(n, n)
        P = 0.5 * (P + P.T)
        return lq_terms(frozen if frozen is not None else coeffs(T - s), P)

    def slope(terms):
        """dy/ds = +f(P, 0) in reversed time, or NaN when hat_R degenerates."""
        hat, g, base = terms
        if hat[0, 0] <= 0.0 or (hat.shape[0] > 1 and np.min(np.diagonal(hat)) <= 0.0):
            return nan_slope  # positivity already fails; events localize the breakdown
        try:
            quad = g.T @ np.linalg.solve(hat, g)
        except np.linalg.LinAlgError:
            return nan_slope
        f = base - quad
        return (0.5 * (f + f.T)).ravel()

    def rhs(s, y, frozen=None):
        return slope(terms_at(s, y, frozen))

    # Segment boundaries in reversed time: output times, plus coefficient-grid
    # breakpoints under piecewise-constant interpolation (kinks in the RHS).
    tau_out = np.linspace(0.0, T, config.output_points)
    s_out = np.ascontiguousarray((T - tau_out)[::-1])
    s_out[0], s_out[-1] = 0.0, T
    boundaries = [(float(sv), True) for sv in s_out]
    if data.interpolation == PIECEWISE_CONSTANT_LEFT:
        tol = 1e-12 * T
        for sk in (T - data.grid):
            if np.min(np.abs(s_out - sk)) > tol:
                boundaries.append((float(sk), False))
    boundaries.sort(key=lambda b: b[0])
    s_targets = np.array([b[0] for b in boundaries])
    is_output = np.array([b[1] for b in boundaries])

    y = symmetrize(np.asarray(data.N, dtype=float)).ravel().copy()
    out_P = [y.reshape(n, n).copy()]
    s = 0.0
    accepted = 0
    rejected = 0
    err_old = 1e-4
    h = min(T / max(config.output_points - 1, 8), T / 8)
    status = COMPLETED
    t_event = None

    def c1_norm(y_pt, f_pt):
        return max(_fro(y_pt.reshape(n, n)), _fro(f_pt.reshape(n, n)))

    # terminal-point events; terms_now holds lq_terms at the last accepted
    # point, reused for the slope refresh at the next segment start
    terms_now = terms_at(0.0, y)
    f_term = slope(terms_now)
    margin_min = min_eigenvalue(terms_now[0])
    if margin_min <= eps_pos:
        status, t_event = CONSTRAINT_VIOLATION, T
    elif np.all(np.isfinite(f_term)) and c1_norm(y, f_term) >= config.max_norm:
        status, t_event = BLOWUP, T

    def bisect_event(s0, y0, f0, s1, y1, f1, which, frozen=None):
        """Earliest s in (s0, s1] where the given event fires, to 1e-6*T."""
        lo, hi = s0, s1
        goal = 1e-6 * T
        for _ in range(80):
            if hi - lo <= goal:
                break
            mid = 0.5 * (lo + hi)
            theta = (mid - s0) / (s1 - s0)
            ym = _hermite(theta, y0, f0, y1, f1, s1 - s0)
            if which == "margin":
                fired = min_eigenvalue(terms_at(mid, ym)[0]) - eps_pos <= 0.0
            else:
                fm = rhs(mid, ym, frozen)
                fired = (not np.all(np.isfinite(fm))) or c1_norm(ym, fm) >= config.max_norm
            if fired:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    pc_mode = data.interpolation == PIECEWISE_CONSTANT_LEFT
    if status == COMPLETED:
        for idx in range(1, s_targets.size):
            s_end = s_targets[idx]
            f_now = slope(terms_now)  # refresh: coefficients may kink at boundaries
            while s < s_end - 1e-14 * max(T, 1.0):
                if accepted + rejected >= config.max_steps:
                    raise StepLimit(f"exceeded {config.max_steps} steps at t={T - s:.6g}")
                h_try = min(h, s_end - s)
                k = np.empty((7, y.size))
                if pc_mode:
                    # segments are piece-aligned; freeze the piece's values so
                    # stages touching a breakpoint stay off the next piece
                    frozen = coeffs(T - (s + 0.5 * h_try))
                    k[0] = rhs(s, y, frozen)
                else:
                    frozen = None
                    k[0] = f_now
                for i in range(1, 7):
                    yi = y + h_try * (k[:i].T @ _A[i])
                    k[i] = rhs(s + _C[i] * h_try, yi, frozen)
                y1 = y + h_try * (k.T @ _B5)
                err_vec = h_try * (k.T @ _ERR)
                scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y1))
                with np.errstate(invalid="ignore", over="ignore"):
                    err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
                if np.isfinite(err) and err <= 1.0:
                    s_new = s + h_try
                    f_new = k[6]  # FSAL slope at (s_new, y1)
                    terms_now = terms_at(s_new, y1)
                    m_new = min_eigenvalue(terms_now[0])
                    margin_min = min(margin_min, m_new)
                    hit_margin = m_new <= eps_pos
                    hit_blowup = c1_norm(y1, f_new) >= config.max_norm
                    if hit_margin or hit_blowup:
                        cross_m = cross_b = np.inf
                        if hit_margin:
                            cross_m = bisect_event(s, y, k[0], s_new, y1, f_new,
                                                   "margin", frozen)
                        if hit_blowup:
                            cross_b = bisect_event(s, y, k[0], s_new, y1, f_new,
                                                   "blowup", frozen)
                        if cross_m <= cross_b:
                            status, t_event = CONSTRAINT_VIOLATION, T - cross_m
                        else:
                            status, t_event = BLOWUP, T - cross_b
                        accepted += 1
                        break
                    fac = _SAFETY * (err ** -_PI_ALPHA) * (err_old ** _PI_BETA) if err > 0 else _FAC_MAX
                    h = h_try * min(_FAC_MAX, max(_FAC_MIN, fac))
                    err_old = max(err, 1e-10)
                    s, y, f_now = s_new, y1, f_new
                    accepted += 1
                else:
                    rejected += 1
                    shrink = _SAFETY * err ** -0.2 if np.isfinite(err) else _FAC_MIN
                    h = h_try * max(_FAC_MIN, min(1.0, shrink))
                    if h < 1e-15 * T:
                        raise StepLimit(f"step size underflow at t={T - s:.6g}")
            if status != COMPLETED:
                break
            if is_output[idx]:
                out_P.append(symmetrize(y.reshape(n, n)).copy())

    # assemble ascending-in-t outputs
    P_desc = np.array(out_P)  # stored while t descends from T
    stored = P_desc.shape[0]
    grid = tau_out[config.output_points - stored:].copy()
    P = P_desc[::-1].copy()
    P[-1] = symmetrize(np.asarray(data.N, dtype=float))  # terminal condition exact

    gain, margin = derive_gain_margin(data, grid, P)

    return RiccatiSolution(
        grid=grid,
        P=P,
        gain=gain,
        margin=margin,
        status=status,
        t_event=t_event,
        accepted_steps=accepted,
        rejected_steps=rejected,
        margin_min_dense=float(margin_min),
    )


def check_solution_residual(
    solution: RiccatiSolution, data: ProblemData, probe_points: int = 64
) -> float:
    """A posteriori defect of dP/dt + f(P, 0) = 0 on the stored grid.

    Central differences with the output-grid spacing at ``probe_points``
    interior times; a genuine solution stays within roughly
    10 * rel_tol * (1 + max||P||) once the grid is dense enough for the
    stencil truncation to be negligible.
    """
    if not solution.completed:
        raise ValueError("residual check requires a completed solution")
    grid = solution.grid
    n_out = grid.size
    h = (grid[-1] - grid[0]) / (n_out - 1)
    idx = np.unique(np.linspace(1, n_out - 2, min(probe_points, n_out - 2)).round().astype(int))
    worst = 0.0
    for j in idx:
        dP = (solution.P[j + 1] - solution.P[j - 1]) / (2.0 * h)
        res = dP + eval_f(solution.P[j], None, data, grid[j], eps_pos=0.0)
        worst = max(worst, _fro(res))
    return worst
