"""Backward integration of the Riccati terminal-value problem.

Integrates dP/dt = -f(P, 0) from P(T) = N in reversed time with an embedded
Dormand-Prince 5(4) pair and PI step control.  One event test runs at t = T,
after every accepted step, at every segment start on piecewise-constant
coefficients (under the values of the piece that starts there) and inside
the bisection that locates an event: constraint violation first
(the effective control weight at or below the positivity floor), then
blow-up.  Blow-up is declared when the trajectory escapes in C^1: the slope
is not finite, or ||P|| or ||dP/dt|| reaches the configured cap.  On sampled
coefficient paths a vanishing-denominator singularity keeps P bounded while
its velocity explodes, so watching only ||P|| would silently miss the loss
of a continuous solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_EPS_POS,
    PIECEWISE_CONSTANT_LEFT,
    ProblemData,
    lq_terms,
    min_eigenvalue,
    riccati_drift,
    symmetrize,
)
from .errors import ConstraintViolation, StepLimit

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
    covers the output times in [t_event, T] only.
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
    ``constraint-violation`` or ``blowup``.  An event that holds at a segment
    start is reported there; one that first holds after a step is bracketed to
    within 1e-6 * T by bisection on that step.
    Raises StepLimit when the step budget is exhausted.
    """
    config = config or SolverConfig()
    config.validate()
    n, T = data.n, data.T
    nan_slope = np.full(n * n, np.nan)
    if data.time_invariant:
        # a property of the data: skip the per-call coefficient lookup
        constant = data.stacked_at(0.0)

        def coeffs(t):
            return constant
    else:
        coeffs = data.stacked_at

    # under piecewise-constant interpolation, the coefficients of the piece
    # being integrated, sampled once per segment at its midpoint so that
    # stages landing exactly on a breakpoint stay on that piece
    frozen = None

    def terms_at(s, y):
        """lq_terms at t = T - s for y ~ P(T - s), on the frozen piece if any."""
        P = y.reshape(n, n)
        P = 0.5 * (P + P.T)
        return lq_terms(frozen if frozen is not None else coeffs(T - s), P)

    def slope(terms):
        """dy/ds = +f(P, 0) in reversed time, or NaN when hat_R degenerates."""
        hat, rhs, base = terms
        if hat[0, 0] <= 0.0 or (hat.shape[0] > 1 and np.min(np.diagonal(hat)) <= 0.0):
            return nan_slope  # positivity already fails; the event test reports it
        try:
            return riccati_drift(hat, rhs, base).ravel()
        except np.linalg.LinAlgError:
            return nan_slope

    def event(y, margin, f):
        """Constraint violation, else blow-up (C^1 norm at the cap or not finite), else None."""
        if margin <= config.eps_pos:
            return CONSTRAINT_VIOLATION
        # written so that a NaN slope is blow-up too: every comparison with NaN is False
        if not (_fro(y) < config.max_norm and _fro(f) < config.max_norm):
            return BLOWUP
        return None

    def locate(s0, y0, f0, s1, y1, f1, hit):
        """Earliest s in (s0, s1] where an event holds, to 1e-6 * T, and that event.

        ``hit`` is the event at s1; inside the step P is Hermite-interpolated.
        """
        lo, hi = s0, s1
        while hi - lo > 1e-6 * T:
            mid = 0.5 * (lo + hi)
            ym = _hermite((mid - s0) / (s1 - s0), y0, f0, y1, f1, s1 - s0)
            terms = terms_at(mid, ym)
            found = event(ym, min_eigenvalue(terms[0]), slope(terms))
            if found is None:
                lo = mid
            else:
                hi, hit = mid, found
        return 0.5 * (lo + hi), hit

    # Segment boundaries in reversed time: output times, plus coefficient-grid
    # breakpoints under piecewise-constant interpolation (kinks in the RHS).
    tau_out = np.linspace(0.0, T, config.output_points)
    s_out = np.ascontiguousarray((T - tau_out)[::-1])
    s_out[0], s_out[-1] = 0.0, T
    boundaries = [(float(sv), True) for sv in s_out]
    pc_mode = data.interpolation == PIECEWISE_CONSTANT_LEFT
    if pc_mode:
        for sk in (T - data.grid):
            if np.min(np.abs(s_out - sk)) > 1e-12 * T:
                boundaries.append((float(sk), False))
    boundaries.sort(key=lambda b: b[0])

    y = symmetrize(np.asarray(data.N, dtype=float)).ravel().copy()
    out_P = [y.reshape(n, n).copy()]
    s = s_event = 0.0
    accepted = rejected = 0
    err_old = 1e-4
    h = T / max(config.output_points - 1, 8)
    margin_min = np.inf

    # terms_now holds lq_terms at the last accepted point, already tested there;
    # on piecewise-linear coefficients it serves the next segment start too
    terms_now = None
    for s_end, output in boundaries[1:]:
        if pc_mode or terms_now is None:
            # t = T or a new piece: the event test on this segment's terms
            if pc_mode:
                frozen = coeffs(T - 0.5 * (s + s_end))  # segments are piece-aligned
            terms_now = terms_at(s, y)
            margin_now = min_eigenvalue(terms_now[0])
            margin_min = min(margin_min, margin_now)
            f_now = slope(terms_now)
            hit = event(y, margin_now, f_now)
            if hit is not None:
                s_event = s
                break
        else:
            f_now = slope(terms_now)  # the exact slope at y, not the FSAL stage's
        while s < s_end - 1e-14 * max(T, 1.0):
            if accepted + rejected >= config.max_steps:
                raise StepLimit(f"exceeded {config.max_steps} steps at t={T - s:.6g}")
            h_try = min(h, s_end - s)
            k = np.empty((7, y.size))
            k[0] = f_now
            for i in range(1, 7):
                yi = y + h_try * (k[:i].T @ _A[i])
                k[i] = slope(terms_at(s + _C[i] * h_try, yi))
            y1 = y + h_try * (k.T @ _B5)
            err_vec = h_try * (k.T @ _ERR)
            scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y1))
            with np.errstate(invalid="ignore", over="ignore"):
                err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
            if np.isfinite(err) and err <= 1.0:
                accepted += 1
                s_new = s + h_try
                terms_now = terms_at(s_new, y1)
                margin_now = min_eigenvalue(terms_now[0])
                margin_min = min(margin_min, margin_now)
                # k[6] is the FSAL slope at (s_new, y1)
                hit = event(y1, margin_now, k[6])
                if hit is not None:
                    s_event, hit = locate(s, y, k[0], s_new, y1, k[6], hit)
                    break
                fac = _SAFETY * (err ** -_PI_ALPHA) * (err_old ** _PI_BETA) if err > 0 else _FAC_MAX
                h = h_try * min(_FAC_MAX, max(_FAC_MIN, fac))
                err_old = max(err, 1e-10)
                s, y, f_now = s_new, y1, k[6]
            else:
                rejected += 1
                shrink = _SAFETY * err ** -0.2 if np.isfinite(err) else _FAC_MIN
                h = h_try * max(_FAC_MIN, min(1.0, shrink))
                if h < 1e-15 * T:
                    raise StepLimit(f"step size underflow at t={T - s:.6g}")
        if hit is not None:
            break
        if output:
            out_P.append(symmetrize(y.reshape(n, n)).copy())

    # assemble ascending-in-t outputs
    grid = tau_out[config.output_points - len(out_P):].copy()
    P = np.array(out_P[::-1])  # out_P is stored while t descends from T
    P[-1] = symmetrize(np.asarray(data.N, dtype=float))  # terminal condition exact

    gain, margin = derive_gain_margin(data, grid, P)

    return RiccatiSolution(
        grid=grid,
        P=P,
        gain=gain,
        margin=margin,
        status=COMPLETED if hit is None else hit,
        t_event=None if hit is None else T - s_event,
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
    stencil truncation to be negligible.  Raises ValueError without a completed
    solution or an interior point, ConstraintViolation where hat_R is not positive.
    """
    if not solution.completed:
        raise ValueError("residual check requires a completed solution")
    grid, P = solution.grid, solution.P
    n_out = grid.size
    if n_out < 3 or probe_points < 1:
        raise ValueError("residual check needs at least 3 stored points and 1 probe")
    h = (grid[-1] - grid[0]) / (n_out - 1)
    idx = np.unique(np.linspace(1, n_out - 2, min(probe_points, n_out - 2)).round().astype(int))
    hat, rhs, base = lq_terms(data.stacked_at(grid[idx]), symmetrize(P[idx]))
    margin = min_eigenvalue(hat)
    bad = np.flatnonzero(margin <= 0.0)
    if bad.size:
        raise ConstraintViolation(grid[idx[bad[0]]], margin[bad[0]])
    res = (P[idx + 1] - P[idx - 1]) / (2.0 * h) + riccati_drift(hat, rhs, base)
    return float(np.max(np.sqrt(np.sum(res * res, axis=(-2, -1)))))
