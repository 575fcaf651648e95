"""Backward integration of the Riccati terminal-value problem.

Integrates dP/dt = -f(P, 0) from P(T) = N in reversed time with an embedded
Dormand-Prince 5(4) pair and PI step control, one coefficient piece at a time:
the whole horizon or, under piecewise-constant interpolation, each span
between the grid points where a coefficient jumps.  Only the error controller
and the piece ends set the steps; the output times a step passes are filled
from the pair's free 4th-order continuous extension, built from the stages the
step already holds.  A stage's slope is ``core.schur_complement`` of its block
H(P): NaN unless the stage's effective weight is positive definite, and so are
the later stages of that trial step, whose H is NaN.  H is one product by the
map ``core.lq_block_map`` of a piece whose coefficients do not move, if the map
has at most ``core.MAP_MAX_ENTRIES`` entries, else ``core.lq_block`` at the stage's
time.  One event test runs at each piece start (t = T first; under the values
of the piece that starts there), after every accepted step (on the terms of the
step's last stage, which sits at the accepted point) and inside the bisection
on the continuous extension that locates an event: constraint violation first
(the effective control weight at or below the positivity floor), then
blow-up.  A rejected trial step no longer than the event bracket with a stage
weight at the floor (read on the stages whose H is finite) is a constraint
violation inside it: where the weight reaches the floor with a steepening
slope, no step across it would ever be accepted.  Blow-up is declared when the
trajectory escapes in C^1: the slope is not finite, or ||P|| or ||dP/dt||
reaches the configured cap.  On sampled coefficient paths a
vanishing-denominator singularity keeps P bounded while its velocity explodes,
so watching only ||P|| would silently miss the loss of a continuous solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    DEFAULT_EPS_POS,
    PIECEWISE_CONSTANT_LEFT,
    ProblemData,
    lq_block,
    lq_block_map,
    lq_terms,
    min_eigenvalue,
    schur_complement,
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

# Dormand-Prince 5(4) tableau (FSAL); the stage times as Python floats.
_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
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

# 4th-order continuous extension of the pair (Hairer, Norsett & Wanner,
# Solving ODEs I, II.6; Shampine 1986): the stage weights of its last term
_DENSE = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
])

# largest output grid; output times are filled from the continuous extension
MAX_OUTPUT_POINTS = 100_000
# stored times probed by the a posteriori checks (at most; fewer on short grids)
PROBE_POINTS = 64

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
    control weight there; ``margin_min_dense`` is the least margin the solver
    met at the output times, the piece starts, the accepted step ends and the
    stage that located a constraint violation.  On constraint violation or
    blow-up the trajectory covers the output times in [t_event, T] only.
    ``rhs_evaluations`` counts the evaluations of H(P) for the stages and event tests.
    """

    grid: np.ndarray
    P: np.ndarray
    gain: np.ndarray
    margin: np.ndarray
    status: str
    t_event: float | None
    accepted_steps: int
    rejected_steps: int
    rhs_evaluations: int
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
    """Feedback gains Gamma(P, 0) and constraint margins along a stored P path.

    The gain is NaN where the margin is not positive, as where a constraint
    violation stops the solve: hat_R may be singular there."""
    hat, rhs, _ = lq_terms(data.blocks_at(grid), P)
    margin = min_eigenvalue(hat)
    gain = np.full(rhs.shape, np.nan)
    ok = margin > 0.0
    gain[ok] = -np.linalg.solve(hat[ok], rhs[ok])
    return gain, margin


def _extension(y0, y1, k, h):
    """The continuous extension of one step from y0 to y1 with stages k, as a
    function of theta in [0, 1]; it is y0 at 0 and y1 at 1 and costs no
    right-hand-side evaluation."""
    dy = y1 - y0
    c2 = h * k[0] - dy
    c3 = dy - h * k[6] - c2
    c4 = h * (k.T @ _DENSE)

    def at(theta):
        rest = 1.0 - theta
        return y0 + theta * (dy + rest * (c2 + theta * (c3 + rest * c4)))

    return at


def _fro(M):
    return math.sqrt(np.add.reduce(M * M, axis=None))


def solve_riccati(data: ProblemData, config: SolverConfig | None = None) -> RiccatiSolution:
    """Integrate the Riccati problem backward from P(T) = N.

    Returns a RiccatiSolution with status ``completed``,
    ``constraint-violation`` or ``blowup``.  An event that holds at a piece
    start is reported there; one that first holds after a step is bracketed to
    within 1e-6 * T by bisection on that step, and a constraint violation
    that a rejected step of at most 1e-6 * T reaches is reported inside it.
    Raises StepLimit when the step budget is exhausted or the step underflows.
    """
    config = config or SolverConfig()
    config.validate()
    n, m, T = data.n, data.n + data.k, data.T
    pc_mode = data.interpolation == PIECEWISE_CONSTANT_LEFT
    # the coefficients held over the piece being integrated (a piecewise-constant
    # piece sampled at its midpoint, so that stages on a breakpoint stay on it) and
    # their map (K, z) of H where K is small, or None to look them up at each stage
    small = (n * m) ** 2 <= core.MAP_MAX_ENTRIES
    frozen = data.blocks_at(0.0) if data.time_invariant and not pc_mode else None
    linear = lq_block_map(frozen) if frozen is not None and small else None

    def block_at(s, y):
        """H at t = T - s of the symmetric part of y ~ P(T - s)."""
        nonlocal evaluations
        evaluations += 1
        if linear is not None:
            return (linear[0] @ y + linear[1]).reshape(m, m)
        P = y.reshape(n, n)
        P = P if n == 1 else 0.5 * (P + P.T)  # a 1x1 P is symmetric already
        return lq_block(frozen if frozen is not None else data.blocks_at(T - s), P)

    def event(y, margin, f):
        """Constraint violation, else blow-up (C^1 norm at the cap or not finite), else None."""
        if margin <= config.eps_pos:
            return CONSTRAINT_VIOLATION
        # written so that a NaN slope is blow-up too: every comparison with NaN is False
        if not (_fro(y) < config.max_norm and _fro(f) < config.max_norm):
            return BLOWUP
        return None

    def locate(s0, s1, at, hit):
        """Earliest s in (s0, s1] where an event holds, to the bracket width.

        ``hit`` is the event at s1; inside the step P is the continuous
        extension ``at``.  Returns the last event-free point of the bracket,
        its midpoint and the event.
        """
        lo, hi = s0, s1
        while hi - lo > bracket:
            mid = 0.5 * (lo + hi)
            ym = at((mid - s0) / (s1 - s0))
            H = block_at(mid, ym)
            found = event(ym, min_eigenvalue(H[n:, n:]), schur_complement(H, n).ravel())
            if found is None:
                lo = mid
            else:
                hi, hit = mid, found
        return lo, 0.5 * (lo + hi), hit

    # Output times and piece ends in reversed time s = T - t, ascending.  The
    # pieces are the whole horizon or, under piecewise-constant interpolation,
    # the spans between the grid points where a coefficient jumps (kinks in the RHS).
    tau_out = np.linspace(0.0, T, config.output_points)
    s_out = T - tau_out[::-1]
    piece_ends = (T - data.grid[data.jumps[::-1]]).tolist() + [T] if pc_mode else [T]

    y = data.N.ravel()
    out_y = [y[None]]  # blocks of outputs, stored while t descends from T
    s = s_event = 0.0
    accepted = rejected = evaluations = 0
    err_old = 1e-4
    h = T / 512  # first trial step: the default output spacing, on any output grid
    margin_min = np.inf
    tiny = 1e-14 * max(T, 1.0)
    bracket = 1e-6 * T  # the width to which an event time is located
    j = 1  # the next output time is s_out[j]
    for s_end in piece_ends:
        if pc_mode:
            frozen = data.blocks_at(T - 0.5 * (s + s_end))
            linear = lq_block_map(frozen) if small else None
        # t = T or a new piece: the event test on this piece's terms
        H = block_at(s, y)
        margin_now = min_eigenvalue(H[n:, n:])
        margin_min = min(margin_min, margin_now)
        f_now = schur_complement(H, n).ravel()
        hit = event(y, margin_now, f_now)
        if hit is not None:
            s_event = s
            break
        while s < s_end - tiny:
            if accepted + rejected >= config.max_steps:
                raise StepLimit(f"exceeded {config.max_steps} steps at t={T - s:.6g}")
            h_try = min(h, s_end - s)
            k = np.empty((7, y.size))
            k[0] = f_now
            stages = []
            for i in range(1, 7):
                H = block_at(s + _C[i] * h_try, y + h_try * (k[:i].T @ _A[i]))
                k[i] = schur_complement(H, n).ravel()
                stages.append(H)
            y1 = y + h_try * (k.T @ _B5)
            err_vec = h_try * (k.T @ _ERR)
            scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y1))
            with np.errstate(invalid="ignore", over="ignore"):
                q = err_vec / scale
                err = math.sqrt(np.add.reduce(q * q) / q.size)
            if err <= 1.0:  # a NaN err fails: every comparison with NaN is False
                accepted += 1
                s_new = s + h_try
                # the FSAL stage sits at (s_new, y1): its terms test the
                # accepted point and k[6] starts the next step
                margin_now = min_eigenvalue(H[n:, n:])
                margin_min = min(margin_min, margin_now)
                hit = event(y1, margin_now, k[6])
                at = _extension(y, y1, k, h_try)
                s_fill = s_new
                if hit is not None:
                    s_fill, s_event, hit = locate(s, s_new, at, hit)
                # the output times this step passed, up to an event
                j_next = int(np.searchsorted(s_out, s_fill + tiny, side="right"))
                if j_next > j:
                    y_out = at((s_out[j:j_next, None] - s) / h_try)
                    if s_out[j_next - 1] >= s_new - tiny:
                        y_out[-1] = y1
                    out_y.append(y_out)
                    j = j_next
                if hit is not None:
                    break
                fac = _SAFETY * (err ** -_PI_ALPHA) * (err_old ** _PI_BETA) if err > 0 else _FAC_MAX
                h = h_try * min(_FAC_MAX, max(_FAC_MIN, fac))
                err_old = max(err, 1e-10)
                s, y, f_now = s_new, y1, k[6]
            else:
                rejected += 1
                # a step already as short as the event bracket that reaches a
                # weight at the floor brackets a constraint violation; the stages
                # after a NaN slope hold a NaN H and are not read
                if h_try <= bracket:
                    margin_now = min(min_eigenvalue(H[n:, n:]) for H in stages
                                     if np.isfinite(H).all())
                    if margin_now <= config.eps_pos:
                        margin_min = min(margin_min, margin_now)
                        s_event, hit = s + 0.5 * h_try, CONSTRAINT_VIOLATION
                        break
                shrink = _SAFETY * err ** -0.2 if math.isfinite(err) else _FAC_MIN
                h = h_try * max(_FAC_MIN, min(1.0, shrink))
                if h < 1e-15 * T:
                    raise StepLimit(f"step size underflow at t={T - s:.6g}")
        if hit is not None:
            break

    P = symmetrize(np.concatenate(out_y)[::-1].reshape(-1, n, n))
    grid = tau_out[config.output_points - len(P):].copy()
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
        rhs_evaluations=evaluations,
        margin_min_dense=float(min(margin_min, np.min(margin))),
    )


def check_solution_residual(solution: RiccatiSolution, data: ProblemData) -> float:
    """A posteriori defect of dP/dt + f(P, 0) = 0 on the stored grid.

    Central differences with the output-grid spacing at PROBE_POINTS
    interior times; a genuine solution stays within roughly
    10 * rel_tol * (1 + max||P||) once the grid is dense enough for the
    stencil truncation to be negligible.  Raises ValueError without a completed
    solution or an interior point, ConstraintViolation where hat_R is not positive.
    """
    if not solution.completed:
        raise ValueError("residual check requires a completed solution")
    grid, P = solution.grid, solution.P
    n_out = grid.size
    if n_out < 3:
        raise ValueError("residual check needs at least 3 stored points")
    h = (grid[-1] - grid[0]) / (n_out - 1)
    idx = np.unique(np.linspace(1, n_out - 2, min(PROBE_POINTS, n_out - 2)).round().astype(int))
    H = lq_block(data.blocks_at(grid[idx]), symmetrize(P[idx]))
    margin = min_eigenvalue(H[:, data.n:, data.n:])
    bad = np.flatnonzero(margin <= 0.0)
    if bad.size:
        raise ConstraintViolation(grid[idx[bad[0]]], margin[bad[0]])
    res = (P[idx + 1] - P[idx - 1]) / (2.0 * h) + schur_complement(H, data.n)
    return float(np.max(np.sqrt(np.sum(res * res, axis=(-2, -1)))))
