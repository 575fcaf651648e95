"""Discrete-time dynamic-programming oracle.

Independent brute-force check of the continuous Riccati flow: the standard
backward recursion for the discrete stochastic LQ problem obtained by Euler
transcription of the drift (I + A*delta, B*delta) and sqrt(delta) scaling of
the diffusions.  Its value matrix at time zero converges to P(0) of the
continuous problem at first order in the step, which is what the acceptance
tests exercise.

Each step forms one matrix.  With the step's stacked transition

    W_j = [[I + A delta,     B delta    ],
           [C_i sqrt(delta), D_i sqrt(delta)]]   (one row block per channel i)

and Z_j = diag(Q delta, R delta), the matrix

    M = W_j' diag(P, ..., P) W_j + Z_j = [[Pn, G'], [G, S]]

holds the state block Pn, the gain term G and the discrete control weight S
at once.  ``core.schur_steps`` (``core.schur_complement`` over a span) eliminates
the control rows of each M into P, the value one step earlier, Pn - G' S^-1 G;
the sweep is exact when its pivots are above eps_pos * delta > 0, which the
test of S below checks after the fact.  P is symmetrized once, when its count
completes.  M / delta is the discrete analogue of ``core.lq_block``'s H, built
by its own code to stay an independent cross-check: only the elimination is shared.
S / delta = R + sum D'PD + delta B'PB is not H's effective weight.

On time-invariant data each count's step is one product vec M = Kz [vec P; 1]
by its map Kz = [sum_e W_e' kron W_e' | vec Z_j] over the row blocks W_e of W_j,
built once per call from the oracle's own W and Z (not ``core.lq_block_map``)
where K has at most ``core.MAP_MAX_ENTRIES`` entries and twice the maps of all
counts fit in ``core.MAX_TABLE_ENTRIES``; else each step is the block product.

A ladder of step counts runs in lockstep: one backward loop whose iteration
i takes step N - 1 - i of every recursion with N > i, their values stacked
along a leading axis, so each numpy call serves all of them.  The counts are
kept in descending order, so the live ones are a prefix.  The loop runs one
span of iterations at a time, which ends where the next count completes; its
M, and W_j and Z_j of a block product, hold at most max(steps) rows
(iterations x live counts), as one recursion of max(steps) steps does.  A span
that starts at iteration i also ends by 2 i + FIRST_SPAN, so the spans double
from FIRST_SPAN iterations.  Every live count steps through the span untested.
At the span's end one pass over its M finds each count's first failing S (its
entry at or below eps_pos * delta when k = 1, else one ``eigvalsh`` over the
span's S, which reads the lower triangle) and its first M that is not finite.
A failing S that comes first ends the count with ``constraint_ok = False`` at
that step; a non-finite M that comes first raises ``NumericalOverflow`` with
its step.  A count that failed part-way steps on through the span's end on
values that are never read, and no other count's values depend on them: each
stacked product is per matrix.  A count leaves the stack when it completes or
fails.  ``dp_solve`` is the ladder of one count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import DEFAULT_EPS_POS, ProblemData, schur_steps, symmetrize
from .errors import NumericalOverflow

__all__ = ["OracleResult", "dp_ladder", "dp_solve"]

# iterations of the first span; a span that starts at iteration i ends by 2 i + FIRST_SPAN,
# so a count that fails at iteration f is stepped through at most 2 f + FIRST_SPAN
FIRST_SPAN = 32


@dataclass
class OracleResult:
    """Result of one backward recursion with step ``delta``."""

    delta: float
    P0: np.ndarray | None
    constraint_ok: bool
    violation_step: int | None = None

    def error_vs(self, P_ref) -> float:
        if self.P0 is None:
            return float("nan")
        diff = self.P0 - np.asarray(P_ref, dtype=float)
        return float(np.sqrt(np.sum(diff * diff)))


def _step_tables(blocks, delta):
    """W_j and Z_j of ``blocks`` = ``ProblemData.blocks_at`` at each count's step times
    (leading axes that end in one per count) or at one time for every count."""
    AB, V, Z = blocks
    n, m = AB.shape[-2:]
    dt = delta[:, None, None]
    # W[..., e] holds the d + 1 row blocks of W_j, each n x (n + k)
    W = np.empty(np.broadcast_shapes(AB.shape[:-2], delta.shape) + (1 + len(V), n, m))
    W[..., 0, :, :] = AB * dt
    W[..., 0, :, :n] += np.eye(n)
    W[..., 1:, :, :] = np.moveaxis(V, 0, -3) * np.sqrt(delta)[:, None, None, None]
    return W, Z * dt


def _first(mask):
    """Each column's first row where ``mask`` holds, else the row count."""
    return np.where(mask.any(axis=0), mask.argmax(axis=0), len(mask))


def _span_faults(M, n, bound):
    """Where S = M[..., n:, n:] is at or below ``bound`` and where M is not finite.

    M holds a span's (iterations, counts) stack of step matrices.  An S that is
    not finite has not failed; it is an overflow.  eigvalsh reads S's lower
    triangle, once for the whole span, and would raise on a non-finite S, which
    is zeroed first.
    """
    finite = np.isfinite(M).all(axis=(-2, -1))
    S = M[..., n:, n:]
    if S.shape[-1] == 1:
        return S[..., 0, 0] <= bound, ~finite
    S_finite = np.isfinite(S).all(axis=(-2, -1))
    lam = np.linalg.eigvalsh(np.where(S_finite[..., None, None], S, 0.0))[..., 0]
    return S_finite & (lam <= bound), ~finite


def dp_ladder(data: ProblemData, steps, eps_pos: float = DEFAULT_EPS_POS) -> list[OracleResult]:
    """``dp_solve`` at each step count of ``steps``, in one lockstep backward loop.

    Returns one OracleResult per entry of ``steps``, in argument order; a
    count given twice is computed once.  Step counts must be integers of at
    least 1 and ``eps_pos`` positive and finite, else ValueError.  Raises
    NumericalOverflow when a count's value leaves the float range before its
    S fails, with that count's DP step (the largest such count of the first
    span where one does).
    """
    if (len(steps) == 0 or not all(float(ns).is_integer() and ns >= 1 for ns in steps)
            or not 0.0 < eps_pos < np.inf):
        raise ValueError("step counts must be integers of at least 1 and eps_pos positive and "
                         f"finite, got steps {list(steps)} and eps_pos {eps_pos!r}")
    counts = sorted({int(ns) for ns in steps}, reverse=True)
    n, k, m, rows = data.n, data.k, data.n + data.k, (data.d + 1) * data.n
    live = np.array(counts)
    delta = data.T / live
    bound = eps_pos * delta
    P = np.repeat(data.N[None], live.size, axis=0)
    # step maps only where twice their stack fits: building it, or dropping a count, copies it
    Kz = None
    if (data.time_invariant and (n * m) ** 2 <= core.MAP_MAX_ENTRIES
            and 2 * live.size * m * m * (n * n + 1) <= core.MAX_TABLE_ENTRIES):
        W, Z = _step_tables(data.blocks_at(0.0), delta)
        Kz = np.concatenate((np.einsum("ceap,cebq->cpqab", W, W).reshape(live.size, m * m, -1),
                             Z.reshape(live.size, -1, 1)), axis=2)
    done, i = {}, 0
    # a count that failed mid-span steps on until the span ends, through zero or
    # negative pivots; its values are dropped at the span's end, unread
    with np.errstate(all="ignore"):
        while live.size:
            stop = min(int(live[-1]), i + counts[0] // live.size, 2 * i + FIRST_SPAN)
            if Kz is not None:
                # [vec P; 1] of each count, and P as a view of it
                Pv = np.concatenate((P.reshape(-1, n * n, 1), np.ones((live.size, 1, 1))), axis=1)
                P = Pv[:, :-1, 0].reshape(-1, n, n)
                Ms = np.empty((stop - i, live.size, m, m))
                # the generator first: it eliminates each M into P when zip asks for the next
                for _, Ma in zip(schur_steps(Ms, n, P), Ms.reshape(stop - i, -1, m * m, 1)):
                    np.matmul(Kz, Pv, out=Ma)
            else:
                j = live - 1 - np.arange(i, stop)[:, None]
                W, Ms = _step_tables(data.blocks_at(j * delta), delta)
                Wt = W.reshape(stop - i, live.size, rows, m).swapaxes(-1, -2)
                for a, Ma in enumerate(schur_steps(Ms, n, P)):
                    # M = W_j' (P W_j) + Z_j, in place of Z_j; P is symmetric up to
                    # rounding, so W_j' (P W_j) = W_j' diag(P, ..., P) W_j
                    Ma += Wt[a] @ (P[:, None] @ W[a]).reshape(-1, rows, m)
                # free each table once read, before the next span builds its own
                del W, Wt
            failed, overflowed = _span_faults(Ms, n, bound)
            del Ms
            fail_at, over_at = _first(failed), _first(overflowed)
            overflow = over_at < fail_at
            if overflow.any():
                N = int(live[overflow][0])
                j = N - 1 - i - int(over_at[overflow][0])
                raise NumericalOverflow(f"DP value of {N} steps overflowed at step {j}", j)
            stopped = fail_at < stop - i
            for N, a in zip(live[stopped].tolist(), fail_at[stopped].tolist()):
                done[N] = OracleResult(data.T / N, None, False, violation_step=N - 1 - i - a)
            i = stop
            if live[-1] == i and not stopped[-1]:  # the smallest live count has completed
                P0 = symmetrize(P[-1])
                if not np.isfinite(P0).all():
                    raise NumericalOverflow(f"DP value of {i} steps overflowed at step 0", 0)
                done[i] = OracleResult(data.T / i, P0, True)
                stopped[-1] = True
            kept = ~stopped
            live, delta, bound, P = live[kept], delta[kept], bound[kept], P[kept]
            Kz = None if Kz is None else Kz[kept]
    return [done[int(ns)] for ns in steps]


def dp_solve(data: ProblemData, n_steps: int, eps_pos: float = DEFAULT_EPS_POS) -> OracleResult:
    """Backward value recursion with n_steps uniform steps on [0, T].

    Coefficients are sampled at the left endpoint of each step, matching the
    simulation module's convention.  Each step is one ``core.schur_steps``
    elimination; S is tested after each span of steps (its entry when k = 1, else
    ``eigvalsh`` on its lower triangle), and the result has
    ``constraint_ok = False`` and the step of the first S at or below
    eps_pos * delta.  NumericalOverflow carries the step of the first
    non-finite M when that comes first.  P0 is symmetrized once, at
    completion.
    """
    return dp_ladder(data, (n_steps,), eps_pos)[0]
