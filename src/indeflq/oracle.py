"""Discrete-time dynamic-programming oracle.

Independent brute-force check of the continuous Riccati flow: the standard
backward recursion for the discrete stochastic LQ problem obtained by Euler
transcription of the drift (I + A*delta, B*delta) and sqrt(delta) scaling of
the diffusions.  Its value matrix at time zero converges to P(0) of the
continuous problem at first order in the step, which is what the acceptance
tests exercise.

Each step is one block product.  With the step's stacked transition

    W_j = [[I + A delta,     B delta    ],
           [C_i sqrt(delta), D_i sqrt(delta)]]   (one row block per channel i)

and Z_j = diag(Q delta, R delta), the matrix

    M = W_j' diag(P, ..., P) W_j + Z_j = [[Pn, G'], [G, S]]

holds the state block Pn, the gain term G and the discrete control weight S
at once.  S is tested first: its entry when k = 1, else one ``eigvalsh``,
which reads the lower triangle.  Then ``core.schur_complement`` eliminates
the control rows of M, on pivots above eps_pos * delta > 0, and leaves the
value one step earlier, Pn - G' S^-1 G.  P is symmetrized once, when its
count completes.  M / delta is the discrete analogue of ``core.lq_block``'s
H, built by its own code to stay an independent cross-check: only the
elimination is shared.  S / delta = R + sum D'PD + delta B'PB is not H's
effective weight.

A ladder of step counts runs in lockstep: one backward loop whose iteration
i takes step N - 1 - i of every recursion with N > i, their values stacked
along a leading axis, so each numpy call serves all of them.  The counts are
kept in descending order, so the live ones are a prefix; a count leaves the
stack when it completes or when its S loses positivity.  W_j and Z_j are
built for a span of iterations at a time, which ends where the next count
completes and holds at most max(steps) rows (iterations x live counts): no
table outgrows that of one recursion of max(steps) steps.  ``dp_solve`` is
the ladder of one count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_EPS_POS, ProblemData, schur_complement, symmetrize

__all__ = ["OracleResult", "dp_ladder", "dp_solve"]


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


def _step_tables(data: ProblemData, counts, delta, first, stop):
    """W_j and Z_j of iterations first..stop-1 for each count: (iterations, counts, ...).

    Iteration i takes step j = N - 1 - i of the count N, whose coefficients
    are sampled at its left endpoint j * delta.
    """
    n, k, d = data.n, data.k, data.d
    j = counts - 1 - np.arange(first, stop)[:, None]
    AB, V, Z = data.blocks_at(j * delta)
    dt = delta[:, None, None]
    # W[a, e] holds the d + 1 row blocks of W_j, each n x (n + k)
    W = np.empty(j.shape + (d + 1, n, n + k))
    W[..., 0, :, :] = AB * dt
    W[..., 0, :, :n] += np.eye(n)
    W[..., 1:, :, :] = np.moveaxis(V, 0, -3) * np.sqrt(delta)[:, None, None, None]
    return W, Z * dt


def dp_ladder(data: ProblemData, steps, eps_pos: float = DEFAULT_EPS_POS) -> list[OracleResult]:
    """``dp_solve`` at each step count of ``steps``, in one lockstep backward loop.

    Returns one OracleResult per entry of ``steps``, in argument order; a
    count given twice is computed once.  Step counts must be integers of at
    least 1 and ``eps_pos`` positive and finite, else ValueError.
    """
    if (len(steps) == 0 or not all(float(ns).is_integer() and ns >= 1 for ns in steps)
            or not 0.0 < eps_pos < np.inf):
        raise ValueError("step counts must be integers of at least 1 and eps_pos positive and "
                         f"finite, got steps {list(steps)} and eps_pos {eps_pos!r}")
    counts = sorted({int(ns) for ns in steps}, reverse=True)
    n, k, rows = data.n, data.k, (data.d + 1) * data.n
    live = np.array(counts)
    delta = data.T / live
    bound = eps_pos * delta
    P = np.repeat(data.N[None], live.size, axis=0)
    done, i = {}, 0
    while live.size:
        stop = min(int(live[-1]), i + counts[0] // live.size)
        W, Z = _step_tables(data, live, delta, i, stop)
        Wt = W.reshape(stop - i, live.size, rows, n + k).swapaxes(-1, -2)
        for a in range(stop - i):
            # P is symmetric up to rounding, so W_j' (P W_j) = W_j' diag(P, ..., P) W_j
            M = Wt[a] @ (P[:, None] @ W[a]).reshape(-1, rows, n + k)
            M += Z[a]
            failed = (M[:, n, n] if k == 1 else np.linalg.eigvalsh(M[:, n:, n:])[:, 0]) <= bound
            if failed.any():
                for N in live[failed].tolist():
                    done[N] = OracleResult(data.T / N, None, False, violation_step=N - 1 - i - a)
                kept = ~failed
                live, delta, bound = live[kept], delta[kept], bound[kept]
                if not live.size:
                    break
                W, Wt, Z, M = W[:, kept], Wt[:, kept], Z[:, kept], M[kept]
            P = schur_complement(M, n)
        i = stop
        if live.size and live[-1] == i:  # the smallest live count has completed
            done[i] = OracleResult(data.T / i, symmetrize(P[-1]), True)
            live, delta, bound, P = live[:-1], delta[:-1], bound[:-1], P[:-1]
    return [done[int(ns)] for ns in steps]


def dp_solve(data: ProblemData, n_steps: int, eps_pos: float = DEFAULT_EPS_POS) -> OracleResult:
    """Backward value recursion with n_steps uniform steps on [0, T].

    Coefficients are sampled at the left endpoint of each step, matching the
    simulation module's convention.  Each step tests S (``eigvalsh`` on its
    lower triangle when k > 1) and is then one ``schur_complement``; the recursion aborts
    with ``constraint_ok = False`` once S is at or below eps_pos * delta.
    P0 is symmetrized once, at completion.
    """
    return dp_ladder(data, (n_steps,), eps_pos)[0]
