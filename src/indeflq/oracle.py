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
at once, and the value one step earlier is Pn - G' S^-1 G.  M / delta is the
discrete analogue of ``core.lq_block``'s H, computed here by its own code on
purpose: the recursion stays a cross-check of the continuous solver rather
than a second use of its kernel, and S / delta = R + sum D'PD + delta B'PB is
not H's effective weight; its positivity is what the discrete problem needs.

A ladder of step counts runs in lockstep: one backward loop whose iteration
i takes step N - 1 - i of every recursion with N > i, their values stacked
along a leading axis, so each numpy call serves all of them.  The counts are
kept in descending order, so the live ones are a prefix; a count leaves the
stack when it completes or when its S loses positivity.  W_j and Z_j are
built for a span of iterations at a time: a span ends where the next count
completes, and holds at most max(steps) rows (iterations x live counts), so
no table is larger than the one a single recursion of max(steps) steps
needs.  ``dp_solve`` is the ladder of one count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_EPS_POS, ProblemData, symmetrize

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
    count given twice is computed once.
    """
    counts = sorted({int(ns) for ns in steps}, reverse=True)
    if not counts or counts[-1] < 1:
        raise ValueError("step counts must be at least 1")
    n, k, d = data.n, data.k, data.d
    rows = (d + 1) * n
    live = np.array(counts)
    delta = data.T / live
    bound = eps_pos * delta
    P = np.repeat(symmetrize(data.N)[None], live.size, axis=0)
    done = {}
    i = 0
    while live.size:
        stop = min(int(live[-1]), i + counts[0] // live.size)
        W, Z = _step_tables(data, live, delta, i, stop)
        for a in range(stop - i):
            # P is symmetric, so (P W_j)' W_j = W_j' diag(P, ..., P) W_j
            W_rows = W[a].reshape(-1, rows, n + k)
            M = (P[:, None] @ W[a]).reshape(-1, rows, n + k).swapaxes(-1, -2) @ W_rows + Z[a]
            # a 1x1 block is symmetric already, so only k > 1 and n > 1 symmetrize
            S = M[:, n:, n:] if k == 1 else symmetrize(M[:, n:, n:])
            failed = (S[:, 0, 0] if k == 1 else np.linalg.eigvalsh(S)[:, 0]) <= bound
            if failed.any():
                for e in np.flatnonzero(failed):
                    done[int(live[e])] = OracleResult(delta=float(delta[e]), P0=None,
                                                      constraint_ok=False,
                                                      violation_step=int(live[e]) - 1 - i - a)
                kept = ~failed
                live, delta, bound = live[kept], delta[kept], bound[kept]
                if not live.size:
                    break
                W, Z, M, S = W[:, kept], Z[:, kept], M[kept], S[kept]
            G = M[:, n:, :n]
            K = G / S if k == 1 else np.linalg.solve(S, G)
            P = M[:, :n, :n] - G.swapaxes(-1, -2) @ K
            if n > 1:
                P = symmetrize(P)
        i = stop
        if live.size and live[-1] == i:  # the smallest live count has completed
            done[i] = OracleResult(delta=float(delta[-1]), P0=P[-1].copy(), constraint_ok=True)
            live, delta, bound, P = live[:-1], delta[:-1], bound[:-1], P[:-1]
    return [done[int(ns)] for ns in steps]


def dp_solve(data: ProblemData, n_steps: int, eps_pos: float = DEFAULT_EPS_POS) -> OracleResult:
    """Backward value recursion with n_steps uniform steps on [0, T].

    Coefficients are sampled at the left endpoint of each step, matching the
    simulation module's convention.  The recursion aborts with
    ``constraint_ok = False`` as soon as the discrete effective control weight
    S loses positivity (min eigenvalue at or below eps_pos * delta).
    """
    return dp_ladder(data, (n_steps,), eps_pos)[0]
