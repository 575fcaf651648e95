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
at once, and the value one step earlier is Pn - G' S^-1 G.  This S is not
``core.lq_terms``' effective weight: S / delta = R + sum D'PD + delta B'PB,
and its positivity is what the discrete problem needs.  The recursion keeps
its own expression, so it stays a cross-check of the continuous solver
rather than a second use of its kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_EPS_POS, ProblemData, min_eigenvalue, symmetrize

__all__ = ["OracleResult", "dp_solve"]


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


def dp_solve(data: ProblemData, n_steps: int, eps_pos: float = DEFAULT_EPS_POS) -> OracleResult:
    """Backward value recursion with n_steps uniform steps on [0, T].

    Coefficients are sampled at the left endpoint of each step, matching the
    simulation module's convention.  The recursion aborts with
    ``constraint_ok = False`` as soon as the discrete effective control weight
    S loses positivity (min eigenvalue at or below eps_pos * delta).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    n, k, d = data.n, data.k, data.d
    delta = data.T / n_steps
    sq = np.sqrt(delta)
    P = symmetrize(np.asarray(data.N, dtype=float))

    t_left = np.arange(n_steps) * delta
    A_, B_, C_, D_, R_, Q_ = data.stacked_at(t_left)
    # W[j] holds the d + 1 row blocks of W_j, each n x (n + k)
    W = np.empty((n_steps, d + 1, n, n + k))
    W[:, 0, :, :n] = np.eye(n) + A_ * delta
    W[:, 0, :, n:] = B_ * delta
    W[:, 1:, :, :n] = C_.swapaxes(0, 1) * sq
    W[:, 1:, :, n:] = D_.swapaxes(0, 1) * sq
    rows = (d + 1) * n
    W_rows = W.reshape(n_steps, rows, n + k)
    Z = np.zeros((n_steps, n + k, n + k))
    Z[:, :n, :n] = Q_ * delta
    Z[:, n:, n:] = R_ * delta

    bound = eps_pos * delta
    for j in range(n_steps - 1, -1, -1):
        # P is symmetric, so (P W_j)' W_j = W_j' diag(P, ..., P) W_j
        M = (P @ W[j]).reshape(rows, n + k).T @ W_rows[j] + Z[j]
        G = M[n:, :n]
        S = symmetrize(M[n:, n:])
        if min_eigenvalue(S) <= bound:
            return OracleResult(delta=delta, P0=None, constraint_ok=False, violation_step=j)
        K = G / S if k == 1 else np.linalg.solve(S, G)
        P = symmetrize(M[:n, :n] - G.T @ K)
    return OracleResult(delta=delta, P0=P, constraint_ok=True)
