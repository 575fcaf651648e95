"""Discrete-time dynamic-programming oracle.

Independent brute-force check of the continuous Riccati flow: the standard
backward recursion for the discrete stochastic LQ problem obtained by Euler
transcription of the drift (I + A*delta, B*delta) and sqrt(delta) scaling of
the diffusions.  Its value matrix at time zero converges to P(0) of the
continuous problem at first order in the step, which is what the acceptance
tests exercise.
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
    n = data.n
    delta = data.T / n_steps
    sq = np.sqrt(delta)
    eye = np.eye(n)
    P = symmetrize(np.asarray(data.N, dtype=float))

    t_left = np.arange(n_steps) * delta
    A_, B_, C_, D_, R_, Q_ = data.stacked_at(t_left)

    for j in range(n_steps - 1, -1, -1):
        Ad = eye + A_[j] * delta
        Bd = B_[j] * delta
        S = R_[j] * delta + Bd.T @ P @ Bd
        G = Bd.T @ P @ Ad
        Pn = Q_[j] * delta + Ad.T @ P @ Ad
        for i in range(data.d):
            Cd = C_[i, j] * sq
            Dd = D_[i, j] * sq
            DdP = Dd.T @ P
            S = S + DdP @ Dd
            G = G + DdP @ Cd
            Pn = Pn + Cd.T @ P @ Cd
        S = symmetrize(S)
        if min_eigenvalue(S) <= eps_pos * delta:
            return OracleResult(delta=delta, P0=None, constraint_ok=False, violation_step=j)
        P = symmetrize(Pn - G.T @ np.linalg.solve(S, G))
    return OracleResult(delta=delta, P0=P, constraint_ok=True)
