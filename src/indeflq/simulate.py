"""Monte Carlo verification of the synthesized feedback controls.

Simulates the controlled linear SDE with Euler-Maruyama stepping and
left-point coefficient evaluation, estimates the quadratic cost, checks the
value identity against xi'P(0)xi, and evaluates both sides of the
completing-the-square decomposition with common random numbers.

Randomness is counter-based: path ``p`` of a run draws from a Philox stream
keyed by ``(seed, p)``, so results are independent of how paths are
partitioned across workers.  With antithetic pairing (the default) index
``p`` drives the mirrored pair (W, -W) and statistics are computed over pair
averages.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import CoefficientPath, ProblemData, lq_terms, path_samples, symmetrize
from .errors import GridMismatch, NumericalOverflow
from .riccati import RiccatiSolution

__all__ = [
    "SimConfig",
    "ControlPolicy",
    "SimulationReport",
    "simulate_cost",
    "completing_square_report",
    "fundamental_pair_check",
    "hamiltonian_identity_check",
]

STATE_NORM_CAP = 1e12
# largest run, n_paths x n_steps (pairs or plain paths times Euler steps)
MAX_PATH_STEPS = 10 ** 8
# paths per block are sized so that one block draws about this many increments
BLOCK_INCREMENTS = 2_000_000


@dataclass
class SimConfig:
    """Monte Carlo controls.

    ``n_paths`` counts antithetic pairs when ``antithetic`` is set, plain
    paths otherwise.  Per-path streams are keyed by (seed, path index).
    """

    n_paths: int = 10_000
    n_steps: int = 256
    seed: int = 0
    antithetic: bool = True

    def validate(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be positive")
        if self.n_paths * self.n_steps > MAX_PATH_STEPS:
            raise ValueError(f"n_paths x n_steps must not exceed {MAX_PATH_STEPS:.0e}")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")


@dataclass
class ControlPolicy:
    """The control u = G(t) x + v(t); an absent path contributes nothing.

    ``gain`` G holds k x n matrices and ``perturb`` v holds k-vectors.  Each
    is a CoefficientPath on its own grid (a perturbation path holds k x 1
    columns) or a value ``core.path_samples`` reads on the problem grid: one
    constant or one sample per grid point.
    """

    gain: CoefficientPath | None = None
    perturb: CoefficientPath | None = None

    @classmethod
    def from_solution(cls, solution: RiccatiSolution) -> "ControlPolicy":
        return cls(gain=CoefficientPath(solution.grid, solution.gain))


@dataclass
class SimulationReport:
    """Cost statistics, and both sides of the completing-the-square identity."""

    cost_mean: float
    cost_stderr: float
    n_paths: int
    cs_lhs: float | None = None
    cs_rhs: float | None = None
    cs_residual: float | None = None
    cs_stderr: float | None = None


def _policy_at(value, data: ProblemData, shape, name, t):
    """A gain or perturbation at times ``t``, as (len(t), rows, cols) values.

    A CoefficientPath is read on its own grid; any other value goes through
    ``path_samples`` on the problem grid, a vector shape taken as columns.
    """
    rows, cols = shape[0], int(np.prod(shape[1:]))
    if not isinstance(value, CoefficientPath):
        samples = path_samples(value, data.grid.size, shape, name)
        value = CoefficientPath(data.grid, samples.reshape(-1, rows, cols))
    elif value.shape != (rows, cols):
        raise GridMismatch(f"{name}: expected a path of shape {(rows, cols)}, "
                           f"got shape {value.shape}")
    return value.at(t)


class _EulerSetup:
    """Left-endpoint coefficient and policy tables for one simulation run."""

    def __init__(self, data: ProblemData, policy: ControlPolicy, n_steps: int):
        self.n, self.k, self.d = data.n, data.k, data.d
        self.dt = data.T / n_steps
        self.n_steps = n_steps
        t_left = np.arange(n_steps) * self.dt
        A_, B_, C_, D_, R_, Q_ = data.stacked_at(t_left)
        self.At = np.swapaxes(A_, -1, -2).copy()
        self.Bt = np.swapaxes(B_, -1, -2).copy()
        self.Ct = np.swapaxes(C_, -1, -2).copy()  # (d, steps, n, n)
        self.Dt = np.swapaxes(D_, -1, -2).copy()  # (d, steps, k, n)
        # copies: stacked_at returns views into one wide table, and the
        # per-step quadratic forms run faster on contiguous blocks
        self.R = R_.copy()
        self.Q = Q_.copy()
        self.N = symmetrize(data.N)
        self.Gt = self.v = None
        if policy.gain is not None:
            G = _policy_at(policy.gain, data, (data.k, data.n), "gain", t_left)
            self.Gt = np.swapaxes(G, -1, -2).copy()  # (steps, n, k)
        if policy.perturb is not None:
            self.v = _policy_at(policy.perturb, data, (data.k,), "perturbation", t_left)[:, :, 0]

    def control(self, j, x):
        u = x @ self.Gt[j] if self.Gt is not None else np.zeros((x.shape[0], self.k))
        if self.v is not None:
            u = u + self.v[j]
        return u


def _wiener_increments(seed, indices, n_steps, d, dt, antithetic):
    """Wiener increments (paths, n_steps, d) for a block of path indices.

    Path ``p`` draws from the Philox stream keyed by (seed, p); with
    antithetic pairing the mirrored block -W follows the block W.
    """
    b = indices.size
    dW = np.empty((2 * b if antithetic else b, n_steps, d))
    for r, idx in enumerate(indices):
        gen = Generator(Philox(key=np.array([seed, int(idx)], dtype=np.uint64)))
        gen.standard_normal(out=dW[r])
    # filled in place: one block-sized buffer, no block-sized temporaries
    np.multiply(dW[:b], np.sqrt(dt), out=dW[:b])
    if antithetic:
        np.negative(dW[:b], out=dW[b:])
    return dW


def _run_cost_block(data_setup: _EulerSetup, cs_tables, xi, seed, indices, antithetic):
    """Per-path (or per-pair) cost, and the squared-deviation accumulator."""
    su = data_setup
    b = indices.size
    dW = _wiener_increments(seed, indices, su.n_steps, su.d, su.dt, antithetic)
    nb = dW.shape[0]
    x = np.broadcast_to(np.asarray(xi, dtype=float), (nb, su.n)).copy()
    cost = np.zeros(nb)
    qacc = np.zeros(nb) if cs_tables is not None else None
    for j in range(su.n_steps):
        u = su.control(j, x)
        cost += (
            np.einsum("bi,ij,bj->b", u, su.R[j], u)
            + np.einsum("bi,ij,bj->b", x, su.Q[j], x)
        ) * su.dt
        if cs_tables is not None:
            Gs_t, hatRs = cs_tables
            w = u - x @ Gs_t[j]
            qacc += np.einsum("bi,ij,bj->b", w, hatRs[j], w) * su.dt
        drift = x @ su.At[j] + u @ su.Bt[j]
        noise = np.zeros_like(x)
        for i in range(su.d):
            noise += (x @ su.Ct[i, j] + u @ su.Dt[i, j]) * dW[:, j, i:i + 1]
        x = x + drift * su.dt + noise
        if float(np.max(np.sum(x * x, axis=1))) > STATE_NORM_CAP ** 2:
            raise NumericalOverflow(
                f"state norm exceeded {STATE_NORM_CAP:g} at step {j} (explosive closed loop)"
            )
    cost += np.einsum("bi,ij,bj->b", x, su.N, x)
    if antithetic:
        cost = 0.5 * (cost[:b] + cost[b:])
        if qacc is not None:
            qacc = 0.5 * (qacc[:b] + qacc[b:])
    return cost, qacc


def _for_blocks(config: SimConfig, d: int, work, n_workers: int = 1):
    """``work(indices)`` on consecutive blocks of path indices, results in index order.

    A block holds about BLOCK_INCREMENTS Wiener increments; the blocks run on
    up to ``n_workers`` threads.
    """
    size = max(1, BLOCK_INCREMENTS // max(1, config.n_steps * d))
    starts = range(0, config.n_paths, size)

    def run(lo):
        return work(np.arange(lo, min(config.n_paths, lo + size), dtype=np.uint64))

    if n_workers <= 1 or len(starts) == 1:
        return [run(lo) for lo in starts]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(run, starts))


def _stderr(values):
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(values.size))


def _simulate(data, policy, xi, config, n_workers, solution=None) -> SimulationReport:
    """Cost statistics; with a solution, both sides of the completing-square identity."""
    config.validate()
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (data.n,):
        raise ValueError(f"xi must be an {data.n}-vector")
    setup = _EulerSetup(data, policy, config.n_steps)
    tables = None if solution is None else _cs_tables(data, solution, config.n_steps)

    def work(idx):
        return _run_cost_block(setup, tables, xi, config.seed, idx, config.antithetic)

    # per-pair statistics in path-index order, independent of the partition
    parts = _for_blocks(config, data.d, work, n_workers)
    costs = np.concatenate([p[0] for p in parts])
    rep = SimulationReport(
        cost_mean=float(np.mean(costs)),
        cost_stderr=_stderr(costs),
        n_paths=costs.size * (2 if config.antithetic else 1),
    )
    if solution is not None:
        qaccs = np.concatenate([p[1] for p in parts])
        value0 = solution.value_at(xi)
        diffs = costs - qaccs
        rep.cs_lhs = float(np.mean(costs) - value0)
        rep.cs_rhs = float(np.mean(qaccs))
        rep.cs_residual = float(abs(np.mean(diffs) - value0))
        rep.cs_stderr = _stderr(diffs)
    return rep


def simulate_cost(
    data: ProblemData,
    policy: ControlPolicy,
    xi,
    config: SimConfig,
    n_workers: int = 1,
) -> SimulationReport:
    """Estimate the quadratic cost of a policy from state xi.

    Euler-Maruyama state stepping with left-point coefficient evaluation and
    left-rectangle quadrature of the running cost.  Raises NumericalOverflow
    when a path's state norm exceeds 1e12.
    """
    return _simulate(data, policy, xi, config, n_workers)


def _cs_tables(data: ProblemData, solution: RiccatiSolution, n_steps: int):
    t_left = np.arange(n_steps) * (data.T / n_steps)
    P = CoefficientPath(solution.grid, solution.P).at(t_left)
    G = CoefficientPath(solution.grid, solution.gain).at(t_left)
    hat, _, _ = lq_terms(data.stacked_at(t_left), P)
    return np.swapaxes(G, -1, -2).copy(), hat


def completing_square_report(
    data: ProblemData,
    P_solution: RiccatiSolution,
    policy: ControlPolicy,
    xi,
    config: SimConfig,
    n_workers: int = 1,
) -> SimulationReport:
    """Estimate both sides of J(u; xi) - xi'P(0)xi = E int (u - Gx)' hat_R (u - Gx) dt.

    Both accumulators run on the same Wiener increments (common random
    numbers), so the reported residual is the pathwise defect of the identity
    rather than a difference of independent estimates.
    """
    if not P_solution.completed:
        raise ValueError("completing-square check requires a completed Riccati solution")
    return _simulate(data, policy, xi, config, n_workers, P_solution)


def fundamental_pair_check(data: ProblemData, gain, config: SimConfig) -> float:
    """Worst defect ||Xtilde X - I|| of the closed-loop fundamental pair.

    Simulates the matrix flow X with drift A + B G and diffusions C_i + D_i G,
    and the inverse flow Xtilde with drift -(A' - sum C'^2) acting from the
    right, on the same increments; Euler stepping converges at strong order
    1/2, so the defect shrinks like sqrt(T / n_steps).  ``gain`` is read like
    ``ControlPolicy.gain``.
    """
    config.validate()
    n, d = data.n, data.d
    n_steps = config.n_steps
    dt = data.T / n_steps
    t_left = np.arange(n_steps) * dt
    A_, B_, C_, D_, R_, Q_ = data.stacked_at(t_left)
    G_ = _policy_at(gain, data, (data.k, n), "gain", t_left)
    Acl = A_ + np.einsum("tnk,tkr->tnr", B_, G_)
    Ccl = C_ + np.einsum("itnk,tkr->itnr", D_, G_)
    # inverse-flow drift: Acl - sum_i Ccl_i Ccl_i
    Ainv = Acl - np.einsum("itpq,itqr->tpr", Ccl, Ccl)
    eye = np.eye(n)

    def block_worst(idx):
        dW = _wiener_increments(config.seed, idx, n_steps, d, dt, config.antithetic)
        nb = dW.shape[0]
        X = np.broadcast_to(eye, (nb, n, n)).copy()
        Xt = np.broadcast_to(eye, (nb, n, n)).copy()
        worst = 0.0
        for j in range(n_steps):
            dX = np.matmul(Acl[j], X) * dt
            dXt = -np.matmul(Xt, Ainv[j]) * dt
            for i in range(d):
                w = dW[:, j, i, None, None]
                dX += np.matmul(Ccl[i, j], X) * w
                dXt -= np.matmul(Xt, Ccl[i, j]) * w
            X = X + dX
            Xt = Xt + dXt
            prod = np.matmul(Xt, X) - eye
            defect = float(np.max(np.sqrt(np.sum(prod * prod, axis=(-2, -1)))))
            worst = max(worst, defect)
            if max(float(np.max(np.abs(X))), float(np.max(np.abs(Xt)))) > STATE_NORM_CAP:
                raise NumericalOverflow("fundamental pair flow overflowed")
        return worst

    return max(_for_blocks(config, d, block_worst))


def hamiltonian_identity_check(
    data: ProblemData, P_solution: RiccatiSolution, probe_points: int = 64
) -> float:
    """Algebraic defect of the stationarity condition along a solved path.

    Evaluates || hat_R(P) G + B'P + sum_i D_i'P C_i || at probe times; the
    gain is defined as the exact solution of this linear system, so the
    defect is numerical noise, of order 1e-10 (1 + ||P||).
    """
    if not P_solution.completed:
        raise ValueError("identity check requires a completed Riccati solution")
    grid = P_solution.grid
    idx = np.unique(
        np.linspace(0, grid.size - 1, min(probe_points, grid.size)).round().astype(int)
    )
    times = grid[idx]
    P = P_solution.P[idx]
    G = P_solution.gain[idx]
    hat, rhs, _ = lq_terms(data.stacked_at(times), P)
    defect = hat @ G + rhs
    return float(np.max(np.sqrt(np.sum(defect * defect, axis=(-2, -1)))))
