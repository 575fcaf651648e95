"""Monte Carlo verification of the synthesized feedback controls.

Simulates the controlled linear SDE with Euler-Maruyama stepping and
left-point coefficient evaluation, estimates the quadratic cost, checks the
value identity against xi'P(0)xi, and evaluates both sides of the
completing-the-square decomposition with common random numbers.

Randomness is counter-based: path ``p`` of a run draws from the Philox
stream keyed by ``(seed, p)`` (one bit generator per block, re-keyed for each
path), so results are independent of how paths are partitioned into blocks
and across workers.  With antithetic pairing (the default) index ``p`` drives
the mirrored pair (W, -W) and statistics are computed over pair averages.

Paths are stepped in a column layout: a block's state is an (n, paths) array,
each coefficient acts on all paths with one small matrix product and each
quadratic form is a column sum.
"""

from __future__ import annotations

import time
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
    """Cost statistics, both sides of the completing-the-square identity, and
    the seconds spent drawing increments and stepping paths, summed over blocks."""

    cost_mean: float
    cost_stderr: float
    n_paths: int
    cs_lhs: float | None = None
    cs_rhs: float | None = None
    cs_residual: float | None = None
    cs_stderr: float | None = None
    rng_seconds: float = 0.0
    step_seconds: float = 0.0


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
    """Left-endpoint coefficient, policy and (with a solution) G*, hat R(P) tables."""

    def __init__(self, data: ProblemData, policy: ControlPolicy, n_steps: int, solution=None):
        self.n, self.k, self.d = data.n, data.k, data.d
        self.n_steps, self.dt = n_steps, data.T / n_steps
        t_left = np.arange(n_steps) * self.dt
        coeffs = data.stacked_at(t_left)
        # C and D are (d, steps, ...); every table slice is a contiguous matrix
        self.A, self.B, self.C, self.D, self.R, self.Q = coeffs
        self.N = symmetrize(data.N)
        self.G = self.v = self.G_star = self.hat_R = None
        if policy.gain is not None:
            self.G = _policy_at(policy.gain, data, (data.k, data.n), "gain", t_left)
        if policy.perturb is not None:
            self.v = _policy_at(policy.perturb, data, (data.k,), "perturbation", t_left)
        if solution is not None:
            self.G_star = CoefficientPath(solution.grid, solution.gain).at(t_left)
            P = CoefficientPath(solution.grid, solution.P).at(t_left)
            self.hat_R = lq_terms(coeffs, P)[0]

    def control(self, j, x):
        u = self.G[j] @ x if self.G is not None else np.zeros((self.k, x.shape[1]))
        if self.v is not None:
            u = u + self.v[j]
        return u


def _wiener_increments(seed, indices, n_steps, d, dt):
    """Wiener increments (n_steps, d, paths) for a block of path indices.

    Column ``p`` holds the stream of ``Generator(Philox(key=[seed, p]))``: one
    bit generator is re-keyed per path (counter 0, buffer cleared).
    """
    bits = Philox(0)
    gen = Generator(bits)
    fresh = bits.state
    path = np.empty((n_steps, d))
    dW = np.empty((n_steps, d, indices.size))
    for col, idx in enumerate(indices):
        fresh["state"] = {"counter": np.zeros(4, np.uint64),
                          "key": np.array([seed, idx], dtype=np.uint64)}
        bits.state = fresh
        gen.standard_normal(out=path)
        dW[:, :, col] = path
    np.multiply(dW, np.sqrt(dt), out=dW)
    return dW


def _steps(dW, antithetic):
    """Per-step increments (d, paths), antithetic ones as [dW, -dW] in one reused buffer."""
    if not antithetic:
        yield from dW
        return
    b = dW.shape[2]
    w = np.empty((dW.shape[1], 2 * b))
    for dW_j in dW:
        w[:, :b] = dW_j
        np.negative(dW_j, out=w[:, b:])
        yield w


def _quad(M, x):
    """Column-wise quadratic forms x_p' M x_p."""
    return np.sum(x * (M @ x), axis=0)


def _run_cost_block(su: _EulerSetup, xi, seed, indices, antithetic):
    """Per-path (or per-pair) cost and squared-deviation sum, RNG and stepping seconds.

    The state ``x`` is (n, paths) and the control ``u`` (k, paths); with
    antithetic pairing the mirrored paths are the last half of the columns.
    """
    t0 = time.perf_counter()
    dW = _wiener_increments(seed, indices, su.n_steps, su.d, su.dt)
    t1 = time.perf_counter()
    b = indices.size
    x = np.repeat(xi[:, None], 2 * b if antithetic else b, axis=1)
    cost, qacc = np.zeros((2, x.shape[1]))
    for j, w in enumerate(_steps(dW, antithetic)):
        u = su.control(j, x)
        cost += (_quad(su.R[j], u) + _quad(su.Q[j], x)) * su.dt
        if su.hat_R is not None:
            qacc += _quad(su.hat_R[j], u - su.G_star[j] @ x) * su.dt
        drift = su.A[j] @ x + su.B[j] @ u
        noise = sum((su.C[i, j] @ x + su.D[i, j] @ u) * w[i] for i in range(su.d))
        x = x + drift * su.dt + noise
        # written so that a NaN state fails too
        if not float(np.max(np.sum(x * x, axis=0))) <= STATE_NORM_CAP ** 2:
            raise NumericalOverflow(
                f"state norm exceeded {STATE_NORM_CAP:g} at step {j} (explosive closed loop)"
            )
    cost += _quad(su.N, x)
    if antithetic:
        cost, qacc = (0.5 * (a[:b] + a[b:]) for a in (cost, qacc))
    return cost, qacc, t1 - t0, time.perf_counter() - t1


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
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi: contains non-finite entries")
    setup = _EulerSetup(data, policy, config.n_steps, solution)
    # per-pair statistics in path-index order, independent of the partition
    parts = _for_blocks(config, data.d, lambda idx: _run_cost_block(
        setup, xi, config.seed, idx, config.antithetic), n_workers)
    costs = np.concatenate([p[0] for p in parts])
    rep = SimulationReport(
        cost_mean=float(np.mean(costs)),
        cost_stderr=_stderr(costs),
        n_paths=costs.size * (2 if config.antithetic else 1),
        rng_seconds=sum(p[2] for p in parts),
        step_seconds=sum(p[3] for p in parts),
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


def simulate_cost(data: ProblemData, policy: ControlPolicy, xi, config: SimConfig,
                  n_workers: int = 1) -> SimulationReport:
    """Estimate the quadratic cost of a policy from state xi.

    Euler-Maruyama state stepping with left-point coefficient evaluation and
    left-rectangle quadrature of the running cost.  Raises NumericalOverflow
    when a path's state norm exceeds 1e12.
    """
    return _simulate(data, policy, xi, config, n_workers)


def completing_square_report(data: ProblemData, P_solution: RiccatiSolution,
                             policy: ControlPolicy, xi, config: SimConfig,
                             n_workers: int = 1) -> SimulationReport:
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
    su = _EulerSetup(data, ControlPolicy(gain=gain), config.n_steps)
    n, d, n_steps, dt = su.n, su.d, su.n_steps, su.dt
    Acl = su.A + su.B @ su.G
    Ccl = su.C + su.D @ su.G
    # inverse-flow drift Acl - sum_i Ccl_i Ccl_i; transposed, as Xtilde' is stepped
    AinvT = (Acl - np.sum(Ccl @ Ccl, axis=0)).swapaxes(-1, -2)
    CclT = Ccl.swapaxes(-1, -2)
    eye = np.eye(n)[:, :, None]

    def flow(M, Z):
        """M times each path's matrix, for matrices stored as Z[:, :, path]."""
        return (M @ Z.reshape(n, -1)).reshape(Z.shape)

    def block_worst(idx):
        dW = _wiener_increments(config.seed, idx, n_steps, d, dt)
        # X[:, :, p] is path p's X and Y[:, :, p] its Xtilde': both flows act from the left
        X = np.repeat(eye, (2 if config.antithetic else 1) * idx.size, axis=2)
        Y = X.copy()
        worst = 0.0
        for j, w in enumerate(_steps(dW, config.antithetic)):
            dX = flow(Acl[j], X) * dt
            dY = -flow(AinvT[j], Y) * dt
            for i in range(d):
                dX += flow(Ccl[i, j], X) * w[i]
                dY -= flow(CclT[i, j], Y) * w[i]
            X = X + dX
            Y = Y + dY
            # (Xtilde X)[a, c] = sum_s Y[s, a] X[s, c], path by path
            prod = np.sum(Y[:, :, None] * X[:, None], axis=0) - eye
            worst = max(worst, float(np.sqrt(np.max(np.sum(prod * prod, axis=(0, 1))))))
            if not (np.max(np.abs(X)) <= STATE_NORM_CAP and np.max(np.abs(Y)) <= STATE_NORM_CAP):
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
