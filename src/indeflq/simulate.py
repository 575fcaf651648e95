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

Paths are stepped in a column layout.  ``_EulerSetup`` builds, once for all
steps, one table per step, ``T_j = [I + Acl_j dt; Ccl_1j; ...; Ccl_dj; W_j...]``
for the closed-loop drift and diffusions and each running-cost weight, and
one ``_euler_step`` is a single product ``T_j x`` of a block's (n, paths)
state: each quadratic form is a column sum of the old state against its
weight rows, and the new state is read off the drift and diffusion rows.  A
weight table that is identically zero (the completing-square weight of the
optimal policy) is left out of the table; its sum stays exactly 0.  The
keyed streams are drawn path by path into the rows of a small row-major
buffer and copied into the (steps, d, paths) block one chunk at a time.

A block, drawn and stepped, is a pure function of its path indices, so on
Linux a run of at least SPLIT_INCREMENTS increments shares its blocks with one
forked child (``_run_shared``): this process takes them from the front, the
child from the back, until the two meet.  The run stays in one process when
smaller, on a single CPU, and in a process that runs other Python threads
(``n_workers > 1`` among them).  Every path keeps its stream either way.
"""

from __future__ import annotations

import mmap
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from .core import CoefficientPath, ProblemData, lq_terms, path_samples
from .errors import GridMismatch, NumericalOverflow
from .riccati import PROBE_POINTS, RiccatiSolution

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
# most Euler steps: the closed-loop tables hold a few matrices per step
MAX_STEPS = 10 ** 6
# paths per block are sized so that one block draws about this many increments
BLOCK_INCREMENTS = 2_000_000
# the keyed streams are drawn into a row-major buffer of at most this size
# (one path per row; a single path longer than this takes a row alone)
DRAW_CHUNK_BYTES = 64 * 1024
# a run of at least this many increments shares its blocks with one forked
# child; at this size it about breaks even on two cores (one block becomes two,
# each paying the per-step call overhead), at twice this size it saves 15-33 %
SPLIT_INCREMENTS = 2 ** 19


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
        if self.n_steps > MAX_STEPS:
            raise ValueError(f"n_steps must not exceed {MAX_STEPS:.0e}")
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
    the seconds spent drawing increments and stepping paths, summed over
    blocks; a shared run sums both processes' blocks, so the two seconds can
    together exceed its wall time."""

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


def _step_table(dt, drift, diffusions, weights=()):
    """Per-step tables ``[I + drift dt; diffusions...; weights...]``, (steps, rows, nl).

    ``drift`` and each weight are (steps, nl, nl), ``diffusions`` (d, steps, nl, nl).
    """
    eye = np.eye(drift.shape[-1])
    return np.concatenate([eye + drift * dt, *diffusions, *weights], axis=1)


class _EulerSetup:
    """Closed-loop step tables of u = G x + v at each Euler step's left endpoint.

    A perturbation v is the gain's last column on the lifted state [x; 1]
    (A, B, C, D, Q, N and G* zero-padded by ``J``).  The state steps on
    ``Acl = A + BG`` and ``Ccl = C + DG``; the running cost weights are
    ``(Q + G'RG) dt`` and, with a solution, ``(G - G*)' hat R(P) (G - G*) dt``.
    ``table`` stacks ``[I + Acl dt; Ccl; weights]`` for each step; a weight
    that is identically zero is left out, and ``kept`` lists the accumulators
    (0 cost, 1 completing square) of the weights that are in.
    """

    def __init__(self, data: ProblemData, policy: ControlPolicy, n_steps: int, solution=None):
        self.n, self.d = data.n, data.d
        self.n_steps, self.dt = n_steps, data.T / n_steps
        t_left = np.arange(n_steps) * self.dt
        A, B, C, D, R, Q = data.stacked_at(t_left)
        G = (np.zeros((n_steps, data.k, data.n)) if policy.gain is None else
             _policy_at(policy.gain, data, (data.k, data.n), "gain", t_left))
        if policy.perturb is not None:
            v = _policy_at(policy.perturb, data, (data.k,), "perturbation", t_left)
            G = np.concatenate([G, v], axis=2)
        J = np.eye(G.shape[2], data.n)  # x -> [x; 0]
        # Ccl is (d, steps, ...); every table slice is a contiguous matrix
        self.Acl = J @ (A @ J.T + B @ G)
        self.Ccl = J @ (C @ J.T + D @ G)
        self.N = J @ data.N @ J.T
        weights = [(J @ Q @ J.T + G.swapaxes(-1, -2) @ R @ G) * self.dt]
        if solution is not None:
            E = G - CoefficientPath(solution.grid, solution.gain).at(t_left) @ J.T
            P = CoefficientPath(solution.grid, solution.P).at(t_left)
            hat_R = lq_terms(data.blocks_at(t_left), P)[0]
            weights.append(E.swapaxes(-1, -2) @ hat_R @ E * self.dt)
        # a zero weight adds exactly 0 to a finite state's sum: skipping it is exact
        self.kept = [i for i, W in enumerate(weights) if W.any()]
        self.table = _step_table(self.dt, self.Acl, self.Ccl, [weights[i] for i in self.kept])


def _wiener_increments(seed, indices, n_steps, d, dt):
    """Wiener increments (n_steps, d, paths) for a block of path indices.

    Column ``p`` holds the stream of ``Generator(Philox(key=[seed, p]))``
    times ``sqrt(dt)``: one bit generator is re-keyed per path (counter 0,
    buffer cleared) by writing the path index into a reused key.  A chunk of
    paths is drawn into the rows of a row-major buffer, then scaled and copied
    into its columns at once.  Threads would not help: each path's re-keying
    and draw holds the GIL, and two drawing threads took twice as long as one
    (0.155 s against 0.079 s for 20k paths of 256 normals).
    """
    from numpy.random import Generator, Philox  # about 6.5 ms of imports, only when drawing

    bits = Philox(0)
    gen = Generator(bits)
    # Python ints, which the state setter reads faster than uint64 arrays
    key = [int(seed), 0]
    fresh = dict(bits.state, buffer=[0] * 4)  # buffer_pos 4: the buffer is empty
    fresh["state"] = {"counter": [0] * 4, "key": key}
    size, b = n_steps * d, indices.size
    dW = np.empty((n_steps, d, b))
    columns = dW.reshape(size, b)
    chunk = np.empty((max(1, DRAW_CHUNK_BYTES // (8 * size)), size))
    for start in range(0, b, len(chunk)):
        rows = chunk[:b - start]
        for row, idx in zip(rows, indices[start:start + len(rows)].tolist()):
            key[1] = idx
            bits.state = fresh
            gen.standard_normal(out=row)
        np.multiply(rows.T, np.sqrt(dt), out=columns[:, start:start + len(rows)])
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


def _row_sum(rows, out):
    """``rows[0] + rows[1] + ...`` added in that order, into ``out`` when there are two or more.

    The same bits as ``np.sum(rows, axis=0)``, without the reduction's set-up,
    which costs more than the adds themselves on the few rows of a state or a table.
    """
    if len(rows) == 1:
        return rows[0]
    np.add(rows[0], rows[1], out=out)
    for row in rows[2:]:
        np.add(out, row, out=out)
    return out


def _euler_step(T_j, x, w, prod, sums=()):
    """One Euler step of ``x`` in place, as one product with the table ``T_j``.

    ``T_j`` is ``[I + drift dt; diffusions...; weights...]`` for states stored
    as x[:, ..., path]: each matrix acts on the first axis, and ``w`` is
    (d, paths).  ``prod`` is a buffer of shape (rows / nl, *x.shape); its first
    block is free for scratch afterwards.  The column-wise quadratic forms
    x_p' W x_p of the old state are added to ``sums``, one row per weight.
    """
    flat, out = x.reshape(len(x), -1), prod.reshape(len(T_j), -1)
    if len(x) == 1:
        # the same single products; numpy's matmul has no BLAS kernel for an inner size of 1
        np.multiply(T_j, flat, out=out)
    else:
        np.matmul(T_j, flat, out=out)
    d = len(w)
    for total, Wx in zip(sums, prod[1 + d:]):
        total += _row_sum(np.multiply(x, Wx, out=Wx), Wx[0])
    diffusions = prod[1:1 + d]
    np.multiply(diffusions, w.reshape(d, *(1,) * (x.ndim - 1), -1), out=diffusions)
    _row_sum(prod[:1 + d], x)  # d >= 1, so x is written


def _run_cost_block(su: _EulerSetup, xi, seed, indices, antithetic):
    """Per-path (or per-pair) cost and squared-deviation sum, RNG and stepping seconds.

    The (lifted) state ``x`` is (n, paths); with antithetic pairing the
    mirrored paths are the last half of the columns.
    """
    t0 = time.perf_counter()
    dW = _wiener_increments(seed, indices, su.n_steps, su.d, su.dt)
    t1 = time.perf_counter()
    b = indices.size
    x0 = np.append(xi, np.ones(len(su.N) - su.n))  # [xi; 1] on the lifted state
    x = np.repeat(x0[:, None], 2 * b if antithetic else b, axis=1)
    prod = np.empty((su.table.shape[1] // len(x), *x.shape))
    scratch = prod[0, :su.n]
    acc = np.zeros((2, x.shape[1]))  # cost and completing-square sums (0 without a solution)
    sums = [acc[i] for i in su.kept]
    for j, w in enumerate(_steps(dW, antithetic)):
        _euler_step(su.table[j], x, w, prod, sums)
        # squared column norms; written so that a NaN state fails too
        norms = _row_sum(np.square(x[:su.n], out=scratch), scratch[0])
        if not float(np.max(norms)) <= STATE_NORM_CAP ** 2:
            raise NumericalOverflow(
                f"state norm exceeded {STATE_NORM_CAP:g} at step {j} (explosive closed loop)", j)
    Nx = np.matmul(su.N, x, out=prod[0])
    acc[0] += np.sum(np.multiply(x, Nx, out=Nx), axis=0)
    if antithetic:
        acc = acc[:, :b] + acc[:, b:]  # then halved in place: one temporary fewer
        acc *= 0.5
    return acc[0], acc[1], t1 - t0, time.perf_counter() - t1


def _splits_run(increments):
    """Whether a run of ``increments`` normals shares its blocks with a forked child.

    Only on Linux, with a second CPU to run on, from a process with no other
    Python thread (fork copies only the calling thread, so a lock another
    thread holds would stay held in the child) and for a run large enough
    to pay for the fork.
    """
    return (sys.platform == "linux" and increments >= SPLIT_INCREMENTS
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1)


def _run_shared(count, run):
    """``[run(i) for i in range(count)]``, the blocks shared with one forked child.

    This process claims blocks from the front and the child from the back:
    each writes the block it is about to run into a shared 16-byte header and
    stops at a block the other has claimed.  The child pickles ``{i: run(i)}``
    down a pipe and leaves through ``os._exit``.  This process then runs, in
    index order, every block it has no result for: all if the fork fails, the
    child's if the child does not exit 0, so an error is the one a serial run
    raises.  An error here kills and reaps the child, which may be blocked
    writing its results.
    """
    from numpy.random import Philox  # noqa: F401 -- imported once, before the fork

    header = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)  # front, back
    header[:] = -1, count
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare (a process limit, or no memory for one)
        os.close(read)
        os.close(write)
        return [run(i) for i in range(count)]
    if pid == 0:  # the child: never returns, whatever happens
        code = 1
        try:
            os.close(read)
            done = {}
            for i in range(count - 1, -1, -1):
                header[1] = i
                if header[0] >= i:
                    break
                done[i] = run(i)
            with open(write, "wb") as pipe:
                pickle.dump(done, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    results = {}
    try:
        with open(read, "rb") as pipe:
            for i in range(count):
                header[0] = i
                if header[1] <= i:
                    break
                results[i] = run(i)
            sent = pipe.read()
    except BaseException:
        from signal import SIGKILL  # about 0.5 ms of imports, only on this path

        os.kill(pid, SIGKILL)
        os.waitpid(pid, 0)
        raise
    if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0:
        results = {**pickle.loads(sent), **results}
    return [results[i] if i in results else run(i) for i in range(count)]


def _for_blocks(config: SimConfig, d: int, work, n_workers: int = 1):
    """``work(indices)`` on consecutive blocks of path indices, results in index order.

    The blocks are equal to within a path and hold at most BLOCK_INCREMENTS
    Wiener increments each (two paths at least).  No block holds a single path
    unless the run does: a one-column block goes through a matrix-vector
    kernel that rounds differently from the matrix-matrix one, so per-path
    results would depend on the partition.  Where ``_splits_run`` allows, a
    one-worker run has two blocks or more and shares them with a forked child;
    otherwise the blocks run on up to ``n_workers`` threads.
    """
    per_path = max(1, config.n_steps * d)
    split = n_workers <= 1 and _splits_run(config.n_paths * per_path)
    count = -(-config.n_paths // max(2, BLOCK_INCREMENTS // per_path))
    count = min(max(count, 2 if split else 1), max(1, config.n_paths // 2))
    bounds = [config.n_paths * i // count for i in range(count + 1)]

    def run(i):
        return work(np.arange(bounds[i], bounds[i + 1], dtype=np.uint64))

    if split and count > 1:
        return _run_shared(count, run)
    if n_workers <= 1 or count == 1:
        return [run(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor  # about 8 ms of imports, only here

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(run, range(count)))


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
    n, d = su.n, su.d
    # Xtilde' steps from the left with drift -(Acl - sum_i Ccl_i Ccl_i)' and diffusions
    # -Ccl_i'; the state [X; Xtilde'] steps on the block-diagonal table of both flows
    inv_drift = -(su.Acl - np.sum(su.Ccl @ su.Ccl, axis=0)).swapaxes(-1, -2)
    pair = np.zeros((1 + d, su.n_steps, 2 * n, 2 * n))
    pair[:, :, :n, :n] = np.concatenate([su.Acl[None], su.Ccl])
    pair[:, :, n:, n:] = np.concatenate([inv_drift[None], -su.Ccl.swapaxes(-1, -2)])
    table = _step_table(su.dt, pair[0], pair[1:])
    eye = np.eye(n)[:, :, None]

    def block_worst(idx):
        dW = _wiener_increments(config.seed, idx, su.n_steps, su.d, su.dt)
        F = np.tile(eye, (2, 1, (2 if config.antithetic else 1) * idx.size))
        X, Y = F[:n], F[n:]  # X[:, :, p] is path p's X and Y[:, :, p] its Xtilde'
        prod = np.empty((1 + d, *F.shape))
        defect = np.empty_like(X)
        worst = 0.0
        for j, w in enumerate(_steps(dW, config.antithetic)):
            _euler_step(table[j], F, w, prod)
            if not np.max(np.abs(F, out=prod[0])) <= STATE_NORM_CAP:
                raise NumericalOverflow(f"fundamental pair flow overflowed at step {j}", j)
            # (Xtilde X)[a, c] = sum_s Y[s, a] X[s, c], path by path
            np.multiply(Y[0][:, None], X[0][None], out=defect)
            for s in range(1, n):
                defect += np.multiply(Y[s][:, None], X[s][None], out=prod[0, :n])
            defect -= eye
            worst = max(worst, float(np.sqrt(np.max(np.sum(
                np.square(defect, out=defect), axis=(0, 1))))))
        return worst

    return max(_for_blocks(config, su.d, block_worst))


def hamiltonian_identity_check(data: ProblemData, P_solution: RiccatiSolution) -> float:
    """Algebraic defect of the stationarity condition along a solved path.

    Evaluates || hat_R(P) G + B'P + sum_i D_i'P C_i || at PROBE_POINTS times; the
    gain is defined as the exact solution of this linear system, so the
    defect is numerical noise, of order 1e-10 (1 + ||P||).
    """
    if not P_solution.completed:
        raise ValueError("identity check requires a completed Riccati solution")
    grid = P_solution.grid
    idx = np.unique(np.linspace(0, grid.size - 1, min(PROBE_POINTS, grid.size)).round().astype(int))
    times = grid[idx]
    P = P_solution.P[idx]
    G = P_solution.gain[idx]
    hat, rhs, _ = lq_terms(data.blocks_at(times), P)
    defect = hat @ G + rhs
    return float(np.max(np.sqrt(np.sum(defect * defect, axis=(-2, -1)))))
