import mmap
import os
import select
import signal
import threading
import time
import tracemalloc

import hypothesis
import numpy as np
import pytest
from numpy.random import Generator, Philox

from indeflq import simulate
from indeflq.core import CoefficientPath, ProblemData
from indeflq.errors import NumericalOverflow
from indeflq.riccati import solve_riccati
from indeflq.simulate import (
    ControlPolicy,
    SimConfig,
    completing_square_report,
    fundamental_pair_check,
    hamiltonian_identity_check,
    simulate_cost,
)
from indeflq.specio import parse_spec
from indeflq import bundled

from conftest import problems, random_definite_problem, scalar_benchmark


def definite_2x2():
    return parse_spec(bundled.example_doc("definite_2x2"))


@pytest.fixture
def solved():
    """definite_2x2 and its Riccati solution."""
    spec = definite_2x2()
    return spec, solve_riccati(spec.data, spec.solver)


@pytest.fixture
def seven_blocks(solved, monkeypatch):
    """definite_2x2, its solution and one optimal-policy run of seven blocks of 43 pairs."""
    spec, sol = solved
    monkeypatch.setattr(simulate, "BLOCK_INCREMENTS", 64 * 45)
    return spec, sol, [(ControlPolicy.from_solution(sol), SimConfig(301, 64, seed=7))]


can_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


def force_split(monkeypatch):
    """Share every run's blocks with a forked child, on one CPU too.

    False, and nothing forced, where this process cannot fork safely: without
    ``os.fork`` or while another Python thread runs.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    monkeypatch.setattr(simulate, "_splits_run", lambda increments: True)
    return True


def count_forks(monkeypatch):
    """A list that gains an entry each time this process calls ``os.fork``."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def shared_counts(count):
    """(2, count) call counts that a forked child shares: row 0 this process, row 1 others."""
    return np.frombuffer(mmap.mmap(-1, 16 * count), dtype=np.int64).reshape(2, count)


def wait_for(fd):
    """One byte from ``fd``, failing instead of hanging when none comes within 30 s."""
    assert select.select([fd], [], [], 30.0)[0], "no signal within 30 s"
    assert os.read(fd, 1)


def keyed_stream(seed, p, n_steps, d, dt):
    gen = Generator(Philox(key=np.array([seed, p], dtype=np.uint64)))
    return gen.standard_normal((n_steps, d)) * np.sqrt(dt)


class TestCostEstimator:
    def test_static_problem_is_exact(self):
        grid = np.linspace(0.0, 1.0, 9)
        data = ProblemData(n=2, k=1, d=1, T=1.0,
                           A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                           C=[np.zeros((2, 2))], D=[np.zeros((2, 1))],
                           R=[[1.0]], Q=np.zeros((2, 2)), N=np.eye(2), grid=grid)
        # antithetic pairs are two paths each
        for antithetic, n_paths in ((True, 100), (False, 50)):
            rep = simulate_cost(data, ControlPolicy(), [1.0, -0.5],
                                SimConfig(n_paths=50, n_steps=8, seed=1, antithetic=antithetic))
            assert rep.cost_mean == 1.25
            assert rep.cost_stderr == 0.0
            assert rep.n_paths == n_paths
            assert rep.rng_seconds > 0.0 and rep.step_seconds > 0.0

    def test_uncontrolled_growth_quadrature(self):
        # B = D = 0, Q = 1, A = a: deterministic cost int_0^1 e^{2at} dt.
        # Left-rectangle plus Euler state error is O(dt) with constant below
        # the total-variation bound ~ 3 for a = 0.4.
        a = 0.4
        grid = np.linspace(0.0, 1.0, 9)
        data = ProblemData(n=1, k=1, d=1, T=1.0, A=a, B=0.0, C=[0.0], D=[0.0],
                           R=1.0, Q=1.0, N=[[0.0]], grid=grid)
        exact = (np.exp(2 * a) - 1.0) / (2 * a)
        for n_steps in (128, 256, 512):
            rep = simulate_cost(data, ControlPolicy(), [1.0],
                                SimConfig(n_paths=4, n_steps=n_steps, seed=2))
            assert abs(rep.cost_mean - exact) <= 3 * rep.cost_stderr + 3.0 / n_steps

    def test_value_identity_definite(self, solved):
        spec, sol = solved
        policy = ControlPolicy.from_solution(sol)
        cfg = SimConfig(n_paths=20000, n_steps=256, seed=33)
        rep = simulate_cost(spec.data, policy, spec.xi, cfg)
        value = sol.value_at(spec.xi)
        # Euler weak bias is O(dt); 2.0/n_steps covers it here with margin
        assert abs(rep.cost_mean - value) <= 3 * rep.cost_stderr + 2.0 / cfg.n_steps

    def test_overflow_detection(self):
        grid = np.linspace(0.0, 1.0, 9)
        data = ProblemData(n=1, k=1, d=1, T=1.0, A=40.0, B=0.0, C=[0.0], D=[0.0],
                           R=1.0, Q=1.0, N=[[0.0]], grid=grid)
        with pytest.raises(NumericalOverflow):
            simulate_cost(data, ControlPolicy(), [1.0],
                          SimConfig(n_paths=2, n_steps=512, seed=3))

    def test_nan_state_detected(self):
        # the first Euler step makes the state inf - inf = NaN on the paths
        # with a positive increment (drift row (1 + A dt) xi overflows to inf,
        # the diffusion row C xi w to -inf), which a "norm > cap" test lets
        # through (NaN compares False, and so does the NaN column maximum)
        grid = np.linspace(0.0, 1.0, 9)
        data = ProblemData(n=1, k=1, d=1, T=1.0, A=1e308, B=0.0, C=[-1e308], D=[0.0],
                           R=1.0, Q=1.0, N=[[1.0]], grid=grid)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalOverflow, match="at step 0") as exc:
                simulate_cost(data, ControlPolicy(), [100.0], SimConfig(4, 8, seed=1))
            assert exc.value.step == 0
            with pytest.raises(NumericalOverflow, match="fundamental pair .* at step 0") as exc:
                fundamental_pair_check(data, np.zeros((1, 1)), SimConfig(4, 8, seed=1))
            assert exc.value.step == 0

    def test_nonfinite_xi_rejected(self):
        # a NaN start state is an input error, not an explosive closed loop
        data = scalar_benchmark(1.0)
        for xi in ([np.nan], [np.inf]):
            with pytest.raises(ValueError, match="xi"):
                simulate_cost(data, ControlPolicy(), xi, SimConfig(4, 8, seed=1))

    def test_increments_are_the_keyed_philox_streams(self):
        seed, n_steps, d, dt = 2 ** 63 + 5, 16, 2, 0.25
        indices = np.arange(7, 12, dtype=np.uint64)
        dW = simulate._wiener_increments(seed, indices, n_steps, d, dt)
        assert dW.shape == (n_steps, d, indices.size)
        for col, p in enumerate(indices):
            assert np.array_equal(dW[:, :, col], keyed_stream(seed, p, n_steps, d, dt))

    @pytest.mark.parametrize("n_paths, n_steps", [(600, 16), (3, 5000)])
    def test_increments_across_draw_chunks(self, n_paths, n_steps):
        # 600 paths of 16 x 2 draws are two full 64 KiB chunks and a ragged
        # third; a path of 5000 x 2 draws is larger than a chunk and takes one
        seed, d, dt = 2 ** 64 - 3, 2, 0.5
        assert n_paths > 2 * max(1, simulate.DRAW_CHUNK_BYTES // (8 * n_steps * d))
        indices = np.arange(11, 11 + n_paths, dtype=np.uint64)
        dW = simulate._wiener_increments(seed, indices, n_steps, d, dt)
        for col, p in enumerate(indices):
            assert np.array_equal(dW[:, :, col], keyed_stream(seed, p, n_steps, d, dt))

    def test_independent_of_block_partition(self, solved, monkeypatch):
        # 64 increments per block is one path per block at 64 steps, d = 1
        spec, sol = solved
        optimal = ControlPolicy.from_solution(sol)
        perturbed = ControlPolicy(gain=optimal.gain, perturb=np.array([0.3, -0.2]))
        fields = ("cost_mean", "cost_stderr", "cs_lhs", "cs_rhs", "cs_residual", "cs_stderr")
        results = []
        for block in (2_000_000, 64 * 37, 64 * 5 + 1, 64):
            monkeypatch.setattr(simulate, "BLOCK_INCREMENTS", block)
            result = [fundamental_pair_check(spec.data, optimal.gain,
                                             SimConfig(n_paths=301, n_steps=64, seed=7))]
            runs = [(optimal, True), (perturbed, True), (optimal, False)]
            for policy, antithetic in runs:
                cfg = SimConfig(n_paths=301, n_steps=64, seed=7, antithetic=antithetic)
                rep = completing_square_report(spec.data, sol, policy, spec.xi, cfg)
                result += [getattr(rep, f) for f in fields]
            results.append(result)
        assert all(r == results[0] for r in results[1:])

    def test_per_path_costs_independent_of_block_partition(self, solved, monkeypatch):
        # without antithetic pairing, 64 increments per block would be one
        # column per block; each path's cost must round as in one wide block
        spec, sol = solved
        cfg = SimConfig(n_paths=301, n_steps=64, seed=7, antithetic=False)
        setup = simulate._EulerSetup(spec.data, ControlPolicy.from_solution(sol), cfg.n_steps, sol)
        per_path = []
        for block in (2_000_000, 64):
            monkeypatch.setattr(simulate, "BLOCK_INCREMENTS", block)
            parts = simulate._for_blocks(cfg, spec.data.d, lambda idx: simulate._run_cost_block(
                setup, spec.xi, cfg.seed, idx, cfg.antithetic))
            per_path.append([np.concatenate([p[i] for p in parts]) for i in (0, 1)])
        assert [a.tobytes() for a in per_path[0]] == [a.tobytes() for a in per_path[1]]

    def test_block_memory(self, solved):
        # a block holds its increments, the state, the step product (one
        # block per table row group: drift, diffusion, cost weight) and the
        # two sums; the optimal policy's completing-square table is left out
        spec, sol = solved
        pairs, n_steps = 4000, 64
        setup = simulate._EulerSetup(spec.data, ControlPolicy.from_solution(sol), n_steps, sol)
        indices = np.arange(pairs, dtype=np.uint64)
        dW_bytes = 8 * n_steps * spec.data.d * pairs
        state_bytes = 8 * spec.data.n * 2 * pairs
        tracemalloc.start()
        try:
            simulate._run_cost_block(setup, spec.xi, 3, indices, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dW_bytes + 8 * state_bytes

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_block_matches_a_plain_loop(self, antithetic):
        # d = 2, time-varying A, gain and perturbation on their own grids: each
        # path's cost and completing-square sum from the closed-loop tables
        # equal u = Gx + v stepped directly
        rng = np.random.default_rng(2024)
        base = random_definite_problem(rng, n=2, k=2, d=2, points=9)
        A = base.A.samples + base.grid[:, None, None] * rng.standard_normal((2, 2))
        data = ProblemData(n=2, k=2, d=2, T=1.0, A=A, B=base.B, C=base.C, D=base.D,
                           R=base.R, Q=base.Q, N=base.N, grid=base.grid)
        sol = solve_riccati(data)
        gain = CoefficientPath(np.linspace(0.0, 1.0, 4), rng.standard_normal((4, 2, 2)))
        perturb = CoefficientPath(np.linspace(0.0, 1.0, 3), rng.standard_normal((3, 2, 1)))
        xi, seed, n_steps = np.array([0.7, -1.1]), 99, 32
        indices = np.arange(3, 8, dtype=np.uint64)
        dt = data.T / n_steps
        dW = simulate._wiener_increments(seed, indices, n_steps, data.d, dt)
        if antithetic:
            dW = np.concatenate([dW, -dW], axis=2)
        G_star, P = (CoefficientPath(sol.grid, path) for path in (sol.gain, sol.P))
        for policy in (ControlPolicy(gain=gain, perturb=perturb), ControlPolicy(perturb=perturb)):
            setup = simulate._EulerSetup(data, policy, n_steps, sol)
            cost, qacc, _, _ = simulate._run_cost_block(setup, xi, seed, indices, antithetic)
            x = np.repeat(xi[:, None], dW.shape[2], axis=1)
            ref_cost, ref_qacc = np.zeros((2, dW.shape[2]))
            for j in range(n_steps):
                t = j * dt
                Aj, Bj, Cj, Dj, Rj, Qj = data.stacked_at(t)
                G = gain.at(t) if policy.gain is not None else np.zeros((2, 2))
                u = G @ x + perturb.at(t)
                ref_cost += (np.sum(u * (Rj @ u), axis=0) + np.sum(x * (Qj @ x), axis=0)) * dt
                hat_R = Rj + sum(Di.T @ P.at(t) @ Di for Di in Dj)
                e = u - G_star.at(t) @ x
                ref_qacc += np.sum(e * (hat_R @ e), axis=0) * dt
                x = (x + (Aj @ x + Bj @ u) * dt
                     + sum((Cj[i] @ x + Dj[i] @ u) * dW[j, i] for i in range(data.d)))
            ref_cost += np.sum(x * (data.N @ x), axis=0)
            if antithetic:
                ref_cost, ref_qacc = (0.5 * (r[:indices.size] + r[indices.size:])
                                      for r in (ref_cost, ref_qacc))
            np.testing.assert_allclose(cost, ref_cost, rtol=1e-12, atol=0)
            np.testing.assert_allclose(qacc, ref_qacc, rtol=1e-12, atol=0)
            assert np.all(qacc > 0.0)

    def test_seed_changes_draws(self, solved):
        spec, sol = solved
        policy = ControlPolicy.from_solution(sol)
        r1 = simulate_cost(spec.data, policy, spec.xi, SimConfig(500, 64, seed=1))
        r2 = simulate_cost(spec.data, policy, spec.xi, SimConfig(500, 64, seed=2))
        assert r1.cost_mean != r2.cost_mean

    def test_discretization_convergence(self, solved):
        # Euler weak bias is O(dt): successive refinements approach the true
        # value monotonically once the noise floor is far below the bias
        spec, sol = solved
        policy = ControlPolicy.from_solution(sol)
        means = [
            simulate_cost(spec.data, policy, spec.xi,
                          SimConfig(n_paths=20000, n_steps=ns, seed=77)).cost_mean
            for ns in (64, 128, 256, 512)
        ]
        diffs = [abs(means[i] - means[i + 1]) for i in range(3)]
        assert diffs[0] > diffs[1] > diffs[2]


class TestCompletingSquare:
    def test_optimal_policy_kills_the_square(self, solved):
        spec, sol = solved
        policy = ControlPolicy.from_solution(sol)
        cfg = SimConfig(n_paths=4000, n_steps=256, seed=5)
        rep = completing_square_report(spec.data, sol, policy, spec.xi, cfg)
        assert rep.cs_rhs == 0.0  # u = G x pathwise
        assert rep.cs_residual <= 3 * rep.cs_stderr + 2.0 / cfg.n_steps

    def test_zero_weight_tables_left_out(self, solved):
        # the optimal gain's completing-square weight, also with a zero
        # perturbation, is exactly 0: its table is left out and the sum stays
        # exactly 0; a small perturbation keeps its table
        spec, sol = solved
        optimal = ControlPolicy.from_solution(sol)
        cfg = SimConfig(n_paths=2000, n_steps=128, seed=4)
        base = completing_square_report(spec.data, sol, optimal, spec.xi, cfg)
        zero = ControlPolicy(gain=optimal.gain, perturb=np.zeros(2))
        small = ControlPolicy(gain=optimal.gain, perturb=np.full(2, 1e-3))
        for policy, kept in ((optimal, [0]), (zero, [0]), (small, [0, 1])):
            assert simulate._EulerSetup(spec.data, policy, cfg.n_steps, sol).kept == kept
        rep = completing_square_report(spec.data, sol, zero, spec.xi, cfg)
        assert base.cs_rhs == 0.0 and rep.cs_rhs == 0.0
        assert abs(rep.cost_mean - base.cost_mean) <= 1e-12 * abs(base.cost_mean)
        assert completing_square_report(spec.data, sol, small, spec.xi, cfg).cs_rhs > 0.0

    def test_perturbed_policy_positive_square(self, solved):
        spec, sol = solved
        v = np.array([0.6, -0.4])
        policy = ControlPolicy(gain=ControlPolicy.from_solution(sol).gain, perturb=v)
        cfg = SimConfig(n_paths=4000, n_steps=256, seed=6)
        rep = completing_square_report(spec.data, sol, policy, spec.xi, cfg)
        assert rep.cs_rhs > 0.05
        assert rep.cs_residual <= 3 * rep.cs_stderr + 2.0 / cfg.n_steps

    def test_zero_policy(self, solved):
        spec, sol = solved
        cfg = SimConfig(n_paths=4000, n_steps=256, seed=7)
        rep = completing_square_report(spec.data, sol, ControlPolicy(),
                                       spec.xi, cfg)
        assert rep.cs_lhs > 0.1
        assert rep.cs_residual <= 3 * rep.cs_stderr + 2.0 / cfg.n_steps

    def test_optimal_policy_minimality(self, solved):
        spec, sol = solved
        gain = ControlPolicy.from_solution(sol).gain
        cfg = SimConfig(n_paths=4000, n_steps=256, seed=8)
        base = completing_square_report(spec.data, sol,
                                        ControlPolicy(gain=gain), spec.xi, cfg)
        for v in ([0.4, 0.0], [0.0, -0.5], [0.3, 0.3]):
            pert = completing_square_report(
                spec.data, sol,
                ControlPolicy(gain=gain, perturb=np.asarray(v)),
                spec.xi, cfg)
            pooled = np.hypot(base.cost_stderr, pert.cost_stderr)
            gap = pert.cost_mean - base.cost_mean
            assert gap > 0.0
            assert abs(gap - pert.cs_rhs) <= 3 * pooled + 2.0 / cfg.n_steps

    def test_suboptimality_lower_bound(self):
        # any policy's cost dominates the certificate witness value at xi
        from indeflq.certificates import certify_definite_regime
        spec = definite_2x2()
        cert = certify_definite_regime(spec.data)
        sol = solve_riccati(spec.data, spec.solver)
        # F(0) of the witness: phi(0) I for a comparison function, zero for case i
        n = spec.data.n
        F0 = np.zeros((n, n)) if cert.phi is None else float(cert.phi[0]) * np.eye(n)
        floor = spec.xi @ F0 @ spec.xi
        cfg = SimConfig(n_paths=2000, n_steps=128, seed=9)
        for policy in (ControlPolicy(), ControlPolicy.from_solution(sol),
                       ControlPolicy(perturb=np.array([0.2, 0.1]))):
            rep = simulate_cost(spec.data, policy, spec.xi, cfg)
            assert rep.cost_mean + 3 * rep.cost_stderr + 2.0 / cfg.n_steps >= floor


class TestFundamentalPair:
    def test_no_noise_exact(self):
        grid = np.linspace(0.0, 1.0, 9)
        data = ProblemData(n=2, k=1, d=1, T=1.0,
                           A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                           C=[np.zeros((2, 2))], D=[np.zeros((2, 1))],
                           R=[[1.0]], Q=np.zeros((2, 2)), N=np.eye(2), grid=grid)
        defect = fundamental_pair_check(data, np.zeros((1, 2)),
                                        SimConfig(n_paths=4, n_steps=32, seed=1))
        assert defect == 0.0

    def test_geometric_brownian_rate(self):
        grid = np.linspace(0.0, 1.0, 9)
        data = ProblemData(n=1, k=1, d=1, T=1.0, A=0.0, B=0.0, C=[1.0], D=[0.0],
                           R=1.0, Q=0.0, N=[[1.0]], grid=grid)
        d64 = fundamental_pair_check(data, np.zeros((1, 1)),
                                     SimConfig(n_paths=256, n_steps=64, seed=12))
        d256 = fundamental_pair_check(data, np.zeros((1, 1)),
                                      SimConfig(n_paths=256, n_steps=256, seed=12))
        assert d64 / d256 >= 1.5  # strong order 1/2 under 4x refinement

    def test_closed_loop_comparable_to_scalar(self, solved):
        spec, sol = solved
        gain = sol.gain  # on the output grid
        from indeflq.core import CoefficientPath
        gain_path = CoefficientPath(sol.grid, gain)
        defect2 = fundamental_pair_check(spec.data, gain_path,
                                         SimConfig(n_paths=128, n_steps=256, seed=13))
        grid = np.linspace(0.0, 1.0, 9)
        gbm = ProblemData(n=1, k=1, d=1, T=1.0, A=0.0, B=0.0, C=[1.0], D=[0.0],
                          R=1.0, Q=0.0, N=[[1.0]], grid=grid)
        defect1 = fundamental_pair_check(gbm, np.zeros((1, 1)),
                                         SimConfig(n_paths=128, n_steps=256, seed=13))
        assert defect2 <= 10.0 * defect1


    @pytest.mark.parametrize("antithetic", [True, False])
    def test_pair_matches_two_flows_stepped_apart(self, antithetic):
        # n = d = 2: the one block-diagonal state [X; Xtilde'] gives the defect of X and
        # Xtilde stepped on their own, Xtilde from the right, on the same increments
        rng = np.random.default_rng(2025)
        data = random_definite_problem(rng, n=2, k=2, d=2, points=9)
        gain = rng.standard_normal((2, 2))
        cfg = SimConfig(n_paths=5, n_steps=32, seed=17, antithetic=antithetic)
        dt = data.T / cfg.n_steps
        dW = simulate._wiener_increments(cfg.seed, np.arange(5, dtype=np.uint64),
                                         cfg.n_steps, 2, dt)
        if antithetic:
            dW = np.concatenate([dW, -dW], axis=2)
        worst = 0.0
        for p in range(dW.shape[2]):
            X, Xt = np.eye(2), np.eye(2)
            for j in range(cfg.n_steps):
                A, B, C, D, R, Q = data.stacked_at(j * dt)
                Acl, Ccl = A + B @ gain, C + D @ gain
                noise = sum(Ccl[i] * dW[j, i, p] for i in range(2))
                X, Xt = (X + Acl @ X * dt + noise @ X,
                         Xt - Xt @ (Acl - sum(Ci @ Ci for Ci in Ccl)) * dt - Xt @ noise)
                worst = max(worst, np.linalg.norm(Xt @ X - np.eye(2)))
        assert worst > 0.0
        assert fundamental_pair_check(data, gain, cfg) == pytest.approx(worst, rel=1e-12)


class TestSharedRun:
    """Runs whose blocks are shared with a forked child (``simulate._run_shared``)."""

    @staticmethod
    def outputs(spec, sol, runs, fields=("cost_mean", "cost_stderr", "n_paths", "cs_lhs",
                                          "cs_rhs", "cs_residual", "cs_stderr")):
        """Every report field but the seconds of each (policy, config) run."""
        reps = [completing_square_report(spec.data, sol, policy, spec.xi, cfg)
                for policy, cfg in runs]
        return [[getattr(rep, f) for f in fields] for rep in reps]

    @can_fork
    def test_split_run_equals_serial(self, seven_blocks, monkeypatch):
        # seven blocks of 43 pairs or paths: each report and the fundamental-pair
        # defect bit for bit, with one fork per call
        spec, sol, [(optimal, cfg)] = seven_blocks
        perturbed = ControlPolicy(gain=optimal.gain, perturb=np.array([0.3, -0.2]))
        results = []
        for split in (False, True):
            if split:
                assert force_split(monkeypatch)
                forks = count_forks(monkeypatch)
            rep = simulate_cost(spec.data, perturbed, spec.xi, cfg)
            results.append([
                (rep.cost_mean, rep.cost_stderr, rep.n_paths),
                self.outputs(spec, sol, [(perturbed, cfg), (optimal, SimConfig(
                    n_paths=301, n_steps=64, seed=7, antithetic=False))]),
                fundamental_pair_check(spec.data, optimal.gain, cfg),
            ])
        assert results[1] == results[0]
        assert len(forks) == 4
        assert rep.rng_seconds > 0.0 and rep.step_seconds > 0.0

    @can_fork
    @pytest.mark.parametrize("meet", ["slow child", "child takes all"])
    def test_claimers_meet(self, monkeypatch, meet):
        # a slow child runs only the last block, which it claimed first; a
        # child forked long before this process claims runs every block; no
        # block runs twice
        count, parent = 6, os.getpid()
        calls = shared_counts(count)
        started, go = os.pipe(), os.pipe()

        def run(i):
            here = os.getpid() == parent
            calls[0 if here else 1, i] += 1
            if meet == "slow child" and not here:
                os.write(started[1], b"s")  # hold the child's block until the rest are run
                wait_for(go[0])
            elif meet == "slow child" and i == 0:
                wait_for(started[0])
            elif meet == "slow child" and i == count - 2:
                os.write(go[1], b"g")
            elif not here and i == 0:
                os.write(started[1], b"s")
            return i * i

        if meet == "child takes all":
            fork = os.fork

            def late_fork():
                pid = fork()
                if pid:
                    wait_for(started[0])  # the child is on block 0
                return pid

            monkeypatch.setattr(os, "fork", late_fork)
        try:
            assert simulate._run_shared(count, run) == [i * i for i in range(count)]
        finally:
            for fd in (*started, *go):
                os.close(fd)
        child = [0] * (count - 1) + [1] if meet == "slow child" else [1] * count
        assert calls[1].tolist() == child
        assert calls[0].tolist() == [1 - c for c in child]

    @can_fork
    def test_failed_child_blocks_run_here(self, seven_blocks, monkeypatch):
        # the child fails every block it takes: this process reaps it, then
        # runs the child's blocks too, and the reports are the serial ones
        spec, sol, runs = seven_blocks
        serial = self.outputs(spec, sol, runs)
        assert force_split(monkeypatch)
        parent, draw = os.getpid(), simulate._wiener_increments

        def failing_in_child(*args):
            if os.getpid() != parent:
                raise MemoryError("child")
            return draw(*args)

        monkeypatch.setattr(simulate, "_wiener_increments", failing_in_child)
        assert self.outputs(spec, sol, runs) == serial

    @can_fork
    def test_failed_child_raises_the_serial_error(self, seven_blocks, monkeypatch):
        # blocks from path 150 on overflow, the child's first: it exits 1, and
        # this process raises the overflow of the first such block, as a serial run does
        spec, sol, runs = seven_blocks
        block = simulate._run_cost_block

        def overflowing(setup, xi, seed, indices, antithetic):
            if indices[0] >= 150:
                raise NumericalOverflow(f"block from path {indices[0]}", int(indices[-1]))
            return block(setup, xi, seed, indices, antithetic)

        monkeypatch.setattr(simulate, "_run_cost_block", overflowing)
        errors = []
        for split in (False, True):
            if split:
                assert force_split(monkeypatch)
                forks = count_forks(monkeypatch)
            with pytest.raises(NumericalOverflow) as exc:
                self.outputs(spec, sol, runs)
            errors.append((str(exc.value), exc.value.step))
        assert errors[1] == errors[0] == ("block from path 172", 214)
        assert forks == [1]

    @can_fork
    @pytest.mark.parametrize("child", ["blocked writing", "still running"])
    def test_error_here_kills_the_child(self, solved, monkeypatch, child):
        # two blocks of 10k pairs: the child has run the back one and holds
        # 160 KB of results, more than a pipe takes, or is still running it,
        # when the front one overflows here; the call raises that overflow at
        # once and reaps the child
        spec, sol = solved
        runs = [(ControlPolicy.from_solution(sol), SimConfig(n_paths=20_000, n_steps=8, seed=3))]
        assert force_split(monkeypatch)
        forks = count_forks(monkeypatch)
        parent, block = os.getpid(), simulate._run_cost_block
        done, never = os.pipe(), os.pipe()

        def overflowing(setup, xi, seed, indices, antithetic):
            if os.getpid() == parent:
                wait_for(done[0])
                raise NumericalOverflow("state norm exceeded 1e+12 at step 3", 3)
            if child == "still running":
                os.write(done[1], b"s")
                wait_for(never[0])
            result = block(setup, xi, seed, indices, antithetic)
            os.write(done[1], b"d")
            return result

        monkeypatch.setattr(simulate, "_run_cost_block", overflowing)

        def hung(signum, frame):
            raise TimeoutError("no return within 30 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        t0 = time.monotonic()
        try:
            with pytest.raises(NumericalOverflow, match="at step 3"):
                self.outputs(spec, sol, runs)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            for fd in (*done, *never):
                os.close(fd)
        assert time.monotonic() - t0 < 10.0
        assert forks == [1]

    @can_fork
    def test_claims_under_contention(self):
        # 100 shared runs of 2 to 9 blocks of no work, where the two claimers
        # race at every block: each result is there, and at most one block runs twice
        parent = os.getpid()
        for trial in range(100):
            count = 2 + trial % 8
            calls = shared_counts(count)

            def run(i):
                calls[0 if os.getpid() == parent else 1, i] += 1
                return -i

            assert simulate._run_shared(count, run) == [-i for i in range(count)]
            assert calls.max() <= 1 and calls.sum() <= count + 1

    @can_fork
    def test_failed_fork_runs_here(self, seven_blocks, monkeypatch):
        # a process limit makes fork fail: every block runs in this process
        spec, sol, runs = seven_blocks
        serial = self.outputs(spec, sol, runs)
        assert force_split(monkeypatch)
        forks = []

        def no_fork():
            forks.append(1)
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert self.outputs(spec, sol, runs) == serial
        assert forks == [1]

    def test_live_thread_keeps_the_run_serial(self, seven_blocks, monkeypatch):
        # fork copies only the calling thread, so another live thread keeps the run in one process
        spec, sol, runs = seven_blocks
        serial = self.outputs(spec, sol, runs)
        monkeypatch.setattr(simulate, "SPLIT_INCREMENTS", 0)
        forks = count_forks(monkeypatch) if hasattr(os, "fork") else []
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30.0,))
        waiter.start()
        try:
            assert not simulate._splits_run(10 ** 9)
            assert self.outputs(spec, sol, runs) == serial
        finally:
            release.set()
            waiter.join(timeout=30.0)
        assert not waiter.is_alive()
        assert forks == []


class TestHamiltonianIdentity:
    @hypothesis.settings(max_examples=3)
    @hypothesis.given(data=problems)
    def test_defect_is_roundoff(self, data):
        sol = solve_riccati(data)
        defect = hamiltonian_identity_check(data, sol)
        scale = 1.0 + float(np.max(np.sqrt(np.sum(sol.P * sol.P, axis=(1, 2)))))
        assert defect <= 1e-10 * scale

    def test_scalar_closed_form_gain(self):
        data = scalar_benchmark(1.0)
        sol = solve_riccati(data)
        # Gamma = -P/(r+P) in closed form
        G_hand = -sol.P[:, 0, 0] / (1.0 + sol.P[:, 0, 0])
        assert np.max(np.abs(sol.gain[:, 0, 0] - G_hand)) < 1e-12
        assert hamiltonian_identity_check(data, sol) <= 1e-12

    def test_corrupted_gain_detected(self, solved):
        spec, sol = solved
        sol.gain = sol.gain + 0.1
        defect = hamiltonian_identity_check(spec.data, sol)
        assert defect >= 0.05 * float(np.min(sol.margin))
