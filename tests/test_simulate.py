import numpy as np
import pytest
from numpy.random import Generator, Philox

from indeflq import simulate
from indeflq.core import ProblemData
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

from conftest import random_definite_problem, scalar_benchmark


def definite_2x2():
    return parse_spec(bundled.example_doc("definite_2x2"))


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

    def test_value_identity_definite(self):
        spec = definite_2x2()
        sol = solve_riccati(spec.data, spec.solver)
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
        # the first Euler step makes the state inf - inf = NaN, which a
        # "norm > cap" test lets through (NaN compares False)
        grid = np.linspace(0.0, 1.0, 9)
        data = ProblemData(n=1, k=1, d=1, T=1.0, A=1e308, B=0.0, C=[-1e308], D=[0.0],
                           R=1.0, Q=1.0, N=[[1.0]], grid=grid)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalOverflow, match="at step 0"):
                simulate_cost(data, ControlPolicy(), [10.0], SimConfig(4, 8, seed=1))
            with pytest.raises(NumericalOverflow, match="fundamental pair"):
                fundamental_pair_check(data, np.zeros((1, 1)), SimConfig(4, 8, seed=1))

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
            gen = Generator(Philox(key=np.array([seed, p], dtype=np.uint64)))
            expected = gen.standard_normal((n_steps, d)) * np.sqrt(dt)
            assert np.array_equal(dW[:, :, col], expected)

    def test_independent_of_block_partition(self, monkeypatch):
        # 64 increments per block is one path per block at 64 steps, d = 1
        spec = definite_2x2()
        sol = solve_riccati(spec.data, spec.solver)
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

    def test_reproducible_across_workers(self):
        spec = definite_2x2()
        sol = solve_riccati(spec.data, spec.solver)
        policy = ControlPolicy.from_solution(sol)
        cfg = SimConfig(n_paths=3000, n_steps=64, seed=11)
        reps = [simulate_cost(spec.data, policy, spec.xi, cfg, n_workers=w)
                for w in (1, 2, 5)]
        assert reps[0].cost_mean == reps[1].cost_mean == reps[2].cost_mean
        assert reps[0].cost_stderr == reps[1].cost_stderr == reps[2].cost_stderr

    def test_seed_changes_draws(self):
        spec = definite_2x2()
        sol = solve_riccati(spec.data, spec.solver)
        policy = ControlPolicy.from_solution(sol)
        r1 = simulate_cost(spec.data, policy, spec.xi, SimConfig(500, 64, seed=1))
        r2 = simulate_cost(spec.data, policy, spec.xi, SimConfig(500, 64, seed=2))
        assert r1.cost_mean != r2.cost_mean

    def test_discretization_convergence(self):
        # Euler weak bias is O(dt): successive refinements approach the true
        # value monotonically once the noise floor is far below the bias
        spec = definite_2x2()
        sol = solve_riccati(spec.data, spec.solver)
        policy = ControlPolicy.from_solution(sol)
        means = [
            simulate_cost(spec.data, policy, spec.xi,
                          SimConfig(n_paths=20000, n_steps=ns, seed=77)).cost_mean
            for ns in (64, 128, 256, 512)
        ]
        diffs = [abs(means[i] - means[i + 1]) for i in range(3)]
        assert diffs[0] > diffs[1] > diffs[2]


class TestCompletingSquare:
    def test_optimal_policy_kills_the_square(self):
        spec = definite_2x2()
        sol = solve_riccati(spec.data, spec.solver)
        policy = ControlPolicy.from_solution(sol)
        cfg = SimConfig(n_paths=4000, n_steps=256, seed=5)
        rep = completing_square_report(spec.data, sol, policy, spec.xi, cfg)
        assert rep.cs_rhs == 0.0  # u = G x pathwise
        assert rep.cs_residual <= 3 * rep.cs_stderr + 2.0 / cfg.n_steps

    def test_perturbed_policy_positive_square(self):
        spec = definite_2x2()
        sol = solve_riccati(spec.data, spec.solver)
        v = np.array([0.6, -0.4])
        policy = ControlPolicy(gain=ControlPolicy.from_solution(sol).gain, perturb=v)
        cfg = SimConfig(n_paths=4000, n_steps=256, seed=6)
        rep = completing_square_report(spec.data, sol, policy, spec.xi, cfg)
        assert rep.cs_rhs > 0.05
        assert rep.cs_residual <= 3 * rep.cs_stderr + 2.0 / cfg.n_steps

    def test_zero_policy(self):
        spec = definite_2x2()
        sol = solve_riccati(spec.data, spec.solver)
        cfg = SimConfig(n_paths=4000, n_steps=256, seed=7)
        rep = completing_square_report(spec.data, sol, ControlPolicy(),
                                       spec.xi, cfg)
        assert rep.cs_lhs > 0.1
        assert rep.cs_residual <= 3 * rep.cs_stderr + 2.0 / cfg.n_steps

    def test_optimal_policy_minimality(self):
        spec = definite_2x2()
        sol = solve_riccati(spec.data, spec.solver)
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

    def test_suboptimality_lower_bound(self, rng_session):
        # any policy's cost dominates the certificate witness value at xi
        from indeflq.certificates import certify_definite_regime
        spec = definite_2x2()
        cert = certify_definite_regime(spec.data)
        sol = solve_riccati(spec.data, spec.solver)
        F0 = cert.witness_value_at_zero(spec.data.n)
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

    def test_closed_loop_comparable_to_scalar(self):
        spec = definite_2x2()
        sol = solve_riccati(spec.data, spec.solver)
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


class TestHamiltonianIdentity:
    def test_defect_is_roundoff(self, rng_session):
        for _ in range(3):
            data = random_definite_problem(rng_session)
            sol = solve_riccati(data)
            defect = hamiltonian_identity_check(data, sol, probe_points=64)
            scale = 1.0 + float(np.max(np.sqrt(np.sum(sol.P * sol.P, axis=(1, 2)))))
            assert defect <= 1e-10 * scale

    def test_scalar_closed_form_gain(self):
        data = scalar_benchmark(1.0)
        sol = solve_riccati(data)
        # Gamma = -P/(r+P) in closed form
        G_hand = -sol.P[:, 0, 0] / (1.0 + sol.P[:, 0, 0])
        assert np.max(np.abs(sol.gain[:, 0, 0] - G_hand)) < 1e-12
        assert hamiltonian_identity_check(data, sol) <= 1e-12

    def test_corrupted_gain_detected(self):
        spec = definite_2x2()
        sol = solve_riccati(spec.data, spec.solver)
        sol.gain = sol.gain + 0.1
        defect = hamiltonian_identity_check(spec.data, sol)
        assert defect >= 0.05 * float(np.min(sol.margin))
