import itertools
import tracemalloc

import hypothesis
import numpy as np
import pytest

from indeflq import bundled, core, oracle
from indeflq.core import (DEFAULT_EPS_POS, PIECEWISE_CONSTANT_LEFT, PIECEWISE_LINEAR,
                          ProblemData, min_eigenvalue, symmetrize)
from indeflq.errors import NumericalOverflow
from indeflq.oracle import OracleResult, dp_ladder, dp_solve
from indeflq.riccati import solve_riccati
from indeflq.specio import parse_spec

from conftest import problems, random_definite_problem, random_varying_problem, scalar_benchmark

# the step ladder of the oracle benchmark
LADDER = (512, 1024, 2048, 4096, 8192)
INTERPOLATIONS = (PIECEWISE_LINEAR, PIECEWISE_CONSTANT_LEFT)


def reference_dp_solve(data, n_steps, eps_pos=DEFAULT_EPS_POS):
    """The recursion term by term: S, G and the next P summed over each channel."""
    n = data.n
    delta = data.T / n_steps
    sq = np.sqrt(delta)
    eye = np.eye(n)
    P = symmetrize(np.asarray(data.N, dtype=float))
    A_, B_, C_, D_, R_, Q_ = data.stacked_at(np.arange(n_steps) * delta)
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


def assert_same_recursion(data, *ladder):
    """dp_ladder on ``ladder`` against reference_dp_solve at each count."""
    got = dp_ladder(data, ladder)
    assert len(got) == len(ladder)
    for ns, res in zip(ladder, got):
        want = reference_dp_solve(data, ns)
        assert res.delta == want.delta
        assert (res.constraint_ok, res.violation_step) == (want.constraint_ok,
                                                           want.violation_step)
        if want.constraint_ok:
            scale = np.max(np.abs(want.P0))
            assert np.max(np.abs(res.P0 - want.P0)) <= 1e-12 * scale
    return got


def record_spans(monkeypatch):
    """A list of each span's (first, stop, live counts), recorded from ``_span_faults``, whose
    M holds one row of step matrices per iteration and live count on either step path."""
    spans, span_faults = [], oracle._span_faults

    def recorded(M, n, bound):
        first = spans[-1][1] if spans else 0
        spans.append((first, first + M.shape[0], M.shape[1]))
        return span_faults(M, n, bound)

    monkeypatch.setattr(oracle, "_span_faults", recorded)
    return spans


def record_blocks_at(monkeypatch):
    """A list of the shape of the times of each ``ProblemData.blocks_at`` call."""
    shapes, blocks_at = [], ProblemData.blocks_at

    def recorded(self, t):
        shapes.append(np.shape(t))
        return blocks_at(self, t)

    monkeypatch.setattr(ProblemData, "blocks_at", recorded)
    return shapes


def still_data(n, Q, N, T=2.0, points=9):
    grid = np.linspace(0.0, T, points)
    return ProblemData(n=n, k=1, d=1, T=T,
                       A=np.zeros((n, n)), B=np.zeros((n, 1)),
                       C=[np.zeros((n, n))], D=[np.zeros((n, 1))],
                       R=[[1.0]], Q=Q, N=N, grid=grid)


class TestTrivial:
    def test_identity_recursion(self):
        N = np.array([[3.0, 1.0], [1.0, 2.0]])
        data = still_data(2, np.zeros((2, 2)), N)
        for ns in (1, 5, 17):
            res = dp_solve(data, ns)
            assert res.constraint_ok
            assert np.allclose(res.P0, N, atol=1e-14)

    def test_one_step_quadrature_convention(self):
        # A = B = C = D = 0, one step: P0 = Q*T + N
        N = np.array([[3.0, 1.0], [1.0, 2.0]])
        data = still_data(2, np.eye(2), N)
        res = dp_solve(data, 1)
        assert np.allclose(res.P0, 2.0 * np.eye(2) + N, atol=1e-14)


class TestConvergence:
    def test_scalar_definite_to_implicit_value(self):
        data = scalar_benchmark(1.0)
        sol = solve_riccati(data)
        errs = [res.error_vs(sol.P0) for res in dp_ladder(data, (64, 128, 256, 512))]
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        order = np.log2(errs[0] / errs[-1]) / 3.0
        assert order >= 0.8
        assert all(1.6 <= r <= 2.6 for r in ratios)

    def test_certified_indefinite_case(self):
        data = scalar_benchmark(-0.15)
        sol = solve_riccati(data)
        errs = []
        for res in dp_ladder(data, (64, 128, 256, 512)):
            assert res.constraint_ok
            errs.append(res.error_vs(sol.P0))
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        assert all(1.6 <= r <= 2.6 for r in ratios)

    @hypothesis.settings(max_examples=3)
    @hypothesis.given(data=problems)
    def test_richardson_consistency(self, data):
        sol = solve_riccati(data)
        ladder = dp_ladder(data, (64, 128, 256, 512))
        errs = [res.error_vs(sol.P0) for res in ladder]
        diffs = [np.linalg.norm(coarse.P0 - fine.P0) for coarse, fine in zip(ladder, ladder[1:])]
        ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
        assert all(1.6 <= r <= 2.6 for r in ratios)
        assert errs[0] > errs[-1]


class TestStructure:
    def test_iterates_symmetric(self):
        data = random_definite_problem(np.random.default_rng(9))
        res = dp_solve(data, 128)
        assert np.array_equal(res.P0, res.P0.T)

    def test_constraint_abort(self):
        # weight below the sharp threshold: the discrete weight loses
        # positivity once the value path dips under |r|
        data = scalar_benchmark(-0.17)
        res = dp_solve(data, 256)
        assert not res.constraint_ok
        assert res.P0 is None
        assert res.violation_step is not None
        assert np.isnan(res.error_vs(np.array([[0.0]])))


class TestAgainstReference:
    def test_random_problems(self):
        # definite problems, time-invariant (the step map) and time-varying (the block
        # product), and the same with an indefinite control weight (some of which lose
        # discrete positivity part way)
        rng, varying_rng = np.random.default_rng(8128), np.random.default_rng(8129)
        aborted = completed = 0
        for n, k, d in itertools.product((1, 2, 3), (1, 2), (1, 2)):
            invariant = random_definite_problem(rng, n=n, k=k, d=d)
            varying = random_varying_problem(varying_rng, INTERPOLATIONS[(n + k + d) % 2],
                                             n=n, k=k, d=d)
            assert invariant.time_invariant and not varying.time_invariant
            for data in (invariant, varying):
                for problem in (data, data.with_weights(R=-0.3 * np.eye(k))):
                    for res in assert_same_recursion(problem, 16, 97):
                        aborted += not res.constraint_ok
                        completed += res.constraint_ok
        assert aborted and completed

    @pytest.mark.parametrize("name", bundled.example_names())
    def test_bundled_specs(self, name):
        assert_same_recursion(parse_spec(bundled.example_doc(name)).data, 512)

    def test_violation_ladder(self):
        data = parse_spec(bundled.example_doc("example504_rneg017")).data
        assert [res.violation_step for res in dp_ladder(data, LADDER)] == [25, 55, 114, 233, 471]

    def test_large_frozen_data_take_the_block_product(self, monkeypatch):
        # n = k = 12: K would hold 82944 entries, above MAP_MAX_ENTRIES, so time-invariant
        # data step by the block product, as time-varying data do
        n = k = 12
        rng = np.random.default_rng(3)
        data = ProblemData(n=n, k=k, d=1, T=1.0,
                           A=-0.5 * np.eye(n) + 0.03 * rng.standard_normal((n, n)),
                           B=0.3 * rng.standard_normal((n, k)),
                           C=[0.03 * rng.standard_normal((n, n))],
                           D=[0.03 * rng.standard_normal((n, k))],
                           R=np.eye(k), Q=np.eye(n), N=np.eye(n), grid=np.linspace(0.0, 1.0, 2))
        assert data.time_invariant and (n * (n + k)) ** 2 > core.MAP_MAX_ENTRIES

        calls = record_blocks_at(monkeypatch)
        got = dp_ladder(data, (16, 9))
        # one blocks_at per span, each at (iterations, counts) step times: no map is built
        assert len(calls) > 1 and all(len(shape) == 2 for shape in calls)
        monkeypatch.undo()
        assert all(res.constraint_ok for res in assert_same_recursion(data, 16, 9))
        assert all(res.P0.tobytes() == ref.P0.tobytes() for res, ref in
                   zip(got, dp_ladder(data, (16, 9))))

    def test_blowup_data_completes_the_ladder(self):
        # the continuous flow escapes; the discrete weight stays positive
        data = parse_spec(bundled.example_doc("blowup_ode")).data
        assert all(res.constraint_ok for res in dp_ladder(data, LADDER))


def coarse_data(varying=False):
    """A = -4 (or -4 + t/2), B = 3, R = 1, Q = -1, N = 0: the discrete weight fails at 2
    and 3 steps."""
    grid = np.linspace(0.0, 1.0, 9)
    A = (-4.0 + 0.5 * grid)[:, None, None] if varying else -4.0
    return ProblemData(n=1, k=1, d=1, T=1.0, A=A, B=3.0, C=[0.0], D=[0.0],
                       R=1.0, Q=-1.0, N=[[0.0]], grid=grid)


class TestLockstep:
    def test_random_ladders(self):
        # unsorted ladders with duplicates, short enough that the max(steps)
        # row bound splits the spans, and indefinite weights that abort some;
        # under a large terminal weight R = -0.3 I starts positive and fails part-way
        # time-invariant data (the step map) and time-varying data (the block product)
        rng, varying_rng = np.random.default_rng(4093), np.random.default_rng(4094)
        mixed = 0
        part_way = {True: set(), False: set()}
        for n, k, d in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)):
            interp = INTERPOLATIONS[(n + k + d) % 2]
            for draws, data in ((rng, random_definite_problem(rng, n=n, k=k, d=d)),
                                (varying_rng, random_varying_problem(varying_rng, interp,
                                                                     n=n, k=k, d=d))):
                indefinite = data.with_weights(R=-0.3 * np.eye(k))
                for problem in (data, indefinite, indefinite.with_weights(N=8.0 * np.eye(n))):
                    ladder = [int(ns) for ns in draws.integers(1, 40, size=6)]
                    ladder.insert(int(draws.integers(0, 6)), ladder[0])
                    got = assert_same_recursion(problem, *ladder)
                    mixed += len({res.constraint_ok for res in got}) == 2
                    part_way[data.time_invariant].update(
                        k for ns, res in zip(ladder, got)
                        if not res.constraint_ok and res.violation_step < ns - 1)
                    # P is symmetrized once per completed count, which leaves it exactly symmetric
                    assert all(np.array_equal(res.P0, res.P0.T) for res in got if res.constraint_ok)
        assert mixed and {2, 3} <= part_way[True] and {2, 3} <= part_way[False]

    def test_early_failure_ends_its_span_early(self, monkeypatch):
        # R = -0.3 I under N = 8 I fails at iteration 66 of 2000 and 262 of 8192 on
        # time-invariant data, and at 80 and 318 on a piecewise-constant variation; the spans
        # double from FIRST_SPAN, so the count steps at most 2 f + FIRST_SPAN iterations
        spans = record_spans(monkeypatch)
        cases = []
        for data, fails in (
                (random_definite_problem(np.random.default_rng(0), n=2, k=2, d=2), (66, 262)),
                (random_varying_problem(np.random.default_rng(0), PIECEWISE_CONSTANT_LEFT,
                                        n=2, k=2, d=2), (80, 318))):
            cases.append(data.time_invariant)
            data = data.with_weights(R=-0.3 * np.eye(2), N=8.0 * np.eye(2))
            for N, failed_at in zip((2000, 8192), fails):
                spans.clear()
                assert N - 1 - dp_solve(data, N).violation_step == failed_at
                assert failed_at < spans[-1][1] <= 2 * failed_at + oracle.FIRST_SPAN
        assert cases == [True, False]

    def test_aborts_and_completions_in_one_ladder(self):
        got = assert_same_recursion(coarse_data(), 2, 3, 4)
        assert [res.violation_step for res in got] == [0, 1, None]

    def test_duplicates_share_one_result(self):
        got = dp_ladder(random_definite_problem(np.random.default_rng(7)), (9, 4, 9))
        assert got[0] is got[2]

    def test_tables_hold_at_most_max_steps_rows(self, monkeypatch):
        # a span's M holds iterations x live counts step matrices on either step path, as
        # the W_j and Z_j tables of the block product do
        spans = record_spans(monkeypatch)
        rng = np.random.default_rng(11)
        for data in (random_definite_problem(rng), random_varying_problem(rng, PIECEWISE_LINEAR)):
            spans.clear()
            # more spans than counts: the row bound, not only completions, ends spans
            dp_ladder(data, (30, 28, 26, 24, 1))
            assert len(spans) > 5 and max((b - a) * live for a, b, live in spans) <= 30

    def test_step_counts_must_be_positive(self):
        data = coarse_data()
        for ladder in ((), (4, 0), (2.5,), (4, 2.5), (4, float("nan")), (4, float("inf"))):
            with pytest.raises(ValueError):
                dp_ladder(data, ladder)

    @pytest.mark.parametrize("eps_pos", [float("nan"), float("inf"), -1.0, 0.0])
    def test_eps_pos_must_be_positive_and_finite(self, eps_pos):
        # a NaN or negative bound lets a non-positive S through, and the unpivoted
        # sweep needs pivots above a positive bound
        data = parse_spec(bundled.example_doc("example504_rneg017")).data
        with pytest.raises(ValueError):
            dp_ladder(data, (64, 128), eps_pos=eps_pos)

    def test_failed_counts_stay_isolated(self, monkeypatch):
        # counts that fail part-way through a span step on until it ends, on coarse_data's
        # zero pivot into inf and NaN; the counts beside them keep the bits of their solo run
        # on time-invariant data and on time-varying ones
        spans, garbage = record_spans(monkeypatch), []
        schur_steps = oracle.schur_steps

        def recorded_steps(Ms, n, out):
            # each step's elimination into out runs when the next step is asked for
            for a, Ma in enumerate(schur_steps(Ms, n, out)):
                if a:
                    garbage.append(not np.isfinite(out).all())
                yield Ma
            garbage.append(not np.isfinite(out).all())

        monkeypatch.setattr(oracle, "schur_steps", recorded_steps)
        rng, varying_rng = np.random.default_rng(20), np.random.default_rng(22)
        cases = [(coarse_data(), (3, 40, 9), True), (coarse_data(varying=True), (3, 40, 9), True)]
        for k in (2, 3):
            for data in (random_definite_problem(rng, n=2, k=k, d=2),
                         random_varying_problem(varying_rng, PIECEWISE_LINEAR, n=2, k=k, d=2)):
                cases.append((data.with_weights(R=-0.3 * np.eye(k), N=8.0 * np.eye(2)),
                              (64, 5, 3, 40, 2, 1), False))
        assert [data.time_invariant for data, _, _ in cases] == [True, False] * 3
        for data, ladder, non_finite in cases:
            spans.clear()
            garbage.clear()
            got = dp_ladder(data, ladder)
            assert any(garbage) == non_finite
            mid_span = [res.violation_step is not None
                        and any(a <= ns - 1 - res.violation_step < b - 1 for a, b, _ in spans)
                        for ns, res in zip(ladder, got)]
            assert any(mid_span) and any(res.constraint_ok for res in got)
            for ns, res in zip(ladder, got):
                solo = dp_solve(data, ns)
                assert (res.constraint_ok, res.violation_step) == (solo.constraint_ok,
                                                                   solo.violation_step)
                if solo.constraint_ok:
                    assert res.P0.tobytes() == solo.P0.tobytes()

    def test_step_maps_keep_the_table_bound(self, monkeypatch):
        # n = k = 8: each count's map holds 256 x 65 = 16640 entries; under a bound of
        # 1.2e5 entries 3 counts step by their maps (twice their size fits), and 4 and 20
        # distinct ones by the block product (20 maps would take 2.7 MB); no call's
        # allocations peak above the bound
        bound = 120_000
        monkeypatch.setattr(core, "MAX_TABLE_ENTRIES", bound)
        calls = record_blocks_at(monkeypatch)
        data = random_definite_problem(np.random.default_rng(5), n=8, k=8, d=1)
        # the maps read blocks_at once, at one time; the block product once per span
        for ladder, mapped in (((20, 19, 18), True), ((20, 19, 18, 17), False),
                               (range(1, 21), False)):
            calls.clear()
            tracemalloc.start()
            try:
                assert all(res.constraint_ok for res in dp_ladder(data, list(ladder)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ([len(shape) for shape in calls] == [0]) == mapped and peak <= 8 * bound

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_overflow_raises_with_its_step(self, k):
        # B = D = 0 under a terminal weight of 1e307: each of 64 steps scales P by
        # f = (1 + 10/64)^2, and M leaves the float range after about 10 of them
        data = ProblemData(n=1, k=k, d=1, T=1.0, A=10.0, B=np.zeros((1, k)), C=[0.0],
                           D=[np.zeros((1, k))], R=np.eye(k), Q=1.0, N=[[1e307]],
                           grid=np.linspace(0.0, 1.0, 2))
        with pytest.raises(NumericalOverflow) as info:
            dp_ladder(data, (64, 512))
        step, f = info.value.step, (1 + 10 / 64) ** 2
        # P of step 64 is the terminal weight and M of step j is f P of step j + 1,
        # 1e307 f^(64 - j): the first M to overflow is that of the reported step
        assert 1e307 * f ** (64 - step) > np.finfo(float).max >= 1e307 * f ** (63 - step)
        assert f"at step {step}" in str(info.value)

    @pytest.mark.parametrize("k", [2, 3])
    def test_weight_overflow_is_no_violation(self, k):
        # D'PD = 1e6 P in every entry takes S past the float range at the first step;
        # eigvalsh raises on some non-finite S, and a zeroed S would read as a violation
        data = ProblemData(n=1, k=k, d=1, T=1.0, A=0.0, B=np.zeros((1, k)), C=[0.0],
                           D=[np.full((1, k), 1e3)], R=np.eye(k), Q=0.0, N=[[1e307]],
                           grid=np.linspace(0.0, 1.0, 2))
        with pytest.raises(NumericalOverflow) as info:
            dp_solve(data, 64)
        assert info.value.step == 63

    def test_overflow_in_the_last_elimination(self):
        # S = R + N is 2^-52 N: M is finite, but G' S^-1 G = 2^52 N is not
        data = ProblemData(n=1, k=1, d=1, T=1.0, A=0.0, B=1.0, C=[0.0], D=[0.0],
                           R=-1e300 * (1 - 2.0 ** -52), Q=0.0, N=[[1e300]],
                           grid=np.linspace(0.0, 1.0, 2))
        with pytest.raises(NumericalOverflow) as info:
            dp_solve(data, 1)
        assert info.value.step == 0

    def test_call_budget(self, monkeypatch):
        # no solve; one symmetrize per completed count; one eigvalsh at most per
        # span when k > 1, none when k = 1; one blocks_at on time-invariant data
        problems = []
        for k in (1, 2):
            for data in (random_definite_problem(np.random.default_rng(k), n=2, k=k, d=2),
                         random_varying_problem(np.random.default_rng(k), PIECEWISE_LINEAR,
                                                n=2, k=k, d=2)):
                problems += [data, data.with_weights(R=-0.3 * np.eye(k), N=8.0 * np.eye(2))]
        calls = {}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        monkeypatch.setattr(oracle, "symmetrize", counted("symmetrize", oracle.symmetrize))
        monkeypatch.setattr(oracle, "_span_faults", counted("spans", oracle._span_faults))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(ProblemData, "blocks_at", counted("blocks_at", ProblemData.blocks_at))
        ladder = (16, 9, 16, 5, 1)
        outcomes = {True: set(), False: set()}
        for data in problems:
            calls.update(symmetrize=0, spans=0, eigvalsh=0, blocks_at=0)
            got = dp_ladder(data, ladder)
            completed = {ns for ns, res in zip(ladder, got) if res.constraint_ok}
            outcomes[data.time_invariant].update(res.constraint_ok for res in got)
            assert calls["symmetrize"] == len(completed)
            assert (0 < calls["eigvalsh"] <= calls["spans"] if data.k > 1
                    else calls["eigvalsh"] == 0)
            assert (calls["blocks_at"] == 1) == data.time_invariant
        assert outcomes == {True: {True, False}, False: {True, False}}
