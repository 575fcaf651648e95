import collections
import functools
import json
import os
import shlex
import subprocess
import sys

import hypothesis
import numpy as np
import pytest
import yaml
from hypothesis import strategies as st

from indeflq import bundled, certificates, cli, core, oracle, riccati, simulate, specio
from indeflq.cli import main
from indeflq.specio import apply_overrides, dumps_report, parse_spec
from indeflq.errors import SpecError

from conftest import smooth_blowup_doc


def scalar_doc(a, b, q, terminal, **blocks):
    """A spec with n = k = d = 1 on 9 grid points, C = D = 0 and R = 1."""
    return {
        "dimensions": {"n": 1, "k": 1, "d": 1},
        "horizon": 1.0,
        "grid": {"points": 9},
        "coefficients": {"A": [[a]], "B": [[b]], "C": [[[0.0]]], "D": [[[0.0]]],
                         "R": [[1.0]], "Q": [[q]]},
        "terminal": [[terminal]],
        **blocks,
    }


# n = 10, k = d = 1: 10 * 10 * 3 + 10 * 2 + 1 = 321 entries per step, so
# 31152 steps fit in MAX_TABLE_ENTRIES and 31153 do not
def wide_doc(n_steps):
    zeros = np.zeros((10, 10)).tolist()
    return {
        "dimensions": {"n": 10, "k": 1, "d": 1},
        "horizon": 1.0,
        "grid": {"points": 2},
        "coefficients": {"A": zeros, "B": np.ones((10, 1)).tolist(), "C": [zeros],
                         "D": [np.zeros((10, 1)).tolist()], "R": [[1.0]], "Q": zeros},
        "terminal": np.eye(10).tolist(),
        "simulation": {"n_paths": 10, "n_steps": n_steps, "xi": np.ones(10).tolist()},
    }


# specs written beside the bundled examples, each as <name>.yaml
SPECS = {
    "malformed": "dimensions: {n: 1, k: 1}\nhorizon: 1.0\n",
    # B = D = 0 leaves x' = 40 x uncontrolled: Euler steps grow the state by
    # 1 + 40/512 each, past 1e12 after about 360 of the 512 steps
    "explosive": scalar_doc(40.0, 0.0, 0.0, 0.0,
                            simulation={"n_paths": 4, "n_steps": 512, "seed": 1, "xi": [1.0]}),
    # P(t) = N for every step size, so every oracle error is 0 and no ratio exists
    "still": scalar_doc(0.0, 0.0, 0.0, 1.0),
    # the continuous weight stays R = 1, while the discrete one,
    # delta * (1 + delta * B'PB), loses positivity at coarse steps
    "coarse": scalar_doc(-4.0, 3.0, -1.0, 0.0),
    # an event located by bisection inside a step
    "smooth_blowup": smooth_blowup_doc(),
    "wide": wide_doc(31153),
}


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    for name in bundled.example_names():
        assert main(["example", name, "--out-dir", str(d), "--quiet"]) == 0
    for name, doc in SPECS.items():
        (d / f"{name}.yaml").write_text(doc if isinstance(doc, str) else yaml.safe_dump(doc))
    return d


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def set_key(doc, key_path, value):
    *parents, last = key_path.split(".")
    for part in parents:
        doc = doc.setdefault(part, {})
    doc[last] = value


def run_cli(argv, example_dir):
    """``main`` on a shell-quoted argv; ``<name>`` is the spec ``name`` in ``example_dir``."""
    return main([str(example_dir / f"{item[1:-1]}.yaml") if item[:1] == "<" else item
                 for item in shlex.split(argv)])


# Each row of ARGV_ERRORS and RUNS is one test.  Its name is its pytest id,
# "Class::test" or "Class::test[param]", and rows that share a test are its
# parameters.  A name is a str.format template of the row: {command} is the
# first argv word ("none" for no words), {spec} the first <spec> in argv,
# {message} the stderr line less "error: " and {index} the row's place among
# the rows of its template.
MESSAGE = "TestInputErrors::test_message_exit1[{command}-flags{index}-{message}]"
ONE_LINE = "TestInputErrors::test_exit1_with_one_error_line[{command}-{spec}-settings{index}]"
WITNESS = "TestCertifyCommand::test_malformed_witness_exit1[{spec}-settings{index}]"
NO_DIR = "error: [Errno 2] No such file or directory: '/no/such/dir/r.json'\n"

# (name, argv, exit code, stderr): stderr is one line, and starts with the given
# text; a text that ends in a newline is the whole line
ARGV_ERRORS = [
    (MESSAGE, "oracle --spec <definite_2x2> --steps 0", 1,
     "error: --steps: expected step counts from 1 to 1000000\n"),
    (MESSAGE, "oracle --spec <definite_2x2> --steps 1000001", 1,
     "error: --steps: expected step counts from 1 to 1000000\n"),
    (MESSAGE, "solve --spec <definite_2x2> --set grid.points=1", 1,
     "error: grid.points: need 2 to 100000 sample points\n"),
    (MESSAGE, "solve --spec <definite_2x2> --set grid.points=100001", 1,
     "error: grid.points: need 2 to 100000 sample points\n"),
    (MESSAGE, "solve --spec <definite_2x2> --set =1", 1, "error: override '=1': empty key path\n"),
    (MESSAGE, "solve --spec <definite_2x2> --set .=1", 1,
     "error: override '.=1': empty key path\n"),
    (MESSAGE, "solve --spec <definite_2x2> --set horizon.x=1", 1,
     "error: override 'horizon.x=1': horizon is not a mapping\n"),
    (MESSAGE, "solve --spec x.yaml --no-such-flag", 1,
     "error: unrecognized arguments: --no-such-flag\n"),
    (MESSAGE, "", 1,
     "error: expected a command (solve, certify, simulate, oracle, example), got nothing\n"),
    (MESSAGE, "bogus", 1,
     "error: expected a command (solve, certify, simulate, oracle, example), got bogus\n"),
    (MESSAGE, "solve", 1, "error: the following arguments are required: --spec\n"),
    (MESSAGE, "solve --spec <definite_2x2> --set", 1,
     "error: argument --set: expected one argument\n"),
    (MESSAGE, "solve --spec <definite_2x2> --out --quiet", 1,
     "error: argument --out: expected one argument\n"),
    (MESSAGE, "solve --spec <definite_2x2> --quiet=1", 1,
     "error: unrecognized arguments: --quiet=1\n"),
    (MESSAGE, "oracle --spec <definite_2x2> --s 5", 1,
     "error: ambiguous option: --s could match --spec, --set, --steps\n"),
    (MESSAGE, "example definite_2x2 extra", 1, "error: unrecognized arguments: extra\n"),
    (MESSAGE, "solve --spec <definite_2x2> extra", 1, "error: unrecognized arguments: extra\n"),
    (MESSAGE, "oracle --spec <definite_2x2> --steps a,b", 1,
     "error: --steps: expected comma-separated integers, got 'a,b'\n"),
    (MESSAGE, "oracle --spec <definite_2x2> --steps 2.5", 1,
     "error: --steps: expected comma-separated integers, got '2.5'\n"),
    (MESSAGE, "oracle --spec <definite_2x2> --steps ''", 1,
     "error: --steps: expected step counts from 1 to 1000000\n"),
    # each malformed input ends in exit 1 with one error line, never a traceback
    (ONE_LINE, "certify --spec <example504_r1> --quiet --set grid.points=abc", 1,
     "error: grid.points: bad value 'abc' (expected an integer)\n"),
    (ONE_LINE, "certify --spec <example504_r1> --quiet --set simulation.n_paths=abc", 1,
     "error: simulation.n_paths: bad value 'abc' (expected an integer)\n"),
    (ONE_LINE, """certify --spec <example504_r1> --quiet --set 'simulation.xi="ab"'""", 1,
     "error: simulation.xi: bad value 'ab' (could not convert string to float: 'ab')\n"),
    (ONE_LINE, """certify --spec <example504_r1> --quiet --set 'coefficients.R="x"'""", 1,
     "error: coefficients.R: bad value 'x' (could not convert string to float: 'x')\n"),
    (ONE_LINE, "certify --spec <example504_r1> --quiet --set certificate.alpha=1.5", 1,
     "error: alpha values must lie in [0, 1)\n"),
    (ONE_LINE, "certify --spec <example504_r1> --quiet --set 'certificate.alpha=[0.1,0.2]'", 1,
     "error: alpha array must be sampled on the problem grid\n"),
    (ONE_LINE, "certify --spec <example504_r1> --quiet --set grid=5", 1,
     "error: grid: must be a mapping\n"),
    (ONE_LINE, "certify --spec <example504_r1> --quiet --set grid.points=3.7", 1,
     "error: grid.points: bad value 3.7 (expected an integer)\n"),
    (ONE_LINE, "certify --spec <example504_r1> --quiet --set simulation.antithetic=maybe", 1,
     "error: simulation.antithetic: bad value 'maybe' (expected true or false)\n"),
    (ONE_LINE, "certify --spec <blowup_ode> --quiet --set certificate.tol=abc", 1,
     "error: certificate.tol: bad value 'abc' (could not convert string to float: 'abc')\n"),
    # the rest of the line is numpy's own wording
    (ONE_LINE, "solve --spec <example504_r1> --quiet --set dimensions.d=2 --set "
     "'coefficients.D=[[[1.0]], [[1.0]]]' --set 'coefficients.C=[[[0.0]], [[0.0], [1.0, 2.0]]]'",
     1, "error: coefficients.C[1]: bad value [[0.0], [1.0, 2.0]] ("),
    (ONE_LINE, "certify --spec <example504_r1> --quiet --set 'coefficients.A=[[350.0]]' "
     "--set 'coefficients.Q=[[1.0e+300]]'", 1,
     "error: phi evaluation overflowed; coefficients out of desk scale\n"),
    (ONE_LINE, "certify --spec <example504_r1> --quiet --set 'coefficients.Q=[[[0.0]],[[0.0]]]'", 1,
     "error: problem validation failed: coefficients.Q: expected a 1x1 matrix or 257 such "
     "samples, got shape (2, 1, 1)\n"),
    # the certificate block is read by every command, not only certify
    (ONE_LINE, "solve --spec <blowup_ode> --quiet --set certificate.tol=abc", 1,
     "error: certificate.tol: bad value 'abc' (could not convert string to float: 'abc')\n"),
    (ONE_LINE, "simulate --spec <example504_r1> --quiet --set certificate.alpha=foo", 1,
     "error: certificate.alpha: unknown schedule 'foo'\n"),
    # a key that its block does not read, here misspelt
    (ONE_LINE, "certify --spec <blowup_ode> --quiet --set certificate.tolerance=abc "
     "--set certificate.Fx=1", 1, "error: certificate: unknown keys ['Fx', 'tolerance']\n"),
    (ONE_LINE, "solve --spec <example504_r1> --quiet "
     "--set grid.interpolaton=piecewise-constant-left", 1,
     "error: grid: unknown keys ['interpolaton']\n"),
    (ONE_LINE, "certify --spec <example504_r1> --quiet --set simulation.antithetc=false", 1,
     "error: simulation: unknown keys ['antithetc']\n"),
    # sizes bounded before anything is allocated
    (ONE_LINE, "simulate --spec <definite_2x2> --quiet --set simulation.n_paths=1 "
     "--set simulation.n_steps=100000000", 1,
     "error: problem validation failed: n_steps must not exceed 1e+06\n"),
    (ONE_LINE, "solve --spec <definite_2x2> --quiet --set dimensions.n=1000", 1,
     "error: coefficients: 129 grid points x 3004004 entries per grid point "
     "(n = 1000, k = 2, d = 1) exceed 1e+07\n"),
    ("TestInputErrors::test_huge_path_count_rejected_at_parse",
     "solve --spec <example504_r1> --set simulation.n_paths=100000000000000000000 --quiet", 1,
     "error: problem validation failed: n_paths x n_steps must not exceed 1e+08\n"),
    # one path of 1e8 steps passes the n_paths x n_steps bound, yet its per-step
    # tables alone would take gigabytes
    ("TestInputErrors::test_huge_step_count_rejected_at_parse", "solve --spec <definite_2x2> "
     "--set simulation.n_paths=1 --set simulation.n_steps=100000000 --quiet", 1,
     "error: problem validation failed: n_steps must not exceed 1e+06\n"),
    # every command reads the simulation block, and refuses its oversized table
    *(("TestInputErrors::test_step_table_refused_at_parse[{command}]", f"{command} --spec <wide>",
       1, "error: simulation.n_steps: 31153 Euler steps x 321 entries per Euler step "
       "(n = 10, k = 1, d = 1) exceed 1e+07\n")
      for command in ("solve", "certify", "simulate", "oracle")),
    ("TestInputErrors::test_unwritable_report_exit1",
     "solve --spec <example504_r1> --out /no/such/dir/r.json --quiet", 1, NO_DIR),
    # the error report of a run that stopped is written like any other
    ("TestInputErrors::test_unwritable_error_report_exit1[overflow]",
     "simulate --spec <explosive> --out /no/such/dir/r.json", 1, NO_DIR),
    ("TestInputErrors::test_unwritable_error_report_exit1[step-limit]",
     "solve --spec <definite_2x2> --set solver.max_steps=3 --out /no/such/dir/r.json", 1, NO_DIR),
    ("TestExampleCommand::test_unknown_name", "example does_not_exist", 1,
     f"error: unknown example 'does_not_exist'; available: {', '.join(bundled.example_names())}\n"),
    ("TestSolveCommand::test_missing_file_exit1", "solve --spec /no/such/file.yaml --quiet", 1,
     "error: cannot read spec file /no/such/file.yaml: [Errno 2] No such file or directory: "
     "'/no/such/file.yaml'\n"),
    ("TestSolveCommand::test_malformed_spec_exit1", "solve --spec <malformed> --quiet", 1,
     "error: dimensions: missing required key 'd'\n"),
    ("TestSolveCommand::test_dimension_mismatch_exit1",
     "solve --spec <example504_r1> --set 'coefficients.B=[[1.0], [2.0]]' --quiet", 1,
     "error: problem validation failed: coefficients.B: expected a 1x1 matrix or 257 such "
     "samples, got shape (2, 1)\n"),
    # a null block reads as absent
    ("TestCertifyCommand::test_missing_block_exit1",
     "certify --spec <example504_r1> --set certificate=null --quiet", 1,
     "error: spec has no certificate block\n"),
    ("TestCertifyCommand::test_alpha_path_reaching_one_exit1",
     f"certify --spec <example504_r1> --set 'certificate.alpha={[1.0] + [0.5] * 256}' --quiet",
     1, "error: alpha values must lie in [0, 1)\n"),
    ("TestCertifyCommand::test_unknown_alpha_schedule_exit1",
     "certify --spec <example504_r1> --set certificate.alpha=nope --quiet", 1,
     "error: certificate.alpha: unknown schedule 'nope'\n"),
    ("TestCertifyCommand::test_named_schedule_needs_unit_horizon_exit1",
     "certify --spec <example504_rneg015> --set horizon=2.0 --quiet", 1,
     "error: the optimal-constant alpha schedule needs horizon T = 1\n"),
    # a witness path of the wrong shape or an asymmetric one is an input
    # error, never broadcast against the problem and never a traceback
    (WITNESS, "certify --spec <definite_2x2> --quiet --set certificate.kind=explicit-subsolution "
     "--set 'certificate.F=[[0.0]]'", 1,
     "error: F: expected a 2x2 matrix or 129 such samples, got shape (1, 1)\n"),
    (WITNESS, "certify --spec <shift_demo> --quiet --set 'certificate.K=[[0.0]]'", 1,
     "error: K: expected a 2x2 matrix or 1025 such samples, got shape (1, 1)\n"),
    (WITNESS, "certify --spec <shift_demo> --quiet "
     "--set 'certificate.K=[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]'", 1,
     "error: K: expected a 2x2 matrix or 1025 such samples, got shape (3, 2)\n"),
    (WITNESS, "certify --spec <shift_demo> --quiet --set 'certificate.K=[[0.0, 1.0], [0.0, 0.0]]'",
     1, "error: K must be symmetric\n"),
    ("TestSimulateCommand::test_missing_block_exit1", "simulate --spec <shift_demo> --quiet", 1,
     "error: spec has no simulation block\n"),
    ("TestOverrides::test_bad_override_exit1",
     "solve --spec <example504_r1> --set nonsense --quiet", 1,
     "error: override 'nonsense': expected key.path=value\n"),
]


def check_argv_error(row, example_dir, tmp_path, capsys):
    argv, code, expected = row
    assert run_cli(argv, example_dir) == code
    err = capsys.readouterr().err
    assert err.startswith(expected) and err.count("\n") == 1, err


def positive(value):
    return value > 0.0


# (name, argv, exit code, {report field: value or predicate}[, summary]): each
# field, a dotted path where "*" maps the rest over a list, equals its value or
# meets its predicate.  A row with a summary, a str.format template over the
# report, runs without --quiet and finds that one line on stderr; one without
# runs with --quiet and finds stderr empty.
RUNS = [
    ("TestSolveCommand::test_scalar_benchmark_exit0", "solve --spec <example504_r1>", 0,
     {"status": "completed", "P0.0.0": pytest.approx(0.6422007040598737, abs=1e-6),
      "value_at_xi": lambda value: value is not None}),
    ("TestSolveCommand::test_constraint_violation_exit2", "solve --spec <example504_rneg017>", 2,
     {"status": "constraint-violation", "t_event": lambda t: 0.0 < t < 0.1}),
    # R = D = 0: the effective weight is exactly 0 at t = T, where the gain is undefined
    *(("TestSolveCommand::test_singular_weight_at_the_terminal_time_exit2[{command}]",
       f"{command} --spec <example504_r1> --set coefficients.R=0 --set 'coefficients.D=[0]'", 2,
       {"status": "constraint-violation", "t_event": 1.0}) for command in ("solve", "oracle")),
    ("TestSolveCommand::test_blowup_exit3", "solve --spec <blowup_ode>", 3,
     {"status": "blowup", "t_event": lambda t: 0.9 < t < 1.0}),
    ("TestSolveCommand::test_smooth_blowup_exit3", "solve --spec <smooth_blowup>", 3,
     {"status": "blowup"}),
    ("TestCertifyCommand::test_certified_exit0", "certify --spec <example504_rneg015>", 0,
     {"certificate.verdict": "certified", "certificate.epsilon": positive,
      "certificate.threshold": lambda threshold: abs(threshold + 0.15859) < 1e-3}),
    ("TestCertifyCommand::test_failed_exit4", "certify --spec <example504_rneg017>", 4,
     {"certificate.verdict": "failed", "certificate.reason": bool}),
    ("TestCertifyCommand::test_definite_kind", "certify --spec <definite_2x2>", 0,
     {"certificate.kind": "definite-control-weight"}),
    ("TestCertifyCommand::test_shift_kind", "certify --spec <shift_demo>", 0,
     {"certificate.kind": "shift"}),
    # certified even though the solve blows up
    ("TestCertifyCommand::test_zero_subsolution_on_blowup_data", "certify --spec <blowup_ode>", 0,
     {"certificate.kind": "explicit-subsolution", "certificate.epsilon": positive}),
    # a dF without F is the zero witness's slope, as with F = 0 given
    *((f"TestCertifyCommand::test_slope_of_the_zero_witness_exit4[{form}]",
       f"certify --spec <blowup_ode> --set 'certificate.dF=[[-100.0]]'{settings}", 4,
       {"certificate.reason": "drift residual dF/dt + f(F, 0) not positive semi-definite"})
      for form, settings in (("without-F", ""), ("with-F", " --set 'certificate.F=[[0.0]]'"))),
    # K B + sum C'K D does not vanish once B has a first row
    ("TestCertifyCommand::test_uncompensated_shift_exit4",
     "certify --spec <shift_demo> --set 'coefficients.B=[[1.0],[0.0]]'", 4,
     {"certificate.reason": "compensation residual 3.041e-01 exceeds 1.0e-08"}),
    # a per-grid-point alpha list is accepted and certifies like the constant it samples
    ("TestCertifyCommand::test_alpha_as_explicit_path",
     f"certify --spec <example504_r1> --set 'certificate.alpha={[0.3] * 257}'", 0,
     {"certificate.verdict": "certified"}),
    ("TestCertifyCommand::test_named_schedule_on_a_fine_grid",
     "certify --spec <example504_rneg015> --set grid.points=2049", 0,
     {"certificate.quad_nodes": 8193, "certificate.threshold": lambda threshold:
      0.0 <= threshold + certificates.optimal_constant_alpha() < 1e-8}),
    # drive the certified weight below the threshold from the CLI
    ("TestOverrides::test_set_patches_before_validation",
     "certify --spec <example504_rneg015> --set 'coefficients.R=[[-0.17]]'", 4, {}),
    ("TestSimulateCommand::test_definite_reports_cs_fields",
     "simulate --spec <definite_2x2> --set simulation.n_paths=2000", 0,
     {"simulation.n_paths": 4000, "simulation.cost_stderr": positive,
      "simulation": lambda sim: sim["cs_residual"] <= 3 * sim["cs_stderr"] + 2.0 / 512}),
    # Euler steps grow the state by 1 + 40/512 each, past 1e12 at the overflow step
    ("TestSimulateCommand::test_explosive_closed_loop_reports_overflow_step",
     "simulate --spec <explosive>", 1,
     {"status": "error", "simulation": None,
      "overflow_step": lambda step: (1 + 40 / 512) ** step <= 1e12 < (1 + 40 / 512) ** (step + 1),
      "error": "state norm exceeded 1e+12 at step 367 (explosive closed loop)"}),
    ("TestOracleCommand::test_error_table_with_first_order_ratios",
     "oracle --spec <definite_2x2> --steps 64,128,256", 0,
     {"oracle.rows": lambda rows: len(rows) == 3,
      "oracle.ratios": lambda ratios: all(1.6 <= r <= 2.6 for r in ratios)}),
    ("TestOracleCommand::test_exact_agreement_gives_null_ratios",
     "oracle --spec <still> --steps 4,8,16", 0,
     {"oracle.rows.*.error_vs_solver": [0.0, 0.0, 0.0], "oracle.ratios": [None, None]},
     "oracle: 3 step sizes, ratios ['nan', 'nan']\n"),
    # steps taken: 2 - 0 and 3 - 1 by the aborted counts, 4 by the completed one
    ("TestOracleCommand::test_violation_step_reported", "oracle --spec <coarse> --steps 2,3,4", 0,
     {"oracle.rows.*.violation_step": [0, 1, None],
      "oracle.rows.*.constraint_ok": [False, False, True],
      "oracle.rows.*.error_vs_solver":
          lambda errs: [e is None for e in errs] == [True, True, False],
      "oracle.dp_steps": 8}),
    # the one stderr line of each command, checked against its report
    ("TestSummaryLine::test_solve_completed", "solve --spec <example504_r1>", 0, {},
     "solve: completed\n"),
    ("TestSummaryLine::test_solve_stopped", "solve --spec <example504_rneg017>", 2, {},
     "solve: constraint-violation at t*={t_event:.6g}\n"),
    ("TestSummaryLine::test_solve_step_limit",
     "solve --spec <definite_2x2> --set solver.max_steps=3", 1, {"status": "error"},
     "solve: {error}\n"),
    ("TestSummaryLine::test_certify", "certify --spec <example504_r1>", 0, {},
     "certify: certified (kind scalar-comparison, epsilon {certificate[epsilon]:.6g})\n"),
    ("TestSummaryLine::test_simulate",
     "simulate --spec <definite_2x2> --set simulation.n_paths=200 --set simulation.n_steps=64",
     0, {"simulation.n_paths": 400},
     "simulate: cost {simulation[cost_mean]:.6g} +- {simulation[cost_stderr]:.2g}, "
     "value {value_at_xi:.6g}, cs residual {simulation[cs_residual]:.3g}\n"),
    ("TestSummaryLine::test_oracle", "oracle --spec <definite_2x2> --steps 16,32,64", 0,
     {"oracle.ratios": lambda ratios: len(ratios) == 2},
     "oracle: 3 step sizes, ratios ['{oracle[ratios][0]:.2f}', '{oracle[ratios][1]:.2f}']\n"),
]


def report_field(value, path):
    head, _, rest = path.partition(".")
    if head == "*":
        return [report_field(item, rest) for item in value]
    value = value[int(head) if isinstance(value, list) else head]
    return report_field(value, rest) if rest else value


def check_run(row, example_dir, tmp_path, capsys):
    argv, code, fields, *summary = row
    out = tmp_path / "report.json"
    quiet = "" if summary else " --quiet"
    assert run_cli(f"{argv}{quiet} --out {shlex.quote(str(out))}", example_dir) == code
    captured = capsys.readouterr()
    report = read_report(out)
    assert captured.out == ""
    assert captured.err == (summary[0].format(**report) if summary else "")
    for path, want in fields.items():
        got = report_field(report, path)
        assert want(got) if callable(want) else got == want, (path, got)


def add_row_tests(table, check):
    """One test per row of ``table``, set on the class its name gives, running ``check``."""
    tests, seen = {}, collections.Counter()
    for template, argv, *row in table:
        words = shlex.split(argv) or ["none"]
        expected = row[-1] if isinstance(row[-1], str) else ""
        name = template.format(
            command=words[0], spec=next((w[1:-1] for w in words if w[:1] == "<"), ""),
            message=expected.removeprefix("error: ").removesuffix("\n"), index=seen[template])
        seen[template] += 1
        test, _, param = name.partition("[")
        tests.setdefault(test, {})[param[:-1]] = (argv, *row)
    for test, rows in tests.items():
        owner, function = test.split("::")
        if list(rows) == [""]:
            def run(self, example_dir, tmp_path, capsys, row=rows[""]):
                check(row, example_dir, tmp_path, capsys)
        else:
            @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
            def run(self, row, example_dir, tmp_path, capsys):
                check(row, example_dir, tmp_path, capsys)
        setattr(globals().setdefault(owner, type(owner, (), {})), function, run)


class TestExampleCommand:
    def test_all_names_materialize(self, example_dir):
        for name in bundled.example_names():
            assert (example_dir / f"{name}.yaml").exists()

    def test_list(self, capsys):
        assert main(["example", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == bundled.example_names()


class TestCertifyCommand:
    def test_quadrature_counters_reported(self, example_dir, tmp_path):
        out = tmp_path / "c15q.json"
        main(["certify", "--spec", str(example_dir / "example504_rneg015.yaml"),
              "--out", str(out), "--quiet"])
        cert = read_report(out)["certificate"]
        assert cert["quad_nodes"] == 2049 and 0.0 < cert["quad_error"] < 1e-8
        out = tmp_path / "d2q.json"
        main(["certify", "--spec", str(example_dir / "definite_2x2.yaml"),
              "--out", str(out), "--quiet"])
        cert = read_report(out)["certificate"]
        assert cert["quad_nodes"] is None and cert["quad_error"] is None

    def test_alpha_number_reads_alike_in_json_and_yaml(self, tmp_path):
        # YAML 1.1 reads a hand-written 1e-05 as a string, JSON as a float;
        # both are the constant 1e-05
        doc = bundled.example_doc("example504_r1")
        doc["certificate"]["alpha"] = 1e-05
        texts = {"json": json.dumps(doc),
                 "yaml": yaml.safe_dump(doc).replace("alpha: 1.0e-05", "alpha: 1e-05")}
        assert "alpha: 1e-05" in texts["yaml"]
        epsilons = []
        for form, text in texts.items():
            p = tmp_path / f"alpha_{form}.yaml"
            p.write_text(text)
            out = tmp_path / f"alpha_{form}.json"
            assert main(["certify", "--spec", str(p), "--out", str(out), "--quiet"]) == 0
            cert = read_report(out)["certificate"]
            assert cert["verdict"] == "certified"
            epsilons.append(cert["epsilon"])
        assert epsilons[0] == epsilons[1] > 0.0


class TestInputErrors:
    deep_texts = pytest.mark.parametrize("text", [
        "[" * 200_000 + "]" * 200_000,  # JSON: RecursionError, never YAML
        "a: " + "[" * 200_000 + "]" * 200_000,  # YAML: RecursionError in the composer
        "a: " + '[ "]", ' * 200_000 + "1" + "]" * 200_000,  # closers in strings
        "- " * 200_000 + "x",  # block sequences, one per indicator
    ], ids=["json", "yaml-flow", "yaml-quoted-closers", "yaml-block"])

    @deep_texts
    def test_deep_nesting_exit1(self, text, tmp_path, capsys):
        # libyaml's composer recurses on the C stack: at this depth it would
        # crash the interpreter instead of raising
        p = tmp_path / "deep.yaml"
        p.write_text(text)
        assert main(["solve", "--spec", str(p), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "nested" in err

    def test_deep_override_exit1(self, example_dir, capsys):
        deep = "[" * 50_000 + "]" * 50_000
        for value in (deep, "x: " + deep):
            argv = ["solve", "--spec", str(example_dir / "example504_r1.yaml"),
                    "--set", f"coefficients.R={value}", "--quiet"]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: override coefficients.R: nested")

    # PyYAML's own scanner and parser, under the same Python composer
    @deep_texts
    def test_deep_nesting_exit1_without_libyaml(self, text, tmp_path, capsys, monkeypatch):
        monkeypatch.delattr(yaml, "CSafeLoader")
        self.test_deep_nesting_exit1(text, tmp_path, capsys)

    def test_deep_override_exit1_without_libyaml(self, example_dir, capsys, monkeypatch):
        monkeypatch.delattr(yaml, "CSafeLoader")
        self.test_deep_override_exit1(example_dir, capsys)

    @pytest.mark.parametrize("key, value", [
        ("horizon", float("nan")),
        ("horizon", float("inf")),
        ("coefficients.R", [[float("-inf")]]),
    ])
    def test_json_nonfinite_names_the_key(self, key, value, tmp_path, capsys):
        # NaN and Infinity are not JSON: never read as finite numbers
        doc = bundled.example_doc("example504_r1")
        set_key(doc, key, value)
        p = tmp_path / "nonfinite.yaml"
        p.write_text(json.dumps(doc))
        assert main(["solve", "--spec", str(p), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: bad value") and "finite" in err

    def test_coefficient_table_bounded_at_parse(self, monkeypatch):
        # definite_2x2: 129 points x (4 * 3 + 4 * 2 + 4) = 24 entries per point;
        # its simulation block (512 steps) would meet the lowered cap first
        doc = bundled.example_doc("definite_2x2")
        del doc["simulation"]
        monkeypatch.setattr(specio, "MAX_TABLE_ENTRIES", 129 * 24)
        parse_spec(doc)
        monkeypatch.setattr(specio, "MAX_TABLE_ENTRIES", 129 * 24 - 1)
        with pytest.raises(SpecError, match=r"129 grid points x 24 entries .*n = 2, k = 2, d = 1"):
            parse_spec(doc)

    def test_step_table_bound(self):
        specio.check_table_size("simulation.n_steps", 31152, "Euler step", 10, 1, 1)
        with pytest.raises(SpecError, match=r"simulation.n_steps: 31153 Euler steps x 321 "):
            specio.check_table_size("simulation.n_steps", 31153, "Euler step", 10, 1, 1)

    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["oracle", "--steps", "64,31153"],
    ])
    def test_step_tables_bounded_before_any_table(self, argv, tmp_path, monkeypatch, capsys):
        # over the cap by one step: refused before the coefficients are
        # sampled at any step (and before the solve)
        path = tmp_path / "wide.yaml"
        path.write_text(yaml.safe_dump(wide_doc(31153 if argv == ["simulate"] else 64)))

        def no_tables(*args):
            raise AssertionError("a coefficient table was built")

        # the one accessor of the coefficient table; stacked_at reads through it
        monkeypatch.setattr(core.ProblemData, "blocks_at", no_tables)
        assert main([argv[0], "--spec", str(path), "--quiet", *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "31153" in err and "exceed 1e+07" in err


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_SPEC_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)


def _scaled(value, factor):
    """``value`` with every number in it times ``factor``; integers stay integers."""
    if isinstance(value, list):
        return [_scaled(item, factor) for item in value]
    if isinstance(value, dict):
        return {key: _scaled(item, factor) for key, item in value.items()}
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return round(value * factor) if isinstance(value, int) else value * factor


# each command at small sizes, so that no drawn document builds a large table or
# integrates a long horizon for long
_SMALL = {
    "solve": ["--set", "solver.max_steps=2000"],
    "certify": [],
    "simulate": ["--set", "solver.max_steps=2000", "--set", "simulation.n_paths=4",
                 "--set", "simulation.n_steps=8"],
    "oracle": ["--set", "solver.max_steps=2000", "--steps", "4,8"],
}


@hypothesis.settings(max_examples=100)
@hypothesis.given(choice=st.data())
def test_parse_spec_raises_only_spec_error(choice, tmp_path_factory):
    # one random key-path override of a bundled document, by a drawn value or by a
    # scaled copy of the original one (which often still parses): parse or SpecError;
    # the document, written as JSON or YAML, then runs one command to an exit code of 0-4
    doc = bundled.example_doc(choice.draw(st.sampled_from(bundled.example_names())))
    path = choice.draw(st.sampled_from(sorted(_key_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    scaled = st.floats(-4.0, 4.0).map(functools.partial(_scaled, node[path[-1]]))
    node[path[-1]] = choice.draw(_SPEC_VALUES | scaled)
    spec = tmp_path_factory.getbasetemp() / "fuzz_spec"
    # libyaml writes the long sampled tables of two bundled documents 3x faster
    to_yaml = functools.partial(yaml.dump, Dumper=yaml.CSafeDumper)
    spec.write_text(choice.draw(st.sampled_from([json.dumps, to_yaml]))(doc), encoding="utf-8")
    try:
        parse_spec(doc)
    except SpecError:
        pass
    command = choice.draw(st.sampled_from(sorted(_SMALL)))
    argv = [command, "--spec", str(spec), "--out", f"{spec}.json", "--quiet", *_SMALL[command]]
    code = main(argv)
    hypothesis.event(f"exit code {code}")
    assert code in range(5)


class TestOracleCommand:
    def test_rows_in_argument_order(self, example_dir, tmp_path):
        # one lockstep recursion for the whole ladder; each row is still the
        # recursion of its own count, and a repeated count repeats its row
        path = example_dir / "definite_2x2.yaml"
        out = tmp_path / "order.json"
        assert main(["oracle", "--spec", str(path), "--steps", "4,2,4,3", "--out", str(out),
                     "--quiet"]) == 0
        rows = read_report(out)["oracle"]["rows"]
        assert [r["n_steps"] for r in rows] == [4, 2, 4, 3]
        data = specio.load_spec_file(path).data
        for row in rows:
            res = oracle.dp_solve(data, row["n_steps"])
            assert row["delta"] == res.delta and row["constraint_ok"] == res.constraint_ok
            assert np.array_equal(row["P0"], res.P0)
        assert rows[0] == rows[2]
        assert read_report(out)["oracle"]["dp_steps"] == 4 + 2 + 3  # the repeated 4 once


class TestOverrides:
    # each --set value and the value a YAML-only reader gives it: the same
    # spec, or the same error, either way
    @pytest.mark.parametrize("setting, yaml_value", [
        ("simulation.n_paths=20000", 20000),
        ("simulation.antithetic=true", True),
        ("simulation.seed=null", None),
        ("solver.rel_tol=1e-05", "1e-05"),  # YAML 1.1 needs a dot for a float
        ("simulation.antithetic=yes", True),  # YAML 1.1 bool
        ("simulation.n_paths=010", 8),  # YAML 1.1 octal
        ("grid.interpolation=piecewise-linear", "piecewise-linear"),
        ("simulation.xi=[1.0, -0.5]", [1.0, -0.5]),
        ("simulation.n_paths=yes", True),
        ("simulation.antithetic=010", 8),
        ("horizon=null", None),
        ("horizon=NaN", "NaN"),
        ("simulation.xi=[1.0, Infinity]", [1.0, "Infinity"]),
    ])
    def test_set_values_read_as_yaml_reads_them(self, setting, yaml_value):
        def outcome(doc):
            try:
                return parse_spec(doc)
            except SpecError as exc:
                return str(exc)

        got = outcome(apply_overrides(bundled.example_doc("definite_2x2"), [setting]))
        doc = bundled.example_doc("definite_2x2")
        set_key(doc, setting.split("=")[0], yaml_value)
        want = outcome(doc)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_spec(got, want)

    @pytest.mark.parametrize("value", ["[1.0, -0.5", "@linear", "a: b: c"])
    def test_unreadable_value_names_the_override(self, value):
        # a value that neither JSON nor YAML reads is an error, not raw text
        with pytest.raises(SpecError, match=r"^override simulation\.xi: YAML parse error"):
            apply_overrides(bundled.example_doc("definite_2x2"), [f"simulation.xi={value}"])


def assert_same_spec(spec1, spec2):
    d1, d2 = spec1.data, spec2.data
    assert (d1.n, d1.k, d1.d, d1.T) == (d2.n, d2.k, d2.d, d2.T)
    assert np.array_equal(d1.grid, d2.grid)
    for p1, p2 in [(d1.A, d2.A), (d1.B, d2.B), (d1.R, d2.R), (d1.Q, d2.Q)]:
        assert np.array_equal(p1.samples, p2.samples)
        assert p1.interpolation == p2.interpolation
    for c1, c2 in zip(d1.C, d2.C):
        assert np.array_equal(c1.samples, c2.samples)
    for e1, e2 in zip(d1.D, d2.D):
        assert np.array_equal(e1.samples, e2.samples)
    assert np.array_equal(d1.N, d2.N)
    assert (spec1.certificate is None) == (spec2.certificate is None)
    if spec1.certificate is not None:
        assert spec1.certificate.keys() == spec2.certificate.keys()
        for key, value in spec1.certificate.items():
            assert np.array_equal(value, spec2.certificate[key])
    assert spec1.solver == spec2.solver
    assert spec1.simulation == spec2.simulation
    assert np.array_equal(spec1.xi, spec2.xi)


class TestSpecRoundTrip:
    @pytest.mark.parametrize("name", bundled.example_names())
    def test_parse_serialize_parse(self, name, tmp_path):
        # the written example file (JSON) and the same document as YAML each
        # load to the spec the document gives
        spec = parse_spec(bundled.example_doc(name))
        texts = {"json": bundled.example_text(name),
                 "yaml": yaml.safe_dump(bundled.example_doc(name))}
        with pytest.raises(ValueError):
            json.loads(texts["yaml"])  # so it takes the YAML path
        for form, text in texts.items():
            p = tmp_path / f"{name}_{form}.yaml"
            p.write_text(text)
            assert_same_spec(specio.load_spec_file(p), spec)

    def test_yaml_parsed_once(self, tmp_path, monkeypatch):
        # YAML text is read by one yaml.load, never walked by yaml.parse first
        def parse(*args, **kwargs):
            raise AssertionError("yaml.parse called")

        monkeypatch.setattr(yaml, "parse", parse)
        for name in bundled.example_names():
            p = tmp_path / f"{name}.yaml"
            p.write_text(yaml.safe_dump(bundled.example_doc(name)))
            assert_same_spec(specio.load_spec_file(p), parse_spec(bundled.example_doc(name)))

    def test_duplicate_keys_last_wins(self, tmp_path):
        doc = bundled.example_doc("example504_r1")
        doc["horizon"] = 2.0
        json_text = bundled.example_text("example504_r1").replace('{', '{"horizon": 3.0,', 1)
        yaml_text = "horizon: 3.0\n" + yaml.safe_dump(doc) + "horizon: 0.5\n"
        for text, horizon in [(json_text, 1.0), (yaml_text, 0.5)]:
            p = tmp_path / "dup.yaml"
            p.write_text(text)
            assert specio.load_spec_file(p).data.T == horizon


class TestSummaryLine:
    def test_report_on_stdout(self, example_dir, tmp_path, capsys):
        # without --out the report is all of stdout, and the summary is on stderr
        argv = ["solve", "--spec", str(example_dir / "example504_r1.yaml")]
        out = tmp_path / "summary.json"
        assert main([*argv, "--out", str(out)]) == main(argv) == 0
        captured = capsys.readouterr()
        streamed, rep = json.loads(captured.out), read_report(out)
        assert streamed.pop("timings").keys() == rep.pop("timings").keys()
        assert streamed == rep and captured.err == "solve: completed\n" * 2


class TestReportDeterminism:
    def test_reports_identical_apart_from_timings(self, example_dir, tmp_path):
        outs = []
        for i in (0, 1):
            out = tmp_path / f"det{i}.json"
            rc = main(["simulate", "--spec", str(example_dir / "definite_2x2.yaml"),
                       "--set", "simulation.n_paths=1000", "--out", str(out), "--quiet"])
            assert rc == 0
            rep = read_report(out)
            timings = rep.pop("timings")
            assert timings["simulate_rng"] > 0.0 and timings["simulate_step"] > 0.0
            steps = rep["steps"]
            assert steps["rhs_evaluations"] >= 6 * (steps["accepted"] + steps["rejected"])
            outs.append(rep)
        assert outs[0] == outs[1]
        # the oracle report too, with its dp_steps count
        outs = []
        for i in (0, 1):
            out = tmp_path / f"det_oracle{i}.json"
            assert main(["oracle", "--spec", str(example_dir / "definite_2x2.yaml"),
                         "--steps", "64,128", "--out", str(out), "--quiet"]) == 0
            rep = read_report(out)
            assert rep.pop("timings")["oracle"] > 0.0 and rep["oracle"]["dp_steps"] == 192
            outs.append(rep)
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def cli_import_modules(tmp_path_factory):
    """The modules a fresh interpreter holds once indeflq.cli has written the
    definite_2x2 example (JSON) and loaded it with a JSON --set value."""
    d = tmp_path_factory.mktemp("imports")
    code = (
        "import sys, indeflq.cli as cli\n"
        f"assert cli.main(['example', 'definite_2x2', '--out-dir', {str(d)!r}, '--quiet']) == 0\n"
        f"cli.load_spec_file({str(d / 'definite_2x2.yaml')!r}, ['simulation.n_paths=1000'])\n"
        "print(' '.join(sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return set(out.stdout.split())


# scipy is a test-only dependency; concurrent.futures with logging (about 8 ms)
# loads only when threads run, numpy.random (about 6.5 ms) only when a
# simulation draws; argparse (about 1.8 ms, more to build the parsers) never,
# since cli reads argv with its own flag table; yaml (about 27 ms) never for a
# JSON spec with JSON --set values
@pytest.mark.parametrize("module", ["scipy", "concurrent.futures", "numpy.random", "argparse",
                                    "yaml"])
def test_cli_import_leaves_out(module, cli_import_modules):
    assert module not in cli_import_modules


def test_cli_binds_the_traced_layer_functions():
    # perfbench/op.py times each layer by rebinding these names in indeflq.cli;
    # one that cli stops importing fails only a traced bench run
    layers = {
        specio: ("load_spec_file", "dumps_report"),
        riccati: ("solve_riccati",),
        certificates: ("constant_threshold_alpha_schedule", "certify_scalar_comparison",
                       "certify_definite_regime", "check_subsolution", "apply_shift"),
        simulate: ("completing_square_report",),
        oracle: ("dp_solve",),
    }
    for module, names in layers.items():
        for name in names:
            assert getattr(cli, name, None) is getattr(module, name), name


class TestReportFormat:
    def test_floats_round_trip_exactly(self):
        values = [0.1, 1.0 / 3.0, 0.6422007040598737, 1e-300, -2.5e17,
                  np.pi, np.nextafter(1.0, 2.0)]
        text = dumps_report({"vals": values, "nested": {"x": values[3]}})
        back = json.loads(text)
        assert back["vals"] == values
        assert back["nested"]["x"] == values[3]

    def test_nonfinite_becomes_null(self):
        back = json.loads(dumps_report({"x": float("nan"), "y": float("inf")}))
        assert back["x"] is None and back["y"] is None


class TestOverridesUnit:
    def test_apply_overrides_paths(self):
        doc = {"a": {"b": 1}}
        apply_overrides(doc, ["a.b=2", "c.d=hello", "a.e=[1,2]"])
        assert doc == {"a": {"b": 2, "e": [1, 2]}, "c": {"d": "hello"}}

    def test_bad_override_raises(self):
        with pytest.raises(SpecError):
            apply_overrides({}, ["novalue"])


class TestFlagTable:
    # the fields argparse gave for these argv before cli read flags by its own table
    @pytest.mark.parametrize("argv, fields", [
        (["solve", "--spec", "s.yaml"],
         {"spec": "s.yaml", "overrides": [], "out": None, "quiet": False}),
        (["certify", "--spec=s.yaml", "--set", "a=1", "--set=b.c=2", "--se", "d=[1, 2]",
          "--out", "r.json", "--quiet"],
         {"spec": "s.yaml", "overrides": ["a=1", "b.c=2", "d=[1, 2]"], "out": "r.json",
          "quiet": True}),
        (["simulate", "--sp", "s.yaml", "--o=r.json", "--q", "--set", "x=-1"],
         {"spec": "s.yaml", "overrides": ["x=-1"], "out": "r.json", "quiet": True}),
        (["solve", "--spec", "a", "--spec", "b", "--out", "o1", "--out", "o2"],
         {"spec": "b", "overrides": [], "out": "o2", "quiet": False}),
        (["oracle", "--spec", "s.yaml"],
         {"spec": "s.yaml", "overrides": [], "out": None, "quiet": False,
          "steps": "64,128,256,512"}),
        (["oracle", "--spec", "s.yaml", "--st=8,16", "--steps", "-5", "--out", "-"],
         {"spec": "s.yaml", "overrides": [], "out": "-", "quiet": False, "steps": "-5"}),
        (["example"], {"name": None, "out_dir": ".", "list": False, "quiet": False}),
        (["example", "--quiet", "definite_2x2", "--out-d", "d"],
         {"name": "definite_2x2", "out_dir": "d", "list": False, "quiet": True}),
        (["example", "--l", "--out-dir=x/y"],
         {"name": None, "out_dir": "x/y", "list": True, "quiet": False}),
    ])
    def test_fields_as_argparse_read_them(self, argv, fields):
        assert vars(cli._parse_args(argv)) == {"command": argv[0], **fields}

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_flag(self, command, flag, capsys):
        assert main([flag] if command is None else [command, flag]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: indeflq") and err == ""
        names = cli._COMMANDS if command is None else cli._COMMANDS[command][2]
        for name in names:
            assert f"  {name} " in out
            # a unique prefix selects a flag, so no name may be a prefix of another
            assert [other for other in names if other.startswith(name)] == [name]


add_row_tests(ARGV_ERRORS, check_argv_error)
add_row_tests(RUNS, check_run)
