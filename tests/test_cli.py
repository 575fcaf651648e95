import functools
import json
import os
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


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    for name in bundled.example_names():
        assert main(["example", name, "--out-dir", str(d), "--quiet"]) == 0
    return d


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def set_key(doc, key_path, value):
    *parents, last = key_path.split(".")
    for part in parents:
        doc = doc.setdefault(part, {})
    doc[last] = value


def explosive_spec(tmp_path):
    """A spec whose closed loop explodes in simulation.

    B = D = 0 leaves x' = 40 x uncontrolled: Euler steps grow the state by
    1 + 40/512 each, past 1e12 after about 360 of the 512 steps.
    """
    doc = {
        "dimensions": {"n": 1, "k": 1, "d": 1},
        "horizon": 1.0,
        "grid": {"points": 9},
        "coefficients": {"A": [[40.0]], "B": [[0.0]], "C": [[[0.0]]], "D": [[[0.0]]],
                         "R": [[1.0]], "Q": [[0.0]]},
        "terminal": [[0.0]],
        "simulation": {"n_paths": 4, "n_steps": 512, "seed": 1, "xi": [1.0]},
    }
    p = tmp_path / "explosive.yaml"
    p.write_text(yaml.safe_dump(doc))
    return p


# argv -> exit code and the whole stderr: one error line; "SPEC" stands for
# the path of definite_2x2.yaml
ARGV_ERRORS = [
    (["oracle", "--spec", "SPEC", "--steps", "0"], 1,
     "error: --steps: expected step counts from 1 to 1000000\n"),
    (["oracle", "--spec", "SPEC", "--steps", "1000001"], 1,
     "error: --steps: expected step counts from 1 to 1000000\n"),
    (["solve", "--spec", "SPEC", "--set", "grid.points=1"], 1,
     "error: grid.points: need 2 to 100000 sample points\n"),
    (["solve", "--spec", "SPEC", "--set", "grid.points=100001"], 1,
     "error: grid.points: need 2 to 100000 sample points\n"),
    (["solve", "--spec", "SPEC", "--set", "=1"], 1, "error: override '=1': empty key path\n"),
    (["solve", "--spec", "SPEC", "--set", ".=1"], 1, "error: override '.=1': empty key path\n"),
    (["solve", "--spec", "SPEC", "--set", "horizon.x=1"], 1,
     "error: override 'horizon.x=1': horizon is not a mapping\n"),
    (["solve", "--spec", "x.yaml", "--no-such-flag"], 1,
     "error: unrecognized arguments: --no-such-flag\n"),
    ([], 1, "error: expected a command (solve, certify, simulate, oracle, example), got nothing\n"),
    (["bogus"], 1,
     "error: expected a command (solve, certify, simulate, oracle, example), got bogus\n"),
    (["solve"], 1, "error: the following arguments are required: --spec\n"),
    (["solve", "--spec", "SPEC", "--set"], 1, "error: argument --set: expected one argument\n"),
    (["solve", "--spec", "SPEC", "--out", "--quiet"], 1,
     "error: argument --out: expected one argument\n"),
    (["solve", "--spec", "SPEC", "--quiet=1"], 1, "error: unrecognized arguments: --quiet=1\n"),
    (["oracle", "--spec", "SPEC", "--s", "5"], 1,
     "error: ambiguous option: --s could match --spec, --set, --steps\n"),
    (["example", "definite_2x2", "extra"], 1, "error: unrecognized arguments: extra\n"),
    (["solve", "--spec", "SPEC", "extra"], 1, "error: unrecognized arguments: extra\n"),
    (["oracle", "--spec", "SPEC", "--steps", "a,b"], 1,
     "error: --steps: expected comma-separated integers, got 'a,b'\n"),
    (["oracle", "--spec", "SPEC", "--steps", "2.5"], 1,
     "error: --steps: expected comma-separated integers, got '2.5'\n"),
    (["oracle", "--spec", "SPEC", "--steps", ""], 1,
     "error: --steps: expected step counts from 1 to 1000000\n"),
]


class TestExampleCommand:
    def test_all_names_materialize(self, example_dir):
        for name in bundled.example_names():
            assert (example_dir / f"{name}.yaml").exists()

    def test_unknown_name(self, capsys):
        assert main(["example", "does_not_exist"]) == 1
        err = capsys.readouterr().err
        assert "blowup_ode" in err  # lists available names

    def test_list(self, capsys):
        assert main(["example", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == bundled.example_names()


class TestSolveCommand:
    def test_scalar_benchmark_exit0(self, example_dir, tmp_path):
        out = tmp_path / "r1.json"
        rc = main(["solve", "--spec", str(example_dir / "example504_r1.yaml"),
                   "--out", str(out), "--quiet"])
        assert rc == 0
        rep = read_report(out)
        assert rep["status"] == "completed"
        assert abs(rep["P0"][0][0] - 0.6422007040598737) <= 1e-6
        assert rep["value_at_xi"] is not None

    def test_constraint_violation_exit2(self, example_dir, tmp_path):
        out = tmp_path / "r17.json"
        rc = main(["solve", "--spec", str(example_dir / "example504_rneg017.yaml"),
                   "--out", str(out), "--quiet"])
        assert rc == 2
        rep = read_report(out)
        assert rep["status"] == "constraint-violation"
        assert 0.0 < rep["t_event"] < 0.1

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_singular_weight_at_the_terminal_time_exit2(self, command, example_dir, tmp_path):
        # R = D = 0: the effective weight is exactly 0 at t = T, where the gain is undefined
        out = tmp_path / "r0.json"
        rc = main([command, "--spec", str(example_dir / "example504_r1.yaml"),
                   "--set", "coefficients.R=0", "--set", "coefficients.D=[0]",
                   "--out", str(out), "--quiet"])
        assert rc == 2
        rep = read_report(out)
        assert (rep["status"], rep["t_event"]) == ("constraint-violation", 1.0)

    def test_blowup_exit3(self, example_dir, tmp_path):
        out = tmp_path / "bl.json"
        rc = main(["solve", "--spec", str(example_dir / "blowup_ode.yaml"),
                   "--out", str(out), "--quiet"])
        assert rc == 3
        rep = read_report(out)
        assert rep["status"] == "blowup"
        assert 0.9 < rep["t_event"] < 1.0

    def test_smooth_blowup_exit3(self, tmp_path):
        # an event located by bisection inside a step
        spec, out = tmp_path / "smooth.yaml", tmp_path / "smooth.json"
        spec.write_text(json.dumps(smooth_blowup_doc()))
        assert main(["solve", "--spec", str(spec), "--out", str(out), "--quiet"]) == 3
        assert read_report(out)["status"] == "blowup"

    def test_missing_file_exit1(self):
        assert main(["solve", "--spec", "/no/such/file.yaml", "--quiet"]) == 1

    def test_malformed_spec_exit1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("dimensions: {n: 1, k: 1}\nhorizon: 1.0\n")
        assert main(["solve", "--spec", str(bad), "--quiet"]) == 1
        assert "dimensions" in capsys.readouterr().err

    def test_dimension_mismatch_exit1(self, tmp_path, capsys):
        doc = bundled.example_doc("example504_r1")
        doc["coefficients"]["B"] = [[1.0], [2.0]]
        p = tmp_path / "mismatch.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["solve", "--spec", str(p), "--quiet"]) == 1
        assert "coefficients.B" in capsys.readouterr().err


class TestCertifyCommand:
    def test_certified_exit0(self, example_dir, tmp_path):
        out = tmp_path / "c15.json"
        rc = main(["certify", "--spec", str(example_dir / "example504_rneg015.yaml"),
                   "--out", str(out), "--quiet"])
        assert rc == 0
        cert = read_report(out)["certificate"]
        assert cert["verdict"] == "certified"
        assert cert["epsilon"] > 0.0
        assert abs(cert["threshold"] + 0.15859) < 1e-3

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

    def test_failed_exit4(self, example_dir, tmp_path):
        out = tmp_path / "c17.json"
        rc = main(["certify", "--spec", str(example_dir / "example504_rneg017.yaml"),
                   "--out", str(out), "--quiet"])
        assert rc == 4
        cert = read_report(out)["certificate"]
        assert cert["verdict"] == "failed"
        assert cert["reason"]

    def test_definite_kind(self, example_dir, tmp_path):
        out = tmp_path / "d22.json"
        rc = main(["certify", "--spec", str(example_dir / "definite_2x2.yaml"),
                   "--out", str(out), "--quiet"])
        assert rc == 0
        assert read_report(out)["certificate"]["kind"] == "definite-control-weight"

    def test_shift_kind(self, example_dir, tmp_path):
        out = tmp_path / "sh.json"
        rc = main(["certify", "--spec", str(example_dir / "shift_demo.yaml"),
                   "--out", str(out), "--quiet"])
        assert rc == 0
        assert read_report(out)["certificate"]["kind"] == "shift"

    def test_zero_subsolution_on_blowup_data(self, example_dir, tmp_path):
        out = tmp_path / "blc.json"
        rc = main(["certify", "--spec", str(example_dir / "blowup_ode.yaml"),
                   "--out", str(out), "--quiet"])
        assert rc == 0  # certified even though the solve blows up
        cert = read_report(out)["certificate"]
        assert cert["kind"] == "explicit-subsolution"
        assert cert["epsilon"] > 0.0

    @pytest.mark.parametrize("settings", [
        ["certificate.dF=[[-100.0]]"],
        ["certificate.dF=[[-100.0]]", "certificate.F=[[0.0]]"],
    ], ids=["without-F", "with-F"])
    def test_slope_of_the_zero_witness_exit4(self, example_dir, tmp_path, settings):
        # a dF without F is the zero witness's slope, as with F = 0 given
        out = tmp_path / "bldf.json"
        argv = ["certify", "--spec", str(example_dir / "blowup_ode.yaml"),
                "--out", str(out), "--quiet"]
        for item in settings:
            argv += ["--set", item]
        assert main(argv) == 4
        cert = read_report(out)["certificate"]
        assert cert["reason"] == "drift residual dF/dt + f(F, 0) not positive semi-definite"

    def test_uncompensated_shift_exit4(self, example_dir, tmp_path):
        # K B + sum C'K D does not vanish once B has a first row
        out = tmp_path / "shb.json"
        rc = main(["certify", "--spec", str(example_dir / "shift_demo.yaml"),
                   "--set", "coefficients.B=[[1.0],[0.0]]", "--out", str(out), "--quiet"])
        assert rc == 4
        cert = read_report(out)["certificate"]
        assert cert["reason"] == "compensation residual 3.041e-01 exceeds 1.0e-08"

    def test_missing_block_exit1(self, tmp_path):
        doc = bundled.example_doc("example504_r1")
        del doc["certificate"]
        p = tmp_path / "nocert.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["certify", "--spec", str(p), "--quiet"]) == 1

    def test_alpha_as_explicit_path(self, tmp_path):
        # a per-grid-point alpha list is accepted and certifies like the
        # constant it samples
        doc = bundled.example_doc("example504_r1")
        points = doc["grid"]["points"]
        doc["certificate"] = {"kind": "scalar-comparison", "alpha": [0.3] * points}
        p = tmp_path / "alist.yaml"
        p.write_text(yaml.safe_dump(doc))
        out = tmp_path / "alist.json"
        assert main(["certify", "--spec", str(p), "--out", str(out), "--quiet"]) == 0
        cert = read_report(out)["certificate"]
        assert cert["verdict"] == "certified"

    def test_alpha_path_reaching_one_exit1(self, tmp_path, capsys):
        doc = bundled.example_doc("example504_r1")
        points = doc["grid"]["points"]
        alpha = [1.0] + [0.5] * (points - 1)
        doc["certificate"] = {"kind": "scalar-comparison", "alpha": alpha}
        p = tmp_path / "alpha1.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["certify", "--spec", str(p), "--quiet"]) == 1
        assert "alpha values must lie in [0, 1)" in capsys.readouterr().err

    def test_named_schedule_on_a_fine_grid(self, tmp_path):
        doc = bundled.example_doc("example504_rneg015")
        doc["grid"]["points"] = 2049
        p = tmp_path / "fine.yaml"
        p.write_text(yaml.safe_dump(doc))
        out = tmp_path / "fine.json"
        assert main(["certify", "--spec", str(p), "--out", str(out), "--quiet"]) == 0
        cert = read_report(out)["certificate"]
        assert cert["quad_nodes"] == 8193
        assert 0.0 <= cert["threshold"] + certificates.optimal_constant_alpha() < 1e-8

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

    def test_unknown_alpha_schedule_exit1(self, tmp_path):
        doc = bundled.example_doc("example504_r1")
        doc["certificate"] = {"kind": "scalar-comparison", "alpha": "nope"}
        p = tmp_path / "badalpha.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["certify", "--spec", str(p), "--quiet"]) == 1

    def test_named_schedule_needs_unit_horizon_exit1(self, example_dir, capsys):
        argv = ["certify", "--spec", str(example_dir / "example504_rneg015.yaml"),
                "--set", "horizon=2.0", "--quiet"]
        assert main(argv) == 1
        assert "needs horizon T = 1" in capsys.readouterr().err


    @pytest.mark.parametrize("spec, settings", [
        ("definite_2x2", ["certificate.kind=explicit-subsolution", "certificate.F=[[0.0]]"]),
        ("shift_demo", ["certificate.K=[[0.0]]"]),
        ("shift_demo", ["certificate.K=[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]"]),
        ("shift_demo", ["certificate.K=[[0.0, 1.0], [0.0, 0.0]]"]),
    ])
    def test_malformed_witness_exit1(self, example_dir, spec, settings, capsys):
        # a witness path of the wrong shape or an asymmetric one is an input
        # error, never broadcast against the problem and never a traceback
        argv = ["certify", "--spec", str(example_dir / f"{spec}.yaml"), "--quiet"]
        for item in settings:
            argv += ["--set", item]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestInputErrors:
    # each malformed input ends in exit 1 with one error line, never a traceback
    @pytest.mark.parametrize("command, spec, settings", [
        ("certify", "example504_r1", ["grid.points=abc"]),
        ("certify", "example504_r1", ["simulation.n_paths=abc"]),
        ("certify", "example504_r1", ['simulation.xi="ab"']),
        ("certify", "example504_r1", ['coefficients.R="x"']),
        ("certify", "example504_r1", ["certificate.alpha=1.5"]),
        ("certify", "example504_r1", ["certificate.alpha=[0.1,0.2]"]),
        ("certify", "example504_r1", ["grid=5"]),
        ("certify", "example504_r1", ["grid.points=3.7"]),
        ("certify", "example504_r1", ["simulation.antithetic=maybe"]),
        ("certify", "blowup_ode", ["certificate.tol=abc"]),
        ("solve", "example504_r1", ["dimensions.d=2", "coefficients.D=[[[1.0]], [[1.0]]]",
                                    "coefficients.C=[[[0.0]], [[0.0], [1.0, 2.0]]]"]),
        ("certify", "example504_r1", ["coefficients.A=[[350.0]]", "coefficients.Q=[[1.0e+300]]"]),
        ("certify", "example504_r1", ["coefficients.Q=[[[0.0]],[[0.0]]]"]),
        # the certificate block is read by every command, not only certify
        ("solve", "blowup_ode", ["certificate.tol=abc"]),
        ("simulate", "example504_r1", ["certificate.alpha=foo"]),
        # a key that its block does not read, here misspelt
        ("certify", "blowup_ode", ["certificate.tolerance=abc", "certificate.Fx=1"]),
        ("solve", "example504_r1", ["grid.interpolaton=piecewise-constant-left"]),
        ("certify", "example504_r1", ["simulation.antithetc=false"]),
        # sizes bounded before anything is allocated
        ("simulate", "definite_2x2", ["simulation.n_paths=1", "simulation.n_steps=100000000"]),
        ("solve", "definite_2x2", ["dimensions.n=1000"]),
    ])
    def test_exit1_with_one_error_line(self, example_dir, command, spec, settings, capsys):
        argv = [command, "--spec", str(example_dir / f"{spec}.yaml"), "--quiet"]
        for item in settings:
            argv += ["--set", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

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

    def test_unwritable_report_exit1(self, example_dir, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "r.json"
        argv = ["solve", "--spec", str(example_dir / "example504_r1.yaml"), "--out", str(out),
                "--quiet"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["simulate"],  # overflow in the Monte Carlo paths
        ["solve", "--set", "solver.max_steps=3"],  # step limit of the solver
    ], ids=["overflow", "step-limit"])
    def test_unwritable_error_report_exit1(self, argv, example_dir, tmp_path, capsys):
        # the error report of a run that stopped is written like any other
        spec = explosive_spec(tmp_path) if argv[0] == "simulate" else (
            example_dir / "definite_2x2.yaml")
        out = tmp_path / "no_such_dir" / "r.json"
        assert main([argv[0], "--spec", str(spec), *argv[1:], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, code, stderr", ARGV_ERRORS, ids=[
        f"{(argv or ['none'])[0]}-flags{i}-{stderr[len('error: '):-1]}"
        for i, (argv, _, stderr) in enumerate(ARGV_ERRORS)])
    def test_message_exit1(self, example_dir, argv, code, stderr, capsys):
        spec = str(example_dir / "definite_2x2.yaml")
        assert main([spec if item == "SPEC" else item for item in argv]) == code
        assert capsys.readouterr().err == stderr

    def test_huge_path_count_rejected_at_parse(self):
        # bounded before anything is allocated: parse_spec alone refuses it
        doc = apply_overrides(bundled.example_doc("example504_r1"),
                              ["simulation.n_paths=100000000000000000000"])
        with pytest.raises(SpecError, match="n_paths"):
            parse_spec(doc)


    def test_huge_step_count_rejected_at_parse(self):
        # one path of 1e8 steps passes the n_paths x n_steps bound, yet its
        # per-step tables alone would take gigabytes
        doc = apply_overrides(bundled.example_doc("definite_2x2"),
                              ["simulation.n_paths=1", "simulation.n_steps=100000000"])
        with pytest.raises(SpecError, match="n_steps"):
            parse_spec(doc)

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

    # n = 10, k = d = 1: 10 * 10 * 3 + 10 * 2 + 1 = 321 entries per step, so
    # 31152 steps fit in MAX_TABLE_ENTRIES and 31153 do not
    @staticmethod
    def _wide_doc(n_steps):
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
        path.write_text(yaml.safe_dump(self._wide_doc(31153 if argv == ["simulate"] else 64)))

        def no_tables(*args):
            raise AssertionError("a coefficient table was built")

        # the one accessor of the coefficient table; stacked_at reads through it
        monkeypatch.setattr(core.ProblemData, "blocks_at", no_tables)
        assert main([argv[0], "--spec", str(path), "--quiet", *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "31153" in err and "exceed 1e+07" in err


    @pytest.mark.parametrize("command", ["solve", "certify", "simulate", "oracle"])
    def test_step_table_refused_at_parse(self, command, tmp_path, capsys):
        # every command reads the simulation block, and refuses its oversized table
        path = tmp_path / "wide.yaml"
        path.write_text(yaml.safe_dump(self._wide_doc(31153)))
        assert main([command, "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: simulation.n_steps: 31153 Euler steps x 321 entries")
        assert err.count("\n") == 1


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


class TestSimulateCommand:
    def test_definite_reports_cs_fields(self, example_dir, tmp_path):
        out = tmp_path / "sim.json"
        rc = main(["simulate", "--spec", str(example_dir / "definite_2x2.yaml"),
                   "--set", "simulation.n_paths=2000", "--out", str(out), "--quiet"])
        assert rc == 0
        sim = read_report(out)["simulation"]
        assert sim["n_paths"] == 4000
        assert sim["cs_residual"] <= 3 * sim["cs_stderr"] + 2.0 / 512
        assert sim["cost_stderr"] > 0.0

    def test_explosive_closed_loop_reports_overflow_step(self, tmp_path):
        out = tmp_path / "explosive.json"
        p = explosive_spec(tmp_path)
        assert main(["simulate", "--spec", str(p), "--out", str(out), "--quiet"]) == 1
        rep = read_report(out)
        assert rep["status"] == "error" and rep["simulation"] is None
        step = rep["overflow_step"]
        assert (1 + 40 / 512) ** step <= 1e12 < (1 + 40 / 512) ** (step + 1)
        assert f"at step {step}" in rep["error"]

    def test_missing_block_exit1(self, example_dir, tmp_path):
        p = example_dir / "shift_demo.yaml"  # no simulation block
        assert main(["simulate", "--spec", str(p), "--quiet"]) == 1


class TestOracleCommand:
    def test_error_table_with_first_order_ratios(self, example_dir, tmp_path):
        out = tmp_path / "or.json"
        rc = main(["oracle", "--spec", str(example_dir / "definite_2x2.yaml"),
                   "--steps", "64,128,256", "--out", str(out), "--quiet"])
        assert rc == 0
        tab = read_report(out)["oracle"]
        assert len(tab["rows"]) == 3
        assert all(1.6 <= r <= 2.6 for r in tab["ratios"])

    def test_exact_agreement_gives_null_ratios(self, tmp_path, capsys):
        # P(t) = N for every step size, so every error is 0 and no ratio exists
        doc = {
            "dimensions": {"n": 1, "k": 1, "d": 1},
            "horizon": 1.0,
            "grid": {"points": 9},
            "coefficients": {"A": [[0.0]], "B": [[0.0]], "C": [[[0.0]]], "D": [[[0.0]]],
                             "R": [[1.0]], "Q": [[0.0]]},
            "terminal": [[1.0]],
        }
        p = tmp_path / "still.yaml"
        p.write_text(yaml.safe_dump(doc))
        out = tmp_path / "still.json"
        assert main(["oracle", "--spec", str(p), "--steps", "4,8,16", "--out", str(out)]) == 0
        tab = read_report(out)["oracle"]
        assert [r["error_vs_solver"] for r in tab["rows"]] == [0.0, 0.0, 0.0]
        assert tab["ratios"] == [None, None]
        assert "ratios ['nan', 'nan']" in capsys.readouterr().err

    def test_violation_step_reported(self, tmp_path):
        # the continuous weight stays R = 1, while the discrete one,
        # delta * (1 + delta * B'PB), loses positivity at coarse steps
        doc = {
            "dimensions": {"n": 1, "k": 1, "d": 1},
            "horizon": 1.0,
            "grid": {"points": 9},
            "coefficients": {"A": [[-4.0]], "B": [[3.0]], "C": [[[0.0]]], "D": [[[0.0]]],
                             "R": [[1.0]], "Q": [[-1.0]]},
            "terminal": [[0.0]],
        }
        p = tmp_path / "coarse.yaml"
        p.write_text(yaml.safe_dump(doc))
        out = tmp_path / "coarse.json"
        assert main(["oracle", "--spec", str(p), "--steps", "2,3,4", "--out", str(out),
                     "--quiet"]) == 0
        rows = read_report(out)["oracle"]["rows"]
        assert [r["violation_step"] for r in rows] == [0, 1, None]
        assert [r["constraint_ok"] for r in rows] == [False, False, True]
        assert [r["error_vs_solver"] is None for r in rows] == [True, True, False]
        # steps taken: 2 - 0 and 3 - 1 by the aborted counts, 4 by the completed one
        assert read_report(out)["oracle"]["dp_steps"] == 8

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
    def test_set_patches_before_validation(self, example_dir, tmp_path):
        # drive the certified weight below the threshold from the CLI
        out = tmp_path / "ovr.json"
        rc = main(["certify", "--spec", str(example_dir / "example504_rneg015.yaml"),
                   "--set", "coefficients.R=[[-0.17]]", "--out", str(out), "--quiet"])
        assert rc == 4

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

    def test_bad_override_exit1(self, example_dir):
        rc = main(["solve", "--spec", str(example_dir / "example504_r1.yaml"),
                   "--set", "nonsense", "--quiet"])
        assert rc == 1


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
    # the one stderr line of each command (no --quiet), checked against its report
    @staticmethod
    def run(argv, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, read_report(out), captured.err

    def test_solve_completed(self, example_dir, tmp_path, capsys):
        code, _, err = self.run(["solve", "--spec", str(example_dir / "example504_r1.yaml")],
                                tmp_path, capsys)
        assert code == 0 and err == "solve: completed\n"

    def test_solve_stopped(self, example_dir, tmp_path, capsys):
        code, rep, err = self.run(
            ["solve", "--spec", str(example_dir / "example504_rneg017.yaml")], tmp_path, capsys)
        assert code == 2 and err.startswith("solve: constraint-violation at t*=")
        assert err == f"solve: constraint-violation at t*={rep['t_event']:.6g}\n"

    def test_solve_step_limit(self, example_dir, tmp_path, capsys):
        code, rep, err = self.run(["solve", "--spec", str(example_dir / "definite_2x2.yaml"),
                                   "--set", "solver.max_steps=3"], tmp_path, capsys)
        assert code == 1 and rep["status"] == "error" and err == f"solve: {rep['error']}\n"

    def test_certify(self, example_dir, tmp_path, capsys):
        code, rep, err = self.run(
            ["certify", "--spec", str(example_dir / "example504_r1.yaml")], tmp_path, capsys)
        cert = rep["certificate"]
        assert code == 0 and err.startswith("certify: certified (kind scalar-comparison, ")
        assert err == f"certify: certified (kind scalar-comparison, epsilon {cert['epsilon']:.6g})\n"

    def test_simulate(self, example_dir, tmp_path, capsys):
        code, rep, err = self.run(["simulate", "--spec", str(example_dir / "definite_2x2.yaml"),
                                   "--set", "simulation.n_paths=200",
                                   "--set", "simulation.n_steps=64"], tmp_path, capsys)
        sim = rep["simulation"]
        assert code == 0 and sim["n_paths"] == 400
        assert err == (f"simulate: cost {sim['cost_mean']:.6g} +- {sim['cost_stderr']:.2g}, "
                       f"value {rep['value_at_xi']:.6g}, cs residual {sim['cs_residual']:.3g}\n")

    def test_oracle(self, example_dir, tmp_path, capsys):
        code, rep, err = self.run(["oracle", "--spec", str(example_dir / "definite_2x2.yaml"),
                                   "--steps", "16,32,64"], tmp_path, capsys)
        ratios = rep["oracle"]["ratios"]
        assert code == 0 and len(ratios) == 2
        assert err == f"oracle: 3 step sizes, ratios ['{ratios[0]:.2f}', '{ratios[1]:.2f}']\n"

    def test_report_on_stdout(self, example_dir, tmp_path, capsys):
        # without --out the report is all of stdout, and the summary is on stderr
        argv = ["solve", "--spec", str(example_dir / "example504_r1.yaml")]
        code, rep, _ = self.run(argv, tmp_path, capsys)
        assert main(argv) == code == 0
        captured = capsys.readouterr()
        streamed = json.loads(captured.out)
        assert streamed.pop("timings").keys() == rep.pop("timings").keys()
        assert streamed == rep and captured.err == "solve: completed\n"


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
def cli_import_modules():
    """The modules a fresh interpreter holds once it has imported indeflq.cli."""
    code = "import sys, indeflq.cli; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return set(out.stdout.split())


# scipy is a test-only dependency; concurrent.futures with logging (about 8 ms)
# loads only when threads run, numpy.random (about 6.5 ms) only when a
# simulation draws; argparse (about 1.8 ms, more to build the parsers) never,
# since cli reads argv with its own flag table
@pytest.mark.parametrize("module", ["scipy", "concurrent.futures", "numpy.random", "argparse"])
def test_cli_import_leaves_out(module, cli_import_modules):
    assert module not in cli_import_modules


def test_json_spec_loads_no_yaml(tmp_path):
    # a JSON spec with JSON --set values never imports yaml (about 27 ms)
    spec = str(tmp_path / "definite_2x2.yaml")
    code = (
        "import sys, indeflq.cli as cli\n"
        f"assert cli.main(['example', 'definite_2x2', '--out-dir', {str(tmp_path)!r}, "
        "'--quiet']) == 0\n"
        f"cli.load_spec_file({spec!r}, ['simulation.n_paths=1000'])\n"
        "print(any(m.split('.')[0] in ('yaml', '_yaml') for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


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
