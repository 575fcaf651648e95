import json

import hypothesis
import numpy as np
import pytest
import yaml
from hypothesis import strategies as st

from indeflq import bundled
from indeflq.cli import main
from indeflq.specio import apply_overrides, dumps_report, parse_spec
from indeflq.errors import SpecError


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    for name in bundled.example_names():
        assert main(["example", name, "--out-dir", str(d), "--quiet"]) == 0
    return d


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


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

    def test_blowup_exit3(self, example_dir, tmp_path):
        out = tmp_path / "bl.json"
        rc = main(["solve", "--spec", str(example_dir / "blowup_ode.yaml"),
                   "--out", str(out), "--quiet"])
        assert rc == 3
        rep = read_report(out)
        assert rep["status"] == "blowup"
        assert 0.9 < rep["t_event"] < 1.0

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

    def test_unknown_alpha_schedule_exit1(self, tmp_path):
        doc = bundled.example_doc("example504_r1")
        doc["certificate"] = {"kind": "scalar-comparison", "alpha": "nope"}
        p = tmp_path / "badalpha.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["certify", "--spec", str(p), "--quiet"]) == 1


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
    ])
    def test_exit1_with_one_error_line(self, example_dir, command, spec, settings, capsys):
        argv = [command, "--spec", str(example_dir / f"{spec}.yaml"), "--quiet"]
        for item in settings:
            argv += ["--set", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_report_exit1(self, example_dir, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "r.json"
        argv = ["solve", "--spec", str(example_dir / "example504_r1.yaml"), "--out", str(out),
                "--quiet"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_exit1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--spec", "x.yaml", "--no-such-flag"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_huge_path_count_rejected_at_parse(self):
        # bounded before anything is allocated: parse_spec alone refuses it
        doc = apply_overrides(bundled.example_doc("example504_r1"),
                              ["simulation.n_paths=100000000000000000000"])
        with pytest.raises(SpecError, match="n_paths"):
            parse_spec(doc)


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


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(choice=st.data())
def test_parse_spec_raises_only_spec_error(choice):
    # one random key-path override of a bundled document: parse or SpecError
    doc = bundled.example_doc(choice.draw(st.sampled_from(bundled.example_names())))
    path = choice.draw(st.sampled_from(sorted(_key_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = choice.draw(_SPEC_VALUES)
    try:
        parse_spec(doc)
    except SpecError:
        pass


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

    def test_bad_steps_exit1(self, example_dir):
        rc = main(["oracle", "--spec", str(example_dir / "definite_2x2.yaml"),
                   "--steps", "a,b", "--quiet"])
        assert rc == 1


class TestOverrides:
    def test_set_patches_before_validation(self, example_dir, tmp_path):
        # drive the certified weight below the threshold from the CLI
        out = tmp_path / "ovr.json"
        rc = main(["certify", "--spec", str(example_dir / "example504_rneg015.yaml"),
                   "--set", "coefficients.R=[[-0.17]]", "--out", str(out), "--quiet"])
        assert rc == 4

    def test_bad_override_exit1(self, example_dir):
        rc = main(["solve", "--spec", str(example_dir / "example504_r1.yaml"),
                   "--set", "nonsense", "--quiet"])
        assert rc == 1


class TestSpecRoundTrip:
    @pytest.mark.parametrize("name", bundled.example_names())
    def test_parse_serialize_parse(self, name):
        # the written example file parses to the spec its document gives
        spec1 = parse_spec(bundled.example_doc(name))
        spec2 = parse_spec(yaml.safe_load(bundled.example_text(name)))
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
        assert spec1.certificate.keys() == spec2.certificate.keys()
        for key, value in spec1.certificate.items():
            assert np.array_equal(value, spec2.certificate[key])
        assert spec1.solver == spec2.solver
        if spec1.simulation is not None:
            assert spec1.simulation == spec2.simulation
            assert np.array_equal(spec1.xi, spec2.xi)


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
            outs.append(rep)
        assert outs[0] == outs[1]


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
