import importlib.util
import json
import subprocess
from pathlib import Path

_path = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _path)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def test_compare_skips_timings_and_meta():
    old = {"status": "completed", "P0": [[1.0, 0.5]], "timings": {"solve": 0.1}, "meta": {}}
    new = {"status": "completed", "P0": [[1.0, 0.5]], "timings": {"solve": 0.2}}
    assert report_diff.compare(old, new) == []


def test_compare_names_each_change():
    old = {"status": "completed", "P0": [[1.0, 0.5], [0.5, 2.0]], "steps": 3, "t_event": None}
    new = {"status": "blowup", "P0": [[1.0, 0.5], [0.25, 2.5]], "steps": 3.0, "margin": 0.1}
    assert report_diff.compare(old, new) == [
        "added: margin",
        "removed: t_event",
        "status: 'completed' -> 'blowup'",
        "steps: 3 -> 3.0",
        "P0[][]: largest change 0.5 absolute, 0.5 relative",
    ]


def test_compare_runs_names_exit_report_and_stderr():
    report = {"status": "completed", "timings": {"solve": 0.1}}
    old = (0, report, "solve: completed\n")
    assert report_diff.compare_runs(old, (0, dict(report, timings={}), "solve: completed\n")) == []
    assert report_diff.compare_runs(old, (1, None, "error: no such file\n")) == [
        "exit code 0 -> 1",
        "report only in old",
        "stderr: 'solve: completed\\n' -> 'error: no such file\\n'",
    ]
    # a summary that changes alone is a change
    assert report_diff.compare_runs(old, (0, report, "solve: completed \n")) == [
        "stderr: 'solve: completed\\n' -> 'solve: completed \\n'",
    ]


def test_largest_relative_change_over_all_runs():
    same = {"status": "completed", "P0": [[1.0]], "timings": {"solve": 0.1}}
    pairs = {
        ("solve", "a"): (same, dict(same, timings={"solve": 0.5})),
        ("oracle", "a"): ({"ratios": [2.0, 1.0], "rows": 3}, {"ratios": [2.0, 1.5], "rows": 4}),
        ("solve", "b"): ({"P0": [[4.0, -2.0]]}, {"P0": [[4.0, -2.2]]}),
    }
    assert report_diff.largest_relative_change(pairs) == (
        "largest relative change: 0.5, ratios[] of oracle on a")
    assert report_diff.largest_relative_change({("solve", "a"): (same, same)}) == (
        "largest relative change: none, no numeric field changed")



def test_run_tree_runs_the_oracle_ladder_too(tmp_path, monkeypatch):
    # one bundled spec "a", and a fake interpreter whose report is its argv up to the report path
    reports = []

    def run(argv, **kwargs):
        args = argv[1:]
        if args[-2:] == ["example", "--list"]:
            return subprocess.CompletedProcess(argv, 0, "a\n", "")
        if "--out-dir" in args:
            (tmp_path / "a.yaml").write_text("{}", encoding="utf-8")
        else:  # the report path follows --out, or is last
            i = args.index("--out") + 1 if "--out" in args else len(args) - 1
            reports.append(args[i])
            Path(args[i]).write_text(json.dumps(args[:i]), encoding="utf-8")
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(report_diff.subprocess, "run", run)
    outcomes = report_diff.run_tree(tmp_path, tmp_path)
    oracle = ["-m", "indeflq.cli", "oracle", "--spec", str(tmp_path / "a.yaml")]
    assert outcomes["oracle", "a (ladder)"] == (
        0, oracle + ["--steps", "512,1024,2048,4096,8192", "--out"], "")
    assert outcomes["oracle", "a"][1] == oracle + ["--out"]
    assert sorted(outcomes) == sorted(
        [(command, "a") for command in report_diff.COMMANDS]
        + [(command, "a (yaml)") for command in report_diff.YAML_COMMANDS]
        + [("oracle", "a (ladder)")])
    assert len(set(reports)) == len(reports) == len(outcomes)  # each run its own report
