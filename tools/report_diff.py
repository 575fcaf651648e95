"""Compare the reports of two source trees, command by command.

    python3 tools/report_diff.py OLD NEW

OLD and NEW are checkouts, each with ``src/indeflq``; for example this
tree and a ``git worktree add ../parent HEAD~1`` of its parent.  In each
tree, every CLI command (solve, certify, simulate, oracle) runs on every
bundled example spec, each in a fresh interpreter with ``PYTHONPATH`` at the
tree's ``src``; so does ``fundamental_pair_check`` on the closed-loop gain of
each spec that has a simulation block and completes, with the spec's
simulation settings (no CLI command runs it).  Each tree writes its own
bundled specs, as JSON text; ``solve`` and ``certify`` also run on each spec
written as YAML (``yaml.safe_dump`` of the same document, labelled
``<name> (yaml)``), so that a change to the YAML reader shows; and ``oracle``
also runs with ``--steps 512,1024,2048,4096,8192``, the ladder the benchmark
times, labelled ``<name> (ladder)``.

For each command and spec the two outcomes are compared: a changed exit
code, keys added or removed, other changed values, and for each numeric
field (list indices collapsed to ``[]``) the largest absolute and relative
change.  ``timings`` and ``meta`` are skipped, since they differ from run to
run.  The CLI runs without ``--quiet``, and its stderr (the summary line, or
the ``error:`` line) is compared as text.  The last line gives the largest
relative change over every changed numeric field of every run, and where it
is.  Exits 0 when every run is identical apart from ``timings`` and ``meta``,
1 otherwise.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

COMMANDS = ("solve", "certify", "simulate", "oracle", "fundamental_pair")
YAML_COMMANDS = ("solve", "certify")
LADDER = ("--steps", "512,1024,2048,4096,8192")
SKIPPED = ("timings", "meta")

FUNDAMENTAL_PAIR = """\
import json, sys
from indeflq import riccati, simulate, specio
spec = specio.load_spec_file(sys.argv[1])
sol = riccati.solve_riccati(spec.data, spec.solver)
defect = None
if spec.simulation is not None and sol.completed:
    gain = simulate.ControlPolicy.from_solution(sol).gain
    defect = simulate.fundamental_pair_check(spec.data, gain, spec.simulation)
with open(sys.argv[2], "w", encoding="utf-8") as out:
    json.dump({"status": sol.status, "defect": defect}, out)
"""


def run_tree(tree, work):
    """``{(command, spec): (exit code, report or None, stderr)}`` of every run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))

    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=work, env=env,
                              capture_output=True, text=True)

    listing = run("-m", "indeflq.cli", "example", "--list")
    if listing.returncode != 0:
        raise SystemExit(f"report_diff: no indeflq under {tree}/src:\n{listing.stderr}")
    outcomes = {}
    for name in listing.stdout.split():
        run("-m", "indeflq.cli", "example", name, "--out-dir", str(work), "--quiet")
        spec = work / f"{name}.yaml"
        as_yaml = work / f"{name}.as-yaml.yaml"
        doc = json.loads(spec.read_text(encoding="utf-8"))
        as_yaml.write_text(yaml.safe_dump(doc), encoding="utf-8")
        for label, path, commands, flags in ((name, spec, COMMANDS, ()),
                                             (f"{name} (yaml)", as_yaml, YAML_COMMANDS, ()),
                                             (f"{name} (ladder)", spec, ("oracle",), LADDER)):
            for command in commands:
                report = work / f"{command}.{len(outcomes)}.json"
                if command == "fundamental_pair":
                    proc = run("-c", FUNDAMENTAL_PAIR, str(path), str(report))
                else:
                    proc = run("-m", "indeflq.cli", command, "--spec", str(path), *flags,
                               "--out", str(report))
                text = report.read_text(encoding="utf-8") if report.exists() else None
                outcomes[command, label] = (proc.returncode,
                                            None if text is None else json.loads(text),
                                            proc.stderr)
    return outcomes


def leaves(value, path=""):
    """``(path, value)`` of every scalar in a JSON value, the skipped top-level keys left out."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not (path == "" and key in SKIPPED):
                yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def field_changes(a, b):
    """(numeric, lines) over the leaves ``a`` and ``b`` of two reports present in both:
    ``{field: [largest absolute, largest relative change]}`` for the numeric ones that
    differ, list indices as ``[]``, and a line for each other value that differs."""
    numeric, lines = {}, []
    for key in sorted(a.keys() & b.keys()):
        x, y = a[key], b[key]
        if type(x) is type(y) and x == y:
            continue
        if type(x) is type(y) and type(x) in (int, float):  # bool is neither
            change = abs(y - x)
            relative = change / abs(x) if x else math.inf
            worst = numeric.setdefault(re.sub(r"\[\d+\]", "[]", key), [0.0, 0.0])
            worst[0], worst[1] = max(worst[0], change), max(worst[1], relative)
        else:
            lines.append(f"{key}: {x!r} -> {y!r}")
    return numeric, lines


def compare(old, new):
    """Lines saying how report ``new`` differs from ``old``; none when they are identical."""
    a, b = dict(leaves(old)), dict(leaves(new))
    numeric, changed = field_changes(a, b)
    return ([f"{label}: {', '.join(sorted(keys))}"
             for label, keys in (("added", b.keys() - a.keys()), ("removed", a.keys() - b.keys()))
             if keys]
            + changed
            + [f"{field}: largest change {change:.3g} absolute, {relative:.3g} relative"
               for field, (change, relative) in numeric.items()])


def compare_runs(old, new):
    """Lines saying how run ``new`` (exit code, report or None, stderr) differs from ``old``."""
    (old_exit, old_report, old_err), (new_exit, new_report, new_err) = old, new
    lines = [] if old_exit == new_exit else [f"exit code {old_exit} -> {new_exit}"]
    if (old_report is None) != (new_report is None):
        lines.append("report only in " + ("old" if new_report is None else "new"))
    elif old_report is not None:
        lines += compare(old_report, new_report)
    if old_err != new_err:
        lines.append(f"stderr: {old_err!r} -> {new_err!r}")
    return lines


def largest_relative_change(pairs):
    """The line naming the largest relative change over the changed numeric fields of
    ``pairs``, ``{(command, spec): (old report, new report)}`` with both reports present."""
    worst = max(((relative, field, key) for key, (old, new) in pairs.items()
                 for field, (_, relative) in
                 field_changes(dict(leaves(old)), dict(leaves(new)))[0].items()), default=None)
    if worst is None:
        return "largest relative change: none, no numeric field changed"
    relative, field, (command, spec) = worst
    return f"largest relative change: {relative:.3g}, {field} of {command} on {spec}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the tree compared against (a checkout with src/indeflq)")
    parser.add_argument("new", help="the tree compared (a checkout with src/indeflq)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for side in ("old", "new"):
            work = Path(tmp) / side
            work.mkdir()
            runs.append(run_tree(getattr(args, side), work))
    old, new = runs
    keys = sorted(old.keys() | new.keys(), key=lambda k: (k[1], COMMANDS.index(k[0])))
    identical = 0
    for key in keys:
        old_run, new_run = (side.get(key, (None, None, None)) for side in (old, new))
        lines = compare_runs(old_run, new_run)
        identical += not lines
        print(f"{key[0]:17s} {key[1]:28s} exit {new_run[0]}  "
              f"{'changed' if lines else 'identical'}")
        for line in lines:
            print(f"    {line}")
    print(f"{identical} of {len(keys)} runs identical apart from {' and '.join(SKIPPED)}")
    print(largest_relative_change({key: (old[key][1], new[key][1])
                                   for key in old.keys() & new.keys()
                                   if None not in (old[key][1], new[key][1])}))
    return 0 if identical == len(keys) else 1


if __name__ == "__main__":
    sys.exit(main())
