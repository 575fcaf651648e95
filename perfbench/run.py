"""Benchmark of the indeflq command line, one fresh interpreter per operation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 40 --trace 0

Each operation runs the way a user runs it: ``indeflq.cli.main(argv)`` in a
new ``python3`` process (perfbench/op.py), one process at a time, the next
one started only after the previous one exits (a closed loop with one
client).  The library is called directly only where no CLI command exists
(``fundamental_pair_check``).  A fresh process per command keeps the cold
costs every real command pays, such as the import of numpy and scipy and the
2^18+1-point alpha schedule behind ``lru_cache``.

A pass is the workload's fixed list of operations.  Passes repeat while the
next one still fits in ``--seconds``; at least one always runs.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
invocations of spawn to ``indeflq.cli`` imported), ``pass_s`` (median over
passes of the summed per-operation latency, set-up excluded) and
``peak_rss_mb`` (largest max-RSS of any operation process).  The host these
figures were defined on changes speed by up to 1.5x over minutes, so
``setup_s`` and ``pass_s`` are wall seconds rescaled to a fixed host speed:
before each operation this process times a fixed pure-Python loop, and each
time is multiplied by REFERENCE_NOMINAL_S / (that loop's time).  The
unscaled seconds are printed in the table.  ``error_rate``
(failed / attempted operations) is printed in the table and carried by the
``attempted`` and ``failed`` fields, not as a metric, because it is 0.

``--trace 1`` runs every operation untraced and then traced, and prints the
per-layer metrics from spans recorded around the library's public layer
functions.
A metric is 0 on a workload where its layer does no work.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OP_SCRIPT = Path(__file__).resolve().parent / "op.py"
WORK = ROOT / ".perfbench_work"

OP_TIMEOUT_S = 30.0  # the slowest operation takes about 6 s on a 2-vCPU Xeon VM
RUN_LIMIT_S = 165.0  # a run must end within 180 s; no operation starts after this
IMPORT_PROBES_PER_PASS = 3
REFERENCE_LOOPS = 100_000
REFERENCE_SAMPLES = 3  # per operation, median taken
REFERENCE_NOMINAL_S = 0.009  # typical loop time on a 2-vCPU Xeon VM: the speed reported

CHAIN_SPECS = ("blowup_ode", "definite_2x2", "example504_r1", "example504_rneg015",
               "example504_rneg017", "shift_demo")
CHAIN_EXITS = {"example504_rneg017": (4, 2), "blowup_ode": (0, 3)}  # (certify, solve)
# spec -> (antithetic pairs, Euler steps, horizon): the bundled sizes, pinned
MC_SPECS = {
    "definite_2x2": (20_000, 512, 1.0),
    "example504_r1": (20_000, 256, 1.0),
    "example504_rneg015": (20_000, 256, 1.0),
}
FP_SPEC, FP_PAIRS, FP_STEPS = "definite_2x2", 2000, 512
ORACLE_SPECS = ("definite_2x2", "example504_r1", "example504_rneg015", "shift_demo")
ORACLE_STEPS = (512, 1024, 2048, 4096, 8192)
WORKLOADS = ("chain", "montecarlo", "oracle_sweep")
# Workload seeds map above this offset; calibration seeds (perfbench/calibrate.py)
# stay below it, so the Monte Carlo tolerances never see their own calibration draws.
SEED_OFFSET = 1_000_000_000

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "setup.numpy_import_s": "s",
    "setup.scipy_import_s": "s",
    "setup.yaml_import_s": "s",
    "setup.indeflq_import_s": "s",
    "cli.self_ms": "ms",
    "specio.load_ms": "ms",
    "specio.load_kb_per_s": "KiB/s",
    "specio.report_ms": "ms",
    "riccati.solve_ms": "ms",
    "riccati.steps_accepted": "count",
    "riccati.steps_rejected": "count",
    "riccati.accept_ratio": "ratio",
    "riccati.us_per_step": "us",
    "riccati.event_solve_ms": "ms",
    "certificates.alpha_schedule_ms": "ms",
    "certificates.scalar_comparison_ms": "ms",
    "certificates.subsolution_ms": "ms",
    "certificates.definite_ms": "ms",
    "certificates.shift_ms": "ms",
    "simulate.cs_report_s": "s",
    "simulate.path_steps_per_s": "1/s",
    "simulate.fundamental_pair_s": "s",
    "simulate.fp_path_steps_per_s": "1/s",
    "simulate.speedup_2w": "ratio",
    "oracle.dp_solve_ms": "ms",
    "oracle.dp_steps": "count",
    "oracle.us_per_dp_step": "us",
    "riccati.p0_err_r1": "abs",
    "riccati.t_event_blowup": "t",
    "oracle.ratio_min": "ratio",
    "oracle.ratio_max": "ratio",
    "simulate.value_gap_sigma": "sigma",
    "simulate.cs_residual_sigma": "sigma",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, or they do not import)."""


def spec_path(name):
    return str(WORK / "specs" / f"{name}.yaml")


def cli_op(command, spec, expect, extra=()):
    label = f"{command}.{spec}"
    argv = [command, "--spec", spec_path(spec), *extra,
            "--out", str(WORK / "reports" / f"{label}.json"), "--quiet"]
    return {"kind": "cli", "label": label, "command": command, "spec": spec,
            "argv": argv, "expect": expect}


def workload_ops(workload, seed):
    """The fixed operation list of one pass.  Only montecarlo uses the seed."""
    if workload == "chain":
        ops = []
        for spec in CHAIN_SPECS:
            certify_exit, solve_exit = CHAIN_EXITS.get(spec, (0, 0))
            ops.append(cli_op("certify", spec, certify_exit))
            ops.append(cli_op("solve", spec, solve_exit))
        return ops
    if workload == "montecarlo":
        sim_seed = SEED_OFFSET + seed % SEED_OFFSET
        ops = []
        for spec, (pairs, steps, _) in MC_SPECS.items():
            sets = [f"simulation.seed={sim_seed}", f"simulation.n_paths={pairs}",
                    f"simulation.n_steps={steps}"]
            ops.append(cli_op("simulate", spec, 0,
                              [arg for s in sets for arg in ("--set", s)]))
        ops.append({"kind": "fundamental_pair", "label": f"fundamental_pair.{FP_SPEC}",
                    "spec": spec_path(FP_SPEC), "n_paths": FP_PAIRS, "n_steps": FP_STEPS,
                    "seed": sim_seed, "expect": 0})
        return ops
    if workload == "oracle_sweep":
        steps = ",".join(str(s) for s in ORACLE_STEPS)
        return [cli_op("oracle", spec, 0, ["--steps", steps]) for spec in ORACLE_SPECS]
    raise ValueError(workload)


def check_outcome(op, out):
    """Problems with one finished operation's exit code and outputs."""
    if out["exit"] != op["expect"]:
        return [f"exit {out['exit']}, expected {op['expect']}"]
    kind = op["kind"]
    if kind == "fundamental_pair":
        return checks.check_fundamental_pair(out["result"])
    if kind in ("import", "speedup_2w"):
        return []  # set-up and scaling probes of traced runs; nothing to check
    report = out.get("report")
    if report is None:
        return ["no report written"]
    spec, expect = op["spec"], op["expect"]
    if op["command"] == "certify":
        return checks.check_certify(spec, report, expect)
    if op["command"] == "solve":
        return checks.check_solve(spec, report, expect)
    if op["command"] == "oracle":
        return checks.check_oracle(spec, report, expect, len(ORACLE_STEPS))
    pairs, steps, horizon = MC_SPECS[spec]
    return checks.check_simulate(spec, report, expect, 2 * pairs, steps, horizon)


def reference_seconds():
    """Time of a fixed pure-Python loop: how fast the host runs right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Runner:
    """Starts operation processes one at a time and keeps every outcome."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.outcomes = []

    def run(self, op, trace=False, importtime=False):
        payload = dict(op, id=len(self.outcomes), trace=trace)
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
               str(OP_SCRIPT), json.dumps(payload)]
        out = {"op": op, "failed": True, "problems": [], "exit": None, "ref_s": None,
               "latency_s": None, "setup_s": None, "maxrss_kb": None, "spans": [],
               "result": None, "report": None, "stderr": ""}
        self.outcomes.append(out)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0.0:
            out["problems"].append("not started: run deadline reached")
            return out
        timeout = min(OP_TIMEOUT_S, remaining)
        report_file = None
        if op["kind"] == "cli":
            report_file = Path(op["argv"][op["argv"].index("--out") + 1])
            report_file.unlink(missing_ok=True)
        out["ref_s"] = statistics.median(reference_seconds()
                                         for _ in range(REFERENCE_SAMPLES))
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=WORK, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            out["latency_s"] = time.monotonic() - t_spawn
            out["problems"].append(f"timed out after {timeout:.0f} s")
            return out
        out["stderr"] = proc.stderr
        lines = proc.stdout.strip().splitlines()
        try:
            child = json.loads(lines[-1])
        except (IndexError, ValueError):
            out["problems"].append(f"process exited {proc.returncode} without a result")
            return out
        if Path(child["module"]).resolve().parent != SRC / "indeflq":
            raise BenchError(f"operation imported indeflq from {child['module']}, not {SRC}")
        out.update(exit=child["exit"], latency_s=child["latency_s"],
                   setup_s=child["t_ready"] - t_spawn, maxrss_kb=child["maxrss_kb"],
                   spans=child["spans"], result=child["result"])
        if report_file is not None and report_file.exists():
            out["report"] = json.loads(report_file.read_text(encoding="utf-8"))
        out["problems"] = check_outcome(op, out)
        out["failed"] = bool(out["problems"])
        return out


def prepare_workdir():
    """Fresh work directory with the six bundled specs written by the CLI."""
    if not (SRC / "indeflq" / "cli.py").is_file():
        raise BenchError(f"no package sources at {SRC / 'indeflq'}; run from a checkout")
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "reports").mkdir(parents=True)
    specs = WORK / "specs"
    code = (
        "import sys\nfrom indeflq import cli\n"
        f"sys.exit(max(cli.main(['example', n, '--out-dir', {str(specs)!r}, '--quiet'])"
        f" for n in {list(CHAIN_SPECS)!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=WORK, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=OP_TIMEOUT_S)
    if proc.returncode != 0 or not all(Path(spec_path(n)).is_file() for n in CHAIN_SPECS):
        raise BenchError(f"writing the bundled specs failed:\n{proc.stderr}")


# ---------------------------------------------------------------------------
# aggregation


def pass_seconds(outcomes):
    return sum(o["latency_s"] or 0.0 for o in outcomes)


def at_reference_speed(seconds, ref_s):
    return seconds * REFERENCE_NOMINAL_S / ref_s


def scaled_pass_seconds(outcomes):
    """Pass seconds at the reference speed, by the pass's median loop time."""
    ref_s = statistics.median(o["ref_s"] for o in outcomes if o["ref_s"] is not None)
    return at_reference_speed(pass_seconds(outcomes), ref_s)


def span_self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    selfs = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            selfs[s["parent"]] -= s["end"] - s["start"]
    return selfs


def layer_metrics(outcomes):
    """Per-layer figures of one traced pass, summed over its operations."""
    self_s, dur_s, count = {}, {}, {}

    def add(table, key, value):
        table[key] = table.get(key, 0.0) + value

    for o in outcomes:
        for span, own in zip(o["spans"], span_self_times(o["spans"])):
            name = span["name"]
            add(self_s, name, own)
            add(dur_s, name, span["end"] - span["start"])
            for key in ("accepted", "rejected", "bytes", "path_steps", "dp_steps"):
                if key in span:
                    add(count, f"{name}.{key}", span[key])
            if name == "riccati.solve" and span["status"] != "completed":
                add(self_s, "riccati.event_solve", own)

    def ms(name):
        return 1e3 * self_s.get(name, 0.0)

    def per(numerator, seconds):
        return numerator / seconds if seconds > 0.0 else 0.0

    steps_acc = count.get("riccati.solve.accepted", 0.0)
    steps_rej = count.get("riccati.solve.rejected", 0.0)
    steps = steps_acc + steps_rej
    dp_steps = count.get("oracle.dp_solve.dp_steps", 0.0)
    cs_s = self_s.get("simulate.cs_report", 0.0)
    fp_s = self_s.get("simulate.fundamental_pair", 0.0)
    return {
        "cli.self_ms": ms("cli.main"),
        "specio.load_ms": ms("specio.load"),
        "specio.load_kb_per_s": per(count.get("specio.load.bytes", 0.0) / 1024.0,
                                    dur_s.get("specio.load", 0.0)),
        "specio.report_ms": ms("specio.report"),
        "riccati.solve_ms": ms("riccati.solve"),
        "riccati.steps_accepted": steps_acc,
        "riccati.steps_rejected": steps_rej,
        "riccati.accept_ratio": steps_acc / steps if steps else 0.0,
        "riccati.us_per_step": 1e3 * ms("riccati.solve") / steps if steps else 0.0,
        "riccati.event_solve_ms": ms("riccati.event_solve"),
        "certificates.alpha_schedule_ms": ms("certificates.alpha_schedule"),
        "certificates.scalar_comparison_ms": ms("certificates.scalar_comparison"),
        "certificates.subsolution_ms": ms("certificates.subsolution"),
        "certificates.definite_ms": ms("certificates.definite"),
        "certificates.shift_ms": ms("certificates.shift"),
        "simulate.cs_report_s": cs_s,
        "simulate.path_steps_per_s": per(count.get("simulate.cs_report.path_steps", 0.0), cs_s),
        "simulate.fundamental_pair_s": fp_s,
        "simulate.fp_path_steps_per_s": per(
            count.get("simulate.fundamental_pair.path_steps", 0.0), fp_s),
        "oracle.dp_solve_ms": ms("oracle.dp_solve"),
        "oracle.dp_steps": dp_steps,
        "oracle.us_per_dp_step": 1e3 * ms("oracle.dp_solve") / dp_steps if dp_steps else 0.0,
    }


def import_seconds(stderr):
    """Self import time per top-level package from ``-X importtime`` output."""
    totals = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        totals[package] = totals.get(package, 0.0) + self_us * 1e-6
    return totals


def accuracy_metrics(passes):
    """Accuracy read from the reports; informational, and checked per operation."""
    p0_errs, t_events, ratios, gap_sigma, cs_sigma = [], [], [], [], []
    for outcomes in passes:
        gaps, css = [], []
        for o in outcomes:
            report = o["report"] or {}
            if o["op"].get("spec") == "example504_r1" and report.get("P0"):
                p0_errs.append(abs(report["P0"][0][0] - checks.P_STAR_R1))
            if o["op"].get("spec") == "blowup_ode" and report.get("t_event") is not None:
                t_events.append(report["t_event"])
            ratios.extend((report.get("oracle") or {}).get("ratios") or [])
            sim = report.get("simulation")
            if sim and sim.get("cost_stderr") and sim.get("cs_stderr"):
                gaps.append(abs(sim["cost_mean"] - report["value_at_xi"]) / sim["cost_stderr"])
                css.append(sim["cs_residual"] / sim["cs_stderr"])
        if gaps:
            gap_sigma.append(max(gaps))
            cs_sigma.append(max(css))
    return {
        "riccati.p0_err_r1": max(p0_errs, default=0.0),
        "riccati.t_event_blowup": statistics.median(t_events) if t_events else 0.0,
        "oracle.ratio_min": min(ratios, default=0.0),
        "oracle.ratio_max": max(ratios, default=0.0),
        "simulate.value_gap_sigma": statistics.median(gap_sigma) if gap_sigma else 0.0,
        "simulate.cs_residual_sigma": statistics.median(cs_sigma) if cs_sigma else 0.0,
    }


def median_of(dicts, key):
    return statistics.median(d.get(key, 0.0) for d in dicts) if dicts else 0.0


# ---------------------------------------------------------------------------
# runs


def run_passes(runner, ops, seconds, start, traced_extra=None):
    """Repeat passes while the next one fits; returns untraced and traced passes.

    With ``traced_extra`` each operation runs untraced and then traced, back
    to back so that both see the same machine state, and ``traced_extra()``
    follows the pass.
    """
    plain, traced = [], []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        if traced_extra is None:
            plain.append([runner.run(op) for op in ops])
        else:
            pairs = [(runner.run(op), runner.run(op, trace=True)) for op in ops]
            plain.append([untraced for untraced, _ in pairs])
            traced.append([with_trace for _, with_trace in pairs])
            traced_extra()
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        if now + longest > start + seconds or now >= runner.deadline:
            return plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    try:
        prepare_workdir()
        runner = Runner(start + RUN_LIMIT_S)
        ops = workload_ops(args.workload, args.seed)
        probes, speedups = [], []

        def traced_extra():
            for _ in range(IMPORT_PROBES_PER_PASS):
                probes.append(runner.run({"kind": "import", "label": "import", "expect": 0},
                                         importtime=True))
            if args.workload == "montecarlo":
                speedups.append(runner.run({
                    "kind": "speedup_2w", "label": f"speedup_2w.{FP_SPEC}",
                    "spec": spec_path(FP_SPEC), "seed": SEED_OFFSET + args.seed % SEED_OFFSET,
                    "expect": 0}))

        plain, traced = run_passes(runner, ops, args.seconds, start,
                                   traced_extra if args.trace else None)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    outcomes = runner.outcomes
    attempted = len(outcomes)
    failed = sum(o["failed"] for o in outcomes)
    for o in outcomes:
        if o["failed"]:
            print(f"FAILED {o['op']['label']}: {'; '.join(o['problems'])}", file=sys.stderr)
            if o["stderr"].strip():
                print(o["stderr"].strip()[-2000:], file=sys.stderr)

    raw_pass_s = statistics.median(pass_seconds(p) for p in plain)
    invocations = [o for p in plain for o in p if o["setup_s"] is not None]
    raw_setup_s = statistics.median(o["setup_s"] for o in invocations) if invocations else 0.0
    if args.trace:
        units = PER_LAYER_UNITS
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {k: median_of(per_pass, k) for k in per_pass[0]}
        imports = [import_seconds(o["stderr"]) for o in probes if not o["failed"]]
        for package in ("numpy", "scipy", "yaml", "indeflq"):
            metrics[f"setup.{package}_import_s"] = median_of(imports, package)
        ratios = [o["result"]["seconds_1w"] / o["result"]["seconds_2w"]
                  for o in speedups if not o["failed"]]
        metrics["simulate.speedup_2w"] = statistics.median(ratios) if ratios else 0.0
        metrics.update(accuracy_metrics(plain + traced))
        traced_s = statistics.median(pass_seconds(p) for p in traced)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / raw_pass_s - 1.0)
    else:
        units = END_TO_END_UNITS
        setups = [at_reference_speed(o["setup_s"], o["ref_s"]) for o in invocations]
        rss = [o["maxrss_kb"] for p in plain for o in p if o["maxrss_kb"] is not None]
        metrics = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "pass_s": statistics.median(scaled_pass_seconds(p) for p in plain),
            "peak_rss_mb": max(rss, default=0) / 1024.0,
        }

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}"
          f"{f' (+{len(traced)} traced)' if args.trace else ''}"
          f"  operations {attempted}  failed {failed}")
    refs = [o["ref_s"] for o in outcomes if o["ref_s"] is not None]
    print(f"  unscaled: setup {raw_setup_s:.4f} s, pass {raw_pass_s:.4f} s;"
          f" reference loop {1e3 * statistics.median(refs):.3f} ms"
          f" (nominal {1e3 * REFERENCE_NOMINAL_S:g} ms)")
    print("  pass seconds: " + " ".join(f"{pass_seconds(p):.3f}" for p in plain)
          + (" | traced: " + " ".join(f"{pass_seconds(p):.3f}" for p in traced)
             if args.trace else ""))
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    print(f"  {'error_rate':36s} {failed / attempted:14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
