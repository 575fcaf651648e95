"""Command-line surface: solve, certify, simulate, oracle, example.

Exit codes: 0 success or certified, 1 input error, 2 constraint violation,
3 blow-up, 4 certificate failed.  Each command fills the report and returns
(exit code, summary); ``main`` writes the report, to --out (default stdout)
as JSON, and the one-line summary to stderr unless --quiet.  Every input
error (a malformed spec, flag or certificate witness, an unreadable spec or
unwritable report) is caught in ``main`` and ends with one ``error: ...``
line on stderr and exit 1.  Flags are read by one table, ``_COMMANDS``.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import types
from pathlib import Path

from . import bundled
# constant_threshold_alpha_schedule is not called here (certify_scalar_comparison
# builds the named schedule): perfbench/op.py's tracer reads it off cli
# (test_cli_binds_the_traced_layer_functions), and a traced run fails without it
from .certificates import (
    Certificate,
    apply_shift,
    certify_definite_regime,
    certify_scalar_comparison,
    check_subsolution,
    constant_threshold_alpha_schedule,
)
from .errors import IndefLQError, NumericalOverflow, SpecError, StepLimit
# dp_solve is not called here: perfbench/op.py's tracer rebinds cli.dp_solve
# (test_cli_binds_the_traced_layer_functions), and a traced run fails without it
from .oracle import dp_ladder, dp_solve
from .riccati import BLOWUP, COMPLETED, CONSTRAINT_VIOLATION, solve_riccati
from .simulate import ControlPolicy, completing_square_report
from .specio import ParsedSpec, check_table_size, dumps_report, load_spec_file

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONSTRAINT = 2
EXIT_BLOWUP = 3
EXIT_CERT_FAILED = 4

# largest step count of one oracle --steps entry
MAX_ORACLE_STEPS = 1_000_000

_STATUS_EXIT = {
    COMPLETED: EXIT_OK,
    CONSTRAINT_VIOLATION: EXIT_CONSTRAINT,
    BLOWUP: EXIT_BLOWUP,
}


def _empty_report():
    report = dict.fromkeys(("status", "P0", "value_at_xi", "margin_min", "certificate",
                            "simulation", "oracle"))
    report["timings"] = {}
    return report


def _emit(report, out_path, quiet, summary):
    text = dumps_report(report)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if not quiet:
        print(summary, file=sys.stderr)


def _solve(spec: ParsedSpec, report):
    """Timed solve_riccati with its fields in the report; returns the solution."""
    t0 = time.perf_counter()
    sol = solve_riccati(spec.data, spec.solver)
    report["timings"]["solve"] = time.perf_counter() - t0
    report["status"] = sol.status
    report["margin_min"] = sol.margin_min_dense
    if sol.t_event is not None:
        report["t_event"] = sol.t_event
    report["steps"] = {"accepted": sol.accepted_steps, "rejected": sol.rejected_steps,
                       "rhs_evaluations": sol.rhs_evaluations}
    if sol.completed:
        report["P0"] = sol.P0
    return sol


def _stopped(args, sol):
    """Exit code and summary of a solve that stopped before t = 0."""
    return _STATUS_EXIT[sol.status], f"{args.command}: {sol.status} at t*={sol.t_event:.6g}"


def cmd_solve(spec: ParsedSpec, report, args) -> tuple[int, str]:
    sol = _solve(spec, report)
    if not sol.completed:
        return _stopped(args, sol)
    if spec.xi is not None:
        report["value_at_xi"] = sol.value_at(spec.xi)
    return EXIT_OK, f"solve: {sol.status}"


def _run_certificate(spec: ParsedSpec) -> Certificate:
    """The certifier of the spec's certificate block, read and cast by parse_spec."""
    block, data, eps_pos = spec.certificate, spec.data, spec.solver.eps_pos
    kind = block["kind"]
    if kind == "scalar-comparison":
        return certify_scalar_comparison(data, block["alpha"], eps_pos=eps_pos)
    if kind == "definite":
        return certify_definite_regime(data, eps_pos=eps_pos)
    if kind == "explicit-subsolution":
        return check_subsolution(data, block["F"], block["dF"], tol=block["tol"],
                                 eps_pos=eps_pos)
    # kind == "shift": parse_spec admits no other kind
    shifted, residual = apply_shift(data, block["K"])
    if residual > block["tol"]:
        return Certificate.failed(
            "shift", f"compensation residual {residual:.3e} exceeds {block['tol']:.1e}")
    inner = certify_definite_regime(shifted, eps_pos=eps_pos)
    return Certificate(
        kind="shift", verdict=inner.verdict, epsilon=inner.epsilon, t_worst=inner.t_worst,
        reason=None if inner.certified else f"shifted problem: {inner.reason}",
    )


def cmd_certify(spec: ParsedSpec, report, args) -> tuple[int, str]:
    if spec.certificate is None:
        raise SpecError("spec has no certificate block")
    t0 = time.perf_counter()
    cert = _run_certificate(spec)
    report["timings"]["certify"] = time.perf_counter() - t0
    # the witness path phi stays out of the report
    report["certificate"] = {field.name: getattr(cert, field.name)
                             for field in dataclasses.fields(cert) if field.name != "phi"}
    report["status"] = cert.verdict
    return (EXIT_OK if cert.certified else EXIT_CERT_FAILED,
            f"certify: {cert.verdict} (kind {cert.kind}, epsilon {cert.epsilon:.6g})")


def cmd_simulate(spec: ParsedSpec, report, args) -> tuple[int, str]:
    if spec.simulation is None:
        raise SpecError("spec has no simulation block")
    sol = _solve(spec, report)
    if not sol.completed:
        return _stopped(args, sol)
    report["value_at_xi"] = sol.value_at(spec.xi)
    policy = ControlPolicy.from_solution(sol)
    t0 = time.perf_counter()
    rep = completing_square_report(spec.data, sol, policy, spec.xi, spec.simulation)
    report["timings"]["simulate"] = time.perf_counter() - t0
    sim = dataclasses.asdict(rep)
    # run-dependent counters go with the timings, so reports stay deterministic
    report["timings"]["simulate_rng"] = sim.pop("rng_seconds")
    report["timings"]["simulate_step"] = sim.pop("step_seconds")
    report["simulation"] = sim
    return EXIT_OK, (f"simulate: cost {rep.cost_mean:.6g} +- {rep.cost_stderr:.2g}, "
                     f"value {report['value_at_xi']:.6g}, cs residual {rep.cs_residual:.3g}")


def cmd_oracle(spec: ParsedSpec, report, args) -> tuple[int, str]:
    try:
        steps = [int(s) for s in args.steps.split(",") if s.strip()]
    except ValueError:
        raise SpecError(f"--steps: expected comma-separated integers, got {args.steps!r}")
    if not steps or not all(1 <= ns <= MAX_ORACLE_STEPS for ns in steps):
        raise SpecError(f"--steps: expected step counts from 1 to {MAX_ORACLE_STEPS}")
    check_table_size("--steps", max(steps), "DP step", spec.data.n, spec.data.k, spec.data.d)
    sol = _solve(spec, report)
    if not sol.completed:
        return _stopped(args, sol)
    t0 = time.perf_counter()
    results = dp_ladder(spec.data, steps, eps_pos=spec.solver.eps_pos)
    report["timings"]["oracle"] = time.perf_counter() - t0
    rows = [{
        "n_steps": ns,
        "delta": res.delta,
        "constraint_ok": res.constraint_ok,
        "violation_step": res.violation_step,
        "P0": res.P0,
        "error_vs_solver": res.error_vs(sol.P0) if res.constraint_ok else None,
    } for ns, res in zip(steps, results)]
    errs = [r["error_vs_solver"] for r in rows if r["error_vs_solver"] is not None]
    # a zero error (the DP agrees exactly) leaves the ratio undefined: NaN, null in the report
    ratios = [a / b if b else float("nan") for a, b in zip(errs, errs[1:])]
    # DP steps taken, each distinct count once: N, or N - violation_step when it aborted
    taken = {ns: ns - (res.violation_step or 0) for ns, res in zip(steps, results)}
    report["oracle"] = {"rows": rows, "ratios": ratios, "dp_steps": sum(taken.values())}
    return EXIT_OK, f"oracle: {len(rows)} step sizes, ratios {['%.2f' % r for r in ratios]}"


def cmd_example(args) -> int:
    names = bundled.example_names()
    if args.list or args.name is None:
        print("\n".join(names))
        return EXIT_OK
    if args.name not in names:
        raise SpecError(f"unknown example {args.name!r}; available: {', '.join(names)}")
    text = bundled.example_text(args.name)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.name}.yaml"
    path.write_text(text, encoding="utf-8")
    if not args.quiet:
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


_COMMON_FLAGS = {
    "--spec": ("spec", "SPEC", None, "problem specification file (JSON or YAML)"),
    "--set": ("overrides", "KEY.PATH=VALUE", [], "patch the spec before validation; repeatable"),
    "--out": ("out", "OUT", None, "report path (default: stdout)"),
    "--quiet": ("quiet", None, False, "suppress the summary line"),
}
# command -> (handler, help, {flag: (dest, metavar or None for a switch, default, help)});
# a list default collects each use, "[name]" is positional, a unique prefix selects a flag
_COMMANDS = {
    "solve": (cmd_solve, "integrate the Riccati problem", _COMMON_FLAGS),
    "certify": (cmd_certify, "run the spec's certificate block", _COMMON_FLAGS),
    "simulate": (cmd_simulate, "Monte Carlo verification of the feedback", _COMMON_FLAGS),
    "oracle": (cmd_oracle, "discrete dynamic-programming cross-check", {**_COMMON_FLAGS,
        "--steps": ("steps", "N,N,...", "64,128,256,512", "step counts (default 64,128,256,512)")}),
    "example": (cmd_example, "materialize a bundled example spec", {
        "[name]": ("name", None, None, "example to write (default: list the names)"),
        "--out-dir": ("out_dir", "DIR", ".", "directory for the written file"),
        "--list": ("list", None, False, "list available example names"),
        "--quiet": ("quiet", None, False, "suppress the line naming the written file"),
    }),
}


def _help(command):
    rows = ([(name, text) for name, (_, text, _) in _COMMANDS.items()] if command is None else
            [(f"{f} {m or ''}", text) for f, (_, m, _, text) in _COMMANDS[command][2].items()])
    return f"usage: indeflq {command or 'COMMAND'} [flags]\n\n" + "\n".join(
        f"  {label:24s}{text}" for label, text in [*rows, ("-h, --help", "show this help")])


def _parse_args(argv):
    """The command's fields read from argv, or help text when argv asks for it."""
    command = argv[0] if argv else "nothing"
    if command in ("-h", "--help"):
        return _help(None)
    if command not in _COMMANDS:
        raise ValueError(f"expected a command ({', '.join(_COMMANDS)}), got {command}")
    flags = _COMMANDS[command][2]
    fields = {dest: default for dest, _, default, _ in flags.values()}
    for item in (items := iter(argv[1:])):
        name, eq, value = item.partition("=")
        found = [f for f in (*flags, "--help") if f[:2] == "--" == name[:2] and f.startswith(name)]
        if item[:1] != "-" and fields.get("name", 0) is None:
            fields["name"] = item
            continue
        if name == "-h" or found == ["--help"]:
            return _help(command)
        dest, meta, default, _ = flags[found[0]] if len(found) == 1 else (None,) * 4
        if dest is None or eq and not meta:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(found)}"
                             if found[1:] else f"unrecognized arguments: {item}")
        # a missing value, or one that starts with "-" and is no number, reads as a flag
        value = value if eq or not meta else next(items, "--")
        if not eq and value[:1] == "-" and value[1:2] not in "0123456789.":
            raise ValueError(f"argument {found[0]}: expected one argument")
        fields[dest] = [*fields[dest], value] if default == [] else value if meta else True
    if fields.get("spec", "") is None:
        raise ValueError("the following arguments are required: --spec")
    return types.SimpleNamespace(command=command, **fields)


def main(argv=None) -> int:
    report = _empty_report()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args)
            return EXIT_OK
        if args.command == "example":
            return cmd_example(args)
        spec = load_spec_file(args.spec, args.overrides)
        try:
            code, summary = _COMMANDS[args.command][0](spec, report, args)
        except (StepLimit, NumericalOverflow) as exc:
            report["status"] = "error"
            report["error"] = str(exc)
            if isinstance(exc, NumericalOverflow):
                report["overflow_step"] = exc.step
            code, summary = EXIT_INPUT, f"{args.command}: {exc}"
        _emit(report, args.out, args.quiet, summary)
        return code
    except (IndefLQError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
