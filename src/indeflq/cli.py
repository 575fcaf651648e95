"""Command-line surface: solve, certify, simulate, oracle, example.

Exit codes: 0 success or certified, 1 input error, 2 constraint violation,
3 blow-up, 4 certificate failed.  Every input error (a malformed spec, flag
or certificate witness, an unreadable spec or unwritable report) is caught
in ``main`` and ends with one ``error: ...`` line on stderr and exit 1.
Reports go to --out (default stdout) as JSON; a one-line summary goes to
stderr unless --quiet.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from . import bundled
from .certificates import (
    Certificate,
    SubsolutionCandidate,
    apply_shift,
    certify_definite_regime,
    certify_scalar_comparison,
    check_subsolution,
    constant_threshold_alpha_schedule,
)
from .errors import IndefLQError, NumericalOverflow, SpecError, StepLimit
from .oracle import dp_solve
from .riccati import BLOWUP, COMPLETED, CONSTRAINT_VIOLATION, solve_riccati
from .simulate import ControlPolicy, completing_square_report
from .specio import ParsedSpec, dumps_report, load_spec_file

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


def _solve(spec: ParsedSpec, report, args):
    """Timed solve_riccati with its fields in the report.

    Returns ``(sol, code)``.  A solve that stopped before t = 0 has its report
    emitted here and ``code`` is the command's exit code; otherwise ``code``
    is None and the command goes on.
    """
    t0 = time.perf_counter()
    sol = solve_riccati(spec.data, spec.solver)
    report["timings"]["solve"] = time.perf_counter() - t0
    report["status"] = sol.status
    report["margin_min"] = sol.margin_min_dense
    if sol.t_event is not None:
        report["t_event"] = sol.t_event
    report["steps"] = {"accepted": sol.accepted_steps, "rejected": sol.rejected_steps}
    if sol.completed:
        report["P0"] = sol.P0
        return sol, None
    _emit(report, args.out, args.quiet, f"{args.command}: {sol.status} at t*={sol.t_event:.6g}")
    return sol, _STATUS_EXIT[sol.status]


def _certificate_into(report, cert: Certificate):
    keys = ("kind", "verdict", "epsilon", "reason", "t_worst", "threshold")
    report["certificate"] = {key: getattr(cert, key) for key in keys}


def cmd_solve(spec: ParsedSpec, report, args) -> int:
    sol, code = _solve(spec, report, args)
    if code is not None:
        return code
    if spec.xi is not None:
        report["value_at_xi"] = sol.value_at(spec.xi)
    _emit(report, args.out, args.quiet, f"solve: {sol.status}")
    return EXIT_OK


def _run_certificate(spec: ParsedSpec) -> Certificate:
    """The certifier of the spec's certificate block, read and cast by parse_spec."""
    block, data, eps_pos = spec.certificate, spec.data, spec.solver.eps_pos
    kind = block["kind"]
    if kind == "scalar-comparison":
        alpha = block["alpha"]
        if isinstance(alpha, str):  # "optimal-constant", the one name parse_spec admits
            if abs(data.T - 1.0) > 1e-12:
                raise SpecError("the optimal-constant alpha schedule needs horizon T = 1")
            alpha = constant_threshold_alpha_schedule()
        return certify_scalar_comparison(data, alpha, eps_pos=eps_pos)
    if kind == "definite":
        return certify_definite_regime(data, eps_pos=eps_pos)
    if kind == "explicit-subsolution":
        if block["F"] is None:
            cand = SubsolutionCandidate.zero(data)
        else:
            cand = SubsolutionCandidate(grid=data.grid, F=block["F"], dF=block["dF"])
        return check_subsolution(cand, data, tol=block["tol"], eps_pos=eps_pos)
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


def cmd_certify(spec: ParsedSpec, report, args) -> int:
    if spec.certificate is None:
        raise SpecError("spec has no certificate block")
    t0 = time.perf_counter()
    cert = _run_certificate(spec)
    report["timings"]["certify"] = time.perf_counter() - t0
    _certificate_into(report, cert)
    report["status"] = cert.verdict
    _emit(report, args.out, args.quiet,
          f"certify: {cert.verdict} (kind {cert.kind}, epsilon {cert.epsilon:.6g})")
    return EXIT_OK if cert.certified else EXIT_CERT_FAILED


def cmd_simulate(spec: ParsedSpec, report, args) -> int:
    if spec.simulation is None:
        raise SpecError("spec has no simulation block")
    sol, code = _solve(spec, report, args)
    if code is not None:
        return code
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
    _emit(report, args.out, args.quiet,
          f"simulate: cost {rep.cost_mean:.6g} +- {rep.cost_stderr:.2g}, "
          f"value {report['value_at_xi']:.6g}, cs residual {rep.cs_residual:.3g}")
    return EXIT_OK


def cmd_oracle(spec: ParsedSpec, report, args) -> int:
    try:
        steps = [int(s) for s in args.steps.split(",") if s.strip()]
    except ValueError:
        raise SpecError(f"--steps: expected comma-separated integers, got {args.steps!r}")
    if not steps or not all(1 <= ns <= MAX_ORACLE_STEPS for ns in steps):
        raise SpecError(f"--steps: expected step counts from 1 to {MAX_ORACLE_STEPS}")
    sol, code = _solve(spec, report, args)
    if code is not None:
        return code
    rows = []
    t0 = time.perf_counter()
    for ns in steps:
        res = dp_solve(spec.data, ns, eps_pos=spec.solver.eps_pos)
        rows.append({
            "n_steps": ns,
            "delta": res.delta,
            "constraint_ok": res.constraint_ok,
            "P0": res.P0,
            "error_vs_solver": res.error_vs(sol.P0) if res.constraint_ok else None,
        })
    report["timings"]["oracle"] = time.perf_counter() - t0
    errs = [r["error_vs_solver"] for r in rows if r["error_vs_solver"] is not None]
    # a zero error (the DP agrees exactly) leaves the ratio undefined: NaN, null in the report
    ratios = [a / b if b else float("nan") for a, b in zip(errs, errs[1:])]
    report["oracle"] = {"rows": rows, "ratios": ratios}
    _emit(report, args.out, args.quiet,
          f"oracle: {len(rows)} step sizes, ratios {['%.2f' % r for r in ratios]}")
    return EXIT_OK


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


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 1 (exit 2 means constraint violation)."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n{self.format_usage()}")


def _build_parser():
    parser = _Parser(
        prog="indeflq",
        description="Indefinite linear-quadratic stochastic control toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_spec=True):
        if needs_spec:
            p.add_argument("--spec", required=True, help="problem specification file (YAML)")
            p.add_argument("--set", dest="overrides", action="append", default=[],
                           metavar="KEY.PATH=VALUE", help="patch the spec before validation")
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")

    add_common(sub.add_parser("solve", help="integrate the Riccati problem"))
    add_common(sub.add_parser("certify", help="run the spec's certificate block"))
    add_common(sub.add_parser("simulate", help="Monte Carlo verification of the feedback"))
    p_oracle = sub.add_parser("oracle", help="discrete dynamic-programming cross-check")
    add_common(p_oracle)
    p_oracle.add_argument("--steps", default="64,128,256,512",
                          help="comma-separated step counts (default 64,128,256,512)")
    p_ex = sub.add_parser("example", help="materialize a bundled example spec")
    p_ex.add_argument("name", nargs="?", default=None)
    p_ex.add_argument("--out-dir", default=".", help="directory for the written file")
    p_ex.add_argument("--list", action="store_true", help="list available example names")
    p_ex.add_argument("--quiet", action="store_true")
    return parser


_DISPATCH = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    report = _empty_report()
    try:
        if args.command == "example":
            return cmd_example(args)
        spec = load_spec_file(args.spec, args.overrides)
        return _DISPATCH[args.command](spec, report, args)
    except (StepLimit, NumericalOverflow) as exc:
        report["status"] = "error"
        report["error"] = str(exc)
        _emit(report, args.out, args.quiet, f"{args.command}: {exc}")
        return EXIT_INPUT
    except (IndefLQError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
