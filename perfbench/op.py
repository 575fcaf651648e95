"""One benchmark operation in a fresh interpreter.

Started by perfbench/run.py as ``python3 perfbench/op.py '<op json>'`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  It imports ``indeflq.cli``
the way the ``indeflq`` console script does, reports when that import is
done (the parent turns it into set-up time), runs the operation once and
prints one JSON line on stdout:

    {"t_ready": ..., "latency_s": ..., "exit": ..., "maxrss_kb": ...,
     "result": {...}, "spans": [...]}

Operation kinds:

- ``cli``: ``indeflq.cli.main(argv)``; the report goes to the ``--out`` path
  inside argv and the parent checks it.
- ``fundamental_pair``: load a spec, solve it, and run
  ``fundamental_pair_check`` on the closed-loop gain (no CLI command does).
- ``speedup_2w``: ``completing_square_report`` with one and with two workers
  on the same spec and seed (traced runs only).
- ``import``: nothing after the import; with ``-X importtime`` it attributes
  set-up time to packages.

With ``"trace": true`` the public layer functions that ``indeflq.cli`` calls
are wrapped to record spans (name, start, end, parent, op id) in memory; the
spans are printed with the result.  The library itself is not changed.
"""

import sys
import time

import indeflq.cli as cli  # set-up ends when this import returns

T_READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


class Tracer:
    """In-memory span recorder around module-level functions."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self._stack = []

    def span(self, name, fn, attrs=None):
        """Call ``fn()`` inside a span; ``attrs(result)`` adds counts from the result."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = {"name": name, "parent": parent, "op": self.op_id}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            result = fn()
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            record.update(attrs(result))
        return result

    def wrap(self, modules, attr, name, attrs=None):
        """Replace ``attr`` in every module that binds it with one traced wrapper."""
        original = getattr(modules[0], attr)

        def traced(*args, **kwargs):
            return self.span(
                name,
                lambda: original(*args, **kwargs),
                None if attrs is None else (lambda res: attrs(args, res)),
            )

        for module in modules:
            setattr(module, attr, traced)


def _solve_attrs(args, sol):
    return {"accepted": sol.accepted_steps, "rejected": sol.rejected_steps,
            "status": sol.status}


# The argument positions are those of the calls in indeflq.cli and in this file.
def _cs_attrs(args, rep):
    return {"path_steps": rep.n_paths * args[4].n_steps}


def _fp_attrs(args, defect):
    config = args[2]
    paths = config.n_paths * (2 if config.antithetic else 1)
    return {"path_steps": paths * config.n_steps}


def _dp_attrs(args, res):
    return {"dp_steps": int(args[1])}


def _load_attrs(args, spec):
    return {"bytes": os.path.getsize(args[0])}


def install_tracer(tracer):
    from indeflq import certificates, oracle, riccati, simulate, specio

    tracer.wrap([cli, specio], "load_spec_file", "specio.load", _load_attrs)
    tracer.wrap([cli, specio], "dumps_report", "specio.report")
    tracer.wrap([cli, riccati], "solve_riccati", "riccati.solve", _solve_attrs)
    tracer.wrap([cli, certificates], "constant_threshold_alpha_schedule",
                "certificates.alpha_schedule")
    tracer.wrap([cli, certificates], "certify_scalar_comparison",
                "certificates.scalar_comparison")
    tracer.wrap([cli, certificates], "certify_definite_regime", "certificates.definite")
    tracer.wrap([cli, certificates], "check_subsolution", "certificates.subsolution")
    tracer.wrap([cli, certificates], "apply_shift", "certificates.shift")
    tracer.wrap([cli, simulate], "completing_square_report", "simulate.cs_report",
                _cs_attrs)
    tracer.wrap([simulate], "fundamental_pair_check", "simulate.fundamental_pair",
                _fp_attrs)
    tracer.wrap([cli, oracle], "dp_solve", "oracle.dp_solve", _dp_attrs)


def _solved_spec(path):
    from indeflq import riccati, specio

    spec = specio.load_spec_file(path)
    return spec, riccati.solve_riccati(spec.data, spec.solver)


def run_fundamental_pair(op):
    from indeflq import simulate

    spec, sol = _solved_spec(op["spec"])
    gain = simulate.ControlPolicy.from_solution(sol).gain
    config = simulate.SimConfig(op["n_paths"], op["n_steps"], seed=op["seed"])
    return 0, {"defect": simulate.fundamental_pair_check(spec.data, gain, config)}


def run_speedup_2w(op):
    from indeflq import simulate

    spec, sol = _solved_spec(op["spec"])
    policy = simulate.ControlPolicy.from_solution(sol)
    config = spec.simulation
    config.seed = op["seed"]
    seconds = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        simulate.completing_square_report(spec.data, sol, policy, spec.xi, config,
                                          n_workers=workers)
        seconds[workers] = time.perf_counter() - t0
    return 0, {"seconds_1w": seconds[1], "seconds_2w": seconds[2]}


def main():
    op = json.loads(sys.argv[1])
    tracer = Tracer(op["id"])
    if op["trace"]:
        install_tracer(tracer)
        span = tracer.span
    else:
        def span(name, fn):
            return fn()
    kind = op["kind"]
    result = None
    t0 = time.perf_counter()
    if kind == "cli":
        code = span("cli.main", lambda: cli.main(op["argv"]))
    elif kind == "fundamental_pair":
        code, result = span("lib.op", lambda: run_fundamental_pair(op))
    elif kind == "speedup_2w":
        code, result = run_speedup_2w(op)
    elif kind == "import":
        code = 0
    else:
        raise SystemExit(f"unknown op kind {kind!r}")
    latency = time.perf_counter() - t0
    print(json.dumps({
        "t_ready": T_READY,
        "latency_s": latency,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": cli.__file__,
        "result": result,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
