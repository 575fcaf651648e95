"""Problem-specification files and machine-readable reports.

Problem specs are YAML documents: dimensions, horizon, a uniform sample grid,
the coefficient paths (each one constant matrix or one sample per grid
point, read by ``core.path_samples``), the terminal weight, and optional
certificate / solver / simulation blocks.  Every value, the certificate
block's included, is read through ``_read``, so a missing key, a value of the
wrong type and a malformed number all end in a ``SpecError`` that names the
key path; ``parse_spec`` raises nothing else.  Sizes that drive
allocation are bounded before anything is allocated.  Reports are JSON
(stdlib ``json``; floats in Python's shortest round-trip form, so values
read back exactly; non-finite floats become ``null``).
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .core import (
    PIECEWISE_CONSTANT_LEFT,
    PIECEWISE_LINEAR,
    CoefficientPath,
    ProblemData,
    path_samples,
)
from .errors import SpecError
from .riccati import SolverConfig
from .simulate import SimConfig

__all__ = [
    "ParsedSpec",
    "parse_spec",
    "load_spec_file",
    "apply_overrides",
    "dumps_report",
]

# largest coefficient grid: every path is expanded to one sample per point
MAX_GRID_POINTS = 100_000

_INTERPOLATIONS = (PIECEWISE_CONSTANT_LEFT, PIECEWISE_LINEAR)
_REQUIRED = object()


def _count(value):
    """Strict integer: no bool, no fraction, no numeric string."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError("expected an integer")
    return int(value)


def _flag(value):
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _real(value):
    """Finite float."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _floats(value):
    """Finite float array: every matrix, vector and alpha path."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entries")
    return arr


def _alpha(value):
    """A constant, a path on the problem grid, or the named schedule "optimal-constant"."""
    if isinstance(value, str):
        if value != "optimal-constant":
            raise SpecError(f"certificate.alpha: unknown schedule {value!r}")
        return value
    alpha = _floats(value)
    return float(alpha) if alpha.ndim == 0 else alpha


# certificate kinds, the keys each one reads, and each key's cast and default;
# checks that need the problem (alpha range, witness shapes, T = 1 for the
# named schedule) are the certifier's
_CERT_KEYS = {
    "scalar-comparison": {"alpha": (_alpha, _REQUIRED)},
    "definite": {},
    "explicit-subsolution": {"tol": (_real, 1e-9), "F": (_floats, None), "dF": (_floats, None)},
    "shift": {"K": (_floats, _REQUIRED), "tol": (_real, 1e-8)},
}

# solver block keys and the cast each value goes through
_SOLVER_KEYS = {
    f.name: _count if isinstance(f.default, int) else _real for f in fields(SolverConfig)
}


def _read(doc, key, where, cast=None, default=_REQUIRED):
    """The value of ``doc[key]`` passed through ``cast``; a null value counts as absent.

    ``where`` is the key path of ``doc`` ("" at the root).  A parent that is
    not a mapping, a missing required key and a failed cast each raise a
    SpecError naming the path.
    """
    if not isinstance(doc, dict):
        raise SpecError(f"{where}: must be a mapping")
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise SpecError(f"{where or 'spec'}: missing required key '{key}'")
        return default
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(
            f"{_key_path(where, key)}: bad value {reprlib.repr(value)} ({exc})"
        ) from None


def _key_path(where, key):
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else str(key)


@dataclass
class ParsedSpec:
    """A validated problem file: the data plus the optional blocks."""

    data: ProblemData
    solver: SolverConfig
    certificate: dict | None  # kind plus that kind's keys, cast (see _CERT_KEYS)
    simulation: SimConfig | None
    xi: np.ndarray | None



def _channels(co, key, d):
    """The d per-noise-channel values of C or D, keyed by their key paths."""
    entries = _read(co, key, "coefficients")
    if not isinstance(entries, (list, tuple)) or len(entries) != d:
        raise SpecError(f"coefficients.{key}: expected a list of d = {d} entries")
    # entries read like mapping values, keyed by position
    by_index = dict(enumerate(entries))
    where = f"coefficients.{key}"
    return {_key_path(where, i): _read(by_index, i, where, _floats) for i in range(d)}


def parse_spec(doc: dict) -> ParsedSpec:
    """Validate a loaded YAML document and build the in-memory problem."""
    if not isinstance(doc, dict):
        raise SpecError("spec root must be a mapping")
    dims = _read(doc, "dimensions", "")
    n, k, d = (_read(dims, key, "dimensions", _count) for key in ("n", "k", "d"))
    if min(n, k, d) < 1:
        raise SpecError("dimensions: n, k, d must be positive integers")
    T = _read(doc, "horizon", "", _real)
    if not T > 0.0:
        raise SpecError("horizon: must be a positive number")

    grid_doc = _read(doc, "grid", "")
    points = _read(grid_doc, "points", "grid", _count)
    if not 2 <= points <= MAX_GRID_POINTS:
        raise SpecError(f"grid.points: need 2 to {MAX_GRID_POINTS} sample points")
    interpolation = _read(grid_doc, "interpolation", "grid", default=PIECEWISE_LINEAR)
    if interpolation not in _INTERPOLATIONS:
        raise SpecError(
            f"grid.interpolation: {interpolation!r} not one of {_INTERPOLATIONS}"
        )
    grid = np.linspace(0.0, T, points)

    co = _read(doc, "coefficients", "")
    shapes = {"A": (n, n), "B": (n, k), "R": (k, k), "Q": (n, n)}
    values = {key: _read(co, key, "coefficients", _floats) for key in shapes}
    C = _channels(co, "C", d)
    D = _channels(co, "D", d)
    N = _read(doc, "terminal", "", _floats)

    sdoc = _read(doc, "solver", "", default={})
    solver = SolverConfig(**{key: _read(sdoc, key, "solver", cast, getattr(SolverConfig, key))
                             for key, cast in _SOLVER_KEYS.items()})
    unknown = sdoc.keys() - _SOLVER_KEYS.keys()
    if unknown:
        raise SpecError(f"solver: unknown options {sorted(map(str, unknown))}")

    certificate = _read(doc, "certificate", "", default=None)
    if certificate is not None:
        kind = _read(certificate, "kind", "certificate")
        if not isinstance(kind, str) or kind not in _CERT_KEYS:
            raise SpecError(f"certificate.kind: {kind!r} not one of {tuple(_CERT_KEYS)}")
        certificate = {"kind": kind, **{
            key: _read(certificate, key, "certificate", cast, default)
            for key, (cast, default) in _CERT_KEYS[kind].items()}}

    simulation = xi = None
    mdoc = _read(doc, "simulation", "", default=None)
    if mdoc is not None:
        simulation = SimConfig(
            n_paths=_read(mdoc, "n_paths", "simulation", _count, SimConfig.n_paths),
            n_steps=_read(mdoc, "n_steps", "simulation", _count, SimConfig.n_steps),
            seed=_read(mdoc, "seed", "simulation", _count, 0),
            antithetic=_read(mdoc, "antithetic", "simulation", _flag, True),
        )
        xi = _read(mdoc, "xi", "simulation", _floats)
        if xi.shape != (n,):
            raise SpecError(f"simulation.xi: expected an {n}-vector")

    # the library's own checks (path shapes named by key path, symmetric
    # weights, solver and sample sizes)
    try:
        solver.validate()
        if simulation is not None:
            simulation.validate()

        def path(value, name, shape):
            return CoefficientPath(grid, path_samples(value, points, shape, name), interpolation)

        data = ProblemData(
            n=n, k=k, d=d, T=T, N=N, grid=grid,
            C=[path(value, name, (n, n)) for name, value in C.items()],
            D=[path(value, name, (n, k)) for name, value in D.items()],
            **{key: path(values[key], f"coefficients.{key}", shape)
               for key, shape in shapes.items()},
        )
    except ValueError as exc:
        raise SpecError(f"problem validation failed: {exc}") from None

    return ParsedSpec(
        data=data, solver=solver, certificate=certificate, simulation=simulation, xi=xi
    )


def load_spec_file(path, overrides=()) -> ParsedSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from None
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SpecError(f"{path}: YAML parse error: {exc}") from None
    if overrides:
        doc = apply_overrides(doc, overrides)
    return parse_spec(doc)


def apply_overrides(doc: dict, overrides) -> dict:
    """Patch the document with repeatable ``key.path=value`` settings."""
    if not isinstance(doc, dict):
        raise SpecError("cannot apply overrides: spec root must be a mapping")
    for item in overrides:
        if "=" not in item:
            raise SpecError(f"override {item!r}: expected key.path=value")
        key_path, raw = item.split("=", 1)
        keys = [p for p in key_path.strip().split(".") if p]
        if not keys:
            raise SpecError(f"override {item!r}: empty key path")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            value = raw
        node = doc
        for part in keys[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = {}
                node[part] = nxt
            if not isinstance(nxt, dict):
                raise SpecError(f"override {item!r}: {part} is not a mapping")
            node = nxt
        node[keys[-1]] = value
    return doc


# ---------------------------------------------------------------------------
# report serialization: stdlib json over plain Python values


def _plain(obj):
    """Plain JSON types: arrays to lists, numpy scalars to Python, non-finite to None."""
    if isinstance(obj, float):  # numpy float64 included
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _plain(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.generic):
        return _plain(obj.item())
    return obj


def dumps_report(report: dict) -> str:
    return json.dumps(_plain(report), indent=2) + "\n"
