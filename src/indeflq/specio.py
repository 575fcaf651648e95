"""Problem-specification files and machine-readable reports.

Problem specs are JSON or YAML documents: dimensions, horizon, a uniform
sample grid, the coefficient paths (each one constant matrix or one sample
per grid point, read by ``core.path_samples``), the terminal weight, and
optional certificate / solver / simulation blocks.  Text that is JSON is read
by ``json.loads``, and only other text by PyYAML, imported then, in one pass;
nesting past the recursion limit is refused either way.  Every value, the
certificate block's included, is read through ``_read``, so a missing key, a
value of the wrong type and a malformed number all end in a ``SpecError``
that names the key path; so does a key that its mapping does not read
(``_known``), and ``parse_spec`` raises nothing else.  Sizes that drive
allocation are bounded before anything is allocated.  Reports are JSON
(stdlib ``json``; floats in Python's shortest round-trip form, so values
read back exactly; non-finite floats become ``null``).
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    MAX_TABLE_ENTRIES,
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
    "check_table_size",
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
    """A constant, a path on the problem grid, or the named schedule "optimal-constant".

    Any other string is a number where ``float`` reads one (YAML 1.1 reads
    ``1e-05`` as a string), as in ``_real`` and ``_floats``.
    """
    if isinstance(value, str):
        if value == "optimal-constant":
            return value
        try:
            value = float(value)
        except ValueError:
            raise SpecError(f"certificate.alpha: unknown schedule {value!r}") from None
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


def _known(doc, where, keys):
    """SpecError unless every key of the mapping ``doc`` is one of ``keys``."""
    unknown = doc.keys() - set(keys)
    if unknown:
        raise SpecError(f"{where or 'spec'}: unknown keys {sorted(map(str, unknown))}")


def _config(doc, where, config, extra=()):
    """``config`` from block ``doc``: each field cast by its default's type, else that default."""
    casts = {f.name: _flag if isinstance(f.default, bool) else
             _count if isinstance(f.default, int) else _real for f in fields(config)}
    values = {key: _read(doc, key, where, cast, getattr(config, key))
              for key, cast in casts.items()}
    _known(doc, where, (*casts, *extra))
    return config(**values)


def check_table_size(where, rows, row_name, n, k, d):
    """SpecError unless ``rows`` rows of the coefficients fit in MAX_TABLE_ENTRIES.

    Checked before the table is built: the coefficient grid, the Monte Carlo
    step tables and the DP oracle's step tables each hold A, B, C, D, R and Q
    (or a fixed multiple of them) at every row.
    """
    entries = n * n * (2 + d) + n * k * (1 + d) + k * k
    if rows * entries > MAX_TABLE_ENTRIES:
        raise SpecError(f"{where}: {rows} {row_name}s x {entries} entries per {row_name} "
                        f"(n = {n}, k = {k}, d = {d}) exceed {MAX_TABLE_ENTRIES:.0e}")


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
    """Validate a loaded spec document (JSON or YAML) and build the in-memory problem.

    ``doc`` is plain Python values as ``json`` or ``yaml`` load them; where the
    two read a scalar differently (YAML 1.1 reads ``1e-05`` as a string) the
    casts read both alike.
    """
    if not isinstance(doc, dict):
        raise SpecError("spec root must be a mapping")
    _known(doc, "", ("dimensions", "horizon", "grid", "coefficients", "terminal",
                     "solver", "certificate", "simulation"))
    dims = _read(doc, "dimensions", "")
    n, k, d = (_read(dims, key, "dimensions", _count) for key in ("n", "k", "d"))
    _known(dims, "dimensions", ("n", "k", "d"))
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
    _known(grid_doc, "grid", ("points", "interpolation"))
    check_table_size("coefficients", points, "grid point", n, k, d)
    grid = np.linspace(0.0, T, points)

    co = _read(doc, "coefficients", "")
    shapes = {"A": (n, n), "B": (n, k), "R": (k, k), "Q": (n, n)}
    values = {key: _read(co, key, "coefficients", _floats) for key in shapes}
    C = _channels(co, "C", d)
    D = _channels(co, "D", d)
    _known(co, "coefficients", (*shapes, "C", "D"))
    N = _read(doc, "terminal", "", _floats)

    solver = _config(_read(doc, "solver", "", default={}), "solver", SolverConfig)

    certificate = cdoc = _read(doc, "certificate", "", default=None)
    if cdoc is not None:
        kind = _read(cdoc, "kind", "certificate")
        if not isinstance(kind, str) or kind not in _CERT_KEYS:
            raise SpecError(f"certificate.kind: {kind!r} not one of {tuple(_CERT_KEYS)}")
        certificate = {"kind": kind, **{
            key: _read(cdoc, key, "certificate", cast, default)
            for key, (cast, default) in _CERT_KEYS[kind].items()}}
        _known(cdoc, "certificate", certificate)

    simulation = xi = None
    mdoc = _read(doc, "simulation", "", default=None)
    if mdoc is not None:
        simulation = _config(mdoc, "simulation", SimConfig, extra=("xi",))
        xi = _read(mdoc, "xi", "simulation", _floats)
        if xi.shape != (n,):
            raise SpecError(f"simulation.xi: expected an {n}-vector")

    # the library's own checks (path shapes named by key path, symmetric
    # weights, solver and sample sizes)
    try:
        solver.validate()
        if simulation is not None:
            simulation.validate()
            check_table_size("simulation.n_steps", simulation.n_steps, "Euler step", n, k, d)

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


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


@functools.cache
def _python_composer(loader):
    """``loader`` under PyYAML's Python composer, which raises RecursionError on
    runaway nesting as ``json.loads`` does; libyaml's crashes the interpreter."""
    from yaml.composer import Composer

    class Loader(Composer, loader):
        def __init__(self, stream):
            loader.__init__(self, stream)
            Composer.__init__(self)

    return Loader


def _load_text(text, where):
    """The document in ``text``: ``json.loads`` where the text is JSON, else YAML.

    JSON is a subset of YAML and loads some 30 times faster.  NaN and Infinity
    are not JSON; YAML reads them as strings, which the casts refuse by key.
    Nesting too deep to read and text that neither reads raise SpecError,
    prefixed with ``where``.
    """
    try:
        try:
            return json.loads(text, parse_constant=_not_json)
        except ValueError:
            pass  # not JSON
        import yaml  # about 27 ms, paid only for text that is not JSON

        # libyaml's scanner and parser where PyYAML was built with it
        has_libyaml = hasattr(yaml, "CSafeLoader")
        loader = _python_composer(yaml.CSafeLoader) if has_libyaml else yaml.SafeLoader
        try:
            return yaml.load(text, Loader=loader)
        except yaml.YAMLError as exc:
            raise SpecError(f"{where}: YAML parse error: {exc}") from None
    except RecursionError:
        raise SpecError(f"{where}: nested too deeply to read") from None


def load_spec_file(path, overrides=()) -> ParsedSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from None
    doc = _load_text(text, path)
    if overrides:
        doc = apply_overrides(doc, overrides)
    return parse_spec(doc)


def apply_overrides(doc: dict, overrides) -> dict:
    """Patch the document with repeatable ``key.path=value`` settings.

    Each value is read like a spec text (``_load_text``).
    """
    if not isinstance(doc, dict):
        raise SpecError("cannot apply overrides: spec root must be a mapping")
    for item in overrides:
        if "=" not in item:
            raise SpecError(f"override {item!r}: expected key.path=value")
        key_path, raw = item.split("=", 1)
        keys = [p for p in key_path.strip().split(".") if p]
        if not keys:
            raise SpecError(f"override {item!r}: empty key path")
        value = _load_text(raw, f"override {key_path}")
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
