"""Problem-specification files and machine-readable reports.

Problem specs are YAML documents: dimensions, horizon, a uniform sample grid,
the coefficient paths (constant-matrix shorthand expands to every grid
point), the terminal weight, and optional certificate / solver / simulation
blocks.  Reports are JSON with every float printed to 17 significant digits
so values round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .core import (
    PIECEWISE_CONSTANT_LEFT,
    PIECEWISE_LINEAR,
    CoefficientPath,
    ProblemData,
)
from .errors import SpecError
from .riccati import SolverConfig
from .simulate import SimConfig

__all__ = [
    "ParsedSpec",
    "parse_spec",
    "serialize_spec",
    "load_spec_file",
    "apply_overrides",
    "dumps_report",
]

_INTERPOLATIONS = (PIECEWISE_CONSTANT_LEFT, PIECEWISE_LINEAR)
_CERT_KINDS = ("scalar-comparison", "definite", "explicit-subsolution", "shift")
# solver block keys and the type each value is cast to
_SOLVER_KEYS = {f.name: type(f.default) for f in fields(SolverConfig)}


@dataclass
class ParsedSpec:
    """A validated problem file: the data plus the optional blocks."""

    data: ProblemData
    solver: SolverConfig
    certificate: dict | None
    simulation: SimConfig | None
    xi: np.ndarray | None

    def to_doc(self) -> dict:
        """Reconstruct the plain-dict document (constant paths re-collapsed)."""
        d = self.data

        def path_doc(path: CoefficientPath):
            s = path.samples
            if np.all(s == s[0]):
                return _matrix_doc(s[0])
            return [_matrix_doc(M) for M in s]

        doc = {
            "dimensions": {"n": d.n, "k": d.k, "d": d.d},
            "horizon": float(d.T),
            "grid": {"points": int(d.grid.size), "interpolation": d.interpolation},
            "coefficients": {
                "A": path_doc(d.A),
                "B": path_doc(d.B),
                "C": [path_doc(c) for c in d.C],
                "D": [path_doc(di) for di in d.D],
                "R": path_doc(d.R),
                "Q": path_doc(d.Q),
            },
            "terminal": _matrix_doc(d.N),
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        sd = _solver_doc(self.solver)
        if sd:
            doc["solver"] = sd
        if self.simulation is not None:
            doc["simulation"] = {
                "n_paths": int(self.simulation.n_paths),
                "n_steps": int(self.simulation.n_steps),
                "seed": int(self.simulation.seed),
                "antithetic": bool(self.simulation.antithetic),
                "xi": [float(v) for v in self.xi],
            }
        return doc


def _matrix_doc(M):
    return [[float(v) for v in row] for row in np.asarray(M)]


def _solver_doc(cfg: SolverConfig) -> dict:
    default = SolverConfig()
    out = {}
    for key in _SOLVER_KEYS:
        val = getattr(cfg, key)
        if val != getattr(default, key):
            out[key] = val
    return out


def _need(doc, key, where):
    if key not in doc:
        raise SpecError(f"{where}: missing required key '{key}'")
    return doc[key]


def _as_matrix(value, rows, cols, where):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr[None, None]
    if arr.shape != (rows, cols):
        raise SpecError(f"{where}: expected a {rows}x{cols} matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SpecError(f"{where}: non-finite entries")
    return arr


def _as_path_samples(value, points, rows, cols, where):
    """Constant matrix or per-grid-point list -> (points, rows, cols) samples."""
    if not isinstance(value, (list, tuple, np.ndarray)) and not np.isscalar(value):
        raise SpecError(f"{where}: expected a matrix or a list of matrices")
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr[None, None]
    if arr.ndim == 2:
        M = _as_matrix(arr, rows, cols, where)
        return np.broadcast_to(M, (points, rows, cols)).copy()
    if arr.ndim == 3:
        if arr.shape[0] != points:
            raise SpecError(
                f"{where}: path has {arr.shape[0]} samples but the grid has {points} points"
            )
        if arr.shape[1:] != (rows, cols):
            raise SpecError(f"{where}: expected {rows}x{cols} matrices, got {arr.shape[1:]}")
        if not np.all(np.isfinite(arr)):
            raise SpecError(f"{where}: non-finite entries")
        return arr
    raise SpecError(f"{where}: unsupported nesting depth {arr.ndim}")


def parse_spec(doc: dict) -> ParsedSpec:
    """Validate a loaded YAML document and build the in-memory problem."""
    if not isinstance(doc, dict):
        raise SpecError("spec root must be a mapping")
    dims = _need(doc, "dimensions", "spec")
    try:
        n = int(_need(dims, "n", "dimensions"))
        k = int(_need(dims, "k", "dimensions"))
        d = int(_need(dims, "d", "dimensions"))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"dimensions: {exc}") from None
    if min(n, k, d) < 1:
        raise SpecError("dimensions: n, k, d must be positive integers")

    try:
        T = float(_need(doc, "horizon", "spec"))
    except (TypeError, ValueError):
        raise SpecError("horizon: must be a positive number") from None
    if not (T > 0.0 and np.isfinite(T)):
        raise SpecError("horizon: must be a positive number")

    grid_doc = _need(doc, "grid", "spec")
    points = int(_need(grid_doc, "points", "grid"))
    if points < 2:
        raise SpecError("grid.points: need at least 2 sample points")
    interpolation = grid_doc.get("interpolation", PIECEWISE_LINEAR)
    if interpolation not in _INTERPOLATIONS:
        raise SpecError(
            f"grid.interpolation: {interpolation!r} not one of {_INTERPOLATIONS}"
        )
    grid = np.linspace(0.0, T, points)

    co = _need(doc, "coefficients", "spec")
    A = _as_path_samples(_need(co, "A", "coefficients"), points, n, n, "coefficients.A")
    B = _as_path_samples(_need(co, "B", "coefficients"), points, n, k, "coefficients.B")
    C_doc = _need(co, "C", "coefficients")
    D_doc = _need(co, "D", "coefficients")
    if not isinstance(C_doc, (list, tuple)) or len(C_doc) != d:
        raise SpecError(f"coefficients.C: expected a list of d = {d} entries")
    if not isinstance(D_doc, (list, tuple)) or len(D_doc) != d:
        raise SpecError(f"coefficients.D: expected a list of d = {d} entries")
    C = [
        _as_path_samples(ci, points, n, n, f"coefficients.C[{i}]")
        for i, ci in enumerate(C_doc)
    ]
    D = [
        _as_path_samples(di, points, n, k, f"coefficients.D[{i}]")
        for i, di in enumerate(D_doc)
    ]
    R = _as_path_samples(_need(co, "R", "coefficients"), points, k, k, "coefficients.R")
    Q = _as_path_samples(_need(co, "Q", "coefficients"), points, n, n, "coefficients.Q")
    N = _as_matrix(_need(doc, "terminal", "spec"), n, n, "terminal")

    try:
        data = ProblemData(
            n=n, k=k, d=d, T=T,
            A=CoefficientPath(grid, A, interpolation),
            B=CoefficientPath(grid, B, interpolation),
            C=[CoefficientPath(grid, ci, interpolation) for ci in C],
            D=[CoefficientPath(grid, di, interpolation) for di in D],
            R=CoefficientPath(grid, R, interpolation),
            Q=CoefficientPath(grid, Q, interpolation),
            N=N,
            grid=grid,
        )
    except (ValueError, SpecError) as exc:
        raise SpecError(f"problem validation failed: {exc}") from None

    solver = SolverConfig()
    sdoc = doc.get("solver") or {}
    if not isinstance(sdoc, dict):
        raise SpecError("solver: must be a mapping")
    for key, value in sdoc.items():
        if key not in _SOLVER_KEYS:
            raise SpecError(f"solver.{key}: unknown option")
        try:
            setattr(solver, key, _SOLVER_KEYS[key](value))
        except (TypeError, ValueError):
            raise SpecError(f"solver.{key}: bad value {value!r}") from None
    try:
        solver.validate()
    except ValueError as exc:
        raise SpecError(f"solver: {exc}") from None

    certificate = doc.get("certificate")
    if certificate is not None:
        if not isinstance(certificate, dict):
            raise SpecError("certificate: must be a mapping")
        kind = _need(certificate, "kind", "certificate")
        if kind not in _CERT_KINDS:
            raise SpecError(f"certificate.kind: {kind!r} not one of {_CERT_KINDS}")

    simulation = None
    xi = None
    mdoc = doc.get("simulation")
    if mdoc is not None:
        if not isinstance(mdoc, dict):
            raise SpecError("simulation: must be a mapping")
        simulation = SimConfig(
            n_paths=int(mdoc.get("n_paths", SimConfig.n_paths)),
            n_steps=int(mdoc.get("n_steps", SimConfig.n_steps)),
            seed=int(mdoc.get("seed", 0)),
            antithetic=bool(mdoc.get("antithetic", True)),
        )
        try:
            simulation.validate()
        except ValueError as exc:
            raise SpecError(f"simulation: {exc}") from None
        xi_doc = _need(mdoc, "xi", "simulation")
        xi = np.asarray(xi_doc, dtype=float)
        if xi.shape != (n,):
            raise SpecError(f"simulation.xi: expected an {n}-vector")

    return ParsedSpec(
        data=data, solver=solver, certificate=certificate, simulation=simulation, xi=xi
    )


def serialize_spec(spec: ParsedSpec) -> str:
    return yaml.safe_dump(spec.to_doc(), sort_keys=False, default_flow_style=None)


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
# report serialization: JSON with 17-significant-digit floats


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _write_json(obj, parts, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), parts, indent, level)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj)
        if flat:
            parts.append("[")
            for i, v in enumerate(obj):
                if i:
                    parts.append(", ")
                _write_json(v, parts, indent, level)
            parts.append("]")
        else:
            parts.append("[\n")
            for i, v in enumerate(obj):
                parts.append(pad_in)
                _write_json(v, parts, indent, level + 1)
                parts.append(",\n" if i < len(obj) - 1 else "\n")
            parts.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        items = list(obj.items())
        for i, (key, v) in enumerate(items):
            parts.append(pad_in + json.dumps(str(key)) + ": ")
            _write_json(v, parts, indent, level + 1)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r} into a report")


def dumps_report(report: dict) -> str:
    parts = []
    _write_json(report, parts, 2, 0)
    parts.append("\n")
    return "".join(parts)
