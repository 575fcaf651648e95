"""Bundled demonstration problems, materialized by ``indeflq example``.

Six desk-scale specs: the scalar benchmark with positive and with two
indefinite control weights straddling the sharp threshold, the
vanishing-denominator ODE whose sampled version loses its continuous solution
just below the coefficient kink, a well-conditioned definite 2x2 problem for
the Monte Carlo identities, and a weight-shift demonstration with B = D = 0.
Each is written as JSON, which is also YAML and loads some 30 times faster.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["example_names", "example_doc", "example_text"]


def _scalar_benchmark_doc(r: float) -> dict:
    return {
        "dimensions": {"n": 1, "k": 1, "d": 1},
        "horizon": 1.0,
        "grid": {"points": 257, "interpolation": "piecewise-linear"},
        "coefficients": {
            "A": [[0.0]],
            "B": [[1.0]],
            "C": [[[0.0]]],
            "D": [[[1.0]]],
            "R": [[float(r)]],
            "Q": [[0.0]],
        },
        "terminal": [[1.0]],
        "certificate": {"kind": "scalar-comparison", "alpha": "optimal-constant"},
        "simulation": {
            "n_paths": 20000,
            "n_steps": 256,
            "seed": 20240504,
            "antithetic": True,
            "xi": [1.0],
        },
    }


def _blowup_doc() -> dict:
    # R(t) = (1-t)^2 below the kink at t = 1, then 1 on [1, 2].  The sampled
    # coefficient stays positive, so the trajectory P itself stays bounded;
    # the loss of a continuous solution shows up as the Riccati velocity
    # P^2/R exploding just below the kink.  The cap is set low enough that
    # the C^1 escape is detected well before floating-point trouble.
    points = 2001
    t = np.linspace(0.0, 2.0, points)
    g = np.where(t < 1.0, (1.0 - t) ** 2, 1.0)
    return {
        "dimensions": {"n": 1, "k": 1, "d": 1},
        "horizon": 2.0,
        "grid": {"points": points, "interpolation": "piecewise-linear"},
        "coefficients": {
            "A": [[0.0]],
            "B": [[1.0]],
            "C": [[[0.0]]],
            "D": [[[0.0]]],
            "R": [[[float(v)]] for v in g],
            "Q": [[0.0]],
        },
        "terminal": [[1.0]],
        "solver": {"max_norm": 1.0e5},
        "certificate": {"kind": "explicit-subsolution"},
    }


def _definite_2x2_doc() -> dict:
    return {
        "dimensions": {"n": 2, "k": 2, "d": 1},
        "horizon": 1.0,
        "grid": {"points": 129, "interpolation": "piecewise-linear"},
        "coefficients": {
            "A": [[0.0, 0.3], [-0.2, 0.1]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "C": [[[0.2, 0.0], [0.05, 0.1]]],
            "D": [[[0.1, 0.0], [0.0, 0.1]]],
            "R": [[1.0, 0.0], [0.0, 1.0]],
            "Q": [[1.0, 0.2], [0.2, 0.5]],
        },
        "terminal": [[0.5, 0.0], [0.0, 0.25]],
        "certificate": {"kind": "definite"},
        "simulation": {
            "n_paths": 20000,
            "n_steps": 512,
            "seed": 321987,
            "antithetic": True,
            "xi": [1.0, -0.5],
        },
    }


def _shift_demo_doc() -> dict:
    # B = 0 and D = 0 make the compensation condition vacuous, so any
    # symmetric K shifts the weights exactly.  K is linear in time, which
    # keeps its finite-difference derivative exact.
    points = 1025
    t = np.linspace(0.0, 1.0, points)
    K0 = np.array([[0.2, 0.05], [0.05, 0.1]])
    K1 = np.array([[0.1, 0.0], [0.0, 0.05]])
    K = K0[None, :, :] + t[:, None, None] * K1[None, :, :]
    return {
        "dimensions": {"n": 2, "k": 1, "d": 1},
        "horizon": 1.0,
        "grid": {"points": points, "interpolation": "piecewise-linear"},
        "coefficients": {
            "A": [[0.05, 0.2], [-0.1, 0.0]],
            "B": [[0.0], [0.0]],
            "C": [[[0.1, 0.05], [0.0, 0.1]]],
            "D": [[[0.0], [0.0]]],
            "R": [[1.0]],
            "Q": [[0.5, 0.0], [0.0, 0.5]],
        },
        "terminal": [[0.8, 0.1], [0.1, 0.6]],
        "solver": {"output_points": 1025},
        "certificate": {
            "kind": "shift",
            "K": [[[float(v) for v in row] for row in M] for M in K],
        },
    }


_BUILDERS = {
    "example504_r1": lambda: _scalar_benchmark_doc(1.0),
    "example504_rneg015": lambda: _scalar_benchmark_doc(-0.15),
    "example504_rneg017": lambda: _scalar_benchmark_doc(-0.17),
    "blowup_ode": _blowup_doc,
    "definite_2x2": _definite_2x2_doc,
    "shift_demo": _shift_demo_doc,
}


def example_names():
    return sorted(_BUILDERS)


def example_doc(name: str) -> dict:
    return _BUILDERS[name]()


def _json(value, indent=""):
    """JSON text with one mapping entry per line and each list on one line."""
    if not isinstance(value, dict):
        return json.dumps(value, allow_nan=False)
    inner = indent + "  "
    entries = ",\n".join(f"{inner}{json.dumps(key)}: {_json(v, inner)}"
                         for key, v in value.items())
    return "{\n" + entries + "\n" + indent + "}"


def example_text(name: str) -> str:
    return _json(example_doc(name)) + "\n"
