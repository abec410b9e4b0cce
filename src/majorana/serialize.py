"""JSON, JSONL, and CSV forms for the public value types.

Every payload is strict JSON from one json.dumps call: floats are spelled
as Python's shortest exact repr (0.1, 0.0, -0.0), so emit/parse round trips
are bit-faithful, sign of zero included, and NaN or Infinity raises
ValueError instead of being written.  Complex numbers are [re, im] pairs.
The trajectory JSONL has no "fallback" key.  Emitters return text without a
trailing newline; parsers accept anything json.loads does and validate
shape, raising ValueError (or json.JSONDecodeError, its subclass) on
malformed input.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import HamiltonianSpec, StarTrajectory, builtin_hamiltonian, hamiltonian
from .errors import LabelMismatch
from .kings import KingResult
from .multipoles import MultipoleSpectrum, QGrid
from .stellar import (
    Constellation,
    SpherePoint,
    SpinLabel,
    SpinState,
    _as_label,
    is_infinite,
    sphere_to_stereo,
)

__all__ = [
    "emit_state",
    "parse_state",
    "emit_constellation",
    "parse_constellation",
    "emit_multipoles",
    "emit_qgrid",
    "emit_kings",
    "emit_trajectory",
    "parse_hamiltonian",
]


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _pairs(values: np.ndarray) -> list[list[float]]:
    """[re, im] pairs of a complex array, as Python floats."""
    return np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2).tolist()


def _require(obj, key: str, kind: type):
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"field {key!r} must be a number")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"field {key!r} must be an integer")
        return value
    if not isinstance(value, kind):
        raise ValueError(f"field {key!r} has the wrong type")
    return value


def _complex_item(item) -> complex:
    if isinstance(item, (int, float)) and not isinstance(item, bool):
        return complex(float(item), 0.0)
    if (
        isinstance(item, list)
        and len(item) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in item)
    ):
        return complex(float(item[0]), float(item[1]))
    raise ValueError("complex entries must be [re, im] pairs")


# -- spin states -----------------------------------------------------------------


def emit_state(state: SpinState) -> str:
    return _dumps(dict(twoS=state.label.twoS, amplitudes=_pairs(state.amplitudes)))


def parse_state(text: str) -> SpinState:
    obj = json.loads(text)
    twoS = _require(obj, "twoS", int)
    raw = _require(obj, "amplitudes", list)
    amps = [_complex_item(a) for a in raw]
    if len(amps) != twoS + 1:
        raise ValueError(f"expected {twoS + 1} amplitudes, got {len(amps)}")
    return SpinState(twoS, np.array(amps, dtype=complex))


# -- constellations -------------------------------------------------------------


def _constellation(c: Constellation) -> dict:
    return dict(twoS=c.label.twoS, roots=_pairs(c.finite_roots), infinity_count=c.infinity_count)


def emit_constellation(c: Constellation, angles: bool = False) -> str:
    if angles:
        stars = [[p.theta, p.phi] for p in c.points()]
        return _dumps(dict(twoS=c.label.twoS, stars=stars))
    return _dumps(_constellation(c))


def parse_constellation(text: str) -> Constellation:
    obj = json.loads(text)
    if isinstance(obj, dict) and "stars" in obj:
        raw = _require(obj, "stars", list)
        finite: list[complex] = []
        at_pole = 0
        for item in raw:
            if not (isinstance(item, list) and len(item) == 2):
                raise ValueError("stars entries must be [theta, phi] pairs")
            theta, phi = (float(v) for v in item)
            z = sphere_to_stereo(SpherePoint(theta, phi))
            if is_infinite(z):
                at_pole += 1
            else:
                finite.append(z)
        twoS = obj.get("twoS", len(raw))
        if isinstance(twoS, bool) or not isinstance(twoS, int):
            raise ValueError("field 'twoS' must be an integer")
        return Constellation(twoS, np.array(finite, dtype=complex), at_pole)
    twoS = _require(obj, "twoS", int)
    raw = _require(obj, "roots", list)
    roots = np.array([_complex_item(z) for z in raw], dtype=complex)
    infinity = obj.get("infinity_count", 0)
    if isinstance(infinity, bool) or not isinstance(infinity, int):
        raise ValueError("field 'infinity_count' must be an integer")
    return Constellation(twoS, roots, infinity)


# -- multipole spectra ----------------------------------------------------------


def emit_multipoles(spectrum: MultipoleSpectrum, upto: int | None = None) -> str:
    """Spectrum JSON; A is indexed so that A[M] is the order-M quantumness
    (A[0] = 0).  upto truncates every section to K, M <= upto."""
    twoS = spectrum.label.twoS
    top = twoS if upto is None else int(upto)
    if not 0 <= top <= twoS:
        raise ValueError("upto must lie in [0, 2S]")
    rho = [dict(K=k, q=q, re=v.real, im=v.imag) for k, q, v in spectrum.items() if k <= top]
    w, A = (x[: top + 1].tolist() for x in (spectrum.w, spectrum.A))
    return _dumps(dict(twoS=twoS, rho=rho, w=w, A=A))


# -- Husimi grids ----------------------------------------------------------------


def emit_qgrid(grid: QGrid) -> str:
    """CSV rows theta,phi,Q over the grid, theta outermost, each number
    the repr of its float; each angle is formatted once."""
    phis = [repr(phi) for phi in grid.phi_nodes.tolist()]
    lines = ["theta,phi,Q"]
    for theta, row in zip(grid.theta_nodes.tolist(), grid.values.tolist()):
        ts = repr(theta)
        lines.extend(f"{ts},{ps},{value!r}" for ps, value in zip(phis, row))
    return "\n".join(lines)


# -- king search results ---------------------------------------------------------


def emit_kings(result: KingResult) -> str:
    return _dumps(
        dict(
            twoS=result.label.twoS,
            M=result.M,
            objective=result.objective,
            unpolarized_order=result.unpolarized_order,
            constellation=_constellation(result.constellation),
            restarts_converged=result.restarts_converged,
        )
    )


# -- Hamiltonians -----------------------------------------------------------------


def parse_hamiltonian(text: str, label: SpinLabel | int | None = None) -> HamiltonianSpec:
    """Either an explicit matrix or a builtin name with a coupling.

    The builtin form carries no dimension of its own, so label supplies it
    (typically from the state file the Hamiltonian will act on); an explicit
    twoS field wins if both are present and must agree with label.
    """
    obj = json.loads(text)
    if isinstance(obj, dict) and "builtin" in obj:
        name = _require(obj, "builtin", str)
        coupling = _require(obj, "coupling", float) if "coupling" in obj else 1.0
        if "twoS" in obj:
            twoS = _require(obj, "twoS", int)
            if label is not None and _as_label(label).twoS != twoS:
                raise LabelMismatch("Hamiltonian twoS disagrees with the state")
        elif label is not None:
            twoS = _as_label(label).twoS
        else:
            raise ValueError("builtin Hamiltonian needs a twoS field or a label")
        return builtin_hamiltonian(twoS, name, coupling)
    twoS = _require(obj, "twoS", int)
    if label is not None and _as_label(label).twoS != twoS:
        raise LabelMismatch("Hamiltonian twoS disagrees with the state")
    raw = _require(obj, "matrix", list)
    if len(raw) != twoS + 1 or any(
        not isinstance(row, list) or len(row) != twoS + 1 for row in raw
    ):
        raise ValueError(f"matrix must be {twoS + 1}x{twoS + 1}")
    m = np.array([[_complex_item(v) for v in row] for row in raw], dtype=complex)
    return hamiltonian(twoS, m)


# -- trajectories -----------------------------------------------------------------


def emit_trajectory(traj: StarTrajectory) -> str:
    """One JSON line per snapshot: t, roots, infinity_count."""
    return "\n".join(
        _dumps(dict(t=t, roots=_pairs(s.finite_roots), infinity_count=s.infinity_count))
        for t, s in zip(traj.times, traj.snapshots)
    )
