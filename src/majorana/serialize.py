"""JSON, JSONL, and CSV forms for the public value types.

Every payload is strict JSON from one json.dumps call: floats are spelled
as Python's shortest exact repr (0.1, 0.0, -0.0), so emit/parse round trips
are bit-faithful, sign of zero included, and NaN or Infinity raises
ValueError instead of being written.  Complex numbers are [re, im] pairs.
Emitters return text without a trailing newline.  Parsers read each number
by one rule, a JSON number that is not a bool, and leave non-finite values
(1e999 reads as inf) and wrong shapes to the value types to reject;
malformed input raises ValueError (or json.JSONDecodeError, its subclass).
"""

from __future__ import annotations

import cmath
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
    _is_integer,
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


_KINDS = {int: "an integer", list: "a list", str: "a string"}


def _float(value, what: str) -> float:
    """The one number rule: a JSON number that is not a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise ValueError(f"{what} is out of the float range") from None


def _require(obj, key: str, kind: type, default=None):
    """obj[key] as kind (float: a number, as a float); a missing key gives
    default, or raises when default is None."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    if key not in obj:
        if default is None:
            raise ValueError(f"missing field {key!r}")
        return default
    value = obj[key]
    if kind is float:
        return _float(value, f"field {key!r}")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"field {key!r} must be {_KINDS[kind]}")
    return value


def _pair(item, names: str) -> list[float]:
    """A two-number list, such as [re, im] or [theta, phi]."""
    if not (isinstance(item, list) and len(item) == 2):
        raise ValueError(f"entries must be [{names}] pairs")
    return [_float(v, f"a [{names}] entry") for v in item]


def _complex_item(item) -> complex:
    """A number, or an [re, im] pair."""
    if isinstance(item, list):
        return complex(*_pair(item, "re, im"))
    return complex(_float(item, "a complex entry"), 0.0)


# -- spin states -----------------------------------------------------------------


def emit_state(state: SpinState) -> str:
    return _dumps(dict(twoS=state.label.twoS, amplitudes=_pairs(state.amplitudes)))


def parse_state(text: str) -> SpinState:
    obj = json.loads(text)
    twoS = _require(obj, "twoS", int)
    amps = [_complex_item(a) for a in _require(obj, "amplitudes", list)]
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
        z = [sphere_to_stereo(SpherePoint(*_pair(item, "theta, phi"))) for item in raw]
        finite = [w for w in z if cmath.isfinite(w)]
        twoS = _require(obj, "twoS", int, len(raw))
        return Constellation(twoS, np.array(finite, dtype=complex), len(z) - len(finite))
    twoS = _require(obj, "twoS", int)
    roots = np.array([_complex_item(w) for w in _require(obj, "roots", list)], dtype=complex)
    return Constellation(twoS, roots, _require(obj, "infinity_count", int, 0))


# -- multipole spectra ----------------------------------------------------------


def emit_multipoles(spectrum: MultipoleSpectrum, upto: int | None = None) -> str:
    """Spectrum JSON; A is indexed so that A[M] is the order-M quantumness
    (A[0] = 0).  upto truncates every section to K, M <= upto."""
    twoS = spectrum.label.twoS
    top = twoS if upto is None else upto
    if not (_is_integer(top) and 0 <= top <= twoS):
        raise ValueError(f"upto={upto!r} is not an integer or lies outside 0..{twoS}")
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
    builtin = isinstance(obj, dict) and "builtin" in obj
    given = None if label is None else _as_label(label).twoS
    twoS = _require(obj, "twoS", int, given if builtin else None)
    if given is not None and given != twoS:
        raise LabelMismatch("Hamiltonian twoS disagrees with the state")
    if builtin:
        name = _require(obj, "builtin", str)
        return builtin_hamiltonian(twoS, name, _require(obj, "coupling", float, 1.0))
    rows = _require(obj, "matrix", list)
    if not all(isinstance(row, list) for row in rows):
        raise ValueError(f"matrix must be {twoS + 1}x{twoS + 1}")
    m = np.array([[_complex_item(v) for v in row] for row in rows], dtype=complex)
    return hamiltonian(twoS, m)


# -- trajectories -----------------------------------------------------------------


def emit_trajectory(traj: StarTrajectory) -> str:
    """One JSON line per snapshot: t, roots, infinity_count."""
    return "\n".join(
        _dumps(dict(t=t, roots=_pairs(s.finite_roots), infinity_count=s.infinity_count))
        for t, s in zip(traj.times, traj.snapshots)
    )
