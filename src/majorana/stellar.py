"""Spin states, their root polynomials, and star constellations.

A pure spin-S state with amplitudes psi_k (k = S + m, ascending m) defines
the polynomial

    f(z) = sum_k sqrt(C(2S, k)) psi_k z**k,

whose root multiset on the Riemann sphere determines the state up to global
phase.  Degree deficiency counts as roots at infinity; under the chart used
here (z = tan(theta/2) exp(-i phi)) infinity is the theta = pi pole.  All
conversions in this module are exact in that correspondence; the only
numerics are the root solver and the rule that puts a root within about
its tolerance of a pole onto that pole.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LabelMismatch, NonConvergence
from .rootfinding import (
    TOL,
    _EPS,
    _powers,
    _root_coefficients,
    find_roots_batch,
    residual_ratios,
)

__all__ = [
    "SpinLabel",
    "SpinState",
    "Constellation",
    "SpherePoint",
    "INFINITY",
    "spin_matrices",
    "basis_state",
    "coherent_state",
    "noon_state",
    "overlap",
    "rotate",
    "stellar_polynomial",
    "constellation_from_state",
    "constellations_from_states",
    "state_from_constellation",
    "stereo_to_sphere",
    "sphere_to_stereo",
    "chordal_distance",
]

#: Stereographic image of the theta = pi pole.
INFINITY = complex(math.inf, 0.0)


def _is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, order=True)
class SpinLabel:
    """Spin quantum number, stored as the integer 2S."""

    twoS: int

    def __post_init__(self) -> None:
        if not _is_integer(self.twoS) or self.twoS < 0:
            raise ValueError(f"twoS must be a nonnegative integer, got {self.twoS!r}")
        object.__setattr__(self, "twoS", int(self.twoS))

    @property
    def S(self) -> float:
        return self.twoS / 2.0

    @property
    def dim(self) -> int:
        return self.twoS + 1


def _as_label(label: SpinLabel | int) -> SpinLabel:
    return label if isinstance(label, SpinLabel) else SpinLabel(label)


def _require_same_label(a: SpinLabel, b: SpinLabel) -> None:
    if a != b:
        raise LabelMismatch(f"spin labels differ: 2S={a.twoS} vs 2S={b.twoS}")


@dataclass(frozen=True, eq=False)
class SpinState:
    """Normalized pure state; amplitudes[k] is psi_{m=k-S}."""

    label: SpinLabel
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        label = _as_label(self.label)
        amps = np.array(self.amplitudes, dtype=complex)  # a copy: the caller keeps theirs
        if amps.shape != (label.dim,):
            raise ValueError(
                f"expected {label.dim} amplitudes for 2S={label.twoS}, "
                f"got shape {amps.shape}"
            )
        peak = float(np.abs(amps).max())  # not finite if an amplitude or its modulus is not
        if not math.isfinite(peak):
            raise ValueError("amplitudes must be finite")
        if peak == 0.0:
            raise ValueError("state vector must be nonzero")
        # Pre-scaling keeps the norm square inside the float range even for
        # raw Vieta coefficients of huge or tiny roots.
        scaled = amps / peak
        norm = float(np.linalg.norm(scaled))
        if abs(peak * norm - 1.0) > 32.0 * _EPS:
            amps = scaled / norm
        # else: already unit norm; dividing again would only add rounding noise
        amps.flags.writeable = False
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "amplitudes", amps)

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class Constellation:
    """Multiset of 2S stars: finite stereographic roots plus a count at the
    theta = pi pole (polynomial degree deficiency)."""

    label: SpinLabel
    finite_roots: np.ndarray
    infinity_count: int = 0

    def __post_init__(self) -> None:
        label = _as_label(self.label)
        roots = np.asarray(self.finite_roots, dtype=complex).reshape(-1)
        if not np.isfinite(roots).all():
            raise ValueError("finite_roots must be finite; use infinity_count")
        if not _is_integer(self.infinity_count) or self.infinity_count < 0:
            raise ValueError(
                f"infinity_count must be a nonnegative integer, got {self.infinity_count!r}"
            )
        if len(roots) + self.infinity_count != label.twoS:
            raise ValueError(
                f"need exactly 2S={label.twoS} stars, got {len(roots)} finite "
                f"+ {self.infinity_count} at infinity"
            )
        roots = roots[np.lexsort((roots.imag, roots.real))]
        roots.flags.writeable = False
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "finite_roots", roots)
        object.__setattr__(self, "infinity_count", int(self.infinity_count))

    def points(self) -> list[SpherePoint]:
        """All 2S stars as sphere angles, infinity stars last."""
        return [stereo_to_sphere(z) for z in _stars(self)]


def _stars(c: Constellation) -> np.ndarray:
    """All 2S stars of c as stereographic points: the finite roots, then
    INFINITY once per star at the theta = pi pole."""
    return np.append(c.finite_roots, [INFINITY] * c.infinity_count)


@dataclass(frozen=True)
class SpherePoint:
    """Polar angles: theta in [0, pi], phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not (-1e-12 <= self.theta <= math.pi + 1e-12):
            raise ValueError(f"theta out of [0, pi]: {self.theta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite: {self.phi}")
        theta = min(max(self.theta, 0.0), math.pi)
        phi = float(self.phi) % (2.0 * math.pi)
        object.__setattr__(self, "theta", theta)
        # A tiny negative phi wraps to a value that rounds to 2 pi.
        object.__setattr__(self, "phi", 0.0 if phi == 2.0 * math.pi else phi)


# -- chart -------------------------------------------------------------------


def stereo_to_sphere(z: complex) -> SpherePoint:
    z = complex(z)
    if cmath.isinf(z):
        return SpherePoint(math.pi, 0.0)
    if cmath.isnan(z):
        raise ValueError("z is nan, which is no point on the sphere")
    try:
        r = abs(z)
    except OverflowError:  # a finite z whose modulus is past the largest float
        r = math.inf
    theta = 2.0 * math.atan(r)
    phi = -cmath.phase(z) if z != 0 else 0.0
    return SpherePoint(theta, phi)


def sphere_to_stereo(p: SpherePoint) -> complex:
    if p.theta == math.pi:
        return INFINITY
    return math.tan(p.theta / 2.0) * cmath.exp(-1j * p.phi)


def _spinors(z) -> tuple[np.ndarray, np.ndarray]:
    """The unit spinor pair (u, v) = (1, z) / sqrt(1 + |z|^2) of each point
    z, so that z = v / u, taken as (1/s, z/s) / hypot(1/s, |z/s|): hypot
    neither overflows nor underflows, and s = 2**512, an exact power of two,
    where |z| itself overflows, else 1.  Any infinite z (a part is
    infinite, as cmath.isinf reads it) is the theta = pi pole, (0, 1); any
    other nan raises ValueError."""
    z = np.asarray(z, dtype=complex)
    pole = np.isinf(z)
    if (np.isnan(z) & ~pole).any():
        raise ValueError("z is nan, which is no point on the sphere")
    z = np.where(pole, 0.0, z)
    s = np.where(np.isinf(np.abs(z)), 2.0**512, 1.0)
    z = z / s
    norm = np.hypot(1.0 / s, np.abs(z))
    return np.where(pole, 0.0, 1.0 / s / norm), np.where(pole, 1.0, z / norm)


def _turned(matrix: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The points of unit spinor pairs (u, v) (see _spinors) turned by the
    2 x 2 matrix: (u, v) -> matrix @ (u, v), read back as v / u.  A point
    that lands on the pole, or so near it that v / u is not finite, is
    INFINITY; the pole itself, (0, 1), needs no special case."""
    (a, b), (c, d) = matrix
    u, v = a * u + b * v, c * u + d * v
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = v / u
    return np.where(np.isfinite(w), w, INFINITY)


def _chord_matrix(a, b) -> np.ndarray:
    """chordal_distance between every point of a and every point of b,
    2 |u_a v_b - v_a u_b| over their unit spinor pairs."""
    ua, va = _spinors(a)
    ub, vb = _spinors(b)
    det = ua[:, None] * vb[None, :] - va[:, None] * ub[None, :]
    return np.minimum(2.0 * np.abs(det), 2.0)


def chordal_distance(a: complex, b: complex) -> float:
    """Euclidean distance of the two points embedded on the unit sphere.

    Ranges over [0, 2]; either argument may be the point at infinity, and
    no point, however far, overflows.  Equal points, the pole included,
    are exactly 0 apart.
    """
    return float(_chord_matrix([a], [b])[0, 0])


# -- operators ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _binom_sqrt(twoS: int) -> np.ndarray:
    out = np.array([math.sqrt(math.comb(twoS, k)) for k in range(twoS + 1)])
    out.flags.writeable = False
    return out


def _hermitian_scale(m: np.ndarray, tol: float, noun: str) -> float:
    """max(1, max |m_ij|) of the square matrix m, refused unless its entries are
    finite and it is Hermitian within tol times that, tested in halves."""
    peak = float(np.abs(m).max())  # not finite if an entry or its modulus is not
    if not math.isfinite(peak):
        raise ValueError(f"{noun} entries must be finite")
    scale = max(1.0, peak)
    half = 0.5 * m
    if float(np.abs(half - half.conj().T).max()) > 0.5 * tol * scale:
        raise ValueError(f"{noun} must be Hermitian")
    return scale


@lru_cache(maxsize=None)
def spin_matrices(twoS: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) in the amplitude ordering used by SpinState."""
    d = twoS + 1
    m = (np.arange(d) - twoS / 2.0).astype(float)
    raise_amp = np.sqrt((twoS / 2.0 - m[:-1]) * (twoS / 2.0 + m[:-1] + 1.0))
    sp = np.zeros((d, d), dtype=complex)
    sp[np.arange(1, d), np.arange(d - 1)] = raise_amp
    sx = (sp + sp.conj().T) / 2.0
    sy = (sp - sp.conj().T) / 2j
    sz = np.diag(m).astype(complex)
    for a in (sx, sy, sz):
        a.flags.writeable = False
    return sx, sy, sz


def basis_state(label: SpinLabel | int, two_m: int) -> SpinState:
    """The eigenstate |S, m> given as the integer 2m."""
    label = _as_label(label)
    if not _is_integer(two_m):
        raise ValueError(f"two_m must be an integer, got {two_m!r}")
    if (two_m + label.twoS) % 2 != 0 or abs(two_m) > label.twoS:
        raise ValueError(f"2m={two_m} invalid for 2S={label.twoS}")
    amps = np.zeros(label.dim, dtype=complex)
    amps[(two_m + label.twoS) // 2] = 1.0
    return SpinState(label, amps)


def coherent_state(label: SpinLabel | int, z0: complex) -> SpinState:
    """State whose overlap magnitude peaks at stereographic point z0.

    With (u, v) the unit spinor pair of z0, psi_k = sqrt(C(2S, k))
    u**(2S - k) v**k: any infinite z0 gives the theta = pi pole state
    |S, S>, z0 = 0 gives |S, -S>, a nan raises ValueError, and no |z0|
    overflows.
    """
    label = _as_label(label)
    twoS = label.twoS
    u, v = _spinors(z0)
    return SpinState(label, _binom_sqrt(twoS) * _powers(u, twoS)[::-1] * _powers(v, twoS))


def noon_state(label: SpinLabel | int) -> SpinState:
    """Equal superposition of the two polar basis states whose stars form a
    regular 2S-gon on the equator."""
    label = _as_label(label)
    if label.twoS < 1:
        raise ValueError("need 2S >= 1")
    amps = np.zeros(label.dim, dtype=complex)
    amps[0] = -1.0
    amps[-1] = 1.0
    return SpinState(label, amps)


def overlap(a: SpinState, b: SpinState) -> complex:
    """Inner product <a|b>."""
    _require_same_label(a.label, b.label)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def rotate(state: SpinState, theta: float, phi: float) -> SpinState:
    """Rigid rotation of the constellation.

    rotate(basis_state(label, -2S), theta, phi) lands the coherent state at
    tan(theta/2) exp(-i phi); rotate(state, 0, alpha) spins every star about
    the poles, z -> z exp(-i alpha).
    """
    twoS = state.label.twoS
    sx, sy, sz = spin_matrices(twoS)
    m = np.real(np.diag(sz))
    axis = math.cos(phi) * sy - math.sin(phi) * sx
    evals, evecs = np.linalg.eigh(axis)
    tilt = (evecs * np.exp(1j * theta * evals)) @ evecs.conj().T
    amps = tilt @ (np.exp(1j * phi * m) * state.amplitudes)
    return SpinState(state.label, amps)


# -- state <-> constellation ---------------------------------------------------


def stellar_polynomial(state: SpinState) -> np.ndarray:
    """The 2S + 1 coefficients of f, low to high, in a read-only array."""
    coeffs = _binom_sqrt(state.label.twoS) * state.amplitudes
    coeffs.flags.writeable = False
    return coeffs


def constellation_from_state(state: SpinState) -> Constellation:
    """Solve for the star multiset of the state.

    The solver meets the residual contract rootfinding.TOL at every root,
    |f(z)| <= TOL * max|f_k| * max(1, |z|)**2S, or raises NonConvergence;
    a root within about TOL chord of a pole is then put on it.
    """
    return constellations_from_states([state])[0]


def constellations_from_states(states) -> list[Constellation]:
    """constellation_from_state over a whole sequence of states.

    States of one 2S are solved as one stack, which is far faster than
    looping.  find_roots_batch cuts only exactly zero end coefficients: lead
    zeros at the low end are stars at z = 0, and tail zeros at the high end
    stars at infinity.  It checks every root of a core against the contract
    on the core, and that is the contract on f: |f(z)| = |z|**lead
    |core(z)| and max|f| = max|core|.

    A star within about TOL chord of a pole is that pole: one with |z| >
    2 / TOL joins the stars at infinity, and one with |z| < TOL / 2 is set
    to 0.

    If a stack fails, each of its states is solved alone (_solve_alone),
    and a state that fails alone is solved once more in a rotated frame.
    A row's roots do not depend on the rest of its stack, so the states
    that fail in both frames are those that failed it.  The
    NonConvergence raised names the index in states and the 2S of each
    of them, with the solver's message for the state as given.
    """
    states = list(states)
    results: list[Constellation | None] = [None] * len(states)
    failed: list[tuple[int, str]] = []
    groups: dict[int, list[int]] = {}
    for i, state in enumerate(states):
        groups.setdefault(state.label.twoS, []).append(i)
    for twoS, members in groups.items():
        f = _binom_sqrt(twoS) * np.array([states[i].amplitudes for i in members])
        try:
            roots = find_roots_batch(f)
        except NonConvergence:
            roots = np.zeros((len(members), twoS), dtype=complex)  # a failed row keeps these
            for r, i in enumerate(members):
                try:
                    roots[r] = _solve_alone(states[i], f[r])
                except NonConvergence as exc:
                    failed.append((i, f"state {i} (2S = {twoS}): {exc}"))
        size = np.abs(roots)
        far = size > 2.0 / TOL
        roots[size < 0.5 * TOL] = 0.0
        label = states[members[0]].label
        for r, i in enumerate(members):
            results[i] = Constellation(label, roots[r, ~far[r]], int(far[r].sum()))
    if failed:
        raise NonConvergence("; ".join(message for _, message in sorted(failed)))
    return results


#: The rotation (theta, phi) of the second frame in _solve_alone.
_FRAME = (1.3, 2.1)


def _solve_alone(state: SpinState, f: np.ndarray) -> np.ndarray:
    """The roots of state's polynomial f, solved alone, or else in a
    rotated frame: the stars of rotate(state, *_FRAME), turned back.

    The solver raises on a row whose two end coefficients are both small,
    stars near both poles: its companion matrix's entries c_k / c_n are
    huge, or overflow, so the eigenvalues miss the contract, or collapse to
    more exact zeros than the row vanishes to at 0.  Turned off the poles,
    the same stars make a row it takes.  rotate turns each
    star's spinor pair by conj(U), U the spin-1/2 matrix of the rotation,
    so U^T, whose rows are the rotated basis states of spin 1/2, turns them
    back.  The frame is fixed, so the result is deterministic; a tilt of
    1.3 from the poles took every such row tried (the refined (12, 5)
    kings, and random rows at 2S = 6 to 40 with both ends scaled by 1e-12
    to 1e-300) to within 3.3e-16 of fidelity 1.  The rotated frame is a
    fallback, not the first solve: the exact small coefficients of a
    coherent state at 2S = 40 give one star, but rotated they scatter
    into 40.

    The stars turned back are certified by the contract on f itself, so
    there is one certification, in one chart.  If they miss it, or the
    rotated solve raises, the NonConvergence of the first solve is raised.
    """
    try:
        return find_roots_batch(f[None])[0]
    except NonConvergence as miss:
        back = np.array([rotate(SpinState(1, e), *_FRAME).amplitudes for e in np.eye(2)])
        try:
            turned = find_roots_batch(stellar_polynomial(rotate(state, *_FRAME))[None])[0]
            z = _turned(back, *_spinors(turned))
            certified = residual_ratios(f, z).max() <= TOL * np.abs(f).max()
        except NonConvergence:
            certified = False
        if not certified:
            raise miss from None
        return z


def state_from_constellation(c: Constellation) -> SpinState:
    """Rebuild the unique normalized state with the given stars.

    The returned phase is canonical: the highest-degree surviving
    coefficient of the root polynomial is real and positive.
    """
    twoS = c.label.twoS
    amps = _root_coefficients(c.finite_roots, twoS) / _binom_sqrt(twoS)
    return SpinState(c.label, amps)
