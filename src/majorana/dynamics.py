"""Star dynamics under a spin Hamiltonian.

A state evolving as exp(-i H t)|psi> carries its stars along.  Differentiating
f(z_k(t), t) = 0 along the Schroedinger flow gives each star's velocity
straight from the stellar polynomial f of the state:

    dz_k/dt = i (Hf)(z_k) / f'(z_k),

where Hf is the stellar polynomial of H|psi> and f'(z_k) is the product of
the star's separations from the others.  star_velocities and
equilibrium_residual evaluate these equations of motion.  Trajectories do
not integrate them: evolve propagates the state exactly through the
eigendecomposition of H and re-roots it at every snapshot time, so stars
may collide or cross the pole at infinity without any special handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConstellation
from .rootfinding import _components, _root_coefficients, _table
from .stellar import (
    Constellation,
    SpinLabel,
    SpinState,
    _as_label,
    _binom_sqrt,
    _chord_matrix,
    _hermitian_scale,
    _require_same_label,
    _stars,
    constellations_from_states,
    spin_matrices,
)

__all__ = [
    "HamiltonianSpec",
    "StarTrajectory",
    "hamiltonian",
    "builtin_hamiltonian",
    "star_velocities",
    "evolve",
    "evolve_exact",
    "equilibrium_residual",
    "match_stars",
    "matched_distance",
]

# Chord below which star_velocities treats two stars as coincident.
_MIN_VELOCITY_CHORD = 1e-9
# Chord within which equilibrium_residual chains stars into one cluster.
_CLUSTER_CHORD = 1e-7

#: Most equal steps evolve builds; a finer dt_max is refused before any
#: sample is allocated.
MAX_STEPS = 100_000


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Hermitian generator in the |S, m> basis.

    evals/evecs cache the eigendecomposition used by the exact propagator.
    """

    label: SpinLabel
    matrix: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray


def hamiltonian(label: SpinLabel | int, matrix: np.ndarray) -> HamiltonianSpec:
    """Build the spec for an explicit Hermitian matrix in the |S, m> basis."""
    label = _as_label(label)
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (label.dim, label.dim):
        raise ValueError(f"matrix must be {label.dim}x{label.dim}")
    _hermitian_scale(m, 1e-12, "matrix")
    m = 0.5 * m + (0.5 * m).conj().T  # in halves, so that no sum of entries overflows
    evals, evecs = np.linalg.eigh(m)
    # LAPACK overflows silently where the spectrum of a finite m does not fit.
    if not (np.isfinite(evals).all() and np.isfinite(evecs).all()):
        raise ValueError("matrix spectrum must be finite")
    for a in (m, evals, evecs):
        a.flags.writeable = False
    return HamiltonianSpec(label, m, evals, evecs)


#: Each builtin generator, built from the spin matrices (Sx, Sy, Sz).
_BUILTINS = {
    "Sz": lambda sx, sy, sz: sz,
    "Sz2": lambda sx, sy, sz: sz @ sz,
    "Sx": lambda sx, sy, sz: sx,
    "Sy": lambda sx, sy, sz: sy,
}


def builtin_hamiltonian(
    label: SpinLabel | int, name: str, coupling: float = 1.0
) -> HamiltonianSpec:
    """Named single-axis generators: coupling * {Sz, Sz^2, Sx, Sy}, with a
    finite coupling."""
    label = _as_label(label)
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; expected one of {tuple(_BUILTINS)}")
    coupling = float(coupling)
    if not math.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling}")
    return hamiltonian(label, coupling * _BUILTINS[name](*spin_matrices(label.twoS)))


# -- velocity field ---------------------------------------------------------------


def _raw_velocities(
    w: np.ndarray, h: HamiltonianSpec, count: int | None = None
) -> np.ndarray:
    """i (Hf)(z_k) / f'(z_k) at the first `count` (default: all) of the
    finite roots w of f, the missing 2S - len(w) roots sitting at infinity.
    Those roots must be simple; no validation.

    Each star is read in its own chart (see rootfinding._table), t = (1, z)
    or, where |z| > 1, (1/z, 1): (Hf)(z) / z**2S and f'(z) / z**(r-1) there,
    so huge stars cannot overflow the powers.  A velocity that still is not
    finite, as for a star near the pole under a generator that moves the
    pole, raises DegenerateConstellation.
    """
    twoS = h.label.twoS
    r = len(w)
    at = w[:count]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = _root_coefficients(w, twoS)
        b = _binom_sqrt(twoS)
        g = b * (h.matrix @ (c / b))         # stellar polynomial of H|psi>
        gval = _table(at, twoS) @ g
        t = _table(at, 1)
        sep = t[:, 1, None] - w * t[:, 0, None]
        own = np.arange(len(at))
        sep[own, own] = c[r]                 # leading coefficient of f
        v = 1j * gval / np.prod(sep, axis=1) / t[:, 0] ** (twoS - r + 1)
    if not np.isfinite(v).all():
        raise DegenerateConstellation("a star too near the pole has no finite chart velocity")
    return v


def star_velocities(c: Constellation, h: HamiltonianSpec) -> np.ndarray:
    """Root velocities, aligned with c.finite_roots order."""
    _require_same_label(c.label, h.label)
    if c.infinity_count > 0:
        raise DegenerateConstellation("a star at infinity has no chart velocity")
    chord = _chord_matrix(c.finite_roots, c.finite_roots)
    np.fill_diagonal(chord, math.inf)
    if chord.min(initial=math.inf) < _MIN_VELOCITY_CHORD:
        raise DegenerateConstellation("coincident stars make the velocity singular")
    return _raw_velocities(c.finite_roots, h)


def _centroid(cluster: np.ndarray) -> complex:
    """The mean of a cluster of stars, in the chart that keeps it on the
    cluster: the mean of +1e300 and -1e300 is 0, on the far side of the
    sphere, while the mean of their reciprocals puts it at the pole."""
    center = complex(cluster.mean())
    if _chord_matrix([center], cluster).min() > _CLUSTER_CHORD:
        with np.errstate(divide="ignore", invalid="ignore"):
            center = complex(1.0 / (1.0 / cluster).mean())
    return center


def equilibrium_residual(c: Constellation, h: HamiltonianSpec) -> float:
    """max_k |dz_k/dt|, with coincident stars treated as one multiple star.

    Stars within chord 1e-7 of each other, chained, form one cluster.  An
    m-fold cluster's velocity is the velocity field at its centroid for
    the constellation in which the cluster keeps one star, its other m - 1
    copies go to infinity, and every other cluster keeps its multiplicity.
    Only the other clusters' separations then enter f', which is the finite
    limit of the equations of motion at coincidence.  The centroid is the
    mean of the cluster's z, or of its 1/z where that mean leaves the
    cluster, as it does about the pole.
    """
    _require_same_label(c.label, h.label)
    if c.infinity_count > 0:
        raise DegenerateConstellation("a star at infinity has no chart velocity")
    roots = c.finite_roots
    label = _components(_chord_matrix(roots, roots) <= _CLUSTER_CHORD)
    groups = [roots[label == k] for k in np.flatnonzero(np.bincount(label))]
    centers = [_centroid(g) for g in groups]
    counts = [len(g) for g in groups]
    worst = 0.0
    for k, ck in enumerate(centers):
        reduced = [ck] + [
            cj for j, cj in enumerate(centers) if j != k for _ in range(counts[j])
        ]
        v = _raw_velocities(np.array(reduced, dtype=complex), h, count=1)
        worst = max(worst, float(abs(v[0])))
    return worst


# -- exact propagation ---------------------------------------------------------------


def evolve_exact(state: SpinState, h: HamiltonianSpec, t: float) -> SpinState:
    """exp(-i H t) applied through the cached eigendecomposition."""
    _require_same_label(state.label, h.label)
    phases = np.exp(-1j * h.evals * float(t))
    amps = h.evecs @ (phases * (h.evecs.conj().T @ state.amplitudes))
    return SpinState(state.label, amps)


# -- trajectories ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StarTrajectory:
    """Snapshot sequence of an evolved constellation."""

    label: SpinLabel
    times: np.ndarray
    snapshots: tuple[Constellation, ...]
    # Not fields: no snapshot is bridged, and the benchmark still counts them.
    fallback_intervals = ()
    fallback_flags = ()

    def at(self, t: float) -> Constellation:
        """Snapshot at the recorded time nearest to t."""
        return self.snapshots[int(np.argmin(np.abs(self.times - t)))]


def evolve(
    state: SpinState,
    h: HamiltonianSpec,
    t_final: float,
    dt_max: float | None = None,
    *,
    checkpoints=None,
) -> StarTrajectory:
    """Constellations of exp(-i H t)|psi> from t = 0 to t_final.

    Snapshots sit at 0, at ceil(t_final / dt_max) equal steps to t_final,
    and at every checkpoint, landed on exactly; a step point within
    1e-14 * t_final of a checkpoint gives way to it.  dt_max, the most time
    between snapshots, defaults to 0.01 / half the spread of H's spectrum,
    which H's energy zero does not move.  Every sample is propagated
    through the cached eigendecomposition and all of them are re-rooted as
    one batch.  t_final = 0 yields the single initial snapshot.  A dt_max
    that needs more than MAX_STEPS = 100 000 steps raises ValueError before
    anything is allocated.
    """
    _require_same_label(state.label, h.label)
    t_final = float(t_final)
    if not math.isfinite(t_final) or t_final < 0:
        raise ValueError("t_final must be finite and >= 0")
    if dt_max is None:
        half = float(h.evals[-1] / 2 - h.evals[0] / 2)  # halved first: no overflow
        dt_max = 0.01 / half if half > 0 else max(t_final, 1.0)
    dt_max = float(dt_max)
    if not dt_max > 0 or not math.isfinite(t_final / dt_max):
        raise ValueError("dt_max must be positive and give a finite step count")
    steps = math.ceil(t_final / dt_max)
    if steps > MAX_STEPS:
        raise ValueError(f"dt_max gives {steps} steps, more than MAX_STEPS = {MAX_STEPS}")

    forced = {0.0, t_final}
    for c in map(float, () if checkpoints is None else checkpoints):
        if not (0.0 <= c <= t_final):
            raise ValueError(f"checkpoint {c} outside [0, {t_final}]")
        forced.add(c)
    forced = np.array(sorted(forced))
    grid = t_final * np.arange(1, steps) / steps
    # forced[near - 1] < grid <= forced[near]
    near = np.searchsorted(forced, grid)
    clear = np.minimum(forced[near] - grid, grid - forced[near - 1]) > 1e-14 * t_final
    # clear keeps every grid time off the forced ones, so the merge has no repeats.
    times = np.sort(np.concatenate([forced, grid[clear]]))

    phases = np.exp(-1j * np.outer(times, h.evals))
    amps = (phases * (h.evecs.conj().T @ state.amplitudes)) @ h.evecs.T
    amps[0] = state.amplitudes  # t = 0 is the state itself, not its eigenbasis round trip
    snaps = constellations_from_states(SpinState(h.label, a) for a in amps)
    return StarTrajectory(h.label, times, tuple(snaps))


# -- star matching ----------------------------------------------------------------------


def _matching(a: Constellation, b: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """The permutation of match_stars and the chord of each matched pair."""
    from scipy.optimize import linear_sum_assignment

    _require_same_label(a.label, b.label)
    pa, pb = _stars(a), _stars(b)
    cost = _chord_matrix(pa, pb)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(len(pa), dtype=int)
    perm[rows] = cols
    return perm, cost[rows, cols]


def match_stars(a: Constellation, b: Constellation) -> np.ndarray:
    """Permutation p minimizing total chordal distance; b's star p[i]
    corresponds to a's star i (stars ordered as finite list then infinity).
    One cost matrix of chords serves every pair, pole stars included.

    Needs scipy, imported here so that importing the package does not load it.
    """
    return _matching(a, b)[0]


def matched_distance(a: Constellation, b: Constellation) -> float:
    """Largest single-star chordal distance under the optimal matching."""
    return float(_matching(a, b)[1].max(initial=0.0))
