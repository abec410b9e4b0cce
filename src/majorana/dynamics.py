"""Star equations of motion under a spin Hamiltonian.

Differentiating f(z_k(t), t) = 0 along the Schroedinger flow gives each
star's velocity straight from the stellar polynomial f of the state:

    dz_k/dt = i (Hf)(z_k) / f'(z_k),

where Hf is the stellar polynomial of H|psi> and f'(z_k) is the product of
the star's separations from the others.  The velocity field is integrated
with scipy's RK45, the embedded Dormand-Prince 5(4) pair; whenever stars
collide or run off the chart the integrator bridges the episode with the
exact unitary evolution of the underlying state, re-solves for the roots,
and resumes, recording the bridged window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import DegenerateConstellation, LabelMismatch, StepUnderflow
from .stellar import (
    Constellation,
    SpinLabel,
    SpinState,
    _as_label,
    _binom_sqrt,
    _chord_matrix,
    _root_coefficients,
    chordal_distance,
    constellation_from_state,
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

# Collision / flight-to-infinity thresholds.  The integrator hands off to the
# exact propagator strictly before the velocity field degenerates, and only
# resumes once the constellation is safely inside the tractable region again.
_COLLIDE_CHORD = 1e-6
_RESUME_CHORD = 3e-6
_MIN_VELOCITY_CHORD = 1e-9
_BLOWUP_MAG = 1e8
_RESUME_MAG = 1e7
_MAX_SEGMENTS = 64

# A pole crossing in a multi-star constellation starves the step controller:
# the runaway star inflates the error estimate of its O(1) neighbours and the
# accepted step collapses like a high power of the remaining time, so the
# |z| blowup trigger is never reached at finite cost.  Cap the work per
# segment instead, and after a cost handoff resume only once every star is
# comfortably generic, or the bridge would hand straight back into the grind.
_CALM_MAG = 30.0
_CALM_CHORD = 1e-4


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
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.conj().T).max()) > 1e-12 * scale:
        raise ValueError("matrix must be Hermitian")
    m = (m + m.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(m)
    for a in (m, evals, evecs):
        a.flags.writeable = False
    return HamiltonianSpec(label, m, evals, evecs)


_BUILTIN_NAMES = ("Sz", "Sz2", "Sx", "Sy")


def builtin_hamiltonian(
    label: SpinLabel | int, name: str, coupling: float = 1.0
) -> HamiltonianSpec:
    """Named single-axis generators: coupling * {Sz, Sz^2, Sx, Sy}."""
    label = _as_label(label)
    sx, sy, sz = spin_matrices(label.twoS)
    if name == "Sz":
        base = sz
    elif name == "Sz2":
        base = sz @ sz
    elif name == "Sx":
        base = sx
    elif name == "Sy":
        base = sy
    else:
        raise ValueError(f"unknown builtin {name!r}; expected one of {_BUILTIN_NAMES}")
    return hamiltonian(label, float(coupling) * base)


# -- velocity field ---------------------------------------------------------------


def _raw_velocities(
    w: np.ndarray, h: HamiltonianSpec, count: int | None = None
) -> np.ndarray:
    """i (Hf)(z_k) / f'(z_k) at the first `count` (default: all) of the
    finite roots w of f, the missing 2S - len(w) roots sitting at infinity.
    Those roots must be simple; no validation.

    A star with |z_k| > 1 is evaluated in the reciprocal chart, as
    (Hf)(z_k) / z_k**2S and f'(z_k) / z_k**(r-1), so huge stars cannot
    overflow the powers.
    """
    twoS = h.label.twoS
    r = len(w)
    at = w[:count]
    c = _root_coefficients(w, twoS)
    b = _binom_sqrt(twoS)
    g = b * (h.matrix @ (c / b))             # stellar polynomial of H|psi>
    big = np.abs(at) > 1.0
    x = at.copy()
    x[big] = 1.0 / at[big]
    powers = x[:, None] ** np.arange(twoS + 1)
    # g in powers of 1/z_k, reversed, is (Hf)(z_k) / z_k**2S.
    gval = np.where(big, powers @ g[::-1], powers @ g)
    sep = (at[:, None] - w) * np.where(big, x, 1.0)[:, None]
    own = np.arange(len(at))
    sep[own, own] = c[r]                     # leading coefficient of f
    scale = np.where(big, at ** (twoS - r + 1), 1.0)
    return 1j * gval / np.prod(sep, axis=1) * scale


def _min_chord(w: np.ndarray) -> float:
    if len(w) < 2:
        return math.inf
    chord = _chord_matrix(w)
    np.fill_diagonal(chord, math.inf)
    return float(chord.min())


def star_velocities(c: Constellation, h: HamiltonianSpec) -> np.ndarray:
    """Root velocities, aligned with c.finite_roots order."""
    if c.label != h.label:
        raise LabelMismatch("constellation and Hamiltonian labels differ")
    if c.infinity_count > 0:
        raise DegenerateConstellation("a star at infinity has no chart velocity")
    if _min_chord(c.finite_roots) < _MIN_VELOCITY_CHORD:
        raise DegenerateConstellation("coincident stars make the velocity singular")
    return _raw_velocities(c.finite_roots, h)


def equilibrium_residual(c: Constellation, h: HamiltonianSpec) -> float:
    """max_k |dz_k/dt|, with coincident stars treated as one multiple star.

    An m-fold cluster's velocity is the velocity field at its centroid for
    the constellation in which the cluster keeps one star, its other m - 1
    copies go to infinity, and every other cluster keeps its multiplicity.
    Only the other clusters' separations then enter f', which is the finite
    limit of the equations of motion at coincidence.
    """
    if c.label != h.label:
        raise LabelMismatch("constellation and Hamiltonian labels differ")
    if c.infinity_count > 0:
        raise DegenerateConstellation("a star at infinity has no chart velocity")
    roots = c.finite_roots
    if len(roots) == 0:
        return 0.0
    groups: list[list[complex]] = []
    for z in roots:
        for g in groups:
            if abs(z - g[0]) <= 1e-7 * (1.0 + max(abs(z), abs(g[0]))):
                g.append(complex(z))
                break
        else:
            groups.append([complex(z)])
    centers = [sum(g) / len(g) for g in groups]
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
    if state.label != h.label:
        raise LabelMismatch("state and Hamiltonian labels differ")
    phases = np.exp(-1j * h.evals * float(t))
    amps = h.evecs @ (phases * (h.evecs.conj().T @ state.amplitudes))
    return SpinState(state.label, amps)


# -- trajectories ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StarTrajectory:
    """Snapshot sequence of an integrated constellation.

    fallback_flags marks snapshots produced by the exact-evolution bridge;
    fallback_intervals lists the bridged time windows.
    """

    label: SpinLabel
    times: np.ndarray
    snapshots: tuple[Constellation, ...]
    fallback_intervals: tuple[tuple[float, float], ...]
    fallback_flags: tuple[bool, ...]

    def at(self, t: float) -> Constellation:
        """Snapshot at the recorded time nearest to t."""
        return self.snapshots[int(np.argmin(np.abs(self.times - t)))]


_RTOL = 1e-9
_ATOL = 1e-12


def _within(w: np.ndarray, mag: float, chord: float) -> bool:
    """Every star finite, none beyond |z| = mag, and no two closer than chord."""
    return (
        bool(np.all(np.isfinite(w)))
        and float(np.abs(w).max()) <= mag
        and _min_chord(w) >= chord
    )


def _integrable_stars(c: Constellation) -> np.ndarray | None:
    """c's stars if the ODE can resume from them, else None."""
    if c.infinity_count == 0 and _within(c.finite_roots, _RESUME_MAG, _RESUME_CHORD):
        return np.array(c.finite_roots)
    return None


def evolve(
    state: SpinState,
    h: HamiltonianSpec,
    t_final: float,
    dt_max: float | None = None,
    *,
    checkpoints=None,
) -> StarTrajectory:
    """Integrate the star ODEs from the state's constellation to t_final.

    Snapshots are recorded at every accepted step, at each requested
    checkpoint time (landed on exactly), and across exact-evolution bridges.
    t_final = 0 yields the single initial snapshot.
    """
    # scipy.integrate is imported here so that `import majorana` does not pay for it.
    from scipy.integrate import RK45

    if state.label != h.label:
        raise LabelMismatch("state and Hamiltonian labels differ")
    t_final = float(t_final)
    if not math.isfinite(t_final) or t_final < 0:
        raise ValueError("t_final must be finite and >= 0")
    norm = float(np.abs(h.evals).max()) if h.label.twoS > 0 else 0.0
    if dt_max is None:
        dt_max = 0.01 / norm if norm > 0 else max(t_final, 1.0)
    dt_max = float(dt_max)
    if dt_max <= 0:
        raise ValueError("dt_max must be positive")

    if checkpoints is None:
        checkpoints = ()
    forced: list[float] = []
    for c in sorted(set(float(x) for x in checkpoints)):
        if not (0.0 <= c <= t_final):
            raise ValueError(f"checkpoint {c} outside [0, {t_final}]")
        if c > 0.0:
            forced.append(c)
    if t_final > 0 and (not forced or forced[-1] < t_final):
        forced.append(t_final)

    twoS = h.label.twoS
    # Time resolution: a step shorter than this is an underflow, and a step
    # ending this close to a forced time lands on it.
    floor = 1e-14 * t_final

    start = constellation_from_state(state)
    times = [0.0]
    snaps = [start]
    flags = [False]
    intervals: list[tuple[float, float]] = []

    if t_final == 0.0 or twoS == 0:
        if twoS == 0 and t_final > 0.0:
            times.append(t_final)
            snaps.append(start)
            flags.append(False)
        return StarTrajectory(
            h.label, np.array(times), tuple(snaps), tuple(intervals), tuple(flags)
        )

    t = 0.0
    w = _integrable_stars(start)
    next_idx = 0
    segments = 0
    stuck = False

    while t < t_final - floor:
        segments += 1
        if w is None or segments > _MAX_SEGMENTS:
            # exact-evolution bridge: find the earliest horizon at which the
            # constellation is integrable again (or run to the end).  A bridge
            # launched at t = 0 only separates a degenerate initial
            # constellation (coherent states, basis states); that is startup,
            # not an integration failure, and is not reported as fallback.
            ignition = t == 0.0
            remaining = t_final - t
            tau = remaining
            if segments <= _MAX_SEGMENTS:
                probe = remaining * 1e-18
                while probe < remaining:
                    c = constellation_from_state(evolve_exact(state, h, t + probe))
                    if _integrable_stars(c) is not None and (
                        not stuck or _within(c.finite_roots, _CALM_MAG, _CALM_CHORD)
                    ):
                        tau = probe
                        break
                    probe *= 4.0
            fill = int(min(64, max(1, round(tau / dt_max))))
            samples = sorted(
                {min(t + tau * k / fill, t_final) for k in range(1, fill + 1)}
                | {f for f in forced if t < f <= t + tau + floor}
            )
            snaps += constellations_from_states(
                evolve_exact(state, h, s) for s in samples
            )
            times += samples
            flags += [not ignition] * len(samples)
            if not ignition:
                intervals.append((t, min(t + tau, t_final)))
            t = min(t + tau, t_final)
            while next_idx < len(forced) and forced[next_idx] <= t + floor:
                next_idx += 1
            w = _integrable_stars(snaps[-1])
            stuck = False
            continue

        # ODE segment toward the next forced time.  Its work is capped at 1000
        # attempted steps plus 50 per dt_max still to go, counted in velocity
        # evaluations: one at the start and six per attempted step.
        target = forced[next_idx]
        budget = 1 + 6 * (1000 + 50 * int(math.ceil((target - t) / dt_max)))
        # A trial step may overflow; the controller rejects it on its own.
        with np.errstate(all="ignore"):
            solver = RK45(
                lambda _, y: _raw_velocities(y, h), t, w, target,
                first_step=min(dt_max, target - t), max_step=dt_max,
                rtol=_RTOL, atol=_ATOL,
            )
            if not np.all(np.isfinite(solver.f)):
                w = None
                continue
            while True:
                if solver.nfev >= budget:
                    w = None
                    stuck = True
                    break
                solver.step()  # a failed step leaves solver.t put: an underflow
                landed = target - solver.t <= floor
                if solver.t - t < floor and not landed:
                    if not _within(w, _BLOWUP_MAG / 100.0, 1e-4):
                        w = None
                        break
                    raise StepUnderflow(
                        f"step {solver.t - t:.3e} below resolution at t={t:.6g} "
                        "with a nondegenerate constellation"
                    )
                if not _within(solver.y, _BLOWUP_MAG, _COLLIDE_CHORD):
                    w = None
                    break
                t = target if landed else solver.t
                w = solver.y
                times.append(t)
                snaps.append(Constellation(h.label, w, 0))
                flags.append(False)
                if landed:
                    next_idx += 1
                    break

    return StarTrajectory(
        h.label,
        np.array(times),
        tuple(snaps),
        tuple(intervals),
        tuple(flags),
    )


# -- star matching ----------------------------------------------------------------------


def _point_values(c: Constellation) -> list[complex]:
    return list(c.finite_roots) + [complex(math.inf, 0.0)] * c.infinity_count


def match_stars(a: Constellation, b: Constellation) -> np.ndarray:
    """Permutation p minimizing total chordal distance; b's star p[i]
    corresponds to a's star i (stars ordered as finite list then infinity)."""
    if a.label != b.label:
        raise LabelMismatch("constellations have different labels")
    pa, pb = _point_values(a), _point_values(b)
    cost = np.array([[chordal_distance(x, y) for y in pb] for x in pa])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    perm = np.empty(len(pa), dtype=int)
    perm[rows] = cols
    return perm


def matched_distance(a: Constellation, b: Constellation) -> float:
    """Largest single-star chordal distance under the optimal matching."""
    pa, pb = _point_values(a), _point_values(b)
    if not pa:
        return 0.0
    perm = match_stars(a, b)
    return max(chordal_distance(pa[i], pb[perm[i]]) for i in range(len(pa)))
