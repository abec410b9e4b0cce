"""Correctness checks applied to every op's output.

Each check returns a list of problems; an empty list means the output
passed.  The bounds are the package's contracts: the 1e-10 residual and
round-trip fidelity of the root solver, A_M <= 1e-8 for a king search,
1e-6 chordal distance and energy drift for star dynamics, and byte-equal
output for the command line.  ``selftest.py`` shows that each check trips
on a corrupted output.
"""

from __future__ import annotations

import math

import numpy as np

from majorana import constellation_from_state, state_from_constellation
from majorana.dynamics import evolve_exact, matched_distance
from majorana.multipoles import cumulative_quantumness, multipoles

ROOT_TOL = 1e-10
FIDELITY_FLOOR = 1.0 - 1e-10
KING_ZERO = 1e-8
CHORD_BOUND = 1e-6
ENERGY_BOUND = 1e-6


def stellar_coefficients(amplitudes: np.ndarray) -> np.ndarray:
    """f_k = sqrt(C(2S, k)) psi_k, computed here rather than by the package."""
    n = len(amplitudes) - 1
    binom = np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    return binom * np.asarray(amplitudes, dtype=complex)


def scaled_residuals(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """|f(z)| / max(1, |z|)**n at each root, evaluated without overflow:
    Horner in z inside the unit disk and in 1/z outside it."""
    roots = np.asarray(roots, dtype=complex)
    inside = np.abs(roots) <= 1.0
    out = np.empty(len(roots))
    z = roots[inside]
    acc = np.zeros(len(z), dtype=complex)
    for c in coeffs[::-1]:
        acc = acc * z + c
    out[inside] = np.abs(acc)
    w = 1.0 / roots[~inside]
    acc = np.zeros(len(w), dtype=complex)
    for c in coeffs:
        acc = acc * w + c
    out[~inside] = np.abs(acc)
    return out


def check_roundtrip(state, constellation, back) -> list[str]:
    """Residual contract of the stars and fidelity of the rebuilt state."""
    problems = []
    f = stellar_coefficients(state.amplitudes)
    bound = ROOT_TOL * float(np.abs(f).max())
    roots = constellation.finite_roots
    if len(roots) + constellation.infinity_count != state.label.twoS:
        problems.append("star count differs from 2S")
    if len(roots):
        worst = float(scaled_residuals(f, roots).max())
        if not worst <= bound:
            problems.append(f"residual {worst:.3e} > {bound:.3e}")
    fid = abs(np.vdot(state.amplitudes, back.amplitudes))
    if not fid >= FIDELITY_FLOOR:
        problems.append(f"infidelity {1.0 - fid:.3e}")
    return problems


def check_king(result, M: int) -> list[str]:
    """A_M of the returned stars, recomputed, and at least one converged restart."""
    problems = []
    a_m = cumulative_quantumness(multipoles(state_from_constellation(result.constellation)), M)
    if not a_m <= KING_ZERO:
        problems.append(f"A_{M} = {a_m:.3e} > {KING_ZERO:g}")
    if result.restarts_converged <= 0:
        problems.append("no restart converged")
    return problems


def check_trajectory(state, h, traj, checkpoints) -> list[str]:
    """Every checkpoint is recorded, matches exact re-rooting and keeps <H>."""
    problems = []
    m = h.matrix
    e0 = float(np.real(state.amplitudes.conj() @ m @ state.amplitudes))
    scale = max(1.0, float(np.abs(h.evals).max()))
    worst_chord = worst_drift = 0.0
    for t in checkpoints:
        i = int(np.argmin(np.abs(traj.times - t)))
        if abs(traj.times[i] - t) > 1e-12 * max(1.0, t):
            problems.append(f"checkpoint t={t:.6g} not recorded")
            continue
        snap = traj.snapshots[i]
        want = constellation_from_state(evolve_exact(state, h, t))
        worst_chord = max(worst_chord, matched_distance(snap, want))
        amps = state_from_constellation(snap).amplitudes
        drift = abs(float(np.real(amps.conj() @ m @ amps)) - e0) / scale
        worst_drift = max(worst_drift, drift)
    if not worst_chord <= CHORD_BOUND:
        problems.append(f"checkpoint chord {worst_chord:.3e} > {CHORD_BOUND:g}")
    if not worst_drift <= ENERGY_BOUND:
        problems.append(f"energy drift {worst_drift:.3e} > {ENERGY_BOUND:g}")
    return problems


def check_cli(returncode: int, stdout: bytes, expected: bytes) -> list[str]:
    """Exit code 0 and stdout byte-equal to the library's serialized result."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if stdout != expected:
        problems.append(f"stdout differs ({len(stdout)} vs {len(expected)} bytes)")
    return problems
