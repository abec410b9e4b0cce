"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and prints nothing on success; run with -v to
get a pass/fail line per criterion.  Tolerances here are contractual: do
not loosen them to make a failure go away.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import majorana as mj
from majorana.dynamics import (
    builtin_hamiltonian,
    evolve,
    evolve_exact,
    hamiltonian,
    matched_distance,
)
from majorana.kings import SearchConfig, minimize
from majorana.multipoles import husimi_q, multipoles
from majorana.serialize import emit_kings, parse_constellation
from majorana.stellar import constellations_from_states

from oracles import multipoles_by_quadrature

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")


def _random_states(rng, twoS, count):
    amps = rng.normal(size=(count, twoS + 1)) + 1j * rng.normal(size=(count, twoS + 1))
    return [mj.SpinState(twoS, row) for row in amps]


def _fidelity(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes))


def test_criterion_01_round_trip_fidelity_and_speed():
    # 1000 random states at every 2S from 1 to 20 survive the
    # state -> constellation -> state round trip at fidelity 1 - 1e-10,
    # all within a 30 second budget.
    rng = np.random.default_rng(101)
    batches = {twoS: _random_states(rng, twoS, 1000) for twoS in range(1, 21)}
    worst = 1.0
    start = time.perf_counter()
    for twoS, states in batches.items():
        for st, c in zip(states, constellations_from_states(states)):
            back = mj.state_from_constellation(c)
            worst = min(worst, _fidelity(st, back))
    elapsed = time.perf_counter() - start
    assert worst >= 1.0 - 1e-10, f"worst fidelity {worst!r}"
    assert elapsed <= 30.0, f"round trip took {elapsed:.1f}s"


def test_criterion_02_reference_constellations():
    # Coherent states collapse to a single 2S-fold star at -1/z0.
    for twoS in (1, 2, 5, 10):
        for z0 in (0.3 + 0.4j, -1.2 + 0.7j, 2.0 + 0.0j):
            c = mj.constellation_from_state(mj.coherent_state(twoS, z0))
            assert c.infinity_count == 0
            assert len(c.finite_roots) == twoS
            assert np.abs(c.finite_roots - (-1.0 / z0)).max() <= 1e-10
    # Balanced superpositions of the extremal levels put their stars on the
    # 2S-th roots of unity.  Pair each root with its nearest target; the
    # targets are 2 sin(pi/2S) apart, far above the tolerance, so a passing
    # nearest map is automatically a bijection (sorting complex values would
    # let an ulp of real-part noise swap conjugate pairs).
    for twoS in (2, 3, 6, 9, 20):
        c = mj.constellation_from_state(mj.noon_state(twoS))
        assert c.infinity_count == 0
        got = np.asarray(c.finite_roots)
        want = np.exp(2j * np.pi * np.arange(twoS) / twoS)
        nearest = np.argmin(np.abs(got[:, None] - want[None, :]), axis=1)
        assert sorted(nearest.tolist()) == list(range(twoS))
        assert np.abs(got - want[nearest]).max() <= 1e-10
    # Extremal basis states are polar: all stars at one pole.
    for twoS in (1, 4, 9):
        top = mj.constellation_from_state(mj.basis_state(twoS, twoS))
        assert top.infinity_count == 0
        assert np.abs(top.finite_roots).max() == 0.0
        bottom = mj.constellation_from_state(mj.basis_state(twoS, -twoS))
        assert bottom.infinity_count == twoS
        assert len(bottom.finite_roots) == 0


def test_criterion_03_husimi_zeros_at_conjugated_stars():
    # For 100 random 2S=6 states the Husimi function vanishes at the
    # azimuth-reflected (conjugated) star positions to 1e-18.
    rng = np.random.default_rng(103)
    for st in _random_states(rng, 6, 100):
        c = mj.constellation_from_state(st)
        for p in c.points():
            assert husimi_q(st, (p.theta, -p.phi)) <= 1e-18


def test_criterion_04_spectrum_identities():
    rng = np.random.default_rng(104)
    for twoS in range(1, 13):
        states = _random_states(rng, twoS, 20)
        for st in states:
            spec = multipoles(st)
            assert abs(spec.w.sum() - 1.0) <= 1e-12
            assert abs(spec.A[twoS] - twoS / (twoS + 1.0)) <= 1e-12
        # multipole lengths are rotation invariants
        for st in states[:5]:
            w = multipoles(st).w
            for theta, phi in ((0.9, 0.4), (2.2, 5.0)):
                w_rot = multipoles(mj.rotate(st, theta, phi)).w
                assert np.abs(w_rot - w).max() <= 1e-10
        # the sphere-quadrature route reproduces the trace route
        for st in states[:2]:
            diff = np.abs(multipoles(st).rho - multipoles_by_quadrature(st)).max()
            assert diff <= 1e-9


def test_criterion_05_coherent_states_maximize_quantumness():
    # Among 500 random states per 2S <= 12, no state beats the coherent
    # benchmark A_M at any order M.  Zero violations allowed.
    rng = np.random.default_rng(105)
    violations = 0
    for twoS in range(1, 13):
        coh = multipoles(mj.coherent_state(twoS, 0.37 - 0.21j)).A
        for st in _random_states(rng, twoS, 500):
            a = multipoles(st).A
            for M in range(1, twoS + 1):
                if a[M] > coh[M] + 1e-12:
                    violations += 1
    assert violations == 0


def test_criterion_06_king_searches(tmp_path):
    # Exact tier: orders 1..3 are fully suppressible at 2S = 2, 4, 6, each
    # search finishing under 60 seconds with 64 restarts.
    for twoS in (2, 4, 6):
        start = time.perf_counter()
        result = minimize(twoS, SearchConfig(M=twoS // 2, restarts=64))
        elapsed = time.perf_counter() - start
        assert result.objective <= 1e-8, f"2S={twoS}: A_M={result.objective:.2e}"
        assert elapsed <= 60.0, f"2S={twoS}: took {elapsed:.1f}s"
        assert result.restarts_converged > 0
    # Archive tier: larger spins are searched upward in M with fewer
    # restarts; the maximal order is whatever the search discovers, and the
    # record at that order must be numerically unpolarized to 1e-6.  Fresh
    # records go to a temporary directory, never over the committed archive.
    for twoS, restarts in ((10, 10), (12, 8), (20, 6)):
        discovered = None
        best = None
        for M in range(1, twoS + 1):
            result = minimize(twoS, SearchConfig(M=M, restarts=restarts))
            if result.objective > 1e-6:
                break
            discovered, best = M, result
        assert discovered is not None, f"2S={twoS}: no unpolarized order found"
        assert best.objective <= 1e-6
        payload = json.loads(emit_kings(best))
        payload["restarts"] = restarts
        path = tmp_path / f"kings_S{twoS // 2}.json"
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    # The committed archive: each record's stars rebuild a state whose
    # multipole weights reproduce the recorded A_M, vanish through the
    # recorded order and sum to the purity of a pure state.
    names = sorted(n for n in os.listdir(ARTIFACT_DIR) if n.startswith("kings_S"))
    assert names, "no committed king records"
    for name in names:
        with open(os.path.join(ARTIFACT_DIR, name), encoding="utf-8") as fh:
            record = json.load(fh)
        stars = parse_constellation(json.dumps(record["constellation"]))
        spec = multipoles(mj.state_from_constellation(stars))
        M = record["M"]
        assert stars.label.twoS == record["twoS"], name
        assert record["unpolarized_order"] == M, name
        assert spec.A[M] == pytest.approx(record["objective"], rel=1e-6, abs=1e-15), name
        assert spec.A[M] <= 1e-6, f"{name}: A_M={spec.A[M]:.2e}"
        assert np.all(spec.w[1 : M + 1] <= 1e-6), name
        assert math.isclose(float(spec.w.sum()), 1.0, rel_tol=1e-12), name


def test_criterion_07_integration_matches_exact_propagator():
    # 50 random Hermitian generators per 2S from 1 to 8, normalized to unit
    # spectral radius: the star integration tracks exact re-rooting to 1e-6
    # at ten checkpoints over [0, 1] and conserves energy to 1e-6.
    rng = np.random.default_rng(107)
    checkpoints = np.linspace(0.1, 1.0, 10)
    worst_match = 0.0
    worst_drift = 0.0
    for twoS in range(1, 9):
        dim = twoS + 1
        for _ in range(50):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = (g + g.conj().T) / 2.0
            m /= np.abs(np.linalg.eigvalsh(m)).max()
            h = hamiltonian(twoS, m)
            st = mj.SpinState(twoS, rng.normal(size=dim) + 1j * rng.normal(size=dim))
            e0 = float((st.amplitudes.conj() @ m @ st.amplitudes).real)
            traj = evolve(st, h, 1.0, checkpoints=checkpoints)
            for t in checkpoints:
                want = mj.constellation_from_state(evolve_exact(st, h, t))
                worst_match = max(worst_match, matched_distance(traj.at(t), want))
                amps = mj.state_from_constellation(traj.at(t)).amplitudes
                drift = abs(float((amps.conj() @ m @ amps).real) - e0)
                worst_drift = max(worst_drift, drift)
    assert worst_match <= 1e-6, f"worst checkpoint distance {worst_match:.2e}"
    assert worst_drift <= 1e-6, f"worst energy drift {worst_drift:.2e}"


def test_criterion_08_rigid_rotation_and_interference():
    # Under omega0 Sz every star moves as z_k(t) = z_k(0) e^{+i omega0 t},
    # tracked to 1e-9 over two full turns.
    omega0 = 1.3
    rng = np.random.default_rng(108)
    t_final = 4.0 * math.pi / omega0
    checkpoints = np.linspace(0.0, t_final, 9)
    for twoS in (1, 2, 3, 5, 6):
        h = builtin_hamiltonian(twoS, "Sz", omega0)
        for st in _random_states(rng, twoS, 4):
            c0 = mj.constellation_from_state(st)
            traj = evolve(st, h, t_final, checkpoints=checkpoints)
            for t in checkpoints:
                want = mj.Constellation(
                    twoS,
                    c0.finite_roots * np.exp(1j * omega0 * t),
                    c0.infinity_count,
                )
                assert matched_distance(traj.at(t), want) <= 1e-9
    # The balanced extremal superposition reaches an orthogonal state at
    # omega0 t = pi / 2S even though its star set only shifts by half a step.
    for twoS in (2, 4, 6):
        st = mj.noon_state(twoS)
        h = builtin_hamiltonian(twoS, "Sz", 1.0)
        t_star = math.pi / twoS
        traj = evolve(st, h, t_star)
        end = mj.state_from_constellation(traj.snapshots[-1])
        assert _fidelity(st, end) <= 1e-8


def test_criterion_09_kerr_spreading_from_coherent_start():
    # A coherent state under chi Sz^2: every snapshot, through the fully
    # degenerate start, matches exact re-rooting, the stars visibly spread
    # by t = 0.1/chi, and checkpoints are landed on.
    chi = 0.7
    st = mj.coherent_state(4, 0.6 + 0.2j)
    h = builtin_hamiltonian(4, "Sz2", chi)
    t_final = 0.1 / chi
    checkpoints = np.linspace(0.0, t_final, 10)
    traj = evolve(st, h, t_final, checkpoints=checkpoints)
    for t, snap in zip(traj.times, traj.snapshots):
        want = mj.constellation_from_state(evolve_exact(st, h, t))
        assert matched_distance(snap, want) <= 1e-6

    def spread(c):
        zs = [mj.sphere_to_stereo(p) for p in c.points()]
        return max(
            mj.chordal_distance(zs[i], zs[j])
            for i in range(len(zs))
            for j in range(i + 1, len(zs))
        )

    assert spread(traj.snapshots[-1]) - spread(traj.snapshots[0]) > 1e-3
    for t in checkpoints:
        want = mj.constellation_from_state(evolve_exact(st, h, t))
        assert matched_distance(traj.at(t), want) <= 1e-6
