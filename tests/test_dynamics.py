"""Hamiltonians, star velocities, equilibria, and trajectory integration."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import solve_ivp

import majorana as mj
from majorana.dynamics import (
    builtin_hamiltonian,
    equilibrium_residual,
    evolve,
    evolve_exact,
    hamiltonian,
    match_stars,
    matched_distance,
    star_velocities,
)
from majorana.errors import DegenerateConstellation, LabelMismatch

from oracles import vieta
from samples import random_state


def _random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def _unit_hamiltonian(rng, twoS):
    m = _random_hermitian(rng, twoS + 1)
    return hamiltonian(twoS, m / np.abs(np.linalg.eigvalsh(m)).max())


def _mp_velocities(roots, h):
    """i (Hf)(z_k) / f'(z_k) at 50 digits, taking the float roots as exact."""
    twoS = h.label.twoS
    with mpmath.workdps(50):
        zs = [mpmath.mpc(z) for z in roots]
        f = vieta(zs, 50)  # prod (z - z_j), low to high
        b = [mpmath.sqrt(math.comb(twoS, k)) for k in range(twoS + 1)]
        g = [
            b[i] * mpmath.fsum(mpmath.mpc(h.matrix[i, j]) * f[j] / b[j] for j in range(twoS + 1))
            for i in range(twoS + 1)
        ]
        out = []
        for k, zk in enumerate(zs):
            fprime = mpmath.fprod(zk - zj for j, zj in enumerate(zs) if j != k)
            out.append(complex(1j * mpmath.polyval(g[::-1], zk) / fprime))
    return np.array(out)


def _mp_symbol_residual(centers, counts, h):
    """Equilibrium residual from the differential symbol at 50 digits.

    H acts on stellar polynomials as sum_n h_n(z) d^n/dz^n; an m-fold star at
    z0 moves with i sum_{n>=1} n! h_n(z0) e_{n-1}, e over the reciprocal
    separations 1/(z0 - z_j) from the other clusters, with multiplicity.
    """
    twoS = h.label.twoS
    with mpmath.workdps(50):
        b = [mpmath.sqrt(math.comb(twoS, k)) for k in range(twoS + 1)]
        symbol = []
        for n in range(twoS + 1):
            # H z^n = sum_{j<=n} h_j(z) n!/(n-j)! z^(n-j) fixes h_n.
            acc = [b[i] / b[n] * mpmath.mpc(h.matrix[i, n]) for i in range(twoS + 1)]
            acc += [mpmath.mpc(0)] * twoS
            for j, hj in enumerate(symbol):
                lo = n - j
                for i in range(len(acc) - lo):
                    acc[lo + i] -= math.perm(n, j) * hj[i]
            symbol.append([a / math.factorial(n) for a in acc])
        worst = mpmath.mpf(0)
        for k, z0 in enumerate(centers):
            u = [1 / (mpmath.mpc(z0) - mpmath.mpc(zj))
                 for j, zj in enumerate(centers) if j != k for _ in range(counts[j])]
            e = vieta([-x for x in u], 50)[::-1]  # e_i of the u: prod (z + u), high to low
            v = mpmath.fsum(
                math.factorial(n) * mpmath.polyval(symbol[n][::-1], mpmath.mpc(z0)) * e[n - 1]
                for n in range(1, min(twoS, len(e)) + 1)
            )
            worst = max(worst, abs(v))
    return float(worst)


# -- construction -------------------------------------------------------------------


def test_hamiltonian_validation(rng):
    with pytest.raises(ValueError):
        hamiltonian(2, np.eye(2))  # wrong size for 2S=2
    bad = _random_hermitian(rng, 3)
    bad[0, 1] += 1e-6
    with pytest.raises(ValueError):
        hamiltonian(2, bad)
    with pytest.raises(ValueError):
        hamiltonian(2, np.full((3, 3), np.nan))
    # Finite entries whose difference m - m^dag overflows; the suite makes a
    # RuntimeWarning an error, so it must be refused without one.
    with pytest.raises(ValueError, match="Hermitian"):
        hamiltonian(1, [[0, 1e308], [-1e308, 0]])
    # Finite parts, but a modulus past the largest double.
    with pytest.raises(ValueError, match="must be finite"):
        hamiltonian(1, [[0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0]])
    # Finite and Hermitian, but an eigenvalue (2 * 1.7e308) overflows, which
    # LAPACK does without a warning.
    with pytest.raises(ValueError, match="spectrum must be finite"):
        hamiltonian(1, [[1.7e308, 1.7e308], [1.7e308, 1.7e308]])
    with pytest.raises(ValueError):
        builtin_hamiltonian(2, "Sq")
    for coupling in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="coupling must be finite"):
            builtin_hamiltonian(2, "Sz", coupling)


def test_hermitian_matrix_near_the_float_limit():
    # (m + m^dag) / 2 overflows here; its halves do not, and they are m.
    h = hamiltonian(1, [[1e308, 0], [0, -1e308]])
    assert np.array_equal(h.matrix, [[1e308, 0], [0, -1e308]])
    assert np.array_equal(h.evals, [-1e308, 1e308])


def test_builtin_matrices_match_spin_operators():
    sx, sy, sz = mj.spin_matrices(3)
    assert np.allclose(builtin_hamiltonian(3, "Sx").matrix, sx)
    assert np.allclose(builtin_hamiltonian(3, "Sy", 2.0).matrix, 2.0 * sy)
    assert np.allclose(builtin_hamiltonian(3, "Sz2", 0.5).matrix, 0.5 * sz @ sz)


# -- velocities ----------------------------------------------------------------------


def test_linear_velocity_is_rigid_rotation(rng):
    omega = 0.8
    h = builtin_hamiltonian(3, "Sz", omega)
    st = random_state(rng, 3)
    c = mj.constellation_from_state(st)
    if c.infinity_count or len(c.finite_roots) < 3:
        pytest.skip("degenerate draw")
    v = star_velocities(c, h)
    assert np.allclose(v, 1j * omega * c.finite_roots, atol=1e-10)


def test_kerr_velocity_frozen(rng):
    # w' = i chi (2 w^2 sum_{l != k} 1/(w_k - w_l) - (2S - 1) w)
    chi = 0.7
    twoS = 4
    h = builtin_hamiltonian(twoS, "Sz2", chi)
    st = random_state(rng, twoS)
    c = mj.constellation_from_state(st)
    if c.infinity_count:
        pytest.skip("degenerate draw")
    w = c.finite_roots
    v = star_velocities(c, h)
    for k in range(twoS):
        recip = sum(1.0 / (w[k] - w[l]) for l in range(twoS) if l != k)
        want = 1j * chi * (2.0 * w[k] ** 2 * recip - (twoS - 1) * w[k])
        assert v[k] == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_velocity_against_finite_difference(rng):
    twoS = 3
    h = hamiltonian(twoS, _random_hermitian(rng, twoS + 1))
    st = random_state(rng, twoS)
    c = mj.constellation_from_state(st)
    v = star_velocities(c, h)
    dt = 1e-7
    c2 = mj.constellation_from_state(evolve_exact(st, h, dt))
    perm = match_stars(c, c2)
    moved = (c2.finite_roots[perm] - c.finite_roots) / dt
    assert np.allclose(moved, v, atol=2e-5)


@pytest.mark.parametrize("twoS", [10, 12, 16, 20])
def test_velocity_matches_mpmath_at_high_spin(twoS):
    rng = np.random.default_rng(1000 + twoS)
    h = _unit_hamiltonian(rng, twoS)
    c = mj.constellation_from_state(random_state(rng, twoS))
    want = _mp_velocities(c.finite_roots, h)
    got = star_velocities(c, h)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_velocity_of_far_stars_does_not_overflow():
    # 2S = 40 with half or all of the stars near |z| = 1e7: (Hf)(z_k)
    # overflows at the far stars unless they are evaluated in the reciprocal
    # chart.
    rng = np.random.default_rng(4040)
    near = rng.normal(size=20) + 1j * rng.normal(size=20)
    far = 1e7 * (1.0 + 0.5 * (rng.normal(size=40) + 1j * rng.normal(size=40)))
    for roots in (np.concatenate([near, far[:20]]), far):
        h = _unit_hamiltonian(rng, 40)
        c = mj.Constellation(40, roots, 0)
        want = _mp_velocities(c.finite_roots, h)
        got = star_velocities(c, h)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_velocity_rejects_degenerate():
    h = builtin_hamiltonian(4, "Sz")
    with pytest.raises(DegenerateConstellation):
        star_velocities(mj.constellation_from_state(mj.coherent_state(4, 0.3)), h)
    with pytest.raises(DegenerateConstellation):
        star_velocities(mj.Constellation(2, [0.0], 1), h=builtin_hamiltonian(2, "Sz"))
    with pytest.raises(DegenerateConstellation):
        equilibrium_residual(mj.Constellation(2, [0.0], 1), builtin_hamiltonian(2, "Sz"))
    # Under Sx a star beyond |z| ~ 1e154 moves faster than a double can hold.
    far = mj.Constellation(2, [1e200, 0.5])
    with pytest.raises(DegenerateConstellation):
        star_velocities(far, builtin_hamiltonian(2, "Sx"))
    with pytest.raises(DegenerateConstellation):
        equilibrium_residual(far, builtin_hamiltonian(2, "Sx"))


def test_label_mismatch_raises(rng):
    h = builtin_hamiltonian(2, "Sz")
    with pytest.raises(LabelMismatch):
        star_velocities(mj.Constellation(4, [1.0, 2.0, 3.0, 4.0]), h)
    with pytest.raises(LabelMismatch):
        evolve(random_state(rng, 4), h, 1.0)
    with pytest.raises(LabelMismatch):
        evolve_exact(random_state(rng, 4), h, 1.0)
    with pytest.raises(LabelMismatch):
        equilibrium_residual(mj.Constellation(4, [1.0, 2.0, 3.0, 4.0]), h)


# -- equilibria ----------------------------------------------------------------------


def test_equilibrium_residual_frozen(rng):
    # Highest-weight state under Sz is stationary.
    h = builtin_hamiltonian(4, "Sz", 1.0)
    top = mj.constellation_from_state(mj.basis_state(4, 4))
    assert equilibrium_residual(top, h) <= 1e-12
    # NOON state under omega0 Sz rotates: residual omega0.
    omega0 = 1.7
    noon = mj.constellation_from_state(mj.noon_state(2))
    assert equilibrium_residual(
        noon, builtin_hamiltonian(2, "Sz", omega0)
    ) == pytest.approx(omega0, rel=1e-9)
    # Zero Hamiltonian freezes everything.
    z = hamiltonian(3, np.zeros((4, 4)))
    c = mj.constellation_from_state(random_state(rng, 3))
    assert equilibrium_residual(c, z) <= 1e-12
    # Spin 0 has no stars to move.
    assert equilibrium_residual(mj.Constellation(0, []), builtin_hamiltonian(0, "Sz")) == 0.0


def test_equilibrium_residual_groups_stars_on_the_sphere():
    # 1e7 and 1.001e7 are 2e-10 apart on the sphere: one double star, at
    # their mean.  Kept apart, as by a flat test |dz| <= 1e-7 (1 + |z|),
    # their separation reads as a residual of 2.0e10.
    h = builtin_hamiltonian(4, "Sz2")
    others = [0.3 + 0.2j, -0.7 + 1j]
    far = equilibrium_residual(mj.Constellation(4, [1e7, 1.001e7] + others), h)
    assert far == equilibrium_residual(mj.Constellation(4, [1.0005e7] * 2 + others), h)
    assert far == pytest.approx(1.0005e7, rel=1e-6)
    # The flat mean of +-1e300 is 0, across the sphere from the pair, which
    # is one double star at the pole: it has no chart velocity.
    with pytest.raises(DegenerateConstellation):
        equilibrium_residual(mj.Constellation(4, [1e300, -1e300] + others), h)
    # Near the float limit the mean is taken at a power-of-two scale and
    # does not overflow; the double stars at +-1e308 are too near the pole
    # for a chart velocity.
    with pytest.raises(DegenerateConstellation):
        equilibrium_residual(mj.Constellation(4, [1e308, 1e308, -1e308, -1e308]),
                             builtin_hamiltonian(4, "Sz"))
    # So is a double star whose |z| overflows: its mean is taken at the
    # scale of its larger part.
    z = 1.7e308 + 1.7e308j
    with pytest.raises(DegenerateConstellation):
        equilibrium_residual(mj.Constellation(4, [z, z, 0.3, 0.5j]),
                             builtin_hamiltonian(4, "Sz"))


@pytest.mark.xfail(raises=DegenerateConstellation, strict=True)
def test_equilibrium_residual_of_a_far_double_star():
    # 1e200 and 1e201 group as one double star; the 1e150 pair reads
    # 5.5e150.  At 1e200 every reduced constellation raises.  Each other
    # cluster's keeps the pair twice, where _root_coefficients underflows.
    # The pair's own, [5.5e200, 0.3+0.2j, -0.7+1j], divides by its chart
    # factor (1/5.5e200)**2, which underflows to 0.
    h = builtin_hamiltonian(4, "Sz")
    others = [0.3 + 0.2j, -0.7 + 1j]
    for R in (1e150, 1e200):
        got = equilibrium_residual(mj.Constellation(4, [R, 10.0 * R] + others), h)
        assert got == pytest.approx(5.5 * R, rel=1e-9)


def test_eigenstate_is_equilibrium(rng):
    twoS = 3
    h = hamiltonian(twoS, _random_hermitian(rng, twoS + 1))
    vec = h.evecs[:, 1]
    c = mj.constellation_from_state(mj.SpinState(twoS, vec))
    assert equilibrium_residual(c, h) <= 1e-8


@pytest.mark.parametrize("multiplicity", [2, 3])
def test_equilibrium_residual_matches_symbol_oracle(multiplicity):
    twoS = 16
    rng = np.random.default_rng(2000 + multiplicity)
    z0 = 2.5 - 1.5j  # exact in binary, so the cluster centroid is z0
    for _ in range(4):
        h = _unit_hamiltonian(rng, twoS)
        others = list(rng.normal(size=twoS - multiplicity) + 1j * rng.normal(size=twoS - multiplicity))
        c = mj.Constellation(twoS, [z0] * multiplicity + others, 0)
        want = _mp_symbol_residual([z0] + others, [multiplicity] + [1] * len(others), h)
        assert equilibrium_residual(c, h) == pytest.approx(want, rel=1e-12)


# -- exact propagator ----------------------------------------------------------------


def test_evolve_exact_unitary(rng):
    twoS = 4
    st = random_state(rng, twoS)
    h = hamiltonian(twoS, _random_hermitian(rng, twoS + 1))
    out = evolve_exact(st, h, 0.9)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # energy is conserved
    e0 = st.amplitudes.conj() @ h.matrix @ st.amplitudes
    e1 = out.amplitudes.conj() @ h.matrix @ out.amplitudes
    assert e1.real == pytest.approx(e0.real, abs=1e-12)
    # composition property
    two_leg = evolve_exact(evolve_exact(st, h, 0.4), h, 0.5)
    overlap = abs(np.vdot(two_leg.amplitudes, out.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)


# -- trajectories ---------------------------------------------------------------------


def test_evolve_argument_validation(rng):
    st = random_state(rng, 2)
    h = builtin_hamiltonian(2, "Sz")
    with pytest.raises(ValueError):
        evolve(st, h, -1.0)
    for dt_max in (0.0, 1e-320, math.nan):
        with pytest.raises(ValueError):
            evolve(st, h, 1.0, dt_max=dt_max)
    # A finite but huge step count is refused before its grid is built.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_STEPS"):
            evolve(st, h, 1.0, dt_max=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(ValueError):
        evolve(st, h, 1.0, checkpoints=[2.0])
    with pytest.raises(ValueError):
        evolve(st, h, 1.0, checkpoints=[-0.1])


def test_evolve_time_zero(rng):
    st = random_state(rng, 2)
    traj = evolve(st, builtin_hamiltonian(2, "Sz"), 0.0)
    assert len(traj.times) == 1
    assert traj.times[0] == 0.0
    c0 = mj.constellation_from_state(st)
    # The one snapshot is the state's own constellation, bit for bit.
    assert np.array_equal(traj.snapshots[0].finite_roots, c0.finite_roots)
    assert traj.snapshots[0].infinity_count == c0.infinity_count
    assert matched_distance(traj.at(0.0), c0) <= 1e-12


def test_default_spacing_ignores_the_energy_zero(rng):
    # dt_max defaults to 0.01 over half the spread of the spectrum.  H + c I
    # only turns the global phase, so it keeps every snapshot time.
    st = random_state(rng, 4)
    _, _, sz = mj.spin_matrices(4)
    base = evolve(st, hamiltonian(4, sz), 10.0)
    assert len(base.times) == 2001
    for c in (10.0, 1000.0):
        traj = evolve(st, hamiltonian(4, sz + c * np.eye(5)), 10.0)
        assert np.array_equal(traj.times, base.times), c
        for a, b in zip(traj.snapshots, base.snapshots):
            assert matched_distance(a, b) <= 1e-9
    # Sz^2 at 2S = 1 is I / 4: nothing moves, so only the two ends.
    traj = evolve(mj.coherent_state(1, 0.3), builtin_hamiltonian(1, "Sz2"), 1.0)
    assert traj.times.tolist() == [0.0, 1.0]
    kerr = evolve(mj.coherent_state(4, 0.3), builtin_hamiltonian(4, "Sz2", 0.7), 0.5)
    assert len(kerr.times) == 71


@pytest.mark.parametrize("twoS", [1, 2, 3, 4, 7, 12, 20])
def test_default_spacing_is_one_for_one_spectrum(twoS):
    # Sx, Sy and Sz share the spectrum 0.7 m, which eigh rounds differently
    # for each (at 2S = 12 its ends land on either side of +-4.2); the
    # default times must not see the difference.
    st = mj.coherent_state(twoS, 0.3)
    hs = [builtin_hamiltonian(twoS, name, 0.7) for name in ("Sx", "Sy", "Sz")]
    times = [evolve(st, h, 1.3).times for h in hs]
    assert len(times[2]) == math.ceil(1.3 * 0.7 * twoS / 2 / 0.01 - 1e-9) + 1
    for t in times[:2]:
        assert np.array_equal(t, times[2])


def test_linear_rotation_matches_phase_map(rng):
    omega = 1.1
    st = random_state(rng, 3)
    c0 = mj.constellation_from_state(st)
    if c0.infinity_count:
        pytest.skip("degenerate draw")
    h = builtin_hamiltonian(3, "Sz", omega)
    t_final = 2.0
    traj = evolve(st, h, t_final, checkpoints=np.linspace(0, t_final, 9))
    for t in np.linspace(0, t_final, 9):
        got = traj.at(t)
        want = mj.Constellation(
            3, c0.finite_roots * np.exp(1j * omega * t), c0.infinity_count
        )
        assert matched_distance(got, want) <= 1e-9


def test_linear_evolution_preserves_chords(rng):
    # a Sx + b Sy + c Sz generates a rigid rotation of the sphere
    twoS = 3
    sx, sy, sz = mj.spin_matrices(twoS)
    h = hamiltonian(twoS, 0.4 * sx - 0.8 * sy + 0.3 * sz)
    st = random_state(rng, twoS)
    c0 = mj.constellation_from_state(st)
    traj = evolve(st, h, 1.5)
    z0 = [mj.sphere_to_stereo(p) for p in c0.points()]
    d0 = sorted(
        mj.chordal_distance(z0[i], z0[j])
        for i in range(len(z0))
        for j in range(i + 1, len(z0))
    )
    end = traj.snapshots[-1]
    z1 = [mj.sphere_to_stereo(p) for p in end.points()]
    d1 = sorted(
        mj.chordal_distance(z1[i], z1[j])
        for i in range(len(z1))
        for j in range(i + 1, len(z1))
    )
    assert np.allclose(d0, d1, atol=1e-9)


# Pauli matrices in the ascending-m order of SpinState: (m = -1/2, m = +1/2).
_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [-1j, 0]]),
    np.array([[-1, 0], [0, 1]], dtype=complex),
)


def _mobius_images(c, axis, t):
    """c's stars carried by U = exp(-i t n.sigma / 2): each star z is the
    root of a + b z with spinor (a, b) = (-z, 1), or (1, 0) at infinity,
    and lands at the root -a'/b' of (a', b') = U (a, b), that is at
    (U00 z - U01) / (-U10 z + U11)."""
    n_sigma = sum(n * s for n, s in zip(axis, _SIGMA))
    u = math.cos(t / 2) * np.eye(2) - 1j * math.sin(t / 2) * n_sigma
    spinors = np.r_[np.c_[-c.finite_roots, np.ones(len(c.finite_roots))],
                    np.tile([1.0, 0.0], (c.infinity_count, 1))]
    a, b = u @ spinors.T
    pole = b == 0
    return mj.Constellation(c.label, -a[~pole] / b[~pole], int(pole.sum()))


@pytest.mark.parametrize("twoS", [1, 12, 20, 40])
def test_rigid_rotation_matches_the_mobius_map(twoS):
    # Under H = n.S every star moves as a spin-1/2 spinor under
    # exp(-i t n.sigma / 2), built here from the Pauli matrices and not from
    # the propagator evolve uses.  Over one full turn the 13 snapshots must
    # sit on the Mobius images of the initial stars.  The starts are random
    # amplitudes and, from 2S = 2 on, random amplitudes with both end ones
    # zeroed, whose stars start exactly on both poles; the axes are random
    # and equatorial, whose orbits pass through the pole.
    rng = np.random.default_rng(17000 + twoS)
    sx, sy, sz = mj.spin_matrices(twoS)
    times = np.linspace(0.0, 2.0 * math.pi, 13)
    starts = [random_state(rng, twoS)]
    if twoS >= 2:
        amps = random_state(rng, twoS).amplitudes.copy()
        amps[[0, -1]] = 0.0
        starts.append(mj.SpinState(twoS, amps))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    axes = [rng.normal(size=3), np.array([math.cos(phi), math.sin(phi), 0.0])]
    for st, axis in itertools.product(starts, axes):
        axis = axis / np.linalg.norm(axis)
        h = hamiltonian(twoS, axis[0] * sx + axis[1] * sy + axis[2] * sz)
        traj = evolve(st, h, times[-1], times[-1] / 12, checkpoints=times)
        c0 = mj.constellation_from_state(st)
        for t in times:
            assert matched_distance(traj.at(t), _mobius_images(c0, axis, t)) <= 1e-9, t


@pytest.mark.parametrize("twoS", [12, 20, 21, 39, 40])
def test_kerr_matches_the_closed_form_phases(twoS):
    # Under Sz^2 each amplitude only turns, psi_m -> psi_m e^{-i t m^2}, a
    # closed form that shares no code with the propagator evolve uses.  At
    # t = pi the phases are (-1)^m for integer S, so every star goes to -z,
    # and one global phase for half-integer S; at t = 2pi they are one global
    # phase for every S.  At t = pi/2 a random state and a coherent one (the
    # Kerr cat) must match the stars of their closed-form amplitudes.  At
    # 2S = 40 the default dt_max reaches t = pi in 62 832 steps, but it
    # refuses the full period 2 pi (125 664 steps, over MAX_STEPS).
    rng = np.random.default_rng(17100 + twoS)
    h = builtin_hamiltonian(twoS, "Sz2")
    m = np.arange(twoS + 1) - twoS / 2.0
    st = random_state(rng, twoS)
    c0 = mj.constellation_from_state(st)
    traj = evolve(st, h, 2.0 * math.pi, math.pi / 2.0, checkpoints=[math.pi / 2.0, math.pi])
    turned = mj.Constellation(twoS, -c0.finite_roots, c0.infinity_count)
    assert matched_distance(traj.at(math.pi), c0 if twoS % 2 else turned) <= 1e-9
    assert matched_distance(traj.at(2.0 * math.pi), c0) <= 1e-9
    cat = mj.coherent_state(twoS, 0.6 + 0.2j)
    halfway = evolve(cat, h, math.pi / 2.0, math.pi / 2.0).snapshots[-1]
    for start, c in ((st, traj.at(math.pi / 2.0)), (cat, halfway)):
        amps = start.amplitudes * np.exp(-0.5j * math.pi * m**2)
        assert matched_distance(c, mj.constellation_from_state(mj.SpinState(twoS, amps))) <= 1e-9


def test_eigenstate_stays_put(rng):
    twoS = 3
    h = hamiltonian(twoS, _random_hermitian(rng, twoS + 1))
    vec = h.evecs[:, 2]
    st = mj.SpinState(twoS, vec)
    c0 = mj.constellation_from_state(st)
    traj = evolve(st, h, 1.0)
    assert matched_distance(traj.snapshots[-1], c0) <= 1e-8


def test_energy_conserved_along_trajectory(rng):
    twoS = 3
    h = hamiltonian(twoS, _random_hermitian(rng, twoS + 1))
    st = random_state(rng, twoS)
    c0 = mj.constellation_from_state(st)
    traj = evolve(st, h, 1.0, checkpoints=[0.25, 0.5, 0.75, 1.0])
    def energy(c):
        amps = mj.state_from_constellation(c).amplitudes
        return float((amps.conj() @ h.matrix @ amps).real)
    e0 = energy(c0)
    for t in (0.25, 0.5, 0.75, 1.0):
        assert energy(traj.at(t)) == pytest.approx(e0, abs=1e-8)


def test_checkpoints_are_landed_exactly(rng):
    st = random_state(rng, 2)
    h = builtin_hamiltonian(2, "Sz", 0.9)
    pts = [0.123456, 0.5, 0.777777]
    traj = evolve(st, h, 1.0, checkpoints=pts)
    for t in pts + [0.0, 1.0]:
        assert np.min(np.abs(traj.times - t)) == 0.0


def test_final_step_within_resolution_lands():
    # 120 capped steps of 0.01/1.2 sum to 1 - 2.7e-15, a leftover shorter
    # than the 1e-14 * t_final resolution; it must land, not underflow.
    st = mj.noon_state(3)
    h = builtin_hamiltonian(3, "Sz", 0.8)
    traj = evolve(st, h, 1.0)
    assert traj.times[-1] == 1.0
    assert np.min(np.diff(traj.times)) > 1e-14
    want = mj.constellation_from_state(evolve_exact(st, h, 1.0))
    assert matched_distance(traj.snapshots[-1], want) <= 1e-9


@pytest.mark.parametrize("twoS", range(1, 9))
def test_star_ode_matches_exact_rerooting(twoS):
    # The equations of motion, integrated on their own, carry the stars to
    # the constellation that evolve re-roots from the exact state.
    rng = np.random.default_rng(4000 + twoS)
    t_final = 0.3
    for _ in range(3):
        h = _unit_hamiltonian(rng, twoS)
        st = random_state(rng, twoS)
        c0 = mj.constellation_from_state(st)
        assert c0.infinity_count == 0

        def field(_, w):
            # star_velocities follows the constellation's sorted order.
            v = np.empty_like(w)
            v[np.lexsort((w.imag, w.real))] = star_velocities(mj.Constellation(twoS, w), h)
            return v

        sol = solve_ivp(field, (0.0, t_final), c0.finite_roots, method="DOP853",
                        rtol=1e-12, atol=1e-12)
        assert sol.success
        end = mj.Constellation(twoS, sol.y[:, -1])
        assert matched_distance(end, evolve(st, h, t_final).snapshots[-1]) <= 1e-6


@pytest.mark.parametrize("twoS", [12, 16])
def test_high_spin_evolve_matches_exact(twoS):
    rng = np.random.default_rng(3000 + twoS)
    h = _unit_hamiltonian(rng, twoS)
    st = random_state(rng, twoS)
    checkpoints = np.linspace(0.1, 1.0, 10)
    traj = evolve(st, h, 1.0, checkpoints=checkpoints)
    assert np.isin(checkpoints, traj.times).all()
    # Every snapshot, not only the checkpoints, matches exact re-rooting.
    for t, snap in zip(traj.times, traj.snapshots):
        want = mj.constellation_from_state(evolve_exact(st, h, t))
        assert matched_distance(snap, want) <= 1e-6


def test_kerr_coherent_ignition():
    # A coherent start is maximally degenerate; every snapshot that leaves
    # it must match exact re-rooting, and the stars must then spread.
    chi = 0.7
    st = mj.coherent_state(4, 0.6 + 0.2j)
    h = builtin_hamiltonian(4, "Sz2", chi)
    t_final = 0.1 / chi
    traj = evolve(st, h, t_final)
    for t, snap in zip(traj.times[:10], traj.snapshots[:10]):
        want = mj.constellation_from_state(evolve_exact(st, h, t))
        assert matched_distance(snap, want) <= 1e-6
    c0 = mj.constellation_from_state(st)
    spread0 = _spread(c0)
    spread1 = _spread(traj.snapshots[-1])
    assert spread1 - spread0 > 1e-3
    want = mj.constellation_from_state(evolve_exact(st, h, t_final))
    assert matched_distance(traj.snapshots[-1], want) <= 1e-6


def _spread(c):
    zs = [mj.sphere_to_stereo(p) for p in c.points()]
    return max(
        mj.chordal_distance(zs[i], zs[j])
        for i in range(len(zs))
        for j in range(i + 1, len(zs))
    )


def test_collision_flyby_stays_accurate():
    # psi = (1, sqrt(2) e^{-0.3 i}, 1)/norm under Sz^2: the two stars touch
    # exactly at t = 0.3 (the discriminant crosses zero there).  The
    # contract is accuracy through the touch and on its far side.
    amps = np.array([1.0, math.sqrt(2.0) * np.exp(-0.3j), 1.0])
    st = mj.SpinState(2, amps)
    h = builtin_hamiltonian(2, "Sz2", 1.0)
    traj = evolve(st, h, 0.6)
    near = np.flatnonzero(np.abs(traj.times - 0.3) <= 0.05)
    assert len(near) >= 5
    for k in near:
        want = mj.constellation_from_state(evolve_exact(st, h, traj.times[k]))
        assert matched_distance(traj.snapshots[k], want) <= 1e-6
    want = mj.constellation_from_state(evolve_exact(st, h, 0.6))
    assert matched_distance(traj.snapshots[-1], want) <= 1e-6


def test_pole_crossing_matches_exact():
    # A single star driven by Sx crosses the infinity pole at t = pi, a
    # finite-time blowup of the chart coordinate that the ODE could never
    # land on.  Re-rooting the exact state puts the star on the pole.
    st = mj.basis_state(1, 1)
    h = builtin_hamiltonian(1, "Sx", 1.0)
    t_final = 2.0 * math.pi
    traj = evolve(st, h, t_final, checkpoints=[math.pi])
    assert traj.at(math.pi).infinity_count == 1
    # full turn of a half-integer spin returns the ray to itself
    want = mj.constellation_from_state(evolve_exact(st, h, t_final))
    assert matched_distance(traj.snapshots[-1], want) <= 1e-6


def test_polar_eigenstate_under_sz(rng):
    # |S, -S> maps to all stars at infinity, where they stay.
    st = mj.basis_state(4, -4)
    traj = evolve(st, builtin_hamiltonian(4, "Sz"), 1.0)
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert all(c.infinity_count == 4 for c in traj.snapshots)


# -- matching -------------------------------------------------------------------------


def test_match_stars_with_infinity():
    a = mj.Constellation(3, [0.0, 1.0], 1)
    b = mj.Constellation(3, [1.0 + 1e-9, 1e-9], 1)
    perm = match_stars(a, b)
    assert sorted(perm) == [0, 1, 2]
    assert matched_distance(a, b) <= 1e-8
    # A star at 1e200 is 2e-200 from the pole; |z|^2 would overflow.
    far = mj.Constellation(2, [1e200, 0.5])
    assert matched_distance(far, mj.Constellation(2, [0.5], 1)) <= 1e-199


def _stars(c):
    return list(c.finite_roots) + [mj.INFINITY] * c.infinity_count


@settings(max_examples=60, deadline=None)
@given(
    hst.integers(0, 5), hst.integers(0, 2), hst.integers(0, 2), hst.integers(0, 2**32 - 1)
)
def test_match_stars_is_the_cheapest_permutation(twoS, poles_a, poles_b, seed):
    rng = np.random.default_rng(seed)

    def constellation(poles):
        n = twoS - min(poles, twoS)
        return mj.Constellation(twoS, rng.normal(size=n) + 1j * rng.normal(size=n), twoS - n)

    a, b = constellation(poles_a), constellation(poles_b)
    pa, pb = _stars(a), _stars(b)

    def cost(perm):
        return sum(mj.chordal_distance(pa[i], pb[j]) for i, j in enumerate(perm))

    perm = match_stars(a, b)
    assert sorted(perm) == list(range(twoS))
    best = min(cost(p) for p in itertools.permutations(range(twoS)))
    assert cost(perm) <= best + 1e-12


def test_matched_distance_label_mismatch():
    a = mj.Constellation(2, [0.0, 1.0])
    b = mj.Constellation(3, [0.0, 1.0, 2.0])
    with pytest.raises(LabelMismatch):
        matched_distance(a, b)
