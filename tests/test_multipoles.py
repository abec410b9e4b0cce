"""Multipole spectra, Husimi fields, and angular-momentum coupling."""

import math

import numpy as np
import pytest

import majorana as mj
from majorana.multipoles import (
    MultipoleSpectrum,
    cumulative_quantumness,
    dipole,
    husimi_q,
    multipoles,
    q_grid,
    quadrupole,
    tensor_operator,
)

from oracles import clebsch_gordan, multipoles_by_quadrature, quadrature_kernel
from samples import random_state


# -- Clebsch-Gordan ------------------------------------------------------------


def test_cg_frozen_values():
    # <1/2 1/2; 1/2 -1/2 | 1 0> = 1/sqrt(2)
    assert clebsch_gordan(1, 1, 1, -1, 2, 0) == pytest.approx(1 / math.sqrt(2))
    # stretched state is exact: <1 1; 1 1 | 2 2> = 1
    assert clebsch_gordan(2, 2, 2, 2, 4, 4) == 1.0
    # <1/2 1/2; 1/2 1/2 | 1 1> = 1
    assert clebsch_gordan(1, 1, 1, 1, 2, 2) == 1.0
    # <1 0; 1 0 | 2 0> = sqrt(2/3)
    assert clebsch_gordan(2, 0, 2, 0, 4, 0) == pytest.approx(math.sqrt(2 / 3))
    # <1 1; 1 -1 | 0 0> = 1/sqrt(3)
    assert clebsch_gordan(2, 2, 2, -2, 0, 0) == pytest.approx(1 / math.sqrt(3))


def test_cg_selection_rules_return_zero():
    assert clebsch_gordan(1, 1, 1, 1, 2, 0) == 0.0       # M != m1 + m2
    assert clebsch_gordan(2, 0, 2, 0, 6, 0) == 0.0       # triangle violated
    assert clebsch_gordan(2, 4, 2, -4, 4, 0) == 0.0      # |m| > j
    assert clebsch_gordan(2, 0, 2, 0, 2, 0) == 0.0       # antisymmetric combo


def test_cg_malformed_input_raises():
    with pytest.raises(ValueError):
        clebsch_gordan(-2, 0, 2, 0, 2, 0)
    with pytest.raises(ValueError):
        clebsch_gordan(2, 1, 2, 0, 4, 1)  # m parity breaks j parity
    with pytest.raises(ValueError):
        clebsch_gordan(1.5, 0.5, 1, 0, 2, 0)


def test_cg_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy import S
    from sympy.physics.quantum.cg import CG

    rng = np.random.default_rng(11)
    checked = 0
    while checked < 60:
        two_j1, two_j2 = rng.integers(0, 7, size=2)
        two_J = rng.integers(abs(two_j1 - two_j2), two_j1 + two_j2 + 1)
        if (two_j1 + two_j2 + two_J) % 2:
            continue
        two_m1 = rng.integers(-two_j1, two_j1 + 1)
        if (two_m1 + two_j1) % 2:
            continue
        two_m2 = rng.integers(-two_j2, two_j2 + 1)
        if (two_m2 + two_j2) % 2:
            continue
        two_M = two_m1 + two_m2
        if abs(two_M) > two_J:
            continue
        ref = float(
            CG(
                S(two_j1) / 2, S(two_m1) / 2,
                S(two_j2) / 2, S(two_m2) / 2,
                S(two_J) / 2, S(two_M) / 2,
            ).doit()
        )
        got = clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_J, two_M)
        assert got == pytest.approx(ref, abs=1e-13)
        checked += 1


# -- tensor operators ------------------------------------------------------------


def test_tensor_operator_frozen():
    t00 = tensor_operator(2, 0, 0)
    assert np.allclose(t00, np.eye(3) / math.sqrt(3), atol=1e-14)
    _, _, sz = mj.spin_matrices(2)
    t10 = tensor_operator(2, 1, 0)
    assert np.allclose(t10, sz / math.sqrt(2), atol=1e-14)


def test_tensor_operator_orthonormal():
    for twoS in (3, 8):
        ops = {}
        for K in range(twoS + 1):
            for q in range(-K, K + 1):
                ops[(K, q)] = tensor_operator(twoS, K, q)
        for (k1, q1), a in ops.items():
            for (k2, q2), b in ops.items():
                want = 1.0 if (k1, q1) == (k2, q2) else 0.0
                assert np.trace(a.conj().T @ b) == pytest.approx(want, abs=1e-12)


def test_tensor_operator_range_errors():
    with pytest.raises(ValueError):
        tensor_operator(2, 3, 0)
    with pytest.raises(ValueError):
        tensor_operator(2, 1, 2)
    with pytest.raises(ValueError):
        tensor_operator(2, -1, 0)


def test_tensor_adjoint_symmetry():
    # T_Kq^dag = (-1)^q T_K,-q
    for K in range(1, 4):
        for q in range(-K, K + 1):
            a = tensor_operator(4, K, q).conj().T
            b = (-1.0) ** q * tensor_operator(4, K, -q)
            assert np.allclose(a, b, atol=1e-13)


def _exact_entry(twoS, K, q, k):
    """Entry (k + q, k) of T_Kq from the exact Clebsch-Gordan value."""
    pref = math.sqrt((2 * K + 1) / (twoS + 1))
    return pref * clebsch_gordan(twoS, 2 * k - twoS, 2 * K, 2 * q, twoS, 2 * (k + q) - twoS)


def test_tensor_table_matches_clebsch_gordan():
    for twoS in range(13):
        for K in range(twoS + 1):
            for q in range(-K, K + 1):
                got = np.diagonal(tensor_operator(twoS, K, q), -q).real
                ks = range(max(0, -q), twoS + 1 - max(0, q))
                want = [_exact_entry(twoS, K, q, k) for k in ks]
                assert np.abs(got - want).max() < 1e-14, (twoS, K, q)


@pytest.mark.parametrize("twoS", [20, 40])
def test_tensor_table_samples_match_clebsch_gordan(twoS):
    rng = np.random.default_rng(twoS)
    for _ in range(300):
        K = int(rng.integers(0, twoS + 1))
        q = int(rng.integers(-K, K + 1))
        k = int(rng.integers(max(0, -q), twoS + 1 - max(0, q)))
        got = tensor_operator(twoS, K, q)[k + q, k].real
        assert abs(got - _exact_entry(twoS, K, q, k)) < 1e-14, (K, q, k)


@pytest.mark.parametrize("twoS", [60, 80])
def test_tensor_table_ladder_at_high_spin(twoS):
    # No exact fill is practical here: check orthonormality, the S_z and
    # ladder commutators and T_KK = (-1)^K (S+)^K / ||(S+)^K||.  Here the end
    # entries of high-K rows fall below the eigensolver's absolute accuracy
    # (~1e-19 at 2S = 80), so a sign read from them alone flips whole rows.
    d = twoS + 1
    sx, sy, sz = mj.spin_matrices(twoS)
    sp, sz = (sx + 1j * sy).real, sz.real
    ops = {(K, q): tensor_operator(twoS, K, q).real for K in range(d) for q in range(-K, K + 1)}
    for q in range(-twoS, twoS + 1):
        diagonals = np.array([np.diagonal(ops[K, q], -q) for K in range(abs(q), d)])
        gram = diagonals @ diagonals.T
        assert np.abs(gram - np.eye(len(gram))).max() < 1e-13, q
    power = np.eye(d)
    for K in range(d):
        want = (-1.0) ** K * power / np.linalg.norm(power)
        assert np.abs(ops[K, K] - want).max() < 1e-13, K
        power = power @ sp
        for q in range(-K, K + 1):
            t = ops[K, q]
            assert np.abs(sz @ t - t @ sz - q * t).max() < 1e-13
            # [S+, T_Kq] = c T_K,q+1 and [S-, T_Kq] = c' T_K,q-1, to rounding
            # of the products; a flipped row misses by about 2c.
            for ladder, step in ((sp, 1), (sp.T, -1)):
                left, right = ladder @ t, t @ ladder
                miss = left - right
                if abs(q + step) <= K:
                    miss -= math.sqrt(K * (K + 1) - q * (q + step)) * ops[K, q + step]
                scale = np.linalg.norm(left) + np.linalg.norm(right)
                assert np.linalg.norm(miss) <= 2e-13 * scale, (K, q, step)


# -- spectra ----------------------------------------------------------------------


def test_basis_state_spectrum_frozen():
    spec = multipoles(mj.basis_state(2, 0))
    assert spec.w[1] == pytest.approx(0.0, abs=1e-14)
    assert spec.A[1] == pytest.approx(0.0, abs=1e-14)
    assert spec.w[0] == pytest.approx(1 / 3)
    assert spec.A[2] == pytest.approx(2 / 3)


def test_purity_identity(rng):
    for twoS in (1, 2, 3, 5, 8, 20, 40):
        spec = multipoles(random_state(rng, twoS))
        assert spec.w.sum() == pytest.approx(1.0, abs=1e-12)
        assert spec.A[twoS] == pytest.approx(twoS / (twoS + 1), abs=1e-12)
        assert spec.w[0] == pytest.approx(1.0 / (twoS + 1), abs=1e-14)


def test_qubit_w1_is_constant(rng):
    for _ in range(10):
        spec = multipoles(random_state(rng, 1))
        assert spec.w[1] == pytest.approx(0.5, abs=1e-13)


def test_spectrum_from_density_matrix(rng):
    st = random_state(rng, 3)
    a = multipoles(st)
    b = multipoles(st.density_matrix())
    for (k1, q1, v1), (k2, q2, v2) in zip(a.items(), b.items()):
        assert (k1, q1) == (k2, q2)
        assert v1 == pytest.approx(v2, abs=1e-12)
    rho = st.density_matrix()
    skew = 1e-3j * np.diag(np.arange(4.0))
    nan, inf = rho.copy(), rho.copy()
    nan[0, 0], inf[1, 2] = np.nan, np.inf
    for bad, why in (
        (rho[:, :3], "square"),
        (nan, "finite"),
        (inf, "finite"),
        (rho + skew, "Hermitian"),
        (2.0 * rho, "trace"),
    ):
        with pytest.raises(ValueError, match=why):
            multipoles(bad)


def test_spectrum_linear_in_density_matrix(rng):
    s1, s2 = random_state(rng, 2), random_state(rng, 2)
    mix = 0.25 * s1.density_matrix() + 0.75 * s2.density_matrix()
    got = multipoles(mix)
    a, b = multipoles(s1), multipoles(s2)
    for K in range(3):
        for q in range(-K, K + 1):
            want = 0.25 * a.component(K, q) + 0.75 * b.component(K, q)
            assert got.component(K, q) == pytest.approx(want, abs=1e-12)


def test_maximally_mixed_has_no_structure():
    spec = multipoles(np.eye(5) / 5.0)
    for K in range(1, 5):
        for q in range(-K, K + 1):
            assert abs(spec.component(K, q)) < 1e-14


def test_multipole_lengths_rotation_invariant(rng):
    for twoS in (5, 20, 40):
        st = random_state(rng, twoS)
        base = multipoles(st).w
        for theta, phi in [(0.7, 0.3), (2.4, 5.1), (1.2, 3.3)]:
            w = multipoles(mj.rotate(st, theta, phi)).w
            assert np.allclose(w, base, atol=1e-10)


def test_spectrum_matches_dense_trace_at_high_spin(rng):
    # rho_Kq = Tr(rho T_Kq^dag) from the dense tensor matrices, for a pure
    # state and a rank-3 density matrix.
    for twoS in (20, 40):
        d = twoS + 1
        st = random_state(rng, twoS)
        vecs = [random_state(rng, twoS).amplitudes for _ in range(3)]
        mix = sum(p * np.outer(v, v.conj()) for p, v in zip((0.5, 0.3, 0.2), vecs))
        for state, dm in ((st, st.density_matrix()), (mix, mix)):
            spec = multipoles(state)
            for K in range(d):
                for q in range(-K, K + 1):
                    want = np.trace(dm @ tensor_operator(twoS, K, q).conj().T)
                    assert abs(spec.component(K, q) - want) < 1e-13


def test_cumulative_quantumness_monotone(rng):
    st = random_state(rng, 6)
    spec = multipoles(st)
    values = [cumulative_quantumness(spec, M) for M in range(1, 7)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(spec.A[6])
    with pytest.raises(ValueError):
        cumulative_quantumness(spec, 0)
    with pytest.raises(ValueError):
        cumulative_quantumness(spec, 7)


def test_spectrum_items_canonical_order(rng):
    spec = multipoles(random_state(rng, 3))
    keys = [(k, q) for k, q, _ in spec.items()]
    want = [(k, q) for k in range(4) for q in range(-k, k + 1)]
    assert keys == want
    for K, q in ((4, 0), (-1, 0), (2, 3)):
        with pytest.raises(ValueError, match="out of range"):
            spec.component(K, q)


# -- Husimi field -----------------------------------------------------------------


def test_husimi_qubit_frozen():
    # Q of |1/2, +1/2> is sin^2(theta/2) in these coordinates.
    up = mj.basis_state(1, 1)
    for theta in (0.0, 0.7, math.pi / 2, 2.5, math.pi):
        got = husimi_q(up, (theta, 0.3))
        assert got == pytest.approx(math.sin(theta / 2.0) ** 2, abs=1e-13)


def test_husimi_peaks_at_coherent_center():
    z0 = 0.4 - 0.9j
    st = mj.coherent_state(6, z0)
    assert husimi_q(st, mj.stereo_to_sphere(z0)) == pytest.approx(1.0, abs=1e-13)


def test_husimi_zero_at_conjugated_star():
    st = mj.noon_state(2)
    # stars at z = +-1; their conjugates are the same points on the equator
    assert husimi_q(st, (math.pi / 2, 0.0)) < 1e-18
    assert husimi_q(st, (math.pi / 2, math.pi)) < 1e-18


def test_husimi_zeros_for_random_states(rng):
    for _ in range(5):
        st = random_state(rng, 6)
        c = mj.constellation_from_state(st)
        for z in c.finite_roots:
            p = mj.stereo_to_sphere(np.conj(z))
            assert husimi_q(st, p) <= 1e-18


def test_husimi_at_pole():
    # Q at the exact poles is the weight of the polar basis state.
    rng = np.random.default_rng(3)
    for twoS in (1, 4, 12):
        st = random_state(rng, twoS)
        for phi in (0.0, *rng.uniform(0.0, 2.0 * math.pi, 3)):
            assert husimi_q(st, (0.0, phi)) == pytest.approx(
                abs(st.amplitudes[0]) ** 2, abs=1e-15
            )
            assert husimi_q(st, (math.pi, phi)) == pytest.approx(
                abs(st.amplitudes[-1]) ** 2, abs=1e-15
            )


# -- Q grids -----------------------------------------------------------------------


def test_q_grid_validation(rng):
    st = random_state(rng, 2)
    with pytest.raises(ValueError):
        q_grid(st, 1, 8)
    with pytest.raises(ValueError):
        q_grid(st, 8, 1)


def test_q_grid_matches_pointwise(rng):
    st = random_state(rng, 3)
    grid = q_grid(st, 5, 6)
    for i, theta in enumerate(grid.theta_nodes):
        for j, phi in enumerate(grid.phi_nodes):
            assert grid.values[i, j] == pytest.approx(
                husimi_q(st, (theta, phi)), abs=1e-13
            )


def test_q_grid_normalization(rng):
    # (2S+1)/(4 pi) * integral of Q over the sphere is 1, and the
    # Gauss-Legendre x uniform grid integrates it exactly once the grid
    # resolves degree 4S.
    for twoS in (1, 2, 4, 7):
        st = random_state(rng, twoS)
        grid = q_grid(st, 2 * twoS + 2, 4 * twoS + 1)
        total = grid.integral() * (twoS + 1) / (4.0 * math.pi)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_q_grid_coherent_max_near_one(rng):
    st = mj.coherent_state(4, 0.3 + 0.8j)
    grid = q_grid(st, 64, 128)
    assert 0.999 <= grid.values.max() <= 1.0 + 1e-12


# -- integral route ----------------------------------------------------------------


def test_integral_multipoles_match_trace(rng):
    states = [
        mj.coherent_state(4, 0.8 - 0.1j),
        mj.noon_state(6),
        random_state(rng, 3),
        random_state(rng, 8),
        random_state(rng, 12),
    ]
    for st in states:
        assert np.abs(multipoles(st).rho - multipoles_by_quadrature(st)).max() < 1e-9


@pytest.mark.parametrize("twoS", [1, 2, 12, 20, 30])
def test_integral_multipoles_conditioning(rng, twoS):
    # The quadrature's rounding is amplified by the order-K constant, which
    # reaches 2.3e3, 6.7e5 and 7.6e8 at K = 2S for 2S = 12, 20 and 30.  At
    # 2S = 1 and 2 the grid is smallest: 2 x 5 and 3 x 9 nodes.
    eps = np.finfo(float).eps
    bound = [1e3 * eps * max(1.0, quadrature_kernel(twoS, K)) for K in range(twoS + 1)]
    states = [
        random_state(rng, twoS),
        mj.noon_state(twoS),
        mj.basis_state(twoS, -twoS),
        mj.coherent_state(twoS, 0.6 + 0.3j),
        mj.coherent_state(twoS, 30.0),  # peaked near a pole: the worst case
    ]
    for st in states:
        miss = np.abs(multipoles(st).rho - multipoles_by_quadrature(st)).max(axis=1)
        assert np.all(miss <= bound)


# -- moments -----------------------------------------------------------------------


def test_dipole_of_basis_states():
    for twoS, two_m in [(2, 2), (2, 0), (4, 4), (4, -2), (5, 3)]:
        d = dipole(mj.basis_state(twoS, two_m))
        S, m = twoS / 2.0, two_m / 2.0
        assert np.allclose(d, [0.0, 0.0, -m / (S + 1.0)], atol=1e-12)


def test_dipole_of_coherent_state():
    # Chart point z0 = 1 is (pi/2, 0); the mean direction is +x with the
    # classical S/(S+1) shortening.
    d = dipole(mj.coherent_state(2, 1.0))
    assert np.allclose(d, [0.5, 0.0, 0.0], atol=1e-12)
    d = dipole(mj.coherent_state(4, 1.0))
    assert np.allclose(d, [2.0 / 3.0, 0.0, 0.0], atol=1e-12)


def test_quadrupole_of_noon_state():
    q = quadrupole(mj.noon_state(2))
    assert np.allclose(q, np.diag([-0.4, 0.2, 0.2]), atol=1e-12)
    assert np.trace(q) == pytest.approx(0.0, abs=1e-12)


def _q_moments(state):
    """Dipole and quadrupole by quadrature of Q n_i and Q n_i n_j; this grid
    integrates both exactly."""
    twoS = state.label.twoS
    grid = q_grid(state, twoS + 4, twoS + 5)
    x, s = np.cos(grid.theta_nodes)[:, None], np.sin(grid.theta_nodes)[:, None]
    n = np.broadcast_arrays(s * np.cos(grid.phi_nodes), s * np.sin(grid.phi_nodes), x)
    weighted = grid.values * grid.theta_weights[:, None] * grid.phi_weight
    total = weighted.sum()
    first = np.array([np.sum(weighted * a) for a in n]) / total
    second = np.array([[np.sum(weighted * a * b) for b in n] for a in n]) / total
    return first, 3.0 * second - np.eye(3)


def test_moments_match_q_quadrature(rng):
    for twoS in (1, 2, 5, 12, 40):
        states = [
            random_state(rng, twoS),
            mj.coherent_state(twoS, 0.6 - 1.3j),
            mj.basis_state(twoS, twoS - 2 * (twoS // 3)),
            mj.noon_state(twoS),
        ]
        for st in states:
            first, second = _q_moments(st)
            assert np.abs(dipole(st) - first).max() < 1e-12
            assert np.abs(quadrupole(st) - second).max() < 1e-12


def test_quadrupole_symmetric(rng):
    q = quadrupole(random_state(rng, 5))
    assert np.allclose(q, q.T, atol=1e-12)
    assert np.trace(q) == pytest.approx(0.0, abs=1e-10)
