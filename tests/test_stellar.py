"""States, constellations, and the maps between them."""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from numpy.polynomial.polynomial import polyval

import majorana as mj
from majorana import rootfinding, stellar
from majorana.errors import LabelMismatch, NonConvergence
from majorana.rootfinding import _root_coefficients

from oracles import vieta
from samples import random_state


def test_spin_label_basics():
    lab = mj.SpinLabel(5)
    assert lab.S == 2.5
    assert lab.dim == 6
    with pytest.raises(ValueError):
        mj.SpinLabel(-1)
    # One integer rule: Python and numpy integers, never a bool of either kind.
    assert mj.SpinLabel(np.int64(5)) == lab and type(mj.SpinLabel(np.int64(5)).twoS) is int
    for bad in (True, False, np.True_, 2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="twoS must be a nonnegative integer"):
            mj.SpinLabel(bad)


def test_spin_state_normalizes_and_is_immutable():
    st = mj.SpinState(1, np.array([3.0, 4.0], dtype=complex))
    assert np.isclose(np.linalg.norm(st.amplitudes), 1.0)
    assert np.isclose(abs(st.amplitudes[0]), 0.6)
    with pytest.raises(ValueError):
        st.amplitudes[0] = 1.0


def test_state_and_polynomial_copy_the_callers_array(rng):
    unit = rng.normal(size=5) + 1j * rng.normal(size=5)
    unit /= np.linalg.norm(unit)
    for values in (np.array([1, 0, 0], dtype=complex), unit):
        given = values.copy()
        state = mj.SpinState(len(values) - 1, given)
        stored = state.amplitudes
        # Every bit of a unit-norm input is kept, in an array of its own.
        assert np.array_equal(stored, values)
        assert stored is not given and not stored.flags.writeable
        assert given.flags.writeable
        given[:] = 7.0
        assert np.array_equal(stored, values)
        # The polynomial's 2S + 1 coefficients are sqrt(C(2S, k)) psi_k, in
        # a read-only array that shares no memory with the state's.
        f = mj.stellar_polynomial(state)
        twoS = len(values) - 1
        want = [math.sqrt(math.comb(twoS, k)) * v for k, v in enumerate(values)]
        assert np.array_equal(f, want)
        assert not f.flags.writeable
        assert not np.shares_memory(f, stored)
        assert np.array_equal(stored, values)


def test_spin_state_rejects_bad_input():
    with pytest.raises(ValueError):
        mj.SpinState(2, np.zeros(3, dtype=complex))
    # The last is finite, but its modulus is past the largest double, so the
    # state cannot be normalized.
    for bad in (np.nan, np.inf, complex(0.0, np.nan), complex(1.0, -np.inf),
                complex(1.7e308, 1.7e308)):
        with pytest.raises(ValueError, match="must be finite"):
            mj.SpinState(2, np.array([1.0, bad, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        mj.SpinState(2, np.ones(2, dtype=complex))


def test_huge_amplitudes_normalize_without_overflow():
    # Vieta coefficients of far-flung stars reach 1e200 and beyond; the
    # norm must not overflow on the way down to 1.
    st = mj.SpinState(2, np.array([1e200, 1e200 + 0j, 1e199]))
    assert np.isclose(np.linalg.norm(st.amplitudes), 1.0)


def test_elementary_symmetric_frozen():
    c = _root_coefficients(np.array([1.0, 2.0, 3.0], dtype=complex), 3)
    assert np.allclose(c, [-6.0, 11.0, -6.0, 1.0])


def _scaled_vieta_loop(roots):
    # Reference: scale to unit peak before a step that would take the running
    # product of the factors 1 + |w| past 1e200.
    e = np.zeros(len(roots) + 1, dtype=complex)
    e[0] = 1.0
    bound = 1.0
    for j, w in enumerate(roots):
        if bound * (1.0 + abs(w)) > 1e200:
            e /= np.abs(e).max()
            bound = 1.0
        e[1 : j + 2] = e[1 : j + 2] + w * e[0 : j + 1]
        bound *= 1.0 + abs(w)
    return e


def test_scaled_vieta_matches_loop_reference(rng):
    # Magnitudes up to 1e30 over up to 44 roots: the scaling fires in about
    # 60% of the draws, and more than once in about a quarter.
    for _ in range(300):
        n = int(rng.integers(1, 45))
        roots = 10.0 ** rng.uniform(-8, 30, size=n) * (rng.normal(size=n) + 1j * rng.normal(size=n))
        got = _root_coefficients(roots, n)
        signs = (-1.0) ** np.arange(n, -1, -1)  # c_k = (-1)^(r - k) e_(r - k)
        assert np.array_equal(got, signs * _scaled_vieta_loop(roots)[::-1])


@pytest.mark.parametrize("roots", [
    [1e160, 2e160, 0.5, 1j],
    [2e155, 3e155j, 1e-3],
    # Near the float limit, where the running bound times 1 + |w| can be inf.
    [1e300, -1e300j, 0.5],
    [1.7e308, 2.0, 1j],
    [1e250, 3.0, -2j, 0.1],
    # |w| past the float limit, and |Re w| + |Im w| past it.
    [1.5e308 + 1.5e308j],
    [9e307 + 9e307j],
    [1e308 + 1e308j, 1j, 2.0],
])
def test_vieta_scales_down_before_a_step_that_would_overflow(roots):
    # 1e160 * 2e160 is beyond the largest double, so the coefficients are
    # scaled down before that step, not after it.  The suite makes a
    # RuntimeWarning an error, so an overflow on the way fails here too.
    n = len(roots)
    state = mj.state_from_constellation(mj.Constellation(n, roots))
    with mpmath.workdps(60):
        f = vieta(roots, 60)
        amps = [f[k] / mpmath.sqrt(math.comb(n, k)) for k in range(n + 1)]
        norm = mpmath.sqrt(sum(abs(a) ** 2 for a in amps))
        want = np.array([complex(a / norm) for a in amps])
    assert np.isfinite(state.amplitudes).all()
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)
    assert np.abs(state.amplitudes - want).max() <= 1e-15


def test_stereo_projection_frozen_points():
    p = mj.stereo_to_sphere(1j)
    assert p.theta == pytest.approx(math.pi / 2)
    assert p.phi == pytest.approx(3 * math.pi / 2)
    assert mj.stereo_to_sphere(0).theta == 0.0
    assert mj.stereo_to_sphere(mj.INFINITY).theta == pytest.approx(math.pi)
    # A phi just below 0 wraps to one that rounds to 2 pi, which is read as 0.
    assert mj.SpherePoint(1.0, -1e-18).phi == 0.0
    assert mj.stereo_to_sphere(1 + 1e-20j).phi == 0.0
    # A finite z whose modulus overflows is next to the pole.
    far = 1.7e308 + 1.7e308j
    assert mj.stereo_to_sphere(far) == mj.SpherePoint(math.pi, 7 * math.pi / 4)
    assert mj.Constellation(2, [far, 1.0]).points()[1].theta == math.pi
    for theta in (-1e-9, math.pi + 1e-9):
        with pytest.raises(ValueError, match="theta out of"):
            mj.SpherePoint(theta, 0.0)
    for phi in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="phi must be finite"):
            mj.SpherePoint(0.5, phi)


def test_stereo_round_trip(rng):
    for _ in range(200):
        z = complex(*rng.normal(scale=3.0, size=2))
        back = mj.sphere_to_stereo(mj.stereo_to_sphere(z))
        assert abs(back - z) <= 1e-12 * (1.0 + abs(z))


def test_chordal_distance_cases():
    assert mj.chordal_distance(0.0, mj.INFINITY) == pytest.approx(2.0)
    assert mj.chordal_distance(mj.INFINITY, mj.INFINITY) == 0.0
    assert mj.chordal_distance(0.7 - 0.2j, 0.7 - 0.2j) == 0.0
    assert mj.chordal_distance(0.0, 1.0) == pytest.approx(math.sqrt(2.0))
    # Antipodal pairs are at the diameter.
    z = 0.8 + 0.3j
    assert mj.chordal_distance(z, -1.0 / np.conj(z)) == pytest.approx(2.0)
    # Far points: |z|^2 would overflow.
    assert mj.chordal_distance(1e200, 1.0) == pytest.approx(math.sqrt(2.0))
    assert mj.chordal_distance(1e200, mj.INFINITY) == pytest.approx(0.0, abs=1e-199)
    assert mj.chordal_distance(1e300, -1e300) == pytest.approx(0.0, abs=1e-299)
    # |z| itself overflows.
    assert mj.chordal_distance(1.7e308 + 1.7e308j, 1.0) == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan)])
def test_nan_is_no_point_on_the_sphere(z):
    # Only an infinite z is the pole, inf + nan i included (cmath.isinf);
    # a nan is refused, not sent there.
    with pytest.raises(ValueError, match="nan"):
        mj.coherent_state(2, z)
    with pytest.raises(ValueError, match="nan"):
        mj.stereo_to_sphere(z)
    with pytest.raises(ValueError, match="nan"):
        mj.chordal_distance(z, 0.0)
    for pole in (complex(math.inf, 1.0), complex(0.0, -math.inf), complex(-math.inf, math.nan)):
        assert mj.stereo_to_sphere(pole).theta == math.pi
        assert mj.chordal_distance(pole, mj.INFINITY) == 0.0
        assert abs(mj.overlap(mj.coherent_state(2, pole), mj.basis_state(2, 2))) == 1.0


_SPHERE_POINTS = hst.one_of(
    hst.just(mj.INFINITY),
    hst.just(0j),
    hst.builds(
        lambda e, t: 10.0 ** e * cmath.exp(1j * t),
        hst.floats(-300.0, 300.0),
        hst.floats(0.0, 2.0 * math.pi),
    ),
)


def _embedded(z):
    p = mj.stereo_to_sphere(z)
    s = math.sin(p.theta)
    return np.array([s * math.cos(p.phi), s * math.sin(p.phi), math.cos(p.theta)])


@settings(max_examples=200, deadline=None)
@given(_SPHERE_POINTS, _SPHERE_POINTS)
def test_chordal_distance_is_the_embedded_chord(a, b):
    d = mj.chordal_distance(a, b)
    assert d == mj.chordal_distance(b, a)
    assert 0.0 <= d <= 2.0
    # Both routes round: each is up to 6 eps off a 40-digit chord near the
    # unit circle, so 1e-15 would fail about one pair in a thousand there.
    assert abs(d - np.linalg.norm(_embedded(a) - _embedded(b))) <= 16 * np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(_SPHERE_POINTS)
@example(0j)
@example(1e-320)
@example(1.7e308 + 1.7e308j)  # |z| overflows
@example(np.array(1e308 + 1e308j))  # 0-d
def test_spinors_are_the_unit_pair(z):
    # u and v lie within 4 eps relative of the 50-digit (1, z) / sqrt(1 +
    # |z|^2), the pole is exactly (0, 1), and u^2 + |v|^2 = 1 within 4 eps.
    eps = np.finfo(float).eps
    u, v = (complex(x) for x in stellar._spinors(z))
    z = complex(z)
    if cmath.isinf(z):
        assert (u, v) == (0.0, 1.0)
    else:
        with mpmath.workdps(50):
            zm = mpmath.mpc(z)
            norm = mpmath.sqrt(1 + abs(zm) ** 2)
            for got, exact in ((u, 1 / norm), (v, zm / norm)):
                assert abs(mpmath.mpc(got) - exact) <= 4 * eps * abs(exact), (z, got)
    assert abs(u.real**2 + v.real**2 + v.imag**2 - 1.0) <= 4 * eps


def test_spin_matrix_algebra():
    for twoS in (1, 2, 5):
        sx, sy, sz = mj.spin_matrices(twoS)
        S = twoS / 2.0
        assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
        assert np.allclose(np.diag(sz), np.arange(-S, S + 1))
        casimir = sx @ sx + sy @ sy + sz @ sz
        assert np.allclose(casimir, S * (S + 1) * np.eye(twoS + 1), atol=1e-12)


def test_basis_state_validation():
    st = mj.basis_state(4, 4)
    assert st.amplitudes[-1] == 1.0
    with pytest.raises(ValueError):
        mj.basis_state(4, 3)  # parity mismatch with twoS
    with pytest.raises(ValueError):
        mj.basis_state(4, 6)
    # 2m is an integer, as 2S is: a float or a bool is refused by name.
    for two_m in (0.0, 2.0, True, np.float64(0.0)):
        with pytest.raises(ValueError, match="two_m must be an integer"):
            mj.basis_state(2, two_m)
    assert mj.basis_state(2, np.int64(2)).amplitudes[-1] == 1.0


def test_coherent_state_collapsed_star():
    z0 = 0.6 + 0.2j
    c = mj.constellation_from_state(mj.coherent_state(4, z0))
    assert c.infinity_count == 0
    assert np.allclose(c.finite_roots, -1.0 / z0, atol=1e-10)
    # At the origin of the chart the coherent state is the extremal state,
    # and next to the pole, where |z0| overflows or nearly does, the other one.
    assert abs(mj.overlap(mj.coherent_state(3, 0.0), mj.basis_state(3, -3))) == 1.0
    for z in (1.7e308 + 1.7e308j, 1e308 + 1e308j):
        assert abs(mj.overlap(mj.coherent_state(2, z), mj.basis_state(2, 2))) == pytest.approx(1.0)
    # f = (u + v z)**2S has the single root -1/z0, 2S times over.  Away from
    # |z0| = 1 one end of f falls many decades below the other; no end
    # coefficient may pin a star at a pole or split the star into a ring.
    z0 = np.outer(np.logspace(-3, 3, 13), np.exp(1j * np.array([0.3, 2.0, 4.4]))).ravel()
    for twoS in (1, 2, 5, 12, 20, 21, 30, 37, 40):
        got = mj.constellations_from_states([mj.coherent_state(twoS, z) for z in z0])
        for z, c in zip(z0, got):
            assert c.infinity_count == 0, (twoS, z)
            assert np.all(c.finite_roots == c.finite_roots[0]), (twoS, z)
            assert mj.chordal_distance(c.finite_roots[0], -1.0 / z) <= 1e-12, (twoS, z)


def test_coherent_state_is_rotated_pole_state(rng):
    for _ in range(10):
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0.0, 2 * math.pi)
        z0 = math.tan(theta / 2.0) * np.exp(-1j * phi)
        a = mj.coherent_state(5, z0)
        b = mj.rotate(mj.basis_state(5, -5), theta, phi)
        assert abs(mj.overlap(a, b)) == pytest.approx(1.0, abs=1e-12)


def test_rotation_about_z_spins_stars(rng):
    st = random_state(rng, 4)
    alpha = 0.813
    before = mj.constellation_from_state(st).finite_roots
    after = mj.constellation_from_state(mj.rotate(st, 0.0, alpha)).finite_roots
    expected = np.sort_complex(before * np.exp(-1j * alpha))
    assert np.allclose(np.sort_complex(after), expected, atol=1e-10)


def test_rotation_preserves_star_geometry(rng):
    # Rotations are rigid: the multiset of pairwise chordal distances of
    # the constellation is invariant.
    st = random_state(rng, 6)

    def chords(state):
        pts = mj.constellation_from_state(state).finite_roots
        out = []
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                out.append(mj.chordal_distance(pts[i], pts[j]))
        return np.sort(np.array(out))

    base = chords(st)
    for theta, phi in [(0.3, 1.2), (2.1, 4.9), (1.5707, 0.0)]:
        assert np.allclose(chords(mj.rotate(st, theta, phi)), base, atol=1e-9)


def test_noon_stars_are_roots_of_unity():
    for twoS in (2, 3, 6, 9):
        c = mj.constellation_from_state(mj.noon_state(twoS))
        assert c.infinity_count == 0
        expected = np.exp(2j * np.pi * np.arange(twoS) / twoS)
        got = sorted(c.finite_roots, key=lambda z: np.angle(z))
        want = sorted(expected, key=lambda z: np.angle(z))
        assert np.allclose(got, want, atol=1e-10)
    with pytest.raises(ValueError, match="2S >= 1"):
        mj.noon_state(0)


def test_polar_basis_state_constellations():
    top = mj.constellation_from_state(mj.basis_state(6, 6))
    assert top.infinity_count == 0 and np.all(top.finite_roots == 0.0)
    bottom = mj.constellation_from_state(mj.basis_state(6, -6))
    assert bottom.infinity_count == 6 and len(bottom.finite_roots) == 0
    # |S, m> splits its stars between the two poles.
    middle = mj.constellation_from_state(mj.basis_state(4, 0))
    assert middle.infinity_count == 2
    assert np.all(middle.finite_roots == 0.0) and len(middle.finite_roots) == 2
    for twoS in (1, 12, 40):
        basis = [mj.basis_state(twoS, 2 * k - twoS) for k in range(twoS + 1)]
        for k, c in enumerate(mj.constellations_from_states(basis)):
            assert c.infinity_count == twoS - k and len(c.finite_roots) == k
            assert np.all(c.finite_roots == 0.0)


def test_overlap_requires_matching_labels():
    with pytest.raises(LabelMismatch):
        mj.overlap(mj.basis_state(2, 0), mj.basis_state(4, 0))


def test_constellation_validation():
    with pytest.raises(ValueError):
        mj.Constellation(4, np.array([1.0 + 0j]), 0)  # count != twoS
    with pytest.raises(ValueError):
        mj.Constellation(2, np.array([np.inf + 0j, 0j]), 0)
    with pytest.raises(ValueError):
        mj.Constellation(2, np.zeros(1, dtype=complex), -1)
    # The pole count is an integer: a float or a bool is refused by name.
    for roots, count in (([0.5], True), ([], 2.0), ([0.5], np.float64(1.0)), ([0.5, 1.0], False)):
        with pytest.raises(ValueError, match="infinity_count must be a nonnegative integer"):
            mj.Constellation(2, roots, count)
    c = mj.Constellation(2, [0.5], np.int64(1))
    assert c.infinity_count == 1 and type(c.infinity_count) is int


def test_constellation_points_place_infinity_at_pole():
    c = mj.Constellation(3, np.array([1.0 + 0j]), 2)
    pts = c.points()
    assert len(pts) == 3
    assert pts[-1].theta == pytest.approx(math.pi)
    assert pts[-2].theta == pytest.approx(math.pi)


def test_round_trip_random_states(rng):
    for twoS in (1, 2, 3, 5, 8):
        for _ in range(20):
            st = random_state(rng, twoS)
            back = mj.state_from_constellation(mj.constellation_from_state(st))
            assert abs(mj.overlap(st, back)) >= 1.0 - 1e-12


def test_round_trip_canonical_phase():
    # The reconstructed polynomial's top surviving coefficient is real
    # positive, so reconstruction is idempotent bit for bit.
    c = mj.Constellation(3, np.array([0.4 + 0.1j, -1.0 + 0j, 0.2j]), 0)
    once = mj.state_from_constellation(c)
    twice = mj.state_from_constellation(mj.constellation_from_state(once))
    assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-12)
    assert abs(mj.overlap(once, twice)) >= 1.0 - 1e-14
    f = mj.stellar_polynomial(once)
    assert f[-1].imag == pytest.approx(0.0, abs=1e-15)
    assert f[-1].real > 0


def test_state_from_all_infinity_constellation():
    c = mj.Constellation(4, np.zeros(0, dtype=complex), 4)
    st = mj.state_from_constellation(c)
    assert abs(mj.overlap(st, mj.basis_state(4, -4))) == pytest.approx(1.0)
    # Spin 0 has no stars: its one state.
    assert mj.state_from_constellation(mj.Constellation(0, [])).amplitudes.tolist() == [1.0]


def test_far_flung_stars_round_trip():
    # |z| = 1e6 stars stress the Vieta coefficients without overflow.  A
    # star that far out sits within ~1e-6 chordal of the pole, and the
    # solver may legitimately return it as a pole star, so compare through
    # the optimal matching rather than index by index.
    roots = np.array([1e6 + 0j, -1e6 + 1e6j, 2e5 - 3e5j, 1.0 + 0j])
    c = mj.Constellation(4, roots, 0)
    st = mj.state_from_constellation(c)
    back = mj.constellation_from_state(st)
    assert mj.matched_distance(c, back) < 1e-5
    assert abs(mj.overlap(st, mj.state_from_constellation(back))) >= 1.0 - 1e-10


def test_star_within_half_tol_of_the_origin_is_the_origin():
    # A star at 1e-12, below TOL / 2, is the origin: it comes back as an
    # exact 0, while the others keep their places.
    stars = np.array([1e-12, 0.5, -0.3j, 2.0])
    st = mj.state_from_constellation(mj.Constellation(4, stars))
    (back,) = mj.constellations_from_states([st])
    r = back.finite_roots
    assert back.infinity_count == 0 and np.count_nonzero(r == 0) == 1
    assert np.allclose(np.sort_complex(r[r != 0]), np.sort_complex(stars[1:]), atol=1e-12)


def test_double_star_recovered_as_exact_pair():
    c = mj.Constellation(3, np.array([0.3 + 0.1j, 0.3 + 0.1j, -1.2 + 0j]), 0)
    st = mj.state_from_constellation(c)
    back = mj.constellation_from_state(st)
    r = back.finite_roots  # sorted by (real, imag): the pair sits at r[1:3]
    assert r[1] == r[2]  # merged to one exact double root
    assert abs(r[1] - (0.3 + 0.1j)) < 1e-8
    assert abs(mj.overlap(st, mj.state_from_constellation(back))) >= 1.0 - 1e-12


def test_bulk_conversion_matches_scalar(rng):
    states = [random_state(rng, 5) for _ in range(30)]
    states.append(mj.coherent_state(5, 0.7 - 0.4j))   # multiple root in batch
    states.append(mj.basis_state(5, -5))              # all stars at the pole
    states.append(mj.basis_state(5, 1))               # mixed pole/origin
    states.append(random_state(rng, 2))              # second degree group
    bulk = mj.constellations_from_states(states)
    for st, got in zip(states, bulk):
        ref = mj.constellation_from_state(st)
        assert got.infinity_count == ref.infinity_count
        assert np.allclose(got.finite_roots, ref.finite_roots, atol=1e-10)


def test_constellation_roots_sorted():
    c = mj.Constellation(3, np.array([1.0 + 0j, -1.0 + 0j, 0.5j]), 0)
    r = c.finite_roots
    assert np.all(np.diff(r.real) >= 0)


def test_contract_error_reports_ratio_and_spin(monkeypatch):
    # A solver answer that misses the residual contract is reported by how
    # far it misses the bound, not by the raw residual, whose size follows
    # max(1, |z|)**2S.  Ten stars lie on |z| = 3 and ten on |z| = 1/3, so
    # the raw residual at a far star is 3**20 times its ratio.  Every
    # eigenvalue is moved by 1e-5 relative and no Newton step repairs it.
    rng = np.random.default_rng(5)
    ring = np.exp(2j * np.pi * rng.uniform(size=10))
    state = mj.state_from_constellation(mj.Constellation(20, np.r_[3 * ring, ring / 3]))
    eigvals = rootfinding._companion_eigvals
    moved = lambda c: eigvals(c) * (1 + 1e-5)
    monkeypatch.setattr(rootfinding, "_companion_eigvals", moved)
    monkeypatch.setattr(rootfinding, "newton_polish",
                        lambda c, z: (z, rootfinding.residual_ratios(c, z)))
    with pytest.raises(NonConvergence, match=r"for degree 20$") as err:
        mj.constellation_from_state(state)
    f = stellar.stellar_polynomial(state)
    roots = moved(f[None] / np.abs(f).max())[0]
    bound = np.abs(f).max() * np.maximum(1.0, np.abs(roots)) ** 20
    want = float((np.abs(polyval(roots, f)) / bound).max())
    got = float(str(err.value).split("residual ")[1].split()[0])
    assert want > 1e-10
    assert got == pytest.approx(want, rel=1e-3)


def test_failing_batch_names_its_states(monkeypatch):
    # States 1 and 3 overflow their companion matrices, and so does state
    # 4's degree-2 core, once its lead zero is cut; states 0, 2 and 5 are
    # solvable, state 5 trimmed too, and states 0 and 5 share state 1's
    # stack.  Each state that fails alone is solved in the rotated frame,
    # as constellation_from_state solves it.
    states = [mj.SpinState(2, [0.3, 1, 0.2j]), mj.SpinState(2, [1e-320, 1, 1e-320]),
              mj.SpinState(1, [1, 1]), mj.SpinState(3, [1e-310, 1, 1, 1e-310]),
              mj.SpinState(3, [0, 1e-310, 1, 1e-310]), mj.SpinState(2, [0, 1, 1])]
    for got, state in zip(mj.constellations_from_states(states), states):
        want = mj.constellation_from_state(state)
        assert (got.infinity_count, got.finite_roots.tobytes()) == (
            want.infinity_count, want.finite_roots.tobytes())
    # With a second frame that is the first, states 1, 3 and 4 fail in both.
    monkeypatch.setattr(stellar, "rotate", lambda state, theta, phi: state)
    with pytest.raises(NonConvergence) as err:
        mj.constellations_from_states(states)
    assert str(err.value) == (
        "state 1 (2S = 2): companion matrix overflows for degree 2; "
        "state 3 (2S = 3): companion matrix overflows for degree 3; "
        "state 4 (2S = 3): companion matrix overflows for degree 2")
    with pytest.raises(NonConvergence, match=r"^state 1 \(2S = 2\): companion") as err:
        mj.constellations_from_states(states[:2])
    assert "state 0" not in str(err.value)


def test_rotated_stars_that_miss_the_contract_raise(monkeypatch):
    # The stars turned back from the rotated frame are certified on the
    # original row; read as missing it, the first frame's error is raised.
    state = mj.SpinState(2, [1e-320, 1, 1e-320])
    monkeypatch.setattr(stellar, "residual_ratios", lambda c, z: np.full(np.shape(z), np.inf))
    with pytest.raises(NonConvergence, match=r"^state 0 \(2S = 2\): companion matrix overflows"):
        mj.constellation_from_state(state)


def test_contract_miss_names_its_state(monkeypatch):
    # As in test_contract_error_reports_ratio_and_spin: every eigenvalue is
    # moved by 1e-5 relative and no Newton step repairs it.  State 0 is a
    # basis state, whose stars are all at 0 and need no solve, in the same
    # 2S = 20 stack as the spread state 1.
    rng = np.random.default_rng(5)
    ring = np.exp(2j * np.pi * rng.uniform(size=10))
    spread = mj.state_from_constellation(mj.Constellation(20, np.r_[3 * ring, ring / 3]))
    eigvals = rootfinding._companion_eigvals
    monkeypatch.setattr(rootfinding, "_companion_eigvals", lambda c: eigvals(c) * (1 + 1e-5))
    monkeypatch.setattr(rootfinding, "newton_polish",
                        lambda c, z: (z, rootfinding.residual_ratios(c, z)))
    with pytest.raises(NonConvergence) as err:
        mj.constellations_from_states([mj.basis_state(20, 20), spread])
    assert re.fullmatch(r"state 1 \(2S = 20\): root residual \S+ exceeds tolerance "
                        r"1\.000e-10 for degree 20", str(err.value))


# A 2S = 20 state with stars spread over |z| in [e^-7, e^7] (the roundtrip
# benchmark's seed 7, cycle 4).  Four leading and two trailing coefficients
# are below 1e-10 of the largest.  Cutting them off once pinned six stars at
# the poles, and the roots of what was left missed the contract on f by a
# factor of about 1.004 at a star near |z| = 1.
_SPREAD_20 = np.array([
    (-5.138545218164252e-15-1.1283641755081328e-15j),
    (-1.4019219943893196e-12+1.831764381846315e-13j),
    (-2.562363444642302e-10+4.492963442843999e-11j),
    (5.115774932415222e-13-9.854292661885608e-10j),
    (4.6452343036967385e-07+7.37853471863719e-07j),
    (-1.0260052202589678e-05-1.5771452291574197e-05j),
    (0.00029733592372276877-1.5224709394189308e-05j),
    (0.006158159462095788+0.006407167271764739j),
    (0.05021503012526904+0.05910835692031392j),
    (0.21803543143359885+0.12475647193187718j),
    (0.044895685662816716-0.17019393220019194j),
    (-0.8194261421677103-0.24335856440930598j),
    (0.8805020308271254+0.4740423754363189j),
    (-0.24372312256984566-0.0606446360790613j),
    (0.029834152196956197-0.004468369458254132j),
    (-0.0014001636501583122+0.0011999698858203088j),
    (7.670442716625685e-05-6.435899536828994e-05j),
    (-5.98555041465751e-07+4.7723314189222e-06j),
    (-8.575850672151698e-09-4.753343911880819e-08j),
    (5.391358679636426e-10+2.1639603406739464e-10j),
    (1.302237736122721e-11+0j),
])


def test_spread_state_with_tiny_ends_meets_the_contract_on_f():
    # Nonzero ends are not trimmed: every star stays off the poles.
    state = mj.SpinState(20, _SPREAD_20)
    c = mj.constellation_from_state(state)
    assert (c.infinity_count, int(np.sum(c.finite_roots == 0))) == (0, 0)
    f = stellar.stellar_polynomial(state)
    bound = 1e-10 * np.abs(f).max() * np.maximum(1.0, np.abs(c.finite_roots)) ** 20
    assert np.all(np.abs(polyval(c.finite_roots, f)) <= bound)
    back = mj.state_from_constellation(c)
    assert abs(mj.overlap(state, back)) >= 1.0 - 1e-10
    # In a batch it costs no other state its result.
    others = [random_state(np.random.default_rng(k), 20) for k in range(3)]
    bulk = mj.constellations_from_states(others + [state])
    assert bulk[3].finite_roots.tobytes() == c.finite_roots.tobytes()


@pytest.mark.parametrize("twoS, far", [(60, 1e6), (70, 4.2e4), (60, 3e7)])
def test_far_star_at_high_spin_round_trips(twoS, far):
    # 2S - 1 stars on a jittered unit ring and one far star: no coefficient
    # is trimmed, and far**2S is beyond the float range, so the residual at
    # the far star is only finite if it is evaluated in the 1/z chart.
    rng = np.random.default_rng(twoS)
    k = np.arange(twoS - 1)
    ring = np.exp(2j * np.pi * (k + rng.uniform(0, 0.4, twoS - 1)) / (twoS - 1))
    ring *= 1 + 0.05 * rng.normal(size=twoS - 1)
    stars = np.r_[ring, far * np.exp(2j * np.pi * rng.uniform())]
    state = mj.state_from_constellation(mj.Constellation(twoS, stars))
    c = mj.constellation_from_state(state)
    assert c.infinity_count == 0
    assert abs(mj.overlap(state, mj.state_from_constellation(c))) >= 1.0 - 1e-10
    f = stellar.stellar_polynomial(state)
    with mpmath.workdps(50):
        fm = [mpmath.mpc(x.real, x.imag) for x in f[::-1]]
        for z in c.finite_roots:
            zm = mpmath.mpc(z.real, z.imag)
            ratio = abs(mpmath.polyval(fm, zm)) / max(1, abs(zm)) ** twoS
            assert ratio <= 1e-10 * np.abs(f).max()
