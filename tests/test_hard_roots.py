"""Root solver on the hard shapes of spin-state polynomials.

Shapes: random amplitudes, a coherent state (one star repeated 2S times),
a double star among random ones, one star near the pole (|z| ~ 1e6),
stars spread over |z| in [e^-7, e^7], and stars exactly at the poles among
random ones, at 2S up to 40.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majorana as mj
from majorana.errors import NonConvergence
from majorana.rootfinding import find_roots
from majorana.stellar import constellation_from_state, constellations_from_states

SHAPES = ("random", "coherent", "double", "near_pole", "spread", "poles")


def _gaussian(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _stars(shape, twoS, rng):
    """Finite stars of the shape, fewer than 2S where the rest are at
    infinity; None for random amplitudes."""
    w = complex(_gaussian(rng, 1)[0])
    if shape == "random":
        return None
    if shape == "coherent":
        return np.full(twoS, w)
    if shape == "double":
        return np.concatenate([_gaussian(rng, twoS - 2), [w, w]])
    if shape == "near_pole":
        far = 1e6 * rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        return np.concatenate([_gaussian(rng, twoS - 1), [far]])
    if shape == "poles":  # k stars at 0, j at infinity: lead and tail zeros
        k = rng.integers(0, twoS + 1)
        j = rng.integers(0, twoS - k + 1)
        return np.concatenate([np.zeros(k), _gaussian(rng, twoS - k - j)])
    return np.exp(rng.uniform(-7.0, 7.0, twoS) + 2j * np.pi * rng.uniform(size=twoS))


def _state(shape, twoS, seed):
    rng = np.random.default_rng(seed)
    stars = _stars(shape, twoS, rng)
    if stars is None:
        return mj.SpinState(twoS, _gaussian(rng, twoS + 1))
    coeffs = np.atleast_1d(np.poly(stars))[::-1]  # Vieta by numpy, low to high
    coeffs = np.pad(coeffs, (0, twoS - len(stars)))  # the stars at infinity
    binom = np.array([math.sqrt(math.comb(twoS, k)) for k in range(twoS + 1)])
    return mj.SpinState(twoS, coeffs / binom)


def _bits(c):
    return (c.label, c.infinity_count, c.finite_roots.tobytes())


_member = st.tuples(
    st.sampled_from(SHAPES),
    st.one_of(st.sampled_from((5, 20, 40)), st.integers(1, 40)),
    st.integers(0, 2**32 - 1),
).filter(lambda m: m[0] != "double" or m[1] >= 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(_member, min_size=1, max_size=8))
def test_batch_is_bitwise_the_scalar_path(members):
    # The scalar path is a batch of one, and a row's result does not depend
    # on its batch-mates: the bulk conversion equals the one-by-one loop
    # bit for bit, or both raise.
    states = [_state(shape, twoS, seed) for shape, twoS, seed in members]
    try:
        singles = [constellation_from_state(s) for s in states]
    except NonConvergence:
        with pytest.raises(NonConvergence):
            constellations_from_states(states)
        return
    bulk = constellations_from_states(states)
    assert [_bits(c) for c in bulk] == [_bits(c) for c in singles]


def _oracle_roots(coeffs):
    """Roots of the float polynomial at 50 digits."""
    with mpmath.workdps(50):
        mp = [mpmath.mpc(c.real, c.imag) for c in coeffs[::-1]]
        roots = mpmath.polyroots(mp, maxsteps=400, extraprec=400)
        return np.array([complex(r) for r in roots])


def _match(got, want):
    """Pair each wanted root with the nearest unused found root."""
    got = list(got)
    pairs = []
    for w in sorted(want, key=abs):
        k = int(np.argmin([abs(g - w) for g in got]))
        pairs.append((got.pop(k), w))
    return pairs


def _hard_polynomial(shape, degree):
    rng = np.random.default_rng(1000 * degree + SHAPES.index(shape))
    stars = _stars(shape, degree, rng)
    return np.poly(stars)[::-1], stars


@pytest.mark.parametrize("shape,degree", [
    ("double", 20), ("double", 30), ("double", 40),
    ("near_pole", 20), ("near_pole", 30), ("near_pole", 40),
    ("spread", 20), ("spread", 30), ("spread", 40),
])
def test_separated_roots_match_mpmath(shape, degree):
    coeffs, stars = _hard_polynomial(shape, degree)
    got = find_roots(coeffs)
    oracle = _oracle_roots(coeffs)
    if shape == "double":
        # Rounding the coefficients splits the double star into a pair of
        # nearby roots; the solver certifies two equal entries inside it.
        w = stars[-1]
        pair = np.argsort(np.abs(got - w))[:2]
        assert got[pair[0]] == got[pair[1]]
        near = np.argsort(np.abs(oracle - w))[:2]
        split = abs(oracle[near[0]] - oracle[near[1]])
        assert abs(got[pair[0]] - oracle[near].mean()) <= split
        got = np.delete(got, pair)
        oracle = np.delete(oracle, near)
    for g, w in _match(got, oracle):
        assert abs(g - w) <= 1e-8 * abs(w), (g, w)


@pytest.mark.parametrize("degree", [20, 30, 40])
def test_coherent_multiplicity_matches_mpmath(degree):
    # The float polynomial of a coherent state has its roots scattered
    # around the star; their 50-digit mean is the star to within rounding,
    # and the solver must return it degree times.
    coeffs, _ = _hard_polynomial("coherent", degree)
    roots = find_roots(coeffs)
    assert len(roots) == degree and np.all(roots == roots[0])
    center = _oracle_roots(coeffs).mean()
    assert abs(roots[0] - center) <= 1e-8 * abs(center)


@pytest.mark.parametrize("twoS", [20, 30, 40])
@pytest.mark.parametrize("seed", range(4))
def test_spread_stars_survive_the_round_trip(twoS, seed):
    # Stars spread over |z| in [e^-7, e^7] give end coefficients far below
    # TOL * max|f|; every planted star must still come back where it was.
    planted = mj.Constellation(twoS, _stars("spread", twoS, np.random.default_rng(seed)))
    got = constellation_from_state(_state("spread", twoS, seed))
    assert mj.matched_distance(planted, got) <= 1e-8


def _far_star_polynomial(twoS):
    """f of a random state, default_rng(3), whose top amplitude is 1e-50 /
    1e-100 / 1e-300 of its largest at 2S = 5 / 20 / 40: one star near
    infinity.  The three states are drawn in that order from one rng."""
    rng = np.random.default_rng(3)
    for size, small in ((5, 1e-50), (20, 1e-100), (40, 1e-300)):
        amps = _gaussian(rng, size + 1)
        if size == twoS:
            amps[-1] = small * np.abs(amps).max()
            return mj.stellar_polynomial(mj.SpinState(twoS, amps))


@pytest.mark.parametrize("twoS", [5, 20, 40])
def test_untrimmed_far_star_meets_the_contract(twoS):
    # Solved in the z chart, these rows missed the contract (worst ratio
    # 0.528 / 9.78e-4 / 3.07e-5); the solver takes them in the 1/z chart.
    f = _far_star_polynomial(twoS)
    roots = find_roots(f)
    # The mirror solve, the same stars in the 1/z chart, places the far star.
    far = 1.0 / np.abs(find_roots(f[::-1])).min()
    assert np.abs(roots).max() == pytest.approx(far, rel=1e-8)


def test_coherent_states_at_2s40_round_trip():
    # At 2S = 40 a coherent state's end coefficients span many decades and
    # its companion eigenvalues form an ill-conditioned ring; the rebuilt
    # state must reach fidelity 1 - 1e-10.
    for seed in range(20):
        state = _state("coherent", 40, seed)
        back = mj.state_from_constellation(constellation_from_state(state))
        assert abs(np.vdot(state.amplitudes, back.amplitudes)) >= 1.0 - 1e-10, seed


# The (2S, M) = (12, 5) king of one restart at seed 2, refined to |r| =
# 4.5e-50 at 50 digits by tests/oracles.py::refine_king and rounded to
# doubles: the icosahedron with one star 1.5e-15 from z = 0 and one at |z| ~
# 6.8e14, so both end coefficients are 1.3e-16 of the largest.
_REFINED_ICOSAHEDRON = [
    1.5007387173189377e-15 - 2.2441761105496404e-15j,
    -0.5291502622129182 - 1.3725812573606661e-15j,
    -2.0320098291371776e-15 - 3.0386288181453163e-15j,
    5.632070163503193e-30 - 1.3626167649728148e-29j,
    -1.126414032700602e-29 - 2.7252335299456403e-29j,
    -3.5195442655449743e-15 + 5.263059498370639e-15j,
    0.6633249580710799 + 1.9847643488912737e-15j,
    3.5195442655449428e-15 + 5.26305949837066e-15j,
    -1.1264140327006184e-29 + 2.7252335299456336e-29j,
    -5.632070163503111e-30 - 1.3626167649728182e-29j,
    -2.0320098291371957e-15 + 3.038628818145304e-15j,
    0.5291502622129182 + 1.7940071933459593e-15j,
    1.5007387173189243e-15 + 2.244176110549649e-15j,
]


@pytest.mark.xfail(raises=NonConvergence, strict=True)
def test_refined_icosahedron_round_trips():
    # A row with both ends small (ROADMAP item 15): the solver reads a root
    # residual of 2.000e-10 against its tolerance 1e-10 at degree 12 and
    # raises, so `majorana stars` exits 3 on this state.
    state = mj.SpinState(12, _REFINED_ICOSAHEDRON)
    back = mj.state_from_constellation(constellation_from_state(state))
    assert abs(mj.overlap(back, state)) == pytest.approx(1.0, abs=1e-12)
