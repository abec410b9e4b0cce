"""Root solver on the hard shapes of spin-state polynomials.

Shapes: random amplitudes, a coherent state (one star repeated 2S times),
a double star among random ones, one star near the pole (|z| ~ 1e6) and
stars spread over |z| in [e^-7, e^7], at 2S up to 40.
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

SHAPES = ("random", "coherent", "double", "near_pole", "spread")


def _gaussian(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _stars(shape, twoS, rng):
    """Finite stars of the shape; None for random amplitudes."""
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
    return np.exp(rng.uniform(-7.0, 7.0, twoS) + 2j * np.pi * rng.uniform(size=twoS))


def _state(shape, twoS, seed):
    rng = np.random.default_rng(seed)
    stars = _stars(shape, twoS, rng)
    if stars is None:
        return mj.SpinState(twoS, _gaussian(rng, twoS + 1))
    coeffs = np.poly(stars)[::-1]  # Vieta by numpy, low to high
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the trim pins 3-19 spread stars at the poles "
    "(worst chord 9e-3 to 0.11); find_roots on the untrimmed f is within 2.5e-14"))
@pytest.mark.parametrize("twoS", [20, 30, 40])
@pytest.mark.parametrize("seed", range(4))
def test_spread_stars_survive_the_round_trip(twoS, seed):
    # Stars spread over |z| in [e^-7, e^7] give end coefficients below
    # tol * max|f|; every planted star must still come back where it was.
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


@pytest.mark.xfail(strict=True, raises=NonConvergence, reason=(
    "CHANGES.md FOUND line on find_roots_batch and a tiny top coefficient: "
    "worst residual ratio 0.528 / 9.78e-4 / 3.07e-5 against the 1e-10 contract, "
    "while the reversed f meets it; ROADMAP item 2 needs this solve"))
@pytest.mark.parametrize("twoS", [5, 20, 40])
def test_untrimmed_far_star_meets_the_contract(twoS):
    f = _far_star_polynomial(twoS)
    roots = find_roots(f)
    # The mirror solve, the same stars in the 1/z chart, places the far star.
    far = 1.0 / np.abs(find_roots(f[::-1])).min()
    assert np.abs(roots).max() == pytest.approx(far, rel=1e-8)


def test_coherent_states_at_2s40_round_trip():
    # At 2S = 40 a coherent state's end coefficients fall below the trimming
    # threshold and its remaining roots form an ill-conditioned ring; the
    # rebuilt state must still reach fidelity 1 - 1e-10.
    for seed in range(20):
        state = _state("coherent", 40, seed)
        back = mj.state_from_constellation(constellation_from_state(state))
        assert abs(np.vdot(state.amplitudes, back.amplitudes)) >= 1.0 - 1e-10, seed
