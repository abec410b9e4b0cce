"""Polynomial solver checks against factored-form oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import pdist, squareform

import majorana as mj
from majorana import rootfinding
from majorana.rootfinding import (
    _EPS,
    _companion_eigvals,
    _components,
    _disc_overlaps,
    _rounding_floor,
    _table,
    _with_derivative,
    find_roots,
    find_roots_batch,
    newton_polish,
)


def test_simple_cubic_roots():
    # (z - 1)(z - 2)(z - 3) = -6 + 11 z - 6 z^2 + z^3
    roots = find_roots(np.array([-6.0, 11.0, -6.0, 1.0], dtype=complex))
    assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-12)


def test_quadruple_root_recovered_exactly():
    # (z - 0.5)^4 expanded; naive iteration scatters this root over a
    # radius of about eps**(1/4) ~ 1e-4, so exact recovery proves the
    # multiplicity stage works.
    c = np.array([0.0625, -0.5, 1.5, -2.0, 1.0], dtype=complex)
    roots = find_roots(c)
    assert len(roots) == 4
    assert np.all(roots == roots[0])
    assert abs(roots[0] - 0.5) < 1e-12


def test_mixed_multiplicity():
    # (z - 1)^2 (z + 2) = 2 - 3 z + z^3... expand: (z^2-2z+1)(z+2) = z^3 - 3z + 2
    roots = find_roots(np.array([2.0, -3.0, 0.0, 1.0], dtype=complex))
    assert np.allclose(roots, [-2.0, 1.0, 1.0], atol=1e-10)
    assert roots[1] == roots[2]


def test_nearby_but_distinct_roots_stay_distinct():
    # Roots 1 and 1 + 1e-5 are far apart compared with their inclusion discs.
    a, b = 1.0, 1.0 + 1e-5
    c = np.array([a * b, -(a + b), 1.0], dtype=complex)
    roots = find_roots(c)
    assert abs(roots[0] - roots[1]) > 5e-6


def test_conjugate_pair_ordering():
    # Sorting is by (real, imag), deterministic for any input order.
    c = np.array([2.0, 0.0, 1.0], dtype=complex)  # z^2 + 2
    roots = find_roots(c)
    assert np.allclose(roots, [-1j * np.sqrt(2), 1j * np.sqrt(2)], atol=1e-13)


def test_zero_end_coefficients_are_roots_at_the_poles():
    # A lead zero is a root at exactly 0 and a tail zero a root at inf; the
    # core between them is solved.  Only an all-zero row has no roots.
    assert find_roots(np.array([0.0, 1.0, 1.0], dtype=complex)).tolist() == [-1, 0]
    assert find_roots(np.array([1.0, 1.0, 0.0], dtype=complex)).tolist() == [-1, np.inf]
    with pytest.raises(ValueError, match="all-zero"):
        find_roots_batch(np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError, match="2-d"):
        find_roots_batch(np.array([1.0, 1.0, 1.0], dtype=complex))


def test_roots_missing_the_tolerance_raise(monkeypatch):
    c = np.array([0.3 - 1.1j, 0.7 + 0.2j, -1.3 + 0.4j, 0.9 - 0.5j, 1.0 + 0.0j])
    find_roots(c)
    monkeypatch.setattr(rootfinding, "TOL", 1e-300)
    with pytest.raises(mj.NonConvergence, match=r"exceeds tolerance 1\.000e-300 for degree 4$"):
        find_roots(c)


@pytest.mark.parametrize("amps", [[1e-320, 1, 1e-320], [1e-310, 1, 1, 1e-310],
                                  [5e-324, 0, 1, 0, 5e-324]])
def test_companion_that_overflows_raises(amps):
    # Both end coefficients sit below 1e-308 of the largest, so the row
    # does not flip to the 1/z chart and c_k / c_n overflows.  In the 2S = 4
    # row both ends underflow to 0 when the row is scaled to max modulus 1,
    # and c_k / c_n divides by zero.  The suite makes a RuntimeWarning an
    # error, so a warning on the way fails here.
    n = len(amps) - 1
    want = rf"^state 0 \(2S = {n}\): companion matrix overflows for degree {n}$"
    with pytest.raises(mj.NonConvergence, match=want):
        mj.constellation_from_state(mj.SpinState(n, amps))


def test_merge_whose_vieta_lead_underflows_keeps_its_estimates():
    # The disc overlaps make the whole row one 12-fold candidate at |w| about
    # 1.5e34; its Vieta coefficients' leading entry underflows to 0, so the
    # merge check fails and the row keeps its estimates.  Under the suite's
    # warning filter a division by that 0 would fail here.
    st = mj.SpinState(12, [1e-300, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1e-300])
    c = mj.constellation_from_state(st)
    assert c.infinity_count == 6 and np.all(c.finite_roots == 0)
    assert abs(mj.overlap(mj.state_from_constellation(c), st)) == 1.0


def _exact_linear_ratio(c, z):
    """|c0 + c1 z|**2 / max(1, |z|)**2 in exact rational arithmetic."""
    c0r, c0i, c1r, c1i, zr, zi = (Fraction(x) for x in (
        c[0].real, c[0].imag, c[1].real, c[1].imag, z.real, z.imag))
    pr, pi = c0r + c1r * zr - c1i * zi, c0i + c1r * zi + c1i * zr
    return (pr * pr + pi * pi) / max(Fraction(1), zr * zr + zi * zi)


def test_degree_zero_and_one():
    assert len(find_roots(np.array([3.0], dtype=complex))) == 0
    roots = find_roots(np.array([2.0, -4.0], dtype=complex))
    assert np.allclose(roots, [0.5])
    rng = np.random.default_rng(1)
    empty = find_roots_batch(rng.normal(size=(5, 1)))
    assert isinstance(empty, np.ndarray) and empty.shape == (5, 0)
    # Degree 1 takes the companion path, whose one eigenvalue is -c0/c1 of
    # the row as solved (scaled to max modulus 1): equal to that quotient to
    # 1 ulp per component, with an exact residual no larger than the quotient's.
    stack = []
    for scale in (1.0, 1e150, 1e-150):
        stack.append(scale * rng.normal(size=(500, 2)))
        stack.append(scale * (rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))))
    c = np.concatenate(stack).astype(complex)
    roots = find_roots_batch(c)
    assert isinstance(roots, np.ndarray) and roots.shape == (len(c), 1)
    c = c / np.abs(c).max(axis=1, keepdims=True)
    z, q = roots[:, 0], -c[:, 0] / c[:, 1]
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(z) - part(q)) <= np.spacing(np.abs(part(q))))
    moved = np.flatnonzero(z != q)
    assert all(_exact_linear_ratio(c[b], z[b]) <= _exact_linear_ratio(c[b], q[b]) for b in moved)


def test_roots_of_unity_high_degree():
    n = 24
    c = np.zeros(n + 1, dtype=complex)
    c[0], c[-1] = -1.0, 1.0
    roots = find_roots(c)
    assert np.allclose(np.abs(roots), 1.0, atol=1e-12)
    assert np.allclose(np.sort(np.angle(roots)),
                       np.sort(np.angle(np.exp(2j * np.pi * np.arange(n) / n))),
                       atol=1e-12)


def test_batch_agrees_with_scalar(rng):
    stack = rng.normal(size=(40, 9)) + 1j * rng.normal(size=(40, 9))
    batch = find_roots_batch(stack)
    for row, got in zip(stack, batch):
        assert np.allclose(got, find_roots(row), atol=1e-10)


def test_batch_handles_multiple_roots(rng):
    # Mix a generic row with an exact fourth power in the same stack.
    generic = rng.normal(size=5) + 1j * rng.normal(size=5)
    quartic = np.array([0.0625, -0.5, 1.5, -2.0, 1.0], dtype=complex)
    batch = find_roots_batch(np.array([generic, quartic]))
    assert np.allclose(batch[0], find_roots(generic), atol=1e-10)
    assert np.all(batch[1] == batch[1][0]) and abs(batch[1][0] - 0.5) < 1e-12


def test_residuals_meet_contract(rng):
    for _ in range(20):
        c = rng.normal(size=13) + 1j * rng.normal(size=13)
        roots = find_roots(c)
        scale = np.abs(c).max()
        res = np.abs(polyval(roots, c))
        bound = 1e-10 * scale * np.maximum(1.0, np.abs(roots)) ** 12
        assert np.all(res <= bound)


def test_power_shortcut_needs_the_power_up_to_rounding():
    # (z - 2)^40 comes back as one 40-fold root, although its companion
    # eigenvalues scatter over a circle wider than 2.  (z - 0.01)^10 + 1e-13
    # is not a power up to rounding at |z| ~ 0.01, where its constant term
    # dominates: its roots circle 0.01 at radius 1e-13**(1/10) ~ 0.05.
    k = np.arange(41)
    power = np.array([math.comb(40, j) for j in k]) * (-2.0) ** (40 - k)
    roots = find_roots(power.astype(complex))
    assert np.all(roots == roots[0]) and abs(roots[0] - 2.0) < 1e-12
    k = np.arange(11)
    near = np.array([math.comb(10, j) for j in k]) * (-0.01) ** (10 - k)
    near[0] += 1e-13
    roots = find_roots(near.astype(complex))
    assert np.allclose(np.abs(roots - 0.01), 1e-13 ** 0.1, rtol=1e-6)
    # Every exact power (z - w)^n, n = 2..40, comes back as n equal copies
    # of w: the coherent rows merge as one n-fold star in the per-row path.
    for w in (0.3, 1.0, 2.0, -1.5 + 0.5j, 5.0, 0.05j):
        for n in range(2, 41):
            k = np.arange(n + 1)
            power = np.array([math.comb(n, j) for j in k]) * (-complex(w)) ** (n - k)
            roots = find_roots(power)
            assert len(roots) == n and np.all(roots == roots[0]), (w, n)
            assert abs(roots[0] - w) <= 1e-13 * abs(w), (w, n)


def _stars_polynomial(stars):
    """Coefficients (low to high, max modulus 1) with the given roots."""
    c = np.poly(stars)[::-1]
    return c / np.abs(c).max()


@pytest.mark.parametrize("degree", [2, 5, 10, 20, 40])
def test_one_newton_step(degree):
    # Rows: random coefficients, a coherent power, a double star and a
    # near-pole star.  At their companion eigenvalues and at their simple
    # roots moved 1e-8 relative off the 50-digit value, the step never
    # raises |p|, and each moved root comes back to the rounding floor.  At
    # z = 0, with c_1 set to 0 so that p'(0) = 0, no point moves.
    rng = np.random.default_rng(degree)
    w = complex(rng.normal() + 1j * rng.normal())
    gauss = lambda k: rng.normal(size=k) + 1j * rng.normal(size=k)
    simple = [None, [], gauss(degree - 2), np.r_[gauss(degree - 1), 1.5e6j]]
    rows = [gauss(degree + 1), _stars_polynomial(np.full(degree, w)),
            _stars_polynomial(np.r_[simple[2], w, w]), _stars_polynomial(simple[3])]
    c = np.array(rows)
    c /= np.abs(c).max(axis=1, keepdims=True)
    seeds = _companion_eigvals(c)
    simple[0] = seeds[0]
    moved = np.zeros_like(seeds)
    for b, stars in enumerate(simple):
        exact = np.array([complex(r) for r in _mp_newton(c[b], stars, 50)[0]])
        kick = 1e-8 * np.exp(2j * np.pi * rng.uniform(size=len(exact)))
        moved[b, : len(exact)] = exact * (1 + kick)
    z = np.concatenate([seeds, moved], axis=1)
    p = (_table(z, degree) @ _with_derivative(c))[..., 0]
    zp, pp = newton_polish(c, z)
    assert np.all(np.abs(pp) <= np.abs(p))
    assert np.array_equal(pp, (_table(zp, degree) @ _with_derivative(c))[..., 0])
    for b, stars in enumerate(simple):
        back = zp[b, degree : degree + len(stars)]
        floor = _rounding_floor(_table(back, degree), np.abs(c[b]))
        assert np.all(np.abs(pp[b, degree : degree + len(stars)]) <= floor), b
    flat = c.copy()
    flat[:, 1] = 0.0
    zp, pp = newton_polish(flat, np.zeros((4, 1), dtype=complex))
    assert np.all(zp == 0) and np.array_equal(pp[:, 0], flat[:, 0])


@pytest.mark.parametrize("n, far", [(40, 2e6), (60, 1e7)])
def test_charted_values_within_the_polish_floor(n, far):
    # p read from the power table, in each point's chart, is within the
    # polish floor 2(n+1) eps sum_k |c_k||z|^k / max(1, |z|)^n of the
    # 50-digit value p(z) / max(1, z)^n of the same float polynomial at the
    # same float z: at random points and at the polynomial's own root
    # estimates, where the cancellation is complete.  Degree 40 with |z| up
    # to 2e6 is the benchmark's near-pole star; at degree 60 and 1e7 the
    # powers z**n themselves would overflow.
    rng = np.random.default_rng(2)
    for trial in range(6):
        if trial % 2:
            c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        else:
            star = far * np.exp(2j * np.pi * rng.uniform())
            c = _stars_polynomial(np.r_[rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1), star])
        mag = 10.0 ** rng.uniform(-3.0, math.log10(far), 20)
        z = np.r_[mag * np.exp(2j * np.pi * rng.uniform(size=20)), _companion_eigvals(c[None])[0]]
        table = _table(z, n)
        got = table @ c
        floor = 2.0 * (n + 1) * _EPS * (np.abs(table) @ np.abs(c))
        with mpmath.workdps(50):
            cm = [mpmath.mpc(x.real, x.imag) for x in c]
            for zi, gi, fl in zip(z, got, floor):
                zm = mpmath.mpc(zi.real, zi.imag)
                exact = mpmath.polyval(cm[::-1], zm) / (zm**n if abs(zi) > 1 else 1)
                assert abs(complex(exact) - gi) <= fl, (zi, gi, complex(exact), fl)


@st.composite
def _clustered_rows(draw):
    """Stars at degree 5..40 with double and triple stars and a coherent
    block (one star repeated), the rest random.  Half the rows are scaled
    about 0 to a geometric mean modulus of 1 and get one more star at 1/s,
    s in [1e-12, 1e-3]: their top coefficient is s times the constant one,
    and the solver takes them in the 1/z chart."""
    degree = draw(st.integers(5, 40))
    doubles = draw(st.integers(0, min(3, degree // 2)))
    triples = draw(st.integers(0, min(2, (degree - 2 * doubles) // 3)))
    room = degree - 2 * doubles - 3 * triples
    coherent = draw(st.sampled_from([0, 0, min(4, room), room]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gauss = lambda k: rng.normal(size=k) + 1j * rng.normal(size=k)
    stars = [np.repeat(gauss(doubles), 2), np.repeat(gauss(triples), 3),
             np.full(coherent, gauss(1)[0])]
    stars.append(gauss(degree - sum(len(s) for s in stars)))
    stars = rng.permutation(np.concatenate(stars))
    if draw(st.booleans()):
        s = 10.0 ** draw(st.floats(-12.0, -3.0))
        stars /= np.exp(np.log(np.abs(stars)).mean())
        stars = np.r_[stars, np.exp(2j * np.pi * rng.uniform()) / s]
    return stars


def _mp_newton(coeffs, z, dps):
    """Each z refined in turn by Newton's method at dps digits on the float
    polynomial with the roots already found divided out (Maehly's implicit
    deflation, so no two starts end on the same root), and whether the
    refined points are provably all of its roots: c_n times their Vieta
    coefficients, also at dps digits, rebuilds the coefficients to
    10**(-dps / 2) of the largest.  A start stops after a step below
    10**(-dps / 2) relative; the convergence is quadratic, so the next step
    would be at the working precision."""
    with mpmath.workdps(dps):
        high = [mpmath.mpc(x.real, x.imag) for x in coeffs[::-1]]
        small = mpmath.mpf(10) ** (-dps // 2)
        roots = []
        for w in z:
            w = mpmath.mpc(w.real, w.imag)
            for _ in range(100):
                p, dp = mpmath.polyval(high, w, derivative=True)
                step = p / (dp - p * sum(1 / (w - r) for r in roots))
                w -= step
                if abs(step) <= small * abs(w):
                    break
            roots.append(w)
        rebuilt = [high[0]]
        for w in roots:
            rebuilt = [a - w * b for a, b in zip(rebuilt + [0], [0] + rebuilt)]
        miss = max(abs(a - b) for a, b in zip(rebuilt, high))
        return roots, miss <= small * max(abs(x) for x in high)


def _oracle_roots(coeffs):
    """Roots of the float polynomial at 50 digits: the companion eigenvalues
    refined by Newton's method where their Vieta rebuild proves the refined
    set complete, mpmath's polyroots otherwise."""
    roots, complete = _mp_newton(coeffs, _companion_eigvals(coeffs[None])[0], 50)
    if not complete:
        with mpmath.workdps(50):
            mp = [mpmath.mpc(c.real, c.imag) for c in coeffs[::-1]]
            roots = mpmath.polyroots(mp, maxsteps=400, extraprec=400)
    return np.array([complex(r) for r in roots])


def _rebuild_error(coeffs, roots):
    """max_k |c_n e_k - c_k|, with e the Vieta coefficients of the roots,
    at 50 digits.  In floats the product alone can carry rounding errors
    near 1e-10 of max|c| at degree 40 (1.0e-10 to 1.35e-10 where this
    reads 1e-14 to 1e-12), so a float rebuild cannot tell a wrong root set
    from its own rounding at that bound."""
    with mpmath.workdps(50):
        e = [mpmath.mpc(1)]
        for w in roots:
            w = mpmath.mpc(w.real, w.imag)
            e = [a - w * b for a, b in zip(e + [0], [0] + e)]
        lead = mpmath.mpc(coeffs[-1].real, coeffs[-1].imag)
        return float(max(abs(lead * a - mpmath.mpc(c.real, c.imag))
                         for a, c in zip(e[::-1], coeffs)))


@settings(max_examples=40, deadline=None)
@given(_clustered_rows())
def test_clustered_roots_match_the_oracle(stars):
    # The roots rebuild the polynomial (c_n times their Vieta coefficients
    # is c), and every value returned m > 1 times lies within the spread of
    # the m nearest 50-digit roots of the float polynomial about their mean.
    c = _stars_polynomial(stars)
    roots = find_roots(c)
    assert _rebuild_error(c, roots) <= 1e-10 * np.abs(c).max()
    oracle = _oracle_roots(c)
    values, counts = np.unique(roots, return_counts=True)
    for v, m in zip(values, counts):
        if m > 1:
            near = oracle[np.argsort(np.abs(oracle - v))[:m]]
            center = near.mean()
            assert abs(v - center) <= np.abs(near - center).max(), (v, m)


def _scaled_clustered_row(seed):
    """A row like _clustered_rows' scaled half, every draw taken in the
    strategy's order from one np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    degree = rng.integers(5, 41)
    doubles = rng.integers(0, min(3, degree // 2) + 1)
    triples = rng.integers(0, min(2, (degree - 2 * doubles) // 3) + 1)
    room = degree - 2 * doubles - 3 * triples
    coherent = rng.choice([0, 0, min(4, room), room])
    gauss = lambda k: rng.normal(size=k) + 1j * rng.normal(size=k)
    stars = [np.repeat(gauss(doubles), 2), np.repeat(gauss(triples), 3),
             np.full(coherent, gauss(1)[0])]
    stars.append(gauss(degree - sum(len(s) for s in stars)))
    stars = rng.permutation(np.concatenate(stars))
    s = 10.0 ** rng.uniform(-12.0, -3.0)
    stars /= np.exp(np.log(np.abs(stars)).mean())
    return np.r_[stars, np.exp(2j * np.pi * rng.uniform()) / s]


@pytest.mark.parametrize("seed", [137, 519, 680, 981, 1004, 1136, 1140, 1499])
def test_far_star_rows_rebuild_in_the_reversed_chart(seed):
    # Of seeds 0 to 1499, ten give rows that fail when solved in the z
    # chart alone, and these eight fail by the widest margin: four raise
    # NonConvergence (residuals 1.08e-10 to 1.76e-10) and four rebuild at
    # 2.3e-10 to 4.2e-9 of max|c| (the other two at 1.01e-10 and
    # 1.13e-10).  In the 1/z chart they rebuild at 5.9e-15 to 8.1e-12.
    c = _stars_polynomial(_scaled_clustered_row(seed))
    assert _rebuild_error(c, find_roots(c)) <= 1e-10 * np.abs(c).max()


@pytest.mark.parametrize("shape", ["random", "spread"])
@pytest.mark.parametrize("degree", [20, 40])
def test_forward_error_matches_mpmath(shape, degree):
    # Each root is within 1e-12 relative of the float polynomial's root
    # next to it, refined at 40 digits, unless the root's own conditioning
    # forbids it: a root whose |p| is at the rounding floor 2(n+1) eps
    # sum_k |c_k||z|^k is not polished, and the floor allows a relative
    # error of twice that floor over |z p'(z)|.  Rows: random coefficients,
    # and stars spread over |z| in [e^-7, e^7].
    rng = np.random.default_rng(1000 * degree + (shape == "spread"))
    for _ in range(20):
        if shape == "random":
            c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        else:
            c = _stars_polynomial(np.exp(rng.uniform(-7.0, 7.0, degree)
                                         + 2j * np.pi * rng.uniform(size=degree)))
        z = find_roots(c)
        exact, complete = _mp_newton(c, z, 40)
        assert complete
        err = np.array([float(abs(zi - w) / abs(w)) for zi, w in zip(z, exact)])
        w = np.array([complex(x) for x in exact])
        dp = np.polyval(np.polyder(c[::-1]), w)
        kappa = np.polyval(np.abs(c[::-1]), np.abs(w)) / np.abs(w * dp)
        assert np.all(err <= np.maximum(1e-12, 4.0 * (degree + 1) * _EPS * kappa)), err.max()


@st.composite
def _real_rows(draw):
    """(c, simple): real coefficients at degree 2..40, and whether their
    roots are simple.  Simple: z^n + 1, z^n - 1, a NOON state's
    polynomial, random ones, or a product over conjugate pairs of spread
    stars.  Not simple: a real star repeated 2..n times (n times is a real
    coherent state) and a conjugate pair of repeated stars."""
    degree = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["z^n+1", "z^n-1", "noon", "random", "pairs", "multiple"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("z^n+1", "z^n-1"):
        c = np.zeros(degree + 1, dtype=complex)
        c[0], c[-1] = (1.0 if kind == "z^n+1" else -1.0), 1.0
        return c, True
    if kind == "noon":
        return mj.stellar_polynomial(mj.noon_state(degree)), True
    if kind == "random":
        return rng.normal(size=degree + 1).astype(complex), True
    if kind == "pairs":
        half = np.exp(rng.uniform(-7.0, 7.0, degree // 2) + 1j * np.pi * rng.uniform(size=degree // 2))
        stars = np.r_[half, half.conj(), rng.normal(size=degree % 2)]
    else:
        real = draw(st.integers(2, degree))
        pair = draw(st.integers(0, (degree - real) // 2))
        stars = _multiple_real_stars(degree, real, pair, rng)
    return np.poly(stars).real[::-1].astype(complex), kind == "pairs"


def _multiple_real_stars(degree, real, pair, rng):
    """A real star repeated real times, a conjugate pair repeated pair times,
    and simple real stars."""
    w = complex(rng.normal(), rng.normal())
    return np.r_[np.full(real, rng.normal()), np.full(pair, w), np.full(pair, w.conjugate()),
                 rng.normal(size=degree - real - 2 * pair)]


_NINEFOLD_REAL = np.poly(np.r_[np.full(9, -3.0), 3.0]).real[::-1]


@settings(max_examples=80, deadline=None)
@given(_real_rows())
@example((_NINEFOLD_REAL / np.abs(_NINEFOLD_REAL).max() + 0j, False))
def test_real_rows_give_exact_conjugate_pairs(row):
    # Real coefficients take the real companion matrix: the roots are
    # closed under conjugation bit for bit, merged multiple stars included.
    # The example (z + 3)^9 (z - 3) merges a ring that is its own mirror
    # image, whose mean is then taken as real.
    # Where the roots are simple, a real root (one within 1e-8 relative of
    # the axis, far below any pair of these draws) has imaginary part
    # exactly 0; a multiple real star may split into a pair of float roots.
    c, simple = row
    roots = find_roots(c)
    mirror = roots.conj()
    assert np.array_equal(mirror[np.lexsort((mirror.imag, mirror.real))], roots)
    if simple:
        near_axis = np.abs(roots.imag) <= 1e-8 * np.abs(roots)
        assert np.all(roots.imag[near_axis] == 0.0)


def test_mirror_components_merge_as_one():
    # A triple real star and a double conjugate pair at degree 14: the
    # pair's two mirror components once merged one at a time, each checked
    # against the running roots, and only one of them passed.  They are one
    # decision now, so the roots stay closed under conjugation.
    stars = _multiple_real_stars(14, 3, 2, np.random.default_rng([14, 3, 2, 0]))
    roots = find_roots(np.poly(stars).real[::-1].astype(complex))
    mirror = roots.conj()
    assert np.array_equal(mirror[np.lexsort((mirror.imag, mirror.real))], roots)


def test_star_beyond_the_range_of_its_row_comes_back_on_the_pole():
    # A star at 1e40 among stars of modulus about 1 makes c_n about 1e-41
    # of the largest coefficient, so the row is solved reversed, where that
    # star's companion eigenvalue can be exactly 0.  It comes back as one
    # root past 2 / TOL (inf for an exact 0) without a warning, the double
    # star still merges, and the state's constellation puts it on the pole.
    stars = np.r_[0.5, 0.5, 2.0, 3 + 1j, -1 - 1j, 1e40]
    roots = find_roots(_stars_polynomial(stars))
    far = ~(np.abs(roots) <= 2e10)
    assert far.sum() == 1
    values, counts = np.unique(roots[~far], return_counts=True)
    assert counts.max() == 2 and abs(values[counts == 2][0] - 0.5) <= 1e-7
    assert np.allclose(np.sort_complex(roots[~far]), np.sort_complex(stars[:-1]), atol=1e-7)
    state = mj.state_from_constellation(mj.Constellation(6, stars))
    c = mj.constellation_from_state(state)
    assert c.infinity_count == 1
    assert abs(mj.overlap(state, mj.state_from_constellation(c))) >= 1.0 - 1e-10


def test_wide_cluster_roots_rebuild_the_polynomial():
    # A 25-fold star among 5 others: the float polynomial has a wide ring of
    # ill-conditioned roots, and Newton steps taken one estimate at a time
    # can leave a set that meets the residual contract but no longer
    # rebuilds c (seeds 0 and 7 here).  The seeds still rebuild it.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        gauss = lambda k: rng.normal(size=k) + 1j * rng.normal(size=k)
        c = _stars_polynomial(np.r_[np.full(25, gauss(1)[0]), gauss(5)])
        roots = find_roots(c)
        assert np.abs(c[-1] * np.poly(roots)[::-1] - c).max() <= 1e-10, seed


def _trimmed_coherent(n):
    """A coherent state's polynomial (z - w)**n with the coefficients below
    1e-10 of the largest cut off its low end, and the polished companion
    estimates of what is left: a wide ring of ill-conditioned roots about
    w."""
    c = _stars_polynomial(np.full(n, 0.3 * np.exp(0.7j)))
    core = c[np.argmax(np.abs(c) > 1e-10) :]
    core = core / np.abs(core).max()
    return core, newton_polish(core[None], _companion_eigvals(core[None]))[0][0]


def _partition(label):
    """Labels renamed to the index of each label's first occurrence, so two
    labellings of the same partition compare equal."""
    first = {}
    return [first.setdefault(k, i) for i, k in enumerate(label)]


@pytest.mark.parametrize("n", range(2, 41))
def test_single_linkage_is_scipys(n):
    # The components of overlapping discs are single-linkage clusters: cut
    # at distance t, scipy's single-linkage tree gives the components of
    # the graph joining points at most t apart.
    rng = np.random.default_rng(n)
    gauss = lambda k: rng.normal(size=k) + 1j * rng.normal(size=k)
    half = gauss((n + 1) // 2)
    core, estimates = _trimmed_coherent(n)
    inputs = {
        "random": gauss(n),
        "duplicates": rng.permutation(np.concatenate([half, half])[:n]),
        "regular ring": 0.4 - 1j + 2.0 * np.exp(2j * np.pi * np.arange(n) / n),
        "trimmed coherent ring": estimates,
    }
    for name, z in inputs.items():
        if len(z) < 2:
            continue
        dist = pdist(np.column_stack([z.real, z.imag]))
        gap, tree = squareform(dist), linkage(dist, method="single")
        for t in np.quantile(dist, [0.0, 0.05, 0.2, 0.5, 1.0], method="nearest"):
            want = fcluster(tree, t, criterion="distance")
            assert _partition(_components(gap <= t)) == _partition(want), (name, t)
    if len(estimates) >= 2:
        # The solver's own discs about the coherent ring, as 0/1 distances.
        c, z = core[None], estimates[None]
        table = _table(z, z.shape[-1])
        p = (table @ c[..., None])[..., 0]
        mag = np.abs(c)
        overlap = _disc_overlaps(mag[:, -1], z, np.abs(p) + _rounding_floor(table, mag))[0]
        far = (~overlap).astype(float)[np.triu_indices(len(estimates), 1)]
        want = fcluster(linkage(far, method="single"), 0.5, criterion="distance")
        assert _partition(_components(overlap)) == _partition(want)
