"""Batched polynomial root solving with multiplicity recovery.

The solver is tuned for the polynomials that arise from spin states: degree
up to a few dozen, coefficients normalized to max modulus 1, and physically
meaningful root collisions (a coherent state is one root repeated to full
degree).  Every call solves a stack of same-degree polynomials; find_roots
is a stack of one.

Every evaluation reads from one power table per point set, built by
cumulative products, with each point in its own chart: z**0 .. z**n where
|z| <= 1, and (1/z)**n .. (1/z)**0 elsewhere.  Against it a polynomial
gives p(z), or p(z) / z**n where |z| > 1, whose modulus
|p(z)| / max(1, |z|)**n is exactly the ratio the residual contract bounds;
no entry exceeds 1, so a far star at high degree cannot overflow.  p, p'
and the magnitude scale sum_k |c_k| |z|**k come from stacked matrix
products against the table, so no stage loops over coefficients in Python.

1. Roots: the eigenvalues of each row's companion matrix, one LAPACK call
   per coefficient type on the whole stack (geev balances every matrix
   first).  They are backward stable (Edelman & Murakami, Math. Comp. 64
   (1995) 763), so they are final up to the polish and merges below.  A
   row with real coefficients gets a real matrix: exact conjugate pairs.
   A row whose companion matrix overflows, its top coefficient below about
   1e-308 of the largest and its constant one too small to flip it (see
   below), raises NonConvergence; so does one whose roots end with more
   exact zeros than it vanishes to at 0, as both ends tiny can make them.
2. Gates, from one power table at the eigenvalues, which gives p and its
   rounding floor 2 (n + 1) eps sum_k |c_k| |z|**k: the Weierstrass
   inclusion discs |z - z_i| <= n |W_i|, W_i = p(z_i) / (c_n prod_{j != i}
   (z_i - z_j)), with the floor added to |p(z_i)|.  A connected union of m
   discs that meets no other disc holds exactly m roots (Carstensen,
   Numer. Math. 59 (1991) 349; Bini & Fiorentino, Numer. Algorithms 23
   (2000) 127).  In a row of pairwise disjoint discs, each point whose |p|
   is above the floor, the only points a Newton step can improve, takes
   one Newton step (newton_polish) in a row of its own.  Then the worst
   residual is checked against the contract; a row of disjoint discs is
   final, and every other row takes the per-row path.
3. Per-row path: an m-fold root scatters its eigenvalues over a circle of
   radius about eps**(1/m), and their discs overlap; a coherent state, one
   root repeated to full degree, is the case m = n.  Its eigenvalues are
   not polished: Newton moves each estimate on its own and can scramble an
   ill-conditioned cluster, which the eigenvalues, exact roots of a nearby
   polynomial, still rebuild.  Each connected component of m > 1 discs
   becomes m copies of its estimates' mean if the mean meets the residual
   contract and the merged roots' Vieta coefficients stay within TOL of the
   row's own; if not, the component keeps its m estimates.  In a row with
   real coefficients a component and its mirror image are one decision, so
   the roots stay in exact conjugate pairs.

A row whose top coefficient is below 1e-3 of its constant one takes every
step in the 1/z chart: reversed, so that its far stars are small roots of
a row with a large leading coefficient, whose companion eigenvalues stay
accurate.  Its roots are inverted at the end; an estimate at exactly 0
becomes inf, where the contract reads |c_n| <= TOL * max|c_k|.  The
contract ratio |p(z)| / max(1, |z|)**n of p at z is that of the reversed
row at 1/z, so the check holds in either chart.  Only the Vieta check of
a merge is made against the original row: scaled to its leading
coefficient, the reversed row's constant one.  The chart stays for three
jobs: accurate companion eigenvalues of such rows; the Newton step of an
estimate the reversed companion returns as exactly 0 (a star at 1e40, or
1e-50 to 1e-300 of the largest coefficient); a far cluster's mean.  Seeded
from the reversed companion but polished, gated and merged in the z
chart, 2S = 40 coherent rows and the stars seeded at 0 failed.

Every row is returned sorted by (real, imag), in one sort over the stack.
A degree-1 row takes the same steps: its companion eigenvalue is -c0/c1.

Coefficient arrays are ordered low to high: coeffs[k] multiplies z**k.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence

#: The residual contract: every root z of p meets
#: |p(z)| <= TOL * max|p_k| * max(1, |z|)**degree.
TOL = 1e-10

_EPS = float(np.finfo(float).eps)


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """z**0 .. z**n along a new last axis, by cumulative products."""
    t = np.empty(np.shape(z) + (n + 1,), dtype=np.result_type(z, float))
    t[..., 0] = 1.0
    t[..., 1:] = np.asarray(z)[..., None]
    return np.cumprod(t, axis=-1, out=t)


def _table(z: np.ndarray, n: int) -> np.ndarray:
    """The power table of each point in its own chart: z**0 .. z**n where
    |z| <= 1, and (1/z)**n .. (1/z)**0, that is z**k / z**n, elsewhere.

    A polynomial of formal degree n read against it gives q(z), or q(z) /
    z**n where |z| > 1: its modulus is |q(z)| / max(1, |z|)**n, a ratio of
    two such values is the ratio of the polynomial values, and no entry
    exceeds 1 in modulus, so a far point at high degree cannot overflow.
    """
    z = np.asarray(z, dtype=complex)
    big = np.abs(z) > 1.0
    if not big.any():
        return _powers(z, n)
    t = _powers(np.divide(1.0, z, out=z.copy(), where=big), n)
    return np.where(big[..., None], t[..., ::-1], t)


def _with_derivative(coeffs: np.ndarray) -> np.ndarray:
    """coeffs and the coefficients of its derivative, padded with a zero to
    the same length, as the two columns of a new last axis."""
    cols = np.empty(coeffs.shape + (2,), dtype=coeffs.dtype)
    cols[..., 0] = coeffs
    cols[..., :-1, 1] = coeffs[..., 1:] * np.arange(1, coeffs.shape[-1])
    cols[..., -1, 1] = 0.0
    return cols


def _contract_ratios(v: np.ndarray) -> np.ndarray:
    """|v| for values read from _table, a non-finite value reading inf."""
    return np.where(np.isfinite(v), np.abs(v), np.inf)


def residual_ratios(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|p(z)| / max(1, |z|)**n, the quantity the residual contract bounds,
    for row b's polynomial at each z[..., b, :]; a value that is not finite
    reads inf.  Each point is evaluated in its own chart (see _table), so
    no power of a far point overflows."""
    coeffs = np.asarray(coeffs, dtype=complex)
    table = _table(np.asarray(z, dtype=complex), coeffs.shape[-1] - 1)
    return _contract_ratios((table @ coeffs[..., None])[..., 0])


def _rounding_floor(table: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """2 (n + 1) eps sum_k |c_k| |z|**k for row b's polynomial, of
    coefficient moduli mag[..., b, :], at each point of table[..., b, :, :],
    charted like the table: a bound on the rounding error of p read from
    it."""
    n = mag.shape[-1] - 1
    return 2.0 * (n + 1) * _EPS * (np.abs(table) @ mag[..., None])[..., 0]


def _companion_eigvals(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of every row's companion matrix, one LAPACK call per
    coefficient type: a row with real coefficients gets a real matrix
    (dgeev), so its eigenvalues come in exact conjugate pairs.  Raises
    NonConvergence, naming the degree, if a matrix entry c_k / c_n
    overflows."""
    n = coeffs.shape[1] - 1

    def eigvals(c):
        comp = np.zeros((len(c), n, n), dtype=c.dtype)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            comp[:, 0, :] = -c[:, -2::-1] / c[:, -1, None]
        if not np.isfinite(comp[:, 0]).all():
            raise NonConvergence(f"companion matrix overflows for degree {n}")
        comp.reshape(len(c), n * n)[:, n :: n + 1] = 1.0  # the subdiagonal
        return np.linalg.eigvals(comp)

    real = (coeffs.imag == 0).all(axis=1)
    if real.all() or not real.any():
        return eigvals(coeffs.real if real[0] else coeffs).astype(complex, copy=False)
    out = np.empty((len(coeffs), n), dtype=complex)
    out[real] = eigvals(coeffs.real[real])
    out[~real] = eigvals(coeffs[~real])
    return out


def newton_polish(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step on the estimates z[..., b, :] of row b's roots; a
    point only moves if its residual drops, and a point where p' = 0 stays.

    p and p' are read from each point's charted table (see _table): their
    ratio, the Newton step, is that of the true values, and the residual
    compared is |p(z)| / max(1, |z|)**n, the contract's ratio.

    Returns the points and the charted values of p there.
    """
    n = coeffs.shape[-1] - 1
    cols = _with_derivative(coeffs)
    p, dp = np.moveaxis(_table(z, n) @ cols, -1, 0)
    znew = z - p / np.where(dp == 0, np.inf, dp)
    pnew = (_table(znew, n) @ cols)[..., 0]
    take = np.abs(pnew) < np.abs(p)
    return np.where(take, znew, z), np.where(take, pnew, p)


def _disc_overlaps(lead: np.ndarray, z: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """overlap[b, i, j]: the Weierstrass inclusion discs of estimates i and
    j of row b meet (i == j included); lead[b] is |c_n| of row b and
    bound[b, i] is |p(z_i)| + floor_i.

    The disc of z_i has radius n (|p(z_i)| + floor_i) / |c_n prod_{j != i}
    (z_i - z_j)|: n |W_i|, with the rounding floor of reading p added so
    that no disc is smaller than the rounding of p allows.  p and the floor
    are read from the charted table (see _table), divided by |z_i|**n where
    |z_i| > 1.  Each factor z_i - z_j is divided by z_i there too, and the
    product is summed in logs, so neither a far nor a spread star can
    overflow it.  Estimates that coincide get infinite discs.
    """
    n = z.shape[-1]
    gap = np.abs(z[:, :, None] - z[:, None, :])
    s = np.maximum(1.0, np.abs(z))
    with np.errstate(divide="ignore", over="ignore"):
        logs = np.log(gap / s[:, :, None])
        logs.reshape(len(z), n * n)[:, :: n + 1] = 0.0  # the diagonal
        log_r = np.log(n * bound * s / lead[:, None]) - logs.sum(axis=-1)
        radius = np.exp(log_r)
    return gap <= radius[:, :, None] + radius[:, None, :]


def _components(overlap: np.ndarray) -> np.ndarray:
    """Connected components of the graph whose adjacency matrix is overlap
    (diagonal set): each vertex is labelled with the least index in its
    component.  These are the single-linkage clusters of the discs.  A
    graph of no vertices has the empty labelling."""
    n = len(overlap)
    label = np.arange(n)
    while True:  # each disc takes the least label it touches, until none changes
        new = np.where(overlap, label, n).min(axis=1, initial=n)
        if (new == label).all():
            return label
        label = new


def _root_coefficients(roots: np.ndarray, n: int) -> np.ndarray:
    """Coefficients (low to high, length n + 1) of a positive multiple of
    prod_j (z - roots_j); the top n - len(roots) entries are 0.  A factor
    z - w grows max|c| at most (1 + |w|)-fold, so before a step that would
    take that running bound past 1e200, c is scaled to max modulus 1.  A
    root with |Re w| + |Im w| past 1e300 enters as the factor 2**-16 (z -
    w), whose bound 2**-16 + |2**-16 w| is finite: |w| itself can pass the
    float limit (about 1.8e308), and numpy's product of an array and a
    complex scalar overflows once |Re w| + |Im w| does.  So every finite
    root is accepted, and none overflows c."""
    roots = np.asarray(roots, dtype=complex).reshape(-1)
    r = len(roots)
    c = np.zeros(n + 1, dtype=complex)
    c[r] = 1.0
    bound = 1.0  # a Python float: inf on overflow, never a warning
    for j, w in enumerate(roots.tolist()):
        shrink = 1.0
        if abs(w.real) + abs(w.imag) > 1e300:
            shrink = 2.0**-16
            w *= shrink  # a power of two: exact unless a part is subnormal
        step = shrink + abs(w)
        if bound * step > 1e200:
            c /= np.abs(c).max()
            bound = 1.0
        prod = w * c[r - j : r + 1]
        if shrink != 1.0:
            c *= shrink  # every entry outside c[r - j : r + 1] is 0
        head = c[r - j - 1 : r]
        head -= prod  # c[...] -= ... would also copy it back
        bound *= step
    return c


def _finish(c: np.ndarray, z: np.ndarray, overlap: np.ndarray, flipped: bool) -> np.ndarray:
    """Per-row path: multiplicity from the overlapping discs; the roots keep
    z's order.  c has max modulus 1; z are the row's companion eigenvalues,
    unpolished, and overlap is _disc_overlaps of z.

    Each connected component of m > 1 overlapping discs becomes m copies of
    its estimates' mean if the mean meets the residual contract and the
    merged roots' Vieta coefficients, scaled to the original row's leading
    coefficient, stay within TOL of c; otherwise, or where their leading
    entry underflows (an inf or nan quotient), it keeps its m estimates.
    Where flipped, c is the row reversed and that coefficient is c[0]; if a
    root there is exactly 0, a pole of the original row, the scale is c's
    own leading coefficient instead.  The anchor is the original row's
    c_n because that is how stars rebuild a row: c_n times the Vieta
    coefficients of its roots, which is also how the tests rebuild it at 50
    digits.  Anchored in the solved chart, or at argmax|c_k|, the check
    merged more rotated and coherent states into one star (161, or 172, of
    300, against 130), but 4 (or 5) of 600 rows shaped like
    test_clustered_roots_match_the_oracle's then rebuilt at up to 2.9e-10
    (or 1.0e-9) of max|c|, past that test's 1e-10.  A coherent row, whose
    n estimates ring one root, is one component of n discs and merges here
    into n copies.  In a row with real coefficients z comes in exact
    conjugate pairs, and two discs count as meeting when their mirror
    images do, so the mirror image of a component is a component: the same
    one, whose mean is taken as real, or another, and then the two merge
    (into conjugate means) or stay as one decision, with one Vieta check.
    Every root returned meets the contract: an eigenvalue find_roots_batch
    checked, or a mean checked here.
    """
    real = not c.imag.any()
    if real:
        # z[partner] == z.conj(): both orders sort the same multiset.
        partner = np.empty(len(z), dtype=int)
        partner[np.lexsort((-z.imag, z.real))] = np.lexsort((z.imag, z.real))
        overlap = overlap | overlap[partner][:, partner]
    label = _components(overlap)
    out = z
    for k in np.flatnonzero(np.bincount(label) > 1):
        idx = np.flatnonzero(label == k)
        mirror = label[partner[idx[0]]] if real else k
        if mirror < k:
            continue  # decided with its mirror image
        center = z[idx].mean()
        merged = out.copy()
        if mirror != k:
            merged[partner[idx]] = center.conjugate()
        elif real:
            center = center.real
        if residual_ratios(c, np.array([center]))[0] > TOL:
            continue
        merged[idx] = center
        a = _root_coefficients(merged, len(z))
        lead = 0 if flipped and a[0] != 0 else -1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if np.abs(c[lead] * a / a[lead] - c).max() <= TOL:
                out = merged
    return out


def find_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of the polynomial, multiplicities expanded, sorted.

    Each zero entry below the first nonzero one is a root at exactly 0, and
    each above the last nonzero one a root at inf; the core between them is
    solved.  An all-zero row raises ValueError.  Raises NonConvergence when
    the roots miss the residual contract TOL, or when the companion matrix
    overflows (step 1 of the module docstring).  A root of a core is inf
    only where it is solved in the 1/z chart and has an estimate at exactly 0.
    """
    return find_roots_batch(np.asarray(coeffs, dtype=complex)[None])[0]


def find_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """find_roots over an (N, n + 1) stack of same-degree coefficient rows,
    by the steps of the module docstring: an (N, n) array whose row b holds
    row b's roots, sorted.  A row's result does not depend on the other
    rows of the stack: the cores of rows with a zero end are solved in one
    stack per core degree, whose ends are nonzero."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2:
        raise ValueError("expected a 2-d coefficient stack")
    n = c.shape[1] - 1
    if n < 1:
        return np.zeros((c.shape[0], 0), dtype=complex)
    if not (c[:, ::n] != 0).all():  # a zero end: solve each row's core
        keep = c != 0
        if not keep.any(axis=1).all():
            raise ValueError("an all-zero coefficient row has no roots")
        lead = np.argmax(keep, axis=1)
        degree = n - lead - np.argmax(keep[:, ::-1], axis=1)
        z = np.where(np.arange(n) < lead[:, None], 0j, np.inf)
        for d in np.flatnonzero(np.bincount(degree)):
            rows = np.flatnonzero(degree == d)
            core = lead[rows, None] + np.arange(d + 1)
            z[rows[:, None], core[:, :-1]] = find_roots_batch(c[rows[:, None], core])
        return np.sort(z, axis=-1, kind="stable")
    mag = np.abs(c)
    scale = mag.max(axis=1, keepdims=True)
    c = c / scale
    mag /= scale
    flip = mag[:, -1] < 1e-3 * mag[:, 0]
    flipped = flip.any()
    if flipped:
        c[flip] = c[flip, ::-1]
        mag[flip] = mag[flip, ::-1]
    z = _companion_eigvals(c)
    table = _table(z, n)
    p = (table @ c[..., None])[..., 0]
    size = np.abs(p)
    floor = _rounding_floor(table, mag)
    overlap = _disc_overlaps(mag[:, -1], z, size + floor)
    isolated = overlap.sum(axis=(1, 2)) == n
    # One Newton step for each separated root above the rounding floor.
    rows, cols = np.nonzero(isolated[:, None] & (size > floor))
    if len(rows):
        zp, pp = newton_polish(c[rows], z[rows, cols][:, None])
        z[rows, cols], p[rows, cols] = zp[:, 0], pp[:, 0]
        size[rows, cols] = np.abs(pp[:, 0])
    miss = ~(size <= TOL)  # a value that is not finite misses too
    if miss.any():
        worst = _contract_ratios(p[miss.any(axis=1)][0]).max()
        raise NonConvergence(
            f"root residual {worst:.3e} exceeds tolerance {TOL:.3e} for degree {n}"
        )
    for b in np.flatnonzero(~isolated):
        z[b] = _finish(c[b], z[b], overlap[b], flip[b])
    # k roots at exactly 0 are a k-fold root only where c_0 .. c_(k-1) meet
    # the contract.  The companion eigenvalues of a row with both ends tiny
    # can collapse to zeros, each of which meets it alone.
    zeros = (z == 0).sum(axis=1)
    order = np.cumprod(mag <= TOL, axis=1).sum(axis=1)
    if (zeros > order).any():
        b = np.argmax(zeros > order)
        raise NonConvergence(
            f"{zeros[b]} roots at 0 where the row vanishes to order {order[b]}, for degree {n}"
        )
    if flipped:
        w = z[flip]
        z[flip] = np.divide(1.0, w, out=np.full_like(w, np.inf), where=w != 0)
    # numpy orders complex values by (real, imag); a stable sort keeps equal
    # values in order, as a lexsort on the two parts would.
    return np.sort(z, axis=-1, kind="stable")
