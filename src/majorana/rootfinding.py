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

1. Seeds: the eigenvalues of each row's companion matrix, from one LAPACK
   call on the whole stack (geev balances every matrix first).  They are
   backward stable (Edelman & Murakami, Math. Comp. 64 (1995) 763).
2. Polish: up to three guarded Newton steps over the whole stack.  A point
   whose residual is already at the rounding floor takes only rounding-size
   steps, so noise cannot scramble an ill-conditioned set of estimates.  A
   point that rejects a step keeps its inputs and would reject it again, so
   the polish stops once no point moves.
3. Finishing gates, evaluated for the whole stack at once: the worst
   residual against the contract, a simple-root test on |p'| and a pairwise
   separation test at the clustering radius.  A row that passes all three
   is returned sorted.  A row that is an n-th power up to rounding (a
   coherent state) is returned as n copies of its root.  Only the others
   take the per-row path.
4. Certified cluster walk: an m-fold root scatters over a circle of radius
   about eps**(1/m).  The walk descends the single-linkage tree of a row's
   estimates and re-solves each tight cluster on the (m-1)-th derivative,
   where the root is simple and recoverable to machine precision; it keeps
   the multiple root only if every lower derivative vanishes there.  What
   is still within the clustering radius is then merged.  The merge matrix
   is built here the way scipy's linkage(..., method="single") builds it:
   a Prim minimum spanning tree over the estimates, its edges stably sorted
   by height, and union-find labels with the smaller cluster id as the left
   child.  The walk reads the tree straight from that matrix and visits its
   nodes from an explicit stack, depth first and left child first.

Coefficient arrays are ordered low to high: coeffs[k] multiplies z**k.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergence

_EPS = float(np.finfo(float).eps)

# Acceptance factor for the derivative-magnitude test that validates a
# candidate m-fold root.  Larger values merge near-collisions more eagerly.
_CLUSTER_C = 1e3


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
    big = np.abs(z) > 1.0
    t = _powers(np.divide(1.0, z, out=np.array(z, dtype=complex), where=big), n)
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


def polyval_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z**k at each entry of z."""
    return _powers(np.asarray(z, dtype=complex), len(coeffs) - 1) @ np.asarray(coeffs)


def _derivative_table(coeffs: np.ndarray) -> np.ndarray:
    """table[j] holds the coefficients of p^(j), zero-padded to len(coeffs):
    table[j, k] = coeffs[k + j] (k + 1)(k + 2)...(k + j)."""
    n = len(coeffs) - 1
    k = np.arange(n + 1)
    rising = np.cumprod(np.where(k[:, None] > 0, k + k[:, None], 1.0), axis=0)
    return np.where(k[:, None] + k <= n, coeffs[np.minimum(k[:, None] + k, n)] * rising, 0)


def derivative(coeffs: np.ndarray, order: int = 1) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    if order >= len(c):
        return np.zeros(1, dtype=complex)
    return _derivative_table(c)[order, : len(c) - order]


def _companion_eigvals(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of every row's companion matrix, one LAPACK call."""
    rows, n = coeffs.shape[0], coeffs.shape[1] - 1
    comp = np.zeros((rows, n, n), dtype=complex)
    comp[:, 0, :] = -coeffs[:, -2::-1] / coeffs[:, -1, None]
    sub = np.arange(n - 1)
    comp[:, sub + 1, sub] = 1.0
    return np.linalg.eigvals(comp)


def newton_polish(
    coeffs: np.ndarray, z: np.ndarray, iters: int = 3
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Up to iters guarded Newton steps on the estimates z[..., b, :] of row
    b's roots; a point only moves if its residual drops.

    p and p' are read from each point's charted table (see _table): their
    ratio, the Newton step, is that of the true values, and the residual
    compared is |p(z)| / max(1, |z|)**n, the contract's ratio.

    Where |p| at the starting estimate is already down to the rounding
    floor of evaluating it there, the step is driven by that noise.  Such a
    point takes only steps of rounding size: in an ill-conditioned set (a
    coherent state's ring of roots after trimming, say) larger noise-driven
    steps move each estimate on its own and the set stops reproducing the
    polynomial.  A point that rejects a step keeps z, p and p', so it would
    reject every later step too: the loop ends once no point moves, with the
    same result as running all iters.

    Returns the points and the charted values of p and p' there.
    """
    n = coeffs.shape[-1] - 1
    cols = _with_derivative(coeffs)
    table = _table(z, n)
    v = table @ cols
    p, dp = v[..., 0], v[..., 1]
    floor = 2.0 * (n + 1) * _EPS * (np.abs(table) @ np.abs(coeffs)[..., None])[..., 0]
    for _ in range(iters):
        step = p / np.where(dp == 0, np.inf, dp)
        znew = z - step
        v = _table(znew, n) @ cols
        pnew, dpnew = v[..., 0], v[..., 1]
        tiny = np.abs(step) <= 10.0 * _EPS * np.abs(z)
        take = (np.abs(pnew) < np.abs(p)) & ((np.abs(p) > floor) | tiny)
        if not take.any():
            break
        z = np.where(take, znew, z)
        p = np.where(take, pnew, p)
        dp = np.where(take, dpnew, dp)
    return z, p, dp


def _full_powers(
    coeffs: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the root z0 of p^(n-1), and whether the row is the n-th
    power c_n (z - z0)**n up to rounding, with n copies of z0 meeting the
    residual contract.

    A coherent state's root polynomial is such a power.  At high degree its
    n-fold root scatters the companion eigenvalues over a circle about as
    wide as |z0|; every estimate then looks simple, and the cluster walk
    never sees the cluster.  "Up to rounding" is the cluster walk's test of
    p itself at an n-fold root, applied coefficient by coefficient:
    sum_k |c_k - power_k| |z0|**k <= _CLUSTER_C * eps * sum_k |c_k| |z0|**k.
    Each term is |c_k z0**k - lead_k z0**n|, with lead_k z0**(n-k) the
    power's coefficient; read from the charted table (see _table), every
    term is divided by z0**n where |z0| > 1, so no power of z0 overflows.
    """
    n = coeffs.shape[1] - 1
    z0 = -coeffs[:, n - 1] / (n * coeffs[:, n])
    k = np.arange(n + 1)
    binom = np.concatenate([[1.0], np.cumprod((n + 1 - k[1:]) / k[1:])])
    lead = coeffs[:, n, None] * binom * (-1.0) ** (n - k)
    table = _table(z0, n)
    gap = np.abs(coeffs * table - lead * table[:, n:]).sum(axis=1)
    fits = gap <= _CLUSTER_C * _EPS * (np.abs(coeffs) * np.abs(table)).sum(axis=1)
    resid = _contract_ratios((coeffs * table).sum(axis=1))
    return z0, fits & (resid <= tol)


def _close_pairs(z: np.ndarray, radius: float) -> np.ndarray:
    """close[..., i, j]: estimates i != j lie within radius*(1 + max|z|)."""
    az = np.abs(z)
    gap = np.abs(z[..., :, None] - z[..., None, :])
    reach = radius * (1.0 + np.maximum(az[..., :, None], az[..., None, :]))
    close = gap <= reach
    diag = np.arange(z.shape[-1])
    close[..., diag, diag] = False
    return close


def _refine_multiple(
    table: np.ndarray, center: complex, m: int, spread: float
) -> complex | None:
    """Try to certify an m-fold root near center; return it or None.

    table[j] holds the coefficients of p^(j), zero-padded to a common
    length.  An m-fold root of p is a simple root of p^(m-1), so Newton on
    that derivative converges quadratically to full precision.  The
    candidate is accepted only if every lower derivative of p vanishes there
    to within the perturbation theory of an m-fold root (|p^(j)| of order
    eps**((m-j)/m) relative to its coefficient-magnitude scale).
    """
    # Python scalars: one Newton step on a single point costs less than a
    # numpy call per coefficient.
    g = table[m - 1, : len(table) - m + 1].tolist()
    z = center
    leash = max(4.0 * spread, 1e-7 * (1.0 + abs(center)))
    last = math.inf
    for _ in range(60):
        gv, dgv = g[-1], 0j
        for c in g[-2::-1]:
            dgv = dgv * z + gv
            gv = gv * z + c
        if dgv == 0:
            return None
        step = gv / dgv
        z = z - step
        if abs(z - center) > leash:
            return None
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
        # Near a simple root every Newton step is smaller than the one
        # before; a step that is not has met the rounding noise of g.  Noise
        # steps wander about that level, so where it is a thousand times the
        # convergence test no later step passes the test.  Below that level
        # a noise step can still pass by chance, so those refinements run on.
        if abs(step) >= last and abs(step) > 1e-12 * (1.0 + abs(z)):
            return None
        last = abs(step)
    else:
        return None
    at = _table(np.array([z]), len(table) - 1)
    mag = np.abs(at @ table[:m].T)[0]
    scale = (np.abs(at) @ np.abs(table[:m].T))[0]
    if (mag > _CLUSTER_C * scale * _EPS ** ((m - np.arange(m)) / m)).any():
        return None
    return z


def _single_linkage(z: np.ndarray) -> np.ndarray:
    """The single-linkage merge matrix of the points z in the plane, row for
    row scipy's linkage(..., method="single"): row j joins the clusters
    merges[j, 0] < merges[j, 1] at height merges[j, 2] into cluster n + j of
    merges[j, 3] points, and point i is cluster i.

    Prim's minimum spanning tree grows from point 0, each step adding the
    nearest point still outside, the lowest index on ties; its edges,
    stably sorted by length, are the merges.
    """
    n = len(z)
    dx = z.real[:, None] - z.real
    dy = z.imag[:, None] - z.imag
    dist = np.sqrt(dx * dx + dy * dy)
    near = np.full(n, np.inf)
    edges = np.empty((n - 1, 3))
    x = 0
    for k in range(n - 1):
        dist[:, x] = np.inf  # x is inside the tree now
        near[x] = np.inf
        np.minimum(near, dist[x], out=near)
        y = int(np.argmin(near))
        edges[k] = x, y, near[y]
        x = y
    edges = edges[np.argsort(edges[:, 2], kind="stable")]
    parent = list(range(2 * n - 1))
    size = [1] * (2 * n - 1)

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    merges = np.empty((n - 1, 4))
    for j, (a, b, height) in enumerate(edges.tolist()):
        ra, rb = root(int(a)), root(int(b))
        parent[ra] = parent[rb] = n + j
        size[n + j] = size[ra] + size[rb]
        merges[j] = min(ra, rb), max(ra, rb), height, size[n + j]
    return merges


def _validated_clusters(
    coeffs: np.ndarray, roots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Walk the single-linkage merge tree of the root estimates top-down,
    replacing every certifiable tight cluster by one exact multiple root.
    Returns the distinct roots and their multiplicities.

    Node i < n of the tree is estimate i; node n + j is the merge in row j
    of the linkage matrix.  runs[node] lists the node's estimates left child
    first, the order of the tree's pre-order traversal; an explicit stack
    visits the nodes in that order too.
    """
    n = len(roots)
    table = _derivative_table(coeffs)
    children = _single_linkage(roots)[:, :2].astype(int).tolist()
    runs = [[i] for i in range(n)]
    for left, right in children:
        runs.append(runs[left] + runs[right])
    out: list[tuple[complex, int]] = []
    stack = [2 * n - 2]
    while stack:
        node = stack.pop()
        idx = runs[node]
        if len(idx) == 1:
            out.append((complex(roots[idx[0]]), 1))
            continue
        sub = roots[idx]
        center = complex(sub.mean())
        spread = float(np.abs(sub - center).max())
        # A genuine m-fold root scatters estimates over about eps**(1/m);
        # anything much wider is a set of distinct roots, not worth a
        # refinement attempt.
        limit = 10.0 * _EPS ** (1.0 / len(idx)) * (1.0 + abs(center))
        if spread <= min(0.5 * (1.0 + abs(center)), limit):
            z = _refine_multiple(table, center, len(idx), spread)
            if z is not None:
                out.append((z, len(idx)))
                continue
        stack.extend(reversed(children[node - n]))
    return (np.array([z for z, _ in out], dtype=complex),
            np.array([m for _, m in out]))


def _merge_by_radius(
    z: np.ndarray, m: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy single-linkage merge of points closer than radius*(1+|z|):
    the first close pair in row-major order becomes its weighted mean,
    until no pair is close."""
    z, m = z.copy(), m.copy()
    while True:
        close = np.triu(_close_pairs(z, radius))
        if not close.any():
            return z, m
        i, j = divmod(int(np.argmax(close)), len(z))
        z[i] = (m[i] * z[i] + m[j] * z[j]) / (m[i] + m[j])
        m[i] += m[j]
        z, m = np.delete(z, j), np.delete(m, j)


def _finish(
    c: np.ndarray, roots: np.ndarray, simple: bool, cluster_radius: float, tol: float
) -> np.ndarray:
    """Per-row path: multiplicity recovery, merge, contract, canonical order."""
    if simple:
        z, m = roots, np.ones(len(roots), dtype=int)
    else:
        z, m = _validated_clusters(c, roots)
    expanded = np.repeat(*_merge_by_radius(z, m, cluster_radius))
    worst = residual_ratios(c, expanded).max(initial=0.0)
    if worst > tol:
        raise NonConvergence(
            f"clustered roots violate the residual contract ({worst:.3e} > {tol:.3e})"
        )
    return expanded[np.lexsort((expanded.imag, expanded.real))]


def find_roots(
    coeffs: np.ndarray, tol: float = 1e-10, cluster_radius: float = 1e-7
) -> np.ndarray:
    """All roots of the polynomial, multiplicities expanded, sorted.

    coeffs must have nonzero first and last entries (no roots at zero or
    infinity; the caller strips those).  Raises NonConvergence when the
    roots miss the backward-error contract
    |p(z)| <= tol * max|coeffs| * max(1, |z|)**degree.
    """
    return find_roots_batch(np.asarray(coeffs, dtype=complex)[None], tol, cluster_radius)[0]


def find_roots_batch(
    coeffs: np.ndarray, tol: float = 1e-10, cluster_radius: float = 1e-7
) -> list[np.ndarray]:
    """find_roots over a stack of same-degree coefficient rows.

    A row's result does not depend on the other rows of the stack.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2:
        raise ValueError("expected a 2-d coefficient stack")
    n = c.shape[1] - 1
    if n < 1:
        return [np.zeros(0, dtype=complex) for _ in range(c.shape[0])]
    scale = np.abs(c).max(axis=1, keepdims=True)
    if (scale == 0).any() or (c[:, 0] == 0).any() or (c[:, -1] == 0).any():
        raise ValueError("coefficients must be trimmed and nonzero")
    c = c / scale
    if n == 1:
        return [np.array([-row[0] / row[1]]) for row in c]
    z0, power = _full_powers(c, tol)
    z, p, dp = newton_polish(c, _companion_eigvals(c))
    worst = _contract_ratios(p).max(axis=1, initial=0.0)
    miss = np.flatnonzero((worst > tol) & ~power)
    if len(miss):
        raise NonConvergence(
            f"root residual {worst[miss[0]]:.3e} exceeds tolerance {tol:.3e} for degree {n}"
        )
    # An m-fold root pushes |p'| at its estimates down to order
    # eps**((m-1)/m) of the coefficient scale (about 1e-8 for a double
    # root), far below this gate, as long as the estimates stay close to it.
    # A full-degree root at high degree scatters them too far; _full_powers
    # catches that case.
    scale = (np.abs(_table(z, n)) @ np.abs(_with_derivative(c)[..., 1:]))[..., 0]
    simple = (np.abs(dp) > 1e-5 * scale).all(axis=1)
    separated = ~_close_pairs(z, cluster_radius).any(axis=(1, 2))
    order = np.lexsort((z.imag, z.real), axis=-1)
    out = []
    for b in range(c.shape[0]):
        if power[b]:
            out.append(np.full(n, z0[b]))
        elif simple[b] and separated[b]:
            out.append(z[b, order[b]])
        else:
            out.append(_finish(c[b], z[b], bool(simple[b]), cluster_radius, tol))
    return out
