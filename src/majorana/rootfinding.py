"""Batched polynomial root solving with multiplicity recovery.

The solver is tuned for the polynomials that arise from spin states: degree
up to a few dozen, coefficients normalized to max modulus 1, and physically
meaningful root collisions (a coherent state is one root repeated to full
degree).  Every call solves a stack of same-degree polynomials; find_roots
is a stack of one.

1. Seeds: the eigenvalues of each row's companion matrix, from one LAPACK
   call on the whole stack (geev balances every matrix first).  They are
   backward stable (Edelman & Murakami, Math. Comp. 64 (1995) 763).
2. Polish: a few guarded Newton steps over the whole stack.  A point whose
   residual is already at the rounding floor takes only rounding-size
   steps, so noise cannot scramble an ill-conditioned set of estimates.
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
   is still within the clustering radius is then merged.

Coefficient arrays are ordered low to high: coeffs[k] multiplies z**k.
"""

from __future__ import annotations

import numpy as np
from scipy.cluster.hierarchy import linkage, to_tree

from .errors import NonConvergence

_EPS = float(np.finfo(float).eps)

# Acceptance factor for the derivative-magnitude test that validates a
# candidate m-fold root.  Larger values merge near-collisions more eagerly.
_CLUSTER_C = 1e3


def polyval_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of sum_k coeffs[k] z**k at each entry of z."""
    acc = np.full_like(np.asarray(z, dtype=complex), coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _abs_horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k |coeffs[..., k]| |z|**k, the natural magnitude of p near z.

    coeffs is one row with z any 1-d array of points, or a stack of rows
    with one row of points per coefficient row.
    """
    a = np.abs(coeffs)[..., None]
    az = np.abs(z)
    acc = a[..., -1, :]
    for k in range(a.shape[-2] - 2, -1, -1):
        acc = acc * az + a[..., k, :]
    return acc


def derivative(coeffs: np.ndarray, order: int = 1) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    for _ in range(order):
        if len(c) <= 1:
            return np.zeros(1, dtype=complex)
        c = c[1:] * np.arange(1, len(c))
    return c


def _horner_batch(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of row b's polynomial at each z[b, :]."""
    p = np.empty_like(z)
    p[:] = coeffs[:, -1, None]
    dp = np.zeros_like(z)
    for k in range(coeffs.shape[1] - 2, -1, -1):
        dp = dp * z + p
        p = p * z + coeffs[:, k, None]
    return p, dp


def _companion_eigvals(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of every row's companion matrix, one LAPACK call."""
    rows, n = coeffs.shape[0], coeffs.shape[1] - 1
    comp = np.zeros((rows, n, n), dtype=complex)
    comp[:, 0, :] = -coeffs[:, -2::-1] / coeffs[:, -1, None]
    sub = np.arange(n - 1)
    comp[:, sub + 1, sub] = 1.0
    return np.linalg.eigvals(comp)


def _newton_polish(
    coeffs: np.ndarray, z: np.ndarray, iters: int = 3
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A few guarded Newton steps; a point only moves if its residual drops.

    Where |p| at the starting estimate is already down to the rounding
    floor of evaluating it there, the step is driven by that noise.  Such a
    point takes only steps of rounding size: in an ill-conditioned set (a
    coherent state's ring of roots after trimming, say) larger noise-driven
    steps move each estimate on its own and the set stops reproducing the
    polynomial.

    Returns the points and the values of p and p' there.
    """
    p, dp = _horner_batch(coeffs, z)
    floor = 2.0 * coeffs.shape[1] * _EPS * _abs_horner(coeffs, z)
    for _ in range(iters):
        step = p / np.where(dp == 0, np.inf, dp)
        znew = z - step
        pnew, dpnew = _horner_batch(coeffs, znew)
        tiny = np.abs(step) <= 10.0 * _EPS * np.abs(z)
        take = (np.abs(pnew) < np.abs(p)) & ((np.abs(p) > floor) | tiny)
        z = np.where(take, znew, z)
        p = np.where(take, pnew, p)
        dp = np.where(take, dpnew, dp)
    return z, p, dp


def _worst_residual(p: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """Largest |p(z)| / max(1, |z|)**n along the last axis."""
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.abs(p) / np.maximum(1.0, np.abs(z)) ** n
    return np.where(np.isfinite(ratio), ratio, np.inf).max(axis=-1, initial=0.0)


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
    """
    n = coeffs.shape[1] - 1
    z0 = -coeffs[:, n - 1] / (n * coeffs[:, n])
    k = np.arange(n + 1)
    binom = np.concatenate([[1.0], np.cumprod((n + 1 - k[1:]) / k[1:])])
    with np.errstate(over="ignore", invalid="ignore"):
        zk = z0[:, None] ** k
        power = coeffs[:, n, None] * binom * (-z0[:, None]) ** (n - k)
        gap = (np.abs(coeffs - power) * np.abs(zk)).sum(axis=1)
        fits = gap <= _CLUSTER_C * _EPS * (np.abs(coeffs) * np.abs(zk)).sum(axis=1)
        resid = _worst_residual((coeffs * zk).sum(axis=1, keepdims=True), z0[:, None], n)
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
    else:
        return None
    at = np.full((m, 1), z)
    mag = np.abs(_horner_batch(table[:m], at)[0][:, 0])
    scale = _abs_horner(table[:m], at)[:, 0]
    if (mag > _CLUSTER_C * scale * _EPS ** ((m - np.arange(m)) / m)).any():
        return None
    return z


def _validated_clusters(
    coeffs: np.ndarray, roots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Walk the single-linkage merge tree of the root estimates top-down,
    replacing every certifiable tight cluster by one exact multiple root.
    Returns the distinct roots and their multiplicities."""
    n = len(coeffs) - 1
    table = np.zeros((n + 1, n + 1), dtype=complex)
    table[0] = coeffs
    for j in range(1, n + 1):
        table[j, : n + 1 - j] = derivative(table[j - 1, : n + 2 - j])
    pts = np.column_stack([roots.real, roots.imag])
    tree = to_tree(linkage(pts, method="single"))
    out: list[tuple[complex, int]] = []

    def visit(node) -> None:
        idx = node.pre_order(lambda leaf: leaf.id)
        if len(idx) == 1:
            out.append((complex(roots[idx[0]]), 1))
            return
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
                return
        visit(node.left)
        visit(node.right)

    visit(tree)
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
    worst = _worst_residual(polyval_many(c, expanded), expanded, len(c) - 1)
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
    z, p, dp = _newton_polish(c, _companion_eigvals(c))
    worst = _worst_residual(p, z, n)
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
    dc = c[:, 1:] * np.arange(1, n + 1)
    simple = (np.abs(dp) > 1e-5 * _abs_horner(dc, z)).all(axis=1)
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
