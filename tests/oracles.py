"""Exact reference values and independent routes the tests check the
package against."""

import math
from fractions import Fraction

import mpmath
import numpy as np

from majorana.multipoles import q_grid
from majorana.rootfinding import _companion_eigvals


def clebsch_gordan(
    two_j1: int, two_m1: int, two_j2: int, two_m2: int, two_J: int, two_M: int
) -> float:
    """<j1 m1; j2 m2 | J M> with all quantum numbers doubled to integers.

    Selection-rule failures (projection mismatch, triangle violation,
    |m| > j) return exactly 0.0; malformed inputs (negative j, parity of a
    doubled m disagreeing with its j) raise ValueError.  Evaluated with the
    Racah single-sum formula in exact rational arithmetic, so the only
    rounding is the final square root.  Once the parities of the m's match
    their j's and M = m1 + m2, j1 + j2 + J is an integer, so the sum's
    factorial arguments are integers.
    """
    args = (two_j1, two_m1, two_j2, two_m2, two_J, two_M)
    if any(not isinstance(a, (int, np.integer)) for a in args):
        raise ValueError("quantum numbers must be (doubled) integers")
    if two_j1 < 0 or two_j2 < 0 or two_J < 0:
        raise ValueError("angular momenta must be nonnegative")
    if (two_j1 + two_m1) % 2 or (two_j2 + two_m2) % 2 or (two_J + two_M) % 2:
        raise ValueError("m parity inconsistent with j")
    if abs(two_m1) > two_j1 or abs(two_m2) > two_j2 or abs(two_M) > two_J:
        return 0.0
    if two_m1 + two_m2 != two_M:
        return 0.0
    if two_J < abs(two_j1 - two_j2) or two_J > two_j1 + two_j2:
        return 0.0

    fact = math.factorial
    g = (two_j1 + two_j2 - two_J) // 2
    j1m1 = (two_j1 - two_m1) // 2
    j2m2 = (two_j2 + two_m2) // 2
    t_lo = max(0, (two_j2 - two_J - two_m1) // 2, (two_j1 - two_J + two_m2) // 2)
    t_hi = min(g, j1m1, j2m2)
    total = Fraction(0)
    for t in range(t_lo, t_hi + 1):
        den = (
            fact(t)
            * fact(g - t)
            * fact(j1m1 - t)
            * fact(j2m2 - t)
            * fact((two_J - two_j2 + two_m1) // 2 + t)
            * fact((two_J - two_j1 - two_m2) // 2 + t)
        )
        total += Fraction(-1 if t % 2 else 1, den)
    if total == 0:
        return 0.0
    pref = Fraction(
        (two_J + 1)
        * fact(g)
        * fact((two_j1 - two_j2 + two_J) // 2)
        * fact((-two_j1 + two_j2 + two_J) // 2),
        fact((two_j1 + two_j2 + two_J) // 2 + 1),
    )
    pref *= (
        fact((two_j1 + two_m1) // 2)
        * fact(j1m1)
        * fact(j2m2)
        * fact((two_j2 - two_m2) // 2)
        * fact((two_J + two_M) // 2)
        * fact((two_J - two_M) // 2)
    )
    value_sq = pref * total * total
    return math.copysign(math.sqrt(float(value_sq)), float(total))


def quadrature_kernel(twoS: int, K: int) -> float:
    """Constant turning the Q-against-Y_Kq quadrature back into a multipole
    component: sqrt((2S-K)! (2S+K+1)!) / (sqrt(4 pi) (2S)!)."""
    log = 0.5 * (math.lgamma(twoS - K + 1) + math.lgamma(twoS + K + 2))
    log -= math.lgamma(twoS + 1)
    return math.exp(log) / math.sqrt(4.0 * math.pi)


def multipoles_by_quadrature(state) -> np.ndarray:
    """rho[K, q + 2S] of a state with 2S >= 1 from sphere quadrature of its
    Husimi function against the orthonormal spherical harmonics
    (Condon-Shortley phase), independent of the tensor table.

    The overlap of Q with Y_Kq is quadrature_kernel(2S, K) times the (K, q)
    component up to a (-1)^(K+q) signature, which enters because theta is
    measured from the lowest-weight pole and phi winds as exp(-i phi).
    Q Y_Kq^* has degree 2S + K <= 4S in cos(theta) and Fourier modes up to
    4S in phi, so the q_grid of 2S + 1 Gauss-Legendre nodes by 4S + 1 equal
    phi steps integrates every order exactly.  The kernel, which peaks at
    K = 2S, multiplies the rounding: for random states the route agrees with
    multipoles() to about 1e-12 at 2S = 12, 1e-10 at 20 and 1e-7 at 30.
    """
    from scipy.special import sph_legendre_p

    twoS = state.label.twoS
    grid = q_grid(state, twoS + 1, 4 * twoS + 1)
    Ks = np.arange(twoS + 1)
    qs = np.arange(-twoS, twoS + 1)
    # fourier[i, q + 2S] = sum_j Q(theta_i, phi_j) e^{-i q phi_j} dphi
    fourier = grid.values @ np.exp(-1j * np.outer(grid.phi_nodes, qs)) * grid.phi_weight
    # legendre[K, q + 2S, i], 0 where |q| > K ([0]: no derivatives)
    legendre = sph_legendre_p(Ks[:, None, None], qs[:, None], grid.theta_nodes)[0]
    raw = np.einsum("Kqi,iq->Kq", legendre, grid.theta_weights[:, None] * fourier)
    kernel = np.array([quadrature_kernel(twoS, K) for K in Ks])
    return kernel[:, None] * (-1.0) ** np.add.outer(Ks, qs) * raw


def _ladder_tensors(twoS: int, M: int) -> dict:
    """x[K, q] for 1 <= K <= M and 0 <= q <= K: the one nonzero diagonal of
    the orthonormal tensor T_Kq, entry (k + q, k) at index k, in mpmath
    numbers at the working precision.

    Built by the ladder alone from the exact entries u_k = <k + 1|S+|k> =
    sqrt((k + 1)(2S - k)): T_KK is (-1)^K (S+)^K scaled to unit Frobenius
    norm, and T_K,q-1 = [S-, T_Kq] / sqrt((K + q)(K - q + 1)), whose
    entry (k + q - 1, k) is u_{k+q-1} x_k - u_{k-1} x_{k-1}.  No
    eigenproblem, so it is independent of the package's tensor table.
    """
    d = twoS + 1
    u = [mpmath.sqrt((k + 1) * (twoS - k)) for k in range(d)]
    out = {}
    for K in range(1, M + 1):
        x = [(-1) ** K * mpmath.fprod(u[k : k + K]) for k in range(d - K)]
        norm = mpmath.sqrt(mpmath.fsum(v * v for v in x))
        out[K, K] = x = [v / norm for v in x]
        for q in range(K, 0, -1):
            step = mpmath.sqrt((K + q) * (K - q + 1))
            x = [((u[k + q - 1] * x[k] if k < d - q else 0) - (u[k - 1] * x[k - 1] if k else 0))
                 / step for k in range(d - q + 1)]
            out[K, q - 1] = x
    return out


def _king_residuals(psi: list, M: int, tensors: dict) -> list:
    """The M(M + 2) real residuals of A_M at the state psi (any length):
    c_K0, sqrt 2 Re c_Kq and sqrt 2 Im c_Kq for 1 <= q <= K <= M, with
    c_Kq = psi^dag T_Kq psi / psi^dag psi, so that their squares sum to
    A_M = sum over every (K, q) of |c_Kq|^2."""
    norm = mpmath.fsum(abs(p) ** 2 for p in psi)
    root2 = mpmath.sqrt(2)
    r = []
    for K in range(1, M + 1):
        for q in range(K + 1):
            x = tensors[K, q]
            c = mpmath.fsum(mpmath.conj(psi[k + q]) * x[k] * psi[k] for k in range(len(x))) / norm
            r += [c.real] if q == 0 else [root2 * c.real, root2 * c.imag]
    return r


def refine_king(psi, M: int):
    """Refine the float state psi toward a zero of the king residuals of
    order M (A_M = |r|^2) at 50 digits.

    r is evaluated at 50 digits from _ladder_tensors.  Every step is
    psi <- (psi - P r(psi)) / |psi - P r(psi)|, with P the float
    pseudo-inverse, singular values below 1e-10 of the largest cut, of the
    Jacobian of r at the starting psi in the real steps (Re s_0, Im s_0,
    Re s_1, ...).  The Jacobian is read from forward differences at 50
    digits with step 1e-25.  A_M does not change along rotations, phase
    and length, so the cut drops those directions.  The steps stop when |r|
    falls below 1e-45, fails to fall, or after 12 steps.  Near a regular
    zero (modulo those directions) each step multiplies |r| by about the
    distance to it.

    Returns the refined state (mpmath numbers), the history of |r| from
    the start, and the largest chord between a star of psi and its match
    among the stars of the refined state (solved in float).
    """
    from scipy.optimize import linear_sum_assignment

    import majorana as mj

    psi = np.asarray(psi, dtype=complex)
    twoS = len(psi) - 1
    with mpmath.workdps(50):
        tensors = _ladder_tensors(twoS, M)
        x = [mpmath.mpc(p.real, p.imag) for p in psi]
        r = _king_residuals(x, M, tensors)
        h = mpmath.mpf("1e-25")
        jac = np.empty((len(r), 2 * len(x)))
        for j in range(2 * len(x)):
            moved = list(x)
            moved[j // 2] += h if j % 2 == 0 else 1j * h
            jac[:, j] = [float((a - b) / h) for a, b in zip(_king_residuals(moved, M, tensors), r)]
        pinv = np.linalg.pinv(jac, rcond=1e-10)
        history = [mpmath.sqrt(mpmath.fsum(v * v for v in r))]
        while len(history) <= 12 and history[-1] > mpmath.mpf("1e-45"):
            s = [mpmath.fsum(float(w) * v for w, v in zip(row, r)) for row in pinv]
            x = [p - mpmath.mpc(s[2 * k], s[2 * k + 1]) for k, p in enumerate(x)]
            norm = mpmath.sqrt(mpmath.fsum(abs(p) ** 2 for p in x))
            x = [p / norm for p in x]
            r = _king_residuals(x, M, tensors)
            history.append(mpmath.sqrt(mpmath.fsum(v * v for v in r)))
            if history[-1] >= history[-2]:
                break
        refined = np.array([complex(p) for p in x])

    def embedded(state):
        points = mj.constellation_from_state(mj.SpinState(twoS, state)).points()
        return np.array([[math.sin(p.theta) * math.cos(p.phi), math.sin(p.theta) * math.sin(p.phi),
                          math.cos(p.theta)] for p in points])

    a, b = embedded(psi), embedded(refined)
    chords = np.linalg.norm(a[:, None] - b[None], axis=-1)
    rows, cols = linear_sum_assignment(chords)
    return x, history, float(chords[rows, cols].max())


def vieta(roots, dps: int, lead=1) -> list:
    """The coefficients of lead * prod (z - w) over the roots w, low to
    high, at dps digits.  Float roots and lead are taken as exact."""
    with mpmath.workdps(dps):
        f = [mpmath.mpc(lead)]
        for w in map(mpmath.mpc, roots):  # f <- f * (z - w)
            f = [a - w * b for a, b in zip([0] + f, f + [0])]
    return f


def rebuild_error(coeffs, roots, dps: int = 50) -> float:
    """max_k |c_n e_k - c_k|, with e the vieta coefficients of the roots.
    A float rebuild can carry rounding errors near 1e-10 of max|c| at
    degree 40 (1.0e-10 to 1.35e-10 where this reads 1e-14 to 1e-12), so it
    cannot tell a wrong root set from its own rounding at that bound."""
    with mpmath.workdps(dps):
        rebuilt = vieta(roots, dps, coeffs[-1])
        return float(max(abs(a - mpmath.mpc(c)) for a, c in zip(rebuilt, coeffs)))


def mp_newton(coeffs, z, dps: int):
    """Each z refined in turn by Newton's method at dps digits on the float
    polynomial with the roots already found divided out (Maehly's implicit
    deflation, so no two starts end on the same root), until a step below
    10**(-dps / 2) relative, past which the quadratic convergence is at the
    working precision; and whether the refined points are provably all of
    its roots: their rebuild_error is within 10**(-dps / 2) of max|c|."""
    with mpmath.workdps(dps):
        high = [mpmath.mpc(x) for x in coeffs[::-1]]
        small = mpmath.mpf(10) ** (-dps // 2)
        roots = []
        for w in map(mpmath.mpc, z):
            for _ in range(100):
                p, dp = mpmath.polyval(high, w, derivative=True)
                step = p / (dp - p * sum(1 / (w - r) for r in roots))
                w -= step
                if abs(step) <= small * abs(w):
                    break
            roots.append(w)
    return roots, rebuild_error(coeffs, roots, dps) <= float(small) * np.abs(coeffs).max()


def oracle_roots(coeffs, seeds=None) -> np.ndarray:
    """The roots of the float polynomial (coefficients low to high) at 50
    digits, read back as floats: the seeds, by default its companion
    eigenvalues, refined by mp_newton where their Vieta rebuild proves the
    refined set complete, and mpmath's polyroots otherwise."""
    if seeds is None:
        seeds = _companion_eigvals(coeffs[None])[0]
    roots, complete = mp_newton(coeffs, seeds, 50)
    if not complete:
        with mpmath.workdps(50):
            roots = mpmath.polyroots(coeffs[::-1].tolist(), maxsteps=400, extraprec=400)
    return np.array([complex(r) for r in roots])
