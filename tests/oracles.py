"""Exact reference values and independent routes the tests check the
package against."""

import math
from fractions import Fraction

import numpy as np

from majorana.multipoles import q_grid


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
