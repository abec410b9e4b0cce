"""Exact reference values the tests check the package against."""

import math
from fractions import Fraction

import numpy as np


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
