"""Husimi function, irreducible tensor multipoles, and directional moments.

The multipole components rho_Kq of a state are taken against an orthonormal
tensor family (Condon-Shortley phases), so Tr(T_Kq T_K'q'^dag) is the
identity pairing and sum |rho_Kq|^2 equals the purity.  T_Kq has one nonzero
diagonal, entry (k + q, k), so the whole family is one real table
t[K, q + 2S, k], filled once per spin from one tridiagonal eigenproblem of
the Casimir superoperator per q (clebsch_gordan is kept as its oracle), and
rho_Kq = sum_k t[K, q + 2S, k] rho[k + q, k] reads only the q-th diagonal of
the density matrix.  Only this module knows that layout.  The same
components can be recovered by quadrature of the Husimi function against
spherical harmonics; the proportionality constant of that route is
calibrated once per (2S, K) on a reference coherent state and then frozen,
making the two evaluations directly comparable.  The dipole and quadrupole
of Q are closed forms in <S_i> and <S_i S_j>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .stellar import (
    SpinLabel,
    SpinState,
    SpherePoint,
    _as_label,
    coherent_state,
    sphere_to_stereo,
    is_infinite,
    overlap,
    spin_matrices,
)

__all__ = [
    "MultipoleSpectrum",
    "QGrid",
    "clebsch_gordan",
    "tensor_operator",
    "multipoles",
    "multipoles_integral",
    "cumulative_quantumness",
    "husimi_q",
    "q_grid",
    "dipole",
    "quadrupole",
    "spherical_harmonic",
]


# -- Clebsch-Gordan -----------------------------------------------------------


def clebsch_gordan(
    two_j1: int, two_m1: int, two_j2: int, two_m2: int, two_J: int, two_M: int
) -> float:
    """<j1 m1; j2 m2 | J M> with all quantum numbers doubled to integers.

    Selection-rule failures (projection mismatch, triangle violation,
    |m| > j) return exactly 0.0; malformed inputs (negative j, parity of a
    doubled m disagreeing with its j) raise ValueError.  Evaluated with the
    Racah single-sum formula in exact rational arithmetic, so the only
    rounding is the final square root.
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
    if (two_j1 + two_j2 + two_J) % 2:
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


# -- tensor operators ----------------------------------------------------------


@lru_cache(maxsize=None)
def _tensor_table(twoS: int) -> np.ndarray:
    """t[K, q + 2S, k] = entry (k + q, k) of T_Kq, the only nonzero diagonal;
    zero where |q| > K or k + q falls outside 0..2S.

    Each T_Kq is an eigenvector of the Casimir superoperator
    X -> sum_i [S_i, [S_i, X]] with eigenvalue K(K + 1).  On the q-th
    diagonal it is a symmetric tridiagonal with diagonal
    2S(S + 1) - 2 m_{k+q} m_k and off-diagonal -u_{k+q} u_k,
    u_j = <j + 1|S+|j>, whose unit eigenvectors in ascending order are the
    rows K = |q|..2S.  It is at most (2S + 1) square, so numpy.linalg.eigh
    solves it as a dense matrix.  The rows' signs follow the lowering relation
    [S-, T_K,q+1] = sqrt((K + q + 1)(K - q)) T_Kq from the q + 1 rows, swept
    down from q = 2S; a row K = q >= 0 starts its ladder as a positive
    multiple of (-1)^q (S+)^q, whose entries all share one sign.  No entry's
    sign is read on its own: at high spin the end entries of high-K rows fall
    below the solver's absolute accuracy.
    """
    d = twoS + 1
    k = np.arange(d)
    m = k - twoS / 2.0
    u = np.sqrt((k + 1.0) * (twoS - k))  # u[2S] = 0, so u[-1] at k = 0 is 0 too
    table = np.zeros((d, 2 * d - 1, d))
    for q in range(twoS, -twoS - 1, -1):
        cols = slice(max(0, -q), d - max(0, q))
        ks = k[cols]
        casimir = np.diag(twoS * (twoS + 2) / 2.0 - 2.0 * m[ks + q] * m[ks])
        casimir += np.diag(-u[ks[:-1] + q] * u[ks[:-1]], -1)  # eigh reads the lower triangle
        _, vecs = np.linalg.eigh(casimir)
        rows = vecs.T
        signs = np.ones(len(ks))
        if q < twoS:
            above = table[abs(q) :, q + 1 + twoS]
            lowered = u[ks + q] * above[:, ks] - u[ks - 1] * above[:, ks - 1]
            signs = np.sign(np.sum(rows * lowered, axis=1))
        if q >= 0:
            signs[0] = (-1.0) ** q * np.sign(rows[0, np.argmax(np.abs(rows[0]))])
        table[abs(q) :, q + twoS, cols] = rows * signs[:, None]
    table.flags.writeable = False
    return table


def tensor_operator(label: SpinLabel | int, K: int, q: int) -> np.ndarray:
    """Orthonormal irreducible tensor T_Kq as a (2S+1)x(2S+1) matrix."""
    label = _as_label(label)
    twoS = label.twoS
    if not (0 <= K <= twoS):
        raise ValueError(f"K={K} outside 0..{twoS}")
    if abs(q) > K:
        raise ValueError(f"|q|={abs(q)} exceeds K={K}")
    diagonal = _tensor_table(twoS)[K, q + twoS, max(0, -q) : twoS + 1 - max(0, q)]
    return np.diag(diagonal.astype(complex), -q)


@lru_cache(maxsize=None)
def _shift_index(d: int, Q: int) -> np.ndarray:
    """index[q + Q, k] = k + q for |q| <= Q, or d where k + q is outside
    0..d-1; an index into a vector (or matrix) padded with a trailing zero."""
    index = np.arange(-Q, Q + 1)[:, None] + np.arange(d)
    index = np.where((index >= 0) & (index < d), index, d)
    index.flags.writeable = False
    return index


def _low_order_terms(psi: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """For unit states psi (leading axes are batch axes): the components
    c[..., K - 1, q + M] = psi^dag T_Kq^dag psi for 1 <= K <= M, and
    sum_Kq conj(c_Kq) T_Kq^dag psi.  (T_Kq^dag psi)_k = t[K, q + 2S, k] psi_{k+q}."""
    twoS = psi.shape[-1] - 1
    t = _tensor_table(twoS)[1 : M + 1, twoS - M : twoS + M + 1]
    padded = np.concatenate([psi, np.zeros(psi.shape[:-1] + (1,))], axis=-1)
    shifted = padded[..., _shift_index(twoS + 1, M)]
    comps = np.einsum("Kqk,...qk->...Kq", t, shifted * psi.conj()[..., None, :])
    return comps, np.einsum("...Kq,Kqk,...qk->...k", comps.conj(), t, shifted)


# -- multipole spectrum ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MultipoleSpectrum:
    """rho[K, q + 2S] are the tensor components; w[K] their squared lengths;
    A[M] the cumulative length for orders 1..M (monopole excluded)."""

    label: SpinLabel
    rho: np.ndarray
    w: np.ndarray
    A: np.ndarray

    def component(self, K: int, q: int) -> complex:
        if not (0 <= K <= self.label.twoS) or abs(q) > K:
            raise ValueError(f"(K={K}, q={q}) out of range")
        return complex(self.rho[K, q + self.label.twoS])

    def items(self):
        """Yield (K, q, rho_Kq) in canonical order."""
        for K in range(self.label.twoS + 1):
            for q in range(-K, K + 1):
                yield K, q, complex(self.rho[K, q + self.label.twoS])


def _spectrum(label: SpinLabel, rho: np.ndarray) -> MultipoleSpectrum:
    w = np.sum(np.abs(rho) ** 2, axis=1)
    A = np.concatenate([[0.0], np.cumsum(w[1:])])
    for a in (rho, w, A):
        a.flags.writeable = False
    return MultipoleSpectrum(label, rho, w, A)


def _density_matrix(state: SpinState | np.ndarray) -> tuple[SpinLabel, np.ndarray]:
    if isinstance(state, SpinState):
        return state.label, np.outer(state.amplitudes, state.amplitudes.conj())
    dm = np.asarray(state, dtype=complex)
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1] or dm.shape[0] < 1:
        raise ValueError("density matrix must be square")
    scale = max(1.0, float(np.abs(dm).max()))
    if float(np.abs(dm - dm.conj().T).max()) > 1e-10 * scale:
        raise ValueError("density matrix must be Hermitian")
    if abs(complex(np.trace(dm)) - 1.0) > 1e-10:
        raise ValueError("density matrix trace must be 1")
    return SpinLabel(dm.shape[0] - 1), dm


def multipoles(state: SpinState | np.ndarray) -> MultipoleSpectrum:
    """Full tensor-component spectrum of a pure state (or, for diagnostic
    use, a density matrix): rho_Kq = Tr(rho T_Kq^dag)."""
    label, dm = _density_matrix(state)
    twoS = label.twoS
    padded = np.concatenate([dm, np.zeros((1, twoS + 1))])
    diagonals = padded[_shift_index(twoS + 1, twoS), np.arange(twoS + 1)]  # rho[k + q, k]
    return _spectrum(label, np.einsum("Kqk,qk->Kq", _tensor_table(twoS), diagonals))


def cumulative_quantumness(spec: MultipoleSpectrum, M: int) -> float:
    """A_M = sum of w_K for K = 1..M."""
    if not (1 <= M <= spec.label.twoS):
        raise ValueError(f"M={M} outside 1..{spec.label.twoS}")
    return float(spec.A[M])


# -- Husimi function -------------------------------------------------------------


def husimi_q(state: SpinState, p: SpherePoint | tuple[float, float]) -> float:
    """Q(p) = |<coherent(z(p)) | state>|^2."""
    if not isinstance(p, SpherePoint):
        p = SpherePoint(*p)
    z = sphere_to_stereo(p)
    if is_infinite(z):
        return float(abs(state.amplitudes[-1]) ** 2)
    probe = coherent_state(state.label, z)
    return float(abs(overlap(probe, state)) ** 2)


def _husimi_grid(
    state: SpinState, thetas: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Q on the outer product grid; thetas must avoid the exact poles."""
    twoS = state.label.twoS
    k = np.arange(twoS + 1)
    logbin = np.array(
        [
            math.lgamma(twoS + 1) - math.lgamma(j + 1) - math.lgamma(twoS - j + 1)
            for j in k
        ]
    )
    r = np.tan(thetas / 2.0)
    logr = np.log(r)
    lognorm = np.where(
        r <= 1.0,
        (twoS / 2.0) * np.log1p(r * r),
        twoS * logr + (twoS / 2.0) * np.log1p(r ** -2.0),
    )
    # <coherent(z)|psi> = sum_k mag_k e^{i k phi} psi_k  at z = tan(t/2)e^{-i phi}
    mag = np.exp(0.5 * logbin[None, :] + k[None, :] * logr[:, None] - lognorm[:, None])
    phases = np.exp(1j * np.outer(k, phis))
    amp = (mag * state.amplitudes[None, :]) @ phases
    return np.abs(amp) ** 2


@dataclass(frozen=True, eq=False)
class QGrid:
    """Husimi values tabulated on Gauss-Legendre x uniform angles."""

    label: SpinLabel
    theta_nodes: np.ndarray
    phi_nodes: np.ndarray
    values: np.ndarray
    theta_weights: np.ndarray
    phi_weight: float

    def integral(self) -> float:
        """Quadrature of Q over the sphere."""
        return float(self.theta_weights @ self.values.sum(axis=1) * self.phi_weight)


def q_grid(state: SpinState, n_theta: int, n_phi: int) -> QGrid:
    if n_theta < 2 or n_phi < 2:
        raise ValueError("grid needs n_theta >= 2 and n_phi >= 2")
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(x)[::-1].copy()
    weights = wx[::-1].copy()
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    values = _husimi_grid(state, thetas, phis)
    for a in (thetas, weights, phis, values):
        a.flags.writeable = False
    return QGrid(state.label, thetas, phis, values, weights, 2.0 * np.pi / n_phi)


# -- spherical harmonics ----------------------------------------------------------


def _legendre_norm(K: int, m: int, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Orthonormal associated Legendre bar-P_{K,m} (m >= 0) at x = cos(theta),
    s = sin(theta); includes the Condon-Shortley sign and the 1/sqrt(4 pi)."""
    p_mm = np.full_like(np.asarray(x, dtype=float), 1.0 / math.sqrt(4.0 * math.pi))
    for i in range(1, m + 1):
        p_mm = -math.sqrt((2 * i + 1) / (2.0 * i)) * s * p_mm
    if K == m:
        return p_mm
    p_prev, p_cur = p_mm, math.sqrt(2 * m + 3.0) * x * p_mm
    for ell in range(m + 2, K + 1):
        a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
        b = math.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
        p_prev, p_cur = p_cur, a * (x * p_cur - b * p_prev)
    return p_cur


def spherical_harmonic(K: int, q: int, p: SpherePoint | tuple[float, float]) -> complex:
    """Orthonormalized Y_Kq at the given sphere point."""
    if K < 0 or abs(q) > K:
        raise ValueError(f"(K={K}, q={q}) out of range")
    if not isinstance(p, SpherePoint):
        p = SpherePoint(*p)
    x = np.array([math.cos(p.theta)])
    s = np.array([math.sin(p.theta)])
    base = float(_legendre_norm(K, abs(q), x, s)[0])
    if q < 0:
        base *= (-1.0) ** (abs(q) % 2)
    return base * cmath.exp(1j * q * p.phi)


# -- integral route for the multipoles ---------------------------------------------


def _integral_components_raw(state: SpinState, K: int) -> np.ndarray:
    """Uncalibrated quadrature of Q against Y_Kq^*, q = -K..K."""
    twoS = state.label.twoS
    n_theta = twoS + K + 2
    n_phi = 2 * (twoS + K) + 1
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(x)
    s = np.sqrt(1.0 - x * x)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    q_vals = _husimi_grid(state, thetas, phis)
    qs = np.arange(-K, K + 1)
    # G[i, qi] = sum_j Q[i, j] e^{-i q phi_j} dphi
    fourier = q_vals @ np.exp(-1j * np.outer(phis, qs)) * (2.0 * np.pi / n_phi)
    out = np.empty(2 * K + 1, dtype=complex)
    for qi, q in enumerate(qs):
        leg = _legendre_norm(K, abs(q), x, s)
        if q < 0 and abs(q) % 2:
            leg = -leg
        out[qi] = np.sum(wx * leg * fourier[:, qi])
    return out


@lru_cache(maxsize=None)
def _integral_inverse_kernel(twoS: int, K: int) -> float:
    """Constant turning the Q-against-Y_Kq quadrature back into a multipole
    component: sqrt((2S-K)! (2S+K+1)!) / (sqrt(4 pi) (2S)!)."""
    log = 0.5 * (math.lgamma(twoS - K + 1) + math.lgamma(twoS + K + 2))
    log -= math.lgamma(twoS + 1)
    return math.exp(log) / math.sqrt(4.0 * math.pi)


def multipoles_integral(state: SpinState) -> MultipoleSpectrum:
    """Multipole spectrum from sphere quadrature of the Husimi function.

    The overlap of Q with Y_Kq is proportional to the (K, q) component with
    a closed-form constant; a (-1)^(K+q) signature enters because theta is
    measured from the lowest-weight pole and phi winds as exp(-i phi).
    The quadrature is exact, but the constant of order K (see
    _integral_inverse_kernel) multiplies its rounding, so the (K, q)
    components agree with multipoles() only to about
    eps * max(1, kernel(2S, K)) times a factor of a few hundred at most.
    The kernel peaks at K = 2S.  For random states the worst deviation is
    about 1e-12 at 2S = 12, 1e-9 at 20, 1e-6 at 30 and 1e-4 at 40 (a state
    peaked at a pole: about 20 times that at 2S = 40); at 2S = 60 no digit
    is left.  Above 2S = 30 it raises ValueError.
    """
    twoS = state.label.twoS
    if twoS > 30:
        raise ValueError(
            f"multipoles_integral has no reliable digits at 2S={twoS} > 30; use multipoles()"
        )
    rho = np.zeros((twoS + 1, 2 * twoS + 1), dtype=complex)
    for K in range(twoS + 1):
        raw = _integral_components_raw(state, K)
        signs = (-1.0) ** (K + np.arange(-K, K + 1))
        rho[K, twoS - K : twoS + K + 1] = _integral_inverse_kernel(twoS, K) * signs * raw
    return _spectrum(state.label, rho)


# -- Cartesian moments ---------------------------------------------------------------


def _spin_products(state: SpinState) -> tuple[float, np.ndarray, np.ndarray]:
    """(S, <S~_i>, <{S~_i, S~_j}>/2) with S~ = (Sx, Sy, -Sz), the spin
    vector in the sphere coordinates of Q (theta is measured from the
    lowest-weight pole)."""
    sx, sy, sz = spin_matrices(state.label.twoS)
    psi = state.amplitudes
    images = np.array([sx @ psi, sy @ psi, -(sz @ psi)])  # S~_i psi
    first = (images @ psi.conj()).real
    second = (images.conj() @ images.T).real
    return state.label.twoS / 2.0, first, second


def dipole(state: SpinState) -> np.ndarray:
    """Q-weighted average direction <n> = <S~> / (S + 1)."""
    S, first, _ = _spin_products(state)
    return first / (S + 1.0)


def quadrupole(state: SpinState) -> np.ndarray:
    """Q-weighted traceless second moment <3 n_i n_j - delta_ij>, from
    <n_i n_j> = (<{S~_i, S~_j}>/2 + (S + 1)/2 delta_ij) / ((S + 1)(S + 3/2))."""
    S, _, second = _spin_products(state)
    eye = np.eye(3)
    return 3.0 * (second + 0.5 * (S + 1.0) * eye) / ((S + 1.0) * (S + 1.5)) - eye
