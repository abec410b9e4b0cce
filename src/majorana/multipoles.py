"""Husimi function, irreducible tensor multipoles, and directional moments.

The multipole components rho_Kq of a state are taken against an orthonormal
tensor family (Condon-Shortley phases), so Tr(T_Kq T_K'q'^dag) is the
identity pairing and sum |rho_Kq|^2 equals the purity.  T_Kq has one nonzero
diagonal, entry (k + q, k), so the whole family is one real table
t[K, q + 2S, k], filled once per spin from one tridiagonal eigenproblem of
the Casimir superoperator per q (the tests check it against exact
Clebsch-Gordan values), and rho_Kq = sum_k t[K, q + 2S, k] rho[k + q, k]
reads only the q-th diagonal of the density matrix.  Only this module knows
that layout.  The dipole and quadrupole of Q are closed forms in <S_i> and
<S_i S_j>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rootfinding import _powers
from .stellar import (
    SpinLabel,
    SpinState,
    SpherePoint,
    _as_label,
    _binom_sqrt,
    _hermitian_scale,
    spin_matrices,
)

__all__ = [
    "MultipoleSpectrum",
    "QGrid",
    "tensor_operator",
    "multipoles",
    "cumulative_quantumness",
    "husimi_q",
    "q_grid",
    "dipole",
    "quadrupole",
]


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
    0..d-1: an index into a vector (or matrix) padded with a trailing zero,
    or, clipped to d - 1, into the vector itself where the tensor table is
    0."""
    index = np.arange(-Q, Q + 1)[:, None] + np.arange(d)
    index = np.where((index >= 0) & (index < d), index, d)
    index.flags.writeable = False
    return index


@lru_cache(maxsize=16)
def _hermitian_table(twoS: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and indices of _hermitian_terms: H_j psi =
    coeffs[0, j] * psi[index[0, j]] + coeffs[1, j] * psi[index[1, j]], each
    index clipped to 0..2S, where its coefficient is 0.
    (T_Kq^dag psi)_k = t[K, q + 2S, k] psi_{k+q} and
    (T_Kq psi)_k = (-1)^q t[K, -q + 2S, k] psi_{k-q}."""
    d = twoS + 1
    t = _tensor_table(twoS)
    shift = _shift_index(d, M)
    up, down, up_index, down_index = [], [], [], []
    for K in range(1, M + 1):
        up.append(t[K, twoS])
        down.append(np.zeros(d))
        up_index.append(shift[M])
        down_index.append(shift[M])
        for q in range(1, K + 1):
            raised = t[K, twoS + q] * math.sqrt(0.5)
            lowered = (-1.0) ** q * t[K, twoS - q] * math.sqrt(0.5)
            up += [raised, -1j * raised]
            down += [lowered, 1j * lowered]
            up_index += [shift[M + q]] * 2
            down_index += [shift[M - q]] * 2
    coeffs = np.array([up, down], dtype=complex)
    index = np.array([up_index, down_index])
    coeffs.flags.writeable = index.flags.writeable = False
    return coeffs, index


def _hermitian_terms(psi: np.ndarray, M: int) -> np.ndarray:
    """For unit states psi (leading axes are batch axes): the vectors H_j psi
    for the M(M + 2) Hermitian operators T_K0, (T_Kq^dag + T_Kq) / sqrt 2 and
    (T_Kq^dag - T_Kq) / (sqrt 2 i), 1 <= q <= K <= M, as rows.  Their
    expectations psi^dag H_j psi are the real numbers c_K0, sqrt 2 Re c_Kq and
    sqrt 2 Im c_Kq; the c_K,-q = (-1)^q conj(c_Kq) repeat them, so the squares
    of the expectations sum to A_M."""
    coeffs, index = _hermitian_table(psi.shape[-1] - 1, M)
    return (coeffs * np.take(psi, index, axis=-1, mode="clip")).sum(axis=-3)


def _cumulative_strengths(psi: np.ndarray, M: int) -> np.ndarray:
    """A_1 .. A_M of the unit states psi, shape (count, 2S + 1), as
    multipoles() reads them: rho_Kq from the q-th diagonal
    psi_{k+q} conj(psi_k) for q = 0..M, one stacked matrix product against
    the tensor table, with rho_K,-q = (-1)^q conj(rho_Kq) counted by
    doubling.  Shape (count, M); column K - 1 is A_K."""
    twoS = psi.shape[-1] - 1
    index = _shift_index(twoS + 1, M)[M:]  # clipped where the table is 0
    diagonals = np.take(psi, index, axis=-1, mode="clip") * psi.conj()[:, None, :]
    table = _tensor_table(twoS)[1 : M + 1, twoS : twoS + M + 1]
    rho = np.matmul(diagonals.transpose(1, 0, 2), table.transpose(1, 2, 0))  # [q, c, K]
    weight = np.abs(rho) ** 2
    return np.cumsum(2.0 * weight.sum(axis=0) - weight[0], axis=-1)


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


def _density_matrix(state: SpinState | np.ndarray) -> tuple[SpinLabel, np.ndarray]:
    if isinstance(state, SpinState):
        return state.label, state.density_matrix()
    dm = np.asarray(state, dtype=complex)
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1] or dm.shape[0] < 1:
        raise ValueError("density matrix must be square")
    scale = _hermitian_scale(dm, 1e-10, "density matrix")
    # In units of scale, so that no sum of entries overflows.
    if abs(complex(np.trace(dm / scale)) - 1.0 / scale) > 1e-10 / scale:
        raise ValueError("density matrix trace must be 1")
    return SpinLabel(dm.shape[0] - 1), dm


def multipoles(state: SpinState | np.ndarray) -> MultipoleSpectrum:
    """Full tensor-component spectrum of a pure state (or, for diagnostic
    use, a density matrix): rho_Kq = Tr(rho T_Kq^dag)."""
    label, dm = _density_matrix(state)
    twoS = label.twoS
    padded = np.concatenate([dm, np.zeros((1, twoS + 1))])
    diagonals = padded[_shift_index(twoS + 1, twoS), np.arange(twoS + 1)]  # rho[k + q, k]
    rho = np.einsum("Kqk,qk->Kq", _tensor_table(twoS), diagonals)
    w = np.sum(np.abs(rho) ** 2, axis=1)
    A = np.concatenate([[0.0], np.cumsum(w[1:])])
    for a in (rho, w, A):
        a.flags.writeable = False
    return MultipoleSpectrum(label, rho, w, A)


def cumulative_quantumness(spec: MultipoleSpectrum, M: int) -> float:
    """A_M = sum of w_K for K = 1..M."""
    if not (1 <= M <= spec.label.twoS):
        raise ValueError(f"M={M} outside 1..{spec.label.twoS}")
    return float(spec.A[M])


# -- Husimi function -------------------------------------------------------------


def husimi_q(state: SpinState, p: SpherePoint | tuple[float, float]) -> float:
    """Q(p) = |<coherent(z(p)) | state>|^2, the 1 x 1 case of the grid;
    the poles need no special case."""
    if not isinstance(p, SpherePoint):
        p = SpherePoint(*p)
    return float(_husimi_grid(state, np.array([p.theta]), np.array([p.phi]))[0, 0])


def _husimi_grid(
    state: SpinState, thetas: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Q on the outer product grid.  At z = tan(theta/2) e^{-i phi} the
    coherent state's unit spinor pair is (cos(theta/2), sin(theta/2) e^{-i phi}),
    so <coherent(z)|psi> = sum_k sqrt(C(2S, k)) cos(theta/2)**(2S - k)
    sin(theta/2)**k e^{i k phi} psi_k."""
    twoS = state.label.twoS
    mag = (
        _binom_sqrt(twoS)
        * _powers(np.cos(thetas / 2.0), twoS)[:, ::-1]
        * _powers(np.sin(thetas / 2.0), twoS)
    )
    phases = np.exp(1j * np.outer(np.arange(twoS + 1), phis))
    return np.abs((mag * state.amplitudes) @ phases) ** 2


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
