"""Husimi function, irreducible tensor multipoles, and directional moments.

The multipole components rho_Kq of a state are taken against an orthonormal
tensor family (Condon-Shortley phases), so Tr(T_Kq T_K'q'^dag) is the
identity pairing and sum |rho_Kq|^2 equals the purity.  T_Kq has one nonzero
diagonal, entry (k + q, k), and T_K,-q = (-1)^q T_Kq^dag, so the whole
family is one real table t[K, q, k] over q >= 0, filled once per spin from
one tridiagonal eigenproblem of the Casimir superoperator per q (the tests
check it against exact Clebsch-Gordan values).  rho_Kq = sum_k t[K, q, k]
rho[k + q, k] reads only the q-th diagonal of the density matrix, and
rho_K,-q = (-1)^q conj(rho_Kq).  Only this module knows that layout.  The
dipole and quadrupole of Q are closed forms in <S_i> and <S_i S_j>.
"""

from __future__ import annotations

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
    _is_integer,
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

#: Most nodes q_grid takes on either axis; more are refused before anything
#: is allocated.  leggauss is cubic in n (on a Xeon: 0.1 s at 1024, 0.6 s at 2048).
MAX_GRID_NODES = 1024


# -- tensor operators ----------------------------------------------------------


@lru_cache(maxsize=None)
def _tensor_table(twoS: int) -> np.ndarray:
    """t[K, q, k] = entry (k + q, k) of T_Kq, the only nonzero diagonal, for
    q >= 0; zero where q > K or k + q > 2S.  T_K,-q = (-1)^q T_Kq^T.

    Each T_Kq is an eigenvector of the Casimir superoperator
    X -> sum_i [S_i, [S_i, X]] with eigenvalue K(K + 1).  On the q-th
    diagonal it is a symmetric tridiagonal with diagonal
    2S(S + 1) - 2 m_{k+q} m_k and off-diagonal -u_{k+q} u_k,
    u_j = <j + 1|S+|j>, whose unit eigenvectors in ascending order are the
    rows K = q..2S.  It is at most (2S + 1) square, so numpy.linalg.eigh
    solves it as a dense matrix.  The rows' signs follow the lowering relation
    [S-, T_K,q+1] = sqrt((K + q + 1)(K - q)) T_Kq from the q + 1 rows, swept
    down from q = 2S; a row K = q starts its ladder as a positive multiple
    of (-1)^q (S+)^q, whose entries all share one sign.  No entry's sign is
    read on its own: at high spin the end entries of high-K rows fall below
    the solver's absolute accuracy.
    """
    d = twoS + 1
    k = np.arange(d)
    m = k - twoS / 2.0
    u = np.sqrt((k + 1.0) * (twoS - k))  # u[2S] = 0, so u[-1] at k = 0 is 0 too
    table = np.zeros((d, d + 1, d))  # q = 2S + 1 stays 0: the sweep lowers from it
    for q in range(twoS, -1, -1):
        ks = k[: d - q]
        casimir = np.diag(twoS * (twoS + 2) / 2.0 - 2.0 * m[ks + q] * m[ks])
        casimir += np.diag(-u[ks[:-1] + q] * u[ks[:-1]], -1)  # eigh reads the lower triangle
        _, vecs = np.linalg.eigh(casimir)
        rows = vecs.T
        above = table[q:, q + 1]  # its row K = q is 0
        lowered = u[ks + q] * above[:, ks] - u[ks - 1] * above[:, ks - 1]
        signs = np.sign(np.sum(rows * lowered, axis=1))
        signs[0] = (-1.0) ** q * np.sign(rows[0, np.argmax(np.abs(rows[0]))])
        table[q:, q, : d - q] = rows * signs[:, None]
    table = table[:, :d].copy()
    table.flags.writeable = False
    return table


def _check_index(twoS: int, K: int, q: int) -> None:
    """Refuse (K, q) unless both are integers with 0 <= K <= 2S and |q| <= K."""
    if not (_is_integer(K) and _is_integer(q) and 0 <= K <= twoS and abs(q) <= K):
        raise ValueError(f"(K, q) = ({K!r}, {q!r}) out of range for 2S = {twoS}")


def tensor_operator(label: SpinLabel | int, K: int, q: int) -> np.ndarray:
    """Orthonormal irreducible tensor T_Kq as a (2S+1)x(2S+1) matrix."""
    twoS = _as_label(label).twoS
    _check_index(twoS, K, q)
    diagonal = (-1.0) ** min(q, 0) * _tensor_table(twoS)[K, abs(q), : twoS + 1 - abs(q)]
    return np.diag(diagonal.astype(complex), -q)


@lru_cache(maxsize=None)
def _shift_index(d: int, Q: int) -> np.ndarray:
    """index[q, k] = k + q for q = 0..Q, clipped to d - 1, where the tensor
    table is 0 and the entry read does not count: the diagonals rho[k + q, k]
    of _diagonals, and the psi_{k+q} conj(psi_k) of _cumulative_strengths."""
    index = np.minimum(np.arange(Q + 1)[:, None] + np.arange(d), d - 1)
    index.flags.writeable = False
    return index


def _cumulative_strengths(psi: np.ndarray, M: int) -> np.ndarray:
    """A_1 .. A_M of the unit states psi, shape (count, 2S + 1), as
    multipoles() reads them: rho_Kq from the q-th diagonal
    psi_{k+q} conj(psi_k) for q = 0..M, one stacked matrix product against
    the tensor table, with rho_K,-q = (-1)^q conj(rho_Kq) counted by
    doubling.  Shape (count, M); column K - 1 is A_K."""
    twoS = psi.shape[-1] - 1
    diagonals = psi[:, _shift_index(twoS + 1, M)] * psi.conj()[:, None, :]
    table = _tensor_table(twoS)[1 : M + 1, : M + 1]
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
        _check_index(self.label.twoS, K, q)
        return complex(self.rho[K, q + self.label.twoS])

    def items(self):
        """Yield (K, q, rho_Kq) in canonical order."""
        for K in range(self.label.twoS + 1):
            for q in range(-K, K + 1):
                yield K, q, complex(self.rho[K, q + self.label.twoS])


def _diagonals(state: SpinState | np.ndarray) -> tuple[SpinLabel, np.ndarray]:
    """(label, diagonals rho[k + q, k] for q = 0..2S) of a state or a density matrix."""
    if isinstance(state, SpinState):
        psi = state.amplitudes
        return state.label, psi[_shift_index(len(psi), len(psi) - 1)] * psi.conj()
    dm = np.asarray(state, dtype=complex)
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1] or dm.shape[0] < 1:
        raise ValueError("density matrix must be square")
    scale = _hermitian_scale(dm, 1e-10, "density matrix")
    # In units of scale, so that no sum of entries overflows.
    if abs(complex(np.trace(dm / scale)) - 1.0 / scale) > 1e-10 / scale:
        raise ValueError("density matrix trace must be 1")
    d = len(dm)
    return SpinLabel(d - 1), dm[_shift_index(d, d - 1), np.arange(d)]


def multipoles(state: SpinState | np.ndarray) -> MultipoleSpectrum:
    """Full tensor-component spectrum of a pure state (or, for diagnostic
    use, a density matrix): rho_Kq = Tr(rho T_Kq^dag)."""
    label, diagonals = _diagonals(state)
    upper = np.einsum("Kqk,qk->Kq", _tensor_table(label.twoS), diagonals)  # q = 0..2S
    lower = upper[:, :0:-1].conj()  # rho_K,-q = (-1)^q conj(rho_Kq), q = 2S..1
    lower[:, ::-2] *= -1.0  # the odd q
    rho = np.concatenate((lower + 0.0, upper), axis=1)  # + 0.0: a zero reads 0.0, not -0.0
    w = (np.abs(rho) ** 2).sum(axis=1)
    A = np.concatenate(([0.0], w[1:].cumsum()))
    for a in (rho, w, A):
        a.flags.writeable = False
    return MultipoleSpectrum(label, rho, w, A)


def cumulative_quantumness(spec: MultipoleSpectrum, M: int) -> float:
    """A_M = sum of w_K for K = 1..M."""
    if not (_is_integer(M) and 1 <= M <= spec.label.twoS):
        raise ValueError(f"M={M!r} is not an integer or lies outside 1..{spec.label.twoS}")
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
    for name, n in (("n_theta", n_theta), ("n_phi", n_phi)):
        if not (_is_integer(n) and 2 <= n <= MAX_GRID_NODES):
            raise ValueError(f"{name}={n!r} must be an integer in 2..{MAX_GRID_NODES}")
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
