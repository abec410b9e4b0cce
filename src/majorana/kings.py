"""Search for maximally unpolarized pure states.

A state is unpolarized to order M when its cumulative multipole strength
A_M vanishes.  The search space is the constellation itself: each of the 2S
stars is a spinor pair (alpha_j, beta_j), the star sits at the root
-beta_j / alpha_j of its factor of the stellar polynomial

    f(w) = prod_j (alpha_j w + beta_j),

and alpha_j = 0 puts it at the theta = pi pole.  A_M does not change when a
pair is scaled, so the pairs need no chart: the parametrization is smooth
everywhere on the sphere, poles included.  Optimizing star positions rather
than amplitudes keeps the iterate exactly on the pure-state manifold.

A_M and the collision penalty have closed-form gradients in the pairs, so
each restart screens random constellations in one stacked evaluation and
polishes the two best with L-BFGS (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci.
Comput. 16 (1995) 1190).

Restarts draw independent random streams from (seed, restart_index), so the
result is reproducible and independent of how restarts are scheduled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.optimize

from .errors import NonConvergence
from .multipoles import _low_order_terms, cumulative_quantumness, multipoles
from .stellar import (
    Constellation,
    SpinLabel,
    _as_label,
    _binom_sqrt,
    state_from_constellation,
)

__all__ = [
    "SearchConfig",
    "KingResult",
    "RestartRecord",
    "objective",
    "minimize",
    "max_unpolarized_order",
]

#: A_M at or below this value counts as numerically unpolarized.
ZERO_TOL = 1e-7

_COLLISION_CHORD = 1e-9
_SCREEN_SAMPLES = 32
_POLISH_STARTS = 2
# Chart stand-in for a star within 1e-150 of the theta = pi pole; _gauge_fix
# snaps it to infinity.  Its square still fits in a float.
_POLE = 1e150


@dataclass(frozen=True)
class SearchConfig:
    """Target order M, restart count and seed; max_iters, grad_tol and f_tol
    bound each L-BFGS polish: its iterations, its largest gradient component,
    and its per-iteration decrease of the objective, counted in units of the
    rounding of the objective."""

    M: int
    restarts: int = 16
    seed: int = 0
    max_iters: int = 2000
    grad_tol: float = 1e-9
    f_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.grad_tol > 0 and self.f_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class RestartRecord:
    """What one restart did: objective-and-gradient evaluations and L-BFGS
    iterations summed over its polished starts, the stop reason of the start
    it kept, whether that start converged, and the restart's wall time."""

    evaluations: int
    iterations: int
    stop_reason: str
    converged: bool
    seconds: float


@dataclass(frozen=True, eq=False)
class KingResult:
    label: SpinLabel
    M: int
    constellation: Constellation
    objective: float
    unpolarized_order: int
    restarts_converged: int
    history: tuple[float, ...]
    restart_records: tuple[RestartRecord, ...]


def objective(constellation: Constellation, M: int) -> float:
    """A_M of the state rebuilt from the stars."""
    if not (1 <= M <= constellation.label.twoS):
        raise ValueError(f"M={M} outside 1..{constellation.label.twoS}")
    state = state_from_constellation(constellation)
    return cumulative_quantumness(multipoles(state), M)


# -- objective and gradient in the spinor pairs -----------------------------------
#
# A search point x holds 4n reals, n = 2S: Re alpha, Im alpha, Re beta, Im beta,
# n of each.  Gradients are first kept in the complex form G with
# dA = Re(G dalpha); the real gradient is then (Re G, -Im G).


def _pairs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of search points x of shape (..., 4n)."""
    parts = x.reshape(x.shape[:-1] + (4, -1))
    return parts[..., 0, :] + 1j * parts[..., 1, :], parts[..., 2, :] + 1j * parts[..., 3, :]


def _pairs_to_roots(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The stars -beta/alpha; a star within 1e-150 of the pole (alpha = 0
    included) becomes the stand-in _POLE."""
    at_pole = np.abs(alpha) <= np.abs(beta) / _POLE
    return np.where(at_pole, _POLE, -beta / np.where(at_pole, 1.0, alpha))


@lru_cache(maxsize=None)
def _unit_roots(n: int) -> np.ndarray:
    """The n + 1 points w_m = exp(2 pi i m / (n + 1)).  A polynomial of
    degree <= n is fixed by its values there, and fft of the values gives its
    coefficients times n + 1 (A_M ignores that factor)."""
    out = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    out.flags.writeable = False
    return out


def _factor_values(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """alpha_j w + beta_j at the unit roots w, shape (..., n, n + 1)."""
    return alpha[..., None] * _unit_roots(alpha.shape[-1]) + beta[..., None]


def _quantumness(c: np.ndarray, twoS: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """A_M of the states with stellar coefficients c (leading axes are batch
    axes) and the coefficient gradient g with dA = Re(g . dc).

    With a = c / b, psi = a / |a| and the components c_Kq = psi^dag T_Kq^dag psi,
    1 <= K <= M, A = sum |c_Kq|^2 and
    g = conj(2 (B psi - (psi^dag B psi) psi) / (|a| b)), where
    B = sum conj(c_Kq) T_Kq^dag + h.c.  The family is closed under the adjoint
    up to sign, T_Kq^dag = (-1)^q T_K,-q, so B psi = 2 sum conj(c_Kq) T_Kq^dag psi
    and psi^dag B psi = 2A; multipoles._low_order_terms gives both sums.
    """
    b = _binom_sqrt(twoS)
    a = c / b
    norm = np.linalg.norm(a, axis=-1, keepdims=True)
    psi = a / norm
    comps, pulled = _low_order_terms(psi, M)
    value = np.sum(np.abs(comps) ** 2, axis=(-2, -1))
    g = np.conj(4.0 * (pulled - value[..., None] * psi) / (norm * b))
    return value, g


def _collision(alpha: np.ndarray, beta: np.ndarray, with_grad: bool):
    """Sum over star pairs of max(0, 1e-9 - chord)^2, with the chord
    2 |alpha_i beta_j - alpha_j beta_i| / (|s_i| |s_j|) of pairs s = (alpha, beta);
    with_grad adds the complex gradients (G_alpha, G_beta) of one point."""
    inv = 1.0 / np.sqrt(np.abs(alpha) ** 2 + np.abs(beta) ** 2)
    cross = alpha[..., :, None] * beta[..., None, :] - alpha[..., None, :] * beta[..., :, None]
    chord = 2.0 * np.abs(cross) * inv[..., :, None] * inv[..., None, :]
    n = alpha.shape[-1]
    gap = np.clip(_COLLISION_CHORD - chord, 0.0, None) * (1.0 - np.eye(n))
    value = 0.5 * np.sum(gap ** 2, axis=(-2, -1))
    if not with_grad:
        return value
    if not gap.any():
        zero = np.zeros(n, dtype=complex)
        return value, zero, zero
    # d value = sum_{i != j} w_ij d chord_ij / 2, with w = -2 gap symmetric.
    w = -2.0 * gap
    mag = np.abs(cross)
    unit = np.divide(cross, mag, out=np.zeros_like(cross), where=mag > 0)
    q = 2.0 * w * unit.conj() * np.outer(inv, inv)
    radial = np.sum(w * chord, axis=1) * inv ** 2
    return value, q @ beta - radial * alpha.conj(), -(q @ alpha) - radial * beta.conj()


def _screen_values(x: np.ndarray, twoS: int, M: int) -> np.ndarray:
    """Search objective of stacked search points x of shape (count, 4n)."""
    alpha, beta = _pairs(x)
    c = np.fft.fft(np.prod(_factor_values(alpha, beta), axis=-2), axis=-1)
    value, _ = _quantumness(c, twoS, M)
    return value + _collision(alpha, beta, with_grad=False)


def _value_and_grad(x: np.ndarray, twoS: int, M: int) -> tuple[float, np.ndarray]:
    """Search objective A_M + collision penalty at x and its gradient.

    The stellar polynomial with factor j deleted is prefix_j * suffix_{j+1},
    the products of the factors before and after j; both are taken as
    cumulative products of the factor values at the unit roots w_m.  With
    c = fft(f(w_m)), dA = Re(g . dc) = Re(sum_m fft(g)_m df(w_m)), and
    df(w_m) is (prefix_j suffix_{j+1})(w_m) times w_m dalpha_j + dbeta_j.
    """
    alpha, beta = _pairs(x)
    values = _factor_values(alpha, beta)
    ones = np.ones((1, twoS + 1), dtype=complex)
    prefix = np.cumprod(np.concatenate([ones, values[:-1]]), axis=0)
    suffix = np.cumprod(np.concatenate([ones, values[:0:-1]]), axis=0)[::-1]
    deleted = prefix * suffix
    value, g = _quantumness(np.fft.fft(deleted[0] * values[0]), twoS, M)
    weights = np.fft.fft(g)
    grad_beta = deleted @ weights
    grad_alpha = deleted @ (weights * _unit_roots(twoS))
    penalty, pen_alpha, pen_beta = _collision(alpha, beta, with_grad=True)
    grad_alpha = grad_alpha + pen_alpha
    grad_beta = grad_beta + pen_beta
    grad = np.concatenate([grad_alpha.real, -grad_alpha.imag, grad_beta.real, -grad_beta.imag])
    return float(value + penalty), grad


def _random_pairs(rng: np.random.Generator, n_stars: int, count: int) -> np.ndarray:
    """count search points with stars uniform on the sphere; a star at
    angles (theta, phi) is alpha = cos(theta/2), beta = -sin(theta/2) e^{-i phi}."""
    theta = np.arccos(rng.uniform(-1.0, 1.0, size=(count, n_stars)))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(count, n_stars))
    beta = -np.sin(theta / 2.0) * np.exp(-1j * phi)
    return np.concatenate(
        [np.cos(theta / 2.0), np.zeros_like(theta), beta.real, beta.imag], axis=1
    )


def _polish(x0: np.ndarray, twoS: int, config: SearchConfig) -> scipy.optimize.OptimizeResult:
    return scipy.optimize.minimize(
        _value_and_grad,
        x0,
        args=(twoS, config.M),
        jac=True,
        method="L-BFGS-B",
        # L-BFGS-B stops once a step lowers f by less than ftol * max(|f|, 1),
        # an absolute test for A_M < 1: ftol = 1e-9 ends near A_M = 1e-10 with
        # the stars still ~1e-5 off the optimum.  f_tol is therefore counted
        # in units of the rounding of f (L-BFGS-B's factr), and the gradient
        # test ends a polish that reaches a zero.
        options={
            "maxiter": config.max_iters,
            "gtol": config.grad_tol,
            "ftol": config.f_tol * np.finfo(float).eps,
        },
    )


def _run_restart(
    label: SpinLabel, config: SearchConfig, index: int
) -> tuple[float, np.ndarray, RestartRecord]:
    start = time.perf_counter()
    twoS = label.twoS
    rng = np.random.default_rng([config.seed % (2 ** 64), index])
    candidates = _random_pairs(rng, twoS, _SCREEN_SAMPLES)
    order = np.argsort(_screen_values(candidates, twoS, config.M), kind="stable")
    runs = [_polish(candidates[i], twoS, config) for i in order[:_POLISH_STARTS]]
    best = min(runs, key=lambda r: r.fun)
    record = RestartRecord(
        evaluations=sum(int(r.nfev) for r in runs),
        iterations=sum(int(r.nit) for r in runs),
        stop_reason=str(best.message),
        # A small final gradient is a converged start even when the line
        # search ends it with an abnormal-termination message at the
        # rounding floor.
        converged=bool(best.success or float(np.abs(best.jac).max()) <= 1e-6),
        seconds=time.perf_counter() - start,
    )
    return float(best.fun), best.x, record


# -- gauge fixing ----------------------------------------------------------------


def _gauge_fix(label: SpinLabel, roots: np.ndarray) -> Constellation:
    """Rotate the constellation so the first star sits at theta = 0 and the
    next off-axis star has phi = 0."""
    pts = list(np.asarray(roots, dtype=complex))
    if pts:
        a = pts[0]
        moved = []
        for z in pts:
            den = 1.0 + np.conj(a) * z
            if abs(den) < 1e-14 * (1.0 + abs(z)) * (1.0 + abs(a)):
                moved.append(None)
            else:
                w = (z - a) / den
                # A magnitude this large is a star within ~1e-8 chordal of
                # the pole; snapping it there keeps the output canonical.
                moved.append(None if abs(w) > 1e8 else w)
        anchor = next(
            (w for w in moved if w is not None and abs(w) > 1e-12), None
        )
        if anchor is not None:
            turn = np.exp(-1j * np.angle(anchor))
            moved = [None if w is None else w * turn for w in moved]
        finite = np.array([w for w in moved if w is not None], dtype=complex)
        inf_count = sum(1 for w in moved if w is None)
    else:
        finite = np.zeros(0, dtype=complex)
        inf_count = 0
    return Constellation(label, finite, inf_count)


def _angle_key(constellation: Constellation) -> tuple:
    return tuple((p.theta, p.phi) for p in constellation.points())


# -- public search ------------------------------------------------------------------


def minimize(label: SpinLabel | int, config: SearchConfig) -> KingResult:
    """Best-of-restarts local minimization of A_M over star positions.

    Deterministic for a fixed (label, config).  If no restart converges the
    best iterate is still returned with restarts_converged = 0; callers that
    need a hard failure can check that field.
    """
    label = _as_label(label)
    if not (1 <= config.M <= label.twoS):
        raise ValueError(f"M={config.M} outside 1..{label.twoS}")

    outcomes = [_run_restart(label, config, i) for i in range(config.restarts)]

    # Report the exact pipeline objective of each gauge-fixed candidate so
    # the stated optimum is reproducible from the constellation alone.
    fixed = [_gauge_fix(label, _pairs_to_roots(*_pairs(x))) for _, x, _ in outcomes]
    rescored = sorted(
        ((objective(c, config.M), _angle_key(c), c) for c in fixed),
        key=lambda t: (t[0], t[1]),
    )
    best_value, _, best_constellation = rescored[0]

    spectrum = multipoles(state_from_constellation(best_constellation))
    order = 0
    for m in range(1, label.twoS + 1):
        if spectrum.A[m] <= ZERO_TOL:
            order = m
        else:
            break

    records = tuple(record for _, _, record in outcomes)
    return KingResult(
        label=label,
        M=config.M,
        constellation=best_constellation,
        objective=best_value,
        unpolarized_order=order,
        restarts_converged=sum(1 for r in records if r.converged),
        history=tuple(value for value, _, _ in outcomes),
        restart_records=records,
    )


def max_unpolarized_order(
    label: SpinLabel | int, config: SearchConfig, zero_tol: float = ZERO_TOL
) -> int:
    """Largest M whose optimized A_M is numerically zero, scanning upward."""
    label = _as_label(label)
    if zero_tol <= 0:
        raise ValueError("zero_tol must be positive")
    best = 0
    for M in range(1, label.twoS + 1):
        result = minimize(label, replace(config, M=M))
        if result.restarts_converged == 0:
            raise NonConvergence(f"no restart converged at M={M}")
        if result.objective <= zero_tol:
            best = M
        else:
            break
    return best
