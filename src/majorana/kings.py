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

A_M has a closed-form gradient in the pairs, so each restart screens
random constellations in one stacked evaluation and polishes the two best
with BFGS, a dense inverse-Hessian quasi-Newton method with an Armijo
backtracking line search (Nocedal & Wright, Numerical Optimization, 2nd ed.
(2006), ch. 6).  The two polishes run in lockstep:
every round evaluates the objective and gradient of both trial points in
one batched call, and a polish that stops leaves the batch.  The stop rules
and the first step are those of L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J.
Sci. Comput. 16 (1995) 1190).

Restarts draw independent random streams from (seed, restart_index), so the
result is reproducible and independent of how restarts are scheduled.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

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

_SCREEN_SAMPLES = 32
_POLISH_STARTS = 2
# Polish line search: sufficient-decrease constant and the most trial steps
# in a row a start may reject before it stops.
_ARMIJO = 1e-4
_BACKTRACKS = 20
_EPS = float(np.finfo(float).eps)
# Chart stand-in for a star within 1e-150 of the theta = pi pole; _gauge_fix
# snaps it to infinity.  Its square still fits in a float.
_POLE = 1e150


@dataclass(frozen=True)
class SearchConfig:
    """Target order M, restart count and seed; max_iters, grad_tol and f_tol
    bound each polish: its iterations, its largest gradient component,
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
    """What one restart did: objective-and-gradient evaluations and BFGS
    iterations summed over its polished starts, the stop reason of the start
    it kept, whether that start converged, and the restart's wall time.

    stop_reason names the rule that ended the start:

    * "grad_tol": no gradient component exceeds grad_tol;
    * "f_tol": the last step lowered the objective by at most f_tol units
      of its rounding;
    * "max_iters": the start took max_iters steps;
    * "line_search": the line search rejected 20 trial steps in a row.

    The first two count as converged, and so does any start whose largest
    gradient component ends at most 1e-6."""

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


def _screen_values(x: np.ndarray, twoS: int, M: int) -> np.ndarray:
    """Search objective of stacked search points x of shape (count, 4n)."""
    alpha, beta = _pairs(x)
    c = np.fft.fft(np.prod(_factor_values(alpha, beta), axis=-2), axis=-1)
    return _quantumness(c, twoS, M)[0]


def _value_and_grad(x: np.ndarray, twoS: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Search objective A_M at the search points x of shape (..., 4n) and
    its gradient, of the shape of x.

    The stellar polynomial with factor j deleted is prefix_j * suffix_{j+1},
    the products of the factors before and after j; both are taken as
    cumulative products of the factor values at the unit roots w_m.  With
    c = fft(f(w_m)), dA = Re(g . dc) = Re(sum_m fft(g)_m df(w_m)), and
    df(w_m) is (prefix_j suffix_{j+1})(w_m) times w_m dalpha_j + dbeta_j.
    """
    alpha, beta = _pairs(x)
    values = _factor_values(alpha, beta)
    ones = np.ones(values.shape[:-2] + (1, twoS + 1), dtype=complex)
    prefix = np.cumprod(np.concatenate([ones, values[..., :-1, :]], axis=-2), axis=-2)
    suffix = np.cumprod(np.concatenate([ones, values[..., :0:-1, :]], axis=-2), axis=-2)
    deleted = prefix * suffix[..., ::-1, :]
    value, g = _quantumness(np.fft.fft(deleted[..., 0, :] * values[..., 0, :]), twoS, M)
    weights = np.fft.fft(g)
    grads = deleted @ np.stack([weights * _unit_roots(twoS), weights], axis=-1)
    grad_alpha, grad_beta = grads[..., 0], grads[..., 1]
    grad = np.concatenate(
        [grad_alpha.real, -grad_alpha.imag, grad_beta.real, -grad_beta.imag], axis=-1
    )
    return value, grad


def _random_pairs(rng: np.random.Generator, n_stars: int, count: int) -> np.ndarray:
    """count search points with stars uniform on the sphere; a star at
    angles (theta, phi) is alpha = cos(theta/2), beta = -sin(theta/2) e^{-i phi}."""
    theta = np.arccos(rng.uniform(-1.0, 1.0, size=(count, n_stars)))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(count, n_stars))
    beta = -np.sin(theta / 2.0) * np.exp(-1j * phi)
    return np.concatenate(
        [np.cos(theta / 2.0), np.zeros_like(theta), beta.real, beta.imag], axis=1
    )


def _polish(
    x0: np.ndarray, twoS: int, config: SearchConfig
) -> tuple[np.ndarray, list[float], list[np.ndarray], list[int], list[int], list[str]]:
    """BFGS from each row of x0, all rows in lockstep.

    Each round makes one batched objective-and-gradient call at the trial
    points of the rows still running.  A row keeps a dense inverse-Hessian
    estimate H (d = 4n, 80 at 2S = 20), scaled by y.s / y.y before
    its first update, and steps along -H g.  A trial meeting the Armijo
    condition is taken; otherwise the step shrinks by safeguarded quadratic
    interpolation.  The first step has length 1 and every later one starts
    at the full quasi-Newton step, as in L-BFGS-B.  A row stops, and leaves
    the batch, for the first of these reasons:

    * "grad_tol": its largest gradient component is at most grad_tol
      (checked at the start too, so a stationary start takes no step);
    * "f_tol": a step lowered f by at most f_tol * eps * max(|f|, 1), so
      f_tol counts units of the rounding of f;
    * "max_iters": it has taken max_iters steps;
    * "line_search": _BACKTRACKS trial steps in a row were rejected.

    Returns per row: the final point, f and g there, evaluations, steps
    taken and the stop reason.
    """
    rows, dim = x0.shape
    x = x0.copy()
    f0, g0 = _value_and_grad(x, twoS, config.M)
    f, g = f0.tolist(), list(g0)
    evaluations, steps, backtracks = [1] * rows, [0] * rows, [0] * rows
    reasons = ["grad_tol" if float(np.abs(gi).max()) <= config.grad_tol else "" for gi in g]
    hess = [np.eye(dim) for _ in range(rows)]
    direction = [-gi for gi in g]
    slope = [-float(gi @ gi) for gi in g]
    t = [1.0 / math.sqrt(-si) if si < 0 else 1.0 for si in slope]
    trial = x.copy()
    live = [i for i in range(rows) if not reasons[i]]
    while live:
        for i in live:
            trial[i] = x[i] + t[i] * direction[i]
        ft, gt = _value_and_grad(trial[live], twoS, config.M)
        for i, fi, gi in zip(live, ft.tolist(), gt):
            evaluations[i] += 1
            if not fi <= f[i] + _ARMIJO * t[i] * slope[i]:
                # Shrink to the minimizer of the quadratic through f, the
                # slope and fi, kept within [0.1 t, 0.5 t].
                curve = fi - f[i] - slope[i] * t[i]
                shrink = -slope[i] * t[i] / (2.0 * curve) if math.isfinite(curve) else 0.1
                t[i] *= min(max(shrink, 0.1), 0.5)
                backtracks[i] += 1
                if backtracks[i] >= _BACKTRACKS:
                    reasons[i] = "line_search"
                continue
            s = trial[i] - x[i]
            y = gi - g[i]
            ys = float(y @ s)
            if steps[i] == 0 and ys > 0:
                hess[i] *= ys / float(y @ y)
            # L-BFGS-B's curvature test: skip the update unless y.s is
            # above rounding relative to the decrease the step predicted.
            if ys > _EPS * -slope[i] * t[i]:
                hy = hess[i] @ y
                rho = 1.0 / ys
                left = np.stack([(1.0 + rho * float(y @ hy)) * rho * s - rho * hy, -rho * s], axis=1)
                hess[i] += left @ np.stack([s, hy])
            drop = f[i] - fi
            scale = max(abs(f[i]), abs(fi), 1.0)
            x[i], f[i], g[i] = trial[i], fi, gi
            steps[i] += 1
            backtracks[i] = 0
            d = -(hess[i] @ gi)
            sd = float(gi @ d)
            if not sd < 0:
                # Rounding cost H its positive definiteness: start afresh.
                hess[i] = np.eye(dim)
                d, sd = -gi, -float(gi @ gi)
            direction[i], slope[i], t[i] = d, sd, 1.0
            if float(np.abs(gi).max()) <= config.grad_tol:
                reasons[i] = "grad_tol"
            elif drop <= config.f_tol * _EPS * scale:
                reasons[i] = "f_tol"
            elif steps[i] >= config.max_iters:
                reasons[i] = "max_iters"
        live = [i for i in live if not reasons[i]]
    return x, f, g, evaluations, steps, reasons


def _run_restart(
    label: SpinLabel, config: SearchConfig, index: int
) -> tuple[float, np.ndarray, RestartRecord]:
    start = time.perf_counter()
    twoS = label.twoS
    rng = np.random.default_rng([config.seed % (2 ** 64), index])
    candidates = _random_pairs(rng, twoS, _SCREEN_SAMPLES)
    order = np.argsort(_screen_values(candidates, twoS, config.M), kind="stable")
    x, f, g, evaluations, steps, reasons = _polish(
        candidates[order[:_POLISH_STARTS]], twoS, config
    )
    best = int(np.argmin(f))
    record = RestartRecord(
        evaluations=sum(evaluations),
        iterations=sum(steps),
        stop_reason=reasons[best],
        # A small final gradient is a converged start even when the line
        # search ends it at the rounding floor.
        converged=reasons[best] in ("grad_tol", "f_tol")
        or float(np.abs(g[best]).max()) <= 1e-6,
        seconds=time.perf_counter() - start,
    )
    return float(f[best]), x[best], record


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
