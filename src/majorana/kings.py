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

A_M is a sum of squares, A_M = |r|^2, of M(M + 2) real residuals: the
components rho_Kq with 1 <= K <= M and q >= 0 (those with q < 0 repeat
them), each the expectation of a Hermitian operator.  It vanishes at a king.
On such a zero-residual problem Gauss-Newton converges quadratically, so
each restart screens random constellations in one stacked evaluation and
polishes the two best with a damped Gauss-Newton method: Levenberg-
Marquardt steps under Nielsen's damping rule, with the Gauss-Newton matrix
J^T J swapped for a BFGS model after steps that cut A_M by less than a
fifth, so that minima with A_M > 0 still converge superlinearly (the hybrid
of Fletcher & Xu, IMA J. Numer. Anal. 7 (1987) 371).  Each step moves
every star along its pair's tangent, two real directions per star, and
rescales the pairs to unit length.  The two polishes run in lockstep:
every round evaluates the residuals and Jacobians of both trial points in
one batched call, and a polish that stops leaves the batch.  A_M >= 0, so
once one start converges at A_M <= ZERO_TOL the other can only find another
zero, and the restart ends in that round.

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
from .multipoles import _hermitian_terms, cumulative_quantumness, multipoles
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

_EPS = float(np.finfo(float).eps)
_SCREEN_SAMPLES = 32
_POLISH_STARTS = 2
# Polish: the share of its predicted decrease a trial step must deliver, and
# the most trial steps in a row a start may reject before it stops.
_ARMIJO = 1e-4
_BACKTRACKS = 20
# Nielsen's starting damping, and the least damping, relative to the largest
# diagonal entry of the first Gauss-Newton matrix.  A_M is invariant under
# rotations, so B is singular along them; the floor keeps the rounding of the
# gradient from stepping far along them, and keeps the damping from
# underflowing to zero, where a rejection could no longer raise it.
_DAMPING = 1e-3
_DAMPING_FLOOR = math.sqrt(_EPS)
# The stop reasons of a polish start that converged.
_CONVERGED = ("grad_tol", "f_tol")
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
    """What one restart did: residual-and-Jacobian evaluations and steps
    taken, summed over its polished starts, the stop reason of the start it
    kept, whether that start converged, and the restart's wall time.

    stop_reason names the rule that ended the start:

    * "grad_tol": no gradient component exceeds grad_tol;
    * "f_tol": the last step lowered the objective, or a rejected trial
      step promised to lower it, by at most f_tol units of its rounding;
    * "max_iters": the start took max_iters steps;
    * "line_search": 20 damped trial steps in a row were rejected, each
      promising more than that;
    * "king_found": another start of the restart stopped by one of the
      first two rules with A_M <= ZERO_TOL, a king, and this one stopped
      with it.  It is kept only if its A_M is lower still.

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


# -- residuals and their Jacobian in the spinor pairs ------------------------------
#
# A search point x holds 4n reals, n = 2S: Re alpha, Im alpha, Re beta, Im beta,
# n of each.  The polish works on the complex pairs and moves star j along
# z_j (-conj(beta_j), conj(alpha_j)), the direction orthogonal to the pair:
# the pair's own direction only rescales a factor, which leaves A_M alone.
# A step is the 2n reals Re z_1, Im z_1, Re z_2, ...


def _pairs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of search points x of shape (..., 4n)."""
    parts = x.reshape(x.shape[:-1] + (4, -1))
    return parts[..., 0, :] + 1j * parts[..., 1, :], parts[..., 2, :] + 1j * parts[..., 3, :]


def _unit_pairs(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs rescaled to unit length.  A_M does not see the scale, but
    a tangent step z lengthens a pair by sqrt(1 + |z|^2), and products of
    ever longer factors would overflow."""
    scale = np.sqrt(np.abs(alpha) ** 2 + np.abs(beta) ** 2)
    return alpha / scale, beta / scale


def _moved(
    alpha: np.ndarray, beta: np.ndarray, step: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs moved by tangent steps (Re z_1, Im z_1, Re z_2, ...) of
    shape (..., 2n), rescaled to unit length."""
    z = np.ascontiguousarray(step).view(complex)
    return _unit_pairs(alpha - z * beta.conj(), beta + z * alpha.conj())


def _pairs_to_roots(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The stars -beta/alpha; a star within 1e-150 of the pole (alpha = 0
    included) becomes the stand-in _POLE."""
    at_pole = np.abs(alpha) <= np.abs(beta) / _POLE
    return np.where(at_pole, _POLE, -beta / np.where(at_pole, 1.0, alpha))


@lru_cache(maxsize=None)
def _unit_roots(n: int) -> np.ndarray:
    """The n + 1 points w_m = exp(2 pi i m / (n + 1)).  A polynomial of
    degree <= n is fixed by its values there."""
    out = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _amplitude_map(n: int) -> np.ndarray:
    """The matrix that takes the values of a stellar polynomial of degree
    <= n at the unit roots to its amplitudes c_k / b_k, times n + 1 (A_M
    ignores that factor): the discrete Fourier transform, as one product."""
    out = _unit_roots(n)[:, None] ** -np.arange(n + 1) / _binom_sqrt(n)
    out.flags.writeable = False
    return out


def _factor_values(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """alpha_j w + beta_j at the unit roots w, shape (..., n, n + 1)."""
    return alpha[..., None] * _unit_roots(alpha.shape[-1]) + beta[..., None]


def _screen_values(x: np.ndarray, twoS: int, M: int) -> np.ndarray:
    """Search objective of stacked search points x of shape (count, 4n)."""
    alpha, beta = _pairs(x)
    a = np.prod(_factor_values(alpha, beta), axis=-2) @ _amplitude_map(twoS)
    psi = a / np.linalg.norm(a, axis=-1, keepdims=True)
    r = np.matmul(_hermitian_terms(psi, M), psi.conj()[..., None]).real
    return np.sum(r * r, axis=(-2, -1))


def _residuals(
    alpha: np.ndarray, beta: np.ndarray, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """The real residuals r of A_M = |r|^2 at the pairs (alpha, beta) of
    shape (..., n), and their Jacobian J in the tangent steps, of shape
    (..., len(r), 2n), whose columns are the steps Re z_1, Im z_1, Re z_2, ...
    r_j = psi^dag H_j psi for the Hermitian H_j of _hermitian_terms.

    The stellar polynomial with factor j deleted is prefix_j * suffix_{j+1},
    the products of the factors before and after j; both are taken as
    cumulative products of the factor values at the unit roots w_m.  A
    tangent step z_j changes f(w_m) by z_j (conj(alpha_j) - conj(beta_j) w_m)
    times that product, and the amplitudes a by its transform da_j.  With
    psi = a / |a| the step moves psi by dpsi = (da - psi Re(psi^dag da)) / |a|
    and r_j by 2 Re(dpsi^dag H_j psi); the step i z_j moves a by i da_j.
    """
    n = alpha.shape[-1]
    lead = alpha.shape[:-1]
    values = _factor_values(alpha, beta)
    ends = np.ones(lead + (2, n, n + 1), dtype=complex)
    ends[..., 0, 1:, :] = values[..., :-1, :]
    ends[..., 1, 1:, :] = values[..., :0:-1, :]
    np.cumprod(ends, axis=-2, out=ends)
    deleted = ends[..., 0, :, :] * ends[..., 1, ::-1, :]
    tangent = alpha.conj()[..., None] - beta.conj()[..., None] * _unit_roots(n)
    grid = np.concatenate([deleted[..., :1, :] * values[..., :1, :], deleted * tangent], axis=-2)
    grid = grid @ _amplitude_map(n)
    grid /= np.linalg.norm(grid[..., :1, :], axis=-1, keepdims=True)
    psi, da = grid[..., :1, :], grid[..., 1:, :]
    terms = _hermitian_terms(psi[..., 0, :], M)
    r = np.matmul(terms, psi.conj().swapaxes(-1, -2)).real
    # Viewed as reals, the complex columns conj(da_j)^T H psi interleave the
    # steps z_j and i z_j.
    moves = np.matmul(terms, da.conj().swapaxes(-1, -2)).view(float)
    along = np.matmul(psi.conj(), da.swapaxes(-1, -2)).conj().view(float)
    return r[..., 0], 2.0 * (moves - r * along)


def _gauss_newton(r: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f = |r|^2, its gradient 2 J^T r and the Gauss-Newton matrix 2 J^T J,
    for stacked residuals r and Jacobians J."""
    f = (r * r).sum(axis=-1)
    g = 2.0 * np.matmul(r[..., None, :], jac)[..., 0, :]
    return f, g, 2.0 * np.matmul(jac.swapaxes(-1, -2), jac)


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
    """Damped Gauss-Newton from each row of x0, all rows in lockstep.

    Each round makes one batched residual-and-Jacobian call at the trial
    points of the rows still running.  A row keeps a model B of the Hessian
    of f = A_M in the tangent steps (d = 2n, 40 at 2S = 20) and a damping
    lambda, and its trial step s solves (B + lambda I) s = -g.  The trial is
    taken when f falls by at least _ARMIJO times the decrease the damped
    model predicts.  lambda then shrinks by max(1/3, 1 - (2 rho - 1)^3), rho
    the ratio of the two decreases; a rejected trial multiplies lambda by nu
    and doubles nu (H. B. Nielsen, Damping Parameter in Marquardt's Method,
    IMM-REP-1999-05; Madsen, Nielsen & Tingleff, Methods for Non-Linear
    Least Squares Problems (2004), sec. 3.2).  After a step that cuts f by
    at least a fifth, B is the Gauss-Newton matrix 2 J^T J, exact at a king
    (r = 0); after a smaller cut B takes a BFGS update, which learns the
    curvature the residuals add where A_M > 0 (Fletcher & Xu, IMA J. Numer.
    Anal. 7 (1987) 371), or is 2 J^T J again where the step shows no usable
    curvature.  A row stops, and leaves the batch, for the first of these
    reasons:

    * "grad_tol": its largest gradient component is at most grad_tol
      (checked at the start too, so a stationary start takes no step);
    * "f_tol": a step lowered f, or a rejected trial's damped model
      predicted it to lower f, by at most f_tol * eps * max(|f|, 1), so
      f_tol counts units of the rounding of f;
    * "max_iters": it has taken max_iters steps;
    * "line_search": _BACKTRACKS trial steps in a row were rejected;
    * "king_found": another row stopped by grad_tol or f_tol with
      f <= ZERO_TOL (checked at the start too).  f >= 0, so the rows can
      only find another zero.  The rows are the starts of one restart.

    Returns per row: the final point, f and g there, evaluations, steps
    taken and the stop reason.
    """
    rows, dim = len(x0), 2 * twoS
    alpha, beta = _unit_pairs(*_pairs(x0))
    f, g, hess = _gauss_newton(*_residuals(alpha, beta, config.M))
    f = f.tolist()
    diagonal = np.diagonal(hess, axis1=-2, axis2=-1).max(axis=-1)
    damping = (_DAMPING * diagonal).tolist()
    floor = (_DAMPING_FLOOR * diagonal).tolist()
    growth = [2.0] * rows
    evaluations, steps, backtracks = [1] * rows, [0] * rows, [0] * rows
    gmax = np.abs(g).max(axis=-1).tolist()
    reasons = ["grad_tol" if gmax[i] <= config.grad_tol else "" for i in range(rows)]
    live = [i for i in range(rows) if not reasons[i]]
    eye = np.eye(dim)
    while live and not any(r in _CONVERGED and v <= ZERO_TOL for r, v in zip(reasons, f)):
        lam = np.array([damping[i] for i in live])
        gl = g[live]
        s = np.linalg.solve(hess[live] + lam[:, None, None] * eye, -gl[..., None])[..., 0]
        ta, tb = _moved(alpha[live], beta[live], s)
        ft, gt, gauss = _gauss_newton(*_residuals(ta, tb, config.M))
        gs, ss = (gl * s).sum(axis=-1).tolist(), (s * s).sum(axis=-1).tolist()
        gmax = np.abs(gt).max(axis=-1).tolist()
        for k, i in enumerate(live):
            evaluations[i] += 1
            model = 0.5 * (damping[i] * ss[k] - gs[k])
            fi = float(ft[k])
            # An Armijo test, so that a step that leaves f unchanged at its
            # rounding floor is taken, and then stops the row by f_tol.
            if not fi <= f[i] - _ARMIJO * model:
                damping[i] *= growth[i]
                growth[i] *= 2.0
                backtracks[i] += 1
                # A rejected trial that promised no more than the rounding
                # of f: more damping only shrinks the promise.
                if model <= config.f_tol * _EPS * max(abs(f[i]), 1.0):
                    reasons[i] = "f_tol"
                elif backtracks[i] >= _BACKTRACKS:
                    reasons[i] = "line_search"
                continue
            drop = f[i] - fi
            # BFGS after a small cut, where y.s is above rounding relative to
            # the decrease the step predicted (L-BFGS-B's curvature test);
            # otherwise B is the Gauss-Newton matrix.
            bfgs = drop < 0.2 * f[i]
            if bfgs:
                sk, y = s[k], gt[k] - g[i]
                ys, hs = float(y @ sk), hess[i] @ sk
                shs = float(sk @ hs)
                bfgs = ys > _EPS * -gs[k] and shs > 0.0
            if bfgs:
                hess[i] += np.outer(y, y / ys) - np.outer(hs, hs / shs)
            else:
                hess[i] = gauss[k]
            ratio = min(max(drop / model, 0.0), 1.0)
            damping[i] = max(damping[i] * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), floor[i])
            growth[i] = 2.0
            scale = max(abs(f[i]), abs(fi), 1.0)
            alpha[i], beta[i], f[i], g[i] = ta[k], tb[k], fi, gt[k]
            steps[i] += 1
            backtracks[i] = 0
            if gmax[k] <= config.grad_tol:
                reasons[i] = "grad_tol"
            elif drop <= config.f_tol * _EPS * scale:
                reasons[i] = "f_tol"
            elif steps[i] >= config.max_iters:
                reasons[i] = "max_iters"
        live = [i for i in live if not reasons[i]]
    for i in live:
        reasons[i] = "king_found"
    x = np.concatenate([alpha.real, alpha.imag, beta.real, beta.imag], axis=-1)
    return x, f, list(g), evaluations, steps, reasons


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
        # A small final gradient is a converged start even when rejected
        # steps end it at the rounding floor.
        converged=reasons[best] in _CONVERGED
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
    rescored = []
    for _, x, _ in outcomes:
        c = _gauge_fix(label, _pairs_to_roots(*_pairs(x)))
        spec = multipoles(state_from_constellation(c))
        rescored.append((cumulative_quantumness(spec, config.M), _angle_key(c), c, spec))
    best_value, _, best_constellation, spectrum = min(rescored, key=lambda t: t[:2])

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
