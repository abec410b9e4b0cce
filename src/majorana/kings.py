"""Search for maximally unpolarized pure states.

A state is unpolarized to order M when its cumulative multipole strength
A_M vanishes.  The search space is the state itself: a unit amplitude
vector psi in C^(2S + 1), rescaled to unit length after every step, so the
iterate stays exactly on the pure-state manifold.  A_M sees neither the
length nor the phase of psi, so psi needs no chart, and the poles of the
sphere are not special.  The stars are solved for once per restart, from
the final psi (constellation_from_state), and then turned into a canonical
gauge.

A_M is a sum of squares, A_M = |r|^2, of M(M + 2) real residuals: the
components rho_Kq with 1 <= K <= M and q >= 0 (those with q < 0 repeat
them), each the expectation r_j = psi^dag H_j psi of a Hermitian operator.
It vanishes at a king.  On the unit sphere the gradient of r_j is
2 (H_j psi - r_j psi), so one gather of the vectors H_j psi
(multipoles._hermitian_terms, two shifted copies of psi per operator)
gives the residuals and their Jacobian together.  The gather is used
rather than applying all the operators as one dense matrix product: that
product is faster in the median but takes OpenBLAS's threaded path, whose
slow tail costs more than the median saves.

On such a zero-residual problem Gauss-Newton converges quadratically, so
each restart screens random states in one stacked evaluation of A_M and
polishes the best of them by a damped Gauss-Newton method: Levenberg-
Marquardt steps under Nielsen's damping rule, with the Gauss-Newton matrix
J^T J swapped for a BFGS model after steps that cut A_M by less than a
fifth, so that minima with A_M > 0 still converge superlinearly (the hybrid
of Fletcher & Xu, IMA J. Numer. Anal. 7 (1987) 371).  Each step s moves psi
to (psi + s) / |psi + s|.

Restarts draw independent random streams from (seed, restart_index), so the
result is reproducible and independent of how restarts are scheduled.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergence
from .multipoles import (
    _hermitian_terms,
    _stacked_quantumness,
    cumulative_quantumness,
    multipoles,
)
from .stellar import (
    Constellation,
    SpinLabel,
    SpinState,
    _as_label,
    _spinors,
    constellation_from_state,
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
# Polish: the share of its predicted decrease a trial step must deliver, the
# most trial steps in a row the polish may reject, and the stop rules of
# RestartRecord: the most steps, the largest gradient component, and the
# decrease of A_M in units of its rounding.
_ARMIJO = 1e-4
_BACKTRACKS = 20
_MAX_ITERS = 2000
_GRAD_TOL = 1e-9
_F_TOL = 1e-9
# Nielsen's starting damping, and the least damping, relative to the largest
# diagonal entry of the first Gauss-Newton matrix.  Madsen, Nielsen &
# Tingleff (sec. 3.2) start at 1e-3 only when the start is believed close to
# the minimiser; a screened random start is not (A_M ~ 0.1-0.3).  The value
# was chosen when the search moved stars: there, from 1e-3, 84% of the
# trials of a start's first two rounds were rejected (200 single-restart
# searches of the benchmark's configurations), from 3e-2 13%, and the
# searches took 18% fewer evaluations.  In amplitudes the two starts are
# within 4% of each other (1210 against 1251 evaluations, seeds 0-39).  A_M
# is invariant under rotations and under the length and phase of psi, so B
# is singular along them; the floor keeps the rounding of the gradient from
# stepping far along them, and keeps the damping from underflowing to zero,
# where a rejection could no longer raise it.
_DAMPING = 3e-2
_DAMPING_FLOOR = math.sqrt(_EPS)
# The stop reasons of a polish that converged.
_CONVERGED = ("grad_tol", "f_tol")


@dataclass(frozen=True)
class SearchConfig:
    """Target order M, restart count and seed.  Each polish stops by the
    fixed rules that RestartRecord lists."""

    M: int
    restarts: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class RestartRecord:
    """What one restart did: residual-and-Jacobian evaluations and steps
    taken by its polish, the stop reason, whether the polish converged, and
    the restart's wall time.

    stop_reason names the first rule that ended the polish:

    * "grad_tol": no gradient component exceeds 1e-9 (checked at the start
      too, so a stationary start takes no step);
    * "f_tol": the last step lowered A_M, or a rejected trial step
      promised to lower it, by at most 1e-9 * eps * max(A_M, 1): 1e-9
      units of its rounding;
    * "max_iters": the polish took 2000 steps;
    * "line_search": 20 damped trial steps in a row were rejected, each
      promising more than that.

    The first two count as converged, and so does any polish whose largest
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


# -- residuals and their Jacobian in the amplitudes ---------------------------------


def _residuals(psi: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The real residuals r of A_M = |r|^2 at the unit state psi,
    r_j = psi^dag H_j psi for the Hermitian H_j of _hermitian_terms, and
    their Jacobian J, of shape (len(r), 2d), in the real steps
    s = (Re s_0, Im s_0, Re s_1, ...) that move psi to (psi + s) / |psi + s|.

    To first order such a step moves r_j by 2 Re(s^dag (H_j psi - r_j psi)),
    so row j of J is 2 (H_j psi - r_j psi) read as interleaved reals: one
    gather of the vectors H_j psi gives both r and J.
    """
    terms = _hermitian_terms(psi, M)
    r = (terms @ psi.conj()).real
    return r, 2.0 * (terms - r[:, None] * psi).view(float)


def _moved(psi: np.ndarray, step: np.ndarray) -> np.ndarray:
    """psi moved by the real step (Re s_0, Im s_0, ...) of length 2d and
    rescaled to unit length.  A_M sees neither the length nor the phase of
    psi, so the search needs no chart."""
    moved = psi + step.view(complex)
    return moved / np.linalg.norm(moved)


def _gauss_newton(r: np.ndarray, jac: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """f = |r|^2, its gradient 2 J^T r and the Gauss-Newton matrix 2 J^T J."""
    return float(r @ r), 2.0 * (r @ jac), 2.0 * (jac.T @ jac)


def _random_states(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """count Haar-random unit states of dimension dim, shape (count, dim):
    complex Gaussian rows, normalized."""
    psi = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def _polish(psi: np.ndarray, M: int) -> tuple[np.ndarray, float, np.ndarray, int, int, str]:
    """Damped Gauss-Newton from the unit state psi of shape (d,).

    Each round makes one residual-and-Jacobian call at the trial point.  The
    polish keeps a model B of the Hessian of f = A_M in the 2d real steps
    of _residuals (42 at 2S = 20) and a damping lambda, and its trial step
    s solves (B + lambda I) s = -g.  The trial is taken when f falls by at
    least _ARMIJO times the decrease the damped model predicts.  lambda then
    shrinks by max(1/3, 1 - (2 rho - 1)^3), rho the ratio of the two
    decreases; a rejected trial multiplies lambda by nu and doubles nu
    (H. B. Nielsen, Damping Parameter in Marquardt's Method, IMM-REP-1999-05;
    Madsen, Nielsen & Tingleff, Methods for Non-Linear Least Squares
    Problems (2004), sec. 3.2).  After a step that cuts f by at least a
    fifth, B is the Gauss-Newton matrix 2 J^T J, exact at a king (r = 0);
    after a smaller cut B takes a BFGS update, which learns the curvature
    the residuals add where A_M > 0 (Fletcher & Xu, IMA J. Numer. Anal. 7
    (1987) 371), or is 2 J^T J again where the step shows no usable
    curvature.  The polish ends by the first of the stop rules that
    RestartRecord lists.

    lambda starts at _DAMPING = 3e-2 times the largest diagonal entry of
    the first B, above the 1e-3 that sec. 3.2 gives for a start near the
    minimiser: a screened random start is far from it, and from 1e-3 most
    starts spent their first rounds rejecting long steps, only to raise
    lambda.

    Returns the final unit state, f and g there, evaluations, steps taken
    and the stop reason.
    """
    f, g, hess = _gauss_newton(*_residuals(psi, M))
    diagonal = float(np.diagonal(hess).max())
    damping, floor = _DAMPING * diagonal, _DAMPING_FLOOR * diagonal
    growth = 2.0
    evaluations, steps, backtracks = 1, 0, 0
    reason = "grad_tol" if np.abs(g).max() <= _GRAD_TOL else ""
    eye = np.eye(len(g))
    while not reason:
        s = np.linalg.solve(hess + damping * eye, -g)
        ss = float(s @ s)
        # A step that is not finite is not tried: a rejected trial (ft = inf)
        # whose promise (model = inf) cannot stop the polish by f_tol.
        ft = model = math.inf
        if math.isfinite(ss):
            trial = _moved(psi, s)
            ft, gt, gauss = _gauss_newton(*_residuals(trial, M))
            gs = float(g @ s)
            evaluations += 1
            model = 0.5 * (damping * ss - gs)
        # An Armijo test, so that a step that leaves f unchanged at its
        # rounding floor is taken, and then stops the polish by f_tol.  An
        # ft that is not finite fails it.
        if not ft <= f - _ARMIJO * model:
            damping *= growth
            growth *= 2.0
            backtracks += 1
            # A rejected trial that promised no more than the rounding of
            # f: more damping only shrinks the promise.
            if model <= _F_TOL * _EPS * max(abs(f), 1.0):
                reason = "f_tol"
            elif backtracks >= _BACKTRACKS:
                reason = "line_search"
            continue
        drop = f - ft
        # BFGS after a small cut, where y.s is above rounding relative to
        # the decrease the step predicted (L-BFGS-B's curvature test);
        # otherwise B is the Gauss-Newton matrix.
        bfgs = drop < 0.2 * f
        if bfgs:
            y = gt - g
            ys, hs = float(y @ s), hess @ s
            shs = float(s @ hs)
            bfgs = ys > _EPS * -gs and shs > 0.0
        if bfgs:
            hess += np.outer(y, y / ys) - np.outer(hs, hs / shs)
        else:
            hess = gauss
        ratio = min(max(drop / model, 0.0), 1.0)
        damping = max(damping * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), floor)
        growth = 2.0
        scale = max(abs(f), abs(ft), 1.0)
        psi, f, g = trial, ft, gt
        steps += 1
        backtracks = 0
        if np.abs(gt).max() <= _GRAD_TOL:
            reason = "grad_tol"
        elif drop <= _F_TOL * _EPS * scale:
            reason = "f_tol"
        elif steps >= _MAX_ITERS:
            reason = "max_iters"
    return psi, f, g, evaluations, steps, reason


def _run_restart(
    label: SpinLabel, config: SearchConfig, index: int
) -> tuple[float, Constellation, RestartRecord]:
    start = time.perf_counter()
    rng = np.random.default_rng([config.seed % (2 ** 64), index])
    psi = _random_states(rng, label.dim, _SCREEN_SAMPLES)
    best = int(np.argmin(_stacked_quantumness(psi, config.M)))
    psi, f, g, evaluations, steps, reason = _polish(psi[best], config.M)
    constellation = _gauge_fix(constellation_from_state(SpinState(label, psi)))
    record = RestartRecord(
        evaluations=evaluations,
        iterations=steps,
        stop_reason=reason,
        # A small final gradient is a converged polish even when rejected
        # steps end it at the rounding floor.
        converged=reason in _CONVERGED or float(np.abs(g).max()) <= 1e-6,
        seconds=time.perf_counter() - start,
    )
    return f, constellation, record


# -- gauge fixing ----------------------------------------------------------------


def _gauge_fix(c: Constellation) -> Constellation:
    """The constellation rotated so its first star (the first of
    Constellation.points) sits at theta = 0 and the next off-axis star has
    phi = 0.

    Star j is the unit spinor (u_j, v_j) of stellar._spinors, at z = v / u.
    The SU(2) matrix [[conj u_0, conj v_0], [-v_0, u_0]] takes the first
    star to (1, 0), z = 0, and turns the others rigidly with it; its v_0 =
    u_0 v_0 - v_0 u_0 is set to 0, as rounding need not cancel it.  A turned
    star with |z| > 1e8, within about 1e-8 chordal of the pole, is snapped
    there, which keeps the output canonical.
    """
    u, v = _spinors(np.concatenate([c.finite_roots, np.full(c.infinity_count, np.inf)]))
    u0, v0 = u[:1], v[:1]
    u, v = u0.conj() * u + v0.conj() * v, u0 * v - v0 * u
    v[0] = 0.0
    pole = np.abs(v) > 1e8 * np.abs(u)
    z = v[~pole] / u[~pole]
    off = np.flatnonzero(np.abs(z) > 1e-12)
    if len(off):
        z = z * np.exp(-1j * np.angle(z[off[0]]))
    return Constellation(c.label, z, int(pole.sum()))


# -- public search ------------------------------------------------------------------


def minimize(label: SpinLabel | int, config: SearchConfig) -> KingResult:
    """Best-of-restarts local minimization of A_M over pure states.

    Deterministic for a fixed (label, config).  Of the restarts within a
    few rounding units eps * max(A_M, 1) of the least A_M, the first is
    reported.  If no restart converges the best iterate is still returned
    with restarts_converged = 0; callers that need a hard failure can check
    that field.
    """
    label = _as_label(label)
    if not (1 <= config.M <= label.twoS):
        raise ValueError(f"M={config.M} outside 1..{label.twoS}")

    outcomes = [_run_restart(label, config, i) for i in range(config.restarts)]

    # Report the exact pipeline objective of each gauge-fixed candidate so
    # the stated optimum is reproducible from the constellation alone.
    spectra = [multipoles(state_from_constellation(c)) for _, c, _ in outcomes]
    values = [cumulative_quantumness(spec, config.M) for spec in spectra]
    # Restarts that reach the same optimum differ there only by rounding, so
    # the lowest restart index within a few units of that rounding of the
    # least A_M wins: which gauge is reported must not hinge on an ulp.
    least = min(values)
    best = next(i for i, v in enumerate(values) if v <= least + 4.0 * _EPS * max(least, 1.0))

    order = 0
    for m in range(1, label.twoS + 1):
        if spectra[best].A[m] <= ZERO_TOL:
            order = m
        else:
            break

    records = tuple(record for _, _, record in outcomes)
    return KingResult(
        label=label,
        M=config.M,
        constellation=outcomes[best][1],
        objective=values[best],
        unpolarized_order=order,
        restarts_converged=sum(1 for r in records if r.converged),
        history=tuple(value for value, _, _ in outcomes),
        restart_records=records,
    )


def max_unpolarized_order(label: SpinLabel | int, config: SearchConfig) -> int:
    """Largest M whose optimized A_M is at most ZERO_TOL, scanning upward."""
    label = _as_label(label)
    best = 0
    for M in range(1, label.twoS + 1):
        result = minimize(label, replace(config, M=M))
        if result.restarts_converged == 0:
            raise NonConvergence(f"no restart converged at M={M}")
        if result.objective <= ZERO_TOL:
            best = M
        else:
            break
    return best
