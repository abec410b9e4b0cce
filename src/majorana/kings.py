"""Search for maximally unpolarized pure states.

A state is unpolarized to order M when its cumulative multipole strength
A_M vanishes.  The search space is the state itself: a unit amplitude
vector psi in C^(2S + 1), rescaled to unit length after every step, so the
iterate stays exactly on the pure-state manifold.  A_M sees neither the
length nor the phase of psi, so psi needs no chart, and the poles of the
sphere are not special.  The stars are solved for once per search, from
the winning restart's final psi (constellation_from_state), and then
turned into a canonical gauge.

A_M is a sum of squares, A_M = |r|^2, of M(M + 2) real residuals: the
components rho_Kq with 1 <= K <= M and q >= 0 (those with q < 0 repeat
them), each the expectation r_j = psi^dag H_j psi of a Hermitian operator.
It vanishes at a king.  On the unit sphere the gradient of r_j is
2 (H_j psi - r_j psi), so one product of the stacked operators with psi
(_operator_stack, which states its cost) gives the vectors H_j psi, and
with them the residuals and their Jacobian together.

On such a zero-residual problem Gauss-Newton converges quadratically, so
each restart screens random states in one stacked evaluation of A_M and
polishes the best of them by a damped Gauss-Newton method (_polish, which
gives the reasons for its damping): Levenberg-Marquardt steps damped by
mu |r|, with the Gauss-Newton matrix J^T J swapped for a BFGS model after
steps that cut A_M by less than a fifth, so that minima with A_M > 0 still
converge superlinearly (the hybrid of Fletcher & Xu, IMA J. Numer. Anal. 7
(1987) 371).  Each step s moves psi to (psi + s) / |psi + s|.

A restart's objective is the polish's final A_M, at its polished psi; the
search rescores nothing.  The unpolarized order is the count of orders K
with A_K <= ZERO_TOL at the winning psi: A_K never decreases in K.

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
from .multipoles import (
    _cumulative_strengths,
    cumulative_quantumness,
    multipoles,
    tensor_operator,
)
from .rootfinding import _EPS
from .stellar import (
    Constellation,
    SpinLabel,
    SpinState,
    _as_label,
    _is_integer,
    _spinors,
    _stars,
    _turned,
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
# The polish damps by lambda = mu |r|: _DAMPING is the starting mu and
# _DAMPING_FLOOR the least, both in units of the largest diagonal entry of
# the first Gauss-Newton matrix over the first |r|.  _polish gives the
# reasons for both.
_DAMPING = 3e-2
_DAMPING_FLOOR = math.sqrt(_EPS)


@dataclass(frozen=True)
class SearchConfig:
    """Target order M, restart count and seed, each a Python or numpy
    integer (not a bool).  Each polish stops by the fixed rules that
    RestartRecord lists."""

    M: int
    restarts: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("M", "restarts", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class RestartRecord:
    """What one restart did: residual-and-Jacobian evaluations and steps
    taken by its polish, the stop reason, and the restart's wall time
    (draw, screening and polish).

    stop_reason names the first rule that ended the polish:

    * "grad_tol": no gradient component exceeds 1e-9 (checked at the start
      too, so a stationary start takes no step);
    * "f_tol": the last step lowered A_M, or a rejected trial step
      promised to lower it, by at most 1e-9 * eps * max(A_M, 1): 1e-9
      units of its rounding;
    * "max_iters": the polish took 2000 steps;
    * "line_search": 20 damped trial steps in a row were rejected, each
      promising more than that.

    The first two count as converged."""

    evaluations: int
    iterations: int
    stop_reason: str
    seconds: float

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("grad_tol", "f_tol")


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
    state = state_from_constellation(constellation)
    return cumulative_quantumness(multipoles(state), M)


# -- residuals and their Jacobian in the amplitudes ---------------------------------


@lru_cache(maxsize=16)
def _operator_stack(twoS: int, M: int) -> np.ndarray:
    """The M(M + 2) Hermitian operators H_j stacked as one read-only
    (M(M + 2)(2S + 1), 2S + 1) matrix: for K = 1..M, T_K0 and then, for
    q = 1..K, (T_Kq^dag + T_Kq) / sqrt 2 and (T_Kq^dag - T_Kq) / (sqrt 2 i).
    Their expectations psi^dag H_j psi are the real numbers rho_K0,
    sqrt 2 Re rho_Kq and sqrt 2 Im rho_Kq; the rho_K,-q = (-1)^q conj(rho_Kq)
    repeat them, so the squares of the expectations sum to A_M.

    Each H_j has two nonzero diagonals, so the dense stack costs O(M^2 d^2)
    work and memory, d = 2S + 1, against O(M^2 d) for a gather of shifted
    copies of psi: faster up to about (2S, M) = (12, 6), slower beyond (11
    against 9 us per evaluation at (20, 6), 70 against 28 at (40, 10)), and
    0.34 MB at (20, 6), 45 MB at (40, 40).  No search of the benchmark or
    the tests is larger than (20, 6)."""
    ops = []
    for K in range(1, M + 1):
        ops.append(tensor_operator(twoS, K, 0))
        for q in range(1, K + 1):
            t = tensor_operator(twoS, K, q) / math.sqrt(2.0)
            ops += [t.conj().T + t, 1j * (t - t.conj().T)]
    stack = np.concatenate(ops)
    stack.flags.writeable = False
    return stack


def _residuals(psi: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The real residuals r of A_M = |r|^2 at the unit state psi,
    r_j = psi^dag H_j psi for the Hermitian H_j of _operator_stack, and
    their Jacobian J, of shape (len(r), 2d), in the real steps
    s = (Re s_0, Im s_0, Re s_1, ...) that move psi to (psi + s) / |psi + s|.

    To first order such a step moves r_j by 2 Re(s^dag (H_j psi - r_j psi)),
    so row j of J is 2 (H_j psi - r_j psi) read as interleaved reals: one
    product of the stack with psi gives both r and J.
    """
    terms = (_operator_stack(len(psi) - 1, M) @ psi).reshape(-1, len(psi))
    r = (terms @ psi.conj()).real
    return r, 2.0 * (terms - r[:, None] * psi).view(float)


def _moved(psi: np.ndarray, step: np.ndarray) -> np.ndarray:
    """psi moved by the real step (Re s_0, Im s_0, ...) of length 2d and
    rescaled to unit length.  A_M sees neither the length nor the phase of
    psi, so the search needs no chart."""
    moved = psi + step.view(complex)
    return moved / math.sqrt(np.vdot(moved, moved).real)


def _gauss_newton(r: np.ndarray, jac: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """f = |r|^2, its gradient 2 J^T r and the Gauss-Newton matrix 2 J^T J."""
    return float(r @ r), 2.0 * (r @ jac), 2.0 * (jac.T @ jac)


def _random_states(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """count Haar-random unit states of dimension dim, shape (count, dim):
    complex Gaussian rows, normalized, from one draw of real pairs."""
    pairs = rng.standard_normal((count, dim, 2))
    norms = np.sqrt(np.square(pairs).sum(axis=(1, 2)))
    return pairs.view(complex)[..., 0] / norms[:, None]


def _polish(psi: np.ndarray, M: int) -> tuple[np.ndarray, float, int, int, str]:
    """Damped Gauss-Newton from the unit state psi of shape (d,).

    Each round makes one residual-and-Jacobian call at the trial point.  The
    polish keeps a model B of the Hessian of f = A_M in the 2d real steps
    of _residuals (42 at 2S = 20) and a damping lambda = mu |r|, |r| =
    sqrt(f) at the current psi, and its trial step s solves
    (B + lambda I) s = -g.  Damping in proportion to the residual is the
    Levenberg-Marquardt rule that converges quadratically on a zero-residual
    problem whose Jacobian is singular, as here along rotations, phase and
    length (Yamashita & Fukushima, Computing Suppl. 15 (2001) 239; Fan &
    Yuan, Computing 74 (2005) 23).  The trial is taken when f falls by at
    least _ARMIJO times the decrease the damped model predicts.  mu then
    shrinks by max(1/3, 1 - (2 rho - 1)^3), rho the ratio of the two
    decreases, to no less than _DAMPING_FLOOR; a rejected trial multiplies
    mu by nu and doubles nu (H. B. Nielsen, Damping Parameter in Marquardt's
    Method, IMM-REP-1999-05; Madsen, Nielsen & Tingleff, Methods for
    Non-Linear Least Squares Problems (2004), sec. 3.2).  After a step that
    cuts f by at least a fifth, B is the Gauss-Newton matrix 2 J^T J, exact
    at a king (r = 0); after a smaller cut B takes a BFGS update, which
    learns the curvature the residuals add where A_M > 0 (Fletcher & Xu,
    IMA J. Numer. Anal. 7 (1987) 371), or is 2 J^T J again where the step
    shows no usable curvature.  The polish ends by the first of the stop
    rules that RestartRecord lists.

    mu and its floor are in units of the largest diagonal entry of the first
    B over the first |r|, so lambda starts at _DAMPING = 3e-2 times that
    entry, above the 1e-3 that sec. 3.2 gives for a start near the
    minimiser: a screened random start is far from it (A_M ~ 0.1-0.3).
    Over one restart at each of the benchmark's configurations, seeds 0-19,
    a start at 1e-3 took 627 evaluations, 45 of them rejected trials,
    against 567 and 16 from 3e-2.  B is singular along rotations, phase and
    length; the floor, _DAMPING_FLOOR = sqrt(eps), keeps the rounding of the
    gradient, which shrinks with |r| as lambda does, from stepping far
    along them, and keeps mu from underflowing to zero, where a rejection
    could no longer raise it.

    Returns the final unit state, f (the restart's objective: A_M at that
    state), evaluations, steps taken and the stop reason.
    """
    f, g, hess = _gauss_newton(*_residuals(psi, M))
    diagonal = float(np.diagonal(hess).max())
    mu, floor = _DAMPING * diagonal, _DAMPING_FLOOR * diagonal
    f0 = f  # f = 0 has g = 0, so it takes no round
    growth = 2.0
    evaluations, steps, backtracks = 1, 0, 0
    reason = "grad_tol" if np.abs(g).max() <= _GRAD_TOL else ""
    eye = np.eye(len(g))
    while not reason:
        damping = mu * math.sqrt(f / f0)  # mu |r|, with mu in units of 1 / |r_0|
        rounding = _F_TOL * _EPS * max(f, 1.0)  # f = |r|^2; a taken step has ft <= f
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
            mu *= growth
            growth *= 2.0
            backtracks += 1
            # A rejected trial that promised no more than the rounding of
            # f: more damping only shrinks the promise.
            if model <= rounding:
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
        mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), floor)
        growth = 2.0
        psi, f, g = trial, ft, gt
        steps += 1
        backtracks = 0
        if np.abs(gt).max() <= _GRAD_TOL:
            reason = "grad_tol"
        elif drop <= rounding:
            reason = "f_tol"
        elif steps >= _MAX_ITERS:
            reason = "max_iters"
    return psi, f, evaluations, steps, reason


def _run_restart(
    label: SpinLabel, config: SearchConfig, index: int
) -> tuple[np.ndarray, float, RestartRecord]:
    start = time.perf_counter()
    rng = np.random.default_rng([config.seed % (2 ** 64), index])
    psi = _random_states(rng, label.dim, _SCREEN_SAMPLES)
    best = int(np.argmin(_cumulative_strengths(psi, config.M)[:, -1]))
    psi, f, evaluations, steps, reason = _polish(psi[best], config.M)
    record = RestartRecord(
        evaluations=evaluations,
        iterations=steps,
        stop_reason=reason,
        seconds=time.perf_counter() - start,
    )
    return psi, f, record


# -- gauge fixing ----------------------------------------------------------------


def _gauge_fix(c: Constellation) -> Constellation:
    """The constellation rotated so its first star (the first of
    Constellation.points) sits at theta = 0 and the next off-axis star has
    phi = 0.

    With (u_0, v_0) the unit spinor pair of the first star (stellar._spinors),
    the SU(2) matrix [[conj u_0, conj v_0], [-v_0, u_0]] takes it to (1, 0),
    z = 0 exactly, and turns the others rigidly with it (stellar._turned).
    A turned star with |z| > 1e8, within about 1e-8 chordal of the pole, is
    snapped there, which keeps the output canonical.
    """
    u, v = _spinors(_stars(c))
    z = _turned(np.array([[np.conj(u[0]), np.conj(v[0])], [-v[0], u[0]]]), u, v)
    pole = np.abs(z) > 1e8
    z = z[~pole]
    off = np.flatnonzero(np.abs(z) > 1e-12)
    if len(off):
        z = z * np.exp(-1j * np.angle(z[off[0]]))
    return Constellation(c.label, z, int(pole.sum()))


# -- public search ------------------------------------------------------------------


def minimize(label: SpinLabel | int, config: SearchConfig) -> KingResult:
    """Best-of-restarts local minimization of A_M over pure states.

    Deterministic for a fixed (label, config).  Each restart's objective is
    its polish's final A_M.  Of the restarts within a few rounding units
    eps * max(A_M, 1) of the least A_M, the first is reported, and only its
    stars are solved for.  If no restart converges the best iterate is
    still returned with restarts_converged = 0; callers that need a hard
    failure can check that field.
    """
    label = _as_label(label)
    if config.M > label.twoS:
        raise ValueError(f"M={config.M} outside 1..{label.twoS}")

    outcomes = [_run_restart(label, config, i) for i in range(config.restarts)]
    values = [value for _, value, _ in outcomes]
    # Restarts that reach the same optimum differ there only by rounding, so
    # the lowest restart index within a few units of that rounding of the
    # least A_M wins: which gauge is reported must not hinge on an ulp.
    least = min(values)
    best = next(i for i, v in enumerate(values) if v <= least + 4.0 * _EPS * max(least, 1.0))
    psi = outcomes[best][0]

    records = tuple(record for _, _, record in outcomes)
    strengths = _cumulative_strengths(psi[None], label.twoS)  # A_1 .. A_2S
    return KingResult(
        label=label,
        M=config.M,
        constellation=_gauge_fix(constellation_from_state(SpinState(label, psi))),
        objective=values[best],
        unpolarized_order=int(np.count_nonzero(strengths <= ZERO_TOL)),
        restarts_converged=sum(1 for r in records if r.converged),
        history=tuple(values),
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
