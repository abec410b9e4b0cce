"""Search for maximally unpolarized pure states.

A state is unpolarized to order M when its cumulative multipole strength
A_M vanishes.  The search space is the constellation itself: 2S stars
parametrized by angles (theta_k, phi_k), reconstructed to a state through
the root polynomial, with A_M evaluated by tensor traces.  Optimizing star
positions rather than amplitudes keeps the iterate exactly on the pure-state
manifold.

Restarts draw independent random streams from (seed, restart_index), so the
result is reproducible and independent of how restarts are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .errors import NonConvergence
from .multipoles import _tensor_dagger_stack, cumulative_quantumness, multipoles
from .stellar import (
    Constellation,
    SpinLabel,
    _as_label,
    _binom_sqrt,
    _chord_matrix,
    _root_coefficients,
    state_from_constellation,
)

__all__ = ["SearchConfig", "KingResult", "objective", "minimize", "max_unpolarized_order"]

#: A_M at or below this value counts as numerically unpolarized.
ZERO_TOL = 1e-7

_COLLISION_CHORD = 1e-9
_SCREEN_SAMPLES = 32


@dataclass(frozen=True)
class SearchConfig:
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


@dataclass(frozen=True, eq=False)
class KingResult:
    label: SpinLabel
    M: int
    constellation: Constellation
    objective: float
    unpolarized_order: int
    restarts_converged: int
    history: tuple[float, ...]


def objective(constellation: Constellation, M: int) -> float:
    """A_M of the state rebuilt from the stars."""
    if not (1 <= M <= constellation.label.twoS):
        raise ValueError(f"M={M} outside 1..{constellation.label.twoS}")
    state = state_from_constellation(constellation)
    return cumulative_quantumness(multipoles(state), M)


# -- optimizer internals --------------------------------------------------------


def _angles_to_roots(x: np.ndarray) -> np.ndarray:
    """Fold free angles onto the sphere and project stereographically.

    The tangent is clipped to |z| <= 1e6 so the optimizer can push a star
    arbitrarily close to theta = pi without leaving the finite chart; the
    objective error of the clip is far below the search tolerances.
    """
    n = len(x) // 2
    theta = np.mod(x[:n], 2.0 * np.pi)
    phi = x[n:].copy()
    over = theta > np.pi
    theta[over] = 2.0 * np.pi - theta[over]
    phi[over] += np.pi
    mag = np.minimum(np.tan(theta / 2.0), 1e6)
    return mag * np.exp(-1j * phi)


def _roots_to_amplitudes(roots: np.ndarray, twoS: int) -> np.ndarray:
    amps = _root_coefficients(roots, twoS) / _binom_sqrt(twoS)
    amps = amps / np.abs(amps).max()
    return amps / np.linalg.norm(amps)


def _quantumness_of_roots(roots: np.ndarray, twoS: int, M: int) -> float:
    amps = _roots_to_amplitudes(roots, twoS)
    stack = _tensor_dagger_stack(twoS)[1 : (M + 1) * (M + 1)]
    comps = np.einsum("iab,a,b->i", stack, amps.conj(), amps)
    return float(np.sum(np.abs(comps) ** 2))


def _collision_penalty(roots: np.ndarray) -> float:
    iu = np.triu_indices(len(roots), k=1)
    gap = np.clip(_COLLISION_CHORD - _chord_matrix(roots)[iu], 0.0, None)
    return float(np.sum(gap ** 2))


def _search_objective(x: np.ndarray, twoS: int, M: int) -> float:
    roots = _angles_to_roots(x)
    return _quantumness_of_roots(roots, twoS, M) + _collision_penalty(roots)


def _random_angles(rng: np.random.Generator, n_stars: int, count: int) -> np.ndarray:
    theta = np.arccos(rng.uniform(-1.0, 1.0, size=(count, n_stars)))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(count, n_stars))
    return np.concatenate([theta, phi], axis=1)


def _run_restart(
    label: SpinLabel, config: SearchConfig, index: int
) -> tuple[float, np.ndarray, bool]:
    twoS = label.twoS
    rng = np.random.default_rng([config.seed % (2 ** 64), index])
    candidates = _random_angles(rng, twoS, _SCREEN_SAMPLES)
    values = [_search_objective(x, twoS, config.M) for x in candidates]
    x0 = candidates[int(np.argmin(values))]

    simplex = scipy.optimize.minimize(
        _search_objective,
        x0,
        args=(twoS, config.M),
        method="Nelder-Mead",
        options={
            "maxiter": config.max_iters,
            "maxfev": 4 * config.max_iters,
            "fatol": config.f_tol,
            "xatol": 1e-8,
        },
    )
    polish = scipy.optimize.minimize(
        _search_objective,
        simplex.x,
        args=(twoS, config.M),
        method="BFGS",
        options={"gtol": config.grad_tol, "maxiter": 300},
    )
    best = min((simplex.fun, simplex.x), (polish.fun, polish.x), key=lambda t: t[0])
    # BFGS ends with "precision loss" rather than success once the
    # finite-difference gradient hits its noise floor (~1e-8); a small final
    # gradient is still a converged restart.
    stationary = float(np.abs(polish.jac).max()) <= 1e-6
    converged = bool(simplex.success or polish.success or stationary)
    return float(best[0]), best[1], converged


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

    fixed = [
        (value, _gauge_fix(label, _angles_to_roots(x)), converged)
        for value, x, converged in outcomes
    ]
    # Report the exact pipeline objective of each gauge-fixed candidate so
    # the stated optimum is reproducible from the constellation alone.
    rescored = [
        (objective(c, config.M), key, c, converged)
        for value, c, converged in fixed
        for key in (_angle_key(c),)
    ]
    rescored.sort(key=lambda t: (t[0], t[1]))
    best_value, _, best_constellation, _ = rescored[0]

    spectrum = multipoles(state_from_constellation(best_constellation))
    order = 0
    for m in range(1, label.twoS + 1):
        if spectrum.A[m] <= ZERO_TOL:
            order = m
        else:
            break

    return KingResult(
        label=label,
        M=config.M,
        constellation=best_constellation,
        objective=best_value,
        unpolarized_order=order,
        restarts_converged=sum(1 for _, _, c in fixed if c),
        history=tuple(float(v) for v, _, _ in outcomes),
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
