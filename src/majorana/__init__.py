"""Majorana stellar representation of spin states.

A pure spin-S state is, up to phase, a constellation of 2S stars on the
unit sphere: the roots of its characteristic polynomial under
stereographic projection.  This package converts states to constellations
and back, measures rotational structure through state multipoles and the
cumulative quantumness hierarchy, searches for maximally unpolarized
(king) constellations, and follows the stars, and their equations of
motion, under a Hermitian Hamiltonian.
"""

from .errors import (
    DegenerateConstellation,
    LabelMismatch,
    MajoranaError,
    NonConvergence,
)
from .stellar import (
    INFINITY,
    Constellation,
    SpherePoint,
    SpinLabel,
    SpinState,
    StellarPolynomial,
    basis_state,
    chordal_distance,
    coherent_state,
    constellation_from_state,
    constellations_from_states,
    is_infinite,
    noon_state,
    overlap,
    rotate,
    sphere_to_stereo,
    spin_matrices,
    state_from_constellation,
    stellar_polynomial,
    stereo_to_sphere,
)
from .multipoles import (
    MultipoleSpectrum,
    QGrid,
    clebsch_gordan,
    cumulative_quantumness,
    dipole,
    husimi_q,
    multipoles,
    multipoles_integral,
    q_grid,
    quadrupole,
    spherical_harmonic,
    tensor_operator,
)
from .kings import (
    KingResult,
    RestartRecord,
    SearchConfig,
    max_unpolarized_order,
    minimize,
    objective,
)
from .dynamics import (
    HamiltonianSpec,
    StarTrajectory,
    builtin_hamiltonian,
    equilibrium_residual,
    evolve,
    evolve_exact,
    hamiltonian,
    match_stars,
    matched_distance,
    star_velocities,
)
from . import serialize

__version__ = "1.0.0"

__all__ = [
    "MajoranaError",
    "NonConvergence",
    "DegenerateConstellation",
    "LabelMismatch",
    "SpinLabel",
    "SpinState",
    "StellarPolynomial",
    "Constellation",
    "SpherePoint",
    "INFINITY",
    "is_infinite",
    "spin_matrices",
    "basis_state",
    "coherent_state",
    "noon_state",
    "overlap",
    "rotate",
    "stellar_polynomial",
    "constellation_from_state",
    "constellations_from_states",
    "state_from_constellation",
    "stereo_to_sphere",
    "sphere_to_stereo",
    "chordal_distance",
    "MultipoleSpectrum",
    "QGrid",
    "clebsch_gordan",
    "tensor_operator",
    "multipoles",
    "multipoles_integral",
    "cumulative_quantumness",
    "husimi_q",
    "q_grid",
    "spherical_harmonic",
    "dipole",
    "quadrupole",
    "SearchConfig",
    "KingResult",
    "RestartRecord",
    "objective",
    "minimize",
    "max_unpolarized_order",
    "HamiltonianSpec",
    "StarTrajectory",
    "hamiltonian",
    "builtin_hamiltonian",
    "star_velocities",
    "evolve",
    "evolve_exact",
    "equilibrium_residual",
    "match_stars",
    "matched_distance",
    "serialize",
    "__version__",
]
