"""Majorana stellar representation of spin states.

A pure spin-S state is, up to phase, a constellation of 2S stars on the
unit sphere: the roots of its characteristic polynomial under
stereographic projection.  This package converts states to constellations
and back, measures rotational structure through state multipoles and the
cumulative quantumness hierarchy, searches for maximally unpolarized
(king) constellations, and follows the stars, and their equations of
motion, under a Hermitian Hamiltonian.
"""

import os

# No BLAS call here is large enough to thread; a worker's start slows import.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# Each module's __all__ is the one list of its public names.  The lists are
# bound under private names: the function multipoles shadows its module here.
from .errors import *
from .errors import __all__ as _errors
from .stellar import *
from .stellar import __all__ as _stellar
from .multipoles import *
from .multipoles import __all__ as _multipoles
from .kings import *
from .kings import __all__ as _kings
from .dynamics import *
from .dynamics import __all__ as _dynamics
from . import serialize

__version__ = "1.0.0"

__all__ = [*_errors, *_stellar, *_multipoles, *_kings, *_dynamics, "serialize", "__version__"]
