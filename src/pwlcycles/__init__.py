"""Cycles and border-collision bifurcations of piecewise-linear maps.

The package analyzes the skew tent map, its (m+1)-dimensional canonical
extension with a linearly driven block, and ReLU networks that reduce to
that form at a switching boundary: closed-form cycles, parameter-plane
classification, chaotic-band regions, simulation cross-checks, and a CLI.
Each module's __all__ is re-exported here; the package __all__ joins them.
"""

from . import config, cycle_solver, errors, plrnn, region_atlas, simulator, skew_tent
from .config import *
from .cycle_solver import *
from .errors import *
from .plrnn import *
from .region_atlas import *
from .simulator import *
from .skew_tent import *

__version__ = "0.1.0"

_MODULES = (errors, skew_tent, cycle_solver, simulator, region_atlas, plrnn, config)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
