"""Cycles and border-collision bifurcations of piecewise-linear maps.

The package analyzes the skew tent map, its (m+1)-dimensional canonical
extension with a linearly driven block, and ReLU networks that reduce to
that form at a switching boundary: closed-form cycles, parameter-plane
classification, chaotic-band regions, simulation cross-checks, and a CLI.
"""

from .cycle_solver import (
    CanonicalSystem,
    CycleSolution,
    branch_affine,
    multipliers,
    solve_cycle,
    solve_symbolic_cycle,
    step,
)
from .errors import (
    ConfigError,
    DegenerateOffsetError,
    DivergenceError,
    EigenvalueOneError,
    NotAdjacentError,
    NotAdmissibleError,
    PwlcyclesError,
    SameRegionError,
    SingularDenominatorError,
    StructureViolationError,
)
from .plrnn import (
    LocalCycleReport,
    LocalizedSystem,
    PLRNNSystem,
    RegionIndex,
    adjacent,
    branch_matrix,
    local_cycle_analysis,
    localize,
    plrnn_step,
    region_of,
    relu_step,
)
from .region_atlas import GridSpec, RegionGrid, curve_samples, nesting_report, scan
from .simulator import (
    DetectedCycle,
    Orbit,
    band_count,
    bifurcation_scan,
    cobweb_data,
    detect_cycle,
    itinerary,
    trajectory,
)
from .skew_tent import (
    BandRegion,
    BandRegionResult,
    ParamClassification,
    SkewTentParams,
    Verdict,
    XCycle,
    chaotic_band_region,
    classify,
    cycle_x_components,
    existence_bound,
    geometric_sum,
    iterate_1d,
    li_yorke_chaos_flag,
    on_bifurcation_curve,
    region_exists,
    region_stable,
)
from .config import parse_config, read_config, config_to_text, write_config

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PwlcyclesError",
    "SingularDenominatorError",
    "NotAdmissibleError",
    "DegenerateOffsetError",
    "EigenvalueOneError",
    "DivergenceError",
    "StructureViolationError",
    "NotAdjacentError",
    "SameRegionError",
    "ConfigError",
    # 1D map
    "SkewTentParams",
    "XCycle",
    "Verdict",
    "BandRegion",
    "BandRegionResult",
    "ParamClassification",
    "geometric_sum",
    "iterate_1d",
    "cycle_x_components",
    "existence_bound",
    "region_exists",
    "on_bifurcation_curve",
    "region_stable",
    "chaotic_band_region",
    "li_yorke_chaos_flag",
    "classify",
    # canonical system
    "CanonicalSystem",
    "CycleSolution",
    "branch_affine",
    "step",
    "multipliers",
    "solve_cycle",
    "solve_symbolic_cycle",
    # simulation
    "Orbit",
    "DetectedCycle",
    "trajectory",
    "detect_cycle",
    "itinerary",
    "band_count",
    "cobweb_data",
    "bifurcation_scan",
    # parameter-plane atlas
    "GridSpec",
    "RegionGrid",
    "scan",
    "curve_samples",
    "nesting_report",
    # networks
    "PLRNNSystem",
    "RegionIndex",
    "LocalizedSystem",
    "LocalCycleReport",
    "region_of",
    "branch_matrix",
    "plrnn_step",
    "relu_step",
    "adjacent",
    "localize",
    "local_cycle_analysis",
    # configs
    "parse_config",
    "read_config",
    "config_to_text",
    "write_config",
]
