"""Region classification and volumes for qubit Pauli maps.

The package classifies Pauli maps by geometric region in eigenvalue
space (positivity, complete positivity, entanglement breaking,
time-local-generator reachability, P- and CP-divisibility), computes
exact rational Hilbert-Schmidt volumes of the polytopal regions,
estimates Hilbert-Schmidt and Fisher-Rao volumes by seeded Monte
Carlo, and evolves eigenvalues under piecewise-constant generator
rates.  The command-line front end lives in :mod:`paulivol.cli`.

numpy is imported inside the functions that build or read an array, so
importing the package, the exact volume and mesh commands, ``classify``
and ``evolve --t`` do not load it.
"""

from .channel import (
    ChoiMatrix,
    EigenvalueTriple,
    ProbabilityVector,
    choi_matrix,
    choi_spectrum,
    lambda_to_p,
    p_to_lambda,
)
from .dynamics import (
    IntegratedRates,
    RateSchedule,
    RateTriple,
    TrajectoryPoint,
    classify_trajectory,
    evolve,
    integrate_rates,
    is_semigroup_reachable,
    rates_for_target,
    schedule_from_json,
)
from .exact_volume import (
    Polytope,
    UnboundedPolytopeError,
    build_polytope,
    enumerate_vertices,
    mesh_document,
    region_volume,
)
from .mc_volume import (
    FR_TOTAL,
    FisherRaoDomainError,
    SamplerConfig,
    VolumeEstimate,
    fr_volume_mc,
    hs_volume_mc,
    ratio_mc,
    region_hit_count,
    sample_region,
)
from .regions import (
    HalfSpace,
    NonPolytopalRegionError,
    RegionExpr,
    RegionId,
    contains,
    halfspace_description,
    is_cp,
    is_cp_divisible,
    is_ebc,
    is_p_divisible,
    is_positive,
    is_tlg,
    region_mask,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EigenvalueTriple",
    "ProbabilityVector",
    "ChoiMatrix",
    "p_to_lambda",
    "lambda_to_p",
    "choi_matrix",
    "choi_spectrum",
    "RegionId",
    "RegionExpr",
    "HalfSpace",
    "NonPolytopalRegionError",
    "is_positive",
    "is_cp",
    "is_ebc",
    "is_tlg",
    "is_p_divisible",
    "is_cp_divisible",
    "contains",
    "region_mask",
    "halfspace_description",
    "UnboundedPolytopeError",
    "Polytope",
    "enumerate_vertices",
    "build_polytope",
    "region_volume",
    "mesh_document",
    "SamplerConfig",
    "VolumeEstimate",
    "FR_TOTAL",
    "FisherRaoDomainError",
    "region_hit_count",
    "hs_volume_mc",
    "ratio_mc",
    "fr_volume_mc",
    "sample_region",
    "RateTriple",
    "RateSchedule",
    "IntegratedRates",
    "TrajectoryPoint",
    "schedule_from_json",
    "integrate_rates",
    "evolve",
    "rates_for_target",
    "is_semigroup_reachable",
    "classify_trajectory",
]
