"""Exact engine for finite groupoids."""

from .groupoid import (
    FiniteGroupoid,
    GroupoidFormatError,
    action_groupoid,
    cyclic_group_table,
    disjoint_union,
    from_json,
    group_groupoid,
    orbit_index,
    orbits,
    pair_groupoid,
    restrict_full_subgroupoid,
    unit_groupoid,
    validate,
)
from .calculus import (
    HaarWeight,
    average_function,
    coinvariants,
    coinvariants_dimension,
    convolve,
    counting_haar,
    is_orbit_constant,
    is_trace,
    s_shriek,
    t_shriek,
    transverse_measure_cone,
    unit_trace,
)
from .homology import (
    HomologyReport,
    boundary_columns,
    boundary_matrix,
    face,
    homology,
    nerve,
    nerve_sizes,
)

__all__ = [
    "FiniteGroupoid", "GroupoidFormatError", "action_groupoid",
    "cyclic_group_table", "disjoint_union", "from_json", "group_groupoid",
    "orbit_index", "orbits", "pair_groupoid", "restrict_full_subgroupoid",
    "unit_groupoid", "validate",
    "HaarWeight", "average_function", "coinvariants", "coinvariants_dimension",
    "convolve",
    "counting_haar", "is_orbit_constant", "is_trace",
    "s_shriek", "t_shriek", "transverse_measure_cone", "unit_trace",
    "HomologyReport", "boundary_columns", "boundary_matrix", "face", "homology", "nerve",
    "nerve_sizes",
]
