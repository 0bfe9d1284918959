"""Packing colorings of generalized coronae of paths and cycles."""

from .closed_form import (
    FamilyQuery,
    construct_coloring,
    family_graph,
    forced_color_lower_bound,
    pcn_closed_form,
)
from .graphs import (
    UNREACHABLE,
    Coloring,
    CoronaLayout,
    DistanceMatrix,
    Graph,
    GraphError,
    OrientedGraph,
    corona,
    cycle,
    distances,
    enumerate_orientations,
    find_corona_conflict,
    generalized_corona,
    orient,
    path,
    sources_and_sinks,
    weak_directed_distances,
)
from .oriented import (
    OrientedClassification,
    ScpConfig,
    classify_oriented_cycle_corona,
    color_oriented_path_corona,
    color_oriented_tree,
    is_pcn_two,
    pcn_oriented_cycle,
    pcn_oriented_path,
    scp,
    scp_endpoint_color,
)
from .patterns import (
    Pattern,
    PatternError,
    apply_pattern,
    compose,
    is_compatible,
    is_valid_pattern,
    parse_pattern,
    render_pattern,
)
from .solver import (
    CountResult,
    Outcome,
    PcnResult,
    SearchBudget,
    SearchResult,
    SearchStats,
    count_packing_k_colorings,
    exists_packing_k_coloring,
    first_packing_conflict,
    is_packing_coloring,
    packing_chromatic_number,
)

__version__ = "0.1.0"
