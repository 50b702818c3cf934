"""Bandwidth approximation for dense graphs.

A library and CLI that approximates the bandwidth of dense graphs with two
randomized pipelines sharing one front end (sampled two-hop dominating
roots, a Hall-pruned search over root-to-box placements, per-vertex box
intervals): an
auxiliary-graph perfect-matching back end and a compressed max-flow back
end whose feasibility instance has size independent of the graph.  An
exact branch-and-bound oracle covers desk-scale instances for
approximation-ratio measurements.
"""

from .boxes import (
    BoxConfig,
    IntervalTable,
    RootPlacement,
    build_intervals,
    enumerate_placements,
    make_box_config,
    root_balls,
    root_distances,
    update_intervals,
)
from .domset import (
    CertificationError,
    RootSet,
    SamplingParams,
    is_dominating,
    k_size,
    kprime_size,
    sample_certified,
    sample_rootset,
)
from .flow import (
    FlowInstance,
    FlowResult,
    IntervalCounts,
    approx_bandwidth_alg2,
    build_flow_instance,
    count_intervals,
    flow_to_layout,
    max_flow,
)
from .graph import (
    DistanceMap,
    Graph,
    GraphParseError,
    bfs_from_set,
    density,
    gen_dense_random,
    hop_balls,
    make_graph,
    min_degree,
    parse_graph,
    serialize_graph,
)
from .matching import (
    AuxGraph,
    Matching,
    approx_bandwidth_alg1,
    approx_bandwidth_baseline,
    build_auxiliary,
    matching_to_layout,
    max_matching,
    normalize_matching,
)
from .oracle import (
    DEFAULT_ORACLE_CAP,
    Layout,
    OracleCapError,
    degree_lower_bound,
    exact_bandwidth,
    format_layout,
    layout_bandwidth,
    parse_layout,
)
from .search import InfeasibleError, SearchStats, run_search

__version__ = "0.1.0"

__all__ = [
    "AuxGraph",
    "BoxConfig",
    "CertificationError",
    "DEFAULT_ORACLE_CAP",
    "DistanceMap",
    "FlowInstance",
    "FlowResult",
    "Graph",
    "GraphParseError",
    "InfeasibleError",
    "IntervalCounts",
    "IntervalTable",
    "Layout",
    "Matching",
    "OracleCapError",
    "RootPlacement",
    "RootSet",
    "SamplingParams",
    "SearchStats",
    "approx_bandwidth_alg1",
    "approx_bandwidth_alg2",
    "approx_bandwidth_baseline",
    "bfs_from_set",
    "build_auxiliary",
    "build_flow_instance",
    "build_intervals",
    "count_intervals",
    "degree_lower_bound",
    "density",
    "enumerate_placements",
    "exact_bandwidth",
    "flow_to_layout",
    "format_layout",
    "gen_dense_random",
    "hop_balls",
    "is_dominating",
    "k_size",
    "kprime_size",
    "layout_bandwidth",
    "make_box_config",
    "make_graph",
    "matching_to_layout",
    "max_flow",
    "max_matching",
    "min_degree",
    "normalize_matching",
    "parse_graph",
    "parse_layout",
    "root_balls",
    "root_distances",
    "run_search",
    "sample_certified",
    "sample_rootset",
    "serialize_graph",
    "update_intervals",
]
