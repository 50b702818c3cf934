"""Bandwidth approximation for dense graphs.

A library and CLI that approximates the bandwidth of dense graphs with two
randomized pipelines sharing one front end (sampled two-hop dominating
roots, a Hall-pruned search over root-to-box placements, per-vertex box
intervals): an
auxiliary-graph perfect-matching back end and a compressed max-flow back
end whose feasibility instance has size independent of the graph.  An
exact branch-and-bound oracle covers desk-scale instances for
approximation-ratio measurements.

The package root holds the user API; the pipeline's internals (sampling,
boxes and intervals, the search, the flow and matching back ends) are
imported from their own modules.
"""

from .domset import CertificationError, SamplingParams
from .flow import approx_bandwidth_alg2
from .graph import (
    Graph,
    GraphParseError,
    density,
    gen_dense_random,
    make_graph,
    min_degree,
    parse_graph,
    serialize_graph,
)
from .matching import approx_bandwidth_alg1, approx_bandwidth_baseline
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
from .search import InfeasibleError, SearchStats

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "DEFAULT_ORACLE_CAP",
    "Graph",
    "GraphParseError",
    "InfeasibleError",
    "Layout",
    "OracleCapError",
    "SamplingParams",
    "SearchStats",
    "approx_bandwidth_alg1",
    "approx_bandwidth_alg2",
    "approx_bandwidth_baseline",
    "degree_lower_bound",
    "density",
    "exact_bandwidth",
    "format_layout",
    "gen_dense_random",
    "layout_bandwidth",
    "make_graph",
    "min_degree",
    "parse_graph",
    "parse_layout",
    "serialize_graph",
]
