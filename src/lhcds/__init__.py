"""Exact top-k locally h-clique densest subgraph discovery.

A locally densest subgraph is a connected vertex set whose h-clique density
is matched by its own compactness (removing any j vertices kills at least
density * j cliques) and that is maximal with that property. The library
finds the top-k such sets exactly via iterative propose-prune-and-verify:
clique cores bound each vertex's compact number (for patterns other than
the 4-clique, an approximate convex weight distribution tightens the
bounds), pruning discards hopeless vertices, and an exact
rational max-flow verification gates every emission. A pattern variant
swaps h-cliques for any of six 4-vertex patterns, and a brute-force oracle
provides ground truth on tiny graphs.
"""

from .cliques import (Bounds, CliqueSet, clique_core_numbers, enumerate_cliques,
                      initialize_bounds, restrict_cliques)
from .flow import (CutResult, FlowNetwork, build_network, derive_compact,
                   is_densest, min_cut, verify_basic, verify_fast)
from .graph import (Graph, VertexSet, connected_components, induced_subgraph,
                    parse_edge_list)
from .oracle import (compact_numbers, compactness, oracle_compact_numbers,
                     oracle_compactness, oracle_lhcds)
from .patterns import PATTERN_NAMES, enumerate_patterns, pattern_density
from .pipeline import (PipelineConfig, ResultRecord, RoundEvent, RunStats,
                       ippv, ippv_pattern)
from .proposal import Partition, derive_stable_groups, tentative_decomposition
from .pruning import prune
from .weights import WeightState, init_weights, objective, run_iterations

__version__ = "0.1.0"

__all__ = [
    "Bounds", "CliqueSet", "CutResult", "FlowNetwork", "Graph", "PATTERN_NAMES",
    "Partition", "PipelineConfig", "ResultRecord", "RoundEvent", "RunStats",
    "VertexSet", "WeightState", "build_network", "clique_core_numbers",
    "compact_numbers", "compactness", "connected_components", "derive_compact",
    "derive_stable_groups", "enumerate_cliques", "enumerate_patterns",
    "induced_subgraph", "init_weights", "initialize_bounds",
    "ippv", "ippv_pattern", "is_densest", "min_cut", "objective",
    "oracle_compact_numbers", "oracle_compactness", "oracle_lhcds",
    "parse_edge_list", "pattern_density", "prune", "restrict_cliques",
    "run_iterations", "tentative_decomposition", "verify_basic", "verify_fast",
]
