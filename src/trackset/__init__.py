"""Minimum tracking sets for shortest s-t paths, DAG s-t paths, and set systems."""

from .dagtrack import (ReducedDag, count_paths, reduce_dag, reduce_rule_2, solve_dag,
                       violating_pair)
from .errors import CapExceeded, CycleError, InternalError
from .graph import Digraph, Graph, VertexRelabeling, bfs_distances, topological_order
from .report import SolveReport
from .setsystem import (SetSystem, solve_masks, solve_set_system, tracking_lower_bound,
                        tracks, violating_sets)
from .shortest import (LayeredGraph, reduce_rule_1, solve_shortest_paths,
                       solve_via_set_system, to_dag)

__all__ = [
    "CapExceeded", "CycleError", "Digraph", "Graph", "InternalError", "LayeredGraph",
    "ReducedDag", "SetSystem", "SolveReport", "VertexRelabeling", "bfs_distances",
    "count_paths", "reduce_dag", "reduce_rule_1", "reduce_rule_2", "solve_dag",
    "solve_masks", "solve_set_system", "solve_shortest_paths", "solve_via_set_system",
    "to_dag", "topological_order", "tracking_lower_bound", "tracks", "violating_pair",
    "violating_sets",
]

__version__ = "0.1.0"
