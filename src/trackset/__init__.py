"""Minimum tracking sets for shortest s-t paths, DAG s-t paths, and set systems."""

from .dagtrack import (PathCount, ReducedDag, count_paths, reduce_dag, reduce_rule_2,
                       solve_dag, verify_tracking_condition, violating_pair)
from .errors import CapExceeded, CycleError, InternalError, NoPathError
from .graph import Digraph, Graph, VertexRelabeling, bfs_distances, topological_order
from .report import SolveReport
from .setsystem import (HittingInstance, SetSystem, reduce_to_hitting, solve_hitting,
                        solve_masks, solve_set_system, solve_tracking_set,
                        tracking_lower_bound, tracks, violating_sets)
from .shortest import (LayeredGraph, reduce_rule_1, solve_shortest_paths,
                       solve_via_set_system, to_dag, to_set_system)

__all__ = [
    "CapExceeded", "CycleError", "Digraph", "Graph", "HittingInstance",
    "InternalError", "LayeredGraph", "NoPathError", "PathCount", "ReducedDag",
    "SetSystem", "SolveReport", "VertexRelabeling", "bfs_distances", "count_paths",
    "reduce_dag", "reduce_rule_1", "reduce_rule_2", "reduce_to_hitting",
    "solve_dag", "solve_hitting", "solve_masks", "solve_set_system",
    "solve_shortest_paths", "solve_tracking_set", "solve_via_set_system", "to_dag",
    "to_set_system", "topological_order", "tracking_lower_bound", "tracks",
    "verify_tracking_condition", "violating_pair", "violating_sets",
]

__version__ = "0.1.0"
