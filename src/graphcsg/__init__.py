"""Optimal coalition structures over graphs: every block of the returned
partition must induce a connected subgraph, and the partition maximizes
the sum of block values."""

from .games import (Game, Partition, Value, make_cfss_bound,
                    make_supersub_game, make_tsp_bound, partition_value,
                    random_table_game)
from .graph import DisconnectedGraphError, Graph
from .harness import (VerifyReport, matrix_instance, run_bench,
                      solve_instance, verify_matrix)
from .instances import (InstanceFile, InstanceFormatError, gen_instance,
                        model_edges, parse_instance_text, realize_instance,
                        write_instance)
from .pseudotree import Pseudotree, build_pseudotree
from .solvers import (BudgetExceededError, DpTable, InternalInvariantError,
                      SearchStats, SolverResult, brute_force_best, cfss,
                      d_tsp, dype, dype_star, structure_masks, tsp,
                      tsp_star_step)

__version__ = "0.1.0"

__all__ = [
    "Game",
    "Partition",
    "Value",
    "Graph",
    "DisconnectedGraphError",
    "Pseudotree",
    "build_pseudotree",
    "partition_value",
    "make_supersub_game",
    "random_table_game",
    "make_tsp_bound",
    "make_cfss_bound",
    "DpTable",
    "SolverResult",
    "SearchStats",
    "BudgetExceededError",
    "InternalInvariantError",
    "brute_force_best",
    "structure_masks",
    "dype",
    "dype_star",
    "tsp",
    "tsp_star_step",
    "d_tsp",
    "cfss",
    "InstanceFile",
    "InstanceFormatError",
    "parse_instance_text",
    "realize_instance",
    "write_instance",
    "gen_instance",
    "model_edges",
    "solve_instance",
    "verify_matrix",
    "VerifyReport",
    "matrix_instance",
    "run_bench",
    "__version__",
]
