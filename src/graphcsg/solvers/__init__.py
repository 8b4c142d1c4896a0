"""Solver procedures over graph-restricted games."""

from .base import (BudgetExceededError, InternalInvariantError, SearchStats,
                   SolverResult, TracePoint)
from .contraction import cfss
from .dp import MODES, audit_dp_table, dype, dype_star
from .dptable import DpTable, reconstruct_blocks
from .exhaustive import ORACLE_MAX_N, brute_force_best, structure_masks
from .hybrid import d_tsp
from .treesearch import tsp, tsp_star_step

__all__ = [
    "BudgetExceededError",
    "InternalInvariantError",
    "SearchStats",
    "SolverResult",
    "TracePoint",
    "DpTable",
    "reconstruct_blocks",
    "dype",
    "dype_star",
    "audit_dp_table",
    "tsp",
    "tsp_star_step",
    "d_tsp",
    "cfss",
    "brute_force_best",
    "structure_masks",
    "ORACLE_MAX_N",
    "MODES",
]
