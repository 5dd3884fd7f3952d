"""Control-flow graphs of structured programs, their loop structure, and
width-3 DAG decompositions, together with the pursuit game that certifies
the width bound.

Pipeline: parse_program -> build_cfg (-> contract) -> partition_edges ->
build_decomposition -> validate_decomposition. The parser and the builder
are iterative, and the builder writes only the vertices reachable from
start, so source is never pruned. A graph given without its source, as CFG
JSON, loads in the builder's sorted, frozen form and takes
compute_dominators (-> prune -> compute_dominators, only when the first
call refuses the graph) -> recover_loop_forest -> contract in place of
the first steps; recovery finds every loop body and exit in one
union-find pass, with no post-dominator tree. Either way the loop forest
carries an owner map (vertex -> innermost loop), the only record of loop
membership; loop_regions merely checks that it covers the graph. The
game module plays the three-cop guard strategy and solves the exact
cop-monotone game on small graphs; the parity module lifts
decompositions to product game graphs.
"""

from .build import build_cfg, cfg_from_source
from .cfg import (
    ControlFlowGraph,
    EdgeKind,
    contract_basic_blocks,
    prune_unreachable,
)
from .decomposition import DagDecomposition, build_decomposition, partition_edges
from .gadgets import two_loop_cfg
from .game import (
    GameTrace,
    IllegalMoveError,
    LazyRobber,
    LoopGuardStrategy,
    OptimalCops,
    OptimalRobber,
    PursuitSolver,
    SearchBudgetError,
    StrategyError,
    brute_force_cop_number,
    check_cop_monotone,
    play_game,
)
from .lang import ParseError, StructuredAst, parse_program
from .loops import (
    DominatorInfo,
    LoopElement,
    LoopForest,
    NotStructuredError,
    assign_owners,
    compute_dominators,
    loop_regions,
    recover_loop_forest,
)
from .parity import FormulaSkeleton, GameGraph, build_product_game, lift_decomposition
from .randprog import generate_random_program
from .validate import ValidationReport, validate_cfg_decomposition, validate_decomposition

__version__ = "0.1.0"

__all__ = [
    "ControlFlowGraph",
    "DagDecomposition",
    "DominatorInfo",
    "EdgeKind",
    "FormulaSkeleton",
    "GameGraph",
    "GameTrace",
    "IllegalMoveError",
    "LazyRobber",
    "LoopElement",
    "LoopForest",
    "LoopGuardStrategy",
    "NotStructuredError",
    "OptimalCops",
    "OptimalRobber",
    "ParseError",
    "PursuitSolver",
    "SearchBudgetError",
    "StrategyError",
    "StructuredAst",
    "ValidationReport",
    "assign_owners",
    "brute_force_cop_number",
    "build_cfg",
    "build_decomposition",
    "build_product_game",
    "cfg_from_source",
    "check_cop_monotone",
    "compute_dominators",
    "contract_basic_blocks",
    "generate_random_program",
    "lift_decomposition",
    "loop_regions",
    "parse_program",
    "partition_edges",
    "play_game",
    "prune_unreachable",
    "recover_loop_forest",
    "two_loop_cfg",
    "validate_cfg_decomposition",
    "validate_decomposition",
]
