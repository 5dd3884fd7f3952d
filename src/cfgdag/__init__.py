"""Control-flow graphs of structured programs, their loop structure, and
width-3 DAG decompositions, together with the pursuit game that certifies
the width bound.

Pipeline: parse_program -> build_cfg -> prune/contract -> loop_regions ->
partition_edges -> build_decomposition -> validate_decomposition. A graph
given without its source takes prune -> compute_dominators ->
recover_loop_forest -> contract in place of the first steps. Either way the
loop forest carries an owner map, from which loop_regions derives the
regions. The game module plays the three-cop guard strategy and solves the
exact cop-monotone game on small graphs; the parity module lifts
decompositions to product game graphs.
"""

from .build import build_cfg, cfg_from_source
from .cfg import (
    ControlFlowGraph,
    EdgeKind,
    contract_basic_blocks,
    prune_unreachable,
)
from .decomposition import (
    DagDecomposition,
    EdgePartition,
    build_decomposition,
    partition_edges,
)
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
    TraceStep,
    brute_force_cop_number,
    check_cop_monotone,
    cop_monotone_violations,
    exit_distances,
    play_game,
)
from .lang import ParseError, StructuredAst, parse_program
from .loops import (
    BACKWARD,
    FORWARD,
    DominatorInfo,
    LoopElement,
    LoopForest,
    assign_owners,
    classify_edges,
    compute_dominators,
    loop_regions,
    recover_loop_forest,
)
from .parity import FormulaSkeleton, GameGraph, build_product_game, lift_decomposition
from .randprog import generate_random_program
from .validate import (
    ValidationReport,
    check_connectivity,
    check_d3,
    check_edges_covered,
    check_vertices_covered,
    validate_cfg_decomposition,
    validate_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "BACKWARD",
    "FORWARD",
    "ControlFlowGraph",
    "DagDecomposition",
    "DominatorInfo",
    "EdgeKind",
    "EdgePartition",
    "FormulaSkeleton",
    "GameGraph",
    "GameTrace",
    "IllegalMoveError",
    "LazyRobber",
    "LoopElement",
    "LoopForest",
    "LoopGuardStrategy",
    "OptimalCops",
    "OptimalRobber",
    "ParseError",
    "PursuitSolver",
    "SearchBudgetError",
    "StrategyError",
    "StructuredAst",
    "TraceStep",
    "ValidationReport",
    "assign_owners",
    "brute_force_cop_number",
    "build_cfg",
    "build_decomposition",
    "build_product_game",
    "cfg_from_source",
    "check_connectivity",
    "check_cop_monotone",
    "check_d3",
    "check_edges_covered",
    "check_vertices_covered",
    "classify_edges",
    "compute_dominators",
    "contract_basic_blocks",
    "cop_monotone_violations",
    "exit_distances",
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
