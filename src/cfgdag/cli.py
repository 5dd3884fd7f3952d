"""Command-line front end: build, decompose, validate, play, oracle, lift, export-dot.

Inputs are either mini-language source (default, or --kind source) or a CFG
JSON file (--kind cfg-json). Exit codes: 0 success, 1 validation failure,
2 i/o error, 3 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .build import cfg_from_source
from .cfg import ControlFlowGraph, contract_basic_blocks, prune_unreachable
from .decomposition import DagDecomposition, build_decomposition
from .game import (
    LazyRobber,
    LoopGuardStrategy,
    OptimalRobber,
    brute_force_cop_number,
    play_game,
)
from .lang import ParseError
from .loops import (
    LoopForest,
    classify_edges,
    compute_dominators,
    loop_regions,
    recover_loop_forest,
)
from .parity import FormulaSkeleton, build_product_game, lift_decomposition
from .validate import validate_cfg_decomposition

GRAMMAR_HELP = """\
input grammar (.spl): statements end with ';', blocks use braces,
comments run '//' to end of line.
  stmt := IDENT ';' | 'if' IDENT block ['else' block]
        | 'while' (IDENT|INT) block | 'do' block 'while' (IDENT|INT) ';'
        | 'break' ';' | 'continue' ';' | 'return' ';'
"""


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(args) -> tuple[ControlFlowGraph, LoopForest]:
    text = _read(args.input)
    if args.kind == "cfg-json":
        cfg = ControlFlowGraph.from_json(text)
        cfg = prune_unreachable(cfg)
        dom = None
        if getattr(args, "forest", None):
            forest = LoopForest.from_json_dict(json.loads(_read(args.forest)))
            forest = forest.restricted_to(cfg)
        else:
            dom = compute_dominators(cfg)
            forest = recover_loop_forest(cfg, dom)
        if getattr(args, "contract", False):
            cfg = contract_basic_blocks(cfg, forest)
            forest = forest.restricted_to(cfg)
            dom = None  # contraction changed the graph
        if dom is None:
            dom = compute_dominators(cfg)
        loop_regions(cfg, forest, dom)
    else:
        cfg, forest = cfg_from_source(text, contract=getattr(args, "contract", False))
        loop_regions(cfg, forest)
    return cfg, forest


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="input path, or - for stdin")
    p.add_argument("--kind", choices=["source", "cfg-json"], default="source")
    p.add_argument("--forest", help="loop forest JSON (for cfg-json inputs)")
    p.add_argument("--contract", action="store_true", help="contract basic blocks")
    p.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cfgdag",
        description="Control-flow graphs, loop analysis, width-3 DAG decompositions, and pursuit games.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="parse and emit the CFG as JSON")
    _add_input_args(p)
    p.add_argument("--forest-out", help="also dump the loop forest JSON here")

    p = sub.add_parser("decompose", help="emit the DAG decomposition as JSON")
    _add_input_args(p)

    p = sub.add_parser("validate", help="check a decomposition; exit 0 iff valid")
    _add_input_args(p)
    p.add_argument("--decomp", help="decomposition JSON (default: construct fresh)")
    p.add_argument("--d3", action="store_true", help="also evaluate the guarding form")

    p = sub.add_parser("play", help="run a pursuit and emit the trace JSON")
    _add_input_args(p)
    p.add_argument("--robber", choices=["lazy", "optimal"], default="lazy")
    p.add_argument("--start", type=int, help="robber start vertex")
    p.add_argument("--tie", choices=["low", "high"], default="low")
    p.add_argument("--max-rounds", type=int, default=None)

    p = sub.add_parser("oracle", help="print the exact cop number (small graphs)")
    _add_input_args(p)
    p.add_argument("--k-max", type=int, default=4)

    p = sub.add_parser("lift", help="product game and lifted decomposition")
    _add_input_args(p)
    p.add_argument("--m", type=int, default=2, help="formula skeleton size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--game-out", help="also dump the product game JSON here")

    p = sub.add_parser("export-dot", help="DOT output for the CFG or decomposition")
    _add_input_args(p)
    p.add_argument("--what", choices=["cfg", "decomposition"], default="cfg")
    return ap


def run(args) -> int:
    cfg, forest = _load(args)

    if args.command == "build":
        _write(args.out, cfg.to_json())
        if args.forest_out:
            _write(args.forest_out, json.dumps(forest.to_json_dict(), indent=2) + "\n")
        return 0

    if args.command == "decompose":
        decomp = build_decomposition(cfg, forest)
        _write(args.out, decomp.to_json())
        return 0

    if args.command == "validate":
        if args.decomp:
            decomp = DagDecomposition.from_json(_read(args.decomp))
        else:
            decomp = build_decomposition(cfg, forest)
        report = validate_cfg_decomposition(decomp, cfg, with_d3=args.d3)
        _write(args.out, report.to_json())
        return 0 if report.valid else 1

    if args.command == "play":
        strategy = LoopGuardStrategy(cfg, forest)
        if args.robber == "lazy":
            robber = LazyRobber(cfg, start=args.start, tie=args.tie)
        else:
            robber = OptimalRobber(cfg, k=3)
        trace = play_game(cfg, strategy, robber,
                          robber_start=args.start, max_rounds=args.max_rounds)
        _write(args.out, trace.to_json())
        return 0

    if args.command == "oracle":
        number = brute_force_cop_number(cfg, k_max=args.k_max)
        _write(args.out, f"{number}\n")
        return 0

    if args.command == "lift":
        skeleton = FormulaSkeleton.chain(args.m)
        game = build_product_game(cfg, skeleton, seed=args.seed)
        decomp = build_decomposition(cfg, forest)
        lifted = lift_decomposition(decomp, game)
        _write(args.out, lifted.to_json())
        if args.game_out:
            _write(args.game_out, game.to_json())
        return 0

    if args.command == "export-dot":
        if args.what == "cfg":
            dom = compute_dominators(cfg)
            classes = classify_edges(cfg, forest, dom)
            backward = {e for e, c in classes.items() if c == "backward"}
            _write(args.out, cfg.to_dot(backward=backward))
        else:
            _write(args.out, build_decomposition(cfg, forest).to_dot())
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"i/o error: bad JSON: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
