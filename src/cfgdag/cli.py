"""Command-line front end: build, decompose, validate, play, oracle, lift, export-dot.

Inputs are either mini-language source (default, or --kind source) or a CFG
JSON file (--kind cfg-json). Exit codes: 0 success, 1 validation failure,
2 i/o error (an input that is not UTF-8, and bad JSON and bad CFG, loop
forest or decomposition JSON included, as is a --forest whose decomposition
is invalid, or cyclic where that of the recovered forest is not) or a bad
argument, 3 parse error, 4 a graph that no structured program has (or, for
play, a --forest under which the guard strategy loses the robber), 5 an
exact search that hit its limit (oracle's --k-max or the solver's state
budget).

Each command runs with the cyclic garbage collector paused. Reference
counting frees almost everything a command allocates, and collector passes
over the graphs it keeps alive would otherwise grow faster than the input.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

from .build import cfg_from_source
from .cfg import CfgJsonError, ControlFlowGraph, contract_basic_blocks, prune_unreachable
from .decomposition import DagDecomposition, DecompositionJsonError, build_decomposition, partition_edges
from .game import (
    LazyRobber,
    LoopGuardStrategy,
    OptimalRobber,
    SearchBudgetError,
    StrategyError,
    brute_force_cop_number,
    play_game,
)
from .lang import ParseError
from .loops import (
    LoopForest,
    LoopForestJsonError,
    NotStructuredError,
    assign_owners,
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
    """The UTF-8 text of a file or of stdin, whatever the locale's encoding."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(*outputs) -> None:
    """Write each (path, make) pair's text ("-" is stdout, None no output):
    make(write) sends the text to write, whole or in pieces, so a make that
    sends pieces never holds its whole text. Every path is opened, for
    appending, before any file is truncated or any text made; if one cannot
    be, the files this call created are removed and the others keep their
    bytes. If a make or a write fails, the files this call created are
    removed too, and a file that was there holds what had been written to it."""
    outputs = [(path, make) for path, make in outputs if path is not None]
    streams, created = [], []
    try:
        for path, _ in outputs:
            new = path != "-" and not os.path.lexists(path)
            streams.append((sys.stdout if path == "-" else open(path, "a", encoding="utf-8"), new))
            if new:
                created.append(path)
        for (fh, new), (path, make) in zip(streams, outputs):
            # A file this call created is empty; ftruncate fails on /dev/null or a FIFO.
            if not new and fh is not sys.stdout and os.path.isfile(path):
                fh.truncate(0)
            make(fh.write)
        created = []  # all written: keep every file
    finally:
        for fh, _ in streams:
            if fh is not sys.stdout:
                fh.close()
        for path in created:
            os.remove(path)


def _load(args) -> tuple[ControlFlowGraph, LoopForest]:
    """The graph and its loop forest with the owner map checked."""
    if args.forest is not None and args.kind != "cfg-json":
        build_parser().error("argument --forest: applies only to --kind cfg-json")
    text = _read(args.input)
    if args.kind == "cfg-json":
        cfg = ControlFlowGraph.from_json(text)
        # The loaded graph is already in pruned form unless something is
        # dead, which the dominator DFS finds: it reaches the same vertices.
        # A dead stop with no out-edges is what pruning leaves anyway.
        try:
            dom = compute_dominators(cfg)
        except ValueError:  # a vertex other than such a stop is dead
            cfg = prune_unreachable(cfg)
            dom = compute_dominators(cfg)
        if args.forest is not None:
            forest = assign_owners(cfg, dom, LoopForest.from_json_dict(json.loads(_read(args.forest))))
        else:
            forest = recover_loop_forest(cfg, dom)
        succ, start, stop = cfg.successors, cfg.start, cfg.stop
        if cfg.predecessors(start):
            raise NotStructuredError(f"edge {cfg.predecessors(start)[0]}->{start} enters start")
        if succ(stop):
            raise NotStructuredError(f"edge {stop}->{succ(stop)[0]} leaves stop")
        dead_end = next((v for v in cfg.labels if not succ(v) and v != stop), None)
        if dead_end is not None:
            raise NotStructuredError(f"vertex {dead_end} has no out-edge")
    else:
        cfg, forest = cfg_from_source(text)
    if args.contract:
        # Contraction keeps start, stop and every loop entry and exit, so
        # each element survives; only the absorbed vertices lose their owners.
        cfg = contract_basic_blocks(cfg, forest)
        forest.owner = {v: forest.owner[v] for v in cfg.labels}
    loop_regions(cfg, forest)
    return cfg, forest


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="input path, or - for stdin")
    p.add_argument("--kind", choices=["source", "cfg-json"], default="source")
    p.add_argument("--forest", help="loop forest JSON (for cfg-json inputs)")
    p.add_argument("--contract", action="store_true", help="contract basic blocks")
    p.add_argument("--out", default="-", help="output path (default stdout)")


@functools.cache  # parse_args leaves the parser as it was
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

    p = sub.add_parser("play", help="run a pursuit and emit the trace JSON")
    _add_input_args(p)
    p.add_argument("--robber", choices=["lazy", "optimal"], default="lazy")
    p.add_argument("--start", type=int, help="robber start vertex")
    p.add_argument("--tie", choices=["low", "high"], default="low")
    p.add_argument("--max-rounds", type=_positive_int, default=None)

    p = sub.add_parser("oracle", help="print the exact cop number (small graphs)")
    _add_input_args(p)
    p.add_argument("--k-max", type=_positive_int, default=4)

    p = sub.add_parser("lift", help="product game and lifted decomposition")
    _add_input_args(p)
    p.add_argument("--m", type=_positive_int, default=2, help="formula skeleton size")
    p.add_argument("--seed", type=int, default=0, help="seed of the owner and priority draws")
    p.add_argument("--game-out", help="also dump the product game JSON here")

    p = sub.add_parser("export-dot", help="DOT output for the CFG or decomposition")
    _add_input_args(p)
    p.add_argument("--what", choices=["cfg", "decomposition"], default="cfg")
    return ap


def _decompose(args, cfg: ControlFlowGraph, forest: LoopForest) -> DagDecomposition:
    """build_decomposition. Under a given forest, arcs with a cycle are the
    forest's fault when the forest recovered from the same graph decomposes."""
    try:
        return build_decomposition(cfg, forest)
    except NotStructuredError as err:
        if args.forest is None:
            raise
        try:
            build_decomposition(cfg, recover_loop_forest(cfg, compute_dominators(cfg)))
        except NotStructuredError:
            raise err from None
        raise LoopForestJsonError("its decomposition arcs contain a cycle, "
                                  "but those of the graph's recovered loop forest do not") from None


def run(args) -> int:
    cfg, forest = _load(args)

    if args.command == "build":
        _write((args.out, cfg.to_json), (args.forest_out, lambda write: write(forest.to_json())))
        return 0

    if args.command in ("decompose", "lift", "export-dot"):
        decomp = _decompose(args, cfg, forest)
        if args.forest is not None:  # a given forest can pass assign_owners and decompose invalidly
            report = validate_cfg_decomposition(decomp, cfg)
            if not report.valid:
                kind, witness = report.violations[0]
                raise LoopForestJsonError(f"its decomposition is invalid: {kind} {list(witness)}")

    if args.command == "decompose":
        _write((args.out, decomp.to_json))
        return 0

    if args.command == "validate":
        if args.decomp is not None:
            decomp = DagDecomposition.from_json(_read(args.decomp))
        else:
            decomp = _decompose(args, cfg, forest)
        report = validate_cfg_decomposition(decomp, cfg)
        _write((args.out, lambda write: write(report.to_json())))
        return 0 if report.valid else 1

    if args.command == "play":
        if args.start is not None and args.start not in cfg.labels:
            build_parser().error(f"argument --start: {args.start} is not a vertex of the CFG")
        strategy = LoopGuardStrategy(cfg, forest)
        if args.robber == "lazy":
            robber = LazyRobber(cfg, start=args.start, tie=args.tie)
        else:
            robber = OptimalRobber(cfg, k=3)
        trace = play_game(cfg, strategy, robber,
                          robber_start=args.start, max_rounds=args.max_rounds)
        _write((args.out, lambda write: write(trace.to_json())))
        return 0

    if args.command == "oracle":
        number = brute_force_cop_number(cfg, k_max=args.k_max)
        _write((args.out, lambda write: write(f"{number}\n")))
        return 0

    if args.command == "lift":
        skeleton = FormulaSkeleton.chain(args.m)
        game = build_product_game(cfg, skeleton, seed=args.seed)
        lifted = lift_decomposition(decomp, game)
        _write((args.out, lifted.to_json), (args.game_out, game.to_json))
        return 0

    if args.command == "export-dot":
        if args.what == "cfg":
            backward = set(partition_edges(cfg, forest).backward)
            _write((args.out, lambda write: write(cfg.to_dot(backward=backward))))
        else:
            _write((args.out, lambda write: write(decomp.to_dot())))
        return 0

    raise AssertionError(f"unhandled command {args.command}")


# Each fault a command may raise: (exception types, exit code, message
# prefix). The first row that matches the fault wins.
_FAULTS = (
    (ParseError, 3, "parse error: "),
    ((OSError, UnicodeDecodeError), 2, "i/o error: "),
    (json.JSONDecodeError, 2, "i/o error: bad JSON: "),
    (CfgJsonError, 2, "i/o error: bad CFG JSON: "),
    (LoopForestJsonError, 2, "i/o error: bad loop forest JSON: "),
    (DecompositionJsonError, 2, "i/o error: bad decomposition JSON: "),
    ((NotStructuredError, StrategyError), 4, "not structured: "),
    (SearchBudgetError, 5, "search limit: "),
)


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        # Building the parser allocates enough to start a collection.
        return run(build_parser().parse_args(argv))
    except Exception as err:
        for types, code, prefix in _FAULTS:
            if isinstance(err, types):
                print(f"{prefix}{err}", file=sys.stderr)
                return code
        raise
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
