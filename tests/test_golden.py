"""Golden corpus: sha256 digests and exit codes of the CLI on fixed programs.

Every program runs as source and as the CFG JSON that `cfgdag build` writes
for it. A command that raises is recorded with exit code 1 (what the
interpreter returns for an uncaught exception) and its exception message, so
known failures stay pinned until a change fixes them on purpose.

After an intended output change, regenerate the digests with

    python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from cfgdag import ControlFlowGraph, generate_random_program, two_loop_cfg
from cfgdag.cli import main
from helpers import (
    CORNER_CASES,
    DEAD_CFG_JSON,
    IRREDUCIBLE_CFG_JSON,
    START_SELF_LOOP_CFG_JSON,
    UNREACHABLE_STOP_CFG_JSON,
)

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"
SIZES = (10, 12, 16, 25, 40, 60, 100, 150, 220, 300)
SEEDS = (1, 2, 3, 4, 5)
ORACLE_MAX_VERTICES = 15
# Commands that run the exact solver, only on graphs of at most
# ORACLE_MAX_VERTICES vertices.
SOLVER_COMMANDS = ("oracle", "play-optimal")
# A loop that ends in a break after a nested loop: its natural body stops
# before the nested loop, which still nests inside it.
REPRODUCER = "while p { if q { continue; } while r { a; } break; }\n"

# name -> (arguments after the input path, extra output files)
COMMANDS = {
    "build": (["build", "--forest-out", "{forest}"], ["forest"]),
    "decompose": (["decompose"], []),
    "decompose-contract": (["decompose", "--contract"], []),
    "validate": (["validate"], []),
    "play": (["play", "--robber", "lazy"], []),
    "play-optimal": (["play", "--robber", "optimal"], []),
    "lift": (["lift", "--m", "2", "--game-out", "{game}"], ["game"]),
    "lift-m4": (["lift", "--m", "4", "--seed", "3", "--game-out", "{game}"], ["game"]),
    "oracle": (["oracle"], []),
    "export-dot": (["export-dot"], []),
}


def programs() -> dict[str, str | ControlFlowGraph]:
    """Program name -> source text, or the graph of one given only as CFG JSON."""
    out: dict[str, str | ControlFlowGraph] = {
        f"rand-{size}-{seed}": generate_random_program(seed, size)
        for size in SIZES
        for seed in SEEDS
    }
    out["reproducer"] = REPRODUCER
    out.update(CORNER_CASES)
    out["two-loop"] = two_loop_cfg()[0]
    out["irreducible"] = ControlFlowGraph.from_json_dict(IRREDUCIBLE_CFG_JSON)
    # Loaded unpruned, so the CFG JSON route has vertices to drop.
    out["dead-vertices"] = ControlFlowGraph.from_json_dict(DEAD_CFG_JSON)
    out["unreachable-stop"] = ControlFlowGraph.from_json_dict(UNREACHABLE_STOP_CFG_JSON)
    out["start-self-loop"] = ControlFlowGraph.from_json_dict(START_SELF_LOOP_CFG_JSON)
    return out


def _run(command: str, input_path: Path, kind: str, work: Path) -> dict:
    args, extras = COMMANDS[command]
    files = {"out": work / "out", "forest": work / "forest", "game": work / "game"}
    for f in files.values():
        f.unlink(missing_ok=True)
    argv = [args[0], str(input_path), "--kind", kind, "--out", str(files["out"])]
    argv += [a.format(**{k: str(v) for k, v in files.items()}) for a in args[1:]]
    try:
        code = main(argv)
    except Exception as err:  # the record of a failure is its message
        return {"exit": 1, "error": f"{type(err).__name__}: {err}"}
    digest = hashlib.sha256()
    for name in ["out", *extras]:
        digest.update(files[name].read_bytes() if files[name].exists() else b"<missing>")
        digest.update(b"\0")
    return {"exit": code, "sha256": digest.hexdigest()}


def digests(name: str, source: str | ControlFlowGraph) -> dict[str, dict]:
    """'<kind>/<command>' -> result for one program of the corpus."""
    out: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cfg_json = work / "cfg.json"
        if isinstance(source, ControlFlowGraph):
            cfg_json.write_text(source.to_json())
            kinds = ["cfg-json"]
        else:
            (work / "prog.spl").write_text(source)
            assert main(["build", str(work / "prog.spl"), "--out", str(cfg_json)]) == 0
            kinds = ["source", "cfg-json"]
        small = len(json.loads(cfg_json.read_text())["vertices"]) <= ORACLE_MAX_VERTICES
        for kind in kinds:
            input_path = cfg_json if kind == "cfg-json" else work / "prog.spl"
            for command in COMMANDS:
                if command in SOLVER_COMMANDS and not small:
                    continue
                out[f"{kind}/{command}"] = _run(command, input_path, kind, work)
    return out


PROGRAMS = programs()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_cli_outputs_match_golden(name):
    assert digests(name, PROGRAMS[name]) == _golden()[name]


def test_golden_covers_the_corpus():
    assert sorted(_golden()) == sorted(PROGRAMS)


def test_both_routes_write_the_same_bytes():
    """Each command writes from a program's source what it writes from the
    CFG JSON that cfgdag build makes of it."""
    for name, runs in _golden().items():
        for run, result in runs.items():
            kind, command = run.split("/")
            if kind == "source":
                assert result == runs[f"cfg-json/{command}"], (name, command)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    old = _golden() if GOLDEN.exists() else {}
    table = {name: digests(name, source) for name, source in PROGRAMS.items()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} programs to {GOLDEN}")
    for name in sorted(table.keys() | old.keys()):
        new_runs, old_runs = table.get(name, {}), old.get(name, {})
        for run in sorted(new_runs.keys() | old_runs.keys()):
            if new_runs.get(run) != old_runs.get(run):
                print(f"changed {name}/{run}: {old_runs.get(run)} -> {new_runs.get(run)}")
