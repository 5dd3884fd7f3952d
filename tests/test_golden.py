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

from cfgdag import generate_random_program, two_loop_cfg
from cfgdag.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"
SIZES = (10, 12, 16, 25, 40, 60, 100, 150, 220, 300)
SEEDS = (1, 2, 3, 4, 5)
ORACLE_MAX_VERTICES = 15
# Smallest known program whose CFG JSON fails loop-forest recovery.
REPRODUCER = "while p { if q { continue; } while r { a; } break; }\n"

# name -> (arguments after the input path, extra output files)
COMMANDS = {
    "build": (["build", "--forest-out", "{forest}"], ["forest"]),
    "decompose": (["decompose"], []),
    "decompose-contract": (["decompose", "--contract"], []),
    "validate-d3": (["validate", "--d3"], []),
    "play": (["play", "--robber", "lazy"], []),
    "lift": (["lift", "--m", "2", "--game-out", "{game}"], ["game"]),
    "oracle": (["oracle"], []),
}


def programs() -> dict[str, str | None]:
    """Program name -> source text, or None for a graph given only as CFG JSON."""
    out: dict[str, str | None] = {
        f"rand-{size}-{seed}": generate_random_program(seed, size)
        for size in SIZES
        for seed in SEEDS
    }
    out["reproducer"] = REPRODUCER
    out["two-loop"] = None
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


def digests(name: str, source: str | None) -> dict[str, dict]:
    """'<kind>/<command>' -> result for one program of the corpus."""
    out: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cfg_json = work / "cfg.json"
        if source is None:
            cfg, _ = two_loop_cfg()
            cfg_json.write_text(cfg.to_json())
            kinds = ["cfg-json"]
        else:
            (work / "prog.spl").write_text(source)
            assert main(["build", str(work / "prog.spl"), "--out", str(cfg_json)]) == 0
            kinds = ["source", "cfg-json"]
        small = len(json.loads(cfg_json.read_text())["vertices"]) <= ORACLE_MAX_VERTICES
        for kind in kinds:
            input_path = cfg_json if kind == "cfg-json" else work / "prog.spl"
            for command in COMMANDS:
                if command == "oracle" and not small:
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {name: digests(name, source) for name, source in PROGRAMS.items()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} programs to {GOLDEN}")
