import contextlib
import functools
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag import (
    ControlFlowGraph,
    DagDecomposition,
    EdgeKind,
    LoopForest,
    assign_owners,
    cfg_from_source,
    compute_dominators,
    generate_random_program,
    prune_unreachable,
    recover_loop_forest,
    two_loop_cfg,
)
from cfgdag._json import dumps
from cfgdag.cli import build_parser, main
from helpers import (
    DEAD_CFG_JSON,
    DEAD_END_CFG_JSON,
    IRREDUCIBLE_CFG_JSON,
    START_SELF_LOOP_CFG_JSON,
    STOP_OUT_EDGE_CFG_JSON,
    UNREACHABLE_STOP_CFG_JSON,
    cfg_from_json_by_add_edge,
    cfg_json_dict,
    dominance_clash,
    owner_regions,
    with_jumps,
)
from test_golden import PROGRAMS
from test_loops import GIVEN_FORESTS_BUILT_INVALID

WHILE_SRC = "while c { b; }\n"


@pytest.fixture
def while_file(tmp_path):
    p = tmp_path / "prog.spl"
    p.write_text(WHILE_SRC)
    return p


def test_build_emits_cfg_json(while_file, tmp_path, capsys):
    out = tmp_path / "cfg.json"
    assert main(["build", str(while_file), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["start"] == 0
    assert {v["label"] for v in data["vertices"]} == {"start", "c", "b", "exit(c)", "stop"}


def test_build_round_trip_byte_identical(while_file, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["build", str(while_file), "--out", str(first)]) == 0
    assert main(["build", str(first), "--kind", "cfg-json", "--out", str(second)]) == 0
    assert first.read_text() == second.read_text()


def test_build_forest_dump(while_file, tmp_path):
    forest_out = tmp_path / "loops.json"
    assert main(["build", str(while_file), "--out", str(tmp_path / "c.json"),
                 "--forest-out", str(forest_out)]) == 0
    loops = json.loads(forest_out.read_text())["loops"]
    assert loops[0]["entry"] == 1 and loops[0]["exit"] == 3
    assert loops[0]["parent"] is None
    assert set(loops[0]) == {"entry", "exit", "parent"}


# Loop r's natural body (r, a, b, c) is larger than its parent p's (p, q),
# and p's is as large as its sibling t's. Each loop is (entry, exit, parent,
# inside, belongs); the forest JSON holds the first three.
NESTED_SRC = "while p { if q { continue; } while r { a; b; c; } while s { d; } break; } while t { e; }"
LOOP_P = (1, 11, None, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [1, 2, 7, 10])
LOOP_R = (3, 7, 0, [3, 4, 5, 6], [3, 4, 5, 6])
LOOP_S = (8, 10, 0, [8, 9], [8, 9])
LOOP_T = (12, 14, None, [12, 13], [12, 13])


def forest_bytes(*loops):
    keys = ("entry", "exit", "parent")
    return dumps({"loops": [dict(zip(keys, loop)) for loop in loops]})


def forest_records(forest):
    """Each loop of the forest in the form of the LOOP_ tuples."""
    index = {elem: i for i, elem in enumerate(forest.elements)}
    regions = owner_regions(forest)
    return [(e.entry, e.exit, index.get(e.parent), sorted(regions[e][1]), sorted(regions[e][0]))
            for e in forest.elements]


def nested_cfg_json(tmp_path):
    prog, graph = tmp_path / "nested.spl", tmp_path / "nested.json"
    prog.write_text(NESTED_SRC)
    assert main(["build", str(prog), "--out", str(graph)]) == 0
    return graph


def test_recovered_forest_lists_each_loop_after_its_parent(tmp_path):
    """Siblings go by entry, and a parent comes before its children, as the
    builder lists them."""
    out, graph = tmp_path / "loops.json", nested_cfg_json(tmp_path)
    assert main(["build", str(graph), "--kind", "cfg-json",
                 "--out", str(tmp_path / "c.json"), "--forest-out", str(out)]) == 0
    assert out.read_text() == forest_bytes(LOOP_P, LOOP_R, LOOP_S, LOOP_T)
    cfg = ControlFlowGraph.from_json(graph.read_text())
    recovered = recover_loop_forest(cfg, compute_dominators(cfg))
    assert forest_records(recovered) == [LOOP_P, LOOP_R, LOOP_S, LOOP_T]


def test_given_forest_is_written_in_preorder(tmp_path):
    """Records need only follow their parent; the written forest lists
    siblings by entry and each loop's descendants right after it. A
    file in the older layout, whose records also list each loop's inside
    and belongs vertices, loads to the same forest and decomposition."""
    graph = nested_cfg_json(tmp_path)
    cfg = ControlFlowGraph.from_json(graph.read_text())
    given = (LOOP_P, LOOP_T, LOOP_S, LOOP_R)
    decompositions = []
    for keys in (("entry", "exit", "parent"), ("entry", "exit", "parent", "inside", "belongs")):
        forest_in, forest_out, decomp = (tmp_path / f"{name}{len(keys)}.json"
                                         for name in ("given", "loops", "decomp"))
        data = {"loops": [dict(zip(keys, loop)) for loop in given]}
        forest_in.write_text(json.dumps(data))
        assert main(["build", str(graph), "--kind", "cfg-json", "--forest", str(forest_in),
                     "--out", str(tmp_path / "c.json"), "--forest-out", str(forest_out)]) == 0
        assert forest_out.read_text() == forest_bytes(LOOP_P, LOOP_R, LOOP_S, LOOP_T)
        loaded = assign_owners(cfg, compute_dominators(cfg), LoopForest.from_json_dict(data))
        assert forest_records(loaded) == [LOOP_P, LOOP_R, LOOP_S, LOOP_T]
        assert main(["decompose", str(graph), "--kind", "cfg-json", "--forest", str(forest_in),
                     "--out", str(decomp)]) == 0
        decompositions.append(decomp.read_bytes())
    assert decompositions[0] == decompositions[1]


def test_decompose_width_three(while_file, tmp_path):
    out = tmp_path / "d.json"
    assert main(["decompose", str(while_file), "--out", str(out)]) == 0
    d = DagDecomposition.from_json(out.read_text())
    assert d.width() == 3


def test_validate_fresh_construction_exits_zero(while_file, tmp_path):
    assert main(["validate", str(while_file), "--out", str(tmp_path / "r.json")]) == 0


def test_validate_corrupted_decomposition_exits_one(while_file, tmp_path):
    djson = tmp_path / "d.json"
    main(["decompose", str(while_file), "--out", str(djson)])
    data = json.loads(djson.read_text())
    data["bags"]["2"] = []  # empty a bag
    djson.write_text(json.dumps(data))
    report_path = tmp_path / "r.json"
    code = main(["validate", str(while_file), "--decomp", str(djson),
                 "--out", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["valid"] is False
    assert report["violations"]


def test_parse_error_exits_three(tmp_path, capsys):
    p = tmp_path / "bad.spl"
    p.write_text("while { b; }")
    assert main(["build", str(p)]) == 3
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["build", str(tmp_path / "absent.spl")]) == 2


NOT_UTF8 = b"\xff\xfe"


@pytest.mark.parametrize("kind", ["source", "cfg-json"])
def test_an_input_file_that_is_not_utf8_exits_two(tmp_path, capsys, kind):
    path = tmp_path / "bad.in"
    path.write_bytes(NOT_UTF8)
    assert main(["decompose", str(path), "--kind", kind]) == 2
    assert capsys.readouterr().err.startswith("i/o error: 'utf-8' codec can't decode byte 0xff")


def test_stdin_that_is_not_utf8_exits_two():
    """stdin is decoded as files are, not in the locale's encoding, which in
    a C locale would turn the bytes into a parse error."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "cfgdag", "decompose", "-"], input=NOT_UTF8,
                          env=env, capture_output=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(b"i/o error: 'utf-8' codec can't decode byte 0xff")


def test_stdin_is_read_as_utf8(monkeypatch, capsys):
    text = "a\u00e9;\n".encode("utf-8")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text), encoding="latin-1"))
    assert main(["build", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"][1]["label"] == "a\u00e9"


# Faults in CFG JSON input, each applied to the JSON of the empty program
# (vertices 0 = start and 1 = stop, one edge 0 -> 1).
BAD_CFG_JSON = [
    (lambda data: data.pop("start"), "missing key 'start'"),
    (lambda data: data["edges"][0].update(kind="sideways"), "'sideways' is not a valid EdgeKind"),
    (lambda data: data["edges"].append({"from": 0, "to": 7, "kind": "out"}),
     "edge (0, 7) references a missing vertex"),
    (lambda data: data["vertices"].append({"id": 0, "label": "again"}), "vertex 0 already exists"),
    (lambda data: data.update(start=9), "start 9 or stop 1 is not a vertex"),
    (lambda data: data["vertices"][0].update(id="a"), "vertex id 'a' is not an integer"),
    (lambda data: data["vertices"][1].update(id=True), "vertex id True is not an integer"),
    (lambda data: data.update(start=False), "start False is not an integer"),
    (lambda data: data.update(stop=1.0), "stop 1.0 is not an integer"),
    (lambda data: data["edges"][0].update({"from": 0.0}), "edge (0.0, 1) has an end that is not an integer"),
    (lambda data: data["edges"][0].update(to=True), "edge (0, True) has an end that is not an integer"),
    (lambda data: data["vertices"][0].update(label=3), "label 3 of vertex 0 is not a string"),
    (lambda data: data["vertices"][1].update(label=None), "label None of vertex 1 is not a string"),
    (lambda data: data["vertices"][0].update(label=["a"]), "label ['a'] of vertex 0 is not a string"),
    (lambda data: data["vertices"][0].update(label={"a": [1, 2]}),
     "label {'a': [1, 2]} of vertex 0 is not a string"),
    (lambda data: data["vertices"][1].update(label="a\ud800"),
     "label of vertex 1 holds the lone surrogate '\\ud800'"),
    # A repeated edge record keeps the first kind, but its own is checked too.
    (lambda data: data["edges"].append({"from": 0, "to": 1, "kind": "bogus"}),
     "'bogus' is not a valid EdgeKind"),
    (lambda data: data["edges"][0].update(kind=["out"]), "kind ['out'] of edge (0, 1) is not a string"),
    (lambda data: data["edges"].append({"from": 1, "to": 0, "kind": "stop"}),
     "return edge (1, 0) does not end at stop 1"),
]


@pytest.mark.parametrize("damage, what", BAD_CFG_JSON)
def test_bad_cfg_json_exits_two_with_what_is_wrong(tmp_path, capsys, damage, what):
    data = cfg_json_dict(cfg_from_source("")[0])
    damage(data)
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(data))
    assert main(["decompose", str(graph_path), "--kind", "cfg-json"]) == 2
    assert capsys.readouterr().err == f"i/o error: bad CFG JSON: {what}\n"


# An id that is not an int but equals one, in the CFG JSON of WHILE_SRC
# (start 0, loop entry 1, body 2, exit 3, stop 4).
@pytest.mark.parametrize("damage, what", [
    (lambda data: data.update(start=True), "start True is not an integer"),
    (lambda data: data["edges"][1].update({"from": 1.0}), "edge (1.0, 2) has an end that is not an integer"),
])
@pytest.mark.parametrize("command", ["build", "validate"])
def test_cfg_json_id_that_only_equals_an_int_exits_two(while_file, tmp_path, capsys, damage, what,
                                                       command):
    graph_path = tmp_path / "g.json"
    assert main(["build", str(while_file), "--out", str(graph_path)]) == 0
    data = json.loads(graph_path.read_text())
    assert data["start"] == 0 and data["edges"][1]["from"] == 1 and data["edges"][1]["to"] == 2
    damage(data)
    graph_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([command, str(graph_path), "--kind", "cfg-json"]) == 2
    assert capsys.readouterr().err == f"i/o error: bad CFG JSON: {what}\n"


# Faults in a --forest file, each applied to the forest JSON of the two-loop
# graph: loop 0 is the outer loop, loops 1 and 2 nest in it.
BAD_FOREST_JSON = [
    (lambda data: data.pop("loops"), "missing key 'loops'"),
    (lambda data: data["loops"][0].pop("entry"), "missing key 'entry'"),
    (lambda data: data["loops"][1].update(parent=2), "loop 1: parent 2 is not an earlier loop"),
    (lambda data: data["loops"][1].update(parent=-1), "loop 1: parent -1 is not an earlier loop"),
    (lambda data: data["loops"][2].update(exit=3), "vertex 3 is the exit of two loop elements"),
    (lambda data: data["loops"][2].update(entry=5), "vertex 5 is the entry of two loop elements"),
    (lambda data: data["loops"][2].update(entry=8), "vertex 8 is both a loop entry and a loop exit"),
    (lambda data: data["loops"][2].update(entry=99), "loop at entry 99: entry 99 is not a vertex of the graph"),
    (lambda data: data["loops"][2].update(exit=99), "loop at entry 9: exit 99 is not a vertex of the graph"),
    (lambda data: data["loops"][2].update(entry="9"), "loop 2: entry '9' or exit 12 is not a vertex id"),
    (lambda data: data["loops"][2].update(exit=12.0), "loop 2: entry 9 or exit 12.0 is not a vertex id"),
    (lambda data: data["loops"][2].update(exit=True), "loop 2: entry 9 or exit True is not a vertex id"),
]


@pytest.mark.parametrize("damage, what", BAD_FOREST_JSON)
def test_bad_forest_json_exits_two_with_what_is_wrong(tmp_path, capsys, damage, what):
    cfg, forest = two_loop_cfg()
    data = forest.to_json_dict()
    damage(data)
    graph_path, forest_path = tmp_path / "g.json", tmp_path / "loops.json"
    graph_path.write_text(cfg.to_json())
    forest_path.write_text(json.dumps(data))
    assert main(["decompose", str(graph_path), "--kind", "cfg-json", "--forest", str(forest_path)]) == 2
    assert capsys.readouterr().err == f"i/o error: bad loop forest JSON: {what}\n"


# Faults in a --decomp file, each applied to the decomposition of WHILE_SRC
# (nodes 0-4; bag 2 holds vertices 1, 2 and 3).
BAD_DECOMP_JSON = [
    (lambda data: data.pop("bags"), "missing key 'bags'"),
    (lambda data: data["arcs"].append([0, 99]), "arc [0, 99] references a missing node"),
    (lambda data: data["bags"].pop("2"), "node 2 has no bag"),
    (lambda data: data["nodes"].append(data["nodes"][0]), "node 0 is listed twice"),
    (lambda data: data["bags"].update({"0": ["a", 0]}), "bag 0 holds 'a', which is not an integer"),
    (lambda data: data["bags"]["2"].append(True), "bag 2 holds True, which is not an integer"),
    (lambda data: data.update(nodes=[float(n) for n in data["nodes"]]), "node id 0.0 is not an integer"),
    (lambda data: data["arcs"][0].__setitem__(0, False), "arc [False, 3] has an end that is not an integer"),
    *((lambda data, key=key: data["bags"].update({key: [0, 1, 2]}),
       f"bag key {key!r} does not spell a node id exactly") for key in ["01", " 1", "+1", "1_0"]),
]


@pytest.mark.parametrize("damage, what", BAD_DECOMP_JSON)
def test_bad_decomposition_json_exits_two_with_what_is_wrong(while_file, tmp_path, capsys,
                                                             damage, what):
    djson = tmp_path / "d.json"
    assert main(["decompose", str(while_file), "--out", str(djson)]) == 0
    data = json.loads(djson.read_text())
    damage(data)
    djson.write_text(json.dumps(data))
    assert main(["validate", str(while_file), "--decomp", str(djson)]) == 2
    assert capsys.readouterr().err == f"i/o error: bad decomposition JSON: {what}\n"


@pytest.mark.parametrize("argv, what", [
    (["lift", "--m", "0"], "argument --m: expected an integer >= 1, got '0'"),
    (["lift", "--m", "-1"], "argument --m: expected an integer >= 1, got '-1'"),
    (["oracle", "--k-max", "0"], "argument --k-max: expected an integer >= 1, got '0'"),
    (["play", "--max-rounds", "-3"], "argument --max-rounds: expected an integer >= 1, got '-3'"),
    (["play", "--max-rounds", "0"], "argument --max-rounds: expected an integer >= 1, got '0'"),
    (["oracle", "--k-max", "two"], "argument --k-max: expected an integer >= 1, got 'two'"),
])
def test_out_of_range_argument_exits_two(while_file, capsys, argv, what):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(while_file), *argv[1:]])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"cfgdag {argv[0]}: error: {what}\n")


def test_forest_with_a_source_input_exits_two(while_file, tmp_path, capsys):
    for path in [str(tmp_path / "missing.json"), ""]:  # an empty path counts as given
        with pytest.raises(SystemExit) as exc:
            main(["decompose", str(while_file), "--forest", path])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "cfgdag: error: argument --forest: applies only to --kind cfg-json\n")


def test_two_loops_at_one_entry_exit_two(tmp_path, capsys):
    """On 0->1, 1->2, 2->1, 1->3, 3->4 a loop at entry 1 with no exit,
    nested in the loop (1, 3), would yield a decomposition that validate
    rejects; no structured program has two loops at one entry."""
    graph_path, forest_path = tmp_path / "g.json", tmp_path / "loops.json"
    graph_path.write_text(json.dumps({
        "vertices": [{"id": v, "label": label} for v, label in enumerate(["start", "a", "b", "c", "stop"])],
        "edges": [{"from": u, "to": v, "kind": "out"} for u, v in [(0, 1), (1, 2), (2, 1), (1, 3), (3, 4)]],
        "start": 0,
        "stop": 4,
    }))
    forest_path.write_text('{"loops": [{"entry": 1, "exit": 3, "parent": null}, '
                           '{"entry": 1, "exit": null, "parent": 0}]}')
    assert main(["decompose", str(graph_path), "--kind", "cfg-json", "--forest", str(forest_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "i/o error: bad loop forest JSON: vertex 1 is the entry of two loop elements\n"


# An empty path names no file: each option that takes one exits 2 on it.
@pytest.mark.parametrize("argv", [
    ["validate", "--decomp", ""],
    ["decompose", "--kind", "cfg-json", "--forest", ""],
    ["build", "--forest-out", ""],
    ["lift", "--game-out", ""],
])
def test_empty_path_exits_two(while_file, tmp_path, capsys, argv):
    graph = tmp_path / "g.json"
    assert main(["build", str(while_file), "--out", str(graph)]) == 0
    given = graph if "cfg-json" in argv else while_file
    assert main([argv[0], str(given), *argv[1:]]) == 2
    assert capsys.readouterr().err == "i/o error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize("argv", [
    ["build", "--forest-out"],
    ["lift", "--m", "3", "--game-out"],
])
def test_a_second_output_that_cannot_be_opened_leaves_no_first(while_file, tmp_path, capsys, argv):
    """Every output path is opened before any text is written, and none is
    truncated before all are open: when the second cannot be opened, the
    command exits 2, removes the --out file it created, leaves one that was
    there as it was, and writes nothing to stdout. An --out that cannot be
    truncated, such as /dev/null, is written as before, and an existing
    --out longer than the output ends up holding what stdout gets."""
    out, bad = tmp_path / "x.json", tmp_path / "nodir" / "f.json"
    error = f"i/o error: [Errno 2] No such file or directory: '{bad}'\n"
    assert main([argv[0], str(while_file), "--out", str(out), *argv[1:], str(bad)]) == 2
    assert not out.exists()
    assert capsys.readouterr() == ("", error)
    assert main([argv[0], str(while_file), *argv[1:], str(bad)]) == 2
    assert capsys.readouterr() == ("", error)
    assert list(tmp_path.iterdir()) == [while_file]
    out.write_text("kept")
    assert main([argv[0], str(while_file), "--out", str(out), *argv[1:], str(bad)]) == 2
    assert out.read_text() == "kept"
    assert capsys.readouterr() == ("", error)
    assert main([argv[0], str(while_file), "--out", os.devnull, *argv[1:], str(tmp_path / "f.json")]) == 0
    out.write_text("kept" * 10_000)
    assert main([argv[0], str(while_file), "--out", str(out), *argv[1:], str(tmp_path / "f.json")]) == 0
    assert main([argv[0], str(while_file), *argv[1:], str(tmp_path / "f.json")]) == 0
    written = capsys.readouterr().out.encode()
    assert len(written) < 40_000
    assert out.read_bytes() == written


def test_play_start_that_is_not_a_vertex_exits_two(while_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["play", str(while_file), "--start", "99"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "cfgdag: error: argument --start: 99 is not a vertex of the CFG\n")


def test_play_reference_pursuit(tmp_path):
    cfg, forest = two_loop_cfg()
    graph_path = tmp_path / "g.json"
    forest_path = tmp_path / "loops.json"
    graph_path.write_text(cfg.to_json())
    forest_path.write_text(json.dumps(forest.to_json_dict()))
    out = tmp_path / "trace.json"
    code = main(["play", str(graph_path), "--kind", "cfg-json",
                 "--forest", str(forest_path), "--start", "0",
                 "--tie", "high", "--out", str(out)])
    assert code == 0
    trace = json.loads(out.read_text())
    assert trace["outcome"] == "CopsWin"
    assert [s["robber"] for s in trace["steps"]] == [0, 1, 1, 2, 9, 9, 10, 11, 11]
    assert [s["note"] for s in trace["steps"]] == ["1", "2a", "2b", "5", "2a", "2b", "5", "2a", "2a"]


def test_play_recovers_forest_when_not_given(tmp_path):
    cfg, _ = two_loop_cfg()
    graph_path = tmp_path / "g.json"
    graph_path.write_text(cfg.to_json())
    out = tmp_path / "trace.json"
    code = main(["play", str(graph_path), "--kind", "cfg-json", "--start", "0",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["outcome"] == "CopsWin"


def test_oracle_on_fixture(tmp_path, capsys):
    cfg, _ = two_loop_cfg()
    graph_path = tmp_path / "g.json"
    graph_path.write_text(cfg.to_json())
    assert main(["oracle", str(graph_path), "--kind", "cfg-json"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_oracle_past_its_cop_limit_exits_five(tmp_path, capsys):
    cfg, _ = two_loop_cfg()  # cop number 3
    graph_path = tmp_path / "g.json"
    graph_path.write_text(cfg.to_json())
    assert main(["oracle", str(graph_path), "--kind", "cfg-json", "--k-max", "2"]) == 5
    assert capsys.readouterr() == ("", "search limit: no cop-monotone win with up to 2 cops\n")


def test_oracle_with_one_cop_on_a_loop_exits_five_without_a_search(while_file, capsys, monkeypatch):
    import cfgdag.game as game

    monkeypatch.setattr(game, "PursuitSolver", None)
    assert main(["oracle", str(while_file), "--k-max", "1"]) == 5
    assert capsys.readouterr() == ("", "search limit: no cop-monotone win with up to 1 cops\n")


def test_oracle_with_one_cop_on_a_dag_prints_one_without_a_search(tmp_path, capsys, monkeypatch):
    import cfgdag.game as game

    monkeypatch.setattr(game, "PursuitSolver", None)
    src = tmp_path / "dag.spl"
    src.write_text("a; if c { b; } else { return; } d;\n")
    assert main(["oracle", str(src), "--k-max", "1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_optimal_robber_past_its_state_budget_exits_five(tmp_path, capsys, monkeypatch):
    import cfgdag.game as game

    monkeypatch.setattr(game, "PursuitSolver", functools.partial(game.PursuitSolver, max_states=5))
    cfg, _ = two_loop_cfg()
    graph_path = tmp_path / "g.json"
    graph_path.write_text(cfg.to_json())
    assert main(["play", str(graph_path), "--kind", "cfg-json", "--robber", "optimal"]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err == "search limit: memo exceeded 5 (cops, robber region) states at k=3\n"


def test_lift_writes_game_and_decomposition(while_file, tmp_path):
    out = tmp_path / "lifted.json"
    game_out = tmp_path / "game.json"
    assert main(["lift", str(while_file), "--m", "2", "--out", str(out),
                 "--game-out", str(game_out)]) == 0
    lifted = DagDecomposition.from_json(out.read_text())
    assert lifted.width() == 6
    game = json.loads(game_out.read_text())
    assert len(game["vertices"]) == 10


def test_parser_is_built_once_and_keeps_no_values_between_calls(while_file, tmp_path):
    assert build_parser() is build_parser()
    out = {name: tmp_path / name for name in ("m3", "plain", "m2")}
    assert main(["lift", str(while_file), "--m", "3", "--game-out", str(out["m3"])]) == 0
    assert main(["lift", str(while_file), "--game-out", str(out["plain"])]) == 0
    assert main(["lift", str(while_file), "--m", "2", "--game-out", str(out["m2"])]) == 0
    assert json.loads(out["m3"].read_text())["m"] == 3
    assert out["plain"].read_bytes() == out["m2"].read_bytes()


def test_export_dot_cfg(while_file, capsys):
    assert main(["export-dot", str(while_file)]) == 0
    dot = capsys.readouterr().out
    assert "digraph" in dot
    assert "style=dashed" in dot  # the loop edge


def test_export_dot_decomposition(while_file, capsys):
    assert main(["export-dot", str(while_file), "--what", "decomposition"]) == 0
    assert "digraph decomposition" in capsys.readouterr().out


def test_play_lazy_on_source(while_file, tmp_path):
    out = tmp_path / "t.json"
    assert main(["play", str(while_file), "--robber", "lazy", "--start", "2",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["outcome"] == "CopsWin"


def test_stdout_default(while_file, capsys):
    assert main(["decompose", str(while_file)]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("contract, calls", [([], 1), (["--contract"], 1)])
def test_cfg_json_load_computes_dominators_once_per_graph(while_file, tmp_path, monkeypatch,
                                                           contract, calls):
    import cfgdag.cli as cli

    graph_path = tmp_path / "g.json"
    assert main(["build", str(while_file), "--out", str(graph_path)]) == 0
    seen = []
    real = cli.compute_dominators
    monkeypatch.setattr(cli, "compute_dominators", lambda cfg: seen.append(cfg) or real(cfg))
    assert main(["validate", str(graph_path), "--kind", "cfg-json", *contract,
                 "--out", str(tmp_path / "r.json")]) == 0
    assert len(seen) == calls


@pytest.mark.parametrize("kind", ["source", "cfg-json"])
def test_load_walks_reachability_once(while_file, tmp_path, monkeypatch, kind):
    import cfgdag.cfg as cfg_module

    graph_path = tmp_path / "g.json"
    assert main(["build", str(while_file), "--out", str(graph_path)]) == 0
    walks = []
    real = cfg_module.reachable
    monkeypatch.setattr(cfg_module, "reachable", lambda *a: walks.append(a[1]) or real(*a))
    path = while_file if kind == "source" else graph_path
    assert main(["validate", str(path), "--kind", kind, "--out", str(tmp_path / "r.json")]) == 0
    # The source path builds the pruned graph and never walks it; the CFG
    # JSON path learns from the dominator DFS that nothing is dead.
    assert walks == []


def counting_prunes(monkeypatch) -> list:
    """The graphs cli._load hands to prune_unreachable from now on."""
    import cfgdag.cli as cli

    prunes = []
    real = cli.prune_unreachable
    monkeypatch.setattr(cli, "prune_unreachable", lambda cfg: prunes.append(cfg) or real(cfg))
    return prunes


def test_cfg_json_route_prunes_only_a_graph_with_dead_vertices(while_file, tmp_path, monkeypatch):
    built, dead = tmp_path / "g.json", tmp_path / "dead.json"
    assert main(["build", str(while_file), "--out", str(built)]) == 0
    dead.write_text(json.dumps(DEAD_CFG_JSON))
    prunes = counting_prunes(monkeypatch)
    for path, rebuilds in [(built, 0), (dead, 1)]:
        prunes.clear()
        assert main(["validate", str(path), "--kind", "cfg-json", "--out", str(tmp_path / "r.json")]) == 0
        assert len(prunes) == rebuilds


class _Loaded(Exception):
    """Stops the CLI once its CFG JSON route has the graph."""


def load_as_the_cli_does(text: str) -> tuple[ControlFlowGraph, int, int]:
    """The graph that cli._load's CFG JSON route hands to recover_loop_forest,
    and how many prune_unreachable and compute_dominators calls it took."""
    import cfgdag.cli as cli

    def stop_at_recovery(cfg, dom):
        seen.append(cfg)
        raise _Loaded

    seen: list = []
    doms: list = []
    dominators = cli.compute_dominators
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "g.json"
        path.write_text(text)
        prunes = counting_prunes(mp)
        mp.setattr(cli, "compute_dominators", lambda cfg: doms.append(cfg) or dominators(cfg))
        mp.setattr(cli, "recover_loop_forest", stop_at_recovery)
        with pytest.raises(_Loaded):
            main(["build", str(path), "--kind", "cfg-json"])
    return seen[0], len(prunes), len(doms)


def fields(cfg) -> tuple:
    """Everything a graph holds, in order, each edge kind by identity."""
    return (list(cfg.labels.items()), list(cfg._succ.items()), list(cfg._pred.items()),
            [(e, k, type(k)) for e, k in cfg._kind.items()], cfg._next_id, cfg.start, cfg.stop)


KINDS = [k.value for k in EdgeKind]


@st.composite
def cfg_json_data(draw) -> dict:
    """CFG JSON with records in any order and edge records repeated with any
    kind, a return edge always ending at stop. Either a small digraph with
    ids anywhere and start and stop drawn from them, so dead vertices, dead
    cycles and an unreachable stop with out-edges come up, or a built
    program with dead vertices put beside it."""
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(-5, 30), min_size=1, max_size=9, unique=True))
        ends = st.sampled_from(ids)
        edges = draw(st.lists(st.tuples(ends, ends, st.sampled_from(KINDS)), max_size=20))
        data = {"vertices": [{"id": v, "label": f"v{v}"} for v in ids], "edges": [],
                "start": draw(ends), "stop": draw(ends)}
    else:
        data = cfg_json_dict(cfg_from_source(
            generate_random_program(draw(st.integers(0, 10**6)), draw(st.integers(1, 40))))[0])
        live = [v["id"] for v in data["vertices"]]
        dead = [-1 - i for i in range(draw(st.integers(0, 3)))]
        data["vertices"] += [{"id": v, "label": f"dead{v}"} for v in dead]
        pairs = st.tuples(st.sampled_from(dead), st.sampled_from(dead + live), st.sampled_from(KINDS))
        edges = draw(st.lists(pairs, max_size=6)) if dead else []
    data["edges"] += [{"from": u, "to": data["stop"] if k == "stop" else v, "kind": k}
                      for u, v, k in edges]
    if data["edges"]:
        again = draw(st.lists(st.tuples(st.sampled_from(data["edges"]), st.sampled_from(KINDS)),
                              max_size=4))
        data["edges"] += [{**rec, "kind": k} for rec, k in again
                          if k != "stop" or rec["to"] == data["stop"]]
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(data["vertices"])
    rng.shuffle(data["edges"])
    return data


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cfg_json_data())
@example(DEAD_CFG_JSON)
@example(UNREACHABLE_STOP_CFG_JSON)  # its dead stop has an out-edge: one prune
@example(cfg_json_dict(two_loop_cfg()[0]))
# stop 2 is dead with no out-edges, as pruning leaves it: no prune
@example({"vertices": [{"id": v, "label": f"v{v}"} for v in range(3)],
          "edges": [{"from": 0, "to": 1, "kind": "out"}, {"from": 1, "to": 0, "kind": "out"}],
          "start": 0, "stop": 2})
def test_cfg_json_route_equals_the_record_by_record_loader_and_prune(data):
    """The route prunes, and computes dominators a second time, only when
    start misses a vertex other than a stop with no out-edges."""
    text = json.dumps(data)
    got, prunes, dominator_calls = load_as_the_cli_does(text)
    assert fields(got) == fields(prune_unreachable(cfg_from_json_by_add_edge(data)))
    loaded = ControlFlowGraph.from_json(text)
    missed = loaded.labels.keys() - loaded.reachable_from(loaded.start)
    dead = bool(missed) and (missed != {loaded.stop} or bool(loaded.successors(loaded.stop)))
    assert (prunes, dominator_calls) == (dead, 1 + dead)
    if not dead:  # so the route may skip the prune
        assert fields(prune_unreachable(loaded)) == fields(loaded) == fields(got)


def test_export_dot_cfg_json_reuses_the_loaded_dominators(while_file, tmp_path, monkeypatch):
    import cfgdag.cli as cli

    graph_path = tmp_path / "g.json"
    assert main(["build", str(while_file), "--out", str(graph_path)]) == 0
    seen = []
    real = cli.compute_dominators
    monkeypatch.setattr(cli, "compute_dominators", lambda cfg: seen.append(cfg) or real(cfg))
    assert main(["export-dot", str(graph_path), "--kind", "cfg-json",
                 "--out", str(tmp_path / "g.dot")]) == 0
    assert len(seen) == 1
    seen.clear()
    assert main(["export-dot", str(while_file), "--out", str(tmp_path / "s.dot")]) == 0
    assert seen == []  # the source route computes no dominators


def run_quietly(argv: list[str]) -> tuple[int, str]:
    """main's exit code and stderr, its stdout thrown away."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cfg_json_data())
@example(IRREDUCIBLE_CFG_JSON)
def test_export_dot_exits_as_decompose_does(data):
    """export-dot in both modes gives decompose's exit code and stderr, and
    exits 4 wherever the owner map's backward edges disagree with dominance."""
    text = json.dumps(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(text)
        outcomes = [run_quietly([*argv, str(path), "--kind", "cfg-json"])
                    for argv in (["decompose"], ["export-dot"],
                                 ["export-dot", "--what", "decomposition"])]
    assert outcomes[1] == outcomes[2] == outcomes[0]
    cfg = ControlFlowGraph.from_json(text)
    try:
        dom = compute_dominators(cfg)
    except ValueError:  # dead vertices, which the CLI prunes first
        cfg = prune_unreachable(cfg)
        dom = compute_dominators(cfg)
    if dominance_clash(cfg, recover_loop_forest(cfg, dom), dom) is not None:
        assert outcomes[0][0] == 4


# Loops that close with a break after a nested loop: the natural body of the
# outer loop ends before the inner loop, so nesting by natural body put the
# inner loop outside the outer one.
BREAK_AFTER_INNER_LOOP = [
    "while p { if q { continue; } while r { a; } break; }\n",
    "do { if q { continue; } while r { a; } break; } while p;\n",
]


# Inputs of the two-route test: each break-after-inner-loop source on its
# own, then the random and with_jumps draws. Each comes with the number of
# programs on which the routes differ. Those are the programs where a loop
# never reaches stop without a return edge, and recovery still picks an exit.
ROUTE_INPUTS = {
    **{source: (lambda source=source: [source], 0) for source in BREAK_AFTER_INNER_LOOP},
    "random": (lambda: [generate_random_program(seed, 200) for seed in range(200)], 0),
    "with-jumps": (lambda: [with_jumps(random.Random(i)) for i in range(3000)], 61),
}


def _route_outputs(source: str, work: Path) -> list[bytes]:
    """What decompose and build --forest-out write, from source and then
    from the CFG JSON that build makes of it."""
    prog, graph, out = work / "prog.spl", work / "g.json", work / "out"
    prog.write_text(source)
    assert main(["build", str(prog), "--out", str(graph)]) == 0
    written = []
    for path, kind in ((prog, "source"), (graph, "cfg-json")):
        for argv in (["decompose", "--out", str(out)],
                     ["build", "--out", str(work / "cfg"), "--forest-out", str(out)]):
            assert main([argv[0], str(path), "--kind", kind, *argv[1:]]) == 0
            written.append(out.read_bytes())
    return written


@pytest.mark.parametrize("inputs", list(ROUTE_INPUTS))
def test_cfg_json_decomposition_equals_the_source_one(inputs, tmp_path):
    """decompose and build --forest-out write the same bytes from a program
    and from its CFG JSON, but on the pinned number of programs."""
    sources, differ = ROUTE_INPUTS[inputs]
    outputs = (_route_outputs(source, tmp_path) for source in sources())
    assert sum(written[:2] != written[2:] for written in outputs) == differ


@pytest.mark.parametrize("contract", [[], ["--contract"]])
def test_a_given_forest_decomposes_as_the_source_does(tmp_path, contract):
    """decompose of the CFG JSON and forest that build --forest-out writes,
    with the forest given, writes the bytes that decompose of the source
    does, with and without --contract: on the golden corpus sources and 300
    with_jumps programs."""
    prog, graph, forest, out = (tmp_path / name for name in ("prog.spl", "g.json", "f.json", "d.json"))
    sources = [s for s in PROGRAMS.values() if isinstance(s, str)]
    differ = []
    for source in [*sources, *(with_jumps(random.Random(i)) for i in range(300))]:
        prog.write_text(source)
        assert main(["build", str(prog), "--out", str(graph), "--forest-out", str(forest)]) == 0
        assert main(["decompose", str(prog), "--out", str(out), *contract]) == 0
        want = out.read_bytes()
        assert main(["decompose", str(graph), "--kind", "cfg-json", "--forest", str(forest),
                     "--out", str(out), *contract]) == 0
        if out.read_bytes() != want:
            differ.append(source)
    assert differ == []


def test_forest_file_nested_against_dominance_is_rejected(tmp_path, capsys):
    cfg, _ = two_loop_cfg()
    forest = LoopForest()
    outer = forest.new_element()
    outer.entry, outer.exit = 1, 3
    left = forest.new_element(outer)
    left.entry, left.exit = 5, 8
    right = forest.new_element(left)  # the loop open at 9 is outer, not left
    right.entry, right.exit = 9, 12
    graph_path, forest_path = tmp_path / "g.json", tmp_path / "loops.json"
    graph_path.write_text(cfg.to_json())
    forest_path.write_text(forest.to_json())
    assert main(["decompose", str(graph_path), "--kind", "cfg-json", "--forest", str(forest_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "i/o error: bad loop forest JSON: loop at entry 9 is nested under")


README_FOREST_SRC = "do { a2; a3; a4; } while c1; if c5 { a6; a7; } a8;"
INVALID_DECOMPOSITION = "i/o error: bad loop forest JSON: its decomposition is invalid: "


def _given_forest_run(tmp_path, command, cfg, loops) -> int:
    """The exit code of command on cfg's CFG JSON with loops as --forest."""
    graph, forest = tmp_path / "g.json", tmp_path / "f.json"
    graph.write_text(cfg.to_json())
    forest.write_text(json.dumps({"loops": loops}))
    return main([command, str(graph), "--kind", "cfg-json", "--forest", str(forest),
                 "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", ["decompose", "lift", "export-dot"])
def test_forest_whose_decomposition_is_invalid_exits_two(tmp_path, capsys, command):
    """A --forest that assign_owners accepts but whose decomposition does not
    validate exits 2 with its first violation: the README example, whose loop
    at entry 1 should exit at 5, and the forests pinned in test_loops."""
    cfg, _ = cfg_from_source(README_FOREST_SRC)
    assert _given_forest_run(tmp_path, command, cfg, [{"entry": 1, "exit": 8, "parent": None}]) == 2
    assert capsys.readouterr() == ("", INVALID_DECOMPOSITION + "edges_covered_3b [8, 9, 1, 2]\n")
    for seed, loops in GIVEN_FORESTS_BUILT_INVALID:
        cfg, _ = cfg_from_source(generate_random_program(seed, 8))
        assert _given_forest_run(tmp_path, command, cfg, loops) == 2, (seed, loops)
        assert capsys.readouterr().err.startswith(INVALID_DECOMPOSITION)


def test_mutated_builder_forests_are_refused_or_decompose_validly(tmp_path, capsys):
    """300 builder forests of 12-statement programs, each with one loop's
    exit redrawn: decompose, lift and export-dot each exit 2 or 4, all with
    the same code, or decompose writes a decomposition that validate
    accepts."""
    rng = random.Random(41)
    codes = []
    seed = 0
    while len(codes) < 300:
        seed += 1
        cfg, forest = cfg_from_source(generate_random_program(seed, 12))
        loops = forest.to_json_dict()["loops"]
        if not loops:
            continue
        rng.choice(loops)["exit"] = rng.choice([*cfg.labels, None])
        code = _given_forest_run(tmp_path, "decompose", cfg, loops)
        err = capsys.readouterr().err
        if code == 0:
            assert main(["validate", str(tmp_path / "g.json"), "--kind", "cfg-json",
                         "--decomp", str(tmp_path / "out"), "--out", os.devnull]) == 0, (seed, loops)
        for command in ("lift", "export-dot"):
            assert _given_forest_run(tmp_path, command, cfg, loops) == code, (seed, loops, command)
        assert code in (0, 2, 4), (seed, loops, err)
        codes.append((code, err.startswith(INVALID_DECOMPOSITION)))
    assert (2, True) in codes  # some of them pass assign_owners and decompose invalidly


@pytest.mark.parametrize("argv", [["decompose"], ["validate"], ["export-dot"]])
def test_irreducible_cfg_json_exits_four(tmp_path, capsys, argv):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(IRREDUCIBLE_CFG_JSON))
    assert main([argv[0], str(graph_path), "--kind", "cfg-json", *argv[1:]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "not structured: decomposition arcs contain a cycle\n"


def test_an_edge_into_start_exits_four(tmp_path, capsys):
    """No structured program has an edge into start; every command says so."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(START_SELF_LOOP_CFG_JSON))
    for command in ("build", "decompose", "validate", "play", "oracle", "lift", "export-dot"):
        assert main([command, str(graph), "--kind", "cfg-json"]) == 4
        assert capsys.readouterr() == ("", "not structured: edge 0->0 enters start\n")


@pytest.mark.parametrize("data, what", [(STOP_OUT_EDGE_CFG_JSON, "edge 3->1 leaves stop"),
                                        (DEAD_END_CFG_JSON, "vertex 3 has no out-edge")])
def test_an_edge_out_of_stop_or_a_dead_end_exits_four(tmp_path, capsys, data, what):
    """No structured program has an edge out of stop, or a vertex other than
    stop with no out-edge; every command says so."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(data))
    for command in ("build", "decompose", "validate", "play", "oracle", "lift", "export-dot"):
        assert main([command, str(graph), "--kind", "cfg-json"]) == 4
        assert capsys.readouterr() == ("", f"not structured: {what}\n")


def random_digraph_json(rng) -> dict:
    """CFG JSON of n = 2-8 vertices and 1-2n out edges with both ends drawn
    uniformly (a repeat kept once), start 0 and stop n - 1."""
    n = rng.randint(2, 8)
    edges = dict.fromkeys((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 2 * n)))
    return {"vertices": [{"id": v, "label": f"v{v}"} for v in range(n)],
            "edges": [{"from": u, "to": v, "kind": "out"} for u, v in edges],
            "start": 0, "stop": n - 1}


def test_random_digraphs_that_decompose_validate(tmp_path):
    """The first 5,000 random digraphs of random.Random(1): none decomposes
    with exit 0 and then fails validate --decomp. Draws 563, 1059, 2378,
    2949, 3428 and 4808 are graphs with an edge out of stop or a dead end."""
    rng = random.Random(1)
    graph, decomp = tmp_path / "g.json", tmp_path / "d.json"
    failed = []
    for i in range(5000):
        graph.write_text(json.dumps(random_digraph_json(rng)))
        if run_quietly(["decompose", str(graph), "--kind", "cfg-json", "--out", str(decomp)])[0] == 0:
            if run_quietly(["validate", str(graph), "--kind", "cfg-json", "--decomp", str(decomp)])[0] != 0:
                failed.append(i)
    assert failed == []


# The loop at a, held by the loop at p, and that outer loop both leave for
# stop alone, so recovery gives both the exit stop: no structured program
# has such a graph.
SHARED_EXIT_CFG_JSON = {
    "vertices": [{"id": v, "label": label} for v, label in enumerate(["start", "p", "a", "stop"])],
    "edges": [{"from": u, "to": v, "kind": k} for u, v, k in [(0, 1, "out"), (1, 2, "out"), (2, 2, "out"),
                                                               (2, 1, "entry"), (2, 3, "out")]],
    "start": 0,
    "stop": 3,
}


@pytest.mark.parametrize("command", ["decompose", "validate", "export-dot"])
def test_two_recovered_loops_with_one_exit_exit_four(tmp_path, capsys, command):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(SHARED_EXIT_CFG_JSON))
    assert main([command, str(graph_path), "--kind", "cfg-json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "not structured: vertex 3 is the exit of two loop elements\n"


def test_a_given_loop_that_no_edge_closes_exits_two(tmp_path, capsys):
    """No vertex of the loop at start has an edge into start."""
    graph, forest = tmp_path / "g.json", tmp_path / "loops.json"
    graph.write_text(json.dumps({
        "vertices": [{"id": v, "label": f"v{v}"} for v in range(8)],
        "edges": [{"from": u, "to": v, "kind": "out"}
                  for u, v in [(0, 1), (1, 2), (2, 3), (3, 2), (2, 4), (4, 5), (5, 6), (6, 7)]],
        "start": 0,
        "stop": 7,
    }))
    forest.write_text('{"loops": [{"entry": 0, "exit": 3, "parent": null}]}')
    for command in ("decompose", "validate"):
        assert main([command, str(graph), "--kind", "cfg-json", "--forest", str(forest)]) == 2
        assert capsys.readouterr() == (
            "", "i/o error: bad loop forest JSON: no edge closes the loop at entry 0\n")


def test_play_with_a_forest_that_loses_the_robber_exits_four(tmp_path, capsys):
    """decompose and validate reject this forest as not structured; play
    fails the same way instead of with a traceback from the strategy."""
    prog, graph, forest = tmp_path / "p.spl", tmp_path / "g.json", tmp_path / "loops.json"
    prog.write_text("x; while c { a; if d { break; } do { b; } while e; } y;")
    assert main(["build", str(prog), "--out", str(graph)]) == 0
    forest.write_text('{"loops": [{"entry": 5, "exit": 4, "parent": null}]}')
    for command in ("decompose", "validate", "play"):
        assert main([command, str(graph), "--kind", "cfg-json", "--forest", str(forest)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("not structured: ")
    assert captured.err == "not structured: robber at 2 escaped the current loop\n"


def test_python_m_cfgdag_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "cfgdag", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: cfgdag" in done.stdout


DEPTH = 10**4
DEEP = {
    "while": "while c { " * DEPTH + "a;" + " }" * DEPTH,
    "do": "do { " * DEPTH + "a;" + " } while c;" * DEPTH,
    "if": "if c { " * DEPTH + "a;" + " }" * DEPTH,
    # No loop entry reaches stop without the return edge.
    "return": "while c { " * DEPTH + "a;" + " }" * DEPTH + " return;",
}


@pytest.mark.parametrize("shape", list(DEEP))
def test_deep_nesting_decomposes_and_validates_from_source(tmp_path, shape):
    """No stage of the source path recurses: 10^4 nested statements run at
    the default recursion limit."""
    assert sys.getrecursionlimit() < DEPTH
    prog = tmp_path / "deep.spl"
    prog.write_text(DEEP[shape])
    for command in ("decompose", "validate"):
        assert main([command, str(prog), "--out", str(tmp_path / "out.json")]) == 0
    assert json.loads((tmp_path / "out.json").read_text())["valid"] is True


@pytest.mark.parametrize("shape", ["while", "do", "return"])
def test_deep_nesting_decomposes_and_validates_from_cfg_json(tmp_path, shape):
    """Loop recovery collapses each finished loop into its head, so the CFG
    JSON of 10^4 nested loops runs at the default recursion limit and gives
    the decomposition of the source route byte for byte. In the shape that
    ends in a return, each exit is live because it lies in the body of the
    loop around it, not because it reaches stop."""
    assert sys.getrecursionlimit() < DEPTH
    prog, graph = tmp_path / "deep.spl", tmp_path / "deep.json"
    prog.write_text(DEEP[shape])
    assert main(["build", str(prog), "--out", str(graph)]) == 0
    direct, recovered = tmp_path / "d1.json", tmp_path / "d2.json"
    assert main(["decompose", str(prog), "--out", str(direct)]) == 0
    assert main(["decompose", str(graph), "--kind", "cfg-json", "--out", str(recovered)]) == 0
    assert recovered.read_bytes() == direct.read_bytes()
    assert main(["validate", str(graph), "--kind", "cfg-json", "--out", str(tmp_path / "v.json")]) == 0
    assert json.loads((tmp_path / "v.json").read_text())["valid"] is True


def test_deep_forest_json_is_linear_and_loads_back(tmp_path):
    """build --forest-out writes one short record per loop, at most 128
    bytes each for 10^4 nested while loops. Given back with the CFG JSON,
    the file gives the builder's entries, exits, parents and owner map, and
    the decomposition of the source route byte for byte."""
    prog, graph, forest_path = tmp_path / "deep.spl", tmp_path / "deep.json", tmp_path / "loops.json"
    prog.write_text(DEEP["while"])
    assert main(["build", str(prog), "--out", str(graph), "--forest-out", str(forest_path)]) == 0
    assert forest_path.stat().st_size <= 128 * DEPTH
    _, built = cfg_from_source(DEEP["while"])
    cfg = ControlFlowGraph.from_json(graph.read_text())
    data = json.loads(forest_path.read_text())
    loaded = assign_owners(cfg, compute_dominators(cfg), LoopForest.from_json_dict(data))
    assert len(loaded.elements) == DEPTH
    assert loaded.to_json_dict() == built.to_json_dict()
    assert {v: e.entry for v, e in loaded.owner.items()} == {v: e.entry for v, e in built.owner.items()}
    direct, given = tmp_path / "d1.json", tmp_path / "d2.json"
    assert main(["decompose", str(prog), "--out", str(direct)]) == 0
    assert main(["decompose", str(graph), "--kind", "cfg-json", "--forest", str(forest_path),
                 "--out", str(given)]) == 0
    assert given.read_bytes() == direct.read_bytes()


# -- the cyclic collector ---------------------------------------------------


@pytest.mark.parametrize("argv", [["decompose"], ["lift", "--m", "4"]])
def test_a_command_runs_without_a_collection(tmp_path, argv):
    prog = tmp_path / "prog.spl"
    prog.write_text(generate_random_program(7, 10**3))
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(count)
    try:
        assert main([argv[0], str(prog), *argv[1:], "--out", str(tmp_path / "out.json")]) == 0
    finally:
        gc.callbacks.remove(count)
    assert collections == []


@pytest.fixture
def exit_path_inputs(while_file, tmp_path):
    """The directory of the inputs that take main down each of its exit paths."""
    decomp = tmp_path / "damaged.json"
    assert main(["decompose", str(while_file), "--out", str(decomp)]) == 0
    data = json.loads(decomp.read_text())
    data["bags"]["2"] = []
    decomp.write_text(json.dumps(data))
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "bad.spl").write_text("while { b; }")
    (tmp_path / "irreducible.json").write_text(json.dumps(IRREDUCIBLE_CFG_JSON))
    return tmp_path


EXIT_PATHS = {
    "exit 0": (["decompose", "{d}/prog.spl"], 0),
    "exit 1": (["validate", "{d}/prog.spl", "--decomp", "{d}/damaged.json"], 1),
    "exit 2": (["decompose", "{d}/bad.json", "--kind", "cfg-json"], 2),
    "exit 3": (["decompose", "{d}/bad.spl"], 3),
    "exit 4": (["decompose", "{d}/irreducible.json", "--kind", "cfg-json"], 4),
    "exit 5": (["oracle", "{d}/prog.spl", "--k-max", "1"], 5),
    "argparse": (["decompose", "{d}/prog.spl", "--kind", "binary"], SystemExit),
    "parser.error": (["play", "{d}/prog.spl", "--start", "99"], SystemExit),
    "uncaught": (["decompose", "{d}/prog.spl"], RuntimeError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("argv, outcome", EXIT_PATHS.values(), ids=list(EXIT_PATHS))
def test_main_leaves_the_collector_as_the_caller_had_it(exit_path_inputs, capsys, monkeypatch,
                                                        argv, outcome, enabled):
    argv = [arg.format(d=exit_path_inputs) for arg in argv]
    if outcome is RuntimeError:  # no input raises what main does not map, so inject it
        import cfgdag.cli as cli

        def fault(*args):
            raise RuntimeError("injected")
        monkeypatch.setattr(cli, "build_decomposition", fault)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
