import json

import pytest

from cfgdag import DagDecomposition, two_loop_cfg
from cfgdag.cli import main

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
    assert set(loops[0]) == {"entry", "exit", "parent", "inside", "belongs"}


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


def test_lift_writes_game_and_decomposition(while_file, tmp_path):
    out = tmp_path / "lifted.json"
    game_out = tmp_path / "game.json"
    assert main(["lift", str(while_file), "--m", "2", "--out", str(out),
                 "--game-out", str(game_out)]) == 0
    lifted = DagDecomposition.from_json(out.read_text())
    assert lifted.width() == 6
    game = json.loads(game_out.read_text())
    assert len(game["vertices"]) == 10


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


@pytest.mark.parametrize("contract, calls", [([], 1), (["--contract"], 2)])
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
