"""The traced benchmark run wraps cfgdag names through perfbench/spans.py.

A renamed or removed name drops its span and counters from every traced
run, so these tests load that file as it is and check that it still finds
and measures what it wraps.
"""

import importlib.util
from pathlib import Path

from cfgdag import generate_random_program
from cfgdag.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_name_it_wraps():
    assert load_spans().Tracer().missing == []


def test_a_traced_decompose_records_graph_and_decomposition_sizes(tmp_path):
    tracer = load_spans().Tracer()
    source = tmp_path / "prog.spl"
    source.write_text(generate_random_program(1, 30))
    tracer.install()
    try:
        code = tracer.run_op(0, main, ["decompose", str(source), "--out", str(tmp_path / "d.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    counts = tracer.counts[0]
    assert counts["cfg.vertices"] > 0 and counts["decomposition.arcs"] > 0


def test_a_traced_source_decompose_times_every_front_end_layer(tmp_path):
    """cfg_from_source reaches parse_program and build_cfg through their
    module attributes, where the tracer wraps them."""
    tracer = load_spans().Tracer()
    source = tmp_path / "prog.spl"
    source.write_text(generate_random_program(1, 30))
    tracer.install()
    try:
        code = tracer.run_op(0, main, ["decompose", str(source), "--out", str(tmp_path / "d.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    spent = {name: end - start for name, start, end, *_ in tracer.spans}
    for name in ("lang.parse_program", "build.build_cfg", "build.cfg_from_source"):
        assert spent.get(name, 0) > 0, name
    assert "cfg.prune_unreachable" not in spent


def test_a_traced_lift_counts_the_game_vertices_and_times_every_parity_layer(tmp_path):
    """The tracer counts game vertices with len(game.state_of), and wraps
    build_product_game, lift_decomposition and GameGraph.to_json."""
    tracer = load_spans().Tracer()
    source = tmp_path / "prog.spl"
    source.write_text(generate_random_program(1, 30))
    argv = ["lift", str(source), "--m", "4", "--out", str(tmp_path / "d.json"),
            "--game-out", str(tmp_path / "g.json")]
    tracer.install()
    try:
        code = tracer.run_op(0, main, argv)
    finally:
        tracer.uninstall()
    assert code == 0
    counts = tracer.counts[0]
    assert counts["cfg.vertices"] > 0
    assert counts["parity.game_vertices"] == 4 * counts["cfg.vertices"]
    spans = {name for name, *_ in tracer.spans}
    for name in ("parity.build_product_game", "parity.lift_decomposition", "parity.GameGraph.to_json"):
        assert name in spans, name
