"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Module-scoped fixtures build the two program fleets once and share them
between criteria.
"""

import gc
import random
import time

import pytest

from cfgdag import (
    ControlFlowGraph,
    FormulaSkeleton,
    LazyRobber,
    LoopGuardStrategy,
    OptimalCops,
    OptimalRobber,
    brute_force_cop_number,
    build_decomposition,
    build_product_game,
    cfg_from_source,
    check_cop_monotone,
    compute_dominators,
    generate_random_program,
    lift_decomposition,
    loop_regions,
    partition_edges,
    play_game,
    recover_loop_forest,
    two_loop_cfg,
    validate_cfg_decomposition,
    validate_decomposition,
)
from cfgdag.cli import main
from cfgdag.decomposition import DagDecomposition
from helpers import dist_by_enumeration, dominance_backward, exit_distances, owner_regions, recovery_facts


def _verdict(number: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:2d} PASS {name}{suffix}")


def _construction_sizes():
    sizes = []
    for i in range(850):
        sizes.append(1 + (i * 37) % 500)
    for i in range(120):
        sizes.append(500 + (i * 211) % 2500)
    for i in range(27):
        sizes.append(3000 + (i * 977) % 7000)
    sizes += [10000, 10000, 10000]
    assert len(sizes) == 1000
    return sizes


@pytest.fixture(scope="module")
def construction_fleet():
    """1000 random programs up to 10^4 statements, decomposed and validated,
    with their loops recovered from CFG JSON (outside the timed build)."""
    rows = []
    build_seconds = 0.0
    for seed, size in enumerate(_construction_sizes()):
        src = generate_random_program(seed, size)
        t0 = time.perf_counter()
        cfg, forest = cfg_from_source(src)
        loop_regions(cfg, forest)
        decomp = build_decomposition(cfg, forest)
        build_seconds += time.perf_counter() - t0
        report = validate_cfg_decomposition(decomp, cfg)
        belongs_total = sum(len(belongs) for belongs, _ in owner_regions(forest).values())
        rows.append(
            {
                "seed": seed,
                "n_vertices": cfg.n_vertices,
                "n_edges": cfg.n_edges,
                "n_nodes": len(decomp.nodes),
                "n_arcs": len(decomp.arcs),
                "width": decomp.width(),
                "belongs_partition": belongs_total == cfg.n_vertices,
                "unique_introduction": all(
                    set(decomp.bags[j]) - set(decomp.bags[i]) == frozenset([j]) for i, j in decomp.arcs
                ),
                "flags": (
                    report.acyclic,
                    report.vertices_covered,
                    report.connectivity,
                    report.edges_covered_3a,
                    report.edges_covered_3b,
                ),
                "recovery": recovery_facts(cfg, forest, decomp),
            }
        )
    return rows, build_seconds


@pytest.fixture(scope="module")
def pursuit_fleet():
    """500 programs of at most 50 statements with their guard-strategy games."""
    rows = []
    for i in range(500):
        size = 1 + (i * 7) % 50
        src = generate_random_program(i, size)
        cfg, forest = cfg_from_source(src)
        loop_regions(cfg, forest)
        games = []
        for start in sorted({cfg.start, max(cfg.vertex_ids())}):
            strategy = LoopGuardStrategy(cfg, forest)
            trace = play_game(cfg, strategy, LazyRobber(cfg, start=start))
            games.append(("lazy", strategy, trace))
        if cfg.n_vertices <= 20:
            strategy = LoopGuardStrategy(cfg, forest)
            trace = play_game(cfg, strategy, OptimalRobber(cfg, 3))
            games.append(("optimal", strategy, trace))
        rows.append({"seed": i, "cfg": cfg, "forest": forest, "games": games})
    return rows


def test_criterion_01_width_bound(construction_fleet):
    """Every construction has width <= 3, |nodes| = |V|, |arcs| <= |E|, fast."""
    rows, build_seconds = construction_fleet
    assert len(rows) == 1000
    assert max(r["n_vertices"] for r in rows) > 10000  # the fleet does reach 10^4 statements
    for r in rows:
        assert r["width"] <= 3, r["seed"]
        assert r["n_nodes"] == r["n_vertices"], r["seed"]
        assert r["n_arcs"] <= r["n_edges"], r["seed"]
        assert r["belongs_partition"], r["seed"]
        assert r["unique_introduction"], r["seed"]
    assert build_seconds < 30.0, f"construction took {build_seconds:.1f}s"
    _verdict(1, "width bound over 1000 programs", f"build time {build_seconds:.1f}s")


def test_loop_recovery_agrees_with_the_builder_on_both_fleets(construction_fleet, pursuit_fleet):
    """Loops recovered from CFG JSON alone against the builder's forest.

    A CFG cannot show a loop with no backward edge (a body that always
    breaks), and a natural body can end before the builder's exit, so the
    forests agree only where both can: the exits are compared, parents where
    all exits agree, and whole decompositions where every loop is seen too.
    The dominator trees the recovery rests on must equal the iterative
    oracle's on every program.
    """
    facts = [(f"fleet seed {r['seed']}", r["recovery"]) for r in construction_fleet[0]]
    facts += [(f"pursuit seed {r['seed']}", recovery_facts(r["cfg"], r["forest"],
                                                           build_decomposition(r["cfg"], r["forest"])))
              for r in pursuit_fleet]
    assert len(facts) == 1500
    for name, f in facts:
        assert f["error"] is None, (name, f["error"])
        assert f["dominators"], name
        assert f["valid"] and f["entries"], name
        assert f["parents"] or not f["exits"], name
        assert f["identical"] or not (f["exits"] and f["all_seen"]), name
    same_exits = sum(f["exits"] for _, f in facts)
    identical = sum(f["identical"] for _, f in facts)
    print(f"\nloop recovery: {len(facts)} programs, {same_exits} with the builder's exits, "
          f"{identical} decompositions byte-identical")


def test_criterion_02_validity(construction_fleet):
    """All five decomposition conditions hold on every construction."""
    rows, _ = construction_fleet
    bad = [r["seed"] for r in rows if not all(r["flags"])]
    assert bad == []
    _verdict(2, "validator accepts all 1000 constructions")


def test_criterion_03_tightness():
    """The two-loop graph needs exactly three cops, within the time budget."""
    t0 = time.perf_counter()
    cfg, forest = two_loop_cfg()

    assert brute_force_cop_number(cfg, k_max=4) == 3

    cops = OptimalCops(cfg, 2)
    robber = OptimalRobber(cfg, 2, solver=cops.solver)
    duel = play_game(cfg, cops, robber, max_rounds=200)
    assert duel.outcome == "RobberWins(cutoff)"

    chase = play_game(cfg, LoopGuardStrategy(cfg, forest), OptimalRobber(cfg, 3))
    assert chase.outcome == "CopsWin"

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"tightness checks took {elapsed:.1f}s"
    _verdict(3, "cop number exactly 3 on the two-loop graph", f"{elapsed:.1f}s")


TRACE_TOGGLE_RIGHT = [
    ((None, None, None), 0, "1"),
    ((None, None, 0), 1, "2a"),
    ((None, None, 3), 1, "2b"),
    ((1, None, 3), 2, "5"),
    ((1, 3, 2), 9, "2a"),
    ((1, 3, 12), 9, "2b"),
    ((9, 3, 12), 10, "5"),
    ((9, 12, 10), 11, "2a"),
    ((9, 12, 11), 11, "2a"),
]

TRACE_TOGGLE_LEFT = [
    ((None, None, None), 0, "1"),
    ((None, None, 0), 1, "2a"),
    ((None, None, 3), 1, "2b"),
    ((1, None, 3), 2, "5"),
    ((1, 3, 2), 5, "2a"),
    ((1, 3, 8), 5, "2b"),
    ((5, 3, 8), 6, "5"),
    ((5, 8, 6), 7, "2a"),
    ((5, 8, 7), 7, "2a"),
]


def test_criterion_04_reference_traces():
    """Guard strategy vs lazy robber reproduces both recorded pursuits exactly."""
    cfg, forest = two_loop_cfg()
    for tie, expected in (("high", TRACE_TOGGLE_RIGHT), ("low", TRACE_TOGGLE_LEFT)):
        trace = play_game(cfg, LoopGuardStrategy(cfg, forest), LazyRobber(cfg, start=0, tie=tie))
        got = [(s.cops, s.robber, s.note) for s in trace.steps]
        assert got == expected, tie
        assert trace.outcome == "CopsWin" and trace.end_note == "4a"
    _verdict(4, "both reference pursuits reproduced position for position")


def test_criterion_05_monotone_wins(pursuit_fleet):
    """Guard strategy wins every game, never revisiting a vertex."""
    games = 0
    for row in pursuit_fleet:
        cfg, forest = row["cfg"], row["forest"]
        depth = 0
        for elem in forest.elements:
            d, e = 1, elem
            while e.parent is not None:
                d, e = d + 1, e.parent
            depth = max(depth, d)
        for kind, strategy, trace in row["games"]:
            games += 1
            assert trace.outcome == "CopsWin", (row["seed"], kind)
            assert check_cop_monotone(trace), (row["seed"], kind)
            assert trace.rounds() <= 2 * cfg.n_vertices + 2 * depth, (row["seed"], kind)
    assert games >= 1000
    _verdict(5, "every pursuit won cop-monotonically", f"{games} games")


def test_criterion_06_distance_monotone(pursuit_fleet):
    """Chase distances never grow, shrink strictly on the loop's own ground,
    and match exhaustive path enumeration on small loops."""
    moves_checked = 0
    oracle_checked = 0
    for row in pursuit_fleet:
        cfg, forest = row["cfg"], row["forest"]
        dist_cache = {}
        for kind, strategy, trace in row["games"]:
            for i, (note, loop) in enumerate(strategy.log):
                if loop.is_root or note not in ("2a", "2b"):
                    continue
                r_before = trace.steps[i].robber
                r_after = trace.steps[i + 1].robber
                assert forest.contains(loop, r_after) or r_after == cfg.stop
                if r_after == cfg.stop or loop.exit is None:
                    continue
                if id(loop) not in dist_cache:
                    dist_cache[id(loop)] = exit_distances(cfg, forest, loop)
                dists = dist_cache[id(loop)]
                d_before, d_after = dists[r_before], dists[r_after]
                moves_checked += 1
                if d_before is None:
                    assert d_after is None, (row["seed"], i)
                    continue
                eff_after = 0 if d_after is None else d_after
                assert eff_after <= d_before, (row["seed"], i)
                if forest.owner[r_before] is loop and r_after != r_before:
                    assert eff_after < d_before, (row["seed"], i)
        regions = owner_regions(forest)
        for elem in forest.elements:
            inside = regions[elem][1]
            if elem.exit is None or len(inside) + 1 > 8:
                continue
            dists = exit_distances(cfg, forest, elem)
            for v in inside:
                assert dists[v] == dist_by_enumeration(cfg, forest, elem, v), (row["seed"], v)
                oracle_checked += 1
    assert moves_checked > 500 and oracle_checked > 500
    _verdict(6, "chase distance never grew on any move",
             f"{moves_checked} moves, {oracle_checked} oracle values")


def _perturb(decomp, rng, vertices):
    bags = dict(decomp.bags)
    node = rng.choice(decomp.nodes)
    bag = set(bags[node])
    if bag and rng.random() < 0.5:
        bag.discard(rng.choice(sorted(bag)))
    else:
        bag.add(rng.choice(sorted(vertices)))
    bags[node] = tuple(sorted(bag))
    return DagDecomposition(nodes=list(decomp.nodes), arcs=list(decomp.arcs), bags=bags)


def test_criterion_07_condition_equivalence():
    """Arc/source edge covering agrees with the guarding form on 1000+ samples."""
    rng = random.Random(0xC0FFEE)
    agreeing = 0
    excluded = 0
    seed = 0
    while agreeing < 1000:
        seed += 1
        cfg, forest = cfg_from_source(generate_random_program(seed, 16))
        loop_regions(cfg, forest)
        base = build_decomposition(cfg, forest)
        edges = list(cfg.edges())
        samples = [base] + [_perturb(base, rng, cfg.vertex_ids()) for _ in range(4)]
        for s in samples:
            report = validate_decomposition(s, cfg.vertex_ids(), edges)
            if not report.vertices_covered or not report.connectivity:
                excluded += 1  # the equivalence argument requires connectivity
                continue
            assert (report.edges_covered_3a and report.edges_covered_3b) == report.d3_original, seed
            agreeing += 1
    _verdict(7, "both edge-covering forms agreed on every sample",
             f"{agreeing} samples, {excluded} non-connected excluded")


def test_criterion_08_backward_edge_characterisation(pursuit_fleet):
    """Region-based backward edges equal dominator-defined ones; removing
    them leaves the graph acyclic."""
    for row in pursuit_fleet:
        cfg, forest = row["cfg"], row["forest"]
        dom = compute_dominators(cfg)
        backward = set(partition_edges(cfg, forest).backward)
        assert backward == dominance_backward(cfg, dom), row["seed"]
        succ = {v: [] for v in cfg.vertex_ids()}
        for u, v in cfg.edges():
            if (u, v) not in backward:
                succ[u].append(v)
        indeg = {v: 0 for v in succ}
        for u in succ:
            for v in succ[u]:
                indeg[v] += 1
        ready = [v for v, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            v = ready.pop()
            seen += 1
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        assert seen == cfg.n_vertices, row["seed"]
    _verdict(8, "backward edges match the dominator definition on all 500 programs")


def test_criterion_09_lift():
    """Lifted decompositions have width exactly 3m (m when loop free) and
    validate against their product games."""
    loopy = []
    loop_free = []
    seed = 0
    while len(loopy) < 25 or len(loop_free) < 25:
        seed += 1
        cfg, forest = cfg_from_source(generate_random_program(seed, 25))
        loop_regions(cfg, forest)
        decomp = build_decomposition(cfg, forest)
        if decomp.width() == 3 and len(loopy) < 25:
            loopy.append((cfg, decomp))
        elif decomp.width() == 1 and len(loop_free) < 25:
            loop_free.append((cfg, decomp))
    checked = 0
    for m in (1, 2, 3, 4):
        for cfg, decomp in loopy + loop_free:
            game = build_product_game(cfg, FormulaSkeleton.chain(m), seed=m)
            lifted = lift_decomposition(decomp, game)
            assert lifted.width() == decomp.width() * m
            assert len(lifted.arcs) == len(decomp.arcs)
            report = validate_decomposition(lifted, game.vertex_ids(), game.edges)
            assert report.valid, (m, cfg.n_vertices)
            checked += 1
    assert checked == 200
    _verdict(9, "lift scales width exactly and stays valid", "50 graphs x m in 1..4")


def test_criterion_10_linear_time():
    """Construction time per statement stays flat from 10^3 to 10^5.

    Each repeat times every size in turn, in CPU time of this process, so
    that a slow phase of a shared machine falls on all sizes alike.
    """
    graphs = {}
    for n in (10**3, 10**4, 10**5):
        cfg, forest = cfg_from_source(generate_random_program(424242, n))
        loop_regions(cfg, forest)
        graphs[n] = cfg, forest
    best = dict.fromkeys(graphs, float("inf"))
    for _ in range(5):
        for n, (cfg, forest) in graphs.items():
            gc.collect()
            gc.disable()
            t0 = time.process_time()
            build_decomposition(cfg, forest)
            best[n] = min(best[n], time.process_time() - t0)
            gc.enable()
    per_statement = {n: t / n for n, t in best.items()}
    spread = max(per_statement.values()) / min(per_statement.values())
    assert spread <= 2.0, per_statement
    detail = ", ".join(f"1e{len(str(n)) - 1}: {v * 1e6:.2f}us" for n, v in per_statement.items())
    _verdict(10, "construction scales linearly", f"{detail}, spread {spread:.2f}x")


def test_whole_source_pipeline_scales_linearly():
    """Source to validated decomposition costs about the same per statement
    from 10^3 to 10^5: parse, build, loop regions, edge partition,
    decomposition and validation.

    CPU time of this process with the collector paused, best of 3, each
    repeat timing every size in turn, so that a slow phase of a shared
    machine falls on all sizes alike.
    """
    sources = {n: generate_random_program(424242, n) for n in (10**3, 10**4, 10**5)}
    best = dict.fromkeys(sources, float("inf"))
    for _ in range(3):
        for n, src in sources.items():
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                cfg, forest = cfg_from_source(src)
                loop_regions(cfg, forest)
                report = validate_cfg_decomposition(build_decomposition(cfg, forest), cfg)
                best[n] = min(best[n], time.process_time() - t0)
            finally:
                gc.enable()
            assert report.valid, n
            del cfg, forest, report  # freed before the next timed run
    per_statement = {n: t / n for n, t in best.items()}
    spread = max(per_statement.values()) / min(per_statement.values())
    assert spread <= 2.0, per_statement


def test_whole_cfg_json_pipeline_scales_linearly():
    """CFG JSON to validated decomposition costs about the same per statement
    from 10^3 to 10^5: load, dominators, loop recovery, loop regions, edge
    partition, decomposition and validation, as validate --kind cfg-json
    runs them on a graph with nothing dead.

    Timed as test_whole_source_pipeline_scales_linearly times the source
    route: CPU time with the collector paused, best of 3, each repeat timing
    every size in turn.
    """
    texts = {n: cfg_from_source(generate_random_program(424242, n))[0].to_json()
             for n in (10**3, 10**4, 10**5)}
    best = dict.fromkeys(texts, float("inf"))
    for _ in range(3):
        for n, text in texts.items():
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                cfg = ControlFlowGraph.from_json(text)
                forest = loop_regions(cfg, recover_loop_forest(cfg, compute_dominators(cfg)))
                report = validate_cfg_decomposition(build_decomposition(cfg, forest), cfg)
                best[n] = min(best[n], time.process_time() - t0)
            finally:
                gc.enable()
            assert report.valid, n
            del cfg, forest, report  # freed before the next timed run
    per_statement = {n: t / n for n, t in best.items()}
    spread = max(per_statement.values()) / min(per_statement.values())
    assert spread <= 2.0, per_statement


def test_deep_nesting_scales_linearly_through_decompose_validate_and_play(tmp_path):
    """decompose, validate and play on d nested while loops cost about the
    same per loop for d = 500, 1,000 and 2,000, from source and from the CFG
    JSON that build writes: each play round checks the robber's run only as
    far as its destination.

    Timed as test_whole_source_pipeline_scales_linearly times the source
    route: CPU time with the collector paused, best of 3, each repeat timing
    every size in turn. The CFG JSON is built untimed.
    """
    inputs = {}
    for d in (500, 1000, 2000):
        prog, graph = tmp_path / f"nest{d}.spl", tmp_path / f"nest{d}.json"
        prog.write_text("while c {\n" * d + "a;\n" + "}\n" * d)
        assert main(["build", str(prog), "--out", str(graph)]) == 0
        inputs[d] = [[str(prog)], [str(graph), "--kind", "cfg-json"]]
    out = str(tmp_path / "out.json")
    best = dict.fromkeys(inputs, float("inf"))
    for _ in range(3):
        for d, routes in inputs.items():
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                codes = [main([command, *route, "--out", out])
                         for route in routes for command in ("decompose", "validate", "play")]
                best[d] = min(best[d], time.process_time() - t0)
            finally:
                gc.enable()
            assert codes == [0] * 6, (d, codes)
    per_loop = {d: t / d for d, t in best.items()}
    spread = max(per_loop.values()) / min(per_loop.values())
    assert spread <= 2.0, per_loop


def test_lift_scales_linearly():
    """The product game and the lifted decomposition, built and written as
    lift --m 4 --game-out does, cost about the same per statement from 10^3
    to 10^4: build_product_game, lift_decomposition and both to_json calls.

    Timed as test_whole_source_pipeline_scales_linearly times the source
    route: CPU time with the collector paused, best of 3, each repeat timing
    every size in turn. The graph and its decomposition are built untimed.
    """
    skeleton = FormulaSkeleton.chain(4)
    inputs = {}
    for n in (10**3, 10**4):
        cfg, forest = cfg_from_source(generate_random_program(424242, n))
        loop_regions(cfg, forest)
        inputs[n] = cfg, build_decomposition(cfg, forest)
    best = dict.fromkeys(inputs, float("inf"))
    for _ in range(3):
        for n, (cfg, decomp) in inputs.items():
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                game = build_product_game(cfg, skeleton, seed=n)
                lifted = lift_decomposition(decomp, game)
                texts = lifted.to_json(), game.to_json()
                best[n] = min(best[n], time.process_time() - t0)
            finally:
                gc.enable()
            assert lifted.width() == 4 * decomp.width() and all(texts), n
            del game, lifted, texts  # freed before the next timed run
    per_statement = {n: t / n for n, t in best.items()}
    spread = max(per_statement.values()) / min(per_statement.values())
    assert spread <= 2.0, per_statement
