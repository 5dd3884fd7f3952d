"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Demos whose whole output is pinned: a change to the loop forest or the
# edge partition must not move a printed backward edge, region or bag
# unseen, nor a change to the solver a printed cop number or the duel's
# outcome, nor a change to the product game a printed owner or priority.
PINNED_OUTPUT = {
    "01_build_a_cfg": """\
program:
setup;
while more {
  read;
  if bad {
    continue;
  }
  process;
}
report;

9 vertices, 10 edges (start=0, stop=8)
   0 start        -> 1
   1 setup        -> 2
   2 more         -> 3, 6
   3 read         -> 4
   4 bad          -> 2, 5
   5 process      -> 2
   6 exit(more)   -> 7
   7 report       -> 8
   8 stop         -> 

backward edges: [(4, 2), (5, 2)]

DOT with dashed backward edges:

digraph cfg {
    node [shape=box];
    n0 [label="start" shape=oval];
    n1 [label="setup"];
    n2 [label="more"];
    n3 [label="read"];
    n4 [label="bad"];
    n5 [label="process"];
    n6 [label="exit(more)"];
    n7 [label="report"];
    n8 [label="stop" shape=oval];
    n0 -> n1;
    n1 -> n2;
    n2 -> n3;
    n2 -> n6;
    n3 -> n4;
    n4 -> n2 [style=dashed];
    n4 -> n5;
    n5 -> n2 [style=dashed];
    n6 -> n7;
    n7 -> n8;
}

""",
    "02_loop_structure": """\
program:
init;
while outer {
  a;
  while inner {
    b;
    if flag { break; }
  }
  c;
}
done;

loop entry=outer exit=exit(outer)
  inside  = {outer, a, inner, b, flag, exit(inner), c}
  belongs = {outer, a, exit(inner), c}
  loop entry=inner exit=exit(inner)
    inside  = {inner, b, flag}
    belongs = {inner, b, flag}
root owns: ['done', 'exit(outer)', 'init', 'start', 'stop']
""",
    "03_decompose": """\
edge partition:
  backward       [('d', 'c2'), ('exit(c2)', 'c1')]
  into_exit      [('c1', 'exit(c1)'), ('c2', 'exit(c2)')]
  into_entry     [('a', 'c1'), ('b', 'c2')]
  plain          [('start', 'a'), ('c1', 'b'), ('c2', 'd'), ('exit(c1)', 'e'), ('e', 'stop')]

width = 3, nodes = 10, arcs = 9
  node start     bag {start}
  node a         bag {a}
  node c1        bag {c1, exit(c1)}
  node b         bag {c1, b, exit(c1)}
  node c2        bag {c2, exit(c2)}
  node d         bag {c2, d, exit(c2)}
  node exit(c2)  bag {c1, exit(c2), exit(c1)}
  node exit(c1)  bag {exit(c1)}
  node e         bag {e}
  node stop      bag {stop}

validator: valid {'acyclic': True, 'vertices_covered': True, 'connectivity': True, 'edges_covered_3a': True, 'edges_covered_3b': True, 'd3_original': True, 'width': 3, 'valid': True, 'violations': []}
""",
    "04_break_the_validator": """\
fresh construction: True
after removing the exit from a mid-path bag: INVALID
  violated connectivity, witness (1, 2, 4)
  violated edges_covered_3b, witness (2, 3, 4, 5)
""",
    "05_pursuit": """\
tie-break 'low':
  [ 1] cops (-, -, -)  robber 0
  [2a] cops (-, -, 0)  robber 1
  [2b] cops (-, -, 3)  robber 1
  [ 5] cops (1, -, 3)  robber 2
  [2a] cops (1, 3, 2)  robber 5
  [2b] cops (1, 3, 8)  robber 5
  [ 5] cops (5, 3, 8)  robber 6
  [2a] cops (5, 8, 6)  robber 7
  [2a] cops (5, 8, 7)  robber 7
  outcome: CopsWin (4a), monotone: True

tie-break 'high':
  [ 1] cops (-, -, -)  robber 0
  [2a] cops (-, -, 0)  robber 1
  [2b] cops (-, -, 3)  robber 1
  [ 5] cops (1, -, 3)  robber 2
  [2a] cops (1, 3, 2)  robber 9
  [2b] cops (1, 3, 12)  robber 9
  [ 5] cops (9, 3, 12)  robber 10
  [2a] cops (9, 12, 10)  robber 11
  [2a] cops (9, 12, 11)  robber 11
  outcome: CopsWin (4a), monotone: True

""",
    "06_cop_number": """\
'a; b; c;'                   cop number = 1
'if c { a; } else { b; }'    cop number = 1
'while c { b; }'             cop number = 2
'do { a; } while c;'         cop number = 2
two-loop graph                cop number = 3

two optimal cops vs optimal robber: RobberWins(cutoff) after 200 rounds
robber finished at 1, vacated ground: [1]
""",
    "07_product_games": """\
base graph: 6 vertices, decomposition width 3
m=1: product has 6 vertices, lifted width 3, valid=True, arcs unchanged: True
m=2: product has 12 vertices, lifted width 6, valid=True, arcs unchanged: True
m=3: product has 18 vertices, lifted width 9, valid=True, arcs unchanged: True

sample product vertices (id = state * m + part):
    0 = (start, part 0) owner P1 priority 0
    1 = (start, part 1) owner P1 priority 2
    2 = (c, part 0) owner P0 priority 0
    3 = (c, part 1) owner P0 priority 1
    4 = (b, part 0) owner P0 priority 2
    5 = (b, part 1) owner P0 priority 0
""",
}


def test_demos_exist():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo.stem in PINNED_OUTPUT:
        assert done.stdout == PINNED_OUTPUT[demo.stem]
