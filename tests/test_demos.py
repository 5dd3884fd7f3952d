"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Demos whose whole output is pinned: a change to the solver must not move a
# printed cop number or the duel's outcome unseen, nor a change to the
# product game a printed owner or priority.
PINNED_OUTPUT = {
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
