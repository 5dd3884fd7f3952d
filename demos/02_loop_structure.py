"""Loop elements: entries, exits, the inside/belongs split, and nesting.

Run: python demos/02_loop_structure.py
"""

from cfgdag import cfg_from_source, loop_regions

SOURCE = """\
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
"""

cfg, forest = cfg_from_source(SOURCE)
regions = loop_regions(cfg, forest).regions()  # element -> (belongs, inside)

print("program:")
print(SOURCE)


def show(elem, depth=0):
    pad = "  " * depth
    names = lambda vs: "{" + ", ".join(cfg.labels[v] for v in sorted(vs)) + "}"
    print(f"{pad}loop entry={cfg.labels[elem.entry]} exit={cfg.labels[elem.exit]}")
    belongs, inside = regions[elem]
    print(f"{pad}  inside  = {names(inside)}")
    print(f"{pad}  belongs = {names(belongs)}")
    for child in children.get(elem, ()):
        show(child, depth + 1)


children = {}  # an element records only its parent; elements are in preorder
for elem in forest.elements:
    children.setdefault(elem.parent, []).append(elem)
for top in children.get(forest.phi, ()):
    show(top)
print("root owns:", sorted(cfg.labels[v] for v in regions[forest.phi][0]))
