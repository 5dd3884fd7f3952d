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
loop_regions(cfg, forest)  # the owner map covers the graph

# The owner map is the one record of membership: an element's belongs set
# is what it owns, and its inside set adds the inside sets of its children.
# Elements are in preorder, so in reverse each comes before its parent.
belongs = {elem: set() for elem in (forest.phi, *forest.elements)}
for v, elem in forest.owner.items():
    belongs[elem].add(v)
inside = {elem: set(own) for elem, own in belongs.items()}
for elem in reversed(forest.elements):
    inside[elem.parent] |= inside[elem]

print("program:")
print(SOURCE)


def show(elem, depth=0):
    pad = "  " * depth
    names = lambda vs: "{" + ", ".join(cfg.labels[v] for v in sorted(vs)) + "}"
    print(f"{pad}loop entry={cfg.labels[elem.entry]} exit={cfg.labels[elem.exit]}")
    print(f"{pad}  inside  = {names(inside[elem])}")
    print(f"{pad}  belongs = {names(belongs[elem])}")
    for child in children.get(elem, ()):
        show(child, depth + 1)


children = {}  # an element records only its parent; elements are in preorder
for elem in forest.elements:
    children.setdefault(elem.parent, []).append(elem)
for top in children.get(forest.phi, ()):
    show(top)
print("root owns:", sorted(cfg.labels[v] for v in belongs[forest.phi]))
