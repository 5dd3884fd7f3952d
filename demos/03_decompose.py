"""Build the width-3 DAG decomposition of a program and validate it.

Every vertex gets a node whose bag holds the vertex plus its loop's entry
and exit, so no bag exceeds three. The edge rewrites (drop the loop edges,
re-route entries through exits, hang each entry below its exit) make the
result acyclic while still covering every original edge.

Run: python demos/03_decompose.py
"""

from cfgdag import (
    build_decomposition,
    cfg_from_source,
    loop_regions,
    partition_edges,
    validate_cfg_decomposition,
)

SOURCE = """\
a;
while c1 {
  b;
  while c2 { d; }
}
e;
"""

cfg, forest = cfg_from_source(SOURCE)
loop_regions(cfg, forest)

part = partition_edges(cfg, forest)
print("edge partition:")
for name, edges in part.categories().items():
    pretty = [(cfg.labels[u], cfg.labels[v]) for u, v in sorted(edges)]
    print(f"  {name:<14} {pretty}")

decomp = build_decomposition(cfg, forest)
print(f"\nwidth = {decomp.width()}, nodes = {len(decomp.nodes)}, arcs = {len(decomp.arcs)}")
for n in sorted(decomp.nodes):
    bag = ", ".join(cfg.labels[v] for v in sorted(decomp.bags[n]))
    print(f"  node {cfg.labels[n]:<9} bag {{{bag}}}")

report = validate_cfg_decomposition(decomp, cfg)
print("\nvalidator:", "valid" if report.valid else "INVALID", report.to_json_dict())
