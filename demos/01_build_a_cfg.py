"""Parse a small structured program and inspect its control-flow graph.

Run: python demos/01_build_a_cfg.py
"""

from cfgdag import cfg_from_source, loop_regions, partition_edges

SOURCE = """\
setup;
while more {
  read;
  if bad {
    continue;
  }
  process;
}
report;
"""

cfg, forest = cfg_from_source(SOURCE)
print("program:")
print(SOURCE)
print(f"{cfg.n_vertices} vertices, {cfg.n_edges} edges "
      f"(start={cfg.start}, stop={cfg.stop})")
for v in sorted(cfg.vertex_ids()):
    succ = ", ".join(str(w) for w in cfg.successors(v))
    print(f"  {v:2d} {cfg.labels[v]:<12} -> {succ}")

loop_regions(cfg, forest)
# The backward edges run from the vertices a loop owns to its entry; the
# decomposition drops them, and partition_edges tags them.
backward = sorted(partition_edges(cfg, forest).backward)
print("\nbackward edges:", backward)

print("\nDOT with dashed backward edges:\n")
print(cfg.to_dot(backward=set(backward)))
