"""Damage a valid decomposition and watch the validator name a witness.

Run: python demos/04_break_the_validator.py
"""

from cfgdag import build_decomposition, cfg_from_source, loop_regions, validate_cfg_decomposition

cfg, forest = cfg_from_source("while c { a; b; }")
loop_regions(cfg, forest)
decomp = build_decomposition(cfg, forest)

print("fresh construction:", validate_cfg_decomposition(decomp, cfg).valid)

# Drop the loop exit from a bag in the middle of the chase chain: the bags
# holding it stop being convex under reachability.
mid = next(v for v in cfg.vertex_ids() if cfg.labels[v] == "a")
exit_vertex = forest.elements[0].exit
decomp.bags[mid] = tuple(v for v in decomp.bags[mid] if v != exit_vertex)

report = validate_cfg_decomposition(decomp, cfg)
print("after removing the exit from a mid-path bag:", "valid" if report.valid else "INVALID")
for condition, witness in report.violations:
    print(f"  violated {condition}, witness {witness}")
