"""Directed-graph jump process with all four kinds of jump components.

The intensity mixes a global dissociated atom (every edge cell flips with a
small probability) with the three local families: per-vertex rewiring,
per-pair flips, and self-loop flips.  The script simulates one path and
summarizes what kinds of jumps occurred.
"""

from collections import Counter

from comblevy import (
    LevyIntensity,
    LoopComponent,
    MixtureAtom,
    PairComponent,
    RestrictedIntensity,
    Signature,
    VertexComponent,
    make_rng,
    simulate_levy,
)

SIG = Signature((2,))

intensity = LevyIntensity(
    SIG,
    (
        MixtureAtom(weight=0.2, probs=(0.05,)),          # global rewiring burst
        VertexComponent(rate=0.3, rho=0.4),              # one vertex rewires
        PairComponent(rate=0.1, pattern=(0.4, 0.4, 0.2)),
        LoopComponent(rate=0.05),
    ),
)

n = 12
restricted = RestrictedIntensity(intensity, n)
print(f"component rates at n={n}:",
      [round(r, 3) for r in restricted.component_rates])
print(f"total rate: {restricted.total_rate:.3f}")

traj = simulate_levy(intensity, n, 10.0, make_rng(7))
print(f"\n{len(traj.events) - 1} jumps over [0, 10]")

kinds = Counter()
for inc in traj.jump_increments():
    edges = inc.tuples(0)
    endpoints = {a for e in edges for a in e}
    if len(edges) == 1 and edges[0][0] == edges[0][1]:
        kinds["loop flip"] += 1
    elif len(endpoints) == 2 and len(edges) <= 2:
        kinds["pair flip"] += 1
    elif all(set(e) & set.intersection(*[set(x) for x in edges]) for e in edges):
        kinds["vertex rewiring"] += 1
    else:
        kinds["global burst"] += 1

print("jump increment summary:")
for kind, count in kinds.most_common():
    print(f"  {kind:16s} {count}")

final = traj.events[-1][1]
print(f"\nfinal graph has {final.tuple_count(0)} edges out of {n * n} cells")
