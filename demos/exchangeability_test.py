"""Estimating the jump measure and testing exchangeability.

Two walks on subsets of {1,2,3}: one whose increments are a mixture of urn
measures (exchangeable by construction) and one whose elements flip with
unequal probabilities.  The empirical jump measure of each observed path is
compared against its orbit average by the Pearson statistic, with a Monte
Carlo p-value: the smallest it can report is 1/(B+1) for B replicates.
"""

import itertools

from comblevy import (
    FiniteMeasure,
    Signature,
    Structure,
    chi_square_exchangeability,
    empirical_jump_measure,
    empty_structure,
    make_rng,
    simulate_walk,
    urn_measure,
)
from comblevy.inference import REPLICATES

SIG = Signature((1,))
n, steps = 3, 2000
x0 = empty_structure(SIG, n)


def product_flip_measure(probs):
    weights = {}
    for size in range(len(probs) + 1):
        for subset in itertools.combinations(range(1, len(probs) + 1), size):
            mass = 1.0
            for i, p in enumerate(probs, start=1):
                mass *= p if i in subset else 1.0 - p
            weights[Structure.from_tuples(SIG, len(probs), [subset])] = mass
    return FiniteMeasure(SIG, len(probs), weights)


u1, u2 = urn_measure(1, n), urn_measure(2, n)
exchangeable = FiniteMeasure(
    SIG, n,
    {m: 0.5 * u1.mass(m) + 0.5 * u2.mass(m) for m in set(u1.weights) | set(u2.weights)},
)
biased = product_flip_measure((0.5, 0.05, 0.05))

for label, mu in [("exchangeable walk", exchangeable), ("biased walk", biased)]:
    traj = simulate_walk(mu, x0, steps, make_rng(31))
    mu_hat = empirical_jump_measure(traj)
    report = chi_square_exchangeability(traj, alphas=(0.05, 0.01))
    print(f"{label}:")
    print(f"  support size of empirical jump measure: {len(mu_hat.weights)}")
    print(f"  statistic {report.statistic:8.2f}  "
          f"p-value {report.p_value:.4g} ({REPLICATES} replicates)")
    for alpha, reject in sorted(report.alphas.items()):
        verdict = "reject" if reject else "retain"
        print(f"  alpha={alpha}: {verdict} exchangeability")
    print()
