"""Set-valued jump process: elements enter and leave at rate c.

Simulates the pure singleton intensity at a finite resolution, compares the
observed element frequency with the closed-form marginal (1 - exp(-2ct))/2,
and shows that restricting the trajectory to a smaller label window behaves
like a direct simulation at that window (same jump rate).
"""

import math

from comblevy import (
    LevyIntensity,
    RestrictedIntensity,
    SetSingletonComponent,
    Signature,
    make_rng,
    marginal_flip_probability,
    restrict_trajectory,
    set_frequency,
    simulate_levy,
)

SIG = Signature((1,))

n = 500
horizon = 3.0
rate = 1.0

intensity = LevyIntensity(SIG, (SetSingletonComponent(rate=rate),))
print(f"level-{n} total jump rate: {RestrictedIntensity(intensity, n).total_rate:.1f}")

rng = make_rng(2024)
traj = simulate_levy(intensity, n, horizon, rng)
print(f"simulated {len(traj.events) - 1} jumps over [0, {horizon}]")

print("\ntime   frequency   (1-exp(-2t))/2")
for t in (0.1, 0.25, 0.5, 1.0, 2.0, 3.0):
    freq = set_frequency(traj.state_at(t))
    print(f"{t:4.2f}   {freq:.4f}      {marginal_flip_probability(rate, t):.4f}")

# Restriction compatibility: the window [m] sees a rate-m jump process.
m = 20
small = restrict_trajectory(traj, m)
observed = (len(small.events) - 1) / horizon
expected = RestrictedIntensity(intensity, m).total_rate
print(f"\nrestricted to [{m}]: {len(small.events) - 1} jumps "
      f"(observed rate {observed:.1f}, restricted rate {expected:.1f}, "
      f"Poisson sd {math.sqrt(expected / horizon):.1f})")
