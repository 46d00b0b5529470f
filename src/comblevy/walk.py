"""Discrete-time random walks driven by i.i.d. increments.

A walk starts at some structure (the empty structure by default) and at each
step applies an independent increment drawn from a fixed probability measure:
X_m = increment(X_{m-1}, D_m).  It is stored as a trajectory log with one
jump, possibly empty, at each of the times 1..T.  The exact T-step
distribution is available as a brute-force convolution oracle, and walks
with exchangeable increments project to a Markov chain on orbits.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TextIO

import numpy as np

from .measures import FiniteMeasure, is_exchangeable
from .orbits import (
    SPACE_CAP,
    OrbitId,
    enumerate_orbits,
    orbit_lookup,
    orbit_of,
    space_size,
)
from .structures import Structure, empty_structure, increment
from .trajectory import LevyTrajectory, _States

__all__ = [
    "WalkTrajectory",
    "simulate_walk",
    "walk_distribution_exact",
    "project_orbit_chain",
    "orbit_kernel",
    "walk_to_csv",
    "walk_from_csv",
]


# Steps drawn at a time by simulate_walk.
_BLOCK_STEPS = 2**12


class WalkTrajectory(LevyTrajectory):
    """A walk X_0, ..., X_T as a log: step m is the jump D_m at time m,
    which may be empty, and the horizon is T.  ``steps`` rebuilds the
    states X_0, ..., X_T on demand and ``jump_increments()`` gives the D_m.
    """

    _empty_jumps = True

    @property
    def T(self) -> int:
        return len(self._times) - 1

    @property
    def steps(self) -> _States:
        """The states X_0, ..., X_T, a lazy read-only sequence."""
        return _States(self)


def _require_probability(mu: FiniteMeasure) -> None:
    if not mu.is_probability:
        raise ValueError(f"measure is not normalized (total {mu.total_mass})")


def simulate_walk(
    mu: FiniteMeasure, x0: Structure | None, steps: int, rng
) -> WalkTrajectory:
    """Walk of the given length started at ``x0`` with increment law ``mu``,
    its steps drawn ``_BLOCK_STEPS`` at a time by ``mu.sample_cells_batch``.

    ``x0=None`` starts at the empty structure, the canonical initial state.
    """
    _require_probability(mu)
    if mu.signature.max_arity < 1:
        raise ValueError(f"process requires a signature with top arity >= 1, got {mu.signature}")
    if x0 is None:
        x0 = empty_structure(mu.signature, mu.n)
    if mu.signature != x0.signature or mu.n != x0.n:
        raise ValueError("initial state does not match the increment measure shape")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    traj = WalkTrajectory._started(x0)
    for lo in range(0, steps, _BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, steps)
        traj._extend(range(lo + 1, hi + 1), *mu.sample_cells_batch(rng, hi - lo))
    traj._close(float(steps))
    return traj


def walk_distribution_exact(mu: FiniteMeasure, x0: Structure, steps: int) -> FiniteMeasure:
    """Exact T-step state distribution by repeated convolution.

    Brute force over the reachable state space; intended as an oracle for
    small instances.
    """
    _require_probability(mu)
    if mu.signature != x0.signature or mu.n != x0.n:
        raise ValueError("initial state does not match the increment measure shape")
    if space_size(mu.signature, mu.n) > SPACE_CAP:
        raise ValueError("state space too large for exact convolution")
    support = mu.items_sorted()
    dist: dict[Structure, float] = {x0: 1.0}
    for _ in range(steps):
        nxt: dict[Structure, float] = defaultdict(float)
        for state, p in dist.items():
            for d, w in support:
                nxt[increment(state, d)] += p * w
        dist = dict(nxt)
    return FiniteMeasure(mu.signature, mu.n, dist)


def project_orbit_chain(traj: WalkTrajectory) -> list[OrbitId]:
    """Elementwise orbit projection of the state sequence."""
    return [orbit_of(m) for m in traj.steps]


def orbit_kernel(mu: FiniteMeasure) -> dict[tuple[OrbitId, OrbitId], float]:
    """Transition kernel of the orbit chain for an exchangeable increment law.

    K(Y, Y') aggregates the one-step transition mass from any representative
    of Y into the class Y'; exchangeability makes the aggregation independent
    of the representative, which is why non-exchangeable measures are
    rejected here.
    """
    _require_probability(mu)
    if not is_exchangeable(mu):
        raise ValueError("orbit kernel requires an exchangeable increment measure")
    table = enumerate_orbits(mu.signature, mu.n)
    lookup = orbit_lookup(mu.signature, mu.n)
    kernel: dict[tuple[OrbitId, OrbitId], float] = defaultdict(float)
    support = mu.items_sorted()
    for oid, _ in table.entries:
        rep = oid.structure()
        for d, w in support:
            kernel[(oid, lookup[increment(rep, d)])] += w
    return dict(kernel)


def walk_to_csv(traj: WalkTrajectory) -> str:
    """One ``step,structure`` row per state (see ``LevyTrajectory._to_csv``)."""
    return traj._to_csv("step", "%d")


def _step_times(keys, first: int) -> np.ndarray:
    """The steps ``first``, ``first + 1``, ... that the step fields ``keys``
    must give in canonical form."""
    steps = range(first, first + len(keys))
    if "\n".join(keys) != "\n".join(map(str, steps)):
        step, key = next((step, key) for step, key in zip(steps, keys) if key != str(step))
        raise ValueError(f"expected step index {step}, got {key!r}")
    return np.arange(first, first + len(keys), dtype=np.float64)


def walk_from_csv(text: str | TextIO) -> WalkTrajectory:
    """Read a walk CSV, a str or an open text file (see
    ``LevyTrajectory._from_csv``); step i must be written ``str(i)``."""
    return WalkTrajectory._from_csv(text, "step", _step_times)
