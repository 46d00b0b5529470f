"""Discrete-time random walks driven by i.i.d. increments.

A walk starts at some structure (the empty structure by default) and at each
step applies an independent increment drawn from a fixed probability measure:
X_m = increment(X_{m-1}, D_m).  The exact T-step distribution is available
as a brute-force convolution oracle, and walks with exchangeable increments
project to a Markov chain on orbits.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

from .measures import FiniteMeasure, is_exchangeable
from .orbits import (
    DEFAULT_CANONICAL_CAP,
    DEFAULT_SPACE_CAP,
    OrbitId,
    enumerate_orbits,
    orbit_lookup,
    orbit_of,
    space_size,
)
from .structures import (
    Structure,
    _cell_lists,
    _formatter,
    _line_batches,
    _Parser,
    _structure_from_cells,
    empty_structure,
    increment,
)

__all__ = [
    "WalkTrajectory",
    "sample_increment",
    "simulate_walk",
    "walk_distribution_exact",
    "project_orbit_chain",
    "orbit_kernel",
    "walk_to_csv",
    "walk_from_csv",
]


@dataclass(frozen=True)
class WalkTrajectory:
    """States X_0, ..., X_T of one walk; increments are derivable pairwise."""

    steps: tuple[Structure, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("trajectory needs at least the initial state")
        first = self.steps[0]
        for m in self.steps[1:]:
            if m.signature != first.signature or m.n != first.n:
                raise ValueError("all states must share signature and n")

    @property
    def T(self) -> int:
        return len(self.steps) - 1

    def increments(self) -> list[Structure]:
        return [
            increment(self.steps[t], self.steps[t - 1])
            for t in range(1, len(self.steps))
        ]


def _require_probability(mu: FiniteMeasure) -> None:
    if not mu.is_probability:
        raise ValueError(f"measure is not normalized (total {mu.total_mass})")


def _require_process_signature(mu: FiniteMeasure) -> None:
    if mu.signature.max_arity < 1:
        raise ValueError(
            f"process requires a signature with top arity >= 1, got {mu.signature}"
        )


def sample_increment(mu: FiniteMeasure, rng) -> Structure:
    """One draw from a probability measure, by inverse CDF over the sorted support."""
    _require_probability(mu)
    return mu.sample(rng)


def simulate_walk(
    mu: FiniteMeasure, x0: Structure | None, steps: int, rng
) -> WalkTrajectory:
    """Walk of the given length started at ``x0`` with increment law ``mu``.

    ``x0=None`` starts at the empty structure, the canonical initial state.
    """
    _require_probability(mu)
    _require_process_signature(mu)
    if x0 is None:
        x0 = empty_structure(mu.signature, mu.n)
    if mu.signature != x0.signature or mu.n != x0.n:
        raise ValueError("initial state does not match the increment measure shape")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    states = [x0]
    state = x0
    for _ in range(steps):
        state = increment(state, mu.sample(rng))
        states.append(state)
    return WalkTrajectory(tuple(states))


def walk_distribution_exact(
    mu: FiniteMeasure,
    x0: Structure,
    steps: int,
    space_cap: int = DEFAULT_SPACE_CAP,
) -> FiniteMeasure:
    """Exact T-step state distribution by repeated convolution.

    Brute force over the reachable state space; intended as an oracle for
    small instances.
    """
    _require_probability(mu)
    if mu.signature != x0.signature or mu.n != x0.n:
        raise ValueError("initial state does not match the increment measure shape")
    if space_size(mu.signature, mu.n) > space_cap:
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


def project_orbit_chain(
    traj: WalkTrajectory, cap: int = DEFAULT_CANONICAL_CAP
) -> list[OrbitId]:
    """Elementwise orbit projection of the state sequence."""
    return [orbit_of(m, cap) for m in traj.steps]


def orbit_kernel(
    mu: FiniteMeasure,
    tol: float = 1e-9,
    space_cap: int = DEFAULT_SPACE_CAP,
    cap: int = DEFAULT_CANONICAL_CAP,
) -> dict[tuple[OrbitId, OrbitId], float]:
    """Transition kernel of the orbit chain for an exchangeable increment law.

    K(Y, Y') aggregates the one-step transition mass from any representative
    of Y into the class Y'; exchangeability makes the aggregation independent
    of the representative, which is why non-exchangeable measures are
    rejected here.
    """
    _require_probability(mu)
    if not is_exchangeable(mu, tol, cap):
        raise ValueError("orbit kernel requires an exchangeable increment measure")
    table = enumerate_orbits(mu.signature, mu.n, space_cap, cap)
    lookup = orbit_lookup(mu.signature, mu.n, space_cap, cap)
    kernel: dict[tuple[OrbitId, OrbitId], float] = defaultdict(float)
    support = mu.items_sorted()
    for oid, _ in table.entries:
        rep = oid.structure()
        for d, w in support:
            kernel[(oid, lookup[increment(rep, d)])] += w
    return dict(kernel)


def walk_to_csv(traj: WalkTrajectory) -> str:
    """One ``step,structure`` row per state, formatted a block of states at
    a time."""
    text = _formatter(traj.steps[0].signature, traj.steps[0].n)
    steps = range(len(traj.steps))
    return "".join(["step,structure\n", *text.state_lines(f"%d,{text.form}\n", steps, traj.steps)])


def walk_from_csv(text: str) -> WalkTrajectory:
    """Read a walk CSV, a batch of rows at a time, with one parser bound to
    the first row's signature and n."""
    batches = _line_batches(text)
    header, *rest = next(batches, [""])
    if header != "step,structure":
        raise ValueError("walk CSV must start with header 'step,structure'")
    states = []
    for lines in chain([rest], batches):
        texts = []
        for line in lines:
            step_text, _, struct_text = line.partition(",")
            try:
                step = int(step_text)
            except ValueError:
                raise ValueError(f"malformed step index: {step_text!r}") from None
            expected = len(states) + len(texts)
            if step != expected:
                raise ValueError(f"non-contiguous step index {step}, expected {expected}")
            texts.append(struct_text)
        if not texts:
            continue
        if not states:
            parser = _Parser.of(texts[0])
        for cells in _cell_lists(*parser.batch(texts)):
            states.append(_structure_from_cells(parser.signature, parser.n, cells))
    return WalkTrajectory(tuple(states))
