"""Continuous-time jump processes driven by sigma-finite intensities.

An intensity is a finite list of components, each describing a family of
jump increments together with a rate:

* ``MixtureAtom`` - a dissociated product-Bernoulli kernel: every cell of
  relation j flips independently with probability ``probs[j]``; the whole
  atom carries rate ``weight``.
* singleton-indexed components - local jumps attached to an element, pair,
  or loop of the label set (the set, graph, and community-plus-graph
  families).
* ``ExplicitFinite`` - an arbitrary finite measure on increments over a
  fixed label window, with zero mass on the empty structure.

At a finite resolution n, every component restricts to a finite total rate
with an explicit conditional increment law given a nonempty restriction, so
the level-n process is compound Poisson: a Poisson number of jumps at the
total restricted rate, at sorted uniform times, each with an independent
increment (component chosen proportionally to its rate, then one
conditional draw).  ``simulate_levy`` draws it that way, in batches
(see ``_jump_chain``), into a :class:`~comblevy.trajectory.LevyTrajectory`
log a block at a time.  The trajectory readers at the end of this module
build that log a batch of parsed records at a time too.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, chain, islice

import numpy as np

from .measures import (
    FiniteMeasure,
    measure_from_payload,
    measure_to_payload,
)
from .structures import (
    Signature,
    Structure,
    _BatchError,
    _line_batches,
    _Formatter,
    _Parser,
    _cell_lists,
    _cells,
    _flat_cells,
    _row_increments,
    _restrict_cells,
    _structure_from_cells,
    empty_structure,
    parse,
    restrict,
    serialize,
)
from .trajectory import LevyTrajectory

__all__ = [
    "MixtureAtom",
    "SetSingletonComponent",
    "VertexComponent",
    "PairComponent",
    "LoopComponent",
    "ExplicitFinite",
    "LevyIntensity",
    "LevyTrajectory",
    "RestrictedIntensity",
    "simulate_levy",
    "restrict_trajectory",
    "marginal_flip_probability",
    "expm_small",
    "intensity_to_json",
    "intensity_from_json",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "events_to_jsonl",
    "events_from_jsonl",
]

RATE_TOL = 1e-12
REJECTION_CAP = 10_000
# Expected jumps per time block of the batched jump chain (see _jump_chain).
_BLOCK_EVENTS = 2**16


def _check_number(x, name: str) -> float:
    """``x`` as a float; strings, bools and non-finite values are refused."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {x!r}")
    return float(x)


def _check_prob(p: float, name: str) -> float:
    p = _check_number(p, name)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name}={p} outside [0, 1]")
    return p


def _check_rate(r: float, name: str) -> float:
    r = _check_number(r, name)
    if r < 0.0:
        raise ValueError(f"{name}={r} must be >= 0")
    return r


def _check_pattern(pattern, name: str) -> tuple[float, float, float]:
    pattern = tuple(_check_number(p, name) for p in pattern)
    if len(pattern) != 3 or any(p < 0 for p in pattern):
        raise ValueError(f"{name} must be 3 nonnegative probabilities")
    if abs(sum(pattern) - 1.0) > RATE_TOL:
        raise ValueError(f"{name} must sum to 1, got {sum(pattern)}")
    return pattern


_SIG_GRAPH = Signature((2,))
_SIG_COMMUNITY = Signature((1, 2))


class _Component:
    """Base of the jump-component kinds.

    Each kind sets its JSON type ``tag`` and defines ``validate(signature)``,
    which raises ValueError unless the component fits the process signature,
    and ``restrict(signature, n)``, which returns its level-n sampler: a
    finite ``rate`` plus ``sample_cells(rng)`` of a nonempty increment.  The
    JSON form is the tag plus the dataclass fields; each kind's
    ``__post_init__`` checks their types and ranges.
    """

    tag: str

    def to_payload(self) -> dict:
        payload = {"type": self.tag}
        for f in fields(self):
            value = getattr(self, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_payload(cls, payload: dict):
        known = {f.name for f in fields(cls)} | {"type"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"{cls.tag} component has unknown keys: {unknown}")
        return cls(**{k: v for k, v in payload.items() if k != "type"})


def _require_graph_signature(comp: _Component, signature: Signature) -> None:
    if signature not in (_SIG_GRAPH, _SIG_COMMUNITY):
        raise ValueError(f"{type(comp).__name__} requires signature (2) or (1,2)")


@dataclass(frozen=True)
class MixtureAtom(_Component):
    """Dissociated product-Bernoulli jump kernel with one flip probability
    per relation, carrying total rate ``weight``."""

    tag = "mixture_atom"
    weight: float
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", _check_rate(self.weight, "weight"))
        object.__setattr__(
            self,
            "probs",
            tuple(_check_prob(p, "flip probability") for p in self.probs),
        )

    def validate(self, signature: Signature) -> None:
        if len(self.probs) != signature.k:
            raise ValueError(
                f"mixture atom has {len(self.probs)} flip probabilities, "
                f"signature needs {signature.k}"
            )

    def restrict(self, signature: Signature, n: int):
        return _RestrictedMixture(self, signature, n)


@dataclass(frozen=True)
class SetSingletonComponent(_Component):
    """Rate ``rate`` per element i: the jump flips the single cell {i}."""

    tag = "set_singleton"
    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _check_rate(self.rate, "rate"))

    def validate(self, signature: Signature) -> None:
        if signature.arities != (1,):
            raise ValueError("set singleton component requires signature (1)")

    def restrict(self, signature: Signature, n: int):
        return _RestrictedSetSingleton(self, signature, n)


@dataclass(frozen=True)
class VertexComponent(_Component):
    """Per-vertex jumps: each edge incident to the chosen vertex flips with
    probability ``rho``; for a community signature the vertex's membership
    flips with probability ``member_prob``.  The self-loop cell is excluded
    unless ``include_loop`` is set (loops belong to the loop component)."""

    tag = "vertex"
    rate: float
    rho: float
    member_prob: float = 0.0
    include_loop: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _check_rate(self.rate, "rate"))
        rho = _check_prob(self.rho, "rho")
        if rho <= 0.0:
            raise ValueError("rho must lie in (0, 1]")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(
            self, "member_prob", _check_prob(self.member_prob, "member_prob")
        )
        if not isinstance(self.include_loop, bool):
            raise ValueError(
                f"include_loop must be a boolean, got {self.include_loop!r}"
            )

    def validate(self, signature: Signature) -> None:
        _require_graph_signature(self, signature)
        if signature == _SIG_GRAPH and self.member_prob != 0.0:
            raise ValueError("member_prob requires signature (1,2)")

    def restrict(self, signature: Signature, n: int):
        return _RestrictedVertex(self, signature, n)


@dataclass(frozen=True)
class PairComponent(_Component):
    """Per-unordered-pair jumps: for the chosen pair {i, j} (i < j), flip one
    of the nonempty subsets of {(i,j), (j,i)} drawn from ``pattern``
    (forward only, backward only, both)."""

    tag = "pair"
    rate: float
    pattern: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _check_rate(self.rate, "rate"))
        object.__setattr__(self, "pattern", _check_pattern(self.pattern, "pattern"))

    def validate(self, signature: Signature) -> None:
        _require_graph_signature(self, signature)

    def restrict(self, signature: Signature, n: int):
        return _RestrictedPair(self, signature, n)


@dataclass(frozen=True)
class LoopComponent(_Component):
    """Per-element jumps on the diagonal: flip the loop (i, i).  For a
    community signature, ``pattern`` distributes over the nonempty subsets
    of {membership flip, loop flip} (member only, loop only, both)."""

    tag = "loop"
    rate: float
    pattern: tuple[float, float, float] = (0.0, 1.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _check_rate(self.rate, "rate"))
        object.__setattr__(self, "pattern", _check_pattern(self.pattern, "pattern"))

    def validate(self, signature: Signature) -> None:
        _require_graph_signature(self, signature)
        if signature == _SIG_GRAPH and self.pattern != (0.0, 1.0, 0.0):
            raise ValueError("loop pattern other than (0,1,0) requires signature (1,2)")

    def restrict(self, signature: Signature, n: int):
        return _RestrictedLoop(self, signature, n)


@dataclass(frozen=True)
class ExplicitFinite(_Component):
    """Arbitrary finite intensity over a fixed label window."""

    tag = "explicit"
    measure: FiniteMeasure

    def __post_init__(self) -> None:
        mu = self.measure
        if mu.mass(empty_structure(mu.signature, mu.n)) != 0.0:
            raise ValueError("explicit jump intensity must not weight the empty structure")

    def validate(self, signature: Signature) -> None:
        if self.measure.signature != signature:
            raise ValueError("explicit component signature mismatch")

    def restrict(self, signature: Signature, n: int):
        return _RestrictedExplicit(self, signature, n)

    def to_payload(self) -> dict:
        return {"type": self.tag, "measure": measure_to_payload(self.measure)}

    @classmethod
    def from_payload(cls, payload: dict):
        return super().from_payload(
            {**payload, "measure": measure_from_payload(payload["measure"])}
        )


# JSON type tag -> component class
_COMPONENT_KINDS = {
    cls.tag: cls
    for cls in (
        MixtureAtom,
        SetSingletonComponent,
        VertexComponent,
        PairComponent,
        LoopComponent,
        ExplicitFinite,
    )
}


@dataclass(frozen=True)
class LevyIntensity:
    """A composite jump intensity: a sum of component intensities."""

    signature: Signature
    components: tuple

    def __post_init__(self) -> None:
        if self.signature.max_arity < 1:
            raise ValueError(
                f"process signature must have top arity >= 1, got {self.signature}"
            )
        for comp in self.components:
            if not isinstance(comp, _Component):
                raise ValueError(f"unknown component type: {type(comp).__name__}")
            comp.validate(self.signature)


class _BernoulliBlocks:
    """Independent cell flips in blocks (count, prob), conditioned on at
    least one flip overall.

    Sampling is exact: rejection when the conditioning event has probability
    at least 1%, otherwise an analytic draw of the first flipped cell in the
    global cell order followed by unconditioned flips after it.
    """

    def __init__(self, blocks):
        self.blocks = [(int(c), float(p)) for c, p in blocks if c > 0]
        none = 1.0
        for c, p in self.blocks:
            none *= (1.0 - p) ** c
        self.none_prob = none
        self.hit_prob = 1.0 - none

    def sample(self, rng) -> list[list[int]]:
        if self.hit_prob <= 0.0:
            raise ValueError("conditioning on an impossible flip event")
        if self.hit_prob >= 0.01:
            for _ in range(REJECTION_CAP):
                flips = self._unconditioned(rng)
                if any(flips):
                    return flips
            raise RuntimeError(
                f"rejection sampling failed after {REJECTION_CAP} tries"
            )
        return self._first_flip(rng)

    def _unconditioned(self, rng) -> list[list[int]]:
        flips = []
        for c, p in self.blocks:
            k = int(rng.binomial(c, p))
            if k == 0:
                flips.append([])
            else:
                flips.append(sorted(int(x) for x in rng.choice(c, size=k, replace=False)))
        return flips

    def _first_flip(self, rng) -> list[list[int]]:
        block_probs = []
        prefix_none = 1.0
        for c, p in self.blocks:
            none_b = (1.0 - p) ** c
            block_probs.append(prefix_none * (1.0 - none_b))
            prefix_none *= none_b
        u = rng.random() * self.hit_prob
        bi = len(self.blocks) - 1
        acc = 0.0
        for idx, bp in enumerate(block_probs):
            acc += bp
            if u < acc:
                bi = idx
                break
        c, p = self.blocks[bi]
        first = self._truncated_geometric(rng, c, p)
        flips: list[list[int]] = [[] for _ in self.blocks]
        flips[bi].append(first)
        remaining = c - first - 1
        if remaining > 0 and p > 0.0:
            k = int(rng.binomial(remaining, p))
            if k:
                flips[bi].extend(
                    first + 1 + int(x)
                    for x in rng.choice(remaining, size=k, replace=False)
                )
        for j in range(bi + 1, len(self.blocks)):
            cj, pj = self.blocks[j]
            k = int(rng.binomial(cj, pj))
            if k:
                flips[j].extend(
                    int(x) for x in rng.choice(cj, size=k, replace=False)
                )
        return [sorted(f) for f in flips]

    @staticmethod
    def _truncated_geometric(rng, c: int, p: float) -> int:
        if p >= 1.0:
            return 0
        tail = (1.0 - p) ** c
        u = rng.random()
        f = int(math.floor(math.log1p(-u * (1.0 - tail)) / math.log1p(-p)))
        return min(max(f, 0), c - 1)


class _LevelSampler:
    """A level-n increment sampler.  ``sample_cells_batch(rng, k)`` draws k
    independent nonempty increments, each as sorted cell indices per
    relation; ``sample_cells`` is the batch of one and ``sample`` the same
    draw as a Structure."""

    signature: Signature
    n: int

    def sample_cells(self, rng) -> list[list[int]]:
        return self.sample_cells_batch(rng, 1)[0]

    def sample(self, rng) -> Structure:
        return _structure_from_cells(self.signature, self.n, self.sample_cells(rng))


def _pattern_choice(rng, pattern_cum: np.ndarray, k: int) -> list[int]:
    """k draws of a pattern index 0, 1 or 2 from its cumulative weights."""
    picked = np.searchsorted(pattern_cum, rng.random(k), side="right")
    return np.minimum(picked, 2).tolist()


class _RestrictedMixture(_LevelSampler):
    def __init__(self, comp: MixtureAtom, signature: Signature, n: int):
        self.signature = signature
        self.n = n
        self.blocks = _BernoulliBlocks(
            [(n**a, p) for a, p in zip(signature.arities, comp.probs)]
        )
        # Blocks with zero cells are dropped inside _BernoulliBlocks; keep a
        # map from block position back to relation index.
        self.block_to_rel = [
            j for j, a in enumerate(signature.arities) if n**a > 0
        ]
        self.rate = comp.weight * self.blocks.hit_prob

    def sample_cells_batch(self, rng, k: int) -> list[list[list[int]]]:
        rows = []
        for _ in range(k):
            cells = [[] for _ in range(self.signature.k)]
            for pos, block_flips in zip(self.block_to_rel, self.blocks.sample(rng)):
                cells[pos] = block_flips
            rows.append(cells)
        return rows


class _RestrictedSetSingleton(_LevelSampler):
    def __init__(self, comp: SetSingletonComponent, signature: Signature, n: int):
        self.signature = signature
        self.n = n
        self.rate = comp.rate * n

    def sample_cells_batch(self, rng, k: int) -> list[list[list[int]]]:
        return [[[i]] for i in rng.integers(0, self.n, k).tolist()]


class _GraphSampler(_LevelSampler):
    """A component on signature (2) or (1,2): membership cells (relation 0
    of (1,2)) and edge cells (the last relation)."""

    def _rows(self, edges, members=None) -> list[list[list[int]]]:
        """Increments from per-row edge cells and, for (1,2), member cells."""
        if self.signature.k == 1:
            return [[e] for e in edges]
        if members is None:
            return [[[], e] for e in edges]
        return [[m, e] for m, e in zip(members, edges)]


class _RestrictedVertex(_GraphSampler):
    def __init__(self, comp: VertexComponent, signature: Signature, n: int):
        self.signature = signature
        self.n = n
        self.comp = comp
        self.has_member = signature == _SIG_COMMUNITY
        self.edge_cells = 2 * (n - 1) + (1 if comp.include_loop else 0)
        blocks = []
        if self.has_member:
            blocks.append((1, comp.member_prob))
        blocks.append((self.edge_cells, comp.rho))
        self.blocks = _BernoulliBlocks(blocks)
        # _BernoulliBlocks drops zero-cell blocks; track surviving positions.
        self.member_pos = None
        self.edge_pos = None
        pos = 0
        if self.has_member:
            self.member_pos = pos
            pos += 1
        if self.edge_cells > 0:
            self.edge_pos = pos
        self.rate = comp.rate * n * self.blocks.hit_prob

    def _edge_cell_index(self, v: int, x: int) -> int:
        """Cell of the x-th edge slot of the 0-based vertex v: slots 2p and
        2p + 1 are the out- and in-edge to the p-th other vertex, and the
        last slot is the loop when it is included."""
        n = self.n
        if self.comp.include_loop and x == self.edge_cells - 1:
            return v * n + v
        pair_idx, direction = divmod(x, 2)
        other = pair_idx if pair_idx < v else pair_idx + 1
        if direction == 0:
            return v * n + other
        return other * n + v

    def sample_cells_batch(self, rng, k: int) -> list[list[list[int]]]:
        members, edges = [], []
        for v in rng.integers(0, self.n, k).tolist():
            flips = self.blocks.sample(rng)
            has_member = self.member_pos is not None and flips[self.member_pos]
            members.append([v] if has_member else [])
            edges.append(
                sorted(self._edge_cell_index(v, x) for x in flips[self.edge_pos])
                if self.edge_pos is not None
                else []
            )
        return self._rows(edges, members)


class _RestrictedPair(_GraphSampler):
    def __init__(self, comp: PairComponent, signature: Signature, n: int):
        self.signature = signature
        self.n = n
        self.pattern_cum = np.array(list(accumulate(comp.pattern)))
        self.rate = comp.rate * n * (n - 1) / 2.0

    def sample_cells_batch(self, rng, k: int) -> list[list[list[int]]]:
        # an ordered pair uniform over i != j, by rejecting i == j, gives the
        # unordered pair {i, j} uniform over all pairs
        n = self.n
        a = rng.integers(0, n, k)
        b = rng.integers(0, n, k)
        tied = np.flatnonzero(a == b)
        while tied.size:
            b[tied] = rng.integers(0, n, tied.size)
            tied = tied[a[tied] == b[tied]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        fwd = (lo * n + hi).tolist()
        bwd = (hi * n + lo).tolist()
        which = _pattern_choice(rng, self.pattern_cum, k)
        edges = [
            [f] if w == 0 else [r] if w == 1 else [f, r]
            for f, r, w in zip(fwd, bwd, which)
        ]
        return self._rows(edges)


class _RestrictedLoop(_GraphSampler):
    def __init__(self, comp: LoopComponent, signature: Signature, n: int):
        self.signature = signature
        self.n = n
        self.pattern_cum = np.array(list(accumulate(comp.pattern)))
        self.rate = comp.rate * n

    def sample_cells_batch(self, rng, k: int) -> list[list[list[int]]]:
        # pattern: 0 flips the membership only, 1 the loop only, 2 both
        vertices = rng.integers(0, self.n, k).tolist()
        which = _pattern_choice(rng, self.pattern_cum, k)
        loop = self.n + 1
        members = [[v] if w != 1 else [] for v, w in zip(vertices, which)]
        edges = [[v * loop] if w != 0 else [] for v, w in zip(vertices, which)]
        return self._rows(edges, members)


def _embed(m: Structure, n: int) -> Structure:
    if n == m.n:
        return m
    return Structure.from_tuples(
        m.signature, n, [m.tuples(j) for j in range(m.signature.k)]
    )


class _RestrictedExplicit(_LevelSampler):
    def __init__(self, comp: ExplicitFinite, signature: Signature, n: int):
        self.signature = signature
        self.n = n
        mu = comp.measure
        weights: dict[Structure, float] = {}
        empty_n = empty_structure(signature, n)
        for m, w in mu.weights.items():
            image = restrict(m, n) if n < m.n else _embed(m, n)
            if image == empty_n:
                continue
            weights[image] = weights.get(image, 0.0) + w
        self.level_measure = FiniteMeasure(signature, n, weights)
        self.rate = self.level_measure.total_mass

    @cached_property
    def _inverse_cdf(self) -> tuple[list, np.ndarray]:
        """Each atom's cells and the cumulative masses, in the measure's
        sampling order; built on the first draw."""
        atoms, cum = self.level_measure.sampling_arrays()
        return [_cells(m) for m in atoms], np.array(cum)

    def sample_cells_batch(self, rng, k: int) -> list[list[list[int]]]:
        atoms, cum = self._inverse_cdf
        picked = np.searchsorted(cum, rng.random(k) * self.rate, side="right")
        return [atoms[i] for i in np.minimum(picked, len(atoms) - 1).tolist()]


class RestrictedIntensity(_LevelSampler):
    """Level-n view of an intensity: finite total rate plus a sampler for
    increments conditioned on a nonempty restriction."""

    def __init__(self, intensity: LevyIntensity, n: int):
        if n < 1:
            raise ValueError(f"resolution must be >= 1, got {n}")
        self.signature = intensity.signature
        self.n = n
        restricted = [
            comp.restrict(intensity.signature, n) for comp in intensity.components
        ]
        self.components = [rc for rc in restricted if rc.rate > RATE_TOL]
        self.component_rates = [rc.rate for rc in self.components]
        self.total_rate = math.fsum(self.component_rates)
        self._cum = np.array(list(accumulate(self.component_rates)))

    def sample_cells_batch(self, rng, k: int) -> list[list[list[int]]]:
        """k increments: every component label from one uniform draw each,
        then one batch draw per component, in the labels' order."""
        if self.total_rate <= 0.0:
            raise ValueError("cannot sample from a zero-rate intensity")
        labels = np.searchsorted(self._cum, rng.random(k) * self.total_rate, side="right")
        labels = np.minimum(labels, len(self.components) - 1)
        rows = [None] * k
        for label, comp in enumerate(self.components):
            picked = np.flatnonzero(labels == label)
            if picked.size:
                draws = comp.sample_cells_batch(rng, picked.size)
                for i, cells in zip(picked.tolist(), draws):
                    rows[i] = cells
        return rows


def _jump_chain(restricted: RestrictedIntensity, horizon: float, rng):
    """The jumps of the level-n chain on [0, horizon] in time order, one
    block at a time: the block's sorted times and each jump's cells.

    The chain is a compound Poisson process, so it is drawn exactly in time
    blocks of about ``_BLOCK_EVENTS`` expected jumps: per block, a Poisson
    jump count at the block's total rate, that many sorted uniform times in
    the block, and i.i.d. increments from the normalized restricted measure.
    Blocks are independent because Poisson increments over disjoint
    intervals are.
    """
    rate = restricted.total_rate
    if rate <= 0.0:
        return
    span = _BLOCK_EVENTS / rate
    block = 0
    while block * span < horizon:
        start = block * span
        length = min((block + 1) * span, horizon) - start
        count = int(rng.poisson(rate * length))
        times = np.minimum(start + length * np.sort(rng.random(count)), horizon)
        yield times, restricted.sample_cells_batch(rng, count)
        block += 1


def simulate_levy(
    intensity: LevyIntensity, n: int, horizon: float, rng
) -> LevyTrajectory:
    """Jump-chain simulation at resolution n over [0, horizon]."""
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    restricted = RestrictedIntensity(intensity, n)
    traj = LevyTrajectory._started(empty_structure(intensity.signature, n))
    for times, rows in _jump_chain(restricted, horizon, rng):
        traj._extend(times, *_flat_cells(rows, intensity.signature.k))
    traj._close(float(horizon))
    return traj


def restrict_trajectory(traj: LevyTrajectory, m: int) -> LevyTrajectory:
    """Project every state to [m]; jumps that vanish under restriction merge."""
    if not 0 <= m <= traj.n:
        raise ValueError(f"restriction level {m} outside 0..{traj.n}")
    arities = traj.signature.arities
    jumps = (
        (t, [_restrict_cells(c, traj.n, a, m) for c, a in zip(cells, arities)])
        for t, cells in zip(islice(traj._times, 1, None), traj._iter_jump_cells())
    )
    restricted = LevyTrajectory._started(restrict(traj._start, m))
    restricted._extend_rows((t, kept) for t, kept in jumps if any(kept))
    restricted._close(traj.horizon)
    return restricted


def marginal_flip_probability(c: float, t: float) -> float:
    """P{element i is present at time t} under the pure rate-c singleton
    intensity started from empty: (1 - exp(-2ct)) / 2."""
    if c < 0 or t < 0:
        raise ValueError("rate and time must be >= 0")
    return 0.5 * (1.0 - math.exp(-2.0 * c * t))


def expm_small(Q, t: float, dim_cap: int = 1024) -> np.ndarray:
    """exp(tQ) for a small conservative rate matrix, by scaling and squaring
    of the truncated series.  Rows of the result sum to 1 within 1e-10;
    round-off negatives above -1e-12 are clamped to zero."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be a square matrix")
    d = Q.shape[0]
    if d > dim_cap:
        raise ValueError(f"dimension {d} exceeds cap {dim_cap}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    off = Q - np.diag(np.diag(Q))
    if off.min() < -1e-12:
        raise ValueError("off-diagonal rates must be nonnegative")
    if np.abs(Q.sum(axis=1)).max() > 1e-9:
        raise ValueError("rows of a rate matrix must sum to zero")
    A = Q * t
    norm = float(np.abs(A).sum(axis=1).max()) if d else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    B = A / (2.0**squarings)
    E = np.eye(d)
    term = np.eye(d)
    for k in range(1, 40):
        term = term @ B / k
        E = E + term
        if float(np.abs(term).max()) < 1e-20:
            break
    for _ in range(squarings):
        E = E @ E
    E[(E < 0) & (E >= -1e-12)] = 0.0
    return E


# --- file formats ---------------------------------------------------------


def intensity_to_json(intensity: LevyIntensity) -> str:
    payload = {
        "signature": str(intensity.signature),
        "components": [comp.to_payload() for comp in intensity.components],
    }
    return json.dumps(payload, indent=2)


def intensity_from_json(text: str) -> LevyIntensity:
    """Parse an intensity config; unknown types and unknown keys are errors."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed intensity JSON: {exc}") from None
    try:
        signature = Signature.parse(payload["signature"])
        raw_components = payload["components"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"intensity JSON missing field: {exc}") from None
    components = []
    for raw in raw_components:
        try:
            kind = raw["type"]
            if kind not in _COMPONENT_KINDS:
                raise ValueError(f"unknown component type {kind!r}")
            components.append(_COMPONENT_KINDS[kind].from_payload(raw))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"component missing field: {exc}") from None
    return LevyIntensity(signature, tuple(components))


def trajectory_to_csv(traj: LevyTrajectory) -> str:
    text = _Formatter(traj.signature, traj.n)
    lines = ["time,structure"]
    for t, s in traj.events:
        lines.append(f"{t!r},{text(_cells(s))}")
    return "\n".join(lines) + "\n"


def _csv_rows(lines: list[str]) -> tuple[list[float], list[str]]:
    """The times and structure texts of full-state CSV rows."""
    rows = [ln.partition(",") for ln in lines]
    return [_csv_time(t) for t, _, _ in rows], [s for _, _, s in rows]


def _csv_time(time_text: str) -> float:
    try:
        return float(time_text)
    except ValueError:
        raise ValueError(f"malformed time: {time_text!r}") from None


def trajectory_from_csv(text: str, horizon: float | None = None) -> LevyTrajectory:
    """Read a full-state CSV.  The format does not record the horizon, so it
    is the last event time unless ``horizon`` is given.

    Rows are parsed a batch at a time (see ``structures._line_batches``)
    with one parser, bound to the first row's signature and n, and logged
    as the sorted symmetric differences of consecutive rows.
    """
    batches = _line_batches(text)
    header, *rest = next(batches, [""])
    if header != "time,structure":
        raise ValueError("trajectory CSV must start with header 'time,structure'")
    batches = (_csv_rows(lines) for lines in chain([rest], batches) if lines)
    times, texts = next(batches, (None, None))
    if times is None:
        raise ValueError("trajectory CSV has no events")
    if times[0] != 0.0:
        raise ValueError(f"first event must be at time 0, got {times[0]}")
    parser = _Parser.of(texts[0])
    rows = _cell_lists(*parser.batch(texts[:1]))
    traj = LevyTrajectory._started(_structure_from_cells(parser.signature, parser.n, rows[0]))
    for times, texts in chain([(times[1:], texts[1:])], batches):
        rows = rows[-1:] + _cell_lists(*parser.batch(texts))
        traj._extend(times, *_flat_cells(_row_increments(rows), parser.signature.k))
    traj._close(traj._times[-1] if horizon is None else horizon)
    return traj


def events_to_jsonl(traj: LevyTrajectory, seed: int | None = None) -> str:
    """Event-stream form: a header record, then one jump increment per line.

    A path that starts at the empty structure, the canonical start, has no
    ``init`` field in its header; any other start state is written there.
    """
    header = {
        "signature": str(traj.signature),
        "n": traj.n,
        "T": traj.horizon,
        "seed": seed,
    }
    if not traj._start.is_empty():
        header["init"] = serialize(traj._start)
    lines = [json.dumps(header, sort_keys=True)]
    text = _Formatter(traj.signature, traj.n)
    # Through ``jump_increments()``: bench/tracing.py reports that call as
    # the ``levy.jump_increments`` layer.
    increments = traj.jump_increments()
    # Each record is what json.dumps(..., sort_keys=True) gives: the
    # structure text needs no escaping and a finite float's JSON is its repr.
    for t, cells in zip(islice(traj._times, 1, None), increments.cells()):
        lines.append(f'{{"increment": "{text(cells)}", "t": {t!r}}}')
    return "\n".join(lines) + "\n"


def _text_field(record: dict, name: str) -> str:
    value = record[name]
    if not isinstance(value, str):
        raise ValueError(f"event-stream field {name!r} must be a string, got {value!r}")
    return value


def _int_field(record: dict, name: str) -> int:
    value = record[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"event-stream field {name!r} must be an integer, got {value!r}")
    return value


def _header(text: str) -> tuple[Structure, float]:
    """Start state and horizon of an event-stream header.  Fields are
    type-checked rather than coerced: n an integer, T a finite number > 0,
    seed (optional) an integer or null."""
    header = json.loads(text)
    signature = Signature.parse(_text_field(header, "signature"))
    n = _int_field(header, "n")
    horizon = _check_number(header["T"], "event-stream field 'T'")
    if horizon <= 0.0:
        raise ValueError(f"event-stream field 'T' must be > 0, got {horizon}")
    if header.get("seed") is not None:
        _int_field(header, "seed")
    if "init" in header:
        state = parse(_text_field(header, "init"))
    else:
        state = empty_structure(signature, n)
    if state.signature != signature or state.n != n:
        raise ValueError(
            f"initial state {serialize(state)} does not match the header's "
            f"signature {signature} and n={n}"
        )
    return state, horizon


# An event record as events_to_jsonl writes it: JSON reads such a line as
# this increment string (no quote, backslash or control character in it)
# and, for a time of at most 17 integer digits and no sign, as the float
# its text gives.
_RECORD = re.compile(
    r'\{"increment": "([^"\\\x00-\x1f]*)", '
    r'"t": ((?:0|[1-9][0-9]{0,16})(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)\}'
)


def _records(lines: list[str]) -> tuple[list[float], list[str]]:
    """The times and increment texts of event records; a line in the
    writer's form skips the JSON parse."""
    times, texts = [], []
    for line in lines:
        match = _RECORD.fullmatch(line)
        if match:
            inc_text, t = match.group(1), float(match.group(2))
        else:
            try:
                record = json.loads(line)
                t = record["t"]
                if isinstance(t, bool) or not isinstance(t, numbers.Real):
                    raise ValueError(f"event-stream field 't' must be a number, got {t!r}")
                t = float(t)
                inc_text = _text_field(record, "increment")
            except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
                raise ValueError(f"malformed event record: {exc}") from None
        times.append(t)
        texts.append(inc_text)
    return times, texts


def events_from_jsonl(text: str) -> LevyTrajectory:
    """Read an event stream, a batch of records at a time (see
    ``structures._line_batches``)."""
    batches = _line_batches(text)
    header, *rest = next(batches, [""])
    if not header:
        raise ValueError("empty event stream")
    try:
        state, horizon = _header(header)
    except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed event-stream header: {exc}") from None
    parser = _Parser(state.signature, state.n)
    traj = LevyTrajectory._started(state)
    for lines in chain([rest], batches):
        times, texts = _records(lines)
        try:
            cells, counts = parser.batch(texts)
        except _BatchError as exc:
            raise ValueError(f"increment at t={times[exc.index]}: {exc}") from None
        traj._extend(times, cells, counts)
    traj._close(horizon)
    return traj
