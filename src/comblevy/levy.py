"""Continuous-time jump processes driven by sigma-finite intensities.

An intensity is a finite list of components, each describing a family of
jump increments together with a rate:

* ``MixtureAtom`` - a dissociated product-Bernoulli kernel: every cell of
  relation j flips independently with probability ``probs[j]``; the whole
  atom carries rate ``weight``.
* ``VertexComponent`` - flips of the edges at one vertex, and its membership.
* ``LocalComponent`` - at rate r per k-subset of the labels, a pattern over
  [k] from a finite measure, carried onto the subset; its builders
  ``SetSingletonComponent``, ``PairComponent`` and ``LoopComponent``.
* ``ExplicitFinite`` - an arbitrary finite measure on increments over a
  fixed label window, with zero mass on the empty structure.

At a finite resolution n, every component restricts to a finite total rate
with an explicit conditional increment law given a nonempty restriction, so
the level-n process is compound Poisson: a Poisson number of jumps at the
total restricted rate, at sorted uniform times, each with an independent
increment (component chosen proportionally to its rate, then one
conditional draw).  ``simulate_levy`` draws it that way, in batches
(see ``_jump_chain``), into a :class:`~comblevy.trajectory.LevyTrajectory`
log a block at a time.  Each component draws a batch's increments at once;
the mixture atom's and the vertex component's product-Bernoulli flips,
conditioned on at least one, come from one exact batched draw (see
``_BernoulliBlocks``).  The trajectory readers at the end of this module
build that log a batch of parsed records at a time too.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
import re
from itertools import accumulate, chain
from typing import ClassVar, TextIO

import numpy as np

from .measures import (
    FiniteMeasure,
    _json_object,
    _json_objects,
    measure_from_payload,
    measure_to_payload,
)
from .structures import (
    Signature,
    Structure,
    _BatchError,
    _lines,
    _text_batches,
    _formatter,
    _Parser,
    _cell_lists,
    _check_cell_range,
    _restrict_columns,
    _row_major,
    _structure_from_cells,
    empty_structure,
    parse,
    restrict,
    serialize,
)
from .trajectory import LevyTrajectory
from .value import Value

__all__ = [
    "MixtureAtom",
    "LocalComponent",
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
    "intensity_to_json",
    "intensity_from_json",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "events_to_jsonl",
    "events_from_jsonl",
]

RATE_TOL = 1e-12
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
    pattern = tuple(_check_prob(p, name) for p in pattern)
    if len(pattern) != 3 or abs(sum(pattern) - 1.0) > RATE_TOL:
        raise ValueError(f"{name} must be 3 probabilities summing to 1, got {pattern}")
    return pattern


_SIG_GRAPH = Signature((2,))
_SIG_COMMUNITY = Signature((1, 2))


class _Component(Value):
    """Base of the jump-component kinds.

    Each kind sets its JSON type ``tag`` and defines ``validate(signature)``,
    which raises ValueError unless the component fits the process signature,
    and ``restrict(signature, n)``, which returns its level-n sampler: a
    finite ``rate`` plus ``sample_cells_batch(rng, k)``, k nonempty increments.  The
    JSON form is the tag plus the value fields, a measure as measure JSON
    (``_component_from_payload``); ``__post_init__`` checks types and ranges.
    """

    tag: ClassVar[str]

    def to_payload(self) -> dict:
        payload = {"type": self.tag}
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, FiniteMeasure):
                value = measure_to_payload(value)
            payload[name] = list(value) if isinstance(value, tuple) else value
        return payload


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
        if signature not in (_SIG_GRAPH, _SIG_COMMUNITY):
            raise ValueError("VertexComponent requires signature (2) or (1,2)")
        if signature == _SIG_GRAPH and self.member_prob != 0.0:
            raise ValueError("member_prob requires signature (1,2)")

    def restrict(self, signature: Signature, n: int):
        return _RestrictedVertex(self, signature, n)


class LocalComponent(_Component):
    """Rate ``rate`` per k-subset of the labels, k = ``measure.n`` >= 1: the
    jump flips a pattern drawn from ``measure``, a finite measure nu over
    [k], carried onto the subset by the increasing map from [k].  Every cell
    of nu's support uses all k labels, so a jump restricted to [m] is empty
    unless its subset lies in [m], and the level-n rate is ``rate`` C(n, k)
    |nu| at every n (the mapping theorem; Kingman 1993).  nu's relations
    flip the process relations of their arities (``_relation_slots``)."""

    tag = "local"
    rate: float
    measure: FiniteMeasure

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _check_rate(self.rate, "rate"))
        mu = self.measure
        if mu.n < 1:
            raise ValueError(f"local pattern measure must be over [k], k >= 1, got n={mu.n}")
        labels = set(range(1, mu.n + 1))
        for m in mu.support():
            if m.is_empty():
                raise ValueError("local pattern measure must not weight the empty structure")
            for j in range(m.signature.k):
                for cell in (c for c in m.tuples(j) if set(c) != labels):
                    text = f"({','.join(map(str, cell))}) of relation {j + 1}"
                    raise ValueError(f"local pattern cell {text} does not use all {mu.n} labels")

    def validate(self, signature: Signature) -> None:
        _relation_slots(self.measure.signature, signature)

    def restrict(self, signature: Signature, n: int):
        return _RestrictedLocal(self, signature, n)


def _relation_slots(pattern: Signature, signature: Signature) -> list[int]:
    """The process relation that each relation of a local pattern signature
    flips: the first one of the same arity after the previous one's; a
    process relation left over never flips."""
    slots = [-1]
    for arity in pattern.arities:
        if arity not in signature.arities[slots[-1] + 1:]:
            raise ValueError(f"local pattern signature {pattern} does not fit {signature}")
        slots.append(signature.arities.index(arity, slots[-1] + 1))
    return slots[1:]


def _local(rate: float, signature: Signature, k: int, patterns) -> LocalComponent:
    """The local component whose measure puts mass w on the structure over
    [k] with the tuples ``relations``, for each (w, relations) of ``patterns``."""
    return LocalComponent(rate, FiniteMeasure(signature, k, {
        Structure.from_tuples(signature, k, relations): w for w, relations in patterns
    }))


def SetSingletonComponent(rate: float) -> LocalComponent:
    """Rate ``rate`` per element i: the jump flips the single cell {i}."""
    return _local(rate, Signature((1,)), 1, [(1.0, [[1]])])


def PairComponent(rate: float, pattern=(1 / 3, 1 / 3, 1 / 3)) -> LocalComponent:
    """Per-unordered-pair jumps: for the chosen pair {i, j} (i < j), flip one
    of the nonempty subsets of {(i,j), (j,i)} drawn from ``pattern``
    (forward only, backward only, both)."""
    fwd, bwd, both = _check_pattern(pattern, "pattern")
    return _local(rate, _SIG_GRAPH, 2, [(fwd, [[(1, 2)]]), (bwd, [[(2, 1)]]),
                                        (both, [[(1, 2), (2, 1)]])])


def LoopComponent(rate: float, pattern=(0.0, 1.0, 0.0)) -> LocalComponent:
    """Per-element jumps on the diagonal: flip the loop (i, i).  For a
    community signature, ``pattern`` distributes over the nonempty subsets
    of {membership flip, loop flip} (member only, loop only, both)."""
    member, loop, both = _check_pattern(pattern, "pattern")
    if member == both == 0.0:
        return _local(rate, _SIG_GRAPH, 1, [(1.0, [[(1, 1)]])])
    return _local(rate, _SIG_COMMUNITY, 1, [(member, [[1], []]), (loop, [[], [(1, 1)]]),
                                            (both, [[1], [(1, 1)]])])


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


# JSON type tag -> component class, or the local component builder of the tag
_COMPONENT_KINDS = {
    **{cls.tag: cls for cls in (MixtureAtom, VertexComponent, LocalComponent, ExplicitFinite)},
    "set_singleton": SetSingletonComponent,
    "pair": PairComponent,
    "loop": LoopComponent,
}


class LevyIntensity(Value):
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
    least one flip overall.  Cells are ordered block by block; a block of no
    cells or probability 0 flips none.

    ``sample(rng, rows)`` draws ``rows`` flip sets exactly, in two steps.
    First each row's first flipped cell: its block by inverse CDF (block b
    holds the first flip with probability P(no flip before b) P(some flip
    in b)), then its place in the block by a truncated geometric.  Then the
    cells after it, in its block and every later one, as runs of geometric
    gaps: cells where a run of i.i.d. Geometric(p) gaps lands flip
    independently with probability p (Devroye 1986, ch. X.2).  Each block
    draws its runs in rounds of one scalar-p ``rng.geometric`` call, each
    round about enough gaps to pass the block's end, until every run has.
    """

    def __init__(self, blocks):
        self.blocks = [(int(c), float(p)) for c, p in blocks]
        none = [(1.0 - p) ** c for c, p in self.blocks]  # P(no flip in block b)
        self.hit_prob = 1.0 - math.prod(none)
        self._hit = 1.0 - np.array(none)
        first_in = self._hit * np.cumprod([1.0, *none])[:-1]  # P(first flip in b)
        self._cum = np.cumsum(first_in)
        self._last = len(np.trim_zeros(first_in, "b")) - 1
        self._count = np.array([c for c, _ in self.blocks], np.int64)
        with np.errstate(divide="ignore"):  # log(1 - p) = -inf at p = 1
            self._log_q = np.log1p(-np.array([p for _, p in self.blocks]))

    def sample(self, rng, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """The flat column of every row's flipped cells, row by row, block
        by block within a row and ascending within a block, and the
        (rows x blocks) counts of them."""
        if self.hit_prob <= 0.0:
            raise ValueError("conditioning on an impossible flip event")
        k = len(self.blocks)
        u = rng.random(rows) * self._cum[-1]
        block = np.minimum(np.searchsorted(self._cum, u, side="right"), self._last)
        # a truncated geometric: P(first = j) is proportional to (1 - p)^j p, j < c
        first = np.floor(np.log1p(-rng.random(rows) * self._hit[block]) / self._log_q[block])
        first = np.minimum(first, self._count[block] - 1).astype(np.int64)
        runs, cells = [np.arange(rows) * k + block], [first]
        for j, (c, p) in enumerate(self.blocks):
            if not (c and p):
                continue
            row = np.flatnonzero(block <= j)
            at = np.where(block[row] == j, first[row], -1)
            while row.size:
                # the mean number of gaps that takes the earliest run past c
                gaps = int(math.ceil((c - 1 - at.min()) * p)) + 1
                ahead = at[:, None] + np.cumsum(rng.geometric(p, (row.size, gaps)), axis=1)
                inside = ahead < c
                runs.append(np.repeat(row * k + j, inside.sum(axis=1)))
                cells.append(ahead[inside])
                going = inside[:, -1]
                row, at = row[going], ahead[going, -1]
        runs = np.concatenate(runs)
        order = np.argsort(runs, kind="stable")
        counts = np.bincount(runs, minlength=rows * k).reshape(rows, k)
        return np.concatenate(cells)[order], counts


class _LevelSampler:
    """A level-n increment sampler.  ``sample_cells_batch(rng, k)`` draws k
    independent nonempty increments as columns: one flat int64 column of
    their sorted cells, increment by increment and relation by relation
    within one, and the (k x relations) array of how many each holds (the
    layout of ``structures._Parser.batch``, which the log takes).
    ``sample`` is the batch of one as a Structure."""

    signature: Signature
    n: int

    def sample(self, rng) -> Structure:
        cells, = _cell_lists(*self.sample_cells_batch(rng, 1))
        return _structure_from_cells(self.signature, self.n, cells)


class _RestrictedMixture(_LevelSampler):
    def __init__(self, comp: MixtureAtom, signature: Signature, n: int):
        self.signature = signature
        self.n = n
        self.blocks = _BernoulliBlocks(
            [(n**a, p) for a, p in zip(signature.arities, comp.probs)]
        )
        self.rate = comp.weight * self.blocks.hit_prob

    def sample_cells_batch(self, rng, k: int) -> tuple[np.ndarray, np.ndarray]:
        return self.blocks.sample(rng, k)


class _RestrictedVertex(_LevelSampler):
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
        self.blocks = _BernoulliBlocks(blocks)  # membership first, edges last
        self.rate = comp.rate * n * self.blocks.hit_prob

    def _edge_cells(self, v: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Cells of the x-th edge slots of the 0-based vertices v: slots 2p
        and 2p + 1 are the out- and in-edge to the p-th other vertex, and
        the last slot is the loop when it is included."""
        n = self.n
        other, inward = np.divmod(x, 2)
        other += other >= v
        cells = np.where(inward == 1, other * n + v, v * n + other)
        if self.comp.include_loop:
            cells = np.where(x == self.edge_cells - 1, v * (n + 1), cells)
        return cells

    def sample_cells_batch(self, rng, k: int) -> tuple[np.ndarray, np.ndarray]:
        vertices = rng.integers(0, self.n, k)
        slots, flips = self.blocks.sample(rng, k)
        # a row's slots are its membership flip, if any, then its edge slots
        last = flips.shape[1] - 1
        edge = np.repeat(np.tile(np.arange(last + 1) == last, k), flips.ravel())
        sizes = flips[:, -1]
        row = np.repeat(np.arange(k), sizes)
        cells = self._edge_cells(vertices[row], slots[edge])
        edges = cells[np.lexsort((cells, row))], sizes
        if not self.has_member:
            return edges[0], flips
        member = flips[:, 0] == 1
        return _row_major([(vertices[member], member), edges], k)


class _RestrictedLocal(_LevelSampler):
    """A local component at level n.  Each jump draws k distinct labels and
    a pattern of nu, and maps the pattern's cells through the labels in
    increasing order, which keeps each relation's cells sorted."""

    def __init__(self, comp: LocalComponent, signature: Signature, n: int):
        self.signature, self.n = signature, n
        self.measure = mu = comp.measure
        self.rate = comp.rate * math.comb(n, mu.n) * mu.total_mass
        support, width = mu.support(), signature.max_arity
        cells = [cell for m in support for j in range(mu.signature.k) for cell in m.tuples(j)]
        # per tuple position of each pattern cell, in nu's sampling order: its
        # label's place among the k, and weight in the cell's code over [n]
        self.places, self.weights = (np.array(table, np.int64).reshape(-1, width).T for table in (
            [[c[i] - 1 if i < len(c) else 0 for i in range(width)] for c in cells],
            [[n ** (len(c) - 1 - i) if i < len(c) else 0 for i in range(width)] for c in cells],
        ))
        self.counts = np.zeros((len(support), signature.k), np.int64)
        self.counts[:, _relation_slots(mu.signature, signature)] = [
            [m.tuple_count(j) for j in range(mu.signature.k)] for m in support]
        self.sizes = self.counts.sum(axis=1)
        self.first = np.cumsum(self.sizes) - self.sizes  # each pattern's first cell

    def _labels(self, rng, rows: int) -> np.ndarray:
        """Each row's k distinct labels over [n], 0-based and ascending, as
        k columns one after another.  A column's draw that ties an earlier
        column of its row is drawn again, so each row's set is uniform."""
        columns = [rng.integers(0, self.n, rows)]
        for _ in range(1, self.measure.n):
            column, tied = np.empty(rows, np.int64), np.arange(rows)
            while tied.size:
                column[tied] = rng.integers(0, self.n, tied.size)
                tied = tied[np.any([column[tied] == c[tied] for c in columns], axis=0)]
            columns.append(column)
        for end in range(len(columns) - 1, 0, -1):  # a bubble sort, by columns
            for i in range(end):
                pair = columns[i : i + 2]
                columns[i : i + 2] = np.minimum(*pair), np.maximum(*pair)
        return np.concatenate(columns)

    def sample_cells_batch(self, rng, k: int) -> tuple[np.ndarray, np.ndarray]:
        labels = self._labels(rng, k)  # label i of row r at i * k + r
        picked = self.measure._pick(rng, k)
        sizes = self.sizes[picked]
        row = np.repeat(np.arange(k), sizes)
        # batch cell i is cell i - (its row's start) of its row's pattern
        cell = np.arange(len(row)) + (self.first[picked] + sizes - np.cumsum(sizes))[row]
        cells = np.zeros(len(cell), np.int64)
        for places, weights in zip(self.places, self.weights):
            cells += labels[places[cell] * k + row] * weights[cell]
        return cells, self.counts[picked]


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

    def sample_cells_batch(self, rng, k: int) -> tuple[np.ndarray, np.ndarray]:
        return self.level_measure.sample_cells_batch(rng, k)


class RestrictedIntensity(_LevelSampler):
    """Level-n view of an intensity: finite total rate plus a sampler for
    increments conditioned on a nonempty restriction."""

    def __init__(self, intensity: LevyIntensity, n: int):
        if n < 1:
            raise ValueError(f"resolution must be >= 1, got {n}")
        _check_cell_range(intensity.signature, n)
        self.signature = intensity.signature
        self.n = n
        restricted = [
            comp.restrict(intensity.signature, n) for comp in intensity.components
        ]
        self.components = [rc for rc in restricted if rc.rate > RATE_TOL]
        self.component_rates = [rc.rate for rc in self.components]
        self.total_rate = math.fsum(self.component_rates)
        self._cum = np.array(list(accumulate(self.component_rates)))

    def sample_cells_batch(self, rng, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k increments: every component label from one uniform draw each,
        then one batch draw per component, in the labels' order; the
        components' columns are merged into row order by one stable sort
        on each cell's row."""
        if self.total_rate <= 0.0:
            raise ValueError("cannot sample from a zero-rate intensity")
        labels = np.searchsorted(self._cum, rng.random(k) * self.total_rate, side="right")
        labels = np.minimum(labels, len(self.components) - 1)
        draws = []
        for label, comp in enumerate(self.components):
            picked = np.flatnonzero(labels == label)
            if picked.size:
                draws.append((picked, *comp.sample_cells_batch(rng, picked.size)))
        counts = np.zeros((k, self.signature.k), np.int64)
        cells, rows = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for picked, comp_cells, comp_counts in draws:
            counts[picked] = comp_counts
            cells.append(comp_cells)
            rows.append(np.repeat(picked, comp_counts.sum(axis=1)))
        return np.concatenate(cells)[np.argsort(np.concatenate(rows), kind="stable")], counts


def _jump_chain(restricted: RestrictedIntensity, horizon: float, rng):
    """The jumps of the level-n chain on [0, horizon] in time order, one
    block at a time: the block's sorted times and the jumps' cell columns
    (see ``_LevelSampler``).

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
    for times, columns in _jump_chain(restricted, horizon, rng):
        traj._extend(times, *columns)
    traj._close(float(horizon))
    return traj


def restrict_trajectory(traj: LevyTrajectory, m: int) -> LevyTrajectory:
    """Project every state to [m], into a path of ``traj``'s type.  The log
    is restricted ``_BLOCK_EVENTS`` jumps at a time by one column kernel
    (``structures._restrict_columns``).  Jumps that vanish under restriction
    are dropped, so their neighbours merge, unless the path allows empty
    jumps: a walk restricted to [m] keeps every step."""
    if not 0 <= m <= traj.n:
        raise ValueError(f"restriction level {m} outside 0..{traj.n}")
    restricted = type(traj)._started(restrict(traj._start, m))
    for times, cells, counts in traj.jump_increments().blocks(_BLOCK_EVENTS):
        cells, counts = _restrict_columns(traj.signature, traj.n, m, cells, counts)
        if not traj._empty_jumps:
            kept = counts.any(axis=1)
            times, counts = np.compress(kept, times), counts[kept]
        restricted._extend(times, cells, counts)
    restricted._close(traj.horizon)
    return restricted


def marginal_flip_probability(c: float, t: float) -> float:
    """P{element i is present at time t} under the pure rate-c singleton
    intensity started from empty: (1 - exp(-2ct)) / 2."""
    if c < 0 or t < 0:
        raise ValueError("rate and time must be >= 0")
    return 0.5 * (1.0 - math.exp(-2.0 * c * t))


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
        payload = _json_object(json.loads(text), "intensity JSON")
        signature = Signature.parse(payload["signature"])
        raw_components = _json_objects(payload["components"], "intensity field 'components'")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed intensity JSON: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"intensity JSON missing field: {exc}") from None
    components = []
    for raw in raw_components:
        try:
            components.append(_component_from_payload(raw))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"component missing field: {exc}") from None
    return LevyIntensity(signature, tuple(components))


def _component_from_payload(payload: dict) -> _Component:
    """The component of a JSON object: its class's or builder's fields, a
    ``measure`` read as measure JSON; an unknown key is an error."""
    kind = payload["type"]
    if kind not in _COMPONENT_KINDS:
        raise ValueError(f"unknown component type {kind!r}")
    build = _COMPONENT_KINDS[kind]
    fields = build._fields if isinstance(build, type) else inspect.signature(build).parameters
    unknown = sorted(set(payload) - {*fields, "type"})
    if unknown:
        raise ValueError(f"{kind} component has unknown keys: {unknown}")
    values = {k: v for k, v in payload.items() if k != "type"}
    if "measure" in values:
        measure = _json_object(values["measure"], f"{kind} component field 'measure'")
        values["measure"] = measure_from_payload(measure)
    return build(**values)


def trajectory_to_csv(traj: LevyTrajectory) -> str:
    """Full-state CSV: one ``time,structure`` row per event (see
    ``LevyTrajectory._to_csv``)."""
    return traj._to_csv("time", "%r")


# A time as the writers write a finite float and the readers read it.
_TIME = r"(?:0|[1-9][0-9]{0,16})(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_TIMES = re.compile(f"(?:{_TIME}\n)*")


def _csv_times(keys, first: int) -> list[float]:
    """The event times that the time fields ``keys`` give, each written as
    the event-stream reader reads a time (``_TIME``)."""
    if not _TIMES.fullmatch("\n".join(keys) + "\n"):
        key = next(key for key in keys if not re.fullmatch(_TIME, key))
        raise ValueError(f"malformed time: {key!r}")
    return list(map(float, keys))


def trajectory_from_csv(text: str | TextIO, horizon: float | None = None) -> LevyTrajectory:
    """Read a full-state CSV, a str or an open text file (see
    ``LevyTrajectory._from_csv``).  The format
    does not record the horizon, so it is the last event time unless
    ``horizon`` is given."""
    return LevyTrajectory._from_csv(text, "time", _csv_times, horizon)


def events_to_jsonl(traj: LevyTrajectory, seed: int | None = None) -> str:
    """Event-stream form: a header record, then one jump increment per line,
    formatted a block of jumps at a time straight from the log.

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
    chunks = [json.dumps(header, sort_keys=True) + "\n"]
    text = _formatter(traj.signature, traj.n)
    # Each record is what json.dumps(..., sort_keys=True) gives: the
    # structure text needs no escaping and a finite float's JSON is its repr.
    line = f'{{"increment": "{text.form}", "t": %s}}\n'
    # Through ``jump_increments()``: bench/tracing.py reports that call as
    # the ``levy.jump_increments`` layer.
    for times, cells, counts in traj.jump_increments().blocks(text.block):
        chunks.append(text.records(cells, counts, line, list(map(repr, times))))
    return "".join(chunks)


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
    type-checked rather than coerced: n an integer, T a finite number >= 0,
    seed (optional) an integer or null; any defect raises ValueError."""
    try:
        header = _json_object(json.loads(text), "event-stream header")
        signature = Signature.parse(_text_field(header, "signature"))
        n = _int_field(header, "n")
        horizon = _check_number(header["T"], "event-stream field 'T'")
        if horizon < 0.0:
            raise ValueError(f"event-stream field 'T' must be >= 0, got {horizon}")
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
    except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed event-stream header: {exc}") from None
    return state, horizon


# An event record as events_to_jsonl writes it, with %s for the increment:
# JSON reads such a line, for an increment with no quote, backslash or
# control character in it, as this increment string and, for a time of
# ``_TIME``'s form, at most 17 integer digits and no sign, as the float its
# text gives.
_RECORD_FORM = r'\{"increment": "%s", "t": (' + _TIME + r")\}"


def _records(lines: list[str]) -> tuple[list[float], list[str]]:
    """The times and increment texts of event records, one JSON line each."""
    times, texts = [], []
    for line in lines:
        try:
            record = _json_object(json.loads(line), "event record")
            t = record["t"]
            if isinstance(t, bool) or not isinstance(t, numbers.Real):
                raise ValueError(f"event-stream field 't' must be a number, got {t!r}")
            times.append(float(t))
            texts.append(_text_field(record, "increment"))
        except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed event record: {exc}") from None
    return times, texts


def _record_columns(parser: _Parser, records: re.Pattern, piece: str):
    """The times and cell columns of the event records in the text
    ``piece``.  One ``findall`` of ``records`` splits it into lines, each
    either a record in the writer's form with a canonical increment, whose
    relation bodies, time and line end it captures, or any other line.  If
    every line is such a record, its labels are decoded and checked at
    once; otherwise the piece is read line by line (``_records``,
    ``_Parser.batch``), so every rejection names its defect."""
    *bodies, times, _ = list(zip(*records.findall(piece))) or [()] * (parser.signature.k + 2)
    if all(times):
        columns = parser.columns(bodies, len(times))
        if columns is not None:
            return list(map(float, times)), *columns
    times, texts = _records(_lines(piece))
    try:
        return times, *parser.batch(texts)
    except _BatchError as exc:
        raise ValueError(f"increment at t={times[exc.index]}: {exc}") from None


def events_from_jsonl(text: str | TextIO) -> LevyTrajectory:
    """Read an event stream, a str or an open text file, a piece of text at
    a time (see ``structures._text_batches`` and ``_record_columns``)."""
    pieces = _text_batches(text)
    header, *rest = next(filter(None, map(_lines, pieces)), [""])
    if not header:
        raise ValueError("empty event stream")
    state, horizon = _header(header)
    parser = _Parser(state.signature, state.n)
    # a record line, its relation bodies, time and line end captured (so
    # findall gives a tuple per line, also for k = 0), or any line
    records = re.compile(_RECORD_FORM % parser.grammar.pattern + r"(\r?\n|\Z)|[^\n]*\n|[^\n]+")
    traj = LevyTrajectory._started(state)
    for piece in chain(["\n".join(rest)], pieces):
        traj._extend(*_record_columns(parser, records, piece))
    traj._close(horizon)
    return traj
