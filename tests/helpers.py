"""Shared test utilities: random structure generation and naive oracles.

The naive implementations here re-derive the defining formulas directly
(full-cell enumeration, no bitmask shortcuts) so library results can be
checked against an independent route.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import comblevy
from comblevy.levy import (
    RestrictedIntensity,
    _RestrictedExplicit,
    _RestrictedLocal,
    _RestrictedMixture,
    _RestrictedVertex,
)
from comblevy.measures import FiniteMeasure, OrbitWeights, measure_to_payload
from comblevy.orbits import OrbitId, orbit_members, orbit_of
from comblevy.structures import (
    Permutation,
    Signature,
    Structure,
    _cell_lists,
    _cells,
    _flat_cells,
    increment,
)
from comblevy.trajectory import LevyTrajectory
from comblevy.walk import WalkTrajectory


def run_python(args, cwd) -> subprocess.CompletedProcess:
    """Run ``python *args`` in ``cwd`` on the tree the tests imported.

    The directory holding the imported package (``src/`` of a checkout, or
    site-packages) goes first on the child's ``PYTHONPATH``, ahead of any
    inherited entries, so a relative entry such as ``src`` cannot lose the
    package once the child runs in another working directory.
    """
    package_root = Path(comblevy.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package_root), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *[str(a) for a in args]],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def run_comblevy(args, cwd) -> subprocess.CompletedProcess:
    """Run ``python -m comblevy *args`` in ``cwd`` (see :func:`run_python`)."""
    return run_python(["-m", "comblevy", *args], cwd)


def random_structure(rng, signature: Signature, n: int, density: float = 0.5) -> Structure:
    relations = []
    for arity in signature.arities:
        cells = n**arity
        flips = np.nonzero(rng.random(cells) < density)[0]
        tuples = [decode_cell(int(i), n, arity) for i in flips]
        relations.append(tuples)
    return Structure.from_tuples(signature, n, relations)


def random_permutation(rng, n: int) -> Permutation:
    return Permutation(n, tuple(int(v) + 1 for v in rng.permutation(n)))


def decode_cell(idx: int, n: int, arity: int) -> tuple[int, ...]:
    entries = [0] * arity
    for pos in range(arity - 1, -1, -1):
        entries[pos] = idx % n + 1
        idx //= n
    return tuple(entries)


def all_cells(n: int, arity: int):
    return itertools.product(range(1, n + 1), repeat=arity)


def tuple_sets(m: Structure) -> list[set]:
    return [set(m.tuples(j)) for j in range(m.signature.k)]


def naive_relabel(m: Structure, sigma: Permutation) -> Structure:
    """Definition-level relabeling: a is present iff sigma(a) is present."""
    rels = tuple_sets(m)
    out = []
    for j, arity in enumerate(m.signature.arities):
        out.append(
            [
                t
                for t in all_cells(m.n, arity)
                if tuple(sigma(a) for a in t) in rels[j]
            ]
        )
    return Structure.from_tuples(m.signature, m.n, out)


def naive_restrict(m: Structure, size: int) -> Structure:
    rels = tuple_sets(m)
    out = []
    for j, arity in enumerate(m.signature.arities):
        out.append(
            [t for t in all_cells(size, arity) if t in rels[j]]
        )
    return Structure.from_tuples(m.signature, size, out)


def naive_increment(m1: Structure, m2: Structure) -> Structure:
    r1, r2 = tuple_sets(m1), tuple_sets(m2)
    out = []
    for j, arity in enumerate(m1.signature.arities):
        out.append(
            [t for t in all_cells(m1.n, arity) if (t in r1[j]) != (t in r2[j])]
        )
    return Structure.from_tuples(m1.signature, m1.n, out)


def levy_path(horizon: float, events) -> LevyTrajectory:
    """The path through the full-state events ``(t, state)``, the first the
    start at time 0, logged as the simulators and readers log theirs:
    ``_started`` at the start, one ``_extend`` with the increments between
    consecutive states, ``_close`` at ``horizon``."""
    return _logged(LevyTrajectory, horizon, events)


def walk_path(states) -> WalkTrajectory:
    """The walk through the states X_0, ..., X_T (see :func:`levy_path`)."""
    return _logged(WalkTrajectory, len(states) - 1, enumerate(states))


def _logged(cls, horizon: float, events):
    (t0, start), *rest = events
    assert t0 == 0.0, t0
    traj = cls._started(start)
    states = [start, *(state for _, state in rest)]
    jumps = [_cells(increment(b, a)) for a, b in zip(states, states[1:])]
    traj._extend([t for t, _ in rest], *_flat_cells(jumps, start.signature.k))
    traj._close(float(horizon))
    return traj


def csv_jumps(text: str) -> list[Structure]:
    """The jumps of a full-state CSV read the plain way: every row's
    structure parsed whole by ``parse`` and consecutive states XOR-ed."""
    states = [comblevy.parse(line.partition(",")[2]) for line in text.splitlines()[1:]]
    return [naive_increment(a, b) for a, b in zip(states, states[1:])]


def naive_hom_density(a: Structure, m: Structure) -> float:
    """Full enumeration of injections with complete cell comparison."""
    level, n = a.n, m.n
    a_rels = tuple_sets(a)
    m_rels = tuple_sets(m)
    hits = 0
    total = 0
    for phi in itertools.permutations(range(1, n + 1), level):
        total += 1
        ok = True
        for j, arity in enumerate(a.signature.arities):
            for t in all_cells(level, arity):
                mapped = tuple(phi[x - 1] for x in t)
                if (t in a_rels[j]) != (mapped in m_rels[j]):
                    ok = False
                    break
            if not ok:
                break
        hits += ok
    return hits / total if total else 0.0


# Largest rate matrix dimension expm_small accepts.
EXPM_DIM_CAP = 1024


def expm_small(Q, t: float) -> np.ndarray:
    """exp(tQ) for a small conservative rate matrix, by scaling and squaring
    of the truncated series.  Rows of the result sum to 1 within 1e-10;
    round-off negatives above -1e-12 are clamped to zero."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be a square matrix")
    d = Q.shape[0]
    if d > EXPM_DIM_CAP:
        raise ValueError(f"dimension {d} exceeds cap {EXPM_DIM_CAP}")
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


def gillespie_levy(restricted, horizon: float, rng) -> tuple[list[float], list[Structure]]:
    """Reference jump chain, one event at a time: exponential waiting times
    at the total restricted rate, then one ``restricted.sample(rng)``
    increment per jump.  Returns the jump times and increments.

    A test oracle for the batched chain in ``simulate_levy``: it shares the
    per-kind increment samplers but none of the batching (Poisson counts,
    sorted uniform times, label draws, time blocks).
    """
    times: list[float] = []
    increments: list[Structure] = []
    rate = restricted.total_rate
    t = 0.0
    while rate > 0.0:
        t += rng.exponential(1.0 / rate)
        if t > horizon:
            break
        times.append(t)
        increments.append(restricted.sample(rng))
    return times, increments


def _graph_rows(sampler, edges, members) -> list:
    if sampler.signature.k == 1:
        return [[e] for e in edges]
    return [[m, e] for m, e in zip(members, edges)]


def _vertex_edge_cell(sampler, v: int, x: int) -> int:
    n = sampler.n
    if sampler.comp.include_loop and x == sampler.edge_cells - 1:
        return v * n + v
    pair_idx, direction = divmod(x, 2)
    other = pair_idx if pair_idx < v else pair_idx + 1
    return v * n + other if direction == 0 else other * n + v


def local_slots(pattern: Signature, signature: Signature) -> list[int]:
    """The process relation that each relation of a local pattern flips:
    the next one, in order, of the same arity."""
    slots, free = [], list(enumerate(signature.arities))
    for arity in pattern.arities:
        free = free[next(i for i, (_, a) in enumerate(free) if a == arity):]
        slots.append(free.pop(0)[0])
    return slots


def local_law(comp, signature: Signature, n: int) -> dict:
    """The level-n jump law of a local component, by enumeration: each
    k-subset of [n] with each pattern of nu, mapped onto the subset in
    increasing order, at rate ``comp.rate`` times the pattern's mass."""
    mu = comp.measure
    slots = local_slots(mu.signature, signature)
    law: dict[Structure, float] = {}
    for subset in itertools.combinations(range(1, n + 1), mu.n):
        for pattern, w in mu.weights.items():
            relations = [[] for _ in signature.arities]
            for j, slot in enumerate(slots):
                relations[slot] = [tuple(subset[a - 1] for a in t) for t in pattern.tuples(j)]
            jump = Structure.from_tuples(signature, n, relations)
            law[jump] = law.get(jump, 0.0) + comp.rate * w
    return law


def _local_rows(sampler, rng, k: int) -> list:
    """The reference rows of a local component at level n: per row, k
    distinct labels drawn a column at a time, a draw that ties an earlier
    column of its row drawn again, then a pattern of nu, each of its cells
    mapped through the row's sorted labels into the process relation of
    its arity."""
    mu, n = sampler.measure, sampler.n
    columns = []
    for _ in range(mu.n):
        column = rng.integers(0, n, k)
        tied = [r for r in range(k) if any(c[r] == column[r] for c in columns)]
        while tied:
            column[tied] = rng.integers(0, n, len(tied))
            tied = [r for r in tied if any(c[r] == column[r] for c in columns)]
        columns.append(column.tolist())
    labels = [sorted(row) for row in zip(*columns)]
    slots = local_slots(mu.signature, sampler.signature)
    rows = []
    for row_labels, pattern in zip(labels, sample_rows(mu, rng, k)):
        row = [[] for _ in sampler.signature.arities]
        for slot, arity, cells in zip(slots, mu.signature.arities, pattern):
            images = [[row_labels[a - 1] + 1 for a in decode_cell(c, mu.n, arity)] for c in cells]
            row[slot] = sorted(
                sum((a - 1) * n ** (arity - 1 - i) for i, a in enumerate(image)) for image in images
            )
        rows.append(row)
    return rows


def sample_rows(sampler, rng, k: int) -> list:
    """Reference level-n sampler, one increment at a time as a list of
    sorted cell lists per relation: the draws ``sampler.sample_cells_batch``
    makes, from the same stream in the same order.

    A test oracle for the column samplers in ``comblevy.levy`` and
    ``FiniteMeasure``: it builds every row as nested lists, with no cell
    column, no vectorized cell map and no merge of component columns.
    """
    if isinstance(sampler, FiniteMeasure):
        structures = sampler.support()
        cum = np.array(list(itertools.accumulate(sampler.weights[m] for m in structures)))
        picked = np.searchsorted(cum, rng.random(k) * sampler.total_mass, side="right")
        return [_cells(structures[i]) for i in np.minimum(picked, len(cum) - 1).tolist()]
    if isinstance(sampler, _RestrictedExplicit):
        return sample_rows(sampler.level_measure, rng, k)
    if isinstance(sampler, _RestrictedMixture):
        return _cell_lists(*sampler.blocks.sample(rng, k))
    if isinstance(sampler, _RestrictedVertex):
        members, edges = [], []
        vertices = rng.integers(0, sampler.n, k).tolist()
        for v, flips in zip(vertices, _cell_lists(*sampler.blocks.sample(rng, k))):
            members.append([v] if sampler.has_member and flips[0] else [])
            edges.append(sorted(_vertex_edge_cell(sampler, v, x) for x in flips[-1]))
        return _graph_rows(sampler, edges, members)
    if isinstance(sampler, _RestrictedLocal):
        return _local_rows(sampler, rng, k)
    if isinstance(sampler, RestrictedIntensity):
        labels = np.searchsorted(sampler._cum, rng.random(k) * sampler.total_rate, side="right")
        labels = np.minimum(labels, len(sampler.components) - 1)
        rows = [None] * k
        for label, comp in enumerate(sampler.components):
            picked = np.flatnonzero(labels == label)
            if picked.size:
                for i, cells in zip(picked.tolist(), sample_rows(comp, rng, picked.size)):
                    rows[i] = cells
        return rows
    raise TypeError(f"no reference sampler for {type(sampler).__name__}")


class _TokenCache(dict):
    """Cell index -> tuple text ``(a1,...,ar)`` over [n], built on first use."""

    __slots__ = ("n", "arity")

    def __init__(self, n: int, arity: int):
        self.n = n
        self.arity = arity

    def __missing__(self, c: int) -> str:
        token = self[c] = "(" + ",".join(map(str, decode_cell(c, self.n, self.arity))) + ")"
        return token


class RecordFormatter:
    """Reference structure text, one record at a time: each relation's
    sorted cells through a per-formatter cache of tuple texts.

    A test oracle for the writers' block formatter
    (``structures._Formatter``): it shares none of its label decode, label
    tables or run joins.
    """

    def __init__(self, signature: Signature, n: int):
        self.head = f"L={signature}|n={n}"
        self.fields = [
            (f"R{j}={{", _TokenCache(n, arity))
            for j, arity in enumerate(signature.arities, start=1)
        ]

    def __call__(self, cells) -> str:
        parts = [self.head]
        for (prefix, tokens), rel_cells in zip(self.fields, cells):
            parts.append(prefix + ";".join(map(tokens.__getitem__, rel_cells)) + "}")
        return "|".join(parts)


def record_serialize(m: Structure) -> str:
    return RecordFormatter(m.signature, m.n)(_cells(m))


def record_events_to_jsonl(traj, seed=None) -> str:
    """The event stream of ``traj``, one record at a time."""
    header = {"signature": str(traj.signature), "n": traj.n, "T": traj.horizon, "seed": seed}
    if not traj._start.is_empty():
        header["init"] = record_serialize(traj._start)
    lines = [json.dumps(header, sort_keys=True)]
    text = RecordFormatter(traj.signature, traj.n)
    for t, cells in zip(traj._times[1:], traj._jumps()):
        lines.append(json.dumps({"increment": text(cells), "t": t}, sort_keys=True))
    return "\n".join(lines) + "\n"


def record_trajectory_to_csv(traj) -> str:
    """The full-state CSV of ``traj``, one record at a time."""
    text = RecordFormatter(traj.signature, traj.n)
    lines = ["time,structure"]
    for t, s in traj.events:
        lines.append(f"{t!r},{text(_cells(s))}")
    return "\n".join(lines) + "\n"


def record_walk_to_csv(walk) -> str:
    """The walk CSV of ``walk``, one record at a time."""
    text = RecordFormatter(walk.steps[0].signature, walk.steps[0].n)
    lines = ["step,structure"]
    for i, m in enumerate(walk.steps):
        lines.append(f"{i},{text(_cells(m))}")
    return "\n".join(lines) + "\n"


def record_measure_to_json(mu: FiniteMeasure) -> str:
    """The measure JSON through the standard library's encoder."""
    return json.dumps(measure_to_payload(mu), indent=2)


# Largest n whose 2^n subsets bernoulli_set_measure enumerates.
BERNOULLI_SET_CAP = 24


def bernoulli_set_measure(prob: float, n: int) -> FiniteMeasure:
    """Product-Bernoulli measure on subsets of [n]: each element kept w.p. prob."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"prob={prob} outside [0, 1]")
    if n > BERNOULLI_SET_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {BERNOULLI_SET_CAP}")
    weights = {}
    for size in range(n + 1):
        mass = prob**size * (1.0 - prob) ** (n - size)
        if mass == 0.0:
            continue
        for subset in itertools.combinations(range(1, n + 1), size):
            weights[Structure.from_tuples(Signature((1,)), n, [subset])] = mass
    return FiniteMeasure(Signature((1,)), n, weights)


def uniform_on_orbit(oid: OrbitId) -> FiniteMeasure:
    """Uniform distribution over one isomorphism class."""
    rep = oid.structure()
    if orbit_of(rep) != oid:
        raise ValueError(f"not a canonical orbit id: {oid.canonical!r}")
    members = orbit_members(rep)
    mass = 1.0 / len(members)
    return FiniteMeasure(rep.signature, rep.n, {m: mass for m in members})


def recompose(p: OrbitWeights) -> FiniteMeasure:
    """Mixture of orbit-uniform measures with the given weights."""
    weights: dict[Structure, float] = {}
    for oid, mass in p.p.items():
        if mass < 0:
            raise ValueError(f"negative orbit weight {mass} on {oid.canonical!r}")
        if mass == 0:
            continue
        members = orbit_members(oid.structure())
        share = mass / len(members)
        for m in members:
            weights[m] = weights.get(m, 0.0) + share
    return FiniteMeasure(p.signature, p.n, weights)
