"""Homomorphism densities and finite-level limit summaries.

The density of a pattern A over [m] in a structure M over [n] is the
fraction of injections of [m] into [n] under which M pulls back to exactly
A.  The full vector of densities over all patterns at level m is a
probability vector; sampling it along a trajectory gives a finite-resolution
view of the limit-space path of the process.

density_vector pulls M back under every injection, and hom_density_mc under
random ones (the supported path beyond the falling-factorial cap), through one
kernel a bounded chunk at a time; hom_density_exact shares no code with it.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from functools import cached_property

import numpy as np

from .trajectory import LevyTrajectory
from .orbits import iter_space
from .structures import Signature, Structure, _cell_index, _serialize_all
from .value import Value

__all__ = [
    "DensityVector",
    "falling_factorial",
    "hom_density_exact",
    "density_vector",
    "hom_density_mc",
    "set_frequency",
    "limit_path",
    "density_l1",
    "density_to_csv",
    "limit_path_to_csv",
    "INJECTION_CAP",
]

INJECTION_CAP = 10**7
# Entries in a chunk of injections, its rows times the widest of its arrays'
# rows: the pattern cells, the level's labels and, for the uniforms that
# hom_density_mc argsorts, n.
MC_CHUNK = 100_000


class DensityVector(Value):
    """Densities of every pattern at one level; a probability vector."""

    m: int
    values: dict

    def value(self, pattern: Structure) -> float:
        return self.values.get(pattern, 0.0)

    def items_sorted(self) -> list[tuple[Structure, float]]:
        return [(pattern, self.values[pattern]) for _, pattern in self._sorted]

    @cached_property
    def _sorted(self) -> list[tuple[str, Structure]]:
        """(text, pattern) pairs in text order, the texts formatted as one block."""
        patterns = list(self.values)
        texts = _serialize_all(patterns[0].signature, patterns[0].n, patterns) if patterns else []
        return sorted(zip(texts, patterns))  # texts differ, so patterns never compare


def falling_factorial(n: int, m: int) -> int:
    return math.perm(n, m)


def _injections(n: int, level: int) -> int:
    """The number of injections of [level] into [n], checked against the cap."""
    total = falling_factorial(n, level)
    if total > INJECTION_CAP:
        raise ValueError(f"injection count {total} exceeds cap {INJECTION_CAP}")
    return total


def _contains(m: Structure, j: int, t: tuple[int, ...]) -> bool:
    return bool(m.relations[j] >> _cell_index(t, m.n) & 1)


def _cells_by_level(signature: Signature, m: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Pattern cells grouped by their maximal entry (level 0 = arity-0 cells)."""
    by_level: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(m + 1)]
    for j, arity in enumerate(signature.arities):
        for t in itertools.product(range(1, m + 1), repeat=arity):
            by_level[max(t, default=0)].append((j, t))
    return by_level


def _injection_block(n: int, level: int, lo: int, hi: int) -> np.ndarray:
    """Injections ``lo``..``hi``-1 of [level] into [n] as rows of 0-based
    labels, in ``itertools.permutations`` order: an index's digits in radices
    n, n-1, ... are each label's rank among the labels its row has left."""
    index = np.arange(lo, hi)
    maps = np.empty((hi - lo, level), np.int64)
    for k in range(level - 1, -1, -1):
        index, maps[:, k] = np.divmod(index, n - k)
    for k in range(level - 2, -1, -1):
        later = maps[:, k + 1 :]
        later += later >= maps[:, k : k + 1]
    return maps


def _pulled_back(m: Structure, level: int, maps: np.ndarray) -> np.ndarray:
    """Per row of ``maps`` (an injection of [level] into [m.n], 0-based
    labels), m's bit at each pattern cell's image, relation by relation in
    cell-index order: the images are encoded as cells over [m.n] and read
    from the relation's little-endian bytes."""
    n, rows = m.n, len(maps)
    bits = [np.zeros((rows, 0), np.int64)]
    for arity, relation in zip(m.signature.arities, m.relations):
        raw = np.frombuffer(relation.to_bytes((n**arity + 7) // 8, "little"), np.uint8)
        cells = np.zeros((rows, level**arity), np.int64)
        for labels in np.indices((level,) * arity).reshape(arity, level**arity):
            cells = cells * n + maps[:, labels]
        bits.append(raw[cells >> 3] >> (cells & 7) & 1)
    return np.hstack(bits)


def _check_arguments(a: Structure, m: Structure) -> None:
    if a.signature != m.signature:
        raise ValueError("pattern and structure must share the signature")
    if a.n > m.n:
        raise ValueError(f"pattern level {a.n} exceeds structure size {m.n}")


def hom_density_exact(a: Structure, m: Structure) -> float:
    """Exact density of pattern ``a`` in ``m`` over all injections."""
    _check_arguments(a, m)
    level = a.n
    n = m.n
    total = _injections(n, level)
    if total == 0:
        return 0.0
    by_level = _cells_by_level(a.signature, level)
    for j, t in by_level[0]:
        if _contains(a, j, t) != _contains(m, j, t):
            return 0.0

    phi = [0] * (level + 1)  # phi[l] = image of l, 1-based; phi[0] unused
    used = [False] * (n + 1)
    count = 0

    def extend(l: int) -> None:
        nonlocal count
        if l > level:
            count += 1
            return
        checks = by_level[l]
        for v in range(1, n + 1):
            if used[v]:
                continue
            phi[l] = v
            ok = True
            for j, t in checks:
                mapped = tuple(phi[x] for x in t)
                if _contains(a, j, t) != _contains(m, j, mapped):
                    ok = False
                    break
            if ok:
                used[v] = True
                extend(l + 1)
                used[v] = False
        phi[l] = 0

    extend(1)
    return count / total


def density_vector(m: Structure, level: int) -> DensityVector:
    """Complete density vector over every pattern at the given level.

    Each injection pulls ``m`` back to one pattern, so the vector sums to
    one.  A pattern's code is its relations' masks laid end to end, the
    first highest, so ``np.bincount`` of codes counts in ``iter_space`` order.
    """
    if level < 0 or level > m.n:
        raise ValueError(f"level {level} outside 0..{m.n}")
    total = _injections(m.n, level)
    patterns = list(iter_space(m.signature, level))
    widths = [level**arity for arity in m.signature.arities]
    shifts = [c + sum(widths[j + 1 :]) for j, width in enumerate(widths) for c in range(width)]
    weights = np.left_shift(1, np.array(shifts, np.int64))
    counts = np.zeros(len(patterns), np.int64)
    step = max(1, MC_CHUNK // max(level, len(weights), 1))
    for lo in range(0, total, step):
        maps = _injection_block(m.n, level, lo, min(lo + step, total))
        counts += np.bincount(_pulled_back(m, level, maps) @ weights, minlength=len(patterns))
    return DensityVector(m=level, values=dict(zip(patterns, (counts / total).tolist())))


def hom_density_mc(a: Structure, m: Structure, samples: int, rng) -> tuple[float, float]:
    """Monte Carlo density estimate over uniform random injections.

    Returns (estimate, standard error).  Each drawn injection's pulled-back
    bits are compared with ``a``'s own, its pull-back under the identity.
    """
    _check_arguments(a, m)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    level, n = a.n, m.n
    target = _pulled_back(a, level, np.arange(level)[None, :])[0]
    step = max(1, MC_CHUNK // max(n, target.size, 1))
    hits = 0
    for done in range(0, samples, step):
        # argsort of i.i.d. uniforms yields a uniform random permutation
        u = rng.random((min(step, samples - done), n))
        maps = np.argsort(u, axis=1)[:, :level]
        hits += int((_pulled_back(m, level, maps) == target).all(axis=1).sum())
    estimate = hits / samples
    stderr = math.sqrt(estimate * (1.0 - estimate) / samples)
    return estimate, stderr


def set_frequency(m: Structure) -> float:
    """Fraction of [n] present in a set structure (signature (1))."""
    if m.signature.arities != (1,):
        raise ValueError(f"set frequency requires signature (1), got {m.signature}")
    if m.n == 0:
        return 0.0
    return m.tuple_count(0) / m.n


def _limit_grid(grid, level: int, n: int, horizon: float) -> list[float]:
    """``grid`` as floats, once checked: a level-``level`` limit path of a
    level-n trajectory on [0, horizon] can be taken at its times."""
    grid = [float(t) for t in grid]
    for t in grid:
        if not 0.0 <= t <= horizon:
            raise ValueError(f"grid time {t} outside [0, {horizon}]")
    if not 0 <= level <= n:
        raise ValueError(f"level {level} outside 0..{n}")
    _injections(n, level)
    return grid


def limit_path(traj: LevyTrajectory, level: int, grid) -> list[DensityVector]:
    """Density vectors of the trajectory state sampled on a time grid; the
    states at its distinct events come from one replay of the log."""
    grid = _limit_grid(grid, level, traj.n, traj.horizon)
    events = [bisect_right(traj._times, t) - 1 for t in grid]
    distinct = sorted(set(events))
    vectors = dict(zip(distinct, (density_vector(m, level) for m in traj._states(distinct))))
    return [vectors[i] for i in events]


def density_l1(v1: DensityVector, v2: DensityVector) -> float:
    """L1 distance between density vectors at one level.

    A finite-level truncation of the limit-space metric; it compares only
    the given level.
    """
    if v1.m != v2.m:
        raise ValueError("density vectors live at different levels")
    keys = set(v1.values) | set(v2.values)
    return math.fsum(abs(v1.value(k) - v2.value(k)) for k in keys)


def density_to_csv(vec: DensityVector) -> str:
    lines = ["pattern,density"]
    lines += [f"{text},{vec.values[pattern]!r}" for text, pattern in vec._sorted]
    return "\n".join(lines) + "\n"


def limit_path_to_csv(grid, vectors) -> str:
    lines = ["time,pattern,density"]
    for t, vec in zip(grid, vectors):
        time = repr(float(t))
        lines += [f"{time},{text},{vec.values[pattern]!r}" for text, pattern in vec._sorted]
    return "\n".join(lines) + "\n"
