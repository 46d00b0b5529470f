"""Homomorphism densities and finite-level limit summaries.

The density of a pattern A over [m] in a structure M over [n] is the
fraction of injections of [m] into [n] under which M pulls back to exactly
A.  The full vector of densities over all patterns at level m is a
probability vector; sampling it along a trajectory gives a finite-resolution
view of the limit-space path of the process.

Exact densities enumerate injections with prefix pruning, capped by the
falling-factorial count; the Monte Carlo estimator is the supported path
beyond the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trajectory import LevyTrajectory
from .orbits import DEFAULT_SPACE_CAP, iter_space
from .structures import Signature, Structure, _cell_index, serialize

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
    "DEFAULT_INJECTION_CAP",
]

DEFAULT_INJECTION_CAP = 10**7


@dataclass(frozen=True)
class DensityVector:
    """Densities of every pattern at one level; a probability vector."""

    m: int
    values: dict

    def value(self, pattern: Structure) -> float:
        return self.values.get(pattern, 0.0)

    def items_sorted(self) -> list[tuple[Structure, float]]:
        return sorted(self.values.items(), key=lambda kv: serialize(kv[0]))


def falling_factorial(n: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= n - i
    return out


def _contains(m: Structure, j: int, t: tuple[int, ...]) -> bool:
    return bool(m.relations[j] >> _cell_index(t, m.n) & 1)


def _pattern_cells(signature: Signature, m: int) -> list[list[tuple[int, ...]]]:
    """All pattern-level tuples per relation, as nested lists."""
    import itertools

    cells = []
    for arity in signature.arities:
        cells.append(
            [t for t in itertools.product(range(1, m + 1), repeat=arity)]
        )
    return cells


def _cells_by_level(signature: Signature, m: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Pattern cells grouped by their maximal entry (level 0 = arity-0 cells)."""
    by_level: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(m + 1)]
    for j, cell_list in enumerate(_pattern_cells(signature, m)):
        for t in cell_list:
            level = max(t) if t else 0
            by_level[level].append((j, t))
    return by_level


def _check_arguments(a: Structure, m: Structure) -> None:
    if a.signature != m.signature:
        raise ValueError("pattern and structure must share the signature")
    if a.n > m.n:
        raise ValueError(f"pattern level {a.n} exceeds structure size {m.n}")


def hom_density_exact(
    a: Structure, m: Structure, cap: int = DEFAULT_INJECTION_CAP
) -> float:
    """Exact density of pattern ``a`` in ``m`` over all injections."""
    _check_arguments(a, m)
    level = a.n
    n = m.n
    total = falling_factorial(n, level)
    if total > cap:
        raise ValueError(f"injection count {total} exceeds cap {cap}")
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


def density_vector(
    m: Structure,
    level: int,
    injection_cap: int = DEFAULT_INJECTION_CAP,
    space_cap: int = DEFAULT_SPACE_CAP,
) -> DensityVector:
    """Complete density vector over every pattern at the given level.

    One pass over all injections; each injection contributes to exactly one
    pattern, so the vector sums to one.
    """
    import itertools

    if level < 0 or level > m.n:
        raise ValueError(f"level {level} outside 0..{m.n}")
    total = falling_factorial(m.n, level)
    if total > injection_cap:
        raise ValueError(f"injection count {total} exceeds cap {injection_cap}")
    sig = m.signature
    pattern_cells = _pattern_cells(sig, level)
    counts: dict[tuple, int] = {}
    for phi in itertools.permutations(range(1, m.n + 1), level):
        payloads = []
        for j, cell_list in enumerate(pattern_cells):
            # cell_list runs in cell-index order, so idx is the pattern bit
            mask = 0
            for idx, t in enumerate(cell_list):
                mapped = tuple(phi[x - 1] for x in t)
                if _contains(m, j, mapped):
                    mask |= 1 << idx
            payloads.append(mask)
        key = tuple(payloads)
        counts[key] = counts.get(key, 0) + 1
    values: dict[Structure, float] = {}
    for pattern in iter_space(sig, level, space_cap):
        key = pattern.relations
        values[pattern] = counts.get(key, 0) / total
    return DensityVector(m=level, values=values)


def hom_density_mc(
    a: Structure,
    m: Structure,
    samples: int,
    rng,
    chunk: int = 100_000,
) -> tuple[float, float]:
    """Monte Carlo density estimate over uniform random injections.

    Returns (estimate, standard error).
    """
    _check_arguments(a, m)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    level, n = a.n, m.n
    cells = [
        (j, t)
        for j, cell_list in enumerate(_pattern_cells(a.signature, level))
        for t in cell_list
    ]
    a_bits = [_contains(a, j, t) for j, t in cells]
    hits = 0
    done = 0
    while done < samples:
        batch = min(chunk, samples - done)
        # argsort of i.i.d. uniforms yields a uniform random permutation
        u = rng.random((batch, n))
        injections = np.argsort(u, axis=1)[:, :level] + 1
        for row in injections:
            ok = True
            for (j, t), bit in zip(cells, a_bits):
                mapped = tuple(int(row[x - 1]) for x in t)
                if _contains(m, j, mapped) != bit:
                    ok = False
                    break
            hits += ok
        done += batch
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


def _limit_grid(
    grid, level: int, n: int, horizon: float, injection_cap: int = DEFAULT_INJECTION_CAP
) -> list[float]:
    """``grid`` as floats, once checked: a level-``level`` limit path of a
    level-n trajectory on [0, horizon] can be taken at its times."""
    grid = [float(t) for t in grid]
    for t in grid:
        if not 0.0 <= t <= horizon:
            raise ValueError(f"grid time {t} outside [0, {horizon}]")
    if not 0 <= level <= n:
        raise ValueError(f"level {level} outside 0..{n}")
    total = falling_factorial(n, level)
    if total > injection_cap:
        raise ValueError(f"injection count {total} exceeds cap {injection_cap}")
    return grid


def limit_path(
    traj: LevyTrajectory,
    level: int,
    grid,
    injection_cap: int = DEFAULT_INJECTION_CAP,
) -> list[DensityVector]:
    """Density vectors of the trajectory state sampled on a time grid."""
    grid = _limit_grid(grid, level, traj.n, traj.horizon, injection_cap)
    return [
        density_vector(traj.state_at(t), level, injection_cap) for t in grid
    ]


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
    for pattern, value in vec.items_sorted():
        lines.append(f"{serialize(pattern)},{value!r}")
    return "\n".join(lines) + "\n"


def limit_path_to_csv(grid, vectors) -> str:
    lines = ["time,pattern,density"]
    for t, vec in zip(grid, vectors):
        for pattern, value in vec.items_sorted():
            lines.append(f"{float(t)!r},{serialize(pattern)},{value!r}")
    return "\n".join(lines) + "\n"
