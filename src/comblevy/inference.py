"""Jump-measure estimation and the exchangeability test.

The empirical jump measure of a walk is the frequency of each one-step
increment, no-jump steps counting as the empty increment.  The Pearson
statistic compares it with its orbit average, the fitted exchangeable model.

An exchangeable jump measure is constant on orbits, so given an orbit's total
N_o the counts of its |o| members are Multinomial(N_o, uniform).  The p-value
is the Monte Carlo one under that law (Davison & Hinkley 1997, section 4.2),
(1 + #{replicates >= observed}) / (B + 1): exact at any sample size, with no
pooling and no degrees of freedom.  Continuous-time trajectories are tested
on their sequence of jump increments, each jump counted once with no time
weighting; that is an extension beyond the discrete-time definition.

Both count the increments from the log's cell columns in one pass
(``_jump_counts``), so a Structure is built at most once per distinct
increment, and ``empirical_jump_measure_json`` builds none.
"""

from __future__ import annotations

import itertools
import json
import numbers
from collections.abc import Sequence

import numpy as np

from .trajectory import LevyTrajectory
from .measures import FiniteMeasure, _measure_json, symmetrize
from .orbits import _check_cap, _orbit_groups, orbit_of
from .rng import make_rng
from .structures import _cell_lists, _serialize_rows, _structure_from_cells
from .value import Value

__all__ = [
    "TestReport",
    "empirical_jump_measure",
    "empirical_jump_measure_json",
    "jump_increment_sequence",
    "chi_square_exchangeability",
    "report_to_json",
]

# Monte Carlo replicates and the seed of their stream, fixed so that a
# report is a deterministic function of the trajectory.
REPLICATES = 999
REPLICATE_SEED = 20160101
# Counts per block of multinomial draws: an n=8 orbit of 40320 members would
# take about 320 MB for all B rows at once.
_BLOCK_COUNTS = 2**20
# Jumps the counting kernel reads from the log at a time.
_COUNT_BLOCK = 2**12


class TestReport(Value):
    """Outcome of the exchangeability test.

    ``df`` (support cells minus orbits) is information only, and
    ``pooled_cells`` is always 0.  With df < 1 every orbit is one cell, so
    the statistic is 0 under any law: the test is inconclusive, p_value 1.
    """

    statistic: float
    df: int
    p_value: float
    cells_used: int
    pooled_cells: int
    alphas: dict = dict
    inconclusive: bool = False


def empirical_jump_measure(traj) -> FiniteMeasure:
    """Frequency of each increment in :func:`jump_increment_sequence`: a
    walk's one-step increments (empty included) or a continuous-time
    trajectory's jumps."""
    return _frequency_measure(_jump_structures(traj))


def empirical_jump_measure_json(traj) -> str:
    """``measure_to_json(empirical_jump_measure(traj))``, made from the
    counted jumps' columns: the distinct jumps' texts are formatted as one
    block and sorted, and no Structure is built."""
    cells, counts, tallies = _jump_counts(traj)
    total = _total(tallies)
    texts = _serialize_rows(traj.signature, traj.n, cells, counts)
    order = sorted(range(len(texts)), key=texts.__getitem__)
    masses = [tallies[i] / total for i in order]
    return _measure_json(traj.signature, traj.n, [texts[i] for i in order], masses)


def _frequency_measure(counts: dict) -> FiniteMeasure:
    total = _total(counts.values())
    first = next(iter(counts))
    weights = {m: c / total for m, c in counts.items()}
    return FiniteMeasure(first.signature, first.n, weights)


def _total(tallies) -> int:
    total = sum(tallies)
    if total == 0:
        raise ValueError("need at least one increment to estimate the jump measure")
    return total


def jump_increment_sequence(traj) -> Sequence:
    """The jump increments of a trajectory: a walk's one-step increments,
    empty ones included, or a continuous-time trajectory's jumps."""
    if not isinstance(traj, LevyTrajectory):
        raise TypeError(f"unsupported trajectory type: {type(traj).__name__}")
    return traj.jump_increments()


def _jump_counts(traj) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The distinct increments of :func:`jump_increment_sequence`, in order
    of first occurrence, as a flat cell column and (distinct x k) counts (see
    ``LevyTrajectory._block``), and how often each occurs.

    One pass over the log, a block of jumps at a time, keys each jump by
    the bytes of its count row and its sorted cells, which name its
    increment; the distinct keys are decoded back into columns at the end.
    No Structure is built, so the work is linear in the log's size."""
    increments = jump_increment_sequence(traj)
    k = traj.signature.k
    tallies: dict[bytes, int] = {}
    for _, cells, counts in increments.blocks(_COUNT_BLOCK):
        rows, flat = counts.tobytes(), cells.tobytes()
        ends = (8 * counts.sum(axis=1).cumsum()).tolist()
        for at, lo, hi in zip(itertools.count(0, 8 * k), [0, *ends], ends):
            key = rows[at:at + 8 * k] + flat[lo:hi]
            tallies[key] = tallies.get(key, 0) + 1
    keys = list(tallies)
    words = np.frombuffer(b"".join(keys), np.int64)
    sizes = np.fromiter(map(len, keys), np.int64, len(keys)) // 8
    heads = (sizes.cumsum() - sizes)[:, None] + np.arange(k)  # each key's count row
    is_cell = np.ones(len(words), bool)
    is_cell[heads] = False
    return words[is_cell], words[heads], list(tallies.values())


def _jump_structures(traj) -> dict:
    """Each distinct increment of :func:`jump_increment_sequence` as a
    Structure, mapped to how often it occurs, in order of first occurrence
    (as ``Counter`` orders them)."""
    cells, counts, tallies = _jump_counts(traj)
    return {
        _structure_from_cells(traj.signature, traj.n, jump): tally
        for jump, tally in zip(_cell_lists(cells, counts), tallies)
    }


def _check_alpha(a) -> float:
    if isinstance(a, bool) or not isinstance(a, numbers.Real) or not 0.0 < a < 1.0:
        raise ValueError(f"test level must be a number in (0, 1), got {a!r}")
    return float(a)


def _replicate_sums(rng, size: int, total: int) -> np.ndarray:
    """Sum of squared counts of REPLICATES Multinomial(total, uniform over
    size) draws, a block of rows at a time."""
    pvals = np.full(size, 1.0 / size)
    rows = max(1, _BLOCK_COUNTS // size)
    sums = np.empty(REPLICATES, dtype=np.int64)
    for start in range(0, REPLICATES, rows):
        draws = rng.multinomial(total, pvals, size=min(rows, REPLICATES - start))
        sums[start:start + len(draws)] = np.square(draws).sum(axis=1)
    return sums


def chi_square_exchangeability(traj, alphas=(0.05,)) -> TestReport:
    """Pearson statistic of the raw jump counts against their orbit average,
    with a conditional Monte Carlo p-value."""
    alphas = [_check_alpha(a) for a in alphas]
    jump_increment_sequence(traj)  # checks the type
    # orbits are enumerated only up to the cap, so a larger path is refused
    # before its jumps are counted
    _check_cap(traj.n)
    # The observed counts enter the statistic, so the measure is built from
    # them here instead of through empirical_jump_measure.
    counts = _jump_structures(traj)
    mu_ex = symmetrize(_frequency_measure(counts))

    # The support of the orbit average is every member of each observed
    # orbit, each orbit named once from its canonical first member; orbits
    # in ascending canonical order fix the replicate stream.
    orbit_counts = {
        orbit_of(members[0]): [counts.get(m, 0) for m in members]
        for members in _orbit_groups(counts)
    }
    cells = len(mu_ex.weights)
    df = cells - len(orbit_counts)
    if df < 1:
        return TestReport(0.0, 0, 1.0, cells, 0, {a: False for a in alphas}, True)

    # Orbit o adds (|o| * sum c^2 - N_o^2) / N_o, which is 0 for a one-cell
    # orbit.  Row 0 is the observed statistic, rows 1..B the replicates; one
    # array op per orbit keeps their float sums alike, so ties are exact.
    rng = make_rng(REPLICATE_SEED)
    stats = np.zeros(1 + REPLICATES)
    for oid in sorted(orbit_counts):
        observed = np.array(orbit_counts[oid])
        size, total = len(observed), int(observed.sum())
        if size > 1:
            sums = np.append(observed @ observed, _replicate_sums(rng, size, total))
            stats += (size * sums - total * total) / total
    statistic = float(stats[0])
    p_value = (1 + int(np.count_nonzero(stats[1:] >= statistic))) / (REPLICATES + 1)
    decisions = {a: p_value <= a for a in alphas}
    return TestReport(statistic, df, p_value, cells, 0, decisions)


def report_to_json(report: TestReport) -> str:
    payload = {
        "statistic": report.statistic,
        "df": report.df,
        "p_value": report.p_value,
        "cells_used": report.cells_used,
        "pooled_cells": report.pooled_cells,
        "alphas": {repr(a): reject for a, reject in sorted(report.alphas.items())},
        "inconclusive": report.inconclusive,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
