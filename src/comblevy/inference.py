"""Jump-measure estimation and the Pearson exchangeability test.

The empirical jump measure of an observed walk is the frequency of each
one-step increment; no-jump steps count as the empty increment.  Its orbit
average is the fitted exchangeable model, and the two are compared cellwise
by a Pearson chi-square statistic.

Degrees of freedom and pooling are methodological choices of this package,
not prescribed by the underlying theory: cells with expected count below 5
are pooled within their orbit in ascending canonical-key order, an orbit
whose entire pool stays below 5 is merged into the next orbit in canonical
order, and df = final cells minus the number of orbits represented (fitting
the exchangeable model consumes one constraint per orbit, because orbit
totals of observed and expected counts agree by construction).

Continuous-time trajectories are accepted by first extracting the sequence
of jump increments, each jump counted once with no time weighting; that is
an extension beyond the discrete-time definition.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

from .trajectory import LevyTrajectory
from .measures import FiniteMeasure, symmetrize
from .orbits import DEFAULT_CANONICAL_CAP, OrbitId, orbit_of
from .structures import serialize
from .walk import WalkTrajectory

__all__ = [
    "TestReport",
    "empirical_jump_measure",
    "jump_increment_sequence",
    "chi_square_exchangeability",
    "chi2_upper_tail",
    "report_to_json",
]


@dataclass(frozen=True)
class TestReport:
    """Outcome of the exchangeability test.

    ``pooled_cells`` counts original cells eliminated by pooling.  When the
    pooled table leaves fewer than two cells or no residual degrees of
    freedom the test is undefined and reported as inconclusive with
    p_value 1.
    """

    statistic: float
    df: int
    p_value: float
    cells_used: int
    pooled_cells: int
    alphas: dict = field(default_factory=dict)
    inconclusive: bool = False


def empirical_jump_measure(traj) -> FiniteMeasure:
    """Frequency of each increment in :func:`jump_increment_sequence`: a
    walk's one-step increments (empty included) or a continuous-time
    trajectory's jumps."""
    return _frequency_measure(Counter(jump_increment_sequence(traj)))


def _frequency_measure(counts: Counter) -> FiniteMeasure:
    total = counts.total()
    if total == 0:
        raise ValueError("need at least one increment to estimate the jump measure")
    first = next(iter(counts))
    weights = {m: c / total for m, c in counts.items()}
    return FiniteMeasure(first.signature, first.n, weights)


def jump_increment_sequence(traj) -> Sequence:
    """Increment sequence of a walk or of a continuous-time trajectory."""
    if isinstance(traj, WalkTrajectory):
        return traj.increments()
    if isinstance(traj, LevyTrajectory):
        return traj.jump_increments()
    raise TypeError(f"unsupported trajectory type: {type(traj).__name__}")


def chi2_upper_tail(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution via the regularized
    incomplete gamma ratio."""
    # imported here, not at module level: no command but test-exchangeability
    # needs scipy, and importing it slows every CLI process's start
    from scipy.special import gammaincc

    if x < 0:
        raise ValueError(f"statistic must be >= 0, got {x}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    return float(gammaincc(df / 2.0, x / 2.0))


def _pool_cells(per_orbit: list[tuple[OrbitId, list[tuple[float, float]]]]):
    """Greedy pooling of (observed, expected) cells.

    Within an orbit, cells accumulate in canonical order until the pool's
    expected count reaches 5; a trailing short pool merges into the previous
    pool of the same orbit.  An orbit that collapses to a single short pool
    is carried into the next orbit; a final leftover merges backwards.
    Returns a list of [observed, expected, orbit_set] pools.
    """
    final: list[list] = []
    pending: list | None = None
    for oid, cells in per_orbit:
        pools: list[list] = []
        cur_o = cur_e = 0.0
        for obs, exp in cells:
            cur_o += obs
            cur_e += exp
            if cur_e >= 5.0:
                pools.append([cur_o, cur_e, {oid}])
                cur_o = cur_e = 0.0
        if cur_e > 0.0 or cur_o > 0.0:
            if pools:
                pools[-1][0] += cur_o
                pools[-1][1] += cur_e
            else:
                pools = [[cur_o, cur_e, {oid}]]
        if pending is not None:
            pools[0][0] += pending[0]
            pools[0][1] += pending[1]
            pools[0][2] |= pending[2]
            pending = None
        if len(pools) == 1 and pools[0][1] < 5.0:
            pending = pools[0]
        else:
            final.extend(pools)
    if pending is not None:
        if final:
            final[-1][0] += pending[0]
            final[-1][1] += pending[1]
            final[-1][2] |= pending[2]
        else:
            final = [pending]
    return final


def chi_square_exchangeability(
    traj,
    alphas=(0.05,),
    cap: int = DEFAULT_CANONICAL_CAP,
) -> TestReport:
    """Pearson test of the exchangeable fit against the raw jump measure."""
    # The observed counts enter the statistic, so the measure is built from
    # them here instead of through empirical_jump_measure.
    counts = Counter(jump_increment_sequence(traj))
    total = counts.total()
    mu_ex = symmetrize(_frequency_measure(counts), cap)

    # Cells are all structures in the union support; group them per orbit,
    # orbits and cells both in ascending canonical order.
    orbit_cells: dict[OrbitId, list[tuple[float, float]]] = {}
    for m in mu_ex.support():
        oid = orbit_of(m, cap)
        observed = float(counts.get(m, 0))
        expected = total * mu_ex.mass(m)
        orbit_cells.setdefault(oid, []).append((serialize(m), observed, expected))
    per_orbit = []
    for oid in sorted(orbit_cells, key=lambda o: o.canonical):
        cells = [
            (obs, exp)
            for _, obs, exp in sorted(orbit_cells[oid], key=lambda c: c[0])
        ]
        per_orbit.append((oid, cells))
    original_cells = sum(len(cells) for _, cells in per_orbit)

    pools = _pool_cells(per_orbit)
    cells_used = len(pools)
    pooled_cells = original_cells - cells_used
    statistic = sum((obs - exp) ** 2 / exp for obs, exp, _ in pools)
    orbits_represented = len(set().union(*(orbset for _, _, orbset in pools)))
    df = cells_used - orbits_represented

    if cells_used < 2 or df < 1:
        p_value = 1.0
        decisions = {float(a): False for a in alphas}
        return TestReport(
            statistic=statistic,
            df=max(df, 0),
            p_value=p_value,
            cells_used=cells_used,
            pooled_cells=pooled_cells,
            alphas=decisions,
            inconclusive=True,
        )
    p_value = chi2_upper_tail(statistic, df)
    decisions = {float(a): bool(p_value <= a) for a in alphas}
    return TestReport(
        statistic=statistic,
        df=df,
        p_value=p_value,
        cells_used=cells_used,
        pooled_cells=pooled_cells,
        alphas=decisions,
    )


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
