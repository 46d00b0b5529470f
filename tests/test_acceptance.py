"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Statistical tolerances are pinned here and nowhere else; the
power threshold of the exchangeability test was calibrated once at desk
scale and frozen (see POWER_FROZEN).
"""

import json
import math
import time
from collections import Counter

import numpy as np

from comblevy.inference import chi_square_exchangeability
from comblevy.levy import (
    LevyIntensity,
    RestrictedIntensity,
    SetSingletonComponent,
    intensity_to_json,
    marginal_flip_probability,
    restrict_trajectory,
    simulate_levy,
)
from comblevy.limits import density_vector, hom_density_exact, hom_density_mc
from comblevy.measures import (
    FiniteMeasure,
    OrbitWeights,
    decompose_exchangeable,
    measure_to_json,
    urn_measure,
)
from comblevy.orbits import enumerate_orbits, orbit_lookup, orbit_members, orbit_of
from comblevy.rng import make_rng
from comblevy.structures import (
    Signature,
    Structure,
    empty_structure,
    increment,
    relabel,
    restrict,
)
from comblevy.walk import simulate_walk, walk_distribution_exact

from helpers import (
    expm_small,
    random_permutation,
    random_structure,
    recompose,
    run_comblevy,
    uniform_on_orbit,
)

SIG1 = Signature((1,))
SIG2 = Signature((2,))
SIG12 = Signature((1, 2))
SIG3 = Signature((3,))

# One-time desk-scale calibration of the power criterion (criterion 8):
# 200 seeds at T=2000 rejected in every run.  Frozen; regressions must
# reproduce it within +-0.05.
POWER_FROZEN = 1.0


def check(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_group_laws():
    start = time.monotonic()
    rng = make_rng(9001)
    ok = True
    for sig in (SIG1, SIG2, SIG12, SIG3):
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            a = random_structure(rng, sig, n)
            b = random_structure(rng, sig, n)
            c = random_structure(rng, sig, n)
            empty = empty_structure(sig, n)
            m = int(rng.integers(0, n + 1))
            sigma = random_permutation(rng, n)
            ok &= increment(a, empty) == a
            ok &= increment(a, a) == empty
            ok &= increment(a, b) == increment(b, a)
            ok &= increment(increment(a, b), c) == increment(a, increment(b, c))
            ok &= restrict(increment(a, b), m) == increment(
                restrict(a, m), restrict(b, m)
            )
            ok &= relabel(increment(a, b), sigma) == increment(
                relabel(a, sigma), relabel(b, sigma)
            )
            if not ok:
                break
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    check(1, "group-law suite, 1000 triples per signature", ok,
          f"{elapsed:.1f}s")


def test_criterion_02_set_case_closed_form():
    start = time.monotonic()
    n, reps, horizon = 1000, 200, 2.0
    ts = (0.25, 0.5, 1.0, 2.0)
    intensity = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
    sums = {t: 0.0 for t in ts}
    for r in range(reps):
        traj = simulate_levy(intensity, n, horizon, make_rng(9002, stream=r))
        for t in ts:
            sums[t] += traj.state_at(t).tuple_count(0) / n
    elapsed = time.monotonic() - start
    worst = max(
        abs(sums[t] / reps - marginal_flip_probability(1.0, t)) for t in ts
    )
    ok = worst <= 0.015 and elapsed < 120.0
    check(2, "set-case mean frequency matches (1-exp(-2t))/2", ok,
          f"max dev {worst:.4f}, {elapsed:.1f}s")


def test_criterion_03_matrix_exponential():
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        E = expm_small(Q, t)
        expected = np.array(
            [
                [0.5 * (1 + math.exp(-2 * t)), 0.5 * (1 - math.exp(-2 * t))],
                [0.5 * (1 - math.exp(-2 * t)), 0.5 * (1 + math.exp(-2 * t))],
            ]
        )
        worst = max(worst, float(np.abs(E - expected).max()))
    ok = worst <= 1e-10
    rng = make_rng(9003)
    row_dev = 0.0
    for _ in range(10):
        off = rng.random((4, 4)) * 3.0
        np.fill_diagonal(off, 0.0)
        Q4 = off - np.diag(off.sum(axis=1))
        E = expm_small(Q4, 1.3)
        row_dev = max(row_dev, float(np.abs(E.sum(axis=1) - 1.0).max()))
    ok &= row_dev <= 1e-10
    check(3, "matrix exponential entrywise and stochastic rows", ok,
          f"flip dev {worst:.2e}, row dev {row_dev:.2e}")


def test_criterion_04_density_identities():
    rng = make_rng(9004)
    norm_dev = 0.0
    marginal_dev = 0.0
    for i in range(100):
        sig = SIG1 if i % 2 == 0 else SIG2
        n = int(rng.integers(3, 9))
        M = random_structure(rng, sig, n)
        hi = int(rng.integers(2, 4))
        vec_hi = density_vector(M, hi)
        norm_dev = max(norm_dev, abs(math.fsum(vec_hi.values.values()) - 1.0))
        lo = int(rng.integers(1, hi))
        vec_lo = density_vector(M, lo)
        for A, target in vec_lo.values.items():
            total = math.fsum(
                v for Ap, v in vec_hi.values.items() if restrict(Ap, lo) == A
            )
            marginal_dev = max(marginal_dev, abs(total - target))
    ok = norm_dev <= 1e-12 and marginal_dev <= 1e-12

    mc_ok = True
    for i in range(50):
        sig = SIG1 if i % 2 == 0 else SIG2
        n = int(rng.integers(2, 9))
        level = int(rng.integers(1, min(n, 3) + 1))
        M = random_structure(rng, sig, n)
        A = random_structure(rng, sig, level)
        exact = hom_density_exact(A, M)
        est, stderr = hom_density_mc(A, M, 10_000, make_rng(9005, stream=i))
        mc_ok &= abs(est - exact) <= 4 * stderr + 1e-9
    ok &= mc_ok
    check(4, "density normalization, marginal consistency, MC within 4 sigma",
          ok, f"norm {norm_dev:.1e}, marginal {marginal_dev:.1e}")


def test_criterion_05_decomposition_roundtrips():
    rng = make_rng(9006)
    ok = True
    for sig, n in ((SIG1, 4), (SIG2, 3)):
        table = enumerate_orbits(sig, n)
        if sig == SIG1:
            ok &= len(table.entries) == 5
        for _ in range(5):
            raw = {oid: float(rng.random()) for oid, _ in table.entries}
            total = sum(raw.values())
            p = OrbitWeights(sig, n, {o: v / total for o, v in raw.items()})
            mu = recompose(p)
            ok &= decompose_exchangeable(mu).approx_equal(p, tol=1e-12)
            ok &= recompose(decompose_exchangeable(mu)).approx_equal(mu, tol=1e-12)
    for n in (3, 4, 5):
        for k in range(n + 1):
            mu = urn_measure(k, n)
            rep = Structure.from_tuples(SIG1, n, [set(range(1, k + 1))])
            uni = uniform_on_orbit(orbit_of(rep))
            ok &= mu.weights == uni.weights
            ok &= all(w == 1.0 / math.comb(n, k) for w in mu.weights.values())
    check(5, "decompose/recompose identities and urn extreme points", ok)


def test_criterion_06_orbit_markov_rows():
    sig, n = SIG2, 3
    table = enumerate_orbits(sig, n)
    lookup = orbit_lookup(sig, n)
    rng = make_rng(9007)
    worst = 0.0
    for _ in range(20):
        chosen = rng.choice(len(table.entries), size=5, replace=False)
        raw = {table.entries[int(i)][0]: float(rng.random()) + 0.1 for i in chosen}
        total = sum(raw.values())
        mu = recompose(OrbitWeights(sig, n, {o: v / total for o, v in raw.items()}))
        support = mu.items_sorted()
        for oid, _ in table.entries:
            rows = []
            for rep in orbit_members(oid.structure()):
                row: dict = {}
                for d, w in support:
                    dst = lookup[increment(rep, d)]
                    row[dst] = row.get(dst, 0.0) + w
                rows.append(row)
            keys = set().union(*rows)
            for key in keys:
                vals = [row.get(key, 0.0) for row in rows]
                worst = max(worst, max(vals) - min(vals))
    ok = worst <= 1e-12
    check(6, "orbit transition rows independent of representative", ok,
          f"max spread {worst:.1e}")


def test_criterion_07_restriction_compatibility():
    # discrete: pathwise exactness of state restriction
    rng = make_rng(9008)
    ok = True
    for _ in range(20):
        n = 6
        support = {random_structure(rng, SIG1, n): float(rng.random()) + 0.05
                   for _ in range(4)}
        total = sum(support.values())
        mu = FiniteMeasure(SIG1, n, {m: w / total for m, w in support.items()})
        traj = simulate_walk(mu, empty_structure(SIG1, n), 15, rng)
        incs = traj.jump_increments()
        for m in range(n + 1):
            folded = empty_structure(SIG1, m)
            for k, d in enumerate(incs, start=1):
                folded = increment(folded, restrict(d, m))
                ok &= restrict(traj.steps[k], m) == folded

    # continuous: restricted jump counts are Poisson at the level-5 rate
    intensity = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
    horizon, reps = 2.0, 400
    lam = RestrictedIntensity(intensity, 5).total_rate * horizon
    counts = []
    for r in range(reps):
        traj = simulate_levy(intensity, 20, horizon, make_rng(9009, stream=r))
        counts.append(len(restrict_trajectory(traj, 5).events) - 1)
    mean = sum(counts) / reps
    var = sum((c - mean) ** 2 for c in counts) / (reps - 1)
    mean_band = 3 * math.sqrt(lam / reps)
    var_band = 3 * math.sqrt((lam + 2 * lam**2) / reps)
    ok &= abs(mean - lam) <= mean_band
    ok &= abs(var - lam) <= var_band
    check(7, "restriction compatibility (pathwise and in law)", ok,
          f"mean {mean:.2f} vs {lam:.1f}, var {var:.2f}")


def _product_flip_measure(probs):
    """Independent per-element flip probabilities as a measure on subsets."""
    import itertools

    n = len(probs)
    weights = {}
    for size in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            mass = 1.0
            for i in range(1, n + 1):
                mass *= probs[i - 1] if i in subset else 1.0 - probs[i - 1]
            weights[Structure.from_tuples(SIG1, n, [subset])] = mass
    return FiniteMeasure(SIG1, n, weights)


def test_criterion_08_test_calibration():
    steps, seeds = 2000, 200
    u1, u2 = urn_measure(1, 3), urn_measure(2, 3)
    exchangeable = FiniteMeasure(
        SIG1,
        3,
        {
            m: 0.5 * u1.mass(m) + 0.5 * u2.mass(m)
            for m in set(u1.weights) | set(u2.weights)
        },
    )
    x0 = empty_structure(SIG1, 3)
    rejections = 0
    for s in range(seeds):
        traj = simulate_walk(exchangeable, x0, steps, make_rng(9010, stream=s))
        report = chi_square_exchangeability(traj)
        rejections += report.alphas[0.05]
    size = rejections / seeds
    ok = 0.02 <= size <= 0.10

    biased = _product_flip_measure((0.5, 0.05, 0.05))
    rejections = 0
    for s in range(seeds):
        traj = simulate_walk(biased, x0, steps, make_rng(9011, stream=s))
        report = chi_square_exchangeability(traj)
        rejections += report.alphas[0.05]
    power = rejections / seeds
    ok &= power >= 0.9 and abs(power - POWER_FROZEN) <= 0.05
    check(8, "exchangeability test size and power", ok,
          f"size {size:.3f}, power {power:.3f}")


def test_criterion_09_walk_monte_carlo_vs_oracle():
    mu = FiniteMeasure(
        SIG1,
        2,
        {
            empty_structure(SIG1, 2): 0.2,
            Structure.from_tuples(SIG1, 2, [{1}]): 0.5,
            Structure.from_tuples(SIG1, 2, [{1, 2}]): 0.3,
        },
    )
    x0 = empty_structure(SIG1, 2)
    steps, reps = 3, 100_000
    exact = {t: walk_distribution_exact(mu, x0, t) for t in (1, 2, 3)}
    counts = {t: Counter() for t in (1, 2, 3)}
    for r in range(reps):
        traj = simulate_walk(mu, x0, steps, make_rng(9012, stream=r))
        for t in (1, 2, 3):
            counts[t][traj.steps[t]] += 1
    worst_z = 0.0
    for t in (1, 2, 3):
        for m, p in exact[t].weights.items():
            sigma = math.sqrt(p * (1 - p) / reps)
            z = abs(counts[t][m] / reps - p) / sigma if sigma else 0.0
            worst_z = max(worst_z, z)
    ok = worst_z <= 4.0
    check(9, "empirical walk distribution matches exact convolution", ok,
          f"worst z {worst_z:.2f}")


def test_criterion_10_cli_determinism(tmp_path):
    measure_path = tmp_path / "measure.json"
    measure_path.write_text(measure_to_json(urn_measure(1, 3)), encoding="utf-8")
    intensity_path = tmp_path / "intensity.json"
    intensity_path.write_text(
        intensity_to_json(LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))),
        encoding="utf-8",
    )
    commands = {
        "walk": ["simulate-walk", "--measure", str(measure_path), "--steps", "50",
                 "--seed", "77", "--replicates", "2", "--out", "walk.csv"],
        "levy-csv": ["simulate-levy", "--intensity", str(intensity_path), "--n", "6",
                     "--horizon", "2.0", "--seed", "78", "--out", "levy.csv",
                     "--limit-level", "1", "--grid", "0.5,1.5"],
        "levy-jsonl": ["simulate-levy", "--intensity", str(intensity_path), "--n", "6",
                       "--horizon", "2.0", "--seed", "79", "--format", "jsonl",
                       "--out", "levy.jsonl"],
    }
    ok = True
    failures = []
    for name, args in commands.items():
        outputs = []
        for attempt in ("a", "b"):
            d = tmp_path / f"{name}-{attempt}"
            d.mkdir()
            proc = run_comblevy(args, d)
            if proc.returncode != 0:
                ok = False
                stderr = proc.stderr.strip().splitlines() or [""]
                failures.append(
                    f"{name}-{attempt} {args[0]} exit {proc.returncode}: {stderr[-1]}"
                )
            outputs.append(
                {f.name: f.read_bytes() for f in sorted(d.iterdir())}
            )
        ok &= outputs[0] == outputs[1] and len(outputs[0]) > 0
    check(10, "stochastic CLI commands are byte-identical given the seed", ok,
          "; ".join(failures))
