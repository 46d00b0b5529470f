import hashlib
import json
import math
from collections import Counter

import pytest

from comblevy import inference
from comblevy.inference import (
    chi_square_exchangeability,
    empirical_jump_measure,
    jump_increment_sequence,
    report_to_json,
)
from comblevy.levy import (
    LevyIntensity,
    SetSingletonComponent,
    intensity_from_json,
    simulate_levy,
)
from comblevy.measures import FiniteMeasure, point_mass, urn_measure
from comblevy.rng import make_rng
from comblevy.structures import (
    Signature,
    Structure,
    empty_structure,
    increment,
    relabel,
)
from comblevy.walk import simulate_walk

from helpers import levy_path, random_permutation, random_structure, walk_path

SIG1 = Signature((1,))


def S(sig, n, *relations):
    return Structure.from_tuples(sig, n, list(relations))


def trajectory_from_increments(x0, increments):
    states = [x0]
    for d in increments:
        states.append(increment(states[-1], d))
    return walk_path(tuple(states))


class TestEmpiricalJumpMeasure:
    def test_constant_trajectory(self):
        e = empty_structure(SIG1, 2)
        mu = empirical_jump_measure(walk_path((e,) * 11))
        assert mu.mass(e) == 1.0

    def test_repeated_increment(self):
        e = empty_structure(SIG1, 2)
        s1 = S(SIG1, 2, {1})
        mu = empirical_jump_measure(walk_path((e, s1, e)))
        assert mu.mass(s1) == 1.0

    def test_two_distinct_increments(self):
        e = empty_structure(SIG1, 2)
        s1 = S(SIG1, 2, {1})
        s12 = S(SIG1, 2, {1, 2})
        mu = empirical_jump_measure(walk_path((e, s1, s12)))
        assert mu.mass(s1) == 0.5
        assert mu.mass(S(SIG1, 2, {2})) == 0.5

    def test_masses_sum_to_one(self):
        rng = make_rng(800)
        traj = simulate_walk(urn_measure(1, 3), empty_structure(SIG1, 3), 97, rng)
        mu = empirical_jump_measure(traj)
        assert abs(mu.total_mass - 1.0) <= 1e-15

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            empirical_jump_measure(walk_path((empty_structure(SIG1, 2),)))


COMMUNITY = json.dumps({"signature": "(1,2)", "components": [
    {"type": "mixture_atom", "weight": 0.5, "probs": [0.2, 0.1]},
    {"type": "vertex", "rate": 1.0, "rho": 0.3, "member_prob": 0.5},
    {"type": "pair", "rate": 1.0},
    {"type": "loop", "rate": 1.0, "pattern": [0.3, 0.4, 0.3]},
]})
GRAPH = json.dumps({"signature": "(2)", "components": [
    {"type": "pair", "rate": 0.2},
    {"type": "vertex", "rate": 1.0, "rho": 0.02},
    {"type": "loop", "rate": 1.0},
]})
SKEWED = FiniteMeasure(
    SIG1, 3, {S(SIG1, 3, {1}): 0.5, S(SIG1, 3, {2}): 0.3, S(SIG1, 3, {2, 3}): 0.2}
)


def counted_paths():
    """Paths of every kind the counting kernel reads, by name."""
    e0 = empty_structure(Signature(()), 3)
    graph = simulate_levy(intensity_from_json(GRAPH), 40, 1.0, make_rng(811))
    return {
        "set-levy": simulate_levy(LevyIntensity(SIG1, (SetSingletonComponent(1.0),)), 6, 20.0,
                                  make_rng(810)),
        "graph-levy": graph,
        "community-levy": simulate_levy(intensity_from_json(COMMUNITY), 4, 30.0, make_rng(812)),
        "walk-with-empty-steps": simulate_walk(
            FiniteMeasure(SIG1, 3, {empty_structure(SIG1, 3): 0.5, S(SIG1, 3, {2}): 0.5}),
            S(SIG1, 3, {1}), 60, make_rng(813),
        ),
        "signature-()-walk": walk_path((e0,) * 5),
        "non-empty-start": levy_path(1.0, [
            (t, increment(state, graph.events[-1][1])) for t, state in graph.events
        ]),
        "no-jumps": levy_path(1.0, [(0.0, S(SIG1, 5, {2}))]),
    }


class TestJumpCounts:
    """The counting kernel against a Counter of the increments as Structures."""

    @pytest.mark.parametrize("name", sorted(counted_paths()))
    def test_counts_as_a_counter_of_structures(self, name):
        traj = counted_paths()[name]
        expected = Counter(traj.jump_increments())
        counted = inference._jump_structures(traj)
        assert counted == expected
        # in first-occurrence order, as the Counter orders them
        assert list(counted) == list(expected)
        cells, counts, tallies = inference._jump_counts(traj)
        assert counts.shape == (len(expected), traj.signature.k)
        assert len(cells) == counts.sum() and sum(tallies) == len(traj.jump_increments())

    def test_blocks_leave_the_counts_unchanged(self, monkeypatch):
        traj = counted_paths()["graph-levy"]
        whole = inference._jump_structures(traj)
        monkeypatch.setattr(inference, "_COUNT_BLOCK", 3)
        counted = inference._jump_structures(traj)
        assert counted == whole and list(counted) == list(whole)


class TestChiSquareTest:
    def test_balanced_orbit_counts_give_zero(self):
        e = empty_structure(SIG1, 2)
        incs = [S(SIG1, 2, {1})] * 10 + [S(SIG1, 2, {2})] * 10
        report = chi_square_exchangeability(trajectory_from_increments(e, incs))
        assert report.statistic == pytest.approx(0.0, abs=1e-9)
        assert report.p_value == pytest.approx(1.0)
        assert not report.inconclusive

    def test_hand_computed_statistic(self):
        # 30 vs 10 observations on the two singleton cells; the exchangeable
        # fit expects 20 each, so the statistic is 100/20 + 100/20 = 10.
        # Given the orbit total 40 the first count is Bin(40, 1/2), and a
        # statistic >= 10 means a count <= 10 or >= 30.
        e = empty_structure(SIG1, 2)
        incs = [S(SIG1, 2, {1})] * 30 + [S(SIG1, 2, {2})] * 10
        report = chi_square_exchangeability(
            trajectory_from_increments(e, incs), alphas=(0.05, 0.001)
        )
        assert report.statistic == pytest.approx(10.0)
        assert report.df == 1
        assert report.cells_used == 2
        assert report.pooled_cells == 0
        exact = 2 * sum(math.comb(40, k) for k in range(11)) / 2**40
        mc_error = math.sqrt(exact * (1 - exact) / inference.REPLICATES)
        assert abs(report.p_value - exact) <= 3 * mc_error
        assert report.alphas[0.05] is True
        assert report.alphas[0.001] is False

    def test_constant_trajectory_inconclusive(self):
        e = empty_structure(SIG1, 3)
        report = chi_square_exchangeability(walk_path((e,) * 21))
        assert report.statistic == pytest.approx(0.0, abs=1e-9)
        assert report.p_value == 1.0
        assert report.inconclusive
        assert report.cells_used == 1

    def test_orbit_totals_match_by_construction(self):
        rng = make_rng(801)
        for _ in range(5):
            support = {random_structure(rng, SIG1, 3): float(rng.random()) for _ in range(4)}
            total = sum(support.values())
            mu = FiniteMeasure(SIG1, 3, {m: w / total for m, w in support.items()})
            traj = simulate_walk(mu, empty_structure(SIG1, 3), 300, rng)
            increments = traj.jump_increments()
            from collections import Counter

            from comblevy.measures import symmetrize
            from comblevy.orbits import orbit_members

            counts = Counter(increments)
            mu_hat = empirical_jump_measure(traj)
            mu_ex = symmetrize(mu_hat)
            seen = set()
            for m in mu_ex.support():
                if m in seen:
                    continue
                members = orbit_members(m)
                seen.update(members)
                observed = sum(counts.get(x, 0) for x in members)
                expected = traj.T * math.fsum(mu_ex.mass(x) for x in members)
                assert abs(observed - expected) <= 1e-9

    def test_statistic_invariant_under_relabeling(self):
        rng = make_rng(802)
        mu = FiniteMeasure(
            SIG1,
            3,
            {
                S(SIG1, 3, {1}): 0.5,
                S(SIG1, 3, {2}): 0.2,
                S(SIG1, 3, {1, 3}): 0.3,
            },
        )
        traj = simulate_walk(mu, empty_structure(SIG1, 3), 500, rng)
        sigma = random_permutation(make_rng(803), 3)
        relabeled = walk_path(tuple(relabel(s, sigma) for s in traj.steps))
        r1 = chi_square_exchangeability(traj)
        r2 = chi_square_exchangeability(relabeled)
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-9)
        assert r1.df == r2.df
        assert r1.cells_used == r2.cells_used

    def test_accepts_continuous_trajectory(self):
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        traj = simulate_levy(I, 3, 100.0, make_rng(804))
        increments = jump_increment_sequence(traj)
        assert increments and all(not d.is_empty() for d in increments)
        report = chi_square_exchangeability(traj)
        assert report.df >= 1
        assert 0.0 <= report.p_value <= 1.0

    # out-of-range numbers are checked through the CLI in test_cli.py
    @pytest.mark.parametrize("alpha", [True, "0.05"])
    def test_rejects_level_that_is_not_a_number(self, alpha):
        e = empty_structure(SIG1, 2)
        traj = trajectory_from_increments(e, [S(SIG1, 2, {1}), S(SIG1, 2, {2})])
        with pytest.raises(ValueError):
            chi_square_exchangeability(traj, alphas=(0.05, alpha))

    def test_blocking_leaves_the_replicates_unchanged(self, monkeypatch):
        mu = FiniteMeasure(
            SIG1, 3, {S(SIG1, 3, {1}): 0.5, S(SIG1, 3, {2}): 0.3, S(SIG1, 3, {2, 3}): 0.2}
        )
        traj = simulate_walk(mu, empty_structure(SIG1, 3), 200, make_rng(805))
        whole = chi_square_exchangeability(traj)
        # one replicate row per block
        monkeypatch.setattr(inference, "_BLOCK_COUNTS", 1)
        assert chi_square_exchangeability(traj) == whole

    def test_community_null_calibration(self):
        # The exchangeable community intensity of the benchmark, (1,2) at
        # n=4, T=150: a valid 5% test rejects more than 6 of 40 seeds with
        # probability 0.34%.
        components = [
            {"type": "mixture_atom", "weight": 0.5, "probs": [0.2, 0.1]},
            {"type": "vertex", "rate": 1.0, "rho": 0.3, "member_prob": 0.5},
            {"type": "pair", "rate": 1.0},
            {"type": "loop", "rate": 1.0, "pattern": [0.3, 0.4, 0.3]},
        ]
        intensity = intensity_from_json(
            json.dumps({"signature": "(1,2)", "components": components})
        )
        rejections = sum(
            chi_square_exchangeability(
                simulate_levy(intensity, 4, 150.0, make_rng(seed))
            ).alphas[0.05]
            for seed in range(100, 140)
        )
        assert rejections <= 6

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            jump_increment_sequence(42)

    def test_refuses_a_path_past_the_cap_before_counting(self, monkeypatch):
        traj = simulate_levy(LevyIntensity(SIG1, (SetSingletonComponent(1.0),)), 9, 1.0,
                             make_rng(814))

        def counted(traj):
            raise AssertionError("the jumps were counted")

        monkeypatch.setattr(inference, "_jump_counts", counted)
        with pytest.raises(ValueError, match="n=9 exceeds canonicalization cap 8"):
            chi_square_exchangeability(traj)

    # sha256 of report_to_json(chi_square_exchangeability(path, (0.05, 0.01)))
    # as computed when the increments were counted with a Counter of
    # Structures; the community path as the local kind draws its pair and
    # loop patterns
    PINNED_REPORTS = {
        "community": "2e1f2e058901ebd105ce14752f61d3d8a06cc4128babf01fdd46035399d83175",
        "skewed-walk": "e23de14109aec403db4a2c780e718336854a18b08c72b6538655252a7eac7682",
        "urn-walk": "e7057474663fe44fbdcc8983ee45f82bdde03d518bebac3aed08c9eab41f8879",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_pinned_reports(self, name):
        traj = {
            "community": lambda: simulate_levy(
                intensity_from_json(COMMUNITY), 4, 150.0, make_rng(100)
            ),
            "skewed-walk": lambda: simulate_walk(
                SKEWED, empty_structure(SIG1, 3), 200, make_rng(805)
            ),
            "urn-walk": lambda: simulate_walk(
                urn_measure(1, 3), S(SIG1, 3, {1, 3}), 400, make_rng(10)
            ),
        }[name]()
        text = report_to_json(chi_square_exchangeability(traj, alphas=(0.05, 0.01)))
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_REPORTS[name]


class TestReportJson:
    def test_fields(self):
        e = empty_structure(SIG1, 2)
        incs = [S(SIG1, 2, {1})] * 30 + [S(SIG1, 2, {2})] * 10
        report = chi_square_exchangeability(
            trajectory_from_increments(e, incs), alphas=(0.05,)
        )
        payload = json.loads(report_to_json(report))
        assert set(payload) == {
            "statistic",
            "df",
            "p_value",
            "cells_used",
            "pooled_cells",
            "alphas",
            "inconclusive",
        }
        assert payload["alphas"] == {"0.05": True}
