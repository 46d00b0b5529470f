import itertools
import json
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter
from functools import partial

import numpy as np
import pytest
from scipy import stats

from comblevy import levy, structures
from comblevy.levy import (
    ExplicitFinite,
    LevyIntensity,
    LevyTrajectory,
    LoopComponent,
    MixtureAtom,
    PairComponent,
    RestrictedIntensity,
    SetSingletonComponent,
    VertexComponent,
    _BernoulliBlocks,
    _jump_chain,
    events_from_jsonl,
    events_to_jsonl,
    expm_small,
    intensity_from_json,
    intensity_to_json,
    marginal_flip_probability,
    restrict_trajectory,
    simulate_levy,
    trajectory_from_csv,
    trajectory_to_csv,
)
from comblevy.measures import FiniteMeasure
from comblevy.orbits import orbit_of
from comblevy.rng import make_rng
from comblevy.structures import (
    Signature,
    Structure,
    _structure_from_cells,
    empty_structure,
    increment,
    relabel,
    restrict,
    serialize,
)
from comblevy.trajectory import _SNAPSHOT_EVERY
from comblevy.walk import WalkTrajectory, walk_from_csv, walk_to_csv

from helpers import gillespie_levy, random_permutation, random_structure

SIG1 = Signature((1,))
SIG2 = Signature((2,))
SIG12 = Signature((1, 2))
SIG13 = Signature((1, 3))


def S(sig, n, *relations):
    return Structure.from_tuples(sig, n, list(relations))


class TestComponentValidation:
    def test_mixture_prob_range(self):
        with pytest.raises(ValueError):
            MixtureAtom(weight=1.0, probs=(1.5,))
        with pytest.raises(ValueError):
            MixtureAtom(weight=-1.0, probs=(0.5,))

    def test_mixture_arity_count(self):
        with pytest.raises(ValueError):
            LevyIntensity(SIG12, (MixtureAtom(weight=1.0, probs=(0.5,)),))

    def test_set_singleton_signature(self):
        with pytest.raises(ValueError):
            LevyIntensity(SIG2, (SetSingletonComponent(1.0),))

    def test_vertex_signature(self):
        with pytest.raises(ValueError):
            LevyIntensity(SIG1, (VertexComponent(1.0, 0.5),))
        with pytest.raises(ValueError):
            LevyIntensity(SIG2, (VertexComponent(1.0, 0.5, member_prob=0.2),))

    def test_vertex_rho_positive(self):
        with pytest.raises(ValueError):
            VertexComponent(1.0, 0.0)

    def test_loop_pattern_graph_signature(self):
        with pytest.raises(ValueError):
            LevyIntensity(SIG2, (LoopComponent(1.0, pattern=(0.5, 0.5, 0.0)),))

    def test_pattern_must_normalize(self):
        with pytest.raises(ValueError):
            PairComponent(1.0, pattern=(0.5, 0.5, 0.5))

    def test_explicit_rejects_empty_mass(self):
        mu = FiniteMeasure(
            SIG1, 2, {empty_structure(SIG1, 2): 0.5, S(SIG1, 2, {1}): 0.5}
        )
        with pytest.raises(ValueError):
            ExplicitFinite(mu)

    def test_rejects_arity_zero_only(self):
        with pytest.raises(ValueError):
            LevyIntensity(Signature((0,)), ())


class TestRestrictedRates:
    def test_set_singleton_rate(self):
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=2.0),))
        assert RestrictedIntensity(I, 3).total_rate == pytest.approx(6.0)

    def test_zero_intensity(self):
        assert RestrictedIntensity(LevyIntensity(SIG1, ()), 5).total_rate == 0.0

    def test_mixture_rate(self):
        I = LevyIntensity(SIG1, (MixtureAtom(weight=1.0, probs=(0.5,)),))
        assert RestrictedIntensity(I, 2).total_rate == pytest.approx(0.75)

    def test_mixture_rate_multi_relation(self):
        I = LevyIntensity(SIG12, (MixtureAtom(weight=2.0, probs=(0.1, 0.2)),))
        n = 3
        expected = 2.0 * (1 - (0.9**3) * (0.8**9))
        assert RestrictedIntensity(I, n).total_rate == pytest.approx(expected)

    def test_vertex_rate(self):
        I = LevyIntensity(SIG2, (VertexComponent(rate=1.5, rho=0.3),))
        n = 4
        expected = 1.5 * n * (1 - 0.7 ** (2 * (n - 1)))
        assert RestrictedIntensity(I, n).total_rate == pytest.approx(expected)

    def test_pair_rate(self):
        I = LevyIntensity(SIG2, (PairComponent(rate=2.0),))
        assert RestrictedIntensity(I, 5).total_rate == pytest.approx(2.0 * 10)
        assert RestrictedIntensity(I, 1).total_rate == 0.0

    def test_loop_rate(self):
        I = LevyIntensity(SIG2, (LoopComponent(rate=0.5),))
        assert RestrictedIntensity(I, 4).total_rate == pytest.approx(2.0)

    def test_community_vertex_rate(self):
        I = LevyIntensity(
            SIG12, (VertexComponent(rate=1.0, rho=0.4, member_prob=0.25),)
        )
        n = 3
        expected = n * (1 - 0.75 * 0.6 ** (2 * (n - 1)))
        assert RestrictedIntensity(I, n).total_rate == pytest.approx(expected)

    def test_explicit_rate_same_level(self):
        mu = FiniteMeasure(SIG1, 2, {S(SIG1, 2, {1}): 0.7, S(SIG1, 2, {1, 2}): 0.8})
        I = LevyIntensity(SIG1, (ExplicitFinite(mu),))
        assert RestrictedIntensity(I, 2).total_rate == pytest.approx(1.5)


def _conditional_bernoulli_law(n, p):
    """Exact conditional law of a nonempty product-Bernoulli subset of [n]."""
    import itertools

    hit = 1 - (1 - p) ** n
    law = {}
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            law[frozenset(subset)] = p**size * (1 - p) ** (n - size) / hit
    return law


def _empirical_subset_law(sampler, rng, draws):
    counts = Counter()
    for _ in range(draws):
        m = sampler(rng)
        counts[frozenset(a for (a,) in m.tuples(0))] += 1
    return {k: v / draws for k, v in counts.items()}


def _assert_law_close(empirical, exact, draws, z=4.0):
    for subset, p in exact.items():
        band = z * math.sqrt(p * (1 - p) / draws) + 1e-9
        assert abs(empirical.get(subset, 0.0) - p) <= band, subset


class TestConditionalSamplers:
    def test_rejection_path_matches_exact_law(self):
        I = LevyIntensity(SIG1, (MixtureAtom(weight=1.0, probs=(0.4,)),))
        r = RestrictedIntensity(I, 3)
        assert r.components[0].blocks.hit_prob >= 0.01  # rejection path
        draws = 40_000
        empirical = _empirical_subset_law(
            lambda rng: r.sample(rng), make_rng(42), draws
        )
        _assert_law_close(empirical, _conditional_bernoulli_law(3, 0.4), draws)

    def test_analytic_path_matches_exact_law(self):
        p = 0.003
        I = LevyIntensity(SIG1, (MixtureAtom(weight=1.0, probs=(p,)),))
        r = RestrictedIntensity(I, 3)
        assert r.components[0].blocks.hit_prob < 0.01  # analytic fallback path
        draws = 40_000
        empirical = _empirical_subset_law(
            lambda rng: r.sample(rng), make_rng(43), draws
        )
        _assert_law_close(empirical, _conditional_bernoulli_law(3, p), draws)

    def test_both_paths_agree_on_same_blocks(self):
        # force the analytic branch on a rejection-regime parameterization
        blocks = _BernoulliBlocks([(3, 0.4)])
        draws = 40_000
        rng = make_rng(44)
        counts = Counter()
        for _ in range(draws):
            flips = blocks._first_flip(rng)
            counts[frozenset(i + 1 for i in flips[0])] += 1
        empirical = {k: v / draws for k, v in counts.items()}
        _assert_law_close(empirical, _conditional_bernoulli_law(3, 0.4), draws)

    def test_samples_never_empty(self):
        I = LevyIntensity(
            SIG12,
            (
                MixtureAtom(weight=1.0, probs=(0.05, 0.02)),
                VertexComponent(rate=1.0, rho=0.3, member_prob=0.1),
                PairComponent(rate=1.0),
                LoopComponent(rate=1.0, pattern=(0.3, 0.3, 0.4)),
            ),
        )
        r = RestrictedIntensity(I, 4)
        rng = make_rng(45)
        assert all(not r.sample(rng).is_empty() for _ in range(2000))


class TestLocalComponentSemantics:
    def test_vertex_flips_are_incident_to_one_vertex(self):
        I = LevyIntensity(SIG2, (VertexComponent(rate=1.0, rho=0.6),))
        r = RestrictedIntensity(I, 4)
        rng = make_rng(46)
        for _ in range(500):
            edges = r.sample(rng).tuples(0)
            assert edges
            assert all(a != b for a, b in edges)  # no loops by default
            pivots = set.intersection(*[{a, b} for a, b in edges])
            assert pivots  # one common endpoint

    def test_vertex_include_loop(self):
        I = LevyIntensity(
            SIG2, (VertexComponent(rate=1.0, rho=0.9, include_loop=True),)
        )
        r = RestrictedIntensity(I, 3)
        rng = make_rng(47)
        saw_loop = False
        for _ in range(500):
            edges = r.sample(rng).tuples(0)
            loops = [(a, b) for a, b in edges if a == b]
            if loops:
                saw_loop = True
                pivot = loops[0][0]
                assert all(pivot in (a, b) for a, b in edges)
        assert saw_loop

    def test_pair_patterns(self):
        I = LevyIntensity(SIG2, (PairComponent(rate=1.0, pattern=(0.25, 0.25, 0.5)),))
        r = RestrictedIntensity(I, 3)
        rng = make_rng(48)
        kinds = Counter()
        for _ in range(3000):
            edges = r.sample(rng).tuples(0)
            pair = {a for e in edges for a in e}
            assert len(pair) == 2
            kinds[len(edges)] += 1
        assert abs(kinds[1] / 3000 - 0.5) <= 0.05
        assert abs(kinds[2] / 3000 - 0.5) <= 0.05

    def test_loop_component_graph(self):
        I = LevyIntensity(SIG2, (LoopComponent(rate=1.0),))
        r = RestrictedIntensity(I, 3)
        rng = make_rng(49)
        for _ in range(200):
            edges = r.sample(rng).tuples(0)
            assert len(edges) == 1 and edges[0][0] == edges[0][1]

    def test_loop_component_community_patterns(self):
        I = LevyIntensity(SIG12, (LoopComponent(rate=1.0, pattern=(0.2, 0.3, 0.5)),))
        r = RestrictedIntensity(I, 3)
        rng = make_rng(50)
        kinds = Counter()
        for _ in range(5000):
            m = r.sample(rng)
            members = [a for (a,) in m.tuples(0)]
            loops = m.tuples(1)
            assert all(a == b for a, b in loops)
            if members and loops:
                assert members[0] == loops[0][0]
                kinds["both"] += 1
            elif members:
                kinds["member"] += 1
            else:
                kinds["loop"] += 1
        assert abs(kinds["member"] / 5000 - 0.2) <= 0.03
        assert abs(kinds["loop"] / 5000 - 0.3) <= 0.03
        assert abs(kinds["both"] / 5000 - 0.5) <= 0.03

    def test_community_vertex_member_flip(self):
        I = LevyIntensity(
            SIG12, (VertexComponent(rate=1.0, rho=0.5, member_prob=0.5),)
        )
        r = RestrictedIntensity(I, 3)
        rng = make_rng(51)
        saw_member = saw_edges = False
        for _ in range(500):
            m = r.sample(rng)
            members = [a for (a,) in m.tuples(0)]
            edges = m.tuples(1)
            assert members or edges
            if members:
                saw_member = True
                if edges:
                    assert all(members[0] in (a, b) for a, b in edges)
            if edges:
                saw_edges = True
        assert saw_member and saw_edges


class TestExplicitFinite:
    def _intensity(self):
        mu = FiniteMeasure(
            SIG1,
            3,
            {
                S(SIG1, 3, {3}): 2.0,
                S(SIG1, 3, {1, 3}): 1.0,
                S(SIG1, 3, {2}): 0.5,
            },
        )
        return LevyIntensity(SIG1, (ExplicitFinite(mu),))

    def test_pushforward_to_smaller_level(self):
        r = RestrictedIntensity(self._intensity(), 2)
        assert r.total_rate == pytest.approx(1.5)
        law = r.components[0].level_measure
        assert law.mass(S(SIG1, 2, {1})) == pytest.approx(1.0)
        assert law.mass(S(SIG1, 2, {2})) == pytest.approx(0.5)

    def test_embedding_to_larger_level(self):
        r = RestrictedIntensity(self._intensity(), 4)
        assert r.total_rate == pytest.approx(3.5)
        law = r.components[0].level_measure
        assert law.mass(S(SIG1, 4, {1, 3})) == pytest.approx(1.0)

    def test_conditional_sampling_frequencies(self):
        r = RestrictedIntensity(self._intensity(), 3)
        rng = make_rng(52)
        draws = 30_000
        counts = Counter(serialize(r.sample(rng)) for _ in range(draws))
        for m, w in r.components[0].level_measure.items_sorted():
            p = w / 3.5
            band = 4 * math.sqrt(p * (1 - p) / draws)
            assert abs(counts[serialize(m)] / draws - p) <= band


class TestSimulate:
    def test_zero_intensity_constant_path(self):
        traj = simulate_levy(LevyIntensity(SIG1, ()), 5, 2.0, make_rng(53))
        assert len(traj.events) == 1
        assert traj.events[0] == (0.0, empty_structure(SIG1, 5))
        assert traj.state_at(2.0) == empty_structure(SIG1, 5)

    def test_jump_count_poisson(self):
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        runs = 400
        counts = [
            len(simulate_levy(I, 10, 5.0, make_rng(54, stream=r)).events) - 1
            for r in range(runs)
        ]
        mean = sum(counts) / runs
        assert abs(mean - 50.0) <= 3 * math.sqrt(50) / 20

    def test_trajectory_legality(self):
        I = LevyIntensity(
            SIG2,
            (MixtureAtom(weight=1.0, probs=(0.2,)), LoopComponent(rate=0.5)),
        )
        traj = simulate_levy(I, 3, 3.0, make_rng(55))
        times = [t for t, _ in traj.events]
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))
        states = [s for _, s in traj.events]
        assert all(x != y for x, y in zip(states, states[1:]))

    def test_right_continuity(self):
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=2.0),))
        traj = simulate_levy(I, 4, 2.0, make_rng(56))
        assert len(traj.events) > 2
        t1, s1 = traj.events[1]
        assert traj.state_at(t1) == s1

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            simulate_levy(LevyIntensity(SIG1, ()), 3, 0.0, make_rng(57))

    def test_deterministic_given_seed(self):
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        a = simulate_levy(I, 6, 2.0, make_rng(58))
        b = simulate_levy(I, 6, 2.0, make_rng(58))
        assert a.events == b.events


class TestTrajectoryType:
    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            LevyTrajectory(2, 1.0, ((0.5, empty_structure(SIG1, 2)),))

    def test_rejects_unordered_times(self):
        e = empty_structure(SIG1, 2)
        s = S(SIG1, 2, {1})
        with pytest.raises(ValueError):
            LevyTrajectory(2, 2.0, ((0.0, e), (1.0, s), (1.0, e)))

    def test_rejects_consecutive_duplicates(self):
        e = empty_structure(SIG1, 2)
        with pytest.raises(ValueError):
            LevyTrajectory(2, 2.0, ((0.0, e), (1.0, e)))

    def test_rejects_event_beyond_horizon(self):
        e = empty_structure(SIG1, 2)
        with pytest.raises(ValueError):
            LevyTrajectory(2, 1.0, ((0.0, e), (1.5, S(SIG1, 2, {1}))))

    def test_rejects_non_finite_horizon(self):
        e = empty_structure(SIG1, 2)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                LevyTrajectory(2, horizon, ((0.0, e),))
            with pytest.raises(ValueError, match="finite"):
                simulate_levy(LevyIntensity(SIG1, ()), 2, horizon, make_rng(57))

    def test_state_at_bounds(self):
        e = empty_structure(SIG1, 2)
        traj = LevyTrajectory(2, 2.0, ((0.0, e), (1.0, S(SIG1, 2, {1}))))
        with pytest.raises(ValueError):
            traj.state_at(2.5)
        assert traj.state_at(0.999) == e


class TestRestrictTrajectory:
    def test_identity(self):
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        traj = simulate_levy(I, 5, 1.0, make_rng(59))
        assert restrict_trajectory(traj, 5).events == traj.events

    def test_vanishing_jump(self):
        e3 = empty_structure(SIG1, 3)
        traj = LevyTrajectory(3, 2.0, ((0.0, e3), (1.0, S(SIG1, 3, {3}))))
        restricted = restrict_trajectory(traj, 2)
        assert restricted.events == ((0.0, empty_structure(SIG1, 2)),)

    def test_rejects_growth(self):
        traj = LevyTrajectory(2, 1.0, ((0.0, empty_structure(SIG1, 2)),))
        with pytest.raises(ValueError):
            restrict_trajectory(traj, 3)


def _replay_full_states(intensity, n, horizon, rng):
    """Brute-force replay of simulate_levy's own draws (the batched chain's
    jumps), with every increment XORed into a full state that is kept."""
    restricted = RestrictedIntensity(intensity, n)
    state = empty_structure(intensity.signature, n)
    events = [(0.0, state)]
    for times, rows in _jump_chain(restricted, horizon, rng):
        for t, cells in zip(times.tolist(), rows):
            state = increment(state, _structure_from_cells(intensity.signature, n, cells))
            events.append((t, state))
    return events


def _restrict_full_states(events, m):
    out = [(0.0, restrict(events[0][1], m))]
    for t, s in events[1:]:
        if restrict(s, m) != out[-1][1]:
            out.append((t, restrict(s, m)))
    return out


class TestIncrementLog:
    """The increment log against full states kept by a brute-force replay."""

    @staticmethod
    def _community_explicit():
        mu = FiniteMeasure(SIG12, 3, {S(SIG12, 3, {2}, {(1, 3), (3, 3)}): 2.0})
        return ExplicitFinite(mu)

    CASES = [
        (SIG1, lambda: (SetSingletonComponent(rate=3.0),), 6, 20.0),
        (
            SIG2,
            lambda: (
                MixtureAtom(weight=0.5, probs=(0.1,)),
                VertexComponent(rate=1.0, rho=0.3, include_loop=True),
                PairComponent(rate=1.0),
                LoopComponent(rate=1.0),
            ),
            5,
            15.0,
        ),
        (
            SIG12,
            lambda: (
                MixtureAtom(weight=0.5, probs=(0.2, 0.1)),
                VertexComponent(rate=1.0, rho=0.3, member_prob=0.5),
                PairComponent(rate=1.0),
                LoopComponent(rate=1.0, pattern=(0.3, 0.4, 0.3)),
                TestIncrementLog._community_explicit(),
            ),
            4,
            20.0,
        ),
        (SIG13, lambda: (MixtureAtom(weight=2.0, probs=(0.3, 0.05)),), 3, 150.0),
    ]

    def _check(self, traj, events, horizon, rng):
        times = [t for t, _ in events]
        assert len(traj.events) == len(events)
        assert traj.events == tuple(events) and traj.events == events
        assert list(traj.events) == events
        assert traj.events[-1] == events[-1]
        stop = 3 * _SNAPSHOT_EVERY
        assert traj.events[5:stop:7] == tuple(events[5:stop:7])
        assert traj.events[::-3] == tuple(events[::-3])
        increments = [increment(b, a) for (_, a), (_, b) in zip(events, events[1:])]
        assert traj.jump_increments() == increments
        assert traj.jump_increments()[-1] == increments[-1]
        for i, (t, s) in enumerate(events):  # every event, so every snapshot boundary
            assert traj.events[i] == (t, s)
            assert traj.state_at(t) == s
        for t in rng.uniform(0.0, horizon, 50):
            assert traj.state_at(float(t)) == events[bisect_right(times, t) - 1][1]
        assert traj.state_at(horizon) == events[-1][1]
        assert LevyTrajectory(traj.n, horizon, events) == traj

    @pytest.mark.parametrize("case", range(len(CASES)), ids=["1", "2", "1,2", "1,3"])
    def test_matches_full_state_replay(self, case):
        sig, components, n, horizon = self.CASES[case]
        intensity = LevyIntensity(sig, components())
        for seed in (81, 82, 83):
            traj = simulate_levy(intensity, n, horizon, make_rng(seed))
            events = _replay_full_states(intensity, n, horizon, make_rng(seed))
            assert len(events) > 2 * _SNAPSHOT_EVERY
            check_rng = make_rng(seed, stream=1)
            self._check(traj, events, horizon, check_rng)
            for m in (1, n - 1):
                self._check(
                    restrict_trajectory(traj, m),
                    _restrict_full_states(events, m),
                    horizon,
                    check_rng,
                )
            start = random_structure(check_rng, sig, n)
            started = [(t, increment(s, start)) for t, s in events]
            traj = LevyTrajectory(n, horizon, started)
            self._check(traj, started, horizon, check_rng)
            self._check(
                restrict_trajectory(traj, n - 1),
                _restrict_full_states(started, n - 1),
                horizon,
                check_rng,
            )
            assert events_from_jsonl(events_to_jsonl(traj)) == traj
            assert trajectory_from_csv(trajectory_to_csv(traj), horizon) == traj


def _poisson_fit_p(counts, mean):
    """Chi-square goodness-of-fit p-value of the counts against
    Poisson(mean).  Bins run up from 0 and close once they expect at least
    5; the last bin takes the whole upper tail."""
    counts = np.asarray(counts)
    runs = len(counts)
    observed, expected = [], []
    o = e = 0.0
    k = 0
    while True:
        o += np.count_nonzero(counts == k)
        e += runs * stats.poisson.pmf(k, mean)
        tail = runs * stats.poisson.sf(k, mean)
        if tail < 5.0:
            observed.append(o + np.count_nonzero(counts > k))
            expected.append(e + tail)
            break
        if e >= 5.0:
            observed.append(o)
            expected.append(e)
            o = e = 0.0
        k += 1
    statistic = sum((a - b) ** 2 / b for a, b in zip(observed, expected))
    return stats.chi2.sf(statistic, len(expected) - 1)


def _community_cells(n):
    """Every (relation, tuple) cell of signature (1,2) over [n]."""
    return [
        (j, t)
        for j, arity in enumerate(SIG12.arities)
        for t in itertools.product(range(1, n + 1), repeat=arity)
    ]


def _community_with_explicit():
    mu = FiniteMeasure(
        SIG12,
        3,
        {
            S(SIG12, 3, {2}, {(1, 3), (3, 3)}): 2.0,
            S(SIG12, 3, set(), {(1, 2)}): 1.0,
        },
    )
    return LevyIntensity(
        SIG12,
        (
            MixtureAtom(weight=0.5, probs=(0.2, 0.1)),
            VertexComponent(rate=1.0, rho=0.3, member_prob=0.5),
            PairComponent(rate=1.0),
            LoopComponent(rate=1.0, pattern=(0.3, 0.4, 0.3)),
            ExplicitFinite(mu),
        ),
    )


class TestBatchedChainInLaw:
    """simulate_levy's batched chain against the per-event Gillespie
    reference (tests/helpers.py) on the (1,2) community intensity with an
    explicit component, at n=4, and the per-cell flip frequencies also
    against their exact values.  Every check has a false-alarm rate of
    1e-3 for an exact sampler, so the class has at most 6e-3."""

    N = 4
    ALPHA = 1e-3

    @pytest.mark.parametrize("block_events", [levy._BLOCK_EVENTS, 2])
    def test_jump_count_is_poisson(self, monkeypatch, block_events):
        # with 2 expected jumps per block, each path spans about 8 blocks
        monkeypatch.setattr(levy, "_BLOCK_EVENTS", block_events)
        intensity = _community_with_explicit()
        mean = RestrictedIntensity(intensity, self.N).total_rate * 1.0
        runs = 500
        batched = [
            len(simulate_levy(intensity, self.N, 1.0, make_rng(90, stream=r)).events) - 1
            for r in range(runs)
        ]
        assert _poisson_fit_p(batched, mean) > self.ALPHA
        if block_events == 2:
            return
        restricted = RestrictedIntensity(intensity, self.N)
        reference = [
            len(gillespie_levy(restricted, 1.0, make_rng(91, stream=r))[0])
            for r in range(runs)
        ]
        assert _poisson_fit_p(reference, mean) > self.ALPHA

    @staticmethod
    def _samples(horizon=400.0):
        intensity = _community_with_explicit()
        traj = simulate_levy(intensity, 4, horizon, make_rng(92))
        _, reference = gillespie_levy(
            RestrictedIntensity(intensity, 4), horizon, make_rng(93)
        )
        return list(traj.jump_increments()), reference

    @staticmethod
    def _exact_flip_probs(intensity, n):
        """Per-jump probability that each cell (relation, tuple) flips,
        derived from the component definitions at level n; it shares no
        code with the samplers.  The component rates come from
        RestrictedIntensity, which TestRestrictedRates checks against
        closed forms."""
        restricted = RestrictedIntensity(intensity, n)
        probs = Counter()
        pairs = n * (n - 1) / 2
        for comp, rc in zip(intensity.components, restricted.components):
            share = rc.rate / restricted.total_rate
            if isinstance(comp, MixtureAtom):
                p_member, p_edge = comp.probs
                hit = 1 - (1 - p_member) ** n * (1 - p_edge) ** (n * n)
                cell = {0: p_member / hit, 1: p_edge / hit}
                for j, t in _community_cells(n):
                    probs[j, t] += share * cell[j]
            elif isinstance(comp, VertexComponent):
                hit = 1 - (1 - comp.member_prob) * (1 - comp.rho) ** (2 * (n - 1))
                for j, t in _community_cells(n):
                    if j == 0:
                        probs[j, t] += share * comp.member_prob / hit / n
                    elif t[0] != t[1]:  # either endpoint is the vertex
                        probs[j, t] += share * comp.rho / hit * 2 / n
            elif isinstance(comp, PairComponent):
                fwd, bwd, both = comp.pattern
                for j, t in _community_cells(n):
                    if j == 1 and t[0] != t[1]:
                        p = fwd + both if t[0] < t[1] else bwd + both
                        probs[j, t] += share * p / pairs
            elif isinstance(comp, LoopComponent):
                member, loop, both = comp.pattern
                for j, t in _community_cells(n):
                    if j == 0:
                        probs[j, t] += share * (member + both) / n
                    elif t[0] == t[1]:
                        probs[j, t] += share * (loop + both) / n
            else:  # explicit, its atoms embedded at level n unchanged
                mass = comp.measure.total_mass
                for atom, w in comp.measure.weights.items():
                    for j in range(2):
                        for t in atom.tuples(j):
                            probs[j, t] += share * w / mass
        return probs

    def test_cell_flip_frequencies(self):
        batched, reference = self._samples()
        cells = _community_cells(self.N)
        exact = self._exact_flip_probs(_community_with_explicit(), self.N)
        # two-sided z-tests per cell, Bonferroni over the cells and the
        # three comparisons (each sampler against the exact law, and the
        # two samplers against each other)
        bound = stats.norm.isf(self.ALPHA / (2 * 3 * len(cells)))

        def flips(increments):
            counts = Counter()
            for inc in increments:
                counts.update((j, t) for j in range(2) for t in inc.tuples(j))
            return counts

        a, b = flips(batched), flips(reference)
        na, nb = len(batched), len(reference)
        assert min(na, nb) > 5000
        for cell in cells:
            for counts, size in ((a, na), (b, nb)):
                p = exact[cell]
                spread = math.sqrt(p * (1 - p) / size)
                assert abs(counts[cell] / size - p) <= bound * spread, cell
            pooled = (a[cell] + b[cell]) / (na + nb)
            spread = math.sqrt(pooled * (1 - pooled) * (1 / na + 1 / nb))
            assert abs(a[cell] / na - b[cell] / nb) <= bound * spread, cell

    def test_orbit_counts(self):
        batched, reference = self._samples()
        orbit = {}

        def counts(increments):
            out = Counter()
            for inc in increments:
                if inc not in orbit:
                    orbit[inc] = orbit_of(inc)
                out[orbit[inc]] += 1
            return out

        a, b = counts(batched), counts(reference)
        na, nb = len(batched), len(reference)
        # 2 x K homogeneity table; orbits expecting under 5 in a row are pooled
        table, rare = [], [0, 0]
        for oid in sorted(set(a) | set(b), key=lambda o: o.canonical):
            share = (a[oid] + b[oid]) / (na + nb)
            if min(na, nb) * share < 5.0:
                rare[0] += a[oid]
                rare[1] += b[oid]
            else:
                table.append([a[oid], b[oid]])
        if sum(rare):
            table.append(rare)
        assert len(table) > 10
        statistic, p_value, _, _ = stats.chi2_contingency(np.array(table).T, correction=False)
        assert p_value > self.ALPHA


class TestMemory:
    GRAPH_STREAM = {
        "signature": "(2)",
        "components": [
            {"type": "pair", "rate": 0.2},
            {"type": "vertex", "rate": 1.0, "rho": 0.02},
            {"type": "loop", "rate": 1.0},
        ],
    }
    BUDGET = 16 * 2**20

    def test_event_stream_memory_does_not_grow_with_state_size(self):
        # one full 90,000-bit state per event would take about 50 MB here
        intensity = intensity_from_json(json.dumps(self.GRAPH_STREAM))
        tracemalloc.start()
        try:
            traj = simulate_levy(intensity, 300, 0.5, make_rng(84))
            text = events_to_jsonl(traj, seed=84)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = events_from_jsonl(text)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.events) > 4000
        assert back == traj
        assert write_peak < self.BUDGET
        assert read_peak < self.BUDGET


class TestRestrictionInLaw:
    def test_restricted_increment_law_chi_square(self):
        # restricting a level-20 singleton process to [5] must reproduce the
        # level-5 conditional increment law: uniform over the five singletons
        from comblevy.inference import chi2_upper_tail

        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        counts = Counter()
        for r in range(200):
            traj = restrict_trajectory(
                simulate_levy(I, 20, 2.0, make_rng(70, stream=r)), 5
            )
            for inc in traj.jump_increments():
                (element,) = [a for (a,) in inc.tuples(0)]
                counts[element] += 1
        total = sum(counts.values())
        expected = total / 5
        statistic = sum(
            (counts.get(i, 0) - expected) ** 2 / expected for i in range(1, 6)
        )
        assert chi2_upper_tail(statistic, 4) > 0.001

    def test_per_element_marginal_general_rate(self):
        c, n, t, reps = 0.7, 10, 0.8, 400
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=c),))
        present = Counter()
        for r in range(reps):
            traj = simulate_levy(I, n, 1.0, make_rng(71, stream=r))
            for (a,) in traj.state_at(t).tuples(0):
                present[a] += 1
        p = marginal_flip_probability(c, t)
        band = 3 * math.sqrt(p * (1 - p) / reps)
        for i in range(1, n + 1):
            assert abs(present[i] / reps - p) <= band


class TestLawExchangeability:
    def _orbit_jump_counts(self, traj):
        counts = Counter()
        for inc in traj.jump_increments():
            counts[orbit_of(inc)] += 1
        return counts

    def test_relabeled_counts_exactly_equal(self):
        I = LevyIntensity(
            SIG1,
            (SetSingletonComponent(rate=1.0), MixtureAtom(weight=0.5, probs=(0.3,))),
        )
        traj = simulate_levy(I, 4, 3.0, make_rng(60))
        sigma = random_permutation(make_rng(61), 4)
        relabeled = LevyTrajectory(
            4,
            traj.horizon,
            tuple((t, relabel(s, sigma)) for t, s in traj.events),
        )
        assert self._orbit_jump_counts(traj) == self._orbit_jump_counts(relabeled)

    def test_independent_runs_match_within_noise(self):
        I = LevyIntensity(
            SIG1,
            (SetSingletonComponent(rate=1.0), MixtureAtom(weight=0.5, probs=(0.3,))),
        )
        runs = 100
        totals_a: Counter = Counter()
        totals_b: Counter = Counter()
        for r in range(runs):
            totals_a.update(
                self._orbit_jump_counts(simulate_levy(I, 4, 2.0, make_rng(62, stream=r)))
            )
            totals_b.update(
                self._orbit_jump_counts(simulate_levy(I, 4, 2.0, make_rng(63, stream=r)))
            )
        for oid in set(totals_a) | set(totals_b):
            a, b = totals_a[oid], totals_b[oid]
            assert abs(a - b) <= 3 * math.sqrt(a + b + 1)


class TestClosedForms:
    def test_marginal_flip_examples(self):
        assert marginal_flip_probability(1.0, 0.0) == 0.0
        assert marginal_flip_probability(1.0, 1e9) == pytest.approx(0.5)
        assert marginal_flip_probability(1.0, math.log(2) / 2) == pytest.approx(0.25)

    def test_marginal_flip_rate_scaling(self):
        assert marginal_flip_probability(2.0, 0.5) == pytest.approx(
            marginal_flip_probability(1.0, 1.0)
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            marginal_flip_probability(-1.0, 1.0)

    def test_expm_zero_generator(self):
        E = expm_small(np.zeros((3, 3)), 5.0)
        assert np.allclose(E, np.eye(3), atol=1e-14)

    def test_expm_flip_generator(self):
        Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        for t in (0.1, 1.0, 10.0):
            E = expm_small(Q, t)
            assert abs(E[0, 1] - 0.5 * (1 - math.exp(-2 * t))) <= 1e-10
            assert abs(E[0, 0] - 0.5 * (1 + math.exp(-2 * t))) <= 1e-10

    def test_expm_consistent_with_closed_form(self):
        for c in (0.5, 1.0, 3.0):
            for t in (0.2, 1.0, 4.0):
                Q = c * np.array([[-1.0, 1.0], [1.0, -1.0]])
                assert abs(
                    expm_small(Q, t)[0, 1] - marginal_flip_probability(c, t)
                ) <= 1e-10

    def test_expm_random_generators_stochastic_rows(self):
        rng = make_rng(64)
        for _ in range(10):
            off = rng.random((4, 4)) * 2.0
            np.fill_diagonal(off, 0.0)
            Q = off - np.diag(off.sum(axis=1))
            E = expm_small(Q, 0.7)
            assert np.abs(E.sum(axis=1) - 1.0).max() <= 1e-10
            assert E.min() >= 0.0

    def test_expm_rejects_invalid(self):
        with pytest.raises(ValueError):
            expm_small(np.array([[0.0, -1.0], [1.0, 0.0]]), 1.0)
        with pytest.raises(ValueError):
            expm_small(np.array([[-1.0, 2.0], [1.0, -1.0]]), 1.0)
        with pytest.raises(ValueError):
            expm_small(np.zeros((2, 3)), 1.0)


class TestFileFormats:
    def _intensity(self):
        mu = FiniteMeasure(SIG12, 2, {Structure.from_tuples(SIG12, 2, [{1}, set()]): 0.4})
        return LevyIntensity(
            SIG12,
            (
                MixtureAtom(weight=1.0, probs=(0.1, 0.05)),
                VertexComponent(rate=0.5, rho=0.4, member_prob=0.2),
                PairComponent(rate=0.3, pattern=(0.2, 0.3, 0.5)),
                LoopComponent(rate=0.1, pattern=(0.1, 0.8, 0.1)),
                ExplicitFinite(mu),
            ),
        )

    def test_intensity_json_roundtrip(self):
        I = self._intensity()
        back = intensity_from_json(intensity_to_json(I))
        assert back == I

    def test_intensity_rejects_malformed(self):
        with pytest.raises(ValueError):
            intensity_from_json("nope")
        with pytest.raises(ValueError):
            intensity_from_json('{"signature": "(1)", "components": [{"type": "wat"}]}')
        with pytest.raises(ValueError):
            intensity_from_json('{"signature": "(1)", "components": [{"type": "vertex"}]}')
        misspelled = (
            '{"signature": "(1,2)", "components": [{"type": "vertex", "rate": 1,'
            ' "rho": 0.3, "memberprob": 0.5}]}'
        )
        with pytest.raises(ValueError, match="memberprob"):
            intensity_from_json(misspelled)
        vertex = {"type": "vertex", "rate": 1, "rho": 0.3}
        mistyped = [
            ("(2)", {**vertex, "include_loop": "false"}),
            ("(2)", {**vertex, "include_loop": 0}),
            ("(2)", {**vertex, "rate": "1"}),
            ("(2)", {**vertex, "rho": True}),
            ("(2)", {**vertex, "rate": float("nan")}),
            ("(2)", {"type": "pair", "rate": 1, "pattern": ["0.2", 0.3, 0.5]}),
            ("(1)", {"type": "mixture_atom", "weight": 1, "probs": [True]}),
        ]
        for signature, comp in mistyped:
            payload = {"signature": signature, "components": [comp]}
            with pytest.raises(ValueError, match="must be a"):
                intensity_from_json(json.dumps(payload))

    def test_trajectory_csv_roundtrip(self):
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        traj = simulate_levy(I, 4, 2.0, make_rng(65))
        back = trajectory_from_csv(trajectory_to_csv(traj), horizon=traj.horizon)
        assert back.events == traj.events

    def test_events_jsonl_roundtrip(self):
        for I, n in [
            (LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),)), 4),
            (LevyIntensity(SIG13, (MixtureAtom(weight=2.0, probs=(0.3, 0.05)),)), 3),
        ]:
            # horizon 10: no jump at all has probability below 1e-7 in both cases
            traj = simulate_levy(I, n, 10.0, make_rng(66))
            assert len(traj.events) > 1
            text = events_to_jsonl(traj, seed=66)
            back = events_from_jsonl(text)
            assert back.events == traj.events
            assert back.horizon == traj.horizon
            header = json.loads(text.splitlines()[0])
            assert header["seed"] == 66
            assert "init" not in header

    def test_readers_roundtrip_and_reject_other_n(self):
        # 50 states over the few cells of [3]; every reader binds one parser
        # to the file's first signature and n
        rng = make_rng(69)
        states = [empty_structure(SIG12, 3)]
        while len(states) < 50:
            m = random_structure(rng, SIG12, 3, density=0.3)
            if m != states[-1]:
                states.append(m)
        traj = LevyTrajectory(3, 49.0, [(float(i), m) for i, m in enumerate(states)])
        walk = WalkTrajectory(tuple(states))
        for read, text, expected in [
            (trajectory_from_csv, trajectory_to_csv(traj), traj),
            (events_from_jsonl, events_to_jsonl(traj), traj),
            (walk_from_csv, walk_to_csv(walk), walk),
        ]:
            assert read(text) == expected

        lines = trajectory_to_csv(traj).splitlines()
        lines[20] = lines[20].partition(",")[0] + "," + serialize(empty_structure(SIG12, 4))
        with pytest.raises(ValueError, match="n=4"):
            trajectory_from_csv("\n".join(lines))
        lines = walk_to_csv(walk).splitlines()
        lines[20] = "19," + serialize(empty_structure(SIG12, 4))
        with pytest.raises(ValueError, match="n=4"):
            walk_from_csv("\n".join(lines))

    def test_events_jsonl_rejects_malformed_records(self, monkeypatch):
        header = {"signature": "(1)", "n": 3, "T": 1.0, "seed": None}
        with pytest.raises(ValueError, match="'increment'"):
            events_from_jsonl(json.dumps(header) + '\n{"t": 0.5, "increment": 5}')
        with pytest.raises(ValueError, match="'init'"):
            events_from_jsonl(json.dumps({**header, "init": 7}))
        other_n = json.dumps({"t": 0.5, "increment": "L=(1)|n=4|R1={(1)}"})
        with pytest.raises(ValueError, match="n=4"):
            events_from_jsonl(json.dumps(header) + "\n" + other_n)
        nan_time = json.dumps({"t": float("nan"), "increment": "L=(1)|n=3|R1={(1)}"})
        with pytest.raises(ValueError, match="increasing"):
            events_from_jsonl(json.dumps(header) + "\n" + nan_time)
        for increment, problem in [
            ("L=(1)|n=3|R1={(" + "1" * 30 + ")}", "outside 1..3"),
            ("L=(1)|n=3|R1={(2);(1)}", "not canonical"),
            ("L=(1)|n=3|R1={(2);(2)}", "not canonical"),
            ("L=(1)|n=3|R1={(1,2)}", "malformed tuple"),
            ("L=(1)|n=3|R1={}", "change the state"),
        ]:
            record = json.dumps({"t": 0.5, "increment": increment})
            with pytest.raises(ValueError, match=problem):
                events_from_jsonl(json.dumps(header) + "\n" + record)

        # one bad increment in the first, a middle or the last of many
        # batches of about two records is named by its record's time
        monkeypatch.setattr(structures, "_READ_BATCH_CHARS", 100)
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        lines = events_to_jsonl(simulate_levy(I, 4, 20.0, make_rng(70))).splitlines()
        assert len(lines) > 40
        for i in (1, len(lines) // 2, len(lines) - 1):
            record = json.loads(lines[i])
            bad = lines[:i] + [lines[i].replace("R1={(", "R1={(5);(", 1)] + lines[i + 1:]
            with pytest.raises(ValueError, match=f"increment at t={record['t']}: tuple \\(5\\)"):
                events_from_jsonl("\n".join(bad))

    def test_readers_cross_batch_and_snapshot_boundaries(self, monkeypatch):
        # a non-empty start and more than three snapshots' worth of jumps,
        # read back in batches of a few characters to a few records: every
        # batch boundary falls inside the log's snapshot stretches
        intensity = LevyIntensity(
            SIG12,
            (
                MixtureAtom(weight=0.5, probs=(0.2, 0.1)),
                VertexComponent(rate=1.0, rho=0.3, member_prob=0.5),
                PairComponent(rate=1.0),
            ),
        )
        simulated = simulate_levy(intensity, 4, 60.0, make_rng(71))
        start = random_structure(make_rng(72), SIG12, 4)
        traj = LevyTrajectory(
            4, simulated.horizon, [(t, increment(s, start)) for t, s in simulated.events]
        )
        assert len(traj.events) > 3 * _SNAPSHOT_EVERY
        states = tuple(s for _, s in traj.events)[:300]
        walk = WalkTrajectory(states)
        texts = [
            (events_from_jsonl, events_to_jsonl(traj)),
            # the CSV does not record the horizon
            (partial(trajectory_from_csv, horizon=traj.horizon), trajectory_to_csv(traj)),
        ]
        walk_text = walk_to_csv(walk)
        for chars in (1, 37, 500, 5000):
            monkeypatch.setattr(structures, "_READ_BATCH_CHARS", chars)
            assert walk_from_csv(walk_text) == walk
            for read, text in texts:
                for back in (read(text), read(text.replace("\n", "\r\n"))):
                    assert back == traj
                    assert back._snapshots == traj._snapshots
                    assert back.events[-1] == traj.events[-1]

    def test_events_jsonl_reads_records_in_any_json_form(self):
        # records in another key order or spacing, or with an integer time,
        # read as the writer's form does
        I = LevyIntensity(SIG12, (MixtureAtom(weight=2.0, probs=(0.3, 0.2)),))
        traj = simulate_levy(I, 3, 20.0, make_rng(73))
        lines = events_to_jsonl(traj).splitlines()
        records = [json.loads(line) for line in lines[1:]]
        reworded = [lines[0]] + [
            json.dumps({"t": r["t"], "increment": r["increment"]}, indent=None, separators=(",", ":"))
            for r in records
        ]
        assert events_from_jsonl("\n".join(reworded)) == traj
        whole = {"signature": "(1)", "n": 2, "T": 5.0, "seed": None}
        text = json.dumps(whole) + '\n{"increment": "L=(1)|n=2|R1={(2)}", "t": 3}\n'
        assert events_from_jsonl(text).events[1][0] == 3.0

    def test_writers_fixed_log_text(self):
        # the exact bytes both writers gave before the cached-token formatter
        S12 = lambda a, b: S(SIG12, 3, a, b)
        events = [
            (0.0, S12({2}, {(1, 3)})),
            (0.25, S12({2, 3}, {(1, 3)})),
            (0.5, S12({3}, {(1, 3), (3, 1), (2, 2)})),
            (1.125, S12(set(), {(2, 2)})),
        ]
        traj = LevyTrajectory(3, 2.0, events)
        assert events_to_jsonl(traj, seed=9) == (
            '{"T": 2.0, "init": "L=(1,2)|n=3|R1={(2)}|R2={(1,3)}", "n": 3, '
            '"seed": 9, "signature": "(1,2)"}\n'
            '{"increment": "L=(1,2)|n=3|R1={(3)}|R2={}", "t": 0.25}\n'
            '{"increment": "L=(1,2)|n=3|R1={(2)}|R2={(2,2);(3,1)}", "t": 0.5}\n'
            '{"increment": "L=(1,2)|n=3|R1={(3)}|R2={(1,3);(3,1)}", "t": 1.125}\n'
        )
        assert trajectory_to_csv(traj) == (
            "time,structure\n"
            "0.0,L=(1,2)|n=3|R1={(2)}|R2={(1,3)}\n"
            "0.25,L=(1,2)|n=3|R1={(2);(3)}|R2={(1,3)}\n"
            "0.5,L=(1,2)|n=3|R1={(3)}|R2={(1,3);(2,2);(3,1)}\n"
            "1.125,L=(1,2)|n=3|R1={}|R2={(2,2)}\n"
        )
        # every record line is exactly json.dumps of its record
        simulated = simulate_levy(self._intensity(), 3, 5.0, make_rng(68))
        lines = events_to_jsonl(simulated).splitlines()[1:]
        assert len(lines) > 10
        increments = simulated.jump_increments()
        for line, (t, _), inc in zip(lines, simulated.events[1:], increments):
            assert line == json.dumps({"t": t, "increment": serialize(inc)}, sort_keys=True)

    def test_events_jsonl_header_types(self):
        # header fields are checked, not coerced (n=3.7 used to load as n=3,
        # T "2" and true as horizons 2.0 and 1.0)
        header = {"signature": "(1)", "n": 3, "T": 2.0, "seed": 5}
        record = json.dumps({"t": 0.5, "increment": "L=(1)|n=3|R1={(1)}"})
        good = events_from_jsonl(json.dumps(header) + "\n" + record)
        assert (good.n, good.horizon, len(good.events)) == (3, 2.0, 2)
        assert events_from_jsonl(json.dumps({**header, "T": 2, "seed": None})).horizon == 2
        bad = [
            ("n", 3.7), ("n", "3"), ("n", True), ("n", None),
            ("T", "2"), ("T", True), ("T", 0), ("T", -1.0), ("T", None),
            ("T", float("nan")), ("T", float("inf")),
            ("seed", "5"), ("seed", 1.5), ("seed", True),
            ("signature", 12),
        ]
        for field, value in bad:
            text = json.dumps({**header, field: value}) + "\n" + record
            with pytest.raises(ValueError, match=f"'{field}'"):
                events_from_jsonl(text)
        for t in ("0.5", True):
            text = json.dumps(header) + "\n" + json.dumps(
                {"t": t, "increment": "L=(1)|n=3|R1={(1)}"}
            )
            with pytest.raises(ValueError, match="'t'"):
                events_from_jsonl(text)

    def test_events_jsonl_nonempty_start(self):
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        flip = S(SIG1, 4, {1})
        traj = simulate_levy(I, 4, 2.0, make_rng(67))
        started = LevyTrajectory(
            4, traj.horizon, tuple((t, increment(s, flip)) for t, s in traj.events)
        )
        lines = events_to_jsonl(started).splitlines()
        assert events_from_jsonl("\n".join(lines)).events == started.events
        header = json.loads(lines[0])
        for bad in ("L=(1)|n=3|R1={(1)}", "L=(2)|n=4|R1={}"):
            header["init"] = bad
            with pytest.raises(ValueError, match="initial state"):
                events_from_jsonl("\n".join([json.dumps(header)] + lines[1:]))
