import hashlib
import io
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

from comblevy import levy, structures, trajectory
from comblevy.inference import empirical_jump_measure
from comblevy.limits import density_vector, limit_path
from comblevy.levy import (
    ExplicitFinite,
    LevyIntensity,
    LocalComponent,
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
    intensity_from_json,
    intensity_to_json,
    marginal_flip_probability,
    restrict_trajectory,
    simulate_levy,
    trajectory_from_csv,
    trajectory_to_csv,
)
from comblevy.measures import FiniteMeasure, urn_measure
from comblevy.orbits import orbit_of
from comblevy.rng import make_rng
from comblevy.structures import (
    Signature,
    Structure,
    _cell_lists,
    _flat_cells,
    _structure_from_cells,
    empty_structure,
    increment,
    relabel,
    restrict,
    serialize,
)
from comblevy.walk import simulate_walk, walk_from_csv, walk_to_csv

from helpers import (
    bernoulli_set_measure,
    expm_small,
    gillespie_levy,
    levy_path,
    local_law,
    local_slots,
    naive_restrict,
    random_permutation,
    random_structure,
    record_events_to_jsonl,
    record_serialize,
    record_trajectory_to_csv,
    record_walk_to_csv,
    sample_rows,
    walk_path,
)

# Events: the long paths below span several stretches of this many, so their
# lookups and block reads cross stretch ends at many points of the log.
STRETCH = 128

SIG1 = Signature((1,))
SIG2 = Signature((2,))
SIG12 = Signature((1, 2))
SIG13 = Signature((1, 3))
SIG3 = Signature((3,))
SIG01 = Signature((0, 1))


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

    def test_local_pattern_cells_use_every_label(self):
        mu = FiniteMeasure(SIG3, 3, {S(SIG3, 3, {(1, 2, 3), (1, 1, 2)}): 1.0})
        with pytest.raises(ValueError, match=r"cell \(1,1,2\) of relation 1 does not use all 3"):
            LocalComponent(1.0, mu)
        with pytest.raises(ValueError, match="must not weight the empty structure"):
            LocalComponent(1.0, FiniteMeasure(SIG3, 3, {empty_structure(SIG3, 3): 1.0}))
        with pytest.raises(ValueError, match="k >= 1"):
            LocalComponent(1.0, FiniteMeasure(SIG1, 0, {}))

    def test_local_measure_must_fit_signature(self):
        for sig in (SIG1, SIG3, SIG13):
            with pytest.raises(ValueError, match=r"pattern signature \(2\) does not fit"):
                LevyIntensity(sig, (PairComponent(1.0),))
        with pytest.raises(ValueError, match=r"pattern signature \(1,2\) does not fit"):
            LevyIntensity(Signature((2, 2)), (LoopComponent(1.0, pattern=(0.5, 0.5, 0.0)),))
        # nu's relations go to the process relations of their arity in order
        sampler = PairComponent(1.0).restrict(Signature((2, 2)), 4)
        assert not sampler.sample_cells_batch(make_rng(1), 100)[1][:, 1].any()

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

    def test_cell_codes_must_fit_int64(self):
        # pair cells run up to n^2 - 1; past 10^18 they would wrap in int64
        I = LevyIntensity(SIG2, (PairComponent(rate=1.0),))
        with pytest.raises(ValueError, match="n=5000000000 is too large"):
            RestrictedIntensity(I, 5_000_000_000)
        n = 999_999_999
        cells, _ = RestrictedIntensity(I, n).sample_cells_batch(make_rng(1), 64)
        assert cells.min() >= 0 and cells.max() < n * n


def _conditional_blocks_law(blocks):
    """Exact law, by enumeration, of the set of flipped (block, cell) pairs
    of independent flips in blocks (count, prob), given at least one."""
    cells = [(b, i, p) for b, (c, p) in enumerate(blocks) for i in range(c)]
    law = {}
    for flips in itertools.product((False, True), repeat=len(cells)):
        weight = math.prod(p if f else 1 - p for f, (_, _, p) in zip(flips, cells))
        if any(flips) and weight:
            law[frozenset((b, i) for f, (b, i, _) in zip(flips, cells) if f)] = weight
    total = sum(law.values())
    return {flipped: w / total for flipped, w in law.items()}


def _assert_law_close(empirical, exact, draws, z=4.0):
    for subset, p in exact.items():
        # a few draws of a subset of tiny probability are no evidence against it
        band = z * math.sqrt(p * (1 - p) / draws) + 3 / draws
        assert abs(empirical.get(subset, 0.0) - p) <= band, subset


class TestConditionalSamplers:
    @pytest.mark.parametrize(
        "blocks",
        [
            [(3, 0.4)],  # P(some flip) >= 1%
            [(3, 0.003)],  # P(some flip) < 1%
            [(0, 0.5), (3, 0.4), (0, 0.3)],  # blocks of no cells
            [(1, 0.5), (4, 0.3)],  # a vertex's membership and edge blocks
            [(1, 0.002), (4, 0.001)],
            [(2, 1.0), (2, 0.3)],
            [(2, 0.3), (1, 1.0)],
            [(2, 0.0), (2, 0.3), (2, 0.0)],
        ],
        ids=["dense", "sparse", "no-cells", "vertex", "vertex-sparse", "p1-first", "p1-last", "p0"],
    )
    def test_blocks_match_exact_law(self, blocks):
        sampler, draws = _BernoulliBlocks(blocks), 50_000
        # a batch of no rows draws nothing and takes no random numbers
        rng, twin = make_rng(44), make_rng(44)
        cells, counts = sampler.sample(rng, 0)
        assert cells.size == 0 and counts.shape == (0, len(blocks))
        assert rng.random() == twin.random()
        cells, counts = sampler.sample(rng, draws)
        assert counts.shape == (draws, len(blocks)) and counts.sum(axis=1).min() >= 1
        flipped = Counter()
        for row in _cell_lists(cells, counts):
            for cells_b, (c, _) in zip(row, blocks):
                assert cells_b == sorted(set(cells_b)) and all(0 <= i < c for i in cells_b)
            flipped[frozenset((b, i) for b, cells_b in enumerate(row) for i in cells_b)] += 1
        exact = _conditional_blocks_law(blocks)
        assert set(flipped) <= set(exact)
        _assert_law_close({s: v / draws for s, v in flipped.items()}, exact, draws)

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


def _graph(sig, n, members, edges):
    """The structure with these members and edges over [n], for the
    signature (2) or (1,2)."""
    return S(sig, n, members, edges) if sig == SIG12 else S(sig, n, edges)


# An asymmetric pattern law on (3) over [3]: patterns of one and two cells.
NU3 = FiniteMeasure(SIG3, 3, {
    S(SIG3, 3, {(1, 2, 3)}): 0.5,
    S(SIG3, 3, {(2, 1, 3), (3, 1, 2)}): 0.3,
    S(SIG3, 3, {(3, 2, 1)}): 0.2,
})


class TestLocalLaw:
    """The local kind's level-n law against enumerations that share no
    code with its sampler: the closed forms of the set-singleton, pair and
    loop kinds it replaced, its draws at arity 3, and restriction."""

    @staticmethod
    def _old_law(kind, sig, n, rate, pattern):
        """The jump law, at rate per jump, of the set-singleton, pair and
        loop kinds, as those kinds defined it."""
        law = Counter()
        if kind == "set_singleton":
            for i in range(1, n + 1):
                law[S(sig, n, {i})] += rate
        elif kind == "pair":
            for i, j in itertools.combinations(range(1, n + 1), 2):
                for w, edges in zip(pattern, ({(i, j)}, {(j, i)}, {(i, j), (j, i)})):
                    law[_graph(sig, n, set(), edges)] += rate * w
        else:
            for i in range(1, n + 1):
                for w, members, edges in zip(pattern, ({i}, set(), {i}), (set(), {(i, i)}, {(i, i)})):
                    law[_graph(sig, n, members, edges)] += rate * w
        return {jump: w for jump, w in law.items() if w}

    # name -> the old kind, its signature, its front end and pattern
    OLD_KINDS = {
        "set_singleton": ("set_singleton", SIG1, lambda: SetSingletonComponent(2.0), None),
        "pair": ("pair", SIG2, lambda: PairComponent(2.0), (1 / 3, 1 / 3, 1 / 3)),
        "pair_skewed": ("pair", SIG2, lambda: PairComponent(2.0, (0.5, 0.3, 0.2)), (0.5, 0.3, 0.2)),
        "pair_community": ("pair", SIG12, lambda: PairComponent(2.0, (0.5, 0.2, 0.3)), (0.5, 0.2, 0.3)),
        "loop": ("loop", SIG2, lambda: LoopComponent(2.0), (0.0, 1.0, 0.0)),
        "loop_community": ("loop", SIG12, lambda: LoopComponent(2.0), (0.0, 1.0, 0.0)),
        "loop_member": ("loop", SIG12, lambda: LoopComponent(2.0, (0.3, 0.4, 0.3)), (0.3, 0.4, 0.3)),
    }
    # the old kinds' level-n rates per unit rate
    OLD_RATES = {"set_singleton": lambda n: n, "pair": lambda n: n * (n - 1) / 2, "loop": lambda n: n}

    @pytest.mark.parametrize("name", sorted(OLD_KINDS))
    def test_front_ends_keep_the_old_laws(self, name):
        kind, sig, build, pattern = self.OLD_KINDS[name]
        for n in range(1, 5):
            old = self._old_law(kind, sig, n, 2.0, pattern)
            new = local_law(build(), sig, n)
            assert set(new) == set(old)
            assert all(abs(new[jump] - w) <= 1e-12 for jump, w in old.items())
            rate = RestrictedIntensity(LevyIntensity(sig, (build(),)), n).total_rate
            assert rate == pytest.approx(2.0 * self.OLD_RATES[kind](n), abs=1e-12)

    @pytest.mark.parametrize("sig", [SIG3, Signature((2, 3))], ids=["3", "2,3"])
    def test_arity_three_draws_match_the_oracle(self, sig):
        # one chi-square test at level 1e-3 per signature
        comp, n, draws = LocalComponent(2.0, NU3), 4, 40_000
        law = local_law(comp, sig, n)
        restricted = RestrictedIntensity(LevyIntensity(sig, (comp,)), n)
        assert restricted.total_rate == pytest.approx(sum(law.values()), abs=1e-12)
        cells, counts = restricted.sample_cells_batch(make_rng(60), draws)
        seen = Counter(_structure_from_cells(sig, n, row) for row in _cell_lists(cells, counts))
        assert set(seen) <= set(law)
        jumps = sorted(law, key=serialize)
        expected = [draws * law[jump] / sum(law.values()) for jump in jumps]
        assert stats.chisquare([seen[jump] for jump in jumps], expected).pvalue > 1e-3

    PATTERNS = {
        1: LoopComponent(1.5, (0.3, 0.4, 0.3)),
        2: PairComponent(1.5, (0.5, 0.3, 0.2)),
        3: LocalComponent(1.5, NU3),
    }

    @pytest.mark.parametrize("k", sorted(PATTERNS))
    def test_projective_by_enumeration(self, k):
        # the level-n law restricted to [m], less its empty images, is the
        # level-m law: rate C(m, k) nu
        comp = self.PATTERNS[k]
        sig = comp.measure.signature
        for n in range(1, 5):
            law = local_law(comp, sig, n)
            for m in range(n):
                image = Counter()
                for jump, w in law.items():
                    small = naive_restrict(jump, m)
                    if not small.is_empty():
                        image[small] += w
                want = local_law(comp, sig, m)
                assert set(image) == set(want)
                assert all(abs(image[jump] - w) <= 1e-12 for jump, w in want.items())
                total = comp.rate * math.comb(m, k) * comp.measure.total_mass
                assert sum(want.values()) == pytest.approx(total, abs=1e-12)


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

    def test_refuses_more_jumps_than_float64_times_keep_apart(self):
        # rate 4 over T = 2^22 expects JUMP_CAP jumps, the most allowed;
        # the refusal comes before any draw, so the rng is never touched
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        with pytest.raises(ValueError, match=r"about 1\.678e\+07 jumps expected at n=4 over "
                                             r"T=4194305\.0, more than JUMP_CAP=16777216"):
            simulate_levy(I, 4, 2.0**22 + 1, object())

    def test_names_float64_resolution_when_jump_times_tie(self, monkeypatch):
        def tied(restricted, horizon, rng):
            yield np.array([0.25, 0.5, 0.5]), restricted.sample_cells_batch(rng, 3)

        monkeypatch.setattr(levy, "_jump_chain", tied)
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        with pytest.raises(ValueError, match=r"t=0\.5 after 0\.5: two jump times tie at "
                                             r"float64 resolution$"):
            simulate_levy(I, 4, 1.0, make_rng(59))

    def test_deterministic_given_seed(self):
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        a = simulate_levy(I, 6, 2.0, make_rng(58))
        b = simulate_levy(I, 6, 2.0, make_rng(58))
        assert a.events == b.events


class TestTrajectoryType:
    def test_rejects_unordered_times(self):
        e = empty_structure(SIG1, 2)
        s = S(SIG1, 2, {1})
        with pytest.raises(ValueError):
            levy_path(2.0, ((0.0, e), (1.0, s), (1.0, e)))

    def test_rejects_consecutive_duplicates(self):
        e = empty_structure(SIG1, 2)
        with pytest.raises(ValueError):
            levy_path(2.0, ((0.0, e), (1.0, e)))

    def test_rejects_event_beyond_horizon(self):
        e = empty_structure(SIG1, 2)
        with pytest.raises(ValueError):
            levy_path(1.0, ((0.0, e), (1.5, S(SIG1, 2, {1}))))

    def test_rejects_non_finite_horizon(self):
        e = empty_structure(SIG1, 2)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                levy_path(horizon, ((0.0, e),))
            with pytest.raises(ValueError, match="finite"):
                simulate_levy(LevyIntensity(SIG1, ()), 2, horizon, make_rng(57))

    def test_state_at_bounds(self):
        e = empty_structure(SIG1, 2)
        traj = levy_path(2.0, ((0.0, e), (1.0, S(SIG1, 2, {1}))))
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
        traj = levy_path(2.0, ((0.0, e3), (1.0, S(SIG1, 3, {3}))))
        restricted = restrict_trajectory(traj, 2)
        assert restricted.events == ((0.0, empty_structure(SIG1, 2)),)

    def test_rejects_growth(self):
        traj = levy_path(1.0, ((0.0, empty_structure(SIG1, 2)),))
        with pytest.raises(ValueError):
            restrict_trajectory(traj, 3)

    @pytest.mark.parametrize(
        "sig", [Signature(()), SIG1, SIG2, SIG12, SIG01], ids=["()", "1", "2", "1,2", "0,1"]
    )
    def test_against_naive_restrict(self, sig):
        # a non-empty start and sparse jumps, of which those touching only
        # labels above m vanish at level m; a walk's steps may be empty too,
        # and a restricted walk keeps every step, empty or not
        n, rng = 5, make_rng(470)
        states = [random_structure(rng, sig, n)]
        for _ in range(100 if sig.k else 0):
            flip = random_structure(rng, sig, n, density=0.06)
            if not flip.is_empty():
                states.append(increment(states[-1], flip))
        walk_states = [s for s in states for _ in range(2)]
        paths = (levy_path(len(states), enumerate(states)), walk_path(walk_states))
        for path, path_states in zip(paths, (states, walk_states)):
            for m in (0, 1, n - 1, n):
                naive = [naive_restrict(s, m) for s in path_states]
                assert [restrict(s, m) for s in path_states] == naive
                kept = [0] + [i for i in range(1, len(naive)) if naive[i] != naive[i - 1]]
                restricted = restrict_trajectory(path, m)
                if path is paths[1]:
                    assert restricted == walk_path(naive)
                else:
                    assert restricted == levy_path(path.horizon, [(i, naive[i]) for i in kept])
                assert [restricted.state_at(i) for i in range(len(naive))] == naive
        assert len(restrict_trajectory(paths[0], n - 1).events) < len(states) or not sig.k

    def test_walk_keeps_its_empty_steps(self):
        # the restricted walk's jump measure counts its empty steps, as the
        # walk's own measure does
        walk = simulate_walk(urn_measure(1, 3), None, 200, make_rng(11))
        restricted = restrict_trajectory(walk, 1)
        assert restricted.T == 200
        counts = Counter(restricted.jump_increments())
        empty = empty_structure(walk.signature, 1)
        masses = dict(empirical_jump_measure(restricted).items_sorted())
        assert counts[empty] > 0 and masses[empty] == pytest.approx(counts[empty] / 200)


def _replay_full_states(intensity, n, horizon, rng):
    """Brute-force replay of simulate_levy's own draws (the batched chain's
    jumps), with every increment XORed into a full state that is kept."""
    restricted = RestrictedIntensity(intensity, n)
    state = empty_structure(intensity.signature, n)
    events = [(0.0, state)]
    for times, columns in _jump_chain(restricted, horizon, rng):
        for t, cells in zip(times.tolist(), _cell_lists(*columns)):
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
        (SIG01, lambda: (MixtureAtom(weight=2.0, probs=(0.3, 0.1)),), 4, 400.0),
    ]

    def _check(self, traj, events, horizon, rng):
        times = [t for t, _ in events]
        assert len(traj.events) == len(events)
        assert traj.events == tuple(events) and traj.events == events
        assert list(traj.events) == events
        assert traj.events[-1] == events[-1]
        stop = 3 * STRETCH
        assert traj.events[5:stop:7] == tuple(events[5:stop:7])
        assert traj.events[::-3] == tuple(events[::-3])
        increments = [increment(b, a) for (_, a), (_, b) in zip(events, events[1:])]
        assert traj.jump_increments() == increments
        assert traj.jump_increments()[-1] == increments[-1]
        for i, (t, s) in enumerate(events):  # every event, each replayed from the start
            assert traj.events[i] == (t, s)
            assert traj.state_at(t) == s
        for t in rng.uniform(0.0, horizon, 50):
            assert traj.state_at(float(t)) == events[bisect_right(times, t) - 1][1]
        assert traj.state_at(horizon) == events[-1][1]
        assert levy_path(horizon, events) == traj

    @pytest.mark.parametrize("case", range(len(CASES)), ids=["1", "2", "1,2", "1,3", "0,1"])
    def test_matches_full_state_replay(self, case):
        sig, components, n, horizon = self.CASES[case]
        intensity = LevyIntensity(sig, components())
        for seed in (81, 82, 83):
            traj = simulate_levy(intensity, n, horizon, make_rng(seed))
            events = _replay_full_states(intensity, n, horizon, make_rng(seed))
            assert len(events) > 2 * STRETCH
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
            traj = levy_path(horizon, started)
            self._check(traj, started, horizon, check_rng)
            self._check(
                restrict_trajectory(traj, n - 1),
                _restrict_full_states(started, n - 1),
                horizon,
                check_rng,
            )
            assert events_from_jsonl(events_to_jsonl(traj)) == traj
            assert trajectory_from_csv(trajectory_to_csv(traj), horizon) == traj


class TestReplayRoutes:
    """Iteration accumulates the increments one at a time; ``_states`` XORs
    a block increment per index; the two share only ``_block``."""

    @staticmethod
    def _paths():
        mu = FiniteMeasure(SIG1, 4, {
            empty_structure(SIG1, 4): 0.5, S(SIG1, 4, {1}): 0.25, S(SIG1, 4, {2, 3}): 0.25,
        })
        walk = simulate_walk(mu, S(SIG1, 4, {4}), 400, make_rng(91))
        assert any(inc.is_empty() for inc in walk.jump_increments())
        community = simulate_levy(_community_with_explicit(), 5, 20.0, make_rng(92))
        sets = simulate_levy(LevyIntensity(SIG1, (SetSingletonComponent(rate=3.0),)),
                             6, 60.0, make_rng(93))
        return walk, community, sets

    def test_iteration_matches_block_replay(self):
        rng = make_rng(94)
        for traj in self._paths():
            events = traj.events
            assert len(events) > 2 * STRETCH
            states = [s for _, s in events]
            assert list(traj._states(range(len(events)))) == states
            picked = np.sort(rng.integers(0, len(events), 40)).tolist()
            assert list(traj._states(picked)) == [states[i] for i in picked]
            assert [events[i][1] for i in picked] == [states[i] for i in picked]


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
            elif isinstance(comp, LocalComponent):
                # a cell flips when its labels are the jump's k-subset and
                # nu's pattern holds the cell it comes from
                mu = comp.measure
                slots = local_slots(mu.signature, SIG12)
                for j, t in _community_cells(n):
                    labels = sorted(set(t))
                    if len(labels) != mu.n or j not in slots:
                        continue
                    source = tuple(labels.index(a) + 1 for a in t)
                    hit = sum(w for m, w in mu.weights.items() if source in m.tuples(slots.index(j)))
                    probs[j, t] += share * hit / mu.total_mass / math.comb(n, mu.n)
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

    def test_walk_memory_does_not_grow_with_state_size(self):
        # one 1000-bit state per step would hold about 6 MB here; a small
        # walk first makes the imports the first walk makes
        simulate_walk(urn_measure(1, 2), None, 1, make_rng(0))
        mu, rng = urn_measure(1, 1000), make_rng(85)
        tracemalloc.start()
        try:
            walk = simulate_walk(mu, None, 20_000, rng)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert walk.T == 20_000
        assert held < 2 * 2**20

    def test_graph_stream_log_keeps_no_snapshots(self):
        # the bench's graph-stream path (n=300, T=3, ~28.6k jumps): the
        # samplers hand the log cell columns, neither simulating, writing nor
        # reading back builds a 90,000-bit state per event, and a lookup or a
        # limit path replays the log and keeps no state of its own
        intensity = intensity_from_json(json.dumps(self.GRAPH_STREAM))
        simulate_levy(intensity, 300, 0.01, make_rng(0))
        tracemalloc.start()
        try:
            traj = simulate_levy(intensity, 300, 3.0, make_rng(1))
            simulate_held, simulate_peak = tracemalloc.get_traced_memory()
            text = events_to_jsonl(traj, seed=1)
            before = tracemalloc.get_traced_memory()[0]
            back = events_from_jsonl(text)
            read_held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(traj.events) > 28_000
        assert simulate_peak <= 6 * 2**20
        assert simulate_held <= 1.5 * 2**20
        assert read_held <= 1.5 * 2**20
        assert back == traj and back.events[-1] == traj.events[-1]
        kept = [set(vars(traj)), set(vars(back))]
        assert traj.state_at(1.5) == back.state_at(1.5)
        assert limit_path(traj, 1, [0.6, 1.5, 3.0])[1] == density_vector(back.state_at(1.5), 1)
        assert [set(vars(traj)), set(vars(back))] == kept


class TestColumnSamplers:
    """Every level sampler's cell columns against the reference row
    sampler ``helpers.sample_rows``: the same draws, in the same order."""

    @staticmethod
    def _explicit():
        mu = FiniteMeasure(
            SIG12, 3, {S(SIG12, 3, {2}, {(1, 3), (3, 3)}): 2.0, S(SIG12, 3, set(), {(2, 1)}): 0.5}
        )
        return ExplicitFinite(mu)

    SAMPLERS = {
        "set_singleton": (SIG1, 7, lambda: SetSingletonComponent(rate=1.0)),
        "mixture": (SIG12, 4, lambda: MixtureAtom(weight=1.0, probs=(0.2, 0.1))),
        "mixture_first_flip": (SIG13, 5, lambda: MixtureAtom(weight=1.0, probs=(1e-4, 1e-5))),
        "vertex_loop": (SIG2, 6, lambda: VertexComponent(rate=1.0, rho=0.3, include_loop=True)),
        "vertex_member": (SIG12, 6, lambda: VertexComponent(rate=1.0, rho=0.3, member_prob=0.5)),
        "vertex_first_flip": (SIG2, 60, lambda: VertexComponent(rate=1.0, rho=1e-5)),
        "vertex_n1": (SIG12, 1, lambda: VertexComponent(rate=1.0, rho=0.3, member_prob=0.5)),
        "pair": (SIG2, 5, lambda: PairComponent(rate=1.0)),
        "pair_community": (SIG12, 5, lambda: PairComponent(rate=1.0, pattern=(0.5, 0.2, 0.3))),
        "loop": (SIG2, 5, lambda: LoopComponent(rate=1.0)),
        "loop_community": (SIG12, 5, lambda: LoopComponent(rate=1.0, pattern=(0.3, 0.4, 0.3))),
        "explicit": (SIG12, 4, _explicit),
    }

    @staticmethod
    def _check(sampler, k_relations):
        for seed in range(5):
            for k in (0, 1, 2, 1000):
                rng, oracle_rng = make_rng(seed), make_rng(seed)
                cells, counts = sampler.sample_cells_batch(rng, k)
                want_cells, want_counts = _flat_cells(sample_rows(sampler, oracle_rng, k), k_relations)
                assert cells.dtype == np.int64 and counts.dtype == np.int64
                assert counts.shape == (k, k_relations)
                assert np.array_equal(counts, want_counts)
                assert np.array_equal(cells, want_cells)
                assert rng.random() == oracle_rng.random()  # the same draws were taken

    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_component_columns_match_rows(self, kind):
        sig, n, component = self.SAMPLERS[kind]
        self._check(component().restrict(sig, n), sig.k)

    @pytest.mark.parametrize("sig", [SIG2, SIG12], ids=["2", "1,2"])
    def test_intensity_columns_match_rows(self, sig):
        components = [
            MixtureAtom(weight=0.5, probs=(0.2,) * sig.k),
            VertexComponent(rate=1.0, rho=0.3, include_loop=sig == SIG2),
            PairComponent(rate=1.0),
            LoopComponent(rate=1.0),
        ]
        if sig == SIG12:
            components.append(self._explicit())
        self._check(RestrictedIntensity(LevyIntensity(sig, tuple(components)), 5), sig.k)

    def test_measure_columns_match_rows(self):
        sig = SIG12
        weights = {empty_structure(sig, 3): 0.25, S(sig, 3, {1}, set()): 0.25,
                   S(sig, 3, {2, 3}, {(3, 1), (2, 2)}): 0.5}
        for mu in (FiniteMeasure(sig, 3, weights), urn_measure(2, 6)):
            self._check(mu, mu.signature.k)

    # sha256 of events_to_jsonl(simulate_levy(...), seed) with the flips of
    # mixture and vertex jumps drawn by _BernoulliBlocks.sample's batched
    # draw and the pair and loop patterns in the canonical order of their
    # local measure's support: any change to the draw order or the writer
    # shows here
    PINNED = {
        ("graph", 1): "d69c2f49ee2a2fcf7fed111ce78adeb7cd3f399a121874ca5ec632fb4c89745c",
        ("graph", 2): "fd00ed12bf302ceb52b6fe6f5d2e184b5a8305c1cb0c28988587e9a4f225f937",
        ("community", 1): "2d90e690b19177ba58bc248ffaddc8e23600ae119fa2c4a88c9e11718f312b6d",
        ("community", 2): "207a4067b4832f10d194f884320937f69a82e83674937149921e1cda17574700",
    }

    @pytest.mark.parametrize("name,seed", sorted(PINNED))
    def test_seeded_event_stream_pinned(self, name, seed):
        intensity, n, horizon = {
            "graph": (
                LevyIntensity(
                    SIG2,
                    (PairComponent(0.2), VertexComponent(1.0, rho=0.1), LoopComponent(1.0)),
                ),
                30,
                5.0,
            ),
            "community": (
                LevyIntensity(
                    SIG12,
                    (
                        MixtureAtom(0.5, (0.2, 0.1)),
                        VertexComponent(1.0, rho=0.3, member_prob=0.5),
                        PairComponent(1.0),
                        LoopComponent(1.0, pattern=(0.3, 0.4, 0.3)),
                    ),
                ),
                6,
                20.0,
            ),
        }[name]
        text = events_to_jsonl(simulate_levy(intensity, n, horizon, make_rng(seed)), seed=seed)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[name, seed]
        assert events_to_jsonl(events_from_jsonl(text), seed=seed) == text


class TestRestrictionInLaw:
    def test_restricted_increment_law_chi_square(self):
        # restricting a level-20 singleton process to [5] must reproduce the
        # level-5 conditional increment law: uniform over the five singletons
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
        assert stats.chi2.sf(statistic, 4) > 0.001

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
        relabeled = levy_path(traj.horizon,
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


def _matrix_path(name):
    """A path of the writer matrix: sparse paths, which the full-state
    writers splice row by row, dense ones (mixture atoms, vertex stars),
    which they format a block at a time, and mixed ones."""
    graph = (PairComponent(0.2), VertexComponent(1.0, rho=0.02), LoopComponent(1.0))
    community = (
        MixtureAtom(0.5, (0.2, 0.1)),
        VertexComponent(1.0, rho=0.3, member_prob=0.5),
        PairComponent(1.0),
        LoopComponent(1.0, pattern=(0.3, 0.4, 0.3)),
    )
    sig, components, n, horizon = {
        "set-singleton": (SIG1, (SetSingletonComponent(1.0),), 1000, 1.0),
        "graph": (SIG2, graph, 60, 3.0),
        "community": (SIG12, community, 30, None),
        "mixture-0,3": (Signature((0, 3)), (MixtureAtom(1.0, (0.5, 0.02)),), 8, None),
        "mixture-2-p0.2": (SIG2, (MixtureAtom(1.0, (0.2,)),), 30, None),
        "mixture-2-p0.02": (SIG2, (MixtureAtom(1.0, (0.02,)),), 100, None),
        "mixture-1-p0.5": (SIG1, (MixtureAtom(1.0, (0.5,)),), 200, None),
        "vertex": (SIG2, (VertexComponent(1.0, rho=0.3),), 40, None),
        "graph-started": (SIG2, graph, 60, 3.0),
    }[name]
    intensity = LevyIntensity(sig, components)
    if horizon is None:  # about 300 jumps
        horizon = 300 / RestrictedIntensity(intensity, n).total_rate
    rng = make_rng(920)
    traj = simulate_levy(intensity, n, horizon, rng)
    if name == "graph-started":
        start = random_structure(rng, sig, n, density=0.5)
        traj = levy_path(horizon, ((t, increment(s, start)) for t, s in traj.events))
    return traj


MATRIX = (
    "set-singleton", "graph", "community", "mixture-0,3", "mixture-2-p0.2",
    "mixture-2-p0.02", "mixture-1-p0.5", "vertex", "graph-started",
)


@pytest.fixture(scope="module")
def record_paths():
    """Per n in 1..12, a path of signature (0,1,2,3) with a random start and
    about 260 jumps, most of which leave the arity-0 relation empty, with
    its walk of states and the oracle's text of both (see
    tests/helpers.py)."""
    rng = make_rng(910)
    sig = Signature((0, 1, 2, 3))
    intensity = LevyIntensity(sig, (MixtureAtom(weight=1.0, probs=(0.2, 0.1, 0.02, 0.001)),))
    cases = []
    for n in range(1, 13):
        horizon = 260.0 / RestrictedIntensity(intensity, n).total_rate
        path = simulate_levy(intensity, n, horizon, rng)
        start = random_structure(rng, sig, n, density=0.3)
        traj = levy_path(horizon, ((t, increment(s, start)) for t, s in path.events))
        walk = walk_path(tuple(s for _, s in traj.events))
        texts = (record_events_to_jsonl(traj), record_trajectory_to_csv(traj), record_walk_to_csv(walk))
        cases.append((traj, walk, texts))
    return cases


class TestBlockWriters:
    """The writers, which format a block of records at a time, against the
    one-record-at-a-time oracle in tests/helpers.py.  The full-state
    writers edit each row's text out of the previous row's where the jumps
    flip few cells, and format a block of states whole where they flip
    many."""

    def test_matches_record_oracle(self, record_paths):
        for traj, walk, texts in record_paths:
            assert len(traj.events) > 129
            assert any(not s.relations[0] for s in traj.jump_increments())
            assert (events_to_jsonl(traj), trajectory_to_csv(traj), walk_to_csv(walk)) == texts
            states = walk.steps
            assert [serialize(s) for s in states] == [record_serialize(s) for s in states]

    @pytest.mark.parametrize("block", [1, 2, 127, 128, 129])
    def test_block_boundaries(self, monkeypatch, record_paths, block):
        monkeypatch.setattr(structures._Formatter, "block", block)
        for traj, walk, texts in record_paths:
            assert (events_to_jsonl(traj), trajectory_to_csv(traj), walk_to_csv(walk)) == texts

    # Hand-built paths for the layouts the block writers' index arithmetic
    # must get right: the signature () with no relation slot, rows whose
    # relations are all empty (each path's last row among them), one row
    # holding labels of 1 to 4 digits, and times written with an exponent
    # or as a whole number.
    EDGE_TIMES = (0.0, 1e-05, 0.5, 1.0, 3.0)
    WIDE = ((1, 1000), (9, 10), (99, 100), (999, 1000), (1000, 1))

    def _edge_paths(self):
        sig12, sig2 = Signature((1, 2)), Signature((2,))
        blank, loop = empty_structure(sig12, 5), S(sig12, 5, set(), {(3, 3)})
        star = S(sig12, 5, {2}, {(1, 5), (5, 1)})
        wide = [S(sig2, 1000, set(cells)) for cells in ((), self.WIDE[:2], self.WIDE, self.WIDE[4:])]
        return [[empty_structure(Signature(()), 3)], [blank, star, blank, loop, blank], [*wide, wide[0]]]

    @pytest.mark.parametrize("block", [1, 2, 4096])
    def test_edge_layouts(self, monkeypatch, block):
        monkeypatch.setattr(structures._Formatter, "block", block)
        for states in self._edge_paths():
            traj = levy_path(3.0, zip(self.EDGE_TIMES, states))
            assert traj.events[-1][1].is_empty()
            # a walk may stay put: each state thrice
            walk = walk_path(tuple(s for s in states for _ in range(3)))
            assert events_to_jsonl(traj, seed=3) == record_events_to_jsonl(traj, seed=3)
            assert trajectory_to_csv(traj) == record_trajectory_to_csv(traj)
            assert walk_to_csv(walk) == record_walk_to_csv(walk)
        # traj is the last path, the one at n = 1000
        assert "|R1={(1,1000);(9,10);(99,100);(999,1000);(1000,1)}" in trajectory_to_csv(traj)
        assert '"t": 1e-05}' in events_to_jsonl(traj) and '"t": 3.0}' in events_to_jsonl(traj)

    def test_serialize_empty_structures(self):
        for arities in [(), (0,), (1,), (2,), (0, 1, 2, 3)]:
            for n in (0, 1, 12):
                m = empty_structure(Signature(arities), n)
                assert serialize(m) == record_serialize(m)

    @pytest.mark.parametrize("name", MATRIX)
    def test_writer_matrix(self, name):
        traj = _matrix_path(name)
        assert len(traj.events) > 250
        assert trajectory_to_csv(traj) == record_trajectory_to_csv(traj)

    @pytest.mark.parametrize("share", [0.0, 1e18])
    def test_either_way_alone(self, monkeypatch, record_paths, share):
        # 0: every block with a flip is formatted whole; 1e18: every block
        # at a non-empty state is spliced
        monkeypatch.setattr(trajectory, "_SPLICE_SHARE", share)
        for traj, walk, texts in record_paths:
            assert (trajectory_to_csv(traj), walk_to_csv(walk)) == texts[1:]
        for name in ("community", "graph-started"):
            traj = _matrix_path(name)
            assert trajectory_to_csv(traj) == record_trajectory_to_csv(traj)

    def test_walk_with_empty_steps(self):
        walk = simulate_walk(bernoulli_set_measure(0.1, 8), None, 400, make_rng(921))
        assert sum(not any(cells) for cells in walk._jumps()) > 100
        assert walk_to_csv(walk) == record_walk_to_csv(walk)

    def test_set_singleton_path_is_spliced(self, monkeypatch):
        # from the empty start only the first block is formatted whole
        traj, blocks = _matrix_path("set-singleton"), []
        records = structures._Formatter.records

        def counted(text, *args):
            blocks.append(args)
            return records(text, *args)

        monkeypatch.setattr(structures._Formatter, "records", counted)
        text = trajectory_to_csv(traj)
        assert len(traj.events) > 900 and len(blocks) <= 1
        assert text == record_trajectory_to_csv(traj)


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

    # A hand-built path whose text pins the writers' format: a non-empty
    # start, two-digit labels (n=12), an arity-0 relation, empty relation
    # fields inside a jump and a time whose repr has an exponent.
    GOLDEN_SIG = Signature((0, 1, 2))
    GOLDEN_STATES = (
        (0.0, [[()], [3], [(1, 12)]]),
        (1e-05, [[()], [3, 10], [(1, 12)]]),
        (0.5, [[], [3, 10], [(1, 12), (2, 11), (12, 1)]]),
        (2.25, [[], [10, 12], [(2, 11), (12, 1)]]),
    )
    GOLDEN_TEXTS = (
        "L=(0,1,2)|n=12|R1={()}|R2={(3)}|R3={(1,12)}",
        "L=(0,1,2)|n=12|R1={()}|R2={(3);(10)}|R3={(1,12)}",
        "L=(0,1,2)|n=12|R1={}|R2={(3);(10)}|R3={(1,12);(2,11);(12,1)}",
        "L=(0,1,2)|n=12|R1={}|R2={(10);(12)}|R3={(2,11);(12,1)}",
    )

    def _golden_states(self):
        return [S(self.GOLDEN_SIG, 12, *rels) for _, rels in self.GOLDEN_STATES]

    def _golden_path(self):
        times = [t for t, _ in self.GOLDEN_STATES]
        return levy_path(2.5, zip(times, self._golden_states()))

    def test_events_jsonl_golden(self):
        assert events_to_jsonl(self._golden_path(), seed=7) == (
            '{"T": 2.5, "init": "L=(0,1,2)|n=12|R1={()}|R2={(3)}|R3={(1,12)}", '
            '"n": 12, "seed": 7, "signature": "(0,1,2)"}\n'
            '{"increment": "L=(0,1,2)|n=12|R1={}|R2={(10)}|R3={}", "t": 1e-05}\n'
            '{"increment": "L=(0,1,2)|n=12|R1={()}|R2={}|R3={(2,11);(12,1)}", "t": 0.5}\n'
            '{"increment": "L=(0,1,2)|n=12|R1={}|R2={(3);(12)}|R3={(1,12)}", "t": 2.25}\n'
        )

    def test_trajectory_csv_golden(self):
        times = ("0.0", "1e-05", "0.5", "2.25")
        assert trajectory_to_csv(self._golden_path()) == "time,structure\n" + "".join(
            f"{t},{text}\n" for t, text in zip(times, self.GOLDEN_TEXTS)
        )

    def test_walk_csv_golden(self):
        walk = walk_path(tuple(self._golden_states()))
        assert walk_to_csv(walk) == "step,structure\n" + "".join(
            f"{i},{text}\n" for i, text in enumerate(self.GOLDEN_TEXTS)
        )

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
        traj = levy_path(49.0, [(float(i), m) for i, m in enumerate(states)])
        walk = walk_path(tuple(states))
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

    def test_readers_reject_cell_codes_past_int64(self):
        for read, text in [
            (events_from_jsonl, '{"n": 10000000000, "signature": "(2)", "T": 1.0}\n'),
            (trajectory_from_csv, "time,structure\n0.0,L=(2)|n=10000000000|R1={}\n"),
            (walk_from_csv, "step,structure\n0,L=(1,2)|n=10000000000|R1={}|R2={}\n"),
        ]:
            with pytest.raises(ValueError, match="n=10000000000 is too large"):
                read(text)

    def test_events_jsonl_rejects_malformed_records(self, monkeypatch):
        header = {"signature": "(1)", "n": 3, "T": 1.0, "seed": None}
        with pytest.raises(ValueError, match="'increment'"):
            events_from_jsonl(json.dumps(header) + '\n{"t": 0.5, "increment": 5}')
        with pytest.raises(ValueError, match="'init'"):
            events_from_jsonl(json.dumps({**header, "init": 7}))
        with pytest.raises(ValueError, match="unknown event-stream header fields: 'inti'$"):
            events_from_jsonl(json.dumps({**header, "inti": "L=(1)|n=3|R1={(2)}"}))
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
        # the empty signature: a record's only capture is its time
        empty_sig = json.dumps({**header, "signature": "()"})
        for times in ([0.5], [0.5, 0.7]):
            records = [json.dumps({"increment": "L=()|n=3", "t": t}) for t in times]
            with pytest.raises(ValueError, match="empty jump at t=0.5"):
                events_from_jsonl("\n".join([empty_sig, *records]))

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

    def test_readers_cross_batch_boundaries(self, monkeypatch, tmp_path):
        # a non-empty start and more than three stretches' worth of jumps,
        # read back in batches of a few characters to a few records, from
        # the text and from a file: every batch boundary falls inside a
        # stretch, and the states read back are the path's at every index
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
        traj = levy_path(simulated.horizon, [(t, increment(s, start)) for t, s in simulated.events]
        )
        assert len(traj.events) > 3 * STRETCH
        states = tuple(s for _, s in traj.events)[:300]
        walk = walk_path(states)
        texts = [
            (events_from_jsonl, events_to_jsonl(traj)),
            # the CSV does not record the horizon
            (partial(trajectory_from_csv, horizon=traj.horizon), trajectory_to_csv(traj)),
        ]
        walk_text = walk_to_csv(walk)
        path = tmp_path / "path.txt"

        def from_file(read, text):
            path.write_bytes(text.replace("\n", "\r\n").encode())
            with open(path, encoding="utf-8") as source:
                return read(source)

        for chars in (1, 37, 500, 5000):
            monkeypatch.setattr(structures, "_READ_BATCH_CHARS", chars)
            assert walk_from_csv(walk_text) == walk == from_file(walk_from_csv, walk_text)
            for read, text in texts:
                assert list(structures._text_batches(io.StringIO(text))) == list(
                    structures._text_batches(text)
                )
                for back in (read(text), read(text.replace("\n", "\r\n")), from_file(read, text)):
                    assert back == traj
                    assert all(back.events[i] == traj.events[i] for i in range(len(traj.events)))
                    assert back.events[-1] == traj.events[-1]

    def test_events_jsonl_matches_writer_batches_at_once(self, monkeypatch):
        # a batch of lines all in the writer's form, with "\n" or "\r\n" line
        # ends, is read by one regex findall, any other batch line by line
        # (through _records); both give the same log, across batch boundaries
        intensity = LevyIntensity(
            SIG12,
            (MixtureAtom(weight=0.5, probs=(0.2, 0.1)), PairComponent(rate=1.0)),
        )
        traj = simulate_levy(intensity, 4, 20.0, make_rng(74))
        text = events_to_jsonl(traj)
        lines = text.splitlines()
        assert len(lines) > 100
        reworded = json.dumps(json.loads(lines[50]), separators=(",", ":"))
        variants = {
            "writer": (text, False),
            "no final newline": (text[:-1], False),
            "crlf": (text.replace("\n", "\r\n"), False),
            "blank line": ("\n".join(lines[:40] + [""] + lines[40:]), True),
            "other json form": ("\n".join(lines[:50] + [reworded] + lines[51:]), True),
        }
        line_reads = []
        records = levy._records
        monkeypatch.setattr(levy, "_records", lambda lines: line_reads.append(lines) or records(lines))
        for chars in (200, 2**16):
            monkeypatch.setattr(structures, "_READ_BATCH_CHARS", chars)
            for name, (variant, by_line) in variants.items():
                line_reads.clear()
                assert events_from_jsonl(variant) == traj, name
                if chars == 200:  # the first piece's lines are re-joined by "\n"
                    assert bool(line_reads) == by_line, name
        # only the one or two pieces that hold the reworded line
        assert 0 < len(line_reads) < 3

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
        traj = levy_path(2.0, events)
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
            ("T", "2"), ("T", True), ("T", -1.0), ("T", None),
            ("T", float("nan")), ("T", float("inf")),
            ("seed", "5"), ("seed", 1.5), ("seed", True),
            ("signature", 12),
        ]
        for field, value in bad:
            text = json.dumps({**header, field: value}) + "\n" + record
            with pytest.raises(ValueError, match=f"'{field}'"):
                events_from_jsonl(text)
        # the CLI takes only a line opening with a brace for a header, so
        # this reader is the one to refuse another JSON value
        with pytest.raises(ValueError, match="event-stream header must be an object"):
            events_from_jsonl("[]\n" + record)
        # T = 0 is a path on [0, 0], which holds no jump
        assert events_from_jsonl(json.dumps({**header, "T": 0})).horizon == 0.0
        with pytest.raises(ValueError, match=r"event beyond the horizon: t=0\.5 > T=0\.0$"):
            events_from_jsonl(json.dumps({**header, "T": 0}) + "\n" + record)
        late = json.dumps({"t": 1.5, "increment": "L=(1)|n=3|R1={(1)}"})
        with pytest.raises(ValueError, match=r"event beyond the horizon: t=1\.5 > T=1\.0$"):
            events_from_jsonl(json.dumps({**header, "T": 1.0}) + "\n" + late)
        for t in ("0.5", True):
            text = json.dumps(header) + "\n" + json.dumps(
                {"t": t, "increment": "L=(1)|n=3|R1={(1)}"}
            )
            with pytest.raises(ValueError, match="'t'"):
                events_from_jsonl(text)

    def test_one_row_csv_round_trips_through_the_event_stream(self):
        # a one-row CSV read without a horizon is a path on [0, 0]
        traj = trajectory_from_csv(f"time,structure\n0.0,{serialize(S(SIG12, 3, {2}, {(1, 3)}))}\n")
        assert traj.horizon == 0.0 and len(traj.events) == 1
        back = events_from_jsonl(events_to_jsonl(traj))
        assert back == traj and back.events == traj.events

    def test_events_jsonl_nonempty_start(self):
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        flip = S(SIG1, 4, {1})
        traj = simulate_levy(I, 4, 2.0, make_rng(67))
        started = levy_path(traj.horizon, tuple((t, increment(s, flip)) for t, s in traj.events)
        )
        lines = events_to_jsonl(started).splitlines()
        assert events_from_jsonl("\n".join(lines)).events == started.events
        header = json.loads(lines[0])
        for bad in ("L=(1)|n=3|R1={(1)}", "L=(2)|n=4|R1={}"):
            header["init"] = bad
            with pytest.raises(ValueError, match="initial state"):
                events_from_jsonl("\n".join([json.dumps(header)] + lines[1:]))
