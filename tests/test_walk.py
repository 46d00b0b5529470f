import math
from collections import Counter

import pytest

from comblevy import walk
from comblevy.inference import empirical_jump_measure
from comblevy.measures import (
    FiniteMeasure,
    OrbitWeights,
    point_mass,
    urn_measure,
)
from comblevy.orbits import enumerate_orbits, orbit_lookup, orbit_members, orbit_of
from comblevy.rng import make_rng
from comblevy.structures import (
    Signature,
    Structure,
    _cell_lists,
    _structure_from_cells,
    empty_structure,
    increment,
    restrict,
)
from comblevy.walk import (
    orbit_kernel,
    project_orbit_chain,
    simulate_walk,
    walk_distribution_exact,
    walk_from_csv,
    walk_to_csv,
)

from helpers import random_structure, recompose, walk_path

SIG1 = Signature((1,))
SIG2 = Signature((2,))


def S(sig, n, *relations):
    return Structure.from_tuples(sig, n, list(relations))


def mix(measures_and_weights):
    """Convex combination of measures of a common shape."""
    sig = measures_and_weights[0][0].signature
    n = measures_and_weights[0][0].n
    out: dict = {}
    for mu, w in measures_and_weights:
        for m, mass in mu.weights.items():
            out[m] = out.get(m, 0.0) + w * mass
    return FiniteMeasure(sig, n, out)


def sample_batch(mu, rng, k):
    """k draws of the inverse-CDF batch sampler, as Structures."""
    rows = _cell_lists(*mu.sample_cells_batch(rng, k))
    return [_structure_from_cells(mu.signature, mu.n, c) for c in rows]


class TestSampleIncrement:
    """The inverse-CDF batch sampler that a walk draws its steps with."""

    def test_point_mass(self):
        m = S(SIG1, 2, {1})
        assert sample_batch(point_mass(m), make_rng(1), 20) == [m] * 20

    def test_uniform_single_element(self):
        mu = mix([(point_mass(empty_structure(SIG1, 1)), 0.5),
                  (point_mass(S(SIG1, 1, {1})), 0.5)])
        draws = 100_000
        hits = sample_batch(mu, make_rng(2), draws).count(S(SIG1, 1, {1}))
        # binomial 3 sigma around 0.5 is under the 0.005 band
        assert abs(hits / draws - 0.5) <= 0.005

    def test_urn_frequencies(self):
        mu = urn_measure(1, 3)
        draws = 100_000
        counts = Counter(sample_batch(mu, make_rng(3), draws))
        sigma = math.sqrt((1 / 3) * (2 / 3) / draws)
        for m in mu.support():
            assert abs(counts[m] / draws - 1 / 3) <= 3 * sigma

    def test_rejects_unnormalized(self):
        mu = FiniteMeasure(SIG1, 2, {S(SIG1, 2, {1}): 0.7})
        with pytest.raises(ValueError):
            simulate_walk(mu, None, 1, make_rng(4))

    def test_batch_draws_what_single_draws_draw(self, monkeypatch):
        # k batch draws are the k draws of ``sample`` from the same seed, and
        # leave the stream where they do; a walk drawn in blocks of 7 steps
        # takes the same draws across its block boundaries
        mu = mix([(point_mass(empty_structure(SIG1, 4)), 0.3), (urn_measure(2, 4), 0.7)])
        rng = make_rng(5)
        singles = [mu.sample(rng) for _ in range(1000)]
        batch_rng = make_rng(5)
        assert sample_batch(mu, batch_rng, 1000) == singles
        assert batch_rng.random() == rng.random()
        monkeypatch.setattr(walk, "_BLOCK_STEPS", 7)
        traj = simulate_walk(mu, None, 100, make_rng(5))
        assert list(traj.jump_increments()) == singles[:100]


class TestSimulateWalk:
    def test_point_at_empty_is_constant(self):
        mu = point_mass(empty_structure(SIG1, 3))
        traj = simulate_walk(mu, empty_structure(SIG1, 3), 10, make_rng(5))
        assert traj.T == 10
        assert all(s == empty_structure(SIG1, 3) for s in traj.steps)

    def test_full_structure_alternates(self):
        full = S(SIG1, 2, {1, 2})
        x0 = S(SIG1, 2, {1})
        traj = simulate_walk(point_mass(full), x0, 4, make_rng(6))
        flipped = increment(x0, full)
        assert traj.steps == (x0, flipped, x0, flipped, x0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            simulate_walk(urn_measure(1, 2), empty_structure(SIG1, 3), 2, make_rng(7))

    def test_rejects_arity_zero_only_signature(self):
        sig0 = Signature((0,))
        mu = point_mass(empty_structure(sig0, 2))
        with pytest.raises(ValueError):
            simulate_walk(mu, empty_structure(sig0, 2), 2, make_rng(8))

    def test_deterministic_given_seed(self):
        mu = urn_measure(1, 3)
        a = simulate_walk(mu, empty_structure(SIG1, 3), 50, make_rng(9))
        b = simulate_walk(mu, empty_structure(SIG1, 3), 50, make_rng(9))
        assert a.steps == b.steps


class TestExactDistribution:
    def test_zero_steps(self):
        x0 = S(SIG1, 2, {2})
        d = walk_distribution_exact(urn_measure(1, 2), x0, 0)
        assert d.mass(x0) == 1.0

    def test_one_step_from_empty_is_mu(self):
        mu = urn_measure(1, 3)
        d = walk_distribution_exact(mu, empty_structure(SIG1, 3), 1)
        assert d.approx_equal(mu, tol=1e-15)

    def test_two_step_uniform_single_element(self):
        # one element flipping with probability 1/2 per step stays uniform
        mu = mix([(point_mass(empty_structure(SIG1, 1)), 0.5),
                  (point_mass(S(SIG1, 1, {1})), 0.5)])
        d = walk_distribution_exact(mu, empty_structure(SIG1, 1), 2)
        assert d.mass(empty_structure(SIG1, 1)) == pytest.approx(0.5, abs=1e-15)
        assert d.mass(S(SIG1, 1, {1})) == pytest.approx(0.5, abs=1e-15)

    def test_monte_carlo_agreement(self):
        mu = mix([(point_mass(empty_structure(SIG1, 2)), 0.2),
                  (point_mass(S(SIG1, 2, {1})), 0.5),
                  (point_mass(S(SIG1, 2, {1, 2})), 0.3)])
        x0 = empty_structure(SIG1, 2)
        steps = 2
        exact = walk_distribution_exact(mu, x0, steps)
        replicates = 20_000
        counts: Counter = Counter()
        for r in range(replicates):
            traj = simulate_walk(mu, x0, steps, make_rng(1000, stream=r))
            counts[traj.steps[-1]] += 1
        for m in exact.support():
            p = exact.mass(m)
            band = 4 * math.sqrt(p * (1 - p) / replicates)
            assert abs(counts[m] / replicates - p) <= band


class TestOrbitChain:
    def test_constant_projection(self):
        traj = walk_path((empty_structure(SIG1, 2),) * 3)
        chain = project_orbit_chain(traj)
        assert len(set(chain)) == 1

    def test_isomorphic_states_share_orbit(self):
        traj = walk_path((S(SIG1, 2, {1}), S(SIG1, 2, {2})))
        chain = project_orbit_chain(traj)
        assert chain[0] == chain[1]

    def test_kernel_single_element_urn(self):
        mu = urn_measure(1, 2)
        kernel = orbit_kernel(mu)
        o_empty = orbit_of(empty_structure(SIG1, 2))
        o_single = orbit_of(S(SIG1, 2, {1}))
        o_full = orbit_of(S(SIG1, 2, {1, 2}))
        assert kernel[(o_empty, o_single)] == pytest.approx(1.0)
        assert kernel[(o_single, o_empty)] == pytest.approx(0.5)
        assert kernel[(o_single, o_full)] == pytest.approx(0.5)

    def test_kernel_rows_sum_to_one(self):
        mu = recompose(
            OrbitWeights(
                SIG1,
                3,
                {
                    orbit_of(S(SIG1, 3, {1})): 0.4,
                    orbit_of(S(SIG1, 3, {1, 2})): 0.6,
                },
            )
        )
        kernel = orbit_kernel(mu)
        rows: dict = {}
        for (src, _), w in kernel.items():
            rows[src] = rows.get(src, 0.0) + w
        assert all(abs(total - 1.0) <= 1e-12 for total in rows.values())

    def test_kernel_identity_for_point_at_empty(self):
        mu = point_mass(empty_structure(SIG1, 2))
        kernel = orbit_kernel(mu)
        for (src, dst), w in kernel.items():
            assert (src == dst) == (w == 1.0)

    def test_kernel_rejects_non_exchangeable(self):
        with pytest.raises(ValueError):
            orbit_kernel(point_mass(S(SIG1, 2, {1})))

    def test_aggregated_rows_representative_independent(self):
        # the Markov-function property behind the orbit chain: aggregated
        # transition rows agree across every representative of each orbit
        rng = make_rng(400)
        for sig, n in [(SIG1, 3), (SIG2, 2)]:
            table = enumerate_orbits(sig, n)
            lookup = orbit_lookup(sig, n)
            for _ in range(5):
                raw = {oid: float(rng.random()) for oid, _ in table.entries}
                total = sum(raw.values())
                mu = recompose(
                    OrbitWeights(sig, n, {o: v / total for o, v in raw.items()})
                )
                for oid, _ in table.entries:
                    rows = []
                    for rep in orbit_members(oid.structure()):
                        row: dict = {}
                        for d, w in mu.items_sorted():
                            dst = lookup[increment(rep, d)]
                            row[dst] = row.get(dst, 0.0) + w
                        rows.append(row)
                    keys = set().union(*rows)
                    for key in keys:
                        vals = [row.get(key, 0.0) for row in rows]
                        assert max(vals) - min(vals) <= 1e-12


class TestRestrictionCompatibility:
    def test_pathwise_exact(self):
        rng = make_rng(401)
        for _ in range(10):
            n = 6
            support = {
                random_structure(rng, SIG1, n): float(rng.random())
                for _ in range(4)
            }
            total = sum(support.values())
            mu = FiniteMeasure(SIG1, n, {m: w / total for m, w in support.items()})
            traj = simulate_walk(mu, empty_structure(SIG1, n), 12, make_rng(402))
            increments = traj.jump_increments()
            for m in range(n + 1):
                folded = empty_structure(SIG1, m)
                for k, d in enumerate(increments, start=1):
                    folded = increment(folded, restrict(d, m))
                    assert restrict(traj.steps[k], m) == folded


class TestStateExchangeability:
    def test_orbit_conditional_uniformity(self):
        # with exchangeable increments and empty start, the state at any
        # fixed step is exchangeable: members of an orbit are equally likely
        mu = urn_measure(1, 2)
        x0 = empty_structure(SIG1, 2)
        replicates = 20_000
        counts: Counter = Counter()
        for r in range(replicates):
            traj = simulate_walk(mu, x0, 3, make_rng(500, stream=r))
            counts[traj.steps[-1]] += 1
        a, b = counts[S(SIG1, 2, {1})], counts[S(SIG1, 2, {2})]
        total = a + b
        sigma = math.sqrt(0.25 / total)
        assert abs(a / total - 0.5) <= 4 * sigma


class TestCsv:
    def test_roundtrip(self):
        urn = simulate_walk(urn_measure(1, 3), empty_structure(SIG1, 3), 5, make_rng(600))
        # signature (): every state is the one empty structure, every step empty
        empty = walk_path([empty_structure(Signature(()), 3)] * 3)
        for traj in (urn, empty):
            assert len(list(traj.events)) == len(traj.events)
            assert len(list(traj.jump_increments())) == len(traj.jump_increments())
            back = walk_from_csv(walk_to_csv(traj))
            assert back == traj and back.steps == traj.steps

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            walk_from_csv("foo,bar\n0,L=(1)|n=1|R1={}\n")

    def test_rejects_gap(self):
        text = "step,structure\n0,L=(1)|n=1|R1={}\n2,L=(1)|n=1|R1={(1)}\n"
        with pytest.raises(ValueError):
            walk_from_csv(text)

    @pytest.mark.parametrize("first, second", [
        ("0_0", "1"), ("0", "+1"), ("0", " 1"), ("0", "1 "), ("0", "01"), ("0", "1.0"),
    ])
    def test_rejects_non_canonical_step_index(self, first, second):
        text = f"step,structure\n{first},L=(1)|n=1|R1={{}}\n{second},L=(1)|n=1|R1={{(1)}}\n"
        with pytest.raises(ValueError, match="step index"):
            walk_from_csv(text)

    def test_keeps_empty_steps(self):
        e = empty_structure(SIG1, 3)
        mu = mix([(point_mass(e), 0.5), (urn_measure(1, 3), 0.5)])
        traj = simulate_walk(mu, None, 200, make_rng(601))
        increments = traj.jump_increments()
        empties = list(increments).count(e)
        assert len(increments) == traj.T == 200
        assert 0 < empties < 200
        back = walk_from_csv(walk_to_csv(traj))
        assert back == traj
        assert back.jump_increments() == increments
        assert empirical_jump_measure(back).mass(e) == empties / 200
