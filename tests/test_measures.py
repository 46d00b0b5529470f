import itertools
import json
import math

import pytest

from comblevy.inference import empirical_jump_measure
from comblevy.levy import LevyIntensity, SetSingletonComponent, simulate_levy
from comblevy.measures import (
    FiniteMeasure,
    OrbitWeights,
    decompose_exchangeable,
    is_exchangeable,
    measure_from_json,
    measure_to_json,
    orbit_weights_to_json,
    point_mass,
    symmetrize,
    urn_measure,
)
from comblevy.orbits import OrbitId, enumerate_orbits, orbit_of
from comblevy.rng import make_rng
from comblevy.structures import (
    Signature,
    Structure,
    _cell_lists,
    _cells,
    empty_structure,
    serialize,
)

from helpers import (
    bernoulli_set_measure,
    random_structure,
    recompose,
    record_measure_to_json,
    uniform_on_orbit,
)

SIG1 = Signature((1,))
SIG2 = Signature((2,))


def S(sig, n, *relations):
    return Structure.from_tuples(sig, n, list(relations))


class TestFiniteMeasure:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FiniteMeasure(SIG1, 2, {S(SIG1, 2, {1}): -0.1})

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_rejects_non_finite(self, mass):
        with pytest.raises(ValueError):
            FiniteMeasure(SIG1, 2, {S(SIG1, 2, {1}): mass, S(SIG1, 2, {2}): 1.0})

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            FiniteMeasure(SIG1, 3, {S(SIG1, 2, {1}): 0.5})

    def test_drops_zeros(self):
        mu = FiniteMeasure(SIG1, 2, {S(SIG1, 2, {1}): 0.0, S(SIG1, 2, {2}): 1.0})
        assert len(mu.weights) == 1
        assert mu.is_probability

    def test_support_sorted_by_canonical_key(self):
        mu = urn_measure(1, 3)
        keys = [serialize(m) for m in mu.support()]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("arities", [(), (0,), (1,), (2,), (0, 1, 2), (1, 3)])
    def test_support_texts_formatted_as_one_block(self, arities):
        # the support is formatted once, as a block; its order, the
        # sampling order and the JSON entries are those of serialize
        sig, rng = Signature(arities), make_rng(31)
        for n in (0, 1, 4, 11):
            members = {random_structure(rng, sig, n, density=0.3) for _ in range(40)}
            mu = FiniteMeasure(sig, n, {m: 1.0 + i for i, m in enumerate(members)})
            ordered = sorted(mu.weights, key=serialize)
            assert mu.support() == ordered
            cum, columns = mu._inverse_cdf
            assert cum.tolist() == list(itertools.accumulate(mu.weights[m] for m in ordered))
            assert _cell_lists(*columns) == [_cells(m) for m in ordered]
            entries = json.loads(measure_to_json(mu))["entries"]
            assert [e["structure"] for e in entries] == [serialize(m) for m in ordered]
            assert [e["mass"] for e in entries] == [mu.weights[m] for m in ordered]


class TestUniformOnOrbit:
    def test_singleton_orbit(self):
        mu = uniform_on_orbit(orbit_of(S(SIG1, 2, {1})))
        assert mu.mass(S(SIG1, 2, {1})) == 0.5
        assert mu.mass(S(SIG1, 2, {2})) == 0.5

    def test_empty_orbit_point_mass(self):
        e = empty_structure(SIG1, 3)
        mu = uniform_on_orbit(orbit_of(e))
        assert mu.mass(e) == 1.0

    def test_equals_urn(self):
        mu = uniform_on_orbit(orbit_of(S(SIG1, 3, {2})))
        assert mu.approx_equal(urn_measure(1, 3), tol=0.0)
        assert all(w == pytest.approx(1 / 3) for w in mu.weights.values())

    def test_rejects_noncanonical_id(self):
        with pytest.raises(ValueError):
            uniform_on_orbit(OrbitId("L=(1)|n=2|R1={(2)}"))


class TestUrnMeasure:
    def test_one_of_two(self):
        mu = urn_measure(1, 2)
        assert mu.mass(S(SIG1, 2, {1})) == 0.5
        assert mu.mass(S(SIG1, 2, {2})) == 0.5

    def test_zero_subset(self):
        mu = urn_measure(0, 3)
        assert mu.mass(empty_structure(SIG1, 3)) == 1.0

    def test_pairs_of_four(self):
        mu = urn_measure(2, 4)
        assert len(mu.weights) == 6
        assert all(w == 1 / 6 for w in mu.weights.values())

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            urn_measure(4, 3)
        with pytest.raises(ValueError):
            urn_measure(-1, 3)


class TestBernoulli:
    def test_half(self):
        mu = bernoulli_set_measure(0.5, 2)
        assert len(mu.weights) == 4
        assert all(w == 0.25 for w in mu.weights.values())

    def test_degenerate(self):
        mu = bernoulli_set_measure(0.0, 3)
        assert mu.mass(empty_structure(SIG1, 3)) == 1.0

    def test_plug_in(self):
        mu = bernoulli_set_measure(0.3, 3)
        assert mu.mass(S(SIG1, 3, {1, 3})) == pytest.approx(0.3**2 * 0.7, abs=1e-15)

    def test_total_mass_binomial(self):
        for p in (0.1, 0.37, 0.99):
            mu = bernoulli_set_measure(p, 6)
            assert abs(mu.total_mass - 1.0) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bernoulli_set_measure(1.5, 2)


class TestExchangeability:
    def test_orbit_uniform_is_exchangeable(self):
        assert is_exchangeable(uniform_on_orbit(orbit_of(S(SIG2, 3, {(1, 2)}))))

    def test_point_mass_is_not(self):
        assert not is_exchangeable(point_mass(S(SIG1, 2, {1})))

    def test_mixture_is_exchangeable(self):
        u1, u3 = urn_measure(1, 3), urn_measure(3, 3)
        mix = FiniteMeasure(
            SIG1,
            3,
            {
                m: 0.3 * u1.mass(m) + 0.7 * u3.mass(m)
                for m in set(u1.weights) | set(u3.weights)
            },
        )
        assert is_exchangeable(mix)


class TestSymmetrize:
    def test_point_mass(self):
        sym = symmetrize(point_mass(S(SIG1, 2, {1})))
        assert sym.mass(S(SIG1, 2, {1})) == 0.5
        assert sym.mass(S(SIG1, 2, {2})) == 0.5

    def test_fixed_point(self):
        mu = urn_measure(2, 3)
        assert symmetrize(mu).approx_equal(mu, tol=1e-15)

    def test_cellwise_example(self):
        mu = FiniteMeasure(
            SIG1, 2, {S(SIG1, 2, {1}): 0.4, S(SIG1, 2, {1, 2}): 0.6}
        )
        sym = symmetrize(mu)
        assert sym.mass(S(SIG1, 2, {1})) == pytest.approx(0.2, abs=1e-15)
        assert sym.mass(S(SIG1, 2, {2})) == pytest.approx(0.2, abs=1e-15)
        assert sym.mass(S(SIG1, 2, {1, 2})) == pytest.approx(0.6, abs=1e-15)

    def test_idempotent_and_preserves_orbit_totals(self):
        from comblevy.orbits import orbit_members

        rng = make_rng(300)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            support = {
                random_structure(rng, SIG2, n): float(rng.random())
                for _ in range(4)
            }
            mu = FiniteMeasure(SIG2, n, support)
            sym = symmetrize(mu)
            assert is_exchangeable(sym)
            assert symmetrize(sym).approx_equal(sym, tol=1e-12)
            assert abs(sym.total_mass - mu.total_mass) <= 1e-12
            for m in mu.support():
                members = orbit_members(m)
                before = math.fsum(mu.mass(x) for x in members)
                after = math.fsum(sym.mass(x) for x in members)
                assert abs(before - after) <= 1e-12


class TestDecomposeRecompose:
    def test_uniform_over_all_subsets(self):
        mu = FiniteMeasure(
            SIG1,
            2,
            {
                empty_structure(SIG1, 2): 0.25,
                S(SIG1, 2, {1}): 0.25,
                S(SIG1, 2, {2}): 0.25,
                S(SIG1, 2, {1, 2}): 0.25,
            },
        )
        p = decompose_exchangeable(mu)
        assert p.mass(orbit_of(empty_structure(SIG1, 2))) == pytest.approx(0.25)
        assert p.mass(orbit_of(S(SIG1, 2, {1}))) == pytest.approx(0.5)
        assert p.mass(orbit_of(S(SIG1, 2, {1, 2}))) == pytest.approx(0.25)

    def test_urn_concentrates(self):
        p = decompose_exchangeable(urn_measure(2, 3))
        assert p.mass(orbit_of(S(SIG1, 3, {1, 2}))) == pytest.approx(1.0)
        assert len(p.p) == 1

    def test_point_at_empty(self):
        p = decompose_exchangeable(point_mass(empty_structure(SIG1, 3)))
        assert p.mass(orbit_of(empty_structure(SIG1, 3))) == 1.0

    def test_rejects_non_exchangeable(self):
        with pytest.raises(ValueError):
            decompose_exchangeable(point_mass(S(SIG1, 2, {1})))

    def test_rejects_non_probability(self):
        mu = FiniteMeasure(SIG1, 2, {S(SIG1, 2, {1}): 0.5, S(SIG1, 2, {2}): 0.5,
                                     empty_structure(SIG1, 2): 0.5})
        with pytest.raises(ValueError):
            decompose_exchangeable(mu)

    def test_recompose_point_weight(self):
        p = OrbitWeights(SIG1, 3, {orbit_of(S(SIG1, 3, {1})): 1.0})
        assert recompose(p).approx_equal(urn_measure(1, 3), tol=0.0)

    def test_recompose_two_orbits(self):
        p = OrbitWeights(
            SIG1,
            2,
            {
                orbit_of(empty_structure(SIG1, 2)): 0.5,
                orbit_of(S(SIG1, 2, {1, 2})): 0.5,
            },
        )
        mu = recompose(p)
        assert mu.mass(empty_structure(SIG1, 2)) == 0.5
        assert mu.mass(S(SIG1, 2, {1})) == 0.0
        assert mu.mass(S(SIG1, 2, {1, 2})) == 0.5

    def test_roundtrip_random(self):
        rng = make_rng(301)
        for sig, n in [(SIG1, 4), (SIG2, 3)]:
            table = enumerate_orbits(sig, n)
            for _ in range(5):
                raw = {oid: float(rng.random()) for oid, _ in table.entries}
                total = sum(raw.values())
                p = OrbitWeights(sig, n, {o: v / total for o, v in raw.items()})
                mu = recompose(p)
                assert mu.is_probability
                back = decompose_exchangeable(mu)
                assert back.approx_equal(p, tol=1e-12)
                again = recompose(back)
                assert again.approx_equal(mu, tol=1e-12)

    def test_rejects_negative_weight(self):
        p = OrbitWeights(SIG1, 2, {orbit_of(S(SIG1, 2, {1})): -0.5})
        with pytest.raises(ValueError):
            recompose(p)


class TestJsonFormats:
    def test_measure_roundtrip(self):
        mu = bernoulli_set_measure(0.3, 3)
        back = measure_from_json(measure_to_json(mu))
        assert back.approx_equal(mu, tol=0.0)
        assert back.signature == mu.signature and back.n == mu.n

    def test_measure_json_matches_encoder(self):
        # the entries are laid out from the support's texts; json.dumps of
        # the payload is the oracle
        sig12, sig0 = Signature((1, 2)), Signature(())
        rng = make_rng(32)
        members = {random_structure(rng, sig12, 3, density=0.4) for _ in range(30)}
        measures = [
            FiniteMeasure(SIG1, 3, {}),
            point_mass(S(SIG1, 5, {2, 5})),
            FiniteMeasure(sig12, 3, {m: 1e-05 * (i + 1) for i, m in enumerate(members)}),
            FiniteMeasure(sig12, 2, {empty_structure(sig12, 2): 3.0}),
            point_mass(empty_structure(sig0, 4)),
            FiniteMeasure(sig0, 0, {}),
            self._set_csv_measure(),
        ]
        assert len(measures[-1].weights) == 641
        for mu in measures:
            assert measure_to_json(mu) == record_measure_to_json(mu)

    def _set_csv_measure(self):
        """The jump measure of a set-csv path (n=1000, T=1) at seed 1."""
        intensity = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        return empirical_jump_measure(simulate_levy(intensity, 1000, 1.0, make_rng(1)))

    def test_measure_rejects_malformed(self):
        with pytest.raises(ValueError):
            measure_from_json("not json")
        with pytest.raises(ValueError):
            measure_from_json('{"signature": "(1)"}')
        with pytest.raises(ValueError):
            measure_from_json(
                '{"signature": "(1)", "n": 2, "entries": ['
                '{"structure": "L=(1)|n=2|R1={(1)}", "mass": -1.0}]}'
            )
        with pytest.raises(ValueError):
            measure_from_json(
                '{"signature": "(1)", "n": 3, "entries": ['
                '{"structure": "L=(1)|n=2|R1={(1)}", "mass": 1.0}]}'
            )

    def test_orbit_weights_roundtrip(self):
        p = decompose_exchangeable(urn_measure(1, 3))
        payload = json.loads(orbit_weights_to_json(p))
        assert payload["signature"] == "(1)" and payload["n"] == 3
        back = {OrbitId(entry["orbit"]): entry["p"] for entry in payload["entries"]}
        assert OrbitWeights(SIG1, 3, back).approx_equal(p, tol=0.0)
