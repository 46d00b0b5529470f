import itertools
import json
import math

import pytest

from comblevy.orbits import (
    canonical_form,
    enumerate_orbits,
    iter_space,
    orbit_lookup,
    orbit_members,
    orbit_of,
    space_size,
)
from comblevy.rng import make_rng
from comblevy.structures import (
    Permutation,
    Signature,
    Structure,
    empty_structure,
    relabel,
    serialize,
)

from helpers import random_permutation, random_structure

SIG1 = Signature((1,))
SIG2 = Signature((2,))
SIG12 = Signature((1, 2))
SIG3 = Signature((3,))
SIG_EMPTY = Signature(())
SIG0 = Signature((0,))
SIG03 = Signature((0, 3))


def S(sig, n, *relations):
    return Structure.from_tuples(sig, n, list(relations))


def brute_canonical(m):
    """Independent oracle: minimize the serialized string over all relabelings."""
    candidates = [
        serialize(relabel(m, Permutation(m.n, img)))
        for img in itertools.permutations(range(1, m.n + 1))
    ]
    return min(candidates)


class TestCanonicalForm:
    def test_singleton(self):
        assert canonical_form(S(SIG1, 2, {2})) == S(SIG1, 2, {1})

    def test_empty_fixed(self):
        e = empty_structure(SIG2, 3)
        assert canonical_form(e) == e

    def test_edge(self):
        assert canonical_form(S(SIG2, 3, {(2, 3)})) == S(SIG2, 3, {(1, 2)})

    def test_matches_string_minimization(self):
        rng = make_rng(200)
        for sig in (SIG1, SIG2, SIG12, SIG3, SIG_EMPTY, SIG0, SIG03):
            for n in range(6):
                for _ in range(3):
                    m = random_structure(rng, sig, n)
                    assert serialize(canonical_form(m)) == brute_canonical(m)

    def test_cap(self):
        with pytest.raises(ValueError):
            canonical_form(empty_structure(SIG1, 9))


class TestOrbitOf:
    def test_invariant_under_relabeling(self):
        rng = make_rng(201)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            m = random_structure(rng, SIG12, n)
            sigma = random_permutation(rng, n)
            assert orbit_of(relabel(m, sigma)) == orbit_of(m)

    def test_sizes(self):
        assert len(orbit_members(S(SIG1, 3, {2}))) == 3
        assert len(orbit_members(empty_structure(SIG1, 3))) == 1
        assert len(orbit_members(S(SIG2, 3, {(1, 2)}))) == 6

    def test_orbit_stabilizer(self):
        rng = make_rng(202)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = random_structure(rng, SIG2, n)
            stabilizer = sum(
                relabel(m, Permutation(n, img)) == m
                for img in itertools.permutations(range(1, n + 1))
            )
            assert len(orbit_members(m)) * stabilizer == math.factorial(n)

    def test_members_are_the_distinct_relabelings(self):
        rng = make_rng(203)
        for sig in (SIG1, SIG2, SIG12, SIG3, SIG03):
            for n in range(5):
                m = random_structure(rng, sig, n)
                relabelings = {
                    relabel(m, Permutation(n, img))
                    for img in itertools.permutations(range(1, n + 1))
                }
                assert orbit_members(m) == sorted(relabelings, key=serialize)

    def test_members_are_exactly_the_class(self):
        m = S(SIG1, 3, {1, 3})
        members = orbit_members(m)
        assert members == [
            S(SIG1, 3, {1, 2}),
            S(SIG1, 3, {1, 3}),
            S(SIG1, 3, {2, 3}),
        ]


class TestEnumerateOrbits:
    def test_sets_n3(self):
        table = enumerate_orbits(SIG1, 3)
        sizes = sorted(size for _, size in table.entries)
        assert len(table.entries) == 4
        assert sizes == [1, 1, 3, 3]

    def test_sets_n1(self):
        table = enumerate_orbits(SIG1, 1)
        assert len(table.entries) == 2
        assert all(size == 1 for _, size in table.entries)

    def test_empty_label_set(self):
        # [0] has one permutation, the empty one: each structure is its own
        # orbit, and a nullary relation is present or absent
        def entries(sig):
            return [(oid.canonical, size) for oid, size in enumerate_orbits(sig, 0).entries]

        assert entries(SIG1) == [("L=(1)|n=0|R1={}", 1)]
        assert entries(SIG0) == [("L=(0)|n=0|R1={()}", 1), ("L=(0)|n=0|R1={}", 1)]
        assert entries(SIG_EMPTY) == [("L=()|n=0", 1)]

    def test_digraphs_n2_burnside(self):
        # Burnside oracle: orbit count = average number of structures fixed
        # by each permutation, computed by direct enumeration.
        fixed_total = 0
        perms = [Permutation(2, img) for img in itertools.permutations((1, 2))]
        for sigma in perms:
            fixed_total += sum(
                relabel(m, sigma) == m for m in iter_space(SIG2, 2)
            )
        expected_orbits = fixed_total // len(perms)
        assert expected_orbits == 10

        table = enumerate_orbits(SIG2, 2)
        assert len(table.entries) == 10
        assert sum(size for _, size in table.entries) == 16

    def test_size_sum_and_divisibility(self):
        for sig, n in [(SIG1, 4), (SIG2, 3), (SIG12, 2), (SIG3, 2)]:
            table = enumerate_orbits(sig, n)
            assert sum(s for _, s in table.entries) == space_size(sig, n)
            assert all(math.factorial(n) % s == 0 for _, s in table.entries)

    def test_lookup_consistency(self):
        lookup = orbit_lookup(SIG2, 2)
        for m in iter_space(SIG2, 2):
            assert lookup[m] == orbit_of(m)

    def test_space_cap(self):
        # 2^25 graphs on [5], past the cap of 10^6
        with pytest.raises(ValueError, match="exceeds cap 1000000"):
            enumerate_orbits(SIG2, 5)

    def test_json_export(self):
        payload = json.loads(enumerate_orbits(SIG1, 2).to_json())
        assert payload == [
            {"canonical": "L=(1)|n=2|R1={(1);(2)}", "size": 1},
            {"canonical": "L=(1)|n=2|R1={(1)}", "size": 2},
            {"canonical": "L=(1)|n=2|R1={}", "size": 1},
        ]
