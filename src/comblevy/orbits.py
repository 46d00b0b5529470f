"""Isomorphism classes of structures under relabeling.

Two structures are isomorphic when some permutation of the labels maps one
onto the other.  The canonical form of a structure is the relabeling with
the lexicographically minimal serialization; the orbit id wraps that text.
Canonicalization minimizes over all n! permutations, so everything here is
gated by an enumeration cap (n <= CANONICAL_CAP).

With the cap in place all labels are single decimal digits, so comparing
per-relation sorted tuple sequences is identical to comparing serialized
strings.  Cell-index order is the lexicographic tuple order, so the code
compares per-relation sorted cell indices, the cheapest equivalent key.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

from .structures import (
    Permutation,
    Signature,
    Structure,
    _cell_decode,
    _cell_index,
    _cells,
    _serialize_all,
    _structure_from_cells,
    parse,
    serialize,
)
from .value import Value

__all__ = [
    "OrbitId",
    "OrbitTable",
    "canonical_form",
    "orbit_of",
    "orbit_members",
    "enumerate_orbits",
    "orbit_lookup",
    "iter_space",
    "space_size",
    "CANONICAL_CAP",
    "SPACE_CAP",
]

CANONICAL_CAP = 8
SPACE_CAP = 1_000_000


class OrbitId(Value):
    """An isomorphism class, identified by its canonical serialization;
    ordered by that text."""

    canonical: str

    def __init__(self, canonical: str) -> None:
        object.__setattr__(self, "canonical", canonical)

    def __eq__(self, other):
        return self.canonical == other.canonical if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.canonical,))

    def __lt__(self, other):
        return self.canonical < other.canonical if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return self.canonical <= other.canonical if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other):
        return self.canonical > other.canonical if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other):
        return self.canonical >= other.canonical if other.__class__ is self.__class__ else NotImplemented

    def structure(self) -> Structure:
        return parse(self.canonical)


class OrbitTable(Value):
    """Complete list of (orbit, size) pairs for one structure space."""

    signature: Signature
    n: int
    entries: tuple[tuple[OrbitId, int], ...]

    def sizes(self) -> dict[OrbitId, int]:
        return {oid: size for oid, size in self.entries}

    def to_json(self) -> str:
        payload = [
            {"canonical": oid.canonical, "size": size}
            for oid, size in self.entries
        ]
        return json.dumps(payload, indent=2)


@lru_cache(maxsize=32)
def _permutations(n: int) -> tuple[Permutation, ...]:
    return tuple(
        Permutation(n, image)
        for image in itertools.permutations(range(1, n + 1))
    )


def _relabelings(m: Structure) -> set[tuple]:
    """Every relabeling of ``m`` as its sort key: the sorted cell indices
    of each relation."""
    n = m.n
    tuples = [
        [_cell_decode(c, n, arity) for c in rel_cells]
        for arity, rel_cells in zip(m.signature.arities, _cells(m))
    ]
    return {
        tuple(
            tuple(sorted(_cell_index([sigma.image[a - 1] for a in t], n) for t in rel))
            for rel in tuples
        )
        for sigma in _permutations(n)
    }


def _check_cap(n: int) -> None:
    if n > CANONICAL_CAP:
        raise ValueError(f"n={n} exceeds canonicalization cap {CANONICAL_CAP}")


def canonical_form(m: Structure) -> Structure:
    """Relabeling of ``m`` with lexicographically minimal serialization."""
    _check_cap(m.n)
    return _structure_from_cells(m.signature, m.n, min(_relabelings(m)))


def orbit_members(m: Structure) -> list[Structure]:
    """All distinct relabelings of ``m``, sorted by canonical key."""
    _check_cap(m.n)
    return [
        _structure_from_cells(m.signature, m.n, key)
        for key in sorted(_relabelings(m))
    ]


def orbit_of(m: Structure) -> OrbitId:
    return OrbitId(serialize(canonical_form(m)))


def space_size(signature: Signature, n: int) -> int:
    """Number of structures over [n]: the product of 2^(n^arity) factors."""
    total = 1
    for arity in signature.arities:
        total *= 1 << (n**arity)
    return total


def iter_space(signature: Signature, n: int):
    """Yield every structure over [n], in canonical key order per relation."""
    if space_size(signature, n) > SPACE_CAP:
        raise ValueError(
            f"structure space of size {space_size(signature, n)} exceeds cap {SPACE_CAP}"
        )
    ranges = [range(1 << (n**a)) for a in signature.arities]
    for masks in itertools.product(*ranges):
        yield Structure(signature, n, masks)


@lru_cache(maxsize=64)
def _orbit_data(signature: Signature, n: int) -> tuple[OrbitTable, dict]:
    """The orbit table and lookup; the orbits' canonical members are
    formatted as one block."""
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    _check_cap(n)
    seen: set[Structure] = set()
    orbits = []
    for m in iter_space(signature, n):
        if m not in seen:
            orbits.append(orbit_members(m))
            seen.update(orbits[-1])
    oids = [OrbitId(text) for text in _serialize_all(signature, n, [o[0] for o in orbits])]
    lookup = {member: oid for oid, members in zip(oids, orbits) for member in members}
    entries = sorted(zip(oids, map(len, orbits)), key=lambda e: e[0].canonical)
    table = OrbitTable(signature, n, tuple(entries))
    return table, lookup


def enumerate_orbits(signature: Signature, n: int) -> OrbitTable:
    """Partition the whole structure space over [n] into orbits."""
    return _orbit_data(signature, n)[0]


def orbit_lookup(signature: Signature, n: int) -> dict:
    """Map from every structure over [n] to its OrbitId (cached)."""
    return _orbit_data(signature, n)[1]
