"""Isomorphism classes of structures under relabeling.

Two structures are isomorphic when some permutation of the labels maps one
onto the other.  The canonical form of a structure is the relabeling with
the lexicographically minimal serialization; the orbit id wraps that text.
Canonicalization minimizes over all n! permutations, so everything here is
gated by an enumeration cap (n <= CANONICAL_CAP).

With the cap in place all labels are single decimal digits, so comparing
per-relation sorted tuple sequences is identical to comparing serialized
strings.  Cell-index order is the lexicographic tuple order, so the code
compares per-relation sorted cell indices, the cheapest equivalent key,
made for all n! relabelings at once by one gather through a table of
permutation images.  ``_orbit_groups`` is the one orbit partition: of the
whole space for the orbit table, of a measure's support in ``measures``.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

import numpy as np

from .structures import (
    Signature,
    Structure,
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
def _permutations(n: int) -> np.ndarray:
    """The n! permutations of [n] as rows of 0-based images; at n = 0, one empty row."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _relabelings(m: Structure) -> set[tuple]:
    """Every relabeling of ``m`` as its sort key: the sorted cell indices
    of each relation.  A relation's cells go through every permutation at
    once, one divmod and one gather per tuple position."""
    _check_cap(m.n)
    n, perms = m.n, _permutations(m.n)
    keys = []
    for arity, rel_cells in zip(m.signature.arities, _cells(m)):
        rest = np.array(rel_cells, dtype=np.int64)
        image = np.zeros((len(perms), len(rest)), dtype=np.int64)
        for pos in range(arity):
            rest, digit = np.divmod(rest, n)
            image += perms[:, digit] * n**pos
        keys.append(map(tuple, np.sort(image, axis=1).tolist()))
    return set(zip(*keys)) if keys else {()}


def _check_cap(n: int) -> None:
    if n > CANONICAL_CAP:
        raise ValueError(f"n={n} exceeds canonicalization cap {CANONICAL_CAP}")


def canonical_form(m: Structure) -> Structure:
    """Relabeling of ``m`` with lexicographically minimal serialization."""
    return _structure_from_cells(m.signature, m.n, min(_relabelings(m)))


def orbit_members(m: Structure) -> list[Structure]:
    """All distinct relabelings of ``m``, sorted by canonical key."""
    return [
        _structure_from_cells(m.signature, m.n, key)
        for key in sorted(_relabelings(m))
    ]


def _orbit_groups(structures) -> list[list[Structure]]:
    """Each orbit meeting ``structures``, once, as :func:`orbit_members` lists it."""
    seen: set[Structure] = set()
    groups = []
    for m in structures:
        if m not in seen:
            groups.append(orbit_members(m))
            seen.update(groups[-1])
    return groups


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
    orbits = _orbit_groups(iter_space(signature, n))
    oids = [OrbitId(text) for text in _serialize_all(signature, n, [o[0] for o in orbits])]
    lookup = {member: oid for oid, members in zip(oids, orbits) for member in members}
    entries = sorted(zip(oids, map(len, orbits)), key=lambda e: e[0].canonical)
    return OrbitTable(signature, n, tuple(entries)), lookup


def enumerate_orbits(signature: Signature, n: int) -> OrbitTable:
    """Partition the whole structure space over [n] into orbits."""
    return _orbit_data(signature, n)[0]


def orbit_lookup(signature: Signature, n: int) -> dict:
    """Map from every structure over [n] to its OrbitId (cached)."""
    return _orbit_data(signature, n)[1]
