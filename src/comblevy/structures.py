"""Finite labeled relational structures and their increment group.

A structure is a base set [n] = {1, ..., n} together with one tuple-set per
relation of a signature (a nondecreasing list of arities).  Structures of a
common shape form an abelian group under the cellwise symmetric difference
("increment"), in which the empty structure is the identity and every element
is its own inverse.  All process state in this package is a Structure.

Every relation, whatever its arity, is backed by one integer bitmask indexed
by mixed-radix cell position (tuple (a1, ..., ar) -> sum (a_i - 1) * n^(r - i)),
so the increment is a plain XOR and an r-ary relation over [n] is an
n^r-bit integer.  The text form is written and read at the level of sorted
cell indices (``serialize_cells``/``parse_cells``), so a sparse increment
can be formatted or parsed without building its n^r-bit integer.

Labels are 1-based throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Signature",
    "Structure",
    "Permutation",
    "empty_structure",
    "increment",
    "restrict",
    "relabel",
    "agreement_level",
    "serialize",
    "parse",
    "serialize_cells",
    "parse_cells",
]


@dataclass(frozen=True)
class Signature:
    """A nondecreasing tuple of relation arities."""

    arities: tuple[int, ...]

    def __post_init__(self) -> None:
        arities = tuple(int(a) for a in self.arities)
        object.__setattr__(self, "arities", arities)
        if any(a < 0 for a in arities):
            raise ValueError(f"arities must be nonnegative: {arities}")
        if any(arities[i] > arities[i + 1] for i in range(len(arities) - 1)):
            raise ValueError(f"arities must be nondecreasing: {arities}")

    @property
    def k(self) -> int:
        return len(self.arities)

    @property
    def max_arity(self) -> int:
        return max(self.arities, default=0)

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.arities) + ")"

    @classmethod
    def parse(cls, text: str) -> "Signature":
        """Parse the parenthesized form, e.g. ``(1,2)``."""
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"malformed signature: {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return cls(())
        parts = inner.split(",")
        try:
            arities = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"malformed signature: {text!r}") from None
        return cls(arities)


def _cell_index(entries: Sequence[int], n: int) -> int:
    idx = 0
    for a in entries:
        idx = idx * n + (a - 1)
    return idx


def _cell_decode(idx: int, n: int, arity: int) -> tuple[int, ...]:
    entries = [0] * arity
    for pos in range(arity - 1, -1, -1):
        entries[pos] = idx % n + 1
        idx //= n
    return tuple(entries)


def _set_bits(mask: int) -> list[int]:
    """Ascending indices of the set bits of ``mask``, in time linear in its
    width: the little-endian bytes, unpacked to one byte per bit."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")
    return np.flatnonzero(bits).tolist()


def _validate_tuple(t: tuple[int, ...], arity: int, n: int) -> None:
    if len(t) != arity:
        raise ValueError(f"tuple {t} has length {len(t)}, expected arity {arity}")
    for a in t:
        if not 1 <= a <= n:
            raise ValueError(f"tuple {t} has entry {a} outside 1..{n}")


@dataclass(frozen=True)
class Structure:
    """A finite labeled structure: base size ``n`` plus one set per relation.

    ``relations[j]`` is the int bitmask of relation j, for every arity: bit
    ``_cell_index(t, n)`` is set iff tuple t is present.  Instances are
    immutable values; build them with :func:`empty_structure` or
    :meth:`from_tuples` rather than directly.
    """

    signature: Signature
    n: int
    relations: tuple

    @classmethod
    def from_tuples(
        cls,
        signature: Signature,
        n: int,
        relations: Sequence[Iterable],
    ) -> "Structure":
        """Build and validate a structure from explicit tuple collections.

        For arity-1 relations, bare ints are accepted in place of 1-tuples.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if len(relations) != signature.k:
            raise ValueError(
                f"expected {signature.k} relations, got {len(relations)}"
            )
        cells = []
        for arity, rel in zip(signature.arities, relations):
            rel_cells = []
            for t in rel:
                if isinstance(t, int):
                    t = (t,)
                else:
                    t = tuple(int(a) for a in t)
                _validate_tuple(t, arity, n)
                rel_cells.append(_cell_index(t, n))
            if len(set(rel_cells)) != len(rel_cells):
                raise ValueError("duplicate tuples in relation")
            cells.append(rel_cells)
        return _structure_from_cells(signature, n, cells)

    def tuples(self, j: int) -> list[tuple[int, ...]]:
        """Sorted tuple list of relation ``j`` (0-based index)."""
        arity = self.signature.arities[j]
        return [_cell_decode(i, self.n, arity) for i in _set_bits(self.relations[j])]

    def tuple_count(self, j: int) -> int:
        return self.relations[j].bit_count()

    def is_empty(self) -> bool:
        return not any(self.relations)

    def __str__(self) -> str:
        return serialize(self)


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n}, stored as the image tuple (1-based)."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(int(v) for v in self.image)
        object.__setattr__(self, "image", image)
        if len(image) != self.n or sorted(image) != list(range(1, self.n + 1)):
            raise ValueError(f"not a bijection of 1..{self.n}: {image}")

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.image, start=1):
            inv[v - 1] = i
        return Permutation(self.n, tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self o other, acting as i -> self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch in composition")
        return Permutation(self.n, tuple(self.image[v - 1] for v in other.image))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(1, n + 1)))


def empty_structure(signature: Signature, n: int) -> Structure:
    """The identity of the increment group: all relations empty."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return Structure(signature, n, (0,) * signature.k)


def _check_same_shape(m1: Structure, m2: Structure) -> None:
    if m1.signature != m2.signature or m1.n != m2.n:
        raise ValueError(
            f"shape mismatch: {m1.signature}/n={m1.n} vs {m2.signature}/n={m2.n}"
        )


def increment(m1: Structure, m2: Structure) -> Structure:
    """Cellwise symmetric difference of two structures of a common shape."""
    _check_same_shape(m1, m2)
    payloads = tuple(r1 ^ r2 for r1, r2 in zip(m1.relations, m2.relations))
    return Structure(m1.signature, m1.n, payloads)


def restrict(m: Structure, size: int) -> Structure:
    """Keep only tuples with all entries <= size; base set becomes [size]."""
    if not 0 <= size <= m.n:
        raise ValueError(f"restriction size {size} outside 0..{m.n}")
    if size == m.n:
        return m
    cells = [
        _restrict_cells(rel_cells, m.n, arity, size)
        for arity, rel_cells in zip(m.signature.arities, _cells(m))
    ]
    return _structure_from_cells(m.signature, size, cells)


def _restrict_cells(cells, n: int, arity: int, size: int) -> list[int]:
    """The cells among ``cells`` (over [n]) whose entries all lie in
    [size], re-indexed over [size]; order is kept."""
    kept = []
    for c in cells:
        entries = _cell_decode(c, n, arity)
        if all(a <= size for a in entries):
            kept.append(_cell_index(entries, size))
    return kept


def relabel(m: Structure, sigma: Permutation) -> Structure:
    """Relabeled structure: tuple a is present iff sigma(a) is present in m."""
    if sigma.n != m.n:
        raise ValueError(f"permutation size {sigma.n} != structure size {m.n}")
    inv = sigma.inverse().image
    cells = [
        [
            _cell_index([inv[a - 1] for a in _cell_decode(c, m.n, arity)], m.n)
            for c in rel_cells
        ]
        for arity, rel_cells in zip(m.signature.arities, _cells(m))
    ]
    return _structure_from_cells(m.signature, m.n, cells)


def agreement_level(m1: Structure, m2: Structure) -> int:
    """Largest size whose restrictions of the two structures coincide.

    Returns ``n`` when the structures are equal.  Returns -1 in the corner
    case where arity-0 relations differ (restrictions then differ even at
    size 0, so no agreement level exists).
    """
    _check_same_shape(m1, m2)
    diff = increment(m1, m2)
    if diff.is_empty():
        return m1.n
    level = m1.n
    for j, arity in enumerate(m1.signature.arities):
        for t in diff.tuples(j):
            reach = max(t) if t else 0
            level = min(level, reach - 1)
    return level


def _cells(m: Structure) -> list[list[int]]:
    """Sorted cell indices of each relation of ``m``."""
    return [_set_bits(rel) for rel in m.relations]


class _CellBits:
    """A mutable copy of a structure's relations, one little-endian bytearray
    per relation, so flipping a cell is O(1) rather than a copy of the whole
    n^arity-bit int; ``freeze`` returns the current Structure."""

    __slots__ = ("signature", "n", "bufs")

    def __init__(self, m: Structure):
        self.signature = m.signature
        self.n = m.n
        self.bufs = [
            bytearray(rel.to_bytes((m.n**arity + 7) // 8, "little"))
            for arity, rel in zip(m.signature.arities, m.relations)
        ]

    def flip(self, cells) -> "_CellBits":
        """XOR in the cells ``cells[j]`` of each relation j."""
        for buf, rel_cells in zip(self.bufs, cells):
            for c in rel_cells:
                buf[c >> 3] ^= 1 << (c & 7)
        return self

    def freeze(self) -> Structure:
        return Structure(
            self.signature,
            self.n,
            tuple(int.from_bytes(buf, "little") for buf in self.bufs),
        )


def _structure_from_cells(signature: Signature, n: int, cells) -> Structure:
    """The structure whose relation j holds the distinct in-range cells ``cells[j]``."""
    payloads = []
    for rel_cells in cells:
        mask = 0
        for c in rel_cells:
            mask |= 1 << c
        payloads.append(mask)
    return Structure(signature, n, tuple(payloads))


class _TokenCache(dict):
    """Cell index -> tuple text ``(a1,...,ar)`` over [n], built on first use."""

    __slots__ = ("n", "arity")

    def __init__(self, n: int, arity: int):
        self.n = n
        self.arity = arity

    def __missing__(self, c: int) -> str:
        # _cell_decode inlined, with the labels kept as text: a writer runs
        # this once per distinct cell, e.g. ~37k times on a 28.8k-jump graph
        # stream, where the call and the int round trip cost ~40% more
        entries = []
        rest = c
        for _ in range(self.arity):
            rest, a = divmod(rest, self.n)
            entries.append(str(a + 1))
        entries.reverse()
        token = self[c] = "(" + ",".join(entries) + ")"
        return token


class _Formatter:
    """Canonical text of structures of one signature and size, given as sorted
    cell indices per relation (see :func:`serialize_cells`).

    Each cell's tuple text is built once and kept for the formatter's life,
    so a writer that uses one formatter per file formats every distinct cell
    once.
    """

    __slots__ = ("head", "fields")

    def __init__(self, signature: Signature, n: int):
        self.head = f"L={signature}|n={n}"
        self.fields = [
            (f"R{j}={{", _TokenCache(n, arity))
            for j, arity in enumerate(signature.arities, start=1)
        ]

    def __call__(self, cells) -> str:
        parts = [self.head]
        for (prefix, tokens), rel_cells in zip(self.fields, cells):
            parts.append(prefix + ";".join(map(tokens.__getitem__, rel_cells)) + "}")
        return "|".join(parts)


def serialize_cells(signature: Signature, n: int, cells) -> str:
    """Canonical text of the structure whose relation j holds the sorted
    cell indices ``cells[j]``.

    Format: ``L=(i1,...,ik)|n=N|R1={t;t;...}|...|Rk={...}`` with tuples
    ``(a1,...,ai)`` in lexicographic order (which is cell-index order) and
    no whitespace.
    """
    return _Formatter(signature, n)(cells)


def serialize(m: Structure) -> str:
    """Canonical text form, bit-exact and sortable (see :func:`serialize_cells`)."""
    return serialize_cells(m.signature, m.n, _cells(m))


class _CellCache(dict):
    """Tuple text ``(a1,...,ar)`` over [n] -> cell index, parsed on first use.

    The miss path accepts only the canonical grammar: plain ASCII decimal
    labels with no sign, leading zero, underscore or whitespace.
    """

    __slots__ = ("n", "grammar")

    def __init__(self, n: int, arity: int):
        self.n = n
        self.grammar = re.compile(r"\(" + ",".join(["([1-9][0-9]*)"] * arity) + r"\)")

    def __missing__(self, token: str) -> int:
        match = self.grammar.fullmatch(token)
        if match is None:
            raise ValueError(f"malformed tuple for arity {self.grammar.groups}: {token!r}")
        n = self.n
        idx = 0
        for label in match.groups():
            a = int(label)
            if a > n:
                raise ValueError(f"tuple {token} has entry {a} outside 1..{n}")
            idx = idx * n + a - 1
        self[token] = idx
        return idx


def _head(text: str) -> tuple[Signature, int]:
    """Signature and size named by the canonical head ``L=(...)|n=N`` of
    structure text."""
    parts = text.split("|", 2)
    if len(parts) < 2 or not parts[0].startswith("L=") or not parts[1].startswith("n="):
        raise ValueError(f"malformed structure text: {text!r}")
    signature = Signature.parse(parts[0][2:])
    try:
        n = int(parts[1][2:])
    except ValueError:
        raise ValueError(f"malformed size field: {parts[1]!r}") from None
    if n < 0:
        raise ValueError(f"negative size: {n}")
    if parts[0] != f"L={signature}" or parts[1] != f"n={n}":
        raise ValueError(f"non-canonical structure head: {parts[0]}|{parts[1]}")
    return signature, n


class _Parser:
    """Sorted cell indices per relation of the canonical text of structures
    of one signature and size; the inverse of :class:`_Formatter`.

    Each distinct tuple text is parsed and validated once and kept for the
    parser's life, so a reader that uses one parser per file parses every
    distinct tuple once.  Text of another signature or size is rejected.
    """

    __slots__ = ("signature", "n", "head", "fields")

    def __init__(self, signature: Signature, n: int):
        self.signature = signature
        self.n = n
        self.head = [f"L={signature}", f"n={n}"]
        self.fields = [
            (f"R{j}={{", _CellCache(n, arity))
            for j, arity in enumerate(signature.arities, start=1)
        ]

    @classmethod
    def of(cls, text: str) -> "_Parser":
        """A parser for the signature and size named by ``text``'s head."""
        return cls(*_head(text))

    def __call__(self, text: str) -> list[list[int]]:
        parts = text.split("|")
        if parts[:2] != self.head:
            signature, n = _head(text)
            raise ValueError(
                f"structure of signature {signature} and n={n}, "
                f"expected {self.signature} and n={self.n}"
            )
        if len(parts) != len(self.fields) + 2:
            raise ValueError(
                f"expected {len(self.fields)} relation fields, got {len(parts) - 2}"
            )
        cells = []
        for (prefix, cache), part in zip(self.fields, islice(parts, 2, None)):
            if not (part.startswith(prefix) and part.endswith("}")):
                raise ValueError(f"malformed relation field: {part!r}")
            body = part[len(prefix):-1]
            rel_cells = list(map(cache.__getitem__, body.split(";"))) if body else []
            if not all(map(lt, rel_cells, islice(rel_cells, 1, None))):
                raise ValueError(f"relation field not canonical: {part!r}")
            cells.append(rel_cells)
        return cells

    def structure(self, text: str) -> Structure:
        return _structure_from_cells(self.signature, self.n, self(text))


def parse_cells(text: str) -> tuple[Signature, int, list[list[int]]]:
    """Inverse of :func:`serialize_cells`: the signature, size and sorted
    cell indices per relation; rejects any non-canonical text."""
    parser = _Parser.of(text)
    return parser.signature, parser.n, parser(text)


def parse(text: str) -> Structure:
    """Inverse of :func:`serialize`; rejects any non-canonical text."""
    return _Parser.of(text).structure(text)
