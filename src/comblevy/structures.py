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
can be formatted or parsed without building its n^r-bit integer.  The file
readers parse many texts at once (``_Parser.batch``, of which ``parse`` is
the batch of one) into one flat int64 cell column plus a count per text and
relation, reading the file text in bounded pieces (``_line_batches``).

Labels are 1-based throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, chain, islice, pairwise
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

    def flip_runs(self, cells: np.ndarray, counts: np.ndarray) -> "_CellBits":
        """XOR in a flat cell column of (rows x k) ``counts`` (see
        :meth:`_Parser.batch`); a cell listed twice flips back."""
        rels = np.repeat(np.tile(np.arange(len(self.bufs)), len(counts)), counts.ravel())
        return self.flip([cells[rels == j].tolist() for j in range(len(self.bufs))])

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


# A parsed relation's cell indices, 0 .. n^arity - 1, are decoded in int64,
# so a parser decodes cells only when n^arity stays below this.
_MAX_CELLS = 10**18
_LABEL = re.compile("[1-9][0-9]*")
_GAPS = str.maketrans("(),;", "    ")  # tuple punctuation, as label separators


class _BatchError(ValueError):
    """A ValueError about the text at position ``index`` of a parsed batch."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class _Parser:
    """Sorted cell indices of the canonical text of structures of one
    signature and size; the inverse of :class:`_Formatter`.

    :meth:`batch` parses a list of texts at once: one compiled
    canonical-grammar match per text checks its head, its field count, its
    field prefixes and the form of every tuple, then one numpy pass per
    relation decodes all the labels and checks their range and order.  Only
    a rejected batch is checked again text by text, to name the first
    defect.  Text of another signature or size is rejected.
    """

    __slots__ = ("signature", "n", "head", "grammar")

    def __init__(self, signature: Signature, n: int):
        self.signature = signature
        self.n = n
        self.head = [f"L={signature}", f"n={n}"]
        fields = []
        for j, arity in enumerate(signature.arities, start=1):
            cell = r"\(" + ",".join([_LABEL.pattern] * arity) + r"\)"
            fields.append(rf"\|R{j}=\{{((?:{cell}(?:;{cell})*)?)\}}")
        self.grammar = re.compile(re.escape("|".join(self.head)) + "".join(fields))

    @classmethod
    def of(cls, text: str) -> "_Parser":
        """A parser for the signature and size named by ``text``'s head."""
        return cls(*_head(text))

    def batch(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The cells of every text: one flat int64 column holding text 0's
        sorted cells of relation 0, 1, ..., k - 1, then text 1's, and so on,
        and the (texts x k) array of how many cells each run holds.  If a
        text is rejected, the first such raises a :class:`_BatchError`
        naming its position and its first defect."""
        fullmatch = self.grammar.fullmatch
        bodies = []
        for text in texts:
            match = fullmatch(text)
            if match is None:
                self._reject(texts)
            bodies.append(match.groups())
        per_rel = [
            self._decode([b[j] for b in bodies], arity)
            for j, arity in enumerate(self.signature.arities)
        ]
        if None in per_rel:
            self._reject(texts)
        counts = np.array([c for _, c in per_rel], np.int64).reshape(len(per_rel), len(texts)).T
        cells = np.concatenate([np.zeros(0, np.int64), *(cells for cells, _ in per_rel)])
        if len(texts) > 1 and len(per_rel) > 1:
            # relation-major to text-major: a stable sort by text keeps each
            # text's relations in order
            text = np.concatenate([np.repeat(np.arange(len(texts)), c) for _, c in per_rel])
            cells = cells[np.argsort(text, kind="stable")]
        return cells, counts

    def _decode(self, bodies: list[str], arity: int):
        """The cells of relation bodies ``(a,b);(c,d)...`` that the grammar
        matched, in order, and how many each body holds; None if a label
        exceeds n or a body's cells are not strictly increasing."""
        counts = np.array([body.count("(") for body in bodies], np.int64)
        if arity == 0:
            cells = np.zeros(int(counts.sum()), np.int64)
        else:
            # one C pass over all labels; one past the int64 range reads as
            # the int64 maximum, so it fails the range test like any label > n
            labels = np.fromstring("".join(bodies).translate(_GAPS), np.int64, sep=" ")
            if not labels.size:
                return labels, counts
            if labels.max() > self.n:
                return None
            if self.n**arity >= _MAX_CELLS:
                raise ValueError(f"n={self.n} is too large to index cells of arity {arity}")
            cells = labels[::arity] - 1
            for i in range(1, arity):
                cells = cells * self.n + labels[i::arity] - 1
        # step p compares cells p - 1 and p; a body's first cell has no step
        steps = np.ones(len(cells) + 1, bool)
        steps[1:-1] = cells[1:] > cells[:-1]
        steps[np.cumsum(counts)] = True
        return (cells, counts) if steps.all() else None

    def _reject(self, texts: Sequence[str]) -> None:
        """Raise the :class:`_BatchError` of the first text with a defect."""
        for i, text in enumerate(texts):
            defect = self._defect(text)
            if defect:
                raise _BatchError(i, defect)
        raise AssertionError("the batch and the piecewise checks disagree")

    def _defect(self, text: str) -> str | None:
        """What is wrong with ``text``, found by checking it piece by piece
        (field, then tuple, then label), or None if it is canonical."""
        parts = text.split("|")
        if parts[:2] != self.head:
            try:
                signature, n = _head(text)
            except ValueError as exc:
                return str(exc)
            return (
                f"structure of signature {signature} and n={n}, "
                f"expected {self.signature} and n={self.n}"
            )
        if len(parts) != self.signature.k + 2:
            return f"expected {self.signature.k} relation fields, got {len(parts) - 2}"
        for j, (arity, part) in enumerate(zip(self.signature.arities, parts[2:]), start=1):
            prefix = f"R{j}={{"
            if not (part.startswith(prefix) and part.endswith("}")):
                return f"malformed relation field: {part!r}"
            body = part[len(prefix):-1]
            cells = []
            for token in body.split(";") if body else ():
                inner = token[1:-1]
                labels = inner.split(",") if inner else []
                if not (
                    token[:1] == "(" and token[-1:] == ")" and len(labels) == arity
                    and all(map(_LABEL.fullmatch, labels))
                ):
                    return f"malformed tuple for arity {arity}: {token!r}"
                entries = [int(a) for a in labels]
                for a in entries:
                    if a > self.n:
                        return f"tuple {token} has entry {a} outside 1..{self.n}"
                cells.append(_cell_index(entries, self.n))
            if not all(map(lt, cells, islice(cells, 1, None))):
                return f"relation field not canonical: {part!r}"
        return None


def _cell_lists(cells: np.ndarray, counts: np.ndarray) -> list[list[list[int]]]:
    """Per text of a parsed batch, its sorted cell list per relation."""
    flat = cells.tolist()
    bounds = [0, *accumulate(counts.ravel().tolist())]
    runs = [flat[lo:hi] for lo, hi in zip(bounds, islice(bounds, 1, None))]
    k = counts.shape[1]
    return [runs[i:i + k] for i in range(0, len(runs), k)] if k else [[] for _ in counts]


def _flat_cells(rows, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat cell column and (rows x k) counts of ``rows``, each a list
    of k sorted cell lists; the inverse of :func:`_cell_lists`."""
    runs = list(chain.from_iterable(rows))
    counts = np.fromiter(map(len, runs), np.int64, len(runs)).reshape(len(rows), k)
    return np.fromiter(chain.from_iterable(runs), np.int64), counts


def _row_increments(rows) -> list[list[list[int]]]:
    """The increments between consecutive ``rows``, each a list of k sorted
    cell lists: per relation, the sorted symmetric difference."""
    return [
        [sorted(set(a).symmetric_difference(b)) for a, b in zip(prev, row)]
        for prev, row in pairwise(rows)
    ]


# Characters of file text that a reader parses at a time (see _line_batches).
_READ_BATCH_CHARS = 2**16


def _line_batches(text: str):
    """The non-empty lines of ``text`` (as ``str.splitlines`` splits them),
    in lists of about ``_READ_BATCH_CHARS`` characters, so a reader holds
    one list's records at a time."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _READ_BATCH_CHARS - 1)
        stop = len(text) if stop < 0 else stop + 1
        lines = [ln for ln in text[start:stop].splitlines() if ln]
        if lines:
            yield lines
        start = stop


def parse_cells(text: str) -> tuple[Signature, int, list[list[int]]]:
    """Inverse of :func:`serialize_cells`: the signature, size and sorted
    cell indices per relation; rejects any non-canonical text."""
    parser = _Parser.of(text)
    return parser.signature, parser.n, _cell_lists(*parser.batch([text]))[0]


def parse(text: str) -> Structure:
    """Inverse of :func:`serialize`; rejects any non-canonical text."""
    return _structure_from_cells(*parse_cells(text))
