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
writers format a block of structures at once (``_Formatter``, of which
``serialize`` is the block of one).  The file readers parse many texts at
once (``_Parser.batch``, of which ``parse`` is the batch of one) into one
flat int64 cell column plus a count per text and relation, reading the file
text, a str or an open file, in bounded pieces (``_line_batches``).  The
full-state CSV reader parses only its first row so, and every later row as
an edit of the row before it (``_Parser._edits``).

Labels are 1-based throughout.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import gt, lt
from typing import Iterable, Sequence

import numpy as np

from .value import Value

__all__ = [
    "Signature",
    "Structure",
    "Permutation",
    "empty_structure",
    "increment",
    "restrict",
    "relabel",
    "serialize",
    "parse",
    "serialize_cells",
    "parse_cells",
]


# Sets a field of a frozen value.
_set = object.__setattr__


class Signature(Value):
    """A nondecreasing tuple of relation arities."""

    arities: tuple[int, ...]

    def __init__(self, arities) -> None:
        arities = tuple(map(int, arities))
        if any(a < 0 for a in arities):
            raise ValueError(f"arities must be nonnegative: {arities}")
        if any(map(gt, arities, arities[1:])):
            raise ValueError(f"arities must be nondecreasing: {arities}")
        _set(self, "arities", arities)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.arities == other.arities

    def __hash__(self) -> int:
        return hash((self.arities,))

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
        if not isinstance(text, str):
            raise ValueError(f"signature must be a string, got {text!r}")
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


def _bit_array(mask: int) -> np.ndarray:
    """Ascending indices of the set bits of ``mask``: its little-endian
    bytes, of which only the nonzero ones are unpacked to one byte per bit."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    at = raw.nonzero()[0]
    byte, bit = np.unpackbits(raw[at], bitorder="little").reshape(-1, 8).nonzero()
    return at[byte] * 8 + bit


def _set_bits(mask: int) -> list[int]:
    """:func:`_bit_array` as a list."""
    return _bit_array(mask).tolist()


def _validate_tuple(t: tuple[int, ...], arity: int, n: int) -> None:
    if len(t) != arity:
        raise ValueError(f"tuple {t} has length {len(t)}, expected arity {arity}")
    for a in t:
        if not 1 <= a <= n:
            raise ValueError(f"tuple {t} has entry {a} outside 1..{n}")


class Structure(Value):
    """A finite labeled structure: base size ``n`` plus one set per relation.

    ``relations[j]`` is the int bitmask of relation j, for every arity: bit
    ``_cell_index(t, n)`` is set iff tuple t is present.  Instances are
    immutable values; build them with :func:`empty_structure` or
    :meth:`from_tuples` rather than directly.
    """

    signature: Signature
    n: int
    relations: tuple

    def __init__(self, signature: Signature, n: int, relations: tuple) -> None:
        _set(self, "signature", signature)
        _set(self, "n", n)
        _set(self, "relations", relations)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.relations, self.signature) == (other.n, other.relations, other.signature)

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

    def __hash__(self) -> int:
        # An int hashes to itself modulo 2**61 - 1, so a relation of one
        # cell c would hash as 2**(c % 61), one of 61 values; its bit length
        # tells the cell positions apart.
        return hash((self.n, self.relations, tuple(map(int.bit_length, self.relations))))

    def __str__(self) -> str:
        return serialize(self)


class Permutation(Value):
    """A bijection of {1, ..., n}, stored as the image tuple (1-based)."""

    n: int
    image: tuple[int, ...]

    def __init__(self, n: int, image) -> None:
        image = tuple(map(int, image))
        if len(image) != n or sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {image}")
        _set(self, "n", n)
        _set(self, "image", image)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.image) == (other.n, other.image)

    def __hash__(self) -> int:
        return hash((self.n, self.image))

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
    columns = _flat_cells([_cells(m)], m.signature.k)
    cells = _cell_lists(*_restrict_columns(m.signature, m.n, size, *columns))[0]
    return _structure_from_cells(m.signature, size, cells)


def _restrict_columns(
    signature: Signature, n: int, size: int, cells: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Restrict a flat cell column of (rows x k) ``counts`` (see
    :meth:`_Parser.batch`) over [n] to [size], in the same layout: each
    cell is split into its labels by one ``divmod`` per tuple position,
    and the cells whose labels all lie in [size] are kept, re-encoded over
    [size].  The encoding is lexicographic in the labels over both sizes,
    so each row's cells stay sorted."""
    if size == n:
        return cells, counts
    slots = np.repeat(np.arange(counts.size), counts.ravel())
    arity = np.repeat(np.tile(np.array(signature.arities, np.int64), len(counts)), counts.ravel())
    rest, image, kept = cells, np.zeros(len(cells), np.int64), np.ones(len(cells), bool)
    for pos in range(signature.max_arity):  # the label at n^pos, the last first
        rest, label = np.divmod(rest, n)
        kept &= (label < size) | (pos >= arity)
        image += label * size**pos
    return image[kept], np.bincount(slots[kept], minlength=counts.size).reshape(counts.shape)


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


def _cells(m: Structure) -> list[list[int]]:
    """Sorted cell indices of each relation of ``m``."""
    return [_set_bits(rel) for rel in m.relations]


def _block_increment(
    signature: Signature, n: int, cells: np.ndarray, counts: np.ndarray
) -> Structure:
    """The cellwise XOR of a block of rows, a flat cell column of (rows x k)
    ``counts`` (see :meth:`_Parser.batch`): a cell listed an odd number of
    times is set.  Per relation, one unbuffered numpy XOR sets its cells in
    one byte buffer spanning its smallest to its largest cell, read as one
    int and shifted into place, as in :func:`_structure_from_cells`."""
    payloads = []
    for rel_cells, _ in _relation_columns(cells, counts):
        if not len(rel_cells):
            payloads.append(0)
            continue
        low = int(rel_cells.min()) >> 3
        try:
            bits = np.zeros((int(rel_cells.max()) >> 3) - low + 1, np.uint8)
            flips = np.left_shift(1, rel_cells & 7).astype(np.uint8)
            np.bitwise_xor.at(bits, (rel_cells >> 3) - low, flips)
            payloads.append(int.from_bytes(bits.tobytes(), "little") << 8 * low)
        except MemoryError:
            size = sum((n**arity + 7) // 8 for arity in signature.arities)
            raise ValueError(
                f"a state of signature {signature} at n={n} needs "
                f"{size} bytes of cell bits, more than can be allocated"
            ) from None
    return Structure(signature, n, tuple(payloads))


def _structure_from_cells(signature: Signature, n: int, cells) -> Structure:
    """The structure whose relation j holds the distinct in-range cells
    ``cells[j]``: each relation's bits are set in one little-endian
    bytearray spanning the bytes from its smallest to its largest cell,
    read as one int and shifted into place, so the build is linear in the
    cells plus that span."""
    payloads = []
    for rel_cells in cells:
        if not len(rel_cells):
            payloads.append(0)
            continue
        low = min(rel_cells) >> 3
        bits = bytearray((max(rel_cells) >> 3) - low + 1)
        for c in rel_cells:
            bits[(c >> 3) - low] |= 1 << (c & 7)
        payloads.append(int.from_bytes(bits, "little") << 8 * low)
    return Structure(signature, n, tuple(payloads))


class _Labels(dict):
    """Key a -> the text of 0-based label ``a // len(forms)`` in the form
    ``forms[a % len(forms)]``, built on first use."""

    __slots__ = ("forms",)

    def __init__(self, *forms: str):
        self.forms = forms

    def __missing__(self, a: int) -> str:
        label, form = divmod(a, len(self.forms))
        text = self[a] = self.forms[form] % (label + 1)
        return text


class _Formatter:
    """Canonical text of structures of one signature and size, a block of
    rows at a time (see :func:`serialize_cells` for the format).

    :meth:`records` lays out a block's text piece by piece: the literals of
    a record's line, each row's time text and each cell's label texts.  It
    decodes the labels with one numpy divmod pass per tuple position and
    maps them through the formatter's tables of label text.  The tables
    hold the labels met so far, never all n up front; ``_formatter`` keeps
    one formatter, and so its tables, per signature and size.  ``form`` is
    the structure text with a ``%s`` for each relation's body.
    """

    __slots__ = ("n", "arities", "widths", "form", "heads", "middle", "last")

    # Rows a writer formats at a time; a full-state writer takes only as
    # many states as fill this many bytes of relation bits.
    block = 4096

    def __init__(self, signature: Signature, n: int):
        self.n = n
        self.arities = signature.arities
        self.widths = np.array([max(a, 1) for a in self.arities], np.int64)
        self.form = f"L={signature}|n={n}" + "".join(
            f"|R{j}={{%s}}" for j in range(1, signature.k + 1)
        )
        # a cell's first label by min(arity, 2), keyed 2 * label + 1 for
        # the first cell of its row's relation and 2 * label, led by a ";",
        # for a later one
        self.heads = {1: _Labels(";(%d)", "(%d)"), 2: _Labels(";(%d", "(%d")}
        self.middle, self.last = _Labels(",%d"), _Labels(",%d)")

    def records(self, cells: np.ndarray, counts: np.ndarray, line: str, times=None) -> str:
        """The text of a block of records, one per row: ``line`` with the
        row's structure text in place of ``form`` and, at a ``%s`` outside
        it, the row's text from the list ``times``.  The rows are given as
        the log holds them: a flat column of their sorted cells, row by row
        and relation by relation, and their (rows x k) ``counts`` (see
        :meth:`_Parser.batch`).

        A row's pieces are the literals of ``line`` with, between them, its
        time text and each relation's cells, ``max(arity, 1)`` label texts
        per cell.  Each piece gets its slot in one object array by index
        arithmetic (:meth:`_layout`), and the array is joined once."""
        # the layout's index arrays are freed before the join, so they do
        # not add to its peak memory
        return "".join(self._layout(cells, counts, line, times).tolist())

    def _layout(self, cells: np.ndarray, counts: np.ndarray, line: str, times) -> np.ndarray:
        """The pieces of :meth:`records`' text, in order, in an object array."""
        rows, k = counts.shape
        literals = line.split("%s")
        lead = line[: line.index(self.form)].count("%s")  # 1 if the time leads
        # pieces per row in each literal and slot, in record order
        sizes = np.ones((rows, 2 * len(literals) - 1), np.int64)
        bodies = slice(2 * lead + 1, 2 * (lead + k), 2)
        sizes[:, bodies] = counts * self.widths
        starts = sizes.cumsum().reshape(sizes.shape) - sizes
        out = np.empty(starts[-1, -1] + 1 if rows else 0, object)
        out[starts[:, ::2]] = np.array(literals, object)
        if times is not None:
            out[starts[:, 1 if lead else -2]] = times
        per = counts.ravel()
        rank = np.arange(len(cells)) - (per.cumsum() - per).repeat(per)
        rel = (np.arange(per.size) % k).repeat(per) if k > 1 else slice(None)
        pos = starts[:, bodies].ravel().repeat(per) + rank * self.widths[rel]
        first = rank == 0
        for j, arity in enumerate(self.arities):
            at = rel == j if k > 1 else rel
            where = pos[at]
            for q, texts in enumerate(self._texts(cells[at], first[at], arity)):
                out[where + q] = texts
        return out

    def _texts(self, cells: np.ndarray, first: np.ndarray, arity: int) -> list[list[str]]:
        """Per tuple position, the label texts of ``cells``, of one
        relation: a cell's text is the join of its ``max(arity, 1)`` texts,
        led by a ";" but where ``first`` holds (``(1,2)`` is ``";(1"``,
        ``",2)"``)."""
        if arity == 0:
            return [list(map((";()", "()").__getitem__, first.tolist()))]
        texts = []
        for q in range(arity - 1, -1, -1):
            if q:
                cells, keys = np.divmod(cells, self.n)
                table = self.last if q == arity - 1 else self.middle
            else:
                keys, table = 2 * cells + first, self.heads[min(arity, 2)]
            texts.append(list(map(table.__getitem__, keys.tolist())))
        return texts[::-1]


_formatter = lru_cache(maxsize=64)(_Formatter)


def _relation_columns(cells: np.ndarray, counts: np.ndarray) -> list:
    """Per relation j, the cells of relation j in a flat column of (rows x k)
    ``counts`` (see :meth:`_Parser.batch`), and its count per row."""
    k = counts.shape[1]
    rels = np.repeat(np.tile(np.arange(k), len(counts)), counts.ravel())
    return [(cells[rels == j], counts[:, j]) for j in range(k)]


def serialize_cells(signature: Signature, n: int, cells) -> str:
    """Canonical text of the structure whose relation j holds the sorted
    cell indices ``cells[j]``.

    Format: ``L=(i1,...,ik)|n=N|R1={t;t;...}|...|Rk={...}`` with tuples
    ``(a1,...,ai)`` in lexicographic order (which is cell-index order) and
    no whitespace.
    """
    cells = [np.asarray(c, np.int64) for c in cells]
    text = _formatter(signature, n)
    counts = np.array([list(map(len, cells))], np.int64)
    return text.records(np.concatenate([np.zeros(0, np.int64), *cells]), counts, text.form)


def serialize(m: Structure) -> str:
    """Canonical text form, bit-exact and sortable (see :func:`serialize_cells`)."""
    return serialize_cells(m.signature, m.n, map(_bit_array, m.relations))


def _serialize_rows(
    signature: Signature, n: int, cells: np.ndarray, counts: np.ndarray
) -> list[str]:
    """The canonical texts of the rows of a flat cell column of (rows x k)
    ``counts`` (see :meth:`_Parser.batch`), formatted as one block (see
    :func:`serialize_cells`)."""
    text = _formatter(signature, n)
    texts = text.records(cells, counts, text.form + "\n").split("\n")
    texts.pop()  # the empty text after the last line end
    return texts


def _serialize_all(signature: Signature, n: int, structures) -> list[str]:
    """The canonical texts of ``structures``, all of one signature and size,
    formatted as one block."""
    return _serialize_rows(signature, n, *_flat_cells([_cells(m) for m in structures], signature.k))


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


# Cell indices, 0 .. n^arity - 1, are held in int64, so a parser or a
# sampler handles only sizes whose n^max_arity stays below this.
_MAX_CELLS = 10**18
_LABEL = re.compile("[1-9][0-9]*+")


def _check_cell_range(signature: Signature, n: int) -> None:
    if n**signature.max_arity >= _MAX_CELLS:
        raise ValueError(f"n={n} is too large to index cells of arity {signature.max_arity}")


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
    field prefixes and the form of every tuple, then a few numpy passes per
    relation decode all the labels and check their range and order.  Only
    a rejected batch is checked again text by text, to name the first
    defect.  Text of another signature or size is rejected.
    :meth:`_edits` reads texts that follow a canonical one as edits of
    the text before each, parsing only what changed.
    """

    __slots__ = ("signature", "n", "head", "grammar", "runs")

    def __init__(self, signature: Signature, n: int):
        _check_cell_range(signature, n)
        self.signature = signature
        self.n = n
        self.head = [f"L={signature}", f"n={n}"]
        fields, self.runs = [], []
        for j, arity in enumerate(signature.arities, start=1):
            cell = r"\(" + ",".join([_LABEL.pattern] * arity) + r"\)"
            run = f"(?:{cell}(?:;{cell})*+)?+"  # possessive: the grammar never backtracks
            fields.append(rf"\|R{j}=\{{({run})\}}")
            # relation j's runs of whole tuples, each ended by a "\n"
            self.runs.append(re.compile(f"(?:{run}\n)*+"))
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
        columns = self.columns(list(zip(*bodies)) or [()] * self.signature.k, len(texts))
        if columns is None:
            self._reject(texts)
        return columns

    def _edits(self, rows: Sequence[str]):
        """The jumps between consecutive ``rows``, texts without line breaks
        of which the first is canonical: per row after the first and per
        relation, the sorted symmetric difference with the row before it, in
        :meth:`batch`'s form, read from the changed text alone; None if a
        row fails a check.  Joined by "\n" and cut at "|R", the rows give one
        part per relation field; each row's last field also carries the
        "\n" and the next row's head, and a copy of the head after the last
        row gives the last row's last field the same end.  Each relation's
        fields are cut down to their edit windows (:func:`_edit_windows`),
        which checks that each field's lead and its end, the last one's
        with that head, are the field before's.  The new windows must match
        the tuple grammar and decode (:meth:`_decode`, which checks the
        labels' range and the cells' order), and the jump is the symmetric
        difference of the old and new windows' cells.  A new window holds
        every changed tuple and one unchanged tuple on each side, where
        there is one, so the order checks inside it cover its edges, and
        the text around it is the row before's, which is canonical."""
        k, count, head = self.signature.k, len(rows), "|".join(self.head)
        joined = "\n".join([*rows, head])
        parts = joined.split("|R")
        # a part moved to another row would leave some row's last field
        # without the "\n" and the head, or give a field another lead
        if not joined.isascii() or len(parts) != 1 + count * k:
            return None
        if not k and joined != "\n".join([head] * (count + 1)):
            return None  # with no fields, a row is the head alone
        slots, cells = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for j, arity in enumerate(self.signature.arities if count > 1 else ()):
            fields = parts[1 + j::k]
            lens = np.fromiter(map(len, fields), np.int64, count)
            tail = len(head) + 1 if j == k - 1 else 0
            windows = _edit_windows(fields, lens, len(f"{j + 1}={{"), tail)
            if windows is None:
                return None
            chars, new, tuples = windows
            if not self.runs[j].fullmatch(chars[new:].tobytes().decode()):
                return None
            decoded = self._decode(chars, tuples, arity)
            if decoded is None:
                return None
            # the windows' cells, each in the slot of its jump and relation
            jumps = np.tile(np.arange(count - 1) * k + j, 2)
            slots.append(np.repeat(jumps, tuples))
            cells.append(decoded[0])
        return _odd_cells(np.concatenate(slots), np.concatenate(cells), (count - 1, k))

    def columns(self, bodies: Sequence[Sequence[str]], texts: int):
        """:meth:`batch`'s cells of ``texts`` texts whose relation bodies
        the grammar matched, given per relation: ``bodies[j]`` is relation
        j's body of every text.  None if a label exceeds n or a body's
        cells are not strictly increasing."""
        per_rel = []
        for body, arity in zip(bodies, self.signature.arities):
            tuples = np.fromiter(map(str.count, body, repeat("(")), np.int64, len(body))
            chars = np.frombuffer("".join(body).encode(), np.uint8)
            per_rel.append(self._decode(chars, tuples, arity))
        return None if None in per_rel else _row_major(per_rel, texts)

    def _decode(self, chars: np.ndarray, counts: np.ndarray, arity: int):
        """The cells of relation bodies ``(a,b);(c,d)...`` that the grammar
        matched, in order, and how many each body holds, given the bodies'
        text as bytes (see :func:`_labels`) and ``counts``, the number of
        tuples in each; None if a label exceeds n or a body's cells are not
        strictly increasing."""
        if arity == 0:
            cells = np.zeros(int(counts.sum()), np.int64)
        else:
            labels = _labels(chars)
            if labels is None or labels.max(initial=0) > self.n:
                return None
            cells = labels[::arity] - 1
            for i in range(1, arity):
                cells = cells * self.n + labels[i::arity] - 1
        # step p compares cells p - 1 and p; a body's first cell has no step
        steps = np.ones(len(cells) + 1, bool)
        steps[1:-1] = cells[1:] > cells[:-1]
        steps[np.cumsum(counts)] = True
        return (cells, counts) if steps.all() else None

    def _reject(self, texts: Sequence[str]) -> None:
        """Raise the :class:`_BatchError` of the first text with a defect,
        for texts that :meth:`batch` or :meth:`_edits` rejected."""
        for i, text in enumerate(texts):
            defect = self._defect(text)
            if defect:
                raise _BatchError(i, defect)
        raise AssertionError("the batch or edit checks and the piecewise checks disagree")

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


def _labels(chars: np.ndarray) -> np.ndarray | None:
    """The labels in tuple text that the grammar matched, given as bytes
    that neither start nor end with a digit, in order, read in a few numpy
    passes: each run of digits is a label, its digits weighted by their
    place and summed.  None if a label has more digits than any label of a
    size that cells can index (see ``_MAX_CELLS``)."""
    digit = chars - ord("0") < 10  # in uint8, bytes below "0" wrap past 10
    edges = np.flatnonzero(digit[1:] != digit[:-1]) + 1  # each run's start and end
    start, end = edges[0::2], edges[1::2]
    digits = end - start
    if digits.max(initial=0) >= len(str(_MAX_CELLS)):
        return None
    place = np.arange(digits.max(initial=0))  # counted from each label's end
    value = chars[end[:, None] - 1 - place].astype(np.int64) - ord("0")
    return (np.where(place < digits[:, None], value, 0) * 10**place).sum(1)


def _cell_lists(cells: np.ndarray, counts: np.ndarray) -> list[list[list[int]]]:
    """Per text of a parsed batch, its sorted cell list per relation."""
    flat = cells.tolist()
    bounds = [0, *accumulate(counts.ravel().tolist())]
    runs = [flat[lo:hi] for lo, hi in zip(bounds, islice(bounds, 1, None))]
    k = counts.shape[1]
    return [runs[i:i + k] for i in range(0, len(runs), k)] if k else [[] for _ in counts]


def _row_major(per_rel, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat cell column and (rows x k) counts (see :meth:`_Parser.batch`)
    of per-relation columns: ``per_rel[j]`` is relation j's cells of every
    row, row by row, and how many each row holds."""
    counts = np.array([c for _, c in per_rel], np.int64).reshape(len(per_rel), rows).T
    cells = np.concatenate([np.zeros(0, np.int64), *(cells for cells, _ in per_rel)])
    if rows > 1 and len(per_rel) > 1:
        # relation-major to row-major: a stable sort by row keeps each row's
        # relations in order
        row = np.repeat(np.tile(np.arange(rows), len(per_rel)), counts.T.ravel())
        cells = cells[np.argsort(row, kind="stable")]
    return cells, counts


def _take_rows(cells: np.ndarray, counts: np.ndarray, picked: np.ndarray) -> tuple:
    """The rows ``picked`` (in that order, repeats allowed) of a flat cell
    column of (rows x k) ``counts``, in the same form."""
    sizes = counts.sum(axis=1)
    taken = sizes[picked]
    ends = np.cumsum(taken)
    # each taken row's cells move by its end in ``cells`` less its end here
    shift = np.repeat(np.cumsum(sizes)[picked] - ends, taken)
    return cells[np.arange(len(shift)) + shift], counts[picked]


def _flat_cells(rows, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat cell column and (rows x k) counts of ``rows``, each a list
    of k sorted cell lists; the inverse of :func:`_cell_lists`."""
    runs = list(chain.from_iterable(rows))
    counts = np.fromiter(map(len, runs), np.int64, len(runs)).reshape(len(rows), k)
    return np.fromiter(chain.from_iterable(runs), np.int64), counts


def _odd_cells(slots: np.ndarray, cells: np.ndarray, shape: tuple) -> tuple:
    """The pairs (``slots[i]``, ``cells[i]``) that occur once, where none
    occurs more than twice and slot ``row * k + relation`` names a row and
    relation of ``shape`` (rows x k), as the flat cell column and counts of
    :meth:`_Parser.batch`: per row and relation, the symmetric difference of
    the cells given twice over."""
    order = np.lexsort((cells, slots))
    slot, cell = slots[order], cells[order]
    twice = np.zeros(len(order) + 1, bool)  # twice[i]: pair i - 1 equals pair i
    twice[1:-1] = (slot[1:] == slot[:-1]) & (cell[1:] == cell[:-1])
    once = ~(twice[:-1] | twice[1:])
    return cell[once], np.bincount(slot[once], minlength=shape[0] * shape[1]).reshape(shape)


def _edit_windows(fields: list[str], lens: np.ndarray, lead: int, tail: int):
    """The edit windows of consecutive texts ``fields`` of one relation
    field (``j={...}``, ``lead`` characters before its first tuple and
    ``tail`` after its closing brace), of ``lens`` characters, of which the
    first is canonical.  Per text after
    the first, a window of the text before it and one of its own, such that
    each text is the other with its window replaced: the bytes of the old
    windows and then the new, each window ended by a "\n", where the new
    windows start in them, and the tuples in each window.  None if a text's
    lead or its closing brace and tail differ from the text before's.

    Each pair of texts is laid out side by side at its longer length,
    rounded up to words of eight characters, once left-aligned and once
    right-aligned, and compared a word at a time to find how far it agrees
    from the start and from the end.  A text equal to the one before has
    two empty windows.  Otherwise both windows start at the second-to-last
    "(" before the texts first differ and end before the second "(" after
    they last differ (at the body's start or end where there is no such
    "("), so each holds every changed tuple and one unchanged tuple on each
    side."""
    old_len, new_len = lens[:-1], lens[1:]
    short = np.minimum(old_len, new_len)
    wide = (np.maximum(old_len, new_len) + 7) // 8  # words per pair
    pair_end = np.cumsum(wide)
    pair = pair_end - wide  # each pair's first word
    olds, news, width = fields[:-1], fields[1:], (8 * wide).tolist()

    def agree(just, reduce, missing: int) -> tuple[np.ndarray, ...]:
        """The old and the new texts laid out by ``just``, and per pair the
        first (``reduce`` is ``np.minimum``) or last (``np.maximum``) word
        in which they differ, or ``missing``, and that word's differing
        characters."""
        old, new = (
            np.frombuffer("".join(map(just, texts, width)).encode(), np.uint64)
            for texts in (olds, news)
        )
        word = reduce.reduceat(np.where(old != new, np.arange(len(old)), missing), pair)
        pick = word.clip(0, len(old) - 1)
        return old, new, word, (old[pick] ^ new[pick]).view(np.uint8).reshape(-1, 8) != 0

    old, new, word, flags = agree(str.ljust, np.minimum, pair_end[-1])
    prefix = np.minimum(8 * (word - pair) + flags.argmax(1), short)
    word, flags = agree(str.rjust, np.maximum, -1)[2:]
    suffix = np.minimum(8 * (pair_end - 1 - word) + flags[:, ::-1].argmax(1), short - prefix)
    same = (prefix == new_len) & (old_len == new_len)
    if not np.all(same | ((prefix >= lead) & (suffix > tail))):
        return None

    text = np.concatenate((old, new)).view(np.uint8)  # left-aligned
    old_at, new_at = 8 * pair, 8 * (pair + pair_end[-1])  # where each text starts
    # the new texts' "(", and two places before them and two after
    opens = np.flatnonzero(new.view(np.uint8) == ord("(")) + 8 * pair_end[-1]
    opens = np.concatenate(([-1, -1], opens, [len(text)] * 2))
    start = opens[np.searchsorted(opens, new_at + prefix) - 2] - new_at
    stop = opens[np.searchsorted(opens, new_at + new_len - suffix) + 1] - new_at - 1  # at a ";"
    start = np.where(same, 0, np.maximum(start, lead))
    gap = np.where(same, new_len, np.maximum(new_len - stop, tail + 1))

    begin = np.concatenate((old_at, new_at)) + np.tile(start, 2)
    size = np.concatenate((old_len, new_len)) - np.tile(gap + start, 2) + 1  # with a "\n"
    end = np.cumsum(size)
    chars = text[np.arange(end[-1]) - np.repeat(end - size - begin, size)]
    chars[end - 1] = ord("\n")
    return chars, int(end[len(start) - 1]), np.add.reduceat(chars == ord("("), end - size)


# Characters of file text that a reader parses at a time (see _text_batches).
_READ_BATCH_CHARS = 2**16


def _text_batches(text):
    """``text``, a str or a file open for reading text, in pieces of about
    ``_READ_BATCH_CHARS`` characters, each ending at a "\\n" or at the end
    of ``text``, so a reader holds one piece's records at a time; a file
    is read a piece at a time."""
    if not isinstance(text, str):
        while piece := text.read(_READ_BATCH_CHARS):
            yield piece if piece.endswith("\n") else piece + text.readline()
        return
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _READ_BATCH_CHARS - 1)
        stop = len(text) if stop < 0 else stop + 1
        yield text[start:stop]
        start = stop


def _lines(piece: str) -> list[str]:
    """The non-empty lines of ``piece``, as ``str.splitlines`` splits them."""
    return list(filter(None, piece.splitlines()))


def _line_batches(text):
    """The non-empty lines of each of ``text``'s :func:`_text_batches`
    that has any."""
    return filter(None, map(_lines, _text_batches(text)))


def parse_cells(text: str) -> tuple[Signature, int, list[list[int]]]:
    """Inverse of :func:`serialize_cells`: the signature, size and sorted
    cell indices per relation; rejects any non-canonical text."""
    parser = _Parser.of(text)
    return parser.signature, parser.n, _cell_lists(*parser.batch([text]))[0]


def parse(text: str) -> Structure:
    """Inverse of :func:`serialize`; rejects any non-canonical text."""
    return _structure_from_cells(*parse_cells(text))
