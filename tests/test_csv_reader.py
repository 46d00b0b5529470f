"""The full-state CSV reader, which parses the first row whole and reads
every later row as an edit of the row before it, against whole-row parsing
(``helpers.csv_jumps``) and the parser's own account of each defect."""

import itertools

import pytest

from comblevy import structures
from comblevy.levy import trajectory_from_csv
from comblevy.rng import make_rng
from comblevy.structures import Signature, _cell_decode, _cell_lists, _Parser, serialize_cells
from comblevy.walk import walk_from_csv

from helpers import csv_jumps

# signature, n and cells whose labels are prefixes of one another's
CASES = [
    (Signature((1,)), 120, [0, 9, 99]),  # (1), (10), (100)
    (Signature((2,)), 12, [0, 9, 12, 108]),  # (1,1), (1,10), (2,1), (10,1)
    (Signature((1, 2)), 11, [0, 9, 10]),
    (Signature((0, 3)), 4, [0, 1, 63]),
    (Signature((1,) * 10 + (2,)), 3, [0, 2]),  # fields R1 to R11
]


def _path(sig: Signature, n: int, prefixed: list, steps: int, seed: int, empty_steps: bool):
    """States from the empty structure, as sorted cells per relation.  Each
    step flips, in one relation, one cell, its first or last cell, the
    cells ``prefixed``, a dense random set or every set cell (emptying it),
    or one cell in every relation; with ``empty_steps``, some flip none."""
    rng = make_rng(seed)
    sizes = [n**a for a in sig.arities]
    state = [set() for _ in sig.arities]
    path = [[[] for _ in sig.arities]]
    kinds = ["one", "edge", "prefixed", "dense", "clear", "all"] + ["none"] * empty_steps
    while len(path) <= steps:
        j, kind = int(rng.integers(sig.k)), kinds[int(rng.integers(len(kinds)))]
        flips = [set() for _ in sig.arities]
        if kind == "one":
            flips[j] = {int(rng.integers(sizes[j]))}
        elif kind == "edge":
            flips[j] = {0 if rng.random() < 0.5 else sizes[j] - 1}
        elif kind == "prefixed":
            flips[j] = {c for c in prefixed if c < sizes[j]}
        elif kind == "dense":
            flips[j] = {c for c in range(sizes[j]) if rng.random() < 0.5}
        elif kind == "clear":
            flips[j] = set(state[j])
        elif kind == "all":
            flips = [{int(rng.integers(size))} for size in sizes]
        new = [cells ^ flip for cells, flip in zip(state, flips)]
        if new != state or kind == "none":
            state = new
            path.append([sorted(cells) for cells in state])
    return path


def _csv(sig: Signature, n: int, path: list, walk: bool) -> str:
    rows = (serialize_cells(sig, n, cells) for cells in path)
    if walk:
        return "step,structure\n" + "".join(f"{i},{row}\n" for i, row in enumerate(rows))
    return "time,structure\n" + "".join(f"{0.25 * i!r},{row}\n" for i, row in enumerate(rows))


@pytest.mark.parametrize("walk", [False, True], ids=["levy", "walk"])
@pytest.mark.parametrize("sig, n, prefixed", CASES, ids=[str(case[0]) for case in CASES])
def test_edits_match_whole_rows(sig, n, prefixed, walk, monkeypatch, tmp_path):
    read = walk_from_csv if walk else trajectory_from_csv
    file = tmp_path / "path.csv"
    for seed in range(3):
        text = _csv(sig, n, _path(sig, n, prefixed, 60, seed, empty_steps=walk), walk)
        jumps = csv_jumps(text)
        file.write_text(text)
        # batches of a row or two up to the whole file, so that most of
        # their ends fall mid-path
        for chars in (64, 700, 2**16):
            monkeypatch.setattr(structures, "_READ_BATCH_CHARS", chars)
            with open(file) as source:
                for traj in (read(text), read(source)):
                    assert list(traj.jump_increments()) == jumps
                    assert traj.horizon == (60 if walk else 15.0)


def _mutations(row: str, n: int):
    """Edits of the structure text ``row`` that each leave one defect, at
    the first, a middle and the last tuple of every relation, in the head
    and in the fields: (kind, mutated text)."""
    head, *fields = row.split("|R")
    for j, field in enumerate(fields):
        lead, body = field.split("{")
        tuples = body[:-1].split(";") if body != "}" else []

        def edit(t: int, u: int, *replacement: str) -> str:
            """``row`` with tuples ``t`` to ``u - 1`` of relation j replaced."""
            body = ";".join(tuples[:t] + list(replacement) + tuples[u:])
            return "|R".join([head, *fields[:j], f"{lead}{{{body}}}", *fields[j + 1:]])

        for t in sorted({0, len(tuples) // 2, len(tuples) - 1} & set(range(len(tuples)))):
            tup = tuples[t]
            if t + 1 < len(tuples):
                yield "swapped tuple", edit(t, t + 2, tuples[t + 1], tup)
            yield "duplicated tuple", edit(t, t + 1, tup, tup)
            yield "missing parenthesis", edit(t, t + 1, tup[:-1])
            if tup != "()":
                first = tup[1:].split(",")[0].rstrip(")")
                yield "label n+1", edit(t, t + 1, f"({n + 1}{tup[1 + len(first):]}")
                yield "leading zero", edit(t, t + 1, f"(0{tup[1:]}")
                yield "stray space", edit(t, t + 1, f"( {tup[1:]}")
                yield "non-ASCII digit", edit(t, t + 1, f"(\u0661{tup[2:]}")  # ARABIC-INDIC ONE
        for kind, braced in (("bracket for opening brace", f"{lead}[{body}"),
                             ("bracket for closing brace", f"{lead}{{{body[:-1]}]")):
            yield kind, "|R".join([head, *fields[:j], braced, *fields[j + 1:]])
    yield "changed signature", row.replace(")|n=", ",9)|n=", 1)
    yield "changed n", row.replace(f"|n={n}|", f"|n={n + 1}|")
    yield "missing field", "|R".join([head, *fields[:-1]])


@pytest.mark.parametrize("sig, n, prefixed", CASES, ids=[str(case[0]) for case in CASES])
def test_mutated_rows_are_rejected_as_parsed_whole(sig, n, prefixed, monkeypatch):
    # each mutation leaves one defect in one row, inside or outside the
    # window of that row's edit; the reader names it exactly as the
    # parser's piecewise check does, whether the batch holds the row before
    # it or starts at it
    lines = _csv(sig, n, _path(sig, n, prefixed, 12, 7, empty_steps=False), walk=False).splitlines()
    parser = _Parser(sig, n)
    kinds = set()
    for i in (1, 2, 6, len(lines) - 1):
        time, _, row = lines[i].partition(",")
        for kind, mutated in _mutations(row, n):
            if kind in ("changed signature", "changed n") and i == 1:
                continue  # the first row sets the parser's signature and n
            defect = parser._defect(mutated)
            assert defect is not None, (kind, mutated)
            text = "\n".join(lines[:i] + [f"{time},{mutated}"] + lines[i + 1:])
            for chars in (2**16, len(lines[i]) + 2):
                monkeypatch.setattr(structures, "_READ_BATCH_CHARS", chars)
                with pytest.raises(ValueError) as exc:
                    trajectory_from_csv(text)
                assert str(exc.value) == defect, (kind, mutated)
            kinds.add(kind)
    assert len(kinds) == 12


@pytest.mark.parametrize("first, second", [
    ("0_0", "1.0"), ("0.0", "1_0"), ("0.0", " 0.5"), ("0.0", "0.5 "), ("0.0", "+0.5"),
    ("0.0", ".5"), ("0.0", "1."), ("0.0", "inf"), ("0.0", "nan"), ("0.0", "-0.5"),
])
def test_rejects_non_canonical_time(first, second):
    text = f"time,structure\n{first},L=(1)|n=1|R1={{}}\n{second},L=(1)|n=1|R1={{(1)}}\n"
    with pytest.raises(ValueError, match="malformed time"):
        trajectory_from_csv(text)


def test_rejects_a_field_moved_to_the_next_row():
    # the third row ends with an extra part that reads as the fourth row's
    # head, which the fourth row lacks: cut into k + 2 parts a row, the
    # rows' parts would all look canonical
    lines = ["time,structure", "0.0,L=(1)|n=4|R1={}", "1.0,L=(1)|n=4|R1={(1)}",
             "2.0,L=(1)|n=4|R1={}|L=(1)", "3.0,n=4|R1={(1)}"]
    with pytest.raises(ValueError, match="expected 1 relation fields, got 2"):
        trajectory_from_csv("\n".join(lines))


def test_rejects_another_head_without_fields():
    # with no relation fields, a row is its head alone
    text = "step,structure\n0,L=()|n=3\n1,L=()|n=3\n2,L=()|n=4\n"
    with pytest.raises(ValueError, match="expected \\(\\) and n=3"):
        walk_from_csv(text)


# A size whose 3-ary cells reach 10^18 - 3 * 10^12: keyed as
# (row * k + relation) * n^3 + cell, as the reader once keyed them, a
# 13-row batch overflowed int64.
BIG_N = 999_999


def _big_rows(sig: Signature, rows: int, seed: int) -> list[list[set]]:
    """Random tuple sets per row and relation, with labels at both ends of
    1..BIG_N; each row after the first differs from the one before."""
    rng = make_rng(seed)
    labels = (1, 2, BIG_N - 1, BIG_N)
    pool = [list(itertools.product(labels, repeat=arity)) for arity in sig.arities]
    path = [[set() for _ in sig.arities]]
    while len(path) < rows:
        row = [{t for t in tuples if rng.random() < 0.3} for tuples in pool]
        if row != path[-1]:
            path.append(row)
    return path


def _row_text(sig: Signature, row: list[set]) -> str:
    fields = "".join(
        f"|R{j}={{" + ";".join("(" + ",".join(map(str, t)) + ")" for t in sorted(tuples)) + "}"
        for j, tuples in enumerate(row, start=1)
    )
    return f"L={sig}|n={BIG_N}{fields}"


def test_increments_at_the_largest_cell_range():
    sig = Signature((1, 3))
    path = _big_rows(sig, 40, 11)
    rows = [_row_text(sig, row) for row in path]
    expected = [[a ^ b for a, b in zip(prev, row)] for prev, row in itertools.pairwise(path)]
    jumps = [
        [{_cell_decode(c, BIG_N, arity) for c in cells} for cells, arity in zip(jump, sig.arities)]
        for jump in _cell_lists(*_Parser(sig, BIG_N)._edits(rows))
    ]
    assert jumps == expected


def test_reader_refuses_an_unallocatable_state_at_the_largest_cell_range():
    sig = Signature((3,))
    rows = [_row_text(sig, row) for row in _big_rows(sig, 13, 12)]
    text = "time,structure\n" + "".join(f"{t}.0,{row}\n" for t, row in enumerate(rows))
    with pytest.raises(ValueError, match=(
        "a state of signature \\(3\\) at n=999999 needs 124999625000375000 bytes "
        "of cell bits, more than can be allocated"
    )):
        trajectory_from_csv(text)
