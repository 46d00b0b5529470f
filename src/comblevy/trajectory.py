"""The path type: a start state plus a log of jump increments.

A ``LevyTrajectory`` keeps the path as the paper defines it, a start state
and the jumps of a Poisson point process of increments: the event times and
each jump's sorted cells per relation, in flat columns.  ``_extend`` grows
the log a block of jumps at a time, straight from the cell columns that the
samplers in :mod:`comblevy.levy` and :mod:`comblevy.walk` and the file
readers emit, and ``LevyTrajectory._block`` is its one reader: every
replay, writer and view slices its jumps out as that flat cell column and
its per-jump counts.  A state is the start XOR'd with the increments
before it, X_i = X_0 ^ D_1 ^ ... ^ D_i, an ordinary ``Structure`` whose
relations are ints only as long as their highest set cell.  A walk is the
same log at the times 1..T (see :class:`comblevy.walk.WalkTrajectory`).
Both full-state CSV formats are written and read here, by ``_to_csv`` and
``_from_csv``.  The writer
follows the log: where the jumps flip few of the state's cells, each row is
the previous row's text with the flipped cells' texts spliced in or cut
out, so a row costs Python work per flipped cell, not per cell of the
state; blocks of dense jumps are formatted whole from the states' cell
columns.  The reader follows the rows the other way round: it parses the
first row whole and reads every later one as an edit of the row before it,
so only the text a row changes is parsed.  The readers take the file
text or the open file, a piece at a time.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import accumulate, chain, islice

import numpy as np

from .structures import (
    Signature,
    Structure,
    _block_increment,
    _cell_lists,
    _cells,
    _formatter,
    _line_batches,
    _Parser,
    _relation_columns,
    _row_major,
    _structure_from_cells,
    increment,
)

__all__ = ["LevyTrajectory"]

# ``LevyTrajectory._jumps`` slices the log this many jumps at a time.
_JUMPS_BLOCK = 128
# A block of full-state CSV rows whose jumps flip at most this share of the
# cells its rows hold is written by editing each row's text (see
# ``LevyTrajectory._to_csv``).
_SPLICE_SHARE = 1 / 16


def _splice(run: str, cells: list, flips, texts) -> str:
    """The run of a relation's sorted ``cells`` (the join of their
    ``texts``) after XOR-ing in the sorted cells ``flips``; ``cells`` is
    updated in place.  Bisection finds each flip in ``cells`` or the cell
    it enters before, ``str.find`` finds that cell's text, and one join of
    the kept segments and the entering texts makes the new run.  A cell's
    text occurs once in a run: a match starts at the ";" that starts some
    cell's text and ends at the ")" that ends it, so it is that cell's."""
    segments, edits, pos, i = [], [], 0, 0
    for c in flips:
        i = bisect_left(cells, c, i)
        if i < len(cells) and cells[i] == c:  # c leaves
            cut = run.find(texts[c], pos)
            segments.append(run[pos:cut])
            pos = cut + len(texts[c])
            edits.append((i, None))
        else:  # c enters before cells[i]
            cut = run.find(texts[cells[i]], pos) if i < len(cells) else len(run)
            segments += run[pos:cut], texts[c]
            pos = cut
            edits.append((i, c))
    segments.append(run[pos:])
    for i, c in reversed(edits):  # from the back, so each i still holds
        if c is None:
            del cells[i]
        else:
            cells.insert(i, c)
    return "".join(segments)


class LevyTrajectory:
    """Right-continuous step path: state_at(t) is the state after the last
    event with time <= t.  Event times are strictly increasing, every jump
    changes the state (unless ``_empty_jumps``), and event 0 is the time-0
    start state.

    The path is stored as its start state plus a log of jump increments:
    the event times and each jump's sorted cell indices per relation, in
    flat columns, and the final state.  The log grows only by ``_extend``,
    a block of jumps at a time, which checks the block and appends it, and
    is read only by ``_block``, which copies a stretch of jumps out in the
    layout ``_extend`` takes.  State i is the start XOR'd with the first i
    increments by ``increment`` alone: ``_states`` XORs in the block of
    jumps up to each index as one increment, for ``_close``'s final state,
    an index, ``state_at`` and ``limit_path``'s grid.  No other state is
    kept, so memory is O(sum of increment sizes) plus the start and final
    states, each relation an int as long as its highest set cell.
    ``events`` rebuilds the events ``(t, Structure)``.
    """

    # Whether a jump may leave the state unchanged (a walk's empty step).
    _empty_jumps = False

    @classmethod
    def _started(cls, start: Structure) -> "LevyTrajectory":
        """An open log at ``start``: extend it with ``_extend``, end it with
        ``_close``."""
        traj = cls.__new__(cls)
        traj._begin(start)
        return traj

    def _begin(self, start: Structure) -> None:
        self.n = start.n
        self._start = start
        self._times = array("d", [0.0])
        # cells of jump i, relation j: _cells[_bounds[i*k + j] : _bounds[i*k + j + 1]]
        self._cells = array("q")
        self._bounds = array("q", [0])

    def _extend(self, times, cells, counts) -> None:
        """Log jumps at the increasing ``times``: jump i flips, in each
        relation j in turn, the next ``counts[i][j]`` sorted cells of the
        flat ``cells`` column."""
        times = np.asarray(times, np.float64)
        cells = np.asarray(cells, np.int64)
        counts = np.asarray(counts, np.int64).reshape(len(times), self.signature.k)
        before = np.concatenate(([self._times[-1]], times[:-1]))
        late = ~(times > before)  # NaN is never later
        if late.any():
            t, prev = times[late.argmax()], before[late.argmax()]
            raise ValueError(f"event times must be strictly increasing: t={t} after {prev}")
        if not self._empty_jumps:
            empty = ~counts.any(axis=1)
            if empty.any():
                t = times[empty.argmax()]
                raise ValueError(f"consecutive events must change the state: empty jump at t={t}")
        self._times.frombytes(times.tobytes())
        self._bounds.frombytes((len(self._cells) + np.cumsum(counts)).tobytes())
        self._cells.frombytes(cells.tobytes())

    def _close(self, horizon: float) -> None:
        if not math.isfinite(horizon):
            raise ValueError(f"horizon must be finite, got {horizon}")
        if self._times[-1] > horizon:
            raise ValueError(f"event beyond the horizon: t={self._times[-1]} > T={horizon}")
        self.horizon = horizon
        self._final, = self._states([len(self._times) - 1])

    def _block(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Jumps ``lo`` to ``hi - 1`` as a flat cell column and their (jumps
        x k) counts, the layout ``_extend`` takes; sliced copies, so they pin
        none of the log's buffers.  The log's one reader."""
        k = self.signature.k
        bounds = np.frombuffer(self._bounds[lo * k: hi * k + 1], np.int64)
        cells = np.frombuffer(self._cells[bounds[0]: bounds[-1]], np.int64)
        return cells, np.diff(bounds).reshape(hi - lo, k)

    def _jumps(self, lo: int = 0, hi: int | None = None):
        """Sorted cells per relation, as lists, of jumps ``lo`` to ``hi - 1``
        (to the last jump if ``hi`` is None), in order, sliced from the log
        ``_JUMPS_BLOCK`` jumps at a time."""
        hi = len(self._times) - 1 if hi is None else hi
        for start in range(lo, hi, _JUMPS_BLOCK):
            yield from _cell_lists(*self._block(start, min(start + _JUMPS_BLOCK, hi)))

    @property
    def signature(self) -> Signature:
        return self._start.signature

    @property
    def events(self) -> "_Events":
        """The ``(time, state)`` events, a lazy read-only sequence."""
        return _Events(self)

    def _states(self, indices):
        """The state after each event of the ascending ``indices``: the
        start XOR'd, index by index, with the increment of the jumps since
        the index before (``_block_increment``), so one pass over the log
        gives them all."""
        state, done = self._start, 0
        for i in indices:
            jumps = _block_increment(self.signature, self.n, *self._block(done, i))
            state, done = increment(state, jumps), i
            yield state

    def _state(self, i: int) -> Structure:
        """State after event ``i``, the log replayed up to it."""
        return self._final if i == len(self._times) - 1 else next(self._states([i]))

    def state_at(self, t: float) -> Structure:
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        return self._state(bisect_right(self._times, t) - 1)

    def jump_increments(self) -> "_Increments":
        """The jump increments in order, a lazy read-only sequence of
        Structures built from the log on demand."""
        return _Increments(self)

    def _log(self) -> tuple:
        return self.n, self.horizon, self._start, self._times, self._bounds, self._cells

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._log() == other._log()

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, horizon={self.horizon}, "
            f"signature={self.signature}, {len(self._times) - 1} jumps)"
        )

    def _to_csv(self, key: str, form: str) -> str:
        """Full-state CSV: the header ``key,structure``, then per event its
        time as ``form`` formats it and its state's text.

        After the start state's row, rows go a block of jumps at a time, a
        block's states holding ``_Formatter.block`` bytes of cell bits.  A
        block whose jumps flip at most ``_SPLICE_SHARE`` of the cells its
        rows hold, counted at the state before it, is spliced: each
        relation's text and sorted cell list are kept, and each row edits
        the previous row's text at the cells its jump flips (``_splice``).
        A denser block is formatted whole, from its states' cell columns
        (``_state_columns``) through ``_Formatter.records``, the time
        texts made by one ``form`` map per block.  The spliced cells' texts
        are ``_Formatter._texts``', formatted a block at a time."""
        text = _formatter(self.signature, self.n)
        line = f"{form},{text.form}\n"
        arities, jumps = self.signature.arities, len(self._times) - 1
        state_bytes = sum((self.n**a + 7) // 8 for a in arities)  # 0 for signature ()
        size = max(1, text.block // max(1, state_bytes))
        texts = [{} for _ in arities]  # per relation: cell -> its ";"-led text

        def learn(per_rel) -> None:
            """Add the texts of the cells ``per_rel[j]`` of each relation j
            that ``texts`` lacks."""
            for known, arity, rel_cells in zip(texts, arities, per_rel):
                new = list(set(rel_cells).difference(known))
                if new:
                    # as no cell is first, each text leads with a ";"
                    first = np.zeros(len(new), bool)
                    pieces = text._texts(np.array(new, np.int64), first, arity)
                    known.update(zip(new, map("".join, zip(*pieces))))

        cells = _cells(self._start)
        learn(cells)
        runs = ["".join(map(t.__getitem__, c)) for t, c in zip(texts, cells)]
        chunks = [f"{key},structure\n", line % (self._times[0], *[run[1:] for run in runs])]
        for lo in range(0, jumps, size):
            hi = min(lo + size, jumps)
            times = self._times[lo + 1: hi + 1]
            block, counts = self._block(lo, hi)
            if len(block) <= _SPLICE_SHARE * (hi - lo) * sum(map(len, cells)):
                if runs is None:
                    learn(cells)
                    runs = ["".join(map(t.__getitem__, c)) for t, c in zip(texts, cells)]
                jump_cells = _cell_lists(block, counts)
                learn(map(chain.from_iterable, zip(*jump_cells)))
                for t, flipped in zip(times, jump_cells):
                    runs = [
                        _splice(run, c, f, t) if f else run
                        for run, c, f, t in zip(runs, cells, flipped, texts)
                    ]
                    chunks.append(line % (t, *[run[1:] for run in runs]))
            else:
                block, counts = self._state_columns(cells, block, counts)
                stamps = list(map(form.__mod__, times))
                chunks.append(text.records(block, counts, f"%s,{text.form}\n", stamps))
                cells = _cell_lists(block[len(block) - counts[-1].sum():], counts[-1:])[0]
                runs = None
        return "".join(chunks)

    def _state_columns(self, state: list, cells: np.ndarray, counts: np.ndarray) -> tuple:
        """The states after a block of jumps (a flat cell column ``cells``
        of (jumps x k) ``counts``) in the same form, given ``state``, the
        sorted cells per relation of the state before them.  Per relation,
        each jump's cells are set in its row of a (jumps x cells) matrix,
        the state's in the first row too, and one XOR scan down the rows
        makes the states."""
        rows = np.arange(len(counts))
        columns = []
        for (rel_cells, per_row), before, arity in zip(
            _relation_columns(cells, counts), state, self.signature.arities
        ):
            flags = np.zeros((len(counts), self.n**arity), bool)
            flags[np.repeat(rows, per_row), rel_cells] = True
            flags[0, before] ^= True
            np.logical_xor.accumulate(flags, axis=0, out=flags)
            at, rel_cells = flags.nonzero()
            columns.append((rel_cells, np.bincount(at, minlength=len(counts))))
        return _row_major(columns, len(counts))

    @classmethod
    def _from_csv(cls, text, key: str, times, horizon: float | None = None):
        """Read a full-state CSV, a str or an open text file, with the
        header ``key,structure``; the
        event times of the key fields of rows ``first``, ``first + 1``, ...
        are ``times(keys, first)``.  The horizon is the last event time
        unless ``horizon`` is given.  Rows are read a batch at a time with
        one parser, bound to the first row's signature and n.  The first
        row is parsed whole; every later row is read as an edit of the row
        before it, and its jump logged as the symmetric difference of the
        two rows' changed text (see ``structures._Parser._edits``); rows
        whose edits fail a check are checked whole to raise their defect."""
        batches = _line_batches(text)
        header, *rest = next(batches, [""])
        if header != f"{key},structure":
            raise ValueError(f"full-state CSV must start with header '{key},structure'")
        traj = None
        for lines in filter(None, chain([rest], batches)):
            keys, _, texts = zip(*[line.partition(",") for line in lines])
            if traj is None:
                event_times = times(keys, 0)
                if event_times[0] != 0.0:
                    raise ValueError(f"first event must be at time 0, got {event_times[0]}")
                parser = _Parser.of(texts[0])
                start = _cell_lists(*parser.batch(texts[:1]))[0]
                traj = cls._started(_structure_from_cells(parser.signature, parser.n, start))
                rows, event_times = texts, event_times[1:]
            else:
                event_times = times(keys, len(traj._times))
                rows = (last, *texts)
            jumps = parser._edits(rows)
            if jumps is None:
                parser._reject(rows)
            traj._extend(event_times, *jumps)
            last = texts[-1]
        if traj is None:
            raise ValueError("full-state CSV has no rows")
        traj._close(traj._times[-1] if horizon is None else horizon)
        return traj


class _LogView(Sequence):
    """A read-only sequence computed from a trajectory's log on demand;
    equal to any tuple, list or view with equal items."""

    __slots__ = ("_traj",)

    def __init__(self, traj: LevyTrajectory):
        self._traj = traj

    def __getitem__(self, key):
        picked = range(len(self))[key]
        if not isinstance(key, slice):
            return self._item(picked)
        if picked.step > 0:
            return tuple(islice(self, picked.start, picked.stop, picked.step))
        return tuple(self._item(i) for i in picked)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, list, _LogView)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{type(self).__name__[1:]} of {self._traj!r}>"


class _States(_LogView):
    """The state after each event.  Iteration XORs the increments into
    the start one at a time; an index XORs in the block of jumps before
    its event; ``[-1]`` is the kept final state."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._traj._times)

    def _item(self, i: int) -> Structure:
        return self._traj._state(i)

    def __iter__(self):
        return accumulate(_Increments(self._traj), increment, initial=self._traj._start)


class _Events(_States):
    """``(time, state)`` per event, the states as in :class:`_States`."""

    __slots__ = ()

    def _item(self, i: int) -> tuple[float, Structure]:
        return self._traj._times[i], self._traj._state(i)

    def __iter__(self):
        return zip(self._traj._times, _States(self._traj))


class _Increments(_LogView):
    """The jump increments as Structures, each built from its cells."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._traj._times) - 1

    def blocks(self, size: int):
        """The increments ``size`` jumps at a time, sliced from the log: per
        block, the jump times, the flat column of the jumps' sorted cells
        and their (jumps x k) counts (see ``LevyTrajectory._block``)."""
        traj = self._traj
        for lo in range(0, len(self), size):
            hi = min(lo + size, len(self))
            yield (traj._times[lo + 1: hi + 1].tolist(), *traj._block(lo, hi))

    def _item(self, i: int) -> Structure:
        traj = self._traj
        cells, = traj._jumps(i, i + 1)
        return _structure_from_cells(traj.signature, traj.n, cells)

    def __iter__(self):
        traj = self._traj
        for cells in traj._jumps():
            yield _structure_from_cells(traj.signature, traj.n, cells)
