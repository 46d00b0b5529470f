"""The Lévy path type: a start state plus a log of jump increments.

A ``LevyTrajectory`` keeps the path as the paper defines it, a start state
and the jumps of a Poisson point process of increments: the event times and
each jump's sorted cells per relation, in flat columns.  ``_extend`` grows
the log a block of jumps at a time; the samplers and readers in
:mod:`comblevy.levy` feed it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from itertools import islice

import numpy as np

from .structures import (
    Signature,
    Structure,
    _CellBits,
    _cells,
    _flat_cells,
    _structure_from_cells,
    increment,
)

__all__ = ["LevyTrajectory"]

# A trajectory keeps a full state every this many events.
_SNAPSHOT_EVERY = 128


class LevyTrajectory:
    """Right-continuous step path: state_at(t) is the state after the last
    event with time <= t.  Event times are strictly increasing, every jump
    changes the state, and event 0 is the time-0 start state.

    The path is stored as its start state plus a log of jump increments:
    the event times and each jump's sorted cell indices per relation, in
    flat columns, with a full state kept only every ``_SNAPSHOT_EVERY``
    events and at the end.  Memory is O(sum of increment sizes + states /
    _SNAPSHOT_EVERY), and ``state_at`` replays at most ``_SNAPSHOT_EVERY - 1``
    increments onto a snapshot.  The log grows only by ``_extend``, a block
    of jumps at a time.

    ``LevyTrajectory(n, horizon, events)`` builds the log from full-state
    events ``(t, Structure)``; ``events`` rebuilds them on demand.
    """

    def __init__(self, n: int, horizon: float, events) -> None:
        events = iter(events)
        try:
            t0, start = next(events)
        except StopIteration:
            raise ValueError("trajectory needs at least the initial event") from None
        if t0 != 0.0:
            raise ValueError(f"first event must be at time 0, got {t0}")
        if start.n != n:
            raise ValueError(f"state size {start.n} != trajectory resolution {n}")
        self._begin(start)

        def jumps(prev=start):
            for t, state in events:
                yield t, _cells(increment(state, prev))
                prev = state

        self._extend_rows(jumps())
        self._close(horizon)

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
        self._snapshots = [start]  # state after event i * _SNAPSHOT_EVERY
        self._running = _CellBits(start)

    def _extend(self, times, cells, counts) -> None:
        """Log jumps at the increasing ``times``: jump i flips, in each
        relation j in turn, the next ``counts[i][j]`` sorted cells of the
        flat ``cells`` column.  The running state is advanced one stretch
        of jumps between snapshots at a time."""
        times = np.asarray(times, np.float64)
        cells = np.asarray(cells, np.int64)
        counts = np.asarray(counts, np.int64).reshape(len(times), self.signature.k)
        before = np.concatenate(([self._times[-1]], times[:-1]))
        late = np.flatnonzero(~(times > before))  # NaN is never later
        if late.size:
            t, prev = times[late[0]], before[late[0]]
            raise ValueError(f"event times must be strictly increasing: t={t} after {prev}")
        sizes = counts.sum(axis=1)
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            raise ValueError(
                f"consecutive events must change the state: empty jump at t={times[empty[0]]}"
            )
        first = len(self._times)  # event index of jump 0
        self._times.frombytes(times.tobytes())
        self._bounds.frombytes((len(self._cells) + np.cumsum(counts)).tobytes())
        self._cells.frombytes(cells.tobytes())
        starts = np.concatenate(([0], np.cumsum(sizes)))  # jump i's first cell
        done = 0
        for i in range(-first % _SNAPSHOT_EVERY, len(times), _SNAPSHOT_EVERY):
            self._running.flip_runs(cells[starts[done]:starts[i + 1]], counts[done:i + 1])
            self._snapshots.append(self._running.freeze())
            done = i + 1
        self._running.flip_runs(cells[starts[done]:], counts[done:])

    def _extend_rows(self, jumps) -> None:
        """Log the jumps ``(t, sorted cells per relation)``, a block of
        ``_SNAPSHOT_EVERY`` at a time."""
        jumps = iter(jumps)
        while block := list(islice(jumps, _SNAPSHOT_EVERY)):
            times, rows = zip(*block)
            self._extend(times, *_flat_cells(rows, self.signature.k))

    def _close(self, horizon: float) -> None:
        if not math.isfinite(horizon):
            raise ValueError(f"horizon must be finite, got {horizon}")
        if self._times[-1] > horizon:
            raise ValueError("event beyond the horizon")
        self.horizon = horizon
        self._final = self._running.freeze()
        del self._running

    @property
    def signature(self) -> Signature:
        return self._start.signature

    @property
    def events(self) -> "_Events":
        """The ``(time, state)`` events, a lazy read-only sequence."""
        return _Events(self)

    def _jump_cells(self, i: int) -> list:
        """Sorted cells of jump ``i`` (event ``i + 1``), per relation."""
        k = self.signature.k
        b = self._bounds
        return [self._cells[b[i * k + j]: b[i * k + j + 1]] for j in range(k)]

    def _iter_jump_cells(self):
        """Sorted cells per relation of every jump, in order."""
        b = self._bounds
        per_rel = (self._cells[lo:hi] for lo, hi in zip(b, islice(b, 1, None)))
        return zip(*[per_rel] * self.signature.k)

    def _state(self, i: int) -> Structure:
        """State after event ``i``: the nearest snapshot at or before it plus
        the jumps in between."""
        if i == len(self._times) - 1:
            return self._final
        snap, extra = divmod(i, _SNAPSHOT_EVERY)
        if extra == 0:
            return self._snapshots[snap]
        bits = _CellBits(self._snapshots[snap])
        for jump in range(i - extra, i):
            bits.flip(self._jump_cells(jump))
        return bits.freeze()

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
        if not isinstance(other, LevyTrajectory):
            return NotImplemented
        return self._log() == other._log()

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"LevyTrajectory(n={self.n}, horizon={self.horizon}, "
            f"signature={self.signature}, {len(self._times) - 1} jumps)"
        )


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


class _Events(_LogView):
    """``(time, state)`` per event.  Iteration streams the states by a
    running XOR; an index rebuilds one state from the nearest snapshot;
    ``[-1]`` is the kept final state."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._traj._times)

    def _item(self, i: int) -> tuple[float, Structure]:
        return self._traj._times[i], self._traj._state(i)

    def __iter__(self):
        traj = self._traj
        yield traj._times[0], traj._start
        bits = _CellBits(traj._start)
        for t, cells in zip(islice(traj._times, 1, None), traj._iter_jump_cells()):
            yield t, bits.flip(cells).freeze()


class _Increments(_LogView):
    """The jump increments as Structures, each built from its cells."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._traj._times) - 1

    def cells(self):
        """Sorted cell indices per relation of each increment, in order."""
        return self._traj._iter_jump_cells()

    def _item(self, i: int) -> Structure:
        traj = self._traj
        return _structure_from_cells(traj.signature, traj.n, traj._jump_cells(i))
