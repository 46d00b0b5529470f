"""Shared test utilities: random structure generation and naive oracles.

The naive implementations here re-derive the defining formulas directly
(full-cell enumeration, no bitmask shortcuts) so library results can be
checked against an independent route.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import comblevy
from comblevy.structures import Permutation, Signature, Structure, _cells


def run_python(args, cwd) -> subprocess.CompletedProcess:
    """Run ``python *args`` in ``cwd`` on the tree the tests imported.

    The directory holding the imported package (``src/`` of a checkout, or
    site-packages) goes first on the child's ``PYTHONPATH``, ahead of any
    inherited entries, so a relative entry such as ``src`` cannot lose the
    package once the child runs in another working directory.
    """
    package_root = Path(comblevy.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package_root), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *[str(a) for a in args]],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def run_comblevy(args, cwd) -> subprocess.CompletedProcess:
    """Run ``python -m comblevy *args`` in ``cwd`` (see :func:`run_python`)."""
    return run_python(["-m", "comblevy", *args], cwd)


def random_structure(rng, signature: Signature, n: int, density: float = 0.5) -> Structure:
    relations = []
    for arity in signature.arities:
        cells = n**arity
        flips = np.nonzero(rng.random(cells) < density)[0]
        tuples = [decode_cell(int(i), n, arity) for i in flips]
        relations.append(tuples)
    return Structure.from_tuples(signature, n, relations)


def random_permutation(rng, n: int) -> Permutation:
    return Permutation(n, tuple(int(v) + 1 for v in rng.permutation(n)))


def decode_cell(idx: int, n: int, arity: int) -> tuple[int, ...]:
    entries = [0] * arity
    for pos in range(arity - 1, -1, -1):
        entries[pos] = idx % n + 1
        idx //= n
    return tuple(entries)


def all_cells(n: int, arity: int):
    return itertools.product(range(1, n + 1), repeat=arity)


def tuple_sets(m: Structure) -> list[set]:
    return [set(m.tuples(j)) for j in range(m.signature.k)]


def naive_relabel(m: Structure, sigma: Permutation) -> Structure:
    """Definition-level relabeling: a is present iff sigma(a) is present."""
    rels = tuple_sets(m)
    out = []
    for j, arity in enumerate(m.signature.arities):
        out.append(
            [
                t
                for t in all_cells(m.n, arity)
                if tuple(sigma(a) for a in t) in rels[j]
            ]
        )
    return Structure.from_tuples(m.signature, m.n, out)


def naive_restrict(m: Structure, size: int) -> Structure:
    rels = tuple_sets(m)
    out = []
    for j, arity in enumerate(m.signature.arities):
        out.append(
            [t for t in all_cells(size, arity) if t in rels[j]]
        )
    return Structure.from_tuples(m.signature, size, out)


def naive_increment(m1: Structure, m2: Structure) -> Structure:
    r1, r2 = tuple_sets(m1), tuple_sets(m2)
    out = []
    for j, arity in enumerate(m1.signature.arities):
        out.append(
            [t for t in all_cells(m1.n, arity) if (t in r1[j]) != (t in r2[j])]
        )
    return Structure.from_tuples(m1.signature, m1.n, out)


def naive_hom_density(a: Structure, m: Structure) -> float:
    """Full enumeration of injections with complete cell comparison."""
    level, n = a.n, m.n
    a_rels = tuple_sets(a)
    m_rels = tuple_sets(m)
    hits = 0
    total = 0
    for phi in itertools.permutations(range(1, n + 1), level):
        total += 1
        ok = True
        for j, arity in enumerate(a.signature.arities):
            for t in all_cells(level, arity):
                mapped = tuple(phi[x - 1] for x in t)
                if (t in a_rels[j]) != (mapped in m_rels[j]):
                    ok = False
                    break
            if not ok:
                break
        hits += ok
    return hits / total if total else 0.0


def gillespie_levy(restricted, horizon: float, rng) -> tuple[list[float], list[Structure]]:
    """Reference jump chain, one event at a time: exponential waiting times
    at the total restricted rate, then one ``restricted.sample(rng)``
    increment per jump.  Returns the jump times and increments.

    A test oracle for the batched chain in ``simulate_levy``: it shares the
    per-kind increment samplers but none of the batching (Poisson counts,
    sorted uniform times, label draws, time blocks).
    """
    times: list[float] = []
    increments: list[Structure] = []
    rate = restricted.total_rate
    t = 0.0
    while rate > 0.0:
        t += rng.exponential(1.0 / rate)
        if t > horizon:
            break
        times.append(t)
        increments.append(restricted.sample(rng))
    return times, increments


class _TokenCache(dict):
    """Cell index -> tuple text ``(a1,...,ar)`` over [n], built on first use."""

    __slots__ = ("n", "arity")

    def __init__(self, n: int, arity: int):
        self.n = n
        self.arity = arity

    def __missing__(self, c: int) -> str:
        token = self[c] = "(" + ",".join(map(str, decode_cell(c, self.n, self.arity))) + ")"
        return token


class RecordFormatter:
    """Reference structure text, one record at a time: each relation's
    sorted cells through a per-formatter cache of tuple texts.

    A test oracle for the writers' block formatter
    (``structures._Formatter``): it shares none of its label decode, label
    tables or run joins.
    """

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


def record_serialize(m: Structure) -> str:
    return RecordFormatter(m.signature, m.n)(_cells(m))


def record_events_to_jsonl(traj, seed=None) -> str:
    """The event stream of ``traj``, one record at a time."""
    header = {"signature": str(traj.signature), "n": traj.n, "T": traj.horizon, "seed": seed}
    if not traj._start.is_empty():
        header["init"] = record_serialize(traj._start)
    lines = [json.dumps(header, sort_keys=True)]
    text = RecordFormatter(traj.signature, traj.n)
    for t, cells in zip(traj._times[1:], traj._iter_jump_cells()):
        lines.append(json.dumps({"increment": text(cells), "t": t}, sort_keys=True))
    return "\n".join(lines) + "\n"


def record_trajectory_to_csv(traj) -> str:
    """The full-state CSV of ``traj``, one record at a time."""
    text = RecordFormatter(traj.signature, traj.n)
    lines = ["time,structure"]
    for t, s in traj.events:
        lines.append(f"{t!r},{text(_cells(s))}")
    return "\n".join(lines) + "\n"


def record_walk_to_csv(walk) -> str:
    """The walk CSV of ``walk``, one record at a time."""
    text = RecordFormatter(walk.steps[0].signature, walk.steps[0].n)
    lines = ["step,structure"]
    for i, m in enumerate(walk.steps):
        lines.append(f"{i},{text(_cells(m))}")
    return "\n".join(lines) + "\n"
