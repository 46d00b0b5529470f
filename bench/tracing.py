"""Traced in-process replay of a workload, and the per-module layer probes.

The replay runs each pipeline step through ``comblevy.cli.main`` in this
process, with every layer function the CLI calls wrapped in a span, so it
calls exactly the public functions the CLI commands call.  A few inner
boundaries are wrapped as well, where a per-layer metric needs child spans
(chi-square excluding its orbits and measures calls, one span per density
vector).  Spans are kept in memory and written when the run ends.

Per-layer metrics come from the replay's spans.  Where a workload's own
pipeline does not reach a layer, the same metric is taken from the small
probe pipeline (``workloads.PROBE``) or a probe call on the workload's own
trajectory, and the result records which source each metric came from.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import comblevy
import comblevy.cli
import comblevy.inference
import comblevy.limits
import comblevy.measures
import comblevy.orbits
from comblevy import (
    ExplicitFinite,
    LevyIntensity,
    LevyTrajectory,
    LoopComponent,
    MixtureAtom,
    PairComponent,
    Permutation,
    SetSingletonComponent,
    Signature,
    VertexComponent,
    increment,
    intensity_from_json,
    limit_path,
    make_rng,
    measure_from_json,
    parse,
    relabel,
    restrict,
    serialize,
)
from comblevy.levy import RestrictedIntensity, events_from_jsonl
from comblevy.limits import falling_factorial

LAYERS = ("structures", "levy", "limits", "orbits", "measures", "inference", "walk")


class Tracer:
    """Spans with name, start, end, parent and workload id, plus counts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.phase = "pipeline"
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "workload": self.workload,
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span["counts"].update(count(args, result))
            return result

        return traced


def _events(args, traj):
    return {"events": len(traj.events) - 1}


def _report(args, report):
    return {
        "cells": report.cells_used + report.pooled_cells,
        "pooled_cells": report.pooled_cells,
        "df": report.df,
        "p_value": report.p_value,
    }


_COUNTERS = {
    "levy.simulate_levy": _events,
    "levy.trajectory_from_csv": _events,
    "levy.events_from_jsonl": _events,
    "levy.trajectory_to_csv": lambda args, text: {"bytes": len(text)},
    "levy.events_to_jsonl": lambda args, text: {"bytes": len(text)},
    "walk.simulate_walk": lambda args, traj: {"steps": traj.T},
    "limits.density_vector": lambda args, vec: {
        "injections": falling_factorial(args[0].n, args[1])
    },
    "orbits.enumerate_orbits": lambda args, table: {
        "structures": sum(size for _, size in table.entries)
    },
    "measures.symmetrize": lambda args, mu: {"support": len(mu.weights)},
    "inference.chi_square_exchangeability": _report,
}

# Inner boundaries wrapped besides the CLI's own calls.
_INNER = (
    (comblevy.inference, "orbit_of"),
    (comblevy.inference, "symmetrize"),
    (comblevy.measures, "orbit_members"),
    (comblevy.limits, "density_vector"),
)


def _layer(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    head, _, layer = module.rpartition(".")
    return layer if head == "comblevy" and layer in LAYERS else None


@contextmanager
def traced_library(tracer: Tracer):
    """Wrap the layer functions the CLI and the inner boundaries call."""
    targets = [
        (comblevy.cli, name)
        for name, obj in vars(comblevy.cli).items()
        if inspect.isfunction(obj) and _layer(obj)
    ]
    targets += [(owner, name) for owner, name in _INNER if hasattr(owner, name)]
    saved = []
    try:
        for owner, name in targets:
            fn = getattr(owner, name)
            saved.append((owner, name, fn))
            setattr(owner, name, tracer.wrap(f"{_layer(fn)}.{name}", fn))
        method = LevyTrajectory.jump_increments
        saved.append((LevyTrajectory, "jump_increments", method))
        LevyTrajectory.jump_increments = tracer.wrap("levy.jump_increments", method)
        yield
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


def _fresh_process_caches() -> None:
    """Empty the package's function caches, as a new CLI process starts with
    them empty."""
    for module in (comblevy.orbits, comblevy.limits, comblevy.measures):
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _run_steps(steps, read, span) -> list[int]:
    codes = []
    for step in steps:
        _fresh_process_caches()
        if step.name == "read-back":
            with span("bench.read-back"):
                read(Path(step.argv[0]).read_text())
            codes.append(0)
            continue
        with span("cli." + step.name):
            codes.append(comblevy.cli.main(step.argv))
    return codes


def replay(tracer: Tracer, steps) -> list[int]:
    """Run each step in this process under the tracer; return exit codes."""
    with traced_library(tracer):
        read = tracer.wrap("levy.events_from_jsonl", events_from_jsonl)
        return _run_steps(steps, read, tracer.span)


@contextmanager
def _no_span(name: str):
    yield


def replay_untraced(steps) -> list[int]:
    """The same in-process replay with no tracer: the baseline of
    trace.overhead_s."""
    return _run_steps(steps, events_from_jsonl, _no_span)


# --- metrics from spans ---------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its (nested, sequential) children cover."""
    own = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= _duration(s)
    return own


def self_time_shares(spans: list[dict]) -> dict[str, float]:
    """Share of the replay's wall time spent in each layer's own code."""
    pipeline = [s for s in spans if s["phase"] == "pipeline"]
    own = self_times(pipeline)
    total = sum(_duration(s) for s in pipeline if s["parent"] is None)
    shares: dict[str, float] = {}
    for s in pipeline:
        layer = s["name"].split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + own[s["id"]] / total
    return dict(sorted(shares.items()))


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one set of spans; a layer with no spans is absent."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(*names):
        return sum(_duration(s) for n in names for s in by_name.get(n, []))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name.get(name, []))

    m: dict[str, float] = {}
    if "levy.simulate_levy" in by_name:
        m["levy.simulate_s"] = total("levy.simulate_levy")
        m["levy.events"] = count("levy.simulate_levy", "events")
        m["levy.events_per_s"] = m["levy.events"] / m["levy.simulate_s"]
    writers = ("levy.trajectory_to_csv", "levy.events_to_jsonl")
    if any(n in by_name for n in writers):
        m["levy.write_s"] = total(*writers)
        m["levy.write_bytes"] = sum(count(n, "bytes") for n in writers)
    readers = ("levy.trajectory_from_csv", "levy.events_from_jsonl")
    if any(n in by_name for n in readers):
        m["levy.read_s"] = total(*readers)
    if "levy.jump_increments" in by_name:
        m["levy.jump_increments_s"] = total("levy.jump_increments")
    if "limits.limit_path" in by_name:
        m["limits.limit_path_s"] = total("limits.limit_path")
        m["limits.injections"] = count("limits.density_vector", "injections")
        m["limits.us_per_injection"] = (
            1e6 * total("limits.density_vector") / m["limits.injections"]
        )
    if "orbits.orbit_of" in by_name:
        m["orbits.orbit_of_calls"] = len(by_name["orbits.orbit_of"])
        m["orbits.orbit_of_us"] = 1e6 * total("orbits.orbit_of") / m["orbits.orbit_of_calls"]
    if "orbits.enumerate_orbits" in by_name:
        m["orbits.enumerate_s"] = total("orbits.enumerate_orbits")
        m["orbits.structures_enumerated"] = count("orbits.enumerate_orbits", "structures")
    if "measures.symmetrize" in by_name:
        m["measures.symmetrize_s"] = total("measures.symmetrize")
        m["measures.support_size"] = count("measures.symmetrize", "support")
    tests = by_name.get("inference.chi_square_exchangeability", [])
    if tests:
        own = self_times(spans)
        m["inference.chi_square_self_s"] = sum(own[s["id"]] for s in tests)
        # counts of the first test: the Lévy trajectory's where there is one
        for key in ("cells", "pooled_cells", "df", "p_value"):
            m["inference." + key] = tests[0]["counts"][key]
    if "walk.simulate_walk" in by_name:
        m["walk.simulate_s"] = total("walk.simulate_walk")
        m["walk.steps_per_s"] = count("walk.simulate_walk", "steps") / m["walk.simulate_s"]
    if "walk.walk_to_csv" in by_name:
        m["walk.to_csv_s"] = total("walk.walk_to_csv")
    if "walk.walk_from_csv" in by_name:
        m["walk.from_csv_s"] = total("walk.walk_from_csv")
    return m


def process_metrics(steps, spans: list[dict] | None) -> dict[str, float]:
    """cli.process_s per command and, given the replay's spans, cli.overhead_s."""
    m: dict[str, float] = {}
    for step in steps:
        if step.name != "read-back":
            key = "cli.process_s." + step.name
            m[key] = m.get(key, 0.0) + step.wall_s
    if spans is not None:
        tops = [s for s in spans if s["parent"] is None and s["phase"] == "pipeline"]
        m["cli.overhead_s"] = sum(step.wall_s for step in steps) - sum(
            _duration(s) for s in tops
        )
    return m


# --- probes ---------------------------------------------------------------------


def _per_call_us(fn, items, min_seconds: float = 0.05) -> float:
    """Mean time per call of ``fn`` over the fixed ``items``, the whole list
    repeated until at least ``min_seconds`` have passed."""
    calls = 0
    start = time.perf_counter()
    while True:
        for item in items:
            fn(item)
        calls += len(items)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return 1e6 * elapsed / calls


def limits_probe(tracer: Tracer, traj: LevyTrajectory) -> None:
    """Level-1 limit path of the workload's own trajectory on a 5-point grid."""
    grid = [traj.horizon * k / 5 for k in range(1, 5)] + [traj.horizon]
    with traced_library(tracer):
        tracer.wrap("limits.limit_path", limit_path)(traj, 1, grid)


def structure_probes(traj: LevyTrajectory, sample: int = 16) -> dict[str, float]:
    """Per-call costs of the structure algebra on evenly spaced states of the
    workload's own trajectory (few, because a dense state at n=300 takes
    about 0.2 s to serialize)."""
    states = [s for _, s in traj.events]
    idx = sorted({1 + k * (len(states) - 2) // (sample - 1) for k in range(sample)})
    pairs = [(states[i], states[i - 1]) for i in idx]
    picked = [states[i] for i in idx]
    texts = [serialize(s) for s in picked]
    small = [restrict(s, 4) for s in picked]
    sigma = Permutation(4, (2, 3, 4, 1))
    return {
        "structures.increment_us": _per_call_us(lambda p: increment(*p), pairs),
        "structures.serialize_us": _per_call_us(serialize, picked),
        "structures.parse_us": _per_call_us(parse, texts),
        "structures.restrict_us": _per_call_us(lambda s: restrict(s, 3), small),
        "structures.relabel_us": _per_call_us(lambda s: relabel(s, sigma), small),
        # computed, not measured: payload bytes of every kept state
        "structures.state_bytes": sum(
            sys.getsizeof(rel) for s in states for rel in s.relations
        ),
    }


def _sampler_intensities(signature: Signature, n: int, components: list, measure):
    """One single-component intensity per component kind.

    A kind uses the workload's signature and its own parameters where the
    workload has that kind; set_singleton needs (1), pair/vertex/loop need (2)
    or (1,2), and the explicit kind uses the walk measure over graphs on [4].
    """
    graph = signature if signature.arities in ((2,), (1, 2)) else Signature((2,))
    own = {type(c): c for c in components}
    cells = [n**a for a in signature.arities]
    return {
        "pair": LevyIntensity(graph, (own.get(PairComponent, PairComponent(1.0)),)),
        "vertex": LevyIntensity(
            graph, (own.get(VertexComponent, VertexComponent(1.0, rho=0.02)),)
        ),
        "loop": LevyIntensity(graph, (own.get(LoopComponent, LoopComponent(1.0)),)),
        "mixture": LevyIntensity(
            signature,
            (own.get(MixtureAtom, MixtureAtom(1.0, tuple(min(0.2, 2.0 / c) for c in cells))),),
        ),
        "set_singleton": LevyIntensity(Signature((1,)), (SetSingletonComponent(1.0),)),
        "explicit": LevyIntensity(Signature((2,)), (ExplicitFinite(measure),)),
    }


def levy_probes(intensity_text: str, n: int, measure_text: str, seed: int,
                draws: int = 2000) -> dict[str, float]:
    intensity = intensity_from_json(intensity_text)
    measure = measure_from_json(measure_text)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        RestrictedIntensity(intensity, n)
        times.append(time.perf_counter() - start)
    m = {"levy.restrict_s": statistics.median(times)}
    kinds = _sampler_intensities(intensity.signature, n, intensity.components, measure)
    for kind, single in kinds.items():
        sampler = RestrictedIntensity(single, n)
        rng = make_rng(seed, stream=1)
        m["levy.sample_us." + kind] = _per_call_us(
            lambda _: sampler.sample(rng), range(draws)
        )
    rng = make_rng(seed, stream=2)
    m["measures.sample_us"] = _per_call_us(lambda _: measure.sample(rng), range(20 * draws))
    return m


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = {k for row in rows for k in row}
    return {k: statistics.median(row[k] for row in rows if k in row) for k in sorted(keys)}
