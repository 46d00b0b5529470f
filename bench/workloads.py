"""The four benchmark workloads: their inputs, CLI pipelines and output checks.

Every workload is one pipeline of ``python -m comblevy`` commands (plus, for
the event-stream workloads, a read-back of the stream through the library's
reader).  Inputs are generated from the run seed; the program only ever sees
the generated files and the ``--seed`` values passed on its command line.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from comblevy import (
    FiniteMeasure,
    Signature,
    Structure,
    intensity_from_json,
    marginal_flip_probability,
    measure_from_json,
    measure_to_json,
    parse,
    set_frequency,
    symmetrize,
    trajectory_from_csv,
    walk_from_csv,
)
from comblevy.inference import jump_increment_sequence
from comblevy.levy import RestrictedIntensity, events_from_jsonl
from comblevy.orbits import space_size

GRAPH_COMPONENTS = [
    {"type": "pair", "rate": 0.2},
    {"type": "vertex", "rate": 1.0, "rho": 0.02},
    {"type": "loop", "rate": 1.0},
]

# Exchangeable by construction: every component is invariant under relabeling.
COMMUNITY_COMPONENTS = [
    {"type": "mixture_atom", "weight": 0.5, "probs": [0.2, 0.1]},
    {"type": "vertex", "rate": 1.0, "rho": 0.3, "member_prob": 0.5},
    {"type": "pair", "rate": 1.0},
    {"type": "loop", "rate": 1.0, "pattern": [0.3, 0.4, 0.3]},
]


@dataclass(frozen=True)
class Levy:
    """The simulate-levy step of a workload."""

    signature: str
    components: list
    n: int
    horizon: float
    fmt: str
    limit_level: int | None = None
    grid: tuple[float, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    levy: Levy | None
    # Steps after simulate-levy, in order: (command, trajectory it reads),
    # the trajectory being "levy" (the simulate-levy output), "walk" (the
    # simulate-walk output) or None.
    downstream: tuple[tuple[str, str | None], ...]
    walk_steps: int = 0
    orbits_n: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "graph-stream",
            Levy("(2)", GRAPH_COMPONENTS, n=300, horizon=3.0, fmt="jsonl"),
            downstream=(("read-back", "levy"),),
        ),
        Workload(
            "set-csv",
            Levy("(1)", [{"type": "set_singleton", "rate": 1.0}], n=1000, horizon=1.0, fmt="csv"),
            downstream=(("estimate-jumps", "levy"),),
        ),
        Workload(
            "graph-limits",
            Levy(
                "(2)", GRAPH_COMPONENTS, n=200, horizon=0.5, fmt="jsonl",
                limit_level=2, grid=(0.1, 0.2, 0.3, 0.4, 0.5),
            ),
            downstream=(("read-back", "levy"),),
        ),
        Workload(
            "community-exch",
            Levy("(1,2)", COMMUNITY_COMPONENTS, n=4, horizon=150.0, fmt="csv"),
            downstream=(
                ("test-exchangeability", "levy"),
                ("simulate-walk", None),
                ("test-exchangeability", "walk"),
                ("orbits", None),
            ),
            walk_steps=20000,
            orbits_n=4,
        ),
    )
}

# A small walk pipeline that supplies the layer metrics of the walk, orbits,
# measures and inference modules, and of the CLI commands, on workloads whose
# own pipeline does not reach them.  Only the metrics a workload lacks are
# taken from it.
PROBE = Workload(
    "probe",
    None,
    downstream=(
        ("simulate-walk", None),
        ("estimate-jumps", "walk"),
        ("test-exchangeability", "walk"),
        ("orbits", None),
    ),
    walk_steps=2000,
    orbits_n=3,
)

_OUTPUT_FILE = {
    "estimate-jumps": "measure.json",
    "test-exchangeability": "report.json",
    "simulate-walk": "walk.csv",
    "orbits": "orbits.json",
}


def walk_measure_json() -> str:
    """Uniform measure on the 66 loopless two-edge digraphs over [4]."""
    sig = Signature((2,))
    arcs = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
    pairs = list(itertools.combinations(arcs, 2))
    weights = {
        Structure.from_tuples(sig, 4, [list(pair)]): 1.0 / len(pairs)
        for pair in pairs
    }
    return measure_to_json(FiniteMeasure(sig, 4, weights)) + "\n"


def write_inputs(workload: Workload, directory: Path) -> None:
    """The intensity and walk-measure files the pipeline reads."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload.levy is not None:
        lv = workload.levy
        intensity = {"signature": lv.signature, "components": lv.components}
        (directory / "intensity.json").write_text(json.dumps(intensity, indent=2) + "\n")
    (directory / "walk_measure.json").write_text(walk_measure_json())


@dataclass
class Step:
    """One operation of a pass: a CLI command (or the read-back) and its output."""

    name: str
    role: str  # "simulate" or "analyze"
    argv: list[str]
    out: Path
    stdout: str = ""
    wall_s: float = 0.0
    maxrss_kb: int = 0
    returncode: int | None = None
    problems: list[str] = field(default_factory=list)
    summary: dict | None = None  # of the trajectory this step wrote or read


def pass_steps(workload: Workload, inputs: Path, out: Path, seed: int) -> list[Step]:
    """The steps of one pipeline pass, writing under ``out``.

    A step's argv is the CLI argument list; the read-back step's argv is the
    path it reads.
    """
    steps: list[Step] = []
    sources = {"walk": out / "simulate-walk" / "walk.csv"}
    lv = workload.levy
    if lv is not None:
        sources["levy"] = out / "simulate-levy" / ("traj." + lv.fmt)
        argv = [
            "simulate-levy", "--intensity", str(inputs / "intensity.json"),
            "--n", str(lv.n), "--horizon", repr(lv.horizon), "--seed", str(seed),
            "--format", lv.fmt, "--out", str(sources["levy"]),
        ]
        if lv.limit_level is not None:
            argv += ["--limit-level", str(lv.limit_level),
                     "--grid", ",".join(repr(t) for t in lv.grid)]
        steps.append(Step("simulate-levy", "simulate", argv, sources["levy"]))
    for command, source in workload.downstream:
        if command == "read-back":
            steps.append(Step(command, "analyze", [str(sources[source])], sources[source]))
            continue
        dest = out / f"{command}-{source}" / _OUTPUT_FILE[command]
        if command == "simulate-walk":
            dest = sources["walk"]
            argv = [command, "--measure", str(inputs / "walk_measure.json"),
                    "--steps", str(workload.walk_steps), "--seed", str(seed)]
        elif command == "orbits":
            argv = [command, "--signature", "(2)", "--n", str(workload.orbits_n)]
        else:
            argv = [command, "--trajectory", str(sources[source])]
        role = "simulate" if command == "simulate-walk" else "analyze"
        steps.append(Step(command, role, argv + ["--out", str(dest)], dest))
    return steps


# --- memory guard -----------------------------------------------------------


def expected_events(workload: Workload) -> float:
    """Poisson mean total_rate * T of the workload's jump chain."""
    lv = workload.levy
    intensity = intensity_from_json(
        json.dumps({"signature": lv.signature, "components": lv.components})
    )
    return RestrictedIntensity(intensity, lv.n).total_rate * lv.horizon


def estimate_bytes(workload: Workload) -> int:
    """Upper estimate of one simulate-levy process's peak memory.

    Every full state is kept, and the writers and readers keep one increment
    per event besides; each is an int bitmask of up to n^arity bits plus the
    object overhead.  The serialized text of a full-state CSV is counted
    three times (lines, joined text, encoded copy).
    """
    lv = workload.levy
    arities = [int(a) for a in lv.signature.strip("()").split(",")]
    cells = sum(lv.n**a for a in arities)
    state = cells // 8 + 64 * len(arities) + 400
    mean = expected_events(workload)
    events = mean + 5.0 * math.sqrt(mean) + 1
    text = 0
    if lv.fmt == "csv":
        # a state holds at most min(cells, events) set cells of ~8 characters
        text = 3 * events * min(cells, events) * 8
    baseline = 100 * 2**20  # interpreter, numpy and scipy
    return int(baseline + 2 * events * state + text)


# --- output checks ------------------------------------------------------------


def trajectory_summary(traj) -> dict:
    return {
        "signature": str(traj.signature),
        "n": traj.n,
        "horizon": traj.horizon,
        "events": len(traj.events) - 1,
        "last_time": traj.events[-1][0],
    }


def check_trajectory(workload: Workload, step: Step, summary: dict, mean: float) -> None:
    """Signature, n, horizon and Poisson event count of a Lévy output."""
    lv = workload.levy
    step.summary = summary
    if summary["signature"] != lv.signature:
        step.problems.append(f"signature {summary['signature']} != {lv.signature}")
    if summary["n"] != lv.n:
        step.problems.append(f"n {summary['n']} != {lv.n}")
    if lv.fmt == "jsonl":
        if summary["horizon"] != lv.horizon:
            step.problems.append(f"horizon {summary['horizon']} != {lv.horizon}")
    elif summary["last_time"] > lv.horizon:
        # the full-state CSV does not record the horizon, only event times
        step.problems.append(f"event at {summary['last_time']} beyond horizon {lv.horizon}")
    if abs(summary["events"] - mean) > 5.0 * math.sqrt(mean):
        step.problems.append(f"{summary['events']} events, outside 5 sigma of {mean:.1f}")


def check_pass(workload: Workload, steps: list[Step], mean: float) -> list[dict]:
    """Check every step's output with the library's own readers.

    Fills ``step.problems``; returns the test reports, whose p-values are
    recorded and never gated.
    """
    reports: list[dict] = []
    for step in steps:
        if step.returncode != 0:
            step.problems.append(f"exit code {step.returncode}")
            continue
        try:
            _check_step(workload, step, mean, reports)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            step.problems.append(f"unreadable output: {exc}")
    return reports


def load_trajectory(path: Path):
    """The trajectory a step wrote: an event stream, a walk CSV or a Lévy CSV."""
    text = path.read_text()
    if path.suffix == ".jsonl":
        return events_from_jsonl(text)
    if text.startswith("step,"):
        return walk_from_csv(text)
    return trajectory_from_csv(text)


def _check_step(workload: Workload, step: Step, mean: float, reports: list) -> None:
    lv = workload.levy
    if step.name == "simulate-levy":
        if lv.fmt == "csv":
            traj = trajectory_from_csv(step.out.read_text())
            check_trajectory(workload, step, trajectory_summary(traj), mean)
            if lv.signature == "(1)":
                p = marginal_flip_probability(1.0, lv.horizon)
                freq = set_frequency(traj.events[-1][1])
                bound = 5.0 * math.sqrt(p * (1.0 - p) / lv.n)
                if abs(freq - p) > bound:
                    step.problems.append(
                        f"final set frequency {freq} not within {bound:.4f} of {p:.4f}"
                    )
        if lv.limit_level is not None:
            _check_limits(workload, step)
    elif step.name == "read-back":
        check_trajectory(workload, step, json.loads(step.stdout), mean)
    elif step.name == "estimate-jumps":
        mu = measure_from_json(step.out.read_text())
        if abs(mu.total_mass - 1.0) > 1e-9:
            step.problems.append(f"jump measure mass {mu.total_mass} != 1")
    elif step.name == "test-exchangeability":
        report = json.loads(step.out.read_text())
        traj = load_trajectory(Path(step.argv[step.argv.index("--trajectory") + 1]))
        increments = jump_increment_sequence(traj)
        counts = Counter(increments)
        first = increments[0]
        mu_hat = FiniteMeasure(
            first.signature, first.n, {m: c / len(increments) for m, c in counts.items()}
        )
        support = len(symmetrize(mu_hat).weights)
        report["input"] = "walk" if hasattr(traj, "steps") else "levy"
        report["support_cells"] = support
        reports.append(report)
        if not 0.0 <= report["p_value"] <= 1.0:
            step.problems.append(f"p-value {report['p_value']} outside [0, 1]")
        if report["df"] < 1:
            step.problems.append(f"df {report['df']} < 1")
        if report["cells_used"] + report["pooled_cells"] != support:
            step.problems.append(
                f"cells_used + pooled_cells = "
                f"{report['cells_used'] + report['pooled_cells']} != {support} support cells"
            )
    elif step.name == "simulate-walk":
        walk = walk_from_csv(step.out.read_text())
        if walk.T != workload.walk_steps:
            step.problems.append(f"walk has {walk.T} steps, expected {workload.walk_steps}")
        if walk.steps[0].signature != Signature((2,)) or walk.steps[0].n != 4:
            step.problems.append("walk states are not graphs over [4]")
    elif step.name == "orbits":
        table = json.loads(step.out.read_text())
        total = sum(entry["size"] for entry in table)
        expected = space_size(Signature((2,)), workload.orbits_n)
        if total != expected:
            step.problems.append(f"orbit sizes sum to {total}, expected {expected}")


def _check_limits(workload: Workload, step: Step) -> None:
    lv = workload.levy
    lines = Path(str(step.out) + ".limits.csv").read_text().splitlines()
    if not lines or lines[0] != "time,pattern,density":
        step.problems.append("limit path CSV has no header")
        return
    sums: dict[float, list[float]] = {}
    for line in lines[1:]:
        time_text, rest = line.split(",", 1)
        pattern_text, value_text = rest.rsplit(",", 1)
        pattern = parse(pattern_text)
        if str(pattern.signature) != lv.signature or pattern.n != lv.limit_level:
            step.problems.append(f"{pattern_text} is not a level-{lv.limit_level} pattern")
            return
        sums.setdefault(float(time_text), []).append(float(value_text))
    if sorted(sums) != list(lv.grid):
        step.problems.append(f"limit path times {sorted(sums)} != grid {list(lv.grid)}")
    for t, values in sums.items():
        if abs(math.fsum(values) - 1.0) > 1e-9:
            step.problems.append(f"density vector at t={t} sums to {math.fsum(values)}")
