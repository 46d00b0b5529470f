"""comblevy benchmark: four seeded CLI pipelines, traced replay, layer probes.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --compare BASE NEW

A run generates the workload's inputs from the seed, then runs pipeline
passes through ``python -m comblevy`` as a closed loop with one client (one
child process at a time) until ``--seconds`` have passed, checking every
output with the library's own readers.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a traced
in-process replay of the same passes plus the layer probes.  The last line
of standard output is the JSON result; the full record, with every sample,
the environment and the spans, is written under ``bench/results/``.

See README.md next to this file.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

DEFAULT_SEED = 20161216
CHILD_TIMEOUT_S = 150.0

# A shared host's CPU speed can drift by a third or more for minutes at a
# time (seen on a 2-core VM), which slows every process alike.  So the reference job (reference.py, no
# comblevy code) runs just before each pass, and the pass's times are
# reported at the speed where it takes REFERENCE_NOMINAL_S: multiplied by
# that over its time, and rates divided by the same.
REFERENCE_NOMINAL_S = 0.8
SCALED_TIMES = {"wall_s", "simulate_s", "analyze_s", "setup_s"}
SCALED_RATES = {"events_per_s"}

# One core per workload: no BLAS or OpenMP thread pools in any process.
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Runner:
    """Spawns and reaps child processes one at a time, with a timeout."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)

    def run(self, argv: list[str]) -> tuple[float, int, int, str]:
        """(wall seconds, ru_maxrss in KiB, exit code, stdout) of one child."""
        out_path = self.work / "child.out"
        err_path = self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        return wall, usage.ru_maxrss, proc.returncode, out_path.read_text()

    def run_step(self, step) -> None:
        if step.name == "read-back":
            argv = [sys.executable, str(BENCH / "child.py"), "read-back", *step.argv]
        else:
            argv = [sys.executable, "-m", "comblevy", *step.argv]
        step.wall_s, step.maxrss_kb, step.returncode, step.stdout = self.run(argv)


def run_pass(runner: Runner, steps) -> float:
    """Run the steps in order; stop at the first failure.  Return wall time."""
    start = time.perf_counter()
    for step in steps:
        runner.run_step(step)
        if step.returncode != 0:
            break
    return time.perf_counter() - start


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")


def record_steps(ops: Ops, steps, label: str) -> None:
    for step in steps:
        if step.returncode is None:
            step.problems.append("not run: an earlier step failed")
        ops.record(f"{label} {step.name}", step.problems)


def environment() -> dict:
    import numpy
    import scipy
    from comblevy import ALGORITHM, __version__

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "comblevy": __version__,
        "rng": ALGORITHM,
        "nproc": os.cpu_count(),
        "commit": None,
        "dirty": None,
    }
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        genv = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            env["commit"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                env=genv, timeout=30, check=True,
            ).stdout.strip()
            status = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, env=genv, timeout=30, check=True,
            ).stdout
            env["dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def memory_budget() -> int:
    """Bytes one child may use: 2 GiB, and never over half of physical memory."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return min(2048 * 2**20, physical // 2)


def setup_argv(workload, inputs: Path) -> list[str]:
    """A fresh interpreter that imports comblevy and builds the workload's
    level-n restricted intensity (and loads its walk measure)."""
    argv = [sys.executable, str(BENCH / "child.py"), "setup",
            str(inputs / "intensity.json"), str(workload.levy.n)]
    if workload.walk_steps:
        argv.append(str(inputs / "walk_measure.json"))
    return argv


def run_timed(runner: Runner, argv: list[str], ops: Ops, name: str) -> float:
    wall, _, code, _ = runner.run(argv)
    ops.record(name, [] if code == 0 else [f"exit code {code}"])
    return wall


def scaled(samples: dict[str, list[float]]) -> dict[str, float]:
    """Run medians of the per-pass samples, each time and rate taken at the
    nominal speed by its own pass's reference sample."""
    scales = [REFERENCE_NOMINAL_S / r for r in samples.get("reference_s", [])]
    metrics = {}
    for key, values in samples.items():
        if key in SCALED_TIMES:
            values = [v * s for v, s in zip(values, scales)]
        elif key in SCALED_RATES:
            values = [v / s for v, s in zip(values, scales)]
        metrics[key] = statistics.median(values)
    return metrics


def end_to_end(args, workload, runner: Runner, inputs: Path, mean: float, ops: Ops, record: dict):
    from workloads import check_pass, pass_steps

    setup = setup_argv(workload, inputs)
    reference = [sys.executable, str(BENCH / "reference.py")]
    run_timed(runner, setup, ops, "setup")  # fill the bytecode caches; not timed
    run_timed(runner, reference, ops, "reference")
    samples: dict[str, list[float]] = {}
    seeds = random.Random(args.seed)
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < args.seconds:
        reference_s = run_timed(runner, reference, ops, "reference")
        setup_s = run_timed(runner, setup, ops, "setup")
        out = runner.work / f"pass{k}"
        steps = pass_steps(workload, inputs, out, seeds.getrandbits(32))
        wall = run_pass(runner, steps)
        record["reports"] += check_pass(workload, steps, mean)
        record_steps(ops, steps, f"pass {k}")
        if all(s.returncode == 0 and not s.problems for s in steps):
            simulate_levy = steps[0]
            events = next(s.summary["events"] for s in steps if s.summary)
            row = {
                "reference_s": reference_s,
                "setup_s": setup_s,
                "wall_s": wall,
                "simulate_s": sum(s.wall_s for s in steps if s.role == "simulate"),
                "analyze_s": sum(s.wall_s for s in steps if s.role == "analyze"),
                "events_per_s": events / simulate_levy.wall_s,
                "peak_rss_mb": max(s.maxrss_kb for s in steps) / 1024.0,
                "output_bytes": dir_bytes(out),
            }
            for key, value in row.items():
                samples.setdefault(key, []).append(value)
        shutil.rmtree(out)
        k += 1
    return samples


def replay_checked(tracer, cli_steps, replay_steps, ops: Ops, label: str) -> float:
    """Replay the steps in process; each must succeed and write the same
    bytes as the CLI process did with the same arguments and seed.  Return
    the replay's wall time."""
    import tracing as tr

    start = time.perf_counter()
    codes = tr.replay(tracer, replay_steps)
    wall = time.perf_counter() - start
    for cli_step, step, code in zip(cli_steps, replay_steps, codes):
        problems = [] if code == 0 else [f"exit code {code}"]
        if step.name != "read-back" and cli_step.returncode == 0 and not filecmp.cmp(
            cli_step.out, step.out, shallow=False
        ):
            problems.append("output differs from the CLI process's output")
        ops.record(f"{label} {step.name}", problems)
    return wall


def traced(args, workload, runner: Runner, inputs: Path, ops: Ops, record: dict):
    import tracing as tr
    from workloads import PROBE, check_pass, load_trajectory, pass_steps, write_inputs

    tracer = tr.Tracer(workload.name)
    rows, shares = [], []
    seeds = random.Random(args.seed)
    # An untimed replay first, so that neither timed replay pays this
    # process's first-call costs (lazy imports, heap growth).
    warm = pass_steps(workload, inputs, runner.work / "warm", args.seed)
    for step, code in zip(warm, tr.replay_untraced(warm)):
        ops.record(f"warm-up replay {step.name}", [] if code == 0 else [f"exit code {code}"])
    shutil.rmtree(runner.work / "warm")
    start = time.perf_counter()
    k = 0
    # half the run for traced passes, the rest for the probes
    while k == 0 or time.perf_counter() - start < args.seconds / 2:
        seed = seeds.getrandbits(32)
        cli_steps = pass_steps(workload, inputs, runner.work / f"pass{k}", seed)
        run_pass(runner, cli_steps)
        record["reports"] += check_pass(workload, cli_steps, record["expected_events"])
        record_steps(ops, cli_steps, f"pass {k}")

        plain_steps = pass_steps(workload, inputs, runner.work / f"plain{k}", seed)
        plain_start = time.perf_counter()
        plain_codes = tr.replay_untraced(plain_steps)
        plain_wall = time.perf_counter() - plain_start
        for step, code in zip(plain_steps, plain_codes):
            ops.record(f"untraced replay {k} {step.name}",
                       [] if code == 0 else [f"exit code {code}"])

        first = len(tracer.spans)
        replay_steps = pass_steps(workload, inputs, runner.work / f"replay{k}", seed)
        replay_wall = replay_checked(tracer, cli_steps, replay_steps, ops, f"replay {k}")
        spans = tracer.spans[first:]
        row = tr.span_metrics(spans)
        row.update(tr.process_metrics(cli_steps, spans))
        row["trace.overhead_s"] = replay_wall - plain_wall
        rows.append(row)
        shares.append(tr.self_time_shares(spans))
        for name in ("plain", "replay"):
            shutil.rmtree(runner.work / f"{name}{k}")
        if k > 0:
            shutil.rmtree(runner.work / f"pass{k - 1}")
        k += 1

    metrics = tr.median_metrics(rows)
    sources = {key: "pipeline" for key in metrics}

    # Probes: the layers this workload's pipeline did not reach.
    tracer.phase = "probe"
    traj = load_trajectory(cli_steps[0].out)  # the last pass's own trajectory
    shutil.rmtree(runner.work / f"pass{k - 1}")
    probe: dict[str, float] = {}
    if "limits.limit_path_s" not in metrics:
        first = len(tracer.spans)
        tr.limits_probe(tracer, traj)
        probe.update(tr.span_metrics(tracer.spans[first:]))
    probe_inputs = runner.work / "probe-inputs"
    write_inputs(PROBE, probe_inputs)
    probe_cli = pass_steps(PROBE, probe_inputs, runner.work / "probe-cli", args.seed)
    run_pass(runner, probe_cli)
    check_pass(PROBE, probe_cli, 0.0)
    record_steps(ops, probe_cli, "probe")
    first = len(tracer.spans)
    probe_steps = pass_steps(PROBE, probe_inputs, runner.work / "probe-replay", args.seed)
    replay_checked(tracer, probe_cli, probe_steps, ops, "probe replay")
    probe.update(tr.span_metrics(tracer.spans[first:]))
    probe.update(tr.process_metrics(probe_cli, None))
    for key, value in probe.items():
        if key not in metrics:
            metrics[key] = value
            sources[key] = "probe"

    micro = tr.structure_probes(traj)
    micro.update(tr.levy_probes(
        (inputs / "intensity.json").read_text(), workload.levy.n,
        (inputs / "walk_measure.json").read_text(), args.seed,
    ))
    metrics.update(micro)
    sources.update({key: "probe" for key in micro})

    record["self_time_share"] = tr.median_metrics(shares)
    record["sources"] = sources
    record["iterations"] = rows
    record["spans"] = tracer.spans
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: under bench/results/)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result files or directories and exit")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(*args.compare, ROOT / "BENCHMARK.json")
    if not (SRC / "comblevy" / "__init__.py").is_file():
        print(f"bench: no comblevy package under {SRC}", file=sys.stderr)
        return 1
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, estimate_bytes, expected_events, write_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "expected_events": expected_events(workload),
        "estimated_bytes": estimate_bytes(workload),
        "memory_budget_bytes": memory_budget(),
        "reports": [],
    }
    metrics: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    try:
        inputs = work / "inputs"
        write_inputs(workload, inputs)
        runner = Runner(work)
        if record["estimated_bytes"] > record["memory_budget_bytes"]:
            ops.record("memory guard", [
                f"estimated {record['estimated_bytes'] / 2**20:.0f} MiB exceeds the "
                f"budget of {record['memory_budget_bytes'] / 2**20:.0f} MiB; not run"
            ])
        elif args.trace:
            metrics = traced(args, workload, runner, inputs, ops, record)
        else:
            samples = end_to_end(args, workload, runner, inputs,
                                 record["expected_events"], ops, record)
            metrics = scaled(samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    result = {
        "correct": not ops.failures and not missing,
        "attempted": max(ops.attempted, 1),
        "failed": len(ops.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in wanted if name in metrics
        },
    }
    record.update(result)
    record["failures"] = ops.failures
    record["missing_metrics"] = missing
    record["samples"] = samples
    record["p_values"] = [r["p_value"] for r in record["reports"]]
    out = Path(args.out) if args.out else RESULTS / (
        f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for failure in ops.failures:
        print(f"failed: {failure}", file=sys.stderr)
    if missing:
        print(f"not measured: {', '.join(missing)}", file=sys.stderr)
    print(f"record: {out.relative_to(ROOT) if out.is_relative_to(ROOT) else out}")
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
