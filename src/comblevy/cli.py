"""Command-line front end.

Subcommands are thin drivers over the library: they parse inputs, run one
operation, and write the owning module's file format.  All stochastic
commands require an explicit seed and are byte-deterministic given the same
config and seed.  Every output directory receives a ``manifest.json``
recording the effective config, the seed, and the tool version.

Exit codes: 0 success, 2 validation error or out of memory, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .inference import (
    chi_square_exchangeability,
    empirical_jump_measure_json,
    report_to_json,
)
from .levy import (
    _header,
    events_from_jsonl,
    events_to_jsonl,
    intensity_from_json,
    simulate_levy,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .limits import (
    _limit_grid,
    density_to_csv,
    density_vector,
    limit_path,
    limit_path_to_csv,
)
from .measures import (
    decompose_exchangeable,
    measure_from_json,
    orbit_weights_to_json,
)
from .orbits import _check_cap, enumerate_orbits
from .rng import ALGORITHM, make_rng
from .structures import Signature, _head, empty_structure, parse
from .walk import simulate_walk, walk_from_csv, walk_to_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


# Characters of an output that are encoded and written at a time.
_WRITE_SLICE_CHARS = 2**16


def _write_atomic(path: str, content: str) -> None:
    """Write via a temp file and rename, so outputs appear whole; a failed
    write or rename removes the temp file.  The text is written in slices,
    so its UTF-8 copy never exists whole."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as out:
            for start in range(0, len(content), _WRITE_SLICE_CHARS):
                out.write(content[start:start + _WRITE_SLICE_CHARS])
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def _replicate_path(out: str, replicate: int, replicates: int) -> str:
    if replicates == 1:
        return out
    return f"{out}.r{replicate}"


def _write_manifest(args: argparse.Namespace, command: str, out: str) -> None:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
    }
    manifest = {
        "command": command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        # seeded streams are reproducible only within one numpy version
        "numpy_version": np.__version__,
        "rng_algorithm": ALGORITHM,
    }
    directory = Path(out).parent
    _write_atomic(
        str(directory / "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n",
    )


def _load_trajectory(path: str):
    """Walk CSV, continuous-time CSV or event stream, detected by the first
    line.  The reader gets the open file, read with universal newlines,
    and takes it a piece at a time."""
    with open(path, encoding="utf-8") as source:
        header = source.readline().rstrip("\n")
        source.seek(0)
        if header == "step,structure":
            return walk_from_csv(source)
        if header == "time,structure":
            return trajectory_from_csv(source)
        if header.startswith("{"):
            return events_from_jsonl(source)
    raise ValueError(f"unrecognized trajectory header: {header!r}")


def _named_size(path: str) -> int | None:
    """The n that a trajectory file's first lines name, read as its reader
    reads them: the event-stream header's, or the first full-state CSV
    row's.  None where they name none; the reader then reports the defect."""
    with open(path, encoding="utf-8") as source:
        header, row = source.readline().rstrip("\n"), source.readline()
    with contextlib.suppress(ValueError):
        if header.startswith("{"):
            return _header(header)[0].n
        if header in ("step,structure", "time,structure"):
            return _head(row.partition(",")[2])[1]
    return None


def _replicates(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"malformed grid: {text!r}") from None


def cmd_simulate_walk(args: argparse.Namespace) -> None:
    mu = measure_from_json(_read_text(args.measure))
    if args.init is not None:
        x0 = parse(args.init)
    else:
        x0 = empty_structure(mu.signature, mu.n)
    for r in range(args.replicates):
        rng = make_rng(args.seed, stream=r)
        traj = simulate_walk(mu, x0, args.steps, rng)
        _write_atomic(
            _replicate_path(args.out, r, args.replicates), walk_to_csv(traj)
        )
    _write_manifest(args, "simulate-walk", args.out)


def cmd_simulate_levy(args: argparse.Namespace) -> None:
    intensity = intensity_from_json(_read_text(args.intensity))
    grid = _parse_grid(args.grid) if args.grid else None
    if args.limit_level is not None:
        if grid is None:
            raise ValueError("--limit-level requires --grid")
        # checked before any trajectory is simulated or written
        grid = _limit_grid(grid, args.limit_level, args.n, args.horizon)
    for r in range(args.replicates):
        rng = make_rng(args.seed, stream=r)
        traj = simulate_levy(intensity, args.n, args.horizon, rng)
        out = _replicate_path(args.out, r, args.replicates)
        if args.format == "csv":
            _write_atomic(out, trajectory_to_csv(traj))
        else:
            _write_atomic(out, events_to_jsonl(traj, seed=args.seed))
        if args.limit_level is not None:
            vectors = limit_path(traj, args.limit_level, grid)
            limit_out = args.limit_out or f"{args.out}.limits.csv"
            _write_atomic(
                _replicate_path(limit_out, r, args.replicates),
                limit_path_to_csv(grid, vectors),
            )
    _write_manifest(args, "simulate-levy", args.out)


def cmd_orbits(args: argparse.Namespace) -> None:
    table = enumerate_orbits(Signature.parse(args.signature), args.n)
    _write_atomic(args.out, table.to_json() + "\n")
    _write_manifest(args, "orbits", args.out)


def cmd_decompose(args: argparse.Namespace) -> None:
    mu = measure_from_json(_read_text(args.measure))
    weights = decompose_exchangeable(mu)
    _write_atomic(args.out, orbit_weights_to_json(weights) + "\n")
    _write_manifest(args, "decompose", args.out)


def cmd_density(args: argparse.Namespace) -> None:
    m = parse(args.structure)
    vec = density_vector(m, args.level)
    _write_atomic(args.out, density_to_csv(vec))
    _write_manifest(args, "density", args.out)


def cmd_estimate_jumps(args: argparse.Namespace) -> None:
    text = empirical_jump_measure_json(_load_trajectory(args.trajectory))
    _write_atomic(args.out, text + "\n")
    _write_manifest(args, "estimate-jumps", args.out)


def cmd_test_exchangeability(args: argparse.Namespace) -> None:
    # orbits are enumerated only up to the cap, so a larger path is refused
    # from the file's first lines, before any jump is read
    _check_cap(_named_size(args.trajectory) or 0)
    traj = _load_trajectory(args.trajectory)
    alphas = args.alpha if args.alpha else [0.05]
    report = chi_square_exchangeability(traj, alphas=alphas)
    _write_atomic(args.out, report_to_json(report) + "\n")
    _write_manifest(args, "test-exchangeability", args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comblevy",
        description="Simulate combinatorial Levy processes and estimate their jump measures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-walk", help="discrete-time random walk")
    p.add_argument("--measure", required=True, help="increment measure JSON file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--init", help="initial structure text (default: empty)")
    p.add_argument("--replicates", type=_replicates, default=1)
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate_walk)

    p = sub.add_parser("simulate-levy", help="continuous-time jump process")
    p.add_argument("--intensity", required=True, help="intensity config JSON file")
    p.add_argument("--n", type=int, required=True, help="resolution level")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replicates", type=_replicates, default=1)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--limit-level", type=int, help="also export a limit path")
    p.add_argument("--grid", help="comma-separated times for the limit path")
    p.add_argument("--limit-out", help="limit path CSV (default: OUT.limits.csv)")
    p.add_argument("--out", required=True, help="trajectory file path")
    p.set_defaults(func=cmd_simulate_levy)

    p = sub.add_parser("orbits", help="enumerate isomorphism classes")
    p.add_argument("--signature", required=True, help='e.g. "(1,2)"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="orbit table JSON path")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("decompose", help="orbit weights of an exchangeable measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("density", help="pattern density vector of a structure")
    p.add_argument("--structure", required=True, help="serialized structure text")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True, help="density CSV path")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("estimate-jumps", help="empirical jump measure")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--out", required=True, help="measure JSON path")
    p.set_defaults(func=cmd_estimate_jumps)

    p = sub.add_parser(
        "test-exchangeability", help="exchangeability test (Monte Carlo p-value)"
    )
    p.add_argument("--trajectory", required=True)
    p.add_argument(
        "--alpha", type=float, action="append", help="test level (repeatable)"
    )
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_test_exchangeability)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except FileNotFoundError as exc:
        print(f"comblevy: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except IsADirectoryError as exc:
        print(f"comblevy: not a file: {exc}", file=sys.stderr)
        return EXIT_IO
    # RuntimeError: json.loads raises RecursionError on deeply nested input
    except (ValueError, TypeError, RuntimeError) as exc:
        print(f"comblevy: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"comblevy: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"comblevy: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def run() -> None:
    """The ``comblevy`` command: run :func:`main` and end the process.

    Every output is written and renamed before ``main`` returns, so the
    process then flushes stdout and stderr and ends with ``os._exit``,
    skipping the interpreter's teardown (full garbage collections and module
    cleanup, about 20 ms); object finalizers and ``atexit`` handlers do not
    run.  If ``main`` raises (a bug, ``KeyboardInterrupt``, or argparse's
    ``SystemExit`` for ``--help``, ``--version`` and usage errors), or a
    tracer or profiler is set, the process ends the normal way, so
    tracebacks, exit codes and ``python -m cProfile`` behave as usual.
    ``main`` is the in-process entry: it returns the exit code and never
    ends the process itself.
    """
    code = main()
    if sys.gettrace() is None and sys.getprofile() is None:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
