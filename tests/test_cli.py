import hashlib
import json
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import comblevy
from comblevy import cli, inference, levy, walk
from comblevy.cli import main
from comblevy.inference import empirical_jump_measure
from comblevy.levy import (
    LevyIntensity,
    LevyTrajectory,
    SetSingletonComponent,
    events_to_jsonl,
    intensity_from_json,
    intensity_to_json,
    simulate_levy,
    trajectory_from_csv,
    trajectory_to_csv,
)
from comblevy.measures import (
    FiniteMeasure,
    decompose_exchangeable,
    measure_from_json,
    measure_to_json,
    point_mass,
    urn_measure,
)
from comblevy.rng import make_rng
from comblevy.structures import Signature, Structure, empty_structure, increment, serialize
from comblevy.walk import simulate_walk, walk_from_csv, walk_to_csv

from helpers import levy_path, run_comblevy, run_python, walk_path

SIG1 = Signature((1,))


@pytest.fixture
def measure_file(tmp_path):
    path = tmp_path / "measure.json"
    path.write_text(measure_to_json(urn_measure(1, 3)), encoding="utf-8")
    return str(path)


@pytest.fixture
def intensity_file(tmp_path):
    path = tmp_path / "intensity.json"
    I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
    path.write_text(intensity_to_json(I), encoding="utf-8")
    return str(path)


def run_cli(args):
    return main([str(a) for a in args])


class TestSimulateWalk:
    def test_writes_trajectory_and_manifest(self, tmp_path, measure_file):
        out = tmp_path / "walk.csv"
        code = run_cli(
            ["simulate-walk", "--measure", measure_file, "--steps", 10,
             "--seed", 7, "--out", out]
        )
        assert code == 0
        traj = walk_from_csv(out.read_text(encoding="utf-8"))
        assert traj.T == 10
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "simulate-walk"
        assert manifest["seed"] == 7
        assert manifest["version"]

    def test_point_mass_constant(self, tmp_path):
        mf = tmp_path / "pm.json"
        mf.write_text(measure_to_json(point_mass(empty_structure(SIG1, 2))))
        out = tmp_path / "pm.csv"
        assert run_cli(["simulate-walk", "--measure", mf, "--steps", 4,
                        "--seed", 1, "--out", out]) == 0
        traj = walk_from_csv(out.read_text())
        assert all(s == empty_structure(SIG1, 2) for s in traj.steps)

    def test_replicates_produce_distinct_streams(self, tmp_path, measure_file):
        out = tmp_path / "walk.csv"
        code = run_cli(
            ["simulate-walk", "--measure", measure_file, "--steps", 30,
             "--seed", 7, "--replicates", 3, "--out", out]
        )
        assert code == 0
        texts = [
            Path(f"{out}.r{i}").read_text(encoding="utf-8") for i in range(3)
        ]
        assert len(set(texts)) == 3

    def test_init_state(self, tmp_path, measure_file):
        out = tmp_path / "walk.csv"
        init = "L=(1)|n=3|R1={(2)}"
        assert run_cli(["simulate-walk", "--measure", measure_file, "--steps", 2,
                        "--seed", 3, "--init", init, "--out", out]) == 0
        traj = walk_from_csv(out.read_text())
        assert serialize(traj.steps[0]) == init


class TestSimulateLevy:
    def test_csv_output(self, tmp_path, intensity_file):
        out = tmp_path / "levy.csv"
        code = run_cli(
            ["simulate-levy", "--intensity", intensity_file, "--n", 5,
             "--horizon", 2.0, "--seed", 5, "--out", out]
        )
        assert code == 0
        traj = trajectory_from_csv(out.read_text(encoding="utf-8"))
        assert traj.n == 5

    def test_zero_intensity_single_event(self, tmp_path):
        intensity = tmp_path / "zero.json"
        intensity.write_text(intensity_to_json(LevyIntensity(SIG1, ())))
        out = tmp_path / "zero.csv"
        assert run_cli(["simulate-levy", "--intensity", intensity, "--n", 3,
                        "--horizon", 1.0, "--seed", 1, "--out", out]) == 0
        assert out.read_text() == "time,structure\n0.0,L=(1)|n=3|R1={}\n"

    def test_jsonl_format(self, tmp_path, intensity_file):
        out = tmp_path / "levy.jsonl"
        assert run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                        "--horizon", 1.0, "--seed", 2, "--format", "jsonl",
                        "--out", out]) == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header == {"T": 1.0, "n": 4, "seed": 2, "signature": "(1)"}

    def test_limit_path_export(self, tmp_path, intensity_file):
        out = tmp_path / "levy.csv"
        assert run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 50,
                        "--horizon", 1.0, "--seed", 4, "--out", out,
                        "--limit-level", 1, "--grid", "0.0,0.5,1.0"]) == 0
        lines = (tmp_path / "levy.csv.limits.csv").read_text().splitlines()
        assert lines[0] == "time,pattern,density"
        assert len(lines) == 1 + 3 * 2

    def test_limit_path_tracks_closed_form(self, tmp_path, intensity_file):
        import math

        from comblevy.levy import marginal_flip_probability

        n = 400
        out = tmp_path / "levy.csv"
        assert run_cli(["simulate-levy", "--intensity", intensity_file, "--n", n,
                        "--horizon", 1.0, "--seed", 21, "--out", out,
                        "--limit-level", 1, "--grid", "0.5,1.0"]) == 0
        rows = (tmp_path / "levy.csv.limits.csv").read_text().splitlines()[1:]
        present = "L=(1)|n=1|R1={(1)}"
        for row in rows:
            t_text, pattern, density = row.split(",", 2)
            if pattern != present:
                continue
            t = float(t_text)
            p = marginal_flip_probability(1.0, t)
            assert abs(float(density) - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_manifest_records_numpy_and_rng(self, tmp_path, intensity_file):
        import numpy as np

        from comblevy.rng import ALGORITHM

        assert run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                        "--horizon", 1.0, "--seed", 2, "--out", tmp_path / "l.csv"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["numpy_version"] == np.__version__
        assert manifest["rng_algorithm"] == ALGORITHM == "philox4x64"

    def test_rejects_non_finite_horizon(self, tmp_path, intensity_file):
        for horizon in ("inf", "nan"):
            assert run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                            "--horizon", horizon, "--seed", 2,
                            "--out", tmp_path / "l.csv"]) == 2

    def test_refuses_more_jumps_than_the_cap_exit_2(self, tmp_path, capsys, intensity_file):
        # rate 4 over T = 10^7: 4e7 expected jumps, refused before any draw
        code = run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                        "--horizon", "1e7", "--seed", 2, "--out", tmp_path / "x.csv"])
        assert code == 2
        assert "about 4e+07 jumps expected" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv")) and not (tmp_path / "manifest.json").exists()

    def test_limit_level_requires_grid(self, tmp_path, intensity_file):
        code = run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                        "--horizon", 1.0, "--seed", 2, "--limit-level", 1,
                        "--out", tmp_path / "x.csv"])
        assert code == 2

    @pytest.mark.parametrize("option, value", [("--grid", "0.5"), ("--limit-out", "lim.csv")])
    def test_limit_options_require_limit_level(self, tmp_path, capsys, intensity_file,
                                               option, value):
        out = tmp_path / "x.csv"
        code = run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                        "--horizon", 1.0, "--seed", 2, option, value, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == f"comblevy: {option} requires --limit-level\n"
        assert not any(tmp_path.glob("*.csv")) and not (tmp_path / "manifest.json").exists()


class TestOtherCommands:
    def test_orbits(self, tmp_path):
        out = tmp_path / "orbits.json"
        assert run_cli(["orbits", "--signature", "(1)", "--n", 3, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 4
        assert sum(e["size"] for e in payload) == 8

    def test_decompose(self, tmp_path, measure_file):
        out = tmp_path / "weights.json"
        assert run_cli(["decompose", "--measure", measure_file, "--out", out]) == 0
        payload = json.loads(out.read_text())
        expected = decompose_exchangeable(urn_measure(1, 3))
        assert payload["entries"] == [
            {"orbit": oid.canonical, "p": mass}
            for oid, mass in sorted(expected.p.items(), key=lambda kv: kv[0].canonical)
        ]

    def test_decompose_rejects_non_exchangeable(self, tmp_path):
        from comblevy.measures import point_mass
        from comblevy.structures import Structure

        mf = tmp_path / "bad.json"
        mf.write_text(
            measure_to_json(point_mass(Structure.from_tuples(SIG1, 2, [{1}])))
        )
        assert run_cli(["decompose", "--measure", mf, "--out", tmp_path / "o.json"]) == 2

    def test_density(self, tmp_path):
        out = tmp_path / "density.csv"
        assert run_cli(["density", "--structure", "L=(1)|n=4|R1={(1);(2)}",
                        "--level", 1, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pattern,density"
        values = {ln.split(",L=")[0] for ln in lines[1:]}
        assert len(lines) == 3

    def test_estimate_jumps_walk(self, tmp_path, measure_file):
        walk_out = tmp_path / "walk.csv"
        run_cli(["simulate-walk", "--measure", measure_file, "--steps", 50,
                 "--seed", 9, "--out", walk_out])
        # a walk of signature (), whose two steps are both the empty increment
        empty_out = tmp_path / "empty.csv"
        empty_out.write_text("step,structure\n0,L=()|n=3\n1,L=()|n=3\n2,L=()|n=3\n")
        for path in (walk_out, empty_out):
            out = tmp_path / "jumps.json"
            assert run_cli(["estimate-jumps", "--trajectory", path, "--out", out]) == 0
            mu = measure_from_json(out.read_text())
            assert abs(mu.total_mass - 1.0) <= 1e-12
        assert {serialize(m): w for m, w in mu.weights.items()} == {"L=()|n=3": 1.0}

    def test_estimate_jumps_levy(self, tmp_path, intensity_file):
        levy_out = tmp_path / "levy.csv"
        run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                 "--horizon", 5.0, "--seed", 9, "--out", levy_out])
        out = tmp_path / "jumps.json"
        assert run_cli(["estimate-jumps", "--trajectory", levy_out, "--out", out]) == 0
        mu = measure_from_json(out.read_text())
        assert abs(mu.total_mass - 1.0) <= 1e-12

    def test_estimate_jumps_reads_event_streams(self, tmp_path, intensity_file):
        # one seeded path, written as a full-state CSV and as an event stream
        outputs = []
        for fmt in ("csv", "jsonl"):
            levy_out = tmp_path / f"levy.{fmt}"
            assert run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 30,
                            "--horizon", 2.0, "--seed", 11, "--format", fmt,
                            "--out", levy_out]) == 0
            out = tmp_path / f"jumps-{fmt}.json"
            assert run_cli(["estimate-jumps", "--trajectory", levy_out, "--out", out]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        mu = measure_from_json(outputs[1].decode())
        assert len(mu.weights) > 10
        assert all(m.tuple_count(0) == 1 for m in mu.weights)

    @staticmethod
    def jump_paths():
        """The text of a trajectory file of each kind, by file name."""
        graph = simulate_levy(intensity_from_json(json.dumps({"signature": "(2)", "components": [
            {"type": "pair", "rate": 0.2},
            {"type": "vertex", "rate": 1.0, "rho": 0.02},
            {"type": "loop", "rate": 1.0},
        ]})), 40, 1.0, make_rng(21))
        community = simulate_levy(intensity_from_json(json.dumps({"signature": "(1,2)", "components": [
            {"type": "mixture_atom", "weight": 0.5, "probs": [0.2, 0.1]},
            {"type": "vertex", "rate": 1.0, "rho": 0.3, "member_prob": 0.5},
            {"type": "pair", "rate": 1.0},
        ]})), 5, 10.0, make_rng(22))
        sets = simulate_levy(
            LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),)), 200, 1.0, make_rng(23)
        )
        e = empty_structure(SIG1, 4)
        lazy = FiniteMeasure(SIG1, 4, {e: 0.5, Structure.from_tuples(SIG1, 4, [[2, 3]]): 0.5})
        steps = simulate_walk(lazy, e, 60, make_rng(24))
        start = graph.events[-1][1]
        shifted = levy_path(1.0, [(t, increment(x, start)) for t, x in graph.events])
        return {
            "graph-stream.jsonl": events_to_jsonl(graph),
            "set.csv": trajectory_to_csv(sets),
            "walk-with-empty-steps.csv": walk_to_csv(steps),
            "(1,2)-path.csv": trajectory_to_csv(community),
            "non-empty-start.jsonl": events_to_jsonl(shifted),
        }

    @pytest.mark.parametrize("name", [
        "graph-stream.jsonl", "set.csv", "walk-with-empty-steps.csv", "(1,2)-path.csv",
        "non-empty-start.jsonl",
    ])
    def test_estimate_jumps_writes_the_measure_json(self, tmp_path, name):
        path, out = tmp_path / name, tmp_path / "jumps.json"
        path.write_text(self.jump_paths()[name])
        assert run_cli(["estimate-jumps", "--trajectory", path, "--out", out]) == 0
        traj = cli._load_trajectory(str(path))
        # the measure of a Counter of the increments as Structures
        counts = Counter(traj.jump_increments())
        total = sum(counts.values())
        expected = FiniteMeasure(
            traj.signature, traj.n, {m: c / total for m, c in counts.items()}
        )
        assert out.read_text() == measure_to_json(expected) + "\n"
        assert out.read_text() == measure_to_json(empirical_jump_measure(traj)) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_estimate_jumps_builds_no_structure_per_jump(
        self, tmp_path, monkeypatch, intensity_file, fmt
    ):
        build = sys.modules["comblevy.structures"]._structure_from_cells
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        for module in [m for name, m in sys.modules.items() if name.startswith("comblevy.")]:
            if hasattr(module, "_structure_from_cells"):
                monkeypatch.setattr(module, "_structure_from_cells", counted)
        made = []
        for horizon in (1.0, 30.0):
            path = tmp_path / f"levy-{horizon}.{fmt}"
            assert run_cli(["simulate-levy", "--intensity", intensity_file,
                            "--n", 20, "--horizon", horizon, "--seed", 25, "--format", fmt,
                            "--out", path]) == 0
            jumps = len(cli._load_trajectory(str(path)).jump_increments())
            calls.clear()
            assert run_cli(["estimate-jumps", "--trajectory", path,
                            "--out", tmp_path / "jumps.json"]) == 0
            made.append((jumps, len(calls)))
        (short, short_calls), (long, long_calls) = made
        assert long > 10 * short and long_calls == short_calls

    def test_test_exchangeability(self, tmp_path, measure_file):
        walk_out = tmp_path / "walk.csv"
        run_cli(["simulate-walk", "--measure", measure_file, "--steps", 400,
                 "--seed", 10, "--out", walk_out])
        out = tmp_path / "report.json"
        code = run_cli(["test-exchangeability", "--trajectory", walk_out,
                        "--alpha", 0.05, "--alpha", 0.01, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["alphas"]) == {"0.05", "0.01"}

    def test_inconclusive_is_not_failure(self, tmp_path):
        mf = tmp_path / "pm.json"
        mf.write_text(measure_to_json(point_mass(empty_structure(SIG1, 2))))
        walk_out = tmp_path / "const.csv"
        run_cli(["simulate-walk", "--measure", mf, "--steps", 20, "--seed", 1,
                 "--out", walk_out])
        out = tmp_path / "report.json"
        assert run_cli(["test-exchangeability", "--trajectory", walk_out,
                        "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["inconclusive"] is True
        assert payload["statistic"] == 0.0
        assert payload["p_value"] == 1.0


def _local_measure(measure: str) -> str:
    """An intensity JSON whose one local component has the JSON text
    ``measure`` as its measure."""
    component = f'{{"type": "local", "rate": 1, "measure": {measure}}}'
    return f'{{"signature": "(1)", "components": [{component}]}}'


class TestErrorHandling:
    def test_missing_file_exit_3(self, tmp_path):
        assert run_cli(["estimate-jumps", "--trajectory", tmp_path / "none.csv",
                        "--out", tmp_path / "o.json"]) == 3

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_cli(["simulate-walk", "--measure", bad, "--steps", 2,
                        "--seed", 1, "--out", tmp_path / "w.csv"]) == 2

    @pytest.mark.parametrize("command, flag", [("decompose", "--measure"),
                                               ("simulate-levy", "--intensity")])
    def test_deeply_nested_json_exit_2(self, tmp_path, capsys, command, flag):
        # json.loads raises RecursionError, a RuntimeError, on such input
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        args = {"decompose": [], "simulate-levy": ["--n", 5, "--horizon", 1, "--seed", 1]}
        assert run_cli([command, flag, bad, *args[command], "--out", tmp_path / "o"]) == 2
        assert "maximum recursion depth exceeded" in capsys.readouterr().err

    def test_mistyped_intensity_field_exit_2(self, tmp_path):
        bad = tmp_path / "intensity.json"
        component = {"type": "vertex", "rate": 1, "rho": 0.3, "include_loop": "false"}
        bad.write_text(json.dumps({"signature": "(2)", "components": [component]}))
        assert run_cli(["simulate-levy", "--intensity", bad, "--n", 5, "--horizon", 1,
                        "--seed", 1, "--out", tmp_path / "t.csv"]) == 2

    @pytest.mark.parametrize("value", [None, {}, "ab", [1]], ids=["null", "object", "string", "number"])
    @pytest.mark.parametrize("command", ["simulate-levy", "simulate-walk"])
    def test_component_and_entry_lists_must_hold_objects_exit_2(self, tmp_path, capsys, command, value):
        bad = tmp_path / "in.json"
        if command == "simulate-levy":
            field, payload = "components", {"signature": "(1)", "components": value}
            args = ["--intensity", bad, "--n", 5, "--horizon", 1, "--out", tmp_path / "t.csv"]
        else:
            field, payload = "entries", {"signature": "(1)", "n": 2, "entries": value}
            args = ["--measure", bad, "--steps", 2, "--out", tmp_path / "w.csv"]
        bad.write_text(json.dumps(payload))
        assert run_cli([command, *args, "--seed", 1]) == 2
        assert f"'{field}' must" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, field",
        [
            ("intensity.json", "[]", "intensity JSON"),
            ("intensity.json", '"x"', "intensity JSON"),
            ("intensity.json", "1", "intensity JSON"),
            ("intensity.json", "null", "intensity JSON"),
            ("intensity.json", _local_measure('"ab"'), "local component field 'measure'"),
            ("intensity.json", _local_measure("[]"), "local component field 'measure'"),
            ("measure.json", "[]", "measure JSON"),
            ("measure.json", "null", "measure JSON"),
            ("events.jsonl", '{"signature": "(1)", "n": 2, "T": 1.0}\n[1]\n', "event record"),
        ],
        ids=["intensity-array", "intensity-string", "intensity-number", "intensity-null",
             "measure-field-string", "measure-field-array", "measure-array", "measure-null",
             "event-record-array"],
    )
    def test_json_value_must_be_an_object_exit_2(self, tmp_path, capsys, name, text, field):
        path = tmp_path / name
        path.write_text(text)
        args = {
            "intensity.json": ["simulate-levy", "--intensity", path, "--n", 5, "--horizon", 1,
                               "--seed", 1],
            "measure.json": ["simulate-walk", "--measure", path, "--steps", 2, "--seed", 1],
            "events.jsonl": ["estimate-jumps", "--trajectory", path],
        }[name]
        assert run_cli([*args, "--out", tmp_path / "out"]) == 2
        assert f"{field} must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["7", "nan", "-1", "0", "1", "inf"])
    def test_test_level_outside_unit_interval_exit_2(self, tmp_path, measure_file, alpha):
        walk_out = tmp_path / "walk.csv"
        run_cli(["simulate-walk", "--measure", measure_file, "--steps", 40,
                 "--seed", 10, "--out", walk_out])
        out = tmp_path / "report.json"
        assert run_cli(["test-exchangeability", "--trajectory", walk_out,
                        "--alpha", alpha, "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, masses",
        [
            ({}, [math.nan, 1.0]),
            ({}, [math.inf, 0.0]),
            ({}, ["1", 0.0]),
            ({}, [True, 0.0]),
            ({"n": "2"}, [0.5, 0.5]),
            ({"n": True}, [0.5, 0.5]),
            ({"signature": 5}, [0.5, 0.5]),
            ({"entries": [{"structure": 5, "mass": 1.0}]}, []),
        ],
        ids=["nan-mass", "inf-mass", "string-mass", "bool-mass", "string-n",
             "bool-n", "int-signature", "int-structure"],
    )
    def test_mistyped_measure_field_exit_2(self, tmp_path, fields, masses):
        entries = [
            {"structure": f"L=(1)|n=2|R1={{({i})}}", "mass": mass}
            for i, mass in enumerate(masses, start=1)
        ]
        payload = {"signature": "(1)", "n": 2, "entries": entries, **fields}
        bad = tmp_path / "measure.json"
        bad.write_text(json.dumps(payload))
        assert run_cli(["simulate-walk", "--measure", bad, "--steps", 2,
                        "--seed", 1, "--out", tmp_path / "w.csv"]) == 2

    def test_unknown_trajectory_header_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run_cli(["test-exchangeability", "--trajectory", bad,
                        "--out", tmp_path / "r.json"]) == 2

    def test_unknown_event_stream_header_field_exit_2(self, tmp_path, capsys):
        # a misspelt "init" would otherwise start the path from the empty state
        path = tmp_path / "events.jsonl"
        path.write_text('{"T": 1.0, "inti": "L=(1)|n=3|R1={(2)}", "n": 3, "signature": "(1)", '
                        '"zz": 1}\n')
        out = tmp_path / "out" / "measure.json"
        assert run_cli(["estimate-jumps", "--trajectory", path, "--out", out]) == 2
        assert "unknown event-stream header fields: 'inti', 'zz'" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_failed_write_removes_temp_file(self, tmp_path, monkeypatch, intensity_file):
        class FailingFile:
            """Raises on the second slice it is asked to write."""

            def __init__(self, file):
                self.file = file
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, text):
                self.writes += 1
                if self.writes == 2:
                    raise OSError(28, "No space left on device")
                return self.file.write(text)

        real_open = open
        monkeypatch.setattr(cli, "open", lambda *a, **k: FailingFile(real_open(*a, **k)),
                            raising=False)
        monkeypatch.setattr(cli, "_WRITE_SLICE_CHARS", 16)  # several slices per output
        for fmt in ("csv", "jsonl"):
            out = tmp_path / f"t.{fmt}"
            assert run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                            "--horizon", 2.0, "--seed", 1, "--format", fmt,
                            "--out", out]) == 3
            assert not out.exists()
            assert not (tmp_path / f"t.{fmt}.tmp").exists()

    def test_nonpositive_replicates_exit_2(self, tmp_path, measure_file, intensity_file):
        commands = [
            ["simulate-levy", "--intensity", intensity_file, "--n", 4, "--horizon", 1.0],
            ["simulate-walk", "--measure", measure_file, "--steps", 3],
        ]
        for command in commands:
            for replicates in (0, -1):
                with pytest.raises(SystemExit) as exc:
                    run_cli(command + ["--seed", 1, "--replicates", replicates,
                                       "--out", tmp_path / "out.csv"])
                assert exc.value.code == 2
        assert not any(tmp_path.glob("out.csv*")) and not (tmp_path / "manifest.json").exists()

    def test_limit_arguments_checked_before_simulating(self, tmp_path, intensity_file):
        out = tmp_path / "levy.csv"
        for level, grid in [(1, "0.5,7"), (1, "-0.5"), (9, "0.5")]:
            code = run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                            "--horizon", 1.0, "--seed", 2, "--limit-level", level,
                            "--grid", grid, "--out", out])
            assert code == 2
            assert not out.exists() and not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, cap",
        [
            (["orbits", "--signature", "(1)", "--n", 9], "canonicalization cap 8"),
            (["orbits", "--signature", "(2)", "--n", 5], "cap 1000000"),
            (["density", "--structure", "L=(1)|n=60|R1={}", "--level", 4], "cap 10000000"),
            (["simulate-levy", "--intensity", "INTENSITY", "--n", 60, "--horizon", 1.0,
              "--seed", 1, "--limit-level", 4, "--grid", 0.5], "cap 10000000"),
            (["test-exchangeability", "--trajectory", "PATH"], "canonicalization cap 8"),
        ],
        ids=["canonical", "space", "density-injections", "limit-injections", "test-canonical"],
    )
    def test_resource_caps_exit_2(self, tmp_path, capsys, intensity_file, command, cap):
        path = tmp_path / "path.csv"  # an n=9 path with jumps
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        path.write_text(trajectory_to_csv(simulate_levy(I, 9, 1.0, make_rng(1))))
        out = tmp_path / "out" / "result"
        files = {"INTENSITY": intensity_file, "PATH": path}
        assert run_cli([files.get(a, a) for a in command] + ["--out", out]) == 2
        assert f"exceeds {cap}" in capsys.readouterr().err
        assert not out.exists() and not (out.parent / "manifest.json").exists()

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 9, "signature": "(1)", "T": 1.0}\nnot a record\n',
            "time,structure\n0,L=(1)|n=9|R1={(1)}\nnot a row\n",
            "step,structure\n0,L=(1)|n=9|R1={}\nnot a row\n",
        ],
        ids=["event-stream", "csv", "walk-csv"],
    )
    def test_exchangeability_cap_from_first_lines(self, tmp_path, capsys, text):
        # the cap is checked on the n the file's first lines name, before
        # a jump is read, so the malformed line after them is never parsed
        path = tmp_path / "path"
        path.write_text(text)
        out = tmp_path / "out" / "report.json"
        assert run_cli(["test-exchangeability", "--trajectory", path, "--out", out]) == 2
        assert capsys.readouterr().err == "comblevy: n=9 exceeds canonicalization cap 8\n"
        assert not out.parent.exists()

    def test_negative_orbit_size_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out" / "orbits.json"
        assert run_cli(["orbits", "--signature", "(2)", "--n", -1, "--out", out]) == 2
        assert capsys.readouterr().err == "comblevy: n=-1 must be >= 0\n"
        assert not out.parent.exists()

    def test_cell_codes_past_int64_exit_2(self, tmp_path, capsys):
        path = tmp_path / "huge.jsonl"
        path.write_text('{"n": 10000000000, "signature": "(2)", "T": 1.0}\n')
        out = tmp_path / "out" / "measure.json"
        assert run_cli(["estimate-jumps", "--trajectory", path, "--out", out]) == 2
        assert "too large to index cells" in capsys.readouterr().err
        assert not out.exists() and not (out.parent / "manifest.json").exists()

    # The prelude of a child process whose address space is capped at 2 GB.
    CAPPED = (
        "import os, resource, sys\n"
        "for name in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):\n"
        "    os.environ[name] = '1'\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
    )

    def test_state_too_large_to_allocate_exit_2(self, tmp_path):
        # closing the log of this stream needs its final state, whose one
        # cell is the last of n^2, so an n^2-bit int; the child's address
        # space is capped, so it cannot allocate it
        path = tmp_path / "huge.jsonl"
        path.write_text(
            '{"n": 100000000, "signature": "(2)", "T": 1.0}\n'
            '{"increment": "L=(2)|n=100000000|R1={(100000000,100000000)}", "t": 0.5}\n'
        )
        code = self.CAPPED + "from comblevy.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        out = tmp_path / "out" / "measure.json"
        result = run_python(["-c", code, "estimate-jumps", "--trajectory", path, "--out", out], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "n=100000000 needs 1250000000000000 bytes" in result.stderr
        assert not out.exists()

    def test_empty_huge_stream_reads_under_the_cap(self, tmp_path):
        # an empty stream's every state is its empty start, whose relation
        # is the int 0 at any n, so reading it allocates no n^2 bits
        path = tmp_path / "huge.jsonl"
        path.write_text('{"n": 100000000, "signature": "(2)", "T": 1.0}\n')
        code = self.CAPPED + (
            "from comblevy.levy import events_from_jsonl\n"
            "with open(sys.argv[1]) as f:\n"
            "    traj = events_from_jsonl(f)\n"
            "print(len(traj.events), traj.state_at(1.0).is_empty(), list(traj.events)[0][1].n)\n"
        )
        result = run_python(["-c", code, path], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "1 True 100000000\n"

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch, intensity_file):
        path = tmp_path / "levy.csv"
        assert run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                        "--horizon", 1.0, "--seed", 1, "--out", path]) == 0

        def exhausted(traj):
            raise MemoryError

        monkeypatch.setattr(cli, "empirical_jump_measure_json", exhausted)
        out = tmp_path / "out" / "measure.json"
        assert run_cli(["estimate-jumps", "--trajectory", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("comblevy: out of memory: ") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_missing_required_args(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate-walk"])
        assert exc.value.code == 2


def _local_intensity(cells, signature="(3)", rate=1.0):
    """A local intensity on ``signature`` whose pattern law is uniform on
    the one-cell patterns ``cells`` of (3) over [3]."""
    entries = [{"structure": f"L=(3)|n=3|R1={{{cell}}}", "mass": 1 / len(cells)} for cell in cells]
    measure = {"signature": "(3)", "n": 3, "entries": entries}
    return json.dumps({"signature": signature,
                       "components": [{"type": "local", "rate": rate, "measure": measure}]})


# the six cells of (3) on the labels 1, 2, 3: S_3 permutes them
S3_CELLS = ["(1,2,3)", "(1,3,2)", "(2,1,3)", "(2,3,1)", "(3,1,2)", "(3,2,1)"]


class TestLocalArityThree:
    def test_simulate_and_estimate_at_n_100(self, tmp_path):
        intensity, path, out = tmp_path / "local.json", tmp_path / "levy.jsonl", tmp_path / "mu.json"
        intensity.write_text(_local_intensity(S3_CELLS, rate=0.01))
        assert run_cli(["simulate-levy", "--intensity", intensity, "--n", 100, "--horizon", 1.0,
                        "--seed", 1, "--format", "jsonl", "--out", path]) == 0
        assert run_cli(["estimate-jumps", "--trajectory", path, "--out", out]) == 0
        mu = measure_from_json(out.read_text())
        assert len(mu.weights) > 1000  # about 0.01 C(100, 3) = 1617 jumps, nearly all distinct
        for jump in mu.weights:
            (cell,) = jump.tuples(0)
            assert len(set(cell)) == 3

    @pytest.mark.parametrize("text, message", [
        (_local_intensity(["(1,2,3)", "(1,1,2)"]), "cell (1,1,2) of relation 1 does not use all 3"),
        (_local_intensity(S3_CELLS, signature="(2)"), "pattern signature (3) does not fit"),
    ], ids=["missing-label", "signature"])
    def test_invalid_pattern_law_exit_2(self, tmp_path, capsys, text, message):
        intensity = tmp_path / "local.json"
        intensity.write_text(text)
        assert run_cli(["simulate-levy", "--intensity", intensity, "--n", 5, "--horizon", 1.0,
                        "--seed", 1, "--out", tmp_path / "t.csv"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n, horizon", [(4, 100.0), (5, 60.0)])
    def test_exchangeability_accepts_an_invariant_pattern_law(self, tmp_path, n, horizon):
        # about 400 and 600 jumps; each of the 10 runs of this test rejects
        # an exact sampler's path with probability at most 0.001, so the
        # two together have a false-alarm rate of at most 1%
        intensity = tmp_path / "local.json"
        intensity.write_text(_local_intensity(S3_CELLS))
        for seed in range(1, 6):
            path, out = tmp_path / f"levy-{seed}.jsonl", tmp_path / f"report-{seed}.json"
            assert run_cli(["simulate-levy", "--intensity", intensity, "--n", n,
                            "--horizon", horizon, "--seed", seed, "--format", "jsonl",
                            "--out", path]) == 0
            assert run_cli(["test-exchangeability", "--trajectory", path, "--alpha", 0.001,
                            "--out", out]) == 0
            report = json.loads(out.read_text())
            assert report["df"] > 0 and report["alphas"] == {"0.001": False}, report


class TestLoadTrajectory:
    def test_reads_the_open_file_a_piece_at_a_time(self, tmp_path):
        # set-csv's path in each file format, with "\r\n" line ends; the
        # full-state CSVs are 1.8 MB, and their reader holds about one piece
        # of the file at a time, never the whole file as bytes and as text
        traj = simulate_levy(
            LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),)), 1000, 1.0, make_rng(7)
        )
        walk = walk_path(tuple(s for _, s in traj.events))
        for name, text, same in (
            ("levy.csv", trajectory_to_csv(traj), lambda back: back.events == traj.events),
            ("walk.csv", walk_to_csv(walk), lambda back: back == walk),
            ("levy.jsonl", events_to_jsonl(traj), lambda back: back == traj),
        ):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", "\r\n").encode())
            tracemalloc.start()
            try:
                back = cli._load_trajectory(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert same(back)
            if name.endswith(".csv"):
                assert len(text) > 1_500_000 and peak < len(text)


class TestDeterminism:
    def _run_in(self, cwd, args):
        proc = run_comblevy(args, cwd)
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_walk_byte_identical(self, tmp_path, measure_file):
        args = ["simulate-walk", "--measure", measure_file, "--steps", 40,
                "--seed", 123, "--replicates", 2, "--out", "walk.csv"]
        dirs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            self._run_in(d, args)
            dirs.append(d)
        for fname in ("walk.csv.r0", "walk.csv.r1", "manifest.json"):
            assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()

    def test_levy_byte_identical(self, tmp_path, intensity_file):
        args = ["simulate-levy", "--intensity", intensity_file, "--n", 6,
                "--horizon", 3.0, "--seed", 321, "--out", "levy.csv",
                "--limit-level", 1, "--grid", "0.5,1.5"]
        dirs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            self._run_in(d, args)
            dirs.append(d)
        for fname in ("levy.csv", "levy.csv.limits.csv", "manifest.json"):
            assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()

    def test_exchangeability_report_byte_identical(self, tmp_path, measure_file):
        walk = tmp_path / "walk.csv"
        run_cli(["simulate-walk", "--measure", measure_file, "--steps", 400,
                 "--seed", 10, "--out", walk])
        args = ["test-exchangeability", "--trajectory", walk, "--alpha", 0.05,
                "--out", "report.json"]
        dirs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            self._run_in(d, args)
            dirs.append(d)
        for fname in ("report.json", "manifest.json"):
            assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()

    # sha256 of the outputs of the implementation that pulled each injection
    # back cell by cell in Python; the limits on the path as the local kind
    # draws its pair patterns
    PINNED_DENSITY_OUTPUTS = {
        "density": "00aa411bb5abc055adae60881a312c54a83ae4773614eba3eb3f7541fad5a3f4",
        "limits": "74432350d6118047da99b1bf8d53a943c249c8e86b56a58c15b59c07680033ed",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_DENSITY_OUTPUTS))
    def test_density_outputs_pinned(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        Path("graph.json").write_text(json.dumps({"signature": "(2)", "components": [
            {"type": "pair", "rate": 0.2},
            {"type": "vertex", "rate": 1.0, "rho": 0.02},
            {"type": "loop", "rate": 1.0},
        ]}))
        argv, out = {
            "density": (["density", "--structure", "L=(2)|n=5|R1={(1,2);(2,1);(3,3);(4,5)}",
                         "--level", 3, "--out", "d.csv"], "d.csv"),
            "limits": (["simulate-levy", "--intensity", "graph.json", "--n", 30, "--horizon", 0.5,
                        "--seed", 3, "--format", "jsonl", "--limit-level", 2,
                        "--grid", "0.1,0.2,0.5", "--out", "levy.jsonl"], "levy.jsonl.limits.csv"),
        }[name]
        assert run_cli(argv) == 0
        digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        assert digest == self.PINNED_DENSITY_OUTPUTS[name]


class TestProcessExit:
    """How a ``python -m comblevy`` process ends: ``cli.run`` flushes the
    streams and ends it at ``main``'s return, unless ``main`` raises or a
    tracer or profiler is set."""

    def test_validation_error_exit_2(self, tmp_path):
        proc = run_comblevy(["orbits", "--signature", "(2)", "--n", -1, "--out", "o.json"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "comblevy: n=-1 must be >= 0\n" and proc.stdout == ""
        assert not (tmp_path / "o.json").exists()

    def test_missing_input_exit_3(self, tmp_path):
        proc = run_comblevy(["estimate-jumps", "--trajectory", "nope.csv", "--out", "m.json"], tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == "comblevy: file not found: nope.csv\n"

    def test_usage_error_exit_2(self, tmp_path):
        proc = run_comblevy(["simulate-walk"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: comblevy simulate-walk")
        assert "error: the following arguments are required" in proc.stderr

    def test_version_exit_0(self, tmp_path):
        proc = run_comblevy(["--version"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{comblevy.__version__}\n"

    def test_outputs_match_the_in_process_run(self, tmp_path, intensity_file, monkeypatch):
        args = ["simulate-levy", "--intensity", intensity_file, "--n", 6, "--horizon", 3.0,
                "--seed", 321, "--replicates", 2, "--limit-level", 1, "--grid", "0.5,1.5",
                "--out", "levy.csv"]
        child, here = tmp_path / "child", tmp_path / "here"
        child.mkdir()
        here.mkdir()
        proc = run_comblevy(args, child)
        assert proc.returncode == 0 and proc.stdout == proc.stderr == "", proc.stderr
        monkeypatch.chdir(here)
        assert run_cli(args) == 0
        names = sorted(path.name for path in child.iterdir())
        assert len(names) == 5 and names == sorted(path.name for path in here.iterdir())
        for name in names:
            assert (child / name).read_bytes() == (here / name).read_bytes(), name

    def test_cprofile_writes_its_profile(self, tmp_path):
        proc = run_python(["-m", "cProfile", "-o", "prof.out", "-m", "comblevy", "orbits",
                           "--signature", "(2)", "--n", 3, "--out", "o.json"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "prof.out").stat().st_size > 0 and (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_exit_handlers_run_only_under_a_tracer(self, tmp_path, traced):
        script = (
            "import atexit, sys\n"
            "from comblevy import cli\n"
            "if sys.argv[1] == 'traced':\n"
            "    sys.settrace(lambda *args: None)\n"
            "atexit.register(print, 'teardown')\n"
            "print('buffered', end='')\n"
            "sys.argv[1:] = ['orbits', '--signature', '(1)', '--n', '3', '--out', 'o.json']\n"
            "cli.run()\n"
        )
        proc = run_python(["-c", script, "traced" if traced else "plain"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("bufferedteardown\n" if traced else "buffered")
        assert (tmp_path / "o.json").exists()


class TestImportCost:
    def test_simulate_levy_leaves_scipy_unloaded(self, tmp_path, intensity_file):
        # no command needs scipy; importing it costs a process ~0.15 s
        script = (
            "import sys\n"
            "import comblevy\n"
            "import comblevy.cli\n"
            "loaded = 'scipy' in sys.modules\n"
            "code = comblevy.cli.main(sys.argv[1:])\n"
            "print(code, loaded, 'scipy' in sys.modules)\n"
        )
        proc = run_python(
            ["-c", script, "simulate-levy", "--intensity", intensity_file,
             "--n", 5, "--horizon", 2.0, "--seed", 3, "--format", "jsonl",
             "--out", "levy.jsonl"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "False"]

    def test_test_exchangeability_leaves_scipy_unloaded(self, tmp_path, measure_file):
        walk = tmp_path / "walk.csv"
        assert run_cli(["simulate-walk", "--measure", measure_file, "--steps", 200,
                        "--seed", 4, "--out", walk]) == 0
        script = (
            "import sys\n"
            "import comblevy.cli\n"
            "code = comblevy.cli.main(sys.argv[1:])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        proc = run_python(
            ["-c", script, "test-exchangeability", "--trajectory", walk,
             "--out", "report.json"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]


class TestLazyNamespace:
    """``import comblevy`` loads no submodule; a public name loads its home
    submodule, and what that imports, on first access."""

    def loaded(self, tmp_path, statement: str) -> set[str]:
        script = f"import sys\n{statement}\nprint(*[m for m in sys.modules if m.startswith('comblevy')])\n"
        proc = run_python(["-c", script], tmp_path)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_import_loads_no_submodule(self, tmp_path):
        assert self.loaded(tmp_path, "import comblevy") == {"comblevy"}

    def test_reading_an_intensity_loads_only_what_levy_imports(self, tmp_path):
        # the imports of the benchmark's setup step
        loaded = self.loaded(
            tmp_path,
            "from comblevy import intensity_from_json, measure_from_json\n"
            "from comblevy.levy import RestrictedIntensity",
        )
        assert "comblevy.levy" in loaded
        assert not loaded & {"comblevy.walk", "comblevy.limits", "comblevy.inference", "comblevy.rng"}

    def test_names_resolve_to_their_home_modules(self, tmp_path):
        script = (
            "import importlib\n"
            "import comblevy\n"
            "listed = set(dir(comblevy))\n"
            "print(*[n for n in comblevy.__all__ if n not in listed])\n"
            "print(*[n for n in comblevy.__all__ if getattr(comblevy, n) is not getattr(\n"
            "    importlib.import_module(f'comblevy.{comblevy._HOMES[n]}'), n)])\n"
            "print(hasattr(comblevy, 'no_such_name'), comblevy.walk.__name__, comblevy.__version__)\n"
        )
        proc = run_python(["-c", script], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["", "", "False comblevy.walk 0.1.0", ""]


class TestTracerContract:
    """What the benchmark's tracer (``bench/tracing.py``) needs for its
    per-layer metrics: it wraps every ``comblevy.<layer>`` function that
    ``comblevy.cli`` binds, named by its ``__module__``, re-binds
    ``LevyTrajectory.jump_increments`` for ``levy.jump_increments_s`` and
    takes ``len()`` of each writer's result for ``levy.write_bytes``."""

    # the functions whose spans give layer metrics, with their home modules
    WRAPPED = {
        "simulate_levy": levy,
        "events_to_jsonl": levy,
        "events_from_jsonl": levy,
        "trajectory_to_csv": levy,
        "trajectory_from_csv": levy,  # levy.read_s
        "walk_from_csv": walk,  # walk.from_csv_s
        "chi_square_exchangeability": inference,  # inference.*
    }

    def test_cli_binds_the_layer_functions(self):
        for name, home in self.WRAPPED.items():
            assert getattr(cli, name) is getattr(home, name)
            assert getattr(cli, name).__module__ == home.__name__

    def test_writers_return_text_and_jsonl_reads_jump_increments(
        self, tmp_path, intensity_file, monkeypatch
    ):
        calls, results = [], {}
        jump_increments = LevyTrajectory.jump_increments

        def counted(traj):
            calls.append(traj)
            return jump_increments(traj)

        def recorded(name):
            writer = getattr(cli, name)
            return lambda *args, **kwargs: results.setdefault(name, writer(*args, **kwargs))

        monkeypatch.setattr(LevyTrajectory, "jump_increments", counted)
        for name in ("events_to_jsonl", "trajectory_to_csv"):
            monkeypatch.setattr(cli, name, recorded(name))
        for fmt in ("jsonl", "csv"):
            out = tmp_path / f"levy.{fmt}"
            assert run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                            "--horizon", 2.0, "--seed", 6, "--format", fmt, "--out", out]) == 0
            if fmt == "jsonl":
                assert len(calls) == 1
        for name, text in results.items():
            assert type(text) is str
            assert text == (tmp_path / ("levy.jsonl" if "jsonl" in name else "levy.csv")).read_text()
