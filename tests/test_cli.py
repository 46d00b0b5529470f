import json
from pathlib import Path

import pytest

from comblevy.cli import main
from comblevy.levy import (
    LevyIntensity,
    SetSingletonComponent,
    intensity_to_json,
    trajectory_from_csv,
)
from comblevy.measures import (
    decompose_exchangeable,
    measure_from_json,
    measure_to_json,
    urn_measure,
)
from comblevy.structures import Signature, empty_structure, serialize
from comblevy.walk import walk_from_csv

from helpers import run_comblevy, run_python

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
        from comblevy.measures import point_mass_at_empty

        mf = tmp_path / "pm.json"
        mf.write_text(measure_to_json(point_mass_at_empty(SIG1, 2)))
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

    def test_limit_level_requires_grid(self, tmp_path, intensity_file):
        code = run_cli(["simulate-levy", "--intensity", intensity_file, "--n", 4,
                        "--horizon", 1.0, "--seed", 2, "--limit-level", 1,
                        "--out", tmp_path / "x.csv"])
        assert code == 2


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
        out = tmp_path / "jumps.json"
        assert run_cli(["estimate-jumps", "--trajectory", walk_out, "--out", out]) == 0
        mu = measure_from_json(out.read_text())
        assert abs(mu.total_mass - 1.0) <= 1e-12

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
        from comblevy.measures import point_mass_at_empty

        mf = tmp_path / "pm.json"
        mf.write_text(measure_to_json(point_mass_at_empty(SIG1, 2)))
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


class TestErrorHandling:
    def test_missing_file_exit_3(self, tmp_path):
        assert run_cli(["estimate-jumps", "--trajectory", tmp_path / "none.csv",
                        "--out", tmp_path / "o.json"]) == 3

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_cli(["simulate-walk", "--measure", bad, "--steps", 2,
                        "--seed", 1, "--out", tmp_path / "w.csv"]) == 2

    def test_mistyped_intensity_field_exit_2(self, tmp_path):
        bad = tmp_path / "intensity.json"
        component = {"type": "vertex", "rate": 1, "rho": 0.3, "include_loop": "false"}
        bad.write_text(json.dumps({"signature": "(2)", "components": [component]}))
        assert run_cli(["simulate-levy", "--intensity", bad, "--n", 5, "--horizon", 1,
                        "--seed", 1, "--out", tmp_path / "t.csv"]) == 2

    def test_unknown_trajectory_header_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run_cli(["test-exchangeability", "--trajectory", bad,
                        "--out", tmp_path / "r.json"]) == 2

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

    def test_missing_required_args(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate-walk"])
        assert exc.value.code == 2


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


class TestImportCost:
    def test_simulate_levy_leaves_scipy_unloaded(self, tmp_path, intensity_file):
        # only test-exchangeability needs scipy; it costs a process ~0.15 s
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
