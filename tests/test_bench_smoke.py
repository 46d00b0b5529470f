"""The benchmark's two workloads, end to end and traced, for one second each.

``bench/run.py`` prints its JSON result as the last line of standard output,
into a block-buffered pipe here.  The traced run (``--trace 1``) imports the
package into the bench process, replays every CLI step through
``comblevy.cli.main`` and calls ``limit_path`` in process, so anything the
package lets run there that ends the process before the result is flushed,
or writes after it, shows as a missing or unparsable last line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["graph-stream", "set-csv"])
def test_run_ends_with_a_correct_result_line(workload, trace, tmp_path):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--trace", str(trace)]
    argv += ["--seconds", "1", "--out", str(tmp_path / f"{workload}-{trace}.json")]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines, f"no output; stderr:\n{run.stderr}"
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["graph-stream", "set-csv", "community-exch"], ids=["2", "1", "1,2"])
def test_per_kind_sampler_probes(workload, monkeypatch):
    # the traced run's per-kind sampler probes, on each workload's
    # signature; no tier-1 test runs community-exch, the (1,2) workload
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing
    import workloads

    levy = workloads.WORKLOADS[workload].levy
    intensity = json.dumps({"signature": levy.signature, "components": levy.components})
    metrics = tracing.levy_probes(intensity, levy.n, workloads.walk_measure_json(), 7, draws=20)
    kinds = ["explicit", "loop", "mixture", "pair", "set_singleton", "vertex"]
    assert sorted(k for k in metrics if k.startswith("levy.sample_us.")) == [
        f"levy.sample_us.{kind}" for kind in kinds
    ]
    assert all(0 < value < float("inf") for value in metrics.values())
