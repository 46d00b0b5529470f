"""Compare two sets of benchmark results, one row per workload and metric.

    python3 bench/run.py --compare BASE NEW

BASE and NEW are each a result file written by ``run.py`` or a directory of
them, for example ten runs of each workload with different seeds.  A side's
values of a metric are the values its runs reported, one per run (the
median over that run's passes), which is the statistic the bounds in
BENCHMARK.json were set from.  Each workload first gets an ``operations``
row with both sides' attempted and failed operation counts.  Each metric row
shows both sides' median and quartiles and a verdict against the metric's
bound:

* ``failed``      the new side failed a larger share of its operations than
                  the base did; its timings get no verdict (the operations row
                  reads ``worse``);
* ``unresolved``  either side's quartile spread exceeds the bound;
* ``worse``       the new median is worse than the base by more than the bound;
* ``better``      the new median is better by more than the base's spread;
* ``same``        otherwise.

Per-layer metrics have no bound, so their rows carry no verdict.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


class Side:
    """The runs of one side: per-run metric values and operation counts."""

    def __init__(self, path: str):
        p = Path(path)
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        self.values: dict[tuple[str, str], list[float]] = {}
        self.ops: dict[str, list[int]] = {}  # workload -> [attempted, failed]
        for f in files:
            record = json.loads(f.read_text())
            if "workload" not in record or "metrics" not in record:
                continue
            ops = self.ops.setdefault(record["workload"], [0, 0])
            ops[0] += record["attempted"]
            ops[1] += record["failed"]
            for name, metric in record["metrics"].items():
                self.values.setdefault((record["workload"], name), []).append(metric["value"])

    def failed_share(self, workload: str) -> float:
        attempted, failed = self.ops.get(workload, [0, 0])
        return failed / attempted if attempted else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    if bound is None:
        return ""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    base_spread = (b3 - b1) / abs(bm) if bm else 0.0
    new_spread = (n3 - n1) / abs(nm) if nm else 0.0
    if max(base_spread, new_spread) > bound:
        return "unresolved"
    change = (nm - bm) / abs(bm) if bm else 0.0
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if -worse_by > base_spread:
        return "better"
    return "same"


def compare(base_path: str, new_path: str, spec_path: Path) -> int:
    spec = json.loads(Path(spec_path).read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = Side(base_path), Side(new_path)
    print(f"{'workload':<15} {'metric':<36} {'n':>5} "
          f"{'base median [q1, q3]':>34} {'new median [q1, q3]':>34}  verdict")
    failing = set()
    for workload in sorted(set(base.ops) & set(new.ops)):
        cells = [f"{a} attempted, {f} failed" for a, f in (base.ops[workload], new.ops[workload])]
        worse = new.failed_share(workload) > base.failed_share(workload)
        if worse:
            failing.add(workload)
        print(f"{workload:<15} {'operations':<36} {'':>5} {cells[0]:>34} {cells[1]:>34}  "
              f"{'worse' if worse else 'same'}")
    for key in sorted(set(base.values) & set(new.values)):
        workload, name = key
        m = meta.get(name, {"better": "lower"})
        cells = []
        for values in (base.values[key], new.values[key]):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        count = f"{len(base.values[key])}/{len(new.values[key])}"
        mark = verdict(base.values[key], new.values[key], m["better"], m.get("bound"))
        if mark and workload in failing:
            mark = "failed"
        print(f"{workload:<15} {name:<36} {count:>5} {cells[0]:>34} {cells[1]:>34}  {mark}")
    for key in sorted(set(base.values) ^ set(new.values)):
        side = "base" if key in base.values else "new"
        print(f"{key[0]:<15} {key[1]:<36} only in {side}")
    return 0
