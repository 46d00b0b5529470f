"""Fresh-interpreter steps of the benchmark, run as their own processes.

    python3 child.py setup INTENSITY_JSON N [MEASURE_JSON]
        import comblevy and build the level-N restricted intensity (and load
        the walk measure): the fixed cost every CLI call pays.
    python3 child.py read-back TRAJECTORY_JSONL
        load an event stream through the library's reader and print a JSON
        summary of it (signature, n, horizon, events, last event time).

The parent sets PYTHONPATH to the package source.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "setup":
        from comblevy import intensity_from_json, measure_from_json
        from comblevy.levy import RestrictedIntensity

        intensity = intensity_from_json(Path(argv[1]).read_text())
        RestrictedIntensity(intensity, int(argv[2]))
        if len(argv) == 4:
            measure_from_json(Path(argv[3]).read_text())
        return 0
    if len(argv) == 2 and argv[0] == "read-back":
        from comblevy.levy import events_from_jsonl
        from workloads import trajectory_summary

        traj = events_from_jsonl(Path(argv[1]).read_text())
        print(json.dumps(trajectory_summary(traj)))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
