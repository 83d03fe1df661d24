"""Compare two sets of end-to-end results written by run.py.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Reads every ``*-trace0.json`` in both directories, groups the runs by
workload and prints, for each end-to-end metric of BENCHMARK.json, the
median and quartiles of each side and the change of the medians against
the metric's bound.  A change is unresolved when the base runs spread
(quartile distance over median) more than the bound.

Refuses to compare (exit 2) when the runs do not all share one mpmath
backend and one core count: those change the timings wholesale.  Exits 1
when some metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MUST_MATCH = ("backend", "nproc")


def load(directory: Path):
    runs = defaultdict(list)
    for path in sorted(directory.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        runs[result["workload"]].append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, head = load(Path(argv[0])), load(Path(argv[1]))
    envs = {tuple(r["env"][k] for k in MUST_MATCH) for side in (base, head) for rs in side.values() for r in rs}
    if len(envs) > 1:
        print(f"refusing to compare runs with different {'/'.join(MUST_MATCH)}: {sorted(envs)}", file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    regressed = False
    for workload in sorted(set(base) & set(head)):
        print(f"{workload}: {len(base[workload])} base runs, {len(head[workload])} head runs")
        for m in metrics:
            b = quartiles([r["metrics"][m["name"]]["value"] for r in base[workload]])
            h = quartiles([r["metrics"][m["name"]]["value"] for r in head[workload]])
            change = (h[1] - b[1]) / b[1]
            worse = change if m["better"] == "lower" else -change
            if (b[2] - b[0]) / b[1] > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressed = True
            else:
                verdict = "ok"
            print(
                f"  {m['name']:<12} base {b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]  head {h[1]:.5g} "
                f"[{h[0]:.5g}, {h[2]:.5g}] {m['unit']}  change {change:+.1%} (bound {m['bound']:.0%})  {verdict}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
