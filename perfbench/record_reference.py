"""Record reference output digests for seeds 0-9 of each workload.

    python3 perfbench/record_reference.py [workload ...]

Run it at a commit whose outputs are known to be right: it runs every
operation of each pool once, refuses to record an output that fails the
cross-checks, and writes perfbench/reference/<workload>.json.  run.py then
compares each output of a later commit with these digests when it runs
one of the recorded seeds.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads

SEEDS = range(10)


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(workloads.WORKLOADS)
    pkg = run.import_package()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names:
        seeds = {}
        for seed in SEEDS:
            runner = run.Runner(pkg, workloads.generate(workload, seed))
            runner.run_pass()
            runner.check(None)
            if runner.failed:
                raise SystemExit(f"{workload} seed {seed}: {runner.problems}")
            outputs = [checks.digest(output) for _, output in runner.first]
            seeds[str(seed)] = {"pool": checks.pool_digest(runner.ops), "outputs": outputs}
        path = checks.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps({"commit": run.commit(), "seeds": seeds}, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
