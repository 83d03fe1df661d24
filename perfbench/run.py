"""Closed-loop benchmark of the lacunary_asym package.

    python3 perfbench/run.py --workload {sweep,near-one,verify} --seed N \
        --seconds S --trace {0,1} [--out DIR]

One process, one thread, one client: each operation starts when the
previous one returns.  An operation is one in-process
``lacunary_asym.cli.main(argv)`` call with stdout captured, or one library
``eval_exact(n, y)`` call.  The seeded pool of operations (workloads.py)
runs in whole passes until ``--seconds`` have elapsed; every call is timed
from outside.

--trace 0 reports the end-to-end metrics with tracing off:
  ops_per_s    operations completed per second of time spent in operations
  op_p50_ms    median latency of one operation
  op_tail_ms   latency at the highest percentile that has 10 samples
               beyond it, where a sample is one operation of the pool timed
               as its median over the passes, so the percentile does not
               move when a faster commit fits one more pass into the run
               (percentile and count are printed beside it)
  setup_s      median over fresh processes of the time from interpreter
               start to the first operation being ready (imports and
               workload generation)
  peak_rss_mb  peak resident set of this process
  fail_frac    failed / attempted operations (printed and written to the
               result file; the last line carries it as failed/attempted)
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py per pass, plus trace.overhead_frac (traced over
untraced wall time, minus 1) and trace.wall_s (traced wall time of a pass).

Outputs are checked outside the timed region (checks.py): an operation
fails if it raises, exits non-zero, changes its output between passes or
fails a check.  The last line of stdout is the JSON summary
{"correct", "attempted", "failed", "metrics"}; the full result, with the
environment fingerprint, goes to DIR (default .bench_out) and, with
--trace 1, the spans too.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_package():
    """Import lacunary_asym from this checkout's src/, and nowhere else."""
    if not (SRC / "lacunary_asym" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'lacunary_asym'}")
    sys.path.insert(0, str(SRC))
    import lacunary_asym
    import lacunary_asym.cli

    if Path(lacunary_asym.__file__).resolve().parent != SRC / "lacunary_asym":
        raise SystemExit(f"error: imported lacunary_asym from {lacunary_asym.__file__}, not {SRC}")
    return lacunary_asym


def run_op(pkg, op):
    """Run one operation; returns (exit status, output)."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = pkg.cli.main(list(op.args))
        return status, out.getvalue()
    n, y = op.args
    return 0, pkg.polyeval.eval_exact(int(n), Fraction(y))


class Runner:
    """Runs passes over one operation pool and keeps what the checks need."""

    def __init__(self, pkg, ops) -> None:
        self.pkg = pkg
        self.ops = ops
        self.latencies: List[List[float]] = [[] for _ in ops]
        self.first: List[Optional[tuple]] = [None] * len(ops)
        self.attempts = [0] * len(ops)
        self.failures = [0] * len(ops)
        self.problems: Dict[int, List[str]] = {}

    def _fail(self, i: int, problem: str) -> None:
        self.failures[i] += 1
        self.problems.setdefault(i, []).append(problem)

    def run_pass(self, tracer=None) -> float:
        """One pass over the pool; returns its wall time in seconds."""
        start = perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = self.attempted
            self.attempts[i] += 1
            t0 = perf_counter()
            try:
                result = run_op(self.pkg, op)
            except Exception:  # an operation that raises is a failed operation
                self._fail(i, traceback.format_exc(limit=4))
                continue
            elapsed = perf_counter() - t0
            if tracer is None:
                self.latencies[i].append(elapsed)
            if self.first[i] is None:
                self.first[i] = result
            elif result != self.first[i]:
                self._fail(i, "output differs from the first pass")
        return perf_counter() - start

    def check(self, reference) -> None:
        """Cross-check each operation's output once; a failed check fails
        every attempt of that operation."""
        if reference is not None and reference["pool"] != checks.pool_digest(self.ops):
            reference = None
            self.problems.setdefault(-1, []).append("reference digests were recorded for another pool")
            self.failures = list(self.attempts)
        for i, op in enumerate(self.ops):
            if self.first[i] is None:
                continue
            status, output = self.first[i]
            try:
                problems = checks.check(op, status, output, self.pkg.eval_exact, self.pkg.eval_log)
            except Exception:  # malformed output is a failed check
                problems = [traceback.format_exc(limit=4)]
            if reference is not None and checks.digest(output) != reference["outputs"][i]:
                problems.append("output differs from the reference digest")
            if problems:
                self.failures[i] = self.attempts[i]
                self.problems.setdefault(i, []).extend(problems)

    @property
    def attempted(self) -> int:
        return sum(self.attempts)

    @property
    def failed(self) -> int:
        return sum(min(f, a) for f, a in zip(self.failures, self.attempts))


def end_to_end_metrics(runner: Runner, setup_s: float) -> Dict[str, dict]:
    samples = [t for op_samples in runner.latencies for t in op_samples]
    per_op = sorted(statistics.median(op_samples) for op_samples in runner.latencies if op_samples)
    tail_rank = max(len(per_op) - TAIL_BEYOND, 1)  # 1-based
    metrics = {
        "ops_per_s": len(samples) / sum(samples) if samples else 0.0,
        "op_p50_ms": statistics.median(samples) * 1e3 if samples else 0.0,
        "op_tail_ms": per_op[tail_rank - 1] * 1e3 if per_op else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    out["op_tail_ms"]["percentile"] = 100.0 * tail_rank / len(per_op) if per_op else 0.0
    out["op_tail_ms"]["samples"] = len(per_op)
    return out


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> float:
    """Median time for a fresh interpreter to import and generate the pool."""
    times = []
    for _ in range(probes):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(ready)
    return statistics.median(times)


def trace_run(runner: Runner, seconds: float, out_dir: Path, stem: str) -> Dict[str, dict]:
    """Alternate untraced and traced passes; per-layer metrics per pass."""
    runner.run_pass()  # fills lazy caches before the paired passes
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    pairs = 0
    origin = perf_counter()
    while pairs == 0 or perf_counter() - origin < seconds:
        untraced += runner.run_pass()
        with tracer.installed():
            traced += runner.run_pass(tracer)
        pairs += 1
    tracer.write_spans(out_dir / f"{stem}-spans.jsonl", origin)
    metrics = {f"{layer}.self_s": {"value": t / pairs, "unit": "s"} for layer, t in tracer.self_times().items()}
    for name, unit in tracing.COUNTERS:
        count = tracer.counts.get(name, 0)
        metrics[name] = {"value": count // pairs if count % pairs == 0 else count / pairs, "unit": unit}
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1, "unit": "ratio"}
    metrics["trace.wall_s"] = {"value": traced / pairs, "unit": "s"}
    return metrics


def fingerprint(pkg) -> Dict[str, object]:
    import mpmath
    import mpmath.libmp

    return {
        "commit": commit(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "default_bits": int(os.environ.get(pkg.cli.BITS_ENV_VAR) or pkg.cli.DEFAULT_BITS),
    }


def commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(workload: str, seed: int, trace: int, runner: Runner, passes_s: float,
           metrics: Dict[str, dict], env: Dict[str, object], out_dir: Path) -> dict:
    attempted, failed = runner.attempted, runner.failed
    passes = max(runner.attempts)
    print(f"perfbench {workload} seed={seed} trace={trace}: "
          f"{passes} passes x {len(runner.ops)} operations in {passes_s:.1f} s")
    for name, m in metrics.items():
        extra = f"  (p{m['percentile']:.1f} of {m['samples']} operations)" if "percentile" in m else ""
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_frac':<26} {failed / attempted:.6g} ratio  ({failed} of {attempted} attempts)")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for i, problems in sorted(runner.problems.items()):
        label = runner.ops[i].label if i >= 0 else "pool"
        print(f"  FAILED {label}: {problems[0].strip().splitlines()[-1]}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    result = dict(summary, workload=workload, seed=seed, trace=trace, env=env,
                  fail_frac=failed / attempted, details=metrics, passes=passes,
                  latencies_s=runner.latencies,
                  problems={str(i): p for i, p in runner.problems.items()})
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pkg = import_package()
    ops = workloads.generate(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    runner = Runner(pkg, ops)
    args.out.mkdir(parents=True, exist_ok=True)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    start = perf_counter()
    if args.trace:
        metrics = trace_run(runner, args.seconds, args.out, f"{args.workload}-seed{args.seed}")
    else:
        while True:
            runner.run_pass()
            if perf_counter() - start >= args.seconds:
                break
        metrics = end_to_end_metrics(runner, setup_s)
    passes_s = perf_counter() - start
    runner.check(checks.load_reference(args.workload, args.seed))
    summary = report(args.workload, args.seed, args.trace, runner, passes_s, metrics, fingerprint(pkg), args.out)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
