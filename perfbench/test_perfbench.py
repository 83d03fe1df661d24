"""Tests of the benchmark itself, at the smallest size.

    python3 -m pytest perfbench

They run a handful of tiny operations in-process (plus one one-pass
subprocess run of the sweep workload), so they take seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import compare
import run
import tracing
import workloads
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PKG = run.import_package()

# One tiny operation of every kind, together touching every traced layer.
SMALL = [
    Op("cli", ("compare", "--y", "2", "--n", "10,1000", "--format", "csv")),
    Op("cli", ("eval", "--y", "3/2", "--n", "50,100000", "--format", "json")),
    Op("cli", ("solve", "--y", "100", "--n", "20", "--format", "table")),
    Op("cli", ("approx", "--y", "1.001", "--n", "3000", "--format", "csv")),
    Op("cli", ("quadcheck", "--y", "2", "--n", "3", "--format", "csv")),
    Op("cli", ("monotone", "--y", "3/2", "--N", "4", "--R", "3")),
    Op("exact", ("40", "2")),
]


def one_pass(ops=SMALL) -> run.Runner:
    runner = run.Runner(PKG, ops)
    runner.run_pass()
    return runner


def printed(capsys, runner, metrics, trace, tmp_path):
    summary = run.report("small", 0, trace, runner, 0.0, metrics, run.fingerprint(PKG), tmp_path)
    out = capsys.readouterr().out
    return summary, out


def test_every_end_to_end_metric_prints_with_its_unit(capsys, tmp_path):
    runner = one_pass()
    summary, out = printed(capsys, runner, run.end_to_end_metrics(runner, 0.1), 0, tmp_path)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    for name, unit in list(expected.items()) + [("fail_frac", "ratio")]:
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in out.splitlines()), name
    assert "(p" in out and f"of {len(SMALL)} operations" in out
    assert summary["correct"] and summary["failed"] == 0


def test_every_per_layer_metric_prints_with_its_unit(capsys, tmp_path):
    runner = run.Runner(PKG, SMALL)
    summary, out = printed(capsys, runner, run.trace_run(runner, 0, tmp_path, "small"), 1, tmp_path)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in out.splitlines()), name
    assert summary["correct"]
    assert (tmp_path / "small-spans.jsonl").read_text().count("\n") > 0


def test_traced_and_untraced_runs_give_identical_outputs():
    untraced = [run.run_op(PKG, op) for op in SMALL]
    tracer = tracing.Tracer()
    original = PKG.solvers.lambert_w
    with tracer.installed():
        assert PKG.asymptotics.solve_r is PKG.solvers.solve_r
        assert PKG.asymptotics.solve_r.__wrapped__ is not None
        traced = [run.run_op(PKG, op) for op in SMALL]
    assert traced == untraced
    assert PKG.solvers.lambert_w is original
    assert tracer.counts["polyeval.exact.calls"] > 0 and tracer.counts["quadrature.points"] > 0


def test_counts_from_compare_rows_and_self_times_cover_the_wall(tmp_path):
    runner = run.Runner(PKG, [Op("cli", ("compare", "--y", "4", "--n", "10,10000,100000000", "--format", "csv"))])
    metrics = run.trace_run(runner, 0, tmp_path, "compare")
    assert metrics["cli.rows"]["value"] == 3
    assert metrics["solvers.lambert_w.calls"]["value"] == 4 * 3
    assert metrics["solvers.solve_r.calls"]["value"] == 2 * 3
    assert metrics["polyeval.log.calls"]["value"] == 3
    layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    assert 0.9 * metrics["trace.wall_s"]["value"] < layers <= metrics["trace.wall_s"]["value"]


def test_reference_with_one_corrupted_digit_fails():
    runner = one_pass()
    good = {"pool": checks.pool_digest(SMALL), "outputs": [checks.digest(out) for _, out in runner.first]}
    runner.check(good)
    assert runner.failed == 0
    bad = dict(good, outputs=list(good["outputs"]))
    digit = bad["outputs"][2][5]
    bad["outputs"][2] = bad["outputs"][2][:5] + ("0" if digit != "0" else "1") + bad["outputs"][2][6:]
    runner.check(bad)
    assert runner.failed / runner.attempted > 0
    assert "reference digest" in runner.problems[2][-1]


def test_output_with_one_corrupted_digit_fails_the_cross_checks():
    op = Op("cli", ("eval", "--y", "2", "--n", "30", "--format", "csv"))
    status, text = run.run_op(PKG, op)
    assert checks.check(op, status, text, PKG.eval_exact, PKG.eval_log) == []
    header, row = text.splitlines()
    fields = row.split(",")
    log_f = fields[2]
    i = len(log_f) - 8  # a digit near the end, where only the exact check can see it
    fields[2] = log_f[:i] + str((int(log_f[i]) + 1) % 10) + log_f[i + 1:]
    corrupted = header + "\n" + ",".join(fields) + "\n"
    assert checks.check(op, status, corrupted, PKG.eval_exact, PKG.eval_log)


def test_nonzero_exit_and_exceptions_count_as_failures():
    runner = one_pass([Op("cli", ("eval", "--y", "1/2", "--n", "5")), Op("exact", ("-1", "2"))])
    runner.check(None)
    assert runner.failed == runner.attempted == 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_seeded_and_stay_inside_the_caps(workload):
    ops = workloads.generate(workload, 3)
    assert ops == workloads.generate(workload, 3)
    assert ops != workloads.generate(workload, 4)
    assert len(ops) > run.TAIL_BEYOND
    for op in ops:
        if op.kind == "exact":
            assert int(op.args[0]) <= PKG.EXACT_MODE_CAP
        elif op.args[0] == "quadcheck":
            assert max(map(int, op.args[4].split(","))) <= PKG.cli.QUADCHECK_N_CAP
        elif op.args[0] == "monotone":
            assert int(op.args[4]) + int(op.args[6]) <= PKG.EXACT_MODE_CAP


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_recorded_references_belong_to_the_current_pools(workload):
    for seed in range(10):
        reference = checks.load_reference(workload, seed)
        assert reference["pool"] == checks.pool_digest(workloads.generate(workload, seed))


def test_compare_refuses_a_different_backend(tmp_path, capsys):
    for side, backend in (("base", "python"), ("head", "gmpy")):
        (tmp_path / side).mkdir()
        result = {
            "workload": "sweep",
            "env": {"backend": backend, "nproc": 2},
            "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]},
        }
        (tmp_path / side / "sweep-seed0-trace0.json").write_text(json.dumps(result))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 2
    assert "refusing" in capsys.readouterr().err


def test_one_pass_of_the_sweep_workload_end_to_end(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "sweep", "--seed", "0",
         "--seconds", "0", "--trace", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 128
