"""Tests of the benchmark itself; run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    cli, _ = run._import_liarsim()
    return cli


def _outputs(ops) -> dict[str, bytes]:
    return {op.key: b"\0".join(p.read_bytes() for p in op.outputs) for op in ops}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_has_no_failed_ops(workload, cli, tmp_path):
    ops = workloads.build(workload, 1, tmp_path, tiny=True)
    runner = run.Runner(cli)
    result = runner.run_pass(ops)
    assert runner.failures == []
    assert result["failed"] == 0
    assert len(result["latencies"]) == len(ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_writes_the_same_outputs(workload, cli, tmp_path):
    ops = workloads.build(workload, 2, tmp_path, tiny=True)
    runner = run.Runner(cli)
    runner.run_pass(ops)
    plain = _outputs(ops)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_result = runner.run_pass(ops)
    finally:
        tracer.uninstall()
    assert traced_result["failed"] == 0, runner.failures
    assert _outputs(ops) == plain

    spans = tracer.take()
    assert any(name == "cli.main" for name, *_ in spans)
    import liarsim.statevec
    assert not hasattr(liarsim.statevec.apply_gate, "__wrapped__")


def test_scaling_divides_out_host_speed():
    fast = {"latencies": [0.010, 0.020, 0.030], "ref_s": [run.REF_LOOP_S] * 3}
    slow = {"latencies": [0.015, 0.030, 0.045], "ref_s": [1.5 * run.REF_LOOP_S] * 3}
    assert run.op_latencies([fast, slow, slow]) == pytest.approx([0.010, 0.020, 0.030])
    assert run.op_latencies([fast, slow, slow], scaled=False) == [0.015, 0.030, 0.045]


def test_layer_metrics_cover_benchmark_json(cli, tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.main(["verify", "--pairs", "1", "--out", str(tmp_path / "v.json")])
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.take())
    assert set(metrics) | {"setup.import_s", "trace_overhead_frac"} == names
    assert metrics["statevec.basis_state.calls"] > 0


def test_checks_reject_wrong_outputs(cli, tmp_path):
    ops = workloads.build("wide-exact", 3, tmp_path, tiny=True)
    dense = next(op for op in ops if op.kind == "dense")
    assert cli.main(dense.calls[0]) == 0
    report = json.loads(dense.outputs[0].read_bytes())
    assert dense.check([json.dumps(report).encode()]) is None
    state = next(iter(report["probabilities"]))
    report["probabilities"][state] *= 1.001
    assert dense.check([json.dumps(report).encode()]) is not None


@pytest.mark.parametrize("m", range(1, 5))
def test_truthtable_closed_form_matches_enumeration(m):
    even = divergent = 0
    for bits in product((0, 1), repeat=2 * m):
        v = sum(c and not r for c, r in zip(bits[:m], bits[m:]))
        even += v % 2 == 0
        divergent += v > 0 and v % 2 == 0
    assert workloads.even_violation_states(m) == even
    assert workloads.divergent_rows(m) == divergent


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
