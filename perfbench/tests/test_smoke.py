"""Tiny-size runs of every workload: each named metric comes out with
its unit, the correctness checks pass, and the command refuses to run
without the program's sources."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
UNITS = run.load_units(ROOT)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    report = run.run(workload, seed=3, seconds=0.4, trace=trace, size=workloads.TINY,
                     workdir=str(tmp_path))
    line = run.result_line(report, UNITS)
    group = "per_layer" if trace else "end_to_end"
    assert line["correct"], report["failures"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(UNITS[group])
    for name, metric in line["metrics"].items():
        assert metric["unit"] == UNITS[group][name]
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        # the ledger computes every metric BENCHMARK.json names (and prints more)
        assert set(report["ledger"]) >= set(UNITS["per_layer"])
        spans = os.path.join(ROOT, report["spans_file"])
        with open(spans, encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == report["spans_written"] > 0
    text = "\n".join(run.human_report(report))
    for name in ("read_p50_us", "read_p99_us", "reads_per_s", "mutate_p50_us", "mutate_p99_us",
                 "cycles_per_s", "upload_mib_s", "cpu_us_per_op", "setup_s", "failed_frac",
                 "rss_peak_mib"):
        assert name in text


def test_single_client_counts_repeat_on_a_fixed_seed(tmp_path):
    counts = ("observability.flightrec.records_per_call", "rpc.protocol.unpacks_per_call",
              "drivers.remote.rpc_calls_per_op", "observability.metrics.labels_per_call",
              "state.statedir.appends_per_op", "rpc.transport.wire_bytes_per_op")
    first, second = (
        run.run("poll", seed=5, seconds=0.2, trace=True, size=workloads.TINY,
                workdir=str(tmp_path / str(i)))["ledger"]
        for i in range(2)
    )
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.Provision(7, workloads.TINY, str(tmp_path))
    b = workloads.Provision(7, workloads.TINY, str(tmp_path))
    c = workloads.Provision(8, workloads.TINY, str(tmp_path))
    assert a.sequence == b.sequence and a.images == b.images
    assert [s.xml for s in a.cycle_specs] == [s.xml for s in b.cycle_specs]
    assert a.images != c.images


def test_command_runs_parts_in_separate_processes_and_prints_json_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local-churn", "--seed", "2",
         "--seconds", "0.6", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert f"parts={run.PARTS}" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(UNITS["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poll", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_rationale_covers_every_metric_and_workload():
    with open(os.path.join(BENCH, "rationale.json"), encoding="utf-8") as handle:
        rationale = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(rationale["workloads"]) == set(workloads.WORKLOADS)
    assert set(UNITS["end_to_end"]) == set(rationale["end_to_end"]["gated"])
    assert set(UNITS["per_layer"]) == set(rationale["per_layer"])
