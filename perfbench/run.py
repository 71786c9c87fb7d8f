"""Wall-clock benchmark of the management stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload poll --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` is the separate traced run: half the time untraced, then
a daemon restart and a fixed number of operations with span wrappers on
every layer's public entry points (see ``ledger.py``), giving the
per-layer ledger and the tracing overhead.  Spans are written to
``.perfbench_work/`` under the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are the human-readable report.  The exit code is non-zero when a
correctness check failed, or when the program's sources (``src/repro``)
are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
#: an untraced run is this many separate processes, each measuring an
#: equal share of the time.  Thread placement on the cores settles per
#: process and moves a process's latencies as a block, so one process is
#: one sample, not thousands; every metric is the mean of the parts left
#: after dropping the highest and the lowest (see :func:`_center`).
PARTS = 5
#: longest a part may take, set-up included
PART_TIMEOUT_S = 150


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one part of an untraced run and print its raw figures
    parser.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    # internal: the smoke-test size (see workloads.TINY)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_units(root: str = ROOT) -> Dict[str, Dict[str, str]]:
    """Name -> unit of every metric BENCHMARK.json declares, keyed under
    ``end_to_end`` and ``per_layer``."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


class _Run:
    """One workload instance in this process, torn down on exit."""

    def __init__(self, workload: str, seed: int, size: Any, workdir: str) -> None:
        import workloads as wl

        if workload not in wl.WORKLOADS:
            raise SystemExit(f"unknown workload {workload!r}; pick one of {sorted(wl.WORKLOADS)}")
        self.wl = wl
        self.rundir = os.path.join(workdir, f"{workload}-{os.getpid()}")
        wl.prepare_workdir(self.rundir)
        wl.reset_registries()
        self.bench = wl.WORKLOADS[workload](seed, size or wl.FULL, self.rundir)

    def __enter__(self) -> "_Run":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.bench.close()
        self.wl.reset_registries()
        shutil.rmtree(self.rundir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, size: Any = None,
            workdir: str = WORKDIR) -> Dict[str, Any]:
    """One untraced part: set-up, warm-up, a window of ``seconds``, checks."""
    with _Run(workload, seed, size, workdir) as r:
        setup = r.bench.setup()
        r.bench.warmup()
        phase = r.bench.window(seconds=seconds)
        r.bench.verify()
        problems = r.bench.problems
    return {
        "figures": r.wl.end_to_end(phase, setup),
        "attempted": phase.tally.attempted + len(problems),
        "failed": phase.tally.failed + len(problems),
        "failures": problems + phase.tally.failures,
    }


def spawn_part(workload: str, seed: int, seconds: float, part: int, tiny: bool) -> Dict[str, Any]:
    """Run one part in a fresh interpreter and return its figures."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--part", str(part)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PART_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"part {part} of {workload} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _center(values: Sequence[Optional[float]]) -> Optional[float]:
    """Mean of the values after dropping the highest and the lowest.  The
    parts of a run often split between two placements; a median of them
    then flips from one placement's figure to the other's, a trimmed mean
    moves by the share of parts in each."""
    present = sorted(v for v in values if v is not None)
    if len(present) >= 3:
        present = present[1:-1]
    return sum(present) / len(present) if present else None


def combine(workload: str, seed: int, parts: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold the parts of an untraced run: each figure and each gated
    metric is the trimmed mean over the parts."""
    figures: Dict[str, Any] = {}
    for key in parts[0]["figures"]:
        values = [p["figures"][key] for p in parts]
        summaries = [v for v in values if isinstance(v, dict)]
        if key == "gated":
            figures[key] = {name: _center([v[name] for v in values]) for name in values[0]}
        elif summaries:
            figures[key] = {
                "n": sum(v["n"] for v in summaries),
                "p50": _center([v["p50"] for v in summaries]),
                "tail": _center([v["tail"] for v in summaries]),
                "tail_pct": min((v["tail_pct"] for v in summaries if v["tail_pct"]), default=None),
            }
        else:
            figures[key] = _center(values)
    figures["setup_n"] = sum(p["figures"]["setup_n"] for p in parts)
    return {
        "workload": workload,
        "seed": seed,
        "trace": False,
        "parts": len(parts),
        "figures": figures,
        "end_to_end": figures["gated"],
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: Any = None,
        workdir: str = WORKDIR, parts: int = 1, tiny: bool = False) -> Dict[str, Any]:
    """Run one workload and return the report.  Untraced runs with
    ``parts > 1`` spawn that many processes (see :data:`PARTS`)."""
    if trace:
        return traced(workload, seed, seconds, size, workdir)
    if parts == 1:
        return combine(workload, seed, [measure(workload, seed, seconds, size, workdir)])
    return combine(workload, seed, [
        spawn_part(workload, seed, seconds / parts, k, tiny) for k in range(parts)
    ])


def traced(workload: str, seed: int, seconds: float, size: Any, workdir: str) -> Dict[str, Any]:
    """The traced run, in one process: an untraced window of half the
    time; then, under the span wrappers, a daemon restart, the rewound
    warm-up and a fixed number of operations; then every original is
    restored and the ledger computed from the window's spans."""
    import ledger
    from repro.stream import DEFAULT_CHUNK

    recorder = ledger.Recorder()
    with _Run(workload, seed, size, workdir) as r:
        bench, wl = r.bench, r.wl
        size = size or wl.FULL
        setup = bench.setup()
        bench.warmup()
        measured = bench.window(seconds=seconds / 2)
        bench.verify()
        recorder.phase = "restart"
        ledger.install_entry_points(recorder)
        try:
            bench.restart()
            recorder.phase = "warmup"
            bench.warmup()
            before = bench.counters()
            recorder.phase = "loop"
            count = {"poll": size.traced_ops, "local-churn": size.traced_cycles}.get(
                workload, size.traced_prov_cycles
            )
            phase = bench.window(count=count)
            after = bench.counters()
            recorder.phase = "after"
            bench.verify()
        finally:
            recorder.restore()
    figures = wl.end_to_end(measured, setup)
    traced_figures = wl.end_to_end(phase, [])
    loop = [s for s in recorder.spans if s.phase == "loop" and s.root is not None]
    ops = sum(1 for s in loop if s.parent is None)
    counters: Dict[str, float] = {k: after[k] - before.get(k, 0) for k in after}
    hits, misses = counters.pop("cache_hits", 0), counters.pop("cache_misses", 0)
    counters["cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    counters["uploaded_bytes"] = phase.tally.uploaded_bytes
    counters["upload_chunks"] = phase.tally.kinds.count("upload") * math.ceil(size.image_bytes / DEFAULT_CHUNK)
    counters["recovery_ms"] = sum(
        s.duration for s in recorder.spans
        if s.phase == "restart" and s.name == "StatefulDriver.recover_state"
    ) / 1e6
    late = traced_figures["generator_late"]
    counters["generator_late_p99_ms"] = late["tail"] if late and late["tail"] is not None else 0.0
    base = figures["op_mean_us"]
    counters["trace_overhead_frac"] = (traced_figures["op_mean_us"] - base) / base
    metrics, table = ledger.ledger(loop, ops, phase.tally.cycles, counters)
    os.makedirs(workdir, exist_ok=True)
    spans_path = os.path.join(workdir, f"spans-{workload}-{seed}.jsonl")
    tallies = [measured.tally, phase.tally]
    return {
        "workload": workload,
        "seed": seed,
        "trace": True,
        "figures": figures,
        "ledger": metrics,
        "ledger_table": table,
        "ops_traced": ops,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans_written": recorder.write(spans_path),
        "attempted": sum(t.attempted for t in tallies) + len(bench.problems),
        "failed": sum(t.failed for t in tallies) + len(bench.problems),
        "failures": bench.problems + [f for t in tallies for f in t.failures],
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def human_report(report: Dict[str, Any]) -> List[str]:
    """The readable part of the output: every end-to-end figure of the
    issue's table (n/a where a workload has none), then the ledger."""
    f = report["figures"]
    lines = [f"perfbench {report['workload']} seed={report['seed']} trace={int(report['trace'])}"
             + (f" parts={report['parts']} (trimmed means over parts)" if "parts" in report else "")]

    def timing(name: str, summary: Dict[str, Any], which: str, unit: str = "us") -> None:
        value = summary["p50"] if which == "p50" else summary["tail"]
        pct = "p50" if which == "p50" else f"p{summary['tail_pct']}"
        lines.append(f"  {name:<16} {_fmt(value):>10} {unit:<5} {pct} of n={summary['n']}")

    timing("read_p50_us", f["read"], "p50")
    timing("read_p99_us", f["read"], "tail")
    lines.append(f"  {'reads_per_s':<16} {_fmt(f['reads_per_s']):>10} 1/s")
    timing("mutate_p50_us", f["mutate"], "p50")
    timing("mutate_p99_us", f["mutate"], "tail")
    timing("op_p50_us", f["op"], "p50")
    lines.append(f"  {'mix_p50_us':<16} {_fmt(f['mix_p50_us']):>10} us    per-operation medians weighted by the mix")
    timing("op_p99_us", f["op"], "tail")
    lines.append(f"  {'ops_per_s':<16} {_fmt(f['ops_per_s']):>10} 1/s")
    lines.append(f"  {'cycles_per_s':<16} {_fmt(f['cycles_per_s']):>10} 1/s")
    lines.append(f"  {'upload_mib_s':<16} {_fmt(f['upload_mib_s']):>10} MiB/s")
    lines.append(f"  {'cpu_us_per_op':<16} {_fmt(f['cpu_us_per_op']):>10} us")
    lines.append(f"  {'setup_s':<16} {_fmt(f['setup_s']):>10} s     median of n={f['setup_n']}")
    lines.append(f"  {'failed_frac':<16} {_fmt(f['failed_frac']):>10} ratio")
    lines.append(f"  {'rss_peak_mib':<16} {_fmt(f['rss_peak_mib']):>10} MiB")
    if f["generator_late"]:
        timing("generator_late_ms", f["generator_late"], "tail", "ms")
    if not report["trace"]:
        lines.append(f"gated metrics at the reference interpreter speed "
                     f"(reference/measured speed factor {_fmt(f['speed_factor'])}):")
        for name, value in report["end_to_end"].items():
            lines.append(f"  {name:<16} {_fmt(value):>10}")
    else:
        lines.append(f"ledger: {report['ops_traced']} traced ops, spans in {report['spans_file']}")
        lines.append(f"  {'layer':<28} {'calls/op':>9} {'self us/op':>11} {'share':>7}")
        for row in report["ledger_table"]:
            lines.append(
                f"  {row['layer']:<28} {row['calls_per_op']:>9.3f} "
                f"{row['self_us_per_op']:>11.2f} {row['share']:>7.3f}"
            )
        for name, value in report["ledger"].items():
            lines.append(f"  {name:<48} {_fmt(value)}")
    for failure in report["failures"][:10]:
        lines.append(f"  FAILED: {failure}")
    return lines


def result_line(report: Dict[str, Any], units: Dict[str, Dict[str, str]]) -> Dict[str, Any]:
    """The final JSON object: end-to-end metrics untraced, or the
    per-layer metrics of the traced run."""
    group = "per_layer" if report["trace"] else "end_to_end"
    values = report["ledger"] if report["trace"] else report["end_to_end"]
    missing = sorted(set(units[group]) - set(values))
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units[group].items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's sources are missing ({SRC}/repro); "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    size = workloads.TINY if args.tiny else workloads.FULL
    if args.part is not None:
        print(json.dumps(measure(args.workload, args.seed, args.seconds, size)))
        return 0
    units = load_units()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), size,
                 parts=PARTS, tiny=args.tiny)
    for line in human_report(report):
        print(line)
    print(json.dumps(result_line(report, units)))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
