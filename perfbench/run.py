"""End-to-end write->notification benchmark with an outside-in layer ledger.

One command drives the real stack (``AppServer`` -> ``Broker`` ->
``InvaliDBCluster`` -> client) on one of two seeded workloads, checks
every result against the pull-based store and prints its metrics::

    python3 perfbench/run.py --workload paper-range --seed 1 \\
        --seconds 30 --trace 0

Workloads (each fixes its execution model; all use a 2x2 grid):

* ``paper-range`` — the paper's Section 6.1 workload on the threaded
  model: 1,000 unit-width range queries, inserts of five 10-char
  strings and five ints, one write in ten matching exactly one query.
  Open-loop segments at 800 writes/s measure notification latency; they
  alternate with closed-loop bursts of 1,000 writes to quiescence,
  which measure throughput.
* ``leaderboard`` — the inline model, one closed-loop caller: 10k
  players, 40 sorted top-10 queries and four score thresholds; score
  updates, deletes and inserts, and a subscription replaced every 50
  writes.

Every pass runs in a fresh interpreter (``session.py``) pinned, with
its threads and worker processes, to one CPU.  ``--trace 0`` runs one
untraced pass and prints the end-to-end metrics, taken from the rounds
of the pass during which the shared host ran at full speed (see
``session.Quiet``).  ``--trace 1`` runs an untraced pass (counters, GC,
load generator) and a traced pass with the layer ledger installed
(``ledger.py``), each measuring half of ``--seconds``, and prints the
per-layer table and metrics; on ``paper-range`` a third, traced pass
runs the same inputs on the process model with 2 worker processes and
gives the ``runtime.process.*`` and ``event.wire.*`` metrics.  Per-layer
``*.self_us_*`` figures are thread-CPU self time.  ``ledger.coverage``
is the layers' self wall time over the phase's wall time on the
single-threaded ``leaderboard`` (gated to 1 +- 0.15), and their self
CPU over the process CPU elsewhere.

Stdout starts with one ``{"run": ...}`` line of metadata (seed, commit,
Python, nproc, execution config, sample counts).  The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The command exits non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ledger import CALLS, SELF_CPU, SELF_WALL, TOTAL_WALL, UNITS, by_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

WORKLOADS = ("paper-range", "leaderboard")
#: Under --trace 1, the session workload whose traced pass measures the
#: process boundary (runtime.process, event.wire) on the same inputs.
PROCESS_PASS = {"paper-range": "paper-range-process"}
#: Wall-clock budget of one command, all passes included.
BUDGET_S = 170.0
#: Accounting check on the single-threaded workload: the layers' self
#: times must sum to the traced wall time within this share.
LEDGER_TOLERANCE = 0.15
LEDGER_GATED = ("leaderboard",)
#: Set-ups per untraced run; ``setup_s`` is the median of the quiet ones.
SETUPS = 7
#: Share of --seconds each pass of a traced run measures, so that its
#: two or three passes fit the command's budget.
TRACED_SHARE = 0.5

#: Layers in call order, for the per-layer table.
LAYERS = (
    "app", "store", "client.publish", "client.subscribe",
    "client.materialize", "event.codec", "event.broker", "stream.runtime",
    "runtime.execution", "cluster.ingestion", "filtering", "sorting",
    "cluster.delivery", "runtime.process", "event.wire", "loadgen",
)


def percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def source_digest() -> str:
    """SHA-256 over the library sources: identifies the code measured
    even where the checkout carries no version-control metadata."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def run_pass(workload: str, seed: int, seconds: float, traced: bool,
             setups: int, deadline: float
             ) -> Tuple[Optional[Dict[str, Any]], str]:
    """One session in a fresh interpreter; (report or None, error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "session.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--traced", str(int(traced)),
               "--setups", str(setups)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, f"{'traced' if traced else 'untraced'} pass timed out"
    if done.returncode != 0:
        return None, done.stderr.strip()[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1]), ""


def failures(report: Dict[str, Any]) -> int:
    return sum(report["failures"].values())


def end_to_end(report: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    notify = report["notify_ms"]
    subscribe = report["subscribe_ms"]
    failed = failures(report)
    return {
        "setup_s": (percentile(report["setup_s"], 50), "s"),
        "writes_per_s": (report["writes_per_s"], "1/s"),
        "notify_p50_ms": (percentile(notify, 50), "ms"),
        "notify_p90_ms": (percentile(notify, 90), "ms"),
        "subscribe_p50_ms": (percentile(subscribe, 50), "ms"),
        "subscribe_p95_ms": (percentile(subscribe, 95), "ms"),
        "cpu_us_per_write": (report["cpu_us_per_write"], "us"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ok_ratio": (1.0 - failed / report["attempted"], "ratio"),
    }


def ledger_table(title: str, report: Dict[str, Any], gated: bool
                 ) -> Tuple[List[str], float, float]:
    """The per-layer table of one traced pass, its ledger coverage and
    its unattributed CPU per write (us)."""
    layers = by_layer(report["accounts"])
    writes = report["writes"]
    attributed_wall = sum(value[SELF_WALL] for value in layers.values())
    attributed_cpu = sum(value[SELF_CPU] for value in layers.values())
    parent_cpu_ns = report["parent_cpu_s"] * 1e9
    if gated:
        coverage = attributed_wall / (report["phase_wall_s"] * 1e9)
    else:
        coverage = attributed_cpu / parent_cpu_ns
    unattributed = (parent_cpu_ns - attributed_cpu) / 1e3 / writes
    lines = [f"per-layer ledger: {title}, {writes} writes, "
             f"{report['phase_wall_s'] * 1e6 / writes:.1f} us wall/write",
             f"{'layer':<20}{'calls/write':>12}{'self wall us':>14}"
             f"{'self cpu us':>13}{'cpu share':>11}"]
    for name in LAYERS:
        value = layers.get(name)
        if value is None:
            continue
        lines.append(
            f"{name:<20}{value[CALLS] / writes:>12.2f}"
            f"{value[SELF_WALL] / 1e3 / writes:>14.1f}"
            f"{value[SELF_CPU] / 1e3 / writes:>13.1f}"
            f"{value[SELF_CPU] / parent_cpu_ns:>11.1%}")
    lines.append(f"{'unattributed cpu':<20}{'':>12}{'':>14}"
                 f"{unattributed:>13.1f}")
    lines.append(f"ledger.coverage {coverage:.3f}"
                 + (f" (gate 1 +- {LEDGER_TOLERANCE})" if gated else ""))
    return lines, coverage, unattributed


def per_layer(workload: str, plain: Dict[str, Any], traced: Dict[str, Any],
              process: Optional[Dict[str, Any]]
              ) -> Tuple[Dict[str, Tuple[float, str]], List[str], bool]:
    """Per-layer metrics, the table lines, and the ledger verdict.

    *process* is the traced process-model pass of the same inputs, run
    for ``paper-range`` only; the process-boundary metrics come from it.
    """
    accounts = traced["accounts"]
    layers = by_layer(accounts)
    writes = traced["writes"]
    zero = [0, 0, 0, 0, 0]

    def layer(name: str) -> List[int]:
        return layers.get(name, zero)

    def account(name: str) -> List[int]:
        return accounts.get(name, zero)

    def self_us(name: str) -> float:
        return layer(name)[SELF_CPU] / 1e3 / writes

    def per_call(total_ns: float, calls: int, scale: float) -> float:
        return total_ns / scale / calls if calls else 0.0

    gated = workload in LEDGER_GATED
    table, coverage, unattributed = ledger_table(
        f"{workload}, traced pass", traced, gated)
    ledger_ok = not gated or abs(coverage - 1.0) <= LEDGER_TOLERANCE
    finds = account("store:find")
    events = account("sorting:handle_event")
    deliveries = account("cluster.delivery:_publish_change")
    materialized = account("client.materialize:_on_notification")
    metrics: Dict[str, Tuple[float, str]] = {
        "store.self_us_per_write": (self_us("store"), "us"),
        "store.find_ms_per_subscribe": (
            per_call(finds[TOTAL_WALL], finds[CALLS], 1e6), "ms"),
        "client.publish.self_us_per_write": (self_us("client.publish"), "us"),
        "event.codec.self_us_per_write": (self_us("event.codec"), "us"),
        "event.codec.bytes_per_write": (
            account("event.codec:encode")[UNITS] / writes, "bytes"),
        "event.broker.self_us_per_write": (self_us("event.broker"), "us"),
        "stream.runtime.self_us_per_write": (self_us("stream.runtime"), "us"),
        "runtime.execution.self_us_per_write": (
            self_us("runtime.execution"), "us"),
        "cluster.ingestion.self_us_per_write": (
            self_us("cluster.ingestion"), "us"),
        "cluster.ingestion.after_image_decodes_per_write": (
            account("cluster.ingestion:deserialize_after_image")[CALLS]
            / writes, "count"),
        "filtering.self_us_per_write": (self_us("filtering"), "us"),
        "sorting.self_us_per_event": (
            per_call(layer("sorting")[SELF_CPU], events[CALLS], 1e3), "us"),
        "cluster.delivery.self_us_per_notification": (
            per_call(layer("cluster.delivery")[SELF_CPU], deliveries[CALLS],
                     1e3), "us"),
        "client.materialize.self_us_per_notification": (
            per_call(layer("client.materialize")[SELF_CPU],
                     materialized[CALLS], 1e3), "us"),
        "ledger.coverage": (coverage, "ratio"),
        "ledger.unattributed_cpu_us_per_write": (unattributed, "us"),
        "ledger.traced_us_per_write": (
            traced["phase_wall_s"] * 1e6 / writes, "us"),
        "trace.overhead_ratio": (
            plain["writes_per_s"] / traced["writes_per_s"], "ratio"),
        "loadgen.late_p99_ms": (percentile(plain["late_ms"], 99), "ms"),
        "loadgen.late_max_ms": (max(plain["late_ms"], default=0.0), "ms"),
    }
    units = {
        "runtime.execution.queue_high_water": "count",
        "runtime.process.worker_cpu_us_per_write": "us",
        "event.wire.bytes_per_write": "bytes",
        "event.wire.lazy_hit_rate": "ratio",
        "query.index.pruning_ratio": "ratio",
        "client.materialize.result_size_mean": "count",
        "gc.pause_ms_max": "ms",
        "gc.pause_ms_total": "ms",
    }
    for name, value in plain["counters"].items():
        metrics[name] = (value, units.get(name, "count"))

    boundary = process if process is not None else {
        "accounts": {}, "counters": plain["counters"]}
    roundtrips = boundary["accounts"].get("runtime.process:request_batch", zero)
    metrics["runtime.process.roundtrip_us"] = (
        per_call(roundtrips[TOTAL_WALL], roundtrips[CALLS], 1e3), "us")
    metrics["runtime.process.items_per_roundtrip"] = (
        roundtrips[UNITS] / roundtrips[CALLS] if roundtrips[CALLS] else 0.0,
        "count")
    for name in ("runtime.process.worker_cpu_us_per_write",
                 "event.wire.bytes_per_write", "event.wire.lazy_hit_rate"):
        metrics[name] = (boundary["counters"][name], units[name])
    if process is not None:
        lines, _, _ = ledger_table(
            f"{workload} on the process model, traced pass", process, False)
        table += [""] + lines
    return metrics, table, ledger_ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end write->notification benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SOURCE}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S

    # setup_s is reported only by an untraced run; a traced run sets up
    # once per pass.
    setups = 1 if args.trace else SETUPS
    seconds = args.seconds * (TRACED_SHARE if args.trace else 1.0)
    plain, error = run_pass(args.workload, args.seed, seconds, False,
                            setups, deadline)
    traced = process = None
    if plain is not None and args.trace:
        traced, error = run_pass(args.workload, args.seed, seconds,
                                 True, setups, deadline)
    if traced is not None and args.workload in PROCESS_PASS:
        process, error = run_pass(PROCESS_PASS[args.workload], args.seed,
                                  seconds, True, setups, deadline)
    if plain is None or (args.trace and (
            traced is None
            or (args.workload in PROCESS_PASS and process is None))):
        print(f"error: {args.workload} seed {args.seed}: {error}",
              file=sys.stderr)
        return 1

    print(json.dumps({"run": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "execution": plain["execution"],
        "cpus": plain["cpus"],
        "failures": plain["failures"],
        "notify_samples": len(plain["notify_ms"]),
        "notify_p99_ms": percentile(plain["notify_ms"], 99),
        "subscribe_samples": len(plain["subscribe_ms"]),
        "throughput_samples": plain["throughput"],
        "quiet_rounds": plain["quiet"],
    }}))
    passes = [report for report in (plain, traced, process)
              if report is not None]
    attempted = sum(report["attempted"] for report in passes)
    failed = sum(failures(report) for report in passes)
    if traced is None:
        metrics = end_to_end(plain)
    else:
        metrics, table, ledger_ok = per_layer(args.workload, plain, traced,
                                              process)
        print("\n".join(table))
        if not ledger_ok:
            print("error: ledger accounting check failed", file=sys.stderr)
            failed += 1
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
