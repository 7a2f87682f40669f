"""One measurement pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass (untraced, and traced with
the layer ledger installed) so heap and GC state never leak from one
pass into the next.  The pass builds the real stack — ``AppServer`` ->
``Broker`` -> ``InvaliDBCluster`` -> client — drives the workload,
checks every result against the pull-based store and prints one JSON
object with its raw measurements on stdout.

Usage: ``PYTHONPATH=src python3 perfbench/session.py --workload
paper-range --seed 1 --seconds 30 --traced 0 --setups 7``
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from inputs import (
    BOARD_COLLECTION,
    PAPER_COLLECTION,
    LeaderboardInputs,
    PaperRangeInputs,
)
from ledger import Ledger, delta

from repro.core.cluster import InvaliDBCluster
from repro.core.config import InvaliDBConfig
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.runtime.execution import ExecutionConfig
from repro.store.database import Database
from repro.types import MatchType

perf = time.perf_counter

#: Execution model of each workload (the workload fixes it).
EXECUTION = {
    "paper-range": {"mode": "threaded"},
    "paper-range-process": {"mode": "process", "worker_processes": 2},
    "leaderboard": {"mode": "inline"},
}
GRID = {"query_partitions": 2, "write_partitions": 2}

#: paper-range*: open-loop rate, share of --seconds spent open-loop,
#: closed-loop burst size and the nominal burst rate that sizes the
#: closed-loop phase (the write count is fixed by --seconds, never by
#: how fast the program runs, so every commit does the same work).
OPEN_RATE = 800.0
OPEN_SHARE = 0.6
BURST = 1_000
NOMINAL_BURST_RATE = 5_000.0
MIN_BURSTS = 4
#: One second of the open loop, untimed, before the measured phase.
WARMUP_WRITES = 800

#: leaderboard: nominal closed-loop rate sizing the operation stream,
#: and the operations of one round (about 0.15 s).  Every
#: re-subscription replays the filtering nodes' retained writes (five
#: seconds of them by default), so the untimed warm-up runs long enough
#: to fill that window: the phase then measures the steady state.
NOMINAL_BOARD_RATE = 600.0
BOARD_CHUNK = 125
BOARD_WARMUP_SECONDS = InvaliDBConfig.retention_seconds + 1.0

WAIT_TIMEOUT = 30.0

#: Quiet rounds (see ``Quiet``): the size of the host-speed probe
#: (about 1 ms a try); a round is quiet within this factor of the best
#: score of its kind; at least this fraction (1/n) of the rounds is
#: kept; the share of --seconds the set-ups and the measured phase may
#: each spend waiting for a slow spell to end, and the step of the wait.
PROBE_ITEMS = 5_000
QUIET_TOLERANCE = 1.25
QUIET_FLOOR = 8
QUIET_WAIT_SHARE = 0.25
QUIET_WAIT_STEP = 0.02
#: paper-range subscribes per round of a set-up.
SUBSCRIBE_ROUND = 100

#: CPU placement.  The pass pins itself, and so every thread and worker
#: process it starts, to one CPU.  Its threads take turns on the
#: interpreter lock anyway, and a hand-off between threads or processes
#: on different CPUs waits for a cross-CPU wake-up whose latency follows
#: the host's load, not the program's.  The process model therefore
#: shows what the process boundary costs, not what parallelism buys.
CPUS = set(sorted(os.sched_getaffinity(0))[:1])


class SetupError(RuntimeError):
    pass


def split_set_ups(setups: int) -> Tuple[int, int]:
    """Set-ups before the measured phase and after it.  Spreading them
    over the run lets ``setup_s`` and the subscribe samples taken in
    them see the same drift in the host's speed as the phase does."""
    after = setups // 2
    return setups - after, after


# ---------------------------------------------------------------------------
# Meters: notifications, GC pauses, CPU and memory
# ---------------------------------------------------------------------------


class Recorder:
    """Collects every change notification with its arrival time and
    wakes the driver once a target count has arrived."""

    def __init__(self, ledger: Optional[Ledger]):
        self.arrivals: List[Tuple[str, Any, int, Any, float]] = []
        self.target = 0
        self.reached = threading.Event()
        self.on_change = (self._on_change if ledger is None
                          else ledger.spanned("loadgen:on_change",
                                              self._on_change))

    def _on_change(self, notification: Any) -> None:
        self.arrivals.append((notification.query_id, notification.key,
                              notification.version, notification.match_type,
                              perf()))
        if len(self.arrivals) >= self.target:
            self.reached.set()

    def wait_for(self, count: int) -> bool:
        self.reached.clear()
        self.target = count
        if len(self.arrivals) >= count:
            return True
        return self.reached.wait(WAIT_TIMEOUT)


class GcMonitor:
    """GC collections and pause times by generation (``gc.callbacks``)."""

    def __init__(self) -> None:
        self.pauses: List[Tuple[int, float]] = []
        self._started: Dict[int, float] = {}
        self._active = False
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if not self._active:
            return
        ident = threading.get_ident()
        if phase == "start":
            self._started[ident] = perf()
        else:
            started = self._started.pop(ident, None)
            if started is not None:
                self.pauses.append((info["generation"], perf() - started))

    def start(self) -> None:
        self.pauses.clear()
        self._active = True

    def stop(self) -> None:
        self._active = False
        gc.callbacks.remove(self._callback)

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for generation in range(3):
            out[f"gc.gen{generation}_collections"] = float(sum(
                1 for gen, _ in self.pauses if gen == generation))
        pauses = [pause * 1e3 for _, pause in self.pauses]
        out["gc.pause_ms_max"] = max(pauses, default=0.0)
        out["gc.pause_ms_total"] = sum(pauses)
        return out


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def worker_cpu_seconds(pids: List[int]) -> float:
    """User + system CPU of live worker processes, from /proc."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLOCK_TICKS


def worker_peak_rss_mb(pids: List[int]) -> float:
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
    return total


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now, best of three.  It
    runs no program code, so it times the host, not the program."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            began = perf()
            table = {}
            for index in range(PROBE_ITEMS):
                table[str(index)] = (index, -index)
            sorted(table, reverse=True)
            best = min(best, perf() - began)
        return best
    finally:
        if enabled:
            gc.enable()


class Quiet:
    """Rounds of measurement, each scored by the host's speed around it.

    The host is shared, and for spells of a fraction of a second to a
    few seconds the same pure-Python loop runs up to twice as slowly on
    it.  Thread CPU time stretches as much as wall time, so this is
    contention for the core, not CPU steal, and CPU time cannot correct
    for it.  How many such spells a run catches would otherwise set its
    figures.  So the measured work runs in rounds of under a second,
    ``probe()`` is timed between rounds, and a round scores the slower
    of the two probes around it.  When a probe is slower than
    QUIET_TOLERANCE times the fastest of the process, the next round
    waits for the spell to end, within a budget.  The end-to-end
    figures come from the quiet rounds: those scoring within
    QUIET_TOLERANCE of the best round of their kind, or the best
    1/QUIET_FLOOR of them if fewer.  The choice rests on the probe
    alone, which runs no program code, so it cannot hide a slowdown of
    the program itself.

    *exclude* is told the CPU and wall seconds each probe and wait
    took, so they can be left out of the phase they interrupt.
    """

    #: The fastest probe of the process so far: the host's quiet speed.
    fastest = float("inf")

    def __init__(self, wait_budget: float,
                 exclude: Optional[Callable[[float, float], None]] = None):
        self.wait_budget = wait_budget
        self.exclude = exclude
        #: (kind, score, payload) of each round, in order
        self.rounds: List[Tuple[str, float, Any]] = []
        self.probes: List[float] = []
        self.waited = 0.0
        self._before = 0.0

    def _probe(self) -> float:
        cpu, wall = time.process_time(), perf()
        score = probe()
        self.probes.append(score)
        Quiet.fastest = min(Quiet.fastest, score)
        if self.exclude is not None:
            self.exclude(time.process_time() - cpu, perf() - wall)
        return score

    def _await_quiet(self, score: float) -> float:
        """While the host is in a slow spell and the wait budget lasts,
        idle a moment and probe again; returns the last probe's score."""
        while (score > QUIET_TOLERANCE * Quiet.fastest
               and self.waited < self.wait_budget):
            began = perf()
            time.sleep(QUIET_WAIT_STEP)
            if self.exclude is not None:
                self.exclude(0.0, perf() - began)
            score = self._probe()
            self.waited += perf() - began
        return score

    def start(self) -> None:
        """Probe before the first round of a sequence."""
        self._before = self._await_quiet(self._probe())

    def add(self, kind: str, score: float, payload: Any) -> None:
        """A round scored by probes taken in it."""
        self.rounds.append((kind, score, payload))

    def end(self, payload: Any, kind: str = "round") -> None:
        """Close a round: probe, and score the round by the slower of
        its two probes.  The probe also opens the next round."""
        after = self._probe()
        self.rounds.append((kind, max(self._before, after), payload))
        self._before = self._await_quiet(after)

    def kept(self, kind: str = "round") -> List[int]:
        """Indices of the quiet rounds of *kind*, in round order."""
        order = sorted((index for index, (of, _, _) in enumerate(self.rounds)
                        if of == kind), key=lambda index: self.rounds[index][1])
        limit = QUIET_TOLERANCE * self.rounds[order[0]][1]
        quiet = [index for index in order if self.rounds[index][1] <= limit]
        fewest = max(1, len(order) // QUIET_FLOOR)
        return sorted(quiet if len(quiet) >= fewest else order[:fewest])

    def quiet(self, kind: str = "round") -> List[Any]:
        return [self.rounds[index][2] for index in self.kept(kind)]

    def summary(self) -> Dict[str, Any]:
        kinds = sorted({kind for kind, _, _ in self.rounds})
        return {"rounds": {kind: len([1 for of, _, _ in self.rounds
                                      if of == kind]) for kind in kinds},
                "kept": {kind: len(self.kept(kind)) for kind in kinds},
                "waited_s": self.waited,
                "probe_ms_min": min(self.probes) * 1e3,
                "probe_ms_max": max(self.probes) * 1e3}


# ---------------------------------------------------------------------------
# The stack
# ---------------------------------------------------------------------------


class Stack:
    """Broker, cluster and app server on one execution model."""

    def __init__(self, workload: str, database: Optional[Database] = None):
        self.broker = Broker(execution=ExecutionConfig(**EXECUTION[workload]))
        self.config = InvaliDBConfig(**GRID)
        self.cluster = InvaliDBCluster(self.broker, self.config).start()
        self.app = AppServer("bench-app", self.broker, database=database,
                             config=self.config)

    @property
    def execution(self) -> Any:
        return self.broker.execution

    def worker_pids(self) -> List[int]:
        pool = getattr(self.execution, "worker_pool", None)
        if pool is None:
            return []
        return [worker["pid"] for worker in pool.snapshot()["workers"]
                if worker["alive"]]

    def drain(self) -> bool:
        return self.broker.drain(WAIT_TIMEOUT)

    def rebase_high_water(self) -> None:
        """Mailbox high-water marks are cumulative; restart them at the
        current depth so they cover the measured phase only."""
        for box in self.execution._mailboxes:
            queue = getattr(box, "_queue", None)
            if queue is not None:
                with queue._lock:
                    queue.high_water = len(queue._items)
            else:
                box.high_water = len(box._items)

    def counters(self) -> Dict[str, Any]:
        snap = self.cluster.snapshot()
        totals = snap["matching_totals"]
        wire = snap.get("workers", {}).get("wire", {})
        mailboxes = {
            name: (box["dequeued"], box["batches"], box["high_water"])
            for name, box in self.execution.stats()["mailboxes"].items()
        }
        return {
            "published": self.broker.stats["published"],
            "notifications": snap["notifications_sent"],
            "considered": totals["candidates_considered"],
            "pruned": totals["candidates_pruned"],
            "sort_events": sum(row.get("events_processed", 0)
                               for row in snap["sorting"]),
            "renewals": sum(row.get("renewals_requested", 0)
                            for row in snap["sorting"]),
            "tuples": sum(component["processed"] for component in
                          snap["runtime"]["components"].values()),
            # Parent and worker sides both count a frame; its sender's
            # count alone covers every byte once.
            "wire_bytes": wire.get("bytes_sent", 0),
            "lazy_documents": wire.get("lazy_documents", 0),
            "lazy_materialized": wire.get("lazy_materialized", 0),
            "mailboxes": mailboxes,
        }

    def client_failures(self) -> int:
        stats = self.app.client.stats()
        return (stats["publish_failures"] + stats["writes_rejected"]
                + stats["writes_abandoned"])

    def close(self) -> None:
        self.app.close()
        self.cluster.stop()
        self.broker.close()


def mailbox_family(name: str) -> str:
    family = name.split("[", 1)[0]
    return "dispatch" if family.endswith("-dispatch") else family


def counter_metrics(before: Dict[str, Any], after: Dict[str, Any],
                    writes: int) -> Dict[str, float]:
    """Per-layer counters as deltas over the measured phase."""
    out: Dict[str, float] = {}
    considered = after["considered"] - before["considered"]
    pruned = after["pruned"] - before["pruned"]
    sort_events = after["sort_events"] - before["sort_events"]
    out["event.broker.messages_per_write"] = (
        after["published"] - before["published"]) / writes
    out["stream.runtime.tuples_per_write"] = (
        after["tuples"] - before["tuples"]) / writes
    out["query.index.candidates_per_write"] = considered / writes
    out["query.index.pruning_ratio"] = (
        pruned / (considered + pruned) if considered + pruned else 0.0)
    out["sorting.events_per_write"] = sort_events / writes
    out["sorting.renewals"] = float(after["renewals"] - before["renewals"])
    out["cluster.delivery.notifications_per_write"] = (
        after["notifications"] - before["notifications"]) / writes
    out["event.wire.bytes_per_write"] = (
        after["wire_bytes"] - before["wire_bytes"]) / writes
    lazy = after["lazy_documents"] - before["lazy_documents"]
    materialized = after["lazy_materialized"] - before["lazy_materialized"]
    out["event.wire.lazy_hit_rate"] = 1.0 - materialized / lazy if lazy else 0.0
    items: Dict[str, List[int]] = {}
    high_water = 0
    for name, (dequeued, batches, high) in after["mailboxes"].items():
        base = before["mailboxes"].get(name, (0, 0, 0))
        family = items.setdefault(mailbox_family(name), [0, 0])
        family[0] += dequeued - base[0]
        family[1] += batches - base[1]
        high_water = max(high_water, high)
    for family in ("dispatch", "write-ingestion", "matching", "sorting"):
        done, batches = items.get(family, (0, 0))
        out[f"runtime.execution.items_per_batch.{family}"] = (
            done / batches if batches else 0.0)
    out["runtime.execution.queue_high_water"] = float(high_water)
    return out


class Phase:
    """CPU, GC, counter and ledger readings around the measured phase."""

    def __init__(self, stack: Stack, ledger: Optional[Ledger]):
        self.stack = stack
        self.ledger = ledger
        self.gc = GcMonitor()

    def __enter__(self) -> "Phase":
        gc.collect()
        self.pids = self.stack.worker_pids()
        self.counters = self.stack.counters()
        self.stack.rebase_high_water()
        self.accounts = self.ledger.accounts() if self.ledger else {}
        self.gc.start()
        self.worker_cpu = worker_cpu_seconds(self.pids)
        self.cpu = time.process_time()
        self.wall = perf()
        return self

    def exclude(self, cpu_s: float, wall_s: float = 0.0) -> None:
        """Take the benchmark's own work out of the phase's CPU and
        wall time."""
        self.cpu += cpu_s
        self.wall += wall_s

    def __exit__(self, *exc_info: Any) -> None:
        self.wall = perf() - self.wall
        self.cpu = time.process_time() - self.cpu
        self.worker_cpu = worker_cpu_seconds(self.pids) - self.worker_cpu
        self.gc.stop()
        if self.ledger is not None:
            self.accounts = delta(self.ledger.accounts(), self.accounts)
        self.counters_after = self.stack.counters()

    def report(self, writes: int) -> Dict[str, Any]:
        metrics = counter_metrics(self.counters, self.counters_after, writes)
        metrics.update(self.gc.summary())
        metrics["runtime.process.worker_cpu_us_per_write"] = (
            self.worker_cpu * 1e6 / writes)
        return {
            "writes": writes,
            "phase_wall_s": self.wall,
            "parent_cpu_s": self.cpu,
            "worker_cpu_s": self.worker_cpu,
            "counters": metrics,
            "accounts": self.accounts,
        }


# ---------------------------------------------------------------------------
# paper-range and paper-range-process
# ---------------------------------------------------------------------------


def cpu_per_write(rounds: List[Dict[str, Any]]) -> float:
    """CPU microseconds per write over *rounds*."""
    return (sum(r["cpu_s"] for r in rounds) * 1e6
            / max(1, sum(r["writes"] for r in rounds)))


def run_paper_range(workload: str, seed: int, seconds: float, setups: int,
                    ledger: Optional[Ledger]) -> Dict[str, Any]:
    inputs = PaperRangeInputs(seed)
    filters = inputs.queries()
    warmup = inputs.writes(WARMUP_WRITES)
    open_writes = inputs.writes(int(OPEN_RATE * seconds * OPEN_SHARE))
    bursts = max(MIN_BURSTS, round(
        NOMINAL_BURST_RATE * seconds * (1 - OPEN_SHARE) / BURST))

    #: Rounds of SUBSCRIBE_ROUND subscribes, carrying their times, and
    #: set-ups, carrying their durations.
    setups_quiet = Quiet(QUIET_WAIT_SHARE * seconds)

    def set_up() -> Tuple[Stack, List[Any], Recorder]:
        gc.collect()
        recorder = Recorder(ledger)
        started = perf()
        stack = Stack(workload)
        subscriptions = []
        times: List[float] = []
        begun = perf()
        first_probe = len(setups_quiet.probes)
        setups_quiet.start()
        probing = perf() - begun
        for filter_doc in filters:
            # Each subscribe is timed on a drained pipeline: otherwise it
            # races the registration of its predecessors, and the race,
            # not the call, sets the figure.  No sleep follows the
            # drain: a call made after the CPU idled for a moment runs
            # on caches the host's other tenants have meanwhile used,
            # and measured 25% apart between runs, against 7% without.
            begun = perf()
            subscriptions.append(stack.app.subscribe(
                PAPER_COLLECTION, filter_doc, on_change=recorder.on_change))
            times.append(perf() - begun)
            if not stack.drain():
                raise SetupError("subscriptions did not settle")
            if (len(times) == SUBSCRIBE_ROUND
                    or len(subscriptions) == len(filters)):
                begun = perf()
                setups_quiet.end(times, "subscribe")
                probing += perf() - begun
                times = []
        setups_quiet.add("setup", max(setups_quiet.probes[first_probe:]),
                         perf() - started - probing)
        return stack, subscriptions, recorder

    before, after = split_set_ups(setups)
    stack, subscriptions, recorder = set_up()
    for _ in range(before - 1):
        stack.close()
        stack, subscriptions, recorder = set_up()
    app = stack.app
    query_ids = [subscription.query.query_id for subscription in subscriptions]
    #: key -> (query id the write must notify, version, due time or None,
    #: round of the measured phase or None)
    expected: Dict[Any, Tuple[str, int, Optional[float], Optional[int]]] = {}
    failures = {"operations": 0}

    def insert(document: Dict[str, Any], target: Optional[int],
               due: Optional[float], round_index: Optional[int]) -> None:
        try:
            after = app.insert(PAPER_COLLECTION, document)
        except Exception:  # noqa: BLE001 - a failed write is counted
            failures["operations"] += 1
            return
        if target is not None:
            expected[after.key] = (query_ids[target], after.version, due,
                                   round_index)

    def settle() -> bool:
        arrived = recorder.wait_for(len(expected))
        return stack.drain() and arrived

    late: List[float] = []

    def open_loop(writes: List[Tuple[Dict[str, Any], Optional[int]]],
                  round_index: Optional[int]) -> None:
        """Issue *writes* on a fixed schedule at OPEN_RATE; in a round of
        the measured phase each is stamped with its due time, and
        lateness is how far the generator lagged."""
        base = perf() + 0.01
        for index, (document, target) in enumerate(writes):
            due = base + index / OPEN_RATE
            now = perf()
            if due > now:
                time.sleep(due - now)
                now = perf()
            if round_index is None:
                insert(document, target, None, None)
            else:
                late.append(now - due)
                insert(document, target, due, round_index)

    open_loop(warmup, None)
    settle()

    def cpu_now() -> float:
        return time.process_time() + worker_cpu_seconds(phase.pids)

    # The phase alternates open-loop segments, which give the latency
    # samples, with bursts, which give the throughput samples, so both
    # span the whole phase.  Each segment and each burst is a round.
    writes = {"open": 0, "burst": 0}
    segment = -(-len(open_writes) // bursts)
    with Phase(stack, ledger) as phase:
        rounds = Quiet(QUIET_WAIT_SHARE * seconds, phase.exclude)
        rounds.start()
        for start in range(0, segment * bursts, segment):
            cpu = cpu_now()
            chunk = open_writes[start:start + segment]
            open_loop(chunk, len(rounds.rounds))
            settled = settle()
            writes["open"] += len(chunk)
            rounds.end({"writes": len(chunk), "cpu_s": cpu_now() - cpu},
                       "open")
            if not settled:
                break
            # Generated while the pipeline is idle; its CPU time is
            # taken out of the phase's.
            began = time.process_time()
            batch = inputs.writes(BURST)
            phase.exclude(time.process_time() - began)
            cpu, started = cpu_now(), perf()
            for document, target in batch:
                insert(document, target, None, None)
            settled = settle()
            busy_s = perf() - started
            writes["burst"] += len(batch)
            rounds.end({"writes": len(batch), "busy_s": busy_s,
                        "cpu_s": cpu_now() - cpu}, "burst")
            if not settled:
                break
    report = phase.report(writes["open"] + writes["burst"])
    report["peak_rss_mb"] = own_peak_rss_mb() + worker_peak_rss_mb(phase.pids)

    # Correctness: exactly one notification per matching write, on the
    # one query it matches, and none for noise writes.
    first: Dict[Any, float] = {}
    seen: Dict[Any, int] = {}
    wrong = 0
    for query_id, key, version, match_type, arrived in recorder.arrivals:
        want = expected.get(key)
        if (want is None or want[0] != query_id or want[1] != version
                or match_type is not MatchType.ADD):
            wrong += 1
            continue
        seen[key] = seen.get(key, 0) + 1
        first.setdefault(key, arrived)
    failures["missing_notifications"] = sum(
        1 for key in expected if key not in seen)
    failures["extra_notifications"] = wrong + sum(
        count - 1 for count in seen.values())
    kept = set(rounds.kept("open"))
    latencies = [(first[key] - due) * 1e3
                 for key, (_, _, due, round_index) in expected.items()
                 if due is not None and key in first and round_index in kept]
    # Each filter is a unit-width range over integers, so conjoining
    # the equality on its slot leaves its result unchanged and lets a
    # hash index serve the check instead of a scan per subscription.
    app.database.collection(PAPER_COLLECTION).ensure_index("random")
    failures["mismatched_results"] = sum(
        1 for subscription, filter_doc, slot
        in zip(subscriptions, filters, inputs.slots)
        if {doc["_id"] for doc in subscription.result()}
        != {doc["_id"] for doc in app.find(
            PAPER_COLLECTION, dict(filter_doc, **{"$and": [{"random": slot}]}))})
    failures["client"] = stack.client_failures()
    stack.close()
    for _ in range(after):
        set_up()[0].close()

    quiet = rounds.quiet("burst")
    report["counters"]["client.materialize.result_size_mean"] = (
        sum(len(s.result()) for s in subscriptions) / len(subscriptions))
    report.update({
        "attempted": sum(writes.values()) + len(warmup) + len(filters),
        "failures": failures,
        "setup_s": setups_quiet.quiet("setup"),
        "subscribe_ms": [value * 1e3 for times in setups_quiet.quiet(
            "subscribe") for value in times],
        "notify_ms": latencies,
        "late_ms": [value * 1e3 for value in late],
        "throughput": [r["writes"] / r["busy_s"] for r in quiet],
        # The median burst: a gen-2 collection lands in one burst in
        # several, cutting its rate by half or more, and how many of
        # them fall among the quiet bursts is chance.  The gc.* metrics
        # count them.
        "writes_per_s": statistics.median(
            r["writes"] / r["busy_s"] for r in quiet),
        # Weighted by the phase's mix of open-loop and burst writes, so
        # which rounds were quiet cannot change the mix.
        "cpu_us_per_write": sum(
            cpu_per_write(rounds.quiet(kind)) * count
            for kind, count in writes.items()) / sum(writes.values()),
        "quiet": {"phase": rounds.summary(),
                  "set_up": setups_quiet.summary()},
    })
    return report


# ---------------------------------------------------------------------------
# leaderboard
# ---------------------------------------------------------------------------


def run_leaderboard(workload: str, seed: int, seconds: float, setups: int,
                    ledger: Optional[Ledger]) -> Dict[str, Any]:
    inputs = LeaderboardInputs(seed)
    players = inputs.players()
    specs = inputs.queries()
    warmup = inputs.operations(
        round(NOMINAL_BOARD_RATE * BOARD_WARMUP_SECONDS))
    operations = inputs.operations(round(NOMINAL_BOARD_RATE * seconds))

    setups_quiet = Quiet(QUIET_WAIT_SHARE * seconds)

    def set_up() -> Tuple[Stack, List[Any], Recorder]:
        gc.collect()
        recorder = Recorder(ledger)
        setups_quiet.start()
        started = perf()
        database = Database()
        collection = database.collection(BOARD_COLLECTION)
        collection.ensure_index("game")
        for player in players:
            collection.insert(player)
        stack = Stack(workload, database=database)
        subscriptions = [
            stack.app.subscribe(BOARD_COLLECTION, spec["filter"],
                                sort=spec["sort"], limit=spec["limit"],
                                on_change=recorder.on_change)
            for spec in specs
        ]
        if not stack.drain():
            raise SetupError("subscriptions did not settle")
        setups_quiet.end(perf() - started, "setup")
        return stack, subscriptions, recorder

    before, after = split_set_ups(setups)
    stack, subscriptions, recorder = set_up()
    for _ in range(before - 1):
        stack.close()
        stack, subscriptions, recorder = set_up()
    app = stack.app
    failures = {"operations": 0}
    #: (key, version) -> (due time of the write, its round)
    due_of: Dict[Tuple[Any, int], Tuple[float, int]] = {}
    #: (seconds, round) of each re-subscription
    subscribe_s: List[Tuple[float, int]] = []

    def play(chunk: List[Tuple[str, Any, Any]], round_index: int) -> int:
        """Run *chunk* as one closed-loop caller; returns its writes."""
        writes = 0
        for kind, key, argument in chunk:
            due = perf()
            try:
                if kind == "replace":
                    app.unsubscribe(subscriptions[key])
                    spec = LeaderboardInputs.sorted_query(key)
                    subscriptions[key] = app.subscribe(
                        BOARD_COLLECTION, spec["filter"], sort=spec["sort"],
                        limit=spec["limit"], on_change=recorder.on_change)
                    subscribe_s.append((perf() - due, round_index))
                    continue
                writes += 1
                if kind == "update":
                    after = app.update(BOARD_COLLECTION, key, argument)
                elif kind == "delete":
                    after = app.delete(BOARD_COLLECTION, key)
                else:
                    after = app.insert(BOARD_COLLECTION, argument)
            except Exception:  # noqa: BLE001 - a failed op is counted
                failures["operations"] += 1
                continue
            due_of[(after.key, after.version)] = (due, round_index)
        # Releases renewals the poll-frequency limit deferred: the
        # inline model fires timers only when it is drained.
        stack.drain()
        return writes

    play(warmup, -1)
    due_of.clear()
    subscribe_s.clear()
    writes = 0
    with Phase(stack, ledger) as phase:
        rounds = Quiet(QUIET_WAIT_SHARE * seconds, phase.exclude)
        rounds.start()
        for start in range(0, len(operations), BOARD_CHUNK):
            cpu, began = time.process_time(), perf()
            done = play(operations[start:start + BOARD_CHUNK],
                        len(rounds.rounds))
            rounds.end({"writes": done, "busy_s": perf() - began,
                        "cpu_s": time.process_time() - cpu})
            writes += done
    report = phase.report(writes)
    report["peak_rss_mb"] = own_peak_rss_mb()

    first: Dict[Tuple[Any, int], float] = {}
    for _, key, version, match_type, arrived in recorder.arrivals:
        if match_type is not MatchType.ERROR:
            first.setdefault((key, version), arrived)
    kept = set(rounds.kept())
    latencies = [(arrived - due_of[write][0]) * 1e3
                 for write, arrived in first.items()
                 if write in due_of and due_of[write][1] in kept]

    stack.drain()
    mismatched = 0
    for subscription, spec in zip(subscriptions, specs):
        fresh = app.find(BOARD_COLLECTION, subscription.query.filter_doc,
                         sort=spec["sort"], limit=spec["limit"])
        got = subscription.result()
        if spec["sort"] is not None:
            mismatched += got != fresh
        else:
            mismatched += ({doc["_id"] for doc in got}
                           != {doc["_id"] for doc in fresh})
    failures["mismatched_results"] = mismatched
    failures["client"] = stack.client_failures()
    sizes = [len(subscription.result()) for subscription in subscriptions]
    stack.close()
    for _ in range(after):
        set_up()[0].close()

    quiet = rounds.quiet()
    report["counters"]["client.materialize.result_size_mean"] = (
        sum(sizes) / len(sizes))
    report.update({
        "attempted": len(warmup) + len(operations) + len(specs),
        "failures": failures,
        "setup_s": setups_quiet.quiet("setup"),
        "subscribe_ms": [value * 1e3 for value, round_index in subscribe_s
                         if round_index in kept],
        "notify_ms": latencies,
        "late_ms": [],
        "throughput": [r["writes"] / r["busy_s"] for r in quiet],
        "writes_per_s": (sum(r["writes"] for r in quiet)
                         / sum(r["busy_s"] for r in quiet)),
        "cpu_us_per_write": cpu_per_write(quiet),
        "quiet": {"phase": rounds.summary(),
                  "set_up": setups_quiet.summary()},
    })
    return report


RUNNERS = {
    "paper-range": run_paper_range,
    "paper-range-process": run_paper_range,
    "leaderboard": run_leaderboard,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, CPUS)
    ledger = None
    if args.traced:
        ledger = Ledger()
        ledger.install()
    report = RUNNERS[args.workload](args.workload, args.seed, args.seconds,
                                    args.setups, ledger)
    report["execution"] = dict(EXECUTION[args.workload], **GRID)
    report["cpus"] = sorted(CPUS)
    json.dump(report, sys.stdout, default=str)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
