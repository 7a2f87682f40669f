"""Smoke test of the benchmark: a short run of every workload.

Checks that an untraced run names every end-to-end metric of
``BENCHMARK.json`` with its unit, that a traced run names every
per-layer metric and prints the per-layer table, that the correctness
gate passes, and that the ledger accounting check passes on
``leaderboard``.  It also checks the seeded inputs and the ledger's
self-time arithmetic directly.

Run: ``python3 -m pytest perfbench/test_smoke.py -q``
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from inputs import LeaderboardInputs, PaperRangeInputs  # noqa: E402
from ledger import CALLS, SELF_WALL, TOTAL_WALL, Ledger  # noqa: E402
from session import Quiet  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def check_metrics(result: dict, listed: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, _ = run(workload, 0)
    check_metrics(result, SPEC["end_to_end"])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, reported in result["metrics"].items():
        assert reported["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result, stdout = run(workload, 1)
    check_metrics(result, SPEC["per_layer"])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert f"per-layer ledger: {workload}" in stdout
    if workload == "leaderboard":
        coverage = result["metrics"]["ledger.coverage"]["value"]
        assert abs(coverage - 1.0) <= 0.15
    else:
        assert "on the process model" in stdout
        assert result["metrics"]["runtime.process.roundtrip_us"]["value"] > 0


def test_inputs_are_a_function_of_the_seed():
    assert PaperRangeInputs(3).writes(50) == PaperRangeInputs(3).writes(50)
    assert PaperRangeInputs(3).queries() != PaperRangeInputs(4).queries()
    first, second = LeaderboardInputs(3), LeaderboardInputs(3)
    assert first.players() == second.players()
    assert first.operations(200) == second.operations(200)


def test_paper_range_matches_exactly_one_query_every_tenth_write():
    inputs = PaperRangeInputs(5)
    slots = set(inputs.slots)
    for document, target in inputs.writes(100):
        if document["_id"] % 10 == 9:
            assert document["random"] == inputs.slots[target]
        else:
            assert target is None and document["random"] not in slots


def test_self_time_excludes_nested_spans():
    ledger = Ledger()
    child = ledger.spanned("inner:sleep", lambda: time.sleep(0.02))
    parent = ledger.spanned("outer:call", lambda: child())
    parent()
    accounts = ledger.accounts()
    assert accounts["outer:call"][CALLS] == accounts["inner:sleep"][CALLS] == 1
    assert accounts["inner:sleep"][SELF_WALL] >= 20_000_000
    assert accounts["outer:call"][TOTAL_WALL] >= 20_000_000
    assert accounts["outer:call"][SELF_WALL] < 5_000_000


def test_quiet_rounds_are_chosen_by_score_within_their_kind():
    quiet = Quiet(wait_budget=0.0)
    for score in (1.0, 2.0, 1.2, 2.1, 1.3):
        quiet.add("burst", score, score)
    # Idle-heavy rounds score higher; they are compared among themselves.
    for score in (1.5, 3.0, 1.6):
        quiet.add("open", score, score)
    assert quiet.quiet("burst") == [1.0, 1.2]
    assert quiet.quiet("open") == [1.5, 1.6]


def test_quiet_keeps_the_best_eighth_when_few_rounds_qualify():
    quiet = Quiet(wait_budget=0.0)
    for score in [1.0] + [2.0 + index / 100 for index in range(15)]:
        quiet.add("round", score, score)
    assert quiet.quiet() == [1.0, 2.0]
