"""Seeded input generation for the benchmark's workloads.

The generators mirror the paper's Section 6.1 workload but are kept
here, independent of ``repro.sim``, so an edit to the library cannot
change what the benchmark feeds it.  The same seed always yields the
same queries, documents and operation streams.
"""

from __future__ import annotations

import random
import string
from typing import Any, Dict, List, Optional, Tuple

_LETTERS = string.ascii_lowercase

PAPER_COLLECTION = "test"
PAPER_QUERIES = 1_000
#: Every MATCH_EVERY-th write lands in exactly one query's slot.
MATCH_EVERY = 10
#: Query slots are even values below this ceiling; noise writes use
#: odd values, which no unit-width ``[slot, slot + 1)`` range covers.
_SLOT_CEILING = 2_000_000

BOARD_COLLECTION = "players"
BOARD_PLAYERS = 10_000
BOARD_GAMES = 40
BOARD_TOP = 10
BOARD_THRESHOLDS = 4
BOARD_THRESHOLD_STEP = 200_000
BOARD_SCORE_CEILING = 1_000_000
#: One leaderboard subscription is replaced every REPLACE_EVERY writes.
REPLACE_EVERY = 50


def _word(rng: random.Random) -> str:
    return "".join(rng.choices(_LETTERS, k=10))


class PaperRangeInputs:
    """1,000 unit-width range queries on ``random`` and an insert stream
    where one write in ten matches exactly one query."""

    def __init__(self, seed: int):
        rng = random.Random(f"paper-range/{seed}")
        self.slots = [2 * v for v in rng.sample(range(_SLOT_CEILING // 2),
                                                 PAPER_QUERIES)]
        self._rng = random.Random(f"paper-range/writes/{seed}")
        self._next_key = 0

    def queries(self) -> List[Dict[str, Any]]:
        return [{"random": {"$gte": slot, "$lt": slot + 1}}
                for slot in self.slots]

    def writes(self, count: int) -> List[Tuple[Dict[str, Any], Optional[int]]]:
        """The next *count* documents of the stream, each paired with the
        index of the one query it matches (None for noise writes)."""
        rng = self._rng
        out = []
        for _ in range(count):
            key = self._next_key
            self._next_key += 1
            if key % MATCH_EVERY == MATCH_EVERY - 1:
                target: Optional[int] = rng.randrange(PAPER_QUERIES)
                value = self.slots[target]
            else:
                target = None
                value = 2 * rng.randrange(_SLOT_CEILING // 2) + 1
            document: Dict[str, Any] = {"_id": key}
            for index in range(5):
                document[f"s{index}"] = _word(rng)
            for index in range(4):
                document[f"i{index}"] = rng.randrange(1_000_000)
            document["random"] = value
            out.append((document, target))
        return out


class LeaderboardInputs:
    """10k players over 40 games, 40 sorted top-10 queries, four score
    thresholds, and a stream of score updates, deletes and inserts."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"leaderboard/{seed}")
        self._live: List[int] = []
        self._slot: Dict[int, int] = {}
        self._next_key = 0
        self._writes = 0

    def _player(self) -> Dict[str, Any]:
        rng = self._rng
        key = self._next_key
        self._next_key += 1
        self._slot[key] = len(self._live)
        self._live.append(key)
        return {"_id": key, "name": _word(rng),
                "game": rng.randrange(BOARD_GAMES),
                "score": rng.randrange(BOARD_SCORE_CEILING)}

    def _forget(self, key: int) -> None:
        index = self._slot.pop(key)
        last = self._live.pop()
        if last != key:
            self._live[index] = last
            self._slot[last] = index

    def players(self) -> List[Dict[str, Any]]:
        return [self._player() for _ in range(BOARD_PLAYERS)]

    @staticmethod
    def sorted_query(game: int) -> Dict[str, Any]:
        return {"filter": {"game": game}, "sort": [("score", -1)],
                "limit": BOARD_TOP}

    def queries(self) -> List[Dict[str, Any]]:
        boards = [self.sorted_query(game) for game in range(BOARD_GAMES)]
        thresholds = [
            {"filter": {"score": {"$gte": BOARD_THRESHOLD_STEP * i}},
             "sort": None, "limit": None}
            for i in range(1, BOARD_THRESHOLDS + 1)
        ]
        return boards + thresholds

    def operations(self, count: int) -> List[Tuple[str, Any, Any]]:
        """The next *count* operations: ``("update", key, spec)``,
        ``("delete", key, None)``, ``("insert", None, document)`` or,
        every REPLACE_EVERY writes, ``("replace", game, None)`` on top."""
        rng = self._rng
        out: List[Tuple[str, Any, Any]] = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.05:
                out.append(("insert", None, self._player()))
            elif roll < 0.10:
                key = self._live[rng.randrange(len(self._live))]
                self._forget(key)
                out.append(("delete", key, None))
            else:
                key = self._live[rng.randrange(len(self._live))]
                spec = {"$set": {"score": rng.randrange(BOARD_SCORE_CEILING)}}
                out.append(("update", key, spec))
            self._writes += 1
            if self._writes % REPLACE_EVERY == 0:
                out.append(("replace", rng.randrange(BOARD_GAMES), None))
        return out
