"""Temporary write stream retention (Section 5.1 of the paper).

Every matching node "stores received after-images and matches them
against a new query on subscription", closing the *write-subscription
race*: a write the node processed before the query was activated, but
that the query's bootstrap read did not yet reflect, is replayed when
the subscription arrives.  Replay therefore covers only the retained
writes *after the bootstrap snapshot*: each after-image carries its
position in the store's oplog, each subscription the position its
bootstrap was read at, and images before that cut are skipped (see
:meth:`~repro.core.filtering.FilteringNode.register_query`).  The
buffer serves double duty for *staleness avoidance*: writes are
versioned, so an after-image is ignored "whenever a delete (or more
recent version) for the same item has already been received".

Retention is bounded by time (the production deployment enforces "a
retention time of few seconds"); only the latest version per key is
retained because older versions are superseded by definition.  Images
are kept in arrival order, so eviction pops expired images off the
front in time proportional to what it evicts; the buffer's owners call
:meth:`RetentionBuffer.evict` after every observed write, which keeps
the buffer at one window of writes between subscriptions.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterator, List

from repro.types import AfterImage


class RetentionBuffer:
    """Time-bounded per-key after-image retention with version checks."""

    def __init__(self, retention_seconds: float):
        self.retention_seconds = retention_seconds
        #: Latest after-image per key, oldest arrival first.
        self._latest: "OrderedDict[Any, AfterImage]" = OrderedDict()
        #: Highest version ever observed per key — survives eviction so
        #: staleness checks keep working even after the after-image aged
        #: out of the replay window.
        self._versions: Dict[Any, int] = {}

    def observe(self, after: AfterImage, now: float) -> bool:
        """Record *after*; returns False when it is stale (superseded).

        A stale after-image must be dropped by the caller — processing
        it would regress the maintained result.
        """
        seen = self._versions.get(after.key, 0)
        if after.version <= seen:
            return False
        self._versions[after.key] = after.version
        latest = self._latest
        latest[after.key] = after
        latest.move_to_end(after.key)
        return True

    def is_stale(self, after: AfterImage) -> bool:
        """Check staleness without recording."""
        return after.version <= self._versions.get(after.key, 0)

    def evict(self, now: float) -> int:
        """Drop after-images older than the retention window.

        Pops from the front of the arrival order and stops at the first
        image still inside the window.  An image that arrived after a
        newer-stamped one waits for it, so eviction may keep an expired
        image a little longer but never drops one inside the window.
        """
        horizon = now - self.retention_seconds
        latest = self._latest
        evicted = 0
        while latest:
            key = next(iter(latest))
            if latest[key].timestamp >= horizon:
                break
            del latest[key]
            evicted += 1
        return evicted

    def replay(self, now: float) -> List[AfterImage]:
        """After-images to match against a newly subscribed query.

        Eviction happens first, so the replay set is the retention
        window (plus, rarely, an expired image queued behind a newer
        one — replaying a genuine latest write is always safe).
        """
        self.evict(now)
        return list(self._latest.values())

    def latest_version(self, key: Any) -> int:
        return self._versions.get(key, 0)

    def __len__(self) -> int:
        return len(self._latest)

    def __iter__(self) -> Iterator[AfterImage]:
        return iter(self._latest.values())
