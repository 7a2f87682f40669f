"""Outside-in layer ledger: spans around the calls into each layer.

The benchmark wraps the public entry points of each layer of the stack
(app server, store, client, codec, broker, stream runtime, execution
substrate, ingestion, filtering, sorting, delivery, process workers)
with a timing span.  A span records wall time (``perf_counter_ns``) and
thread CPU time (``thread_time_ns``); a layer's *self* time is its
spans' time minus the time of the spans nested in them on the same
thread.  Nothing inside the library changes: the wrappers replace class
attributes, so :func:`install` must run before the stack is built —
``AppServer`` and the client bind ``forward_write`` and the broker
listener as callbacks when they attach, and a wrapper installed after
that would silently miss both.

Accounts are kept per thread (no locks on the hot path) and summed when
read.  Forked process-model workers inherit the wrappers switched off:
worker cost is measured from the worker's CPU time instead.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Account fields: self wall ns, self CPU ns, calls, units, total wall ns.
SELF_WALL, SELF_CPU, CALLS, UNITS, TOTAL_WALL = range(5)

#: (module, class or None for a module function, attributes, layer,
#: unit counter).  A unit counter maps (args, result) to a count summed
#: into the account, e.g. bytes encoded or items per round-trip.
ENTRY_POINTS: List[Tuple[str, Optional[str], Tuple[str, ...], str, Any]] = [
    ("repro.core.server", "AppServer",
     ("insert", "update", "delete", "subscribe", "unsubscribe", "find"),
     "app", None),
    ("repro.store.collection", "Collection",
     ("insert", "update", "delete", "find"), "store", None),
    ("repro.core.client", "InvaliDBClient", ("forward_write",),
     "client.publish", None),
    ("repro.core.client", "InvaliDBClient",
     ("subscribe", "unsubscribe", "renew"), "client.subscribe", None),
    ("repro.core.client", "InvaliDBClient", ("_on_notification",),
     "client.materialize", None),
    ("repro.event.codec", "JsonCodec", ("encode",), "event.codec",
     lambda args, result: len(result)),
    ("repro.event.codec", "JsonCodec", ("decode",), "event.codec", None),
    ("repro.event.broker", "Broker", ("publish", "_dispatch_batch"),
     "event.broker", None),
    ("repro.stream.runtime", "LocalRuntime", ("inject",),
     "stream.runtime", None),
    ("repro.stream.runtime", "_Task", ("_handle_batch", "_emit", "_flush"),
     "stream.runtime", None),
    ("repro.runtime.execution", "InlineExecutionModel", ("_put", "drain"),
     "runtime.execution", None),
    ("repro.runtime.execution", "ThreadedExecutionModel", ("_deliver",),
     "runtime.execution", None),
    ("repro.core.cluster", "InvaliDBCluster",
     ("_on_write_message", "_on_query_message"), "cluster.ingestion", None),
    ("repro.core.cluster", "_WriteIngestionBolt", ("process",),
     "cluster.ingestion", None),
    ("repro.core.cluster", "_QueryIngestionBolt", ("process",),
     "cluster.ingestion", None),
    ("repro.core.cluster", None, ("deserialize_after_image",),
     "cluster.ingestion", None),
    ("repro.core.cluster", "_MatchingBolt", ("process_batch",),
     "filtering", None),
    ("repro.core.filtering", "FilteringNode",
     ("process_write", "register_query", "deactivate_query"),
     "filtering", None),
    ("repro.core.cluster", "_SortingBolt", ("process",), "sorting", None),
    ("repro.core.sorting", "SortingNode",
     ("handle_event", "register_query", "deactivate_query"),
     "sorting", None),
    ("repro.core.cluster", "InvaliDBCluster", ("_publish_change",),
     "cluster.delivery", None),
    ("repro.core.cluster", "_ProcessGridBolt", ("process_batch",),
     "runtime.process", None),
    ("repro.runtime.process", "RemoteCell", ("request_batch",),
     "runtime.process", lambda args, result: len(args[1])),
    ("repro.event.wire", "BinaryCodec", ("encode_batch", "decode"),
     "event.wire", None),
]


class Ledger:
    """Per-thread span accounts keyed by ``"<layer>:<entry point>"``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[Dict[str, List[int]]] = []
        self._lock = threading.Lock()
        self.active = True

    def _thread_state(self) -> Tuple[List[List[int]], Dict[str, List[int]]]:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def spanned(self, name: str, function: Callable[..., Any],
                units: Optional[Callable[[Any, Any], int]] = None
                ) -> Callable[..., Any]:
        """*function* wrapped in a span accounted under *name*."""
        state = self._thread_state
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns

        def span(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return function(*args, **kwargs)
            stack, table = state()
            children = [0, 0]
            stack.append(children)
            wall0 = wall()
            cpu0 = cpu()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                cpu1 = cpu()
                wall1 = wall()
                stack.pop()
                spent_wall = wall1 - wall0
                spent_cpu = cpu1 - cpu0
                account = table.get(name)
                if account is None:
                    account = table[name] = [0, 0, 0, 0, 0]
                account[SELF_WALL] += spent_wall - children[0]
                account[SELF_CPU] += spent_cpu - children[1]
                account[CALLS] += 1
                account[TOTAL_WALL] += spent_wall
                if units is not None and result is not None:
                    account[UNITS] += units(args, result)
                if stack:
                    parent = stack[-1]
                    parent[0] += spent_wall
                    parent[1] += spent_cpu

        return span

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        os.register_at_fork(after_in_child=self._deactivate)
        for module_name, class_name, attributes, layer, units in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            for attribute in attributes:
                original = owner.__dict__[attribute]
                setattr(owner, attribute,
                        self.spanned(f"{layer}:{attribute}", original, units))

    def _deactivate(self) -> None:
        self.active = False

    def accounts(self) -> Dict[str, List[int]]:
        """Accounts summed over every thread seen so far."""
        with self._lock:
            tables = list(self._tables)
        merged: Dict[str, List[int]] = {}
        for table in tables:
            for name, account in list(table.items()):
                into = merged.setdefault(name, [0, 0, 0, 0, 0])
                for field, value in enumerate(account):
                    into[field] += value
        return merged


def delta(after: Dict[str, List[int]],
          before: Dict[str, List[int]]) -> Dict[str, List[int]]:
    """Per-account difference of two :meth:`Ledger.accounts` reads."""
    out = {}
    for name, account in after.items():
        base = before.get(name, [0, 0, 0, 0, 0])
        out[name] = [value - base[field] for field, value in enumerate(account)]
    return out


def by_layer(accounts: Dict[str, List[int]]) -> Dict[str, List[int]]:
    """Fold ``"<layer>:<entry point>"`` accounts into layer totals."""
    layers: Dict[str, List[int]] = {}
    for name, account in accounts.items():
        into = layers.setdefault(name.split(":", 1)[0], [0, 0, 0, 0, 0])
        for field, value in enumerate(account):
            into[field] += value
    return layers
