"""Snapshot-bounded retention replay.

A subscription's bootstrap read reports the oplog position it was taken
at; a filtering node replays only the retained writes at or after that
position (Section 5.1's write-subscription race), skipping the ones the
bootstrap already reflects without evaluating them.  These tests pin:

* the atomic bootstrap read — a write committed right after the read
  returns must still reach the subscriber;
* the saving — registering against retained pre-snapshot writes costs
  no engine evaluation, while writes without a position, from another
  log, or registered without a snapshot are always replayed;
* convergence — with the subscribe channel delayed at random, every
  subscription ends equal to ``find`` on a plain database, a sharded
  collection, and two databases feeding one cluster, across renewals;
* the process model — the same race converges with the grid in forked
  workers.
"""

import os
import random
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import InvaliDBClient
from repro.core.cluster import (
    InvaliDBCluster,
    deserialize_after_image,
    serialize_after_image,
)
from repro.core.config import InvaliDBConfig
from repro.core.filtering import FilteringNode
from repro.core.partitioning import NodeCoordinates
from repro.core.server import AppServer
from repro.event.broker import Broker
from repro.event.channels import QUERY_PREFIX
from repro.query.engine import Query
from repro.runtime.execution import ExecutionConfig, InlineExecutionModel
from repro.store.collection import Collection
from repro.store.database import Database
from repro.store.sharding import ShardedCollection
from repro.types import AfterImage, WriteKind


def inline_stack(delay_fn=None, retention_seconds=10.0, seed=7, **options):
    model = InlineExecutionModel(ExecutionConfig(mode="inline", seed=seed))
    broker = Broker(delay_fn=delay_fn, execution=model)
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        retention_seconds=retention_seconds, **options,
    )
    cluster = InvaliDBCluster(broker, config).start()
    return model, broker, cluster, config


def write_after_read(client, write):
    """Commit *write* once, right after the client's next bootstrap
    read returns — the window between the read and the subscribe
    request reaching the grid."""
    read = client._execute
    pending = [write]

    def racing(query):
        result = read(query)
        if pending:
            pending.pop()()
        return result

    client._execute = racing


def by_id(documents):
    return sorted(documents, key=lambda doc: repr(doc["_id"]))


class TestAtomicBootstrapRead:
    def test_write_after_bootstrap_read_reaches_subscriber(self):
        """The bootstrap's versions must be those of the documents it
        returned: a version read later may already belong to the racing
        write, and replay would then skip that write as delivered."""
        model, broker, cluster, config = inline_stack()
        app = AppServer("race-app", broker, config=config)
        try:
            app.insert("items", {"_id": 1, "v": 20})
            assert broker.drain()
            write_after_read(
                app.client,
                lambda: app.update("items", 1, {"$set": {"v": 99}}),
            )
            subscription = app.subscribe("items", {"v": {"$gte": 0}})
            assert subscription.initial.documents == [{"_id": 1, "v": 20}]
            assert broker.drain()
            assert subscription.result() == [{"_id": 1, "v": 99}]
            assert subscription.result() == app.find(
                "items", {"v": {"$gte": 0}}
            )
        finally:
            app.close()
            cluster.stop()
            broker.close()

    def test_renewal_reads_atomically_too(self):
        model, broker, cluster, config = inline_stack()
        app = AppServer("race-app", broker, config=config)
        try:
            app.insert("items", {"_id": 1, "v": 20})
            top = app.subscribe("items", {}, sort=[("v", -1)], limit=1)
            assert broker.drain()
            write_after_read(
                app.client,
                lambda: app.update("items", 1, {"$set": {"v": 99}}),
            )
            assert app.client.renew(top.query.query_id)
            assert broker.drain()
            assert top.result() == [{"_id": 1, "v": 99}]
        finally:
            app.close()
            cluster.stop()
            broker.close()

    def test_read_snapshot_reports_versions_and_position(self):
        collection = Collection("items")
        collection.insert({"_id": 1, "v": 1})
        collection.update(1, {"$set": {"v": 2}})
        collection.insert({"_id": 2, "v": 5})
        read = collection.read_snapshot(Query({"v": {"$gte": 0}}, "items"))
        assert read.documents == [{"_id": 1, "v": 2}, {"_id": 2, "v": 5}]
        assert read.versions == [[1, 2], [2, 1]]
        assert read.position == (collection.oplog.token, 4)
        after = collection.insert({"_id": 3, "v": 7})
        assert after.position == read.position

    def test_bootstrap_latency_stats_are_running_totals(self):
        model, broker, cluster, config = inline_stack()
        app = AppServer("stats-app", broker, config=config)
        try:
            assert app.client.bootstrap_latency_stats() == {
                "count": 0, "average": 0.0, "maximum": 0.0,
            }
            for bound in (1, 2, 3):
                app.subscribe("items", {"v": {"$gte": bound}})
            stats = app.client.bootstrap_latency_stats()
            assert stats["count"] == 3
            assert 0.0 < stats["average"] <= stats["maximum"]
        finally:
            app.close()
            cluster.stop()
            broker.close()


def retaining_node():
    return FilteringNode(NodeCoordinates(0, 0), retention_seconds=3600.0)


class TestReplayCost:
    QUERY = Query({"v": {"$gte": 0}}, "items")

    def fill(self, node, collection, count):
        for key in range(count):
            node.process_write(collection.insert({"_id": key, "v": key}), 0.0)

    def register(self, node, read, snapshot):
        return node.register_query(
            self.QUERY, read.documents, dict(read.versions), 0.0, snapshot
        )

    def test_pre_snapshot_writes_cost_no_evaluation(self):
        collection = Collection("items")
        node = retaining_node()
        self.fill(node, collection, 50)
        evaluated = node.matched_operations
        read = collection.read_snapshot(self.QUERY)
        assert self.register(node, read, read.position) == []
        assert node.matched_operations == evaluated
        assert node.replay_evaluations == 0
        assert node.replay_skipped == 50
        assert node.stats()["replay_skipped"] == 50

    def test_writes_after_the_snapshot_are_replayed(self):
        collection = Collection("items")
        node = retaining_node()
        self.fill(node, collection, 10)
        read = collection.read_snapshot(self.QUERY)
        node.process_write(collection.update(3, {"$set": {"v": 30}}), 0.0)
        node.process_write(collection.insert({"_id": 10, "v": 10}), 0.0)
        events = self.register(node, read, read.position)
        assert [(e.match_type.value, e.key) for e in events] == [
            ("change", 3), ("add", 10),
        ]
        assert node.replay_evaluations == 2
        assert node.replay_skipped == 9

    def test_without_a_snapshot_everything_is_rechecked(self):
        collection = Collection("items")
        node = retaining_node()
        self.fill(node, collection, 10)
        read = collection.read_snapshot(self.QUERY)
        assert self.register(node, read, None) == []
        # Every image is version-checked against the bootstrap; none is
        # newer, so none is evaluated either.
        assert node.replay_evaluations == 0
        assert node.replay_skipped == 10

    def test_other_logs_and_unpositioned_images_are_replayed(self):
        ours, theirs = Collection("items"), Collection("items")
        node = retaining_node()
        ours.insert({"_id": 1, "v": 1})
        # Another store's writes carry sequences below our cut, but
        # they are not in our bootstrap: they must be replayed.
        for key in range(100, 105):
            node.process_write(theirs.insert({"_id": key, "v": key}), 0.0)
        node.process_write(AfterImage(
            key=200, version=1, kind=WriteKind.INSERT,
            document={"_id": 200, "v": 3}, collection="items",
        ), 0.0)
        read = ours.read_snapshot(self.QUERY)
        events = self.register(node, read, read.position)
        assert sorted(e.key for e in events) == [100, 101, 102, 103, 104, 200]
        assert node.replay_evaluations == 6

    def test_position_survives_the_wire(self):
        collection = Collection("items")
        after = collection.insert({"_id": 1, "v": 1})
        assert after.position is not None
        assert deserialize_after_image(serialize_after_image(after)) == after
        loose = AfterImage(key=1, version=1, kind=WriteKind.INSERT,
                           document={"_id": 1})
        assert "pos" not in serialize_after_image(loose)
        assert deserialize_after_image(serialize_after_image(loose)) == loose

    def test_retention_stays_bounded_between_subscribes(self):
        clock = [0.0]
        collection = Collection("items", clock=lambda: clock[0])
        node = FilteringNode(NodeCoordinates(0, 0), retention_seconds=1.0)
        for key in range(500):
            clock[0] = key * 0.01
            node.process_write(collection.insert({"_id": key, "v": key}),
                               clock[0])
        # Writes span 5 s; only the last 1 s stays retained.
        assert 99 <= len(node.retention) <= 101

    def test_cluster_counters_reach_the_registry(self):
        model, broker, cluster, config = inline_stack(telemetry=True)
        app = AppServer("count-app", broker, config=config)
        try:
            for key in range(8):
                app.insert("items", {"_id": key, "v": key})
            app.subscribe("items", {"v": {"$gte": 0}})
            assert broker.drain()
            snapshot = cluster.snapshot()
            assert snapshot["matching_totals"]["replay_skipped"] == 8
            assert snapshot["matching_totals"]["replay_evaluations"] == 0
            metrics = cluster.telemetry.registry.snapshot()
            assert metrics["cluster.replay_skipped"] == 8
            assert metrics["cluster.replay_evaluations"] == 0
        finally:
            app.close()
            cluster.stop()
            broker.close()


# ---------------------------------------------------------------------------
# Convergence under delayed subscriptions (hypothesis, inline model)
# ---------------------------------------------------------------------------

KEYS = 6
#: (action, key-or-query index)
steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["write", "write", "write", "delete", "subscribe", "renew",
             "resubscribe", "drain"]
        ),
        st.integers(min_value=0, max_value=KEYS - 1),
    ),
    min_size=1,
    max_size=30,
)

QUERIES = [
    ({"v": {"$gte": 40}}, None, None),
    ({}, [("v", -1)], 3),
    ({"v": {"$lt": 200}}, [("v", 1)], 2),
]


class _Side:
    """One app server's view: its client, its store, its key range."""

    def __init__(self, client, stores, writer, offset):
        self.client = client
        self.stores = stores
        self.writer = writer
        self.offset = offset
        self.live = set()

    def write(self, step, key, delete):
        key += self.offset
        value = step * 16 + key % 16  # unique: no sort ties
        if delete:
            if key in self.live:
                self.writer.delete(key)
                self.live.discard(key)
        elif key in self.live:
            self.writer.update(key, {"$set": {"v": value}})
        else:
            self.writer.insert({"_id": key, "v": value})
            self.live.add(key)


def build_sides(backend, broker, config):
    if backend == "sharded":
        store = ShardedCollection("items", shards=3)
        client = InvaliDBClient("app-0", broker, store, config=config)
        client.attach(store)
        return [_Side(client, [store], store, 0)]
    count = 2 if backend == "two-databases" else 1
    databases = [Database(f"db-{index}") for index in range(count)]
    sides = []
    for index, database in enumerate(databases):
        app = AppServer(f"app-{index}", broker, database=database,
                        config=config)
        items = app._collection("items")
        stores = [db.collection("items") for db in databases]
        sides.append(_Side(app.client, stores, items, 100 * index))
    return sides


def expected(stores, filter_doc, sort, limit):
    """``find`` over the logical collection the cluster sees."""
    documents = []
    for store in stores:
        documents.extend(store.find(filter_doc))
    if sort is None:
        return by_id(documents)
    documents = Query({}, "items", sort=sort).sort.sort(documents)
    return documents[:limit]


@settings(max_examples=40, deadline=None)
@given(
    backend=st.sampled_from(["database", "sharded", "two-databases"]),
    plan=steps,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_delayed_subscriptions_converge_to_find(backend, plan, seed):
    rng = random.Random(seed)

    def delay(channel):
        return rng.uniform(0.0, 0.05) if channel.startswith(QUERY_PREFIX) \
            else 0.0

    model, broker, cluster, config = inline_stack(
        delay_fn=delay, retention_seconds=3600.0, seed=seed
    )
    sides = build_sides(backend, broker, config)
    subscriptions = []
    try:
        for step, (action, arg) in enumerate(plan):
            side = sides[step % len(sides)]
            if action in ("write", "delete"):
                side.write(step, arg, action == "delete")
            elif action == "subscribe":
                filter_doc, sort, limit = QUERIES[arg % len(QUERIES)]
                subscriptions.append((side, side.client.subscribe(
                    filter_doc, collection="items", sort=sort, limit=limit,
                )))
            elif action == "renew" and subscriptions:
                owner, handle = subscriptions[arg % len(subscriptions)]
                owner.client.renew(handle.query.query_id)
            elif action == "resubscribe":
                side.client.resubscribe_all()
            else:
                assert broker.drain()
        assert broker.drain()
        for side, handle in subscriptions:
            query = handle.query
            want = expected(side.stores, query.filter_doc,
                            query.sort and list(query.sort.fields),
                            query.limit)
            got = handle.result()
            assert (got if query.sort else by_id(got)) == want
    finally:
        for side in sides:
            side.client.close()
        cluster.stop()
        broker.close()
        model.shutdown()


def test_threaded_writers_racing_subscribes_converge():
    """Writer threads update the keys while subscriptions are taken: a
    bootstrap whose versions ran ahead of its documents would leave a
    subscriber stuck on a stale document."""
    broker = Broker()
    config = InvaliDBConfig(query_partitions=2, write_partitions=2)
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("stress-app", broker, config=config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    stop = threading.Event()
    try:
        for key in range(8):
            app.insert("items", {"_id": key, "v": 0})

        def writer(offset):
            count = 0
            while not stop.is_set() and count < 300:
                count += 1
                app.update("items", (offset + count) % 8,
                           {"$set": {"v": offset * 1000 + count}})

        writers = [threading.Thread(target=writer, args=(index,))
                   for index in range(3)]
        for thread in writers:
            thread.start()
        subscriptions = [
            app.subscribe("items", {"v": {"$gte": bound}})
            for bound in range(0, 3000, 250)
        ]
        stop.set()
        for thread in writers:
            thread.join(timeout=10.0)
            assert not thread.is_alive()

        def converged():
            return all(
                by_id(handle.result())
                == by_id(app.find("items", handle.query.filter_doc))
                for handle in subscriptions
            )

        deadline = time.monotonic() + 10.0
        while not converged() and time.monotonic() < deadline:
            broker.drain(1.0)
            cluster.drain(1.0)
        assert converged()
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        app.close()
        cluster.stop()
        broker.close()


# ---------------------------------------------------------------------------
# Process model
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(socket, "AF_UNIX")),
    reason="process execution model requires POSIX fork + socketpair",
)
def test_process_model_write_racing_subscribe_converges():
    broker = Broker()
    config = InvaliDBConfig(
        query_partitions=2, write_partitions=2,
        execution_model="process", process_workers=2,
    )
    cluster = InvaliDBCluster(broker, config).start()
    app = AppServer("race-proc", broker, config=config)
    try:
        for key in range(20):
            app.insert("items", {"_id": key, "v": key})
        write_after_read(
            app.client,
            lambda: app.update("items", 3, {"$set": {"v": 300}}),
        )
        flat = app.subscribe("items", {"v": {"$gte": 0}})
        top = app.subscribe("items", {}, sort=[("v", -1)], limit=3)
        for key in range(20, 30):
            app.insert("items", {"_id": key, "v": key})

        def converged():
            return (
                by_id(flat.result()) == by_id(app.find("items", {}))
                and top.result() == app.find(
                    "items", {}, sort=[("v", -1)], limit=3)
            )

        deadline = time.monotonic() + 10.0
        while not converged() and time.monotonic() < deadline:
            broker.drain(2.0)
            cluster.drain(2.0)
            time.sleep(0.01)
        assert converged()
        assert flat.result() and {"_id": 3, "v": 300} in flat.result()
    finally:
        app.close()
        cluster.stop()
        broker.close()
