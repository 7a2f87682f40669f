"""Property-based tests for store substrate invariants."""

from hypothesis import given, settings, strategies as st

from repro.store.collection import Collection
from repro.store.updates import apply_update
from repro.types import WriteKind

field_names = st.sampled_from(["a", "b", "c"])
numbers = st.integers(min_value=-100, max_value=100)


class TestUpdateOperatorProperties:
    @given(st.dictionaries(field_names, numbers, min_size=1, max_size=3))
    def test_set_then_read_roundtrip(self, updates):
        result = apply_update({"_id": 1}, {"$set": dict(updates)})
        for field, value in updates.items():
            assert result[field] == value

    @given(numbers, numbers)
    def test_inc_is_additive(self, start, delta):
        once = apply_update({"_id": 1, "n": start}, {"$inc": {"n": delta}})
        assert once["n"] == start + delta

    @given(st.lists(numbers, max_size=6), numbers)
    def test_pull_removes_all_occurrences(self, values, target):
        result = apply_update({"_id": 1, "t": list(values)},
                              {"$pull": {"t": target}})
        assert target not in result["t"]
        assert [v for v in values if v != target] == result["t"]

    @given(st.lists(numbers, max_size=6), numbers)
    def test_add_to_set_is_idempotent(self, values, item):
        doc = {"_id": 1, "t": list(values)}
        once = apply_update(doc, {"$addToSet": {"t": item}})
        twice = apply_update(once, {"$addToSet": {"t": item}})
        assert once["t"] == twice["t"]
        assert once["t"].count(item) <= max(1, values.count(item))

    @given(numbers, numbers)
    def test_min_max_bracket(self, current, bound):
        low = apply_update({"_id": 1, "n": current}, {"$min": {"n": bound}})
        high = apply_update({"_id": 1, "n": current}, {"$max": {"n": bound}})
        assert low["n"] == min(current, bound)
        assert high["n"] == max(current, bound)


class TestOplogConsistency:
    @given(st.lists(st.tuples(st.sampled_from(["save", "delete"]),
                              st.integers(0, 5), numbers),
                    max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_replaying_oplog_rebuilds_collection(self, ops):
        """The oplog is a complete change history: replaying it into an
        empty map reconstructs the collection's exact state."""
        collection = Collection("source")
        for kind, key, value in ops:
            if kind == "save":
                collection.save({"_id": key, "v": value})
            elif key in collection:
                collection.delete(key)
        replayed = {}
        for entry in collection.oplog.read_from(1):
            if entry.kind is WriteKind.DELETE:
                replayed.pop(entry.key, None)
            else:
                replayed[entry.key] = entry.after_image
        expected = {key: collection.get(key) for key in collection.all_keys()}
        assert replayed == expected

    @given(st.lists(st.tuples(st.integers(0, 4), numbers), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_versions_strictly_increase_per_key(self, ops):
        collection = Collection("versions")
        for key, value in ops:
            collection.save({"_id": key, "v": value})
        last_seen = {}
        for entry in collection.oplog.read_from(1):
            previous = last_seen.get(entry.key, 0)
            assert entry.version == previous + 1
            last_seen[entry.key] = entry.version


#: Sort-field values across BSON type brackets, with few distinct
#: values so ties are common; ``_MISSING`` leaves the field out.
_MISSING = object()
sort_values = st.sampled_from(
    [_MISSING, None, 0, 1, 1.0, -2.5, "a", "b", "", True, False,
     [1, 2], {"x": 1}]
)


class TestFindWindowProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(sort_values, sort_values), max_size=25),
        fields=st.lists(
            st.tuples(st.sampled_from(["s", "t"]), st.sampled_from([1, -1])),
            min_size=1, max_size=2, unique_by=lambda field: field[0],
        ),
        skip=st.integers(min_value=0, max_value=6),
        limit=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
        indexed=st.booleans(),
    )
    def test_window_equals_full_sort_then_slice(
        self, rows, fields, skip, limit, indexed
    ):
        """Selecting the ``skip + limit`` smallest documents equals
        sorting every match and slicing — ties keep insertion order."""
        from repro.query.sortspec import SortSpec

        collection = Collection("items")
        if indexed:
            collection.ensure_index("g", "hash")
        for key, (s, t) in enumerate(rows):
            document = {"_id": key, "g": key % 2}
            if s is not _MISSING:
                document["s"] = s
            if t is not _MISSING:
                document["t"] = t
            collection.insert(document)
        filter_doc = {"g": 0} if indexed else {}
        matching = collection.find(filter_doc)
        end = None if limit is None else skip + limit
        expected = SortSpec.coerce(fields).sort(matching)[skip:end]
        assert collection.find(
            filter_doc, sort=fields, skip=skip, limit=limit
        ) == expected
