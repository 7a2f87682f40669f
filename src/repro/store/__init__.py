"""Pull-based document database substrate (MongoDB stand-in).

InvaliDB sits *on top of* a pull-based database (MongoDB in the
paper's prototype).  This package is that substrate: an in-process
document store with MongoDB-style CRUD, ``find`` with filter / sort /
skip / limit, ``find_and_modify`` returning after-images, per-document
versioning, a replication log (oplog, used by the log-tailing
baseline), and hash sharding.
"""

from repro.store.collection import Collection, SnapshotRead
from repro.store.database import Database
from repro.store.documents import (
    deep_copy,
    get_path,
    set_path,
    validate_document,
)
from repro.store.indexes import HashIndex, OrderedIndex
from repro.store.oplog import Oplog, OplogEntry
from repro.store.sharding import ShardedCollection

__all__ = [
    "Collection",
    "Database",
    "HashIndex",
    "Oplog",
    "OplogEntry",
    "OrderedIndex",
    "ShardedCollection",
    "SnapshotRead",
    "deep_copy",
    "get_path",
    "set_path",
    "validate_document",
]
