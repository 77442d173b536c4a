"""The unified streaming join engine: planner, backends, executors.

This subsystem is the single interface every scaling feature targets
(ROADMAP: caching, batching, streaming, sharding, multi-backend), layered
over the paper's machinery:

* :mod:`repro.engine.backends` — the :class:`IndexBackend` protocol
  (Section 5.3.2's (ST1)-(ST3) search-tree contract) with hash-trie and
  sorted flat-array implementations, cached uniformly in
  :class:`~repro.relations.database.Database`;
* :mod:`repro.engine.planner` — cost-based selection of algorithm,
  attribute order, and backend, yielding an inspectable
  :class:`JoinPlan` with the query's AGM bound (Section 2) attached;
* :mod:`repro.engine.executors` — the registry putting all five join
  algorithms behind one ``iter_join() / execute()`` streaming interface.

The planner's data-awareness (relation profiles, heavy-hitter skew
detection, exact conditional selectivities) lives in
:mod:`repro.stats` and is cached per :class:`Database`.
"""

from repro.engine.backends import (
    DEFAULT_BACKEND,
    INDEX_BACKENDS,
    IndexBackend,
    backend_kinds,
    build_index,
    validate_backend,
)
from repro.engine.executors import EXECUTORS, algorithm_names, build_executor
from repro.engine.parallel import (
    DEFAULT_BATCH_SIZE,
    SHARD_MODES,
    ShardJob,
    ShardSlice,
    batches,
    plan_shards,
    restrict,
    shard_join,
)
from repro.engine.planner import (
    JoinPlan,
    plan_attribute_order_selectivity,
    plan_join,
)

__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_BATCH_SIZE",
    "EXECUTORS",
    "INDEX_BACKENDS",
    "IndexBackend",
    "JoinPlan",
    "SHARD_MODES",
    "ShardJob",
    "ShardSlice",
    "algorithm_names",
    "backend_kinds",
    "batches",
    "build_executor",
    "build_index",
    "plan_attribute_order_selectivity",
    "plan_join",
    "plan_shards",
    "restrict",
    "shard_join",
    "validate_backend",
]
