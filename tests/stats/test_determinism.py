"""Statistics determinism: identical data => identical plans.

The contract (ISSUE 3 satellite): with the same data, the planner's
decisions — attribute order, backend(s), shard count — are identical
across runs *and across process boundaries*.  Cross-process is the
sharp edge: string hashing is randomized per process
(``PYTHONHASHSEED``), so anything that iterates a set/frozenset of
strings in hash order is run-to-run stable but process-to-process
unstable.  The statistics are exact — counts, and integer sums of
counts, which no iteration order changes; these tests pin it with
string-valued relations and explicitly different hash seeds.
"""

import os
import pathlib
import pickle
import subprocess
import sys
import textwrap

from repro.engine.planner import plan_join
from repro.stats import StatsProvider
from repro.workloads import generators

# String values make set iteration order process-dependent — the
# adversarial case for cross-process determinism.
WORKLOAD_SRC = textwrap.dedent(
    """
    from repro.core.query import JoinQuery
    from repro.relations.relation import Relation

    def workload():
        r = Relation(
            "R", ("A", "B"),
            [(f"a{i % 37}", f"b{i % 11}") for i in range(300)],
        )
        s = Relation(
            "S", ("B", "C"),
            [(f"b{i % 11}", f"c{i % 53}") for i in range(300)],
        )
        t = Relation(
            "T", ("A", "C"),
            [(f"a{i % 5}", f"c{i % 53}") for i in range(300)],
        )
        return JoinQuery([r, s, t])
    """
)

_NAMESPACE: dict = {}
exec(WORKLOAD_SRC, _NAMESPACE)
workload = _NAMESPACE["workload"]


def decisions(plan):
    return (
        plan.attribute_order,
        plan.backend,
        plan.relation_backends,
        plan.shards,
        plan.statistics,
    )


class TestWithinProcess:
    def test_identical_data_identical_plans(self):
        first = plan_join(workload(), "generic", shards="auto")
        second = plan_join(workload(), "generic", shards="auto")
        assert decisions(first) == decisions(second)

    def test_fresh_providers_agree(self):
        # No hidden state: two independent providers.
        a = plan_join(workload(), "generic", stats=StatsProvider())
        b = plan_join(workload(), "generic", stats=StatsProvider())
        assert decisions(a) == decisions(b)

    def test_pickled_plan_preserves_decisions(self):
        plan = plan_join(workload(), "generic", shards="auto")
        clone = pickle.loads(pickle.dumps(plan))
        assert decisions(clone) == decisions(plan)
        assert clone.reasons == plan.reasons


class TestAcrossProcesses:
    """Run the same plan in subprocesses with different PYTHONHASHSEED."""

    SCRIPT = WORKLOAD_SRC + textwrap.dedent(
        """
        import pickle, sys
        from repro.engine.planner import plan_join

        plan = plan_join(workload(), "generic", shards="auto")
        payload = (
            plan.attribute_order,
            plan.backend,
            plan.relation_backends,
            plan.shards,
            plan.statistics,
        )
        sys.stdout.buffer.write(pickle.dumps(payload))
        """
    )

    def run_child(self, hashseed: str):
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        env["PYTHONHASHSEED"] = hashseed
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            env=env,
            check=True,
        )
        return pickle.loads(result.stdout)

    def test_plans_agree_across_hash_randomization(self):
        first = self.run_child("1")
        second = self.run_child("2")
        assert first == second

    def test_child_plan_matches_parent(self):
        child = self.run_child("3")
        parent = plan_join(workload(), "generic", shards="auto")
        assert child == (
            parent.attribute_order,
            parent.backend,
            parent.relation_backends,
            parent.shards,
            parent.statistics,
        )


class TestShardedExecutionDeterminism:
    def test_auto_sharded_parity_with_serial(self):
        # shards="auto" + heavy-aware sizing keeps exact set parity.
        q = generators.random_instance(
            generators.random_hypergraph(3, 3, 2, seed=1), 2600, 40, seed=5
        )
        from repro.api import execute

        serial = set(execute(q, algorithm="generic"))
        sharded = set(
            execute(q, shards="auto", algorithm="generic", mode="serial")
        )
        assert sharded == serial
