#!/usr/bin/env python
"""Quickstart: worst-case optimal joins in five minutes.

Walks through the library's core workflow on the paper's motivating
triangle query R(A,B) * S(B,C) * T(A,C):

1. build relations and a join query;
2. compute the AGM output-size bound;
3. run the worst-case optimal join (and the specialists);
4. stream rows with iter_join and inspect the engine's plan with explain;
5. see why this matters: the Example 2.2 instance where every classical
   binary plan does quadratic work while NPRR stays linear.

Run:  python examples/quickstart.py
"""

import itertools
import time

from repro import (
    FractionalCover,
    JoinQuery,
    NPRRJoin,
    Relation,
    execute,
    explain,
    iter_join,
    output_bound,
)
from repro.baselines.hash_join import chain_hash_join
from repro.workloads import instances


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Relations are named tuple sets over ordered attribute schemas.
    # ------------------------------------------------------------------
    follows = Relation(
        "R", ("A", "B"), [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)]
    )
    mentions = Relation(
        "S", ("B", "C"), [(1, 9), (2, 9), (2, 7), (3, 7), (0, 9)]
    )
    likes = Relation(
        "T", ("A", "C"), [(0, 9), (0, 7), (1, 7), (3, 9), (2, 7)]
    )
    print("Input relations:")
    for rel in (follows, mentions, likes):
        print(f"  {rel}")

    # ------------------------------------------------------------------
    # 2. The AGM bound: how large *can* the output be?
    #    For the triangle with |R|=|S|=|T|=5 the optimal fractional cover
    #    is (1/2, 1/2, 1/2), giving 5^{3/2} ~ 11.18.
    # ------------------------------------------------------------------
    bound = output_bound([follows, mentions, likes])
    print(f"\nAGM bound: {bound:.2f} tuples  (5^(3/2) = 11.18)")

    # ------------------------------------------------------------------
    # 3. Join! `execute` picks a worst-case optimal algorithm automatically;
    #    every named algorithm returns the same tuples.
    # ------------------------------------------------------------------
    result = execute([follows, mentions, likes]).relation()
    print(f"\nTriangles found ({len(result)}):")
    for row in sorted(result.tuples):
        print(f"  A={row[0]}  B={row[1]}  C={row[2]}")

    for algorithm in ("nprr", "lw", "generic", "leapfrog", "arity2"):
        alt = execute(
            [follows, mentions, likes], algorithm=algorithm
        ).relation()
        assert alt.equivalent(result)
    print("\nnprr / lw / generic / leapfrog / arity2 all agree.")

    # Explicit control: run Algorithm 2 with a cover of your choosing and
    # inspect its work counters.
    query = JoinQuery([follows, mentions, likes])
    from fractions import Fraction

    executor = NPRRJoin(
        query, cover=FractionalCover.uniform(query.hypergraph, Fraction(1, 2))
    )
    executor.execute()
    print(f"NPRR statistics: {executor.stats.as_dict()}")

    # ------------------------------------------------------------------
    # 4. The streaming engine: iter_join yields rows as the search finds
    #    them (take two and stop — nothing else is computed; generic's
    #    loop nest and leapfrog's recursion both stop where the consumer
    #    does, the shape specialists wrap execute()),
    #    and explain shows the plan the engine chose without running it.
    # ------------------------------------------------------------------
    first_two = list(
        itertools.islice(
            iter_join([follows, mentions, likes], algorithm="generic"), 2
        )
    )
    print(f"\nFirst two streamed rows: {first_two}")
    plan = explain([follows, mentions, likes], algorithm="leapfrog")
    print("\nEngine plan for --algorithm leapfrog:")
    print(plan.describe())

    # ------------------------------------------------------------------
    # 5. Why worst-case optimal?  Example 2.2's instance: all pairwise
    #    joins have ~N^2/4 tuples, the triangle join is empty.
    # ------------------------------------------------------------------
    n = 2000
    hard = instances.triangle_hard_instance(n)
    start = time.perf_counter()
    wcoj_out = execute(hard, algorithm="nprr").relation()
    wcoj_time = time.perf_counter() - start

    start = time.perf_counter()
    binary_out, stats = chain_hash_join(hard)
    binary_time = time.perf_counter() - start

    assert wcoj_out.is_empty() and binary_out.is_empty()
    print(
        f"\nExample 2.2 at N={n}: output is empty, but getting there cost"
        f"\n  binary hash plan : {binary_time:.3f}s "
        f"(materialized {stats.max_intermediate} intermediate tuples)"
        f"\n  NPRR (Algorithm 2): {wcoj_time:.3f}s "
        f"(worst-case optimal, no intermediate blowup)"
        f"\n  speedup: {binary_time / wcoj_time:.0f}x"
    )


if __name__ == "__main__":
    main()
