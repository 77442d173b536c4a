"""repro: worst-case optimal join algorithms (Ngo-Porat-Re-Rudra, PODS'12).

A complete reproduction of "Worst-case Optimal Join Algorithms": the AGM
fractional-cover machinery, Algorithm 1 (Loomis-Whitney instances),
Algorithm 2 (all join queries), the Section 6 lower-bound instance
families, and every Section 7 extension (arity-2 queries, relaxed joins,
full conjunctive queries, functional dependencies), plus the classical
baselines the paper compares against and two successor WCOJ algorithms
(Generic Join, Leapfrog Triejoin) as cross-checking extensions.

Quickstart::

    from repro import Q, Relation, execute, output_bound

    r = Relation("R", ("A", "B"), [(0, 1), (1, 2)])
    s = Relation("S", ("B", "C"), [(1, 5), (2, 6)])
    t = Relation("T", ("A", "C"), [(0, 5), (1, 6)])
    query = execute([r, s, t])      # worst-case optimal triangle join
    for row in query:
        print(row)                  # streamed, no materialization
    print(query.relation("J"))      # ... or materialized
    print(query.count())            # ... or folded, no enumeration
    print(output_bound([r, s, t]))  # the AGM bound 2^(3/2)
    print(query.plan().describe())  # the engine's join plan

    # Selections and projections, pushed into the plan:
    print(Q(r, s, t).where(A=0).select("C").relation())

    # Aggregates fold into the search (no enumeration), and sample()
    # draws uniform rows exactly, from one count:
    print(Q(r, s, t).count())
    print(Q(r, s, t).group_by("A").count())
    print(Q(r, s, t).sample(1, seed=7))
"""

from repro.aggregate import (
    Avg,
    Count,
    CountDistinct,
    GroupBy,
    Max,
    Min,
    Sum,
)
from repro.api import ALGORITHMS, execute, output_bound
from repro.distributed import (
    DispatchScheduler,
    LoopbackTransport,
    Scheduler,
    ShardWorker,
    SocketTransport,
    WorkerServer,
)
from repro.core import (
    ArityTwoJoin,
    Atom,
    ConjunctiveQuery,
    Const,
    FunctionalDependency,
    GenericJoin,
    JoinQuery,
    LWJoin,
    LeapfrogTriejoin,
    NPRRJoin,
    QPTree,
    RelaxedJoin,
    Var,
    arity_two_join,
    fd_aware_bound,
    fd_aware_join,
    generic_join,
    leapfrog_join,
    lw_join,
    nprr_join,
    relaxed_join,
    triangle_join,
)
from repro.engine import (
    IndexBackend,
    JoinPlan,
    plan_join,
)
from repro.errors import (
    CompileError,
    CoverError,
    DatabaseError,
    DistributedError,
    FunctionalDependencyError,
    LangError,
    LinearProgramError,
    ParseError,
    PlanError,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.observe import (
    MetricsRegistry,
    Span,
    SpanContext,
    Tracer,
)
from repro.hypergraph import (
    FractionalCover,
    Hypergraph,
    agm_bound,
    best_agm_bound,
    lw_hypergraph,
    optimal_fractional_cover,
    tighten_cover,
    verify_bt,
    verify_lw,
)
from repro.lang import (
    CompiledQuery,
    QueryResult,
    compile_query,
    normalize,
    parse,
)
from repro.query import (
    ExecutionContext,
    GroupedQuery,
    PreparedQuery,
    Q,
    QueryBuilder,
    ShardSpec,
    StealPolicy,
)
from repro.server import (
    AdmissionController,
    AdmissionRejected,
    JoinServer,
    PreparedCache,
    ServerClient,
    ServerError,
)
from repro.relations import (
    Database,
    Relation,
    SortedArrayIndex,
    TrieIndex,
    WarmReport,
)
from repro.stats import (
    PlanStatistics,
    StatsProvider,
)

# ExplainAnalysis imports the query layer, so it must come after it (it
# is deliberately not re-exported from repro.observe itself).
from repro.observe.explain import ExplainAnalysis
from repro.version import __version__

__all__ = [
    "ALGORITHMS",
    "AdmissionController",
    "AdmissionRejected",
    "ArityTwoJoin",
    "Atom",
    "Avg",
    "CompileError",
    "CompiledQuery",
    "ConjunctiveQuery",
    "Const",
    "Count",
    "CountDistinct",
    "CoverError",
    "Database",
    "DatabaseError",
    "DispatchScheduler",
    "DistributedError",
    "ExecutionContext",
    "ExplainAnalysis",
    "FractionalCover",
    "FunctionalDependency",
    "FunctionalDependencyError",
    "GenericJoin",
    "GroupBy",
    "GroupedQuery",
    "Hypergraph",
    "IndexBackend",
    "JoinPlan",
    "JoinQuery",
    "JoinServer",
    "LWJoin",
    "LangError",
    "LeapfrogTriejoin",
    "LinearProgramError",
    "LoopbackTransport",
    "Max",
    "MetricsRegistry",
    "Min",
    "NPRRJoin",
    "ParseError",
    "PlanError",
    "PlanStatistics",
    "PreparedCache",
    "PreparedQuery",
    "Q",
    "QPTree",
    "QueryBuilder",
    "QueryError",
    "QueryResult",
    "Relation",
    "RelaxedJoin",
    "ReproError",
    "Scheduler",
    "SchemaError",
    "ServerClient",
    "ServerError",
    "ShardSpec",
    "ShardWorker",
    "SocketTransport",
    "SortedArrayIndex",
    "Span",
    "SpanContext",
    "StatsProvider",
    "StealPolicy",
    "Sum",
    "Tracer",
    "TrieIndex",
    "Var",
    "WarmReport",
    "WorkerServer",
    "agm_bound",
    "arity_two_join",
    "best_agm_bound",
    "compile_query",
    "execute",
    "fd_aware_bound",
    "fd_aware_join",
    "generic_join",
    "leapfrog_join",
    "lw_hypergraph",
    "lw_join",
    "normalize",
    "nprr_join",
    "optimal_fractional_cover",
    "output_bound",
    "parse",
    "plan_join",
    "relaxed_join",
    "tighten_cover",
    "triangle_join",
    "verify_bt",
    "verify_lw",
]
