"""Statistics subsystem: profiles, sampling, and the planner's provider.

The planner's data-awareness lives here, behind one object:

>>> from repro import Database, Relation
>>> from repro.stats import StatsProvider
>>> db = Database([Relation("R", ("A", "B"), [(1, 1), (1, 2), (2, 1)])])
>>> provider = db.stats()
>>> provider.profile(db["R"]).attribute("A").distinct
2

See :mod:`repro.stats.profiles` (distinct counts, heavy/light skew
profiles), :mod:`repro.stats.sampling` (process-stable samples and
conditional selectivities), and :mod:`repro.stats.provider` (the caching
:class:`StatsProvider` and the :class:`PlanStatistics` record plans
carry).
"""

from repro.stats.profiles import (
    AttributeProfile,
    RelationProfile,
    heavy_threshold,
    profile_relation,
)
from repro.stats.provider import (
    PlanStatistics,
    StatsConfig,
    StatsProvider,
)
from repro.stats.sampling import (
    conditional_selectivity,
    projection_values,
    sample_rows,
)

__all__ = [
    "AttributeProfile",
    "PlanStatistics",
    "RelationProfile",
    "StatsConfig",
    "StatsProvider",
    "conditional_selectivity",
    "heavy_threshold",
    "profile_relation",
    "projection_values",
    "sample_rows",
]
