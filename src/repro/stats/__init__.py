"""Statistics subsystem: value counts, profiles, and the planner's provider.

The planner's data-awareness lives here, behind one object:

>>> from repro import Database, Relation
>>> from repro.stats import StatsProvider
>>> db = Database([Relation("R", ("A", "B"), [(1, 1), (1, 2), (2, 1)])])
>>> provider = db.stats()
>>> provider.profile(db["R"]).attribute("A").distinct
2

One statistic is taken off the data — the ``value -> count`` table of
a relation's attribute set, counted or summed out of a wider table,
cached — and the rest are views of it:

>>> sorted(provider.value_counts(db["R"], ("A",)).items())
[(1, 2), (2, 1)]

See :mod:`repro.stats.profiles` (the counting pass; distinct counts and
heavy/light skew profiles read off it) and :mod:`repro.stats.provider`
(the caching :class:`StatsProvider` — tables, profiles, exact
conditional selectivities, on-demand AGM sub-bounds — and the
:class:`PlanStatistics` record plans carry).  There is nothing to
configure: the heavy-mass cut adaptive decisions trigger on is
:data:`repro.stats.provider.HEAVY_MASS_THRESHOLD`, the top-k table's
length :data:`repro.stats.profiles.DEFAULT_TOP_K`.
"""

from repro.stats.profiles import (
    AttributeProfile,
    RelationProfile,
    heavy_threshold,
    profile_relation,
)
from repro.stats.provider import (
    PlanStatistics,
    StatsProvider,
)

__all__ = [
    "AttributeProfile",
    "PlanStatistics",
    "RelationProfile",
    "StatsProvider",
    "heavy_threshold",
    "profile_relation",
]
