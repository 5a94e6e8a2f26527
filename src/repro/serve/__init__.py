"""Multi-tenant serving: plan caching, session multiplexing, sub-plan sharing.

The serving layer turns the single-session streaming runtime into the
paper's patient-level-scale story:

* :mod:`repro.serve.cache` — structural plan signatures and the LRU
  :class:`PlanCache` (compile a query shape once, serve every client);
* :mod:`repro.serve.service` — :class:`StreamingService`, which multiplexes
  many :class:`~repro.core.runtime.session.StreamingSession`s and batches
  their ticks profile-guided (ready-first, cheapest-first);
* :mod:`repro.serve.subplan` — cross-tenant sub-plan sharing: tenants whose
  queries share a prefix sub-DAG over the same source objects execute that
  prefix once per tick (``StreamingService(subplan_sharing=True)``).

Everything here runs in one process.  Hosting sessions in *other*
processes is :class:`repro.ingest.IngestWorkerPool`, whose workers each run
an ordinary :class:`StreamingService`.
"""

from repro.serve.cache import (
    PlanCache,
    PlanCacheStats,
    ProfileStore,
    fingerprint_operator,
    fingerprint_value,
    has_bound_sources,
    plan_signature,
    signature_digest,
)
from repro.serve.service import ClientRecord, ServicePumpReport, StreamingService
from repro.serve.subplan import (
    SharedFeedSource,
    SharedPrefixGroup,
    SharedPrefixPlan,
    plan_sharing,
    prefix_fingerprints,
    rewrite_tail,
)

__all__ = [
    "PlanCache",
    "PlanCacheStats",
    "ProfileStore",
    "plan_signature",
    "signature_digest",
    "fingerprint_operator",
    "fingerprint_value",
    "has_bound_sources",
    "StreamingService",
    "ServicePumpReport",
    "ClientRecord",
    "SharedFeedSource",
    "SharedPrefixGroup",
    "SharedPrefixPlan",
    "plan_sharing",
    "prefix_fingerprints",
    "rewrite_tail",
]
