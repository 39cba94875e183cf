"""Sharded analysis cluster: digest-affinity routing over a worker fleet.

The coordinator tier of the analysis service (ROADMAP item 1's
"millions of users" step): a :class:`ClusterCoordinator` fronts N
``repro serve`` workers, placing every request on a consistent-hash
ring (:class:`HashRing`) keyed by the *content digests* the result
cache already uses, so warm cache entries, memoized curve operations and
what-if state stay pinned to their node.  See :mod:`repro.cluster.coordinator`
for the full design and ``docs/API.md`` ("Sharded cluster").

Entry points: the ``repro cluster`` CLI (:func:`cluster_main`), the
in-process :meth:`ClusterHandle.start`, and plain
:class:`~repro.service.client.ServiceClient` pointed at the
coordinator's port.
"""

from repro.cluster.coordinator import (
    ClusterConfig,
    ClusterCoordinator,
    WorkerState,
)
from repro.cluster.fleet import ClusterHandle, WorkerProcess, cluster_main
from repro.cluster.membership import (
    DEFAULT_LEASE_S,
    CoordinatorLease,
    MembershipLog,
    MembershipRecord,
)
from repro.cluster.ring import HashRing
from repro.cluster.routing import routing_digest, whatif_edit_digest
from repro.cluster.standby import StandbyCoordinator, StandbyHandle

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterHandle",
    "CoordinatorLease",
    "DEFAULT_LEASE_S",
    "HashRing",
    "MembershipLog",
    "MembershipRecord",
    "StandbyCoordinator",
    "StandbyHandle",
    "WorkerProcess",
    "WorkerState",
    "cluster_main",
    "routing_digest",
    "whatif_edit_digest",
]
