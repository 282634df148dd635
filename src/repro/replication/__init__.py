"""Hot-standby replication of the execution service (docs/PROTOCOLS.md §12).

One primary :class:`~repro.services.execution.ExecutionService` plus N
standbys that follow the primary's durable WAL over the ORB: they hold the
log and no runtime, and a promotion rebuilds the open instances from the
store the way a crash recovery does.  Leadership is a lease granted by
:class:`~repro.replication.lease.LeaseService`; every journal append, worker
dispatch and worker reply is stamped with a monotonically increasing fencing
epoch, and stale-epoch traffic is rejected at the ORB boundary, so a
resurrected old primary can never split-brain the journal.
"""

from .lease import LEASE_INTERFACE, FailureDetector, LeaseService
from .replica import REPLICA_INTERFACE, ReplicatedExecutionService, Role

__all__ = [
    "LEASE_INTERFACE",
    "FailureDetector",
    "LeaseService",
    "REPLICA_INTERFACE",
    "ReplicatedExecutionService",
    "Role",
]
