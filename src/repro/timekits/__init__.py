"""TimeKits: storage-state query and rollback over a TimeSSD (paper §3.9).

The toolkit exposes the paper's Table 1 API — address-based state queries,
time-based state queries, and state rollbacks — plus the forensics helper
built on top of them in §5.5.  A file is recovered through the LPA-list
calls :meth:`TimeKits.as_of` and :meth:`TimeKits.rollback_lpas`.
"""

from repro.timekits.api import QueryResult, TimeKits
from repro.timekits.forensics import ForensicTimeline, UpdateEvent

__all__ = [
    "TimeKits",
    "QueryResult",
    "ForensicTimeline",
    "UpdateEvent",
]
