"""NVMe submission/completion queue pairs.

A :class:`QueuePair` is the host↔device ring pair of the spec, reduced
to what the simulation needs: the host's engine extends the submission
ring (a deque) with ``(cid, command)`` entries and counts them in
``submitted``, the device's slot workers pop them from its left in
order, and completions land on the completion ring *in completion
order* — which under the event-driven engine is genuinely different
from submission order once commands overlap.
"""

from collections import deque


class QueuePair:
    """One submission ring and its paired completion ring."""

    def __init__(self, index):
        #: Queue-pair id (admin queue would be 0 on real hardware; the
        #: engine numbers its I/O pairs from 0 since admin commands stay
        #: on the synchronous path).
        self.index = index
        self.sq = deque()
        self.cq = []
        self.submitted = 0
        self.posted = 0

    def post(self, cid, completion, t_us):
        """Device side: append a completion entry at time ``t_us``."""
        self.cq.append((cid, completion, t_us))
        self.posted += 1

    def pop_completions(self):
        """Host side: drain the completion ring, preserving post order."""
        entries = self.cq
        self.cq = []
        return entries

    def __repr__(self):
        return "QueuePair(%d, sq=%d, cq=%d)" % (
            self.index,
            len(self.sq),
            len(self.cq),
        )
