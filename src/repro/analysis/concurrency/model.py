"""Task roots, state-owner conventions, and declared interleaving policies.

This module is the *declarative* half of the concurrency tier: plain
tables the passes in :mod:`atomicity` and :mod:`shared_state` interpret.
Changing what counts as a task, who owns a piece of state, or why a
shared attribute is safe happens here — not in analysis code.

Categories
----------

``foreground``
    Host-visible serve path.  Under the PR 7 scheduler each request is
    one task that may be suspended at yield points.
``background``
    Device-internal maintenance (GC, delta compression, retention/bloom
    expiration).  Runs interleaved with foreground tasks.
``interposed``
    Runs *inside* another task at a fixed interposition point (fault
    hooks fire within flash primitives).  Never scheduled on its own,
    so it cannot interleave — but it shares the task's state view.
``exclusive``
    Runs while nothing else does (crash recovery executes before any
    service resumes).  Appears in the inventory for completeness; its
    writes do not create interleaving hazards.

Only ``foreground`` and ``background`` roots are *schedulable*: those
are the tasks the atomicity rules defend against each other.
"""

from dataclasses import dataclass

#: Categories whose roots can be suspended/resumed by the PR 7 scheduler.
SCHEDULABLE_CATEGORIES = frozenset({"foreground", "background"})


@dataclass(frozen=True)
class TaskRoot:
    """One schedulable (or interposed/exclusive) task entry point."""

    name: str  # stable short name used in reports and policies
    category: str  # foreground | background | interposed | exclusive
    qualnames: tuple  # entry functions (virtual dispatch covers overrides)
    description: str


TASK_ROOTS = (
    TaskRoot(
        name="host-serve",
        category="foreground",
        qualnames=(
            "repro.ftl.ssd.BaseSSD.serve_write_at",
            "repro.ftl.ssd.BaseSSD.serve_trim_at",
            "repro.ftl.ssd.BaseSSD.serve_read_at",
            "repro.nvme.engine.AsyncNVMeEngine._slot_worker",
            "repro.timessd.ssd.TimeSSD.version_chain",
        ),
        description=(
            "host request service: one task per NVMe command; every "
            "route admits its pages through the three serve_*_at bodies "
            "(write/read/trim and the *_range loops only call them at "
            "the device clock); subclass overrides (TimeSSD, "
            "FlashGuardSSD) are reached by virtual dispatch; the async "
            "engine's slot workers are the scheduled form of the same root"
        ),
    ),
    TaskRoot(
        name="background-gc",
        category="background",
        qualnames=(
            "repro.ftl.ssd.BaseSSD.background_collect",
            "repro.sched.tasks.background_gc_task",
        ),
        description=(
            "idle-window garbage collection: victim selection, valid-page "
            "migration, erase, release"
        ),
    ),
    TaskRoot(
        name="background-compression",
        category="background",
        qualnames=(
            "repro.timessd.ssd.TimeSSD.background_compress",
            "repro.sched.tasks.background_compress_task",
        ),
        description=(
            "TimeSSD delta compression of cold version chains during "
            "idle windows (paper §3.2)"
        ),
    ),
    TaskRoot(
        name="background-scrub",
        category="background",
        qualnames=(
            "repro.ftl.scrub.PatrolScrubber.run_window",
            "repro.sched.tasks.background_scrub_task",
        ),
        description=(
            "idle-window patrol scrubbing: ladder-reads sealed blocks "
            "oldest-programmed-first, refreshes at-risk pages before "
            "they exceed the ECC budget, retires grown-bad blocks and "
            "applies the degraded-mode heal policy"
        ),
    ),
    TaskRoot(
        name="retention-expiry",
        category="background",
        qualnames=(
            "repro.timessd.ssd.TimeSSD._shrink_retention",
            "repro.sched.tasks.retention_expiry_task",
        ),
        description=(
            "bloom/retention-window expiration: drops the oldest time "
            "segment and erases its delta blocks when GC overhead "
            "exceeds the paper's threshold"
        ),
    ),
    TaskRoot(
        name="fault-hooks",
        category="interposed",
        qualnames=(
            "repro.faults.hooks.FaultHooks.on_read",
            "repro.faults.hooks.FaultHooks.on_program",
            "repro.faults.hooks.FaultHooks.on_erase",
        ),
        description=(
            "fault injection: interposed at the flash pre-commit points "
            "inside whichever task issued the flash op"
        ),
    ),
    TaskRoot(
        name="recovery",
        category="exclusive",
        qualnames=(
            "repro.ftl.recovery.rebuild_from_flash",
            "repro.timessd.recovery.rebuild_from_flash",
        ),
        description=(
            "crash recovery: rebuilds volatile FTL state from flash "
            "before any host service resumes"
        ),
    ),
)


def roots_by_name():
    return {root.name: root for root in TASK_ROOTS}


def schedulable_roots():
    return tuple(
        root for root in TASK_ROOTS if root.category in SCHEDULABLE_CATEGORIES
    )


#: Wait-instruction constructors.  A task generator yields an instance
#: of one of these classes and the loop interprets it.  Constructing one
#: is the yield, so any call to these inside an ``@atomic_section`` means
#: the section can be suspended mid-flight — which
#: ``concurrency-yield-in-atomic`` rejects.  Both the class and
#: ``__init__`` qualnames appear because the call graph records
#: class-constructor edges in either form.  ``await`` expressions are
#: always treated as yields regardless.
SCHEDULER_YIELD_QUALNAMES = frozenset(
    qualname
    for base in ("repro.sched.core.Delay", "repro.sched.core.At")
    for qualname in (base, base + ".__init__")
)


#: Spawn entry points: a generator passed (as first argument) to one of
#: these becomes a scheduled task, which is how the yield analysis
#: identifies *task* generators as opposed to plain data generators
#: (``scan_oob`` yields pages to its consumer, not instructions to the
#: loop — the task-generator protocol rules must not apply to it).
SPAWN_QUALNAMES = frozenset({"repro.sched.core.EventLoop.spawn"})

#: Policies whose derived values stay meaningful across a suspension.
#: ``monotonic`` state tolerates any interleaving by declaration and
#: ``owner-task`` state has exactly one writer at a time, so a local
#: captured from either cannot go stale in a way that matters.  A local
#: captured from ``turnstile`` state (or from written shared state with
#: no declared policy at all) *can*: another task may run a whole
#: atomic section between the capture and the use.
STALE_TOLERANT_POLICIES = frozenset({"monotonic", "owner-task"})


#: Receiver-name conventions for cross-object state access.  When a
#: function reads/writes ``<name>.attr`` and ``<name>`` is a parameter
#: or local alias the call graph cannot type, these conventions assign
#: the owner (recovery writes ``ssd._retained_per_block[...]``; the GC
#: aliases ``ssd = self._ssd``).  Owners are class-family roots.
STATE_OWNERS = {
    "ssd": "repro.ftl.ssd.BaseSSD",
    "_ssd": "repro.ftl.ssd.BaseSSD",
    "bm": "repro.ftl.block_manager.BlockManager",
    "block_manager": "repro.ftl.block_manager.BlockManager",
    "device": "repro.flash.device.FlashDevice",
    "mapping": "repro.ftl.mapping.AddressMappingTable",
    "index": "repro.timessd.index.TimeTravelIndex",
    "blooms": "repro.timessd.bloom.TimeSegmentedBlooms",
    "deltas": "repro.timessd.delta.DeltaManager",
}


#: Builtin container mutators: a call ``<owner>.attr.<one of these>(...)``
#: is a write to ``attr`` even though the call itself resolves to no
#: project function.
MUTATING_METHOD_NAMES = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)


@dataclass(frozen=True)
class SharedStatePolicy:
    """Why one owner's shared state is safe under task interleaving.

    Policies are class-granular: one row covers every attribute of the
    owner.  ``owner`` may end with ``*`` to match a prefix.  ``policy``
    is one of:

    ``turnstile``
        Multi-step transitions are confined to ``@atomic_section``
        regions; between sections every observer sees a consistent
        value.  The PR 7 scheduler must not yield inside sections, which
        rule ``concurrency-yield-in-atomic`` enforces.
    ``monotonic``
        Counter/gauge-style state: any interleaving of increments is
        acceptable; no invariant couples it to other state.
    ``owner-task``
        Written by several roots today but logically owned by one task
        at a time (the write sites are mutually exclusive by mode or by
        the idle-window admission gate).
    """

    owner: str
    policy: str
    why: str

    def matches(self, owner):
        if self.owner.endswith("*"):
            return owner.startswith(self.owner[:-1])
        return owner == self.owner


POLICIES = (
    SharedStatePolicy(
        owner="repro.ftl.ssd.BaseSSD",
        policy="turnstile",
        why=(
            "FTL top-level state (mapping/back-pointer bookkeeping, GC "
            "and degraded-mode flags, retention census) transitions only "
            "inside atomic sections or single assignments; foreground "
            "and background roots hand off at the idle-window gate"
        ),
    ),
    SharedStatePolicy(
        owner="repro.ftl.block_manager.BlockManager",
        policy="turnstile",
        why=(
            "allocation pools, validity bitmaps and stream state mutate "
            "only inside atomic allocate/release/seal sequences reached "
            "from the roots' atomic sections"
        ),
    ),
    SharedStatePolicy(
        owner="repro.ftl.mapping.AddressMappingTable",
        policy="turnstile",
        why=(
            "L2P entries and the demand-cache simulation update in one "
            "atomic step per translation (update/invalidate are atomic "
            "sections)"
        ),
    ),
    SharedStatePolicy(
        owner="repro.ftl.wear_leveling.WearLeveler",
        policy="turnstile",
        why=(
            "wear accounting advances only from on_erase, which runs "
            "inside the erase-holding atomic sections of GC/expiry"
        ),
    ),
    SharedStatePolicy(
        owner="repro.timessd.index.TimeTravelIndex",
        policy="turnstile",
        why=(
            "IMT/PRT chains are rewritten only by atomic compress/clear "
            "sections; readers between sections always see a complete "
            "chain"
        ),
    ),
    SharedStatePolicy(
        owner="repro.timessd.delta.DeltaCodec",
        policy="monotonic",
        why=(
            "the compression memo is a pure cache: compress() is a pure "
            "function of its two byte-string arguments, so any "
            "interleaving of lookups, insertions and LRU evictions "
            "(plus the hit/miss counters) yields the same results — a "
            "lost update costs one recomputation, never a wrong answer"
        ),
    ),
    SharedStatePolicy(
        owner="repro.timessd.delta.DeltaManager",
        policy="turnstile",
        why=(
            "delta buffers flush and segments drop inside atomic "
            "sections; partially-built segments are never visible at a "
            "section boundary"
        ),
    ),
    SharedStatePolicy(
        owner="repro.timessd.bloom.TimeSegmentedBlooms",
        policy="turnstile",
        why=(
            "bloom segments roll and record inside single calls; "
            "expiration drops whole segments in the retention-expiry "
            "root's atomic section"
        ),
    ),
    SharedStatePolicy(
        owner="repro.timessd.retention.GCOverheadEstimator",
        policy="monotonic",
        why=(
            "op counters feeding the overshoot ratio; the ratio is a "
            "heuristic and tolerates any interleaving of increments"
        ),
    ),
    SharedStatePolicy(
        owner="repro.timessd.retention.RetentionManager",
        policy="turnstile",
        why=(
            "the retention window shrinks one segment at a time inside "
            "the retention-expiry atomic section"
        ),
    ),
    SharedStatePolicy(
        owner="repro.flash.device.FlashDevice",
        policy="turnstile",
        why=(
            "media state mutates only through program/erase primitives, "
            "each of which is one indivisible flash command under the "
            "PR 7 scheduler (commands never span a yield)"
        ),
    ),
    SharedStatePolicy(
        owner="repro.flash.*",
        policy="turnstile",
        why=(
            "block/page state below FlashDevice shares the primitive-"
            "command granularity of the media model"
        ),
    ),
    SharedStatePolicy(
        owner="repro.nvme.queues.QueuePair",
        policy="turnstile",
        why=(
            "ring push/fetch/post are each one statement between yields; "
            "slot workers of one pair interleave only at their own "
            "wait instructions, never mid-ring-operation"
        ),
    ),
    SharedStatePolicy(
        owner="repro.nvme.engine.AsyncNVMeEngine",
        policy="turnstile",
        why=(
            "engine counters (inflight, high-water mark) mutate in "
            "single statements; every slot worker re-reads them after "
            "its wait instead of caching across a yield"
        ),
    ),
    SharedStatePolicy(
        owner="repro.obs.*",
        policy="monotonic",
        why=(
            "metrics, gauges and trace buffers are observability-only: "
            "no simulator invariant reads them back"
        ),
    ),
    SharedStatePolicy(
        owner="repro.faults.*",
        policy="owner-task",
        why=(
            "fault-plan bookkeeping mutates only inside the interposed "
            "hooks, which run within whichever task issued the flash op"
        ),
    ),
    SharedStatePolicy(
        owner="repro.ftl.scrub.PatrolScrubber",
        policy="monotonic",
        why=(
            "the at-risk queue and patrol cursor are advisory scrub "
            "inputs: a read on any root may enqueue, the scrub run "
            "drains, and every entry is re-validated against firmware "
            "state before a refresh — a stale or interleaved entry "
            "costs at most one wasted patrol read"
        ),
    ),
    SharedStatePolicy(
        owner="repro.timessd.gc.TimeSSDGarbageCollector",
        policy="turnstile",
        why=(
            "collector scratch state lives within reclaim/compress "
            "atomic sections"
        ),
    ),
    SharedStatePolicy(
        owner="repro.common.idle.IdlePredictor",
        policy="monotonic",
        why=(
            "inter-arrival history is a heuristic input to idle-window "
            "sizing; stale or interleaved updates only mis-size windows"
        ),
    ),
)


def policy_for(owner):
    """First matching policy, or None (declaration order wins)."""
    for policy in POLICIES:
        if policy.matches(owner):
            return policy
    return None
