"""Outside-in spans: time every call that crosses a layer boundary.

The traced pass of the benchmark wraps, *from here*, the functions one
``repro`` package calls in another (plus the ``BaseSSD`` template hooks
``TimeSSD`` overrides, which are the real ``ftl``/``timessd`` boundary
despite the underscore).  Nothing under ``src/`` is edited: wrappers
are set on the classes for the length of one measured phase and taken
off again in a ``finally``, so an untraced round after a traced one
runs the original code.

A span is ``(name, start_ns, end_ns, parent)``; spans live in flat
columns and are aggregated once, after the phase.  A span's *self time*
is its duration minus the durations of its direct children, so self
times over all spans add up to the root span exactly.  Wrapper cost
lands in the *caller's* self time: a layer that makes many small
cross-layer calls (``BlockManager`` validity checks,
``AddressMappingTable`` lookups) looks more expensive traced than it is
untraced.  ``trace.overhead_ratio`` says by how much overall;
end-to-end numbers always come from untraced rounds.

A name missing from the program (renamed or deleted by a later change)
is skipped, not an error: its group then reads zero calls, and a change
that claims a gain never has to edit the benchmark to keep it running.
"""

import functools
import inspect
import json
import sys
import time
import types
from array import array
from contextlib import contextmanager

from repro.flash import device as flash_device
from repro.flash import geometry as flash_geometry
from repro.flash import page as flash_page
from repro.flash import timing as flash_timing
from repro.ftl import block_manager, checkpoint, mapping, recovery_scan, wear_leveling
from repro.ftl import recovery as ftl_recovery
from repro.ftl import ssd as ftl_ssd
from repro.nvme import controller as nvme_controller
from repro.nvme import driver as nvme_driver
from repro.nvme import engine as nvme_engine
from repro.nvme import queues as nvme_queues
from repro.sched import core as sched_core
from repro.timekits import api as timekits_api
from repro.timessd import bloom, delta, index, retention
from repro.timessd import gc as timessd_gc
from repro.timessd import recovery as timessd_recovery
from repro.timessd import ssd as timessd_ssd

#: The repo's packages, plus the benchmark's own generator.
LAYERS = ("nvme", "sched", "ftl", "timessd", "flash", "timekits", "loadgen")

#: ``names`` value meaning "every public function and property getter
#: the owner defines that no earlier row claimed".
PUBLIC = None

#: Group of the span around generator bookkeeping inside the measured
#: phase (verification, oracle snapshots): left out of every total.
MUTED = "muted"

#: The span the generator opens around the measured phase.
ROOT_GROUP = "loadgen.measure"

#: ``(group, owner, names)``: which functions form which span group.
#: The group's prefix is its layer.  Earlier rows win.
SPAN_TARGETS = (
    ("flash.read_page", flash_device.FlashDevice, ("read_page", "read_oob")),
    ("flash.program_page", flash_device.FlashDevice, ("program_page",)),
    ("flash.erase_block", flash_device.FlashDevice, ("erase_block",)),
    ("flash.peek_page", flash_device.FlashDevice, ("peek_page",)),
    ("flash.peek_page", flash_page.Page, PUBLIC),
    ("flash.peek_page", flash_page.OOBMetadata, ("intact",)),
    ("flash.scan_oob", flash_device.FlashDevice, ("scan_block_oob",)),
    ("flash.geometry", flash_geometry.FlashGeometry, PUBLIC),
    ("flash.timing", flash_timing.ChannelTimelines, PUBLIC),
    (
        "ftl.host_write",
        ftl_ssd.BaseSSD,
        ("write", "write_range", "serve_write_at", "_program_user_page",
         "ensure_writable"),
    ),
    ("ftl.host_read", ftl_ssd.BaseSSD, ("read", "read_range", "serve_read_at")),
    ("ftl.host_trim", ftl_ssd.BaseSSD, ("trim", "serve_trim_at")),
    (
        "ftl.media",
        ftl_ssd.BaseSSD,
        ("program_with_retry", "read_page_with_retry", "note_lost_valid_page"),
    ),
    ("ftl.map", mapping.AddressMappingTable, PUBLIC),
    ("ftl.alloc", block_manager.BlockManager, PUBLIC),
    (
        "ftl.gc",
        ftl_ssd.BaseSSD,
        ("_collect_garbage", "_ensure_free_space", "_use_idle_window",
         "background_gc_step", "relocate_block", "gc_round_cost_bound",
         "free_page_estimate", "remap_migrated_page"),
    ),
    ("ftl.gc", wear_leveling.WearLeveler, PUBLIC),
    (
        "ftl.hooks",
        ftl_ssd.BaseSSD,
        ("_on_invalidate", "_after_host_request", "_back_pointer_for"),
    ),
    ("ftl.checkpoint", checkpoint.CheckpointWriter, PUBLIC),
    (
        "ftl.checkpoint",
        checkpoint,
        ("find_translation_blocks", "load_latest_checkpoint", "summary_for"),
    ),
    ("ftl.rebuild", recovery_scan, ("sweep_oob",)),
    ("ftl.rebuild", ftl_recovery, ("simulate_power_loss", "rebuild_from_flash")),
    ("ftl.rebuild", ftl_ssd.BaseSSD, ("reset_volatile",)),
    (
        "timessd.invalidate",
        timessd_ssd.TimeSSD,
        ("_on_invalidate", "note_page_no_longer_retained",
         "forget_block_retention"),
    ),
    (
        "timessd.hooks",
        timessd_ssd.TimeSSD,
        ("_program_user_page", "_after_host_request", "_ensure_free_space",
         "_back_pointer_for"),
    ),
    ("timessd.expire", timessd_ssd.TimeSSD,
     ("expire_retention_step", "retention_window_us")),
    ("timessd.expire", bloom.TimeSegmentedBlooms,
     ("drop_oldest", "can_drop_oldest")),
    ("timessd.expire", retention.RetentionManager, PUBLIC),
    ("timessd.expire", retention.GCOverheadEstimator, PUBLIC),
    ("timessd.bloom", bloom.TimeSegmentedBlooms, PUBLIC),
    (
        "timessd.compress",
        timessd_ssd.TimeSSD,
        ("_use_idle_window", "background_compress_step"),
    ),
    (
        "timessd.compress",
        timessd_gc.TimeSSDGarbageCollector,
        ("compress_version_chain",),
    ),
    ("timessd.delta", delta.DeltaManager, PUBLIC),
    ("timessd.delta", delta.RealDeltaCodec, ("compress", "decompress")),
    ("timessd.delta", delta.ModeledDeltaCodec, ("compress", "decompress")),
    ("timessd.reclaim", timessd_gc.TimeSSDGarbageCollector, ("reclaim_block",)),
    (
        "timessd.reclaim",
        timessd_ssd.TimeSSD,
        ("_collect_garbage", "relocate_block", "erase_delta_block"),
    ),
    ("timessd.chain_walk", timessd_ssd.TimeSSD, ("version_chain",)),
    (
        "timessd.chain_walk",
        index.TimeTravelIndex,
        ("walk_data_chain", "walk_delta_chain"),
    ),
    ("timessd.rebuild", timessd_ssd.TimeSSD, ("reset_volatile",)),
    (
        "timessd.rebuild",
        timessd_recovery,
        ("simulate_power_loss", "rebuild_from_flash"),
    ),
    ("nvme.execute_io", nvme_controller.NVMeController, ("execute_io",)),
    ("nvme.submit", nvme_controller.NVMeController, ("submit", "submit_batch")),
    ("nvme.submit", nvme_driver.HostNVMeDriver, PUBLIC),
    ("nvme.engine", nvme_engine.AsyncNVMeEngine, PUBLIC),
    ("nvme.engine", nvme_queues.QueuePair, PUBLIC),
    ("sched.loop", sched_core.EventLoop, PUBLIC),
    ("timekits.walk", timekits_api.TimeKits, ("walk_many",)),
    ("timekits.restore", timekits_api.TimeKits, ("restore_many",)),
    ("timekits.query", timekits_api.TimeKits, PUBLIC),
    ("timekits.query", timekits_api, ("pick_as_of",)),
)

#: Classes whose wrapped functions are leaves (see :class:`Tracer`).
LEAF_OWNERS = (
    flash_geometry.FlashGeometry,
    flash_page.Page,
    flash_page.OOBMetadata,
)

#: Every group a report can name, in catalog order.
SPAN_GROUPS = tuple(dict.fromkeys(group for group, _owner, _names in SPAN_TARGETS))

#: ``timessd.peeks_per_compression`` counts this span inside that group.
PEEK_SPAN = "FlashDevice.peek_page"
COMPRESS_GROUP = "timessd.compress"


def now_ns():
    """The benchmark's wall-clock read (host time, never simulated time)."""
    return time.perf_counter_ns()  # almanac: ignore[determinism-wallclock]


def layer_of(group):
    return group.split(".", 1)[0]


class SpanReport:
    """Aggregated spans of one measured phase."""

    def __init__(self):
        self.spans = 0
        #: ``{group: [calls, self_ns]}`` for every catalog group.
        self.groups = {group: [0, 0] for group in SPAN_GROUPS}
        self.groups[ROOT_GROUP] = [0, 0]
        #: Root duration minus muted intervals: what the layers share.
        self.total_ns = 0
        self.muted_ns = 0
        self.peeks_in_compress = 0

    def layer_self_ns(self, layer):
        return sum(
            self_ns
            for group, (_calls, self_ns) in self.groups.items()
            if layer_of(group) == layer
        )

    def layer_calls(self, layer):
        return sum(
            calls
            for group, (calls, _self_ns) in self.groups.items()
            if layer_of(group) == layer
        )


class Tracer:
    """Records spans through wrappers it installs and removes itself.

    Two kinds of wrapper.  A *span* wrapper appends one row to the span
    columns per call.  A *leaf* wrapper is for the helpers in
    ``LEAF_OWNERS`` — called millions of times a phase, calling nothing
    outside their own class: it stores no row, only adds its time to its
    group and to the enclosing span's ``leaf_col`` entry (so the span's
    self time still excludes it), and treats a leaf called from a leaf
    as part of the outer one.  That keeps the traced pass at a few times
    the untraced wall instead of a few dozen.
    """

    def __init__(self):
        self.labels = []  # span-name id -> "Owner.function"
        self.groups = []  # span-name id -> group
        self._ids = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.leaf_col = array("q")  # leaf time directly inside each span
        self.leaf_calls = []  # span-name id -> calls (leaf wrappers only)
        self.leaf_ns = []  # span-name id -> total time (leaf wrappers only)
        self.current = -1
        #: 0 outside any leaf, 1 inside one, 2 while nothing is recorded
        #: (inside :meth:`muted`, and whenever no wrappers are installed).
        self.leaf_state = 2
        self._undo = []
        #: Catalog names the program no longer has (see module docstring).
        self.missing = []

    # --- Recording --------------------------------------------------------

    def _intern(self, label, group):
        key = (label, group)
        nid = self._ids.get(key)
        if nid is None:
            nid = len(self.labels)
            self._ids[key] = nid
            self.labels.append(label)
            self.groups.append(group)
            self.leaf_calls.append(0)
            self.leaf_ns.append(0)
        return nid

    def _open(self, nid):
        idx = len(self.name_col)
        self.name_col.append(nid)
        self.parent_col.append(self.current)
        self.end_col.append(0)
        self.leaf_col.append(0)
        self.current = idx
        return idx

    def _span_wrapper(self, fn, label, group):
        nid = self._intern(label, group)
        names, parents = self.name_col, self.parent_col
        starts, ends, leaves = self.start_col, self.end_col, self.leaf_col
        # Bound once: the wrapper runs millions of times per phase.  This
        # is the same host clock now_ns() reads.
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.leaf_state == 2:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(tracer.current)
            ends.append(0)
            leaves.append(0)
            tracer.current = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]

        return traced

    def _leaf_wrapper(self, fn, label, group):
        nid = self._intern(label, group)
        calls, totals, leaves = self.leaf_calls, self.leaf_ns, self.leaf_col
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer.leaf_state
            if state:
                if state == 1:
                    calls[nid] += 1
                return fn(*args, **kwargs)
            calls[nid] += 1
            tracer.leaf_state = 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - started
                tracer.leaf_state = 0
                totals[nid] += spent
                leaves[tracer.current] += spent

        return traced

    @contextmanager
    def root(self):
        """The span the generator opens around the measured phase."""
        idx = self._open(self._intern("measure", ROOT_GROUP))
        self.start_col.append(now_ns())
        try:
            yield
        finally:
            self.end_col[idx] = now_ns()
            self.current = self.parent_col[idx]

    @contextmanager
    def muted(self):
        """Generator bookkeeping: one span, nothing recorded beneath it,
        left out of every total."""
        idx = self._open(self._intern("muted", MUTED))
        self.leaf_state = 2
        self.start_col.append(now_ns())
        try:
            yield
        finally:
            self.end_col[idx] = now_ns()
            self.leaf_state = 0
            self.current = self.parent_col[idx]

    # --- Installing and removing wrappers ---------------------------------

    def install(self):
        """Wrap every catalog target; :meth:`remove` undoes it."""
        if self._undo:
            raise RuntimeError("span wrappers are already installed")
        self.leaf_state = 0
        claimed = set()
        for group, owner, names in SPAN_TARGETS:
            if isinstance(owner, types.ModuleType):
                for name in names:
                    self._wrap_module_function(group, owner, name)
                continue
            wrap = self._leaf_wrapper if owner in LEAF_OWNERS else self._span_wrapper
            if names is PUBLIC:
                names = [n for n in vars(owner) if not n.startswith("_")]
            for name in names:
                if (owner, name) not in claimed:
                    claimed.add((owner, name))
                    self._wrap_class_attribute(wrap, group, owner, name)

    def _wrap_class_attribute(self, wrap, group, owner, name):
        raw = vars(owner).get(name)
        label = "%s.%s" % (owner.__name__, name)
        if isinstance(raw, property) and raw.fget is not None:
            wrapped = property(
                wrap(raw.fget, label, group), raw.fset, raw.fdel, raw.__doc__
            )
        elif isinstance(raw, types.FunctionType):
            if inspect.isgeneratorfunction(raw):
                return  # a span would time creating the generator only
            wrapped = wrap(raw, label, group)
        else:
            if raw is None:
                self.missing.append(label)
            return  # class constants, static methods: not call boundaries
        self._undo.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def _wrap_module_function(self, group, module, name):
        raw = vars(module).get(name)
        label = "%s.%s" % (module.__name__.rsplit(".", 1)[-1], name)
        if not isinstance(raw, types.FunctionType):
            self.missing.append(label)
            return
        wrapped = self._span_wrapper(raw, label, group)
        # ``from m import f`` copies the reference: patch every repro
        # module that holds it, not only the defining one.
        for holder in list(sys.modules.values()):
            if holder is None or not holder.__name__.startswith("repro."):
                continue
            for alias, value in list(vars(holder).items()):
                if value is raw:
                    self._undo.append((holder, alias, raw))
                    setattr(holder, alias, wrapped)

    def remove(self):
        """Restore every attribute :meth:`install` replaced.

        A wrapper can outlive this — ``TimeTravelIndex`` keeps the bound
        ``read_page_with_retry`` it was built with, and recovery builds
        one mid-phase — so the tracer also stays muted from here on:
        such a wrapper passes straight through and records nothing.
        """
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)
        self.leaf_state = 2

    # --- Aggregation ------------------------------------------------------

    def report(self):
        """Fold the span columns into a :class:`SpanReport`."""
        report = SpanReport()
        names, parents = self.name_col, self.parent_col
        starts, ends, leaves = self.start_col, self.end_col, self.leaf_col
        groups = self.groups
        count = len(names)
        report.spans = count
        self_ns = list(self.leaf_ns)
        calls = list(self.leaf_calls)
        muted_id = [group == MUTED for group in groups]
        compress_id = [group == COMPRESS_GROUP for group in groups]
        peek_id = [label == PEEK_SPAN for label in self.labels]
        compressing = bytearray(count)
        for i in range(count):
            nid = names[i]
            parent = parents[i]
            duration = ends[i] - starts[i]
            if parent >= 0:
                self_ns[names[parent]] -= duration
                if compressing[parent] or compress_id[nid]:
                    compressing[i] = 1
                    if peek_id[nid]:
                        report.peeks_in_compress += 1
            elif compress_id[nid]:
                compressing[i] = 1
            if muted_id[nid]:
                report.muted_ns += duration
                continue
            calls[nid] += 1
            self_ns[nid] += duration - leaves[i]
        for nid, group in enumerate(groups):
            if group == MUTED:
                continue
            entry = report.groups.setdefault(group, [0, 0])
            entry[0] += calls[nid]
            entry[1] += self_ns[nid]
        report.total_ns = sum(entry[1] for entry in report.groups.values())
        return report

    def write_spans(self, path):
        """One header line naming the span ids, then one span per line.

        Leaf calls are not spans; their per-name totals are in the header
        and their time inside each span is that span's ``leaf_ns``.
        """
        with open(path, "w", encoding="utf-8") as out:
            header = [
                {
                    "name": label,
                    "group": group,
                    "layer": layer_of(group),
                    "leaf_calls": leaf_calls,
                    "leaf_ns": leaf_ns,
                }
                for label, group, leaf_calls, leaf_ns in zip(
                    self.labels, self.groups, self.leaf_calls, self.leaf_ns
                )
            ]
            columns = ["name", "start_ns", "end_ns", "parent", "leaf_ns"]
            out.write(json.dumps({"names": header, "columns": columns}) + "\n")
            for row in zip(
                self.name_col, self.start_col, self.end_col, self.parent_col,
                self.leaf_col,
            ):
                out.write("%d %d %d %d %d\n" % row)
