"""Extension experiment: software versioning (CoW snapshots) vs TimeSSD.

Not a paper figure — it quantifies the §2.2/§6 argument the paper makes
qualitatively: snapshotting file systems can also retain history, but
(a) they pay full pages per version while TimeSSD delta-compresses,
(b) their history costs user-visible capacity, and (c) a privileged
attacker can destroy it with one call, while TimeSSD's survives.

Both stacks run the same versioned-overwrite workload; we report write
throughput, history footprint, recoverability before and after a
privileged wipe attempt.
"""

import random
from dataclasses import dataclass

from repro.common.units import DAY_US, SECOND_US
from repro.bench.config import bench_geometry
from repro.flash.timing import FlashTiming
from repro.fs import CowFS, PlainFS
from repro.ftl.ssd import RegularSSD, SSDConfig
from repro.timekits import TimeKits
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.ssd import TimeSSD
from repro.workloads.content import ContentFactory


@dataclass
class VersioningResult:
    stack: str
    elapsed_us: int
    history_pages: int  # pages consumed purely by retained history
    #: How much of that comes out of *user-visible* capacity.  CoW
    #: versions live in the file system's own space; TimeSSD history
    #: hides in the device's spare area.
    user_capacity_cost: int
    recovered_ok: bool  # pre-wipe recovery of an old version
    survives_privileged_wipe: bool


def _geometry():
    return bench_geometry(page_size=2048, blocks_per_plane=32)


def _workload(fs, rounds=8, files=12, pages_per_file=4, seed=21, on_round_end=None):
    """Versioned updates: every round rewrites ~60% of each file."""
    rng = random.Random(seed)
    content = ContentFactory(fs.page_size, rng, mutation_fraction=0.10)
    goldens = {}
    for i in range(files):
        name = "doc%02d" % i
        fs.create(name)
        for p in range(pages_per_file):
            fs.write_pages(name, p, 1, [content.fresh((name, p))])
        fs.ssd.clock.advance(2000)
    marks = []
    for round_no in range(rounds):
        marks.append(fs.ssd.clock.now_us)
        if round_no == rounds // 2:
            # Remember one file's content mid-history for recovery checks.
            goldens["doc00"] = [
                bytes(content.current(("doc00", p)))
                for p in range(pages_per_file)
            ]
        for i in range(files):
            name = "doc%02d" % i
            for p in range(pages_per_file):
                if rng.random() < 0.6:
                    fs.write_pages(name, p, 1, [content.mutate((name, p))])
        fs.ssd.clock.advance(5 * SECOND_US)
        if on_round_end is not None:
            on_round_end(round_no)
    return marks, goldens


def run_cow_stack():
    """CoW snapshots on a regular SSD."""
    ssd = RegularSSD(SSDConfig(geometry=_geometry(), timing=FlashTiming()))
    fs = CowFS(ssd)
    snapshots = []
    start = ssd.clock.now_us

    def take_snapshot(_round):
        snapshots.append(fs.snapshot())

    marks, goldens = _workload(fs, on_round_end=take_snapshot)
    elapsed = ssd.clock.now_us - start
    history_pages = fs.retained_version_pages()

    mid_snap = snapshots[len(snapshots) // 2]
    recovered = fs.read_at("doc00", mid_snap, 0, len(goldens["doc00"][0]))
    recovered_ok = recovered == goldens["doc00"][0]

    # Privileged wipe: delete every snapshot.  Software retention dies.
    for snap in list(fs.snapshots()):
        fs.delete_snapshot(snap)
    survives = fs.retained_version_pages() > 0
    return VersioningResult(
        "CowFS+RegularSSD",
        elapsed,
        history_pages,
        user_capacity_cost=history_pages,
        recovered_ok=recovered_ok,
        survives_privileged_wipe=survives,
    )


def run_timessd_stack():
    """Plain FS on TimeSSD: history lives in firmware."""
    ssd = TimeSSD(
        TimeSSDConfig(
            geometry=_geometry(),
            timing=FlashTiming(),
            content_mode=ContentMode.REAL,
            retention_floor_us=3 * DAY_US,
            bloom_capacity=512,
        )
    )
    fs = PlainFS(ssd)
    start = ssd.clock.now_us
    marks, goldens = _workload(fs)
    elapsed = ssd.clock.now_us - start
    # Firmware history footprint: retained pages still uncompressed plus
    # flushed delta pages (page-equivalents).
    history_pages = ssd.retained_pages + ssd.deltas.flushed_pages.value

    kits = TimeKits(ssd)
    mid_mark = marks[len(marks) // 2]
    # The golden snapshot was taken at the *start* of round rounds//2;
    # the state as of just after that mark matches it.
    lpas = fs.file_lpas("doc00")
    as_of = kits.as_of(lpas, mid_mark).value
    recovered_ok = as_of[lpas[0]].data == goldens["doc00"][0]

    # Privileged wipe attempt: the host has no interface to erase
    # firmware history; TRIMming files still leaves versions retained.
    for name in list(fs.list_files()):
        fs.delete(name)
    survives = any(
        version is not None and version.data == goldens["doc00"][0]
        for version in kits.as_of(lpas, mid_mark).value.values()
    )
    return VersioningResult(
        "PlainFS+TimeSSD",
        elapsed,
        history_pages,
        user_capacity_cost=0,
        recovered_ok=recovered_ok,
        survives_privileged_wipe=survives,
    )


def run_comparison():
    return run_cow_stack(), run_timessd_stack()
