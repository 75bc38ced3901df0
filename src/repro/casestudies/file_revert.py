"""Reversing file changes — the paper's §5.5.2 / Figure 11 case study.

The paper replays the 1,000 most recent Linux-kernel commits against the
checked-out tree, then reverts individual source files to one minute
earlier with 1/2/4 recovery threads.  We synthesize an equivalent commit
stream: each commit patches a few files by mutating a fraction of their
pages, exactly the write pattern `git am` produces at block level.
"""

import random
from dataclasses import dataclass, field

from repro.common.units import MINUTE_US
from repro.timekits.api import TimeKits
from repro.workloads.content import ContentFactory

# The ten kernel source files of Figure 11.
KERNEL_FILES = (
    "mmap.c",
    "mprotect.c",
    "slab.c",
    "swap.c",
    "aio.c",
    "inode.c",
    "iomap.c",
    "iov.c",
    "of.c",
    "pci.c",
)


@dataclass
class RevertOutcome:
    name: str
    threads: int
    elapsed_us: int
    pages: int
    verified: bool


@dataclass
class CommitLogEntry:
    commit_id: int
    timestamp_us: int
    files: list = field(default_factory=list)


class FileRevertStudy:
    """Synthesizes commits over kernel-like files and reverts them."""

    def __init__(self, fs, files=KERNEL_FILES, pages_per_file=12, seed=0):
        self.fs = fs
        self.files = list(files)
        self.pages_per_file = pages_per_file
        self._rng = random.Random(seed)
        self._content = ContentFactory(fs.page_size, self._rng, mutation_fraction=0.06)
        #: name -> {timestamp_us: {page: bytes}} — ground truth history.
        self.history = {}
        self.commit_log = []

    def setup(self):
        """Create the tree with initial content."""
        for name in self.files:
            self.fs.create(name)
            snapshot = {}
            for page in range(self.pages_per_file):
                data = self._content.fresh((name, page))
                self.fs.write_pages(name, page, 1, [data])
                snapshot[page] = data
            self.history[name] = {self.fs.ssd.clock.now_us: snapshot}
            self.fs.ssd.clock.advance(2000)

    def replay_commits(self, commits=1000, commits_per_minute=100):
        """Apply a stream of synthetic patches (paper: 100/minute)."""
        if not self.history:
            self.setup()
        gap_us = int(MINUTE_US / commits_per_minute)
        for commit_id in range(commits):
            touched = self._rng.sample(self.files, self._rng.randrange(1, 4))
            entry = CommitLogEntry(commit_id, self.fs.ssd.clock.now_us, touched)
            for name in touched:
                pages = self._rng.sample(
                    range(self.pages_per_file),
                    self._rng.randrange(1, max(2, self.pages_per_file // 3)),
                )
                stamp = self.fs.ssd.clock.now_us
                snapshot = dict(self._latest_snapshot(name))
                for page in sorted(pages):
                    data = self._content.mutate((name, page))
                    self.fs.write_pages(name, page, 1, [data])
                    snapshot[page] = data
                self.history[name][stamp] = snapshot
            self.commit_log.append(entry)
            self.fs.ssd.clock.advance(gap_us)
        return self.commit_log

    def _latest_snapshot(self, name):
        stamps = sorted(self.history[name])
        return self.history[name][stamps[-1]]

    def snapshot_as_of(self, name, t):
        """Ground-truth file content at time ``t`` (for verification):
        ``{}`` when the file did not exist yet."""
        stamps = [s for s in sorted(self.history[name]) if s <= t]
        return self.history[name][stamps[-1]] if stamps else {}

    def revert_file(self, name, t, threads=1, verify=True):
        """Roll one file back to its state at ``t``; returns RevertOutcome.

        One TimeKits rollback over the file's extents with ``threads``
        simulated recovery threads — the paper's revert tool.  PlainFS
        places pages in-place, so the restore writes land exactly where
        the file system expects the content.
        """
        ssd = self.fs.ssd
        lpas = self.fs.file_lpas(name)
        start = ssd.clock.now_us
        TimeKits(ssd).rollback_lpas(lpas, t, threads)
        elapsed = ssd.clock.now_us - start
        verified = True
        if verify:
            # A page absent at t must read None; PlainFS shows zeros.
            expected = self.snapshot_as_of(name, t)
            for page_index, lpa in enumerate(lpas):
                if ssd.read(lpa)[0] != expected.get(page_index):
                    verified = False
                    break
        return RevertOutcome(name, threads, elapsed, len(lpas), verified)
