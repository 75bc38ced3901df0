import os
import random

import pytest

from repro.common.errors import FileSystemError
from repro.fs import BlockAllocator, JournalingFS, LogStructuredFS, PlainFS

from tests.conftest import make_regular_ssd, make_timessd, small_geometry

ALL_FS = [PlainFS, JournalingFS, LogStructuredFS]


class TestBlockAllocator:
    def test_allocates_unique(self):
        alloc = BlockAllocator(10, 5)
        got = [alloc.allocate() for _ in range(5)]
        assert sorted(got) == list(range(10, 15))
        assert alloc.free_count == 0

    def test_exhaustion(self):
        alloc = BlockAllocator(0, 1)
        alloc.allocate()
        with pytest.raises(FileSystemError):
            alloc.allocate()

    def test_release_and_reuse(self):
        alloc = BlockAllocator(0, 2)
        a = alloc.allocate()
        b = alloc.allocate()
        alloc.release(a)
        assert alloc.allocate() == a

    def test_double_free_rejected(self):
        alloc = BlockAllocator(0, 2)
        a = alloc.allocate()
        alloc.release(a)
        with pytest.raises(FileSystemError):
            alloc.release(a)

    def test_out_of_region_rejected(self):
        with pytest.raises(FileSystemError):
            BlockAllocator(0, 2).release(10)


@pytest.mark.parametrize("fs_cls", ALL_FS)
class TestFileSystemBasics:
    def make_fs(self, fs_cls):
        ssd = make_regular_ssd(geometry=small_geometry(blocks_per_plane=64))
        return fs_cls(ssd, max_files=64)

    def test_create_and_exists(self, fs_cls):
        fs = self.make_fs(fs_cls)
        fs.create("a.txt")
        assert fs.exists("a.txt")
        assert fs.list_files() == ["a.txt"]

    def test_duplicate_create_rejected(self, fs_cls):
        fs = self.make_fs(fs_cls)
        fs.create("a")
        with pytest.raises(FileSystemError):
            fs.create("a")

    def test_write_read_roundtrip(self, fs_cls):
        fs = self.make_fs(fs_cls)
        fs.create("f")
        data = os.urandom(fs.page_size * 3 + 100)
        fs.write("f", 0, data)
        assert fs.read("f", 0, len(data)) == data
        assert fs.file_size("f") == len(data)

    def test_partial_page_rmw(self, fs_cls):
        fs = self.make_fs(fs_cls)
        fs.create("f")
        fs.write("f", 0, b"A" * fs.page_size)
        fs.write("f", 10, b"B" * 5)
        got = fs.read("f", 0, fs.page_size)
        assert got[:10] == b"A" * 10
        assert got[10:15] == b"B" * 5
        assert got[15:] == b"A" * (fs.page_size - 15)

    def test_sparse_read_returns_zeros(self, fs_cls):
        fs = self.make_fs(fs_cls)
        fs.create("f")
        fs.write("f", fs.page_size * 2, b"end")
        assert fs.read("f", 0, 4) == b"\x00" * 4

    def test_delete_frees_space(self, fs_cls):
        fs = self.make_fs(fs_cls)
        fs.create("f")
        fs.write("f", 0, b"x" * fs.page_size * 4)
        free_before = fs.allocator.free_count
        fs.delete("f")
        assert not fs.exists("f")
        assert fs.allocator.free_count == free_before + 4

    def test_missing_file_rejected(self, fs_cls):
        fs = self.make_fs(fs_cls)
        with pytest.raises(FileSystemError):
            fs.read("missing", 0, 1)

    def test_file_lpas_exposed(self, fs_cls):
        fs = self.make_fs(fs_cls)
        fs.create("f")
        fs.write_pages("f", 0, 3)
        assert len(fs.file_lpas("f")) == 3

    def test_overwrite_visible(self, fs_cls):
        fs = self.make_fs(fs_cls)
        fs.create("f")
        fs.write("f", 0, b"1" * fs.page_size)
        fs.write("f", 0, b"2" * fs.page_size)
        assert fs.read("f", 0, fs.page_size) == b"2" * fs.page_size


class TestWriteTrafficShape:
    """The Figure 9 signal: journaling > log-structured > plain."""

    def run_overwrites(self, fs, n=200):
        fs.create("f")
        rng = random.Random(3)
        page = fs.page_size
        fs.write("f", 0, b"0" * page * 8)
        for _ in range(n):
            fs.write("f", rng.randrange(8) * page, b"%d" % rng.random() * 1)
        return fs.stats

    def test_journaling_doubles_write_traffic(self):
        plain = PlainFS(make_regular_ssd(geometry=small_geometry(blocks_per_plane=64)))
        journaled = JournalingFS(
            make_regular_ssd(geometry=small_geometry(blocks_per_plane=64))
        )
        s_plain = self.run_overwrites(plain)
        s_journal = self.run_overwrites(journaled)
        assert s_journal.journal_page_writes > s_journal.data_page_writes
        assert s_journal.total_page_writes > 1.8 * s_plain.total_page_writes

    def test_log_structured_between_plain_and_journal(self):
        geo = small_geometry(blocks_per_plane=64)
        stats = {}
        for cls in ALL_FS:
            fs = cls(make_regular_ssd(geometry=geo))
            stats[cls.name] = self.run_overwrites(fs).total_page_writes
        assert stats["plainfs"] <= stats["f2fssim"] < stats["ext4sim"]

    def test_log_structured_remaps_pages(self):
        fs = LogStructuredFS(make_regular_ssd(geometry=small_geometry(blocks_per_plane=64)))
        fs.create("f")
        fs.write_pages("f", 0, 1)
        first = fs.file_lpas("f")[0]
        fs.write_pages("f", 0, 1)
        assert fs.file_lpas("f")[0] != first


class TestOnTimeSSD:
    def test_plainfs_history_recoverable(self):
        from repro.common.units import SECOND_US
        from repro.timekits import TimeKits
        from repro.timessd.config import ContentMode

        ssd = make_timessd(
            geometry=small_geometry(blocks_per_plane=64),
            content_mode=ContentMode.REAL,
            retention_floor_us=3600 * SECOND_US,
        )
        fs = PlainFS(ssd)
        fs.create("doc")
        fs.write("doc", 0, b"GOOD" * (fs.page_size // 4))
        t_good = ssd.clock.now_us
        ssd.clock.advance(1000)
        fs.write("doc", 0, b"EVIL" * (fs.page_size // 4))
        lpas = fs.file_lpas("doc")
        outcome = TimeKits(ssd).rollback_lpas(lpas, t_good)
        assert set(outcome.value) == set(lpas)
        assert fs.read("doc", 0, 4) == b"GOOD"
