import pytest

from repro.common.errors import QueryError
from repro.common.units import SECOND_US
from repro.timekits import ForensicTimeline, TimeKits
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.ssd import TimeSSD

from tests.conftest import make_timessd, small_geometry


@pytest.fixture
def kit():
    ssd = TimeSSD(
        TimeSSDConfig(
            geometry=small_geometry(),
            retention_floor_us=3600 * SECOND_US,
            content_mode=ContentMode.REAL,
        )
    )
    return TimeKits(ssd)


def page(text):
    return text.encode().ljust(512, b"\0")


class TestFileRecovery:
    """A file's extents need not be contiguous: TimeKits' LPA-list calls."""

    def test_recover_file_restores_all_pages(self, kit):
        ssd = kit.ssd
        lpas = [3, 9, 17]
        for lpa in lpas:
            ssd.write(lpa, page("good-%d" % lpa))
        t_good = ssd.clock.now_us
        ssd.clock.advance(1000)
        for lpa in lpas:
            ssd.write(lpa, page("ENCRYPTED"))
        ssd.clock.advance(1000)
        start = ssd.clock.now_us
        outcome = kit.rollback_lpas(lpas, t_good, threads=2)
        assert set(outcome.value) == set(lpas)
        assert outcome.elapsed_us == ssd.clock.now_us - start > 0
        for lpa in lpas:
            assert ssd.read(lpa)[0].startswith(b"good-")

    def test_peek_file_does_not_modify(self, kit):
        ssd = kit.ssd
        ssd.write(5, page("v1"))
        t1 = ssd.clock.now_us
        ssd.clock.advance(1000)
        ssd.write(5, page("v2"))
        picked = kit.as_of([5], t1).value
        assert picked[5].data.startswith(b"v1")
        assert ssd.read(5)[0].startswith(b"v2")  # unchanged


class TestForensicTimeline:
    def test_events_since_sorted(self, kit):
        ssd = kit.ssd
        for lpa in (4, 2, 8):
            ssd.write(lpa, page("x"))
            ssd.clock.advance(500)
        timeline = ForensicTimeline(kit)
        events, elapsed = timeline.events_since(0)
        stamps = [e.timestamp_us for e in events]
        assert stamps == sorted(stamps)
        assert {e.lpa for e in events} == {4, 2, 8}

    def test_histogram_detects_burst(self, kit):
        ssd = kit.ssd
        ssd.write(0, page("quiet"))
        ssd.clock.advance(10 * SECOND_US)
        burst_start = ssd.clock.now_us
        for lpa in range(1, 30):
            ssd.write(lpa, page("burst"))
            ssd.clock.advance(1000)
        burst_end = ssd.clock.now_us
        timeline = ForensicTimeline(kit)
        counts, bucket_us, _ = timeline.activity_histogram(0, burst_end, buckets=10)
        assert max(counts) >= 10  # the burst concentrates in few buckets
        assert counts[0] <= 2

    def test_histogram_validates_args(self, kit):
        timeline = ForensicTimeline(kit)
        with pytest.raises(ValueError):
            timeline.activity_histogram(10, 5)

    def test_touched_lpas_between(self, kit):
        ssd = kit.ssd
        ssd.write(1, page("a"))
        t1 = ssd.clock.now_us
        ssd.clock.advance(1000)
        ssd.write(2, page("b"))
        t2 = ssd.clock.now_us
        timeline = ForensicTimeline(kit)
        touched, _ = timeline.touched_lpas_between(t1, t2)
        assert touched == {2} or touched == {1, 2}  # boundary inclusive

    def test_footprint_includes_deleted_lpas(self, kit):
        """Ransomware that deletes the original and writes the ciphertext
        elsewhere touched both places."""
        ssd = kit.ssd
        ssd.write(5, page("original"))
        ssd.clock.advance(1000)
        t1 = ssd.clock.now_us
        ssd.write(5, page("original, edited"))
        ssd.clock.advance(1000)
        ssd.write(6, page("ENCRYPTED"))
        ssd.clock.advance(1000)
        ssd.trim(5)
        timeline = ForensicTimeline(kit)
        touched, _ = timeline.touched_lpas_between(t1, ssd.clock.now_us)
        assert touched == {5, 6}
        events, _ = timeline.events_since(0)
        assert [e.lpa for e in events] == [5, 5, 6]
