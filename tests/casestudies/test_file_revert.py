import pytest

from repro.common.units import MINUTE_US, SECOND_US
from repro.casestudies import FileRevertStudy, KERNEL_FILES
from repro.fs import PlainFS
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.ssd import TimeSSD

from tests.conftest import small_geometry


@pytest.fixture
def study():
    ssd = TimeSSD(
        TimeSSDConfig(
            geometry=small_geometry(blocks_per_plane=128),
            content_mode=ContentMode.REAL,
            retention_floor_us=3600 * SECOND_US,
        )
    )
    fs = PlainFS(ssd)
    s = FileRevertStudy(fs, files=KERNEL_FILES[:4], pages_per_file=6, seed=1)
    s.setup()
    return s


def test_kernel_file_list():
    assert len(KERNEL_FILES) == 10
    assert "mmap.c" in KERNEL_FILES


def test_setup_creates_files(study):
    assert sorted(study.fs.list_files()) == sorted(KERNEL_FILES[:4])


def test_commit_stream_mutates_files(study):
    log = study.replay_commits(commits=40, commits_per_minute=100)
    assert len(log) == 40
    touched = {name for entry in log for name in entry.files}
    assert touched <= set(KERNEL_FILES[:4])
    # History grew beyond the initial snapshot for touched files.
    assert any(len(stamps) > 1 for stamps in study.history.values())


def test_revert_restores_exact_past_content(study):
    study.replay_commits(commits=40, commits_per_minute=100)
    t_past = study.fs.ssd.clock.now_us - MINUTE_US // 6
    outcome = study.revert_file("mmap.c", t_past, threads=1)
    assert outcome.verified
    assert outcome.elapsed_us > 0


def test_more_threads_recover_faster(study):
    study.replay_commits(commits=60, commits_per_minute=100)
    t_past = study.fs.ssd.clock.now_us - MINUTE_US // 6
    times = {}
    for threads in (1, 2, 4):
        outcome = study.revert_file("slab.c", t_past, threads=threads, verify=False)
        times[threads] = outcome.elapsed_us
    assert times[4] < times[1]


def test_snapshot_as_of_picks_correct_epoch(study):
    study.replay_commits(commits=10, commits_per_minute=100)
    name = "mmap.c"
    stamps = sorted(study.history[name])
    mid = stamps[len(stamps) // 2]
    snap = study.snapshot_as_of(name, mid)
    assert snap == study.history[name][mid]
    assert study.snapshot_as_of(name, stamps[0] - 1) == {}  # not yet created
