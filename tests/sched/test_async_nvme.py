"""The event-driven NVMe engine: overlap, ordering, and QD=1 equivalence."""

import json

import pytest

from repro.nvme.commands import NVMeCommand, Opcode, StatusCode
from repro.nvme.driver import HostNVMeDriver
from repro.nvme.engine import AsyncNVMeEngine
from repro.sched.core import SeededTieBreak

from tests.conftest import make_regular_ssd, make_timessd


def write_cmds(count, stride=1, start=0):
    return [
        NVMeCommand(Opcode.WRITE, slba=(start + i * stride), nlb=1)
        for i in range(count)
    ]


def strip_engine_gauges(snapshot):
    """Engine-only gauges exist only on the async path; drop them when
    comparing against a synchronous run."""
    gauges = {
        name: value
        for name, value in snapshot["gauges"].items()
        if not name.startswith("nvme.engine.")
    }
    out = dict(snapshot)
    out["gauges"] = gauges
    return out


class TestOutOfOrderCompletion:
    def test_short_read_completes_before_long_write(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=2)
        # Seed lba 9 so the read hits mapped flash.
        engine.process([NVMeCommand(Opcode.WRITE, slba=9, nlb=1)])
        engine.process(
            [
                NVMeCommand(Opcode.WRITE, slba=0, nlb=1),  # cid 1: ~program_us
                NVMeCommand(Opcode.READ, slba=9, nlb=1),  # cid 2: ~read_us
            ]
        )
        log = engine.completion_log()
        order = [cid for cid, _status, _t in log]
        # cid 2 (read) posts before cid 1 (write): genuine out-of-order.
        assert order.index(2) < order.index(1)
        post_times = {cid: t for cid, _status, t in log}
        assert post_times[2] < post_times[1]

    def test_results_still_return_in_submission_order(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=4)
        payloads = [b"p%d" % i for i in range(16)]
        engine.process(
            [
                NVMeCommand(Opcode.WRITE, slba=i, nlb=1, data=[payloads[i]])
                for i in range(16)
            ]
        )
        completions, _ = engine.process(
            [NVMeCommand(Opcode.READ, slba=i, nlb=1) for i in range(16)]
        )
        assert [c.result[0] for c in completions] == payloads

    def test_each_pump_returns_its_own_commands_in_cid_order(self):
        # A pump places each completion at its cid minus the pump's first
        # cid, with no sort: the second pump here starts at cid 7, its
        # commands alternate between two rings, and on each ring fast
        # reads post before slow writes queued ahead of them.
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=3, queue_pairs=2)
        posts = {pair.index: [] for pair in engine.pairs}
        for pair in engine.pairs:
            def post(cid, completion, t_us, real=pair.post, log=posts[pair.index]):
                log.append((cid, completion.status, t_us))
                real(cid, completion, t_us)

            pair.post = post
        expected_log = []
        first = [
            NVMeCommand(Opcode.WRITE, slba=i, nlb=1, data=[b"a%d" % i])
            for i in range(7)
        ]
        done, _ = engine.process(first)
        assert [c.result for c in done] == [1] * 7
        expected_log += posts[0] + posts[1]
        for ring in posts.values():
            ring.clear()
        # Two writes, two reads, ...: each ring gets writes and reads.
        reads = [k for k in range(14) if k // 2 % 2]
        second = [
            NVMeCommand(Opcode.READ, slba=k % 7, nlb=1)
            if k in reads
            else NVMeCommand(Opcode.WRITE, slba=20 + k, nlb=1)
            for k in range(14)
        ]
        assert engine.enqueue(second) == list(range(7, 21))
        completions, _ = engine.pump()
        assert [c.result for c in completions] == [
            [b"a%d" % (k % 7)] if k in reads else 1 for k in range(14)
        ]
        for ring in posts.values():
            cids = [cid for cid, _status, _t in ring]
            assert len(cids) == 7 and cids != sorted(cids)
        # The log keeps every pump's entries, ring by ring in post order,
        # as (cid, status, t_us) triples.
        expected_log += posts[0] + posts[1]
        assert engine.completion_log() == expected_log

    @pytest.mark.parametrize("queue_pairs", [1, 2, 3])
    def test_a_pump_from_an_odd_cid_fills_each_ring_round_robin(self, queue_pairs):
        # cid c goes to pair c % len(pairs) whatever the first cid: the
        # second pump here starts at cid 5 and the third at cid 12.
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=3, queue_pairs=queue_pairs)
        engine.process([
            NVMeCommand(Opcode.WRITE, slba=i, nlb=1, data=[b"a%d" % i])
            for i in range(5)
        ])
        submitted = [pair.submitted for pair in engine.pairs]
        for first, count in ((5, 7), (12, 10)):
            reads = [
                NVMeCommand(Opcode.READ, slba=(first + k) % 5, nlb=1)
                for k in range(count)
            ]
            cids = list(range(first, first + count))
            assert engine.enqueue(reads) == cids
            for pair in engine.pairs:
                mine = [cid for cid in cids if cid % queue_pairs == pair.index]
                assert [cid for cid, _command in pair.sq] == mine
                assert [command for _cid, command in pair.sq] == [
                    reads[cid - first] for cid in mine
                ]
                submitted[pair.index] += len(mine)
                assert pair.submitted == submitted[pair.index]
            completions, _ = engine.pump()
            assert [c.result for c in completions] == [
                [b"a%d" % (cid % 5)] for cid in cids
            ]
            assert all(not pair.sq for pair in engine.pairs)
        assert sorted(
            cid for cid, _status, _t in engine.completion_log()
        ) == list(range(22))

    def test_inflight_overlap_at_depth(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=4)
        engine.process(write_cmds(64))
        assert engine.inflight_max >= 2

    def test_multi_queue_pairs_round_robin(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=2, queue_pairs=2)
        completions, _ = engine.process(write_cmds(32))
        assert len(completions) == 32
        assert all(c.ok for c in completions)
        assert all(pair.submitted == 16 for pair in engine.pairs)
        assert all(pair.posted == 16 for pair in engine.pairs)


class TestStatusMapping:
    def test_out_of_range_and_invalid_commands(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=4)
        completions, _ = engine.process(
            [
                NVMeCommand(Opcode.WRITE, slba=0, nlb=1),
                NVMeCommand(Opcode.READ, slba=ssd.logical_pages, nlb=1),
                NVMeCommand(Opcode.RETENTION_INFO),  # host-serial; not queueable
                NVMeCommand(Opcode.WRITE, slba=0, nlb=0),
                NVMeCommand(Opcode.FLUSH),  # queueable: same answer as submit()
            ]
        )
        assert [c.status for c in completions] == [
            StatusCode.SUCCESS,
            StatusCode.LBA_OUT_OF_RANGE,
            StatusCode.INVALID_OPCODE,
            StatusCode.INVALID_FIELD,
            StatusCode.SUCCESS,
        ]

    def test_failed_command_does_not_advance_time(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=1)
        before = ssd.clock.now_us
        _, elapsed = engine.process(
            [NVMeCommand(Opcode.READ, slba=ssd.logical_pages + 5, nlb=1)]
        )
        assert elapsed == 0
        assert ssd.clock.now_us == before

    def test_engine_rejects_degenerate_shapes(self):
        ssd = make_regular_ssd()
        with pytest.raises(ValueError):
            AsyncNVMeEngine(ssd, queue_depth=0)
        with pytest.raises(ValueError):
            AsyncNVMeEngine(ssd, queue_pairs=0)


class TestQD1MatchesSynchronousBatch:
    @pytest.mark.parametrize("maker", [make_regular_ssd, make_timessd])
    def test_same_elapsed_statuses_and_metrics(self, maker):
        def workload():
            cmds = []
            for i in range(150):
                cmds.append(NVMeCommand(Opcode.WRITE, slba=i % 48, nlb=2))
            for i in range(40):
                cmds.append(NVMeCommand(Opcode.READ, slba=i, nlb=1))
            cmds.append(NVMeCommand(Opcode.DSM, slba=0, nlb=4))
            return cmds

        sync_ssd, async_ssd = maker(), maker()
        # The reference: a plain serial execute_io loop chaining cursors.
        controller = HostNVMeDriver(sync_ssd).controller
        arrival = cursor = sync_ssd.clock.now_us
        completions = []
        for command in workload():
            completion, cursor = controller.execute_io(command, cursor)
            completions.append(completion)
        sync_ssd.clock.advance_to(cursor)
        sync_out = (completions, cursor - arrival)
        async_out = HostNVMeDriver(async_ssd).submit_async(
            workload(), queue_depth=1
        )
        assert sync_out[1] == async_out[1]  # elapsed_us
        assert [c.status for c in sync_out[0]] == [
            c.status for c in async_out[0]
        ]
        sync_snap = strip_engine_gauges(sync_ssd.metrics_snapshot())
        async_snap = strip_engine_gauges(async_ssd.metrics_snapshot())
        assert json.dumps(sync_snap, sort_keys=True) == json.dumps(
            async_snap, sort_keys=True
        )


class TestBackgroundDaemons:
    def test_daemons_install_once_and_interleave(self):
        ssd = make_timessd()
        engine = AsyncNVMeEngine(ssd, queue_depth=4)
        first = engine.install_daemons(retention_target_us=10**12)
        assert first
        assert engine.install_daemons() is first  # idempotent
        completions, _ = engine.process(write_cmds(96, stride=1))
        assert all(c.ok for c in completions)
        # Daemon wakeups dispatched alongside the I/O events: strictly
        # more events than the per-command and per-worker minimum.
        assert engine.loop.events_dispatched > 96 + engine.loop.tasks_spawned

    def test_background_daemons_relieve_pool_pressure(self):
        # Sustained overwrite churn with idle gaps between rings: the
        # clock only moves while the loop runs, and both bloom-segment
        # rolls and retention expiry age in device time.  A short floor
        # lets history expire instead of filling the device.
        ssd = make_timessd(retention_floor_us=10**4)
        engine = AsyncNVMeEngine(ssd, queue_depth=4)
        engine.install_daemons(retention_target_us=10**5)
        for _round in range(30):
            completions, _ = engine.process(
                [
                    NVMeCommand(Opcode.WRITE, slba=i % 256, nlb=1)
                    for i in range(128)
                ]
            )
            assert all(c.ok for c in completions)
            ssd.clock.advance(300_000)
        snap = ssd.metrics_snapshot()
        # The daemons did real work: background GC rounds ran, the
        # expiry task shrank the retention window, and the device
        # survived 15x-capacity churn with its free pool intact.
        assert snap["counters"]["gc.background_runs"] > 0
        assert snap["counters"]["timessd.retention.shrinks"] > 0
        assert ssd.block_manager.free_block_count > 0

    def test_tie_break_changes_schedule_not_results(self):
        results = []
        for seed in (3, 11):
            ssd = make_timessd()
            engine = AsyncNVMeEngine(
                ssd, queue_depth=8, tie_break=SeededTieBreak(seed)
            )
            engine.install_daemons()
            engine.process(write_cmds(64))
            completions, _ = engine.process(
                [NVMeCommand(Opcode.READ, slba=i, nlb=1) for i in range(64)]
            )
            results.append([c.result[0] for c in completions])
        assert results[0] == results[1]
