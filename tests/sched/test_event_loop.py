"""Unit tests for the deterministic event loop (repro.sched.core)."""

import heapq

import pytest

from repro.common.clock import SimClock
from repro.sched import (
    At,
    Delay,
    EventLoop,
    FifoTieBreak,
    SchedulerError,
    SeededTieBreak,
)


def make_loop(tie_break=None):
    return EventLoop(SimClock(), tie_break=tie_break)


class TestDispatchOrder:
    def test_delays_advance_the_clock_in_event_order(self):
        loop = make_loop()
        log = []

        def task(name, delays):
            for d in delays:
                yield Delay(d)
                log.append((name, loop.now_us))

        loop.spawn(task("a", [30, 30]), name="a")
        loop.spawn(task("b", [20, 50]), name="b")
        loop.run()
        assert log == [("b", 20), ("a", 30), ("a", 60), ("b", 70)]
        assert loop.now_us == 70
        assert loop.idle

    def test_same_timestamp_events_run_fifo_by_default(self):
        loop = make_loop()
        log = []

        def task(name):
            yield Delay(10)
            log.append(name)

        for name in "abcd":
            loop.spawn(task(name), name=name)
        loop.run()
        assert log == list("abcd")

    def test_at_in_the_past_is_clamped_to_now(self):
        loop = make_loop()
        log = []

        def task():
            yield Delay(50)
            yield At(10)  # already past; resumes immediately at t=50
            log.append(loop.now_us)

        loop.spawn(task(), name="t")
        loop.run()
        assert log == [50]

    def test_run_until_leaves_future_events_queued(self):
        loop = make_loop()

        def task():
            yield Delay(100)

        loop.spawn(task(), name="t")
        loop.run(until_us=50)
        assert not loop.idle
        assert loop.pending_events() == 1
        loop.run()
        assert loop.idle

    def test_spawn_at_us_schedules_first_run(self):
        loop = make_loop()
        log = []

        def task():
            log.append(loop.now_us)
            return
            yield  # pragma: no cover - marks this as a generator

        loop.spawn(task(), name="t", at_us=42)
        loop.run()
        assert log == [42]


class TestWaitValidation:
    def test_delay_rejects_negative_and_non_int(self):
        with pytest.raises(SchedulerError):
            Delay(-1)
        with pytest.raises(SchedulerError):
            Delay(1.5)
        with pytest.raises(SchedulerError):
            Delay(True)
        with pytest.raises(SchedulerError):
            At("soon")

    @pytest.mark.parametrize("t_us", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_at_takes_an_int_and_nothing_equal_to_one(self, t_us):
        with pytest.raises(SchedulerError):
            At(t_us)

    def test_yielding_a_non_instruction_fails_loud(self):
        loop = make_loop()

        def task():
            yield 42

        loop.spawn(task(), name="t")
        with pytest.raises(SchedulerError):
            loop.run()


class TestDaemons:
    def test_daemons_do_not_keep_the_loop_alive(self):
        loop = make_loop()
        ticks = []

        def daemon():
            while True:
                yield Delay(5)
                ticks.append(loop.now_us)

        def worker():
            yield Delay(12)

        loop.spawn(daemon(), name="d", daemon=True)
        loop.spawn(worker(), name="w")
        loop.run()
        # The daemon interleaves while the worker lives, then the loop
        # stops: no daemon tick past the last non-daemon event.
        assert ticks == [5, 10]
        assert loop.now_us == 12

    def test_a_daemon_that_returns_fails_loud(self):
        loop = make_loop()
        loop.spawn(iter(()), name="d", daemon=True)
        loop.spawn(iter([Delay(1)]), name="w")
        with pytest.raises(SchedulerError, match="daemon d returned"):
            loop.run()


class TestTieBreak:
    def test_seeded_tiebreak_is_deterministic(self):
        a, b = SeededTieBreak(9), SeededTieBreak(9)
        keys_a = [a.key(t, s) for t in range(50) for s in range(8)]
        keys_b = [b.key(t, s) for t in range(50) for s in range(8)]
        assert keys_a == keys_b

    def test_seeded_tiebreak_permutes_same_timestamp_order(self):
        def order_for(tie):
            loop = make_loop(tie_break=tie)
            log = []

            def task(name):
                yield Delay(10)
                log.append(name)

            for name in "abcdefgh":
                loop.spawn(task(name), name=name)
            loop.run()
            return log

        fifo = order_for(FifoTieBreak())
        assert fifo == list("abcdefgh")
        seeded = {tuple(order_for(SeededTieBreak(seed))) for seed in range(8)}
        # Every seed yields a legal order; at least one differs from FIFO.
        assert any(tuple(fifo) != order for order in seeded)
        for order in seeded:
            assert sorted(order) == sorted(fifo)

    def test_seed_must_be_int(self):
        with pytest.raises(SchedulerError):
            SeededTieBreak("entropy")


# --- The folded dispatcher against the one it replaced ---------------------------
#
# ``EventLoop.run`` resumes a task and queues its next event inline.  The
# dispatcher it replaced (``run`` -> ``_step`` -> ``_push``, one call per
# event for each) is kept here as the reference: on a mixed workload with
# daemons, same-timestamp collisions, past ``At``s, zero delays, a task
# spawned mid-run and a step that advances the clock, both must dispatch the same ``(t_us, seq, task name)``
# sequence under FIFO and under seeded tie-breaks.


def reference_run(loop):
    """The unfolded dispatcher; returns its ``(t_us, seq, name)`` log,
    ``t_us`` being the clock the task resumes at."""
    log = []

    def push(task, t_us):
        loop._seq += 1
        heapq.heappush(
            loop._heap, (t_us, loop._tie.key(t_us, loop._seq), loop._seq, task)
        )

    def step(task):
        try:
            instruction = next(task.gen)
        except StopIteration as stop:
            loop._finish(task, stop.value)
            return
        if isinstance(instruction, Delay):
            push(task, loop.now_us + instruction.delta_us)
        elif isinstance(instruction, At):
            push(task, max(loop.now_us, instruction.t_us))
        else:
            raise SchedulerError("bad yield %r" % (instruction,))

    while loop._heap and loop._live > 0:
        t_us, _tie, seq, task = heapq.heappop(loop._heap)
        if task.done:
            continue
        loop.clock.advance_to(t_us)
        loop.events_dispatched += 1
        log.append((loop.now_us, seq, task.name))
        step(task)
    return log


class Recorder:
    """Spawns tasks whose every resume logs ``(now_us, seq, name)``.

    ``seq`` is the sequence number of the event that resumed the task.
    A task's next event is queued right after it yields, before any other
    task runs, so the loop's counter read at the next resume — of any
    task — is the number that event got.
    """

    def __init__(self, loop):
        self.loop = loop
        self.log = []
        self.seq_of = {}
        self.yielded = None

    def spawn(self, gen, name, **kwargs):
        task = self.loop.spawn(self._traced(gen, name), name=name, **kwargs)
        self.seq_of[name] = self.loop._seq
        return task

    def _traced(self, gen, name):
        while True:
            if self.yielded is not None:
                self.seq_of[self.yielded] = self.loop._seq
                self.yielded = None
            self.log.append((self.loop.now_us, self.seq_of[name], name))
            try:
                instruction = next(gen)
            except StopIteration as stop:
                return stop.value
            self.yielded = name
            yield instruction


def mixed_workload(rec):
    def steps(*waits):
        for wait in waits:
            yield wait

    def spawner():
        yield At(20)
        rec.spawn(steps(Delay(3), Delay(7), At(5)), "child")
        # No firmware task moves the clock, but the loop reads it after
        # each step, so one that does is still queued from there.
        rec.loop.clock.advance(2)
        yield Delay(0)
        yield At(30)

    def daemon(period):
        while True:
            yield Delay(period)

    rec.spawn(steps(Delay(10), Delay(10), At(15), Delay(0), Delay(5)), "a")
    rec.spawn(spawner(), "b")
    rec.spawn(steps(Delay(10), Delay(10), Delay(10)), "c")
    rec.spawn(steps(Delay(0), At(20), At(20), Delay(10)), "d", at_us=20)
    rec.spawn(daemon(4), "gc", daemon=True)
    rec.spawn(daemon(10), "expiry", daemon=True)


@pytest.mark.parametrize(
    "tie", [None] + list(range(5)), ids=["fifo"] + ["seed%d" % s for s in range(5)]
)
def test_folded_run_dispatches_what_the_step_push_loop_did(tie):
    def build():
        loop = make_loop(None if tie is None else SeededTieBreak(tie))
        rec = Recorder(loop)
        mixed_workload(rec)
        return loop, rec

    ref_loop, ref_rec = build()
    expected = reference_run(ref_loop)
    # The recorder sees what the reference's heap entries say.
    assert ref_rec.log == expected
    loop, rec = build()
    assert loop.run() == len(expected)
    assert rec.log == expected
    assert loop.events_dispatched == ref_loop.events_dispatched
    assert (loop.now_us, loop._seq) == (ref_loop.now_us, ref_loop._seq)
    assert loop.pending_events() == ref_loop.pending_events()
    assert len({t for t, _seq, _name in expected}) < len(expected)  # ties occur
