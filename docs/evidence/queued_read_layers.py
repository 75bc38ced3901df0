"""Host microseconds per 1-page queued READ, split by layer.

Evidence for docs/PERFORMANCE.md, "The queued route, per command".  One
bench TimeSSD built as the ``qd-read`` ledger workload builds it, half
its LPAs written, then the same READ commands timed five ways, each
the best of ``--rounds`` runs:

* ``full``: ``AsyncNVMeEngine.process`` at QD 8 x 2 queue pairs;
* ``engine``: the same, with the controller's ``execute_io`` replaced by
  a stub that answers at once — the engine and the event loop alone;
* ``controller``: ``NVMeController.execute_io`` per command, less the
  ``serve`` time below;
* ``serve``: ``BaseSSD.serve_read_at`` per command, less the ``core``
  time below — the FTL's per-page admission;
* ``core``: ``mapping.lookup`` + ``device.read_page`` per command — the
  L2P lookup and the flash read booking.

The script touches only names every checkout since the one-decode
controller has, so it times a parent and a change alike::

    PYTHONPATH=parent/src python docs/evidence/queued_read_layers.py
    PYTHONPATH=src python docs/evidence/queued_read_layers.py

Figures are host time on the machine that runs it; run the two
checkouts alternately, one process at a time.
"""

import argparse
import random
import time

from repro.bench.config import make_bench_timessd
from repro.common.units import MS_US, SECOND_US
from repro.nvme.commands import NVMeCommand, NVMeCompletion, Opcode, StatusCode
from repro.nvme.engine import AsyncNVMeEngine


def build(seed):
    ssd = make_bench_timessd(
        retention_floor_us=SECOND_US,
        bloom_segment_max_age_us=125 * MS_US,
        bloom_capacity=256,
    )
    working = ssd.logical_pages // 2
    for lpa in range(working):
        ssd.write(lpa)
        ssd.clock.advance(200)
    rng = random.Random(seed)
    return ssd, [rng.randrange(working) for _ in range(20_000)]


def best_ns(rounds, run):
    best = None
    for _ in range(rounds):
        started = time.perf_counter_ns()
        run()
        elapsed = time.perf_counter_ns() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def measure(rounds, seed):
    ssd, lpas = build(seed)
    commands = [NVMeCommand(Opcode.READ, slba=lpa, nlb=1) for lpa in lpas]
    mapping, device = ssd.mapping, ssd.device

    def full():
        AsyncNVMeEngine(ssd, queue_depth=8, queue_pairs=2).process(commands)

    answer = NVMeCompletion(StatusCode.SUCCESS, [None], latency_us=75)

    def engine():
        stubbed = AsyncNVMeEngine(ssd, queue_depth=8, queue_pairs=2)
        stubbed.controller.execute_io = lambda command, start_us: (
            answer, start_us + 75
        )
        stubbed.process(commands)

    controller = AsyncNVMeEngine(ssd).controller

    def execute():
        t = ssd.clock.now_us
        for command in commands:
            controller.execute_io(command, t)

    def serve():
        t = ssd.clock.now_us
        for lpa in lpas:
            ssd.serve_read_at(lpa, t)

    def core():
        t = ssd.clock.now_us
        for lpa in lpas:
            device.read_page(mapping.lookup(lpa), t)

    per = {
        name: best_ns(rounds, run) / len(lpas) / 1000
        for name, run in (
            ("full", full), ("engine", engine), ("execute", execute),
            ("serve", serve), ("core", core),
        )
    }
    return {
        "full": per["full"],
        "engine": per["engine"],
        "controller": per["execute"] - per["serve"],
        "serve": per["serve"] - per["core"],
        "core": per["core"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for name, us in measure(args.rounds, args.seed).items():
        print("%-10s %6.2f us" % (name, us))


if __name__ == "__main__":
    main()
