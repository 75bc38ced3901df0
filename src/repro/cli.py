"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``        — sixty-second tour of the time-travel property;
* ``experiment``  — regenerate one paper table/figure by id;
* ``list``        — list available experiment ids;
* ``info``        — system inventory and default configuration;
* ``lint``        — almanac-lint static checks (see docs/ANALYSIS.md);
* ``metrics``     — observability snapshots as schema-stable JSON
  (see docs/OBSERVABILITY.md);
* ``torture``     — crash-point sweep: cut power at every k-th flash op,
  rebuild, and audit (see docs/FAULTS.md).
"""

import argparse
import os
import sys

from repro.common.units import SECOND_US, format_duration


def _cmd_demo(args):
    from repro.flash import FlashGeometry
    from repro.timekits import TimeKits
    from repro.timessd import ContentMode, TimeSSD, TimeSSDConfig

    ssd = TimeSSD(
        TimeSSDConfig(
            geometry=FlashGeometry(channels=4, blocks_per_plane=16, pages_per_block=16),
            content_mode=ContentMode.REAL,
        )
    )
    kits = TimeKits(ssd)
    size = ssd.device.geometry.page_size
    for text in ("first draft", "second draft", "final"):
        ssd.write(0, text.encode().ljust(size, b"\0"))
        ssd.clock.advance(5 * SECOND_US)
    print("current:", ssd.read(0)[0].rstrip(b"\0").decode())
    print("history (device-level, no backups were taken):")
    for version in kits.addr_query_all(0).value[0]:
        print(
            "  t=%-10s %s"
            % (
                format_duration(version.timestamp_us),
                version.data.rstrip(b"\0").decode(),
            )
        )
    kits.rollback(0, t=0)
    print("after rollback to t=0:", ssd.read(0)[0].rstrip(b"\0").decode())
    return 0


EXPERIMENTS = {
    "fig6a": ("avg I/O response time @ 50% usage", "response"),
    "fig6b": ("avg I/O response time @ 80% usage", "response"),
    "fig7a": ("write amplification @ 50% usage", "wa"),
    "fig7b": ("write amplification @ 80% usage", "wa"),
    "fig9a": ("IOZone file-system comparison", "iozone"),
    "fig9b": ("PostMark + OLTP comparison", "oltp"),
    "table3": ("storage-state query latency", "table3"),
    "fig10": ("ransomware recovery time", "fig10"),
    "fig11": ("file reversal with 1/2/4 threads", "fig11"),
}


def _cmd_list(args):
    print("experiment ids (see EXPERIMENTS.md for expectations):")
    for key, (title, _kind) in EXPERIMENTS.items():
        print("  %-8s %s" % (key, title))
    print("  fig8*    retention duration (run via pytest benchmarks/)")
    return 0


def _cmd_experiment(args):
    from repro.bench.tables import format_table

    key = args.id
    if key not in EXPERIMENTS:
        print("unknown experiment %r; try: python -m repro list" % key)
        return 2
    title, kind = EXPERIMENTS[key]
    days = args.days
    print("running %s (%s)..." % (key, title))
    if kind == "response":
        from repro.bench.trace_experiments import response_time_rows

        usage = 0.5 if key.endswith("a") else 0.8
        rows = response_time_rows(usage=usage, days=days)
        print(format_table(("volume", "regular (ms)", "TimeSSD (ms)", "overhead (%)"), rows))
    elif kind == "wa":
        from repro.bench.trace_experiments import write_amplification_rows

        usage = 0.5 if key.endswith("a") else 0.8
        rows = write_amplification_rows(usage=usage, days=days)
        print(format_table(("volume", "regular WA", "TimeSSD WA", "increase (%)"), rows))
    elif kind == "iozone":
        from repro.bench.fs_experiments import normalized, run_iozone

        results = run_iozone()
        rows = []
        for phase in ("SeqRead", "SeqWrite", "RandomRead", "RandomWrite"):
            norm = normalized({s: results[s][phase] for s in results})
            rows.append((phase, norm["Ext4"], norm["F2FS"], norm["TimeSSD"]))
        print(format_table(("phase", "Ext4", "F2FS", "TimeSSD"), rows))
    elif kind == "oltp":
        from repro.bench.fs_experiments import normalized, run_oltp, run_postmark

        postmark = normalized(run_postmark())
        rows = [("PostMark", postmark["Ext4"], postmark["F2FS"], postmark["TimeSSD"])]
        oltp = run_oltp()
        for bench in ("TPCC", "TPCB", "TATP"):
            norm = normalized({s: oltp[s][bench] for s in oltp})
            rows.append((bench, norm["Ext4"], norm["F2FS"], norm["TimeSSD"]))
        print(format_table(("workload", "Ext4", "F2FS", "TimeSSD"), rows))
    elif kind == "table3":
        from repro.bench.query_experiments import run_table3

        rows = [
            (r.volume, r.time_query_s, r.addr_query_all_ms, r.rollback_ms)
            for r in run_table3()
        ]
        print(
            format_table(
                ("volume", "TimeQuery (s)", "AddrQueryAll (ms)", "RollBack (ms)"), rows
            )
        )
    elif kind == "fig10":
        from repro.bench.security_experiments import run_fig10

        rows = [
            (r.family, r.flashguard_recovery_s, r.timessd_recovery_s)
            for r in run_fig10()
        ]
        print(format_table(("family", "FlashGuard (s)", "TimeSSD (s)"), rows))
    elif kind == "fig11":
        from repro.bench.revert_experiments import run_fig11

        rows = [
            (r.name, r.per_thread_ms[1], r.per_thread_ms[2], r.per_thread_ms[4])
            for r in run_fig11(commits=args.commits)
        ]
        print(format_table(("file", "1 thr (ms)", "2 thr (ms)", "4 thr (ms)"), rows))
    return 0


def _cmd_info(args):
    from repro.bench.config import bench_geometry
    from repro.timessd import BloomFilter, TimeSSDConfig

    geometry = bench_geometry()
    config = TimeSSDConfig()
    print("Project Almanac reproduction (EuroSys '19)")
    print("bench device: %d channels x %d blocks x %d pages x %d B" % (
        geometry.channels,
        geometry.total_blocks // geometry.channels,
        geometry.pages_per_block,
        geometry.page_size,
    ))
    print("retention floor: %s" % format_duration(config.retention_floor_us))
    print("bloom: capacity %d, fp %.2f%%, group size %d" % (
        config.bloom_capacity,
        BloomFilter(config.bloom_capacity).fp_rate * 100,
        config.bloom_group_size,
    ))
    print("Equation-1: TH=%.2f over %d-write periods" % (
        config.gc_overhead_threshold,
        config.gc_overhead_period_writes,
    ))
    return 0


def _cmd_selftest(args):
    import random

    from repro.flash import FlashGeometry
    from repro.timessd import TimeSSD, TimeSSDConfig
    from repro.timessd.verify import DeviceAuditor

    ssd = TimeSSD(
        TimeSSDConfig(
            geometry=FlashGeometry(channels=8, blocks_per_plane=32, pages_per_block=32),
            retention_floor_us=2 * SECOND_US,
        )
    )
    rng = random.Random(0xA1)
    working = ssd.logical_pages // 2
    print("stressing: %d writes/trims over %d pages..." % (working * 5, working))
    for lpa in range(working):
        ssd.write(lpa)
        ssd.clock.advance(300)
    for _ in range(working * 4):
        lpa = rng.randrange(working)
        if rng.random() < 0.9:
            ssd.write(lpa)
        else:
            ssd.trim(lpa)
        ssd.clock.advance(rng.choice([300, 900, 25_000]))
    print(
        "GC runs: %d foreground, %d background; retention window %s"
        % (ssd.gc_runs, ssd.background_gc_runs, format_duration(ssd.retention_window_us()))
    )
    report = DeviceAuditor(ssd).audit()
    print("audit: %d checks," % report.checks_run, end=" ")
    if report.clean:
        print("all invariants hold")
        return 0
    print("%d VIOLATIONS:" % len(report.violations))
    for violation in report.violations:
        print("  -", violation)
    return 1


def _cmd_torture(args):
    from repro.faults.torture import TortureConfig, run_torture, scrub_preset

    overrides = dict(
        crash_every=args.crash_every,
        torn=not args.no_torn,
        seed=args.seed,
        checkpoint_interval_blocks=args.checkpoint_every,
    )
    if args.ops is not None:
        overrides["ops"] = args.ops
    if args.scrub:
        config = scrub_preset(**overrides)
    else:
        config = TortureConfig(**overrides)
    print(
        "torture: replaying %d host ops, power cut at every %s flash op..."
        % (config.ops, "%dth" % config.crash_every)
    )
    report = run_torture(config)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_lint(args):
    from repro.analysis.runner import main as lint_main

    argv = list(args.paths)
    argv += ["--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.ignore:
        argv += ["--ignore", args.ignore]
    if args.list_rules:
        argv += ["--list-rules"]
    if args.stats:
        argv += ["--stats"]
    return lint_main(argv)


def _cmd_metrics(args):
    from repro.bench import emit

    if args.bench:
        path = args.out or emit.BENCH_SNAPSHOT
        if args.check:
            if not os.path.isfile(path):
                print("bench check: no committed snapshot at %s" % path)
                return 2
            problems = emit.check_bench_snapshot(path=path)
            for problem in problems:
                print("bench check: %s" % problem)
            if not problems:
                print("bench check: %s is current" % path)
            return 1 if problems else 0
        # The committed snapshot is always the canonical workload
        # (write_bench_json's defaults); --writes/--seed only shape the
        # demo, else a stray flag would make the snapshot drift.
        emit.write_bench_json(path=path)
        print("wrote %s" % path)
        return 0
    result = emit.demo_snapshot(
        kind=args.device,
        seed=args.seed,
        writes=args.writes,
        tracing=args.trace,
    )
    rendered = emit.to_canonical_json(result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
        print("wrote %s" % args.out)
    else:
        print(rendered, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="Project Almanac (TimeSSD) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="sixty-second time-travel demo").set_defaults(
        fn=_cmd_demo
    )
    sub.add_parser("list", help="list experiment ids").set_defaults(fn=_cmd_list)
    sub.add_parser("info", help="inventory and defaults").set_defaults(fn=_cmd_info)
    sub.add_parser(
        "selftest", help="stress a device and audit every invariant"
    ).set_defaults(fn=_cmd_selftest)

    lint = sub.add_parser(
        "lint", help="almanac-lint: determinism/layering/hygiene/obs checks"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files or directories"
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    lint.add_argument(
        "--select",
        "--rules",
        dest="select",
        help="comma-separated rule ids or pack names to run",
    )
    lint.add_argument(
        "--ignore",
        help="comma-separated rule ids or pack names to drop",
    )
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding counts",
    )
    lint.set_defaults(fn=_cmd_lint)

    torture = sub.add_parser(
        "torture", help="crash-point sweep: cut, rebuild, audit"
    )
    torture.add_argument(
        "--ops",
        type=int,
        default=None,
        help="host ops to replay (default 400; 160 with --scrub)",
    )
    torture.add_argument(
        "--scrub",
        action="store_true",
        help="enable media aging + patrol scrub: crash points also land "
        "inside patrol reads and refresh migrations",
    )
    torture.add_argument(
        "--crash-every",
        type=int,
        default=1,
        metavar="K",
        help="cut at every K-th flash op (default 1 = exhaustive)",
    )
    torture.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="BLOCKS",
        help="write recovery checkpoints every BLOCKS blocks of programs: "
        "crash points then also land mid-checkpoint (default off)",
    )
    torture.add_argument("--seed", type=lambda s: int(s, 0), default=0x70B7)
    torture.add_argument(
        "--no-torn",
        action="store_true",
        help="cut cleanly before the op instead of tearing programs",
    )
    torture.set_defaults(fn=_cmd_torture)

    metrics = sub.add_parser(
        "metrics", help="observability snapshot as schema-stable JSON"
    )
    metrics.add_argument(
        "--demo",
        action="store_true",
        help="run the built-in demo churn workload (the default action)",
    )
    metrics.add_argument(
        "--bench",
        action="store_true",
        help="run the bench smoke workload on both devices and rewrite "
        "--out (default: the committed benchmarks/results/bench_smoke.json)",
    )
    metrics.add_argument(
        "--check",
        action="store_true",
        help="with --bench: compare the committed snapshot with a fresh "
        "run instead of rewriting it",
    )
    metrics.add_argument(
        "--device", choices=("regular", "timessd"), default="timessd"
    )
    metrics.add_argument("--writes", type=int, default=600)
    metrics.add_argument("--seed", type=lambda s: int(s, 0), default=7)
    metrics.add_argument(
        "--trace",
        action="store_true",
        help="enable event tracing and include the drained ring in the output",
    )
    metrics.add_argument("--out", help="write JSON to a file instead of stdout")
    metrics.set_defaults(fn=_cmd_metrics)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("id", help="experiment id (see `repro list`)")
    exp.add_argument("--days", type=int, default=7, help="trace length (default 7)")
    exp.add_argument(
        "--commits", type=int, default=300, help="fig11 commit count (default 300)"
    )
    exp.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "metrics" and args.check and not args.bench:
        parser.error("metrics --check only checks the bench snapshot; pass --bench")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
