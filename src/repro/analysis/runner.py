"""``python -m repro.analysis`` — run almanac-lint over source trees.

Exit status: 0 clean, 1 violations found, 2 usage error.  The same
entry point backs the ``repro lint`` CLI subcommand.

The default selection is every *shallow* rule; ``--deep`` adds the
whole-program rules (call graph, atomic sections, metric catalog).
``--select``/``--ignore`` filter by rule id or pack name.
"""

import argparse
import sys

from repro.analysis.core import (
    Project,
    SourceModule,
    all_rules,
    analyze_paths,
    collect_files,
    default_rules,
    rules_by_id,
)
from repro.analysis.reporting import format_json, format_sarif, format_text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "almanac-lint/deepcheck: determinism, layering, hygiene and "
            "whole-program effect/domain checks for the simulator "
            "(see docs/ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        "--rules",
        dest="select",
        help="comma-separated rule ids or pack names to run "
        "(default: every shallow rule; every rule with --deep)",
    )
    parser.add_argument(
        "--ignore",
        help="comma-separated rule ids or pack names to drop from the "
        "selection",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="include the whole-program rules (call graph, atomic "
        "sections, metric catalog)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--show-unresolved",
        action="store_true",
        help="print the call-graph unresolved-call report to stderr "
        "(implies building the call graph)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding counts to stderr after the run",
    )
    return parser


def _split_ids(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _select_rules(args):
    if args.select:
        rules = rules_by_id(_split_ids(args.select))
    elif args.deep:
        rules = all_rules()
    else:
        rules = default_rules()
    if args.ignore:
        dropped = set(_split_ids(args.ignore))
        rules = [
            rule
            for rule in rules
            if rule.rule_id not in dropped and rule.pack not in dropped
        ]
    return rules


def _print_unresolved(paths):
    from repro.analysis.callgraph import build_call_graph

    modules = [SourceModule.from_path(p) for p in collect_files(paths)]
    graph = build_call_graph(Project(modules))
    print(
        "unresolved calls: %d" % len(graph.unresolved), file=sys.stderr
    )
    for entry in sorted(
        graph.unresolved, key=lambda u: (u.path, u.line, u.col)
    ):
        print("  %s" % entry, file=sys.stderr)


def _print_stats(violations, rules):
    counts = {}
    for violation in violations:
        counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
    print("findings by rule:", file=sys.stderr)
    if not counts:
        print("  (none)", file=sys.stderr)
    for rule_id in sorted(counts):
        print("  %-36s %d" % (rule_id, counts[rule_id]), file=sys.stderr)
    print("rules run: %d" % len(rules), file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            marker = " [deep]" if rule.deep else ""
            print(
                "%-28s %-12s %s%s"
                % (rule.rule_id, rule.pack, rule.description, marker)
            )
        return 0
    try:
        rules = _select_rules(args)
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    try:
        violations = analyze_paths(args.paths, rules)
        if args.show_unresolved:
            _print_unresolved(args.paths)
    except (FileNotFoundError, IsADirectoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.stats:
        _print_stats(violations, rules)
    if args.format == "json":
        print(format_json(violations))
    elif args.format == "sarif":
        print(format_sarif(violations, rules))
    else:
        print(format_text(violations))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
