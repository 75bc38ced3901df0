"""``python -m repro.analysis`` — run almanac-lint over source trees.

Exit status: 0 clean, 1 violations found, 2 usage error.  The same
entry point backs the ``repro lint`` CLI subcommand.

The default selection is every rule; ``--select``/``--ignore`` filter
by rule id or pack name.
"""

import argparse
import sys

from repro.analysis.core import all_rules, analyze_paths, rules_by_id
from repro.analysis.reporting import format_sarif, format_text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "almanac-lint: determinism, layering, hygiene and metric-catalog "
            "checks for the simulator (see docs/ANALYSIS.md)"
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
        choices=("text", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule ids or pack names to run "
        "(default: every rule)",
    )
    parser.add_argument(
        "--ignore",
        help="comma-separated rule ids or pack names to drop from the "
        "selection",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule and exit",
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
    else:
        rules = all_rules()
    if args.ignore:
        dropped = set(_split_ids(args.ignore))
        rules = [
            rule
            for rule in rules
            if rule.rule_id not in dropped and rule.pack not in dropped
        ]
    return rules


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
            print(
                "%-30s %-12s %s" % (rule.rule_id, rule.pack, rule.description)
            )
        return 0
    try:
        rules = _select_rules(args)
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    try:
        violations = analyze_paths(args.paths, rules)
    except (FileNotFoundError, IsADirectoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.stats:
        _print_stats(violations, rules)
    if args.format == "sarif":
        print(format_sarif(violations, rules))
    else:
        print(format_text(violations))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
