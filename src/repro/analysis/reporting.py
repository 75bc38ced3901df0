"""Violation reporters: human text and SARIF 2.1.0."""

import json
import os


def format_text(violations):
    """One ``path:line:col: [rule-id] message`` line each, plus a summary."""
    lines = [str(v) for v in violations]
    if violations:
        by_rule = {}
        for violation in violations:
            by_rule[violation.rule_id] = by_rule.get(violation.rule_id, 0) + 1
        breakdown = ", ".join(
            "%s x%d" % (rule_id, count)
            for rule_id, count in sorted(by_rule.items())
        )
        lines.append("")
        lines.append(
            "%d violation%s (%s)"
            % (len(violations), "" if len(violations) == 1 else "s", breakdown)
        )
    else:
        lines.append("almanac-lint: clean")
    return "\n".join(lines)


def _sarif_uri(path):
    """Repo-relative, forward-slash URI for a violation path."""
    relative = os.path.relpath(path)
    if relative.startswith(".."):
        relative = path  # outside the tree: keep it verbatim
    return relative.replace(os.sep, "/")


def format_sarif(violations, rules=()):
    """SARIF 2.1.0 (what GitHub code scanning ingests for inline PR
    annotations).  ``rules`` populates the tool's rule metadata so the
    annotation UI can show each rule's description."""
    rule_metadata = [
        {
            "id": rule.rule_id,
            "shortDescription": {"text": rule.description or rule.rule_id},
            "properties": {"pack": rule.pack},
        }
        for rule in rules
    ]
    results = [
        {
            "ruleId": v.rule_id,
            "level": "error",
            "message": {"text": v.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _sarif_uri(v.path),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": v.line,
                            "startColumn": v.col,
                        },
                    }
                }
            ],
        }
        for v in violations
    ]
    document = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "almanac-lint",
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": rule_metadata,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
