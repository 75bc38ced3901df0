"""Hygiene pack: mutable defaults, bare except, print, unit mixing."""

from tests.analysis.conftest import rule_ids

RULES = ["hygiene"]


def test_mutable_default_list_and_set_flagged(lint):
    source = (
        "def f(items=[]):\n"
        "    return items\n"
        "def g(seen=set(), *, index={}):\n"
        "    return seen, index\n"
    )
    violations = lint(source, rules=RULES)
    assert rule_ids(violations) == ["hygiene-mutable-default"] * 3


def test_safe_defaults_clean(lint):
    source = (
        "def f(items=None, n=3, name='x', mode=()):\n"
        "    return items or []\n"
        "def g(factory=list):\n"
        "    return factory()\n"
    )
    assert lint(source, rules=RULES) == []


def test_bare_except_flagged_typed_clean(lint):
    source = (
        "try:\n"
        "    x = 1\n"
        "except:\n"
        "    pass\n"
        "try:\n"
        "    y = 2\n"
        "except ValueError:\n"
        "    pass\n"
    )
    violations = lint(source, rules=RULES)
    assert rule_ids(violations) == ["hygiene-bare-except"]
    assert violations[0].line == 3


def test_print_in_library_module_flagged(lint_package):
    violations = lint_package(
        {"repro.timessd.chatty": "def f():\n    print('debug')\n"},
        rules=RULES,
    )
    assert rule_ids(violations) == ["hygiene-print"]


def test_print_in_cli_exempt(lint_package):
    violations = lint_package(
        {"repro.cli": "def main():\n    print('table')\n"}, rules=RULES
    )
    assert violations == []


def test_unit_mix_in_addition_flagged(lint):
    violations = lint("total = delay_us + timeout_ms\n", rules=RULES)
    assert rule_ids(violations) == ["hygiene-unit-mix"]
    assert "delay_us" in violations[0].message
    assert "timeout_ms" in violations[0].message


def test_unit_mix_bytes_vs_time_and_comparison_flagged(lint):
    source = (
        "if size_bytes > window_us:\n"
        "    x = quota_mib - used_bytes\n"
    )
    assert rule_ids(lint(source, rules=RULES)) == [
        "hygiene-unit-mix",
        "hygiene-unit-mix",
    ]


def test_same_unit_and_conversion_arithmetic_clean(lint):
    source = (
        "total_us = start_us + delta_us\n"
        "converted = delay_ms * MS_US\n"  # multiplying converts: allowed
        "mixed_names = status + bonus\n"  # no unit suffixes at all
        "attr = self.start_us - other.end_us\n"
    )
    assert lint(source, rules=RULES) == []


def test_unit_mix_in_augmented_assignment_flagged(lint):
    source = (
        "total_us += delay_ms\n"
        "budget_bytes -= page_kib\n"
        "total_us += delay_us\n"  # same unit: fine
        "scale_us *= factor_ms\n"  # multiplying converts: allowed
    )
    violations = lint(source, rules=RULES)
    assert [(v.rule_id, v.line) for v in violations] == [
        ("hygiene-unit-mix", 1),
        ("hygiene-unit-mix", 2),
    ]
    assert "total_us (us) combined with delay_ms (ms)" in violations[0].message
