"""Framework mechanics: registry, suppressions, parse errors, ordering."""

import pytest

from repro.analysis.core import (
    PARSE_ERROR_RULE,
    SourceModule,
    all_rules,
    rules_by_id,
)

from tests.analysis.conftest import rule_ids

VIOLATING = "import time\nt0 = time.time()\n"


def test_registry_has_all_packs():
    packs = {rule.pack for rule in all_rules()}
    assert packs == {"determinism", "layering", "hygiene", "obs"}
    ids = [rule.rule_id for rule in all_rules()]
    assert len(ids) == len(set(ids))
    for rule in all_rules():
        assert rule.description


def test_rules_by_id_accepts_ids_and_packs():
    chosen = rules_by_id(["determinism-wallclock"])
    assert [r.rule_id for r in chosen] == ["determinism-wallclock"]
    pack = rules_by_id(["hygiene"])
    assert len(pack) >= 3
    assert all(r.pack == "hygiene" for r in pack)


def test_rules_by_id_rejects_unknown():
    with pytest.raises(KeyError, match="unknown rule or pack"):
        rules_by_id(["no-such-rule"])


def test_violation_format_has_rule_id_and_location(lint):
    violations = lint(VIOLATING, rules=["determinism"])
    assert len(violations) == 1
    rendered = str(violations[0])
    assert "snippet.py:2:6: [determinism-wallclock]" in rendered


def test_suppression_with_matching_id(lint):
    source = (
        "import time\n"
        "t0 = time.time()  # almanac: ignore[determinism-wallclock]\n"
    )
    assert lint(source, rules=["determinism"]) == []


def test_suppression_star_silences_all_rules(lint):
    source = "import time\nt0 = time.time()  # almanac: ignore\n"
    assert lint(source, rules=["determinism"]) == []


def test_suppression_wrong_id_does_not_silence(lint):
    source = (
        "import time\n"
        "t0 = time.time()  # almanac: ignore[hygiene-print]\n"
    )
    assert rule_ids(lint(source, rules=["determinism"])) == [
        "determinism-wallclock"
    ]


def test_suppression_comma_list(lint):
    source = (
        "import time, random\n"
        "x = time.time() + random.random()"
        "  # almanac: ignore[determinism-wallclock, determinism-global-random]\n"
    )
    assert lint(source, rules=["determinism"]) == []


def test_suppression_only_applies_to_its_line(lint):
    source = (
        "import time\n"
        "a = time.time()  # almanac: ignore[determinism-wallclock]\n"
        "b = time.time()\n"
    )
    violations = lint(source, rules=["determinism"])
    assert [(v.rule_id, v.line) for v in violations] == [
        ("determinism-wallclock", 3)
    ]


def test_parse_error_is_reported_not_raised(lint):
    violations = lint("def broken(:\n    pass\n")
    assert rule_ids(violations) == [PARSE_ERROR_RULE]
    assert violations[0].line == 1


def test_violations_sorted_by_location(lint):
    source = (
        "import time\n"
        "def f(x=[]):\n"
        "    return time.time()\n"
    )
    violations = lint(source)
    assert [v.line for v in violations] == sorted(v.line for v in violations)


def test_module_name_resolution(tmp_path):
    pkg = tmp_path / "repro" / "flash"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "page.py").write_text("x = 1\n")
    assert SourceModule.from_path(str(pkg / "page.py")).module == "repro.flash.page"
    assert SourceModule.from_path(str(pkg / "__init__.py")).module == "repro.flash"
    loose = tmp_path / "loose.py"
    loose.write_text("x = 1\n")
    assert SourceModule.from_path(str(loose)).module is None
