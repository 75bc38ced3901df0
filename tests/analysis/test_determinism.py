"""Determinism pack: wall clocks and global randomness are caught."""

from tests.analysis.conftest import rule_ids

RULES = ["determinism"]


def test_time_time_flagged(lint):
    violations = lint("import time\nt0 = time.time()\n", rules=RULES)
    assert rule_ids(violations) == ["determinism-wallclock"]
    assert "SimClock" in violations[0].message


def test_time_sleep_and_monotonic_flagged(lint):
    source = (
        "import time\n"
        "time.sleep(1)\n"
        "t = time.monotonic()\n"
    )
    assert rule_ids(lint(source, rules=RULES)) == [
        "determinism-wallclock",
        "determinism-wallclock",
    ]


def test_time_alias_flagged(lint):
    source = "import time as wall\nt0 = wall.perf_counter()\n"
    assert rule_ids(lint(source, rules=RULES)) == ["determinism-wallclock"]


def test_datetime_now_flagged_both_import_styles(lint):
    direct = "import datetime\nd = datetime.datetime.now()\n"
    assert rule_ids(lint(direct, rules=RULES)) == ["determinism-wallclock"]
    from_style = "from datetime import datetime\nd = datetime.utcnow()\n"
    assert rule_ids(lint(from_style, rules=RULES)) == ["determinism-wallclock"]


def test_simclock_usage_is_clean(lint):
    source = (
        "from repro.common.clock import SimClock\n"
        "clock = SimClock()\n"
        "clock.advance(10)\n"
        "now = clock.now_us\n"
    )
    assert lint(source, rules=RULES) == []


def test_unrelated_time_attribute_is_clean(lint):
    # A local object that happens to be called `time` is not the module.
    source = "time = get_profiler()\nx = time.time()\n"
    assert lint(source, rules=RULES) == []


def test_global_random_call_flagged(lint):
    source = "import random\nx = random.randrange(10)\n"
    violations = lint(source, rules=RULES)
    assert rule_ids(violations) == ["determinism-global-random"]
    assert "random.Random(seed)" in violations[0].message


def test_from_random_import_flagged_at_import(lint):
    source = "from random import randrange\nx = randrange(10)\n"
    violations = lint(source, rules=RULES)
    assert rule_ids(violations) == ["determinism-global-random"]
    assert violations[0].line == 1


def test_unseeded_random_ctor_flagged(lint):
    assert rule_ids(
        lint("import random\nrng = random.Random()\n", rules=RULES)
    ) == ["determinism-unseeded-rng"]
    # `from random import Random` unseeded is caught too (the import of
    # Random itself is fine).
    assert rule_ids(
        lint("from random import Random\nrng = Random()\n", rules=RULES)
    ) == ["determinism-unseeded-rng"]
    # SystemRandom reads OS entropy and ignores any seed it is given;
    # its from-import binds a class, not the global RNG, so only the
    # construction is flagged.
    source = (
        "import random\n"
        "from random import SystemRandom\n"
        "a = random.SystemRandom()\n"
        "b = random.SystemRandom(42)\n"
        "c = SystemRandom()\n"
    )
    violations = lint(source, rules=RULES)
    assert [(v.rule_id, v.line) for v in violations] == [
        ("determinism-unseeded-rng", 3),
        ("determinism-unseeded-rng", 4),
        ("determinism-unseeded-rng", 5),
    ]
    assert "ignores any seed" in violations[0].message


def test_seeded_random_is_clean(lint):
    source = (
        "import random\n"
        "rng = random.Random(42)\n"
        "kw = random.Random(x=1)\n"
        "x = rng.randrange(10)\n"
        "y = rng.gauss(0.2, 0.05)\n"
    )
    assert lint(source, rules=RULES) == []
