"""Address-domain dataflow: seeded cross-domain violations."""

from tests.analysis.conftest import rule_ids


def test_cross_assign_lba_from_ppa(lint_package):
    violations = lint_package(
        {
            "repro.ftl.mapping": """
                def remap(lpa, ppa):
                    lpa = ppa
                    return lpa
            """,
        },
        rules=["domains-cross-assign"],
    )
    assert rule_ids(violations) == ["domains-cross-assign"]
    assert violations[0].line == 3


def test_same_domain_assign_is_clean(lint_package):
    violations = lint_package(
        {
            "repro.ftl.mapping": """
                def remap(ppa, new_ppa):
                    ppa = new_ppa
                    return ppa
            """,
        },
        rules=["domains-cross-assign"],
    )
    assert violations == []


def test_cross_compare_time_vs_ppa(lint_package):
    violations = lint_package(
        {
            "repro.timessd.walk": """
                def expired(ppa, deadline):
                    return ppa > deadline
            """,
        },
        rules=["domains-cross-compare"],
    )
    assert rule_ids(violations) == ["domains-cross-compare"]


def test_count_offsets_do_not_mix(lint_package):
    violations = lint_package(
        {
            "repro.flash.span": """
                def advance(lpa, npages):
                    return lpa + npages
            """,
        },
        rules=["domains-cross-compare"],
    )
    assert violations == []


def test_cross_arg_against_name_seeded_param(lint_package):
    violations = lint_package(
        {
            "repro.ftl.gc": """
                def _mark(ppa):
                    return ppa


                def sweep(lpa):
                    return _mark(lpa)
            """,
        },
        rules=["domains-cross-arg"],
    )
    assert rule_ids(violations) == ["domains-cross-arg"]


def test_cross_arg_against_newtype_annotation(lint_package):
    violations = lint_package(
        {
            "repro.flash.geom": """
                from repro.common.units import Ppa


                def check(ppa: Ppa):
                    return ppa


                def probe(t_us):
                    return check(t_us)
            """,
        },
        rules=["domains-cross-arg"],
    )
    assert rule_ids(violations) == ["domains-cross-arg"]


def test_annotation_seeds_local_flow(lint_package):
    violations = lint_package(
        {
            "repro.flash.geom": """
                from repro.common.units import TimeUs


                def shift(lpa, stamp: TimeUs):
                    lpa = stamp
                    return lpa
            """,
        },
        rules=["domains-cross-assign"],
    )
    assert rule_ids(violations) == ["domains-cross-assign"]


def test_branch_merge_forgets_disagreeing_domains(lint_package):
    violations = lint_package(
        {
            "repro.ftl.pick": """
                def pick(flag, ppa, deadline):
                    if flag:
                        x = ppa
                    else:
                        x = deadline
                    y = x
                    return y
            """,
        },
        rules=["domains-cross-assign"],
    )
    assert violations == []


# --- Loop joins (one walker, one join: repro.analysis.flow) -------------------

COMPARE = ["domains-cross-compare"]


def test_if_join_of_disagreeing_assignments_is_unknown(lint_package):
    violations = lint_package(
        {
            "repro.ftl.pick": """
                def chase(lpa, ppa, flag):
                    cur = lpa
                    if flag:
                        cur = ppa
                    return cur == lpa
            """,
        },
        rules=COMPARE,
    )
    assert violations == []


def test_for_loop_join_of_disagreeing_assignments_is_unknown(lint_package):
    # The body may run zero times, so after the loop ``cur`` is LBA on
    # one path and PPA on the other: unknown, exactly like the ``if``.
    violations = lint_package(
        {
            "repro.ftl.pick": """
                def chase(lpa, ppa, hops):
                    cur = lpa
                    for _hop in hops:
                        cur = ppa
                    return cur == lpa
            """,
        },
        rules=COMPARE,
    )
    assert violations == []


def test_while_loop_join_of_disagreeing_assignments_is_unknown(lint_package):
    violations = lint_package(
        {
            "repro.ftl.pick": """
                def chase(lpa, ppa, more):
                    cur = lpa
                    while more():
                        cur = ppa
                    return cur == lpa
            """,
        },
        rules=COMPARE,
    )
    assert violations == []


def test_mix_inside_a_loop_body_is_reported_exactly_once(lint_package):
    # Loop bodies are walked twice (loop-carried state); the finding is
    # still one finding.
    violations = lint_package(
        {
            "repro.ftl.pick": """
                def chase(lpa, ppa, hops):
                    hits = 0
                    for _hop in hops:
                        if ppa == lpa:
                            hits += 1
                    return hits
            """,
        },
        rules=COMPARE,
    )
    assert rule_ids(violations) == COMPARE
    assert violations[0].line == 5


def test_loop_carried_domain_reaches_the_next_iteration(lint_package):
    # ``prev`` is bound only at the bottom of the body, so the mix in
    # the test above it is visible only to the second pass.
    violations = lint_package(
        {
            "repro.ftl.pick": """
                def chase(lpa, ppa, hops):
                    seen = False
                    for _hop in hops:
                        if seen and prev == lpa:
                            return True
                        prev = ppa
                        seen = True
                    return False
            """,
        },
        rules=COMPARE,
    )
    assert rule_ids(violations) == COMPARE
    assert violations[0].line == 5
