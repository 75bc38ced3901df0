"""The call-graph rule's resolution cases, judged by the name check that
replaced it (``layering-private-cross-package``).

The deleted call graph chased re-exports, typed receivers through
``self.attr = Cls()``, followed overrides and ``super()`` up the class
family, and fanned an ambiguous method name out to every candidate —
all to decide whether a call lands on another package's private
function.  The name check needs none of it: a private name ``def``'d
only in other packages is enough (docs/ANALYSIS.md, "How a rule earns
its place").  Its basic fixtures are in ``test_layering.py``.
"""

from tests.analysis.conftest import rule_ids

RULE = "layering-private-cross-package"


def test_reexported_name_resolves_to_definition(lint_package):
    # The graph followed flash/__init__ back to the defining module; the
    # import itself already names a private from another package.
    violations = lint_package(
        {
            "repro.flash.device": """
                def _sense(ppa):
                    return ppa
            """,
            "repro.flash.__init__": """
                from repro.flash.device import _sense
            """,
            "repro.ftl.user": """
                from repro.flash import _sense


                def handle(ppa):
                    return _sense(ppa)
            """,
        },
        rules=[RULE],
    )
    assert rule_ids(violations) == [RULE]
    assert violations[0].path.endswith("user.py")
    assert "imports private _sense from repro.flash" in violations[0].message


def test_method_resolution_through_attribute_type(lint_package):
    # The graph typed ``self.bm`` from ``BlockManager()``; the name check
    # needs no type for the receiver.
    violations = lint_package(
        {
            "repro.ftl.block_manager": """
                class BlockManager:
                    def _claim(self, pba):
                        return pba
            """,
            "repro.timessd.recovery": """
                from repro.ftl.block_manager import BlockManager


                class Rebuilder:
                    def __init__(self):
                        self.bm = BlockManager()

                    def rebuild(self):
                        return self.bm._claim(3)
            """,
        },
        rules=[RULE],
    )
    assert [(v.rule_id, v.line) for v in violations] == [(RULE, 10)]
    assert "defined only in repro.ftl" in violations[0].message


def test_override_dispatch_targets_base_and_subclass(lint_package):
    # A hook the base defines and a subclass in another package
    # overrides: self-dispatch on either side is the class family's own
    # business; an outside caller is flagged once.
    violations = lint_package(
        {
            "repro.ftl.ssd": """
                class BaseSSD:
                    def _flush(self):
                        return 0

                    def sync(self):
                        return self._flush()
            """,
            "repro.timessd.ssd": """
                from repro.ftl.ssd import BaseSSD


                class TimeSSD(BaseSSD):
                    def _flush(self):
                        return 1

                    def sync_all(self):
                        return self._flush()
            """,
            "repro.nvme.controller": """
                def flush(ssd):
                    return ssd._flush()
            """,
        },
        rules=[RULE],
    )
    assert rule_ids(violations) == [RULE]
    assert violations[0].path.endswith("controller.py")
    assert "repro.ftl/timessd" in violations[0].message


def test_super_call_resolves_up_the_mro_only(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": """
                class BaseSSD:
                    def _on_invalidate(self, ppa):
                        return ppa

                    @classmethod
                    def _blank(cls):
                        return cls()
            """,
            "repro.timessd.ssd": """
                from repro.ftl.ssd import BaseSSD


                class TimeSSD(BaseSSD):
                    def _on_invalidate(self, ppa):
                        return super()._on_invalidate(ppa) + 1

                    @classmethod
                    def rebuild(cls):
                        return cls._blank()
            """,
        },
        rules=[RULE],
    )
    assert violations == []


def test_ambiguous_method_edges_to_all_candidates(lint_package):
    # Defined by unrelated classes in two packages: the graph fanned the
    # call out (and the old rule gave up); the name check flags it.
    violations = lint_package(
        {
            "repro.flash.a": """
                class Reader:
                    def _poke(self):
                        return 1
            """,
            "repro.ftl.b": """
                class Writer:
                    def _poke(self):
                        return 2
            """,
            "repro.obs.c": """
                def kick(thing):
                    return thing._poke()
            """,
        },
        rules=[RULE],
    )
    assert rule_ids(violations) == [RULE]
    assert "defined only in repro.flash/ftl" in violations[0].message


def test_builtin_method_names_do_not_count_as_ambiguous(lint_package):
    # Private-looking names the project never defines (namedtuple's
    # ``_replace``/``_asdict``, a stdlib internal) are not the project's.
    violations = lint_package(
        {
            "repro.common.holder": """
                from collections import namedtuple

                Pair = namedtuple("Pair", "a b")


                def gather(pair, out):
                    out.append(pair._replace(a=1)._asdict())
                    return out
            """,
        },
        rules=[RULE],
    )
    assert violations == []
