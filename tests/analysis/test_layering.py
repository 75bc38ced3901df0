"""Layering pack: import order (which also keeps ``repro.obs`` below
every layer it observes), the FTL flash monopoly, cycles, and private
names across packages."""

from tests.analysis.conftest import rule_ids

RULES = ["layering"]


def test_upward_import_flagged(lint_package):
    violations = lint_package(
        {"repro.flash.rogue": "from repro.ftl.ssd import RegularSSD\n"},
        rules=RULES,
    )
    assert rule_ids(violations) == ["layering-order"]
    assert "upward import" in violations[0].message
    assert violations[0].line == 1


def test_downward_and_same_layer_imports_clean(lint_package):
    violations = lint_package(
        {
            "repro.timessd.ok": (
                "import repro.flash.device\n"
                "from repro.common.units import SECOND_US\n"
                "from repro.ftl.mapping import x\n"  # same layer: allowed
            ),
            "repro.bench.ok": "from repro.workloads.msr import msr_trace\n",
        },
        rules=RULES,
    )
    assert violations == []


def test_relative_import_resolved_for_layering(lint_package):
    violations = lint_package(
        {
            "repro.flash.inner": "x = 1\n",
            "repro.flash.rogue": "from ..ftl import ssd\n",
        },
        rules=RULES,
    )
    assert rule_ids(violations) == ["layering-order"]


def test_unmapped_package_flagged(lint_package):
    violations = lint_package(
        {"repro.newthing.core": "x = 1\n"}, rules=RULES
    )
    # Both the module and the package __init__ sit in the unmapped package.
    assert set(rule_ids(violations)) == {"layering-order"}
    assert all("no layer assignment" in v.message for v in violations)


def test_flash_api_call_outside_ftl_flagged(lint_package):
    violations = lint_package(
        {
            "repro.workloads.rogue": (
                "def hammer(device, ppa, data, oob):\n"
                "    device.program_page(ppa, data, oob, 0)\n"
                "    device.erase_block(3)\n"
            )
        },
        rules=RULES,
    )
    assert rule_ids(violations) == ["layering-flash-api", "layering-flash-api"]
    assert "FTL-only" in violations[0].message


def test_flash_api_call_inside_ftl_clean(lint_package):
    violations = lint_package(
        {
            "repro.ftl.gc": (
                "def migrate(device, ppa, data, oob):\n"
                "    device.program_page(ppa, data, oob, 0)\n"
            ),
            "repro.timessd.gc2": (
                "def migrate(device, pba):\n"
                "    device.erase_block(pba)\n"
            ),
        },
        rules=RULES,
    )
    assert violations == []


def test_package_cycle_flagged(lint_package):
    violations = lint_package(
        {
            "repro.workloads.a": "from repro.security.b import x\n",
            "repro.security.b": "from repro.workloads.a import y\n",
        },
        rules=RULES,
    )
    assert rule_ids(violations) == ["layering-cycle", "layering-cycle"]
    assert "cycle" in violations[0].message


def test_acyclic_same_layer_imports_not_cyclic(lint_package):
    violations = lint_package(
        {
            "repro.security.uses": "from repro.workloads.gen import x\n",
            "repro.workloads.gen": "x = 1\n",
        },
        rules=RULES,
    )
    assert violations == []


def test_obs_importing_flash_flagged(lint_package):
    violations = lint_package(
        {"repro.obs.rogue": "from repro.flash.device import FlashDevice\n"},
        rules=["layering-order"],
    )
    assert rule_ids(violations) == ["layering-order"]
    assert "obs" in violations[0].message


def test_obs_importing_ftl_and_timessd_flagged(lint_package):
    violations = lint_package(
        {
            "repro.obs.rogue": (
                "from repro.ftl.ssd import RegularSSD\n"
                "import repro.timessd.ssd\n"
            )
        },
        rules=["layering-order"],
    )
    assert rule_ids(violations) == [
        "layering-order",
        "layering-order",
    ]


def test_obs_importing_common_and_obs_clean(lint_package):
    violations = lint_package(
        {
            "repro.obs.fine": (
                "from repro.common.errors import ReproError\n"
                "from repro.obs.metrics import MetricsRegistry\n"
            )
        },
        rules=["layering-order"],
    )
    assert violations == []


PRIVATE = "layering-private-cross-package"

FTL_GC = """
    def _collect(now_us):
        return now_us


    class BaseSSD:
        def _collect_garbage(self, now_us):
            return _collect(now_us)
"""


def test_private_import_across_packages_flagged(lint_package):
    violations = lint_package(
        {
            "repro.ftl.gc": FTL_GC,
            "repro.nvme.ctl": "from repro.ftl.gc import _collect, BaseSSD\n",
            "repro.nvme.rel": "from ..ftl.gc import _collect\n",
        },
        rules=[PRIVATE],
    )
    assert [(v.rule_id, v.path.rsplit("/", 1)[-1]) for v in violations] == [
        (PRIVATE, "ctl.py"),
        (PRIVATE, "rel.py"),
    ]
    assert "imports private _collect from repro.ftl" in violations[0].message


def test_private_call_on_another_packages_object_flagged(lint_package):
    # A module-level private reached through its module, and a method
    # through an untyped receiver.
    violations = lint_package(
        {
            "repro.ftl.gc": FTL_GC,
            "repro.nvme.controller": (
                "import repro.ftl.gc as gc\n\n\n"
                "def flush(ssd, t):\n"
                "    gc._collect(t)\n"
                "    ssd._collect_garbage(t)\n"
            ),
        },
        rules=[PRIVATE],
    )
    assert [(v.rule_id, v.line) for v in violations] == [
        (PRIVATE, 5),
        (PRIVATE, 6),
    ]
    assert "calls private _collect, defined only in repro.ftl" in (
        violations[0].message
    )


def test_private_call_through_self_cls_or_super_clean(lint_package):
    violations = lint_package(
        {
            "repro.ftl.gc": FTL_GC,
            "repro.timessd.ssd": (
                "from repro.ftl.gc import BaseSSD\n\n\n"
                "class TimeSSD(BaseSSD):\n"
                "    def _collect_garbage(self, now_us):\n"
                "        return super()._collect_garbage(now_us)\n\n"
                "    def step(self, now_us):\n"
                "        return self._collect_garbage(now_us)\n\n"
                "    @classmethod\n"
                "    def idle(cls, now_us):\n"
                "        return cls._collect_garbage(cls(), now_us)\n"
            ),
        },
        rules=[PRIVATE],
    )
    assert violations == []


def test_private_use_within_its_package_clean(lint_package):
    violations = lint_package(
        {
            "repro.ftl.gc": FTL_GC,
            "repro.ftl.background": (
                "from repro.ftl.gc import _collect\n\n\n"
                "def kick(ssd, now_us):\n"
                "    ssd._collect_garbage(now_us)\n"
                "    return _collect(now_us)\n"
            ),
        },
        rules=[PRIVATE],
    )
    assert violations == []


def test_private_name_the_callers_package_also_defines_clean(lint_package):
    # ``_check`` is also nvme's own: the call may well be to it.
    violations = lint_package(
        {
            "repro.ftl.mapping": (
                "class Table:\n"
                "    def _check(self, lpa):\n"
                "        return lpa\n"
            ),
            "repro.nvme.command": (
                "class Command:\n"
                "    def _check(self):\n"
                "        return True\n\n\n"
                "def validate(command):\n"
                "    return command._check()\n"
            ),
        },
        rules=[PRIVATE],
    )
    assert violations == []


def test_real_obs_package_is_isolated():
    """The shipped obs package itself imports nothing above layer 0."""
    import os

    from repro.analysis.core import analyze_paths, rules_by_id

    import repro.obs

    package_dir = os.path.dirname(repro.obs.__file__)
    violations = analyze_paths(
        [package_dir], rules_by_id(["layering-order"])
    )
    assert violations == []
