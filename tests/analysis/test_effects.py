"""Effect inference and the contract table: one seeded violation per
contract shape, plus the clean counterpart."""

from tests.analysis.conftest import rule_ids


def test_recovery_rng_contract_fires_through_helper(lint_package):
    violations = lint_package(
        {
            "repro.ftl.recovery": """
                def rebuild_from_flash(ssd):
                    return _shuffle(ssd)


                def _shuffle(ssd):
                    return ssd.rng.random()
            """,
        },
        rules=["effects-recovery-rng"],
    )
    assert "effects-recovery-rng" in rule_ids(violations)
    assert any("consumes-rng" in v.message for v in violations)


def test_recovery_without_rng_is_clean(lint_package):
    violations = lint_package(
        {
            "repro.ftl.recovery": """
                def rebuild_from_flash(ssd):
                    return sorted(ssd.pages)
            """,
        },
        rules=["effects-recovery-rng"],
    )
    assert violations == []


def test_read_path_flash_contract_sees_transitive_program(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": """
                class BaseSSD:
                    def serve_read_at(self, lpa):
                        return self._fixup(lpa)

                    def _fixup(self, lpa):
                        return self.device.program_page(lpa, None, None, 0)
            """,
        },
        rules=["effects-read-path-flash"],
    )
    assert rule_ids(violations) == ["effects-read-path-flash"]
    assert "mutates-flash" in violations[0].message


def test_fault_hooks_only_from_precommit_points(lint_package):
    files = {
        "repro.faults.hooks": """
            class FaultHooks:
                def on_read(self, ppa):
                    return ppa
        """,
        "repro.flash.device": """
            from repro.faults.hooks import FaultHooks


            class FlashDevice:
                def __init__(self):
                    self.hooks = FaultHooks()

                def read_page(self, ppa):
                    return self.hooks.on_read(ppa)
        """,
    }
    assert lint_package(files, rules=["effects-fault-hook-sites"]) == []

    files["repro.ftl.sneaky"] = """
        from repro.faults.hooks import FaultHooks


        class Sneaky:
            def __init__(self):
                self.hooks = FaultHooks()

            def tamper(self, ppa):
                return self.hooks.on_read(ppa)
    """
    violations = lint_package(files, rules=["effects-fault-hook-sites"])
    assert rule_ids(violations) == ["effects-fault-hook-sites"]
    assert "repro.ftl.sneaky.Sneaky.tamper" in violations[0].message


def test_obs_may_only_raise_repro_error(lint_package):
    violations = lint_package(
        {
            "repro.obs.util": """
                def emit(x):
                    if x is None:
                        raise ValueError("boom")
                    return x
            """,
        },
        rules=["effects-obs-raises"],
    )
    assert rule_ids(violations) == ["effects-obs-raises"]
    assert "ValueError" in violations[0].message


def test_obs_raising_project_error_subclass_is_clean(lint_package):
    violations = lint_package(
        {
            "repro.common.errors": """
                class ReproError(Exception):
                    pass


                class TraceError(ReproError):
                    pass
            """,
            "repro.obs.util": """
                from repro.common.errors import TraceError


                def emit(x):
                    if x is None:
                        raise TraceError("boom")
                    return x
            """,
        },
        rules=["effects-obs-raises"],
    )
    assert violations == []


def test_caught_exception_does_not_escape(lint_package):
    violations = lint_package(
        {
            "repro.obs.util": """
                def emit(x):
                    try:
                        raise ValueError("boom")
                    except ValueError:
                        return 0
            """,
        },
        rules=["effects-obs-raises"],
    )
    assert violations == []
