"""The declarative whole-program contract table.

Each entry is one checkable cross-layer invariant from the paper's
correctness argument, expressed over the effect analysis
(:mod:`repro.analysis.effects`).  Three contract shapes exist:

:class:`ReachContract`
    "Nothing reachable from these roots has this effect."  Traversal
    follows confident + ambiguous call edges and stops at *waived*
    functions — each waiver carries a written justification, which the
    report prints, so an auditor can re-examine it.
:class:`CallerContract`
    "These functions may only be called from this allow-list."  Only
    confident call edges count (a dynamic-dispatch guess is already in
    the unresolved report and should not fail the build).
:class:`RaiseContract`
    "Functions in this scope may only let these exceptions escape."

To add a contract: pick the shape, give it a stable ``rule_id``
(``effects-`` prefix, kebab-case), append it to :data:`CONTRACTS`, and
document it in docs/ANALYSIS.md.  The rule machinery in
``rules/whole_program.py`` materialises one lint rule per entry, so the
new id immediately works with ``--select``, suppressions and SARIF.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Waiver:
    """A deliberate hole in a ReachContract, with its justification."""

    qualname: str
    why: str


@dataclass(frozen=True)
class ReachContract:
    """Forbid ``effect`` anywhere reachable from functions matching
    ``roots`` (exact qualnames, or prefixes ending with a dot)."""

    rule_id: str
    description: str
    roots: tuple
    effect: str
    waivers: tuple = field(default=())

    def waived_qualnames(self):
        return tuple(w.qualname for w in self.waivers)


@dataclass(frozen=True)
class CallerContract:
    """``callees`` may only be called from ``allowed_callers``."""

    rule_id: str
    description: str
    callees: tuple
    allowed_callers: tuple


@dataclass(frozen=True)
class RaiseContract:
    """Functions whose qualname starts with ``scope`` may only raise
    ``allowed`` exception types (subclasses included)."""

    rule_id: str
    description: str
    scope: str
    allowed: tuple


CONTRACTS = (
    ReachContract(
        rule_id="effects-recovery-rng",
        description=(
            "recovery/rebuild paths must be RNG-free: crash recovery has "
            "to reconstruct the identical FTL state on every replay"
        ),
        # The checkpoint *writer* (repro.ftl.checkpoint.CheckpointWriter)
        # is deliberately absent: it runs from the host path and programs
        # real pages, which legitimately crosses fault hooks and the
        # reliability model.  Its recovery-side loaders are covered
        # transitively through recovery_scan.sweep_oob.
        roots=(
            "repro.ftl.recovery.",
            "repro.ftl.recovery_scan.",
            "repro.timessd.recovery.",
        ),
        effect="consumes-rng",
    ),
    ReachContract(
        rule_id="effects-read-path-flash",
        description=(
            "host read paths must not program or erase flash: a read "
            "that mutates media can destroy the history it serves"
        ),
        roots=(
            # Every route's read is serve_read_at (execute_io, the one
            # NVMe interpreter, also serves WRITE/DSM, so it cannot root a
            # read-only contract; its READ branch only calls this).
            "repro.ftl.ssd.BaseSSD.serve_read_at",
            "repro.timessd.ssd.TimeSSD.version_chain",
        ),
        effect="mutates-flash",
        waivers=(
            Waiver(
                "repro.ftl.ssd.BaseSSD._before_host_request",
                "idle-window housekeeping: GC may program/erase before "
                "the host op is admitted, never as part of serving it; "
                "the differential oracle (tests/integration) checks "
                "read-your-writes across this boundary",
            ),
            Waiver(
                "repro.ftl.ssd.BaseSSD._after_host_request",
                "post-op housekeeping hook, runs after the read result "
                "is already materialised; mutations here are background "
                "work accounted to the device, not the read",
            ),
            Waiver(
                "repro.timessd.ssd.TimeSSD._after_host_request",
                "retention shrink + delta compression fire after the "
                "host op completes (paper §4: background epoch "
                "maintenance); the read's return value is computed "
                "before this hook runs",
            ),
        ),
    ),
    ReachContract(
        rule_id="effects-scrub-rng",
        description=(
            "the patrol scrubber must never consume foreground RNG: "
            "whether scrub ran in some idle window may not perturb the "
            "host-visible random stream (golden determinism depends on "
            "it)"
        ),
        roots=("repro.ftl.scrub.",),
        effect="consumes-rng",
        waivers=(
            Waiver(
                "repro.flash.reliability.ReliabilityEngine.check_read",
                "the media noise source: a dedicated stream seeded from "
                "FlashReliability.seed, deliberately separate from the "
                "FTL's foreground RNG — patrol reads draw from it like "
                "any other read, without touching host randomness",
            ),
            Waiver(
                "repro.timessd.delta.ModeledDeltaCodec.compress",
                "modeled-content mode draws delta sizes from the "
                "device's content model; the draw belongs to the data "
                "model shared by every compression path (GC, background, "
                "scrub refresh) — under REAL content mode scrub "
                "compression is RNG-free",
            ),
            Waiver(
                "repro.faults.hooks.FaultHooks.on_read",
                "fault-injection harness: fire() draws from the fault "
                "plan's own seeded stream, which exists only when a "
                "torture plan is installed and is owned by the test "
                "harness, not the foreground FTL",
            ),
            Waiver(
                "repro.faults.hooks.FaultHooks.on_program",
                "same fault-plan-owned stream as on_read (probability-"
                "triggered specs roll against the plan's dedicated RNG)",
            ),
            Waiver(
                "repro.faults.hooks.FaultHooks.on_erase",
                "same fault-plan-owned stream as on_read",
            ),
            Waiver(
                "repro.security.attacks._junk_pool",
                "analysis imprecision: reachable only via ambiguous "
                "constructor dispatch (flash primitives build error "
                "objects; the name-matched __init__ belongs to the "
                "attack drivers) — the scrubber never instantiates "
                "attack objects",
            ),
            Waiver(
                "repro.workloads.content.ContentFactory.mutate",
                "analysis imprecision: same ambiguous-constructor chain "
                "as _junk_pool; workload content factories are never "
                "created or invoked from device or scrub code",
            ),
        ),
    ),
    ReachContract(
        rule_id="effects-scrub-flash-writes",
        description=(
            "patrol reads never program or erase flash except through "
            "the refresh migration API: a scrub pass that could write "
            "anywhere else might corrupt the history it protects"
        ),
        roots=("repro.ftl.scrub.",),
        effect="mutates-flash",
        waivers=(
            Waiver(
                "repro.ftl.ssd.BaseSSD.program_with_retry",
                "the refresh migration API for valid pages: the same "
                "remap-on-failure program loop GC migration uses, "
                "followed by the public remap_migrated_page path",
            ),
            Waiver(
                "repro.ftl.ssd.BaseSSD._refresh_retained_page",
                "the refresh API for retained versions: a no-op on the "
                "base device; TimeSSD compresses the version into its "
                "delta chain, preserving timestamp and chain linkage",
            ),
            Waiver(
                "repro.timessd.ssd.TimeSSD._refresh_retained_page",
                "TimeSSD's retained-refresh override (reached by "
                "virtual dispatch from the scrubber's hook call)",
            ),
            Waiver(
                "repro.ftl.ssd.BaseSSD.relocate_block",
                "grown-bad-block retirement: emptying and releasing a "
                "condemned block reuses the exact GC reclaim step; "
                "release_block sees Block.failed and retires it",
            ),
            Waiver(
                "repro.timessd.ssd.TimeSSD.relocate_block",
                "TimeSSD's retention-aware reclaim override of the "
                "retirement path",
            ),
            Waiver(
                "repro.faults.hooks.FaultHooks.on_read",
                "analysis imprecision: the hook only raises or returns; "
                "the flash-mutating paths attributed to it come from "
                "ambiguous constructor dispatch on the error objects it "
                "builds (name-matched __init__ chains into host-write "
                "drivers the scrubber never touches)",
            ),
            Waiver(
                "repro.flash.reliability.ReliabilityEngine.check_read",
                "analysis imprecision: the ECC check samples corrected "
                "bits and raises UncorrectableReadError — it has no path "
                "to media state; the attributed writes are the same "
                "ambiguous error-constructor chain as on_read",
            ),
        ),
    ),
    CallerContract(
        rule_id="effects-fault-hook-sites",
        description=(
            "fault hooks may fire only from the flash pre-commit points: "
            "injecting anywhere else would fault state the media model "
            "never exposed"
        ),
        callees=(
            "repro.faults.hooks.FaultHooks.on_read",
            "repro.faults.hooks.FaultHooks.on_program",
            "repro.faults.hooks.FaultHooks.on_erase",
        ),
        allowed_callers=(
            "repro.flash.device.FlashDevice.read_page",
            "repro.flash.device.FlashDevice.read_oob",
            "repro.flash.device.FlashDevice.program_page",
            "repro.flash.device.FlashDevice.erase_block",
        ),
    ),
    RaiseContract(
        rule_id="effects-obs-raises",
        description=(
            "observability may only raise ReproError: an emit site that "
            "can throw anything else would let metrics crash the FTL "
            "hot path"
        ),
        scope="repro.obs.",
        allowed=("repro.common.errors.ReproError",),
    ),
)


def contract_ids():
    return tuple(c.rule_id for c in CONTRACTS)
