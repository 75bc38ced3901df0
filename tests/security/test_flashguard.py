import random

import pytest

from repro.common.errors import QueryError
from repro.common.units import SECOND_US
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.flash.reliability import FlashReliability
from repro.fs import PlainFS
from repro.ftl.ssd import SSDConfig
from repro.nvme import HostNVMeDriver, NVMeCommand, Opcode
from repro.security import FlashGuardSSD, RANSOMWARE_FAMILIES, RansomwareAttack, RansomwareDefense

from tests.conftest import small_geometry


def make_flashguard():
    return FlashGuardSSD(SSDConfig(geometry=small_geometry(blocks_per_plane=96)))


def _retain_plaintext(ssd):
    """LPA 5 written, read, then overwritten: its first version is
    retained.  Returns a time at which LPA 5 still held it."""
    ssd.write(5, b"plaintext")
    t_clean = ssd.clock.now_us
    ssd.clock.advance(10)
    ssd.read(5)
    ssd.write(5, b"cipher")
    return t_clean


class TestRetentionRule:
    def test_read_then_overwrite_is_retained(self):
        ssd = make_flashguard()
        ssd.write(5, b"secret")
        ssd.read(5)
        ssd.clock.advance(100)
        ssd.write(5, b"cipher")
        assert ssd.retained_count == 1

    @pytest.mark.parametrize("route", ["submit", "async"])
    def test_read_through_nvme_counts_as_a_read(self, route):
        # Ransomware reads through the driver like everyone else: the
        # rule keys on the admitted page, not on which API carried it.
        ssd = make_flashguard()
        driver = HostNVMeDriver(ssd)
        driver.write(5, [b"secret"])
        if route == "submit":
            driver.read(5)
        else:
            driver.submit_async([NVMeCommand(Opcode.READ, slba=5, nlb=1)])
        driver.write(5, [b"cipher"])
        assert ssd.retained_count == 1

    def test_overwrite_without_read_not_retained(self):
        ssd = make_flashguard()
        ssd.write(5, b"v1")
        ssd.clock.advance(100)
        ssd.write(5, b"v2")
        assert ssd.retained_count == 0

    def test_read_flag_cleared_by_write(self):
        ssd = make_flashguard()
        ssd.write(5, b"v1")
        ssd.read(5)
        ssd.write(5, b"v2")  # retains v1
        ssd.clock.advance(10)
        ssd.write(5, b"v3")  # v2 never read -> not retained
        assert ssd.retained_count == 1


class TestRecovery:
    def test_recover_restores_read_then_overwritten_page(self):
        ssd = make_flashguard()
        ssd.write(5, b"plaintext")
        t_clean = ssd.clock.now_us
        ssd.clock.advance(1000)
        ssd.read(5)
        ssd.write(5, b"ciphertext")
        restored, elapsed = ssd.recover_lpas([5], t_clean)
        assert restored[5] == b"plaintext"
        assert elapsed > 0
        ssd.write(5, restored[5])
        assert ssd.read(5)[0] == b"plaintext"

    def test_recover_survives_gc(self):
        import random

        ssd = make_flashguard()
        ssd.write(5, b"plaintext")
        t_clean = ssd.clock.now_us
        ssd.clock.advance(10)
        ssd.read(5)
        ssd.write(5, b"cipher")
        # Churn other LPAs to force GC over the retained page's block.
        rng = random.Random(1)
        working = ssd.logical_pages // 2
        for _ in range(working * 4):
            ssd.write(rng.randrange(6, working))
            ssd.clock.advance(50)
        assert ssd.gc_runs > 0
        restored, _ = ssd.recover_lpas([5], t_clean)
        assert restored.get(5) == b"plaintext"

    def test_recover_survives_relocation(self):
        # Wear leveling relocates a block through ``relocate_block``, the
        # same loop as GC: the retained page must move, not be erased.
        ssd = make_flashguard()
        ssd.write(5, b"plaintext")
        t_clean = ssd.clock.now_us
        ssd.clock.advance(10)
        ssd.read(5)
        ssd.write(5, b"cipher")
        (old_ppa,) = ssd._retained_by_ppa
        pba = ssd.device.geometry.block_of_page(old_ppa)
        ssd.relocate_block(pba, ssd.clock.now_us)
        assert ssd.device.core.write_pointer[pba] == 0
        assert ssd.read(5)[0] == b"cipher"
        restored, _ = ssd.recover_lpas([5], t_clean)
        assert restored[5] == b"plaintext"

    @pytest.mark.parametrize("lost", [False, True], ids=["rescued", "lost"])
    def test_gc_reads_a_retained_page_through_the_ladder(self, lost):
        # A retained page GC moves is read through the read-retry ladder:
        # one failed sense is retried, and a page the whole ladder cannot
        # read gives its version up.  Neither raises out of the host
        # write whose GC round reached the page.
        plan = FaultPlan()
        ssd = FlashGuardSSD(
            SSDConfig(
                geometry=small_geometry(),
                faults=FaultHooks(plan),
                reliability=FlashReliability(
                    raw_bit_error_rate=1e-12, ecc_correctable_bits=40
                ),
            )
        )
        ssd.write(5, b"plaintext")
        t_clean = ssd.clock.now_us
        ssd.clock.advance(10)
        ssd.read(5)
        ssd.write(5, b"cipher")
        (old_ppa,) = ssd._retained_by_ppa
        unreadable = plan.add_read_error(
            every=1, address={old_ppa}, max_fires=None if lost else 1
        )
        rng = random.Random(1)
        working = ssd.logical_pages // 2
        for _ in range(working * 4):
            ssd.write(rng.randrange(6, working))
            ssd.clock.advance(50)
        assert unreadable.fires >= 1  # GC did reach the page
        assert ssd.read(5)[0] == b"cipher"
        restored, _ = ssd.recover_lpas([5], t_clean)
        if lost:
            assert ssd.retained_count == 0
            assert restored == {}
        else:
            assert ssd.retained_count == 1
            assert restored == {5: b"plaintext"}

    def test_gc_copy_of_a_retained_page_survives_a_program_failure(self):
        # The copy of a retained page is programmed with the same
        # remap-on-failure retry as every other GC copy: one transient
        # program failure neither escapes the reclaim (which, under a
        # host write, would turn the device read-only) nor loses the
        # version.
        plan = FaultPlan()
        ssd = FlashGuardSSD(
            SSDConfig(geometry=small_geometry(), faults=FaultHooks(plan))
        )
        t_clean = _retain_plaintext(ssd)
        (old_ppa,) = ssd._retained_by_ppa
        pba = ssd.device.geometry.block_of_page(old_ppa)
        plan.add_program_failure(every=1, max_fires=1)
        ssd.relocate_block(pba, ssd.clock.now_us)
        assert ssd.program_failures == 1
        assert ssd.degraded_reason is None
        restored, _ = ssd.recover_lpas([5], t_clean)
        assert restored == {5: b"plaintext"}

    @pytest.mark.parametrize("lost", [False, True], ids=["rescued", "lost"])
    def test_recovery_reads_a_retained_page_through_the_ladder(self, lost):
        # Recovery reads a version as a host read would: one failed
        # sense is retried, and a version the whole ladder cannot read
        # is given up and left out of the answer instead of raising.
        plan = FaultPlan()
        ssd = FlashGuardSSD(
            SSDConfig(
                geometry=small_geometry(),
                faults=FaultHooks(plan),
                reliability=FlashReliability(
                    raw_bit_error_rate=1e-12, ecc_correctable_bits=40
                ),
            )
        )
        t_clean = _retain_plaintext(ssd)
        (old_ppa,) = ssd._retained_by_ppa
        plan.add_read_error(
            every=1, address={old_ppa}, max_fires=None if lost else 1
        )
        restored, _ = ssd.recover_lpas([5], t_clean)
        if lost:
            assert restored == {}
            assert ssd.retained_count == 0
        else:
            assert restored == {5: b"plaintext"}
            assert ssd.retained_count == 1

    def test_recovery_checks_threads_as_timekits_does(self):
        ssd = make_flashguard()
        t_clean = _retain_plaintext(ssd)
        # A huge hint costs one cursor per LPA, not one per thread.
        restored, _ = ssd.recover_lpas([5], t_clean, threads=10**12)
        assert restored == {5: b"plaintext"}
        for threads in (0, -1, 1.5, "2"):
            with pytest.raises(QueryError):
                ssd.recover_lpas([5], t_clean, threads=threads)

    def test_unretained_lpa_not_restored(self):
        ssd = make_flashguard()
        ssd.write(5, b"v1")
        ssd.write(5, b"v2")
        restored, _ = ssd.recover_lpas([5], ssd.clock.now_us)
        assert 5 not in restored

    def test_write_back_false_reads_only(self):
        # Recovery only reads; the caller writes the pages back.
        ssd = make_flashguard()
        ssd.write(5, b"old")
        t = ssd.clock.now_us
        ssd.read(5)
        ssd.write(5, b"new")
        restored, _ = ssd.recover_lpas([5], t)
        assert restored[5] == b"old"
        assert ssd.read(5)[0] == b"new"


class TestDefenseComparison:
    def test_flashguard_recovers_ransomware_attack(self):
        ssd = make_flashguard()
        fs = PlainFS(ssd)
        originals = {}
        for i in range(10):
            name = "f%02d" % i
            fs.create(name)
            payload = (b"orig%02d" % i) * 20
            fs.write(name, 0, payload.ljust(fs.page_size, b"\x02"))
            originals[name] = fs.read(name, 0, fs.file_size(name))
            ssd.clock.advance(5000)
        ssd.clock.advance(SECOND_US)
        attack = RansomwareAttack(fs, RANSOMWARE_FAMILIES["CryptoWall"], seed=3)
        report = attack.execute()
        defense = RansomwareDefense(fs)
        outcome = defense.recover_with_flashguard(report)
        assert outcome.files_recovered == len(report.encrypted_files)
        for name in report.encrypted_files:
            assert fs.read(name, 0, len(originals[name])) == originals[name]
