"""Post-attack data recovery workflows (paper §5.5.1).

Once the ransom note appears, the defender knows the attack window and
the victim files.  ``RansomwareDefense`` restores them either through
TimeKits (on a TimeSSD) or through FlashGuard's narrower retention.
"""

from dataclasses import dataclass, field

from repro.common.errors import QueryError
from repro.security.flashguard import FlashGuardSSD
from repro.timekits.api import TimeKits


@dataclass
class RecoveryReport:
    """Outcome of a whole-attack recovery."""

    defender: str
    files_recovered: int = 0
    files_failed: int = 0
    pages_restored: int = 0
    elapsed_us: int = 0
    recovered_content: dict = field(default_factory=dict)  # name -> {page: data}


class RansomwareDefense:
    """Recovers every file an :class:`AttackReport` lists as encrypted."""

    def __init__(self, fs):
        self.fs = fs

    def _restore_into_fs(self, name, page_datas):
        """Write recovered page contents back through the file system."""
        fs = self.fs
        locked = name + ".locked"
        if fs.exists(locked):
            fs.delete(locked)
        if not fs.exists(name):
            fs.create(name)
        for page_index, data in enumerate(page_datas):
            fs.write_pages(name, page_index, 1, [data])

    def recover_with_timekits(self, attack_report, threads=1):
        """TimeSSD path: query pre-attack versions, write them back."""
        kits = TimeKits(self.fs.ssd)

        def pages_as_of(lpas, t):
            picked = kits.as_of(lpas, t, threads).value
            return {lpa: v.data for lpa, v in picked.items() if v is not None}

        return self._recover(attack_report, "TimeSSD", pages_as_of)

    def recover_with_flashguard(self, attack_report, threads=1):
        """FlashGuard path: restore read-then-overwritten pages."""
        ssd = self.fs.ssd
        if not isinstance(ssd, FlashGuardSSD):
            raise QueryError("FlashGuard recovery needs a FlashGuardSSD device")
        return self._recover(
            attack_report,
            "FlashGuard",
            lambda lpas, t: ssd.recover_lpas(lpas, t, threads)[0],
        )

    def _recover(self, attack_report, defender, pages_as_of):
        """Restore every encrypted file that ``pages_as_of(lpas, t)``, a
        ``{lpa: data}`` read of the pre-attack state, answers in full."""
        ssd = self.fs.ssd
        t_clean = attack_report.started_us - 1
        report = RecoveryReport(defender=defender)
        start = ssd.clock.now_us
        for name in attack_report.encrypted_files:
            lpas = attack_report.victim_extents[name]
            pages = pages_as_of(lpas, t_clean)
            if any(lpa not in pages for lpa in lpas):
                report.files_failed += 1
                continue
            page_datas = [pages[lpa] for lpa in lpas]
            self._restore_into_fs(name, page_datas)
            report.files_recovered += 1
            report.pages_restored += len(page_datas)
            report.recovered_content[name] = dict(enumerate(page_datas))
        report.elapsed_us = ssd.clock.now_us - start
        return report
