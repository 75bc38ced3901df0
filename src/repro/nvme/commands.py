"""NVMe command/completion structures.

Standard I/O opcodes follow the NVMe 1.3 base specification numbering;
the TimeKits operations occupy the vendor-specific opcode range
(0xC0-0xFF), exactly how a real firmware extension would surface them.
Command parameters travel in ``cdw10``-style dwords; to keep call sites
readable the model names them (``slba``, ``nlb``, ``t``, ``t2``,
``threads``) instead of packing raw dword integers.
"""

import enum
from dataclasses import dataclass


class Opcode(enum.IntEnum):
    """NVM command set opcodes, plus vendor extensions for TimeKits."""

    FLUSH = 0x00
    WRITE = 0x01
    READ = 0x02
    DSM = 0x09  # Dataset Management; with the deallocate bit = TRIM

    # Vendor-specific (0xC0+): the paper's TimeKits wrappers.
    ADDR_QUERY = 0xC0
    ADDR_QUERY_RANGE = 0xC1
    ADDR_QUERY_ALL = 0xC2
    TIME_QUERY = 0xC3
    TIME_QUERY_RANGE = 0xC4
    TIME_QUERY_ALL = 0xC5
    ROLLBACK = 0xC6
    ROLLBACK_ALL = 0xC7
    RETENTION_INFO = 0xC8


class AdminOpcode(enum.IntEnum):
    IDENTIFY = 0x06
    GET_LOG_PAGE = 0x02


class StatusCode(enum.IntEnum):
    """Completion status (generic command status subset + vendor)."""

    SUCCESS = 0x00
    INVALID_OPCODE = 0x01
    INVALID_FIELD = 0x02
    LBA_OUT_OF_RANGE = 0x80
    CAPACITY_EXCEEDED = 0x81
    # Media and Data Integrity Errors (spec status code type 0x2).
    MEDIA_UNRECOVERED_READ = 0x82
    MEDIA_WRITE_FAULT = 0x83
    # Vendor status: the retention-floor alarm — the device refuses
    # writes rather than recycle protected history (paper §3.4).
    RETENTION_PROTECTED = 0xC0
    # Vendor status: too many grown bad blocks (or a write-path media
    # fault) pushed the device into read-only degraded mode.
    DEGRADED_READ_ONLY = 0xC1


@dataclass(slots=True)
class NVMeCommand:
    """One submission-queue entry."""

    opcode: int
    nsid: int = 1
    slba: int = 0  # starting LBA (logical page in this model)
    nlb: int = 1  # number of logical blocks
    data: object = None  # write payload (list of pages) where applicable
    t: int = 0  # vendor: primary timestamp parameter
    t2: int = 0  # vendor: secondary timestamp parameter
    threads: int = 1  # vendor: recovery parallelism hint
    admin: bool = False


@dataclass(slots=True)
class NVMeCompletion:
    """One completion-queue entry."""

    status: StatusCode
    result: object = None
    latency_us: int = 0

    @property
    def ok(self):
        return self.status is StatusCode.SUCCESS
