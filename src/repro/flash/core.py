"""Columnar (structure-of-arrays) storage for the flash array.

The first seven PRs modelled every flash page as a ``Page`` object
holding a frozen ``OOBMetadata`` dataclass — an object graph that costs
hundreds of bytes and a pointer chase per page, which is why recovery,
GC accounting and patrol scrub topped out around 48 MiB devices
(docs/PERFORMANCE.md).  Real NAND simulators at scale (Copycat, SimpleSSD)
store per-page state as flat arrays instead; this module does the same:

* one ``array('q')`` int64 column per OOB field — ``lpa``,
  ``back_pointer``, ``timestamp_us``, ``seq_tag`` — indexed by PPA;
* a ``bytearray`` page-state column (0 = erased, 1 = programmed);
* an int64 ``programmed_us`` column (the reliability model's per-page
  retention clock);
* a plain Python list for page *data* — the FTL programs arbitrary
  objects (bytes, tokens, delta pages), so data stays an object column;
* per-block int64 columns for ``erase_count``, ``write_pointer``,
  ``last_program_us`` and ``reads_since_erase``, plus a ``bytearray``
  for the grown-bad flag.

Firmware and the fault hooks read and write these columns and nothing
else; bulk consumers go through :meth:`FlashDevice.scan_oob`.  One
read-only view, :class:`repro.flash.page.Page` via
:meth:`FlashDevice.peek_page`, is left for tests and host-side tooling.

The optional numpy accelerator vectorizes batch sequence-tag
verification over zero-copy ``int64`` views of the very same columns.
Runtime dependencies stay empty: numpy is a test extra, and the pure
Python fallback computes bit-identical results.
"""

from array import array

from repro.common.atomic import atomic_section
from repro.common.errors import FlashStateError
from repro.flash.page import _MASK64, OOBMetadata, _tuple_new, seq_tag_of

try:  # pragma: no cover - exercised via both CI paths
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAVE_NUMPY = _np is not None

#: Columns are int64 ("q"); OOB fields are stored two's-complement, so
#: negative housekeeping tags (TRANSLATION_TAG, DELTA_TAG, NULL_PPA)
#: round-trip exactly and seq tags reinterpret as uint64 for mixing.
_I64 = "q"


def _to_i64(value):
    """Clamp an arbitrary Python int into signed-64 two's complement."""
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


if HAVE_NUMPY:

    def _mix64_vec(x):
        """splitmix64 finalizer over a uint64 ndarray (wraps mod 2**64)."""
        x = (x ^ (x >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
        return x ^ (x >> _np.uint64(31))


def verify_seq_tags(lpas, backs, timestamps, seq_tags):
    """Batch ``seq_tag == seq_tag_of(...)`` check; returns a ``bytearray``.

    Accepts parallel int64 sequences (``array('q')`` slices or lists);
    element ``i`` of the result is 1 iff the stored tag matches the
    recomputed one — i.e. the page's OOB is intact.  The numpy path and
    the pure-Python path are bit-identical (splitmix64 is exact integer
    arithmetic either way).
    """
    if HAVE_NUMPY and isinstance(lpas, array):
        lpa = _np.frombuffer(lpas, dtype=_np.int64).view(_np.uint64)
        back = _np.frombuffer(backs, dtype=_np.int64).view(_np.uint64)
        ts = _np.frombuffer(timestamps, dtype=_np.int64).view(_np.uint64)
        seq = _np.frombuffer(seq_tags, dtype=_np.int64).view(_np.uint64)
        expect = _mix64_vec(lpa ^ _mix64_vec(back ^ _mix64_vec(ts)))
        return bytearray((expect == seq).view(_np.uint8))
    out = bytearray(len(lpas))
    for i in range(len(lpas)):
        tag = seq_tags[i] & _MASK64
        if seq_tag_of(lpas[i], backs[i], timestamps[i]) == tag:
            out[i] = 1
    return out


class ColumnarFlashArray:
    """Flat per-page and per-block columns for one flash array.

    Indexing: global page index = ``pba * pages_per_block + offset``
    (identical to the device's flat PPA numbering), block index = PBA.
    All NAND invariants (erased-only program, sequential-in-block
    program order, erase resets) are enforced here, in one place.
    """

    __slots__ = (
        "total_blocks",
        "pages_per_block",
        "total_pages",
        # per-page columns
        "state",
        "lpa",
        "back_pointer",
        "timestamp_us",
        "seq_tag",
        "programmed_us",
        "data",
        # per-block columns
        "erase_count",
        "write_pointer",
        "last_program_us",
        "reads_since_erase",
        "failed",
    )

    def __init__(self, total_blocks, pages_per_block):
        self.total_blocks = total_blocks
        self.pages_per_block = pages_per_block
        self.total_pages = total_blocks * pages_per_block
        n = self.total_pages
        self.state = bytearray(n)
        self.lpa = array(_I64, bytes(8 * n))
        self.back_pointer = array(_I64, bytes(8 * n))
        self.timestamp_us = array(_I64, bytes(8 * n))
        self.seq_tag = array(_I64, bytes(8 * n))
        self.programmed_us = array(_I64, bytes(8 * n))
        self.data = [None] * n
        b = total_blocks
        self.erase_count = array(_I64, bytes(8 * b))
        self.write_pointer = array(_I64, bytes(8 * b))
        self.last_program_us = array(_I64, bytes(8 * b))
        self.reads_since_erase = array(_I64, bytes(8 * b))
        self.failed = bytearray(b)

    # --- NAND operations (the only mutators of the page columns) ---------

    @atomic_section(
        "a page program commits data, the four OOB columns, the state "
        "byte and the block write pointer as one step — a concurrent "
        "OOB scan interleaved between column writes would read a "
        "half-written (spuriously torn) page"
    )
    def program(self, pba, offset, data, oob):
        """Program one page (must be the block's write pointer)."""
        gidx = self._next_erased(pba, offset)
        self.data[gidx] = data
        try:
            self.lpa[gidx] = oob.lpa
            self.back_pointer[gidx] = oob.back_pointer
            self.timestamp_us[gidx] = oob.timestamp_us
        except OverflowError:  # a field outside int64: wrap all three
            self.lpa[gidx] = _to_i64(oob.lpa)
            self.back_pointer[gidx] = _to_i64(oob.back_pointer)
            self.timestamp_us[gidx] = _to_i64(oob.timestamp_us)
        self.seq_tag[gidx] = _to_i64(oob.seq_tag)  # uint64: always wraps
        self.state[gidx] = 1
        self.write_pointer[pba] = offset + 1

    @atomic_section(
        "a page copy commits data, the four OOB columns, the state byte "
        "and the block write pointer as one step, as a program does"
    )
    def copy(self, src, pba, offset):
        """Program one page (the block's write pointer) with the data and
        OOB columns of the programmed page ``src``, seal included (the
        caller has read ``src``, so it is programmed)."""
        gidx = self._next_erased(pba, offset)
        self.data[gidx] = self.data[src]
        self.lpa[gidx] = self.lpa[src]
        self.back_pointer[gidx] = self.back_pointer[src]
        self.timestamp_us[gidx] = self.timestamp_us[src]
        self.seq_tag[gidx] = self.seq_tag[src]
        self.state[gidx] = 1
        self.write_pointer[pba] = offset + 1

    def _next_erased(self, pba, offset):
        """The page index a program of ``pba`` at ``offset`` writes, once
        the NAND rules allow it: the block's write pointer, erased."""
        wp = self.write_pointer[pba]
        if offset != wp:
            raise FlashStateError(
                "block %d: out-of-order program at offset %d (expected %d)"
                % (pba, offset, wp)
            )
        gidx = pba * self.pages_per_block + offset
        if self.state[gidx]:
            raise FlashStateError(
                "block %d: program to non-erased page %d" % (pba, offset)
            )
        return gidx

    @atomic_section(
        "erase resets every page-state byte, the data column and the "
        "block counters together — a scan interleaved mid-erase would "
        "see stale OOB columns on pages already marked erased"
    )
    def erase(self, pba):
        """Erase one block: reset pages, bump wear, clear disturb."""
        start = pba * self.pages_per_block
        stop = start + self.pages_per_block
        self.state[start:stop] = bytes(self.pages_per_block)
        self.data[start:stop] = [None] * self.pages_per_block
        # OOB and programmed_us columns keep stale values; every reader
        # masks by the state column first, and skipping the writes keeps
        # erase O(1)-ish in the columns actually cleared.
        self.erase_count[pba] += 1
        self.write_pointer[pba] = 0
        self.reads_since_erase[pba] = 0

    # --- Column accessors -------------------------------------------------

    def oob_at(self, gidx):
        """Reconstruct the ``OOBMetadata`` view of one programmed page.

        Returns None for erased pages (matching the old object model,
        where ``page.oob`` was None until programmed).
        """
        if not self.state[gidx]:
            return None
        # The stored tag is passed through as is (no seal is computed
        # here, so none is skipped): ``intact`` still verifies it.
        return _tuple_new(
            OOBMetadata,
            (
                self.lpa[gidx],
                self.back_pointer[gidx],
                self.timestamp_us[gidx],
                self.seq_tag[gidx] & _MASK64,
            ),
        )

    def intact_at(self, gidx):
        """``oob_at(gidx).intact`` without building the view: True iff the
        page is programmed and its seal matches its OOB columns (i.e. the
        program committed — erased, torn and burned pages read False)."""
        if not self.state[gidx]:
            return False
        return self.seq_tag[gidx] & _MASK64 == seq_tag_of(
            self.lpa[gidx], self.back_pointer[gidx], self.timestamp_us[gidx]
        )

    def page_slice(self, pba, stop=None):
        """Column slices for one block's first ``stop`` pages.

        Returns ``(state, lpa, back, ts, seq, programmed_us)`` where the
        int64 members are fresh ``array('q')`` copies (safe to keep) and
        ``state`` is a bytes copy.  ``stop`` defaults to the write
        pointer — everything past it is erased by the NAND invariants.
        """
        if stop is None:
            stop = self.write_pointer[pba]
        start = pba * self.pages_per_block
        end = start + stop
        return (
            bytes(self.state[start:end]),
            self.lpa[start:end],
            self.back_pointer[start:end],
            self.timestamp_us[start:end],
            self.seq_tag[start:end],
            self.programmed_us[start:end],
        )
