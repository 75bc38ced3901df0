"""Columnar core ≡ the old per-page dataclass model.

PR 8 replaced the ``Page``/``OOBMetadata`` object graph with flat
columns (:mod:`repro.flash.core`); what is left of the object model is
the read-only ``Page`` that ``FlashDevice.peek_page`` hands out.
These properties drive random operation sequences against the columnar
core *and* a literal reimplementation of the old dataclass model, and
assert every observable — state, data, OOB round-trip, ``intact``,
write pointers, wear counts, error behaviour — stays identical, read
both from the columns and through ``peek_page``.
"""

import pytest
from array import array
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.common.errors import FlashStateError
from repro.flash.core import HAVE_NUMPY, ColumnarFlashArray, verify_seq_tags
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.page import (
    _MASK64,
    NULL_PPA,
    OOBMetadata,
    PageState,
    seq_tag_of,
)

BLOCKS = 3
PPB = 4

i64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


# --- The reference: the pre-PR-8 object model, verbatim semantics ----------


class LegacyPage:
    def __init__(self):
        self.state = PageState.ERASED
        self.data = None
        self.oob = None
        self.programmed_us = 0


class LegacyBlock:
    """The old ``Block`` dataclass behaviour, reimplemented literally."""

    def __init__(self, pages_per_block):
        self.pages = [LegacyPage() for _ in range(pages_per_block)]
        self.erase_count = 0
        self.write_pointer = 0
        self.failed = False

    def program(self, offset, data, oob):
        if offset != self.write_pointer:
            raise FlashStateError("out of order")
        page = self.pages[offset]
        if page.state is not PageState.ERASED:
            raise FlashStateError("not erased")
        page.data = data
        page.oob = oob
        page.state = PageState.PROGRAMMED
        self.write_pointer += 1

    def read(self, offset):
        page = self.pages[offset]
        if page.state is not PageState.PROGRAMMED:
            raise FlashStateError("erased")
        return page.data, page.oob

    def erase(self):
        for page in self.pages:
            page.state = PageState.ERASED
            page.data = None
            page.oob = None
        self.erase_count += 1
        self.write_pointer = 0


# --- Operation sequences ---------------------------------------------------


def ops_strategy():
    program = st.tuples(
        st.just("program"),
        st.integers(0, BLOCKS - 1),
        st.integers(0, PPB - 1),  # offset (may be out of order: must raise)
        st.integers(0, 500),  # lpa
        st.sampled_from([NULL_PPA, 0, 7, OOBMetadata.TRANSLATION_TAG]),
        st.integers(0, 10_000),  # timestamp
        st.booleans(),  # torn?
    )
    erase = st.tuples(st.just("erase"), st.integers(0, BLOCKS - 1))
    read = st.tuples(
        st.just("read"), st.integers(0, BLOCKS - 1), st.integers(0, PPB - 1)
    )
    fail = st.tuples(st.just("fail"), st.integers(0, BLOCKS - 1))
    return st.lists(st.one_of(program, erase, read, fail), max_size=40)


def make_device():
    """A ``BLOCKS`` x ``PPB`` device: ``(core, peek_page)``."""
    device = FlashDevice(
        FlashGeometry(channels=1, blocks_per_plane=BLOCKS, pages_per_block=PPB)
    )
    return device.core, device.peek_page


def assert_equivalent(core, peek, legacy):
    for pba, ref in enumerate(legacy):
        assert core.erase_count[pba] == ref.erase_count
        assert core.write_pointer[pba] == ref.write_pointer
        assert bool(core.failed[pba]) == ref.failed
        for offset in range(PPB):
            page, ref_page = peek(pba * PPB + offset), ref.pages[offset]
            assert page.state is ref_page.state
            assert page.data == ref_page.data
            if ref_page.oob is None:
                assert page.oob is None
            else:
                assert page.oob == ref_page.oob
                assert page.oob.intact == ref_page.oob.intact
                assert page.oob.seq_tag == ref_page.oob.seq_tag


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy())
def test_columnar_matches_legacy_model(ops):
    core, peek = make_device()
    device = peek.__self__

    def device_read(pba, offset):
        """The device's read, answered as the old model's: ``(data, oob)``
        of the page it has just read, taken from the columns."""
        ppa = pba * PPB + offset
        device.read_page(ppa)
        return core.data[ppa], core.oob_at(ppa)

    legacy = [LegacyBlock(PPB) for _ in range(BLOCKS)]
    for op in ops:
        if op[0] == "program":
            _, pba, offset, lpa, back, ts, torn = op
            oob = OOBMetadata(lpa=lpa, back_pointer=back, timestamp_us=ts)
            if torn:
                oob = oob.as_torn()
            outcomes = []
            for program, where in (
                (core.program, (pba, offset)),
                (legacy[pba].program, (offset,)),
            ):
                try:
                    program(*where, b"d%d" % ts, oob)
                    outcomes.append(None)
                except FlashStateError:
                    outcomes.append("raise")
            assert outcomes[0] == outcomes[1]
        elif op[0] == "erase":
            core.erase(op[1])
            legacy[op[1]].erase()
        elif op[0] == "read":
            _, pba, offset = op
            outcomes = []
            for read, where in (
                (device_read, (pba, offset)),
                (legacy[pba].read, (offset,)),
            ):
                try:
                    outcomes.append(read(*where))
                except FlashStateError:
                    outcomes.append("raise")
            assert outcomes[0] == outcomes[1]
        elif op[0] == "fail":
            core.failed[op[1]] = 1
            legacy[op[1]].failed = True
        assert_equivalent(core, peek, legacy)


@settings(max_examples=60, deadline=None)
@given(
    lpa=i64, back=i64, ts=i64, torn=st.booleans(), interval=st.integers(0, 3)
)
def test_oob_round_trip_preserves_intact(lpa, back, ts, torn, interval):
    """Program → read round-trips OOB exactly, torn or not, across erases."""
    core, peek = make_device()
    for _ in range(interval):  # wear history must not affect OOB round-trip
        core.program(0, 0, b"x", OOBMetadata(lpa=1, back_pointer=-1, timestamp_us=0))
        core.erase(0)
    oob = OOBMetadata(lpa=lpa, back_pointer=back, timestamp_us=ts)
    assert oob.intact
    if torn:
        oob = oob.as_torn()
        assert not oob.intact
    core.program(0, 0, b"payload", oob)
    got = core.oob_at(0)
    assert got == oob == peek(0).oob
    assert got.intact == oob.intact
    assert got.seq_tag == oob.seq_tag
    # And the batch path agrees with the scalar path, page by page.
    state, lpas, backs, tss, seqs, _prog = core.page_slice(0)
    flags = verify_seq_tags(lpas, backs, tss, seqs)
    assert list(flags) == [1 if got.intact else 0]
    # ... and so does the view-free scalar the firmware loops use.
    assert core.intact_at(0) is got.intact


@settings(max_examples=60, deadline=None)
@given(
    lpa=st.one_of(
        i64, st.sampled_from([OOBMetadata.TRANSLATION_TAG, OOBMetadata.DELTA_TAG])
    ),
    back=st.one_of(i64, st.just(NULL_PPA)),
    ts=i64,
    torn=st.booleans(),
)
def test_intact_at_matches_the_page_view(lpa, back, ts, torn):
    """``core.intact_at(gidx)`` ≡ ``peek_page(gidx).oob.intact`` on every
    page kind: erased (no OOB), programmed, torn, housekeeping tags and
    NULL back-pointers — before the program, after it, and after erase."""
    core, peek = make_device()
    gidx = 2 * PPB

    def view_intact():
        oob = peek(gidx).oob
        return oob is not None and oob.intact

    assert core.intact_at(gidx) is view_intact() is False  # erased
    oob = OOBMetadata(lpa=lpa, back_pointer=back, timestamp_us=ts)
    core.program(2, 0, b"p", oob.as_torn() if torn else oob)
    assert core.intact_at(gidx) is view_intact() is (not torn)
    assert core.intact_at(gidx + 1) is False  # neighbour still erased
    core.erase(2)  # stale OOB columns survive an erase; state masks them
    assert core.intact_at(gidx) is view_intact() is False


#: The five columns a seal check reads, each open to a direct write.
SEAL_COLUMNS = ("state", "lpa", "back_pointer", "timestamp_us", "seq_tag")
small = st.integers(-1, 3)  # few values, so quadruples collide often

seal_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("program"), st.integers(0, BLOCKS - 1), small, small, small,
            st.booleans(),
        ),
        st.tuples(
            st.just("copy"), st.integers(0, BLOCKS * PPB - 1),
            st.integers(0, BLOCKS - 1),
        ),
        st.tuples(st.just("erase"), st.integers(0, BLOCKS - 1)),
        # A direct column write; a write of None re-seals the page over
        # its current fields.
        st.tuples(
            st.just("poke"), st.sampled_from(SEAL_COLUMNS),
            st.integers(0, BLOCKS * PPB - 1), st.one_of(small, st.none()),
        ),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(ops=seal_ops, cap=st.sampled_from([ColumnarFlashArray.SEAL_MEMO_PAGES, 2]))
# A field rewritten under an intact page's unchanged tag (a memo keyed
# on the tag alone answers True).
@example(ops=[("program", 0, 1, 0, 2, False), ("poke", "lpa", 0, 3)], cap=2)
# A memoized page marked erased (a memo consulted before the state).
@example(ops=[("program", 0, 1, 0, 2, False), ("poke", "state", 0, 0)], cap=2)
# A torn page asked twice (a memo that keeps what it was shown).
@example(ops=[("program", 0, 1, 0, 2, True), ("erase", 1)], cap=2)
def test_the_seal_memo_is_the_recomputed_seal(ops, cap):
    """``core.sealed_at`` memoizes each page's seal check; after any
    sequence of programs, GC copies, erases and direct writes to any of
    the five columns it reads, every page's answer is the recomputed
    seal (state set and ``seq_tag`` matching), ``intact_at``'s and the
    page view's; and the memo never holds more than its bound, here the
    real one or a bound of two that makes it start over often."""
    with mock.patch.object(ColumnarFlashArray, "SEAL_MEMO_PAGES", cap):
        _check_the_seal_memo(ops, cap)


def _check_the_seal_memo(ops, cap):
    core, peek = make_device()

    def check_every_page():
        for gidx in range(core.total_pages):
            want = bool(core.state[gidx]) and core.seq_tag[gidx] & _MASK64 == (
                seq_tag_of(
                    core.lpa[gidx], core.back_pointer[gidx], core.timestamp_us[gidx]
                )
            )
            assert core.sealed_at(gidx) is want, (gidx, ops)
            assert core.intact_at(gidx) is want
            oob = peek(gidx).oob
            assert (oob is not None and oob.intact) is want
        assert core.total_pages - core._sealed.count(None) <= cap

    check_every_page()
    for op in ops:
        kind = op[0]
        if kind == "program":
            _kind, pba, lpa, back, ts, torn = op
            oob = OOBMetadata(lpa=lpa, back_pointer=back, timestamp_us=ts)
            offset = core.write_pointer[pba]
            if offset < PPB and not core.state[pba * PPB + offset]:
                core.program(pba, offset, b"p", oob.as_torn() if torn else oob)
        elif kind == "copy":
            _kind, src, pba = op
            offset = core.write_pointer[pba]
            dst = pba * PPB + offset
            if core.state[src] and offset < PPB and not core.state[dst]:
                core.copy(src, pba, offset)
        elif kind == "erase":
            core.erase(op[1])
        else:
            _kind, column, gidx, value = op
            if value is None:
                value = seq_tag_of(
                    core.lpa[gidx], core.back_pointer[gidx], core.timestamp_us[gidx]
                )
                column, value = "seq_tag", value - (1 << 64 if value >> 63 else 0)
            elif column == "state":
                value &= 1
            getattr(core, column)[gidx] = value
        check_every_page()


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.tuples(i64, i64, i64, i64), min_size=1, max_size=64)
)
def test_verify_seq_tags_numpy_matches_pure_python(rows):
    """The vectorized and scalar verifiers are bit-identical."""
    lpas = array("q", [r[0] for r in rows])
    backs = array("q", [r[1] for r in rows])
    tss = array("q", [r[2] for r in rows])
    seqs = array("q", [r[3] for r in rows])
    fast = verify_seq_tags(lpas, backs, tss, seqs)
    slow = verify_seq_tags(list(lpas), list(backs), list(tss), list(seqs))
    assert fast == slow
    for i, row in enumerate(rows):
        expect = seq_tag_of(row[0], row[1], row[2]) == (row[3] & _MASK64)
        assert bool(slow[i]) == expect


@settings(max_examples=40, deadline=None)
@given(lpa=i64, back=i64, ts=i64)
def test_real_tags_always_verify(lpa, back, ts):
    oob = OOBMetadata(lpa=lpa, back_pointer=back, timestamp_us=ts)
    flags = verify_seq_tags(
        [lpa], [back], [ts], [oob.seq_tag - (1 << 64 if oob.seq_tag >> 63 else 0)]
    )
    assert flags == bytearray([1])
    torn = oob.as_torn()
    flags = verify_seq_tags(
        [lpa], [back], [ts], [torn.seq_tag - (1 << 64 if torn.seq_tag >> 63 else 0)]
    )
    assert flags == bytearray([0])


def test_numpy_accelerator_is_present_in_ci():
    # The test extra installs numpy; this guards against silently
    # benchmarking the fallback path. (The fallback itself is covered
    # above by passing plain lists.)
    assert HAVE_NUMPY


# --- OOBMetadata is a value: the surface the tuple-backed type must keep ----


@settings(max_examples=60, deadline=None)
@given(lpa=i64, back=i64, ts=i64)
def test_oob_metadata_value_semantics(lpa, back, ts):
    oob = OOBMetadata(lpa=lpa, back_pointer=back, timestamp_us=ts)
    # Field access by name; positional and keyword construction agree.
    assert (oob.lpa, oob.back_pointer, oob.timestamp_us) == (lpa, back, ts)
    assert oob == OOBMetadata(lpa, back, ts)
    # seq_tag defaults to the consistent seal.
    assert oob.seq_tag == seq_tag_of(lpa, back, ts)
    assert oob.intact
    # ==/hash cover exactly the four fields.
    twin = OOBMetadata(lpa, back, ts, seq_tag=oob.seq_tag)
    assert twin == oob and hash(twin) == hash(oob)
    assert len({oob, twin}) == 1
    torn = oob.as_torn()
    assert torn.intact is False
    assert torn != oob
    assert (torn.lpa, torn.back_pointer, torn.timestamp_us) == (lpa, back, ts)
    assert OOBMetadata(lpa, back, ts ^ 1) != oob
    # Immutable: neither a field nor a new attribute can be assigned.
    for name in ("lpa", "back_pointer", "timestamp_us", "seq_tag", "extra"):
        with pytest.raises(AttributeError):
            setattr(oob, name, 0)
    assert repr(oob) == (
        "OOBMetadata(lpa=%d, back_pointer=%d, timestamp_us=%d, seq_tag=%d)"
        % (lpa, back, ts, oob.seq_tag)
    )


def test_oob_metadata_defaults_and_tags():
    oob = OOBMetadata(lpa=7)
    assert (oob.back_pointer, oob.timestamp_us) == (NULL_PPA, 0)
    assert oob.seq_tag == seq_tag_of(7, NULL_PPA, 0)
    assert (OOBMetadata.TRANSLATION_TAG, OOBMetadata.DELTA_TAG) == (-2, -3)
    assert oob.TRANSLATION_TAG == -2  # reachable through instances too
    with pytest.raises(TypeError):
        OOBMetadata()  # lpa is required
    # The stored-tag path (``oob_at``) hands back an equal value whose
    # seal is still *checked*, not assumed.
    core, _peek = make_device()
    core.program(0, 0, b"x", oob)
    assert core.oob_at(0) == oob and core.oob_at(0).intact
    core.seq_tag[0] ^= 1
    assert core.oob_at(0) != oob and core.oob_at(0).intact is False
    assert core.intact_at(0) is False


@settings(max_examples=40, deadline=None)
@given(
    lpa=st.integers(-(1 << 70), 1 << 70),
    back=st.integers(-(1 << 70), 1 << 70),
    ts=st.integers(-(1 << 70), 1 << 70),
)
def test_program_wraps_out_of_range_fields_to_int64(lpa, back, ts):
    """In-range ints are stored as is; anything wider wraps to two's
    complement, exactly as the per-field ``_to_i64`` did."""
    core, _peek = make_device()
    core.program(1, 0, b"x", OOBMetadata(lpa, back, ts))

    def wrap(value):
        value &= _MASK64
        return value - (1 << 64) if value >> 63 else value

    gidx = PPB
    assert core.lpa[gidx] == wrap(lpa)
    assert core.back_pointer[gidx] == wrap(back)
    assert core.timestamp_us[gidx] == wrap(ts)
    assert core.seq_tag[gidx] & _MASK64 == seq_tag_of(lpa, back, ts)
    assert core.intact_at(gidx)  # the seal mixes mod 2**64, so it survives
