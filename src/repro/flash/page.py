"""Flash pages and their out-of-band (OOB) metadata.

TimeSSD (paper §3.7) stores three things in each page's OOB area: the LPA
mapped to the page, a back-pointer to the previous PPA that held a version
of that LPA, and the write timestamp.  The model keeps these structurally
instead of packing bytes.
"""

import enum
from collections import namedtuple

# Sentinel "no previous version" back-pointer ('-' in the paper's Figure 5).
NULL_PPA = -1

_MASK64 = (1 << 64) - 1


def seq_tag_of(lpa, back_pointer, timestamp_us):
    """The OOB sequence tag real firmware writes as a per-page CRC/seal.

    A program that completes writes a tag consistent with its OOB fields;
    a torn program (power cut mid-page) leaves an inconsistent tag, which
    is how ``rebuild_from_flash`` tells a committed page from a torn tail.
    It is ``mix(lpa ^ mix(back ^ mix(timestamp)))`` over uint64 views,
    ``mix`` the splitmix64 finalizer, written out three times.
    """
    x = timestamp_us & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    x = x ^ (x >> 31) ^ (back_pointer & _MASK64)
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    x = x ^ (x >> 31) ^ (lpa & _MASK64)
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


class PageState(enum.Enum):
    """NAND-level state of a page: erased (writable) or programmed."""

    ERASED = "erased"
    PROGRAMMED = "programmed"


_tuple_new = tuple.__new__


class OOBMetadata(namedtuple("_OOBFields", "lpa back_pointer timestamp_us seq_tag")):
    """Out-of-band metadata written atomically with a page program.

    ``lpa`` is the logical page the content belongs to (or a tag for
    housekeeping pages such as translation or delta pages), ``back_pointer``
    is the PPA holding the previous version of the same LPA (``NULL_PPA``
    if none), and ``timestamp_us`` is the simulated write time.

    ``seq_tag`` is the per-page integrity seal (a CRC stand-in) written
    as the last step of a page program; it defaults to the consistent
    value, so only deliberately torn pages carry a mismatched tag.

    An immutable four-field value (tuple-backed: a ``Page`` view or a
    fault hook builds one per page, so construction has to be cheap);
    ``==`` and ``hash`` cover exactly the four fields.
    """

    __slots__ = ()

    # Tag values used in ``lpa`` for non-user pages.  Real firmware would
    # reserve magic values the same way.
    TRANSLATION_TAG = -2
    DELTA_TAG = -3

    def __new__(cls, lpa, back_pointer=NULL_PPA, timestamp_us=0, seq_tag=None):
        if seq_tag is None:
            seq_tag = seq_tag_of(lpa, back_pointer, timestamp_us)
        return _tuple_new(cls, (lpa, back_pointer, timestamp_us, seq_tag))

    @property
    def intact(self):
        """True iff the sequence tag matches the OOB fields (no torn write)."""
        return self.seq_tag == seq_tag_of(
            self.lpa, self.back_pointer, self.timestamp_us
        )

    def as_torn(self):
        """A copy with a mismatched sequence tag, as a torn program leaves."""
        return OOBMetadata(
            self.lpa,
            self.back_pointer,
            self.timestamp_us,
            seq_tag=seq_tag_of(self.lpa, self.back_pointer, self.timestamp_us)
            ^ 0x70521,
        )


class Page:
    """Read-only view of one flash page over the device's columnar core.

    The authoritative page state lives in flat per-device columns
    (:class:`repro.flash.core.ColumnarFlashArray`); a ``Page`` is the
    two-word handle :meth:`FlashDevice.peek_page` hands to tests and
    host-side tooling, reading those columns through the attributes the
    old object model exposed (firmware reads the columns themselves):

    * ``state`` — :class:`PageState`;
    * ``data`` — whatever object the FTL programmed (raw ``bytes`` for
      content-bearing experiments, lightweight tokens for modeled-content
      replays; the flash layer never inspects it);
    * ``oob`` — the page's :class:`OOBMetadata` (None while erased),
      reconstructed from the columns on access;
    * ``programmed_us`` — the reliability model's retention clock
      (charge leaks from the moment the cells are written, not from when
      the block was opened).
    """

    __slots__ = ("_core", "_gidx")

    def __init__(self, core, gidx):
        self._core = core
        self._gidx = gidx

    @property
    def state(self):
        return (
            PageState.PROGRAMMED
            if self._core.state[self._gidx]
            else PageState.ERASED
        )

    @property
    def data(self):
        return self._core.data[self._gidx]

    @property
    def oob(self):
        return self._core.oob_at(self._gidx)

    @property
    def programmed_us(self):
        return self._core.programmed_us[self._gidx]

    def __repr__(self):
        oob = self.oob
        return "Page(%s, lpa=%s)" % (
            self.state.value,
            oob.lpa if oob else None,
        )
