"""Address mapping table (AMT) with optional demand-paged caching.

The paper's firmware uses page-level address translation [DFTL]: the full
LPA->PPA table lives in flash as translation pages whose locations are
tracked by a global mapping directory (GMD), and recently-used mappings are
cached in controller RAM.

The model keeps the authoritative table in host memory (it must be exact)
and, when configured with a finite cache, *charges* translation-page reads
and writes for misses and dirty evictions.  Experiments default to a fully
cached table so mapping traffic does not blur the TimeSSD-vs-regular
comparisons; the demand-paged mode exists for fidelity studies.
"""

from collections import OrderedDict

from repro.common.atomic import atomic_section
from repro.common.errors import AddressError
from repro.flash.page import NULL_PPA

# How many mapping entries one 4 KiB translation page holds (8-byte PPAs),
# as in DFTL.
ENTRIES_PER_TRANSLATION_PAGE = 512


class AddressMappingTable:
    """LPA -> PPA mapping with translation-page traffic accounting."""

    def __init__(self, logical_pages, cache_entries=None):
        if logical_pages <= 0:
            raise ValueError("logical_pages must be positive")
        self.logical_pages = logical_pages
        self._table = [NULL_PPA] * logical_pages
        # Demand cache: None means "infinite" (fully cached).
        self._cache_entries = cache_entries
        self._cache = OrderedDict() if cache_entries is not None else None
        self._dirty = set()
        self.translation_reads = 0
        self.translation_writes = 0

    @property
    def demand_paged(self):
        """Whether the table is a finite demand cache, whose misses and
        dirty evictions count translation-page I/O (DFTL)."""
        return self._cache is not None

    def _check(self, lpa):
        if not 0 <= lpa < self.logical_pages:
            raise AddressError(
                "LPA %r out of range [0, %d)" % (lpa, self.logical_pages)
            )

    def _touch(self, lpa, writing):
        """Simulate the cache lookup for ``lpa``; count translation I/O.

        Only called in demand-cache mode (``_cache`` is not None).
        """
        if lpa in self._cache:
            self._cache.move_to_end(lpa)
        else:
            self.translation_reads += 1
            self._cache[lpa] = True
            if len(self._cache) > self._cache_entries:
                evicted, _ = self._cache.popitem(last=False)
                if evicted in self._dirty:
                    self._dirty.discard(evicted)
                    self.translation_writes += 1
        if writing:
            self._dirty.add(lpa)

    def lookup(self, lpa):
        """Current PPA for ``lpa`` (``NULL_PPA`` when never written)."""
        if not 0 <= lpa < self.logical_pages:
            self._check(lpa)
        if self._cache is not None:
            self._touch(lpa, writing=False)
        return self._table[lpa]

    @atomic_section(
        "the L2P entry and the demand-cache/dirty accounting must move "
        "together: a suspension in between would charge translation I/O "
        "for a mapping no reader can see yet (range check precedes any "
        "mutation)"
    )
    def update(self, lpa, ppa):
        """Point ``lpa`` at ``ppa``; returns the previous PPA."""
        if not 0 <= lpa < self.logical_pages:
            self._check(lpa)
        if self._cache is not None:
            self._touch(lpa, writing=True)
        old = self._table[lpa]
        self._table[lpa] = ppa
        return old

    def load(self, head_ppa):
        """Fill the table from a recovery sweep's LPA-indexed ``head_ppa``
        column (``NULL_PPA``: unmapped) — a mount, not host traffic: the
        entries are copied and nothing else moves, so the demand cache
        starts cold and clean and no translation I/O is counted.  The
        sweep range-checked every LPA it indexed; a column of the wrong
        length is refused before anything is written.
        """
        if len(head_ppa) != self.logical_pages:
            raise ValueError(
                "a %d-entry head column for %d logical pages"
                % (len(head_ppa), self.logical_pages)
            )
        self._table[:] = head_ppa

    def invalidate(self, lpa):
        """Drop the mapping (TRIM/delete); returns the previous PPA."""
        return self.update(lpa, NULL_PPA)

    def is_mapped(self, lpa):
        if not 0 <= lpa < self.logical_pages:
            self._check(lpa)
        return self._table[lpa] != NULL_PPA

    def mapped_lpas(self):
        """Iterate all currently mapped LPAs (used by full-scan queries)."""
        for lpa, ppa in enumerate(self._table):
            if ppa != NULL_PPA:
                yield lpa

    def mapped_count(self):
        return self.logical_pages - self._table.count(NULL_PPA)

    def __len__(self):
        return self.logical_pages
