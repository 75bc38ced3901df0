import pytest

from repro.common.errors import AddressError
from repro.flash.page import NULL_PPA
from repro.ftl.mapping import AddressMappingTable


def test_starts_unmapped():
    amt = AddressMappingTable(16)
    assert amt.lookup(0) == NULL_PPA
    assert not amt.is_mapped(0)
    assert amt.mapped_count() == 0


def test_update_and_lookup():
    amt = AddressMappingTable(16)
    assert amt.update(3, 100) == NULL_PPA
    assert amt.lookup(3) == 100
    assert amt.is_mapped(3)


def test_update_returns_previous():
    amt = AddressMappingTable(16)
    amt.update(3, 100)
    assert amt.update(3, 200) == 100


def test_invalidate():
    amt = AddressMappingTable(16)
    amt.update(3, 100)
    assert amt.invalidate(3) == 100
    assert not amt.is_mapped(3)


def test_bounds_checked():
    # A rejected update leaves nothing behind: no entry (``-1`` would
    # index the last one) and, on a demand-cached table, no cache traffic.
    for amt in (AddressMappingTable(16), AddressMappingTable(16, 4)):
        with pytest.raises(AddressError):
            amt.lookup(16)
        for lpa in (16, -1):
            with pytest.raises(AddressError):
                amt.update(lpa, 0)
        assert not any(amt.is_mapped(lpa) for lpa in range(16))
        assert amt.translation_reads == 0


def test_mapped_lpas_iteration():
    amt = AddressMappingTable(8)
    amt.update(1, 10)
    amt.update(5, 50)
    assert list(amt.mapped_lpas()) == [1, 5]
    assert amt.mapped_count() == 2


def test_rejects_empty_table():
    with pytest.raises(ValueError):
        AddressMappingTable(0)


class TestDemandCache:
    def test_miss_costs_translation_read(self):
        amt = AddressMappingTable(16, cache_entries=2)
        amt.lookup(0)
        assert amt.translation_reads == 1
        amt.lookup(0)  # hit
        assert amt.translation_reads == 1

    def test_dirty_eviction_costs_translation_write(self):
        amt = AddressMappingTable(16, cache_entries=1)
        amt.update(0, 5)  # dirty entry 0
        amt.lookup(1)  # evicts 0 -> writeback
        assert amt.translation_writes == 1

    def test_clean_eviction_is_free(self):
        amt = AddressMappingTable(16, cache_entries=1)
        amt.lookup(0)
        amt.lookup(1)
        assert amt.translation_writes == 0

    def test_lru_order(self):
        amt = AddressMappingTable(16, cache_entries=2)
        amt.lookup(0)
        amt.lookup(1)
        amt.lookup(0)  # refresh 0; next miss evicts 1
        amt.lookup(2)
        reads_before = amt.translation_reads
        amt.lookup(0)  # still cached
        assert amt.translation_reads == reads_before


def test_infinite_cache_never_counts_traffic():
    amt = AddressMappingTable(1024)
    for lpa in range(1024):
        amt.update(lpa, lpa)
        amt.lookup(lpa)
    assert amt.translation_reads == 0
    assert amt.translation_writes == 0


@pytest.mark.parametrize("cache_entries", [None, 4])
def test_load_is_update_without_cache_traffic(cache_entries):
    """``load`` leaves the table ``update`` would leave and nothing else:
    a mount is not host traffic, so the demand cache stays cold and clean
    and no translation I/O is counted."""
    mapped = {lpa: 7 * lpa + 1 for lpa in (0, 3, 9, 15, 4)}
    head_ppa = [mapped.get(lpa, NULL_PPA) for lpa in range(16)]
    updated = AddressMappingTable(16, cache_entries)
    for lpa, ppa in mapped.items():
        updated.update(lpa, ppa)
    # What going through ``update`` bills: a miss per entry, and a
    # write-back for the one a four-entry cache had to evict.
    billed = (len(mapped), 1) if cache_entries else (0, 0)
    assert (updated.translation_reads, updated.translation_writes) == billed
    loaded = AddressMappingTable(16, cache_entries)
    loaded.update(5, 99)  # the column is the whole table: NULL unmaps
    loaded.load(head_ppa)
    assert [loaded.lookup(lpa) for lpa in range(16)] == [
        updated.lookup(lpa) for lpa in range(16)
    ]
    assert loaded.mapped_count() == len(mapped)

    fresh = AddressMappingTable(16, cache_entries)
    fresh.load(head_ppa)
    assert (fresh.translation_reads, fresh.translation_writes) == (0, 0)
    assert not fresh._dirty and not fresh._cache
    head_ppa[1] = 50  # a copy: the caller's column is not the table
    assert not fresh.is_mapped(1)

    # A column of the wrong length: nothing is written.
    for bad in ([60] * 15, [60] * 17):
        with pytest.raises(ValueError):
            fresh.load(bad)
        assert not fresh.is_mapped(1) and not fresh.is_mapped(2)
    assert fresh.mapped_count() == len(mapped)
