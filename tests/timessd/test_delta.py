import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.timessd.delta import ModeledDeltaCodec, RealDeltaCodec
from repro.timessd.secure import RetentionCipher, RetentionLock

PAGE = 256


class TestRealDeltaCodec:
    def setup_method(self):
        self.codec = RealDeltaCodec(PAGE)

    def test_similar_pages_give_small_delta(self):
        ref = bytearray(os.urandom(PAGE))
        old = bytearray(ref)
        old[10] ^= 0xFF  # one changed byte
        payload, size = self.codec.compress(bytes(old), bytes(ref))
        assert size < PAGE // 4
        assert self.codec.decompress(payload, bytes(ref)) == bytes(old)

    def test_unrelated_pages_fall_back_to_raw(self):
        old, ref = os.urandom(PAGE), os.urandom(PAGE)
        payload, size = self.codec.compress(old, ref)
        assert size == PAGE
        assert payload[0] == "raw"
        assert self.codec.decompress(payload, ref) == old

    def test_no_reference_uses_plain_lzf(self):
        old = bytes(PAGE)  # compressible
        payload, size = self.codec.compress(old, None)
        assert payload[0] == "lzf"
        assert size < PAGE
        assert self.codec.decompress(payload, None) == old

    def test_wrong_size_rejected(self):
        with pytest.raises(ReproError):
            self.codec.compress(b"short", bytes(PAGE))

    def test_non_bytes_rejected(self):
        with pytest.raises(ReproError):
            self.codec.compress(object(), bytes(PAGE))

    def test_xor_delta_requires_reference_on_decompress(self):
        ref = os.urandom(PAGE)
        old = bytes(b ^ 1 for b in ref)
        payload, _ = self.codec.compress(old, ref)
        if payload[0] == "xor":
            with pytest.raises(ReproError):
                self.codec.decompress(payload, None)

    @given(
        seed=st.integers(0, 500),
        nchanges=st.integers(0, PAGE),
    )
    @settings(max_examples=60)
    def test_roundtrip_property(self, seed, nchanges):
        rng = random.Random(seed)
        ref = bytearray(rng.randrange(256) for _ in range(PAGE))
        old = bytearray(ref)
        for _ in range(nchanges):
            old[rng.randrange(PAGE)] = rng.randrange(256)
        payload, size = self.codec.compress(bytes(old), bytes(ref))
        assert 1 <= size <= PAGE
        assert self.codec.decompress(payload, bytes(ref)) == bytes(old)


class TestModeledDeltaCodec:
    def test_requires_rng(self):
        with pytest.raises(ReproError):
            ModeledDeltaCodec(PAGE)

    def test_size_follows_clipped_gaussian(self):
        codec = ModeledDeltaCodec(PAGE, 0.2, 0.05, rng=random.Random(1))
        sizes = [codec.compress(None, None)[1] for _ in range(2000)]
        mean_ratio = sum(sizes) / len(sizes) / PAGE
        assert 0.15 < mean_ratio < 0.25
        assert all(1 <= s <= int(PAGE * 0.95) for s in sizes)

    def test_payload_identity_roundtrip(self):
        codec = ModeledDeltaCodec(PAGE, 0.2, 0.05, rng=random.Random(1))
        token = ("version", 42)
        payload, _ = codec.compress(token, None)
        assert codec.decompress(payload, None) == token


class TestCompressionMemo:
    """The memoized cost model returns cached results verbatim."""

    def test_repeat_pairs_hit_the_memo(self):
        codec = RealDeltaCodec(PAGE)
        old = bytes(range(256))[:PAGE].ljust(PAGE, b"\x01")
        ref = bytes(PAGE)
        first = codec.compress(old, ref)
        again = codec.compress(old, ref)
        assert again == first
        assert codec.memo_hits == 1
        assert codec.memo_misses == 1
        # A different pair is a miss, not a stale hit.
        other = codec.compress(old, old)
        assert other != first
        assert codec.memo_misses == 2

    def test_no_reference_is_memoized_separately(self):
        codec = RealDeltaCodec(PAGE)
        old = b"\x07" * PAGE
        a = codec.compress(old, None)
        b = codec.compress(old, None)
        assert a == b
        assert codec.memo_hits == 1
        assert a[0][0] == "lzf"

    def test_lru_eviction_is_bounded(self):
        codec = RealDeltaCodec(PAGE)
        codec.MEMO_ENTRIES = 4
        for i in range(10):
            codec.compress(bytes([i]) * PAGE, None)
        assert len(codec._memo) <= 4
        # The newest entry survives, the oldest was evicted.
        codec.compress(bytes([9]) * PAGE, None)
        assert codec.memo_hits == 1
        codec.compress(bytes([0]) * PAGE, None)
        assert codec.memo_misses == 11

    def test_memoized_results_match_fresh_codec(self):
        rng = random.Random(5)
        ref = bytes(rng.randrange(256) for _ in range(PAGE))
        old = bytearray(ref)
        old[10] ^= 0xFF
        old = bytes(old)
        warm = RealDeltaCodec(PAGE)
        warm.compress(old, ref)
        cached = warm.compress(old, ref)
        fresh = RealDeltaCodec(PAGE).compress(old, ref)
        assert cached == fresh


class TestDecodeMemo:
    """Decompression is memoized on ``(blob, reference)`` content."""

    def _xor_pair(self, seed=3):
        rng = random.Random(seed)
        ref = bytes(rng.randrange(256) for _ in range(PAGE))
        old = bytearray(ref)
        old[17] ^= 0x5A
        return bytes(old), ref

    def test_repeat_decode_hits_and_matches_fresh_codec(self):
        old, ref = self._xor_pair()
        # Encoded elsewhere: the encoder's own write-through would make
        # the first decode a hit too (TestDecodeMemoWriteThrough).
        payload, _ = RealDeltaCodec(PAGE).compress(old, ref)
        assert payload[0] == "xor"
        codec = RealDeltaCodec(PAGE)
        first = codec.decompress(payload, ref)
        again = codec.decompress(payload, bytearray(ref))
        assert again == first == old
        assert again == RealDeltaCodec(PAGE).decompress(payload, ref)
        assert (codec.decode_hits, codec.decode_misses) == (1, 1)
        # Raw payloads need no decode and bypass the memo.
        assert codec.decompress(("raw", old), None) == old
        assert (codec.decode_hits, codec.decode_misses) == (1, 1)

    def test_same_blob_under_two_references_decodes_twice(self):
        old, ref = self._xor_pair()
        payload, _ = RealDeltaCodec(PAGE).compress(old, ref)
        codec = RealDeltaCodec(PAGE)
        other_ref = bytes(b ^ 0xFF for b in ref)
        assert codec.decompress(payload, ref) == old
        other = codec.decompress(payload, other_ref)
        assert other != old
        assert other == RealDeltaCodec(PAGE).decompress(payload, other_ref)
        assert (codec.decode_hits, codec.decode_misses) == (0, 2)

    def test_byte_bound_holds_and_eviction_is_lru(self):
        codec = RealDeltaCodec(PAGE)
        codec.DECODE_MEMO_BYTES = 4 * PAGE
        payloads = [codec.compress(bytes([i]) * PAGE, None)[0] for i in range(6)]
        for payload in payloads[:4]:
            codec.decompress(payload, None)
        codec.decompress(payloads[0], None)  # now the most recently used
        for payload in payloads[4:]:
            codec.decompress(payload, None)
        assert len(codec._decode_memo) * PAGE <= codec.DECODE_MEMO_BYTES
        hits = codec.decode_hits
        codec.decompress(payloads[0], None)  # survived: it was touched
        assert codec.decode_hits == hits + 1
        codec.decompress(payloads[1], None)  # evicted: least recently used
        assert codec.decode_hits == hits + 1

    def test_failures_are_never_cached(self):
        codec = RealDeltaCodec(PAGE)
        corrupt = ("lzf", b"\x05ab")  # a literal run past the end
        short = ("lzf", b"\x02abc")  # a valid stream of 3 bytes, not a page
        for payload in (corrupt, short):
            for _ in range(2):
                with pytest.raises(ReproError):
                    codec.decompress(payload, None)
        assert codec._decode_memo == {}
        assert (codec.decode_hits, codec.decode_misses) == (0, 4)


def _text_pair():
    """An old page that LZF shrinks on its own, and a reference one byte
    away from it, so the pair encodes as ``xor`` and the old page alone
    as ``lzf``."""
    old = (b"almanac keeps every version " * 20)[:PAGE]
    ref = bytearray(old)
    ref[40] ^= 0x21
    return old, bytes(ref)


class TestDecodeMemoWriteThrough:
    """An encode seeds the decode memo with the page it just encoded."""

    @pytest.mark.parametrize("mode", ["xor", "lzf"])
    def test_the_first_decode_after_an_encode_is_a_hit(self, mode):
        old, ref = _text_pair()
        if mode == "lzf":
            ref = None
        codec = RealDeltaCodec(PAGE)
        payload, _ = codec.compress(old, ref)
        assert payload[0] == mode
        data = codec.decompress(payload, ref)
        assert (codec.decode_hits, codec.decode_misses) == (1, 0)
        assert data == old == RealDeltaCodec(PAGE).decompress(payload, ref)

    def test_raw_payloads_are_not_seeded(self):
        codec = RealDeltaCodec(PAGE)
        payload, _ = codec.compress(os.urandom(PAGE), os.urandom(PAGE))
        assert payload[0] == "raw"
        assert codec._decode_memo == {}

    def test_a_closed_lock_seeds_nothing(self):
        lock = RetentionLock(RetentionCipher(b"0123456789abcdef"))
        codec = RealDeltaCodec(PAGE, lock=lock)
        old, ref = _text_pair()
        codec.compress(old, ref)
        codec.compress(old, None)
        assert codec._decode_memo == {}
        lock.unlock(b"0123456789abcdef")
        codec.compress(ref, old)
        assert len(codec._decode_memo) == 1

    def test_a_corrupted_blob_is_decoded_and_still_raises(self):
        old, ref = _text_pair()
        codec = RealDeltaCodec(PAGE)
        (mode, blob), _ = codec.compress(old, ref)
        with pytest.raises(ReproError):
            codec.decompress((mode, blob[:-1]), ref)
        assert (codec.decode_hits, codec.decode_misses) == (0, 1)

    def test_drop_memos_forgets_the_seeded_pages(self):
        old, ref = _text_pair()
        codec = RealDeltaCodec(PAGE)
        payload, _ = codec.compress(old, ref)
        codec.drop_memos()
        assert codec._decode_memo == {}
        assert codec.decompress(payload, ref) == old
        assert (codec.decode_hits, codec.decode_misses) == (0, 1)
