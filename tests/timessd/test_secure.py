"""Encrypted retention (§3.10): history readable only with the key."""

import pytest

from repro.common.errors import QueryError, ReproError
from repro.common.units import SECOND_US
from repro.timekits.api import TimeKits
from repro.timessd.config import ContentMode
from repro.timessd.delta import DeltaPage
from repro.timessd.secure import EncryptedPayload, RetentionCipher, RetentionLock

from tests.conftest import make_timessd, small_geometry

KEY = b"correct horse battery staple"


class TestRetentionCipher:
    def test_requires_decent_key(self):
        with pytest.raises(ReproError):
            RetentionCipher(b"short")
        with pytest.raises(ReproError):
            RetentionCipher("not-bytes")

    def test_roundtrip_bytes(self):
        cipher = RetentionCipher(KEY)
        payload = b"sensitive old version" * 10
        sealed = cipher.encrypt_payload(payload, lpa=3, version_ts=1000)
        assert isinstance(sealed, EncryptedPayload)
        assert sealed.ciphertext != payload
        assert cipher.decrypt_payload(sealed) == payload

    def test_roundtrip_structured_payload(self):
        cipher = RetentionCipher(KEY)
        payload = ("xor", b"\x01\x02\x03" * 50)
        sealed = cipher.encrypt_payload(payload, lpa=1, version_ts=5)
        opened = cipher.decrypt_payload(sealed)
        assert opened == payload
        assert sealed.ciphertext[0] == "xor"  # structure visible, bytes not
        assert sealed.ciphertext[1] != payload[1]

    def test_nonce_separates_versions(self):
        cipher = RetentionCipher(KEY)
        a = cipher.encrypt_payload(b"same-bytes", 1, 100).ciphertext
        b = cipher.encrypt_payload(b"same-bytes", 1, 200).ciphertext
        assert a != b

    def test_different_keys_differ(self):
        a = RetentionCipher(KEY).encrypt_payload(b"data-here", 1, 1).ciphertext
        b = RetentionCipher(b"another secret key!").encrypt_payload(
            b"data-here", 1, 1
        ).ciphertext
        assert a != b

    def test_length_preserving(self):
        cipher = RetentionCipher(KEY)
        for n in (0, 1, 7, 8, 9, 4096):
            sealed = cipher.encrypt_payload(bytes(n), 0, 0)
            assert len(sealed.ciphertext) == n


class TestRetentionLock:
    def test_wrong_key_rejected(self):
        lock = RetentionLock(RetentionCipher(KEY))
        with pytest.raises(QueryError):
            lock.unlock(b"wrong key entirely!!")
        assert not lock.unlocked

    def test_unlock_then_lock(self):
        lock = RetentionLock(RetentionCipher(KEY))
        lock.unlock(KEY)
        assert lock.unlocked
        lock.lock()
        assert not lock.unlocked

    def test_open_payload_enforces_lock(self):
        cipher = RetentionCipher(KEY)
        lock = RetentionLock(cipher)
        sealed = cipher.encrypt_payload(b"secret", 1, 1)
        with pytest.raises(QueryError):
            lock.open_payload(sealed)
        lock.unlock(KEY)
        assert lock.open_payload(sealed) == b"secret"

    def test_plaintext_passes_through(self):
        lock = RetentionLock(RetentionCipher(KEY))
        assert lock.open_payload(b"not-encrypted") == b"not-encrypted"


class TestEncryptedDevice:
    def make_device(self):
        return make_timessd(
            geometry=small_geometry(blocks_per_plane=32),
            content_mode=ContentMode.REAL,
            retention_floor_us=3600 * SECOND_US,
            retention_key=KEY,
        )

    def churn_history(self, ssd, lpa=4, versions=None):
        geo = ssd.device.geometry
        versions = versions or geo.channels * geo.pages_per_block + 4
        contents = []
        for i in range(versions):
            payload = (b"v%05d" % i).ljust(geo.page_size, b"\x03")
            contents.append((ssd.clock.now_us, payload))
            ssd.write(lpa, payload)
            ssd.clock.advance(1000)
        # Force retained versions into (encrypted) delta records.
        from repro.ftl.block_manager import BlockKind

        victim = ssd.block_manager.select_greedy_victim(BlockKind.DATA)
        assert victim is not None
        ssd.relocate_block(victim, ssd.clock.now_us)
        return contents

    def test_current_data_is_never_gated(self):
        ssd = self.make_device()
        contents = self.churn_history(ssd)
        assert ssd.read(4)[0] == contents[-1][1]

    def test_locked_device_refuses_history(self):
        ssd = self.make_device()
        self.churn_history(ssd)
        with pytest.raises(QueryError):
            ssd.version_chain(4)

    def test_unlock_restores_full_history(self):
        ssd = self.make_device()
        contents = self.churn_history(ssd)
        ssd.unlock_retention(KEY)
        versions, _ = ssd.version_chain(4)
        by_ts = {ts: payload for ts, payload in contents}
        for v in versions:
            assert v.data == by_ts[v.timestamp_us]

    def test_locked_device_refuses_time_queries_too(self):
        """A time query opens no payload, but the gate at the top of the
        walk still keeps write times inside a locked device."""
        ssd = self.make_device()
        self.churn_history(ssd)
        with pytest.raises(QueryError):
            TimeKits(ssd).time_query_all()

    def test_unlocked_time_query_decrypts_nothing(self, monkeypatch):
        ssd = self.make_device()
        contents = self.churn_history(ssd)
        ssd.unlock_retention(KEY)
        assert any(v.source == "delta" for v in ssd.version_chain(4)[0])

        def refuse(_cipher, _payload):
            raise AssertionError("a time query decrypted a retained payload")

        monkeypatch.setattr(RetentionCipher, "decrypt_payload", refuse)
        answer = TimeKits(ssd).time_query_all().value
        assert answer == {4: [ts for ts, _payload in contents]}

    def test_relock_drops_the_codec_plaintext_memos(self):
        ssd = self.make_device()
        ssd.unlock_retention(KEY)  # a locked device fills neither memo
        self.churn_history(ssd)
        codec = ssd.deltas.codec
        versions, _ = ssd.version_chain(4)
        assert any(v.source.startswith("delta") for v in versions)
        assert codec._memo and codec._decode_memo
        ssd.lock_retention()
        assert codec._memo == {} and codec._decode_memo == {}
        with pytest.raises(QueryError):
            ssd.version_chain(4)
        # A power cut re-seals the same way.
        ssd.unlock_retention(KEY)
        ssd.version_chain(4)
        assert codec._decode_memo
        ssd.reset_volatile()
        assert codec._decode_memo == {}

    def test_a_locked_device_seeds_no_decode_memo(self):
        ssd = self.make_device()
        self.churn_history(ssd)
        codec = ssd.deltas.codec
        assert codec.memo_misses > 0  # GC encoded retained versions
        assert codec._decode_memo == {}
        # Unlocked, the same GC writes its answers through, and the walk
        # decodes nothing.
        ssd = self.make_device()
        ssd.unlock_retention(KEY)
        contents = self.churn_history(ssd)
        codec = ssd.deltas.codec
        assert codec._decode_memo
        versions, _ = ssd.version_chain(4)
        assert any(v.source.startswith("delta") for v in versions)
        assert codec.decode_hits > 0 and codec.decode_misses == 0
        by_ts = dict(contents)
        assert all(v.data == by_ts[v.timestamp_us] for v in versions)

    def test_a_locked_device_keeps_no_codec_memo(self):
        """Both memos hold plaintext pages, so neither takes an entry
        while the lock is closed; an unlocked device fills both."""
        ssd = self.make_device()
        self.churn_history(ssd)
        codec = ssd.deltas.codec
        assert codec.memo_misses > 0  # GC encoded retained versions
        assert codec._memo == {} and codec._decode_memo == {}
        ssd.unlock_retention(KEY)
        self.churn_history(ssd)
        assert codec._memo and codec._decode_memo

    def test_wrong_key_fails_loudly(self):
        ssd = self.make_device()
        with pytest.raises(QueryError):
            ssd.unlock_retention(b"definitely not the key")

    def test_flash_holds_only_ciphertext(self):
        ssd = self.make_device()
        contents = self.churn_history(ssd)
        plaintexts = {payload for _ts, payload in contents}
        found_encrypted = 0
        for pba in range(ssd.device.geometry.total_blocks):
            for ppa in ssd.device.geometry.pages_of_block(pba):
                page = ssd.device.peek_page(ppa)
                if isinstance(page.data, DeltaPage):
                    for record in page.data.records:
                        assert isinstance(record.payload, EncryptedPayload)
                        assert record.payload.ciphertext not in plaintexts
                        found_encrypted += 1
        # RAM-buffered records are encrypted too.
        ram_records = [
            r
            for state in ssd.deltas._segments.values()
            for r in state.buffer
        ]
        for record in ram_records:
            assert isinstance(record.payload, EncryptedPayload)
        assert found_encrypted + len(ram_records) > 0

    def test_unkeyed_device_needs_no_unlock(self):
        ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
        with pytest.raises(QueryError):
            ssd.unlock_retention(KEY)
        ssd.write(1)
        ssd.write(1)
        versions, _ = ssd.version_chain(1)  # no lock in the way
        assert len(versions) == 2
