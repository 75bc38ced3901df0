import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.timessd import lzf


def test_empty_input():
    assert lzf.compress(b"") == b""
    assert lzf.decompress(b"") == b""


def test_short_literal_roundtrip():
    data = b"abc"
    assert lzf.decompress(lzf.compress(data)) == data


def test_repetitive_data_compresses_well():
    data = b"abcdefgh" * 512
    compressed = lzf.compress(data)
    assert len(compressed) < len(data) // 4
    assert lzf.decompress(compressed, len(data)) == data


def test_zero_page_compresses_extremely_well():
    data = bytes(4096)
    compressed = lzf.compress(data)
    assert len(compressed) < 64
    assert lzf.decompress(compressed, len(data)) == data


def test_random_data_roundtrips():
    data = os.urandom(4096)
    assert lzf.decompress(lzf.compress(data), len(data)) == data


def test_overlapping_match_roundtrip():
    # RLE-like: matches overlap their own output (distance < length).
    data = b"a" * 1000
    assert lzf.decompress(lzf.compress(data), len(data)) == data


def test_long_matches_use_extended_length():
    data = b"x" * 300 + b"y" + b"x" * 300
    assert lzf.decompress(lzf.compress(data), len(data)) == data


def test_length_mismatch_detected():
    blob = lzf.compress(b"hello world")
    with pytest.raises(ReproError):
        lzf.decompress(blob, expected_length=5)


def test_corrupt_stream_rejected():
    with pytest.raises(ReproError):
        lzf.decompress(b"\x1f")  # 32-byte literal run with no payload


def test_corrupt_backreference_rejected():
    # Back-reference before the start of output.
    with pytest.raises(ReproError):
        lzf.decompress(bytes([0x20 | 0x1F, 0xFF]))


@given(data=st.binary(max_size=5000))
@settings(max_examples=200)
def test_roundtrip_property(data):
    assert lzf.decompress(lzf.compress(data), len(data)) == data


@given(
    seed=st.integers(0, 1000),
    block=st.integers(1, 64),
    repeats=st.integers(1, 100),
)
@settings(max_examples=50)
def test_structured_roundtrip_property(seed, block, repeats):
    rng = random.Random(seed)
    chunk = bytes(rng.randrange(4) for _ in range(block))
    data = chunk * repeats
    assert lzf.decompress(lzf.compress(data), len(data)) == data


def _reference_compress(data):
    """The byte-at-a-time LibLZF encoder (what ``compress`` did before it
    kept its pending literals as a slice): one ``bytearray`` append per
    literal byte, flushed by a closure.  The spec ``compress`` must
    match byte for byte."""
    data = bytes(data)
    n = len(data)
    out = bytearray()
    literals = bytearray()
    table = {}
    i = 0

    def flush_literals():
        start = 0
        while start < len(literals):
            run = literals[start : start + 32]
            out.append(len(run) - 1)
            out.extend(run)
            start += len(run)
        del literals[:]

    while i < n - 2:
        key = data[i : i + 3]
        ref = table.get(key)
        table[key] = i
        if ref is not None and 0 < i - ref <= 1 << 13:
            match_limit = min(n - i, 264)
            length = 3
            while length < match_limit and data[ref + length] == data[i + length]:
                length += 1
            flush_literals()
            offset = i - ref - 1
            encoded = length - 2
            if encoded < 7:
                out.append((encoded << 5) | (offset >> 8))
            else:
                out.append((7 << 5) | (offset >> 8))
                out.append(encoded - 7)
            out.append(offset & 0xFF)
            i += length
        else:
            literals.append(data[i])
            i += 1

    literals.extend(data[i:])
    flush_literals()
    return bytes(out)


_PAGE = 1024


@st.composite
def _shaped_pages(draw):
    """Inputs shaped like the codec's: all-zero pages, sparse XOR deltas,
    incompressible bytes and two-letter text, 0 to 2 pages long."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 3, _PAGE, 2 * _PAGE]),
                       st.integers(0, 2 * _PAGE)))
    kind = draw(st.sampled_from(["zero", "sparse", "random", "two-letter"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "zero":
        return bytes(n)
    if kind == "random":
        return rng.randbytes(n)
    if kind == "two-letter":
        return bytes(rng.choice(b"ab") for _ in range(n))
    page = bytearray(n)
    for _ in range(rng.randrange(n // 4 + 1)):
        page[rng.randrange(n)] = rng.randrange(1, 256)
    return bytes(page)


@given(data=st.one_of(st.binary(max_size=2 * _PAGE), _shaped_pages()))
@settings(max_examples=300, deadline=None)
def test_encoder_matches_the_bytewise_reference(data):
    blob = lzf.compress(data)
    assert blob == _reference_compress(data)
    assert lzf.decompress(blob, len(data)) == data


@pytest.mark.parametrize("distance", [8191, 8192, 8193])
def test_the_window_edge_matches_the_reference(distance):
    """A repeat just inside, at and just past the 8 KiB window, which
    inputs of two pages never reach."""
    rng = random.Random(distance)
    head = bytes(range(1, 40))
    data = head + rng.randbytes(distance - len(head)) + head + rng.randbytes(64)
    blob = lzf.compress(data)
    assert blob == _reference_compress(data)
    assert lzf.decompress(blob, len(data)) == data


def _reference_decompress(blob):
    """LibLZF decode, one byte at a time (what ``decompress`` did before
    it copied slices): the spec the slice copies must match."""
    out = bytearray()
    i = 0
    while i < len(blob):
        ctrl = blob[i]
        i += 1
        if ctrl < 32:
            out.extend(blob[i : i + ctrl + 1])
            i += ctrl + 1
            continue
        length = ctrl >> 5
        if length == 7:
            length += blob[i]
            i += 1
        distance = (((ctrl & 0x1F) << 8) | blob[i]) + 1
        i += 1
        start = len(out) - distance
        for k in range(length + 2):
            out.append(out[start + k])
    return bytes(out)


def _backrefs(blob):
    """``(distance, length)`` of every back-reference in a valid stream."""
    refs = []
    i = 0
    while i < len(blob):
        ctrl = blob[i]
        i += 1
        if ctrl < 32:
            i += ctrl + 1
            continue
        length = ctrl >> 5
        if length == 7:
            length += blob[i]
            i += 1
        refs.append(((((ctrl & 0x1F) << 8) | blob[i]) + 1, length + 2))
        i += 1
    return refs


@given(
    period=st.integers(1, 7),
    seed=st.integers(0, 1000),
    repeats=st.integers(4, 400),
    tail=st.binary(max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_overlapping_references_roundtrip(period, seed, repeats, tail):
    """Short-period runs force references that overlap their own output
    (period 1 -> ``distance == 1``; period 3 -> ``distance < length``)."""
    rng = random.Random(seed)
    # Distinct bytes: the period is exact, so the encoder must reach back
    # exactly ``period`` bytes for a match many periods long.
    pattern = bytes(rng.sample(range(256), period))
    data = pattern * repeats + tail
    blob = lzf.compress(data)
    assert any(
        distance == period and distance < length
        for distance, length in _backrefs(blob)
    )
    assert lzf.decompress(blob, len(data)) == data
    assert _reference_decompress(blob) == data


@given(data=st.binary(max_size=3000), cut=st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_decoder_matches_bytewise_reference(data, cut):
    # Low-entropy input so plenty of references of every shape appear.
    data = bytes(b & 0x03 for b in data)
    blob = lzf.compress(data)
    assert lzf.decompress(blob) == _reference_decompress(blob) == data
    # Any truncation of a non-empty stream must fail loudly, never
    # return short output: either the stream itself is cut mid-token or
    # the length check catches the missing tail.
    if blob:
        with pytest.raises(ReproError):
            lzf.decompress(blob[: max(0, len(blob) - cut)], expected_length=len(data))


@pytest.mark.parametrize(
    "blob, message",
    [
        (bytes([0x05, 0x41]), "literal run past end"),
        (bytes([0x00, 0x41, 0xE0]), "missing length byte"),
        (bytes([0x00, 0x41, 0x20]), "missing offset byte"),
        (bytes([0x00, 0x41, 0xE0, 0x01]), "missing offset byte"),
        (bytes([0x00, 0x41, 0x20, 0x01]), "reference before start"),
    ],
)
def test_truncated_and_corrupt_streams_name_the_fault(blob, message):
    with pytest.raises(ReproError, match=message):
        lzf.decompress(blob)
