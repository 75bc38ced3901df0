"""LZF compression, implemented from scratch (paper §4 uses LibLZF).

LZF trades ratio for speed, which is why the paper picked it for on-
controller delta compression.  The format is LibLZF's:

* control byte ``< 32``: a literal run of ``ctrl + 1`` bytes follows;
* control byte ``>= 32``: a back-reference.  ``length = (ctrl >> 5) + 2``;
  a length field of 7 is extended by the next byte.  The reference
  distance is ``(((ctrl & 0x1f) << 8) | last_byte) + 1``.

:func:`compress` and :func:`decompress` round-trip arbitrary bytes.
"""

from repro.common.errors import ReproError

_MAX_OFFSET = 1 << 13  # 8 KiB window, as in LibLZF
_MAX_LITERAL = 32
_MAX_MATCH = 264  # 2 + 7 + 255


def compress(data):
    """LZF-compress ``data``; returns the compressed bytes.

    The output can be longer than the input for incompressible data
    (worst case ~3% overhead); callers that care should compare lengths.

    Each position outside a match looks its 3-byte key up in a table of
    the key's last such position (positions inside a match are never
    entered) and takes a match there when it lies within
    ``_MAX_OFFSET``.  A byte that starts no match costs nothing beyond
    that lookup: the pending literals are the slice ``data[start:i]``,
    written out in ``_MAX_LITERAL``-byte runs only when a match (or the
    end) closes it.  ``tests/timessd/test_lzf.py`` holds the output to
    a byte-at-a-time reference encoder, byte for byte.
    """
    data = bytes(data)
    n = len(data)
    out = bytearray()
    table = {}
    start = 0  # the pending literal run is data[start:i]
    i = 0
    while i < n - 2:
        key = data[i : i + 3]
        ref = table.get(key)
        table[key] = i
        if ref is None or i - ref > _MAX_OFFSET:
            i += 1
            continue
        end = i + _MAX_MATCH if n - i > _MAX_MATCH else n
        j = i + 3
        k = ref + 3
        while j < end and data[j] == data[k]:
            j += 1
            k += 1
        if start < i:
            while i - start > _MAX_LITERAL:
                out.append(_MAX_LITERAL - 1)
                out += data[start : start + _MAX_LITERAL]
                start += _MAX_LITERAL
            out.append(i - start - 1)
            out += data[start:i]
        offset = i - ref - 1
        encoded = j - i - 2
        if encoded < 7:
            out.append((encoded << 5) | (offset >> 8))
        else:
            out.append((7 << 5) | (offset >> 8))
            out.append(encoded - 7)
        out.append(offset & 0xFF)
        i = start = j
    while start < n:
        out.append(min(n - start, _MAX_LITERAL) - 1)
        out += data[start : start + _MAX_LITERAL]
        start += _MAX_LITERAL
    return bytes(out)


def decompress(blob, expected_length=None):
    """Inverse of :func:`compress`.

    ``expected_length``, when given, is verified against the output.
    """
    blob = bytes(blob)
    out = bytearray()
    i = 0
    n = len(blob)
    while i < n:
        ctrl = blob[i]
        i += 1
        if ctrl < _MAX_LITERAL:
            run = ctrl + 1
            if i + run > n:
                raise ReproError("corrupt LZF stream: literal run past end")
            out.extend(blob[i : i + run])
            i += run
        else:
            length = ctrl >> 5
            if length == 7:
                if i >= n:
                    raise ReproError("corrupt LZF stream: missing length byte")
                length += blob[i]
                i += 1
            length += 2
            if i >= n:
                raise ReproError("corrupt LZF stream: missing offset byte")
            distance = (((ctrl & 0x1F) << 8) | blob[i]) + 1
            i += 1
            start = len(out) - distance
            if start < 0:
                raise ReproError("corrupt LZF stream: reference before start")
            if distance >= length:
                out += out[start : start + length]
            else:
                # The reference overlaps its own output: the last
                # ``distance`` bytes repeat until ``length`` are written.
                pattern = out[start:]
                repeats, rest = divmod(length, distance)
                out += pattern * repeats + pattern[:rest]
    if expected_length is not None and len(out) != expected_length:
        raise ReproError(
            "LZF length mismatch: expected %d, got %d" % (expected_length, len(out))
        )
    return bytes(out)
