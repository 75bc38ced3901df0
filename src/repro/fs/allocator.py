"""Bitmap block allocator for the file-system substrates."""

from repro.common.errors import FileSystemError


class BlockAllocator:
    """Allocates logical page addresses from a contiguous region.

    Next-fit scanning with a free count, like a classic FS block bitmap.
    """

    def __init__(self, start_lpa, count):
        if count <= 0:
            raise FileSystemError("allocator needs a non-empty region")
        self.start_lpa = start_lpa
        self.count = count
        self._used = bytearray(count)
        self._free = count
        self._cursor = 0

    @property
    def free_count(self):
        return self._free

    @property
    def used_count(self):
        return self.count - self._free

    def allocate(self):
        """Return a free LPA, or raise :class:`FileSystemError`."""
        if self._free == 0:
            raise FileSystemError("file system out of space")
        for probe in range(self.count):
            index = (self._cursor + probe) % self.count
            if not self._used[index]:
                self._used[index] = 1
                self._free -= 1
                self._cursor = (index + 1) % self.count
                return self.start_lpa + index
        raise FileSystemError("allocator free count out of sync")

    def release(self, lpa):
        index = lpa - self.start_lpa
        if not 0 <= index < self.count:
            raise FileSystemError("LPA %d outside allocator region" % lpa)
        if not self._used[index]:
            raise FileSystemError("double free of LPA %d" % lpa)
        self._used[index] = 0
        self._free += 1
