"""Byte-bounded memos of read-only numpy arrays.

The h_j quadrature evaluates the same panel rules many times over;
oscillatory._PANEL_RULES keeps the most recent ones in a BoundedCache.
Cached values are the arrays the uncached code computes, frozen, so a
cache hit returns the same bits as a recomputation.  Each memo bounds the
bytes of the arrays it retains: a value larger than the bound is returned
without being stored, so no argument size can make a memo pin more.
"""

from __future__ import annotations

from collections import OrderedDict


class BoundedCache:
    """Least-recently-used map from hashable keys to read-only arrays.

    A value is one array or a tuple of arrays.  At most ``max_entries``
    values are kept, and their arrays hold at most ``max_bytes`` bytes.
    """

    def __init__(self, max_bytes: int, max_entries: int):
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.nbytes = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key, build):
        """The value under ``key``, built by ``build()`` on a miss."""
        try:
            self._data.move_to_end(key)
            return self._data[key][0]
        except KeyError:
            pass
        val = build()
        arrays = val if isinstance(val, tuple) else (val,)
        size = 0
        for a in arrays:
            a.setflags(write=False)
            size += a.nbytes
        if size > self.max_bytes:
            return val
        while self._data and (len(self._data) >= self.max_entries
                              or self.nbytes + size > self.max_bytes):
            self.nbytes -= self._data.popitem(last=False)[1][1]
        self._data[key] = (val, size)
        self.nbytes += size
        return val

    def cache_clear(self) -> None:
        self._data.clear()
        self.nbytes = 0
