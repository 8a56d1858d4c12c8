"""Streaming Fenwick-tree stack-distance tracker: the reuse-distance oracle.

This was the collector's reuse engine before the offline merge-sort-tree
computation in :mod:`repro.trace.reuse` replaced it.  It keeps each line's
most recent access time marked in a Fenwick tree over timestamps; the
reuse distance of an access is the number of marked slots after the line's
previous access.  Capacity grows by doubling and rebuilds the tree from the
live line set, which carries the growth defect that
:func:`repro.trace.reuse.apply_growth_defect` reproduces: the rebuild at a
reuse access re-marks that access's already-unmarked previous slot.
"""

from typing import Dict

import numpy as np

_NUM_BUCKETS = 64


class ReuseDistanceTracker:
    """Streams cache-line accesses and histograms their LRU stack distances."""

    def __init__(self) -> None:
        self._last_time: Dict[int, int] = {}
        self._time = 0
        self._cap = 1024
        self._tree = [0] * (self._cap + 1)
        self._hist = [0] * _NUM_BUCKETS
        self.cold_misses = 0
        self.accesses = 0

    @property
    def histogram(self) -> np.ndarray:
        """``histogram[b]`` counts accesses with distance in [2**(b-1), 2**b)."""
        return np.array(self._hist, dtype=np.int64)

    def access(self, line: int) -> int:
        """Record an access; returns the reuse distance (-1 if cold)."""
        self.accesses += 1
        tree = self._tree
        cap = self._cap
        last = self._last_time
        prev = last.get(line)
        if prev is None:
            distance = -1
            self.cold_misses += 1
        else:
            # Marked slots after prev = total marked - prefix(prev + 1).
            i = prev + 1
            s = 0
            while i > 0:
                s += tree[i]
                i -= i & (-i)
            distance = len(last) - s
            self._hist[distance.bit_length()] += 1
            i = prev + 1
            while i <= cap:
                tree[i] -= 1
                i += i & (-i)
        t = self._time
        if t >= cap:
            self._grow()
            tree = self._tree
            cap = self._cap
        i = t + 1
        while i <= cap:
            tree[i] += 1
            i += i & (-i)
        last[line] = t
        self._time = t + 1
        return distance

    def _grow(self) -> None:
        """Double capacity, rebuilding from the live line set only."""
        while self._time >= self._cap:
            self._cap *= 2
        cap = self._cap
        tree = [0] * (cap + 1)
        for t in self._last_time.values():
            i = t + 1
            while i <= cap:
                tree[i] += 1
                i += i & (-i)
        self._tree = tree

    @property
    def unique_lines(self) -> int:
        return len(self._last_time)
