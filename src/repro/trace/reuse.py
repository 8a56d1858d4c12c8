"""LRU stack (reuse) distances, computed offline per kernel launch.

A pass buffers its launch's cache-line accesses in a :class:`ReuseStream`
(one array per batch, each row's distinct lines in (block, event) order) and the
whole stream is measured at kernel end.  Mattson's stack distance of the
access at time ``t`` to a line last touched at ``p = prev[t]`` is the
number of distinct lines touched in ``(p, t)``: the accesses in that window
minus those whose own previous access also lies inside it,

    d(t) = (t - p - 1) - #{j < t : prev[j] > p}.

Only a reuse can have ``prev[j] > p >= 0``, so the dominance count comes
from a merge-sort tree over the reuses' ``prev`` values: at each
power-of-two level the reuses before ``t`` contribute at most one aligned
block, whose sorted values answer the query with one ``searchsorted``.  Each level is one sort plus one batched search, so the
whole stream costs O(N log² N) in a few dozen numpy calls.

Distances are recorded in power-of-two histogram buckets, which is all the
locality characteristics need (they read the CDF at a handful of
thresholds).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Number of power-of-two histogram buckets (covers distances up to 2**63).
_NUM_BUCKETS = 64
#: Stream position of the first capacity growth of the historical tracker.
_GROWTH_START = 1024
#: Sorts after every real line (typed, so narrower inputs promote to it).
_PAST_LAST = np.int64(np.iinfo(np.int64).max)


def distinct_lines(addrs: np.ndarray, act: np.ndarray, line_bits: int) -> np.ndarray:
    """Each row's sorted distinct active lines, concatenated in row order.

    ``addrs``/``act`` have lanes on the last axis; every other axis is
    flattened row-major.  Row ``r`` contributes exactly
    ``np.unique(addrs[r][act[r]] >> line_bits)``.
    """
    width = addrs.shape[-1]
    act = act.reshape(-1, width)
    lines = np.where(act, addrs.reshape(-1, width) >> line_bits, _PAST_LAST)
    lines.sort(axis=1)
    # Inactive lanes sort last; keep each row's active prefix, first of run.
    keep = np.arange(width) < np.count_nonzero(act, axis=1)[:, None]
    keep[:, 1:] &= lines[:, 1:] != lines[:, :-1]
    return lines[keep]


def previous_access(lines: np.ndarray) -> np.ndarray:
    """``prev[t]``: index of the previous access to ``lines[t]``, -1 if cold."""
    order = np.argsort(lines, kind="stable")
    ordered = lines[order]
    prev = np.full(lines.size, -1, dtype=np.int64)
    same = ordered[1:] == ordered[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def stack_distances(prev: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access, given its
    :func:`previous_access` array; -1 marks a cold miss."""
    n = prev.size
    t = np.flatnonzero(prev >= 0)
    p = prev[t]
    later = np.zeros(t.size, dtype=np.int64)
    # Merge-sort tree over the reuses: level k holds p sorted within aligned
    # blocks of 2**k reuses, as one array keyed block * n + p.  Reuse i's
    # predecessors [0, i) own block (i >> k) - 1 exactly when bit k of i is
    # set.  Each level's keys are sorted runs of the level below, which a
    # stable (merging) sort joins cheaply.
    i = np.arange(t.size, dtype=np.int64)
    keys = i * n + p
    k = 0
    while (1 << k) < t.size:
        if k:
            keys = np.sort(keys - ((i >> (k - 1)) - (i >> k)) * n, kind="stable")
        hit = np.flatnonzero((i >> k) & 1)
        block = (hit >> k) - 1
        later[hit] += ((block + 1) << k) - np.searchsorted(keys, block * n + p[hit], side="right")
        k += 1
    d = np.full(n, -1, dtype=np.int64)
    d[t] = (t - p - 1) - later
    return d


def apply_growth_defect(prev: np.ndarray, d: np.ndarray) -> None:
    """Reproduce, in place, a defect of the Fenwick tracker this replaced.

    That tracker doubled its capacity at stream positions ``g = 1024 * 2**k``
    and rebuilt its tree from the live last-access times *before* recording
    the access at ``g``.  When that access was a reuse, the rebuild re-marked
    its already-unmarked previous slot ``p_g``; the phantom mark lived until
    the next rebuild, so every reuse at ``t`` in ``(g, 2g]`` whose previous
    access is later than ``p_g`` read one too low (a true 0 became -1).
    Pinned profiles carry these values, so they are kept until a re-pin.
    """
    n = prev.size
    g = _GROWTH_START
    while g < n:
        pg = prev[g]
        if pg >= 0:
            window = slice(g + 1, min(2 * g, n - 1) + 1)
            d[window] -= prev[window] > pg
        g *= 2


def reuse_distances(lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(prev, d)`` for a line stream: :func:`previous_access` and the
    distances the passes record, which carry :func:`apply_growth_defect`."""
    prev = previous_access(lines)
    d = stack_distances(prev)
    apply_growth_defect(prev, d)
    return prev, d


class ReuseStream:
    """One launch's line-access stream, measured when the launch ends."""

    def __init__(self) -> None:
        self._parts: List[np.ndarray] = []

    def extend(self, lines: np.ndarray) -> None:
        if lines.size:
            self._parts.append(lines)

    def fill(self, section) -> None:
        """Set ``reuse_histogram``, ``cold_misses``, ``line_accesses`` and
        ``unique_lines`` on a locality or texture profile section.

        Histogram bucket ``b`` counts reuses whose distance has bit length
        ``b`` (bucket 0: immediate re-reference).
        """
        lines = np.concatenate(self._parts) if self._parts else np.zeros(0, dtype=np.int64)
        self._parts = []
        prev, d = reuse_distances(lines)
        reuse = d[prev >= 0]
        # frexp's exponent is the bit length of |d| (exact below 2**53); the
        # defect's -1 lands in bucket 1, as ``(-1).bit_length()`` filed it.
        buckets = np.frexp(reuse.astype(np.float64))[1]
        section.reuse_histogram = np.bincount(buckets, minlength=_NUM_BUCKETS).astype(np.int64)
        section.cold_misses = int(lines.size - reuse.size)
        section.line_accesses = int(lines.size)
        section.unique_lines = section.cold_misses
