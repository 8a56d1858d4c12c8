"""Shared-memory bank-conflict pass.

A warp's shared access serialises over the distinct words it touches on
one bank (same-word lanes broadcast for free), so each warp row
contributes its presence, its worst-bank degree, and whether that degree
exceeds one.  ``consume`` reduces every warp row of an event in one pass
of sorts and bincounts.
"""

from __future__ import annotations

import numpy as np

from repro.simt.ir import MemSpace
from repro.simt.types import WARP_SIZE
from repro.trace.passes.base import AnalysisPass, register_pass

#: Number of shared-memory banks (4-byte interleave), as on GT200/Fermi.
NUM_BANKS = 32

#: Word bits kept in a lane's sort key.
_WORD_MASK = (1 << 38) - 1


@register_pass
class SharedPass(AnalysisPass):
    name = "shared"
    subscribes = frozenset({"mem"})
    mem_spaces = frozenset({MemSpace.SHARED})
    fields = ("shmem",)

    def begin_kernel(self, kernel, profile):
        self._s = profile.shmem

    def consume(self, batch):
        # Each event reduces over all its (P * nwarps, 32) warp rows at once.
        # Lanes are keyed by word (its low bits are the bank) with inactive
        # lanes at -1; after a row sort, the first of each run of equal
        # active keys is one distinct word, counted per (row, bank).  All
        # three counters are integer sums over rows, so rows may reduce in
        # any order (conflict_degree_sum adds integer degrees, exact below
        # 2^53).  Events reduce one at a time: concatenating a batch's
        # shared events costs more peak memory than it saves in time.
        s = self._s
        for ev in batch.events:
            if ev[0] != "mem" or ev[2] is not MemSpace.SHARED:
                continue
            act = ev[6].reshape(-1, WARP_SIZE)
            key = np.where(act, (ev[5].reshape(-1, WARP_SIZE) >> 2) & _WORD_MASK, -1)
            key.sort(axis=1)
            first = key >= 0
            first[:, 1:] &= key[:, 1:] != key[:, :-1]
            cell = np.flatnonzero(first) // WARP_SIZE * NUM_BANKS + key[first] % NUM_BANKS
            degree = (
                np.bincount(cell, minlength=act.shape[0] * NUM_BANKS)
                .reshape(-1, NUM_BANKS)
                .max(axis=1)
            )
            s.accesses += int(np.count_nonzero(degree))
            s.conflict_degree_sum += float(degree.sum())
            s.conflicted += int(np.count_nonzero(degree > 1))

    def end_kernel(self, profile):
        self._s = None
