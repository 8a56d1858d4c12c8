"""Global-memory coalescing pass: warp transaction counts at two segment
granularities, intra-warp stride classification, and the per-thread
"local stride" histogram (the classic MICA profile)."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.simt.ir import MemSpace
from repro.simt.types import WARP_SIZE
from repro.trace.passes.base import AnalysisPass, register_pass


def _warp_row_stats(g, cfg, A: np.ndarray, M: np.ndarray, elem: np.ndarray) -> None:
    """Fold ``(n, WARP_SIZE)`` warp rows, each with an active lane, into ``g``.

    ``elem`` holds each row's element size.  Every counter is an integer
    sum over independent rows, so rows may come in any order.
    """
    n = A.shape[0]
    active_cnt = np.count_nonzero(M, axis=1)
    g.accesses += n
    g.lane_accesses += int(active_cnt.sum())

    # Transactions: distinct segments touched per warp, at two
    # granularities.  Inactive lanes are filled with the warp's first
    # active address so they never add segments; a right shift keeps the
    # sorted order, so one sort serves both granularities.
    fill = A[np.arange(n), M.argmax(axis=1)][:, None]
    ordered = np.sort(np.where(M, A, fill), axis=1)
    t32 = np.count_nonzero(np.diff(ordered >> cfg.seg_small_bits, axis=1), axis=1) + 1
    t128 = np.count_nonzero(np.diff(ordered >> cfg.seg_large_bits, axis=1), axis=1) + 1
    g.transactions_32b += int(t32.sum())
    g.transactions_128b += int(t128.sum())
    minimal = -(-(active_cnt * elem) // cfg.seg_small)
    g.coalesced += int(np.count_nonzero(t32 <= minimal))

    # Intra-warp stride classification over adjacent active lane pairs.  A
    # warp without such a pair (one active lane, or none adjacent) counts
    # as a broadcast and never as unit stride.
    d = A[:, 1:] - A[:, :-1]
    invalid = ~(M[:, 1:] & M[:, :-1])
    has_pair = ~invalid.all(axis=1)
    unit = ((d == elem[:, None]) | invalid).all(axis=1)
    g.unit_stride += int(np.count_nonzero(has_pair & unit))
    g.broadcast += int(np.count_nonzero(((d == 0) | invalid).all(axis=1)))


def _local_strides(ls: Dict[str, int], addrs, act, sids, elem, carry) -> None:
    """Histogram per-lane consecutive address distances under each sid.

    ``addrs``/``act`` are ``(E, L)`` rows of ``E`` events in order over one
    set of ``L`` lanes (independent threads).  Stable-sorting the events by
    sid and forward-filling each lane's last participating event gives
    every participating lane its predecessor under the same static
    instruction.  ``carry`` (or ``None``) maps a sid to its lanes' last
    ``(address, seen)`` rows from earlier events; they join the rows as
    each sid group's leading row, and leave updated.
    """
    if carry:
        held = [s for s in dict.fromkeys(sids) if s in carry]
        if held:
            addrs = np.concatenate([np.stack([carry[s][0] for s in held]), addrs])
            act = np.concatenate([np.stack([carry[s][1] for s in held]), act])
            sids = held + sids
            elem = np.concatenate([np.zeros(len(held), dtype=np.int64), elem])
    E = len(sids)
    sid = np.array(sids)
    order = np.argsort(sid, kind="stable")
    sorted_sid = sid[order]
    new_group = np.concatenate(([True], sorted_sid[1:] != sorted_sid[:-1]))
    group_start = np.maximum.accumulate(np.where(new_group, np.arange(E), 0))
    participating = act[order]
    last = np.where(participating, np.arange(E, dtype=np.int32)[:, None], np.int32(-1))
    np.maximum.accumulate(last, axis=0, out=last)
    # Sorted event r + 1 pairs with its lane's last participant up to r.
    pred = last[:-1]
    row, lane = np.nonzero(participating[1:] & (pred >= group_start[1:, None]))
    if row.size:
        cur = order[row + 1]
        diffs = np.abs(addrs[cur, lane] - addrs[order[pred[row, lane]], lane])
        e = elem[cur]
        ls["zero"] += int(np.count_nonzero(diffs == 0))
        ls["unit"] += int(np.count_nonzero(diffs == e))
        ls["short"] += int(np.count_nonzero((diffs > e) & (diffs <= 128)))
        ls["long"] += int(np.count_nonzero(diffs > 128))
    if carry is not None:
        ends = np.flatnonzero(np.append(new_group[1:], True))
        tail = last[ends]
        held_addr = addrs[order[np.maximum(tail, 0)], np.arange(addrs.shape[1])]
        seen = tail >= group_start[ends][:, None]
        for g, end in enumerate(ends):
            carry[sorted_sid[end]] = (held_addr[g], seen[g])


@register_pass
class CoalescingPass(AnalysisPass):
    name = "coalescing"
    subscribes = frozenset({"mem"})
    mem_spaces = frozenset({MemSpace.GLOBAL})
    fields = ("gmem",)

    def begin_kernel(self, kernel, profile):
        self._g = profile.gmem

    def _fold(self, sids, elem, addrs, act, carry) -> None:
        """Fold ``E`` events' ``(E, B, npad)`` rows over one run of blocks
        (``sids``/``elem``: each event's static id and element size)."""
        E = len(sids)
        A = addrs.reshape(-1, WARP_SIZE)
        M = act.reshape(-1, WARP_SIZE)
        warp_has = M.any(axis=1)
        row_elem = np.repeat(elem, M.shape[0] // E)
        _warp_row_stats(self._g, self.config, A[warp_has], M[warp_has], row_elem[warp_has])
        _local_strides(
            self._g.local_strides, addrs.reshape(E, -1), act.reshape(E, -1), sids, elem, carry
        )

    def consume(self, batch):
        # Each block appears in one batch only, so local-stride state never
        # crosses blocks.
        for evs, addrs, act, carry in batch.mem_chunks(MemSpace.GLOBAL):
            elem = np.array([ev[4] for ev in evs], dtype=np.int64)
            self._fold([ev[1].sid for ev in evs], elem, addrs, act, carry)

    def end_kernel(self, profile):
        self._g = None
