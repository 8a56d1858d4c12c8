"""Instruction-mix pass: thread/warp category counts, SIMD efficiency and
warp-issue imbalance.

Mix counters are additive per static statement: accumulate
``[lanes, warps, category]`` per sid and fold at kernel end instead of
updating two category dicts on every event (the fold iterates sids in
first-occurrence order, matching a direct accumulation exactly).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.simt.types import WARP_SIZE
from repro.trace.passes.base import AnalysisPass, register_pass, sum_in_order


@register_pass
class MixPass(AnalysisPass):
    name = "mix"
    subscribes = frozenset({"instr"})
    fields = (
        "thread_instrs",
        "warp_instrs",
        "simd_lane_sum",
        "simd_slot_sum",
        "warp_imbalance_cv",
    )

    def begin_kernel(self, kernel, profile):
        self._sid_acc: Dict[int, list] = {}
        self._cv_sum = 0.0
        self._cv_blocks = 0

    def consume(self, batch):
        # Category counters are per-sid integer sums, folded from event
        # columns (sids in first-occurrence order).  Events recorded under
        # one active mask share their arrays, so each distinct array is
        # reduced once and weighted by its multiplicity.  A zero-lane row
        # has an all-false warp mask, so unconditional sums skip
        # non-participating blocks.
        evs = [ev for ev in batch.events if ev[0] == "instr"]
        if evs:
            lanes_u, lanes_inv = _distinct(evs, 3)
            masks_u, masks_inv = _distinct(evs, 4)
            masks = np.stack(masks_u)
            counts = np.einsum("u,upw->pw", np.bincount(masks_inv), masks)
            lanes = np.stack(lanes_u).sum(axis=1)[lanes_inv]
            warps = np.count_nonzero(masks, axis=(1, 2))[masks_inv]
            sids = np.fromiter((ev[1].sid for ev in evs), np.int64, len(evs))
            uniq, first, inverse = np.unique(sids, return_index=True, return_inverse=True)
            lanes_by_sid = np.zeros(uniq.size, dtype=np.int64)
            warps_by_sid = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(lanes_by_sid, inverse, lanes)
            np.add.at(warps_by_sid, inverse, warps)
            acc = self._sid_acc
            for j in np.argsort(first).tolist():
                sid = int(uniq[j])
                rec = acc.get(sid)
                if rec is None:
                    acc[sid] = [int(lanes_by_sid[j]), int(warps_by_sid[j]), evs[first[j]][2].value]
                else:
                    rec[0] += int(lanes_by_sid[j])
                    rec[1] += int(warps_by_sid[j])
        else:
            counts = np.zeros((len(batch.block_ids), batch.nwarps), dtype=np.int64)
        # Per-block CV of the warp issue counts.  A block with one warp, or
        # with no issued instruction, counts toward the mean as a 0 CV.
        if batch.nwarps > 1:
            busy = counts.sum(axis=1) > 0
            rows = counts[busy]
            cvs = rows.std(axis=1) / rows.mean(axis=1)
            # _cv_sum is a real float sum: add the block CVs in block order.
            self._cv_sum = sum_in_order(self._cv_sum, cvs)
        self._cv_blocks += len(batch.block_ids)

    def end_kernel(self, profile):
        p = profile
        for lanes_sum, warps_sum, cat in self._sid_acc.values():
            p.thread_instrs[cat] = p.thread_instrs.get(cat, 0) + lanes_sum
            p.warp_instrs[cat] = p.warp_instrs.get(cat, 0) + warps_sum
            p.simd_lane_sum += lanes_sum
            p.simd_slot_sum += warps_sum * WARP_SIZE
        p.warp_imbalance_cv = self._cv_sum / self._cv_blocks if self._cv_blocks else 0.0
        self._sid_acc = {}


def _distinct(evs, col):
    """Distinct array objects in column ``col`` of ``evs``, with each event's
    index into them (arrays are compared by identity, not content)."""
    ids = np.fromiter((id(ev[col]) for ev in evs), np.int64, len(evs))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    return [evs[i][col] for i in first.tolist()], inverse
