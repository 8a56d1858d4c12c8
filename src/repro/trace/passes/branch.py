"""Branch-divergence pass.

The statistics are a pure function of the (active, taken) warp vectors.
``consume`` reduces a whole batch at once: integer counters in any order,
the two taken-fraction float sums in (block, event) order.
"""

from __future__ import annotations

import numpy as np

from repro.trace.passes.base import AnalysisPass, register_pass, sum_in_order


@register_pass
class BranchPass(AnalysisPass):
    name = "branch"
    subscribes = frozenset({"branch"})
    fields = ("branch",)

    def begin_kernel(self, kernel, profile):
        self._stats = profile.branch

    def consume(self, batch):
        # Rows are (block, event) pairs in block-major order, the per-block
        # accumulation order.  The integer counters sum at once.
        evs = [ev for ev in batch.events if ev[0] == "branch"]
        if not evs:
            return
        nw = batch.nwarps
        wa = np.stack([ev[3] for ev in evs], axis=1).reshape(-1, nw)
        wt = np.stack([ev[4] for ev in evs], axis=1).reshape(-1, nw)
        loop = np.tile([ev[2] == "loop" for ev in evs], len(batch.block_ids))
        has = wa > 0
        n = np.count_nonzero(has, axis=1)
        b = self._stats
        total = int(n.sum())
        loop_events = int(n[loop].sum())
        b.events += total
        b.loop_events += loop_events
        b.if_events += total - loop_events
        b.divergent += int(np.count_nonzero(has & (wt > 0) & (wt < wa)))
        # taken_frac_sum/sqsum are real float sums.  Each row's sum must
        # reduce exactly its n participating warps, so rows are grouped by
        # n and compacted to (R_n, n) before summing: numpy's pairwise tree
        # then matches a per-event sum over the n warps.  The row sums are added in
        # row order (a non-participating row adds an exact 0.0).
        frac_sum = np.zeros(n.size)
        frac_sqsum = np.zeros(n.size)
        for k in np.unique(n[n > 0]).tolist():
            rows = np.flatnonzero(n == k)
            sel = has[rows]
            frac = (wt[rows][sel] / wa[rows][sel]).reshape(-1, k)
            frac_sum[rows] = frac.sum(axis=1)
            frac_sqsum[rows] = (frac * frac).sum(axis=1)
        b.taken_frac_sum = sum_in_order(b.taken_frac_sum, frac_sum)
        b.taken_frac_sqsum = sum_in_order(b.taken_frac_sqsum, frac_sqsum)

    def end_kernel(self, profile):
        self._stats = None
