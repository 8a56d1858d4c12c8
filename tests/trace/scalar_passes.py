"""Per-event scalar analysis passes: the oracle for every vectorized ``consume``.

Before the columnar event pipeline, each pass folded the event stream one
event at a time through ``on_instr``/``on_mem``/``on_branch`` hooks,
bracketed by ``begin_block``/``end_block`` per profiled block.  Those hooks
are kept here as an independent reference: each ``Scalar*`` class below
subclasses the shipped pass, keeps its ``begin_kernel``/``end_kernel``, and
replaces ``consume`` with a per-block replay through the hooks.  A shipped
``consume`` must produce section bytes identical to its scalar twin on any
batch (``tests/trace/test_passes.py``).
"""

from typing import Dict, Tuple

import numpy as np

from repro.simt.types import WARP_SIZE
from repro.trace.ilp import IlpTrackerBank
from repro.trace.passes.branch import BranchPass
from repro.trace.passes.coalescing import CoalescingPass
from repro.trace.passes.ilp import IlpPass, _reg_deps
from repro.trace.passes.mix import MixPass
from repro.trace.passes.reuse import ReusePass
from repro.trace.passes.shared import NUM_BANKS, _WORD_MASK, SharedPass
from repro.trace.passes.texture import TexturePass
from repro.trace.reuse import distinct_lines


class ScalarReplay:
    """Mixin: ``consume`` replays a batch per profiled block, in ascending
    order, through the per-event hooks — filtering events by subscription,
    mem space and participation, as the per-event collector did."""

    def consume(self, batch):
        subs = self.subscribes
        want_instr = "instr" in subs
        want_mem = "mem" in subs
        want_branch = "branch" in subs
        spaces = self.mem_spaces
        nthreads = batch.nthreads
        nwarps = batch.nwarps
        events = batch.events
        for i, linear in enumerate(batch.block_ids):
            self.begin_block(linear, nthreads, nwarps)
            for ev in events:
                tag = ev[0]
                if tag == "instr":
                    if want_instr and ev[3][i]:
                        self.on_instr(ev[1], ev[2], int(ev[3][i]), int(ev[5][i]), ev[4][i])
                elif tag == "mem":
                    if want_mem and ev[2] in spaces:
                        row = ev[6][i]
                        if row.any():
                            self.on_mem(ev[1], ev[3], ev[4], ev[5][i], row)
                elif want_branch:
                    wa = ev[3][i]
                    if wa.any():
                        self.on_branch(ev[1], ev[2], wa, ev[4][i])
            self.end_block()

    def begin_block(self, block_idx, nthreads, nwarps):
        pass

    def end_block(self):
        pass


class ScalarMix(ScalarReplay, MixPass):
    def begin_block(self, block_idx, nthreads, nwarps):
        self._warp_counts = np.zeros(nwarps, dtype=np.int64)

    def on_instr(self, stmt, category, lanes, nwarps, warp_mask):
        self._warp_counts += warp_mask
        rec = self._sid_acc.get(stmt.sid)
        if rec is None:
            self._sid_acc[stmt.sid] = [lanes, nwarps, category.value]
        else:
            rec[0] += lanes
            rec[1] += nwarps

    def end_block(self):
        counts = self._warp_counts
        if counts.size > 1 and counts.sum() > 0:
            mean = counts.mean()
            if mean > 0:
                self._cv_sum += float(counts.std() / mean)
                self._cv_blocks += 1
        elif counts.size >= 1:
            self._cv_blocks += 1


class ScalarIlp(ScalarReplay, IlpPass):
    def begin_block(self, block_idx, nthreads, nwarps):
        self._stream = []

    def on_instr(self, stmt, category, lanes, nwarps, warp_mask):
        sid = stmt.sid
        feeds = self._feeds.get(sid)
        if feeds is None:
            deps = _reg_deps(stmt)
            self._deps[sid] = deps
            feeds = deps[0] is not None or bool(deps[1])
            self._feeds[sid] = feeds
        if feeds:
            self._stream.append(sid)

    def end_block(self):
        stream = self._stream
        if not stream:
            return
        key = tuple(stream)
        contrib = self._contribs.get(key)
        if contrib is None:
            bank = IlpTrackerBank(self.config.ilp_windows)
            for sid in stream:
                dest, srcs = self._deps[sid]
                bank.note(dest, srcs)
            bank.flush()
            contrib = bank.contribution()
            self._contribs[key] = contrib
        self._bank.add_contribution(contrib)


class ScalarBranch(ScalarReplay, BranchPass):
    def begin_kernel(self, kernel, profile):
        super().begin_kernel(kernel, profile)
        self._cache: Dict[tuple, Tuple[int, int, float, float]] = {}

    def on_branch(self, stmt, kind, warp_active, warp_taken):
        key = (warp_active.tobytes(), warp_taken.tobytes())
        c = self._cache.get(key)
        if c is None:
            has = warp_active > 0
            active = warp_active[has]
            taken = warp_taken[has]
            if active.size == 0:
                c = (0, 0, 0.0, 0.0)
            else:
                divergent = (taken > 0) & (taken < active)
                frac = taken / active
                c = (active.size, int(divergent.sum()), float(frac.sum()), float((frac * frac).sum()))
            self._cache[key] = c
        n, div, frac_sum, frac_sqsum = c
        if n == 0:
            return
        b = self._stats
        b.events += n
        if kind == "loop":
            b.loop_events += n
        else:
            b.if_events += n
        b.divergent += div
        b.taken_frac_sum += frac_sum
        b.taken_frac_sqsum += frac_sqsum


class ScalarCoalescing(ScalarReplay, CoalescingPass):
    def begin_block(self, block_idx, nthreads, nwarps):
        # Local-stride state persists across one block's events only.
        self._prev_addr: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def on_mem(self, stmt, kind, elem_size, addrs, act):
        elem = np.array([elem_size], dtype=np.int64)
        self._fold([stmt.sid], elem, addrs[None], act[None], self._prev_addr)


class ScalarShared(ScalarReplay, SharedPass):
    def begin_kernel(self, kernel, profile):
        super().begin_kernel(kernel, profile)
        self._cache: Dict[bytes, Tuple[int, float, int]] = {}

    def on_mem(self, stmt, kind, elem_size, addrs, act):
        # A row's contribution repeats across blocks (shared addresses are
        # block-relative), so it is cached by (mask, active addresses).
        active = addrs[act]
        ckey = act.tobytes() + active.tobytes()
        cached = self._cache.get(ckey)
        if cached is None:
            nwarps = act.size // WARP_SIZE
            word = active >> 2
            bank = word % NUM_BANKS
            wid = np.flatnonzero(act) // WARP_SIZE
            # Distinct (warp, bank, word) triples: same-word lanes broadcast
            # for free; distinct words on the same bank serialise.
            key = (wid << 44) | (bank << 38) | (word & _WORD_MASK)
            wb = np.unique(key) >> 38  # (warp, bank) pairs
            pairs, counts = np.unique(wb, return_counts=True)
            warp_of = pairs >> 6
            degree = np.zeros(nwarps, dtype=np.int64)
            np.maximum.at(degree, warp_of, counts)
            present = np.zeros(nwarps, dtype=bool)
            present[warp_of] = True
            cached = (
                int(present.sum()),
                float(degree[present].sum()),
                int((degree[present] > 1).sum()),
            )
            self._cache[ckey] = cached
        s = self._s
        s.accesses += cached[0]
        s.conflict_degree_sum += cached[1]
        s.conflicted += cached[2]


class ScalarReuse(ScalarReplay, ReusePass):
    def on_mem(self, stmt, kind, elem_size, addrs, act):
        self._stream.extend(distinct_lines(addrs, act, self.config.line_bits))


class ScalarTexture(ScalarReplay, TexturePass):
    def on_mem(self, stmt, kind, elem_size, addrs, act):
        self._fold(addrs[None, None], act[None, None])


#: Scalar twin of every shipped pass, by pass name.
SCALAR_PASSES = {
    cls.name: cls
    for cls in (
        ScalarMix,
        ScalarIlp,
        ScalarBranch,
        ScalarCoalescing,
        ScalarShared,
        ScalarReuse,
        ScalarTexture,
    )
}
