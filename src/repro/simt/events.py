"""Columnar event buffers: the one way execution events reach sinks.

While a *batch* of blocks executes in lockstep, an :class:`EventRecorder`
captures each emitted event once as a set of per-profiled-block numpy
rows, and the whole batch is handed to sinks in a single
:meth:`~repro.simt.sink.TraceSink.on_batch` call.  Both engines record
this way: the compiled engine one batch of blocks at a time, the
interpreter one profiled block at a time (a one-block batch).  Analysis
passes consume the buffers with vectorized reductions over the block-lane
axis (see ``AnalysisPass.consume``).

Buffer schema
-------------

An :class:`EventBatch` covers ``P = len(block_ids)`` profiled blocks (the
ascending linear block ids of the batch's profiled subset).  ``events`` is
the emission-ordered list of records, one tuple per dynamic statement:

``("instr", stmt, category, lanes, warp_mask, warp_counts)``
    ``lanes``: ``(P,) int64`` active-lane popcount per block;
    ``warp_mask``: ``(P, nwarps) bool`` warps with >= 1 active lane;
    ``warp_counts``: ``(P,) int64`` popcount of each ``warp_mask`` row.

``("mem", stmt, space, kind, elem_size, addrs, act)``
    ``addrs``: ``(P, npad) int64`` per-lane byte addresses (copied at record
    time — register arrays are mutated in place by later statements);
    ``act``: ``(P, npad) bool`` active-lane mask rows.

``("branch", stmt, kind, warp_active, warp_taken)``
    ``(P, nwarps) int64`` per-warp active/taken lane counts.

A block *participates* in an event when its row has at least one active
lane.  Restricted to its participating events, a block's row sequence is
exactly the event sequence the block emits when executed alone: lockstep
execution visits the union of the batch's control-flow paths, and a block
absent from a path contributes all-inactive rows there, which are filtered.
This is the columnar pipeline's parity invariant — consumers that filter
rows by participation and accumulate in (block-ascending, event-order)
give the same sections whatever the batch width, floats included; the
per-block scalar oracle in ``tests/trace/scalar_passes.py`` checks it.

Batch membership itself is decided upstream by the planner
(:func:`repro.simt.compiled.plan_batches`): hazard-flagged launches whose
footprints group into contiguous block runs flush a batch at every group
boundary, so a batch never spans two footprint groups.  Because batches
always cover ascending linear block ids, the invariant above is unchanged
— grouping only shortens batches, it never reorders them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.simt.types import WARP_SIZE

#: Lanes per :meth:`EventBatch.mem_chunks` chunk: bounds the working set
#: of the memory passes' whole-batch reductions.
MEM_CHUNK_LANES = 1 << 15


class EventBatch:
    """One batch's recorded events, columnar over the profiled blocks."""

    __slots__ = ("block_ids", "nthreads", "nwarps", "npad", "events")

    def __init__(
        self,
        block_ids: Tuple[int, ...],
        nthreads: int,
        nwarps: int,
        npad: int,
        events: List[tuple],
    ) -> None:
        self.block_ids = block_ids
        self.nthreads = nthreads
        self.nwarps = nwarps
        self.npad = npad
        self.events = events

    def __len__(self) -> int:
        return len(self.block_ids)

    def mem_chunks(self, space) -> Iterator[tuple]:
        """Yield the batch's ``space`` memory events stacked in bounded chunks.

        Each chunk is ``(events, addrs, act, carry)``: the chunk's event
        tuples, their ``(E, B, npad)`` address and mask rows for a run of
        ``B`` blocks, and ``carry``.  Chunks cover whole runs of blocks
        where those blocks' events fit in ``MEM_CHUNK_LANES`` lanes.  A block
        whose events alone do not fit is split along the event axis; its
        chunks then share one fresh ``carry`` dict, so a consumer can carry
        per-block state from one chunk to the next (``None`` otherwise).
        Chunks come block ascending, then in event order.
        """
        evs = [ev for ev in self.events if ev[0] == "mem" and ev[2] is space]
        if not evs:
            return
        P = len(self.block_ids)
        step_b = MEM_CHUNK_LANES // (len(evs) * self.npad)
        step_e = len(evs) if step_b else max(1, MEM_CHUNK_LANES // self.npad)
        step_b = max(step_b, 1)
        for b0 in range(0, P, step_b):
            blocks = slice(b0, b0 + step_b)
            carry = {} if step_e < len(evs) else None
            for e0 in range(0, len(evs), step_e):
                part = evs[e0 : e0 + step_e]
                shape = (len(part), -1, self.npad)
                yield (
                    part,
                    np.concatenate([ev[5][blocks] for ev in part]).reshape(shape),
                    np.concatenate([ev[6][blocks] for ev in part]).reshape(shape),
                    carry,
                )


class EventRecorder:
    """Captures one batch's observation events as columnar buffers.

    Installed on the run state (``st.recorder``) by the compiled driver and
    on each profiled block by the interpreter; both engines' ``_note_*``
    hooks route events here.  Active masks are immutable (every mask update
    allocates) and both engines share one mask across a straight-line run
    of statements, so instruction events store one reference per distinct
    mask object and the per-block reductions happen once per mask in
    :meth:`finish`.  Address arrays *are* mutated in place by later
    statements, so memory events copy their profiled rows eagerly.

    :meth:`finish` also sets ``event_counts`` (events per kind) and
    ``event_bytes`` (bytes held by the batch's buffers, each event's arrays
    counted in full even where events share them) for the engine's stats.
    """

    __slots__ = (
        "block_ids",
        "nthreads",
        "nwarps",
        "npad",
        "_rows",
        "_all",
        "_nblk",
        "_events",
        "_masks",
        "_mask_ids",
        "event_counts",
        "event_bytes",
    )

    def __init__(
        self,
        block_ids: Sequence[int],
        prof_rows: Sequence[int],
        nblk: int,
        npad: int,
        nwarps: int,
        nthreads: int,
    ) -> None:
        self.block_ids = tuple(block_ids)
        self.nthreads = nthreads
        self.nwarps = nwarps
        self.npad = npad
        self._nblk = nblk
        self._all = len(self.block_ids) == nblk
        self._rows = None if self._all else np.asarray(prof_rows, dtype=np.int64)
        self._events: List[tuple] = []
        self._masks: List[np.ndarray] = []
        self._mask_ids: Dict[int, int] = {}

    def _take(self, arr: np.ndarray, copy: bool) -> np.ndarray:
        """Profiled-block rows of a full-batch lane array, ``(P, npad)``."""
        rows = arr.reshape(self._nblk, self.npad)
        if self._all:
            return rows.copy() if copy else rows
        return rows[self._rows]  # fancy indexing copies

    def _warp_rows(self, mask: np.ndarray) -> np.ndarray:
        """Per-warp active-lane counts for the profiled blocks, ``(P, nwarps)``."""
        sub = self._take(mask, copy=False)
        return (
            sub.reshape(-1, WARP_SIZE)
            .sum(axis=1)
            .reshape(len(self.block_ids), self.nwarps)
        )

    # -- hooks called by the engines' _note_* functions ------------------

    def instr(self, stmt, category, act: np.ndarray) -> None:
        slot = self._mask_ids.get(id(act))
        if slot is None:
            slot = len(self._masks)
            self._masks.append(act)
            self._mask_ids[id(act)] = slot
        self._events.append((0, stmt, category, slot))

    def mem(self, stmt, space, kind, esize, addrs: np.ndarray, act: np.ndarray) -> None:
        act_rows = self._take(act, copy=False)
        if not act_rows.any():
            return  # no profiled lane participates: the event is invisible
        self._events.append((1, stmt, space, kind, esize, self._take(addrs, copy=True), act_rows))

    def branch(self, stmt, kind, act: np.ndarray, taken: np.ndarray) -> None:
        wa = self._warp_rows(act)
        if not wa.any():
            return
        self._events.append((2, stmt, kind, wa, self._warp_rows(taken)))

    def finish(self) -> EventBatch:
        """Resolve mask references into columnar buffers and build the batch."""
        P = len(self.block_ids)
        tables = []
        for mask in self._masks:
            sub = self._take(mask, copy=False)
            lanes = sub.sum(axis=1)
            warp_mask = sub.reshape(-1, WARP_SIZE).any(axis=1).reshape(P, self.nwarps)
            warp_counts = np.count_nonzero(warp_mask, axis=1)
            tables.append(
                (lanes, warp_mask, warp_counts, lanes.nbytes + warp_mask.nbytes + warp_counts.nbytes)
                if lanes.any()
                else None
            )
        events: List[tuple] = []
        n_mem = n_branch = nbytes = 0
        for ev in self._events:
            tag = ev[0]
            if tag == 0:
                table = tables[ev[3]]
                if table is None:
                    continue  # no profiled lane participates
                events.append(("instr", ev[1], ev[2], table[0], table[1], table[2]))
                nbytes += table[3]
            elif tag == 1:
                events.append(("mem", ev[1], ev[2], ev[3], ev[4], ev[5], ev[6]))
                n_mem += 1
                nbytes += ev[5].nbytes + ev[6].nbytes
            else:
                events.append(("branch", ev[1], ev[2], ev[3], ev[4]))
                n_branch += 1
                nbytes += ev[3].nbytes + ev[4].nbytes
        self.event_counts = {
            "instr": len(events) - n_mem - n_branch,
            "mem": n_mem,
            "branch": n_branch,
        }
        self.event_bytes = nbytes
        return EventBatch(self.block_ids, self.nthreads, self.nwarps, self.npad, events)
