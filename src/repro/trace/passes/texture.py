"""Texture-fetch pass: access counts plus the fetch stream's line reuse.

The texture path has a dedicated spatially-optimised cache, so the relevant
microarchitecture-independent signal is the locality of the fetch stream,
not transaction counts (no coalescing rules apply).
"""

from __future__ import annotations

import numpy as np

from repro.simt.ir import MemSpace
from repro.simt.types import WARP_SIZE
from repro.trace.passes.base import AnalysisPass, register_pass
from repro.trace.reuse import ReuseStream, distinct_lines


@register_pass
class TexturePass(AnalysisPass):
    name = "texture"
    subscribes = frozenset({"mem"})
    mem_spaces = frozenset({MemSpace.TEXTURE})
    fields = ("texture",)

    def begin_kernel(self, kernel, profile):
        self._t = profile.texture
        self._stream = ReuseStream()

    def _fold(self, addrs, act):
        """Fold ``(E, B, npad)`` event rows over a run of blocks; block-major
        rows give each (block, event) its lines in stream order."""
        t = self._t
        t.accesses += int(np.count_nonzero(act.reshape(-1, WARP_SIZE).any(axis=1)))
        t.lane_accesses += int(np.count_nonzero(act))
        rows = (addrs.swapaxes(0, 1), act.swapaxes(0, 1))
        self._stream.extend(distinct_lines(*rows, self.config.line_bits))

    def consume(self, batch):
        for _, addrs, act, _ in batch.mem_chunks(MemSpace.TEXTURE):
            self._fold(addrs, act)

    def end_kernel(self, profile):
        self._stream.fill(profile.texture)
        self._t = None
        self._stream = None
