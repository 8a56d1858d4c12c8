"""Global-memory line-reuse (locality) pass.

Feeds each warp access's distinct 128B lines into the launch's reuse
stream; the section is the power-of-two reuse histogram plus
cold-miss/unique-line counts in :class:`~repro.trace.profile.LocalityStats`.
"""

from __future__ import annotations

from repro.simt.ir import MemSpace
from repro.trace.passes.base import AnalysisPass, register_pass
from repro.trace.reuse import ReuseStream, distinct_lines


@register_pass
class ReusePass(AnalysisPass):
    name = "reuse"
    subscribes = frozenset({"mem"})
    mem_spaces = frozenset({MemSpace.GLOBAL})
    fields = ("locality",)

    def begin_kernel(self, kernel, profile):
        self._stream = ReuseStream()

    def consume(self, batch):
        # Block-major rows give each (block, event) its lines in stream order.
        for _, addrs, act, _ in batch.mem_chunks(MemSpace.GLOBAL):
            rows = (addrs.swapaxes(0, 1), act.swapaxes(0, 1))
            self._stream.extend(distinct_lines(*rows, self.config.line_bits))

    def end_kernel(self, profile):
        self._stream.fill(profile.locality)
        self._stream = None
