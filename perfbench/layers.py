"""Layer-by-layer host-time tracing of the pipeline, from outside the program.

The traced run never edits the program: :func:`install` replaces the public
entry points of each layer with thin wrappers that record a span around the
call (and a few counters after it), and :meth:`Patches.restore` puts the
originals back.  Spans are kept in memory as ``[name, start, end, parent]``
records and written out once, when the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  When spans nest inside their parents and the root spans are
disjoint (checked), the self times sum to the host time the spans cover,
and the rest of the traced wall is the residual ``other.s``.

Wrap points (layer -> what is wrapped):

=====================  ====================================================
``repro.trace``        ``AnalysisPass.consume`` of every registered pass;
                       ``KernelTraceCollector.on_batch`` (batch count only)
``repro.simt``         ``Executor.launch``; ``EventRecorder.finish``;
                       ``run_workload`` (reads ``engine_stats``, the
                       executor's ``launch_stats_totals``)
``repro.workloads``    ``Workload.run`` / ``Workload.check`` of every
                       registered workload class
``repro.core.runtime`` ``ProfileCache.lookup`` / ``ProfileCache.store``
``repro.core.analysis````FeatureMatrix.from_profiles`` and the names
                       ``repro.core.pipeline.analyze`` calls: ``standardize``,
                       ``fit_pca``, ``linkage``, ``choose_k``,
                       ``representatives``, ``analyze_subspace``
``repro.uarch``        ``run_sweep``; ``repro.api.evaluate`` (its self time,
                       net of the sweep and any analysis, is the subset
                       selection: k-means, representatives, evaluate_subset)
``repro.cli``          ``import repro.cli`` in a fresh interpreter
                       (see ``child.py``)
=====================  ====================================================
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

PASSES = ("mix", "ilp", "branch", "coalescing", "shared", "reuse", "texture")
TIERS = ("clear", "symbolic_clear", "footprint_grouped", "pinned")

#: Span name -> per-layer metric holding the spans' summed self time.
SPAN_METRICS: Dict[str, str] = {
    **{f"trace.pass.{p}": f"trace.pass.{p}.s" for p in PASSES},
    "simt.launch": "simt.launch.self_s",
    "simt.record": "simt.record.s",
    "workloads.host": "workloads.host.s",
    "workloads.check": "workloads.check.s",
    "runtime.cache.lookup": "runtime.cache.lookup_s",
    "runtime.cache.store": "runtime.cache.store_s",
    "analysis.features": "analysis.features.s",
    "analysis.pca": "analysis.pca.s",
    "analysis.hier": "analysis.hier.s",
    "analysis.kmeans_bic": "analysis.kmeans_bic.s",
    "analysis.subspace": "analysis.subspace.s",
    "analysis.representatives": "analysis.representatives.s",
    "uarch.sweep": "uarch.sweep.s",
    "uarch.select": "uarch.select.s",
    "cli.import": "cli.import.s",
}

#: Counters summed across traced passes (then divided by the pass count).
COUNTERS = (
    *(f"trace.pass.{p}.events" for p in PASSES),
    "trace.batch.n",
    "simt.launch.n",
    "simt.blocks.n",
    "simt.batches.n",
    "simt.batched_blocks.n",
    *(f"simt.tier.{t}.n" for t in TIERS),
    "runtime.cache.lookup.n",
    "runtime.cache.store.n",
    "runtime.cache.shard_bytes",
    "uarch.sweep.cells.n",
)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None,
              before: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span; ``before(args)`` / ``after(args, result)``
        update counters outside the span."""
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, fn: Callable, after: Callable) -> Callable:
        """Wrap ``fn`` without a span, calling ``after(args, result)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def to_json(self) -> Dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def merge(self, doc: Dict) -> None:
        """Add a child process's spans (as roots) and counters."""
        offset = len(self.spans)
        for name, start, end, parent in doc["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        for name, n in doc["counters"].items():
            self.counters[name] += n


def self_times(spans: List[list]) -> Dict[str, float]:
    """Summed self time per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - child_time[i]
    return out


def check_spans(spans: List[list]) -> None:
    """Raise ``ValueError`` unless every span lies inside its parent and the
    root spans are disjoint, so that no self time is negative and no host
    time is counted twice.  ``perf_counter`` is system-wide here, so spans
    merged from child processes compare on one clock."""
    for name, start, end, parent in spans:
        if end < start:
            raise ValueError(f"span {name} ends before it starts")
        if parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            raise ValueError(f"span {name} is not inside its parent {spans[parent][0]}")
    roots = sorted((start, end, name) for name, start, end, parent in spans if parent < 0)
    for (_s0, end0, name0), (start1, _e1, name1) in zip(roots, roots[1:]):
        if start1 < end0:
            raise ValueError(f"root spans {name0} and {name1} overlap")


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, had_own, old in reversed(self._undo):
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's entry points with ``tracer``'s spans and counters."""
    import repro.api as api
    import repro.core.pipeline as pipeline
    import repro.core.runtime as runtime
    import repro.uarch as uarch
    import repro.uarch.sweep as sweep_mod
    import repro.workloads.runner as runner
    from repro.core.featurespace import FeatureMatrix
    from repro.simt.events import EventRecorder
    from repro.simt.executor import Executor
    from repro.trace.collector import KernelTraceCollector
    from repro.trace.passes import get_pass, pass_names
    from repro.workloads import registry

    patches = Patches()
    count = tracer.count

    # -- repro.trace: per-pass consume, events counted by subscription.
    last_batch: list = [None, {}]

    def batch_kinds(batch) -> Dict:
        if last_batch[0] is not batch:
            kinds: Dict = defaultdict(int)
            for ev in batch.events:
                kinds[(ev[0], ev[2] if ev[0] == "mem" else None)] += 1
            last_batch[0], last_batch[1] = batch, kinds
        return last_batch[1]

    for name in pass_names():
        cls = get_pass(name)
        subs = cls.subscribes
        spaces = cls.mem_spaces

        def before(args, name=name, subs=subs, spaces=spaces):
            n = 0
            for (tag, space), k in batch_kinds(args[1]).items():
                if tag in subs and (tag != "mem" or space in spaces):
                    n += k
            count(f"trace.pass.{name}.events", n)

        patches.set(cls, "consume", tracer.timed(f"trace.pass.{name}", cls.consume, before=before))
    patches.set(
        KernelTraceCollector, "on_batch",
        tracer.counted(KernelTraceCollector.on_batch, lambda a, r: count("trace.batch.n")),
    )

    # -- repro.simt
    patches.set(Executor, "launch", tracer.timed("simt.launch", Executor.launch))
    patches.set(EventRecorder, "finish", tracer.timed("simt.record", EventRecorder.finish))

    def engine_totals(args, profile) -> None:
        stats = getattr(profile, "engine_stats", None) or {}
        count("simt.launch.n", stats.get("launches", 0))
        count("simt.blocks.n", stats.get("blocks", 0))
        count("simt.batches.n", stats.get("batches", 0))
        count("simt.batched_blocks.n", stats.get("batched_blocks", 0))
        for tier, n in (stats.get("hazard_tiers") or {}).items():
            count(f"simt.tier.{tier}.n", n)

    counted_run = tracer.counted(runner.run_workload, engine_totals)
    patches.set(runner, "run_workload", counted_run)
    patches.set(runtime, "run_workload", counted_run)

    # -- repro.workloads
    for cls in registry.all_workloads():
        patches.set(cls, "run", tracer.timed("workloads.host", cls.run))
        patches.set(cls, "check", tracer.timed("workloads.check", cls.check))

    # -- repro.core.runtime
    def lookup_done(args, hit) -> None:
        count("runtime.cache.lookup.n")
        if hit is not None and not hit[2]:
            count("runtime.cache.hit.n")

    def store_done(args, path) -> None:
        count("runtime.cache.store.n")
        count("runtime.cache.shard_bytes", os.path.getsize(path))

    cache_cls = runtime.ProfileCache
    patches.set(cache_cls, "lookup", tracer.timed("runtime.cache.lookup", cache_cls.lookup, lookup_done))
    patches.set(cache_cls, "store", tracer.timed("runtime.cache.store", cache_cls.store, store_done))

    # -- repro.core.analysis (the names pipeline.analyze resolves at call time)
    from_profiles = vars(FeatureMatrix)["from_profiles"].__func__
    patches.set(FeatureMatrix, "from_profiles",
                classmethod(tracer.timed("analysis.features", from_profiles)))
    for attr, span in (
        ("standardize", "analysis.features"),
        ("fit_pca", "analysis.pca"),
        ("linkage", "analysis.hier"),
        ("choose_k", "analysis.kmeans_bic"),
        ("representatives", "analysis.representatives"),
        ("analyze_subspace", "analysis.subspace"),
    ):
        patches.set(pipeline, attr, tracer.timed(span, getattr(pipeline, attr)))

    # -- repro.uarch
    def sweep_done(args, result) -> None:
        count("uarch.sweep.cells.n", result.cache_hits + result.cache_misses)
        count("uarch.sweep.hits.n", result.cache_hits)

    timed_sweep = tracer.timed("uarch.sweep", sweep_mod.run_sweep, sweep_done)
    patches.set(uarch, "run_sweep", timed_sweep)
    patches.set(sweep_mod, "run_sweep", timed_sweep)
    patches.set(api, "evaluate", tracer.timed("uarch.select", api.evaluate))
    return patches


def layer_metrics(tracer: Tracer, wall: float, passes: int) -> Dict[str, float]:
    """Per-pass means of every layer's self time and counter.

    ``wall`` is the summed host time of the ``passes`` traced passes; the
    time no span covers is ``other.s``.  Raises ``ValueError`` when the
    spans cannot account for the wall time: they overlap (``check_spans``)
    or cover more than the wall.
    """
    check_spans(tracer.spans)
    selfs = self_times(tracer.spans)
    attributed = sum(selfs.values())
    unknown = set(selfs) - set(SPAN_METRICS)
    if unknown:
        raise ValueError(f"spans without a metric: {sorted(unknown)}")
    other = wall - attributed
    if other < -1e-3:
        raise ValueError(f"spans cover {attributed:.3f}s, more than the {wall:.3f}s traced wall")
    out = {metric: selfs.get(span, 0.0) / passes for span, metric in SPAN_METRICS.items()}
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0.0) / passes
    lookups = tracer.counters.get("runtime.cache.lookup.n", 0.0)
    cells = tracer.counters.get("uarch.sweep.cells.n", 0.0)
    out["runtime.cache.hit_ratio"] = (
        tracer.counters.get("runtime.cache.hit.n", 0.0) / lookups if lookups else 0.0
    )
    out["uarch.sweep.hit_ratio"] = (
        tracer.counters.get("uarch.sweep.hits.n", 0.0) / cells if cells else 0.0
    )
    out["other.s"] = other / passes
    out["traced_wall.s"] = wall / passes
    return out


def write_trace(tracer: Tracer, path: str, **extra) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**extra, **tracer.to_json()}, fh)
