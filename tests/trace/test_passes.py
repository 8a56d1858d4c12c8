"""The pluggable analysis-pass architecture.

Covers the pass registry, demand-driven subset collection (subset-run
sections must be bit-identical to the full run's, on both engines), the
collector-config validation, section-level profile merging, and every
pass's vectorized ``consume`` against its per-event scalar twin
(``tests/trace/scalar_passes.py``) on random event batches and on the
batches both engines record for real workloads.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt import Device, Executor, TraceSink
from repro.simt import events as events_mod
from repro.simt.events import EventBatch
from repro.simt.executor import stride_sampler
from repro.simt.ir import Instr, MemSpace, Op, OpCategory, Reg
from repro.simt.types import WARP_SIZE, DType
from repro.trace import PASS_FIELDS, PASS_NAMES, merge_profiles
from repro.trace.collector import CollectorConfig, KernelTraceCollector
from repro.trace.passes import (
    get_pass,
    pass_names,
    pass_source_file,
    resolve_passes,
)
from repro.trace.passes.shared import NUM_BANKS
from repro.trace.profile import KernelProfile, WorkloadProfile, canonical_passes
from repro.trace.serialize import (
    kernel_section_bytes,
    workload_header_bytes,
    workload_section_bytes,
)
from repro.workloads import registry
from repro.workloads.base import RunContext
from repro.workloads.runner import run_workload
from tests.trace.scalar_passes import SCALAR_PASSES

#: Workloads exercising every pass between them (KM fetches textures).
SUBSET_WORKLOADS = ["VA", "HG", "KM"]


# ---------------------------------------------------------------------------
# Registry


def test_every_declared_pass_is_registered():
    assert pass_names() == PASS_NAMES


def test_pass_field_ownership_is_consistent():
    for name in PASS_NAMES:
        cls = get_pass(name)
        assert tuple(cls.fields) == PASS_FIELDS[name]
        assert cls.subscribes  # every pass consumes at least one event kind


def test_resolve_passes_canonicalizes_and_rejects_unknown():
    assert resolve_passes(None) == PASS_NAMES
    assert resolve_passes(["branch", "mix", "mix"]) == ("mix", "branch")
    with pytest.raises(ValueError, match="unknown analysis pass"):
        resolve_passes(["mix", "nonsense"])


def test_pass_source_files_are_distinct_modules():
    files = {pass_source_file(name) for name in PASS_NAMES}
    assert len(files) == len(PASS_NAMES)


def test_collector_subscriptions_shrink_with_passes():
    assert KernelTraceCollector().subscriptions() == {"instr", "mem", "branch"}
    assert KernelTraceCollector(passes=["mix"]).subscriptions() == {"instr"}
    assert KernelTraceCollector(passes=["branch"]).subscriptions() == {"branch"}
    assert KernelTraceCollector(passes=["reuse"]).subscriptions() == {"mem"}


# ---------------------------------------------------------------------------
# Collector-config validation


def test_collector_config_rejects_non_power_of_two_geometry():
    for field in ("line_bytes", "seg_small", "seg_large"):
        with pytest.raises(ValueError, match="power of two"):
            CollectorConfig(**{field: 48})
        with pytest.raises(ValueError, match="power of two"):
            CollectorConfig(**{field: 0})
        with pytest.raises(ValueError, match="power of two"):
            CollectorConfig(**{field: -64})
    # Valid powers of two still derive the shift widths.
    config = CollectorConfig(line_bytes=64, seg_small=16, seg_large=256)
    assert (config.line_bits, config.seg_small_bits, config.seg_large_bits) == (6, 4, 8)


# ---------------------------------------------------------------------------
# Subset parity: a subset run's sections are bit-identical to the full run's


def _profile(abbrev: str, engine: str, passes=None) -> WorkloadProfile:
    return run_workload(
        abbrev, verify=False, sample_blocks=8, engine=engine, passes=passes
    )


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
def test_subset_sections_match_full_run(engine):
    subsets = [("mix",), ("branch",), ("mix", "branch"), ("coalescing", "reuse"), ("ilp", "shared", "texture")]
    for abbrev in SUBSET_WORKLOADS:
        full = _profile(abbrev, engine)
        assert full.passes == PASS_NAMES
        full_headers = workload_header_bytes(full)
        for subset in subsets:
            partial = _profile(abbrev, engine, passes=subset)
            assert partial.passes == canonical_passes(subset)
            # Headers carry the pass list, so compare them via the partial's
            # own pass set spliced into the full profile's header fields.
            for kp_full, kp_part in zip(full.kernels, partial.kernels):
                assert kp_full.kernel_name == kp_part.kernel_name
                assert kp_full.profiled_blocks == kp_part.profiled_blocks
            for name in partial.passes:
                assert workload_section_bytes(partial, name) == workload_section_bytes(
                    full, name
                ), f"{abbrev}/{engine}: pass {name!r} section differs from full run"
        assert full_headers == workload_header_bytes(full)


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
def test_cross_engine_subset_sections_identical(engine):
    # mix+branch subset across engines must also agree bit-for-bit.
    a = _profile("HG", "interpreted", passes=("mix", "branch"))
    b = _profile("HG", "compiled", passes=("mix", "branch"))
    for name in a.passes:
        assert workload_section_bytes(a, name) == workload_section_bytes(b, name)


# ---------------------------------------------------------------------------
# Section merging


def test_merge_profiles_combines_disjoint_sections():
    base = _profile("VA", "compiled", passes=("mix", "branch"))
    update = _profile("VA", "compiled", passes=("coalescing", "reuse"))
    merged = merge_profiles(base, update, update.passes)
    assert merged is not None
    assert merged.passes == ("mix", "branch", "coalescing", "reuse")
    full = _profile("VA", "compiled", passes=merged.passes)
    for name in merged.passes:
        assert workload_section_bytes(merged, name) == workload_section_bytes(full, name)


def test_merge_profiles_rejects_header_mismatch():
    base = _profile("VA", "compiled", passes=("mix",))
    other = _profile("HG", "compiled", passes=("branch",))
    assert merge_profiles(base, other, other.passes) is None


# ---------------------------------------------------------------------------
# Vectorized consume vs the per-event scalar oracle

#: Warps per block, covering the pairwise-summation boundary at 8.
NWARPS_CHOICES = [1, 2, 7, 8, 9, 16, 32]
SPACES = [MemSpace.SHARED, MemSpace.GLOBAL, MemSpace.TEXTURE]


def _stmt(sid, rng):
    """An instruction over a few registers, so ILP sees real dependences."""
    dest, a, b = (Reg(f"r{i}", DType.I32) for i in rng.integers(0, 4, size=3))
    return Instr(Op.IADD, DType.I32, dest, (a, b), sid=sid)


@st.composite
def event_batches(draw):
    """A kernel's worth of random EventBatches with one block geometry.

    Rows mix partly inactive warps, all-inactive rows, rows repeated across
    blocks (shared addresses are block-relative), bank-conflict-heavy and
    unit-stride addresses.  Memory events span the shared, global and
    texture spaces with 4- and 8-byte elements, and sids repeat across
    events.  Each event has at least one participating row, as the
    recorder guarantees.
    """
    nwarps = draw(st.sampled_from(NWARPS_CHOICES))
    npad = nwarps * WARP_SIZE
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stmts = [_stmt(sid, rng) for sid in range(draw(st.integers(1, 6)))]
    categories = list(OpCategory)

    def lane_mask(P):
        # Per row: all-inactive, or a random subset of warps with random lanes.
        density = rng.choice([0.0, 0.3, 1.0], size=(P, 1))
        warps = rng.random((P, nwarps)) < rng.choice([0.4, 1.0], size=(P, 1))
        act = (rng.random((P, npad)) < density) & np.repeat(warps, WARP_SIZE, axis=1)
        if rng.random() < 0.5:
            act[rng.integers(P)] = act[0]  # a repeated row
        if not act.any():
            act[rng.integers(P), rng.integers(npad)] = True
        return act

    batches = []
    next_block = 0
    for _ in range(draw(st.integers(1, 3))):
        P = draw(st.integers(1, 5))
        events = []
        tables = []
        for _ in range(draw(st.integers(1, 12))):
            kind = draw(st.sampled_from(["instr", "mem", "branch"]))
            stmt = stmts[rng.integers(len(stmts))]
            act = lane_mask(P)
            warp_rows = act.reshape(P, nwarps, WARP_SIZE)
            if kind == "instr":
                # The recorder shares one table across events under one mask.
                if not tables or rng.random() < 0.5:
                    warp_mask = warp_rows.any(axis=2)
                    tables.append(
                        (act.sum(axis=1), warp_mask, np.count_nonzero(warp_mask, axis=1))
                    )
                table = tables[rng.integers(len(tables))]
                events.append(("instr", stmt, categories[stmt.sid]) + table)
            elif kind == "mem":
                space = SPACES[rng.choice(3, p=[0.5, 0.35, 0.15])]
                elem = int(rng.choice([4, 8]))
                if rng.random() < 0.6:
                    # Few distinct words, many sharing a bank (stride 32 words).
                    words = rng.integers(0, 4, size=(P, npad)) * NUM_BANKS + rng.integers(
                        0, draw(st.sampled_from([1, 3, 32])), size=(P, npad)
                    )
                    addrs = words * 4
                else:
                    # Unit-stride lanes from a shifting base: unit, short and
                    # long local strides, segment-aligned or not.
                    base = rng.integers(0, 4) * rng.choice([elem, 96, 4096]) + rng.choice([0, 4])
                    addrs = base + np.arange(npad)[None, :] * elem + np.zeros((P, 1), np.int64)
                addrs = np.where(act, addrs, rng.integers(-8, 1 << 20, size=(P, npad)))
                addrs[1:][rng.random(P - 1) < 0.5] = addrs[0]
                events.append(("mem", stmt, space, "ld", elem, addrs.astype(np.int64), act))
            else:
                wa = warp_rows.sum(axis=2)
                wt = np.minimum(wa, rng.integers(0, WARP_SIZE + 1, size=wa.shape))
                wt[rng.random(wa.shape) < 0.3] = 0
                events.append(("branch", stmt, rng.choice(["if", "loop"]), wa, wt))
        block_ids = tuple(range(next_block, next_block + P))
        next_block += P
        batches.append(EventBatch(block_ids, npad, nwarps, npad, events))
    return batches


def _sections(cls, batches, kernel=None):
    profile = KernelProfile("k", (1, 1), (32, 1), 1, 1, 32)
    p = cls(CollectorConfig())
    p.begin_kernel(kernel, profile)
    for batch in batches:
        p.consume(batch)
    p.end_kernel(profile)
    return kernel_section_bytes(profile, cls.name)


@settings(max_examples=150, deadline=None)
@given(event_batches(), st.sampled_from([32, 96, 1024, events_mod.MEM_CHUNK_LANES]))
def test_vectorized_consume_matches_scalar_replay(batches, chunk_lanes):
    # Small memory chunks split blocks along the event axis, so local-stride
    # state must carry across chunks.
    with mock.patch.object(events_mod, "MEM_CHUNK_LANES", chunk_lanes):
        for name in PASS_NAMES:
            assert _sections(get_pass(name), batches) == _sections(
                SCALAR_PASSES[name], batches
            ), f"pass {name!r}: vectorized consume differs from scalar replay"


class _BatchTap(TraceSink):
    """Keeps every launch's recorded batches: ``(kernel, [batch, ...])``."""

    def __init__(self):
        self.launches = []

    def on_kernel_begin(self, kernel, grid, block, nblocks):
        self.launches.append((kernel, []))

    def on_batch(self, batch):
        self.launches[-1][1].append(batch)


#: Shared-memory sorts and dynamic programming (HYS, SS, NW), texture
#: fetches (KM), reductions (RD) and data-dependent traversal (BFS).
TRAFFIC_WORKLOADS = ["HYS", "SS", "NW", "KM", "RD", "BFS"]


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
@pytest.mark.parametrize("abbrev", TRAFFIC_WORKLOADS)
def test_consume_matches_scalar_replay_on_recorded_traffic(abbrev, engine):
    device = Device()
    tap = _BatchTap()
    executor = Executor(
        device, sinks=[tap], profile_filter=stride_sampler(8), engine=engine
    )
    registry.get(abbrev)().run(RunContext(device, executor, seed=1234))
    assert tap.launches
    for kernel, batches in tap.launches:
        for name in PASS_NAMES:
            assert _sections(get_pass(name), batches, kernel) == _sections(
                SCALAR_PASSES[name], batches, kernel
            ), f"{abbrev}/{kernel.name}: pass {name!r} consume differs from scalar replay"
