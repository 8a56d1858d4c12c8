"""Unit tests for the per-block footprint disjointness analysis.

These exercise :mod:`repro.simt.footprint` directly (affine recovery,
counted-loop recognition, the symbolic disjointness proofs, concrete
extents and greedy grouping) plus the :func:`plan_batches` tier decisions
the compiled engine builds on.  Engine-level bit-parity of the resulting
batch schedules is covered by ``test_engine_parity`` and the fuzz oracle.
"""

import numpy as np

from repro.simt import Device, DType, Executor, KernelBuilder
from repro.simt.compiled import compile_kernel, hazard_sites, plan_batches
from repro.simt.executor import stride_sampler
from repro.simt.footprint import (
    _lattice_hits_interval,
    _mixed_radix_injective,
    analyze,
    block_extents,
    group_blocks,
    symbolically_disjoint,
)
from repro.trace.collector import KernelTraceCollector
from repro.workloads import registry
from repro.workloads.base import RunContext
from tests.simt.planner_kernels import atomic_kernel, block_stride_kernel, gather_kernel

GRID = (8, 1)
BLOCK = (32, 1)
PARAMS = {"o": 1 << 16, "p": 1 << 20}


def _plan(kernel, grid=GRID, block=BLOCK, params=None):
    return plan_batches(
        compile_kernel(kernel), grid, block, dict(params or PARAMS)
    )


# ---------------------------------------------------------------------------
# Affine recovery and symbolic proofs


def test_per_lane_rmw_is_affine_and_symbolically_disjoint():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, b.iadd(b.ld(o, i), 1))
    fp = analyze(b.finalize(), GRID, BLOCK, PARAMS)
    assert fp.complete
    assert {s.kind for s in fp.sites} == {"load", "store"}
    # gid = ctaid.x*32 + tid.x: the store form carries a block symbol.
    store = next(s for s in fp.sites if s.kind == "store")
    assert any(fp.syms[i].is_block for i, _c in store.aff.terms)
    assert symbolically_disjoint(fp, GRID)
    assert _plan(b.finalize()).tier == "symbolic_clear"


def test_counted_loop_tiled_store_is_symbolically_disjoint():
    # Each thread writes 8 consecutive elements at gid*8: the loop symbol
    # (count 8, stride 4 bytes) nests under the tid/ctaid strides, so the
    # mixed-radix digit test proves cross-block injectivity.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    base = b.imul(b.global_thread_id(), 8)
    with b.for_range(0, 8) as j:
        b.st(o, b.iadd(base, j), j)
    fp = analyze(b.finalize(), GRID, BLOCK, PARAMS)
    assert fp.complete
    (store,) = fp.sites
    assert store.in_loop
    loop_syms = [fp.syms[i] for i, _c in store.aff.terms if fp.syms[i].name == "loop"]
    assert loop_syms and loop_syms[0].count == 8
    assert symbolically_disjoint(fp, GRID)
    assert _plan(b.finalize()).tier == "symbolic_clear"


def test_overlapping_loop_store_pins():
    # Every block's loop writes the same 8 elements: self-disjointness
    # fails, and the identical per-block extents leave nothing to group.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.ld(o, b.global_thread_id())  # hazard-flag the buffer
    with b.for_range(0, 8) as j:
        b.st(o, j, j)
    kernel = b.finalize()
    fp = analyze(kernel, GRID, BLOCK, PARAMS)
    assert fp.complete
    assert not symbolically_disjoint(fp, GRID)
    plan = _plan(kernel)
    assert plan.tier == "pinned"
    assert plan.pin_reason == "footprint-overlap"
    assert plan.limit == 1


def test_imod_folds_when_range_already_fits():
    # gid ranges over [0, 256) so ``gid % 512`` is an identity: the affine
    # form survives the mod and the per-lane store stays provably disjoint.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.ld(o, b.global_thread_id())
    b.st(o, b.imod(b.global_thread_id(), 512), 1)
    fp = analyze(b.finalize(), GRID, BLOCK, PARAMS)
    assert symbolically_disjoint(fp, GRID)
    assert _plan(b.finalize()).tier == "symbolic_clear"


def test_imod_band_loses_block_structure():
    # ``gid % 8`` collapses every block onto the same 8-element band: the
    # result is a bounded anonymous symbol with no block coefficient, so
    # the symbolic proof must fail (and the write genuinely overlaps).
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.ld(o, b.global_thread_id())
    b.st(o, b.imod(b.global_thread_id(), 8), 1)
    fp = analyze(b.finalize(), GRID, BLOCK, PARAMS)
    assert fp.complete
    assert not symbolically_disjoint(fp, GRID)
    ext = block_extents(fp, GRID, GRID[0])
    store = next(e for e in ext if e[0] == "store")
    # Identical 32-byte band (absolute addresses) for every block.
    base = PARAMS["o"]
    assert store[2].tolist() == [base] * 8
    assert store[3].tolist() == [base + 31] * 8


def test_value_limit_rejects_overflowing_addresses():
    # A stride that could push addresses past 2**62 must demote the form
    # to unknown rather than reason with unwrapped Python ints.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.ld(o, b.global_thread_id())
    b.st(o, b.imul(b.global_thread_id(), 1 << 55), 1)
    kernel = b.finalize()
    fp = analyze(kernel, GRID, BLOCK, PARAMS)
    assert not fp.complete
    plan = _plan(kernel)
    assert plan.tier == "pinned"
    assert plan.pin_reason == "opaque-address"


def test_indirect_address_is_opaque():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.st(o, b.ld(o, b.global_thread_id()), 1)
    fp = analyze(b.finalize(), GRID, BLOCK, PARAMS)
    assert not fp.complete
    plan = _plan(b.finalize())
    assert plan.tier == "pinned"
    assert plan.pin_reason == "opaque-address"


def test_atomics_pin_before_any_analysis():
    # A used-result atomic is order-visible: its old value depends on which
    # block got there first, so it pins even though the rest is clear.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    p = b.param_buf("p", DType.I32)
    b.st(p, b.global_thread_id(), b.atomic_add(o, 0, 1))
    plan = _device_plan(b.finalize(), {"o": DType.I32, "p": DType.I32})
    assert plan.tier == "pinned"
    assert plan.pin_reason == "atomics"
    assert plan.limit == 1


# ---------------------------------------------------------------------------
# Planner refinements: block-stride loops, per-site loads, commuting atomics


def _device_plan(kernel, dtypes, grid=GRID, block=BLOCK):
    """Plan ``kernel`` against a real device holding one buffer per param."""
    dev = Device()
    params = {name: dev.alloc(name, 1024, dt).base for name, dt in dtypes.items()}
    return plan_batches(compile_kernel(kernel), grid, block, params, device=dev)


def test_block_stride_loop_is_counted():
    kernel = block_stride_kernel()
    fp = analyze(kernel, GRID, BLOCK, PARAMS)
    assert fp.complete
    store = next(s for s in fp.sites if s.kind == "store")
    loops = [fp.syms[i] for i, _c in store.aff.terms if fp.syms[i].name == "loop"]
    # Trips cover [tid, 64) in steps of ntid = 32: two iterations.
    assert [sym.count for sym in loops] == [2]
    assert symbolically_disjoint(fp, GRID)
    assert _plan(kernel).tier == "symbolic_clear"


def test_block_stride_loop_with_reassigned_step_stays_opaque():
    kernel = block_stride_kernel(reassign_step=True)
    assert not analyze(kernel, GRID, BLOCK, PARAMS).complete
    plan = _plan(kernel)
    assert (plan.tier, plan.pin_reason) == ("pinned", "opaque-address")


def test_param_step_resolves_and_sign_is_checked():
    # A step bound through an int param counts; a negative one under ``<``
    # does not (the loop would not advance toward its bound).
    def kernel():
        b = KernelBuilder("k")
        o = b.param_buf("o", DType.I32)
        s = b.param_i32("s")
        idx = b.let_i32(b.tid_x)
        loop = b.while_loop()
        with loop.cond():
            loop.set_cond(b.ilt(idx, 64))
        with loop.body():
            a = b.iadd(b.imul(b.ctaid_x, 64), idx)
            b.st(o, a, b.iadd(b.ld(o, a), 1))
            b.assign(idx, b.iadd(idx, s))
        return b.finalize()

    assert analyze(kernel(), GRID, BLOCK, {**PARAMS, "s": 32}).complete
    assert not analyze(kernel(), GRID, BLOCK, {**PARAMS, "s": -32}).complete
    assert not analyze(kernel(), GRID, BLOCK, {**PARAMS, "s": 0}).complete


GATHER_PARAMS = {"o": 1 << 16, "t": 1 << 20}


def test_opaque_load_from_read_only_buffer_is_dropped():
    kernel = gather_kernel(table_is_written=False)
    ck = compile_kernel(kernel)
    assert not analyze(kernel, GRID, BLOCK, GATHER_PARAMS).complete
    sites = hazard_sites(ck, GATHER_PARAMS)
    # Only the o[gid] load/store pair survives the per-site filter.
    assert {s.bases for s in sites} == {frozenset((GATHER_PARAMS["o"],))}
    assert _plan(kernel, params=GATHER_PARAMS).tier == "symbolic_clear"


def test_opaque_load_from_written_buffer_pins():
    kernel = gather_kernel(table_is_written=True)
    plan = _plan(kernel, params=GATHER_PARAMS)
    assert (plan.tier, plan.pin_reason) == ("pinned", "opaque-address")


def test_fire_and_forget_atomics_clear():
    # Unused results (``want_old`` left on), integer ADD — and two sites of
    # one op on one buffer — commute, so nothing is left to pin.
    for atomics in ((("add", False),), (("max", False), ("max", False))):
        plan = _device_plan(atomic_kernel(*atomics), {"c": DType.I32, "o": DType.I32})
        assert plan.tier == "clear", atomics


def test_order_visible_atomics_pin():
    cases = {
        "used result": (atomic_kernel(("add", True)), DType.I32),
        "float add": (atomic_kernel(("add", False), dtype=DType.F32), DType.F32),
        "add+max": (atomic_kernel(("add", False), ("max", False)), DType.I32),
        "loaded back": (atomic_kernel(("add", False), load_back=True), DType.I32),
        "exch": (atomic_kernel(("exch", False)), DType.I32),
        # An i32 atomic on a float device buffer rounds: order-visible.
        "float buffer": (atomic_kernel(("add", False)), DType.F32),
    }
    for label, (kernel, cdt) in cases.items():
        plan = _device_plan(kernel, {"c": cdt, "o": DType.I32})
        assert (plan.tier, plan.pin_reason) == ("pinned", "atomics"), label
    # Without a device the buffer dtypes are unknown: every atomic pins.
    plan = _plan(atomic_kernel(("add", False)), params={"c": 1 << 16, "o": 1 << 20})
    assert (plan.tier, plan.pin_reason) == ("pinned", "atomics")


def test_stride_band_corpus_entries_batch():
    # The committed block-stride-band cases each un-pin through exactly one
    # refinement; the corpus replay checks they stay bit-identical.
    import os

    from repro.fuzz import build_kernel, default_corpus_dir, load_case
    from repro.fuzz.generator import make_device

    expected = {
        "sloop-symbolic-seed16777509.json": "symbolic_clear",
        "roload-symbolic-seed16777609.json": "symbolic_clear",
        "atomic-batched-seed16777728.json": "clear",
    }
    for name, tier in expected.items():
        case, _meta = load_case(os.path.join(default_corpus_dir(), name))
        dev, bufs = make_device(case)
        params = {n: buf.base for n, buf in bufs.items()}
        grid, block = (case["grid"], 1), tuple(case["block"])
        plan = plan_batches(compile_kernel(build_kernel(case)), grid, block, params, device=dev)
        assert (plan.tier, plan.pin_reason) == (tier, None), name


# ---------------------------------------------------------------------------
# Concrete extents and greedy grouping


def test_band_plus_tiled_store_reaches_grouped_tier():
    # Store 1 tiles the buffer per block; store 2 writes a fixed 4-element
    # band at offset 64 (inside block 2's tile).  The symbolic pair test
    # fails, but the concrete extents prove most runs of blocks safe.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, 1)
    b.st(o, b.iadd(b.imod(i, 4), 64), 2)
    kernel = b.finalize()
    fp = analyze(kernel, GRID, BLOCK, PARAMS)
    assert fp.complete
    assert not symbolically_disjoint(fp, GRID)
    plan = _plan(kernel)
    assert plan.tier == "footprint_grouped"
    assert plan.largest_group > 1
    assert plan.group_of is not None
    # group_of must be non-decreasing over linear block ids (contiguous runs).
    assert all(
        plan.group_of[i] <= plan.group_of[i + 1]
        for i in range(len(plan.group_of) - 1)
    )
    # Block 2 owns the tile the band lands in, so it cannot share a group
    # with its neighbours.
    assert plan.group_of[1] != plan.group_of[2]
    assert plan.group_of[2] != plan.group_of[3]


def test_group_blocks_synthetic_extents():
    nblocks = 6
    la = np.arange(nblocks, dtype=np.int64)
    # Disjoint per-block bytes: one group covers everything (cap permitting).
    disjoint = [("store", False, la * 4, la * 4 + 3)]
    group_of, groups, largest = group_blocks(disjoint, nblocks, cap=nblocks)
    assert groups == 1 and largest == nblocks
    # The cap splits the run even without conflicts.
    _go, groups, largest = group_blocks(disjoint, nblocks, cap=2)
    assert groups == 3 and largest == 2
    # A same-site *looped* store with identical extents conflicts pairwise.
    looped = [("store", True, np.zeros(nblocks, np.int64), np.full(nblocks, 3, np.int64))]
    _go, groups, largest = group_blocks(looped, nblocks, cap=nblocks)
    assert groups == nblocks and largest == 1
    # The same extents in a single-shot site are allowed to share a group:
    # one scatter's highest-lane-wins already reproduces sequential order.
    single = [("store", False, np.zeros(nblocks, np.int64), np.full(nblocks, 3, np.int64))]
    _go, groups, largest = group_blocks(single, nblocks, cap=nblocks)
    assert groups == 1 and largest == nblocks
    # A read overlapping earlier blocks' writes breaks the run.
    rmw_shifted = [
        ("store", False, la * 4, la * 4 + 3),
        ("load", False, la * 4 + 4, la * 4 + 7),
    ]
    _go, groups, largest = group_blocks(rmw_shifted, nblocks, cap=nblocks)
    assert largest == 1


# ---------------------------------------------------------------------------
# Helper predicates


def test_mixed_radix_injective():
    assert _mixed_radix_injective([(1, 4), (4, 8)])
    assert not _mixed_radix_injective([(1, 8), (4, 8)])  # stride 4 <= span 7
    assert not _mixed_radix_injective([(4, 2), (4, 2)])  # equal strides
    assert _mixed_radix_injective([])


def test_lattice_hits_interval():
    cmap = {"%ctaid.x": 128}
    assert not _lattice_hits_interval(cmap, (8, 1), -127, 127)
    assert _lattice_hits_interval(cmap, (8, 1), -128, 128)
    # A grid dimension absent from the coefficient map collides at delta 0.
    assert _lattice_hits_interval(cmap, (8, 8), -10, 10)


# ---------------------------------------------------------------------------
# Plan caching and workload tiers


def test_plan_batches_caches_per_kernel():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, b.iadd(b.ld(o, i), 1))
    ck = compile_kernel(b.finalize())
    p1 = plan_batches(ck, GRID, BLOCK, dict(PARAMS))
    p2 = plan_batches(ck, GRID, BLOCK, dict(PARAMS))
    assert p1 is p2
    # A different grid is a different cache entry.
    p3 = plan_batches(ck, (4, 1), BLOCK, dict(PARAMS))
    assert p3 is not p1


def test_transpose_workload_unpins_via_symbolic_tier():
    # The SDK transpose loops over tile rows writing dst: the old
    # buffer-granular hazard pinned it to one block per batch.  The
    # footprint pass must now prove the tiles disjoint.
    dev = Device()
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=stride_sampler(2),
        engine="compiled",
    )
    ctx = RunContext(dev, ex, seed=7)
    registry.get("TR")(width=64, height=64).run(ctx)
    totals = ex.launch_stats_totals
    assert totals["hazard_tiers"].get("symbolic_clear", 0) >= 1
    assert ex.last_launch_stats["largest_batch"] > 1
