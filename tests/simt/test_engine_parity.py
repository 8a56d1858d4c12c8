"""Engine parity: the compiled/batched engine vs the reference interpreter.

The compiled engine's contract is *bit-for-bit* equivalence: for every
workload, both engines must leave identical bytes in every device buffer
and emit identical serialized profiles.  Sampling is enabled so the
compiled engine actually exercises block batching (silent blocks stack into
wide multi-block launches) alongside observed single-block runs.
"""

import numpy as np
import pytest

from repro.simt import Device, DType, ExecutionError, Executor, KernelBuilder
from repro.simt.executor import profile_all_blocks, stride_sampler
from repro.trace.collector import KernelTraceCollector
from repro.trace.profile import WorkloadProfile
from repro.trace.serialize import workload_to_dict
from repro.workloads import registry
from repro.workloads.base import RunContext
from tests.simt.planner_kernels import atomic_kernel, block_stride_kernel, gather_kernel

#: Small sample cap: observed blocks stay cheap while leaving plenty of
#: silent blocks for the compiled engine to batch.
SAMPLE_BLOCKS = 8


def _run_engine(cls, engine):
    device = Device()
    collector = KernelTraceCollector()
    executor = Executor(
        device,
        sinks=[collector],
        profile_filter=stride_sampler(SAMPLE_BLOCKS),
        engine=engine,
    )
    ctx = RunContext(device, executor, seed=1234)
    wl = cls()
    wl.run(ctx)
    buffers = {b.name: device.download(b) for b in device.buffers}
    profile = WorkloadProfile(workload=wl.abbrev, suite=wl.suite, kernels=collector.profiles)
    return buffers, workload_to_dict(profile)


@pytest.mark.parametrize("abbrev", registry.abbrevs())
def test_workload_parity(abbrev):
    cls = registry.get(abbrev)
    ibufs, iprof = _run_engine(cls, "interpreted")
    cbufs, cprof = _run_engine(cls, "compiled")
    assert sorted(ibufs) == sorted(cbufs)
    for name, iarr in ibufs.items():
        carr = cbufs[name]
        assert iarr.dtype == carr.dtype, f"buffer {name!r} dtype differs"
        # tobytes() is an exact bitwise comparison (NaNs included).
        assert iarr.tobytes() == carr.tobytes(), f"buffer {name!r} differs"
    assert iprof == cprof


# ---------------------------------------------------------------------------
# batch_blocks edge sweep on a small workload basket

#: Tiny scales: fast enough to sweep, large enough for multi-block grids.
SWEEP_BASKET = (
    ("VA", {"n": 1 << 12}),
    ("BS", {"n": 1 << 10}),
    ("NN", {"n": 1 << 10}),
)

#: Forced batch widths: no batching at all, an odd prime (so batches
#: misalign with every power-of-two grid), and far beyond any grid size
#: (the whole silent tail lands in one batch).
SWEEP_BATCH_BLOCKS = (1, 7, 1 << 20)


def _run_scaled(abbrev, scale, engine, batch_blocks=None):
    from repro.workloads.runner import run_workload

    profile = run_workload(
        registry.get(abbrev)(**scale),
        verify=False,
        sample_blocks=SAMPLE_BLOCKS,
        engine=engine,
        batch_blocks=batch_blocks,
    )
    return workload_to_dict(profile)


@pytest.mark.parametrize("abbrev,scale", SWEEP_BASKET, ids=[a for a, _ in SWEEP_BASKET])
def test_batch_blocks_edge_sweep(abbrev, scale):
    # Every forced batch width must reproduce the interpreter's profile
    # bit-for-bit (memory parity over the full registry is covered by
    # test_workload_parity; profiles pin the observe path per batch shape).
    baseline = _run_scaled(abbrev, scale, "interpreted")
    for bb in SWEEP_BATCH_BLOCKS:
        swept = _run_scaled(abbrev, scale, "compiled", batch_blocks=bb)
        assert swept == baseline, f"profile diverged at batch_blocks={bb}"


# ---------------------------------------------------------------------------
# Batching semantics on hand-built kernels


def _run_both(build, grid, block, nbufs, counts, dtypes=None):
    """Run a built kernel under both engines (no sinks: everything batches).

    ``build`` receives a KernelBuilder plus the buffer params it declares;
    returns per-engine downloaded buffers.
    """
    outs = {}
    for engine in ("interpreted", "compiled"):
        b = KernelBuilder("k")
        bufs = [
            b.param_buf(f"o{i}", (dtypes or [DType.I32] * nbufs)[i]) for i in range(nbufs)
        ]
        build(b, *bufs)
        dev = Device()
        dbufs = {
            f"o{i}": dev.alloc(f"o{i}", counts[i], (dtypes or [DType.I32] * nbufs)[i])
            for i in range(nbufs)
        }
        Executor(dev, engine=engine).launch(b.finalize(), grid, block, dbufs)
        outs[engine] = {n: dev.download(d) for n, d in dbufs.items()}
    return outs


def test_batched_barrier_with_per_block_trip_counts():
    # The lavaMD shape: a barrier inside a loop whose trip count depends on
    # ctaid, so batched blocks reach the barrier on different iterations.
    # Per-block barrier semantics must allow that (each block only waits on
    # its own lanes) while producing identical results to the interpreter.
    def build(b, o):
        s = b.shared("s", 32, DType.I32)
        tid = b.tid_x
        acc = b.let_i32(0)
        j = b.let_i32(0)
        trips = b.iadd(b.ctaid_x, 1)
        loop = b.while_loop()
        with loop.cond():
            loop.set_cond(b.ilt(j, trips))
        with loop.body():
            b.sst(s, tid, b.iadd(b.imul(tid, 10), j))
            b.barrier()
            b.assign(acc, b.iadd(acc, b.sld(s, b.imod(b.iadd(tid, 1), 32))))
            b.barrier()
            b.assign(j, b.iadd(j, 1))
        b.st(o, b.global_thread_id(), acc)

    outs = _run_both(build, 6, 32, 1, [6 * 32])
    assert np.array_equal(outs["interpreted"]["o0"], outs["compiled"]["o0"])


def test_batched_early_return_per_block():
    # Data-dependent early return: each block retires a different lane
    # subset, so the batch's live mask is ragged across blocks.
    def build(b, o):
        i = b.global_thread_id()
        b.st(o, i, -1)
        b.ret_if(b.ige(b.tid_x, b.imul(b.iadd(b.ctaid_x, 1), 8)))
        b.st(o, i, b.tid_x)

    outs = _run_both(build, 4, 64, 1, [4 * 64])
    assert np.array_equal(outs["interpreted"]["o0"], outs["compiled"]["o0"])
    expected = np.concatenate(
        [np.where(np.arange(64) < (c + 1) * 8, np.arange(64), -1) for c in range(4)]
    )
    assert np.array_equal(outs["compiled"]["o0"], expected)


def test_divergent_barrier_still_detected_under_batching():
    def build(b, o):
        with b.if_(b.ilt(b.tid_x, 16)):
            b.barrier()
        b.st(o, b.global_thread_id(), 1)

    for engine in ("interpreted", "compiled"):
        b = KernelBuilder("k")
        o = b.param_buf("o", DType.I32)
        build(b, o)
        dev = Device()
        obuf = dev.alloc("o", 128, DType.I32)
        with pytest.raises(ExecutionError, match="divergent barrier"):
            Executor(dev, engine=engine).launch(b.finalize(), 4, 32, {"o": obuf})


def _store_only_kernel():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.st(o, b.global_thread_id(), b.ctaid_x)
    return b.finalize()


def test_columnar_mode_batches_profiled_blocks():
    # Columnar event mode (the default) batches profiled blocks alongside
    # silent ones and delivers events per batch.
    k = _store_only_kernel()
    dev = Device()
    obuf = dev.alloc("o", 8 * 32, DType.I32)
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=stride_sampler(2),
        engine="compiled",
    )
    ex.launch(k, 8, 32, {"o": obuf})
    stats = ex.last_launch_stats
    assert stats["engine"] == "compiled"
    assert stats["profiled_blocks"] == 2
    assert stats["batched_blocks"] == stats["blocks"] == 8
    assert stats["largest_batch"] > 1
    assert stats["observed_batches"] >= 1
    assert stats["event_counts"]["instr"] > 0
    assert stats["event_bytes"] > 0

    # With every block profiled, every batch is an observed batch.
    dev = Device()
    obuf = dev.alloc("o", 8 * 32, DType.I32)
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=profile_all_blocks,
        engine="compiled",
    )
    ex.launch(k, 8, 32, {"o": obuf})
    stats = ex.last_launch_stats
    assert stats["profiled_blocks"] == 8
    assert stats["observed_batches"] == stats["batches"]
    assert stats["largest_batch"] > 1


def test_load_store_overlap_planning_tiers():
    # A per-lane RMW (``o[gid] += 1``) is hazard-flagged by the buffer
    # dataflow, but the footprint analysis proves every block touches a
    # private address range: the launch batches at full width and device
    # memory stays bit-identical to the interpreter.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, b.iadd(b.ld(o, i), 1))
    k = b.finalize()

    init = np.arange(8 * 32, dtype=np.int32)
    results = {}
    for engine in ("interpreted", "compiled"):
        dev = Device()
        obuf = dev.alloc("o", 8 * 32, DType.I32)
        dev.upload(obuf, init)
        ex = Executor(
            dev,
            sinks=[KernelTraceCollector()],
            profile_filter=stride_sampler(2),
            engine=engine,
        )
        ex.launch(k, 8, 32, {"o": obuf})
        results[engine] = dev.download(obuf)
        stats = ex.last_launch_stats
    assert np.array_equal(results["interpreted"], results["compiled"])
    assert stats["hazard_tier"] == "symbolic_clear"
    assert stats["observed_batch_limit"] > 1
    assert stats["largest_batch"] > 1
    # A shifted read of the same buffer (``o[gid] = o[gid + 1] + 1``) makes
    # every block's reads overlap its neighbour's writes: no grouping is
    # possible and the launch pins to one block per batch.
    b = KernelBuilder("kshift")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, b.iadd(b.ld(o, b.iadd(i, 1)), 1))
    kshift = b.finalize()
    dev = Device()
    obuf = dev.alloc("o", 8 * 32 + 1, DType.I32)
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=stride_sampler(2),
        engine="compiled",
    )
    ex.launch(kshift, 8, 32, {"o": obuf})
    stats = ex.last_launch_stats
    assert stats["hazard_tier"] == "pinned"
    assert stats["pin_reason"] == "footprint-overlap"
    assert stats["observed_batch_limit"] == 1
    assert stats["largest_batch"] == 1
    # An indirect store address (loaded from memory) is opaque to the
    # affine analysis, so the launch pins outright.
    b = KernelBuilder("kind")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, b.ld(o, i), 1)
    kind = b.finalize()
    dev = Device()
    obuf = dev.alloc("o", 8 * 32, DType.I32)
    ex = Executor(dev, engine="compiled")
    ex.launch(kind, 8, 32, {"o": obuf})
    stats = ex.last_launch_stats
    assert stats["hazard_tier"] == "pinned"
    assert stats["pin_reason"] == "opaque-address"
    assert stats["batch_limit"] == 1
    # Disjoint load/store buffers never flag a hazard in the first place.
    b = KernelBuilder("k2")
    src = b.param_buf("src", DType.I32)
    dst = b.param_buf("dst", DType.I32)
    i = b.global_thread_id()
    b.st(dst, i, b.ld(src, i))
    k2 = b.finalize()
    dev = Device()
    sbuf = dev.alloc("src", 8 * 32, DType.I32)
    dbuf = dev.alloc("dst", 8 * 32, DType.I32)
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=stride_sampler(2),
        engine="compiled",
    )
    ex.launch(k2, 8, 32, {"src": sbuf, "dst": dbuf})
    assert ex.last_launch_stats["hazard_tier"] == "clear"
    assert ex.last_launch_stats["observed_batch_limit"] > 1
    # Binding one buffer to both params aliases them; the footprint pass
    # still proves the copy per-lane private, so it batches anyway.
    dev = Device()
    buf = dev.alloc("b", 8 * 32, DType.I32)
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=stride_sampler(2),
        engine="compiled",
    )
    ex.launch(k2, 8, 32, {"src": buf, "dst": buf})
    assert ex.last_launch_stats["hazard_tier"] == "symbolic_clear"
    assert ex.last_launch_stats["observed_batch_limit"] > 1


def test_atomic_kernels_pin_batches_to_one_block():
    # A used-result atomic would race inside a batch (each lane's old value
    # depends on which block got there first), so the kernel executes one
    # block at a time even when unprofiled.
    b = KernelBuilder("k")
    c = b.param_buf("c", DType.I32)
    o = b.param_buf("o", DType.I32)
    b.st(o, b.global_thread_id(), b.atomic_add(c, 0, 1))
    k = b.finalize()

    dev = Device()
    cbuf = dev.alloc("c", 1, DType.I32)
    obuf = dev.alloc("o", 8 * 32, DType.I32)
    ex = Executor(dev, engine="compiled")
    ex.launch(k, 8, 32, {"c": cbuf, "o": obuf})
    stats = ex.last_launch_stats
    assert stats["batch_limit"] == 1
    assert stats["largest_batch"] <= 1
    assert sorted(dev.download(obuf)) == list(range(8 * 32))
    # The fire-and-forget form commutes, so it batches — same count.
    b = KernelBuilder("k")
    c = b.param_buf("c", DType.I32)
    b.atomic_add(c, 0, 1)
    dev = Device()
    cbuf = dev.alloc("c", 1, DType.I32)
    ex = Executor(dev, engine="compiled")
    ex.launch(b.finalize(), 8, 32, {"c": cbuf})
    assert ex.last_launch_stats["largest_batch"] == 8
    assert dev.download(cbuf)[0] == 8 * 32


#: Planner-refinement shapes: (kernel, buffer dtypes, expected auto plan).
#: Positive shapes un-pin; each negative keeps the pin it always had.
REFINEMENT_CASES = {
    "block-stride": (block_stride_kernel, {"o": DType.I32}, ("symbolic_clear", None)),
    "block-stride-step-reassigned": (
        lambda: block_stride_kernel(reassign_step=True),
        {"o": DType.I32},
        ("pinned", "opaque-address"),
    ),
    "opaque-load-read-only": (
        lambda: gather_kernel(table_is_written=False),
        {"o": DType.I32, "t": DType.I32},
        ("symbolic_clear", None),
    ),
    "opaque-load-written": (
        lambda: gather_kernel(table_is_written=True),
        {"o": DType.I32, "t": DType.I32},
        ("pinned", "opaque-address"),
    ),
    "atomic-unused-result": (
        lambda: atomic_kernel(("add", False)),
        {"c": DType.I32, "o": DType.I32},
        ("clear", None),
    ),
    "atomic-used-result": (
        lambda: atomic_kernel(("add", True)),
        {"c": DType.I32, "o": DType.I32},
        ("pinned", "atomics"),
    ),
    "atomic-float-add": (
        lambda: atomic_kernel(("add", False), dtype=DType.F32),
        {"c": DType.F32, "o": DType.I32},
        ("pinned", "atomics"),
    ),
    "atomic-add-and-max": (
        lambda: atomic_kernel(("add", False), ("max", False)),
        {"c": DType.I32, "o": DType.I32},
        ("pinned", "atomics"),
    ),
    "atomic-buffer-loaded": (
        lambda: atomic_kernel(("add", False), load_back=True),
        {"c": DType.I32, "o": DType.I32},
        ("pinned", "atomics"),
    ),
}


def _run_refinement(build, dtypes, engine, batch_blocks=None):
    kernel = build()
    dev = Device()
    rng = np.random.default_rng(5)
    bufs = {}
    for name, dt in dtypes.items():
        bufs[name] = dev.alloc(name, 1024, dt)
        init = rng.integers(0, 64, 1024) if dt is DType.I32 else rng.standard_normal(1024)
        dev.upload(bufs[name], init)
    collector = KernelTraceCollector()
    ex = Executor(
        dev,
        sinks=[collector],
        profile_filter=stride_sampler(2),
        engine=engine,
        batch_blocks=batch_blocks,
    )
    ex.launch(kernel, 8, 32, bufs)
    profile = WorkloadProfile(workload="k", suite="t", kernels=collector.profiles)
    memory = {name: dev.download(buf).tobytes() for name, buf in bufs.items()}
    return memory, workload_to_dict(profile), ex.last_launch_stats


@pytest.mark.parametrize("case", sorted(REFINEMENT_CASES))
def test_planner_refinement_tiers_and_parity(case):
    build, dtypes, expected = REFINEMENT_CASES[case]
    memory, profile, _ = _run_refinement(build, dtypes, "interpreted")
    for bb in (1, 2, None):
        cmem, cprof, stats = _run_refinement(build, dtypes, "compiled", bb)
        assert cmem == memory, f"memory diverged at batch_blocks={bb}"
        assert cprof == profile, f"profile diverged at batch_blocks={bb}"
    assert (stats["hazard_tier"], stats["pin_reason"]) == expected
    assert (stats["largest_batch"] > 1) == (expected[0] != "pinned")
