"""Kernel shapes exercising the batch planner's per-site refinements.

Shared by the planner unit tests (``test_footprint``) and the
engine-parity tests, which run each shape under both engines.
"""

from repro.simt import DType, KernelBuilder


def block_stride_kernel(reassign_step=False):
    # The HYS staging shape: ``idx = tid; while idx < 64: ...; idx += ntid``
    # over a per-block tile, read-modify-write.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    base = b.imul(b.ctaid_x, 64)
    step = b.let_i32(b.ntid_x)
    idx = b.let_i32(b.tid_x)
    loop = b.while_loop()
    with loop.cond():
        loop.set_cond(b.ilt(idx, 64))
    with loop.body():
        a = b.iadd(base, idx)
        b.st(o, a, b.iadd(b.ld(o, a), 1))
        if reassign_step:
            b.assign(step, b.iadd(step, 0))
        b.assign(idx, b.iadd(idx, step))
    return b.finalize()


def gather_kernel(table_is_written):
    # ``o[gid] += t[t[gid] & 7]``: the table load's address is opaque.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    t = b.param_buf("t", DType.I32)
    i = b.global_thread_id()
    v = b.ld(t, b.iand(b.ld(t, i), 7))
    b.st(o, i, b.iadd(b.ld(o, i), v))
    if table_is_written:
        b.st(t, i, v)
    return b.finalize()


def atomic_kernel(*atomics, dtype=DType.I32, load_back=False):
    # One ``c[tid % 4] op= 1`` site per ``(op, use_result)`` pair; a used
    # old value is stored to ``o``, as is ``c[0]`` when ``load_back``.
    b = KernelBuilder("k")
    c = b.param_buf("c", dtype)
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    for op, use in atomics:
        old = getattr(b, "atomic_" + op)(c, b.imod(b.tid_x, 4), 1)
        if use:
            b.st(o, i, old)
    if load_back:
        b.st(o, i, b.ld(c, 0))
    return b.finalize()
