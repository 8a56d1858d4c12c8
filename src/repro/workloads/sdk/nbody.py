"""All-pairs N-body simulation (CUDA SDK ``nbody``).

One body per thread; bodies are staged through shared memory tile by tile,
and every thread accumulates softened gravitational interactions against
the whole tile (rsqrt via SFU).  The densest FP/ILP point in the space:
long dependence-free FMA chains, fully coalesced tile loads, zero
divergence.
"""

from __future__ import annotations

import numpy as np

from repro.simt import KernelBuilder
from repro.workloads.base import RunContext, Workload, assert_close
from repro.workloads.registry import register

SOFTENING = 0.01


def build_nbody_kernel(n: int, block: int):
    b = KernelBuilder("nbody_forces")
    px = b.param_buf("px")
    py = b.param_buf("py")
    pz = b.param_buf("pz")
    mass = b.param_buf("mass")
    ax = b.param_buf("ax")
    ay = b.param_buf("ay")
    az = b.param_buf("az")
    sx = b.shared("sx", block)
    sy = b.shared("sy", block)
    sz = b.shared("sz", block)
    sm = b.shared("sm", block)

    tid = b.tid_x
    i = b.global_thread_id()
    xi = b.ld(px, i)
    yi = b.ld(py, i)
    zi = b.ld(pz, i)
    fx = b.let_f32(0.0)
    fy = b.let_f32(0.0)
    fz = b.let_f32(0.0)

    ntiles = n // block
    with b.for_range(0, ntiles) as t:
        j = b.iadd(b.imul(t, block), tid)
        b.sst(sx, tid, b.ld(px, j))
        b.sst(sy, tid, b.ld(py, j))
        b.sst(sz, tid, b.ld(pz, j))
        b.sst(sm, tid, b.ld(mass, j))
        b.barrier()
        with b.for_range(0, block) as k:
            dx = b.fsub(b.sld(sx, k), xi)
            dy = b.fsub(b.sld(sy, k), yi)
            dz = b.fsub(b.sld(sz, k), zi)
            dist2 = b.fma(dx, dx, b.fma(dy, dy, b.fma(dz, dz, SOFTENING)))
            inv = b.frcp(b.fmul(dist2, b.fsqrt(dist2)))
            s = b.fmul(b.sld(sm, k), inv)
            b.assign(fx, b.fma(s, dx, fx))
            b.assign(fy, b.fma(s, dy, fy))
            b.assign(fz, b.fma(s, dz, fz))
        b.barrier()

    b.st(ax, i, fx)
    b.st(ay, i, fy)
    b.st(az, i, fz)
    return b.finalize()


#: Bodies per reference row chunk: bounds the ``(rows, n, 3)`` temporaries
#: (about 25 MiB at n = 512 unchunked) without changing any row's sums.
REF_ROWS = 64


def nbody_ref(pos: np.ndarray, mass: np.ndarray) -> np.ndarray:
    out = np.empty_like(pos)
    for r0 in range(0, pos.shape[0], REF_ROWS):
        d = pos[None, :, :] - pos[r0 : r0 + REF_ROWS, None, :]
        dist2 = (d**2).sum(axis=2) + SOFTENING
        inv = 1.0 / (dist2 * np.sqrt(dist2))
        s = mass[None, :] * inv
        out[r0 : r0 + REF_ROWS] = (s[:, :, None] * d).sum(axis=1)
    return out


@register
class NBody(Workload):
    abbrev = "NB"
    name = "N-Body"
    suite = "CUDA SDK"
    description = "All-pairs gravitational forces with shared-memory body tiles"
    default_scale = {"n": 512, "block": 128}

    def run(self, ctx: RunContext) -> None:
        n = self.scale["n"]
        block = self.scale["block"]
        assert n % block == 0
        self._pos = ctx.rng.standard_normal((n, 3))
        self._mass = ctx.rng.uniform(0.5, 2.0, n)
        dev = ctx.device
        bufs = {
            "px": dev.from_array("px", self._pos[:, 0], readonly=True),
            "py": dev.from_array("py", self._pos[:, 1], readonly=True),
            "pz": dev.from_array("pz", self._pos[:, 2], readonly=True),
            "mass": dev.from_array("mass", self._mass, readonly=True),
            "ax": dev.alloc("ax", n),
            "ay": dev.alloc("ay", n),
            "az": dev.alloc("az", n),
        }
        self._acc = (bufs["ax"], bufs["ay"], bufs["az"])
        kernel = build_nbody_kernel(n, block)
        ctx.launch(kernel, n // block, block, bufs)

    def check(self, ctx: RunContext) -> None:
        expected = nbody_ref(self._pos, self._mass)
        got = np.stack([ctx.device.download(buf) for buf in self._acc], axis=1)
        assert_close(got, expected, "nbody accelerations", tol=1e-9)
