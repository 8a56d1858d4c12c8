"""Unit tests of individual workload kernels at small scales.

The workload integration tests validate each benchmark end-to-end at its
default scale; these tests exercise the *kernel builders* directly with
tiny, hand-checkable inputs, so a regression in one kernel localises to one
test instead of a suite-wide failure.
"""

import numpy as np
import pytest

from repro.simt import Device, DType, Executor


def _run(kernel, grid, block, args, device):
    Executor(device).launch(kernel, grid, block, args)


# ----------------------------------------------------------------------
# SDK kernels
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", [0, 1, 2, 3])
def test_reduce_variants_agree(variant):
    from repro.workloads.sdk import reduction as R

    build = [
        R.build_reduce0_kernel,
        R.build_reduce1_kernel,
        R.build_reduce2_kernel,
        R.build_reduce3_kernel,
    ][variant]
    dev = Device()
    h = np.random.default_rng(variant).standard_normal(256)
    src = dev.from_array("src", h, readonly=True)
    dst = dev.alloc("dst", 4)
    _run(build(64), 4, 64, {"src": src, "dst": dst, "n": 256}, dev)
    assert np.isclose(dev.download(dst).sum(), h.sum())


def test_scan_naive_kernel_small():
    from repro.workloads.sdk.scan import build_scan_naive_kernel

    dev = Device()
    h = np.arange(1, 33)
    src = dev.from_array("src", h, DType.I32, readonly=True)
    dst = dev.alloc("dst", 32, DType.I32)
    _run(build_scan_naive_kernel(32), 1, 32, {"src": src, "dst": dst}, dev)
    expected = np.concatenate([[0], np.cumsum(h)[:-1]])
    assert np.array_equal(dev.download(dst), expected)


def test_scan_block_kernel_exclusive():
    from repro.workloads.sdk.scan import build_scan_block_kernel

    dev = Device()
    h = np.arange(64) % 7
    src = dev.from_array("src", h, DType.I32, readonly=True)
    dst = dev.alloc("dst", 64, DType.I32)
    sums = dev.alloc("sums", 2, DType.I32)
    _run(build_scan_block_kernel(32), 2, 32, {"src": src, "dst": dst, "sums": sums, "n": 64}, dev)
    # Each block scans its own 32 elements exclusively.
    for blk in range(2):
        seg = h[blk * 32 : (blk + 1) * 32]
        expected = np.concatenate([[0], np.cumsum(seg)[:-1]])
        assert np.array_equal(dev.download(dst)[blk * 32 : (blk + 1) * 32], expected)
    assert np.array_equal(dev.download(sums), [h[:32].sum(), h[32:].sum()])


def test_bitonic_kernel_sorts_any_pow2():
    from repro.workloads.sdk.bitonic import build_bitonic_kernel

    dev = Device()
    rng = np.random.default_rng(9)
    h = rng.integers(0, 1000, 64)
    data = dev.from_array("data", h, DType.I32)
    _run(build_bitonic_kernel(64), 1, 64, {"data": data}, dev)
    assert np.array_equal(dev.download(data), np.sort(h))


def test_matrixmul_kernel_single_tile():
    from repro.workloads.sdk.matrixmul import TILE, build_matrixmul_kernel

    dev = Device()
    rng = np.random.default_rng(4)
    a = rng.standard_normal((TILE, TILE))
    bb = rng.standard_normal((TILE, TILE))
    da = dev.from_array("A", a, readonly=True)
    db = dev.from_array("B", bb, readonly=True)
    dc = dev.alloc("C", TILE * TILE)
    _run(build_matrixmul_kernel(TILE), (1, 1), (TILE, TILE), {"A": da, "B": db, "C": dc}, dev)
    assert np.allclose(dev.download(dc).reshape(TILE, TILE), a @ bb)


def test_blackscholes_cnd_symmetry():
    """CND(d) + CND(-d) == 1 by construction of the sign fix-up."""
    from repro.workloads.sdk.blackscholes import _cnd_ref

    d = np.linspace(-3, 3, 101)
    assert np.allclose(_cnd_ref(d) + _cnd_ref(-d), 1.0, atol=1e-12)


def test_similarity_kernel_perfect_match_scores_full():
    from repro.workloads.sdk.similarityscore import MATCH, build_similarity_kernel

    dev = Device()
    qlen = 8
    query = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    seqs = np.tile(query, (32, 1))
    lens = np.full(32, qlen)
    args = {
        "seqs": dev.from_array("seqs", seqs, DType.I32, readonly=True),
        "lens": dev.from_array("lens", lens, DType.I32, readonly=True),
        "query": dev.from_array("query", query, DType.I32, readonly=True),
        "row": dev.alloc("row", 32 * qlen, DType.I32),
        "best": dev.alloc("best", 32, DType.I32),
        "nseq": 32,
        "maxlen": qlen,
    }
    _run(build_similarity_kernel(qlen), 1, 32, args, dev)
    assert np.all(dev.download(args["best"]) == MATCH * qlen)


# ----------------------------------------------------------------------
# Parboil kernels
# ----------------------------------------------------------------------


def test_spmv_kernel_identity_matrix():
    from repro.workloads.parboil.spmv import build_spmv_kernel

    dev = Device()
    n = 32
    rowptr = dev.from_array("rowptr", np.arange(n + 1), DType.I32, readonly=True)
    cols = dev.from_array("cols", np.arange(n), DType.I32, readonly=True)
    vals = dev.from_array("vals", np.ones(n), readonly=True)
    x = dev.from_array("x", np.arange(n, dtype=float), readonly=True)
    y = dev.alloc("y", n)
    _run(
        build_spmv_kernel(),
        1,
        32,
        {"rowptr": rowptr, "cols": cols, "vals": vals, "x": x, "y": y, "nrows": n},
        dev,
    )
    assert np.allclose(dev.download(y), np.arange(n))


def test_tpacf_bins_cover_all_pairs():
    from repro.workloads.parboil.tpacf import NBINS, build_tpacf_kernel, tpacf_ref

    dev = Device()
    rng = np.random.default_rng(3)
    n = 64
    vecs = rng.standard_normal((n, 3))
    pos = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    edges = np.cos(np.linspace(0.0, np.pi, NBINS + 1))
    args = {
        "x": dev.from_array("x", pos[:, 0], readonly=True),
        "y": dev.from_array("y", pos[:, 1], readonly=True),
        "z": dev.from_array("z", pos[:, 2], readonly=True),
        "edges": dev.from_array("edges", edges, readonly=True),
        "bins": dev.alloc("bins", NBINS, DType.I32),
    }
    _run(build_tpacf_kernel(n), 2, 32, args, dev)
    bins = dev.download(args["bins"])
    assert bins.sum() == n * (n - 1) // 2
    assert np.array_equal(bins, tpacf_ref(pos, edges))


def test_sad_kernel_zero_for_identical_frames():
    from repro.workloads.parboil.sad import MB, SEARCH, build_sad_kernel

    dev = Device()
    frame = np.arange(16 * 24).reshape(16, 24) % 251
    ref = np.zeros((16 + SEARCH, 24 + SEARCH), dtype=np.int64)
    ref[:16, :24] = frame
    cur = dev.from_array("cur", frame, DType.I32, readonly=True)
    refb = dev.from_array("ref", ref, DType.I32, readonly=True)
    nmb = (24 // MB) * (16 // MB)
    sads = dev.alloc("sads", nmb * SEARCH * SEARCH, DType.I32)
    _run(
        build_sad_kernel(24, 24 + SEARCH, 24 // MB),
        nmb,
        (SEARCH, SEARCH),
        {"cur": cur, "ref": refb, "sads": sads},
        dev,
    )
    out = dev.download(sads).reshape(nmb, SEARCH, SEARCH)
    # Displacement (0,0) compares identical pixels: SAD exactly 0.
    assert np.all(out[:, 0, 0] == 0)
    assert np.all(out[:, 1:, :] >= 0)


# ----------------------------------------------------------------------
# Rodinia kernels
# ----------------------------------------------------------------------


def test_bfs_kernel_one_level():
    from repro.workloads.rodinia.bfs import build_bfs_kernel

    dev = Device()
    # Star graph: node 0 -> 1,2,3.
    rowptr = dev.from_array("rowptr", np.array([0, 3, 3, 3, 3]), DType.I32, readonly=True)
    adj = dev.from_array("adj", np.array([1, 2, 3]), DType.I32, readonly=True)
    frontier = dev.from_array("frontier", np.array([1, 0, 0, 0]), DType.I32)
    nxt = dev.alloc("next_frontier", 4, DType.I32)
    cost = dev.from_array("cost", np.array([0, -1, -1, -1]), DType.I32)
    changed = dev.alloc("changed", 1, DType.I32)
    _run(
        build_bfs_kernel(),
        1,
        32,
        {
            "rowptr": rowptr,
            "adj": adj,
            "frontier": frontier,
            "next_frontier": nxt,
            "cost": cost,
            "changed": changed,
            "n": 4,
            "level": 0,
        },
        dev,
    )
    assert np.array_equal(dev.download(cost), [0, 1, 1, 1])
    assert np.array_equal(dev.download(nxt), [0, 1, 1, 1])
    assert dev.download(changed)[0] == 1
    assert np.array_equal(dev.download(frontier), [0, 0, 0, 0])  # consumed


def test_mummer_kernel_exact_reference_match():
    from repro.workloads.rodinia.mummergpu import Trie, build_match_kernel

    trie = Trie()
    ref = np.array([0, 1, 2, 3, 0, 1])
    for start in range(len(ref)):
        trie.insert(ref[start : start + 4])
    dev = Device()
    queries = np.array([[0, 1, 2, 3], [3, 3, 3, 3]])
    args = {
        "trie": dev.from_array("trie", trie.flat(), DType.I32, readonly=True),
        "queries": dev.from_array("queries", queries, DType.I32, readonly=True),
        "out": dev.alloc("out", 2, DType.I32),
        "nq": 2,
    }
    _run(build_match_kernel(4), 1, 32, args, dev)
    out = dev.download(args["out"])
    assert out[0] == 4  # exact substring of the reference
    assert out[1] == 1  # only the single '3' matches


def test_pathfinder_kernel_single_row():
    from repro.workloads.rodinia.pathfinder import BLOCK, build_pathfinder_kernel

    dev = Device()
    cols = BLOCK - 2  # single block, one ghost cell each side
    wall = np.zeros((2, cols), dtype=np.int64)
    wall[1] = np.arange(cols)
    wall_b = dev.from_array("wall", wall, DType.I32, readonly=True)
    src = dev.from_array("src", np.zeros(cols, dtype=np.int64), DType.I32)
    dst = dev.alloc("dst", cols, DType.I32)
    _run(
        build_pathfinder_kernel(cols, 1),
        1,
        BLOCK,
        {"wall": wall_b, "src": src, "dst": dst, "row0": 1},
        dev,
    )
    # min of three zero neighbours + wall row 1 == wall row 1.
    assert np.array_equal(dev.download(dst), wall[1])


def test_gaussian_fan1_multipliers():
    from repro.workloads.rodinia.gaussian import build_fan1_kernel

    dev = Device()
    n = 4
    a = np.array([[2.0, 1, 1, 1], [4, 1, 0, 0], [6, 0, 1, 0], [8, 0, 0, 1]])
    ab = dev.from_array("a", a)
    m = dev.alloc("m", n)
    _run(build_fan1_kernel(n), 1, 32, {"a": ab, "m": m, "k": 0}, dev)
    assert np.allclose(dev.download(m)[1:], [2.0, 3.0, 4.0])


def test_streamcluster_pgain_never_positive():
    from repro.workloads.rodinia.streamcluster import build_pgain_kernel

    dev = Device()
    rng = np.random.default_rng(5)
    n, d = 64, 4
    coords = rng.standard_normal((n, d))
    cost = np.full(n, 0.5)
    args = {
        "coords": dev.from_array("coords", coords, readonly=True),
        "weights": dev.from_array("weights", np.ones(n), readonly=True),
        "cost": dev.from_array("cost", cost, readonly=True),
        "delta": dev.alloc("delta", n),
        "npoints": n,
        "candidate": 0,
    }
    _run(build_pgain_kernel(d), 2, 32, args, dev)
    delta = dev.download(args["delta"])
    assert np.all(delta <= 0)
    assert delta[0] == pytest.approx(-0.5)  # the candidate itself: d2=0


def test_nw_single_tile_matches_reference():
    from repro.workloads.rodinia.nw import TILE, build_nw_tile_kernel, nw_ref

    dev = Device()
    rng = np.random.default_rng(8)
    sub = rng.integers(-3, 4, (TILE, TILE))
    penalty = 5
    dim = TILE + 1
    init = np.zeros((dim, dim), dtype=np.int64)
    init[0, :] = -penalty * np.arange(dim)
    init[:, 0] = -penalty * np.arange(dim)
    score = dev.from_array("score", init, DType.I32)
    refb = dev.from_array("ref", sub, DType.I32, readonly=True)
    _run(
        build_nw_tile_kernel(dim, penalty),
        1,
        TILE,
        {"score": score, "ref": refb, "diag": 0, "lo": 0},
        dev,
    )
    expected = nw_ref(sub, penalty)
    assert np.array_equal(dev.download(score).reshape(dim, dim), expected)


# ----------------------------------------------------------------------
# Scale variants: every workload still verifies off its default size
# ----------------------------------------------------------------------

SCALE_VARIANTS = {
    "VA": {"n": 2048, "block": 128},
    "RD": {"n": 4096, "blocks": 8},
    "SLA": {"n": 2048, "block": 128},
    "MM": {"width": 32},
    "TR": {"width": 64, "height": 64},
    "HG": {"n": 4096, "blocks": 8},
    "BS": {"n": 2048},
    "CONV": {"width": 64, "height": 32},
    "MC": {"blocks": 4, "paths": 8},
    "NB": {"n": 256, "block": 64},
    "BIT": {"block": 128, "blocks": 4},
    "SS": {"nseq": 64, "qlen": 8, "maxlen": 48},
    "MRIQ": {"voxels": 512, "ksamples": 32},
    "SAD": {"width": 32, "height": 16},
    "CP": {"width": 32, "height": 32, "natoms": 64},
    "SPMV": {"nrows": 512, "ncols": 512},
    "STEN": {"nx": 16, "ny": 16, "nz": 8, "iters": 1},
    "TPACF": {"n": 128},
    "KM": {"npoints": 512, "nclusters": 3, "iters": 2},
    "NN": {"n": 4096},
    "HS": {"size": 32, "iters": 2},
    "BFS": {"n": 512},
    "SRAD": {"rows": 32, "cols": 32, "iters": 1},
    "BP": {"n_input": 256},
    "NW": {"n": 64},
    "MUM": {"nq": 64, "qlen": 16, "ref_len": 128},
    "HYS": {"n": 1024, "nbuckets": 8},
    "PF": {"rows": 9, "cols": 512},
    "LUD": {"n": 32},
    "GA": {"n": 16},
    "LMD": {"dim": 2, "per_box": 8},
    "SC": {"npoints": 512, "candidates": 2},
    "SP": {"pairs": 4, "length": 256},
    "LBM": {"width": 32, "height": 16, "steps": 1},
    "CUTCP": {"width": 16, "height": 16, "natoms": 48},
    "DWT": {"n": 1024},
    "DCT": {"width": 64, "height": 32},
}


@pytest.mark.parametrize("abbrev", sorted(SCALE_VARIANTS))
def test_scale_variant_verifies(abbrev):
    from repro.workloads import registry
    from repro.workloads.runner import run_workload

    cls = registry.get(abbrev)
    profile = run_workload(cls(**SCALE_VARIANTS[abbrev]), sample_blocks=16)
    assert profile.total_warp_instrs > 0


def test_nbody_reference_row_chunks_are_bit_identical():
    # Chunking the reference over body rows bounds its temporaries; each
    # row's sums run in the same order, so the result is unchanged bitwise.
    from repro.workloads.sdk.nbody import SOFTENING, nbody_ref

    rng = np.random.default_rng(3)
    pos = rng.standard_normal((512, 3))
    mass = rng.uniform(0.5, 2.0, 512)
    d = pos[None, :, :] - pos[:, None, :]
    dist2 = (d**2).sum(axis=2) + SOFTENING
    s = mass[None, :] * (1.0 / (dist2 * np.sqrt(dist2)))
    assert np.array_equal(nbody_ref(pos, mass), (s[:, :, None] * d).sum(axis=1))
