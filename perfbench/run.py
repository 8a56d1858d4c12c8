"""Pipeline benchmark: the paper's workflow timed end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload suite-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates plain and traced passes and reports every layer's
self time and counters (see ``layers.py``).  Every metric is printed by name
and unit; the last line is one JSON object.  The exit code is nonzero when
any output check fails.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One serial process on a 2-core host: keep BLAS single-threaded so the
# numbers do not depend on what else the host runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, HERE)
import layers  # noqa: E402
import suites  # noqa: E402

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_blocks_per_s": "1/s",
    "cmd_s_p50": "s",
    "cmd_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("hit_ratio") or name == "trace_overhead":
        return "ratio"
    if name.endswith("shard_bytes"):
        return "B"
    return "count"


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 10
    return ordered[k - 1], 100.0 * k / n


def run_pass(workload, tracer):
    try:
        return workload.run_pass(tracer)
    except Exception:
        res = suites.PassResult(attempted=workload.ops)
        res.failures.append(traceback.format_exc().strip().splitlines()[-1])
        return res


def measure(workload, seconds: float, trace: bool):
    """Passes until ``seconds`` have elapsed, at least one.  In trace mode
    plain and traced passes alternate in ABBA order (plain, traced, traced,
    plain, ...), so a steady drift in host speed cancels out of
    ``trace_overhead``; at least one of each runs."""
    plain, traced = [], []
    tracer = layers.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        use = tracer if trace and (len(plain) + len(traced)) % 4 in (1, 2) else None
        res = run_pass(workload, use)
        (traced if use is not None else plain).append(res)
        if res.failures:
            break
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break
    return plain, traced, tracer


def end_to_end(plain, latency_passes, setup_times, parent_rss_mb):
    lat = [x for p in plain[-latency_passes:] for x in p.latencies]
    tail_value, tail_pct = tail(lat)
    metrics = {
        "wall_s": statistics.median(p.wall for p in plain),
        "sim_blocks_per_s": statistics.median(p.blocks / p.char_seconds for p in plain),
        "cmd_s_p50": statistics.median(lat),
        "cmd_s_tail": tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max([parent_rss_mb] + [p.child_rss_mb for p in plain]),
    }
    note = (f"cmd_s_tail is p{tail_pct:.1f} of {len(lat)} operation latencies; pass walls "
            + " ".join(f"{p.wall:.3f}" for p in plain))
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(suites.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "repro", "__init__.py"),
              os.path.join(ROOT, "tests", "fixtures", "golden_analysis.json")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"error: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2

    ctx = suites.Context(ROOT, args.seed)
    workload = suites.WORKLOADS[args.workload](ctx)

    setup_times = []
    probe = None
    for _ in range(SETUP_REPEATS):
        run = suites.run_child([sys.executable, os.path.join(HERE, "child.py"), "probe"],
                               ctx.env, ctx.state)
        if run.returncode != 0:
            print(f"error: set-up failed: {run.stderr.strip()[-500:]}", file=sys.stderr)
            return 1
        setup_times.append(run.seconds)
        probe = json.loads(run.stdout)
    workload.setup()

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_use": (
            "passed to run_workload(seed=...)" if args.workload == "engine-scale"
            else "unused: api.characterize takes no seed, the suite runs its fixture inputs"
        ),
        "git_commit": git_commit(ROOT),
        "source_digest": source_digest(ROOT),
        "profile_cache": {"workloads": probe["workloads"], "passes": probe["passes"]},
        "timing_models": probe["timing_models"],
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))

    plain, traced, tracer = measure(workload, args.seconds, bool(args.trace))
    parent_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = [f for p in plain + traced for f in p.failures]
    failed = sum(min(len(p.failures), p.attempted) for p in plain + traced)
    attempted = sum(p.attempted for p in plain + traced)
    if not failures:
        try:
            late = workload.finish()
        except Exception:
            late = [traceback.format_exc().strip().splitlines()[-1]]
        failures += late
        failed += len(late)

    notes = []
    if args.trace:
        metrics = {}
        if not failures:
            try:
                metrics = layers.layer_metrics(tracer, sum(p.wall for p in traced), len(traced))
            except ValueError as exc:
                failures.append(f"traced-run accounting: {exc}")
                failed += 1
        if metrics:
            metrics["trace_overhead"] = (
                statistics.median(p.wall for p in traced)
                / statistics.median(p.wall for p in plain) - 1.0
            )
            layers.write_trace(tracer, os.path.join(ctx.state, f"trace-{args.workload}.json"),
                               manifest=manifest, metrics=metrics)
            notes.append(f"{len(traced)} traced and {len(plain)} plain passes; "
                         f"self times + other.s = traced_wall.s")
    else:
        metrics, note = {}, ""
        if not failures:
            metrics, note = end_to_end(plain, workload.latency_passes, setup_times,
                                       parent_rss_mb)
        notes.append(note)

    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(plain) + len(traced)} passes, {attempted} operations, "
          f"{failed} failed (fail_frac {failed / max(attempted, 1):.4f})")
    for note in filter(None, notes):
        print(f"  note: {note}")
    result = {}
    for name, value in metrics.items():
        unit = layer_unit(name) if args.trace else END_TO_END_UNITS[name]
        print(f"  {name:34s} {value:14.6f} {unit}")
        result[name] = {"value": value, "unit": unit}
    ok = not failures
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
