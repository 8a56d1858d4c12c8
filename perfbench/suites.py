"""The benchmark's three workloads: one pass of each, plus its output checks.

Every workload exposes ``setup()`` (once per run, untimed), ``run_pass(tracer)``
(one pass of its operation sequence, timed op by op) and ``finish()`` (checks
that need the whole run, e.g. a reference recomputation).  A pass returns a
:class:`PassResult`; ``tracer`` is ``None`` for measured passes and a
:class:`layers.Tracer` for traced ones.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
#: Profiled blocks per launch, the paper's sampling (and the CLI default).
SAMPLE_BLOCKS = 48
#: A child command that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 150.0


@dataclass
class PassResult:
    """One pass of a workload's operation sequence."""

    #: Host seconds of the operations (output checks excluded).
    wall: float = 0.0
    #: Latency of each user-visible operation, in order.
    latencies: List[float] = field(default_factory=list)
    #: Thread blocks characterized, and the host seconds that took.
    blocks: int = 0
    char_seconds: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Peak RSS (MiB) of the child processes this pass ran, if any.
    child_rss_mb: float = 0.0


class Context:
    """Paths, seed and child-process environment shared by the workloads."""

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.state = os.path.join(root, ".perfbench_state")
        os.makedirs(self.state, exist_ok=True)
        sys.path.insert(0, os.path.join(root, "src"))
        self.env = dict(os.environ)
        self.env.pop("REPRO_TRACE", None)
        self.env.update(PYTHONPATH=os.path.join(root, "src"), REPRO_JOBS="1")
        with open(os.path.join(root, "tests", "fixtures", "golden_analysis.json")) as fh:
            self.golden = json.load(fh)
        with open(os.path.join(HERE, "expected.json")) as fh:
            self.expected = json.load(fh)


@dataclass
class ChildRun:
    returncode: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: Sequence[str], env: Dict[str, str], scratch: str) -> ChildRun:
    """Run one child process to completion; time it and read its own peak RSS.

    ``os.wait4`` gives the rusage of exactly this child, so the RSS of
    set-up children never mixes into a measured one.  Output goes to files
    (no pipes to drain), and a timer kills a child that hangs.
    """
    out_path = os.path.join(scratch, "child.out")
    err_path = os.path.join(scratch, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return ChildRun(proc.returncode, seconds, usage.ru_maxrss / 1024.0, stdout, stderr)


#: Float tolerance of every output check, as in the golden-analysis test.
ATOL = 1e-8


def check_evaluation(model: str, reps: List[str], mean_error: float, tau: float,
                     expected: Dict) -> List[str]:
    want = expected["evaluate"][model]
    problems = []
    if reps != want["representatives"]:
        problems.append(f"evaluate {model}: representatives {reps} != {want['representatives']}")
    if abs(mean_error - want["mean_error"]) > ATOL:
        problems.append(f"evaluate {model}: mean_error {mean_error!r} != {want['mean_error']!r}")
    if abs(tau - want["kendall_tau"]) > ATOL:
        problems.append(f"evaluate {model}: kendall_tau {tau!r} != {want['kendall_tau']!r}")
    return problems


def check_features(metrics: List[str], values: Dict[str, List[float]],
                   expected: Dict) -> List[str]:
    """Raw feature matrix against the pinned one: names exact, values to
    a relative 1e-9 (they are sums and ratios of integer counters)."""
    want = expected["features"]
    if metrics != want["metrics"] or sorted(values) != sorted(want["values"]):
        return ["features: metric or workload list differs from expected.json"]
    bad = [
        f"{w}.{m}" for w in values
        for m, a, b in zip(metrics, values[w], want["values"][w])
        if abs(a - b) > 1e-9 * max(abs(b), 1.0)
    ]
    return [f"features: {len(bad)} values differ, first {bad[0]}"] if bad else []


def check_snapshot(got: Dict, want: Dict) -> List[str]:
    """The golden-analysis comparison: discrete fields exact, floats at 1e-8."""
    import numpy as np

    problems = []

    def exact(what, a, b):
        if a != b:
            problems.append(f"analysis {what}: {a!r} != {b!r}")

    def near(what, a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=ATOL):
            problems.append(f"analysis {what}: differs beyond atol 1e-8")

    exact("schema", got["schema"], want["schema"])
    exact("workloads", got["workloads"], want["workloads"])
    exact("suites", got["suites"], want["suites"])
    for key in ("metric_names", "dropped"):
        exact(f"normalized.{key}", got["normalized"][key], want["normalized"][key])
    near("normalized.z", got["normalized"]["z"], want["normalized"]["z"])
    exact("pca.n_components", got["pca"]["n_components"], want["pca"]["n_components"])
    for key in ("explained_ratio", "retained", "loadings"):
        near(f"pca.{key}", got["pca"][key], want["pca"][key])
    exact("clusters", got["clusters"], want["clusters"])
    strip = lambda reps: [{k: v for k, v in r.items() if k != "weight"} for r in reps]  # noqa: E731
    exact("representatives", strip(got["representatives"]), strip(want["representatives"]))
    near("representatives.weight",
         [r["weight"] for r in got["representatives"]],
         [r["weight"] for r in want["representatives"]])
    return problems


def shard_files(cache_dir: str, suffix: str) -> int:
    return sum(1 for name in os.listdir(cache_dir) if name.endswith(suffix))


class BenchWorkload:
    """Defaults: no set-up, no whole-run checks.

    ``latency_passes``: the operation latencies of this many passes (the
    last ones) feed ``cmd_s_p50`` and ``cmd_s_tail``.  A pass mixes
    operation kinds of very different length in fixed proportions, so a
    percentile taken over a sample count that grows with host speed would
    jump from one kind to the next; a fixed count keeps it on one kind.
    Each count fits in a ``--seconds 20`` run at 4 s per pass.
    """

    latency_passes = 1

    def setup(self) -> None:
        pass

    def finish(self) -> List[str]:
        return []


class SuiteCold(BenchWorkload):
    """The paper's full run into empty caches: characterize, analyze, evaluate."""

    name = "suite-cold"
    ops = 4

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        import repro.api  # noqa: F401  (import cost stays out of the passes)

    def run_pass(self, tracer: Optional[layers.Tracer]) -> PassResult:
        import repro.api as api
        from repro.core.runtime import RunObserver
        from repro.core.snapshot import analysis_snapshot

        res = PassResult(attempted=self.ops)
        cache = os.path.join(self.ctx.state, f"cold-{os.getpid()}")
        shutil.rmtree(cache, ignore_errors=True)
        os.makedirs(cache)
        # run_sweep (inside api.evaluate) reads its cache dir from the env.
        os.environ["REPRO_CACHE_DIR"] = cache
        started: Dict[str, float] = {}

        class Latency(RunObserver):
            def on_workload_started(self, event):
                started[event.workload] = time.perf_counter()

            def on_workload_finished(self, event):
                res.latencies.append(time.perf_counter() - started[event.workload])

        patches = layers.install(tracer) if tracer is not None else None
        try:
            t0 = time.perf_counter()
            result = api.characterize(
                api.CharacterizationConfig(jobs=1, cache_dir=cache), Latency(), strict=False
            )
            t1 = time.perf_counter()
            analysis = api.analyze(result)
            evaluations = [
                api.evaluate(result, analysis=analysis, jobs=1, model=model)
                for model in ("roofline", "cycle")
            ]
            t2 = time.perf_counter()
        finally:
            if patches is not None:
                patches.restore()
        res.wall = t2 - t0
        res.char_seconds = t1 - t0
        res.blocks = sum(int(p.engine_stats["blocks"]) for p in result.profiles)

        n = len(self.ctx.golden["workloads"])
        fail = res.failures
        fail += [f"characterize {f.workload}: {f.error}" for f in result.failures]
        if result.cache_hits != 0 or result.cache_misses != n:
            fail.append(f"cold cache: {result.cache_hits} hits / {result.cache_misses} misses, "
                        f"expected 0 / {n}")
        for suffix in (".profile.json", "-roofline.timing.json", "-cycle.timing.json"):
            stored = shard_files(cache, suffix)
            if stored != n:
                fail.append(f"cold cache: {stored} *{suffix} shards written, expected {n}")
        if not result.failures:
            fm = analysis.feature_matrix
            fail += check_features(
                list(fm.metric_names),
                {w: [float(v) for v in row] for w, row in zip(fm.workloads, fm.values)},
                self.ctx.expected,
            )
            fail += check_snapshot(analysis_snapshot(analysis), self.ctx.golden)
        for ev in evaluations:
            fail += check_evaluation(ev.model, ev.representatives, ev.mean_error,
                                     ev.kendall_tau, self.ctx.expected)
        shutil.rmtree(cache, ignore_errors=True)
        return res


#: The large grids of ``repro.core.bench.FULL_BASKET``.
ENGINE_BASKET = (
    ("VA", {"n": 1 << 20}),
    ("BS", {"n": 1 << 18}),
    ("NN", {"n": 1 << 18}),
    ("MM", {"width": 256}),
    ("TR", {"width": 512, "height": 512}),
    ("STEN", {"nx": 256, "ny": 256, "nz": 16, "iters": 1}),
)


def profile_digest(profile) -> str:
    import hashlib

    from repro.trace.serialize import workload_profile_bytes

    return hashlib.sha256(workload_profile_bytes(profile)).hexdigest()


class EngineScale(BenchWorkload):
    """Large grids, ``mix`` pass only: the compiled engine does the work."""

    name = "engine-scale"
    ops = len(ENGINE_BASKET)
    latency_passes = 6

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        import repro.workloads.runner  # noqa: F401

        self.digests: Dict[str, set] = {abbrev: set() for abbrev, _ in ENGINE_BASKET}

    def run_pass(self, tracer: Optional[layers.Tracer]) -> PassResult:
        import repro.workloads.runner as runner
        from repro.workloads import registry

        res = PassResult()
        patches = layers.install(tracer) if tracer is not None else None
        try:
            for abbrev, scale in ENGINE_BASKET:
                res.attempted += 1
                workload = registry.get(abbrev)(**scale)
                t0 = time.perf_counter()
                try:
                    profile = runner.run_workload(
                        workload, verify=True, sample_blocks=SAMPLE_BLOCKS,
                        passes=("mix",), seed=self.ctx.seed,
                    )
                except Exception as exc:  # a failed reference check or a fault
                    res.failures.append(f"{abbrev}: {type(exc).__name__}: {exc}")
                    break
                dt = time.perf_counter() - t0
                res.latencies.append(dt)
                res.wall += dt
                res.blocks += int(profile.engine_stats["blocks"])
                self.digests[abbrev].add(profile_digest(profile))
        finally:
            if patches is not None:
                patches.restore()
        res.char_seconds = res.wall
        return res

    def finish(self) -> List[str]:
        """Pinned digests where the profile is seed-independent; elsewhere the
        interpreted engine (the engine oracle) at the same seed."""
        from repro.workloads import registry
        from repro.workloads.runner import run_workload

        pinned = self.ctx.expected["engine_scale_digests"]
        problems = []
        for abbrev, scale in ENGINE_BASKET:
            seen = self.digests[abbrev]
            if not seen:
                continue
            if len(seen) > 1:
                problems.append(f"{abbrev}: profile differs between passes")
                continue
            want = pinned[abbrev]
            if want is None:
                ref = run_workload(
                    registry.get(abbrev)(**scale), verify=False, sample_blocks=SAMPLE_BLOCKS,
                    passes=("mix",), seed=self.ctx.seed, engine="interpreted",
                )
                want = profile_digest(ref)
            if seen != {want}:
                problems.append(f"{abbrev}: profile digest {min(seen)[:16]} != {want[:16]}")
        return problems


# ---------------------------------------------------------------------------

WARM_COMMANDS = (
    ("characterize", "--json"),
    ("analyze",),
    ("evaluate", "--json"),
    ("evaluate", "--model", "cycle", "--json"),
)


def cache_state(cache_dir: str) -> Dict[str, tuple]:
    out = {}
    for entry in os.scandir(cache_dir):
        st = entry.stat()
        out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


class SuiteWarm(BenchWorkload):
    """The user's warm loop: separate CLI processes against a filled cache."""

    name = "suite-warm"
    ops = len(WARM_COMMANDS)
    latency_passes = 7

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        # Shards are content-addressed, so one fill serves every later run
        # whose sources match; a stale fill is topped up by set-up.
        self.cache = os.path.join(ctx.state, "warm-cache")
        self.env = dict(ctx.env, REPRO_CACHE_DIR=self.cache)

    def setup(self) -> None:
        os.makedirs(self.cache, exist_ok=True)
        for args in WARM_COMMANDS:
            if args[0] == "analyze":
                continue
            run = run_child([sys.executable, "-m", "repro", *args], self.env, self.ctx.state)
            if run.returncode != 0:
                raise RuntimeError(f"cache fill `repro {' '.join(args)}` exited "
                                   f"{run.returncode}: {run.stderr.strip()[-300:]}")

    def _check(self, args: Sequence[str], run: ChildRun, res: PassResult) -> List[str]:
        what = "repro " + " ".join(args)
        if run.returncode != 0:
            return [f"{what}: exit {run.returncode}: {run.stderr.strip()[-300:]}"]
        golden = self.ctx.golden
        if args[0] == "characterize":
            doc = json.loads(run.stdout)
            rows = doc["workloads"]
            if [r["workload"] for r in rows] != golden["workloads"]:
                return [f"{what}: workload list differs from the golden suite"]
            res.blocks += sum(int(r["engine_stats"]["blocks"]) for r in rows)
            res.char_seconds += run.seconds
            return check_features(
                doc["metrics"],
                {r["workload"]: [r["values"][m] for m in doc["metrics"]] for r in rows},
                self.ctx.expected,
            )
        if args[0] == "analyze":
            line = f"BIC-optimal K = {golden['clusters']['best_k']}"
            return [] if line in run.stdout else [f"{what}: output lacks {line!r}"]
        doc = json.loads(run.stdout)
        return check_evaluation(
            doc["model"], [r["workload"] for r in doc["representatives"]],
            doc["mean_error"], doc["kendall_tau"], self.ctx.expected,
        )

    def run_pass(self, tracer: Optional[layers.Tracer]) -> PassResult:
        res = PassResult()
        before = cache_state(self.cache)
        trace_path = os.path.join(self.ctx.state, "child-trace.json")
        for args in WARM_COMMANDS:
            res.attempted += 1
            if tracer is None:
                argv = [sys.executable, "-m", "repro", *args]
            else:
                argv = [sys.executable, os.path.join(HERE, "child.py"), "cli", trace_path, *args]
            run = run_child(argv, self.env, self.ctx.state)
            res.latencies.append(run.seconds)
            res.wall += run.seconds
            res.child_rss_mb = max(res.child_rss_mb, run.rss_mb)
            try:
                problems = self._check(args, run, res)
            except (ValueError, KeyError) as exc:
                problems = [f"repro {' '.join(args)}: unreadable output: {exc}"]
            res.failures += problems
            if tracer is not None and run.returncode == 0:
                with open(trace_path) as fh:
                    tracer.merge(json.load(fh))
        after = cache_state(self.cache)
        if after != before:
            changed = sorted(set(after.items()) ^ set(before.items()))
            res.failures.append(
                f"warm cache was written during the pass ({len(changed)} shard changes): "
                "a lookup or sweep cell missed"
            )
        return res


WORKLOADS = {cls.name: cls for cls in (SuiteCold, EngineScale, SuiteWarm)}
