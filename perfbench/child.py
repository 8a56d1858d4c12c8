"""Fresh-interpreter entry points the benchmark runs as child processes.

``python3 perfbench/child.py probe``
    The set-up a user pays before any work: import the package and the CLI,
    resolve the workload registry, and compute the profile-cache and
    timing-model digests.  Prints the digests as JSON (the run manifest
    records them).

``python3 perfbench/child.py cli TRACE_OUT ARGS...``
    ``repro ARGS...`` traced layer by layer: times ``import repro.cli``,
    wraps the layers (``layers.install``), runs the command, and writes the
    spans and counters to ``TRACE_OUT`` once, at exit.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def probe() -> int:
    import json

    import numpy
    import repro.api  # noqa: F401
    import repro.cli  # noqa: F401
    from repro.core.runtime import ProfileCache
    from repro.trace.passes import pass_names
    from repro.uarch import model_names
    from repro.uarch.sweep import SweepCache
    from repro.workloads import registry

    cache = ProfileCache()
    sweep = SweepCache()
    doc = {
        "numpy": numpy.__version__,
        "workloads": {cls.abbrev: cache.digest_for(cls) for cls in registry.all_workloads()},
        "passes": {name: cache.pass_digest(name) for name in pass_names()},
        "timing_models": {name: sweep.model_digest(name) for name in model_names()},
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def cli(trace_out: str, argv) -> int:
    t0 = time.perf_counter()
    import repro.cli

    t1 = time.perf_counter()
    sys.path.insert(0, HERE)
    import layers

    tracer = layers.Tracer()
    tracer.spans.append(["cli.import", t0, t1, -1])
    layers.install(tracer)
    try:
        return repro.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        layers.write_trace(tracer, trace_out)


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "probe":
        raise SystemExit(probe())
    if mode == "cli" and len(sys.argv) > 3:
        raise SystemExit(cli(sys.argv[2], sys.argv[3:]))
    print(__doc__, file=sys.stderr)
    raise SystemExit(2)
