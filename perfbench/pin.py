"""Regenerate ``expected.json``, the benchmark's pinned outputs.

Run from the repository root after an intentional change to what the
pipeline computes (and review the diff)::

    python3 perfbench/pin.py

* ``evaluate``: representatives, mean error and Kendall tau of the full
  suite's 8-representative subset under each timing model.  ``suite-cold``
  and ``suite-warm`` both compare against these, so the warm CLI must agree
  with the cold in-process run.
* ``features``: the raw feature matrix (workload -> metric values) that
  ``api.analyze`` starts from.  ``suite-cold`` checks its in-process matrix
  and ``suite-warm`` the one ``repro characterize --json`` prints.
* ``engine_scale_digests``: sha256 of each engine-scale profile's canonical
  bytes.  A workload whose profile changes with the input seed (checked
  over ``SEEDS``) is pinned as ``null``: the benchmark then compares it
  against the interpreted engine at the run's seed instead.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(6)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from suites import ENGINE_BASKET, SAMPLE_BLOCKS, profile_digest

    import repro.api as api
    from repro.workloads import registry
    from repro.workloads.runner import run_workload

    cache = os.path.join(ROOT, ".perfbench_state", "pin-cache")
    shutil.rmtree(cache, ignore_errors=True)
    os.environ["REPRO_CACHE_DIR"] = cache
    result = api.characterize(api.CharacterizationConfig(jobs=1, cache_dir=cache))
    analysis = api.analyze(result)
    evaluate = {}
    for model in ("roofline", "cycle"):
        ev = api.evaluate(result, analysis=analysis, jobs=1, model=model)
        evaluate[model] = {
            "representatives": ev.representatives,
            "mean_error": ev.mean_error,
            "kendall_tau": ev.kendall_tau,
        }
    shutil.rmtree(cache, ignore_errors=True)
    fm = analysis.feature_matrix
    features = {
        "metrics": list(fm.metric_names),
        "values": {w: [float(v) for v in row] for w, row in zip(fm.workloads, fm.values)},
    }

    digests = {}
    for abbrev, scale in ENGINE_BASKET:
        seen = {
            profile_digest(run_workload(
                registry.get(abbrev)(**scale), verify=True, sample_blocks=SAMPLE_BLOCKS,
                passes=("mix",), seed=seed,
            ))
            for seed in SEEDS
        }
        digests[abbrev] = seen.pop() if len(seen) == 1 else None

    path = os.path.join(HERE, "expected.json")
    with open(path, "w") as fh:
        json.dump({"evaluate": evaluate, "features": features,
                   "engine_scale_digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
