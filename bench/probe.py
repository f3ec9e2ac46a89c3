"""One child process of run.py: the set-up time or the peak memory of a
workload, in a fresh interpreter that never imports the oracle library.

    python3 bench/probe.py setup|rss WORKLOAD SEED

Prints one JSON object.  ``setup`` starts its clock before it imports
anything, so the time covers all of ``import gelfond`` and the building
of the workload's inputs; then it times the reference loop in the same
process (``ref_s``, the median of REF_RUNS runs), so that run.py can
calibrate the set-up time against the host's speed at that moment.
``rss`` builds the workload, runs one pass and reports ``ru_maxrss``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402  (already loaded by interpreter start-up)
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

REF_RUNS = 7


def setup(workload: str, seed: int) -> dict:
    import workloads
    workloads.build(workload, seed)
    elapsed = time.perf_counter() - START
    import harness
    refs = sorted(harness.reference_seconds() for _ in range(REF_RUNS))
    return {"setup_s": elapsed, "ref_s": refs[REF_RUNS // 2]}


def rss(workload: str, seed: int) -> dict:
    import resource

    import harness
    import workloads
    for op in workloads.build(workload, seed):
        harness.outcome(op.call)
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> int:
    kind, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    result = (setup if kind == "setup" else rss)(workload, seed)
    if "mpmath" in sys.modules:
        print("error: the probe imported the oracle library", file=sys.stderr)
        return 2
    import json
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
