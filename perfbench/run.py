"""Benchmark of the ReD-CaNe resilience service, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steps24-deepcaps --seed 1 \\
        --seconds 20 --trace 0

One run builds the workload's service several times (``setup_s`` is the
median), then drives its closed loop for ``--seconds``, checks every
result and prints a report followed, on the last line, by one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the layers are instrumented and the metrics are per layer (the
end-to-end figures then appear in the report, next to the tracing
overhead against the last untraced run of the workload).

Workloads (see ``workloads.py``): ``steps24-deepcaps``,
``routing-capsnet``, ``service-mix-procpool`` and ``fleet-http-remote``.
Working files (result stores, worker and agent logs, the span dump, the
last results) go under ``.perfbench/`` in the checkout; a run's stores
and logs are removed at exit.

Every process runs BLAS and OpenMP on one thread: the variables are set
here, before numpy is first imported, and pool workers and agents
inherit them.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro sources under {ROOT}/src: run from the root of a "
              f"full checkout", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    os.environ["TMPDIR"] = run_dir
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        # numpy loads from here on, after the thread pinning above.
        import report
        return report.main(args, WORK, run_dir, THREAD_VARIABLES)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
