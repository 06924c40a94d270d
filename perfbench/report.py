"""One benchmark run: execute it, print the report and the result line."""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import probes
import runner
from spans import Tracer
from workloads import WORKLOADS


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")


def main(args, work: str, run_dir: str, thread_variables) -> int:
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; valid: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print("threads: " + " ".join(f"{name}={os.environ.get(name)}"
                                 for name in thread_variables)
          + f" (numpy {np.__version__})")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ref_before = probes.reference_seconds()
    run = runner.Run(args.workload, args.seed, args.seconds, run_dir,
                     tracer=tracer)
    try:
        run.execute()
    finally:
        if tracer is not None:
            tracer.uninstall()
    ref_after = probes.reference_seconds()

    attempted = len(run.records)
    failed = sum(not record.ok for record in run.records)
    hits = sum(record.ok and record.hit for record in run.records)
    print(f"requests: {attempted} attempted, {attempted - hits - failed} "
          f"cold ok, {hits} store hits ok, {failed} failed")
    for record in run.records:
        for problem in record.problems:
            print(f"  FAILED #{record.item.index}: {problem}")
    print("cold latencies (s): " + " ".join(f"{record.latency:.3f}"
                                            for record in run.cold))
    print(f"verify: {run.verify_note}")
    print(f"worker restarts: {run.worker_restarts} (0 required)")
    print("setup_s samples: " + ", ".join(f"{seconds:.4f}"
                                          for seconds in run.setup_seconds))
    print(f"host.ref_s: before {ref_before:.5f} s, after {ref_after:.5f} s")
    metrics, lines = runner.end_to_end(run)
    print("end to end" + (" (traced)" if tracer is not None else "") + ":")
    _print_metrics(metrics)
    for line in lines:
        print("  " + line)
    os.makedirs(work, exist_ok=True)
    last_path = os.path.join(work, f"last-{args.workload}.json")
    if tracer is None:
        with open(last_path, "w") as stream:
            json.dump({name: value for name, (value, _) in metrics.items()},
                      stream)
        reported = metrics
    else:
        reported = runner.per_layer(run)
        print("per layer (per request attempted; self time unless noted):")
        _print_metrics(reported)
        stressed, detail = runner.stress_self_test(run)
        print(f"layer-stress self-test: {'PASS' if stressed else 'FAIL'} "
              f"({detail})")
        if os.path.exists(last_path):
            with open(last_path) as stream:
                untraced = json.load(stream)
            print("tracing overhead (traced - last untraced run):")
            for name, (value, unit) in metrics.items():
                if name in untraced:
                    print(f"  {name:30s} {value - untraced[name]:+14.6g} "
                          f"{unit}")
        spans_path = os.path.join(
            work, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    correct = (failed == 0 and attempted > 0 and run.worker_restarts == 0
               and (tracer is None or stressed))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()}}))
    return 0
