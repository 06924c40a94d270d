"""Command-line interface: regenerate paper artifacts by ID.

Usage::

    python -m repro list
    python -m repro run table1 fig5
    python -m repro run fig9 --quick
    python -m repro run fig9 --quick --json --cache-dir /tmp/results
    python -m repro run fig12 --quick --backend threads --max-parallel 4
    python -m repro run fig10 --quick --backend procpool --progress
    python -m repro run all --quick
    python -m repro serve --port 8035 --queue-limit 64
    python -m repro worker --listen 127.0.0.1:9035
    python -m repro run fig9 --quick --backend remote-pool --worker 127.0.0.1:9035
    python -m repro coordinate --node http://127.0.0.1:8035 --node http://127.0.0.1:8036
    python -m repro run fig9 --quick --remote http://127.0.0.1:8035
    python -m repro run fig9 --quick --remote http://127.0.0.1:8035 --progress
    python -m repro inspect
    python -m repro inspect 6f1f... --cache-dir /tmp/results
    python -m repro gc --older-than 30d
    python -m repro lint
    python -m repro lint src/repro --format json

Each artifact prints the same rows/series the paper reports (measured next
to published values where applicable).  ``--quick`` shrinks the evaluation
scale of the accuracy-in-the-loop artifacts.  The sweep artifacts submit
their measurements through the :mod:`repro.api` service, so a repeated run
at the same scale is served from the persistent result store (inspect it
with ``repro inspect``; reclaim it with ``repro gc``; relocate it with
``--cache-dir``).  ``--backend``/``--max-parallel`` choose where the
measurements execute (see ``repro.api.backends``); ``repro serve`` exposes
the same service over HTTP and ``--remote URL`` turns ``run`` into a thin
client of such a daemon.

Every artifact routes through one request-building helper: flags that an
artifact cannot honour (e.g. ``--strategy`` for the analytic tables, or
``--cache-dir`` together with ``--remote``) are a loud error, never
silently ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable

from .api import ResilienceService, ResultStore, default_service
from .api.backends import BACKEND_NAMES
from .api.store import LAYOUT_NAMES
from .core.sweep import STRATEGIES, ExecutionOptions
from .experiments import (ablation, bittrue_validation, fig4, fig5, fig6,
                          fig9, fig10, fig11, fig12, table1, table2, table3,
                          table4)
from .experiments.common import ExperimentScale

__all__ = ["main", "ARTIFACTS", "ArtifactSpec", "RunContext"]


@dataclass(frozen=True)
class RunContext:
    """Everything a CLI artifact runner may consume, built in one place.

    ``service`` is a local :class:`~repro.api.ResilienceService` or (with
    ``--remote``) a :class:`~repro.api.RemoteService`; the sweep
    artifacts only use the shared submit/run verbs, so they cannot tell
    the difference.  ``progress`` is ``None`` or the ``--progress``
    event printer handed to the streaming artifacts.
    """

    quick: bool
    scale: ExperimentScale
    service: object
    progress: object = None


@dataclass(frozen=True)
class ArtifactSpec:
    """One artifact registry entry.

    ``sweeps`` declares whether the artifact runs resilience sweeps (and
    therefore honours ``--strategy``/``--backend``/``--max-parallel``/
    ``--remote`` via its :class:`ExperimentScale` and service); naming a
    non-sweep artifact together with those flags errors instead of
    silently dropping them.
    ``remote_ok=False`` marks sweep artifacts that must touch the model
    object in-process (the X2 ablation mutates routing depth) and
    therefore reject ``--remote`` up front rather than crashing mid-run.
    ``streams=True`` marks the artifacts whose submissions shard and
    stream lifecycle events (fig9/fig10/fig12); only they honour
    ``--progress`` — naming any other artifact with it errors loudly at
    validation time.
    """

    description: str
    runner: Callable[[RunContext], Any]
    sweeps: bool = False
    remote_ok: bool = True
    streams: bool = False


#: artifact id -> spec; every runner takes the shared RunContext.
ARTIFACTS: dict[str, ArtifactSpec] = {
    "table1": ArtifactSpec("DeepCaps op counts + unit energies",
                           lambda ctx: table1.run()),
    "fig4": ArtifactSpec("energy breakdown by op type",
                         lambda ctx: fig4.run()),
    "fig5": ArtifactSpec("Acc/XM/XA/XAM optimisation potential",
                         lambda ctx: fig5.run()),
    "fig6": ArtifactSpec("multiplier error profiles + Gaussian fits",
                         lambda ctx: fig6.run(
                             samples=20_000 if ctx.quick else 100_000)),
    "table2": ArtifactSpec("clean benchmark accuracies",
                           lambda ctx: table2.run()),
    "table3": ArtifactSpec("operation grouping (group extraction)",
                           lambda ctx: table3.run()),
    "fig9": ArtifactSpec("group-wise resilience, DeepCaps/CIFAR-10",
                         lambda ctx: fig9.run(scale=ctx.scale,
                                              service=ctx.service,
                                              progress=ctx.progress),
                         sweeps=True, streams=True),
    "fig10": ArtifactSpec("layer-wise resilience of non-resilient groups",
                          lambda ctx: fig10.run(scale=ctx.scale,
                                                service=ctx.service,
                                                progress=ctx.progress),
                          sweeps=True, streams=True),
    "fig11": ArtifactSpec("conv-input distributions",
                          lambda ctx: fig11.run(
                              num_images=8 if ctx.quick else 32)),
    "table4": ArtifactSpec("component power/area/NA/NM",
                           lambda ctx: table4.run(
                               num_images=8 if ctx.quick else 16,
                               samples=20_000 if ctx.quick else 50_000)),
    "fig12": ArtifactSpec("group-wise resilience, other benchmarks",
                          lambda ctx: fig12.run(scale=ctx.scale,
                                                service=ctx.service,
                                                progress=ctx.progress),
                          sweeps=True, streams=True),
    "x1": ArtifactSpec("bit-true validation of the noise model",
                       lambda ctx: bittrue_validation.run(
                           eval_samples=32 if ctx.quick else 64)),
    "x2": ArtifactSpec("routing-iteration ablation",
                       lambda ctx: ablation.run_routing_ablation(
                           scale=ctx.scale, service=ctx.service),
                       sweeps=True, remote_ok=False),
    "x3": ArtifactSpec("biased-noise (NA) sweep",
                       lambda ctx: ablation.run_noise_average_sweep(
                           scale=ctx.scale, service=ctx.service),
                       sweeps=True),
    "x4": ArtifactSpec("quantisation word-length sweep",
                       lambda ctx: ablation.run_quantization_sweep(
                           scale=ctx.scale, service=ctx.service),
                       sweeps=True),
}


def _build_service(args):
    """The service behind this invocation: local, custom-store, or remote."""
    if getattr(args, "remote", None) is not None:
        from .api.server import RemoteService
        return RemoteService(args.remote,
                             client_id=getattr(args, "client_id", None))
    if args.cache_dir is not None or args.backend != "inline" \
            or args.max_parallel is not None \
            or args.store_layout != "local" or args.worker:
        return ResilienceService(cache_dir=args.cache_dir,
                                 store_layout=args.store_layout,
                                 backend=args.backend,
                                 max_parallel=args.max_parallel,
                                 workers=args.worker or None)
    return default_service()


def _progress_printer(stream=None):
    """The ``--progress`` event renderer: one stderr line per event.

    Shard-level lines show merged-so-far coverage from the event's
    embedded partial payload, so an operator watching a long fig10 run
    sees curves accumulating, not just a counter.
    """

    def emit(event) -> None:
        out = stream if stream is not None else sys.stderr
        job = event.job[:12]
        payload = event.payload
        if event.kind == "shard_done":
            targets = ", ".join(
                group if layer is None else f"{group}@{layer}"
                for group, layer in payload.get("targets", []))
            line = (f"[{job}] shard {payload.get('shards_done', '?')}/"
                    f"{payload.get('shards_total', '?')} done ({targets}")
            partial = payload.get("partial")
            if partial is not None:
                # Absent when a newer shard_done superseded this event's
                # snapshot before we read it (log compaction) — the next
                # line carries the fresher cumulative count anyway.
                points = sum(len(curve.get("points", []))
                             for curve in partial.get("curves", []))
                line += f"; {points} points so far"
            out.write(line + ")\n")
        elif event.kind == "shard_retry":
            out.write(f"[{job}] shard {payload.get('shard', '?')} attempt "
                      f"{payload.get('attempt', '?')}/"
                      f"{payload.get('max_retries', '?')} failed; "
                      f"retrying in {payload.get('delay_seconds', 0.0):.2f}s"
                      f" ({payload.get('error', 'unknown error')})\n")
        elif event.kind == "preempted":
            out.write(f"[{job}] shard {payload.get('shard', '?')} preempted "
                      f"({payload.get('points_parked', 0)} points parked; "
                      f"remainder requeued): "
                      f"{payload.get('reason', 'fair-scheduler preemption')}"
                      f"\n")
        elif event.kind == "degraded":
            out.write(f"[{job}] DEGRADED: execution pool collapsed "
                      f"({payload.get('infrastructure_failures', '?')} "
                      f"infrastructure failures); remaining shards run "
                      f"in-process\n")
        elif event.kind in ("queued", "started", "done", "cancelled",
                            "error"):
            detail = ""
            if event.kind == "done":
                if payload.get("from_cache"):
                    detail = " (store hit)"
                elif "elapsed_seconds" in payload:
                    detail = f" in {payload['elapsed_seconds']:.1f}s"
            elif event.kind == "error":
                detail = f": {payload.get('message', '')}"
            out.write(f"[{job}] {event.kind}{detail}\n")
        out.flush()

    return emit


def _build_context(args) -> RunContext:
    """The one request-building helper every artifact runs through."""
    resilience = {}
    if args.max_retries is not None:
        resilience["max_retries"] = args.max_retries
    if args.shard_timeout is not None:
        resilience["shard_timeout"] = args.shard_timeout
    if args.client_id is not None:
        resilience["client_id"] = args.client_id
    execution = ExecutionOptions(strategy=args.strategy, **resilience)
    scale = ExperimentScale(execution=execution)
    if args.quick:
        scale = scale.quick()
    return RunContext(quick=args.quick, scale=scale,
                      service=_build_service(args),
                      progress=_progress_printer() if args.progress
                      else None)


def _sweep_flags_given(args) -> list[str]:
    flags = []
    if args.strategy != "auto":
        flags.append("--strategy")
    if args.max_retries is not None:
        flags.append("--max-retries")
    if args.shard_timeout is not None:
        flags.append("--shard-timeout")
    if args.client_id is not None:
        flags.append("--client-id")
    if args.backend != "inline":
        flags.append("--backend")
    if args.max_parallel is not None:
        flags.append("--max-parallel")
    if args.worker:
        flags.append("--worker")
    if args.remote is not None:
        flags.append("--remote")
    if args.progress:
        flags.append("--progress")
    return flags


def _flag_conflicts(args) -> str | None:
    """Invalid flag combinations (loud, mirroring the sweep-flag rule)."""
    if args.remote is not None:
        local_only = [flag for flag, given in (
            ("--cache-dir", args.cache_dir is not None),
            ("--store-layout", args.store_layout != "local"),
            ("--backend", args.backend != "inline"),
            ("--max-parallel", args.max_parallel is not None),
            ("--worker", bool(args.worker))) if given]
        if local_only:
            return (f"{', '.join(local_only)} configure the local service; "
                    f"with --remote the server owns its store and backend "
                    f"(drop the flag or configure the server)")
    if args.max_parallel is not None and args.backend == "inline":
        return ("--max-parallel needs a parallel backend; add "
                "--backend threads or --backend procpool")
    return _worker_flag_conflict(args)


def _worker_flag_conflict(args) -> str | None:
    """``--worker`` and ``--backend remote-pool`` travel together."""
    if args.worker and args.backend != "remote-pool":
        return ("--worker names remote agents for the remote-pool "
                "backend; add --backend remote-pool (or drop the flag)")
    if args.backend == "remote-pool" and not args.worker:
        return ("--backend remote-pool needs at least one --worker "
                "HOST:PORT (start agents with 'repro worker --listen')")
    return None


def _remote_incapable(args, requested: list[str]) -> str | None:
    """Requested artifacts that cannot run against a remote service."""
    if args.remote is None:
        return None
    rejected = [name for name in requested
                if not ARTIFACTS[name].remote_ok]
    if not rejected:
        return None
    return (f"artifact(s) {', '.join(rejected)} need in-process model "
            f"access (routing-depth mutation) and cannot run against "
            f"--remote; drop the flag or the artifact")


def _progress_incapable(args, requested: list[str]) -> str | None:
    """Requested artifacts that cannot stream shard progress."""
    if not args.progress or "all" in args.artifacts:
        return None
    rejected = [name for name in requested if not ARTIFACTS[name].streams]
    if not rejected:
        return None
    streaming = ", ".join(name for name, spec in ARTIFACTS.items()
                          if spec.streams)
    return (f"artifact(s) {', '.join(rejected)} do not stream per-shard "
            f"events; --progress applies to the sharding artifacts "
            f"({streaming}) — drop the flag or the artifact")


def _result_payload(name: str, result) -> dict:
    """Machine-readable dump of one artifact result (``--json``)."""
    payload: dict[str, Any] = {"artifact": name,
                               "description": ARTIFACTS[name].description}
    rows = getattr(result, "rows", None)
    if callable(rows):
        payload["rows"] = [list(row) for row in rows()]
    else:
        payload["text"] = result.format_text()
    return payload


def _add_store_flag(parser, help_suffix: str = "") -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="result-store directory (default: "
                             ".artifacts/results, or $REPRO_RESULT_DIR)"
                             + help_suffix)
    parser.add_argument("--store-layout", choices=list(LAYOUT_NAMES),
                        default="local",
                        help="result-store on-disk layout: 'local' (flat "
                             "single-node directory) or 'shared' "
                             "(fanned-out, fsync'd layout safe for "
                             "several nodes over one filesystem)")


def _add_backend_flags(parser) -> None:
    parser.add_argument("--backend", choices=list(BACKEND_NAMES),
                        default="inline",
                        help="execution backend for analysis requests "
                             "(see repro.api.backends)")
    parser.add_argument("--max-parallel", type=int, default=None,
                        help="max concurrent shard executions "
                             "(threads, procpool and remote-pool "
                             "backends)")
    parser.add_argument("--worker", action="append", default=None,
                        metavar="HOST:PORT",
                        help="remote worker agent for --backend "
                             "remote-pool (repeatable; start agents "
                             "with 'repro worker --listen HOST:PORT')")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReD-CaNe (DATE 2020) reproduction — regenerate paper "
                    "tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available artifacts")
    run = sub.add_parser("run", help="regenerate one or more artifacts")
    run.add_argument("artifacts", nargs="+",
                     help="artifact ids (see 'list'), or 'all'")
    run.add_argument("--quick", action="store_true",
                     help="reduced evaluation scale")
    run.add_argument("--strategy", choices=list(STRATEGIES), default="auto",
                     help="resilience-sweep execution strategy "
                          "(see repro.core.sweep)")
    run.add_argument("--max-retries", type=int, default=None,
                     help="retry a failed shard this many times with "
                          "exponential backoff before poisoning it "
                          "(default: 2; see repro.api.resilience)")
    run.add_argument("--shard-timeout", type=float, default=None,
                     help="wall-clock deadline in seconds per shard "
                          "attempt; hung workers are killed and the "
                          "shard retried (default: no deadline)")
    run.add_argument("--client-id", default=None, metavar="NAME",
                     help="tenant name for the fair scheduler; rides "
                          "requests as options.client_id (and the "
                          "X-Repro-Client header with --remote) — never "
                          "changes results or cache keys")
    _add_backend_flags(run)
    run.add_argument("--remote", default=None, metavar="URL",
                     help="submit sweep requests to a running "
                          "'repro serve' daemon instead of measuring "
                          "in-process")
    run.add_argument("--progress", action="store_true",
                     help="render live per-shard progress from the "
                          "analysis event stream (sharding artifacts "
                          "only; works locally and with --remote)")
    _add_store_flag(run)
    run.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of tables")
    serve = sub.add_parser(
        "serve", help="serve the analysis API over HTTP (see docs/api.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8035,
                       help="bind port (0 picks a free one)")
    serve.add_argument("--queue-limit", type=int, default=None,
                       help="bound on queued shard executions; a "
                            "saturated server answers new submissions "
                            "with 429 + Retry-After instead of queuing "
                            "unboundedly")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds SIGTERM waits for in-flight work "
                            "to finish before the server stops "
                            "(default: 30)")
    serve.add_argument("--degrade-threshold", type=int, default=None,
                       help="consecutive infrastructure failures before "
                            "the service latches degraded and runs "
                            "remaining shards in-process (default: 3)")
    serve.add_argument("--tenant-weight", action="append", default=None,
                       metavar="NAME=W",
                       help="deficit-round-robin share for one tenant "
                            "(repeatable; e.g. --tenant-weight batch=1 "
                            "--tenant-weight triage=4; unlisted tenants "
                            "weigh 1)")
    serve.add_argument("--preempt-after", type=float, default=None,
                       metavar="SECONDS",
                       help="preempt a running lower-priority shard when "
                            "a tenant starves this long on a saturated "
                            "queue (parks at the next sweep checkpoint; "
                            "default: preemption off)")
    _add_backend_flags(serve)
    _add_store_flag(serve)
    worker = sub.add_parser(
        "worker", help="serve the framed shard-measurement protocol over "
                       "TCP for remote-pool clients (see docs/api.md)")
    worker.add_argument("--listen", default="127.0.0.1:0",
                        metavar="HOST:PORT",
                        help="bind address (default 127.0.0.1:0; port 0 "
                             "picks a free one, printed at startup)")
    coordinate = sub.add_parser(
        "coordinate", help="front several 'repro serve' nodes behind one "
                           "consistent-hash routing endpoint "
                           "(see docs/api.md)")
    coordinate.add_argument("--node", action="append", required=True,
                            metavar="URL",
                            help="base URL of one fleet node "
                                 "(repeatable; e.g. "
                                 "--node http://127.0.0.1:8035)")
    coordinate.add_argument("--host", default="127.0.0.1")
    coordinate.add_argument("--port", type=int, default=8036,
                            help="bind port (0 picks a free one)")
    inspect = sub.add_parser(
        "inspect", help="list or dump stored analysis results")
    inspect.add_argument("key", nargs="?", default=None,
                         help="store-key prefix to dump in full (omit to "
                              "list all entries)")
    _add_store_flag(inspect)
    lint = sub.add_parser(
        "lint", help="run the invariant lint suite (lock order, "
                     "blocking-under-lock, determinism, wire schema, "
                     "exception contract, resource lifecycle, event "
                     "protocol; see docs/devtools.md)")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to scan (default: the "
                           "installed repro package source)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="finding output format (default: text; "
                           "sarif is SARIF 2.1.0 for CI annotation)")
    lint.add_argument("--changed", nargs="?", const="", default=None,
                      metavar="BASE",
                      help="only report findings in files changed vs "
                           "git (default base: the merge base with "
                           "origin/main; analysis still covers the "
                           "full tree)")
    lint.add_argument("--rules", default=None, metavar="PREFIXES",
                      help="comma-separated rule-id prefixes to run "
                           "(e.g. 'lock,schema'; default: all rules)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="grandfather baseline file (default: "
                           "lint_baseline.json discovered above the "
                           "scan root)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="report baselined findings too")
    lint.add_argument("--write-baseline", action="store_true",
                      help="record current findings as the grandfather "
                           "baseline instead of failing on them")
    lint.add_argument("--schema-manifest", default=None, metavar="FILE",
                      help="wire-schema field manifest (default: the "
                           "checked-in repro/devtools/"
                           "schema_manifest.json)")
    lint.add_argument("--update-schema-manifest", action="store_true",
                      help="re-pin the versioned payload field sets "
                           "after an intentional SCHEMA_VERSION bump")
    lint.add_argument("--update-event-manifest", action="store_true",
                      help="re-pin the event-protocol vocabulary "
                           "(EVENT_KINDS/TERMINAL_EVENTS) after an "
                           "intentional lifecycle change")
    gc = sub.add_parser(
        "gc", help="reclaim result-store disk (stale/orphaned entries; "
                   "--older-than/--all widen the sweep)")
    gc.add_argument("--older-than", default=None, metavar="AGE",
                    help="also remove entries older than AGE "
                         "(e.g. 45m, 12h, 30d, or plain seconds)")
    gc.add_argument("--all", action="store_true",
                    help="remove every entry (after intentional numerics "
                         "changes — old entries key on inputs, not code)")
    _add_store_flag(gc)
    return parser


def _run(args) -> int:
    requested = list(ARTIFACTS) if "all" in args.artifacts else args.artifacts
    unknown = [name for name in requested if name not in ARTIFACTS]
    if unknown:
        print(f"unknown artifact(s): {', '.join(unknown)}; "
              f"available: {', '.join(ARTIFACTS)}", file=sys.stderr)
        return 2
    for conflict in (_flag_conflicts(args),
                     _remote_incapable(args, requested),
                     _progress_incapable(args, requested)):
        if conflict is not None:
            print(conflict, file=sys.stderr)
            return 2
    # Loud-flag contract: sweep flags must apply to every *named*
    # artifact ('all' applies them wherever they are meaningful).
    sweep_flags = _sweep_flags_given(args)
    if sweep_flags and "all" not in args.artifacts:
        rejected = [name for name in requested if not ARTIFACTS[name].sweeps]
        if rejected:
            print(f"artifact(s) {', '.join(rejected)} run no resilience "
                  f"sweeps; {', '.join(sweep_flags)} would be ignored "
                  f"(drop the flag or the artifact)", file=sys.stderr)
            return 2
    context = _build_context(args)
    payloads = []
    for name in requested:
        result = ARTIFACTS[name].runner(context)
        if args.json:
            payloads.append(_result_payload(name, result))
        else:
            print(result.format_text())
            print()
    if args.json:
        print(json.dumps(payloads, indent=2))
    return 0


def _parse_tenant_weights(pairs) -> dict | None:
    """``["batch=1", "triage=4"]`` -> ``{"batch": 1.0, "triage": 4.0}``."""
    if not pairs:
        return None
    weights = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"invalid --tenant-weight {pair!r}; "
                             f"expected NAME=WEIGHT (e.g. triage=4)")
        try:
            weight = float(value)
        except ValueError:
            raise ValueError(f"invalid --tenant-weight {pair!r}: "
                             f"{value!r} is not a number") from None
        if weight <= 0:
            raise ValueError(f"invalid --tenant-weight {pair!r}: "
                             f"weight must be positive")
        weights[name] = weight
    return weights


def _serve(args) -> int:
    import signal
    import threading

    from .api.server import AnalysisServer
    conflict = _worker_flag_conflict(args)
    if conflict is not None:
        print(conflict, file=sys.stderr)
        return 2
    try:
        tenant_weights = _parse_tenant_weights(args.tenant_weight)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    service = ResilienceService(cache_dir=args.cache_dir,
                                store_layout=args.store_layout,
                                backend=args.backend,
                                max_parallel=args.max_parallel,
                                workers=args.worker or None,
                                queue_limit=args.queue_limit,
                                degrade_threshold=args.degrade_threshold,
                                tenant_weights=tenant_weights,
                                starvation_threshold=args.preempt_after)
    server = AnalysisServer(service, host=args.host, port=args.port)

    def _graceful_drain(signum, frame):
        # serve_forever() runs on this (the main) thread, so the handler
        # must not call server.shutdown() itself — that join deadlocks.
        # Flip the drain flag here (new submissions get 503) and hand
        # the wait-then-stop to a helper thread.
        print("SIGTERM: draining — no new submissions; in-flight shards "
              f"get {args.drain_timeout:.0f}s to finish", file=sys.stderr)
        server.begin_drain()

        def _finish() -> None:
            server.drain(timeout=args.drain_timeout)
            server.shutdown()

        threading.Thread(target=_finish, name="repro-serve-drain",
                         daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful_drain)
    store_root = service.store.root if service.store is not None else "-"
    limit = ("unbounded" if args.queue_limit is None
             else f"limit {args.queue_limit}")
    print(f"serving analysis API on {server.address} "
          f"(backend {service.backend.name}, store {store_root}, "
          f"queue {limit}); Ctrl-C stops, SIGTERM drains")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        service.close()
    return 0


def _worker(args) -> int:
    from .api.cluster import WorkerAgent, parse_worker_address
    try:
        host, port = parse_worker_address(args.listen)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    agent = WorkerAgent(host, port, hard_exit=True)
    print(f"worker listening on {agent.address} "
          f"(framed shard protocol; point a remote-pool client at it "
          f"with --worker {agent.address}); Ctrl-C stops", flush=True)
    try:
        agent.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        agent.close()
    return 0


def _coordinate(args) -> int:
    from .api.cluster import ClusterCoordinator, CoordinatorServer
    try:
        coordinator = ClusterCoordinator(args.node)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    server = CoordinatorServer(coordinator, host=args.host, port=args.port)
    print(f"coordinating {len(args.node)} fleet node"
          f"{'' if len(args.node) == 1 else 's'} on {server.address} "
          f"({', '.join(args.node)}); Ctrl-C stops", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _inspect(args) -> int:
    store = ResultStore(args.cache_dir, layout=args.store_layout)
    if args.key is not None:
        matches = [key for key in store.keys() if key.startswith(args.key)]
        if not matches:
            print(f"no stored result matches key prefix {args.key!r} "
                  f"in {store.root}", file=sys.stderr)
            return 2
        for key in matches:
            with open(store.path_for(key)) as stream:
                print(stream.read())
        return 0
    entries = store.entries()
    if not entries:
        print(f"result store {store.root} is empty")
        return 0
    print(f"result store {store.root} — {len(entries)} entr"
          f"{'y' if len(entries) == 1 else 'ies'}")
    header = (f"{'key':44s}  {'model':28s}  {'noise':12s}  "
              f"{'targets':>7s}  {'points':>6s}  {'created (UTC)':19s}")
    print(header)
    print("-" * len(header))
    for entry in entries:
        created = datetime.fromtimestamp(
            entry.created, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
        print(f"{entry.key:44s}  {entry.model:28s}  {entry.noise:12s}  "
              f"{entry.targets:7d}  {entry.nm_values:6d}  {created}")
    return 0


#: ``--older-than`` suffixes, in seconds.
_AGE_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 7 * 86400}


def _parse_age(text: str) -> float:
    """``"45m"``/``"12h"``/``"30d"``/``"3600"`` -> seconds."""
    text = text.strip().lower()
    unit = 1.0
    if text and text[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1]]
        text = text[:-1]
    try:
        seconds = float(text) * unit
    except ValueError:
        raise ValueError(
            f"invalid age {text!r}; use e.g. 45m, 12h, 30d, or seconds"
        ) from None
    if seconds < 0:
        raise ValueError("age must be non-negative")
    return seconds


def _gc(args) -> int:
    store = ResultStore(args.cache_dir, layout=args.store_layout)
    try:
        older_than = (None if args.older_than is None
                      else _parse_age(args.older_than))
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    report = store.gc(older_than=older_than, everything=args.all)
    print(f"result store {store.root}: {report.summary()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in ARTIFACTS)
        for name, spec in ARTIFACTS.items():
            print(f"{name.ljust(width)}  {spec.description}")
        return 0
    if args.command == "serve":
        return _serve(args)
    if args.command == "worker":
        return _worker(args)
    if args.command == "coordinate":
        return _coordinate(args)
    if args.command == "inspect":
        return _inspect(args)
    if args.command == "gc":
        return _gc(args)
    if args.command == "lint":
        from .devtools.runner import run_cli
        return run_cli(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
