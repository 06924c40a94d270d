"""Set up a workload's service, drive its closed loop, check every result
and turn what was seen into metrics."""

from __future__ import annotations

import gc
import glob
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.api import ResilienceService
from repro.tensor import Tensor, no_grad
from repro.zoo import benchmark_coords, zoo_cache_dir

import probes
from checks import curve_bytes, payload_bytes, result_problems
from fleet import Fleet, Local
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Seconds of event silence after which a request counts as failed.
EVENT_TIMEOUT = 150.0
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
#: Fewest samples a tail percentile must have beyond it.
TAIL_BEYOND = 10
#: Span totals of a layer that never ran.
NO_SPANS = (0, 0.0, 0.0)
#: Least share of cold request wall that the service layers (queue wait,
#: shard dispatch, store, HTTP) must take on the service workloads.
SERVICE_SHARE_MIN = 0.2


@dataclass
class Record:
    """What the client saw of one submission."""

    item: object
    submitted: float                   # wall clock at submit
    done: float | None = None          # terminal event's timestamp
    first_curve: float | None = None   # first shard_done's timestamp
    queued: float | None = None
    started: float | None = None
    hit: bool = False
    result: object = None
    problems: list = field(default_factory=list)
    events: int = 0
    event_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems and self.done is not None

    @property
    def latency(self) -> float:
        return self.done - self.submitted

    @property
    def points(self) -> int:
        request = self.item.request
        return len(request.targets) * len(request.nm_values)


class Run:
    """One benchmark run of one workload (see ``run.py``)."""

    def __init__(self, workload: str, seed: int, seconds: float, work_dir: str,
                 tracer=None):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.tracer = tracer
        self.setup_seconds: list[float] = []
        self.setup_windows: list[tuple[float, float]] = []
        self.records: list[Record] = []
        self.loop_window = (0.0, 0.0)
        self.loop_wall = 0.0
        self.rss_mb = 0.0
        self.verify_note = "not applicable (no service backend)"
        self.queued_max = 0
        self.rounds: list[tuple] = []      # (layer, request id, round
        #                                    trip, worker seconds)
        self.request_ids: dict = {}        # (model key, seed) -> item index
        self.trace_mb = 0.0
        self.worker_restarts = 0
        self.put_bytes: list[int] = []     # bytes of each store write
        self.get_hits: list[bool] = []     # whether each store read hit

    @property
    def cold(self) -> list[Record]:
        """Requests measured afresh (not store hits) that passed every
        check."""
        return [record for record in self.records
                if record.ok and not record.hit]

    # ------------------------------------------------------------- set-up
    def _setup(self, index: int):
        """A warm service: built, models loaded, clean traces observed."""
        workload = self.workload
        cache_dir = os.path.join(self.work_dir, f"store{index}")
        started = time.perf_counter()
        if workload.backend == "remote-pool":
            stack = Fleet(ROOT, cache_dir, self.work_dir)
        else:
            stack = Local(ResilienceService(
                use_store=workload.use_store, cache_dir=cache_dir,
                backend=workload.backend,
                max_parallel=2 if workload.backend != "inline" else None))
        try:
            shapes = workload.shapes(stack.service)
            clean = {}
            for shape in shapes:
                # One warm-up per model, each awaited: its first two
                # shards land on two idle workers, so every pool worker
                # holds every model's clean trace.
                result = stack.client.submit(shape.warmup()).result(
                    timeout=EVENT_TIMEOUT)
                clean[shape.model.key] = result.baseline_accuracy
        except BaseException:
            stack.close()
            raise
        ended = time.perf_counter()
        self.setup_seconds.append(ended - started)
        self.setup_windows.append((started, ended))
        return stack, shapes, clean

    # --------------------------------------------------------------- loop
    def execute(self) -> None:
        if self.workload.backend != "inline":
            _ensure_zoo(self.workload.models)
        stack = None
        try:
            for index in range(self.workload.setups):
                if stack is not None:
                    stack.close()
                    # Free the previous service (its engines and clean
                    # traces sit in reference cycles) before the next
                    # set-up, so the peak RSS is that of one service.
                    stack = None
                    gc.collect()
                stack, shapes, clean = self._setup(index)
            if self.tracer is not None:
                self._instrument(stack)
                self.trace_mb = _trace_megabytes(stack.service, shapes,
                                                 self.tracer)
            self._closed_loop(stack, shapes, clean)
            self.rss_mb = probes.peak_rss_mb()
            self.worker_restarts = \
                stack.service.queue_snapshot()["worker_restarts"]
            if self.workload.backend != "inline":
                self._verify_inline()
        finally:
            if stack is not None:
                stack.close()

    def _closed_loop(self, stack, shapes, clean) -> None:
        service = stack.service
        stream = self.workload.stream(shapes, self.seed)
        lock = threading.Lock()
        finished: dict[int, threading.Event] = {}
        by_index: dict[int, Record] = {}
        submit = stack.client.submit
        loop_start = time.perf_counter()
        wall_start = time.time()
        deadline = loop_start + self.seconds

        def client() -> None:
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    item = next(stream)
                    finished[item.index] = threading.Event()
                    self.request_ids.setdefault(
                        (item.request.model.key, item.request.seed),
                        item.index)
                try:
                    if item.repeat_of is not None:
                        finished[item.repeat_of].wait(EVENT_TIMEOUT)
                    try:
                        record = self._submit_one(service, submit, item,
                                                  clean, by_index)
                    except Exception as error:  # noqa: BLE001 — a failure
                        record = Record(item, submitted=time.time(),
                                        problems=[f"check crashed: {error!r}"])
                    with lock:
                        self.records.append(record)
                        by_index[item.index] = record
                finally:
                    finished[item.index].set()

        threads = [threading.Thread(target=client, name=f"client-{n}")
                   for n in range(self.workload.in_flight)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.records.sort(key=lambda record: record.item.index)
        self.loop_window = (loop_start, time.perf_counter())
        done = [record.done for record in self.records
                if record.done is not None]
        self.loop_wall = (max(done) if done else time.time()) - wall_start

    def _submit_one(self, service, submit, item, clean, by_index) -> Record:
        tracing = self.tracer is not None
        if tracing:
            self.tracer.set_request(item.index)
        record = Record(item, submitted=time.time())
        try:
            handle = submit(item.request)
            if tracing:
                self.queued_max = max(self.queued_max,
                                      service.queue_snapshot()["queued"])
            for event in handle.events(timeout=EVENT_TIMEOUT):
                record.events += 1
                if tracing:
                    record.event_bytes += len(event.to_json())
                if event.kind == "queued":
                    record.queued = event.created
                elif event.kind == "started":
                    record.started = event.created
                elif event.kind == "shard_done" and record.first_curve is None:
                    record.first_curve = event.created
                elif event.kind == "done":
                    record.done = event.created
                elif event.terminal:
                    record.problems.append(f"terminal event {event.kind}: "
                                           f"{event.payload}")
            if record.done is None and not record.problems:
                record.problems.append("event stream ended without 'done'")
            record.result = handle.result(timeout=EVENT_TIMEOUT)
        except Exception as error:  # noqa: BLE001 — counted as a failure
            record.problems.append(f"{type(error).__name__}: {error}")
            return record
        record.hit = bool(record.result.from_cache)
        if item.repeat_of is None:
            if record.hit:
                record.problems.append("a cold request was served from the "
                                       "store")
            record.problems += result_problems(
                item.request, record.result,
                clean.get(item.request.model.key))
        else:
            original = by_index.get(item.repeat_of)
            if not record.hit:
                record.problems.append("a repeat missed the store")
            elif original is None or original.result is None or \
                    payload_bytes(original.result) != \
                    payload_bytes(record.result):
                record.problems.append("store hit differs from the cold "
                                       "result it repeats")
        return record

    def _verify_inline(self) -> None:
        """Re-measure one sampled cold request in-process, untimed; its
        curves must equal the service's byte for byte."""
        if not self.cold:
            self.verify_note = "no cold request to re-measure"
            return
        record = random.Random(self.seed).choice(self.cold)
        if self.tracer is not None:
            self.tracer.enabled = False
        service = ResilienceService(use_store=False)
        try:
            again = service.run(record.item.request)
        finally:
            service.close()
            if self.tracer is not None:
                self.tracer.enabled = True
        if curve_bytes(again) == curve_bytes(record.result):
            self.verify_note = (f"request #{record.item.index} re-measured "
                                f"inline: byte-identical curves")
        else:
            record.problems.append("inline re-measure differs")
            self.verify_note = (f"request #{record.item.index} re-measured "
                                f"inline: curves DIFFER")

    # -------------------------------------------------------- traced run
    def _instrument(self, stack) -> None:
        """Spans around the service's submit, store and backend, and the
        fleet's HTTP client (the numerics layers are patched by
        :meth:`spans.Tracer.install`)."""
        tracer = self.tracer
        ids = self.request_ids
        service = stack.service
        service.submit = tracer.wrap("api.service.submit", service.submit)
        if stack.client is not service:
            client = stack.client
            client.submit = tracer.wrap("api.server.submit", client.submit)
            client._fetch_result = tracer.wrap("api.server.result",
                                               client._fetch_result)
        if service.store is not None:
            store = service.store
            get = tracer.wrap("api.store.get", store.get)
            put = tracer.wrap("api.store.put", store.put)

            def traced_put(key, result):
                tracer.set_request(ids.get((result.request.model.key,
                                            result.request.seed)))
                path = put(key, result)
                self.put_bytes.append(os.path.getsize(path))
                return path

            def traced_get(key):
                found = get(key)
                self.get_hits.append(found is not None)
                return found

            store.get, store.put = traced_get, traced_put
        backend = service.backend
        original = backend.submit
        # The remote-pool backend lives in api.cluster, the others in
        # api.backends.
        layer = ("api.cluster" if backend.name == "remote-pool"
                 else "api.backends")

        def traced_submit(request, runner, **kwargs):
            request_id = ids.get((request.model.key, request.seed))
            start = time.perf_counter()
            future = original(request, runner, **kwargs)

            def finished(done) -> None:
                end = time.perf_counter()
                tracer.record(f"{layer}.shard", start, end, request_id)
                worker = (done.result().elapsed_seconds
                          if done.exception() is None else 0.0)
                self.rounds.append((layer, request_id, end - start, worker))

            future.add_done_callback(finished)
            return future

        backend.submit = traced_submit


def _ensure_zoo(models) -> None:
    """Train any missing zoo model once, in a child process, before the
    first set-up: pool workers or agents that found it missing would each
    train it and write the same file at once."""
    for model in models:
        preset, dataset = benchmark_coords(model.benchmark)
        if glob.glob(os.path.join(zoo_cache_dir(),
                                  f"{preset}__{dataset}__*.npz")):
            continue
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.zoo import benchmark_entry; "
             "benchmark_entry(sys.argv[1])", model.benchmark],
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
            cwd=ROOT, check=True)


def _trace_megabytes(service, shapes, tracer) -> float:
    """Bytes the clean trace caches: every stage's output for every batch,
    computed from one untraced ``forward_stages`` pass per model."""
    tracer.enabled = False
    total = 0
    try:
        for shape in shapes:
            resolved = service.entry(shape.model)
            model = resolved.model
            model.eval()
            dataset = resolved.eval_set(shape.eval_samples)
            with no_grad():
                for images, _ in dataset.batches(shape.batch_size):
                    state = Tensor(images)
                    for entry in model.forward_stages():
                        state = entry[1](state)
                        parts = state if isinstance(state, tuple) else (state,)
                        total += sum(part.data.nbytes for part in parts)
    finally:
        tracer.enabled = True
    return total / 2 ** 20


# ------------------------------------------------------------------ metrics
def _tail(latencies: list[float]):
    """``(percentile, value, n)`` of the highest candidate percentile with
    at least :data:`TAIL_BEYOND` samples beyond it, else ``None``."""
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100 * n)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return percentile, ordered[rank - 1], n
    return None


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    """The end-to-end metrics every workload reports, plus report lines
    for the ones that apply to some workloads only."""
    records = run.records
    cold = run.cold
    hits = [record for record in records if record.ok and record.hit]
    latencies = [record.latency for record in cold]
    first = [record.first_curve - record.submitted for record in cold
             if record.first_curve is not None]
    points = sum(record.points for record in cold)
    metrics = {
        "setup_s": (statistics.median(run.setup_seconds), "s"),
        "request_p50_s": (statistics.median(latencies) if latencies
                          else 0.0, "s"),
        "first_curve_s": (statistics.median(first) if first else 0.0, "s"),
        "points_per_s": (points / run.loop_wall if run.loop_wall > 0
                         else 0.0, "1/s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
        "ok_frac": (sum(record.ok for record in records)
                    / max(1, len(records)), "ratio"),
    }
    lines = []
    tail = _tail(latencies)
    if tail is None:
        lines.append(f"request_tail_s: omitted ({len(latencies)} cold "
                     f"requests; p50 needs {2 * TAIL_BEYOND})")
    else:
        percentile, value, n = tail
        lines.append(f"request_tail_s: p{percentile} = {value:.4f} s "
                     f"(n={n}, {n - math.ceil(percentile / 100 * n)} beyond)")
    if hits:
        hit_p50 = statistics.median(record.latency for record in hits)
        lines.append(f"hit_p50_s: {hit_p50:.5f} s (n={len(hits)})")
    else:
        lines.append("hit_p50_s: omitted (no store hits on this workload)")
    return metrics, lines


def per_layer(run: Run) -> dict:
    """Per-layer metrics of the traced run.

    Times and counts are per request attempted in the measured loop, times
    as self time, except: ``core.sweep.observe_s`` (inclusive, median per
    set-up), ``api.backends.*_s`` and ``api.cluster.*_s`` (inclusive shard
    round trips and the part of them the worker did not measure), and
    ``api.service.overhead_s`` and ``api.scheduler.queue_wait_s`` (means
    over cold requests).  The overhead is request wall minus the result's
    sweep seconds (summed over its shards) minus store time, so it goes
    negative when a request's shards overlap on the pool.
    """
    tracer = run.tracer
    n = max(1, len(run.records))
    loop = tracer.totals(*run.loop_window)

    def calls(name):
        return loop.get(name, NO_SPANS)[0] / n

    def self_s(name):
        return loop.get(name, NO_SPANS)[2] / n

    def rounds(layer, part):
        return sum(part(trip, worker) for name, _, trip, worker in run.rounds
                   if name == layer) / n

    observe = [tracer.totals(*window).get("core.sweep.observe", NO_SPANS)[1]
               for window in run.setup_windows]
    store = _store_seconds(run)
    overheads = [record.latency - record.result.elapsed_seconds
                 - store.get(record.item.index, 0.0)
                 for record in run.cold]
    waits = [_queue_wait(record) for record in run.cold]
    gets = run.get_hits
    stage_calls = sum(calls(f"models.{kind}")
                      for kind in ("conv", "post", "votes", "route"))
    values = {
        "models.conv_s": (self_s("models.conv"), "s"),
        "models.post_s": (self_s("models.post"), "s"),
        "models.votes_s": (self_s("models.votes"), "s"),
        "models.route_s": (self_s("models.route"), "s"),
        "models.stage_calls": (stage_calls, "count"),
        "tensor.conv2d_s": (self_s("tensor.conv2d"), "s"),
        "tensor.conv2d_calls": (calls("tensor.conv2d"), "count"),
        "nn.routing.shared_s": (self_s("nn.routing.shared"), "s"),
        "nn.routing.shared_calls": (calls("nn.routing.shared"), "count"),
        "nn.routing.generic_s": (self_s("nn.routing.generic"), "s"),
        "core.noise.inject_s": (self_s("core.noise.inject"), "s"),
        "core.noise.calls": (calls("core.noise.inject"), "count"),
        "core.sweep.sweep_s": (self_s("core.sweep.sweep"), "s"),
        "core.sweep.observe_s": (statistics.median(observe), "s"),
        "core.sweep.trace_mb": (run.trace_mb, "MB"),
        "api.service.submit_s": (self_s("api.service.submit"), "s"),
        "api.service.overhead_s": (statistics.mean(overheads) if overheads
                                   else 0.0, "s"),
        "api.store.get_s": (self_s("api.store.get"), "s"),
        "api.store.put_s": (self_s("api.store.put"), "s"),
        "api.store.hit_ratio": (sum(gets) / len(gets) if gets else 0.0,
                                "ratio"),
        "api.store.put_bytes": (sum(run.put_bytes) / n, "bytes"),
        "api.scheduler.queue_wait_s": (statistics.mean(waits) if waits
                                       else 0.0, "s"),
        "api.scheduler.queued_max": (run.queued_max, "count"),
        "api.backends.shard_s": (rounds("api.backends",
                                        lambda trip, _: trip), "s"),
        "api.backends.worker_s": (rounds("api.backends",
                                         lambda _, worker: worker), "s"),
        "api.backends.dispatch_s": (rounds("api.backends",
                                           lambda trip, worker:
                                           trip - worker), "s"),
        "api.backends.worker_restarts": (run.worker_restarts, "count"),
        "api.events.count": (sum(r.events for r in run.records) / n, "count"),
        "api.events.bytes": (sum(r.event_bytes for r in run.records) / n,
                             "bytes"),
        "api.server.submit_s": (self_s("api.server.submit"), "s"),
        "api.server.result_s": (self_s("api.server.result"), "s"),
        "api.cluster.shard_s": (rounds("api.cluster",
                                       lambda trip, _: trip), "s"),
        "api.cluster.dispatch_s": (rounds("api.cluster",
                                          lambda trip, worker:
                                          trip - worker), "s"),
    }
    return values


def _queue_wait(record: Record) -> float:
    if record.started is None or record.queued is None:
        return 0.0
    return record.started - record.queued


def _store_seconds(run: Run) -> dict:
    """Request id -> seconds in store reads and writes during the loop."""
    seconds: dict = {}
    for span in run.tracer.spans:
        if span[2].startswith("api.store.") and span[3] >= run.loop_window[0]:
            seconds[span[5]] = seconds.get(span[5], 0.0) + span[4] - span[3]
    return seconds


def _service_share(run: Run) -> tuple[float, str]:
    """Share of cold request wall spent outside the measurement itself:
    scheduler queue wait, shard dispatch (round trip minus worker
    seconds), store reads/writes and, on the fleet, the client's HTTP
    submit and result fetch."""
    cold = {record.item.index: record for record in run.cold}
    wall = sum(record.latency for record in cold.values()) or 1.0
    parts = {
        "queue wait": sum(_queue_wait(record) for record in cold.values()),
        "dispatch": sum(trip - worker for _, request, trip, worker
                        in run.rounds if request in cold),
        "store": sum(seconds for request, seconds
                     in _store_seconds(run).items() if request in cold),
        "http": sum(span[4] - span[3] for span in run.tracer.spans
                    if span[2].startswith("api.server.")
                    and span[5] in cold),
    }
    detail = ", ".join(f"{name} {seconds / wall:.1%}"
                       for name, seconds in parts.items())
    return sum(parts.values()) / wall, detail


def stress_self_test(run: Run) -> tuple[bool, str]:
    """Does the workload stress the layer it was chosen for?"""
    loop = run.tracer.totals(*run.loop_window)
    name = run.workload.name
    if name == "steps24-deepcaps":
        stages = {kind: loop.get(f"models.{kind}", NO_SPANS)[1]
                  for kind in ("conv", "post", "votes", "route")}
        total = sum(stages.values()) or 1.0
        largest = max(stages, key=stages.get)
        shares = ", ".join(f"{kind} {seconds / total:.0%}"
                           for kind, seconds in stages.items())
        return largest == "conv", f"stage shares (inclusive): {shares}"
    if name == "routing-capsnet":
        wall = sum(record.latency for record in run.cold) or 1.0
        routing = loop.get("nn.routing.shared", NO_SPANS)[2]
        share = routing / wall
        return share >= 0.8, f"nn.routing.shared self time = {share:.0%} " \
                             f"of request wall"
    share, detail = _service_share(run)
    return share >= SERVICE_SHARE_MIN, (
        f"service layers = {share:.0%} of cold request wall "
        f"(>= {SERVICE_SHARE_MIN:.0%} required; {detail})")
