"""Job-oriented analysis API: declarative requests, a futures-first
resilience service with pluggable execution backends, and a persistent
fingerprint-keyed result store.

This is the load-bearing seam between *what* a resilience question asks
(:class:`AnalysisRequest`) and *how* the sweep machinery answers it
(:class:`ResilienceService` → :class:`~repro.core.sweep.SweepEngine`),
with answers persisted content-addressed (:class:`ResultStore`) so
repeated artifact runs are cache hits and mutated models auto-invalidate.
*Where* a measurement executes is a pluggable backend
(:mod:`repro.api.backends`): ``inline`` (blocking reference), ``threads``
(cross-request parallelism), or one warm worker pool over two
transports: ``procpool`` (persistent child processes) and
``remote-pool`` (the same framed worker protocol over TCP to
``repro worker`` agents; :mod:`repro.api.cluster` adds the agent, a
multi-node coordinator and shared :class:`ResultStore` layouts); large requests shard per target
(:mod:`repro.api.scheduler`) through a bounded priority queue
(:class:`ShardQueue`, :class:`QueueFull` backpressure) and merge
byte-identically.  Progress is first-class: handles stream typed
lifecycle events (:mod:`repro.api.events`), expose merged-so-far
:class:`PartialResult` snapshots, and support cooperative
:meth:`~AnalysisHandle.cancel`.  :mod:`repro.api.server` serves the same
schema over HTTP (``repro serve``) — including a chunked event stream,
cancellation and 429 backpressure — with :class:`RemoteService` as the
thin client.

Typical use::

    from repro.api import AnalysisRequest, ModelRef, default_service

    request = AnalysisRequest(
        model=ModelRef(benchmark="DeepCaps/CIFAR-10"),
        targets=[("mac_outputs", None), ("softmax", None)],
        nm_values=(0.5, 0.05, 0.005, 0.0), seed=0, eval_samples=96)
    handle = default_service().submit(request)   # AnalysisHandle
    result = handle.result()                     # or service.run(request)
    result.curve_for("mac_outputs").tolerable_nm()

Every experiment module (fig9/fig10/fig12, the X2-X4 ablations) and the
:class:`~repro.core.methodology.ReDCaNe` pipeline submits through this
layer; see ``docs/api.md`` for the schema, backends, cache layout and
migration notes.
"""

from ..core.sweep import ExecutionOptions, SweepCancelled
from .backends import (BACKEND_NAMES, BackendError, ChaosBackend,
                       ExecutionBackend, InlineBackend, ProcPoolBackend,
                       RemotePoolBackend, ThreadBackend, make_backend,
                       parse_worker_address)
from .cluster import (ClusterCoordinator, CoordinatorServer, NodeUnreachable,
                      WorkerAgent)
from .events import (EVENT_KINDS, TERMINAL_EVENTS, AnalysisCancelled,
                     AnalysisEvent, CancelToken, EventLog)
from .request import (NOISE_KINDS, SCHEMA_VERSION, AnalysisRequest,
                      AnalysisResult, ModelRef, PartialResult, SchemaError)
from .resilience import (AttemptRecord, Fault, FaultPlan, FaultyStore,
                         RetryPolicy, ServiceHealth, ShardPoisoned,
                         WorkerCrashed, WorkerSupervisor, WorkerTimeout)
from .scheduler import (QueueFull, ShardMismatch, ShardQueue, merge_partial,
                        merge_shards, plan_shards)
from .server import (AnalysisServer, RemoteBusy, RemoteError, RemoteHandle,
                     RemoteService, ServerDraining)
from .service import (AnalysisHandle, ResilienceService, ResolvedModel,
                      ServiceStats, ShardProgress, dataset_fingerprint,
                      default_service)
from .store import (LAYOUT_NAMES, GcReport, LocalDirLayout, ResultStore,
                    SharedFSLayout, StoreEntry, StoreLayout,
                    default_store_root, make_layout, store_key)

__all__ = [
    "SCHEMA_VERSION", "NOISE_KINDS", "SchemaError",
    "ModelRef", "AnalysisRequest", "AnalysisResult", "PartialResult",
    "ExecutionOptions",
    "EVENT_KINDS", "TERMINAL_EVENTS", "AnalysisEvent", "EventLog",
    "CancelToken", "AnalysisCancelled", "SweepCancelled",
    "BACKEND_NAMES", "BackendError", "ExecutionBackend", "InlineBackend",
    "ThreadBackend", "ProcPoolBackend", "ChaosBackend",
    "make_backend",
    "WorkerCrashed", "WorkerTimeout", "ShardPoisoned", "AttemptRecord",
    "RetryPolicy", "WorkerSupervisor", "ServiceHealth",
    "Fault", "FaultPlan", "FaultyStore",
    "ShardMismatch", "plan_shards", "merge_shards", "merge_partial",
    "ShardQueue", "QueueFull",
    "AnalysisServer", "RemoteService", "RemoteHandle", "RemoteError",
    "RemoteBusy", "ServerDraining",
    "AnalysisHandle", "ShardProgress",
    "ResilienceService", "ResolvedModel", "ServiceStats", "default_service",
    "dataset_fingerprint",
    "ResultStore", "StoreEntry", "GcReport", "default_store_root",
    "store_key",
    "StoreLayout", "LocalDirLayout", "SharedFSLayout", "make_layout",
    "LAYOUT_NAMES",
    "WorkerAgent", "RemotePoolBackend", "parse_worker_address",
    "ClusterCoordinator", "CoordinatorServer", "NodeUnreachable",
]
