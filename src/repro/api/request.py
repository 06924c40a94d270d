"""Declarative analysis requests and JSON-round-trippable results.

The paper's methodology is a pipeline of resilience *queries* — group
sweeps, layer sweeps, ablation points — that the experiment scripts used
to issue as direct calls into :mod:`repro.core.resilience`.  This module
gives those queries a declarative, serialisable shape:

:class:`AnalysisRequest`
    *What* to measure: a model reference, a target set (groups or
    group × layer pairs), the NM/NA grid, the seed, and the execution
    options.  Requests are frozen, hashable via :meth:`~AnalysisRequest.
    fingerprint` (SHA-256 over the canonical payload, with
    result-invariant knobs normalised away), and round-trip through a
    versioned JSON schema.

:class:`AnalysisResult`
    *What was measured*: one :class:`~repro.core.resilience.
    ResilienceCurve` per target plus provenance (the request, the model
    parameter/buffer CRC fingerprint, the dataset CRC, timings).  Also
    JSON-round-trippable, which is what makes the persistent
    :class:`~repro.api.store.ResultStore` possible.

:class:`PartialResult`
    *What has been measured so far*: the merged-so-far curves of a
    still-running request, one snapshot per completed shard.  Partials
    merge **monotonically** — the set of measured (target, NM) points
    only ever grows, and a point's value never changes once it appears —
    and the final merge is byte-identical to the blocking
    :class:`AnalysisResult` (both are assembled by the same
    shard-concatenation code path).  Schema-versioned and
    JSON-round-trippable like everything else on the wire.

Schema versioning: every payload carries ``{"schema": SCHEMA_VERSION}``.
Loading a payload from a different version raises — the store treats such
entries as misses rather than guessing at migrations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..core.resilience import PAPER_NM_SWEEP, ResilienceCurve, ResiliencePoint
from ..core.sweep import ExecutionOptions, SweepTarget

__all__ = ["SCHEMA_VERSION", "NOISE_KINDS", "ModelRef", "AnalysisRequest",
           "AnalysisResult", "PartialResult", "SchemaError"]

#: Version of the request/result JSON schema.  Bump on breaking changes.
SCHEMA_VERSION = 1

#: Supported noise models.  ``gaussian`` is the paper's Eq. 3-4 model
#: (``nm_values`` is the NM grid); ``quantization`` injects the Eq. 1
#: fixed-point round-trip error (``nm_values`` holds the word lengths).
NOISE_KINDS: tuple[str, ...] = ("gaussian", "quantization")


class SchemaError(ValueError):
    """A payload does not match the supported schema version."""


@dataclass(frozen=True)
class ModelRef:
    """A serialisable reference to a (model, test dataset) pair.

    Exactly one addressing mode must be used:

    ``benchmark``
        A paper benchmark label (Table II), e.g. ``"DeepCaps/CIFAR-10"``,
        resolved through :func:`repro.zoo.benchmark_entry`.
    ``preset`` + ``dataset``
        Zoo coordinates resolved through :func:`repro.zoo.get_trained`
        with its default training knobs.
    ``session``
        An in-memory model/dataset pair previously registered on a
        :class:`~repro.api.service.ResilienceService` under this name
        (used by :class:`~repro.core.methodology.ReDCaNe`).  Session
        results are still safely cacheable: the store key also carries
        the model-weights CRC and the dataset CRC.
    """

    benchmark: str | None = None
    preset: str | None = None
    dataset: str | None = None
    session: str | None = None

    def __post_init__(self) -> None:
        zoo = self.preset is not None or self.dataset is not None
        modes = ((self.benchmark is not None) + zoo
                 + (self.session is not None))
        if modes != 1:
            raise ValueError(
                "ModelRef needs exactly one of benchmark=, preset=+dataset=, "
                f"or session= (got {self!r})")
        if zoo and (self.preset is None or self.dataset is None):
            raise ValueError("zoo ModelRefs need both preset= and dataset=")

    @property
    def key(self) -> str:
        """Stable string identity used for engine caching and display."""
        if self.benchmark is not None:
            return f"benchmark:{self.benchmark}"
        if self.session is not None:
            return f"session:{self.session}"
        return f"zoo:{self.preset}/{self.dataset}"

    def to_payload(self) -> dict:
        return {name: value for name, value in (
            ("benchmark", self.benchmark), ("preset", self.preset),
            ("dataset", self.dataset), ("session", self.session))
            if value is not None}

    @classmethod
    def from_payload(cls, payload: dict) -> "ModelRef":
        return cls(**payload)


def _normalize_targets(targets) -> tuple[SweepTarget, ...]:
    """Accept strings, ``(group, layer)`` pairs or :class:`SweepTarget`."""
    normalized = []
    for target in targets:
        if isinstance(target, SweepTarget):
            normalized.append(target)
        elif isinstance(target, str):
            normalized.append(SweepTarget(target))
        else:
            normalized.append(SweepTarget(*target))
    return tuple(normalized)


@dataclass(frozen=True)
class AnalysisRequest:
    """One declarative resilience query (see module docstring).

    ``eval_samples`` limits evaluation to the first N test samples
    (``None`` = the ref's full test set); ``baseline_accuracy`` pins the
    drop reference (``None`` = the measured clean accuracy).  Both affect
    the result, so both enter the fingerprint.
    """

    model: ModelRef
    targets: tuple[SweepTarget, ...]
    nm_values: tuple[float, ...] = PAPER_NM_SWEEP
    na: float = 0.0
    seed: int = 0
    eval_samples: int | None = None
    baseline_accuracy: float | None = None
    noise: str = "gaussian"
    options: ExecutionOptions = ExecutionOptions()

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", _normalize_targets(self.targets))
        object.__setattr__(self, "nm_values",
                           tuple(float(nm) for nm in self.nm_values))
        if not self.targets:
            raise ValueError("AnalysisRequest needs at least one target")
        if not self.nm_values:
            raise ValueError("AnalysisRequest needs at least one nm value")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise!r}; "
                             f"valid: {list(NOISE_KINDS)}")

    @property
    def client_id(self) -> str | None:
        """The submitting tenant (``options.client_id``); ``None`` means
        the anonymous default tenant.  Carried on the wire, excluded
        from :meth:`fingerprint` — identical work by different tenants
        shares one cache entry."""
        return self.options.client_id

    # -------------------------------------------------------- serialisation
    def to_payload(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "model": self.model.to_payload(),
            "targets": [[t.group, t.layer] for t in self.targets],
            "nm_values": list(self.nm_values),
            "na": self.na,
            "seed": self.seed,
            "eval_samples": self.eval_samples,
            "baseline_accuracy": self.baseline_accuracy,
            "noise": self.noise,
            "options": self.options.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AnalysisRequest":
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise SchemaError(f"unsupported request schema {schema!r} "
                              f"(supported: {SCHEMA_VERSION})")
        return cls(
            model=ModelRef.from_payload(payload["model"]),
            targets=tuple(tuple(target) for target in payload["targets"]),
            nm_values=tuple(payload["nm_values"]),
            na=payload["na"], seed=payload["seed"],
            eval_samples=payload["eval_samples"],
            baseline_accuracy=payload["baseline_accuracy"],
            noise=payload.get("noise", "gaussian"),
            options=ExecutionOptions.from_payload(payload["options"]))

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisRequest":
        return cls.from_payload(json.loads(text))

    # -------------------------------------------------------------- hashing
    def fingerprint(self) -> str:
        """SHA-256 over the canonical, result-affecting payload.

        Differs from :meth:`to_payload` in two ways: the execution
        options collapse to :meth:`~repro.core.sweep.ExecutionOptions.
        cache_key`, so result-invariant knobs (retries, deadlines and
        tenant; ``naive`` vs ``cached``) hash identically — and session
        *names* are erased, because they are handles rather than
        content: the store key's model and dataset CRCs already identify
        the registered pair, so sessions holding identical weights and
        data share cache entries regardless of the name they registered
        under (this is what lets
        :class:`~repro.core.methodology.ReDCaNe` register collision-free
        per-run names without losing warm starts across runs).
        """
        payload = self.to_payload()
        payload["options"] = self.options.cache_key()
        if self.model.session is not None:
            payload["model"] = {"session": "*"}
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:20]


def _curve_to_payload(curve: ResilienceCurve) -> dict:
    return {
        "group": curve.group,
        "layer": curve.layer,
        "baseline_accuracy": curve.baseline_accuracy,
        "points": [[p.nm, p.na, p.accuracy, p.accuracy_drop]
                   for p in curve.points],
    }


def _curve_from_payload(payload: dict) -> ResilienceCurve:
    curve = ResilienceCurve(group=payload["group"], layer=payload["layer"],
                            baseline_accuracy=payload["baseline_accuracy"])
    curve.points = [ResiliencePoint(nm, na, accuracy, drop)
                    for nm, na, accuracy, drop in payload["points"]]
    return curve


@dataclass
class AnalysisResult:
    """Measured curves plus provenance; the unit the store persists.

    ``curves`` is keyed exactly like the Step 2/4 analysis results: by
    group name for group-wise targets, by ``(group, layer)`` otherwise —
    existing consumers index it unchanged.  ``from_cache`` is a runtime
    flag (excluded from equality) set by the store on a hit.
    """

    request: AnalysisRequest
    curves: dict
    baseline_accuracy: float
    model_fingerprint: str
    dataset_fingerprint: str
    created: float = 0.0
    elapsed_seconds: float = 0.0
    schema: int = SCHEMA_VERSION
    from_cache: bool = field(default=False, compare=False)

    def curve_for(self, group: str, layer: str | None = None
                  ) -> ResilienceCurve:
        """The measured curve of one target."""
        return self.curves[SweepTarget(group, layer).key]

    # -------------------------------------------------------- serialisation
    def to_payload(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "request": self.request.to_payload(),
            "curves": [_curve_to_payload(curve)
                       for curve in self.curves.values()],
            "baseline_accuracy": self.baseline_accuracy,
            "model_fingerprint": self.model_fingerprint,
            "dataset_fingerprint": self.dataset_fingerprint,
            "created": self.created,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AnalysisResult":
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise SchemaError(f"unsupported result schema {schema!r} "
                              f"(supported: {SCHEMA_VERSION})")
        curves = {}
        for entry in payload["curves"]:
            curve = _curve_from_payload(entry)
            curves[SweepTarget(curve.group, curve.layer).key] = curve
        return cls(request=AnalysisRequest.from_payload(payload["request"]),
                   curves=curves,
                   baseline_accuracy=payload["baseline_accuracy"],
                   model_fingerprint=payload["model_fingerprint"],
                   dataset_fingerprint=payload["dataset_fingerprint"],
                   created=payload["created"],
                   elapsed_seconds=payload["elapsed_seconds"])

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisResult":
        return cls.from_payload(json.loads(text))


@dataclass
class PartialResult:
    """Merged-so-far curves of a still-running request (module docstring).

    ``curves`` holds one (possibly point-incomplete) curve per target
    that has at least one completed shard; targets with nothing measured
    yet are absent.  ``complete`` flips exactly when every shard landed,
    at which point the curves carry every requested point and agree
    byte-for-byte with the job's final :class:`AnalysisResult`.
    """

    request: AnalysisRequest
    curves: dict
    shards_total: int
    shards_done: int
    baseline_accuracy: float | None = None
    complete: bool = False
    schema: int = SCHEMA_VERSION

    @classmethod
    def from_result(cls, result: AnalysisResult,
                    shards_total: int = 1) -> "PartialResult":
        """The trivial complete partial of an already-resolved result."""
        return cls(request=result.request, curves=dict(result.curves),
                   shards_total=shards_total, shards_done=shards_total,
                   baseline_accuracy=result.baseline_accuracy,
                   complete=True)

    def curve_for(self, group: str, layer: str | None = None
                  ) -> ResilienceCurve | None:
        """The merged-so-far curve of one target (``None`` if nothing of
        it has completed yet)."""
        return self.curves.get(SweepTarget(group, layer).key)

    def points_measured(self) -> int:
        """Total measured points across every target so far."""
        return sum(len(curve.points) for curve in self.curves.values())

    # -------------------------------------------------------- serialisation
    def to_payload(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "request": self.request.to_payload(),
            "curves": [_curve_to_payload(curve)
                       for curve in self.curves.values()],
            "shards_total": self.shards_total,
            "shards_done": self.shards_done,
            "baseline_accuracy": self.baseline_accuracy,
            "complete": self.complete,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PartialResult":
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise SchemaError(f"unsupported partial-result schema "
                              f"{schema!r} (supported: {SCHEMA_VERSION})")
        curves = {}
        for entry in payload["curves"]:
            curve = _curve_from_payload(entry)
            curves[SweepTarget(curve.group, curve.layer).key] = curve
        return cls(request=AnalysisRequest.from_payload(payload["request"]),
                   curves=curves,
                   shards_total=payload["shards_total"],
                   shards_done=payload["shards_done"],
                   baseline_accuracy=payload["baseline_accuracy"],
                   complete=payload["complete"])

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PartialResult":
        return cls.from_payload(json.loads(text))
