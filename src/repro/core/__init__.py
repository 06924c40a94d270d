"""ReD-CaNe core: noise model, group taxonomy, resilience analysis,
component selection and the six-step methodology pipeline.

Steps 2+4 (the resilience sweeps) execute through the batched
:class:`~repro.core.sweep.SweepEngine`: one clean forward per test batch
caches per-stage activations (observe), each sweep target replays from
its first injected layer (replay), and a target's whole NM curve rides a
single NM-stacked forward — for routing-resumed targets, a single
shared-votes routing pass (:func:`repro.nn.dynamic_routing_shared`).
The ``strategy`` knob on the analysis functions and
:class:`ReDCaNeConfig` selects between ``naive`` (the original per-point
loop), ``cached`` (prefix replay, bit-identical to naive),
``vectorized`` (prefix replay + NM stacking, fastest) and ``auto``
(vectorized with a safe naive fallback).
"""

from .groups import GroupExtraction, extract_groups
from .methodology import ApproximateCapsNetDesign, ReDCaNe, ReDCaNeConfig
from .noise import (GaussianNoiseInjector, NoiseSpec, StackedNoiseInjector,
                    make_noise_registry, site_matcher, tensor_range)
from .resilience import (PAPER_NM_SWEEP, ResilienceCurve, ResiliencePoint,
                         group_wise_analysis, layer_wise_analysis,
                         mark_resilient, noisy_accuracy)
from .selection import OperationAssignment, SelectionReport, select_components
from .sweep import (STRATEGIES, ExecutionOptions, SweepEngine, SweepTarget,
                    model_fingerprint)

__all__ = [
    "NoiseSpec", "GaussianNoiseInjector", "StackedNoiseInjector",
    "make_noise_registry", "site_matcher", "tensor_range",
    "GroupExtraction", "extract_groups",
    "PAPER_NM_SWEEP", "ResiliencePoint", "ResilienceCurve",
    "group_wise_analysis", "layer_wise_analysis", "mark_resilient",
    "noisy_accuracy",
    "STRATEGIES", "ExecutionOptions", "SweepEngine", "SweepTarget",
    "model_fingerprint",
    "OperationAssignment", "SelectionReport", "select_components",
    "ReDCaNe", "ReDCaNeConfig", "ApproximateCapsNetDesign",
]
