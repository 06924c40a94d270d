"""Steps 2-5 — group-wise and layer-wise resilience analysis.

A *resilience analysis step* (paper Sec. IV): choose noise parameters
``NM``/``NA``, inject at the selected operations, and monitor the noisy
test accuracy.  Group-wise analysis (Step 2) injects into every operation
of one Table III group at a time; layer-wise analysis (Step 4) then
refines the *non-resilient* groups layer by layer — the paper notes this
ordering skips a considerable amount of useless testing.

Both steps execute through the batched :mod:`repro.core.sweep` engine
(prefix-activation caching + NM stacking); ``strategy="naive"`` restores
the original one-evaluation-per-point loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..data import Dataset
from ..nn.hooks import use_registry
from ..train import evaluate_accuracy
from .noise import NoiseSpec, make_noise_registry

__all__ = ["PAPER_NM_SWEEP", "ResiliencePoint", "ResilienceCurve",
           "noisy_accuracy", "group_wise_analysis", "layer_wise_analysis",
           "mark_resilient"]

#: The NM sweep of Figs. 9/10/12 ("NM ∈ [0.5 … 0.001]", plus the clean 0).
PAPER_NM_SWEEP: tuple[float, ...] = (
    0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0)


@dataclass(frozen=True)
class ResiliencePoint:
    """Accuracy measurement at one noise setting."""

    nm: float
    na: float
    accuracy: float
    accuracy_drop: float  # accuracy - baseline (negative = degradation)


@dataclass
class ResilienceCurve:
    """Accuracy-vs-NM curve for one target (a group, or a group × layer)."""

    group: str
    layer: str | None = None  # None = all layers (group-wise)
    baseline_accuracy: float = 0.0
    points: list[ResiliencePoint] = field(default_factory=list)

    @property
    def target(self) -> str:
        return self.group if self.layer is None else f"{self.group}@{self.layer}"

    def drop_at(self, nm: float) -> float:
        """Accuracy drop at a specific NM (must be a measured point)."""
        for point in self.points:
            if point.nm == nm:
                return point.accuracy_drop
        raise KeyError(f"NM={nm} was not measured for {self.target}")

    def tolerable_nm(self, max_drop: float = 0.01) -> float:
        """Largest measured NM whose accuracy drop stays within ``max_drop``.

        This is the quantity Step 6 converts into a component choice: more
        resilient operations tolerate a larger NM, enabling more aggressive
        approximations.  Returns 0.0 if even the smallest non-zero NM fails.
        """
        tolerable = 0.0
        for point in self.points:
            if point.nm > 0 and -point.accuracy_drop <= max_drop:
                tolerable = max(tolerable, point.nm)
        return tolerable

    def is_resilient(self, *, nm_reference: float = 0.05,
                     max_drop: float = 0.01) -> bool:
        """Step 3/5 marking rule: tolerates ``nm_reference`` within ``max_drop``."""
        return self.tolerable_nm(max_drop) >= nm_reference


def noisy_accuracy(model, dataset: Dataset, spec: NoiseSpec, *,
                   groups=None, layers=None, batch_size: int = 64) -> float:
    """Test accuracy with noise injected at the matching sites."""
    registry = make_noise_registry(spec, groups=groups, layers=layers)
    with use_registry(registry):
        return evaluate_accuracy(model, dataset, batch_size=batch_size)


def _engine(model, dataset, batch_size, strategy, engine):
    """Build (or reuse) the sweep engine behind the Step 2/4 entry points."""
    if engine is not None:
        return engine
    from .sweep import SweepEngine
    return SweepEngine(model, dataset, batch_size=batch_size,
                       strategy=strategy)


def group_wise_analysis(model, dataset: Dataset, *,
                        groups: list[str],
                        nm_values=PAPER_NM_SWEEP, na: float = 0.0,
                        seed: int = 0, batch_size: int = 64,
                        baseline_accuracy: float | None = None,
                        strategy: str = "auto",
                        engine=None) -> dict[str, ResilienceCurve]:
    """Step 2: inject the same noise into every operation within a group,
    keeping the other groups accurate (paper Sec. VI-A).

    Execution routes through :class:`repro.core.sweep.SweepEngine`;
    ``strategy="naive"`` restores the original one-evaluation-per-point
    loop (see the engine's docstring for the other strategies).  A
    prebuilt ``engine`` may be passed to share its prefix-activation
    cache across Steps 2 and 4 (its batch size/strategy then take
    precedence).
    """
    engine = _engine(model, dataset, batch_size, strategy, engine)
    return engine.sweep([(group, None) for group in groups], nm_values,
                        na=na, seed=seed, baseline_accuracy=baseline_accuracy)


def layer_wise_analysis(model, dataset: Dataset, *,
                        groups: list[str], layers: list[str],
                        nm_values=PAPER_NM_SWEEP, na: float = 0.0,
                        seed: int = 0, batch_size: int = 64,
                        baseline_accuracy: float | None = None,
                        strategy: str = "auto",
                        engine=None) -> dict[tuple[str, str], ResilienceCurve]:
    """Step 4: per-layer injection for each (typically non-resilient) group.

    Routed through the sweep engine exactly like
    :func:`group_wise_analysis`.
    """
    engine = _engine(model, dataset, batch_size, strategy, engine)
    return engine.sweep(
        [(group, layer) for group in groups for layer in layers], nm_values,
        na=na, seed=seed, baseline_accuracy=baseline_accuracy)


def mark_resilient(curves: dict, *, nm_reference: float = 0.05,
                   max_drop: float = 0.01) -> tuple[list, list]:
    """Steps 3/5: split curve keys into (resilient, non_resilient)."""
    resilient, non_resilient = [], []
    for key, curve in curves.items():
        bucket = resilient if curve.is_resilient(
            nm_reference=nm_reference, max_drop=max_drop) else non_resilient
        bucket.append(key)
    return resilient, non_resilient
