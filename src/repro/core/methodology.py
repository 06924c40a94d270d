"""The complete six-step ReD-CaNe methodology (paper Fig. 7).

::

    Input: CapsNet operations ──► 1 Group Extraction
                                  2 Group-Wise Resilience Analysis
                                  3 Mark Resilient Groups
                                  4 Layer-Wise Analysis (non-resilient)
                                  5 Mark Resilient Layers
    Input: component library ──► 6 Select Approximate Components
                                  ──► Output: approximate CapsNet design

The output bundles the chosen component per operation, a validation
accuracy obtained by injecting *all* selected components' noise at once,
and the estimated multiplier energy saving from :mod:`repro.hw`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..approx.library import ComponentLibrary
from ..data import Dataset
from ..hw import count_model_ops, energy_breakdown
from ..nn.hooks import GROUP_MAC, HookRegistry, use_registry
from ..train import evaluate_accuracy
from .groups import GroupExtraction, extract_groups
from .noise import GaussianNoiseInjector, NoiseSpec
from .resilience import PAPER_NM_SWEEP, ResilienceCurve, mark_resilient
from .selection import SelectionReport, select_components
from .sweep import ExecutionOptions

__all__ = ["ReDCaNeConfig", "ApproximateCapsNetDesign", "ReDCaNe"]


@dataclass
class ReDCaNeConfig:
    """Tuning knobs of the methodology run.

    Sweep execution (batch size, strategy, fault tolerance, tenant)
    lives in one shared :class:`~repro.core.sweep.ExecutionOptions` —
    the same dataclass the experiments' ``ExperimentScale`` and the CLI
    use.
    """

    nm_values: tuple[float, ...] = PAPER_NM_SWEEP
    layer_nm_values: tuple[float, ...] | None = None  # default: nm_values
    na: float = 0.0
    nm_reference: float = 0.05   # Step 3/5 marking threshold
    max_drop: float = 0.01       # tolerable accuracy drop
    seed: int = 0
    safety_factor: float = 1.0   # Step 6 margin
    execution: ExecutionOptions = field(default_factory=ExecutionOptions)
    verbose: bool = False


@dataclass
class ApproximateCapsNetDesign:
    """Output of the methodology: the approximate CapsNet design."""

    model_name: str
    extraction: GroupExtraction
    group_curves: dict[str, ResilienceCurve]
    resilient_groups: list[str]
    non_resilient_groups: list[str]
    layer_curves: dict[tuple[str, str], ResilienceCurve]
    resilient_layers: list[tuple[str, str]]
    non_resilient_layers: list[tuple[str, str]]
    selection: SelectionReport
    baseline_accuracy: float
    validated_accuracy: float
    multiplier_energy_saving: float | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def accuracy_cost(self) -> float:
        """Accuracy lost by the designed approximate network."""
        return self.baseline_accuracy - self.validated_accuracy

    def summary(self) -> str:
        lines = [
            f"ReD-CaNe design for {self.model_name}",
            f"  baseline accuracy : {self.baseline_accuracy:.4f}",
            f"  validated accuracy: {self.validated_accuracy:.4f} "
            f"(cost {self.accuracy_cost:+.4f})",
            f"  resilient groups   : {', '.join(self.resilient_groups) or '-'}",
            f"  non-resilient groups: "
            f"{', '.join(self.non_resilient_groups) or '-'}",
        ]
        if self.multiplier_energy_saving is not None:
            lines.append(f"  est. multiplier-energy saving: "
                         f"{self.multiplier_energy_saving:+.1%}")
        lines.append(self.selection.summary())
        return "\n".join(lines)


class ReDCaNe:
    """Run the six-step methodology on a trained model.

    Parameters
    ----------
    model:
        A trained :class:`~repro.models.CapsNet` or
        :class:`~repro.models.DeepCaps` (any hook-emitting model works).
    dataset:
        Test dataset whose accuracy is monitored.
    library:
        Approximate-component library for Step 6.
    """

    def __init__(self, model, dataset: Dataset, library: ComponentLibrary,
                 config: ReDCaNeConfig | None = None, service=None):
        self.model = model
        self.dataset = dataset
        self.library = library
        self.config = config or ReDCaNeConfig()
        self.service = service  # None -> repro.api.default_service()

    def _log(self, message: str) -> None:
        if self.config.verbose:
            print(f"[redcane] {message}")

    # ------------------------------------------------------------------ steps
    def run(self) -> ApproximateCapsNetDesign:
        """Execute Steps 1-6 and return the approximate design."""
        # Local import: repro.api builds on repro.core, so the methodology
        # resolves its service lazily rather than at module import time.
        from ..api import AnalysisRequest, default_service
        config = self.config
        sample = self.dataset.images[:min(8, len(self.dataset))]

        self._log("step 1: group extraction")
        extraction = extract_groups(self.model, sample)

        baseline = evaluate_accuracy(self.model, self.dataset,
                                     batch_size=config.execution.batch_size)
        self._log(f"baseline accuracy {baseline:.4f}")

        # Steps 2+4 submit through the analysis service: one session ref,
        # one engine behind it, so the prefix-activation cache built by
        # the group sweep is reused by the layer-wise refinement — and a
        # repeat run on unchanged weights/data is all store hits (session
        # results are cached by model/dataset content, not by name, so
        # the collision-free per-run name costs no warm starts).
        service = self.service or default_service()
        ref = service.register(
            f"redcane/{type(self.model).__name__}-{id(self):x}",
            self.model, self.dataset)
        try:
            self._log(f"step 2: group-wise resilience analysis "
                      f"({config.execution.strategy})")
            groups = [g for g, sites in extraction.groups.items() if sites]
            group_curves = service.run(AnalysisRequest(
                model=ref, targets=tuple((group, None) for group in groups),
                nm_values=config.nm_values, na=config.na, seed=config.seed,
                baseline_accuracy=baseline, options=config.execution)).curves

            self._log("step 3: mark resilient groups")
            resilient_groups, non_resilient_groups = mark_resilient(
                group_curves, nm_reference=config.nm_reference,
                max_drop=config.max_drop)

            self._log(f"step 4: layer-wise analysis of "
                      f"{non_resilient_groups}")
            layer_nm = tuple(config.layer_nm_values or config.nm_values)
            requests = [AnalysisRequest(
                model=ref,
                targets=tuple((group, layer)
                              for layer in extraction.layers_in_group(group)),
                nm_values=layer_nm, na=config.na, seed=config.seed,
                baseline_accuracy=baseline, options=config.execution)
                for group in non_resilient_groups
                if extraction.layers_in_group(group)]
            layer_curves: dict[tuple[str, str], ResilienceCurve] = {}
            for result in service.run_many(requests):
                layer_curves.update(result.curves)
        finally:
            # Free the engine's cached activation traces on the shared
            # service; the store keeps the measured curves.
            service.unregister(ref)

        self._log("step 5: mark resilient layers")
        resilient_layers, non_resilient_layers = mark_resilient(
            layer_curves, nm_reference=config.nm_reference,
            max_drop=config.max_drop)

        self._log("step 6: select approximate components")
        tolerances: dict[tuple[str, str | None], float] = {}
        for group in resilient_groups:
            tolerances[(group, None)] = group_curves[group].tolerable_nm(
                config.max_drop)
        for (group, layer), curve in layer_curves.items():
            tolerances[(group, layer)] = curve.tolerable_nm(config.max_drop)
        selection = select_components(tolerances, self.library,
                                      safety_factor=config.safety_factor)

        validated = self._validate(selection)
        energy_saving = self._estimate_energy_saving(selection)

        design = ApproximateCapsNetDesign(
            model_name=type(self.model).__name__,
            extraction=extraction,
            group_curves=group_curves,
            resilient_groups=resilient_groups,
            non_resilient_groups=non_resilient_groups,
            layer_curves=layer_curves,
            resilient_layers=resilient_layers,
            non_resilient_layers=non_resilient_layers,
            selection=selection,
            baseline_accuracy=baseline,
            validated_accuracy=validated,
            multiplier_energy_saving=energy_saving)
        self._log("done\n" + design.summary())
        return design

    # ------------------------------------------------------------ validation
    def _validate(self, selection: SelectionReport) -> float:
        """Accuracy with every selected component's noise injected at once."""
        registry = HookRegistry()
        for (group, layer), assignment in selection.assignments.items():
            spec = NoiseSpec(nm=assignment.measured_nm,
                             na=assignment.measured_na,
                             seed=self.config.seed)
            matcher = HookRegistry.match(group=group, layer=layer)
            registry.add_transform(matcher, GaussianNoiseInjector(spec))
        with use_registry(registry):
            return evaluate_accuracy(
                self.model, self.dataset,
                batch_size=self.config.execution.batch_size)

    # --------------------------------------------------------------- energy
    def _estimate_energy_saving(self, selection: SelectionReport
                                ) -> float | None:
        """Estimated multiplier-energy saving of the designed accelerator.

        Each layer's multiplications are scaled by the power ratio of the
        component assigned to its MAC-output operations (the multiplier-
        bound group); non-multiplier energy is unchanged.
        """
        try:
            report = count_model_ops(self.model)
        except TypeError:
            return None
        accurate_power = selection.accurate_power_uw
        baseline_total = 0.0
        approx_total = 0.0
        for layer, counts in report.per_layer.items():
            breakdown = energy_breakdown(counts)
            baseline_total += breakdown.total_pj
            try:
                assignment = selection.assignment_for(GROUP_MAC, layer)
                scale = assignment.power_uw / accurate_power
            except KeyError:
                scale = 1.0
            approx_total += energy_breakdown(counts,
                                             mul_scale=scale).total_pj
        if baseline_total <= 0:
            return None
        return 1.0 - approx_total / baseline_total
