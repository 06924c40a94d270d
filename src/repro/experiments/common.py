"""Shared plumbing for the paper-artifact regeneration modules.

Every experiment module exposes a ``run(...)`` returning a small result
dataclass with a ``rows()`` (tables) or ``series()`` (figures) method plus
``format_text()`` so benches and examples can print the same artifact the
paper shows.  The accuracy-in-the-loop artifacts submit their sweeps as
:class:`~repro.api.AnalysisRequest` jobs through a
:class:`~repro.api.ResilienceService` — blocking via its ``run``/
``run_many`` wrappers, or handle-based where panels can overlap
(``fig12`` submits every benchmark before waiting on any, so a parallel
execution backend sweeps them concurrently; a
:class:`~repro.api.RemoteService` duck-types as the ``service=``
argument for out-of-process serving).  :class:`ExperimentScale` holds
the *what* (eval set size, NM grid) and delegates the *how* to one
shared :class:`~repro.core.sweep.ExecutionOptions`; *where* requests
execute is the service's backend (``repro.api.backends``), configured at
service construction, never per experiment.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

from ..core.sweep import ExecutionOptions
from ..zoo import ZooEntry
from ..zoo import benchmark_entry as _zoo_benchmark_entry

__all__ = ["benchmark_entry", "format_table", "ExperimentScale",
           "ExecutionOptions"]


class _instance_or_default_method:
    """Descriptor: bind to the instance, or to a default-constructed one.

    Lets ``ExperimentScale.quick()`` keep working (defaults) while
    ``ExperimentScale(nm_values=...).quick()`` derives from the instance.
    """

    def __init__(self, fn):
        self.fn = fn
        functools.update_wrapper(self, fn)

    def __get__(self, instance, owner):
        return functools.partial(self.fn, instance if instance is not None
                                 else owner())


@dataclass(frozen=True)
class ExperimentScale:
    """Evaluation-scale knobs shared by the accuracy-in-the-loop artifacts.

    ``execution`` carries the sweep execution knobs (batch size,
    strategy, fault tolerance, tenant) — the single
    :class:`~repro.core.sweep.ExecutionOptions` every consumer shares.
    """

    eval_samples: int = 256
    nm_values: tuple[float, ...] = (
        0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0)
    execution: ExecutionOptions = field(default_factory=ExecutionOptions)

    @_instance_or_default_method
    def quick(self) -> "ExperimentScale":
        """Reduced scale for CI-speed runs, derived from this instance.

        Subsamples the NM grid (every third value, keeping the final —
        clean — point), caps the eval set at 96 samples and evaluates it
        as a single batch; every other knob (custom grids, strategy,
        shared votes) carries over via :func:`dataclasses.replace`.
        Callable on the class (``ExperimentScale.quick()``) for the
        default quick scale.
        """
        nm_values = self.nm_values[::3]
        if nm_values[-1] != self.nm_values[-1]:
            nm_values += (self.nm_values[-1],)
        eval_samples = min(self.eval_samples, 96)
        return dataclasses.replace(
            self, eval_samples=eval_samples, nm_values=nm_values,
            execution=dataclasses.replace(self.execution,
                                          batch_size=eval_samples))


def benchmark_entry(label: str) -> ZooEntry:
    """Trained zoo model for a paper benchmark label (e.g. 'DeepCaps/MNIST').

    Thin re-export of :func:`repro.zoo.benchmark_entry` (the resolver now
    lives next to the zoo so :mod:`repro.api` can use it without import
    cycles).
    """
    return _zoo_benchmark_entry(label)


def format_table(headers: list[str], rows: list[tuple], *,
                 title: str = "") -> str:
    """Monospace table rendering used by every experiment's format_text."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(headers[i]), *(len(r[i]) for r in str_rows))
              if str_rows else len(headers[i]) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
