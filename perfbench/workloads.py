"""The benchmark's workloads: which service each one drives, and what it
submits.

Every workload is a closed loop.  The seed picks the noise seed of every
request and, on the mixed stream, which earlier request each repeat
repeats; it never changes targets, grids or the mix.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass

from repro.api import AnalysisRequest, ExecutionOptions, ModelRef
from repro.core import PAPER_NM_SWEEP
from repro.nn.hooks import (GROUP_ACTIVATIONS, GROUP_LOGITS, GROUP_MAC,
                            GROUP_SOFTMAX, INJECTABLE_GROUPS)

#: The 7-value quick grid of the Steps 2+4 sweep.
STEPS24_GRID = (0.5, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0)
#: The 6-value quick grid of the Step-2 service requests.
MIX_GRID = (0.5, 0.1, 0.05, 0.01, 0.002, 0.0)

DEEPCAPS = ModelRef(benchmark="DeepCaps/MNIST")
CAPSNET = ModelRef(benchmark="CapsNet/MNIST")


@dataclass(frozen=True)
class Item:
    """One submission of the stream; ``repeat_of`` is the index of the
    earlier cold item it repeats (a store hit), else ``None``."""

    index: int
    request: AnalysisRequest
    repeat_of: int | None = None


@dataclass(frozen=True)
class Shape:
    """Everything of a request but its noise seed."""

    model: ModelRef
    targets: tuple
    nm_values: tuple
    eval_samples: int | None
    batch_size: int

    def request(self, seed: int, nm_values=None) -> AnalysisRequest:
        return AnalysisRequest(
            model=self.model, targets=self.targets,
            nm_values=self.nm_values if nm_values is None else nm_values,
            seed=seed, eval_samples=self.eval_samples,
            options=ExecutionOptions(batch_size=self.batch_size))

    def warmup(self) -> AnalysisRequest:
        """Same engine key, clean grid: loads the model and observes the
        clean trace without measuring a noisy point."""
        return self.request(0, nm_values=(0.0,))


class Workload:
    name = ""
    backend = "inline"
    in_flight = 1
    use_store = False
    #: Set-ups per run (``setup_s`` is their median).
    setups = 5

    def shapes(self, service) -> list[Shape]:
        raise NotImplementedError

    def stream(self, shapes: list[Shape], seed: int):
        """Endless stream of :class:`Item`\\ s (inline: one shape)."""
        rng = random.Random(seed)
        for index in itertools.count():
            yield Item(index, shapes[0].request(rng.randrange(1, 1 << 31)))


class Steps24DeepCaps(Workload):
    """Steps 2+4 on DeepCaps: 4 groups plus mac/act on each of the 18
    layers (40 targets) x 7 NM values, 96 samples in one batch."""

    name = "steps24-deepcaps"

    def shapes(self, service) -> list[Shape]:
        layers = service.entry(DEEPCAPS).model.layer_names
        targets = tuple([(group, None) for group in INJECTABLE_GROUPS]
                        + [(group, layer)
                           for group in (GROUP_MAC, GROUP_ACTIVATIONS)
                           for layer in layers])
        return [Shape(DEEPCAPS, targets, STEPS24_GRID, 96, 96)]


class RoutingCapsNet(Workload):
    """CapsNet targets that resume at ClassCaps routing x the paper's
    10-value grid, on the full 256-sample split in batches of 24."""

    name = "routing-capsnet"

    def shapes(self, service) -> list[Shape]:
        targets = ((GROUP_SOFTMAX, None), (GROUP_LOGITS, None),
                   (GROUP_MAC, "ClassCaps"), (GROUP_ACTIVATIONS, "ClassCaps"))
        return [Shape(CAPSNET, targets, PAPER_NM_SWEEP, None, 24)]


class ServiceMixProcpool(Workload):
    """Step-2 requests alternating DeepCaps and CapsNet on a two-worker
    procpool with a fresh store; every fourth request repeats an earlier
    completed one and hits the store."""

    name = "service-mix-procpool"
    backend = "procpool"
    in_flight = 2
    use_store = True
    setups = 3
    models = (DEEPCAPS, CAPSNET)
    #: One cycle of the stream: (model index, is a repeat).
    CYCLE = ((0, False), (1, False), (0, False), (1, True),
             (0, False), (1, False), (0, True), (1, False))
    #: A repeat prefers an item at least this many positions back, which
    #: has finished long before in a two-deep closed loop.
    REPEAT_DISTANCE = 4

    def shapes(self, service) -> list[Shape]:
        targets = tuple((group, None) for group in INJECTABLE_GROUPS)
        return [Shape(DEEPCAPS, targets, MIX_GRID, 96, 96),
                Shape(CAPSNET, targets, MIX_GRID, 96, 96)]

    def stream(self, shapes: list[Shape], seed: int):
        rng = random.Random(seed)
        cold: list[list[Item]] = [[] for _ in shapes]
        for index in itertools.count():
            model, repeat = self.CYCLE[index % len(self.CYCLE)]
            if not repeat:
                item = Item(index, shapes[model].request(
                    rng.randrange(1, 1 << 31)))
                cold[model].append(item)
                yield item
                continue
            earlier = [item for item in cold[model]
                       if item.index <= index - self.REPEAT_DISTANCE]
            target = rng.choice(earlier) if earlier else cold[model][-1]
            yield dataclasses.replace(target, index=index,
                                      repeat_of=target.index)


class FleetHttpRemote(ServiceMixProcpool):
    """The stream of :class:`ServiceMixProcpool`, sent over HTTP to a
    loopback ``repro serve`` on the remote-pool backend with two
    ``repro worker`` agent processes (see ``fleet.py``)."""

    name = "fleet-http-remote"
    backend = "remote-pool"


WORKLOADS = {workload.name: workload
             for workload in (Steps24DeepCaps(), RoutingCapsNet(),
                              ServiceMixProcpool(), FleetHttpRemote())}
