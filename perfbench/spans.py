"""In-memory spans for the traced run, and the layer instrumentation.

Tracing lives entirely in the benchmark: :meth:`Tracer.install` wraps
functions of ``repro`` where the layers call each other (the
``forward_stages`` stage callables, ``conv2d`` at its import sites, the
two routing kernels, the noise injectors, the sweep engine's ``sweep``
and its clean-trace observe) and :meth:`Tracer.uninstall` puts the
originals back.  Service-side spans (submit, store, backend round trips)
are recorded by the client, which wraps the objects of the one service
it drives.

A span is ``(span_id, parent_id, name, start, end, request_id)``.  The
parent is the innermost open span of the same thread; spans that start
and end on different threads (a backend round trip) have no parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans in memory; writes them out once, at the end."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ recording
    def set_request(self, request_id) -> None:
        """Tag the calling thread's following spans with ``request_id``."""
        self._local.request = request_id

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call (a no-op while disabled)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end,
                                     getattr(local, "request", None)))
        return traced

    def record(self, name: str, start: float, end: float,
               request_id=None) -> None:
        """A span measured outside :meth:`wrap` (e.g. across threads)."""
        if self.enabled:
            self.spans.append((next(self._ids), None, name, start, end,
                               request_id))

    # -------------------------------------------------------- instrumenting
    def patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def _patch_stages(self, model_cls) -> None:
        """Wrap each ``forward_stages`` stage as ``models.<kind>``, the
        kind being the stage name's suffix (``conv``, ``post``, ``votes``,
        ``route``)."""
        original = model_cls.forward_stages
        wrap = self.wrap

        def forward_stages(model):
            return [(entry[0], wrap("models." + entry[0].rsplit(".", 1)[-1],
                                    entry[1])) + tuple(entry[2:])
                    for entry in original(model)]

        self._patches.append((model_cls, "forward_stages", original))
        model_cls.forward_stages = forward_stages

    def install(self) -> None:
        """Instrument the numerics layers of ``repro``."""
        from repro.core import noise, sweep
        from repro.models import CapsNet, DeepCaps
        from repro.nn import capsules, layers

        for model_cls in (CapsNet, DeepCaps):
            self._patch_stages(model_cls)
        self.patch(layers, "conv2d", "tensor.conv2d")
        self.patch(capsules, "conv2d", "tensor.conv2d")
        self.patch(capsules, "dynamic_routing", "nn.routing.generic")
        self.patch(sweep, "dynamic_routing_shared", "nn.routing.shared")
        self.patch(noise.GaussianNoiseInjector, "__call__",
                   "core.noise.inject")
        self.patch(noise.StackedNoiseInjector, "__call__",
                   "core.noise.inject")
        self.patch(noise.StackedNoiseInjector, "affine_deltas",
                   "core.noise.inject")
        self.patch(sweep.SweepEngine, "sweep", "core.sweep.sweep")
        self.patch(sweep.SweepEngine, "_clean_trace", "core.sweep.observe")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reporting
    def totals(self, since: float = float("-inf"),
               until: float = float("inf")) -> dict:
        """``name -> [calls, inclusive seconds, self seconds]`` over the
        spans that started within ``[since, until)``.  Self time is a
        span's duration minus the part its child spans cover."""
        spans = [span for span in self.spans if since <= span[3] < until]
        covered: dict = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _, name, start, end, _ in spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered.get(span_id, 0.0)
        return dict(totals)

    def write(self, path: str) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as stream:
            for span_id, parent, name, start, end, request in self.spans:
                stream.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end, "request": request}) + "\n")
