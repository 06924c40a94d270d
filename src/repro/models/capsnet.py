"""The original CapsNet architecture of Sabour et al. [25].

``Conv1 (9×9, ReLU) → PrimaryCaps (9×9, stride 2, squash) → ClassCaps
(dynamic routing)`` — the paper evaluates this network on MNIST and
Fashion-MNIST (Table II, Fig. 12 bottom row).
"""

from __future__ import annotations

import numpy as np

from ..nn import ClassCaps, Conv2D, Module, PrimaryCaps, flatten_caps
from ..tensor import Tensor, capsule_lengths, conv_output_size

__all__ = ["CapsNet"]


class CapsNet(Module):
    """Sabour-style capsule network.

    Parameters scale the original architecture; the defaults correspond to
    the full-size network of [25] (256 conv channels, 32 primary capsule
    types of 8-D, 16-D class capsules).
    """

    def __init__(self, *, in_channels: int = 1, image_size: int = 28,
                 num_classes: int = 10, conv_channels: int = 256,
                 primary_caps: int = 32, primary_dim: int = 8,
                 class_dim: int = 16, conv_kernel: int = 9,
                 primary_kernel: int = 9, primary_stride: int = 2,
                 routing_iterations: int = 3, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.image_size = image_size
        self.num_classes = num_classes
        self.routing_iterations = routing_iterations
        self.conv1 = Conv2D(in_channels, conv_channels, conv_kernel,
                            activation="relu", name="Conv1", rng=rng)
        self.primary = PrimaryCaps(conv_channels, primary_caps, primary_dim,
                                   primary_kernel, stride=primary_stride,
                                   name="PrimaryCaps", rng=rng)
        conv_out = conv_output_size(image_size, conv_kernel, 1, 0)
        primary_out = conv_output_size(conv_out, primary_kernel,
                                       primary_stride, 0)
        self.primary_grid = primary_out
        in_caps = primary_caps * primary_out * primary_out
        self.class_caps = ClassCaps(in_caps, primary_dim, num_classes,
                                    class_dim,
                                    routing_iterations=routing_iterations,
                                    name="ClassCaps", rng=rng)

    # ------------------------------------------------------------- interface
    @property
    def layer_names(self) -> list[str]:
        """Canonical layer names, in execution order."""
        return ["Conv1", "PrimaryCaps", "ClassCaps"]

    @property
    def routing_layers(self) -> list[str]:
        """Layers that perform dynamic routing."""
        return ["ClassCaps"]

    def forward_stages(self):
        """Prefix-resumable decomposition (see :meth:`Module.forward_stages`).

        Each convolution's GEMM is its own stage, with the layer's emits at
        the start of the *next* stage, so a sweep that perturbs e.g. the
        Conv1 MAC outputs replays from the clean pre-activation instead of
        running the convolution on every stacked NM point.  The engine's
        clean trace does not store affine stage outputs, so that
        pre-activation costs one un-stacked convolution per batch.
        """
        affine = {"affine": True}
        return [
            ("Conv1.conv", self.conv1.compute_preact, affine),
            ("Conv1.post", self.conv1.finish),
            ("PrimaryCaps.conv", self.primary.compute_preact, affine),
            ("PrimaryCaps.post", self.primary.finish),
            ("ClassCaps.votes",
             lambda caps: self.class_caps.compute_votes(flatten_caps(caps)),
             affine),
            ("ClassCaps.route", self.class_caps.route,
             {"routing": self.class_caps.routing_spec()}),
        ]

    def forward(self, x: Tensor) -> Tensor:
        """Map images ``(N, C, H, W)`` to class capsules ``(N, classes, D)``."""
        return self.run_stages(x)

    def predict(self, x: Tensor) -> np.ndarray:
        """Predicted class labels via capsule lengths."""
        lengths = capsule_lengths(self.forward(x))
        return np.argmax(lengths.data, axis=1)
