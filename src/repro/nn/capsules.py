"""Capsule layers: PrimaryCaps, ConvCaps2D, ConvCaps3D and ClassCaps.

Capsule feature maps are represented as ``(N, C, D, H, W)`` tensors —
``C`` capsule types of dimension ``D`` on an ``H×W`` grid — and fully
connected capsule sets as ``(N, num_caps, D)``.

Layer taxonomy follows the two architectures the paper evaluates:

* **CapsNet** [25]: ``Conv2D`` → :class:`PrimaryCaps` → :class:`ClassCaps`.
* **DeepCaps** [24] (paper Fig. 2): ``Conv2D`` → 4 capsule cells built from
  :class:`ConvCaps2D` (squash only) with one :class:`ConvCaps3D`
  (dynamic routing) in the final cell → :class:`ClassCaps`.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, conv2d, squash, vote_transform
from . import hooks
from .module import Module, Parameter
from .routing import RoutingSpec, dynamic_routing

__all__ = ["PrimaryCaps", "ConvCaps2D", "ConvCaps3D", "ClassCaps",
           "flatten_caps"]


def flatten_caps(x: Tensor) -> Tensor:
    """Flatten a capsule map ``(N, C, D, H, W)`` to a set ``(N, C*H*W, D)``."""
    n, c, d, h, w = x.shape
    return x.transpose(0, 1, 3, 4, 2).reshape(n, c * h * w, d)


class PrimaryCaps(Module):
    """First capsule layer of CapsNet [25]: convolution + reshape + squash."""

    def __init__(self, in_channels: int, num_caps: int, caps_dim: int,
                 kernel_size: int, *, stride: int = 2, padding: int = 0,
                 name: str = "PrimaryCaps",
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_caps = num_caps
        self.caps_dim = caps_dim
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.name = name
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(rng.normal(
            0.0, np.sqrt(2.0 / fan_in),
            (num_caps * caps_dim, in_channels, kernel_size, kernel_size),
        ).astype(np.float32))
        self.bias = Parameter(np.zeros(num_caps * caps_dim, dtype=np.float32))

    def compute_preact(self, x: Tensor) -> Tensor:
        """Convolution only, before the ``mac_outputs`` emit (see
        :meth:`repro.nn.Conv2D.compute_preact`)."""
        x = hooks.emit(hooks.InjectionSite(self.name, hooks.GROUP_MAC_INPUTS), x)
        return conv2d(x, self.weight, self.bias,
                      stride=self.stride, padding=self.padding)

    def finish(self, pre: Tensor) -> Tensor:
        """MAC emit, capsule reshape and squash."""
        out = hooks.emit(hooks.InjectionSite(self.name, hooks.GROUP_MAC), pre)
        n, _, oh, ow = out.shape
        caps = out.reshape(n, self.num_caps, self.caps_dim, oh, ow)
        caps = squash(caps, axis=2)
        caps = hooks.emit(
            hooks.InjectionSite(self.name, hooks.GROUP_ACTIVATIONS), caps)
        return caps

    def forward(self, x: Tensor) -> Tensor:
        return self.finish(self.compute_preact(x))


class ConvCaps2D(Module):
    """Convolutional capsule layer without routing (DeepCaps Caps2D block).

    Implemented, as in [24], as a regular convolution over the flattened
    ``C*D`` channel axis followed by a capsule-wise squash.
    """

    def __init__(self, in_caps: int, in_dim: int, out_caps: int, out_dim: int,
                 kernel_size: int = 3, *, stride: int = 1, padding: int = 1,
                 name: str | None = None, init_gain: float = 3.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_caps = in_caps
        self.in_dim = in_dim
        self.out_caps = out_caps
        self.out_dim = out_dim
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.name = name or f"ConvCaps2D_{out_caps}x{out_dim}"
        fan_in = in_caps * in_dim * kernel_size * kernel_size
        # Squash maps |s| -> |s|^2/(1+|s|^2): norms below 1 shrink
        # quadratically, so a deep stack needs pre-squash norms near the
        # |s| ~ 1.5 fixed point; init_gain > sqrt(2) keeps them there.
        self.weight = Parameter(rng.normal(
            0.0, init_gain / np.sqrt(fan_in),
            (out_caps * out_dim, in_caps * in_dim, kernel_size, kernel_size),
        ).astype(np.float32))
        self.bias = Parameter(np.zeros(out_caps * out_dim, dtype=np.float32))

    def compute_preact(self, x: Tensor) -> Tensor:
        """Convolution only, before the ``mac_outputs`` emit."""
        n, c, d, h, w = x.shape
        if (c, d) != (self.in_caps, self.in_dim):
            raise ValueError(
                f"{self.name}: expected capsules ({self.in_caps},{self.in_dim}),"
                f" got ({c},{d})")
        flat = x.reshape(n, c * d, h, w)
        flat = hooks.emit(
            hooks.InjectionSite(self.name, hooks.GROUP_MAC_INPUTS), flat)
        return conv2d(flat, self.weight, self.bias,
                      stride=self.stride, padding=self.padding)

    def finish(self, pre: Tensor) -> Tensor:
        """MAC emit, capsule reshape and squash."""
        out = hooks.emit(hooks.InjectionSite(self.name, hooks.GROUP_MAC), pre)
        n, _, oh, ow = out.shape
        caps = out.reshape(n, self.out_caps, self.out_dim, oh, ow)
        caps = squash(caps, axis=2)
        caps = hooks.emit(
            hooks.InjectionSite(self.name, hooks.GROUP_ACTIVATIONS), caps)
        return caps

    def forward(self, x: Tensor) -> Tensor:
        return self.finish(self.compute_preact(x))


class ConvCaps3D(Module):
    """Convolutional capsule layer *with* dynamic routing (DeepCaps Caps3D).

    As in [24], votes are produced by a convolution shared across input
    capsule types (a 3-D convolution over ``(D, H, W)``), then routed
    position-wise with :func:`dynamic_routing`.
    """

    def __init__(self, in_caps: int, in_dim: int, out_caps: int, out_dim: int,
                 kernel_size: int = 3, *, stride: int = 1, padding: int = 1,
                 routing_iterations: int = 3, name: str = "Caps3D",
                 init_gain: float = 3.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_caps = in_caps
        self.in_dim = in_dim
        self.out_caps = out_caps
        self.out_dim = out_dim
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.routing_iterations = routing_iterations
        self.name = name
        fan_in = in_dim * kernel_size * kernel_size
        self.weight = Parameter(rng.normal(
            0.0, init_gain / np.sqrt(fan_in),
            (out_caps * out_dim, in_dim, kernel_size, kernel_size),
        ).astype(np.float32))
        self.bias = Parameter(np.zeros(out_caps * out_dim, dtype=np.float32))

    def compute_votes(self, x: Tensor) -> Tensor:
        """Vote convolution only: ``(N, C, D, H, W) -> (N*C, Cout*D, OH, OW)``.

        Ends *before* the votes emit so a sweep replay that perturbs this
        layer's MAC outputs can reuse the cached raw votes.
        """
        n, c, d, h, w = x.shape
        if (c, d) != (self.in_caps, self.in_dim):
            raise ValueError(
                f"{self.name}: expected capsules ({self.in_caps},{self.in_dim}),"
                f" got ({c},{d})")
        merged = x.reshape(n * c, d, h, w)
        merged = hooks.emit(
            hooks.InjectionSite(self.name, hooks.GROUP_MAC_INPUTS), merged)
        return conv2d(merged, self.weight, self.bias,
                      stride=self.stride, padding=self.padding)

    def route(self, votes: Tensor) -> Tensor:
        """Votes emit + position-wise dynamic routing of the raw votes."""
        votes = hooks.emit(
            hooks.InjectionSite(self.name, hooks.GROUP_MAC, "votes"), votes)
        nc, _, oh, ow = votes.shape
        n = nc // self.in_caps
        u_hat = votes.reshape(n, self.in_caps, self.out_caps, self.out_dim,
                              oh * ow)
        routed = dynamic_routing(
            u_hat, iterations=self.routing_iterations, layer_name=self.name)
        return routed.reshape(n, self.out_caps, self.out_dim, oh, ow)

    def votes_to_u_hat(self, votes: np.ndarray) -> np.ndarray:
        """Raw vote map ``(N*Cin, Cout*D, OH, OW) -> (N, Cin, Cout, D, P)``.

        The ndarray twin of the reshape inside :meth:`route`, used by the
        sweep engine to feed cached raw votes (and their noise deltas)
        straight into the shared-votes routing fast path.
        """
        nc, _, oh, ow = votes.shape
        return votes.reshape(nc // self.in_caps, self.in_caps, self.out_caps,
                             self.out_dim, oh * ow)

    def routing_spec(self) -> RoutingSpec:
        """Shared-votes stage metadata (stage input = raw vote map)."""
        def finish(state, routed, points):
            _, _, oh, ow = state.shape  # the un-tiled raw vote map
            return routed.reshape(routed.shape[0], self.out_caps,
                                  self.out_dim, oh, ow)
        return RoutingSpec(layer=self, finish=finish)

    def forward(self, x: Tensor) -> Tensor:
        return self.route(self.compute_votes(x))


class ClassCaps(Module):
    """Fully-connected capsule layer with dynamic routing (DigitCaps in [25]).

    Each input capsule ``i`` votes for each output capsule ``j`` through a
    learned ``out_dim × in_dim`` transformation matrix ``W_ij``.
    """

    def __init__(self, in_caps: int, in_dim: int, out_caps: int, out_dim: int,
                 *, routing_iterations: int = 3, name: str = "ClassCaps",
                 init_std: float | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_caps = in_caps
        self.in_dim = in_dim
        self.out_caps = out_caps
        self.out_dim = out_dim
        self.routing_iterations = routing_iterations
        self.name = name
        # Routing averages ~in_caps votes, so vote magnitude must scale
        # like 1/sqrt(in_caps) for class capsules to start trainable
        # (0.1 for the 1152-capsule CapsNet of [25] matches this rule).
        if init_std is None:
            init_std = 1.2 / np.sqrt(in_caps)
        self.weight = Parameter(rng.normal(
            0.0, init_std, (in_caps, out_caps * out_dim, in_dim)).astype(np.float32))

    def compute_votes(self, x: Tensor) -> Tensor:
        """Vote transformation only: ``(N, Cin, D) -> (N, Cin, Cout, Dout)``.

        Ends *before* the votes emit so a sweep replay that perturbs this
        layer's MAC outputs can reuse the cached votes.
        """
        n, num_in, d = x.shape
        if (num_in, d) != (self.in_caps, self.in_dim):
            raise ValueError(
                f"{self.name}: expected input caps ({self.in_caps},{self.in_dim}),"
                f" got ({num_in},{d})")
        x = hooks.emit(hooks.InjectionSite(self.name, hooks.GROUP_MAC_INPUTS), x)
        # (Cin, out*dim, in_dim) applied per input capsule, batched over
        # the capsule axis so BLAS sees (N, in_dim) @ (in_dim, out*dim).
        return vote_transform(x, self.weight).reshape(
            n, num_in, self.out_caps, self.out_dim)

    def route(self, votes: Tensor) -> Tensor:
        """Votes emit + dynamic routing of the vote tensor."""
        n = votes.shape[0]
        votes = hooks.emit(
            hooks.InjectionSite(self.name, hooks.GROUP_MAC, "votes"), votes)
        u_hat = votes.expand_dims(4)  # trailing position axis of size 1
        routed = dynamic_routing(
            u_hat, iterations=self.routing_iterations, layer_name=self.name)
        return routed.reshape(n, self.out_caps, self.out_dim)

    def votes_to_u_hat(self, votes: np.ndarray) -> np.ndarray:
        """Votes ``(N, Cin, Cout, Dout) -> (N, Cin, Cout, Dout, 1)``.

        The ndarray twin of the ``expand_dims`` inside :meth:`route`, used
        by the sweep engine to feed cached votes (and their noise deltas)
        straight into the shared-votes routing fast path.  Not a view: the
        result is a capsule-major copy, stored in ``(N, Cout, Cin, Dout)``
        memory order under the same logical shape, because the routing
        agreement ``niod,jnod->jnio`` reads that order ~1.5x faster with
        the same bits (the weighted sum is layout-neutral).
        """
        major = np.ascontiguousarray(votes.transpose(0, 2, 1, 3))
        return major.transpose(0, 2, 1, 3)[..., None]

    def routing_spec(self) -> RoutingSpec:
        """Shared-votes stage metadata (stage input = vote tensor)."""
        def finish(state, routed, points):
            return routed.reshape(routed.shape[0], self.out_caps,
                                  self.out_dim)
        return RoutingSpec(layer=self, finish=finish)

    def forward(self, x: Tensor) -> Tensor:
        return self.route(self.compute_votes(x))
