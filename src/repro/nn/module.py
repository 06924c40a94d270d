"""Module / parameter abstractions for the NumPy NN substrate.

Modelled on the familiar torch-style API (``parameters()``, ``state_dict()``,
``train()``/``eval()``) so that the rest of the reproduction reads naturally,
but implemented with plain attribute scanning — no metaclass magic.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A tensor that is registered as trainable model state."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.op = "parameter"


class Module:
    """Base class for layers and models.

    Sub-modules and parameters are discovered by scanning instance
    attributes, preserving definition order (Python dicts are ordered).
    """

    def __init__(self) -> None:
        self.training = True
        self.name = type(self).__name__
        self._buffers: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------- traversal
    def children(self) -> Iterator[tuple[str, "Module"]]:
        """Yield ``(attribute_name, sub_module)`` pairs in definition order."""
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield attr, value
            elif isinstance(value, ModuleList):
                for index, module in enumerate(value):
                    yield f"{attr}.{index}", module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` for this module and children."""
        for attr, value in vars(self).items():
            if isinstance(value, Parameter):
                yield f"{prefix}{attr}", value
        for attr, child in self.children():
            yield from child.named_parameters(prefix=f"{prefix}{attr}.")

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module tree."""
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(param.size for param in self.parameters())

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, buffer)`` for non-trainable state."""
        for key, value in self._buffers.items():
            yield f"{prefix}{key}", value
        for attr, child in self.children():
            yield from child.named_buffers(prefix=f"{prefix}{attr}.")

    def register_buffer(self, key: str, value: np.ndarray) -> None:
        """Track a non-trainable array (e.g. batch-norm running stats)."""
        self._buffers[key] = np.asarray(value, dtype=np.float32)

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth-first."""
        yield self
        for _, child in self.children():
            yield from child.modules()

    # ------------------------------------------------------------------ modes
    def train(self) -> "Module":
        """Switch the module tree to training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Switch the module tree to inference mode."""
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------- persistence
    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot of every parameter and buffer as plain arrays."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, buffer in self.named_buffers():
            state[f"buffer::{name}"] = buffer.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load a snapshot produced by :meth:`state_dict` (strict)."""
        params = dict(self.named_parameters())
        buffer_owners = dict(self._buffer_owners())
        for key, value in state.items():
            if key in params:
                if params[key].shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: model {params[key].shape}, "
                        f"checkpoint {value.shape}")
                params[key].data = np.asarray(value, dtype=np.float32).copy()
            elif key.startswith("buffer::"):
                qualified = key[len("buffer::"):]
                if qualified not in buffer_owners:
                    raise KeyError(f"unexpected buffer in state dict: {qualified}")
                owner, local_key = buffer_owners[qualified]
                owner._buffers[local_key] = np.asarray(value, dtype=np.float32).copy()
            else:
                raise KeyError(f"unexpected key in state dict: {key}")
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"missing keys in state dict: {sorted(missing)}")

    def _buffer_owners(self, prefix: str = ""):
        """Yield ``(qualified_name, (owning_module, local_key))`` pairs."""
        for key in self._buffers:
            yield f"{prefix}{key}", (self, key)
        for attr, child in self.children():
            yield from child._buffer_owners(prefix=f"{prefix}{attr}.")

    # ------------------------------------------------------------ staged form
    def forward_stages(self):
        """Optional staged decomposition of :meth:`forward`.

        Models that support prefix-resumable execution (the replay half of
        the sweep engine's observe/replay mode, :mod:`repro.core.sweep`)
        return a list of ``(stage_name, fn)`` or ``(stage_name, fn, meta)``
        entries such that chaining ``state = fn(state)`` from the forward
        input reproduces ``forward(x)`` bit-for-bit.  Stage state must be a
        Tensor or a tuple of Tensors whose leading axis is (a multiple of)
        the batch axis — the invariant that lets the engine cache stage
        outputs and stack sweep points along the batch dimension.  ``meta``
        may declare ``{"affine": True}`` for stages that are affine in
        their input (convolution/vote GEMMs), enabling the engine to
        factor a whole NM curve through one stage application (the
        engine's clean trace also keeps no affine stage output and
        recomputes it from the stage input when a replay needs it), and
        ``{"routing": RoutingSpec}`` on a dynamic-routing stage
        (:class:`~repro.nn.RoutingSpec`), enabling the engine's
        shared-votes fast path — the whole NM curve rides one batched
        routing pass against a single un-tiled vote tensor.  The default
        ``None`` means "no staged form"; the engine then treats the whole
        forward as a single stage.
        """
        return None

    def run_stages(self, x):
        """Execute :meth:`forward_stages` as a chain (helper for forward)."""
        for entry in self.forward_stages():
            x = entry[1](x)
        return x

    # ---------------------------------------------------------------- calling
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ModuleList(list):
    """A list of modules that participates in parameter discovery."""

    def __init__(self, modules=()):
        super().__init__()
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:  # type: ignore[override]
        if not isinstance(module, Module):
            raise TypeError("ModuleList only holds Module instances")
        super().append(module)
