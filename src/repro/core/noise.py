"""Noise-injection model (paper Sec. III-C, Eq. 3-4).

An approximation error on tensor ``X`` with shape ``s`` is modelled as

``ΔX = Gauss(s, NM · R(X)) + NA · R(X)``   and   ``X' = X + ΔX``

where ``R(X)`` is the value range of ``X`` and ``NM``/``NA`` are the noise
magnitude / noise average of the approximate component (Sec. III-B).  The
range is computed *per tensor, at injection time*, mirroring the paper's
specialised TensorFlow node ("std = NM · R(τ), m = NA · R(τ), given the
range R of the node τ").
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..nn.hooks import (INJECTABLE_GROUPS, HookRegistry, InjectionSite)

__all__ = ["NoiseSpec", "GaussianNoiseInjector", "StackedNoiseInjector",
           "make_noise_registry", "site_matcher", "tensor_range"]


def tensor_range(x: np.ndarray) -> float:
    """``R(X) = max(X) - min(X)`` (paper Sec. III-B)."""
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return float(x.max() - x.min())


@dataclass(frozen=True)
class NoiseSpec:
    """Noise parameters of one injection: magnitude, average, RNG seed."""

    nm: float = 0.0
    na: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.nm < 0:
            raise ValueError("noise magnitude NM must be non-negative")

    @property
    def is_zero(self) -> bool:
        return self.nm == 0.0 and self.na == 0.0


class GaussianNoiseInjector:
    """Callable transform implementing Eq. 3-4 at an injection site.

    A fresh RNG is derived per (seed, site) pair so that injections are
    reproducible yet independent across sites and across forward passes
    within one evaluation.
    """

    def __init__(self, spec: NoiseSpec):
        self.spec = spec
        self._streams: dict[InjectionSite, np.random.Generator] = {}
        self.injection_count = 0

    def _rng(self, site: InjectionSite) -> np.random.Generator:
        stream = self._streams.get(site)
        if stream is None:
            # zlib.crc32 is stable across processes (Python's hash() is
            # salted per process and would break run-to-run reproducibility)
            site_key = zlib.crc32(
                f"{site.layer}|{site.group}|{site.tag}".encode())
            stream = np.random.default_rng((self.spec.seed, site_key))
            self._streams[site] = stream
        return stream

    def __call__(self, site: InjectionSite, value: np.ndarray) -> np.ndarray:
        if self.spec.is_zero:
            return value
        value_range = tensor_range(value)
        if value_range == 0.0:
            return value
        self.injection_count += 1
        rng = self._rng(site)
        std = self.spec.nm * value_range
        mean = self.spec.na * value_range
        if std == 0.0:
            return value + np.float32(mean)
        noise = rng.normal(mean, std, size=value.shape).astype(np.float32)
        return value + noise

    def reset(self) -> None:
        """Drop per-site RNG streams (restores determinism for a rerun)."""
        self._streams.clear()
        self.injection_count = 0


class StackedNoiseInjector:
    """Vectorised injector for NM-stacked ("sweep-axis") batches.

    The sweep engine (:mod:`repro.core.sweep`) stacks every noisy NM value
    of one sweep target along the batch axis; this transform treats a
    site value's leading axis as ``len(specs)`` equal slices, one per
    sweep point, and gives slice ``j`` Gaussian noise with
    ``std = nm_j * R_j`` and ``mean = na_j * R_j`` where ``R_j`` is that
    slice's own value range — exactly Eq. 3-4 evaluated per point.

    One standard-normal base draw per (site, batch) is shared by every
    slice (common random numbers), so a whole NM curve costs a single
    evaluation's worth of RNG work and the per-point curves come out
    smoother than with independent draws.  Streams are derived from
    ``(seed, salt, site, batch)``, making results independent of which
    other targets are swept and of the requested NM set.  The draws live
    in a private cache that holds the current batch only.
    """

    def __init__(self, specs, *, seed: int = 0, salt: str = "",
                 uniform_sites=frozenset()):
        self.seed = seed
        self.salt = salt
        #: Sites whose pre-noise slices are known identical (the first
        #: injected site of a replay sees the tiled clean prefix), letting
        #: the per-slice range reduce to one slice's range.
        self.uniform_sites = frozenset(uniform_sites)
        self._batch_index = 0
        self._base: dict = {}  # site -> base draw of the current batch
        self.set_specs(specs)

    def set_specs(self, specs) -> None:
        """Select the sweep points of the next replay (one slice each).

        The engine replays a curve in batch-size-bounded chunks; because
        the base draw per (site, batch) is cached, chunking does not change
        the noise a given point receives.
        """
        self.specs = list(specs)
        self._nms = np.array([spec.nm for spec in self.specs], np.float32)
        self._nas = np.array([spec.na for spec in self.specs], np.float32)

    def begin_batch(self, index: int = 0) -> None:
        """Drop the previous batch's base draws (call when the batch
        changes).

        Base draws are derived statelessly from ``(seed, salt, site,
        batch index)``, so the noise a point receives is independent of
        chunking, of the other targets swept, and of any worker-pool
        partitioning — and two targets sharing a site draw the same noise
        there (common random numbers across targets, which *pairs* the
        curves the methodology compares).
        """
        self._batch_index = index
        self._base.clear()

    def _base_draw(self, site: InjectionSite,
                   shape: tuple[int, ...]) -> np.ndarray:
        z = self._base.get(site)
        if z is None:
            site_key = zlib.crc32(
                f"{self.salt}|{site.layer}|{site.group}|{site.tag}".encode())
            rng = np.random.default_rng(
                (self.seed, site_key, self._batch_index))
            z = rng.standard_normal(size=shape, dtype=np.float32)
            self._base[site] = z
        return z

    def affine_deltas(self, site: InjectionSite, value: np.ndarray) -> list:
        """Factor this site's stacked injection as ``Σ_b coeffs_b[j]·delta_b``.

        Valid only when every stacked slice would see the same clean
        ``value`` (the first injected site of a replay, whose prefix is
        the shared clean trace): point ``j``'s noisy value is then
        ``value + nm_j·R·z + na_j·R`` with one shared base draw ``z`` and
        ``R`` the clean value range.  Returns ``(coeffs, delta)`` pairs —
        per-point coefficient vectors against shared delta arrays — that
        the sweep engine feeds to
        :func:`~repro.nn.dynamic_routing_shared` so the per-point noisy
        vote stack is never materialised.  An empty list means the
        injection is a no-op (zero range, or all-zero NM and NA).
        """
        value_range = np.float32(tensor_range(value))
        deltas = []
        if value_range == 0.0:
            return deltas
        if self._nms.any():
            z = self._base_draw(site, value.shape)
            deltas.append((self._nms * value_range, z))
        if self._nas.any():
            deltas.append((self._nas * value_range,
                           np.ones(value.shape, np.float32)))
        return deltas

    def __call__(self, site: InjectionSite, value: np.ndarray) -> np.ndarray:
        k = len(self.specs)
        if value.shape[0] % k:
            raise ValueError(
                f"leading axis {value.shape[0]} of {site} is not divisible "
                f"by the {k} stacked sweep points")
        slices = value.reshape(k, value.shape[0] // k, *value.shape[1:])
        if site in self.uniform_sites:
            vrange = np.broadcast_to(
                np.float32(tensor_range(slices[0])), (k,))
        else:
            flat = slices.reshape(k, -1)
            vrange = (flat.max(axis=1) - flat.min(axis=1)).astype(np.float32)
        broadcast = (k,) + (1,) * (slices.ndim - 1)
        stds = (self._nms * vrange).reshape(broadcast)
        means = (self._nas * vrange).reshape(broadcast)
        z = self._base_draw(site, slices.shape[1:])
        # ``slices + z*stds + means`` in one buffer (addition commutes, so
        # the bits are the same).
        noisy = z[None] * stds
        noisy += slices
        noisy += means
        return noisy.reshape(value.shape)

    def reset(self) -> None:
        """Drop cached base draws (restores rerun determinism)."""
        self._base.clear()


def site_matcher(*, groups=None, layers=None, tags=None):
    """Matcher over *injectable* sites with optional group/layer/tag sets.

    Shared by :func:`make_noise_registry` and the sweep engine so that both
    agree exactly on which sites a (groups, layers) restriction selects;
    ``None`` means "no constraint".  Only Table III groups are injectable.
    """
    group_set = set(groups) if groups is not None else None
    layer_set = set(layers) if layers is not None else None
    tag_set = set(tags) if tags is not None else None
    if group_set is not None:
        unknown = group_set - set(INJECTABLE_GROUPS)
        if unknown:
            raise ValueError(
                f"non-injectable groups: {sorted(unknown)}; "
                f"injectable: {list(INJECTABLE_GROUPS)}")

    def matcher(site: InjectionSite) -> bool:
        if site.group not in INJECTABLE_GROUPS:
            return False
        if group_set is not None and site.group not in group_set:
            return False
        if layer_set is not None and site.layer not in layer_set:
            return False
        if tag_set is not None and site.tag not in tag_set:
            return False
        return True

    return matcher


def make_noise_registry(spec: NoiseSpec, *, groups=None, layers=None,
                        tags=None) -> HookRegistry:
    """Build a registry injecting ``spec`` noise at matching sites.

    Parameters
    ----------
    groups / layers / tags:
        Optional iterables restricting where noise is injected; ``None``
        means "no constraint".  Only Table III groups are injectable.
    """
    registry = HookRegistry()
    registry.add_transform(site_matcher(groups=groups, layers=layers,
                                        tags=tags),
                           GaussianNoiseInjector(spec))
    return registry
