"""Arithmetic-error profiling of approximate components (paper Sec. III-B).

Implements Eq. 2 — ``ΔP' = {∀a,b ∈ I : P'(a,b) − P(a,b)}`` — over a
representative input set ``I``, the MAC-accumulation scenarios of Fig. 6
(1, 9 and 81 multiply-accumulates, matching 3×3 and 9×9 convolution
kernels), Gaussian interpolation of the error distribution, and the
``NM``/``NA`` noise parameters:

``NM(Δ) = std(Δ) / R(X)``   and   ``NA(Δ) = mean(Δ) / R(X)``

where ``R(X)`` is the value range of the accurate result array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multipliers import MultiplierModel

__all__ = ["ErrorProfile", "sample_operands", "arithmetic_errors",
           "profile_multiplier", "measure_noise_parameters",
           "is_gaussian_like", "GaussianFit"]

#: Accumulation depths analysed in Fig. 6 (1 mult, 3x3 MAC, 9x9 MAC).
FIG6_ACCUMULATIONS = (1, 9, 81)


@dataclass(frozen=True)
class GaussianFit:
    """Gaussian interpolation of an error distribution."""

    mean: float
    std: float

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Normal density with the fitted parameters."""
        if self.std <= 0:
            return np.where(np.asarray(x) == self.mean, np.inf, 0.0)
        from scipy import stats
        return stats.norm.pdf(x, loc=self.mean, scale=self.std)


@dataclass
class ErrorProfile:
    """Result of profiling one component at one accumulation depth."""

    component: str
    accumulations: int
    errors: np.ndarray
    fit: GaussianFit
    gaussian_like: bool
    normality_pvalue: float

    def histogram(self, bins: int = 61) -> tuple[np.ndarray, np.ndarray]:
        """(counts, bin_centres) of the error distribution — Fig. 6 bars."""
        counts, edges = np.histogram(self.errors, bins=bins)
        centres = 0.5 * (edges[:-1] + edges[1:])
        return counts, centres


def sample_operands(rng: np.random.Generator, count: int,
                    distribution: np.ndarray | None = None) -> np.ndarray:
    """Draw ``count`` uint8 operands.

    ``distribution=None`` gives the paper's *modelled* uniform inputs;
    otherwise samples (with replacement) from the supplied empirical value
    pool (the paper's *real* input distribution, Fig. 11 / Table IV).
    """
    if distribution is None:
        return rng.integers(0, 256, size=count, dtype=np.int64)
    pool = np.asarray(distribution).reshape(-1)
    if pool.size == 0:
        raise ValueError("empirical operand pool is empty")
    pool = np.clip(np.rint(pool), 0, 255).astype(np.int64)
    return rng.choice(pool, size=count, replace=True)


def arithmetic_errors(multiplier: MultiplierModel, *, samples: int = 100_000,
                      accumulations: int = 1, seed: int = 0,
                      inputs_a: np.ndarray | None = None,
                      inputs_b: np.ndarray | None = None) -> np.ndarray:
    """Eq. 2 error samples, accumulated over an ``accumulations``-deep MAC.

    Returns ``samples`` draws of ``Σ_k (P'(a_k, b_k) − P(a_k, b_k))``.
    """
    if accumulations < 1:
        raise ValueError("accumulations must be >= 1")
    rng = np.random.default_rng(seed)
    total = samples * accumulations
    a = sample_operands(rng, total, inputs_a)
    b = sample_operands(rng, total, inputs_b)
    error = (multiplier.multiply(a, b) - a * b).reshape(samples, accumulations)
    return error.sum(axis=1)


def is_gaussian_like(errors: np.ndarray, *, pvalue_threshold: float = 1e-3,
                     moment_tolerance: float = 1.0) -> tuple[bool, float]:
    """Classify an error distribution as Gaussian-like.

    The paper reports 31/35 EvoApprox8B multipliers as Gaussian-like; for
    large samples, strict normality tests reject everything, so we follow
    the practical criterion: moderate skewness and excess kurtosis
    (|skew| and |kurtosis| below ``moment_tolerance``).  The D'Agostino
    p-value is returned for reference.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if np.allclose(errors, errors[0]):
        # Constant (e.g. exact multiplier): a degenerate Gaussian.
        return True, 1.0
    from scipy import stats
    skew = float(stats.skew(errors))
    kurt = float(stats.kurtosis(errors))
    try:
        _, pvalue = stats.normaltest(errors)
    except ValueError:
        pvalue = 0.0
    gaussian = abs(skew) <= moment_tolerance and abs(kurt) <= moment_tolerance
    return gaussian, float(pvalue)


def profile_multiplier(multiplier: MultiplierModel, *,
                       accumulations: int = 1, samples: int = 100_000,
                       seed: int = 0,
                       inputs_a: np.ndarray | None = None,
                       inputs_b: np.ndarray | None = None) -> ErrorProfile:
    """Full Fig. 6-style profile at one accumulation depth."""
    errors = arithmetic_errors(
        multiplier, samples=samples, accumulations=accumulations, seed=seed,
        inputs_a=inputs_a, inputs_b=inputs_b)
    fit = GaussianFit(float(errors.mean()), float(errors.std()))
    gaussian, pvalue = is_gaussian_like(errors)
    return ErrorProfile(multiplier.name, accumulations, errors, fit,
                        gaussian, pvalue)


def measure_noise_parameters(multiplier: MultiplierModel, *,
                             samples: int = 100_000, seed: int = 0,
                             inputs_a: np.ndarray | None = None,
                             inputs_b: np.ndarray | None = None
                             ) -> tuple[float, float]:
    """Measure ``(NA, NM)`` of a component (Sec. III-B, Table IV).

    The error statistics are normalised by the range ``R`` of the accurate
    products over the same input set.
    """
    rng = np.random.default_rng(seed)
    a = sample_operands(rng, samples, inputs_a)
    b = sample_operands(rng, samples, inputs_b)
    accurate = a * b
    errors = multiplier.multiply(a, b) - accurate
    value_range = float(accurate.max() - accurate.min())
    if value_range == 0.0:
        raise ValueError("degenerate input set: accurate products constant")
    return (float(errors.mean()) / value_range,
            float(errors.std()) / value_range)
