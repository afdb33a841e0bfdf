"""Sinh-arcsinh normal distribution: location, scale, skewness, tail weight.

Parametrization: Y = mu + sigma * sinh((asinh(W) + skew) / tail) with
W ~ N(0, 1). At skew = 0, tail = 1 this reduces exactly to N(mu, sigma^2);
positive skew shifts mass to the right; tail < 1 fattens both tails and
tail > 1 thins them. The normal CDF and quantile are :mod:`pitcal.normal`'s
numpy ports of Cephes' ``ndtr`` and ``ndtri``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..normal import _INV_SQRT_2PI, ndtr, ndtri

__all__ = [
    "SinhArcsinhParams",
    "sinh_arcsinh_sample",
    "sinh_arcsinh_cdf",
    "sinh_arcsinh_quantile",
    "sinh_arcsinh_pdf",
]


@dataclass(frozen=True)
class SinhArcsinhParams:
    """One law's parameters; arrays of them broadcast to a family of laws."""

    mu: float
    sigma: float
    skew: float = 0.0
    tail: float = 1.0

    def __post_init__(self):
        if not np.all(np.greater(self.sigma, 0)):
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not np.all(np.greater(self.tail, 0)):
            raise ValueError(f"tail must be > 0, got {self.tail}")


def _from_normal(p: SinhArcsinhParams, w):
    """The law's values at standard normal values ``w``; arrays of parameters broadcast."""
    return p.mu + p.sigma * np.sinh((np.arcsinh(w) + p.skew) / p.tail)


def sinh_arcsinh_sample(p: SinhArcsinhParams, rng: np.random.Generator, size=None):
    return _from_normal(p, rng.standard_normal(size))


def sinh_arcsinh_cdf(p: SinhArcsinhParams, y):
    z = (np.asarray(y, dtype=float) - p.mu) / p.sigma
    return ndtr(np.sinh(p.tail * np.arcsinh(z) - p.skew))


def sinh_arcsinh_quantile(p: SinhArcsinhParams, q):
    return _from_normal(p, ndtri(np.asarray(q, dtype=float)))


def sinh_arcsinh_pdf(p: SinhArcsinhParams, y):
    z = (np.asarray(y, dtype=float) - p.mu) / p.sigma
    inner = p.tail * np.arcsinh(z) - p.skew
    s = np.sinh(inner)
    # transform density: phi(s) * |ds/dy|
    return (_INV_SQRT_2PI * np.exp(-0.5 * s * s) * np.cosh(inner) * p.tail
            / (p.sigma * np.sqrt(1.0 + z * z)))
