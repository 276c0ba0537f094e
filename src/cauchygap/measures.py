"""Generalised Cauchy probability measures on R^n.

mu has density (1 + |x|^2)^(-beta) / Z(n, beta) with beta > n/2.  All
Gamma-function arithmetic happens in log space so that moment ratios stay
finite for large beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MeasureParams:
    """Dimension n >= 1 and tail exponent beta > n/2."""

    n: int
    beta: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "beta", float(self.beta))
        if not np.isfinite(self.beta) or self.beta <= self.n / 2:
            raise ValueError(
                f"beta must exceed n/2 = {self.n / 2} for a finite measure, got {self.beta}"
            )


def log_normalization(params: MeasureParams) -> float:
    """log Z(n, beta) with Z = pi^(n/2) Gamma(beta - n/2) / Gamma(beta)."""
    n, beta = params.n, params.beta
    return 0.5 * n * math.log(math.pi) + math.lgamma(beta - n / 2) - math.lgamma(beta)


def normalization(params: MeasureParams) -> float:
    return float(np.exp(log_normalization(params)))


def _sq_norms(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[-1] != n:
        raise ValueError(f"points have dimension {x.shape[-1]}, expected {n}")
    return np.sum(x * x, axis=-1)


def density(x: np.ndarray, params: MeasureParams) -> np.ndarray:
    """Probability density at points x: a float for one point of shape
    (n,), an array (N,) for points (N, n)."""
    s = _sq_norms(x, params.n)
    out = np.exp(-params.beta * np.log1p(s) - log_normalization(params))
    return float(out[0]) if np.ndim(x) == 1 else out


def omega_moment(gamma: float, params: MeasureParams) -> float:
    """int (1 + |x|^2)^(-gamma) dmu = Z(n, beta + gamma) / Z(n, beta).

    Negative gamma gives positive-power moments; integrability requires
    beta + gamma > n/2.
    """
    n, beta = params.n, params.beta
    if beta + gamma <= n / 2:
        raise ValueError(
            f"moment not integrable: beta + gamma = {beta + gamma} <= n/2 = {n / 2}"
        )
    shifted = MeasureParams(n, beta + gamma)
    return float(np.exp(log_normalization(shifted) - log_normalization(params)))


def mean_sq_norm(params: MeasureParams) -> float:
    """E |x|^2 = n / (2 beta - n - 2); requires beta > n/2 + 1."""
    n, beta = params.n, params.beta
    if beta <= n / 2 + 1:
        raise ValueError(f"second moment infinite for beta = {beta} <= n/2 + 1")
    return n / (2 * beta - n - 2)


def sample(params: MeasureParams, count: int, seed: int) -> np.ndarray:
    """Draw `count` exact samples, an array (count, n), via the Student
    representation x = g / sqrt(s).

    g is standard n-dim Gaussian and s ~ chi-square with 2 beta - n degrees
    of freedom (a Gamma((2 beta - n)/2, scale=2) draw, valid for real beta).
    Philox is counter-based, so parallel sweeps can partition seeds freely.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    g = rng.standard_normal((count, params.n))
    s = rng.gamma(shape=(2 * params.beta - params.n) / 2, scale=2.0, size=count)
    return g / np.sqrt(s)[:, None]
