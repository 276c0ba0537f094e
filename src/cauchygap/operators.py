"""Pointwise diffusion operator L, carre du champ Gamma, and iterated Gamma2.

L f = w * Lap(f) - (beta - 1) <grad w, grad f> for a smooth positive weight w
on flat R^n (curvature of the ambient space is zero throughout), given as a
SmoothFunction.  Gamma2 has one formula for every weight; at the Cauchy
weight w = 1 + |x|^2 it also has the sum-of-squares factorization that
exhibits CD(0, infinity).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .functions import (SmoothFunction, make_power_family,
                        make_radial_log_cutoff, _as_points)
from .measures import MeasureParams

Array = np.ndarray


def cauchy_weight() -> SmoothFunction:
    """w(x) = 1 + |x|^2 (grad 2x, Hess 2 Id, Lap 2n): the power family at
    epsilon = 1."""
    return make_power_family(1.0)


def apply_L(f: SmoothFunction, x: Array, weight: SmoothFunction,
            params: MeasureParams) -> Array:
    x = _as_points(x)
    w = weight.value(x)
    lap_f = np.trace(f.hessian(x), axis1=1, axis2=2)
    return w * lap_f - (params.beta - 1.0) * np.sum(weight.gradient(x) * f.gradient(x), axis=-1)


def gamma(f: SmoothFunction, x: Array, weight: SmoothFunction) -> Array:
    x = _as_points(x)
    g = f.gradient(x)
    return weight.value(x) * np.sum(g * g, axis=-1)


def gamma2_general(f: SmoothFunction, x: Array, weight: SmoothFunction,
                   params: MeasureParams) -> Array:
    """Gamma2 for a general weight on flat space (Ricci terms are zero).

    ||w Hess f||^2 + (1/2)[w Lap w - (beta-1)|dw|^2] |df|^2
      + <d|df|^2, w dw> - <Lap f * df, w dw> + (beta-1) w Hess(w)(df, df),
    with d|df|^2 = 2 Hess(f) df and Lap w the trace of Hess w.  Second
    derivatives of f and w suffice.
    """
    x = _as_points(x)
    beta = params.beta
    w = weight.value(x)
    dw = weight.gradient(x)
    Hw = weight.hessian(x)
    lap_w = np.trace(Hw, axis1=1, axis2=2)
    g = f.gradient(x)
    H = f.hessian(x)
    lap_f = np.trace(H, axis1=1, axis2=2)
    g2 = np.sum(g * g, axis=-1)
    Hg = np.einsum("kij,kj->ki", H, g)
    hs = w * w * np.einsum("kij,kij->k", H, H)
    mid = 0.5 * (w * lap_w - (beta - 1.0) * np.sum(dw * dw, axis=-1)) * g2
    t3 = 2.0 * w * np.sum(Hg * dw, axis=-1)          # <d|df|^2, w dw>
    t4 = w * lap_f * np.sum(g * dw, axis=-1)          # <Lap f df, w dw>
    t5 = (beta - 1.0) * w * np.einsum("kij,ki,kj->k", Hw, g, g)
    return hs + mid + t3 - t4 + t5


class FactorizedGamma2(NamedTuple):
    total: Array
    hs_part: Array        # || w Hess f + x (x) df + df (x) x - <df,x> Id ||^2
    angular_part: Array   # (n-2) [ |df|^2 |x|^2 - <df,x>^2 ]
    zero_order_part: Array  # (2 beta + n - 2) |df|^2


def gamma2_cauchy_factorized(f: SmoothFunction, x: Array,
                             params: MeasureParams) -> FactorizedGamma2:
    """Sum-of-squares split of the Cauchy Gamma2; every part is >= 0 for
    beta > n/2, which is CD(0, infinity).  The middle part vanishes at n=1."""
    x = _as_points(x)
    n, beta = params.n, params.beta
    w = 1.0 + np.sum(x * x, axis=-1)
    g = f.gradient(x)
    H = f.hessian(x)
    g2 = np.sum(g * g, axis=-1)
    x2 = np.sum(x * x, axis=-1)
    gx = np.sum(g * x, axis=-1)
    eye = np.eye(n)
    M = (w[:, None, None] * H
         + x[:, :, None] * g[:, None, :]
         + g[:, :, None] * x[:, None, :]
         - gx[:, None, None] * eye[None])
    hs_part = np.einsum("kij,kij->k", M, M)
    angular_part = (n - 2.0) * (g2 * x2 - gx * gx)
    zero_order_part = (2.0 * beta + n - 2.0) * g2
    return FactorizedGamma2(hs_part + angular_part + zero_order_part,
                            hs_part, angular_part, zero_order_part)


def cd_witness(params: MeasureParams, rho: float):
    """A point x0 and cutoff log-radial f with Gamma2(f)(x0) < rho * Gamma(f)(x0).

    Shows the curvature condition CD(rho, infinity) fails for every rho > 0:
    far from the origin Gamma2/Gamma ~ (2 beta + n - 2)/|x|^2 -> 0.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    n, beta = params.n, params.beta
    R = max(2.0, 2.0 * np.sqrt((2.0 * beta + n) / rho))
    x0 = np.zeros(n)
    x0[0] = R
    f = make_radial_log_cutoff(x0, r_in=R / 4.0, r_out=R / 2.0)
    w = cauchy_weight()
    g2v = float(gamma2_general(f, x0, w, params)[0])
    gv = float(gamma(f, x0, w)[0])
    if not g2v < rho * gv:
        raise AssertionError(
            f"witness failed: Gamma2 = {g2v} not below rho*Gamma = {rho * gv}")
    return x0, f


def assumption_margins(weight: SmoothFunction, params: MeasureParams,
                       sample_points: Array):
    """Smallest-eigenvalue margins of the two convexity conditions.

    h1: min over points of lambda_min(Hess w)  (uniform convexity of the weight).
    h2: min over points of lambda_min((beta-1) Hess w
          + (n+1-beta)/(n-1) * w * (Hess w - Lap w * Id)), n >= 2.
    """
    x = _as_points(sample_points)
    if x.shape[0] == 0:
        raise ValueError("empty sample point set")
    n, beta = params.n, params.beta
    Hw = weight.hessian(x)
    h1 = float(np.min(np.linalg.eigvalsh(Hw)))
    if n < 2:
        return h1, None
    w = weight.value(x)
    lap_w = np.trace(Hw, axis1=1, axis2=2)
    eye = np.eye(n)
    M = ((beta - 1.0) * Hw
         + ((n + 1.0 - beta) / (n - 1.0)) * w[:, None, None]
         * (Hw - lap_w[:, None, None] * eye[None]))
    h2 = float(np.min(np.linalg.eigvalsh(M)))
    return h1, h2


class LowerBoundPrediction(NamedTuple):
    upper_range_bound: float      # rho_minus (beta - 1), valid for beta >= n+1
    mid_range_bound: float        # kappa formula, valid inside the window
    valid_beta_window: tuple      # (window_start, n+1)


def lower_bound_predictions(params: MeasureParams, rho_minus: float,
                            rho_plus: float) -> LowerBoundPrediction:
    """Spectral-gap lower bounds from uniform Hessian bounds on the weight.

    With rho_minus Id <= Hess w <= rho_plus Id and kappa = rho_plus/rho_minus:
    the gap is at least rho_minus (beta - 1) in the top range, and at least
    rho_minus (beta - 1 - (n+1-beta)(n kappa - 1)/(n-1)) for beta in
    [(n(n+1)kappa - 2)/(n(kappa+1) - 2), n+1].
    """
    if not (0 < rho_minus <= rho_plus):
        raise ValueError("need 0 < rho_minus <= rho_plus")
    n, beta = params.n, params.beta
    if n < 2:
        raise ValueError("bounds are stated for n >= 2")
    kappa = rho_plus / rho_minus
    upper = rho_minus * (beta - 1.0)
    mid = rho_minus * (beta - 1.0 - (n + 1.0 - beta) * (n * kappa - 1.0) / (n - 1.0))
    window_start = (n * (n + 1.0) * kappa - 2.0) / (n * (kappa + 1.0) - 2.0)
    return LowerBoundPrediction(upper, mid, (window_start, n + 1.0))
