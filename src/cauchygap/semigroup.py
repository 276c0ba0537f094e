"""Heat flow on the radial modes and deficit verification.

Every flow here is the exact discrete flow B v' = -A v of a mode's
Galerkin pair, from the L^2(mu) projection of f on each mode's hats
(`spectral._hat_projection`, from f's mode profiles), evaluated over every
mode by a contour-rational exponential (`_flow_at`), with no eigenpairs:
the variance check integrates it in time, and `deficit_trace` reads its
integrand.  On it the module checks the variance representation

  Var(f) = (1/rho) int Gamma(f) dmu - (2/rho) int_0^inf int (Gamma_2 - rho Gamma)(P_t f) dmu dt

and cross-checks the range deficits, whose own Var(f) and
int Gamma(f) dmu are quadrature's (`_var_and_energy`), against the flow's
limit T = inf.  Every factorization is spectral's (`_shifted_solve`,
`ModeProblem._b_solve`): the module imports no scipy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .functions import SmoothFunction
from .measures import MeasureParams, mean_sq_norm
from .quadrature import _rel_err, _var_and_energy
from .spectral import (GAP_FORMULA, Discretization, ModeProblem, NumericalBreakdown,
                       _hat_projection, _shifted_solve, range_edges)

__all__ = [
    "default_horizon", "variance_representation_check", "deficit",
    "deficit_trace",
]


def default_horizon(variance: float, gap_estimate: float) -> float:
    """Truncation time: the analytic tail e^{-2 lambda T} Var drops to 1e-8."""
    if variance <= 0 or gap_estimate <= 0:
        raise ValueError("need positive variance and gap estimate")
    return max(0.5 * math.log(variance / 1e-8) / gap_estimate, 1e-3)


# ----------------------------------------------------------------------
# Mode decomposition of test functions.


def _mode_profiles(f: SmoothFunction, params: MeasureParams,
                   r: np.ndarray) -> dict:
    """Radial profiles per mode at the radii r, for functions representable
    on the mode grids.

    Supported shapes: radial f (angular_mode 0; on the line an even f,
    evaluated once, with no ell = 1 profile), any f on the line (even/odd
    split), and linear f (angular_mode 1, constant plus ell = 1 profile);
    ValueError for anything else.  f is evaluated only at the radii under
    its support_radius, if it declares one; its profiles are exact zeros
    beyond.
    """
    n = params.n
    inside = r < (math.inf if f.support_radius is None else f.support_radius)
    radii = r[inside]
    if f.angular_mode == 0:
        x = np.zeros((len(radii), n))
        x[:, 0] = radii
        profiles = {0: f.value(x)}
    elif n == 1:
        vp, vm = f.value(radii[:, None]), f.value(-radii[:, None])
        profiles = {0: 0.5 * (vp + vm), 1: 0.5 * (vp - vm)}
    elif f.angular_mode == 1:
        # f = <a, x> + const = |a| r <a/|a|, x/r> + const; the harmonic
        # <a/|a|, x/r> has mean square 1/n on the sphere, so the ell=1
        # profile is |a| r / sqrt(n)
        a = f.gradient(np.zeros((1, n)))[0]
        c = float(f.value(np.zeros((1, n)))[0])
        profiles = {0: np.full(len(radii), c),
                    1: float(np.linalg.norm(a)) / math.sqrt(n) * radii}
    else:
        raise ValueError("f is not representable on the mode grids "
                         "(need n=1, radial, or linear)")
    out = {ell: np.zeros(len(r)) for ell in profiles}
    for ell, values in profiles.items():
        out[ell][inside] = values
    return out


def _decay_sup(lam0: float, rho: float, T: float) -> float:
    """sup over lam >= lam0 of |lam - rho| e^{-2 lam T}: it falls on
    [lam0, rho] and peaks on [rho, inf) at rho + 1/(2T)."""
    top = max(lam0, rho + 0.5 / T)
    return max(abs(z - rho) * math.exp(-2.0 * z * T) for z in (lam0, top))


# Talbot's contour as tuned by Weideman (SIAM J. Numer. Anal. 44, 2006):
# z(theta) = N (0.5017 theta cot 0.6407 theta - 0.6122 + 0.2645 i theta) at
# the N midpoints theta_k of (-pi, pi).  The trapezoid rule on
# e^x = (1/2 pi i) int e^z / (z - x) dz gives r_N(x) = sum_k c_k / (z_k - x),
# c_k = e^{z_k} z'(theta_k) / (i N); the nodes come in conjugate pairs, so
# r_N(x) = 2 Re of the sum over theta_k > 0.  _TALBOT_EPS holds the measured
# max |r_N(x) - e^x| on x <= 0, rounded up, for even N (N = 0 is the zero
# rational, off by at most 1); from N = 26 on rounding holds it near 1e-14.
_TALBOT_EPS = {0: 1.0, 6: 6.0e-4, 8: 4.3e-5, 10: 2.8e-6, 12: 1.8e-7, 14: 1.2e-8,
               16: 8.3e-10, 18: 5.6e-11, 20: 3.5e-12, 22: 2.4e-13, 24: 2.3e-14}
_TALBOT_N = 24  # eps_24 is the bound every flow keeps


@functools.cache
def _talbot(N: int):
    """Nodes z_k and weights c_k of r_N over theta_k > 0."""
    theta = (np.arange(N // 2) + 0.5) * (2.0 * np.pi / max(N, 1))  # empty at N = 0
    z = N * (0.5017 * theta / np.tan(0.6407 * theta) - 0.6122 + 0.2645j * theta)
    c = np.exp(z) / 1j * (0.5017 / np.tan(0.6407 * theta)
                          - 0.5017 * 0.6407 * theta / np.sin(0.6407 * theta) ** 2 + 0.2645j)
    return z, c


def _flow_at(problem: ModeProblem, v: np.ndarray, t: float, N: int) -> np.ndarray:
    """exp(-t B^{-1} A) u, the exact flow B u' = -A u from u at time t > 0,
    over every mode of the pencil, by Talbot's rational on N nodes (a key
    of _TALBOT_EPS), for the projection's hats-only pencils
    (`spectral._hat_projection`; on mode 0 the all-ones vector is then the
    constants).

    u is v less its constant part (1'Bv / 1'B1) 1 on mode 0, and v on every
    other mode: the constants are dropped, not flowed (the projection's v
    is mean-free, and A 1 = 0).  u lies on the nontrivial values of
    M = B^{-1} A, all at or above the guard's shift sigma (its Sylvester
    count leaves none below), so exp(-tM) u = e^{-t sigma} exp(-t (M - sigma)) u,
    and the second factor is the contour sum r_N(-t (M - sigma)) u
    = 2 Re sum_k c_k (z_k + t (M - sigma))^{-1} u over theta_k > 0, each
    term a complex bordered solve
    (A + (z_k/t - sigma) B)^{-1} B u / t (_shifted_solve).  The error in
    each mode's coefficient is at most eps_N e^{-t sigma} of u's (N = 0:
    no solve runs).  The shifted band is never singular off the real axis
    (its imaginary part is Im z_k B / t); a singular or non-finite factor
    raises NumericalBreakdown.
    """
    A, B = problem.A.band, problem.B.band
    sigma = problem._guarded[0]
    u = v
    if problem.ell == 0:
        B1 = problem.B @ np.ones(len(v))
        u = v - (B1 @ v) / B1.sum()
    Bu = problem.B @ u
    flow = np.zeros(len(v))
    for z, c in zip(*_talbot(N)):
        solve = _shifted_solve(problem, A + (z / t - sigma) * B)
        if solve is None:
            raise NumericalBreakdown(problem, f"A + (z / t - sigma) B at z = {z:.6g}, "
                                              f"t = {t:.6g} is singular")
        flow += 2.0 * (c / t * solve(Bu)).real
    out = math.exp(-t * sigma) * flow
    if not np.all(np.isfinite(out)):
        raise NumericalBreakdown(problem, f"the contour flow to t = {t:.6g} is not finite")
    return out


def _flow_integral(problem: ModeProblem, v: np.ndarray, rho: float,
                   T: float):
    """int_0^T q dt of one mode's exact flow from v, by telescoping.

    With A phi_k = lam_k B phi_k (B-orthonormal) and c_k = phi_k'B v,
    q(t) = sum_k (lam_k^2 - rho lam_k) c_k^2 e^{-2 lam_k t} and
    d/dt (v'Av - rho v'Bv) = -2q, so the integral is
    (1/2)[v'Av - rho v'Bv - sum_k (lam_k - rho) c_k^2 e^{-2 lam_k T}],
    and the sum over every mode is ((A - rho B) v)' v(2T) (`_flow_at`).
    The end term decays by e^{-2 T sigma}, so the flow takes the fewest
    nodes N of _TALBOT_EPS with eps_N e^{-2 T sigma} <= eps_24: its error
    in each mode's coefficient stays at most eps_24 = 2.3e-14 (N = 0 where
    e^{-2 T sigma} itself is under it).  Returns (integral, v'Bv, v'Av).
    """
    Bv = problem.B @ v
    Av = problem.A @ v
    norm, energy = float(v @ Bv), float(v @ Av)
    decay = math.exp(-2.0 * T * problem._guarded[0])
    N = next(N for N, eps in _TALBOT_EPS.items() if eps * decay <= _TALBOT_EPS[_TALBOT_N])
    ends = float((Av - rho * Bv) @ _flow_at(problem, v, 2.0 * T, N))
    return 0.5 * (energy - rho * norm - ends), norm, energy


# ----------------------------------------------------------------------
# Variance representation (discrete, exact in time).


def variance_representation_check(f: SmoothFunction, rho: float, T: float,
                                  dt: float, params: MeasureParams,
                                  disc: Discretization):
    """Check Var(f) = (1/rho) int Gamma - (2/rho) int_0^T q(t) dt + tail.

    f starts as its L^2(mu) projection on the hats of each mode
    (`spectral._hat_projection`), lhs is its discrete variance, and
    q(t) = w'B^{-1}w - rho v'w with w = A v(t) is the discrete integrated
    (Gamma_2 - rho Gamma) along the exact flow B v' = -A v; its time integral
    telescopes over every mode (`_flow_integral`).  dt only rounds the
    horizon up to max(1, ceil(T/dt)) dt; rho, T and dt must be finite with
    rho != 0, T >= 0 and dt > 0 (else ValueError).  Returns
    (lhs, rhs, discrepancy, tail_bound).  On the exact flow
    rhs - lhs = (1/rho) sum_k (lam_k - rho) c_k^2 e^{-2 lam_k T} over the
    nonconstant modes, all at or above the guard's shift sigma (its
    Sylvester count leaves no nontrivial value below), so
    tail_bound = sup_{lam >= sigma} |lam - rho| e^{-2 lam T} Var / |rho|
    bounds the discrepancy for every rho.
    """
    if not all(math.isfinite(x) for x in (rho, T, dt)):
        raise ValueError("rho, T and dt must be finite")
    if rho == 0.0:
        raise ValueError("rho must be nonzero")
    if dt <= 0.0 or T < 0.0:
        raise ValueError("need dt > 0 and T >= 0")
    T = max(1, int(math.ceil(T / dt - 1e-12))) * dt
    problems, vs, mass = _hat_projection(lambda r: _mode_profiles(f, params, r),
                                         params, disc)
    sigma = min(p._guarded[0] for p in problems)
    flows = [_flow_integral(p, v, rho, T) for p, v in zip(problems, vs)]
    integral, lhs, energy = (sum(x[i] for x in flows) / mass for i in range(3))

    rhs = energy / rho - 2.0 * integral / rho
    tail_bound = _decay_sup(sigma, rho, T) * lhs / abs(rho)
    return lhs, rhs, abs(lhs - rhs), tail_bound


# ----------------------------------------------------------------------
# Range-specific deficits.

# Mode grids of the deficit's cross-check: the coarse one and its halving.
_ROUTE_DISC = Discretization(m=384, delta=2e-3)
_ROUTE_FINE = Discretization(m=768, delta=2e-3)


def _range_lambda(params: MeasureParams, range_tag: str) -> float:
    """The range's gap constant; the deficit's mid window (n/2 + 1, beta_U]
    is wider than the gap's, from where linear functions enter L^2."""
    if range_tag not in GAP_FORMULA:
        raise ValueError(f"unknown range tag {range_tag!r}")
    n, beta = params.n, params.beta
    beta_l, beta_u = range_edges(n)
    inside = {"lower": beta <= beta_l,
              "mid": n >= 2 and beta_l - 1.0 < beta <= beta_u,
              "upper": beta >= beta_u}[range_tag]
    if not inside:
        raise ValueError(f"beta = {params.beta} outside the {range_tag} "
                         f"window for n = {params.n}")
    return GAP_FORMULA[range_tag](n, beta)


def _linear_variance(f: SmoothFunction, params: MeasureParams) -> float:
    """Var <a, x> = |a|^2 E|x|^2 / n of a linear f (angular_mode 1);
    ValueError where <a, x> is not in L^2, on the line the whole lower range."""
    a = f.gradient(np.zeros((1, params.n)))[0]
    return float(a @ a) * mean_sq_norm(params) / params.n


def _route_start(f: SmoothFunction, params: MeasureParams,
                 disc: Discretization):
    """The gate of the cross-check, for f other than linear: a compactly
    supported f that declares itself radial (angular_mode 0; on the line,
    even) gives its ell = 0 projection (problem, v, mass) from
    `spectral._hat_projection`; every other f gives None, before any load
    is built."""
    if f.support_radius is None or f.angular_mode != 0:
        return None
    (prob,), (v,), mass = _hat_projection(lambda r: _mode_profiles(f, params, r),
                                          params, disc)
    return prob, v, mass


def _route_deficit(f: SmoothFunction, params: MeasureParams, rho: float):
    """The corollary's -2 int_0^inf int F(P_t f) dmu dt, or None off the gate.

    A linear f is the one eigenmode lam = 2(beta - 1), so the value is
    (rho - lam) Var f.  Otherwise the flow from the projection v
    (`_route_start`) gives rho N_0 - E_0 with N_0 = v'Bv / 1'B1 and
    E_0 = v'Av / 1'B1, the limit of `_flow_integral`'s telescoped sum; its
    error falls by h^2, so the value is Richardson's (4 d_2m - d_m) / 3
    from `_ROUTE_DISC` and its halving `_ROUTE_FINE`.
    """
    if f.angular_mode == 1:
        lam = GAP_FORMULA["upper"](params.n, params.beta)
        return (rho - lam) * _linear_variance(f, params)
    d = []
    for disc in (_ROUTE_DISC, _ROUTE_FINE):
        start = _route_start(f, params, disc)
        if start is None:
            return None
        prob, v, mass = start
        d.append((rho * float(v @ (prob.B @ v)) - float(v @ (prob.A @ v))) / mass)
    return (4.0 * d[1] - d[0]) / 3.0


class DeficitMismatch(RuntimeError):
    """Quadrature deficit and corollary time integral disagree."""


def deficit(f: SmoothFunction, params: MeasureParams, range_tag: str) -> float:
    """Range deficit lambda_range Var(f) - int Gamma(f) dmu (nonpositive),
    by quadrature (`quadrature._var_and_energy`): a random bump from its
    coefficients in separable form, every other f from its value and
    gradient.

    Where the cross-check takes f (`_route_deficit`), the corollary time
    integral -2 int_0^inf int F(P_t f) dmu dt, in closed form along the
    exact heat flow of f's L^2(mu) projection, must agree within 1e-3
    (relative), else DeficitMismatch.  It takes linear f, and compactly
    supported f that declare themselves radial (angular_mode 0; on the
    line, even).  Every other f gets the quadrature value alone: random
    bumps at every n, and profiles without compact support (the power
    family, the centered quadratic).

    Linear and radial f (angular_mode 1 or 0) run at every n; any other f,
    such as a random bump, raises ValueError past n = 3.
    """
    lam = _range_lambda(params, range_tag)
    var, energy = _var_and_energy(f, params)
    value = lam * var - energy
    route = _route_deficit(f, params, lam)
    if route is not None and _rel_err(value, route) > 1e-3:
        raise DeficitMismatch(
            f"corollary time integral {route:.6g} disagrees with the "
            f"quadrature deficit {value:.6g} (tag {range_tag})")
    return value


def deficit_trace(f: SmoothFunction, params: MeasureParams, range_tag: str,
                  times) -> np.ndarray:
    """Rows (t, q(t)) of the corollary time integral's integrand
    q(t) = int F(P_t f) dmu = int (L P_t f)^2 dmu - rho int Gamma(P_t f) dmu,
    for the f the cross-check of `deficit` takes: linear f, and compactly
    supported f with angular_mode 0 (on the line, even); ValueError for any
    other.

    A linear f is one exact eigenmode lam = 2(beta - 1):
    q = lam (lam - rho) Var f e^{-2 lam t}.  Otherwise q is read off the
    exact flow w = exp(-t B^{-1} A) v of the ell = 0 projection v on
    `_ROUTE_DISC`, by its definition:
    q(t) = ((Aw)' B^{-1} (Aw) - rho w'Aw) / 1'B1, with w = v at t = 0 and
    w from `_flow_at` on 24 nodes otherwise, off by at most
    eps_24 e^{-t sigma} in each mode's coefficient (README gives the
    measured agreement with the dense spectrum).  times is a scalar (one
    row) or 1-D, each >= 0 (inf gives the limit q = 0); ValueError
    otherwise.
    """
    rho = _range_lambda(params, range_tag)
    times = np.asarray(times, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or 1-D, not of shape {times.shape}")
    times = times.reshape(-1)
    if not np.all(times >= 0.0):  # NaN fails this too
        raise ValueError("times must be nonnegative, not NaN: the heat flow runs forward")
    if f.angular_mode == 1:
        lam = GAP_FORMULA["upper"](params.n, params.beta)
        q = lam * (lam - rho) * _linear_variance(f, params) * np.exp(-2.0 * lam * times)
        return np.column_stack([times, q])
    start = _route_start(f, params, _ROUTE_DISC)
    if start is None:
        raise ValueError("f is not representable on the mode grids")
    prob, v, mass = start

    def integrand(t):
        if t == math.inf:
            return 0.0
        w = v if t == 0.0 else _flow_at(prob, v, t, _TALBOT_N)
        Aw = prob.A @ w
        return (Aw @ prob._b_solve(Aw) - rho * (w @ Aw)) / mass

    return np.column_stack([times, [integrand(t) for t in times]])
