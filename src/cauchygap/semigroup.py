"""Semigroup evolution on the radial modes and deficit verification.

The evolution d/dt v = -B^{-1} A v per mode is stepped with the trapezoidal
(Crank-Nicolson) scheme; A, B are the Galerkin pairs of `spectral`.
Integrated second-order functionals of the evolved function close the
variance representation

  Var(f) = (1/rho) int Gamma(f) dmu - (2/rho) int_0^inf int (Gamma_2 - rho Gamma)(P_t f) dmu dt

discretely: with w = A v and B y = w, the quantity w'y is the discrete
integrated Gamma_2 (it needs only the second-order forms, no third
differences), so the representation holds exactly in the discrete system up
to time-integration error.  Range-specific deficit formulas are checked by
an eigen-expansion route whose time integral is evaluated in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import linalg as sla
from scipy.interpolate import CubicSpline

from .functions import SmoothFunction
from .measures import MeasureParams, mean_sq_norm
from .quadrature import _radial_rule, default_nd_spec, integrate_nd, QuadratureSpec
from .spectral import (GAP_FORMULA, Discretization, ModeProblem, SymBand,
                       assemble_mode, lowest_eigs, range_edges)

__all__ = [
    "EvolutionState", "evolve", "default_horizon",
    "variance_representation_check", "deficit", "deficit_trace",
    "extremal_residual",
]


# ----------------------------------------------------------------------
# Time stepping.


@dataclass(frozen=True)
class EvolutionState:
    """Mode coefficients after evolving to time t with step dt."""
    coeffs: dict                 # ell -> nodal vector
    t: float
    dt: float
    params: MeasureParams
    norms: tuple = ()            # discrete int (P_s f)^2 at the step times


class _CNStepper:
    """One mode's Crank-Nicolson step: (B + dt/2 A) v+ = (B - dt/2 A) v-."""

    def __init__(self, problem: ModeProblem, dt: float):
        A, B = problem.A.band, problem.B.band
        self.factor = sla.cholesky_banded(B + 0.5 * dt * A, lower=True)
        self.minus = SymBand(B - 0.5 * dt * A)

    def step(self, v: np.ndarray) -> np.ndarray:
        return sla.cho_solve_banded((self.factor, True), self.minus @ v,
                                    check_finite=False)


def evolve(f0: Sequence[np.ndarray], T: float, dt: float,
           problems: Sequence[ModeProblem]) -> EvolutionState:
    """Crank-Nicolson evolution of nodal coefficients, one vector per mode.

    Unconditionally stable; choose dt well below 1/(2 lambda) for every
    eigenvalue lambda whose component should stay accurate (stiff components
    are damped, not amplified).  Returns the state at the step time closest
    to T from above, with the discrete L^2 norm history attached.
    """
    if dt <= 0 or T < 0:
        raise ValueError("need dt > 0 and T >= 0")
    if len(f0) != len(problems):
        raise ValueError("one initial vector per mode problem")
    nsteps = max(1, int(math.ceil(T / dt - 1e-12))) if T > 0 else 0
    vs = [np.asarray(v, dtype=float).copy() for v in f0]
    steppers = [_CNStepper(p, dt) for p in problems]
    norms = []
    for s in range(nsteps + 1):
        norms.append(float(sum(v @ p.B @ v for v, p in zip(vs, problems))))
        if s == nsteps:
            break
        vs = [st.step(v) for st, v in zip(steppers, vs)]
    coeffs = {p.ell: v for p, v in zip(problems, vs)}
    return EvolutionState(coeffs=coeffs, t=nsteps * dt, dt=dt,
                          params=problems[0].params, norms=tuple(norms))


def default_horizon(variance: float, gap_estimate: float) -> float:
    """Truncation time: the analytic tail e^{-2 lambda T} Var drops to 1e-8."""
    if variance <= 0 or gap_estimate <= 0:
        raise ValueError("need positive variance and gap estimate")
    return max(0.5 * math.log(variance / 1e-8) / gap_estimate, 1e-3)


# ----------------------------------------------------------------------
# Mode decomposition of test functions.


def _mode_profiles(f: SmoothFunction, params: MeasureParams,
                   r: np.ndarray) -> Optional[dict]:
    """Nodal profiles per mode for functions representable on the mode grids.

    Supported shapes: n = 1 (even/odd split), radial f (angular_mode 0), and
    single-direction linear f (angular_mode 1, profile c*r).  Returns None
    for anything else.
    """
    n = params.n
    if n == 1:
        xp = r[:, None]
        vp = f.value(xp)
        vm = f.value(-xp)
        return {0: 0.5 * (vp + vm), 1: (0.5 * (vp - vm))[1:]}
    mode = f.angular_mode
    e1 = np.zeros(n)
    e1[0] = 1.0
    if mode == 0:
        return {0: f.value(r[:, None] * e1[None, :])}
    if mode == 1:
        # f = <a, x> + const; the radial profile of the ell=1 sector is |a| r
        a = f.gradient(np.zeros((1, n)))[0]
        c = float(f.value(np.zeros((1, n)))[0])
        prof = {1: float(np.linalg.norm(a)) * r[1:]}
        prof[0] = np.full(len(r), c)
        return prof
    return None


# ----------------------------------------------------------------------
# Variance representation (discrete, exact up to time integration).


def variance_representation_check(f: SmoothFunction, rho: float, T: float,
                                  dt: float, params: MeasureParams,
                                  disc: Discretization):
    """Check Var(f) = (1/rho) int Gamma - (2/rho) int_0^T q(t) dt + tail.

    q(t) = w'B^{-1}w - rho v'w with w = A v(t) is the discrete integrated
    (Gamma_2 - rho Gamma) along the Crank-Nicolson trajectory; the time
    integral is a trapezoid over the step times.  Returns
    (lhs, rhs, discrepancy, tail_bound) with tail_bound = e^{-2 gap T} Var.
    """
    if rho == 0.0:
        raise ValueError("rho must be nonzero")
    r = disc.radii()
    profiles = _mode_profiles(f, params, r)
    if profiles is None:
        raise ValueError("f is not representable on the mode grids "
                         "(need n=1, radial, or linear)")
    ells = sorted(profiles)
    problems = [assemble_mode(ell, params, disc, tail_rays=False)
                for ell in ells]
    vs = [np.asarray(profiles[ell], dtype=float) for ell in ells]

    # discrete variance and energy; the all-ones vector is the constant.
    # The assembled forms integrate the raw radial weight r^{n-1} omega^beta,
    # so everything is divided by the discrete total mass to match the
    # normalized measure.  Every profile set has mode 0, first in `ells`.
    ones0 = np.ones(problems[0].size())
    mass = float(ones0 @ problems[0].B @ ones0)
    lhs = 0.0
    energy = 0.0
    gap_candidates = []
    for p, v in zip(problems, vs):
        Bv = p.B @ v
        if p.ell == 0:
            ones = np.ones(p.size())
            lhs += float(v @ Bv - (ones @ Bv) ** 2 / mass)
            gap_candidates.append(lowest_eigs(p, 2)[1])
        else:
            lhs += float(v @ Bv)
            gap_candidates.append(lowest_eigs(p, 1)[0])
        energy += float(v @ (p.A @ v))
    lhs /= mass
    energy /= mass
    gap_hat = min(gap_candidates)

    # Crank-Nicolson trajectory with trapezoidal deficit integral
    nsteps = max(1, int(math.ceil(T / dt - 1e-12)))
    steppers = [_CNStepper(p, dt) for p in problems]
    bfactors = [sla.cholesky_banded(p.B.band, lower=True) for p in problems]

    def qval(vlist):
        q = 0.0
        for p, fac, v in zip(problems, bfactors, vlist):
            w = p.A @ v
            y = sla.cho_solve_banded((fac, True), w, check_finite=False)
            q += float(w @ y - rho * (v @ w))
        return q

    integral = 0.0
    cur = [v.copy() for v in vs]
    qprev = qval(cur)
    for s in range(nsteps):
        cur = [st.step(v) for st, v in zip(steppers, cur)]
        qnext = qval(cur)
        integral += 0.5 * dt * (qprev + qnext)
        qprev = qnext
    integral /= mass

    rhs = energy / rho - 2.0 * integral / rho
    tail_bound = math.exp(-2.0 * gap_hat * nsteps * dt) * lhs
    return lhs, rhs, abs(lhs - rhs), tail_bound


# ----------------------------------------------------------------------
# Range-specific deficits.

# Mode grid of the deficit's eigen-expansion cross-check.
_ROUTE_DISC = Discretization(m=384, delta=2e-3)


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


def _var_and_energy(f: SmoothFunction, params: MeasureParams):
    spec = default_nd_spec(params.n)
    kw = dict(support_radius=f.support_radius, seams=f.radial_seams)
    mean = integrate_nd(lambda x: f.value(x), params, spec, **kw)
    sq = integrate_nd(lambda x: f.value(x) ** 2, params, spec, **kw)

    def gamma_field(x):
        g = f.gradient(x)
        w = 1.0 + np.sum(x * x, axis=-1)
        return w * np.sum(g * g, axis=-1)

    energy = integrate_nd(gamma_field, params, spec, **kw)
    return sq - mean ** 2, energy


def _range_bilinear(range_tag: str, n: int, beta: float):
    """F(u, v) integrand of the corollary's time integral, as a function of
    the radial first/second derivatives and laplacians of two profiles."""
    if range_tag == "upper":
        if n == 1:
            def F(r, w, du, dv, d2u, d2v, lapu, lapv):
                return w * w * d2u * d2v
            return F
        c1 = (beta - (n + 1.0)) / (beta - 2.0)
        c2 = n / (beta - 2.0)

        def F(r, w, du, dv, d2u, d2v, lapu, lapv):
            rsafe = np.where(r > 0, r, 1.0)
            ang = np.where(r > 0, du * dv / (rsafe * rsafe), d2u * d2v)
            hess = d2u * d2v + (n - 1) * ang
            return (w * w) * (c1 * hess + c2 * (hess - lapu * lapv / n))
        return F
    if range_tag == "mid":
        c = n / (n - 1.0)

        def F(r, w, du, dv, d2u, d2v, lapu, lapv):
            rsafe = np.where(r > 0, r, 1.0)
            ang = np.where(r > 0, du * dv / (rsafe * rsafe), d2u * d2v)
            hess = d2u * d2v + (n - 1) * ang
            # radial gradients are parallel to x: the angular-defect term
            # |du|^2 |x|^2 - <du, x>^2 vanishes identically
            return c * (w * w) * (hess - lapu * lapv / n)
        return F
    if range_tag == "lower":
        e0 = range_edges(n)[0] - beta
        if n == 1:
            c0 = (beta - 0.5) * e0

            def F(r, w, du, dv, d2u, d2v, lapu, lapv):
                return ((w * d2u + e0 * r * du) * (w * d2v + e0 * r * dv)
                        + c0 * du * dv)
            return F
        c0 = e0 * (beta + n / 2.0)

        def F(r, w, du, dv, d2u, d2v, lapu, lapv):
            rsafe = np.where(r > 0, r, 1.0)
            ang = np.where(r > 0, du * dv / (rsafe * rsafe), d2u * d2v)
            mm = ((w * d2u + e0 * r * du) * (w * d2v + e0 * r * dv)
                  + (n - 1) * (w * w) * ang)
            tt = (w * lapu + e0 * r * du) * (w * lapv + e0 * r * dv)
            return n / (n - 1.0) * mm - tt / (n - 1.0) + c0 * du * dv
        return F
    raise ValueError(f"unknown range tag {range_tag!r}")


def _eigen_triple(f: SmoothFunction, params: MeasureParams, range_tag: str,
                  disc: Discretization, kept: int):
    """The corollary integrand int F(P_t f) dmu in decaying eigenmodes, as
    (lam, c, Fmat) with int F(P_t f) dmu = (e^{-lam t} c)' Fmat (e^{-lam t} c).

    This is the one gate of the eigen route.  A linear f = <a, x> + const
    (angular_mode 1) is one exact eigenmode with eigenvalue 2(beta - 1) in
    which only the angular-defect term survives.  A compactly supported
    radial f (on the line: whose odd part is below 1e-13 max(1, |even part|))
    gives the `kept` lowest eigenpairs of the ell = 0 sector.  Every other f
    gives None.
    """
    n, beta = params.n, params.beta
    if f.angular_mode == 1:
        a_norm = float(np.linalg.norm(f.gradient(np.zeros((1, n)))[0]))
        # refuses where <a, x> is not in L^2, so on the line in the whole
        # lower range; there the mode only enters the upper range, with 0
        msq = mean_sq_norm(params)
        if range_tag == "upper":
            amp = 0.0
        elif range_tag == "mid":
            amp = 4.0 * (beta - 1.0) * (n + 1.0 - beta) * a_norm ** 2 * msq / n
        else:
            e0 = range_edges(n)[0] - beta
            c0 = e0 * (beta + n / 2.0)
            btil = ((n - 2.0) * (4.0 * (beta - 1.0) ** 2
                                 - 4.0 * (n - 2.0) * (beta - 1.0)
                                 + (n + 2.0) ** 2) / (8.0 * (n - 1.0)))
            # Hess f = 0, so with s2 = E<a,x>^2 = |a|^2 msq/n:
            #   ||e0 (a ox x + x ox a)/2||^2 integrates to e0^2(|a|^2 msq + s2)/2
            #   (e0 <a,x>)^2 integrates to e0^2 s2
            #   |a|^2|x|^2 - <a,x>^2 integrates to (n-1) s2
            s2 = a_norm ** 2 * msq / n
            mm = e0 * e0 * 0.5 * (a_norm ** 2 * msq + s2)
            tt = e0 * e0 * s2
            amp = ((n / (n - 1.0)) * mm - tt / (n - 1.0)
                   + btil * (n - 1.0) * s2 + c0 * a_norm ** 2)
        return np.array([GAP_FORMULA["upper"](n, beta)]), np.ones(1), np.array([[amp]])
    if f.support_radius is None:
        return None
    r = disc.radii()
    profiles = _mode_profiles(f, params, r)
    if profiles is None or (n == 1 and np.max(np.abs(profiles[1])) > 1e-13 * max(
            1.0, np.max(np.abs(profiles[0])))):
        return None

    prob = assemble_mode(0, params, disc, tail_rays=False)
    evals, evecs = sla.eigh(prob.A.toarray(), prob.B.toarray())
    K = min(kept, len(evals))
    Phi = evecs[:, :K]
    c = Phi.T @ (prob.B @ np.asarray(profiles[0], dtype=float))

    # Quadrature window for the corollary integrand: wide enough to hold
    # the measure's bulk and the initial support, short of the far grid
    # cells where spline curvature of the discrete eigenvectors is
    # unreliable.
    trunc_q = min(float(r[-1]), 12.0 + 2.0 * f.support_radius)
    nodes_r, logw = _radial_rule(params, QuadratureSpec(nodes=320),
                                 support_radius=trunc_q)
    wq = np.exp(logw)
    splines = [CubicSpline(r, Phi[:, k]) for k in range(K)]
    d1 = np.stack([s(nodes_r, 1) for s in splines])
    d2 = np.stack([s(nodes_r, 2) for s in splines])
    rsafe = np.where(nodes_r > 0, nodes_r, 1.0)
    lap = d2 + (n - 1) * np.where(nodes_r > 0, d1 / rsafe, d2)
    w = 1.0 + nodes_r * nodes_r
    F = _range_bilinear(range_tag, n, beta)
    Fmat = np.zeros((K, K))
    for j in range(K):
        vals = F(nodes_r, w, d1[j][None, :], d1, d2[j][None, :], d2,
                 lap[j][None, :], lap)
        Fmat[j, :] = vals @ wq
    return evals[:K], c, Fmat


class DeficitMismatch(RuntimeError):
    """Quadrature deficit and corollary time integral disagree."""


def deficit(f: SmoothFunction, params: MeasureParams, range_tag: str,
            disc: Discretization = _ROUTE_DISC, kept: int = 48) -> float:
    """Range deficit lambda_range Var(f) - int Gamma(f) dmu (nonpositive),
    by quadrature.

    Where the eigen route takes f, the value is cross-checked: the corollary
    time integral -2 int_0^inf int F(P_t f) dmu dt, closed-form in time over
    the triple of _eigen_triple, must agree within 1e-3 (relative), else
    DeficitMismatch.  The route takes linear f, and compactly supported f
    that are radial (on the line: whose odd part vanishes).  Every other f
    gets the quadrature value alone: random bumps for n >= 2, 1-D bumps
    with an odd part, and profiles without compact support (the power
    family, the centered quadratic), whose spline derivatives are not
    trustworthy over the whole quadrature window.
    """
    lam = _range_lambda(params, range_tag)
    var, energy = _var_and_energy(f, params)
    value = lam * var - energy
    triple = _eigen_triple(f, params, range_tag, disc, kept)
    if triple is not None:
        rates, c, Fmat = triple
        ls = rates[:, None] + rates[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = np.where(ls > 1e-12, 1.0 / ls, 0.0)
        route = -2.0 * float(np.sum(Fmat * np.outer(c, c) * weights))
        scale = max(1.0, abs(value), abs(route))
        if abs(route - value) > 1e-3 * scale:
            raise DeficitMismatch(
                f"corollary time integral {route:.6g} disagrees with the "
                f"quadrature deficit {value:.6g} (tag {range_tag})")
    return value


def deficit_trace(f: SmoothFunction, params: MeasureParams, range_tag: str,
                  times, disc: Discretization = _ROUTE_DISC,
                  kept: int = 48) -> np.ndarray:
    """Rows (t, integrand) of the corollary time integral's integrand, for
    the f the eigen route of `deficit` takes (ValueError for any other)."""
    _range_lambda(params, range_tag)
    triple = _eigen_triple(f, params, range_tag, disc, kept)
    if triple is None:
        raise ValueError("f is not representable on the mode grids")
    lam, c, Fmat = triple
    times = np.asarray(times, dtype=float)
    modes = np.exp(-np.outer(times, lam)) * c
    return np.column_stack(
        [times, np.einsum("tj,jk,tk->t", modes, Fmat, modes, optimize=True)])


# ----------------------------------------------------------------------
# Extremal-function residuals.


def extremal_residual(f: SmoothFunction, params: MeasureParams,
                      range_tag: str, points: np.ndarray) -> float:
    """Max residual of the extremal characterization at the given points.

    upper:     ||Hess f||_HS = 0              (affine extremals)
    traceless: ||Hess f||^2 - (Lap f)^2/n = 0 (quadratic extremals, beta=n+1)
    mid:       |df|^2|x|^2 - <df,x>^2 = 0     (radial-gradient extremals)
    lower-1d:  w f'' + (3/2-beta) x f' = 0    (primitives of w^{(2beta-3)/4})
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None] if params.n == 1 else x[None, :]
    if range_tag == "upper":
        H = f.hessian(x)
        return float(np.max(np.sqrt(np.einsum("kij,kij->k", H, H))))
    if range_tag == "traceless":
        H = f.hessian(x)
        hs2 = np.einsum("kij,kij->k", H, H)
        tr = np.trace(H, axis1=1, axis2=2)
        return float(np.max(np.abs(hs2 - tr * tr / params.n)))
    if range_tag == "mid":
        g = f.gradient(x)
        g2 = np.sum(g * g, axis=-1)
        x2 = np.sum(x * x, axis=-1)
        gx = np.sum(g * x, axis=-1)
        return float(np.max(np.abs(g2 * x2 - gx * gx)))
    if range_tag == "lower-1d":
        if params.n != 1:
            raise ValueError("the ODE residual is one-dimensional")
        w = 1.0 + x[:, 0] ** 2
        d2 = f.hessian(x)[:, 0, 0]
        d1 = f.gradient(x)[:, 0]
        res = w * d2 + (range_edges(1)[0] - params.beta) * x[:, 0] * d1
        return float(np.max(np.abs(res)))
    raise ValueError(f"unknown range tag {range_tag!r}")
