"""Radial eigensolves and closed-form gap formulas for the weighted diffusion.

On the degree-ell spherical-harmonic sector the Dirichlet form of
Lf = (1+|x|^2) Lap f - 2(beta-1) <x, df> reduces to the radial pair

  A[g] = int_0^inf (1+r^2) [g'^2 + ell(ell+n-2) g^2/r^2] r^{n-1} (1+r^2)^{-beta} dr
  B[g] = int_0^inf g^2 r^{n-1} (1+r^2)^{-beta} dr

and the spectral gap is the smallest nontrivial generalized eigenvalue over
the modes.  A and B are the Galerkin matrices of piecewise-linear hats on
the radii of `Discretization`, the last hat extended as a constant over
[R, inf), and the tail rays (r^k - R^k) 1[r >= R], k in {1, 2}, wherever
r^k is square-integrable.  Hats couple only to their neighbours and rays
only to the last hat, so A and B are symmetric bands of half-width <= 2
(`SymBand`).  Their entries hold to rounding (README gives the measured
accuracy), so the values lie above the true ones (variational principle)
up to it, and on either side where the eigenfunction lies in the trial
space (r on mode 1, the upper range's).  Every solve shifts its mode under
its first nontrivial closed-form value (mode_spectrum) and counts the
values under the shift by Sylvester's law; any count but the closed form's
raises NumericalBreakdown instead of returning a wrong value.  A one-value
solve is also bracketed by two counts around the value it returns.

Only modes 0 and 1 can carry the gap.  For ell >= 1 the trial space and
B do not depend on ell, and A_ell = S + ell(ell+n-2) K with S >= 0 and
K >= B (K - B is the Gram of r^{n-3}(1+r^2)^{-beta}), so the Galerkin
values obey lam_ell >= ell(ell+n-2) and, for ell >= 2,
lam_ell >= lam_{ell-1} + (2 ell + n - 3).

This is the package's one module that factors: each function that calls
LAPACK (dpttrf, d/zgttrf and d/zgttrs, the banded Cholesky of B) imports
it from scipy.linalg when it runs, so `import cauchygap` loads numpy only
and scipy.linalg loads at the first factorization.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .measures import MeasureParams, l2_growth_limit, omega_moment

__all__ = [
    "Discretization", "SymBand", "ModeProblem", "NumericalBreakdown", "GapReport",
    "range_edges", "GAP_FORMULA", "closed_form_gap", "assemble_mode", "lowest_eigs",
    "numeric_gap",
    "rayleigh_quotient_power", "rayleigh_quotient_1d", "mode_spectrum",
]


# ----------------------------------------------------------------------
# Closed forms.  range_edges and GAP_FORMULA are the beta-range table: the
# one place the piecewise theorem is written.


def range_edges(n: int) -> tuple[float, float]:
    """(beta_L, beta_U): the gap is GAP_FORMULA["lower"] on (n/2, beta_L],
    "mid" on [beta_L, beta_U] and "upper" on [beta_U, inf); the lower-range
    split closes at eps0 = beta_L - beta.  The line has no mid range."""
    if n == 1:
        return 1.5, 1.5
    return n / 2.0 + 2.0, n + 1.0


GAP_FORMULA = {
    "lower": lambda n, beta: (beta - n / 2.0) ** 2,
    "mid": lambda n, beta: 4.0 * (beta - n / 2.0 - 1.0),
    "upper": lambda n, beta: 2.0 * (beta - 1.0),
}


def closed_form_gap(params: MeasureParams) -> tuple[float, str]:
    """Piecewise spectral gap of -L and its range tag.

    n = 1:  (beta-1/2)^2 on (1/2, 3/2],  2(beta-1) on [3/2, inf).
    n >= 2: (beta-n/2)^2 on (n/2, n/2+2], 4(beta-n/2-1) on [n/2+2, n+1],
            2(beta-1) on [n+1, inf).
    At a boundary both branches agree; the tag picks the lower-beta branch.
    """
    n, beta = params.n, params.beta
    beta_l, beta_u = range_edges(n)
    tag = "lower" if beta <= beta_l else "mid" if beta <= beta_u else "upper"
    return GAP_FORMULA[tag](n, beta), tag


def mode_spectrum(params: MeasureParams, ell: int) -> list[float]:
    """Closed-form bottom of the spectrum of -L on mode ell, ascending.

    L is triangular on r^k Y_ell, k = ell + 2j; each k < beta - n/2 (r^k in
    L^2(mu), `l2_growth_limit`) gives the eigenvalue
    2(beta-1)k - k(k+n-2) + ell(ell+n-2), which lies (beta - n/2 - k)^2
    below the edge e_ell = (beta-n/2)^2 + ell(ell+n-2) of the continuous
    spectrum, the last entry (the heavy-tailed Pearson spectrum: Forman &
    Sorensen 2008; Avram, Leonenko & Suvak 2013).
    """
    return _pearson_values(params, ell, math.inf)


def _pearson_values(params: MeasureParams, ell: int, kmax: float) -> list[float]:
    """The entries of mode_spectrum(params, ell) for k < kmax, then the edge."""
    n, beta = params.n, params.beta
    limit = l2_growth_limit(params)
    cl = ell * (ell + n - 2)
    ks = np.arange(ell, min(kmax, limit), 2)
    vals = 2.0 * (beta - 1.0) * ks - ks * (ks + n - 2) + cl
    return vals.tolist() + [limit ** 2 + cl]


@lru_cache(maxsize=256)
def _mode_head(params: MeasureParams, ell: int) -> tuple[float, ...]:
    """The entries of mode_spectrum(params, ell) for k < ell + 4, then the
    edge: the spectrum ascends, so these are all the entries at or under
    the mode's first nontrivial value, and all that the shift and the guard
    read (mode_spectrum lists about beta/2 entries).  Computed once per
    (params, ell)."""
    return tuple(_pearson_values(params, ell, ell + 4))


# The supremum of the admissible eps of each Rayleigh family: f grows like
# |x|^(2 eps) ("power") or |x|^(1 + 2 eps) ("oned", on the line), so it is
# in L^2(mu) only below it (`l2_growth_limit`), and each quotient refuses
# eps at or past it (`_admissible_eps`).
RAYLEIGH_EPS_LIMIT = {
    "power": lambda n, beta: l2_growth_limit(MeasureParams(n, beta)) / 2.0,
    "oned": lambda n, beta: (l2_growth_limit(MeasureParams(n, beta)) - 1.0) / 2.0,
}


def _admissible_eps(epsilon: float, family: str, params: MeasureParams,
                    f_name: str) -> float:
    """epsilon as a float, or ValueError where it is not below
    RAYLEIGH_EPS_LIMIT[family] (NaN included) or is -inf."""
    eps = float(epsilon)
    limit = RAYLEIGH_EPS_LIMIT[family](params.n, params.beta)
    if not eps < limit:
        raise ValueError(f"epsilon = {eps:g} is not below {limit:g}: "
                         f"{f_name} is not square-integrable")
    if eps == -math.inf:
        raise ValueError("epsilon must be finite, got -inf")
    return eps


def rayleigh_quotient_power(epsilon: float, params: MeasureParams) -> float:
    """Rayleigh quotient of f = (1+|x|^2)^epsilon in closed moment form.

    With M_g = int (1+|x|^2)^g dmu (a normalization ratio),
      int Gamma(f) dmu = 4 eps^2 (M_{2eps} - M_{2eps-1}),
      Var(f)           = M_{2eps} - M_eps^2.
    Only a finite eps < RAYLEIGH_EPS_LIMIT["power"] keeps f in L^2, else
    ValueError (NaN included); eps = 0 has zero variance.  As eps
    increases to the limit the value decreases to (beta - n/2)^2.
    """
    eps = _admissible_eps(epsilon, "power", params, "f")
    if eps == 0.0:
        raise ValueError("epsilon = 0 gives a constant function (zero variance)")
    m1 = omega_moment(-eps, params)
    m2 = omega_moment(-2.0 * eps, params)
    m2m = omega_moment(-(2.0 * eps - 1.0), params)
    num = 4.0 * eps * eps * (m2 - m2m)
    var = m2 - m1 * m1
    return num / var


def rayleigh_quotient_1d(epsilon: float, params: MeasureParams) -> float:
    """Rayleigh quotient of f = x (1+x^2)^epsilon on the line (n = 1 only,
    else ValueError), moment form.

    f is odd, so Var(f) = int f^2 = M_{2eps+1} - M_{2eps}; with
    f' = (1+2eps) w^eps - 2eps w^{eps-1} (w = 1+x^2),
      int w f'^2 = (1+2eps)^2 M_{2eps+1} - 4eps(1+2eps) M_{2eps} + 4eps^2 M_{2eps-1}.
    Requires a finite eps < RAYLEIGH_EPS_LIMIT["oned"] (square-integrability
    of x w^eps), else ValueError (NaN included).  The value's limit as eps
    increases to it is (beta - 1/2)^2.
    """
    if params.n != 1:
        raise ValueError(f"the family x (1+x^2)^eps needs n = 1, got n = {params.n}")
    eps = _admissible_eps(epsilon, "oned", params, "x (1+x^2)^eps")
    m_p1 = omega_moment(-(2.0 * eps + 1.0), params)
    m_0 = omega_moment(-2.0 * eps, params)
    m_m1 = omega_moment(-(2.0 * eps - 1.0), params)
    c = 1.0 + 2.0 * eps
    num = c * c * m_p1 - 4.0 * eps * c * m_0 + 4.0 * eps * eps * m_m1
    var = m_p1 - m_0
    return num / var


# ----------------------------------------------------------------------
# Exact element integrals int r^c (1+r^2)^{-d} dr.

_XGL, _WGL = leggauss(12)
_TAIL_LOG = 500.0 * math.log(10.0)  # (1 + R_beta^2)^(2 beta - n + 1) = 10^500 (Discretization)


def _gauss_panels(a, b, x=_XGL, w=_WGL):
    """Nodes and weights of the Gauss-Legendre rule (x, w) on [-1, 1] mapped
    onto the panels [a, b]: one row of shape (len(x),) per panel, for edge
    arrays a and b of shape (panels,) or scalars."""
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


@lru_cache(maxsize=8)
def _grid_rule(m: int, R: float):
    """(radii, rule) of the m radii r = sinh(s), s uniform on [0, asinh R],
    with 12-point Gauss-Legendre in s on every cell [r0, r1].  The rule
    holds, one row per Gauss node and one column per cell, the nodes
    r = sinh(s), log r, log1p(r^2) and the hat values phi_L = (r1 - r)/h
    and phi_R = (r - r0)/h; then per cell the half-width in s (the Gauss
    weights' factor) and h = sinh s1 - sinh s0; last the hat products
    phi_L phi_L, phi_L phi_R and phi_R phi_R times the Gauss weight and
    the half-width, stacked in that order, which every assembly contracts
    (_cell_integrals).  The hat values are those of the exact Gauss nodes,
    so the band entries hold to rounding where the rule resolves the
    weight.  Built on the grid's first use and read by every later
    assembly and load on it; every array is read-only."""
    def span(a, d):  # sinh(a + d) - sinh(a), without cancellation
        return 2.0 * np.cosh(a + 0.5 * d) * np.sinh(0.5 * d)

    s = np.linspace(0.0, math.asinh(R), m)
    r, ds = np.sinh(s), s[1:] - s[:-1]
    # each Gauss node's distance in s from its cell's ends, to rounding:
    # the hat values from it keep every digit, where r1 - r and r - r0 of
    # the rounded node lose ulp(s)/ds of them
    to_r0, to_r1 = 0.5 * (1.0 + _XGL[:, None]) * ds, 0.5 * (1.0 - _XGL[:, None]) * ds
    ss = s[:-1] + to_r0
    rr = np.sinh(ss)
    h = span(s[:-1], ds)
    left, right = span(ss, to_r1) / h, span(s[:-1], to_r0) / h
    weight = _WGL[:, None] * (0.5 * ds)
    hats = np.empty((3,) + rr.shape)
    for out, a, b in zip(hats, (left, left, right), (left, right, right)):
        np.multiply(weight * a, b, out=out)
    rule = (rr, np.log(rr), np.log1p(rr * rr), left, right, 0.5 * ds, h, hats)
    for a in (r, *rule):
        a.flags.writeable = False
    return r, rule


def _cell_integrals(rule, n: int, beta: float):
    """(mass, ell, grad) on every cell of `rule` (_grid_rule's) for the hats
    phi_L = (r1-r)/h and phi_R = (r-r0)/h: mass and ell are (LL, LR, RR),
    the integrals of phi_L^2, phi_L phi_R and phi_R^2 against
    r^{n-1} (1+r^2)^{-beta} and r^{n-3} (1+r^2)^{1-beta}, and grad is
    int r^{n-1} (1+r^2)^{1-beta} dr / h^2 (the gradient pair +-1/h).

    Every entry is a sum of positive node terms, with no cancellation.  One
    exp per node gives the ell weight; the gradient weight is r^2 times it
    and the mass weight r^2/(1+r^2) times that.  mass and ell contract
    their weights against the rule's stored hat products, so no hat
    product is formed here.
    """
    rr, logr, log1p, _, _, ds, h, hats = rule
    w = np.multiply(logr, n - 3.0)
    w += (1.5 - beta) * log1p  # with dr/ds = (1+r^2)^(1/2)
    np.exp(w, out=w)
    # three einsum factors, summed in node order on a one-cell slice too
    grad = np.einsum("ji,ji,ji->i", w * _WGL[:, None], rr, rr) * (ds / (h * h))
    r2 = rr * rr
    wm = w * r2
    r2 += 1.0
    wm /= r2
    return np.einsum("ji,kji->ki", wm, hats), np.einsum("ji,kji->ki", w, hats), grad


def _tail_moment(R: float, c: float, d: float) -> float:
    """int_R^inf r^c (1+r^2)^{-d} dr; requires 2d - c > 1.

    With a = d - (c+1)/2 and b = (c+1)/2 it is R^{c-1} (1+R^2)^{1-d} / (2a)
    times 2F1(1-b, 1; a+1; -1/R^2), summed until a term falls under 1e-17
    of the sum (it ends where b is a positive integer).  The grid's R has
    1/R^2 <= 1/24, or is the cap R_beta, which holds a R^2 >= 574 for the
    assembly's exponents: there the series, divergent for R < 1, has terms
    falling like k!/(a R^2)^k and stops long before they rise.
    """
    if 2.0 * d - c <= 1.0 + 1e-12:
        raise ValueError("tail moment diverges")
    a, b = d - (c + 1) / 2.0, (c + 1) / 2.0
    z = -1.0 / (R * R)
    total, term, k = 1.0, 1.0, 0
    while abs(term) > 1e-17 * abs(total):
        term *= (1.0 - b + k) / (a + 1.0 + k) * z
        total += term
        k += 1
    # exp(x + y) with the rounding of x + y put back (TwoSum): y, the d part,
    # is rounded alike for every c, and the tail rays' Gram block, which
    # cancels between moments, would amplify errors of ulp(x + y) apart
    x, y = (c - 1) * math.log(R), (1 - d) * math.log1p(R * R)
    s = x + y
    err = (x - (s - (s - x))) + (y - (s - x))
    return 0.5 * total * math.exp(s) * (1.0 + err) / a


def _tail_moments(R: float, cs: np.ndarray, d: float) -> np.ndarray:
    """_tail_moment(R, c, d) at every entry c of cs."""
    return np.array([_tail_moment(R, c, d) for c in cs.ravel().tolist()]).reshape(cs.shape)


# ----------------------------------------------------------------------
# Discretized mode problems.


@dataclass(frozen=True)
class Discretization:
    """Radial grid of m radii r = sinh(s), s uniform on [0, asinh R].

    R depends on the measure: R = min(tan(pi/2 - delta), R_beta), where
    (1 + R_beta^2)^((2 beta - n + 1)/2) = 1e250, so that the tail weight
    r^{n-1} (1+r^2)^{-beta} falls to about 1e-250 at R_beta.  The cap keeps
    the far mass entries in double range, and the weight's logarithm, about
    -(2 beta - n + 1) log cosh s, falls by at most 2 * 250 ln 10 / (m - 1)
    over any cell.  The far end carries no essential boundary condition:
    the trial space is a subset of the form domain (natural boundary), with
    delta a refinable truncation.
    """
    m: int = 512
    delta: float = 1e-3

    def __post_init__(self):
        if not isinstance(self.m, numbers.Integral):
            raise ValueError(f"m must be an integer, got m = {self.m!r}")
        if self.m < 64:
            raise ValueError("need at least 64 radial nodes")
        if not (0.0 < self.delta <= 0.2):
            raise ValueError("delta must lie in (0, 0.2]")

    def _grid(self, params: MeasureParams):
        """(radii, cell rule) for the measure params (`_grid_rule` at R):
        every point whose cap R_beta is inactive shares one grid."""
        far = math.tan(math.pi / 2.0 - self.delta)
        tail = _TAIL_LOG / (2.0 * params.beta - params.n + 1.0)  # log(1 + R_beta^2)
        R = far if tail >= math.log1p(far * far) else math.sqrt(math.expm1(tail))
        return _grid_rule(self.m, R)

    def radii(self, params: MeasureParams) -> np.ndarray:
        """The m radii for the measure params, read-only."""
        return self._grid(params)[0]


class SymBand:
    """Symmetric matrix in LAPACK lower band storage: band[d, j] = M[j+d, j].

    `S @ x` multiplies a vector or the columns of an array; `nbytes` counts
    the stored band only.
    """

    def __init__(self, band: np.ndarray):
        self.band = band
        self.shape = (band.shape[1], band.shape[1])
        self.nbytes = band.nbytes

    def __matmul__(self, x):
        x = np.asarray(x)
        b = self.band.reshape(self.band.shape + (1,) * (x.ndim - 1))
        y = b[0] * x
        for d in range(1, len(b)):
            y[d:] += b[d, :-d] * x[:-d]
            y[:-d] += b[d, :-d] * x[d:]
        return y

    def toarray(self) -> np.ndarray:
        nn = self.shape[0]
        M = np.zeros((nn, nn))
        for d in range(len(self.band)):
            j = np.arange(nn - d)
            M[j + d, j] = M[j, j + d] = self.band[d, :nn - d]
        return M


@dataclass(frozen=True)
class ModeProblem:
    """Exact Galerkin matrices of the degree-ell radial sector.

    A is the Dirichlet-form (stiffness) matrix, B the L^2 mass matrix, both
    over hat functions on `radii` (node 0 removed for ell >= 1) plus one
    column per tail ray r^k - R^k (k listed in ray_ks), stored as SymBand
    with half-width 1 (hats only) or 2 (with rays).  For ell = 0 the
    vector of ones over the hats, zero on the rays, spans the constants and
    lies in the kernel of A; `_constants` and `_mean_free` own it.
    """
    ell: int
    A: SymBand
    B: SymBand
    radii: np.ndarray = field(repr=False)
    ray_ks: tuple
    params: MeasureParams

    def size(self) -> int:
        return self.A.shape[0]

    @cached_property
    def _guarded(self):
        """_guard(self), run once per problem: every solve and certification
        of the problem reads it.  A breakdown is raised, not kept."""
        return _guard(self)

    @cached_property
    def _b_factor(self) -> np.ndarray:
        """The lower banded Cholesky factor L of B = L L', once per problem,
        for _b_solve."""
        from scipy.linalg import cholesky_banded
        try:
            return cholesky_banded(self.B.band, lower=True)
        except ValueError as exc:  # LinAlgError, or a non-finite entry
            raise NumericalBreakdown(self, f"banded Cholesky of B failed ({exc})") from exc

    @cached_property
    def _constants(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Mode 0's constants, once per problem: (1, B1, 1'B1), 1 the ones
        over the hats and zero on the rays.  The one-value solve deflates
        them (`lowest_eigs`), the contour flow drops them
        (`semigroup._flow_at`), and the projection reads its mass 1'B1
        here (`_hat_projection`)."""
        one = np.zeros(self.size())
        one[:self.size() - len(self.ray_ks)] = 1.0
        B1 = self.B @ one
        return one, B1, float(one @ B1)

    def _mean_free(self, y: np.ndarray) -> np.ndarray:
        """y less its constant part (y'B1 / 1'B1) 1 on mode 0 (`_constants`),
        B-orthogonal to the constants; y itself on every other mode, which
        has none."""
        if self.ell > 0:
            return y
        one, B1, mass = self._constants
        return y - (y @ B1) / mass * one

    def _b_solve(self, b: np.ndarray) -> np.ndarray:
        """B^{-1} b on the cached factor: the projection (_hat_projection)
        and the heat-flow trace (`semigroup.deficit_trace`, for B^{-1} A w)
        solve by it."""
        from scipy.linalg import cho_solve_banded
        return cho_solve_banded((self._b_factor, True), b, check_finite=False)


class NumericalBreakdown(ArithmeticError):
    """A mode problem's matrices or factorization broke down in floating point."""

    def __init__(self, problem: ModeProblem, reason: str):
        p = problem.params
        super().__init__(f"mode ell={problem.ell} (n={p.n}, beta={p.beta:g}, "
                         f"nn={problem.size()}): {reason}")


def _admissible_rays(n: int, beta: float) -> tuple:
    """The ray powers k in {1, 2} with r^k in L^2(mu), less a margin of
    5e-10 on the limit: a ray closer to it has a tail moment near its pole."""
    limit = l2_growth_limit(MeasureParams(n, beta))
    return tuple(k for k in (1, 2) if k < limit - 5e-10)


def _node_diag(left, right):
    """Diagonal over the grid nodes: cell j adds left[j] to node j and
    right[j] to node j + 1."""
    diag = np.zeros(len(left) + 1)
    diag[:-1] += left
    diag[1:] += right
    return diag


def _mode_problems(ells, params: MeasureParams, disc: Discretization,
                   tail_rays: bool = True):
    """Galerkin pairs of the modes `ells` (each ell >= 0), in order, from one
    pass over the cells.  tail_rays=False keeps the hats alone, so that a
    coefficient vector is a piecewise-linear profile on the radii: the
    heat flow's projection (`_hat_projection`) takes its problems so.

    No cell or tail integral depends on the mode, which enters A only
    through the factor ell(ell+n-2): the integrals are computed once, by
    `_cell_integrals` on the grid's Gauss nodes (`Discretization._grid`),
    and each mode's bands are built from them.  On the first cell
    phi_R^2 r^{n-3} = r^{n-1}/h^2 is integrable; phi_L^2 r^{n-3} is finite
    at every node (none lies at r = 0) and enters only where node 0 is
    kept, ell = 0, times ell(ell+n-2) = 0.
    """
    n, beta = params.n, params.beta
    r, rule = disc._grid(params)
    ks = _admissible_rays(n, beta) if tail_rays else ()

    (LL, Bo, RR), (aLL, aLR, aRR), kS = _cell_integrals(rule, n, beta)
    Bd = _node_diag(LL, RR)

    # Tail functions on [R, inf): the last hat's constant extension and the
    # rays r^k - R^k (zero on [0, R]), the columns of C over the powers P.
    # With T = _tail_moment, B_tail = C'[T(R, n-1+p+q, beta)]C and A_tail =
    # C'[(pq + ell(ell+n-2)) T(R, n-3+p+q, beta-1)]C, from the last hat on.
    R = float(r[-1])
    P = np.array((0,) + ks, dtype=float)
    C = np.eye(len(P))
    C[0, 1:] = -R ** P[1:]
    S = P[:, None] + P
    B_tail = C.T @ _tail_moments(R, n - 1 + S, beta) @ C
    A_gram = _tail_moments(R, n - 3 + S, beta - 1.0)

    for ell in ells:
        cl = float(ell * (ell + n - 2))
        Ad, Ao = _node_diag(kS + cl * aLL, kS + cl * aRR), -kS + cl * aLR
        cut = 1 if ell > 0 else 0  # ell >= 1 drops the node at r = 0
        nh = len(Bd) - cut
        nn = nh + len(ks)
        Ab = np.zeros((max(1, len(ks)) + 1, nn))
        Bb = np.zeros_like(Ab)
        Ab[0, :nh], Ab[1, :nh - 1] = Ad[cut:], Ao[cut:]
        Bb[0, :nh], Bb[1, :nh - 1] = Bd[cut:], Bo[cut:]
        for band, tail in ((Bb, B_tail),
                           (Ab, C.T @ ((np.outer(P, P) + cl) * A_gram) @ C)):
            for d in range(len(P)):
                band[d, nh - 1:nn - d] += np.diagonal(tail, -d)
        yield ModeProblem(ell=ell, A=SymBand(Ab), B=SymBand(Bb), radii=r,
                          ray_ks=ks, params=params)


def assemble_mode(ell: int, params: MeasureParams, disc: Discretization) -> ModeProblem:
    """Assemble the Galerkin stiffness/mass pair of mode ell (ell >= 0, else
    ValueError): the one-mode case of `_mode_problems`, tail rays included.

    ell >= 1 removes the node at r = 0 (radial profiles vanish there); the
    last hat extends as a constant over [R, inf); tail rays are appended for
    every square-integrable power.
    """
    if ell < 0:
        raise ValueError("mode degree must be nonnegative")
    return next(_mode_problems((ell,), params, disc))


def _hat_loads(profiles, params: MeasureParams, disc: Discretization) -> dict:
    """Per mode ell, the loads b_i = int profile phi_i dmu of the radial
    profiles on the mode's hats, as {ell: b}; profiles(r) gives
    {ell: profile values at the radii r}, and is called once.

    The grid's 12-point Gauss rule and hat values on every cell
    (`Discretization._grid`, shared with the assembly), plus the constant
    extension of the last hat over [R, inf) by 12-point Gauss in t = R/r,
    where a compact profile reads 0.  ell >= 1 has no hat at r = 0.
    """
    def weight(logr, log1p, half=0.0):  # r^{n-1} (1+r^2)^{half-beta}
        return np.exp((params.n - 1) * logr + (half - params.beta) * log1p)

    r, (rr, logr, log1p, left, right, ds, *_) = disc._grid(params)
    ww = _WGL[:, None] * weight(logr, log1p, 0.5)  # with dr/ds = (1+r^2)^(1/2)
    R = float(r[-1])
    t, wt = _gauss_panels(0.0, 1.0)
    rt = R / t
    wt = wt * (R / (t * t)) * weight(np.log(rt), np.log1p(rt * rt))
    loads = {}
    for ell, prof in profiles(np.concatenate((rr.ravel(), rt))).items():
        g = ww * prof[:rr.size].reshape(rr.shape)
        b = _node_diag(ds * np.einsum("ji,ji->i", g, left),
                       ds * np.einsum("ji,ji->i", g, right))
        b[-1] += float(prof[rr.size:] @ wt)
        loads[ell] = b[1:] if ell > 0 else b
    return loads


def _hat_projection(profiles, params: MeasureParams, disc: Discretization):
    """The L^2(mu) projection of radial profiles on the hats (no rays) of
    their modes: (problems, vs, mass), each mode's problem and
    v = B^{-1} b of its loads (`_hat_loads`, same arguments), in ascending
    ell, and the discrete mass 1'B1 of mode 0 (`ModeProblem._constants`),
    which profiles must give.

    Mode 0 is shifted by its discrete mean 1'b / 1'B1: the heat flow keeps
    the mean, so the constant leaves the flow's representation exactly.
    """
    loads = _hat_loads(profiles, params, disc)
    problems = list(_mode_problems(sorted(loads), params, disc, tail_rays=False))
    vs = [p._b_solve(loads[p.ell]) for p in problems]
    mass = problems[0]._constants[2]
    vs[0] -= np.sum(loads[0]) / mass
    return problems, vs, mass


# Shift margin: every mode shifts 1% under its closed-form bottom, where
# the guard counts, the one-value solve iterates and the contour flow
# (`semigroup._flow_at`) factors its rational; the solved values agree
# with the extended-precision band eigenvalues to rounding
# (test_floored_mode0_matches_the_unshifted_solve).
_FLOOR_MARGIN = 1e-2


def _mode_bottom(params: MeasureParams, ell: int) -> float:
    """The first nontrivial closed-form value of mode ell: mode_spectrum
    entry 1 on mode 0 (entry 0 is the constants), entry 0 above."""
    return _mode_head(params, ell)[1 if ell == 0 else 0]


def _guard(problem: ModeProblem) -> tuple[float, int, np.ndarray, str]:
    """The checks every mode passes before it is solved or certified:
    (sigma, closed, A - sigma B, its text for a breakdown), read through
    ModeProblem._guarded.

    sigma = (1 - _FLOOR_MARGIN) x the mode's first nontrivial closed-form
    value (_mode_bottom), and `closed` counts the closed-form values under
    it (1 on mode 0, the constants; 0 above).  Galerkin values are upper
    bounds, so the Sylvester count of A - sigma B must equal it.  Raises
    NumericalBreakdown on non-finite entries, mass entries that are not
    positive, or a count other than the closed form's.
    """
    A, B = problem.A, problem.B
    if not (np.all(np.isfinite(A.band)) and np.all(np.isfinite(B.band))):
        raise NumericalBreakdown(problem, "non-finite band entries")
    nh = problem.size() - len(problem.ray_ks)
    smallest = min(B.band[0].min(), B.band[1, :nh - 1].min(initial=np.inf))
    if not smallest > 0.0:
        raise NumericalBreakdown(problem, f"mass entries not positive (smallest {smallest:.3g})")
    sigma, at = _floor_shift(_mode_bottom(problem.params, problem.ell))
    what = f"A - sigma B at {at}"
    closed = sum(v < sigma for v in _mode_head(problem.params, problem.ell))
    shifted = A.band - sigma * B.band
    below = _inertia(problem, shifted, what)
    if below != closed:
        raise NumericalBreakdown(
            problem, f"the inertia of {what} puts {below} Galerkin values "
            f"below sigma = {sigma:.6g}, where the closed-form bottom has {closed}")
    return sigma, closed, shifted, what


def _inertia(problem: ModeProblem, shifted: np.ndarray, what: str) -> int:
    """Number of negative eigenvalues of the band `shifted` (Sylvester).

    Unpivoted LDL' of the tridiagonal hat block by LAPACK dpttrf, which
    stops at the first pivot that is not positive: past a negative pivot
    d_k the next is d_{k+1} - e_k (e_k / d_k), and dpttrf restarts there.
    Then the pivots of the ray block's Schur complement
    S = R - w w'/d_last (`_ray_pivots`, on w and w / d_last), since rays
    couple only to the last hat (Haynsworth inertia additivity).  A zero or
    NaN pivot raises NumericalBreakdown (dpttrf passes NaN on).
    """
    from scipy.linalg.lapack import dpttrf
    nh = problem.size() - len(problem.ray_ks)
    d, e = shifted[0, :nh].copy(), shifted[1, :nh - 1]
    k = 0  # where dpttrf (re)starts
    while k < nh - 1:
        d[k:], _, info = dpttrf(d[k:], e[k:])
        if info == 0:
            break
        k += info - 1  # the first pivot that is not positive
        if k == nh - 1 or not d[k] < 0.0:  # the last pivot, or a zero one
            break
        d[k + 1] -= e[k] * (e[k] / d[k])
        k += 1
    if problem.ray_ks:
        w = shifted[1:len(problem.ray_ks) + 1, nh - 1]
        with np.errstate(divide="ignore", invalid="ignore"):  # zeros raise below
            d = np.append(d, _ray_pivots(shifted, w, w / d[-1])[1])
    if not np.all((d < 0.0) | (d > 0.0)):
        raise NumericalBreakdown(problem, f"{what} has a zero or NaN pivot")
    return int(np.count_nonzero(d < 0.0))


def _ray_pivots(shifted: np.ndarray, left: np.ndarray, right: np.ndarray):
    """(mult, pivots) of the LDL' of the rays' Schur complement
    S = R - t w w' in the band `shifted`, the one copy of its formula, for
    `_inertia` and `_shifted_solve`: R the ray block, w the rays' couplings
    to the last hat, t that hat's entry of the hat block's inverse.  The
    pivots are S11 and S22 - mult S21, mult = S21 / S11 (one ray: S11, and
    mult is None).

    The caller passes t w w' as left right', t folded into one factor, and
    each product is left_i right_j: far rays carry w near 1e-160, whose
    square underflows to 0, and the reciprocal of a subnormal last hat
    pivot d_last overflows.  So the count passes (w, w / d_last) and the
    solve (t w, w).  A zero pivot gives inf or NaN, which the callers
    refuse (under their own np.errstate).
    """
    r = len(left)
    piv = shifted[0, -r:] - left * right
    if r == 1:
        return None, piv
    s21 = shifted[1, -2] - left[1] * right[0]
    mult = s21 / piv[0]
    piv[1] -= mult * s21
    return mult, piv


# The one-value solve (lowest_eigs): inverse iteration at sigma stops once a
# step moves the value by at most _STEP_TOL of it, or by no less than the
# step before (in exact arithmetic the moves shrink at every step, so
# rounding has taken over).  A step that moves the value by at most
# _REFACTOR_FROM of it, and by more than _SLOW_RATIO of the move before,
# marks slow convergence at sigma: the iteration refactors once, at the
# running value.  _bracket then certifies the value to
# BRACKET_EPS_SCALE x nn^2 relative, nn the problem's size: the rounding of
# a value and of its count grows with the stiffness scale, about as the
# square of the number of cells.  README gives the measured step counts,
# errors and brackets.
_STEP_TOL = 1e-14
_MAX_STEPS = 50
_REFACTOR_FROM = 1e-3
_SLOW_RATIO = 1e-2
BRACKET_EPS_SCALE = 6e-17


def _bracket_of(problem: ModeProblem, lam: float) -> tuple[float, float]:
    """(lam (1 - eps), lam (1 + eps)), eps = BRACKET_EPS_SCALE x nn^2:
    where _bracket counts."""
    eps = BRACKET_EPS_SCALE * problem.size() ** 2
    return lam * (1.0 - eps), lam * (1.0 + eps)


def _bracket(problem: ModeProblem, lam: float) -> None:
    """Certify lam as the problem's lowest nontrivial value: the Sylvester
    counts at the two ends of _bracket_of(problem, lam) must read the
    guard's `closed` (the closed-form values under sigma: mode 0's
    constants) and closed + 1, else NumericalBreakdown."""
    closed = problem._guarded[1]
    A, B = problem.A.band, problem.B.band
    ends = _bracket_of(problem, lam)
    counts = [_inertia(problem, A - edge * B, f"A - mu B at mu = {edge:.17g} (bracket)")
              for edge in ends]
    if counts != [closed, closed + 1]:
        raise NumericalBreakdown(
            problem, f"the counts at {ends[0]:.17g} and {ends[1]:.17g}, around lam = "
            f"{lam:.17g}, put "
            f"{counts[0]} and {counts[1]} Galerkin values below, where the lowest "
            f"nontrivial value needs {closed} and {closed + 1}")


def _shifted_solve(problem: ModeProblem, shifted: np.ndarray):
    """b -> (A - mu B)^{-1} b for `shifted` = A - mu B in lower band
    storage, or None where the factor is singular (mu is a value to
    rounding).  A complex mu (a complex band) solves in complex arithmetic.

    LAPACK dgttrf (LU with partial pivoting; zgttrf for a complex band) of
    the tridiagonal hat block T.  The rays couple only to the last hat, by
    w, so their Schur complement is S = R - t w w' with
    t = (T^{-1})_{last,last}, solved by its LDL' pivots (`_ray_pivots` on
    t w and w, which the count calls too): the rays' part is
    u = S^{-1} (b_rays - w y_last) and the hats' y - T^{-1} e_last (w'u),
    with y = T^{-1} b_hats.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs, zgttrf, zgttrs
    r = len(problem.ray_ks)
    nh = problem.size() - r
    trf, trs = (dgttrf, dgttrs) if np.isrealobj(shifted) else (zgttrf, zgttrs)
    e = shifted[1, :nh - 1]
    *lu, info = trf(e, shifted[0, :nh], e)
    if info != 0:
        return None

    def hats(b):
        return trs(*lu, b)[0]

    if not r:
        return hats
    w = shifted[1:r + 1, nh - 1]
    z = hats(np.eye(1, nh, nh - 1)[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        mult, piv = _ray_pivots(shifted, z[-1] * w, w)
    if not np.all(np.isfinite(piv) & (piv != 0.0)):
        return None

    def solve(b):
        y = hats(b[:nh])
        u = b[nh:] - w * y[-1]
        if r == 2:
            u[1] -= mult * u[0]
        u /= piv
        if r == 2:
            u[0] -= mult * u[1]
        return np.concatenate((y - z * (w @ u), u))

    return solve


def lowest_eigs(problem: ModeProblem) -> float:
    """The lowest nontrivial generalized value of (A, B), past mode 0's
    constants, certified by _bracket.  The iterates' vectors are not
    returned: the steps stop on the value, which converges twice as fast.

    Inverse iteration at the guard's sigma, on one factor (_shifted_solve).
    Each step's value is mu + y'Bx / y'By for y = (A - mu B)^{-1} Bx at the
    shift mu of the factor: the Rayleigh quotient y'Ay / y'By, read through
    (A - mu B) y = Bx instead of a product with A, whose stiffness rows
    cancel.  Where the steps at sigma converge slowly (the next value lies
    near, as in the lower range and on mode 0 in the mid range), the
    iteration refactors once, at mu = the running value, and continues
    from the current iterate; a singular factor there means the value is
    one to rounding, and the steps stop.  On mode 0 every iterate is made
    B-orthogonal to the constants (`ModeProblem._mean_free`, which owns
    them), which lie under sigma: deep in the lower range sigma is nearer
    to them than to the value sought, and they would grow from rounding at
    every step.
    """
    sigma, _, shifted, what = problem._guarded
    B, nn = problem.B, problem.size()
    solve = _shifted_solve(problem, shifted)
    if solve is None:
        raise NumericalBreakdown(problem, f"{what} is singular")
    Bx = B @ np.linspace(1.0, 2.0, nn)
    mu, lam, move = sigma, sigma, math.inf
    for _ in range(_MAX_STEPS):
        y = problem._mean_free(solve(Bx))
        By = B @ y
        yBy = y @ By
        new = mu + (y @ Bx) / yBy
        Bx = By / math.sqrt(yBy)
        move, last, lam = abs(new - lam), move, new
        if move <= _STEP_TOL * lam or move >= last:
            break
        if mu == sigma and _SLOW_RATIO * last < move <= _REFACTOR_FROM * lam:
            solve = _shifted_solve(problem, problem.A.band - lam * B.band)
            if solve is None:  # lam is a value to rounding
                break
            mu, move = lam, math.inf  # the moves at mu start a new sequence
    _bracket(problem, lam)
    return float(lam)


def _floor_shift(bottom: float) -> tuple[float, str]:
    """The shift under a closed-form bottom, and its text for a breakdown."""
    sigma = (1.0 - _FLOOR_MARGIN) * bottom
    return sigma, (f"sigma = {sigma:.6g} ({1.0 - _FLOOR_MARGIN:g} x the "
                   f"closed-form bottom {bottom:.6g})")


@dataclass(frozen=True)
class GapReport:
    """Numeric gap vs closed form for one parameter set."""
    n: int
    beta: float
    mode_eigs: tuple          # lowest nontrivial eigenvalue of modes 0 and 1; None if certified
    mode_brackets: tuple      # (lo, hi) around each solved value, counted; None if certified
    mode_bottoms: tuple       # the closed-form bottom each mode was shifted under
    numeric_gap: float
    closed_form: float
    range_tag: str
    rel_error: float          # signed: positive means numeric sits above
    minimizing_mode: int
    m: int
    delta: float


def numeric_gap(params: MeasureParams, disc: Discretization,
                ell_max: int = 3) -> GapReport:
    """Smallest nontrivial eigenvalue over modes 0..ell_max vs the closed form.

    Each mode contributes its first nontrivial eigenvalue (on mode 0 past
    the constants); on the line only the even/odd sectors exist.  Only
    modes 0 and 1 can carry the gap, and both pass _guard once, in that
    order, before either is solved (the solves reuse it): a Sylvester count
    under sigma_ell, 0.99 x the closed-form bottom reported in
    mode_bottoms.  The mode with the lower
    bottom is solved (mode 0 on a tie), and mode_brackets holds the two
    points whose counts certify its value.  The other is solved only where
    its sigma lies under the value found; elsewhere its count proves every
    nontrivial value above the gap, and mode_eigs and mode_brackets hold
    None for it.

    No mode ell >= 2 is assembled: lam_ell >= lam_{ell-1} + (2 ell + n - 3)
    by Courant-Fischer (module docstring), and lam_1, or sigma_1 standing
    in for a certified lam_1, is at least the gap.
    """
    if ell_max < 2:
        raise ValueError("need ell_max >= 2 (mode minimum must be attested)")
    probs = list(_mode_problems((0, 1), params, disc))
    sigmas = [prob._guarded[0] for prob in probs]
    first = int(np.argmin(sigmas))
    eigs = [None, None]
    eigs[first] = lowest_eigs(probs[first])
    if sigmas[1 - first] < eigs[first]:
        eigs[1 - first] = lowest_eigs(probs[1 - first])
    gap = min(v for v in eigs if v is not None)
    mode = eigs.index(gap)
    closed, tag = closed_form_gap(params)
    rel = (gap - closed) / closed
    return GapReport(n=params.n, beta=params.beta, mode_eigs=tuple(eigs),
                     mode_brackets=tuple(None if v is None else _bracket_of(prob, v)
                                         for prob, v in zip(probs, eigs)),
                     mode_bottoms=tuple(_mode_bottom(params, ell) for ell in (0, 1)),
                     numeric_gap=gap, closed_form=closed, range_tag=tag,
                     rel_error=rel, minimizing_mode=mode, m=disc.m, delta=disc.delta)
