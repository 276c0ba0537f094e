"""Quadrature against the heavy-tailed measures and the integral-identity verifier.

Radial integrals use the compactification r = tan(theta) with composite
Gauss-Legendre panels in theta.  For integrands without compact support the
panels are graded geometrically toward theta = pi/2 (stored via the gap
tau = pi/2 - theta so the far nodes keep full relative precision; r = cot(tau)
reaches ~1e120 before the weights underflow).  Weights are accumulated in log
space.  Full n-dimensional integrals use tensor products with uniform angles
(n = 2) or Gauss-Legendre x uniform azimuth on the sphere (n = 3).  Radial
integrands run at every n on the one direction e_1 instead, and linear ones
(angular sector ell = 1) on the 2n directions +-e_i, which are exact on the
sphere up to degree 3.
The identity verifier and the deficit integrate random tests from their
coefficients in separable form on the same tensor rule: radial moment
matrices times angular Gram matrices, with no node-sized field; the
deficit's Var(f) and int Gamma(f) dmu are computed here (`_var_and_energy`).
Each field row of a block of random tests is built once, as (T, k, c J)
with sqrt(dw) folded in on every direction (`RandomTestFields.terms`), so
every angular Gram is one batched GEMM of two views of it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .functions import (RANDOM_TEST_RADIUS, RANDOM_TEST_SEAMS, RandomTestFields,
                        SmoothFunction, random_test_coefficients, _pairs,
                        _row_sq_norms)
from .measures import MeasureParams, log_normalization
from .spectral import GAP_FORMULA, _gauss_panels, range_edges

Array = np.ndarray

_SCHEMES = ("polar_2d", "product_spherical")


@dataclass(frozen=True)
class QuadratureSpec:
    scheme: str = "product_spherical"
    nodes: int = 256
    angular_nodes: int = 64

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick from {_SCHEMES}")
        for name in ("nodes", "angular_nodes"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {name} = {getattr(self, name)!r}")
        if self.nodes < 16:
            raise ValueError("need at least 16 nodes")
        if self.angular_nodes < 1:
            raise ValueError(f"angular_nodes must be at least 1, got {self.angular_nodes}")


@dataclass
class IdentityReport:
    tag: str
    n: int
    beta: float
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    trials: int = 1
    status: str = "ok"
    detail: str = ""


def _rel_err(lhs, rhs, terms=()):
    """Relative error on the scale max(1, |lhs|, |rhs|, |t| for t in terms),
    elementwise on arrays.  `terms` are summands of rhs that may cancel:
    their size, not the residual they leave, is the scale of the error."""
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    for t in terms:
        scale = np.maximum(scale, np.abs(t))
    return np.abs(lhs - rhs) / scale


# Default (n, beta) verification grid: per dimension, one point strictly
# inside the lower range, the two branch points, and one upper-range point.
# (3n+1)/5 keeps the lower-range points exact floats (0.8, 1.4, 2.0).
VERIFY_GRID = tuple(
    (n, b)
    for n in (1, 2, 3)
    for b in dict.fromkeys(((3 * n + 1) / 5.0, n / 2.0 + 1.0,
                            n / 2.0 + 2.0, n + 1.0, n + 3.0))
)


# ----------------------------------------------------------------------
# Radial rules.


_XG8, _WG8 = leggauss(8)  # the Gauss-Legendre rule on each radial-rule panel


def _log_sphere_area(n: int) -> float:
    # |S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(n / 2)


@lru_cache(maxsize=256)
def _radial_rule_cached(n: int, beta: float, nodes: int, trunc: Optional[float],
                        seams: tuple = ()):
    """Radial nodes r and log of mu-weights: sum(exp(logw) * h(r)) = int h dmu.

    `seams` lists, sorted, the radii in (0, trunc) where integrands lose
    smoothness (bump-profile joints); panel edges are pinned there so Gauss
    panels never straddle a derivative kink.
    """
    logc = _log_sphere_area(n) - log_normalization(MeasureParams(n, beta))
    if trunc is not None:
        # compact support: uniform panels per smooth segment of [0, arctan(R)]
        tmax = math.atan(trunc)
        cuts = [math.atan(s) for s in seams]
        npan_total = max(16, nodes // len(_XG8))
        edges = np.concatenate(
            [np.linspace(a, b, max(10, int(round(npan_total * (b - a) / tmax))) + 1)[:-1]
             for a, b in zip([0.0] + cuts, cuts + [tmax])] + [[tmax]])
        theta, w = _gauss_panels(edges[:-1], edges[1:], _XG8, _WG8)
        r = np.tan(theta)
    else:
        # core [0, pi/4] uniform, then tail panels [tau/2, tau] in
        # tau = pi/2 - theta, from tau = pi/4 while tau > 1e-120, descending
        core = np.linspace(0.0, math.pi / 4, max(8, nodes // (4 * len(_XG8))) + 1)
        halvings = math.ceil(math.log2(math.pi / 4 / 1e-120))
        tail = np.ldexp(math.pi / 4, -np.arange(halvings + 1))
        theta, w_core = _gauss_panels(core[:-1], core[1:], _XG8, _WG8)
        tau, w_tail = _gauss_panels(tail[1:], tail[:-1], _XG8, _WG8)
        r = np.concatenate([np.tan(theta), 1.0 / np.tan(tau)])
        w = np.concatenate([w_core, w_tail])
    r, w = r.ravel(), w.ravel()

    # log of r^{n-1} (1+r^2)^{1-beta} dtheta, with log1p(r^2) stabilized
    logr = np.log(r, out=np.full_like(r, -np.inf), where=r > 0)
    log_w2 = np.where(r > 1.0, 2.0 * logr + np.log1p(1.0 / r ** 2), np.log1p(r ** 2))
    logw = logc + (n - 1) * logr + (1.0 - beta) * log_w2 + np.log(w)
    keep = np.isfinite(logw) & (logw > -745.0)  # drop exact-zero weights
    return r[keep], logw[keep]


def _rule_key(params: MeasureParams, spec: QuadratureSpec,
              support_radius: Optional[float] = None, seams: tuple = ()):
    """The arguments (n, beta, nodes, trunc, seams) of `_radial_rule_cached`
    for a tensor rule; the spec and n are checked here."""
    if spec.scheme == "polar_2d" and params.n != 2:
        raise ValueError("polar_2d requires n = 2")
    trunc = None if support_radius is None else float(support_radius)
    # only seams inside (0, trunc) pin panel edges; dropping the rest first
    # lets every seam tuple that pins the same edges share one cached rule
    inside = () if trunc is None else tuple(sorted({s for s in seams
                                                    if 0.0 < s < trunc}))
    return params.n, params.beta, spec.nodes, trunc, inside


def _radial_rule(params: MeasureParams, spec: QuadratureSpec,
                 support_radius: Optional[float] = None,
                 seams: tuple = ()):
    return _radial_rule_cached(*_rule_key(params, spec, support_radius, seams))


# ----------------------------------------------------------------------
# Full n-dimensional node sets.  Every integral of a callable streams the
# tensor rule in blocks of whole radial rows, so memory does not grow with
# the node count.

_NODE_CHUNK = 4096   # nodes per block (one radial row where a row is longer)


@lru_cache(maxsize=128)
def _sphere_directions(n: int, angular: int):
    """Directions u_k and weights summing to 1 (uniform sphere average),
    read-only."""
    if n == 1:
        dirs, dw = np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    elif n == 2:
        phi = 2.0 * math.pi * np.arange(angular) / angular
        dirs, dw = np.stack([np.cos(phi), np.sin(phi)], axis=1), np.full(angular, 1.0 / angular)
    elif n == 3:
        p_polar = max(8, angular // 4)
        q_azim = max(12, angular // 3)
        ug, wg = leggauss(p_polar)
        psi = 2.0 * math.pi * np.arange(q_azim) / q_azim
        s = np.sqrt(1.0 - ug ** 2)[:, None]
        dirs = np.stack(np.broadcast_arrays(s * np.cos(psi), s * np.sin(psi),
                                            ug[:, None]), axis=2).reshape(-1, 3)
        dw = np.repeat(0.5 * wg / q_azim, q_azim)
    else:
        raise ValueError(f"deterministic sphere rule implemented for n <= 3, got n={n}")
    for a in (dirs, dw):
        a.flags.writeable = False
    return dirs, dw


def _axis_directions(n: int):
    """The 2n directions +e_1..+e_n, -e_1..-e_n, weights 1/(2n): the sphere
    average of every polynomial of degree <= 3 (Stroud), at every n."""
    return np.concatenate([np.eye(n), -np.eye(n)]), np.full(2 * n, 0.5 / n)


def _tensor_rule(params: MeasureParams, spec: QuadratureSpec,
                 support_radius: Optional[float] = None,
                 seams: tuple = (), angular_mode: Optional[int] = None):
    """The tensor rule for full-dimensional integrals as its factors (r,
    logw, u, dw): radii r and log mu-weights logw of `_radial_rule`, unit
    directions u (J, n) and their weights dw, the node r_i u_j carrying
    exp(logw_i) dw_j.  The spec and n are checked (`_rule_key`) before the
    directions, at any n: for an f with angular_mode 0 the one direction
    e_1 at weight 1, where its integrands are radial (on the line, even);
    for angular_mode 1 the 2n directions of `_axis_directions`, where they
    are of degree <= 3 on every sphere; else those of `_sphere_directions`
    (n <= 3)."""
    rule = _radial_rule(params, spec, support_radius, seams)
    if angular_mode == 0:
        dirs = np.eye(1, params.n), np.ones(1)
    elif angular_mode == 1:
        dirs = _axis_directions(params.n)
    else:
        dirs = _sphere_directions(params.n, spec.angular_nodes)
    return (*rule, *dirs)


def _node_blocks(params: MeasureParams, spec: QuadratureSpec,
                 support_radius: Optional[float] = None,
                 seams: tuple = (), angular_mode: Optional[int] = None):
    """The tensor rule of `_tensor_rule` as an iterator of blocks (x, w) of
    whole radial rows, at most _NODE_CHUNK nodes (at least one row):
    mu-weights w (k,) and nodes x (k, n), node i J + j being r_i u_j for
    the radii r and unit directions u (J, n): J = 1 for a radial f
    (angular_mode 0), 2n for a linear one.  The spec and n are checked at
    once, before the first block."""
    r, logw, dirs, dw = _tensor_rule(params, spec, support_radius, seams, angular_mode)
    rows = max(1, _NODE_CHUNK // len(dw))
    return (((r[lo:lo + rows, None, None] * dirs).reshape(-1, params.n),
             (np.exp(logw[lo:lo + rows])[:, None] * dw).reshape(-1))
            for lo in range(0, len(r), rows))


def integrate_nd(g: Callable[[Array], Array], params: MeasureParams,
                 spec: QuadratureSpec,
                 support_radius: Optional[float] = None,
                 seams: tuple = ()):
    """int g dmu by a deterministic tensor rule (n <= 3).  `support_radius`
    truncates the radial rule; `seams` pins panel edges at radii where g
    loses smoothness.

    g is called on blocks of nodes x (k, n) of whole radial rows, with
    k <= _NODE_CHUNK unless one row is longer (`_node_blocks`), so memory
    does not grow with the node count.  g returns one field of shape (k,),
    integrated to a float, or a stack of fields of shape (m, k), integrated
    to an array of shape (m,); any other shape raises ValueError.
    """
    total = 0.0
    for x, w in _node_blocks(params, spec, support_radius, seams):
        fields = np.asarray(g(x), dtype=float)
        if fields.ndim not in (1, 2) or fields.shape[-1] != len(w):
            raise ValueError(f"integrand returned shape {fields.shape} on "
                             f"{len(w)} nodes; need ({len(w)},) or "
                             f"(m, {len(w)})")
        total = total + fields @ w
    return float(total) if np.ndim(total) == 0 else total


def default_nd_spec(n: int) -> QuadratureSpec:
    return QuadratureSpec(scheme="polar_2d" if n == 2 else "product_spherical")


# ----------------------------------------------------------------------
# Identity verification.
#
# Every integral identity below is expressed through ten mu-integrals
# int omega F G of the first- to third-order fields of f, all on one tensor
# rule per (params, spec).  IPP3, IPP4 and GRG carry a 1/(beta - 2) and are
# written multiplied through, (beta - 2) lhs = numerator, so they hold and
# are checked at beta = 2 too.  At x = r_i u_j each field row of a random
# test is sum_s phi_s(r_i) r_i^d A_s[d](u_j) (functions._product_rule), so
# each integral is a block of a radial moment matrix, once per rule and
# order (`_pack_tables`), contracted with an angular Gram on the
# directions, per trial: no array has a node axis.

_TRIAL_BLOCK = 8     # random tests per Gram batch; bounds the angular arrays


# The split tags per dimension class min(n, 2), each nothing but its eps in
# the twisted split of int Gamma2 (_split_rhs).  None is eps0 = beta_L - beta,
# where D(eps) peaks at the lower-range gap; at eps = 0, D is the mid-range gap.
_SPLIT_EPS = {1: {"ONED_SPLIT": 0.5, "ONED_LOW": None},
              2: {"IRG": 0.0, "LOWFACT": None}}


def applicable_tags(params: MeasureParams) -> list[str]:
    return ["IPP1", "IPP2", "IPP3", "IPP4", "GAMMABIS", "GRG", *_SPLIT_EPS[min(params.n, 2)]]


# The integrals int omega F G dmu of the packs by name, as (F, G, omega,
# the pack orders that read it), with w = 1 + r^2; F and G are rows of
# `RandomTestFields.terms`.
_INTEGRALS = {
    "sq": ("f", "f", "1", (1,)),                 # int f^2
    "gam": ("grad", "grad", "w", (1, 2, 3)),     # int Gamma(f)
    "a1": ("hess", "hess", "w2", (2, 3)),        # int ||w Hess f||^2
    "a2": ("lap", "lap", "w2", (2, 3)),          # int (w Lap f)^2
    "g2i": ("grad", "grad", "1", (2, 3)),
    "gx2": ("gu", "gu", "r2", (2, 3)),           # int <grad f, x>^2
    "r2g2": ("grad", "grad", "r2", (2, 3)),
    "p1": ("hu", "grad", "wr", (2, 3)),          # p1/4: int <d|df|^2, w dw>
    "p2": ("lap", "gu", "wr", (2, 3)),           # p2/2: int <Lap f df, w dw>
    "t2": ("grad", "gradlap", "w2", (3,)),       # int w^2 <df, dLap f>
}


@lru_cache(maxsize=16)
def _direction_fields(n: int, angular: int) -> RandomTestFields:
    """The direction side of the random tests on _sphere_directions(n,
    angular), weighted by their weights, shared by every radial rule and
    order on those directions."""
    return RandomTestFields(*_sphere_directions(n, angular))


@lru_cache(maxsize=64)
def _pack_tables_cached(n: int, beta: float, nodes: int, trunc: Optional[float],
                        seams: tuple, angular: int, order: int):
    """What every pack of `order` reads on the rule of
    _radial_rule_cached(n, beta, nodes, trunc, seams) and
    _sphere_directions(n, angular), as (fields, order, blocks): the
    direction side `_direction_fields`, and per integral of `_INTEGRALS`
    that packs of the order read, the block M_omega[cf, cg] of the radial
    moments M_omega = R' diag(omega exp(logw)) R of the radial matrix R,
    flat, one array per distinct block; at order 1 also blocks["mean"],
    the first moment R' exp(logw) on the columns of f times sqrt(dw) on
    the directions, (k, J), against which int f is f's row of
    `RandomTestFields.terms`.  Built on the rule's first pack; every array
    is read-only."""
    r, logw = _radial_rule_cached(n, beta, nodes, trunc, seams)
    fields = _direction_fields(n, angular)
    R, w, W = fields.radial(r, order), 1.0 + r * r, np.exp(logw)
    omegas = {"1": 1.0, "w": w, "w2": w * w, "r2": r * r, "wr": w * r}
    columns = fields.columns(order)
    moments, distinct, blocks = {}, {}, {}
    for name, (F, G, omega, orders) in _INTEGRALS.items():
        if order in orders:
            # rows on the same columns share a block: a1 and a2, gx2 and r2g2
            key = tuple(columns[F]), tuple(columns[G]), omega
            if key not in distinct:
                if omega not in moments:
                    moments[omega] = (R.T * (omegas[omega] * W)) @ R
                distinct[key] = moments[omega][np.ix_(columns[F], columns[G])].ravel()
                distinct[key].flags.writeable = False
            blocks[name] = distinct[key]
    if order == 1:
        blocks["mean"] = np.outer((W @ R)[columns["f"]], np.sqrt(_sphere_directions(n, angular)[1]))
        blocks["mean"].flags.writeable = False
    return fields, order, blocks


def _pack_tables(params: MeasureParams, spec: QuadratureSpec,
                 support_radius: Optional[float], seams: tuple, order: int):
    """`_pack_tables_cached` on the tensor rule of _tensor_rule(params, spec,
    support_radius, seams)."""
    return _pack_tables_cached(*_rule_key(params, spec, support_radius, seams),
                               spec.angular_nodes, order)


class _FieldPack:
    """mu-integrals of the fields of make_random_test's functions for the
    coefficient stack coefs (M, T) on the `tables` of `_pack_tables`, with
    their `labels`, each an array with one entry per function.  Order 1
    gives only mean = int f, sq = int f^2 and gam = int Gamma(f); orders 2
    and 3 the integrals of the identities (t2 is NaN at order 2, which
    skips grad Lap f).

    Each integral int omega F G dmu of two field rows is
    sum(M_omega[cf, cg] o A_F diag(dw) A_G'): the tables' block of radial
    moments, built once per rule and order, against the angular Gram of the
    rows' angular arrays.  Per block of trials a pack does only the work
    that depends on the trials, and builds each row once, in the layout
    its Grams read: `RandomTestFields.terms` gives every row, <grad f, u>,
    Lap f and (Hess f) u included, as (T, k, c J) times sqrt(dw) on every
    direction; then the distinct off-diagonal entries of Hess f, which
    count twice in ||Hess f||^2, take a factor sqrt(2).  Every Gram is then
    one batched GEMM of two views, A_F A_G', and every integral its product
    with the flat block; int f is f's row against the tables' first
    moment, blocks["mean"]."""

    def __init__(self, coefs, params: MeasureParams, tables, labels=()):
        n, beta = params.n, params.beta
        fields, order, blocks = tables
        self.labels = labels
        totals = np.full((3 if order == 1 else 10, coefs.shape[1]), np.nan)
        for t in range(0, coefs.shape[1], _TRIAL_BLOCK):
            block = slice(t, t + _TRIAL_BLOCK)
            rows = fields.terms(coefs[:, block], order)
            T = len(rows["f"])
            grams = {}

            def integral(name):
                # the Gram A_F diag(dw) A_G' per trial, once per pair of rows
                F, G, *_ = _INTEGRALS[name]
                if (F, G) not in grams:
                    A, B = (rows[X].reshape(T, rows[X].shape[1], -1) for X in (F, G))
                    grams[F, G] = (A @ B.transpose(0, 2, 1)).reshape(T, -1)
                return np.vecdot(grams[F, G], blocks[name])

            gam = integral("gam")
            if order == 1:
                mean = np.vecdot(rows["f"][:, :, 0], blocks["mean"]).sum(axis=1)
                totals[:, block] = [mean, integral("sq"), gam]
                continue
            iu, ju, _ = _pairs(n)
            for c in np.flatnonzero(iu != ju).tolist():
                rows["hess"][:, :, c] *= math.sqrt(2.0)
            r2g2, gx2 = integral("r2g2"), integral("gx2")
            totals[:9, block] = [
                integral("a1"), integral("a2"), gam, integral("g2i"), gx2,
                r2g2 - gx2,                                      # qi
                4.0 * integral("p1"),
                2.0 * integral("p2"),
                -2.0 * n * gam + 4.0 * (beta - 1.0) * r2g2,      # wdw2
            ]
            if order == 3:
                totals[9, block] = integral("t2")
        if order == 1:
            self.mean, self.sq, self.gam = totals
            return
        (self.a1, self.a2, self.gam, self.g2i, self.gx2, self.qi, self.p1,
         self.p2, self.wdw2, self.t2) = totals
        # pointwise Gamma2 (Cauchy form, second-order only)
        self.gamma2 = (self.a1 + n * self.gam + 2.0 * (beta - 1.0) * self.g2i
                       + self.p1 - self.p2)


def _var_and_energy(f: SmoothFunction, params: MeasureParams):
    """Var(f) and int Gamma(f) dmu, the range deficit's integrals, on the
    tensor rule of f's support.  A random bump (f.coefs set) is integrated
    from its coefficients in separable form, by an order-1 `_FieldPack` on
    the spec's sphere rule.  Every other f takes one pass over the node
    blocks, where f and grad f give f, f^2 and (1 + |x|^2) |grad f|^2, at
    every n: for a radial f (angular_mode 0) these are radial, so the rule
    has the one direction e_1 per radius; for a linear f (angular_mode 1)
    they are of degree <= 2 on every sphere, on the 2n points +-e_i."""
    spec = default_nd_spec(params.n)
    if f.coefs is not None:
        tables = _pack_tables(params, spec, f.support_radius, f.radial_seams, 1)
        pack = _FieldPack(np.array(f.coefs)[:, None], params, tables)
        return pack.sq[0] - pack.mean[0] ** 2, pack.gam[0]
    total = 0.0
    for x, w in _node_blocks(params, spec, f.support_radius, f.radial_seams,
                             f.angular_mode):
        v, g2 = f.value(x), _row_sq_norms(f.gradient(x))
        total = total + np.stack([v, v * v, (1.0 + _row_sq_norms(x)) * g2]) @ w
    mean, sq, energy = total
    return sq - mean ** 2, energy


def _split_rhs(pack: _FieldPack, n: int, beta: float, eps: float,
               D: Optional[float] = None):
    """Right-hand side of the twisted split of int Gamma2 at eps, at every
    n >= 1; D overrides the leading coefficient D(eps).  The twisted term
    is tw1 on the line, where qi vanishes, and n/(n - 1) (tw1 - tw2/n)
    above it."""
    B, C, D_eps = lowfact_coefficients(n, beta, eps)
    tw1 = pack.a1 + eps * 0.5 * pack.p1 \
        + eps * eps * 0.5 * ((pack.qi + pack.gx2) + pack.gx2)
    tw2 = pack.a2 + eps * pack.p2 + eps * eps * pack.gx2
    twisted = tw1 if n == 1 else n / (n - 1.0) * (tw1 - tw2 / n)
    return twisted + B * pack.qi + C * pack.g2i + (D_eps if D is None else D) * pack.gam


def _tag_sides(tag: str, pack: _FieldPack, params: MeasureParams):
    """(lhs, rhs, terms) of identity `tag`; `terms` (for _rel_err) are the
    summands of rhs on IPP3, IPP4 and GRG, whose lhs vanishes at beta = 2
    while those summands cancel, and () on every other tag."""
    n, beta = params.n, params.beta
    if tag == "IPP1":
        return pack.p1, pack.wdw2, ()
    if tag == "IPP2":
        return pack.p2, -0.5 * pack.p1 - 2.0 * pack.gam + 4.0 * (beta - 1.0) * pack.gx2, ()
    if tag == "IPP3":
        terms = (2.0 * pack.a1, 2.0 * pack.t2)
        return (beta - 2.0) * pack.p1, terms[0] + terms[1], terms
    if tag == "IPP4":
        terms = (pack.t2, pack.a2)
        return (beta - 2.0) * pack.p2, terms[0] + terms[1], terms
    if tag == "GAMMABIS":
        rhs = pack.a1 + 0.5 * pack.p1 - pack.p2 + 2.0 * (beta - 1.0) * pack.gam
        return pack.gamma2, rhs, ()
    if tag == "GRG":
        rhs = ((beta - (n + 1.0)) * pack.a1 + n * (pack.a1 - pack.a2 / n)
               + 2.0 * (beta - 1.0) * (beta - 2.0) * pack.gam)
        terms = ((beta - (n + 1.0)) * pack.a1, n * pack.a1, pack.a2,
                 2.0 * (beta - 1.0) * (beta - 2.0) * pack.gam)
        return (beta - 2.0) * pack.gamma2, rhs, terms
    splits = _SPLIT_EPS[min(n, 2)]
    if tag in splits:
        eps = range_edges(n)[0] - beta if splits[tag] is None else splits[tag]
        return pack.gamma2, _split_rhs(pack, n, beta, eps), ()
    raise ValueError(f"unknown identity tag {tag!r}")


def lowfact_coefficients(n: int, beta: float, eps: float):
    """The (B, C, D) coefficients of the twisted split of int Gamma2 at eps,
    at every n >= 1.  D(eps) is a downward parabola that peaks at
    eps0 = beta_L - beta, where it is the lower-range gap (beta - n/2)^2;
    for n >= 2, D(0) is the mid-range gap.  On the line qi vanishes, so
    B = 0, and D = (1 - eps)(2(beta - 1) + eps)."""
    C = eps * (eps + 2.0 * (beta - 1.0))
    if n == 1:
        return 0.0, C, (1.0 - eps) * (2.0 * (beta - 1.0) + eps)
    B = ((n - 2.0) * eps ** 2 - 8.0 * (beta - 1.0) * eps
         + 8.0 * (beta - 1.0) * (n + 1.0 - beta)) / (2.0 * (n - 1.0))
    D = -eps ** 2 + (n + 2.0 - 2.0 * (beta - 1.0)) * eps + GAP_FORMULA["mid"](n, beta)
    return B, C, D


def _random_test_pack(params: MeasureParams, spec: Optional[QuadratureSpec],
                      trials: int, seed: int, order: int = 3):
    """Pack of the random tests (seed << 20) + t, t < trials, on the
    identity nodes of their support; ValueError for trials < 1."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if spec is None:
        spec = default_nd_spec(params.n)
    tables = _pack_tables(params, spec, RANDOM_TEST_RADIUS, RANDOM_TEST_SEAMS, order)
    coefs, labels = random_test_coefficients([(seed << 20) + t for t in range(trials)], params.n)
    return _FieldPack(coefs, params, tables, labels)


def verify_all(params: MeasureParams, spec: Optional[QuadratureSpec] = None,
               trials: int = 50, seed: int = 0,
               corrupt_ipp1: bool = False) -> list[IdentityReport]:
    """Worst-case report per applicable tag over random compactly supported
    test functions.  Each row reports (and names in `detail`) its first NaN
    trial if there is one, else the first trial whose rel_err is within a
    relative 1e-12 of the row's worst: its worst trial, or the first of
    those tied with it (a row of zeros names trial 0).

    corrupt_ipp1 flips the sign of the IPP1 right-hand side; it exists as a
    negative control so report consumers can confirm a broken identity is
    actually flagged.
    """
    n, beta = params.n, params.beta
    pack = _random_test_pack(params, spec, trials, seed)
    reports = []
    for tag in applicable_tags(params):
        lhs, rhs, terms = _tag_sides(tag, pack, params)
        if corrupt_ipp1 and tag == "IPP1":
            rhs = -rhs
        rel = _rel_err(lhs, rhs, terms)
        nan = np.isnan(rel)
        k = int(np.argmax(nan if nan.any() else rel >= rel.max() * (1.0 - 1e-12)))
        reports.append(IdentityReport(
            tag=tag, n=n, beta=beta, lhs=float(lhs[k]), rhs=float(rhs[k]),
            abs_err=float(abs(lhs[k] - rhs[k])), rel_err=float(rel[k]),
            trials=trials, detail=pack.labels[k]))
    return reports


def lowfact_sign_check(params: MeasureParams,
                       spec: Optional[QuadratureSpec] = None,
                       trials: int = 5, seed: int = 0) -> dict:
    """Decide numerically which sign of eps0 makes the lower-range split close
    with the advertised leading coefficient D = (beta - n/2)^2, at every
    n >= 1.

    Both candidate values are plugged into the twisted split with their own
    (B, C) coefficients but the claimed D; only one closes the identity.
    """
    n, beta = params.n, params.beta
    pack = _random_test_pack(params, spec, trials, seed, order=2)  # no t2
    D_claimed = GAP_FORMULA["lower"](n, beta)
    e0 = range_edges(n)[0] - beta
    eps0 = {"plus": e0, "minus": -e0}
    residuals = {sign: float(np.max(_rel_err(
                     pack.gamma2, _split_rhs(pack, n, beta, eps, D_claimed))))
                 for sign, eps in eps0.items()}
    resolved = "plus" if residuals["plus"] < residuals["minus"] else "minus"
    return {
        "eps0_plus": eps0["plus"],
        "eps0_minus": eps0["minus"],
        "residual_plus": residuals["plus"],
        "residual_minus": residuals["minus"],
        "resolved": resolved,
        "resolved_eps0": eps0[resolved],
    }


def lowfact_epsilon_scan(params: MeasureParams, eps_values,
                         spec: Optional[QuadratureSpec] = None,
                         trials: int = 3, seed: int = 0) -> list[dict]:
    """Identity residual and D coefficient across an eps grid.

    The split closes for every eps; D(eps) is a downward parabola maximized
    at eps0 = beta_L - beta (spectral.range_edges), where it equals the
    lower-range gap (beta - n/2)^2.
    """
    n, beta = params.n, params.beta
    pack = _random_test_pack(params, spec, trials, seed, order=2)  # no t2
    rows = []
    for eps in eps_values:
        eps = float(eps)
        _, _, D = lowfact_coefficients(n, beta, eps)
        worst = float(np.max(_rel_err(pack.gamma2, _split_rhs(pack, n, beta, eps))))
        rows.append({"eps": eps, "rel_err": worst, "D": D})
    return rows
