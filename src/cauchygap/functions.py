"""Smooth test functions with analytic value/gradient/hessian.

Everything is batched: value maps (N, n) -> (N,), gradient -> (N, n),
hessian -> (N, n, n).  Each constructor writes one evaluator
fields(x, order) that returns that order only (`_from_fields`), and
radial profiles g(|x - c|^2) share one chain rule (`_radial`).  Compactly
supported constructors report their support radius so quadrature can
truncate.  The random tests' fields, grad Lap f included, are also given
on whole radial rows as radial factors times angular arrays, which
quadrature integrates in separable form (`RandomTestFields`).  The
module is numpy algebra; only the line's extremal profile loads
scipy.special, at its first value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Optional, Sequence

import numpy as np

from .measures import MeasureParams, mean_sq_norm

Array = np.ndarray


@dataclass(frozen=True)
class SmoothFunction:
    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array]
    support_radius: Optional[float] = None
    label: str = ""
    # radii |x| where some derivative is only piecewise smooth (bump-profile
    # joints); quadrature rules pin panel edges there
    radial_seams: tuple = ()
    # spherical-harmonic sector when the function lives in a single one:
    # 0 = radial (on the line, even), 1 = linear-in-x (plus a constant);
    # None = generic.  The deficit's cross-check trusts this declaration.
    angular_mode: Optional[int] = None
    # make_random_test's f = P b: the coefficients of P on the basis of
    # _poly_basis.  Where set, the deficit integrates f from them in separable
    # form, not from value and gradient, so a copy that replaces either must
    # clear coefs (coefs=None).
    coefs: Optional[tuple] = None


def _as_points(x: Array) -> Array:
    x = np.asarray(x, dtype=float)
    return x[None, :] if x.ndim == 1 else x


def _row_sq_norms(x: Array) -> Array:
    """|x_k|^2 for each row of x (N, n).  The matmul is the fastest form
    from two columns on; a single column is squared directly, several times
    faster than the matmul there."""
    if x.shape[1] == 1:
        return np.square(x[:, 0])
    return np.square(x) @ np.ones(x.shape[1])


# ----------------------------------------------------------------------
# C^2 radial bump profile: 1 on [0, r_in], 0 from r_out on, quintic blend
# 1 - t^3 (10 - 15 t + 6 t^2) in between (closed-form derivatives).

def _bump_profile(r, r_in, r_out, order):
    """b, b', ..., b^(order) of the profile at radii r (order <= 3).

    b''' jumps at both joints; at r = r_in and r = r_out it takes the value
    of the constant side (0)."""
    h = r_out - r_in
    t = np.clip((r - r_in) / h, 0.0, 1.0)
    out = [1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)]
    if order >= 1:
        inside = (r <= r_in) | (r >= r_out)
        out.append(np.where(inside, 0.0, -30.0 * t ** 2 * (1.0 - t) ** 2 / h))
    if order >= 2:
        out.append(np.where(inside, 0.0,
                            (-60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)) / h ** 2))
    if order >= 3:
        out.append(np.where(inside, 0.0,
                            -60.0 * (1.0 - 6.0 * t + 6.0 * t ** 2) / h ** 3))
    return out


def _from_fields(fields, **kwargs) -> SmoothFunction:
    """The SmoothFunction whose value, gradient and hessian are orders 0, 1
    and 2 of the evaluator fields(x, order) on points x (N, n): f (N,),
    grad f (N, n) or Hess f (N, n, n), that order only.  The keyword
    arguments are SmoothFunction's other fields."""
    def order(k):
        return lambda x: fields(_as_points(x), k)

    return SmoothFunction(order(0), order(1), order(2), **kwargs)


def _radial(profile, center=None):
    """Evaluator of x -> g(|x - center|^2) (center 0 when None), from
    profile(s, k) = g^(k)(s) for k <= 2, by the chain rule: gradient
    2 g' d and Hessian 2 g' I + 4 g'' d d^T, with d = x - center."""
    def fields(x, order):
        d = x if center is None else x - center
        s = _row_sq_norms(d)
        if order == 0:
            return profile(s, 0)
        if order == 1:
            return 2.0 * profile(s, 1)[:, None] * d
        dd = d[:, :, None] * d[:, None, :]
        return ((2.0 * profile(s, 1))[:, None, None] * np.eye(d.shape[1])[None]
                + (4.0 * profile(s, 2))[:, None, None] * dd)

    return fields


def make_linear(v: Array) -> SmoothFunction:
    v = np.asarray(v, dtype=float)
    if not np.any(v != 0):
        raise ValueError("direction vector must be nonzero")
    n = v.size

    def fields(x, order):
        if order == 0:
            return x @ v
        if order == 1:
            return np.broadcast_to(v, x.shape).copy()
        return np.zeros((len(x), n, n))

    return _from_fields(fields, label=f"linear{v.tolist()}", angular_mode=1)


def make_quadratic_centered(params: MeasureParams) -> SmoothFunction:
    """|x|^2 - E|x|^2.  Mean-zero by construction; in L^2 only when beta > n/2 + 2."""
    c = mean_sq_norm(params)  # requires beta > n/2 + 1
    n = params.n
    flag = "" if params.beta > n / 2 + 2 else " (not in L2)"

    # direct orders: the radial chain rule costs this f several times over
    def fields(x, order):
        if order == 0:
            return _row_sq_norms(x) - c
        if order == 1:
            return 2.0 * x
        return np.broadcast_to(2.0 * np.eye(n), (len(x), n, n)).copy()

    return _from_fields(fields, label=f"quadratic_centered(c={c:.6g}){flag}",
                        angular_mode=0)


def make_power_family(epsilon: float) -> SmoothFunction:
    """f(x) = (1 + |x|^2)^epsilon with analytic derivatives (any dimension)."""
    eps = float(epsilon)

    def profile(s, k):  # g^(k)(s) for g(s) = (1 + s)^eps
        return (1.0, eps, eps * (eps - 1.0))[k] * (1.0 + s) ** (eps - k)

    return _from_fields(_radial(profile), label=f"power(eps={eps})",
                        angular_mode=0)


def make_radial_log_cutoff(x0: Array, r_in: float, r_out: float) -> SmoothFunction:
    """(1/2) log |x|^2 times a C^2 bump that is 1 near x0, 0 outside radius r_out.

    The annulus must exclude the origin: 0 < r_in < r_out < |x0|.
    """
    x0 = np.asarray(x0, dtype=float)
    R0 = float(np.linalg.norm(x0))
    if R0 == 0.0:
        raise ValueError("cutoff center must be away from the origin")
    if not (0 < r_in < r_out < R0):
        raise ValueError("need 0 < r_in < r_out < |x0|")

    def half_log(s, k):
        s = np.where(s > 0, s, 1.0)  # outside the bump anyway
        return 0.5 * np.log(s) if k == 0 else (0.5 if k == 1 else -0.5) / s ** k

    def bump(s, k):  # the profile as a function of s = r^2
        r = np.sqrt(s)
        b = _bump_profile(r, r_in, r_out, k)
        if k == 0:
            return b[0]
        r = np.where(r > 0, r, 1.0)  # b' = b'' = 0 near the center
        return b[1] / (2.0 * r) if k == 1 else (b[2] - b[1] / r) / (4.0 * r * r)

    log, cut = _radial(half_log), _radial(bump, x0)

    def fields(x, order):  # Leibniz rule for log * cut
        L = [log(x, k) for k in range(order + 1)]
        B = [cut(x, k) for k in range(order + 1)]
        if order == 0:
            return L[0] * B[0]
        if order == 1:
            return B[0][:, None] * L[1] + L[0][:, None] * B[1]
        cross = L[1][:, :, None] * B[1][:, None, :]
        return (B[0][:, None, None] * L[2] + L[0][:, None, None] * B[2]
                + cross + np.swapaxes(cross, 1, 2))

    return _from_fields(fields, support_radius=R0 + r_out,
                        label=f"radial_log_cutoff(|x0|={R0:.4g})")


def make_lower_extremal_1d(beta: float) -> SmoothFunction:
    """Primitive of (1+x^2)^((2 beta - 3)/4) on the line.

    Solves w f'' + (3/2 - beta) x f' = 0 exactly (w = 1 + x^2); the value
    is x * 2F1(1/2, -p; 3/2; -x^2) with p = (2 beta - 3)/4.
    """
    p = (2.0 * float(beta) - 3.0) / 4.0

    def fields(x, order):
        t = x[:, 0]
        if order == 0:
            from scipy.special import hyp2f1  # only here: keeps it off the import path
            return t * hyp2f1(0.5, -p, 1.5, -t * t)
        if order == 1:
            return ((1.0 + t * t) ** p)[:, None]
        return (2.0 * p * t * (1.0 + t * t) ** (p - 1.0))[:, None, None]

    return _from_fields(fields, label=f"lower_extremal_1d(beta={beta})")


# ----------------------------------------------------------------------
# Random compactly supported polynomials-times-bump.
#
# The family is fixed: polynomials of total degree <= RANDOM_TEST_DEGREE
# times the bump that is 1 up to the first seam and 0 from
# RANDOM_TEST_RADIUS on.  All tests of one n share the monomial basis,
# and differentiation is a linear map on coefficient vectors.
# The field rows of a polynomial P are, in this order: P, the n first
# derivatives, the n(n+1)/2 distinct second derivatives d_i d_j P (i <= j,
# row-major, as numpy.triu_indices) and the n components of grad Lap P.

RANDOM_TEST_DEGREE = 6
RANDOM_TEST_RADIUS = 3.0
RANDOM_TEST_SEAMS = (0.6 * RANDOM_TEST_RADIUS, RANDOM_TEST_RADIUS)


@lru_cache(maxsize=None)
def _poly_basis(n: int, degree: int):
    """The basis, ordered by total degree, as (degrees, parent, var, ops):
    monomial m > 0 is monomial parent[m] < m times x_var[m], and the dense
    stack ops of (M, M) operators maps coefficient vectors to those of their
    field rows, row after row (at n = 3, M = 84 and ops is 1,092 x 84, or
    0.7 MB).  Every array is read-only."""
    exps = [e for d in range(degree + 1) for e in _exponents(n, d)]
    M = len(exps)
    index = {e: m for m, e in enumerate(exps)}
    parent = np.zeros(M, dtype=int)
    var = np.zeros(M, dtype=int)
    D = np.zeros((n, M, M))  # D[i] @ c: coefficients of d_i P
    for m, e in enumerate(exps):
        for i in range(n):
            if e[i]:
                lower = list(e)
                lower[i] -= 1
                parent[m], var[m] = index[tuple(lower)], i
                D[i, parent[m], m] = e[i]
    lap = sum(Di @ Di for Di in D)
    iu, ju = np.triu_indices(n)
    ops = np.vstack([np.eye(M), *D, *(D[j] @ D[i] for i, j in zip(iu, ju)),
                     *(Dk @ lap for Dk in D)])
    degrees = np.sum(exps, axis=1)
    for a in (degrees, parent, var, ops):
        a.flags.writeable = False
    return degrees, parent, var, ops


def _monomials(x: Array, parent: Array, var: Array) -> Array:
    """Table (M, N) of the basis monomials at the points x (N, n), one
    product into its row per monomial (no gathered copies)."""
    xt = np.ascontiguousarray(x.T)
    mono = np.empty((len(parent), x.shape[0]))
    mono[0] = 1.0
    for m, p, i in zip(range(1, len(parent)), parent[1:].tolist(), var[1:].tolist()):
        np.multiply(mono[p], xt[i], out=mono[m])
    return mono


def random_test_coefficients(seeds: Sequence[int], n: int):
    """Coefficient stack (M, len(seeds)) and labels of make_random_test(seed,
    n) for each seed, from the same Philox draws."""
    degrees = _poly_basis(n, RANDOM_TEST_DEGREE)[0]
    scale = (1.0 + degrees) ** 1.5
    coefs = np.empty((len(degrees), len(seeds)))
    for t, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.Philox(key=int(seed)))
        coefs[:, t] = rng.normal(size=len(degrees)) / scale
    labels = [f"random_test(seed={seed}, deg={RANDOM_TEST_DEGREE}, "
              f"R={RANDOM_TEST_RADIUS})" for seed in seeds]
    return coefs, labels


# The product rule for f = P b, written once.  At x = r u (|u| = 1) every
# polynomial field row Q of P is sum_d r^d Q_d(u), so every field row of f
# is a sum of terms phi_s(r) r^d A_s[d](u): a radial factor phi_s of the
# bump profile times an angular array on the directions only.  The factors
# b, b', b'', b'/r, Lap b + 2 b'/r, b'' - b'/r and (Lap b)', with
# Lap b = b'' + (n-1) b'/r; orders 0..3 make the first 1, 2, 4 and 7.
_B, _B1, _B2, _B1R, _LAPB2, _B2_B1R, _DLAPB = range(7)


def _radial_factors(radii: Array, n: int, order: int) -> Array:
    """The radial factors at the radii, shape (k, len(radii)): the first
    k = 1, 2, 4 or 7 at order 0..3."""
    b = _bump_profile(radii, *RANDOM_TEST_SEAMS, order)
    if order >= 2:
        safe = np.where(radii > 0, radii, 1.0)
        b1_r = b[1] / safe  # 0 wherever b is flat
        b2_b1r = b[2] - b1_r
        b[3:] = [b1_r] + ([b[2] + (n + 1) * b1_r, b2_b1r,
                           b[3] + (n - 1) * b2_b1r / safe] if order == 3 else [])
    return np.array(b)


def _product_rule(Q: Array, u: Array, order: int) -> dict:
    """The field rows f, grad f, Hess f (distinct entries i <= j) and
    grad Lap f of f = P b up to `order`, as {name: [(factor, angular
    array), ...]}.  Q (rows, T, D, J) holds the polynomial field rows of P
    (the layout of _poly_basis' ops) per radial power on the directions
    u (n, J); each angular array has the shape (c, T, D, J) of its row of
    c components."""
    n = len(u)
    iu, ju, pair = _pairs(n)
    u = u[:, None, None, :]
    p, dp, hp = Q[0], Q[1:1 + n], Q[1 + n:1 + n + len(iu)]
    rows = {"f": [(_B, p[None])]}
    if order >= 1:
        rows["grad"] = [(_B, dp), (_B1, p * u)]
    if order >= 2:
        uu = u[iu] * u[ju]
        rows["hess"] = [(_B, hp), (_B2, p * uu),
                        (_B1R, p * ((iu == ju)[:, None, None, None] - uu)),
                        (_B1, dp[iu] * u[ju] + dp[ju] * u[iu])]
    if order == 3:
        # grad Lap (P b) = b grad Lap P + (Lap b + 2 b'/r) grad P
        #   + u [b' Lap P + 2 (b'' - b'/r) <u, grad P> + P (Lap b)'] + 2 b' (Hess P) u
        b1_part = np.sum(hp[iu == ju], axis=0) * u + 2.0 * np.sum(hp[pair] * u, axis=1)
        rows["gradlap"] = [(_B, Q[1 + n + len(iu):]), (_LAPB2, dp), (_B1, b1_part),
                           (_B2_B1R, 2.0 * np.sum(dp * u, axis=0) * u), (_DLAPB, p * u)]
    return rows


def _product_rows(coefs: Array, table: Array, u: Array, order: int) -> dict:
    """_product_rule's rows for the coefficient stack coefs (M, T), from the
    monomial table (M, k, J) of the directions u (n, J): the field-row
    coefficients of P against the table give Q (rows, T, k, J)."""
    n = len(u)
    ops, M, T = _poly_basis(n, RANDOM_TEST_DEGREE)[3], len(table), coefs.shape[1]
    nh = n * (n + 1) // 2
    rows = (1, 1 + n, 1 + n + nh, 1 + 2 * n + nh)[order]
    S = (ops[:rows * M] @ coefs).reshape(rows, M, T)  # field-row coefficients
    Q = S.transpose(0, 2, 1).reshape(rows * T, M) @ table.reshape(M, -1)
    return _product_rule(Q.reshape(rows, T, *table.shape[1:]), u, order)


class RandomTestFields:
    """Fields of make_random_test's functions f = P b on whole rows, up to
    the derivative order 0..3, for coefficient stacks (M, T) of T functions.

    At the nodes r_i u_j (node i J + j) of radii r (I,) and the unit vectors
    u (J, n), every field row is a sum of radial factors times angular
    arrays (_product_rule), as x^a = r^|a| u^a.  The object holds the
    direction side only (the monomial table, one block per radial power,
    and u, both read-only), so one serves every radial rule and
    order: `radial(r, order)` is the radial matrix, `terms(coefs, order)`
    gives each row's angular arrays, and `columns(order)` the columns of
    the radial matrix they pair with.
    """

    def __init__(self, u: Array):
        degrees, parent, var, _ = _poly_basis(u.shape[1], RANDOM_TEST_DEGREE)
        # the monomials of degree d in block d of the table (M, powers, J):
        # one GEMM gives the field rows per radial power
        D = np.arange(RANDOM_TEST_DEGREE + 1)
        mono = _monomials(u, parent, var)
        self._table = (degrees[:, None] == D)[:, :, None] * mono[:, None]
        self._u = np.ascontiguousarray((u / np.sqrt(_row_sq_norms(u))[:, None]).T)
        for a in (self._table, self._u):
            a.flags.writeable = False

    def radial(self, r: Array, order: int) -> Array:
        """The radial matrix (I, factors x powers) at the radii r:
        factor s times r^d in column s (degree + 1) + d."""
        D = np.arange(RANDOM_TEST_DEGREE + 1)
        return (_radial_factors(r, len(self._u), order).T[:, :, None]
                * (np.minimum(r, RANDOM_TEST_RADIUS)[:, None] ** D)[:, None]).reshape(len(r), -1)

    @staticmethod
    @lru_cache(maxsize=None)
    def columns(order: int) -> dict:
        """{row name: the columns of radial(r, order) its terms pair with},
        read-only: factor s times r^d is column s (degree + 1) + d.  The
        factors of _product_rule's terms are the same at every n and for
        every coefficient stack, so they are read once, at n = 1 with no
        trials."""
        D = RANDOM_TEST_DEGREE + 1
        rows = _product_rows(np.empty((D, 0)), np.zeros((D, D, 1)), np.ones((1, 1)), order)
        columns = {name: np.concatenate([s * D + np.arange(D) for s, _ in row])
                   for name, row in rows.items()}
        for a in columns.values():
            a.flags.writeable = False
        return columns

    def terms(self, coefs: Array, order: int) -> dict:
        """{row name: angular array (c, T, k, J)} of the rows of
        _product_rule for the coefficient stack coefs (M, T): the row at the
        nodes is radial(r, order)[:, columns(order)[name]] @ array, of shape
        (c, T, I, J)."""
        return {name: np.concatenate([a for _, a in row], axis=2)
                for name, row in _product_rows(coefs, self._table, self._u, order).items()}


def _point_fields(x: Array, coefs: Array, order: int) -> list:
    """[f, grad f, Hess f, grad Lap f][:order + 1] of make_random_test's
    functions at the points x (J, n) for the coefficient stack coefs
    (M, T), each (c, T, J) for its c components: 1, n, n(n+1)/2 (the
    distinct entries i <= j) and n.  Each term of _product_rule times its
    factor at the point, accumulated term by term."""
    n = x.shape[1]
    _, parent, var, _ = _poly_basis(n, RANDOM_TEST_DEGREE)
    s = np.sqrt(_row_sq_norms(x))
    # outside the bump every factor is an exact 0; clamp the polynomial
    # argument to the support ball so huge points cannot overflow
    R = RANDOM_TEST_RADIUS
    table = _monomials(x * (R / np.maximum(s, R))[:, None], parent, var)[:, None]
    u = np.ascontiguousarray((x / np.where(s > 0, s, 1.0)[:, None]).T)
    radial = _radial_factors(s, n, order).T
    return [sum(radial[:, k] * A[:, :, 0] for k, A in row)
            for row in _product_rows(coefs, table, u, order).values()]


@lru_cache(maxsize=None)
def _pairs(n: int):
    """(iu, ju, index) of the distinct entries i <= j of an (n, n) symmetric
    matrix, as numpy.triu_indices, and the (n, n) positions of the entries
    (i, j) in that list."""
    iu, ju = np.triu_indices(n)
    index = np.empty((n, n), dtype=int)
    index[iu, ju] = index[ju, iu] = np.arange(len(iu))
    for a in (iu, ju, index):
        a.flags.writeable = False
    return iu, ju, index


def make_random_test(seed: int, n: int) -> SmoothFunction:
    """Random polynomial (total degree <= RANDOM_TEST_DEGREE) times a radial
    C^2 bump supported in |x| <= RANDOM_TEST_RADIUS."""
    coefs, (label,) = random_test_coefficients([seed], n)

    def fields(x, order):
        f = _point_fields(x, coefs, order)[order][:, 0]
        return f[0] if order == 0 else np.ascontiguousarray(
            f.T if order == 1 else f[_pairs(n)[2]].transpose(2, 0, 1))

    return _from_fields(fields, support_radius=RANDOM_TEST_RADIUS, label=label,
                        radial_seams=RANDOM_TEST_SEAMS, coefs=tuple(coefs[:, 0]))


def _exponents(n: int, total: int):
    """All exponent tuples of n variables summing to `total`."""
    if n == 1:
        yield (total,)
        return
    for bars in combinations_with_replacement(range(n), total):
        e = [0] * n
        for b in bars:
            e[b] += 1
        yield tuple(e)

