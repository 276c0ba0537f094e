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

# The rows of the product rule as {name: (order, factors)}: the field rows
# f, grad f, Hess f (distinct entries i <= j) and grad Lap f, and the
# directional rows <grad f, u>, Lap f and (Hess f) u that the identity
# packs pair with them; a row of order q reads P's derivatives up to q, and
# its terms' factors are in the order of its blocks.
_ROWS = {"f": (0, (_B,)), "grad": (1, (_B, _B1)), "hess": (2, (_B, _B2, _B1R, _B1)),
         "gradlap": (3, (_B, _LAPB2, _B1, _B2_B1R, _DLAPB)),
         "gu": (2, (_B, _B1)), "lap": (2, (_B, _B2, _B1R, _B1)), "hu": (2, (_B, _B2, _B1))}
_FIELD_ROWS = ("f", "grad", "hess", "gradlap")  # the rows of P's field rows, in ops' order
# The rows that share one array (k, T, components, J), k that of their row
# of most factors, field rows first: block 0 of their field rows is one
# GEMM per radial power, and the rows of one array differ by at most one
# factor, so at most one block of a row is left unused.
_ROW_ARRAYS = (("f", "grad", "gu"), ("hess", "gradlap", "lap", "hu"))


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


def _dot_u(X: Array, u: Array, out: Array, index=None) -> Array:
    """out = sum_j X[index[j]] u_j (index[j] = j when None) over components
    of X on axis 0 and directions u (n, J) on the last axis, one component
    at a time, in place."""
    index = range(len(u)) if index is None else index
    np.multiply(X[index[0]], u[0], out=out)
    for j in range(1, len(u)):
        out += X[index[j]] * u[j]
    return out


def _product_rule(rows: dict, u: Array, D: int) -> None:
    """Fill in place the terms of the rows of f = P b, the rows of _ROWS up
    to some order, rows[name] of shape (T, factors x D, c, J) for its
    factors and c components: factor s's term is the block of columns
    s D .. s D + D - 1.  Block 0 of each field row holds on entry its
    polynomial field rows of P per radial power on the directions u (n, J),
    as _product_rows writes them; each other term is written into its
    block, products by out=.  The directional rows
    read P's <u, grad P>, Lap P and (Hess P) u, accumulated one component
    at a time into their blocks 0 (|u| = 1):
      <grad f, u> = b <u, grad P> + b' P,
      Lap f = b Lap P + (b'' + (n - 1) b'/r) P + 2 b' <u, grad P>,
      (Hess f) u = b (Hess P) u + b'' P u + b' (grad P + u <u, grad P>)."""
    def term(name, s):  # the block of factor s as (c, T, D, J)
        return rows[name][:, s * D:(s + 1) * D].transpose(2, 0, 1, 3)

    p, un = term("f", 0)[0], u[:, None, None]
    if "grad" in rows:
        dp = term("grad", 0)
        np.multiply(p, un, out=term("grad", 1))
    if "hess" in rows:
        n = len(u)
        iu, ju, pair = _pairs(n)
        hp, uu = term("hess", 0), (u[iu] * u[ju])[:, None, None]
        np.multiply(p, uu, out=term("hess", 1))
        np.multiply(p, (iu == ju)[:, None, None, None] - uu, out=term("hess", 2))
        b1 = term("hess", 3)
        for c, (i, j) in enumerate(zip(iu.tolist(), ju.tolist())):
            np.multiply(dp[i], u[j], out=b1[c])
            b1[c] += dp[j] * u[i]
        gu_p, lap_p, hu_p = term("gu", 0)[0], term("lap", 0)[0], term("hu", 0)
        _dot_u(dp, u, gu_p)
        lap_p[...] = sum(hp[c] for c in np.diag(pair))
        for i in range(n):
            _dot_u(hp, u, hu_p[i], pair[i])
        term("gu", 1)[0] = p
        term("lap", 1)[0] = p
        np.multiply(p, n - 1.0, out=term("lap", 2)[0])
        np.multiply(gu_p, 2.0, out=term("lap", 3)[0])
        term("hu", 1)[...] = term("grad", 1)
        b1 = term("hu", 2)
        np.multiply(gu_p, un, out=b1)
        b1 += dp
    if "gradlap" in rows:
        # grad Lap (P b) = b grad Lap P + (Lap b + 2 b'/r) grad P
        #   + u [b' Lap P + 2 (b'' - b'/r) <u, grad P> + P (Lap b)'] + 2 b' (Hess P) u
        term("gradlap", 1)[...] = dp
        b1 = term("gradlap", 2)
        np.multiply(lap_p, un, out=b1)
        b1 += 2.0 * hu_p
        np.multiply(gu_p, 2.0 * un, out=term("gradlap", 3))
        term("gradlap", 4)[...] = term("grad", 1)


@lru_cache(maxsize=None)
def _row_arrays(n: int, order: int):
    """The arrays of _ROW_ARRAYS that the rows up to `order` fill at n, as
    (factors, components, field components, members): each array has
    factors x D columns and its components side by side, field rows first;
    members are (name, factors, first component, components) per row."""
    sizes = {"f": 1, "grad": n, "hess": n * (n + 1) // 2, "gradlap": n, "gu": 1, "lap": 1, "hu": n}
    arrays = []
    for group in _ROW_ARRAYS:
        members, c = [], 0
        for name in group:
            if _ROWS[name][0] <= order:
                members.append((name, len(_ROWS[name][1]), c, sizes[name]))
                c += sizes[name]
        if members:
            field = sum(size for name, _, _, size in members if name in _FIELD_ROWS)
            arrays.append((max(m[1] for m in members), c, field, tuple(members)))
    return tuple(arrays)


def _product_rows(coefs: Array, powers, u: Array, order: int) -> dict:
    """The rows of _product_rule up to `order` for the coefficient stack
    coefs (M, T), {name: (T, factors x D, c, J)}, on the directions u
    (n, J) from the monomials cut into D radial powers: powers[d] is
    (s, mono), the monomials s of power d (a slice of the basis) at the
    directions, (len(s), J).  The rows are views of the arrays of
    _row_arrays, laid out (k, T, c, J), so each term's block lies apart in
    memory from the blocks 0 it is computed from; each power's field-row
    coefficients of P times its monomials is one GEMM per array, written
    into block 0 of its field rows."""
    n, T = len(u), coefs.shape[1]
    ops = _poly_basis(n, RANDOM_TEST_DEGREE)[3]
    M, D, arrays = ops.shape[1], len(powers), _row_arrays(n, order)
    # field-row coefficients, (T, field rows, M)
    S = (coefs.T @ ops[:sum(a[2] for a in arrays) * M].T).reshape(T, -1, M)
    rows, lo = {}, 0
    for factors, components, field, members in arrays:
        out = np.empty((factors * D, T, components, u.shape[1]))
        for name, k, c, size in members:
            rows[name] = out[:k * D, :, c:c + size].transpose(1, 0, 2, 3)
        Sf = S[:, lo:lo + field]
        for d, (s, mono) in enumerate(powers):
            np.matmul(Sf[:, :, s], mono, out=out[d, :, :field])
        lo += field
    _product_rule(rows, u, D)
    return rows


class RandomTestFields:
    """Fields of make_random_test's functions f = P b on whole rows, up to
    the derivative order 0..3, for coefficient stacks (M, T) of T functions,
    weighted for the angular Grams of the identity packs.

    At the nodes r_i u_j (node i J + j) of radii r (I,) and the unit vectors
    u (J, n) with weights dw (J,), every field row is a sum of radial factors
    times angular arrays (_product_rule), as x^a = r^|a| u^a.  The object
    holds the direction side only, read-only: the monomials (M, J) times
    sqrt(dw), ordered by degree, and the unit directions u (n, J).  So one
    serves every radial rule and order: `radial(r, order)` is the radial
    matrix, `terms(coefs, order)` gives the angular arrays times sqrt(dw)
    of each row of _ROWS up to the order (from order 2 on, <grad f, u>,
    Lap f and (Hess f) u too), and `columns(order)` the columns of the
    radial matrix they pair with.  A Gram of two rows on the directions is
    then one product of their arrays, with no weighted copy, and the
    monomials are multiplied one degree at a time, with no zero block.
    """

    def __init__(self, u: Array, dw: Array):
        degrees, parent, var, _ = _poly_basis(u.shape[1], RANDOM_TEST_DEGREE)
        self._mono = _monomials(u, parent, var) * np.sqrt(dw)
        self._u = np.ascontiguousarray((u / np.sqrt(_row_sq_norms(u))[:, None]).T)
        for a in (self._mono, self._u):
            a.flags.writeable = False
        # radial power d: the monomials of degree d, rows bounds[d] .. bounds[d + 1] - 1
        bounds = np.searchsorted(degrees, np.arange(RANDOM_TEST_DEGREE + 2)).tolist()
        self._powers = tuple((slice(a, b), self._mono[a:b]) for a, b in zip(bounds, bounds[1:]))

    def radial(self, r: Array, order: int) -> Array:
        """The radial matrix (I, factors x powers) at the radii r:
        factor s times r^d in column s (degree + 1) + d."""
        D = np.arange(RANDOM_TEST_DEGREE + 1)
        return (_radial_factors(r, len(self._u), order).T[:, :, None]
                * (np.minimum(r, RANDOM_TEST_RADIUS)[:, None] ** D)[:, None]).reshape(len(r), -1)

    @staticmethod
    @lru_cache(maxsize=None)
    def columns(order: int) -> dict:
        """{row name: the columns of radial(r, order) its terms pair with}
        for the rows of _ROWS up to `order`, read-only: factor s times r^d
        is column s (degree + 1) + d, for the factors of the row's blocks."""
        D = RANDOM_TEST_DEGREE + 1
        columns = {name: (np.array(factors)[:, None] * D + np.arange(D)).ravel()
                   for name, (q, factors) in _ROWS.items() if q <= order}
        for a in columns.values():
            a.flags.writeable = False
        return columns

    def terms(self, coefs: Array, order: int) -> dict:
        """{row name: angular array (T, k, c, J)} of the rows of _ROWS up to
        `order` (_product_rule) for the coefficient stack coefs (M, T), times
        sqrt(dw) on direction j: the row of trial t at the nodes, times
        sqrt(dw), is radial(r, order)[:, columns(order)[name]] @ array[t],
        of shape (I, c, J)."""
        return _product_rows(coefs, self._powers, self._u, order)


def _point_fields(x: Array, coefs: Array, order: int) -> list:
    """[f, grad f, Hess f, grad Lap f][:order + 1] of make_random_test's
    functions at the points x (J, n) for the coefficient stack coefs
    (M, T), each (c, T, J) for its c components: 1, n, n(n+1)/2 (the
    distinct entries i <= j) and n.  The field rows of _product_rows on one
    radial power (all monomials at the points), each term times its factor
    at the point."""
    n = x.shape[1]
    _, parent, var, _ = _poly_basis(n, RANDOM_TEST_DEGREE)
    s = np.sqrt(_row_sq_norms(x))
    # outside the bump every factor is an exact 0; clamp the polynomial
    # argument to the support ball so huge points cannot overflow
    R = RANDOM_TEST_RADIUS
    mono = _monomials(x * (R / np.maximum(s, R))[:, None], parent, var)
    u = np.ascontiguousarray((x / np.where(s > 0, s, 1.0)[:, None]).T)
    radial, rows = _radial_factors(s, n, order), _product_rows(coefs, ((slice(None), mono),), u, order)
    return [sum(radial[f] * rows[name][:, i] for i, f in enumerate(_ROWS[name][1])).transpose(1, 0, 2)
            for name in _FIELD_ROWS[:order + 1]]


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

