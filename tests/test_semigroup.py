import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import linalg as sla
from scipy.linalg import lapack

from cauchygap.functions import (
    SmoothFunction,
    _bump_profile,
    make_linear,
    make_lower_extremal_1d,
    make_power_family,
    make_quadratic_centered,
    make_random_test,
)
from cauchygap.measures import MeasureParams, mean_sq_norm, omega_moment
from cauchygap.quadrature import _var_and_energy, default_nd_spec, integrate_nd
from cauchygap import functions, quadrature, semigroup, spectral
from cauchygap.semigroup import (
    _ROUTE_DISC,
    _ROUTE_FINE,
    DeficitMismatch,
    _flow_integral,
    _mode_profiles,
    _range_lambda,
    _route_deficit,
    _route_start,
    default_horizon,
    deficit,
    deficit_trace,
    variance_representation_check,
)
from cauchygap.spectral import (Discretization, NumericalBreakdown, SymBand,
                                _hat_loads, _hat_projection, closed_form_gap,
                                range_edges)


def test_default_horizon():
    T = default_horizon(0.16, 6.0)
    assert np.isclose(np.exp(-2.0 * 6.0 * T) * 0.16, 1e-8, rtol=1e-10)
    with pytest.raises(ValueError):
        default_horizon(-1.0, 6.0)
    with pytest.raises(ValueError):
        default_horizon(0.1, 0.0)


def test_variance_representation_quadratic():
    # Var(f) = (1/rho) int Gamma - (2/rho) int_0^T q dt + tail, light config;
    # Var(|x|^2 - 1/5) = 4/25 exactly at (n, beta) = (1, 4)
    p = MeasureParams(1, 4.0)
    f = make_quadratic_centered(p)
    T = default_horizon(0.16, 6.0)
    disc = Discretization(m=256, delta=1e-3)
    lhs, rhs, err, tail = variance_representation_check(f, 6.0, T, 1e-3, p, disc)
    assert err <= tail + 1e-5
    assert abs(lhs - 0.16) < 5e-5
    assert abs(rhs - 0.16) < 5e-5
    with pytest.raises(ValueError):
        variance_representation_check(f, 0.0, T, 1e-3, p, disc)
    # a negative or zero step, a negative horizon and non-finite inputs are
    # refused rather than run
    for rho, T_bad, dt in ((6.0, T, -0.1), (6.0, T, 0.0), (6.0, -1.0, 1e-3),
                           (6.0, math.inf, 1e-3), (6.0, T, math.nan),
                           (math.nan, T, 1e-3), (math.inf, T, 1e-3)):
        with pytest.raises(ValueError):
            variance_representation_check(f, rho, T_bad, dt, p, disc)


def test_variance_representation_rho_free():
    # the identity holds for any nonzero rho, not only the range constant
    p = MeasureParams(1, 4.0)
    f = make_quadratic_centered(p)
    disc = Discretization(m=256, delta=1e-3)
    T = default_horizon(0.16, 6.0)
    for rho in (3.0, 17.0):
        _, rhs, err, tail = variance_representation_check(f, rho, T, 1e-3, p, disc)
        assert err <= tail + 2e-5
        assert abs(rhs - 0.16) < 5e-5


def _quadrature_variance(f, p):
    kw = dict(support_radius=f.support_radius, seams=f.radial_seams)
    spec = default_nd_spec(p.n)
    mean = integrate_nd(lambda x: f.value(x), p, spec, **kw)
    return integrate_nd(lambda x: f.value(x) ** 2, p, spec, **kw) - mean ** 2


def test_variance_representation_fifty_seeds():
    # criterion 7's clause at its configuration, on fifty random tests
    p = MeasureParams(1, 2.0)
    disc = Discretization(m=1024, delta=1e-3)
    gap, _ = closed_form_gap(p)
    failed = []
    for s in range(50):
        f = make_random_test(s, 1)
        var = _quadrature_variance(f, p)
        T = default_horizon(var, gap)
        lhs, rhs, err, tail = variance_representation_check(f, 2.0, T, 2e-5,
                                                            p, disc)
        if not (err <= tail + 1e-4 and abs(var - rhs) <= tail + 1e-4):
            failed.append(s)
    assert failed == []


@pytest.mark.parametrize("n, beta", [(2, 3.0), (3, 5.0)])
def test_variance_representation_linear_closed_form(n, beta):
    # Var(<a, x>) = |a|^2 E|x|^2 / n: the ell = 1 profile carries the mean
    # square 1/n of its spherical harmonic
    p = MeasureParams(n, beta)
    a = np.zeros(n)
    a[0], a[-1] = 1.0, -2.0
    lhs, rhs, err, tail = variance_representation_check(
        make_linear(a), 2.0 * (beta - 1.0), 2.0, 1e-3, p,
        Discretization(m=256, delta=1e-3))
    var = 5.0 * mean_sq_norm(p) / n
    assert np.isclose(lhs, var, rtol=1e-6)
    assert np.isclose(rhs, var, rtol=1e-6)
    assert err <= tail + 1e-14


def test_variance_tail_bound_holds_for_every_rho():
    # rhs - lhs is the flow's remainder past T; the tail bound covers it for
    # rho far below and above the gap (e^{-2 gap T} Var did not at rho = 0.2)
    # without being vacuous
    p = MeasureParams(1, 2.0)
    f = make_random_test(7, 1)
    disc = Discretization(m=256, delta=1e-3)
    for rho in (-1.0, 0.2, 2.0, 17.0):
        for T in (0.3, 1.0):
            _, _, err, tail = variance_representation_check(f, rho, T, 1e-3, p, disc)
            assert err <= tail <= 20.0 * err, (rho, T, err, tail)


def test_variance_check_guards_every_solve(monkeypatch):
    # the heat flow's solves carry the inertia guard: with mode 0's first
    # nontrivial closed-form value 10x too high, the shift sits above twelve
    # Galerkin values where the closed form has the constants only
    real = spectral._mode_head

    def skewed(params, ell):
        vals = list(real(params, ell))
        if ell == 0:
            vals[1] *= 10.0
        return vals

    monkeypatch.setattr(spectral, "_mode_head", skewed)
    with pytest.raises(NumericalBreakdown,
                       match=r"ell=0 .* puts 12 Galerkin values below sigma "
                             r"= .*, where the closed-form bottom has 1"):
        variance_representation_check(make_random_test(0, 1), 2.0, 1.0, 1e-3,
                                      MeasureParams(1, 2.0),
                                      Discretization(m=256, delta=1e-3))


def test_variance_check_factors_each_mode_once(monkeypatch):
    # criterion 7's configuration ((1, 2.0), m = 1024, its default horizon):
    # each mode's B is factored once (banded Cholesky, for the projection),
    # and the flow to 2T takes one complex tridiagonal factor per contour
    # node with theta > 0, of A + (z_k / 2T - sigma) B, with the fewest
    # nodes the horizon allows: N = 10 on mode 0 (2 T sigma = 19.0) and
    # N = 12 on mode 1 (16.9), 11 factors in all; no real dgttrf and no
    # eigensolver runs
    problems, factors = [], []
    real_problems, real_cholesky = spectral._mode_problems, sla.cholesky_banded
    real_dgttrf, real_zgttrf = lapack.dgttrf, lapack.zgttrf

    def kept(*args, **kwargs):
        for prob in real_problems(*args, **kwargs):
            problems.append(prob)
            yield prob

    def cholesky(band, *args, **kwargs):
        factors.append(("cholesky", band))
        return real_cholesky(band, *args, **kwargs)

    def dgttrf(dl, d, du, *args, **kwargs):
        factors.append(("dgttrf", d))
        return real_dgttrf(dl, d, du, *args, **kwargs)

    def zgttrf(dl, d, du, *args, **kwargs):
        factors.append(("zgttrf", d))
        return real_zgttrf(dl, d, du, *args, **kwargs)

    def eigensolver(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return refused

    p, f, dt = MeasureParams(1, 2.0), make_random_test(7, 1), 2e-5
    horizon = default_horizon(_quadrature_variance(f, p), closed_form_gap(p)[0])
    T = math.ceil(horizon / dt - 1e-12) * dt  # rounded to whole steps, as the check does
    monkeypatch.setattr(spectral, "_mode_problems", kept)
    monkeypatch.setattr(sla, "cholesky_banded", cholesky)
    monkeypatch.setattr(lapack, "dgttrf", dgttrf)
    monkeypatch.setattr(lapack, "zgttrf", zgttrf)
    for name in ("eigh", "eig_banded"):
        monkeypatch.setattr(sla, name, eigensolver(name))
    variance_representation_check(f, 2.0, horizon, dt, p, Discretization(m=1024, delta=1e-3))
    assert [prob.ell for prob in problems] == [0, 1]
    assert [kind for kind, _ in factors] == ["cholesky"] * 2 + ["zgttrf"] * (5 + 6)
    for (_, band), prob in zip(factors[:2], problems):
        assert band is prob.B.band
    diags = iter(d for _, d in factors[2:])
    for N, prob in zip((10, 12), problems):
        sigma = prob._guarded[0]
        for z in semigroup._talbot(N)[0]:
            np.testing.assert_allclose(next(diags),
                                       prob.A.band[0] + (z / (2.0 * T) - sigma) * prob.B.band[0],
                                       rtol=1e-15)


def test_projected_start_keeps_constants_beyond_R():
    # the last hat's constant extension over [R, inf) enters the projection,
    # so a constant stays constant and has no discrete variance even where
    # mu holds 0.4% of its mass beyond R = tan(pi/2 - 0.2)
    const = SmoothFunction(lambda x: np.full(len(x), 2.0),
                           lambda x: np.zeros_like(x),
                           lambda x: np.zeros((len(x), 1, 1)), label="2")
    p = MeasureParams(1, 2.0)
    lhs, rhs, err, _ = variance_representation_check(
        const, 2.0, 1.0, 1e-3, p, Discretization(m=128, delta=0.2))
    assert abs(lhs) < 1e-20 and abs(rhs) < 1e-20


def _reference_loads(f, p, disc):
    """_hat_loads on Gauss nodes of its own: 12-point Gauss-Legendre on
    every cell in s = asinh r (the grid's s, uniform up to
    asinh tan(pi/2 - delta): these points have no cap R_beta), one column
    per cell, with dr = (1+r^2)^(1/2) ds and the hat values from
    sinh a - sinh b = 2 cosh((a+b)/2) sinh((a-b)/2); and on t = R/r in
    [0, 1]."""
    r = disc.radii(p)
    s = np.linspace(0.0, math.asinh(math.tan(math.pi / 2.0 - disc.delta)), disc.m)
    ds = s[1:] - s[:-1]
    x = spectral._XGL[:, None]
    to_r0, to_r1 = 0.5 * (1.0 + x) * ds, 0.5 * (1.0 - x) * ds
    ss = s[:-1] + to_r0
    rr = np.sinh(ss)

    def span(a, d):
        return 2.0 * np.cosh(a + 0.5 * d) * np.sinh(0.5 * d)

    h = span(s[:-1], ds)
    left, right = span(ss, to_r1) / h, span(s[:-1], to_r0) / h

    def weight(logx, log1p, half=0.0):
        return np.exp((p.n - 1) * logx + (half - p.beta) * log1p)

    ww = spectral._WGL[:, None] * weight(np.log(rr), np.log1p(rr * rr), 0.5)
    t, wt = spectral._gauss_panels(0.0, 1.0)
    wt = wt * (r[-1] / (t * t)) * weight(np.log(r[-1] / t), np.log1p((r[-1] / t) ** 2))
    tails = semigroup._mode_profiles(f, p, r[-1] / t)
    loads = {}
    for ell, prof in semigroup._mode_profiles(f, p, rr.ravel()).items():
        g = ww * prof.reshape(rr.shape)
        b = spectral._node_diag(0.5 * ds * np.einsum("ji,ji->i", g, left),
                                0.5 * ds * np.einsum("ji,ji->i", g, right))
        b[-1] += float(tails[ell] @ wt)
        loads[ell] = b[1:] if ell > 0 else b
    return loads


@pytest.mark.parametrize("f, n, beta, m, delta", [
    (make_random_test(0, 1), 1, 2.0, 1024, 1e-3),     # heat_flow's variance run
    (make_quadratic_centered(MeasureParams(1, 4.0)), 1, 4.0, 128, 0.2),
    (make_linear(np.ones(3)), 3, 3.8, 256, 1e-3),     # mode 1, and a tail beyond R
])
def test_mode_loads_match_their_own_gauss_nodes(f, n, beta, m, delta):
    # the loads read the grid's shared cell rule; built from nodes of their
    # own on a grid the assembly has already served, they are the same bits
    p, disc = MeasureParams(n, beta), Discretization(m=m, delta=delta)
    next(spectral._mode_problems((0,), p, disc))
    got = _hat_loads(lambda r: _mode_profiles(f, p, r), p, disc)
    ref = _reference_loads(f, p, disc)
    assert sorted(got) == sorted(ref)
    for ell in ref:
        np.testing.assert_array_equal(got[ell], ref[ell])


@pytest.mark.parametrize("n, beta", [(2, 1.5), (3, 3.8), (3, 5.0), (1, 1.2), (1, 3.0)])
def test_projected_start_shares_one_cell_pass(monkeypatch, n, beta):
    # both modes come from one pass over the cells (one _cell_integrals
    # call), with the bands _mode_problems builds for each mode alone
    real, calls = spectral._cell_integrals, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    p, disc = MeasureParams(n, beta), Discretization(m=256, delta=1e-3)
    f = make_random_test(7, 1) if n == 1 else make_linear(np.ones(n))
    monkeypatch.setattr(spectral, "_cell_integrals", counted)
    problems, _, _ = _hat_projection(lambda r: _mode_profiles(f, p, r), p, disc)
    assert len(calls) == 1
    monkeypatch.undo()
    assert [q.ell for q in problems] == [0, 1]
    for q in problems:
        alone = next(spectral._mode_problems((q.ell,), p, disc, tail_rays=False))
        np.testing.assert_array_equal(q.A.band, alone.A.band)
        np.testing.assert_array_equal(q.B.band, alone.B.band)


_FLOW_CASES = [(4.0, "quadratic"), (2.0, "bump")]


def _flow_case(beta, shape):
    """(params, f, disc) of a flow case: criterion 7's kind on the line at
    m = 128."""
    p = MeasureParams(1, beta)
    f = make_quadratic_centered(p) if shape == "quadratic" else make_random_test(7, 1)
    return p, f, Discretization(m=128, delta=1e-3)


def _flow_start(beta, shape):
    """Projected start of a flow case, with rho = 2(beta - 1) and the
    default horizon."""
    p, f, disc = _flow_case(beta, shape)
    problems, vs, mass = _hat_projection(lambda r: _mode_profiles(f, p, r), p, disc)
    var = sum(v @ (q.B @ v) for q, v in zip(problems, vs)) / mass
    return problems, vs, 2.0 * (beta - 1.0), default_horizon(var, closed_form_gap(p)[0])


@pytest.mark.parametrize("beta, shape", _FLOW_CASES)
def test_flow_integral_matches_dense_spectrum(beta, shape):
    # the full generalized spectrum integrates q term by term:
    # sum_k a_k (1 - e^{-2 lam_k T}) / (2 lam_k), a_k = (lam_k^2 - rho lam_k) c_k^2
    problems, vs, rho, T = _flow_start(beta, shape)
    totals = []
    for prob, v in zip(problems, vs):
        lam, phi = sla.eigh(prob.A.toarray(), prob.B.toarray())
        c = phi.T @ (prob.B @ v)

        def dense(t):
            # a_k / lam_k = (lam_k - rho) c_k^2 stays finite at the constant's lam ~ 0
            return 0.5 * float(np.sum((lam - rho) * c * c * -np.expm1(-2.0 * lam * t)))

        got, *_ = _flow_integral(prob, v, rho, T)
        assert abs(got - dense(T)) <= 1e-10 * abs(dense(T))
        totals.append(dense(T))
        # at t = 0.25 the endpoint terms are ~1e-3, and every mode counts
        got, *_ = _flow_integral(prob, v, rho, 0.25)
        assert abs(got - dense(0.25)) <= 1e-12 * abs(dense(0.25))
    assert sum(totals) > 0.1


def test_talbot_rule_bounds_the_exponential_on_the_negative_axis():
    # each tabulated rational r_N(x) = 2 Re sum c_k / (z_k - x) against e^x
    # on x <= 0, from 0 out to -1e14 (past any -t lam of the flows): the
    # measured worst lies at or under its eps_N and above eps_N / 3, so the
    # table cannot drift either way (N = 0 is the zero rational, off by
    # e^0 = 1); eps_24 = 2.3e-14 is the flow's bound on every N it takes
    x = -np.concatenate([[0.0], np.logspace(-10, 14, 48001)])
    assert sorted(semigroup._TALBOT_EPS) == [0, *range(6, 26, 2)]
    for N, eps in semigroup._TALBOT_EPS.items():
        z, c = semigroup._talbot(N)
        r = 2.0 * np.real(np.sum(c[:, None] / (z[:, None] - x), axis=0))
        worst = np.max(np.abs(r - np.exp(x)))
        assert eps / 3.0 < worst <= eps, (N, worst, eps)
    assert semigroup._TALBOT_EPS[semigroup._TALBOT_N] <= 2.3e-14


def test_flow_keeps_mode_zero_constants_exactly():
    # mode 0's constants sit at lam = 0, under the guard's sigma, where the
    # shifted rational is not e^x: _flow_at splits them off exactly and
    # drops them, so a projected start plus 0.3 flows to its own flow,
    # within rounding, at criterion 7's horizon on its N = 10 and at
    # T = 0.05 on 24 nodes; flowed under the shift, the constant would be
    # off by about 0.3 at the horizon and 6e-12 at T = 0.05
    p, f = MeasureParams(1, 2.0), make_random_test(7, 1)
    (prob, _), (v, _), _ = _hat_projection(lambda r: _mode_profiles(f, p, r), p,
                                           Discretization(m=1024, delta=1e-3))
    horizon = default_horizon(_quadrature_variance(f, p), closed_form_gap(p)[0])
    for T, N in ((0.05, 24), (horizon, 10)):
        base = semigroup._flow_at(prob, v, 2.0 * T, N)
        shifted = semigroup._flow_at(prob, v + 0.3, 2.0 * T, N)
        np.testing.assert_allclose(shifted, base, rtol=0.0, atol=1e-14)


def test_flow_end_term_matches_the_dense_sum_over_every_mode():
    # criterion 7's pencils ((1, 2.0), m = 1024, both modes): the telescoped
    # end term ((A - rho B) v)' v(2T) from the contour, on the nodes
    # _flow_integral takes (read back from its integral), against the dense
    # all-mode sum sum_k (lam_k - rho) c_k^2 e^{-2 lam_k T}, at T = 0.05,
    # 0.5 and criterion 7's horizon (4.30), within 3e-13 of
    # v'Av + |rho| v'Bv (measured 1.3e-13 at T = 0.05 on mode 1: the
    # rounding of the solves, at every N from 20 to 28)
    p, rho = MeasureParams(1, 2.0), 2.0
    f = make_random_test(7, 1)
    problems, vs, _ = _hat_projection(lambda r: _mode_profiles(f, p, r), p,
                                      Discretization(m=1024, delta=1e-3))
    horizon = default_horizon(_quadrature_variance(f, p), closed_form_gap(p)[0])
    assert 4.2 < horizon < 4.4
    for prob, v in zip(problems, vs):
        lam, phi = sla.eigh(prob.A.toarray(), prob.B.toarray())
        c = phi.T @ (prob.B @ v)
        Av, Bv = prob.A @ v, prob.B @ v
        scale = v @ Av + abs(rho) * (v @ Bv)
        for T in (0.05, 0.5, horizon):
            dense = np.sum((lam - rho) * c * c * np.exp(-2.0 * lam * T))
            integral, norm, energy = _flow_integral(prob, v, rho, T)
            got = energy - rho * norm - 2.0 * integral
            assert abs(got - dense) <= 3e-13 * scale, (prob.ell, T, got, dense)


@pytest.mark.parametrize("beta, shape", _FLOW_CASES)
def test_variance_check_sees_the_flow_end_term(beta, shape):
    # through the public call: rhs - lhs is the telescoped end term
    # (1/rho) sum_modes sum_k (lam_k - rho) c_k^2 e^{-2 lam_k T} / mass of
    # the dense spectrum, within 1e-14 of (v'Av + |rho| v'Bv) / (|rho| mass)
    # summed over the modes (measured 2.7e-15 at most), at T = 0.05 and 0.5
    # on _flow_start's pencils; dt = T keeps T a whole step
    p, f, disc = _flow_case(beta, shape)
    problems, vs, mass = _hat_projection(lambda r: _mode_profiles(f, p, r), p, disc)
    rho = 2.0 * (beta - 1.0)
    spectra = []
    for prob, v in zip(problems, vs):
        lam, phi = sla.eigh(prob.A.toarray(), prob.B.toarray())
        spectra.append((lam, phi.T @ (prob.B @ v)))
    scale = sum(v @ (q.A @ v) + abs(rho) * (v @ (q.B @ v))
                for q, v in zip(problems, vs)) / (abs(rho) * mass)
    for T in (0.05, 0.5):
        lhs, rhs, _, _ = variance_representation_check(f, rho, T, T, p, disc)
        dense = sum(np.sum((lam - rho) * c * c * np.exp(-2.0 * lam * T))
                    for lam, c in spectra) / (rho * mass)
        assert abs((rhs - lhs) - dense) <= 1e-14 * scale, (T, rhs - lhs, dense)


def test_flow_breakdown_names_the_mode(monkeypatch):
    # a complex factor that reads singular (info > 0), or one whose entries
    # are not finite, is a NumericalBreakdown naming the mode, not a value
    real = lapack.zgttrf

    def singular(*args, **kwargs):
        *lu, info = real(*args, **kwargs)
        return (*lu, 1)

    def nonfinite(dl, d, du, *args, **kwargs):
        return real(dl, np.full_like(d, np.nan), du, *args, **kwargs)

    p = MeasureParams(1, 4.0)
    f = make_quadratic_centered(p)
    for factor, text in ((singular, "is singular"), (nonfinite, "is not finite")):
        monkeypatch.setattr(lapack, "zgttrf", factor)
        with pytest.raises(NumericalBreakdown, match=r"mode ell=0 .*: .*" + text):
            variance_representation_check(f, 6.0, 1.0, 1e-3, p,
                                          Discretization(m=128, delta=1e-3))


@pytest.mark.parametrize("beta, shape", _FLOW_CASES)
def test_flow_integral_is_the_cn_trapezoid_limit(beta, shape):
    # a Crank-Nicolson trajectory with a trapezoid over q converges to the
    # closed form at second order: the error drops 4x per halving of dt
    problems, vs, rho, T = _flow_start(beta, shape)
    T = math.ceil(T / 8e-3) * 8e-3  # whole steps at every dt below
    exact = sum(_flow_integral(q, v, rho, T)[0] for q, v in zip(problems, vs))
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        total = 0.0
        for prob, v in zip(problems, vs):
            # one CN step: (B + dt/2 A) v+ = (B - dt/2 A) v-
            A, B = prob.A.band, prob.B.band
            plus = sla.cholesky_banded(B + 0.5 * dt * A, lower=True)
            minus = SymBand(B - 0.5 * dt * A)
            bfac = sla.cho_factor(prob.B.toarray())

            def q(u):
                w = prob.A @ u
                return w @ sla.cho_solve(bfac, w) - rho * (u @ w)

            qprev = q(v)
            for _ in range(round(T / dt)):
                v = sla.cho_solve_banded((plus, True), minus @ v)
                qnext = q(v)
                total += 0.5 * dt * (qprev + qnext)
                qprev = qnext
        errs.append(abs(total - exact))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(np.abs(ratios - 4.0) < 0.05), (errs, ratios)


def test_semigroup_factorizations_break_down_numerically(monkeypatch):
    # a failed factorization is a NumericalBreakdown naming the mode, not a
    # ValueError (numpy's LinAlgError is one)
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(sla, "cholesky_banded", failing)
    f = make_quadratic_centered(MeasureParams(1, 4.0))
    with pytest.raises(NumericalBreakdown, match="banded Cholesky of B failed"):
        variance_representation_check(f, 6.0, 1.0, 1e-3, MeasureParams(1, 4.0),
                                      Discretization(m=128, delta=1e-3))


def _three_call_var_and_energy(f, p):
    # one integrate_nd call per integral, the formula _var_and_energy replaced
    spec = default_nd_spec(p.n)
    kw = dict(support_radius=f.support_radius, seams=f.radial_seams)
    mean = integrate_nd(lambda x: f.value(x), p, spec, **kw)
    sq = integrate_nd(lambda x: f.value(x) ** 2, p, spec, **kw)

    def gamma_field(x):
        g = f.gradient(x)
        return (1.0 + np.sum(x * x, axis=-1)) * np.sum(g * g, axis=-1)

    return sq - mean ** 2, integrate_nd(gamma_field, p, spec, **kw)


@pytest.mark.parametrize("make, n, beta", [
    (lambda: make_linear(np.array([1.0, 0.0, 0.0])), 3, 4.0),
    (lambda: make_quadratic_centered(MeasureParams(3, 3.8)), 3, 3.8),
    (lambda: make_power_family(0.15), 2, 1.5),
    (lambda: make_random_test(0, 2), 2, 1.5),
    (lambda: make_random_test(0, 1), 1, 1.2),
    (lambda: make_linear(np.array([0.6, -0.8])), 2, 3.0),
    (lambda: make_linear(np.array([0.3, 1.0, -2.0])), 3, 3.0),
    (lambda: make_quadratic_centered(MeasureParams(2, 4.0)), 2, 4.0),
    (lambda: make_power_family(0.3), 3, 2.2),
    (lambda: make_random_test(0, 3), 3, 2.0),
])
def test_var_and_energy_matches_three_call_formula(make, n, beta):
    # the one-pass stacked integral gives the heat_flow deficit inputs'
    # variance and energy of three separate passes on the full sphere rule,
    # also where it runs on e_1 (radial f) or on the +-e_i rule (linear f)
    f, p = make(), MeasureParams(n, beta)
    for got, ref in zip(_var_and_energy(f, p), _three_call_var_and_energy(f, p)):
        assert abs(got - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("make, n, beta", [
    (lambda: make_linear(np.array([1.0, 0.0, 0.0])), 3, 4.0),
    (lambda: make_quadratic_centered(MeasureParams(2, 4.0)), 2, 4.0),
    (lambda: make_power_family(0.3), 3, 2.2),
    (lambda: make_random_test(0, 1), 1, 1.2),
    (lambda: make_random_test(0, 2), 2, 1.5),
    (lambda: make_random_test(0, 3), 3, 2.0),
])
def test_var_and_energy_directions_per_radius(monkeypatch, make, n, beta):
    # a linear f's integrand sees the 2n directions +-e_i at every radius of
    # the rule, a radial f's the one direction e_1; a random bump's deficit
    # is integrated from its coefficients (f.coefs), so it streams no node
    # block and calls neither value nor gradient, and gives the same values
    # without them
    f, p = make(), MeasureParams(n, beta)
    spec = default_nd_spec(n)
    r, _ = quadrature._radial_rule(p, spec, f.support_radius, f.radial_seams)
    if f.coefs is not None:
        expected = _var_and_energy(f, p), deficit(f, p, "lower")

        def refuse(*args, **kwargs):
            raise AssertionError("pointwise evaluation")

        monkeypatch.setattr(quadrature, "_node_blocks", refuse)
        blind = dataclasses.replace(f, value=refuse, gradient=refuse)
        assert (_var_and_energy(blind, p), deficit(blind, p, "lower")) == expected
        return
    seen = []

    def value(x):
        seen.append(x)
        return f.value(x)

    _var_and_energy(dataclasses.replace(f, value=value), p)
    x = np.concatenate(seen)
    radii = np.sqrt(np.sum(x * x, axis=1))
    dirs = np.unique(np.round(x / radii[:, None], 12), axis=0)
    assert np.all(np.isin(dirs, (-1.0, 0.0, 1.0)))
    J = 1 if f.angular_mode == 0 else 2 * n
    assert len(dirs) == J and len(x) == J * len(r)
    if f.angular_mode == 0:
        np.testing.assert_array_equal(dirs, np.eye(1, n))


def test_deficit_memory_does_not_grow_with_the_rule():
    # the (3, 4) rule has 598,416 nodes; one (K, 3) node array alone is 14 MB.
    # Without its declared sector the linear f runs on that full sphere rule.
    p = MeasureParams(3, 4.0)
    f = dataclasses.replace(make_linear(np.array([1.0, 0.0, 0.0])),
                            angular_mode=None)
    deficit(f, p, "upper")  # fill the rule caches first
    full = 8 * 3 * sum(len(w) for _, w, *_ in quadrature._node_blocks(
        p, default_nd_spec(3)))
    assert full > 14e6
    tracemalloc.start()
    try:
        deficit(f, p, "upper")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full / 4


def test_deficit_upper_linear_zero():
    # linear functions saturate the upper range: deficit = 0
    p = MeasureParams(3, 4.0)
    f = make_linear(np.array([1.0, 0.0, 0.0]))
    d = deficit(f, p, "upper")
    assert abs(d) < 1e-10


@pytest.mark.parametrize("n, beta", [(4, 4.3), (5, 5.6)])
def test_deficit_mid_linear_closed_form_past_three_dimensions(n, beta):
    # lambda_mid |a|^2 msq / n - |a|^2 (1 + msq): -7/13 at (4, 4.3)
    p = MeasureParams(n, beta)
    a = np.linspace(1.0, -0.5, n)
    a2, msq = float(a @ a), mean_sq_norm(p)
    exact = _range_lambda(p, "mid") * a2 * msq / n - a2 * (1.0 + msq)
    if (n, beta) == (4, 4.3):
        assert np.isclose(exact / a2, -7.0 / 13.0, rtol=1e-14)
    assert abs(deficit(make_linear(a), p, "mid") - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("n", [4, 5])
def test_deficit_extremals_vanish_past_three_dimensions(n):
    # the upper-range linear and the beta = n + 1 quadratic extremals; the
    # random bumps keep the n <= 3 sphere rule
    cases = [(make_linear(np.linspace(1.0, 2.0, n)), MeasureParams(n, n + 2.0), "upper"),
             (make_quadratic_centered(MeasureParams(n, n + 1.0)),
              MeasureParams(n, n + 1.0), "mid")]
    for f, p, tag in cases:
        var, _ = _var_and_energy(f, p)
        scale = max(1.0, _range_lambda(p, tag) * var)
        assert abs(deficit(f, p, tag)) <= 1e-10 * scale
    with pytest.raises(ValueError, match="n <= 3"):
        deficit(make_random_test(0, n), MeasureParams(n, n / 2.0 + 0.5), "lower")


def test_deficit_mid_quadratic_zero():
    p = MeasureParams(3, 3.8)
    f = make_quadratic_centered(p)
    d = deficit(f, p, "mid")
    assert abs(d) < 1e-9


def test_deficit_mid_linear_closed_form():
    # the linear function is not extremal in the mid range; its deficit is
    # (lambda_mid - lambda_upper) Var(x_1) = (5.2 - 5.6)/2.6 exactly
    p = MeasureParams(3, 3.8)
    f = make_linear(np.array([1.0, 0.0, 0.0]))
    d = deficit(f, p, "mid")
    assert np.isclose(d, -0.4 / 2.6, rtol=1e-9)


def test_deficit_lower_strictly_negative():
    p = MeasureParams(2, 1.5)
    for seed in (0, 1):
        f = make_random_test(seed, 2)
        d = deficit(f, p, "lower")
        assert d < -1e-6


@pytest.mark.parametrize("n, beta", [(1, 1.2), (2, 1.5), (3, 2.0)])
def test_deficit_tables_are_built_on_the_directions(monkeypatch, n, beta):
    # a random bump's deficit is integrated in separable form on the spec's
    # sphere rule: one monomial table, with one column per sphere direction,
    # and the bump profile at most once per radius of the radial rule, so a
    # node-sized table or profile breaks both bounds; the tables are cached
    # per rule and per direction set, so the caches start empty here
    quadrature._pack_tables_cached.cache_clear()
    quadrature._direction_fields.cache_clear()
    p, spec = MeasureParams(n, beta), default_nd_spec(n)
    f = make_random_test(0, n)
    directions = len(quadrature._sphere_directions(n, spec.angular_nodes)[1])
    radii = len(quadrature._radial_rule(p, spec, f.support_radius, f.radial_seams)[0])
    assert min(directions, radii) > 1
    tables, profiles = [], []
    table, profile = functions._monomials, functions._bump_profile

    def table_spy(x, *basis):
        tables.append(len(x))
        return table(x, *basis)

    def profile_spy(r, *args):
        profiles.append(len(r))
        return profile(r, *args)

    monkeypatch.setattr(functions, "_monomials", table_spy)
    monkeypatch.setattr(functions, "_bump_profile", profile_spy)
    deficit(f, p, "lower")
    assert tables == [directions]
    assert profiles and max(profiles) <= radii


@pytest.mark.parametrize("seed", [0, 3])
def test_deficit_refuses_a_1d_random_bump_before_its_loads(monkeypatch, seed):
    # the gate reads the declared sector: a 1-D random bump declares none
    # (it has an odd part), so no mode load is built for it and the deficit
    # is exactly the quadrature value
    p = MeasureParams(1, 1.2)
    f = make_random_test(seed, 1)
    assert f.angular_mode is None
    loads = []
    monkeypatch.setattr(semigroup, "_hat_projection", lambda *args: loads.append(args))
    rho = _range_lambda(p, "lower")
    var, energy = _var_and_energy(f, p)
    assert _route_deficit(f, p, rho) is None
    assert deficit(f, p, "lower") == rho * var - energy
    with pytest.raises(ValueError, match="not representable"):
        deficit_trace(f, p, "lower", [0.0, 1.0])
    assert loads == []


def test_deficit_power_family_closed_moments():
    # growing profiles are quadrature-only; the closed moment form is exact
    p = MeasureParams(2, 1.5)
    eps = 0.15
    f = make_power_family(eps)
    d = deficit(f, p, "lower")
    M = lambda g: omega_moment(-g, p)
    var = M(2 * eps) - M(eps) ** 2
    energy = 4.0 * eps**2 * (M(2 * eps) - M(2 * eps - 1))
    assert np.isclose(d, 0.25 * var - energy, rtol=1e-8)
    assert d < -1e-3


def _even_1d_bump(seed=0):
    # symmetrize a compactly supported 1-d test function; pure even profiles
    # are exactly the shapes the ell = 0 cross-check can represent
    from cauchygap.functions import SmoothFunction

    base = make_random_test(seed, 1)
    return SmoothFunction(
        lambda x: 0.5 * (base.value(x) + base.value(-x)),
        lambda x: 0.5 * (base.gradient(x) - base.gradient(-x)),
        lambda x: 0.5 * (base.hessian(x) + base.hessian(-x)),
        base.support_radius, "even bump", base.radial_seams, 0)


def test_deficit_route_consistency_guard():
    # the cross-check is honest: the even bump's quadrature value returns at
    # the default basis, and the same f with a mis-scaled gradient (energy
    # 0.2% high, values unchanged) trips the guard
    p = MeasureParams(1, 1.2)
    f = _even_1d_bump(0)
    d = deficit(f, p, "lower")
    assert d < -1.0
    assert np.isclose(d, -47.514289238997755, rtol=1e-6)  # frozen quadrature value
    skewed = dataclasses.replace(f, gradient=lambda x: 1.001 * f.gradient(x))
    with pytest.raises(DeficitMismatch):
        deficit(skewed, p, "lower")


def test_deficit_even_bump_upper_returns_quadrature():
    # the even bump's upper-range value passes the cross-check at the
    # default basis
    d = deficit(_even_1d_bump(0), MeasureParams(1, 2.0), "upper")
    assert np.isclose(d, -16.51371388386978, rtol=1e-6)  # frozen quadrature value


def test_deficit_route_starts_from_the_projection():
    # the route's flow starts from the L^2(mu) projection the variance check
    # starts from, where expanding the nodal values of this bump was 1.17e-3
    # off and tripped the guard
    d = deficit(_even_1d_bump(3), MeasureParams(1, 1.2), "lower")
    assert d < 0.0
    assert np.isclose(d, -4.646979294260187, rtol=1e-6)  # frozen quadrature value


def _radial_bump(n, r_in=1.0, r_out=2.5):
    # g(|x|) = (1 + 0.7 r^2 - 0.4 r^4) b(r), b the C^2 bump profile: compact
    # and radial, so the cross-check takes it at every n
    def parts(x):
        s = np.sum(x * x, axis=1)
        r = np.sqrt(s)
        b, db = _bump_profile(r, r_in, r_out, order=1)
        return s, np.where(r > 0, r, 1.0), b, db, 1.0 + 0.7 * s - 0.4 * s * s

    def value(x):
        *_, b, _, g = parts(x)
        return g * b

    def gradient(x):
        s, r, b, db, g = parts(x)
        return (2.0 * (0.7 - 0.8 * s) * b + g * db / r)[:, None] * x

    def hessian(x):
        raise NotImplementedError

    return SmoothFunction(value, gradient, hessian, r_out, "radial bump",
                          (r_in, r_out), 0)


@pytest.mark.parametrize("f, n", [
    (make_random_test(3, 1), 1),     # the even/odd split: two evaluations
    (_radial_bump(2), 2),
    (_radial_bump(3), 3),
])
def test_mode_profiles_of_a_compact_f_read_only_its_support(f, n):
    # f is evaluated only at the radii under its support radius (every one
    # of them), and the profiles and loads are those of the same f with no
    # declared support, evaluated at every radius: beyond the support exact
    # zeros; a call with every radius past the support evaluates f at no
    # point
    p, disc = MeasureParams(n, 2.0), Discretization(m=256, delta=1e-3)
    seen = []

    def value(x):
        seen.append(np.sqrt(np.sum(x * x, axis=1)))
        return f.value(x)

    spy = dataclasses.replace(f, value=value, coefs=None)
    R = f.support_radius
    r = np.concatenate((np.sinh(np.linspace(0.0, 8.0, 801)), [R, 2.0 * R]))
    got = _mode_profiles(spy, p, r)
    inside = r[r < R]
    assert all(np.array_equal(radii, inside) for radii in seen) and seen
    everywhere = dataclasses.replace(f, support_radius=None)
    full = _mode_profiles(everywhere, p, r)
    assert sorted(got) == sorted(full)
    for ell in full:
        np.testing.assert_array_equal(got[ell], full[ell])
        assert not np.any(got[ell][r >= R])
    seen.clear()
    assert not np.any(_mode_profiles(spy, p, 1e3 / np.linspace(0.1, 1.0, 12))[0])
    assert sum(len(radii) for radii in seen) == 0
    loads = _hat_loads(lambda rad: _mode_profiles(spy, p, rad), p, disc)
    ref = _hat_loads(lambda rad: _mode_profiles(everywhere, p, rad), p, disc)
    for ell in ref:
        assert loads[ell].tobytes() == ref[ell].tobytes(), ell


_ROUTE_CASES = (
    [pytest.param(_even_1d_bump(s), MeasureParams(1, beta), tag,
                  id=f"even{s}-1-{beta}-{tag}")
     for beta, tag in ((1.2, "lower"), (1.5, "lower"), (2.0, "upper"), (4.0, "upper"))
     for s in range(8)]
    + [pytest.param(_radial_bump(n), MeasureParams(n, beta), tag,
                    id=f"radial-{n}-{beta}-{tag}")
       for n, windows in ((2, ((1.5, "lower"), (2.5, "mid"), (4.0, "upper"))),
                          (3, ((2.0, "lower"), (3.5, "mid"), (5.0, "upper"))),
                          (5, ((3.0, "lower"), (5.0, "mid"), (7.0, "upper"))))
       for beta, tag in windows])


@pytest.mark.parametrize("f, p, tag", _ROUTE_CASES)
def test_route_deficit_matches_quadrature(f, p, tag):
    # rho N_0 - E_0 of the projection converges to the quadrature deficit at
    # second order (error ratio 4 per halving of the grid), and Richardson's
    # (4 d_2m - d_m) / 3 lands within 1e-5
    rho = _range_lambda(p, tag)
    var, energy = _var_and_energy(f, p)
    quad = rho * var - energy
    d = []
    for disc in (_ROUTE_DISC, _ROUTE_FINE):
        prob, v, mass = _route_start(f, p, disc)
        d.append((rho * (v @ (prob.B @ v)) - v @ (prob.A @ v)) / mass)
    assert abs((d[0] - quad) / (d[1] - quad) - 4.0) <= 0.1
    assert abs(_route_deficit(f, p, rho) - quad) <= 1e-5 * abs(quad)
    assert deficit(f, p, tag) == quad


def _linear_route_reference(n, beta, tag, a_norm):
    # the eigen-triple's amplitude algebra the one-mode value replaced: the
    # mode 2(beta - 1) with integrand amp e^{-2 lam t}, time integral -amp/lam
    lam = 2.0 * (beta - 1.0)
    msq = mean_sq_norm(MeasureParams(n, beta))
    if tag == "upper":
        amp = 0.0
    elif tag == "mid":
        amp = 4.0 * (beta - 1.0) * (n + 1.0 - beta) * a_norm ** 2 * msq / n
    else:
        e0 = n / 2.0 + 2.0 - beta
        c0 = e0 * (beta + n / 2.0)
        btil = ((n - 2.0) * (4.0 * (beta - 1.0) ** 2
                             - 4.0 * (n - 2.0) * (beta - 1.0)
                             + (n + 2.0) ** 2) / (8.0 * (n - 1.0)))
        s2 = a_norm ** 2 * msq / n
        mm = e0 * e0 * 0.5 * (a_norm ** 2 * msq + s2)
        tt = e0 * e0 * s2
        amp = ((n / (n - 1.0)) * mm - tt / (n - 1.0)
               + btil * (n - 1.0) * s2 + c0 * a_norm ** 2)
    return -amp / lam


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_route_linear_matches_the_amplitude_algebra(n):
    # <a, x> is in L^2 from beta > n/2 + 1 on: the lower window's top half,
    # the whole mid window and the upper range
    a = np.linspace(1.0, -0.5, n)
    f = make_linear(a)
    windows = {"lower": np.linspace(n / 2.0 + 1.0, n / 2.0 + 2.0, 6)[1:],
               "mid": np.linspace(n / 2.0 + 1.0, n + 1.0, 6)[1:],
               "upper": np.linspace(n + 1.0, n + 6.0, 6)}
    for tag, betas in windows.items():
        for beta in betas:
            p = MeasureParams(n, float(beta))
            got = _route_deficit(f, p, _range_lambda(p, tag))
            ref = _linear_route_reference(n, float(beta), tag, float(np.linalg.norm(a)))
            assert abs(got - ref) <= 1e-13 * max(abs(ref), 1e-300), (tag, beta)


def test_deficit_linear_on_the_line():
    # the linear gate holds on every n: x is the upper-range extremal on the
    # line too, and in the lower range it is not in L^2, so the route refuses
    f = make_linear(np.array([1.0]))
    assert abs(deficit(f, MeasureParams(1, 2.0), "upper")) < 1e-12
    with pytest.raises(ValueError, match="second moment infinite"):
        deficit(f, MeasureParams(1, 1.2), "lower")


def test_deficit_trace_gate_refuses_unsupported_profiles():
    # profiles without compact support are quadrature-only in deficit, and
    # the trace takes the same gate: no integrand whose time integral
    # disagrees with the deficit
    t = [0.0, 1.0]
    with pytest.raises(ValueError, match="not representable"):
        deficit_trace(make_power_family(0.15), MeasureParams(2, 1.5), "lower", t)
    p = MeasureParams(3, 3.8)
    with pytest.raises(ValueError, match="not representable"):
        deficit_trace(make_quadratic_centered(p), p, "mid", t)


def test_deficit_window_validation():
    with pytest.raises(ValueError):
        deficit(make_linear(np.array([1.0])), MeasureParams(1, 2.0), "mid")
    with pytest.raises(ValueError):
        deficit(make_linear(np.array([1.0, 0.0])), MeasureParams(2, 6.0), "lower")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_range_lambda_window_edges(n):
    # the deficit windows, written out here independently of spectral's
    # table: lower (n/2, b_L], mid (n/2 + 1, b_U] for n >= 2 (wider than the
    # gap's mid range), upper [b_U, inf); closed edges accepted, 1e-9 past
    # an edge refused
    b_l, b_u = (1.5, 1.5) if n == 1 else (n / 2.0 + 2.0, n + 1.0)
    gap = {"lower": lambda b: (b - n / 2.0) ** 2,
           "mid": lambda b: 4.0 * (b - n / 2.0 - 1.0),
           "upper": lambda b: 2.0 * (b - 1.0)}
    inside = {"lower": [b_l], "upper": [b_u]}
    outside = {"lower": [b_l + 1e-9], "upper": [b_u - 1e-9]}
    if n == 1:
        outside["mid"] = [1.2, b_l, 2.5]
    else:
        inside["mid"] = [n / 2.0 + 1.0 + 1e-9, b_l, b_u]
        outside["mid"] = [n / 2.0 + 1.0, b_u + 1e-9]
    for tag, betas in inside.items():
        for b in betas:
            assert _range_lambda(MeasureParams(n, b), tag) == gap[tag](b)
    for tag, betas in outside.items():
        for b in betas:
            with pytest.raises(ValueError,
                               match=f"outside the {tag} window for n = {n}$"):
                _range_lambda(MeasureParams(n, b), tag)
    with pytest.raises(ValueError, match="unknown range tag"):
        _range_lambda(MeasureParams(n, b_u), "traceless")


def test_deficit_trace_upper_linear():
    p = MeasureParams(3, 4.0)
    f = make_linear(np.array([1.0, 0.0, 0.0]))
    rows = deficit_trace(f, p, "upper", [0.0, 0.25, 1.0])
    assert rows.shape == (3, 2)
    assert np.allclose(rows[:, 0], [0.0, 0.25, 1.0])
    assert np.max(np.abs(rows[:, 1])) < 1e-6


def test_deficit_trace_mid_linear_closed_form():
    # f = x_1 is the eigenmode 2(beta - 1) = 5.6: the integrand is its
    # amplitude (0.4/2.6) * 5.6 decaying at twice the rate, and -2 times its
    # time integral is the closed-form mid deficit -0.4/2.6
    p = MeasureParams(3, 3.8)
    t = np.linspace(0.0, 2.0, 9)
    rows = deficit_trace(make_linear(np.array([1.0, 0.0, 0.0])), p, "mid", t)
    expect = (0.4 / 2.6) * 5.6 * np.exp(-11.2 * t)
    assert np.allclose(rows[:, 1], expect, rtol=1e-13, atol=0.0)
    # the flow runs forward: a negative or NaN time is refused, t = inf is
    # the limit q = 0
    for bad in ([-1.0], [0.5, np.nan]):
        with pytest.raises(ValueError, match="nonnegative"):
            deficit_trace(make_linear(np.array([1.0, 0.0, 0.0])), p, "mid", bad)
    assert deficit_trace(make_linear(np.array([1.0, 0.0, 0.0])), p, "mid",
                         [np.inf])[0, 1] == 0.0


def test_deficit_trace_lower_decays():
    p = MeasureParams(1, 1.2)
    f = _even_1d_bump(0)
    t = np.linspace(0.0, 6.0, 7)
    rows = deficit_trace(f, p, "lower", t)
    vals = rows[:, 1]
    assert vals[0] > 1e-3          # integrand positive at t = 0
    assert vals[-1] < vals[0] * 1e-2  # and decays along the flow
    # to 0 at t = inf; negative and NaN times are refused
    assert deficit_trace(f, p, "lower", [np.inf])[0, 1] == 0.0
    for bad in ([-1e-3], [np.nan]):
        with pytest.raises(ValueError, match="nonnegative"):
            deficit_trace(f, p, "lower", bad)
    # generic multi-mode shapes have no route representation
    with pytest.raises(ValueError):
        deficit_trace(make_random_test(0, 2), MeasureParams(2, 1.5), "lower", t)


@pytest.mark.parametrize("beta", [54.0, 60.0])
def test_deficit_trace_keeps_its_sign(beta):
    # in the upper range q = ((Aw)'B^{-1}(Aw) - rho w'Aw) / 1'B1 >= 0 on the
    # contour flow w: w is mean-free and every nontrivial value of the
    # pencil is >= rho, so the difference stays >= 0 to rounding, out to
    # t = 6, where q underflows to 0
    rows = deficit_trace(_even_1d_bump(0), MeasureParams(1, beta), "upper",
                         [0.0, 0.5, 1.0, 6.0])
    assert np.all(rows[:, 1] >= 0.0), rows


_TRACE_TIMES = [0.0, 0.05, 0.25, 1.0, 6.0]


@pytest.mark.parametrize("f, p, tag, t", [
    (_even_1d_bump(0), MeasureParams(1, 1.2), "lower", _TRACE_TIMES),
    (_even_1d_bump(5), MeasureParams(1, 2.0), "upper", _TRACE_TIMES),
    (_radial_bump(3), MeasureParams(3, 3.5), "mid", _TRACE_TIMES),
    (_even_1d_bump(0), MeasureParams(1, 54.0), "upper", [0.05, 0.25, 0.5, 1.0]),
], ids=["even-1.2", "even-2.0", "radial-3", "even-54"])
def test_deficit_trace_matches_dense_spectrum(f, p, tag, t):
    # the trace off the contour flow against every nontrivial pair of the
    # same projection from a dense eigh:
    # q(t) = sum lam (lam - rho) c^2 e^{-2 lam t} / 1'B1, t = 0 included.
    # The dense pair at lam ~ 0 is the constants, whose rounding-sized c
    # and lam add about -1e-42 at (1, 54); the trace drops them, and at
    # (1, 54) q falls to 1.07e-92 at t = 0.5 and 4.3e-184 at t = 1, so a
    # rounding-sized constant in the flow (1.1e-45 at t = 0.5) shows
    rho = _range_lambda(p, tag)
    prob, v, mass = _route_start(f, p, _ROUTE_DISC)
    lam, phi = sla.eigh(prob.A.toarray(), prob.B.toarray())
    lam, c = lam[1:], (phi.T @ (prob.B @ v))[1:]
    dense = np.exp(-2.0 * np.outer(t, lam)) @ (lam * (lam - rho) * c * c) / mass
    assert np.all(dense > 0.0)
    rows = deficit_trace(f, p, tag, t)
    assert np.allclose(rows[:, 1], dense, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("f, p, tag", [
    (make_linear(np.array([1.0, 0.0, 0.0])), MeasureParams(3, 3.8), "mid"),
    (_even_1d_bump(0), MeasureParams(1, 1.2), "lower"),
], ids=["linear", "projection"])
def test_deficit_trace_times_shapes(f, p, tag):
    # a scalar time gives one row, an empty list no rows, and any times
    # that are neither a scalar nor 1-D are refused by their shape
    one = deficit_trace(f, p, tag, 0.5)
    assert one.shape == (1, 2)
    assert np.array_equal(one, deficit_trace(f, p, tag, [0.5]))
    assert deficit_trace(f, p, tag, []).shape == (0, 2)
    for bad in ([[0.0, 1.0]], np.zeros((2, 2)), np.zeros((1, 1, 3))):
        with pytest.raises(ValueError, match=rf"scalar or 1-D, not of shape "
                                             rf"\({np.shape(bad)[0]}, "):
            deficit_trace(f, p, tag, bad)


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


def test_extremal_residuals():
    x3 = np.random.default_rng(5).standard_normal((40, 3)) * 2.0
    lin = make_linear(np.array([0.3, -1.0, 0.7]))
    assert extremal_residual(lin, MeasureParams(3, 5.0), "upper", x3) < 1e-14
    q = make_quadratic_centered(MeasureParams(3, 4.0))
    assert extremal_residual(q, MeasureParams(3, 4.0), "traceless", x3) < 1e-12
    assert extremal_residual(q, MeasureParams(3, 3.8), "mid", x3) < 1e-12
    x1 = np.linspace(-3.0, 3.0, 21)[:, None]
    ext = make_lower_extremal_1d(1.2)
    assert extremal_residual(ext, MeasureParams(1, 1.2), "lower-1d", x1) < 1e-10
    # negative control: a generic bump is extremal for none of them
    b = make_random_test(1, 3)
    pts = 0.5 * x3
    assert extremal_residual(b, MeasureParams(3, 5.0), "upper", pts) > 1e-3
    with pytest.raises(ValueError):
        extremal_residual(lin, MeasureParams(3, 5.0), "no-such-tag", x3)
    with pytest.raises(ValueError):
        extremal_residual(lin, MeasureParams(3, 5.0), "lower-1d", x3)


def test_variance_check_refuses_a_generic_function_above_the_line():
    # a random bump at n = 2 has no angular mode: its profiles are not on
    # the mode grids, and the check refuses it before any solve
    p = MeasureParams(2, 3.0)
    f = make_random_test(0, 2)
    assert f.angular_mode is None
    with pytest.raises(ValueError, match=r"not representable on the mode grids "
                                         r"\(need n=1, radial, or linear\)"):
        variance_representation_check(f, 2.0 * (p.beta - 1.0), 1.0, 0.1, p,
                                      Discretization(m=64, delta=1e-2))
