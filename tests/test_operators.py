import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cauchygap.functions import (
    make_linear,
    make_power_family,
    make_quadratic_centered,
    make_random_test,
)
from cauchygap.measures import MeasureParams
from cauchygap.operators import (
    FactorizedGamma2,
    apply_L,
    assumption_margins,
    cauchy_weight,
    cd_witness,
    gamma,
    gamma2_cauchy_factorized,
    gamma2_general,
    lower_bound_predictions,
)
from test_functions import check_derivatives

@pytest.fixture
def rng():
    # one generator per test, so a test draws the same points whether it
    # runs alone or in the full suite
    return np.random.default_rng(42)


def _cloud(rng, n, N=60, scale=2.5):
    return scale * rng.standard_normal((N, n))


def test_cauchy_weight_fields(rng):
    w = cauchy_weight()
    for n in (1, 2, 3, 5):
        x = _cloud(rng, n)
        s = np.sum(x * x, axis=1)
        assert np.allclose(w.value(x), 1.0 + s)
        assert np.allclose(w.gradient(x), 2.0 * x)
        assert np.allclose(w.hessian(x), 2.0 * np.eye(n)[None])
        assert check_derivatives(w, x) < 1e-8


def test_apply_L_eigen_relations(rng):
    # L x_i = -(2 beta - 2) x_i  and  L w^{-gamma} algebra on the radial side.
    for n, beta in [(1, 2.0), (2, 1.7), (3, 3.2), (4, 5.0)]:
        p = MeasureParams(n, beta)
        w = cauchy_weight()
        v = np.zeros(n)
        v[0] = 1.0
        lin = make_linear(v)
        x = _cloud(rng, n, N=50)
        assert np.allclose(apply_L(lin, x, w, p), -(2.0 * beta - 2.0) * x[:, 0],
                           rtol=1e-12, atol=1e-12)


def test_gamma_formula(rng):
    p = MeasureParams(3, 2.5)
    w = cauchy_weight()
    f = make_power_family(0.3)
    x = _cloud(rng, 3, N=40)
    g = f.gradient(x)
    assert np.allclose(gamma(f, x, w),
                       (1.0 + np.sum(x * x, axis=1)) * np.sum(g * g, axis=1))


def test_gamma2_by_definition(rng):
    # Gamma2(f) = (1/2) L Gamma(f) - Gamma(f, Lf), checked by finite differences
    # of the bilinear form: Gamma(f,g) = w <df, dg>.
    n, beta = 2, 2.2
    p = MeasureParams(n, beta)
    w = cauchy_weight()
    f = make_random_test(3, n)
    x = 0.5 * rng.standard_normal((25, n))
    h = 1e-4

    def Lf_func(pts):
        return apply_L(f, pts, w, p)

    def gamma_ff(pts):
        g = f.gradient(pts)
        return w.value(pts) * np.sum(g * g, axis=1)

    # L applied to Gamma(f) by central second differences along each axis
    s = np.sum(x * x, axis=1)
    lap = np.zeros(len(x))
    grad = np.zeros_like(x)
    for i in range(n):
        dx = np.zeros(n)
        dx[i] = h
        fp, fm, f0 = gamma_ff(x + dx), gamma_ff(x - dx), gamma_ff(x)
        lap += (fp - 2.0 * f0 + fm) / h**2
        grad[:, i] = (fp - fm) / (2.0 * h)
    L_gamma = (1.0 + s) * lap - (beta - 1.0) * np.sum(2.0 * x * grad, axis=1)

    # Gamma(f, Lf) by finite differences of Lf
    gLf = np.zeros_like(x)
    for i in range(n):
        dx = np.zeros(n)
        dx[i] = h
        gLf[:, i] = (Lf_func(x + dx) - Lf_func(x - dx)) / (2.0 * h)
    gamma_f_Lf = (1.0 + s) * np.sum(f.gradient(x) * gLf, axis=1)

    lhs = 0.5 * L_gamma - gamma_f_Lf
    rhs = gamma2_general(f, x, w, p)
    scale = np.maximum(1.0, np.abs(rhs))
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-4


def test_factorization_reconstructs_and_signs(rng):
    # the split's total against the one Gamma2 formula at the Cauchy weight
    w = cauchy_weight()
    for n, beta in [(1, 0.8), (1, 1.3), (2, 1.2), (2, 2.4), (3, 1.6), (3, 4.0),
                    (3, 6.0), (4, 3.0), (5, 2.9), (4, 6.0), (5, 8.0)]:
        p = MeasureParams(n, beta)
        for seed in (0, 1, 5):
            f = make_random_test(seed, n)
            x = 0.7 * f.support_radius * (2.0 * rng.random((50, n)) - 1.0)
            parts = gamma2_cauchy_factorized(f, x, p)
            assert isinstance(parts, FactorizedGamma2)
            direct = gamma2_general(f, x, w, p)
            scale = np.maximum(1.0, np.abs(direct))
            assert np.max(np.abs(parts.total - direct) / scale) < 1e-10
            assert np.all(parts.hs_part >= -1e-12)
            assert np.all(parts.zero_order_part >= -1e-12)
            if n >= 2:
                assert np.all(parts.angular_part >= -1e-12)
            else:
                # n = 1: the angular term is (n-2) * 0 = 0 identically
                assert np.allclose(parts.angular_part, 0.0, atol=1e-12)


def test_factorization_witness_closed_forms(rng):
    # for f = w^{-gamma} type witnesses the parts have explicit values; use
    # the radial function f(x) = |x|, smoothed away from 0, at points where
    # Gamma = 1 + 1/|x|^2 and Gamma2 = n/|x|^4 + (2 beta + n - 2)/|x|^2... the
    # simplest exact check is the linear function:
    for n, beta in [(2, 1.5), (3, 2.0)]:
        p = MeasureParams(n, beta)
        v = np.zeros(n)
        v[0] = 1.0
        f = make_linear(v)
        x = _cloud(rng, n, N=30)
        parts = gamma2_cauchy_factorized(f, x, p)
        s = np.sum(x * x, axis=1)
        # M = x (x) e1 + e1 (x) x - x_1 Id for the linear witness:
        # |M|^2 = 2|x|^2 + (n-2) x_1^2
        expect_hs = 2.0 * s + (n - 2.0) * x[:, 0] ** 2
        assert np.allclose(parts.hs_part, expect_hs, rtol=1e-11, atol=1e-11)
        assert np.allclose(parts.angular_part, (n - 2.0) * (s - x[:, 0] ** 2),
                           rtol=1e-11, atol=1e-11)
        assert np.allclose(parts.zero_order_part, 2.0 * beta + n - 2.0)
        assert np.allclose(parts.total, n * s + 2.0 * beta + n - 2.0,
                           rtol=1e-11, atol=1e-11)


def test_cd_witness():
    for n, beta in [(2, 1.5), (3, 3.0)]:
        p = MeasureParams(n, beta)
        for rho in (0.01, 0.1, 1.0, 10.0):
            x0, f = cd_witness(p, rho)
            g2 = float(gamma2_general(f, x0, cauchy_weight(), p)[0])
            gv = float(gamma(f, x0, cauchy_weight())[0])
            assert g2 < rho * gv
            # the witness ratio matches (2 beta + n - 2)/R^2 + n/R^4 exactly
            R2 = float(np.sum(x0 * x0))
            assert np.isclose(gv, 1.0 + 1.0 / R2, rtol=1e-12)
            assert np.isclose(g2, n / R2**2 + (2.0 * beta + n - 2.0) / R2,
                              rtol=1e-10)
    with pytest.raises(ValueError):
        cd_witness(MeasureParams(2, 1.5), 0.0)


def test_assumption_margins_cauchy(rng):
    # Hess w = 2 Id makes h1 = 2; the h2 matrix is a scalar multiple of Id.
    x = _cloud(rng, 3, N=20)
    p = MeasureParams(3, 3.0)
    w = cauchy_weight()
    h1, h2 = assumption_margins(w, p, x)
    assert np.isclose(h1, 2.0, rtol=1e-12)
    n, beta = 3, 3.0
    s = np.sum(x * x, axis=1)
    expect = (beta - 1.0) * 2.0 + ((n + 1.0 - beta) / (n - 1.0)) * (1.0 + s) * (
        2.0 - 2.0 * n
    )
    assert np.isclose(h2, float(np.min(expect)), rtol=1e-10)
    h1_only = assumption_margins(w, MeasureParams(1, 2.0), _cloud(rng, 1))
    assert h1_only[1] is None


def test_lower_bound_predictions_cauchy_limit():
    # kappa = 1 (Cauchy weight): window start = (n(n+1)-2)/(2n-2) = (n+2)/2
    # and the mid bound 2(beta - 1 - (n+1-beta)) = 4 beta - 2n - 4... in the
    # rho_minus = 2 normalization this is exactly the mid-range closed form.
    for n in (2, 3, 4):
        beta = n / 2.0 + 1.5
        p = MeasureParams(n, beta)
        pred = lower_bound_predictions(p, 2.0, 2.0)
        assert np.isclose(pred.upper_range_bound, 2.0 * (beta - 1.0), rtol=1e-13)
        assert np.isclose(pred.mid_range_bound, 4.0 * (beta - n / 2.0 - 1.0),
                          rtol=1e-12)
        assert np.isclose(pred.valid_beta_window[0], n / 2.0 + 1.0, rtol=1e-13)
        assert pred.valid_beta_window[1] == n + 1.0
    with pytest.raises(ValueError):
        lower_bound_predictions(MeasureParams(2, 3.0), -1.0, 2.0)
    with pytest.raises(ValueError):
        lower_bound_predictions(MeasureParams(1, 3.0), 2.0, 2.0)


@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.05, max_value=5.0),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=40, deadline=None)
def test_factorization_nonneg_property(n, excess, seed):
    # CD(0, infinity) via the split: every part nonnegative whenever beta > n/2
    beta = n / 2.0 + excess
    p = MeasureParams(n, beta)
    f = make_random_test(seed % 8, n)
    rng = np.random.default_rng(seed)
    x = 0.9 * f.support_radius * (2.0 * rng.random((20, n)) - 1.0)
    parts = gamma2_cauchy_factorized(f, x, p)
    tot_scale = np.maximum(1.0, np.abs(parts.total))
    assert np.all(parts.hs_part >= -1e-10 * tot_scale)
    assert np.all(parts.angular_part >= -1e-10 * tot_scale)
    assert np.all(parts.zero_order_part >= 0.0)
    assert np.all(parts.total >= -1e-10 * tot_scale)


def test_assumption_margins_refuse_no_points():
    with pytest.raises(ValueError, match="empty sample point set"):
        assumption_margins(cauchy_weight(), MeasureParams(3, 3.0), np.zeros((0, 3)))
