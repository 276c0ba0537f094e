import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cauchygap.functions import (
    RANDOM_TEST_RADIUS,
    RANDOM_TEST_SEAMS,
    RandomTestFields,
    _point_fields,
    _row_sq_norms,
    make_linear,
    make_lower_extremal_1d,
    make_power_family,
    make_quadratic_centered,
    make_radial_log_cutoff,
    make_random_test,
    random_test_coefficients,
)
from cauchygap.measures import MeasureParams, mean_sq_norm
from cauchygap.quadrature import _sphere_directions


def _cloud(n, N=40, scale=2.0, seed=0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((N, n))


def check_derivatives(f, x):
    """Worst relative mismatch of f's analytic gradient/hessian at the
    points x (N, n) vs central differences with step 1e-4."""
    h = 1e-4
    n = x.shape[1]
    g = f.gradient(x)
    H = f.hessian(x)
    worst = 0.0
    for i in range(n):
        dx = np.zeros(n)
        dx[i] = h
        g_fd = (f.value(x + dx) - f.value(x - dx)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(g))))
        worst = max(worst, float(np.max(np.abs(g_fd - g[:, i]))) / scale)
        h_fd = (f.gradient(x + dx) - f.gradient(x - dx)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(H))))
        worst = max(worst, float(np.max(np.abs(h_fd - H[:, i, :]))) / scale)
    return worst


def _grad_laplacian(seed, x):
    """grad Lap f (N, n) of make_random_test(seed, n) at the points x (N, n),
    from the pointwise field rows."""
    coefs, _ = random_test_coefficients([seed], x.shape[1])
    return _point_fields(x, coefs, 3)[3][:, 0].T


def test_linear():
    v = np.array([1.0, -2.0, 0.5])
    f = make_linear(v)
    x = _cloud(3)
    assert np.allclose(f.value(x), x @ v)
    assert np.allclose(f.gradient(x), np.broadcast_to(v, x.shape))
    assert np.allclose(f.hessian(x), 0.0)
    assert f.angular_mode == 1
    assert check_derivatives(f, x) < 1e-8


def test_quadratic_centered_mean_zero_flag():
    p = MeasureParams(3, 4.0)
    f = make_quadratic_centered(p)
    x = _cloud(3)
    assert np.allclose(f.value(x), np.sum(x * x, axis=1) - mean_sq_norm(p))
    assert f.angular_mode == 0
    assert check_derivatives(f, x) < 1e-6
    # borderline beta: constructed fine but tagged as not square integrable
    g = make_quadratic_centered(MeasureParams(3, 3.2))
    assert "not in L2" in g.label


def test_power_family_values_and_derivatives():
    for eps in (0.3, -0.4, 1.1):
        f = make_power_family(eps)
        for n in (1, 2, 3):
            x = _cloud(n, N=25, seed=n)
            s = np.sum(x * x, axis=1)
            assert np.allclose(f.value(x), (1.0 + s) ** eps, rtol=1e-13)
            assert check_derivatives(f, x) < 1e-6


def test_lower_extremal_1d_ode():
    # w f'' + (3/2 - beta) x f' = 0 with w = 1 + x^2, and f'(x) = w^p.
    for beta in (0.8, 1.2, 1.5):
        f = make_lower_extremal_1d(beta)
        p = (2.0 * beta - 3.0) / 4.0
        x = np.linspace(-4.0, 4.0, 41)[:, None]
        t = x[:, 0]
        w = 1.0 + t * t
        fp = f.gradient(x)[:, 0]
        fpp = f.hessian(x)[:, 0, 0]
        assert np.allclose(fp, w**p, rtol=1e-12)
        resid = w * fpp + (1.5 - beta) * t * fp
        assert np.max(np.abs(resid)) < 1e-10
        assert check_derivatives(f, x) < 1e-6


def test_radial_log_cutoff_support():
    x0 = np.array([4.0, 0.0])
    f = make_radial_log_cutoff(x0, 1.0, 2.5)
    assert f.support_radius == pytest.approx(4.0 + 2.5)
    far = np.array([[4.0, 3.0], [0.0, -1.0], [9.0, 0.0], [-3.0, 0.0]])
    assert np.allclose(f.value(far), 0.0)
    assert np.allclose(f.gradient(far), 0.0)
    assert np.allclose(f.hessian(far), 0.0)
    # near the center the bump is identically 1 so f = (1/2) log|x|^2 there
    near = x0 + np.array([[0.2, 0.1], [-0.3, 0.4]])
    assert np.allclose(f.value(near), 0.5 * np.log(np.sum(near**2, axis=1)))
    mid = x0 + np.array([[1.6, 0.9]])
    assert check_derivatives(f, np.vstack([near, mid])) < 1e-5
    with pytest.raises(ValueError):
        make_radial_log_cutoff(np.zeros(2), 1.0, 2.5)
    with pytest.raises(ValueError):
        make_radial_log_cutoff(x0, 2.5, 1.0)


def test_random_test_compact_support_and_derivatives():
    for seed, n in [(0, 1), (1, 2), (7, 3)]:
        f = make_random_test(seed, n)
        R = f.support_radius
        assert R is not None and R > 0
        rng = np.random.default_rng(seed + 100)
        far = (R + 1.0 + rng.random((20, n))) * _unit(rng, 20, n)
        assert np.allclose(f.value(far), 0.0)
        assert np.allclose(f.gradient(far), 0.0)
        assert np.allclose(f.hessian(far), 0.0)
        # huge radii must not produce overflow garbage
        huge = 500.0 * _unit(rng, 5, n)
        assert np.all(np.isfinite(f.value(huge)))
        assert np.allclose(f.value(huge), 0.0)
        pts = 0.8 * R * _unit(rng, 30, n) * rng.random((30, 1))
        assert check_derivatives(f, pts) < 2e-4
        assert f.radial_seams  # seam radii exposed for quadrature panels


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_test_on_no_points(n):
    # an empty point set gives empty fields of each order's shape
    f, x = make_random_test(0, n), np.empty((0, n))
    assert f.value(x).shape == (0,)
    assert f.gradient(x).shape == (0, n)
    assert f.hessian(x).shape == (0, n, n)


def _unit(rng, N, n):
    v = rng.standard_normal((N, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_random_test_deterministic():
    a = make_random_test(5, 2)
    b = make_random_test(5, 2)
    x = _cloud(2, seed=9)
    assert np.array_equal(a.value(x), b.value(x))


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=3))
@settings(max_examples=15, deadline=None)
def test_random_test_derivative_consistency(seed, n):
    f = make_random_test(seed, n)
    rng = np.random.default_rng(seed)
    pts = 0.7 * f.support_radius * (2.0 * rng.random((12, n)) - 1.0) / np.sqrt(n)
    assert check_derivatives(f, pts) < 5e-4


def test_random_test_grad_laplacian_matches_fd():
    # analytic grad Lap f against fourth-order central differences of the
    # analytic Laplacian; radii cover the flat core r < r_in, the quintic
    # blend, and both sides of each seam (the stencil, of half-width 2h,
    # never crosses one)
    h = 1e-4
    for seed, n in [(0, 1), (3, 1), (1, 2), (4, 2), (2, 3), (5, 3)]:
        f = make_random_test(seed, n)
        r_in, r_out = f.radial_seams
        radii = [0.3, 1.0, r_in - 1e-3, r_in + 1e-3, 2.1, 2.4, 2.7,
                 r_out - 1e-3, r_out + 1e-3]
        rng = np.random.default_rng(seed + 50)
        x = np.concatenate([r * _unit(rng, 4, n) for r in radii])

        def lap(y):
            return np.trace(f.hessian(y), axis1=1, axis2=2)

        fd = np.empty_like(x)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd[:, i] = (-lap(x + 2 * e) + 8 * lap(x + e) - 8 * lap(x - e)
                        + lap(x - 2 * e)) / (12 * h)
        gdl = _grad_laplacian(seed, x)
        assert gdl.shape == (len(x), n)
        scale = max(1.0, float(np.max(np.abs(gdl))))
        assert np.max(np.abs(gdl - fd)) <= 1e-6 * scale
        assert np.all(gdl[-4:] == 0.0)  # outside the support


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_sq_norms(n):
    # one column takes its own form; it must give the einsum's values exactly
    x = _cloud(n, N=4096)
    ref = np.einsum("ij,ij->i", x, x)
    if n == 1:
        np.testing.assert_array_equal(_row_sq_norms(x), ref)
    else:
        np.testing.assert_allclose(_row_sq_norms(x), ref, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_test_fields_on_radial_rows_match_pointwise(n):
    # a block of whole radial rows in separable form (radial matrix columns
    # times angular arrays on the directions, as the identity packs and the
    # deficit integrate them), rebuilt at the nodes as radial[:, cols] @ A,
    # against make_random_test at the same nodes; the radii run to either
    # side of both seams (grad Lap f jumps there, so a node on a seam would
    # compare rounding) and past the support up to the 1e120 of the
    # non-compact rules, where every field is an exact 0; single rows of
    # the block are rules of one radius
    dirs, _ = _sphere_directions(n, 40)
    r = np.concatenate([np.linspace(0.0, 3.2, 30),
                        np.add.outer(RANDOM_TEST_SEAMS, [-1e-9, 1e-9]).ravel(),
                        [3.5, 1e3, 1e60, 1e120]])
    x = (r[:, None, None] * dirs).reshape(-1, n)
    outside = np.repeat(r >= RANDOM_TEST_RADIUS, len(dirs))
    seed = 7 + n
    f = make_random_test(seed, n)
    coefs, _ = random_test_coefficients([seed], n)
    iu, ju = np.triu_indices(n)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        pointwise = [f.value(x)[None], f.gradient(x).T, f.hessian(x)[:, iu, ju].T,
                     _grad_laplacian(seed, x).T]
        for order, (i, j) in itertools.product(range(4), [(0, len(r)), (10, 11),
                                                          (len(r) - 1, len(r))]):
            fields = RandomTestFields(dirs)
            terms, columns = fields.terms(coefs, order), fields.columns(order)
            radial = fields.radial(r[i:j], order)
            nodes = slice(i * len(dirs), j * len(dirs))
            assert len(terms) == order + 1 and columns.keys() == terms.keys()
            for (cols, A), ref in zip(zip(columns.values(), terms.values()), pointwise):
                field = (radial[:, cols] @ A)[:, 0].reshape(len(A), -1)  # the one trial
                assert field.shape == ref[:, nodes].shape
                assert np.max(np.abs(field - ref[:, nodes])) <= 1e-13 * np.max(np.abs(ref))
                assert np.all(field[:, outside[nodes]] == 0.0)


def test_make_linear_refuses_a_zero_direction():
    for v in (np.zeros(3), [0.0]):
        with pytest.raises(ValueError, match="direction vector must be nonzero"):
            make_linear(v)
