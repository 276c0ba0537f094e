import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import gammaln

from cauchygap.cli import EXIT_OK, main
from cauchygap.measures import (
    MeasureParams,
    density,
    log_normalization,
    mean_sq_norm,
    normalization,
    omega_moment,
    sample,
)


def test_params_validation():
    with pytest.raises(ValueError):
        MeasureParams(0, 2.0)
    with pytest.raises(ValueError):
        MeasureParams(2, 1.0)  # beta must exceed n/2
    with pytest.raises(ValueError):
        MeasureParams(2, 0.5)
    p = MeasureParams(2, 1.0000001)
    assert p.n == 2


def test_normalization_against_radial_quadrature():
    # Z = |S^{n-1}| * int_0^inf r^{n-1} (1+r^2)^{-beta} dr, done by quad.
    for n, beta in [(1, 1.0), (1, 2.5), (2, 1.4), (2, 3.0), (3, 2.0), (4, 4.5)]:
        p = MeasureParams(n, beta)
        sphere = 2.0 * np.pi ** (n / 2.0) / np.exp(gammaln(n / 2.0))
        val, err = integrate.quad(
            lambda r: r ** (n - 1) * (1.0 + r * r) ** (-beta), 0.0, np.inf
        )
        assert np.isclose(normalization(p), sphere * val, rtol=1e-10)
        assert np.isclose(log_normalization(p), np.log(sphere * val), rtol=1e-10)


def test_density_integrates_to_one():
    for n, beta in [(1, 1.5), (2, 2.0), (3, 2.5)]:
        p = MeasureParams(n, beta)
        sphere = 2.0 * np.pi ** (n / 2.0) / np.exp(gammaln(n / 2.0))
        val, _ = integrate.quad(
            lambda r: sphere
            * r ** (n - 1)
            * density(np.array([r] + [0.0] * (n - 1)), p),
            0.0,
            np.inf,
        )
        assert np.isclose(val, 1.0, rtol=1e-9)


def test_density_shape_follows_input():
    # one point (n,) gives a float; points (N, n) give (N,), N = 1 included
    p = MeasureParams(2, 2.0)
    single = density(np.array([1.0, 0.0]), p)
    assert isinstance(single, float)
    for N in (1, 3):
        out = density(np.tile([1.0, 0.0], (N, 1)), p)
        assert out.shape == (N,) and np.all(out == single)


def test_omega_moment_closed_values():
    # gamma = 0 gives total mass, gamma = 1 gives (beta - n/2)/beta.
    for n, beta in [(1, 2.0), (2, 1.5), (3, 4.0)]:
        p = MeasureParams(n, beta)
        assert np.isclose(omega_moment(0.0, p), 1.0, rtol=1e-14)
        assert np.isclose(omega_moment(1.0, p), (beta - n / 2.0) / beta, rtol=1e-13)


def test_omega_moment_against_quadrature():
    for n, beta, g in [(1, 1.2, 0.7), (2, 2.0, -0.3), (3, 2.6, 1.9)]:
        p = MeasureParams(n, beta)
        sphere = 2.0 * np.pi ** (n / 2.0) / np.exp(gammaln(n / 2.0))
        val, _ = integrate.quad(
            lambda r: r ** (n - 1) * (1.0 + r * r) ** (-beta - g), 0.0, np.inf
        )
        assert np.isclose(omega_moment(g, p), sphere * val / normalization(p), rtol=1e-9)


def test_mean_sq_norm():
    for n, beta in [(1, 2.0), (2, 3.0), (3, 3.5)]:
        p = MeasureParams(n, beta)
        expected = n / (2.0 * beta - n - 2.0)
        assert np.isclose(mean_sq_norm(p), expected, rtol=1e-13)
        # consistency: E|x|^2 = E[(1+|x|^2)] - 1 = 1/M_1 relation via moments
        assert np.isclose(
            mean_sq_norm(p), omega_moment(-1.0, p) - 1.0, rtol=1e-12
        )
    p = MeasureParams(2, 1.8)  # 2*beta - n - 2 < 0: second moment diverges
    with pytest.raises(ValueError):
        mean_sq_norm(p)


@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.6, max_value=6.0),
    st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_omega_moment_recurrence(n, excess, shift):
    # M_{g+1} / M_g = (beta + g - n/2) / (beta + g), a Gamma-function shift.
    beta = n / 2.0 + excess
    p = MeasureParams(n, beta)
    g = -excess + 0.05 + shift  # keeps beta + g strictly above n/2
    lhs = omega_moment(g + 1.0, p) / omega_moment(g, p)
    rhs = (beta + g - n / 2.0) / (beta + g)
    assert np.isclose(lhs, rhs, rtol=1e-10)


def test_sample_deterministic_and_shapes():
    p = MeasureParams(3, 2.5)
    a = sample(p, 200, seed=11)
    b = sample(p, 200, seed=11)
    c = sample(p, 200, seed=12)
    assert a.shape == (200, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_moments():
    # moderate N here; the acceptance test runs the 1e6 version
    p = MeasureParams(2, 3.0)
    points = sample(p, 120_000, seed=3)
    r2 = np.sum(points**2, axis=1)
    est = np.mean(1.0 / (1.0 + r2))
    exact = omega_moment(1.0, p)
    se = np.std(1.0 / (1.0 + r2)) / np.sqrt(len(points))
    assert abs(est - exact) < 5.0 * se
    est2 = np.mean(r2)
    se2 = np.std(r2) / np.sqrt(len(points))
    assert abs(est2 - mean_sq_norm(p)) < 5.0 * se2


def test_sample_csv_roundtrip(tmp_path):
    # the sample file holds the sampler's draws, float for float
    out = tmp_path / "pts.csv"
    assert main(["sample", "--n", "2", "--beta", "2.0", "--count", "50",
                 "--seed", "0", "--out", str(out)]) == EXIT_OK
    loaded = np.loadtxt(out, delimiter=",", skiprows=1, comments="#")
    assert np.allclose(loaded, sample(MeasureParams(2, 2.0), 50, seed=0),
                       rtol=0, atol=0)


def test_measure_refusals():
    p = MeasureParams(3, 2.5)
    # points of another dimension than the measure's
    with pytest.raises(ValueError, match="points have dimension 2, expected 3"):
        density(np.zeros((4, 2)), p)
    with pytest.raises(ValueError, match="points have dimension 1, expected 3"):
        density(np.zeros(1), p)
    # int (1+|x|^2)^(-gamma) dmu needs beta + gamma > n/2
    with pytest.raises(ValueError, match=r"moment not integrable: beta \+ gamma = 1.5 <= n/2"):
        omega_moment(-1.0, p)
    for count in (0, -5):
        with pytest.raises(ValueError, match="count must be positive"):
            sample(p, count, seed=0)
