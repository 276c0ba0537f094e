import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg as sla
from scipy.linalg import lapack
from scipy import sparse
from scipy.integrate import quad
from scipy.sparse.linalg import eigsh

from cauchygap import spectral
from cauchygap.cli import EXIT_OK, main
from cauchygap.measures import MeasureParams
from cauchygap.spectral import (
    Discretization,
    GapReport,
    NumericalBreakdown,
    SymBand,
    _cell_integrals,
    _tail_moment,
    assemble_mode,
    closed_form_gap,
    lowest_eigs,
    mode_spectrum,
    numeric_gap,
    rayleigh_quotient_1d,
    rayleigh_quotient_power,
)


def _mode(ell, params, disc, tail_rays):
    """One mode's bands, with or without tail rays (`_mode_problems`)."""
    return next(spectral._mode_problems((ell,), params, disc, tail_rays))


def test_closed_form_values_and_tags():
    # n = 1 branches
    assert closed_form_gap(MeasureParams(1, 1.0)) == (0.25, "lower")
    v, t = closed_form_gap(MeasureParams(1, 1.5))
    assert np.isclose(v, 1.0) and t == "lower"  # tie goes to the lower branch
    v, t = closed_form_gap(MeasureParams(1, 4.0))
    assert np.isclose(v, 6.0) and t == "upper"
    # n >= 2: three branches
    v, t = closed_form_gap(MeasureParams(2, 1.5))
    assert np.isclose(v, 0.25) and t == "lower"
    v, t = closed_form_gap(MeasureParams(2, 3.0))
    assert np.isclose(v, 4.0) and t == "lower"  # n/2+2 = n+1 = 3 triple point
    v, t = closed_form_gap(MeasureParams(3, 4.0))
    assert np.isclose(v, 6.0) and t == "mid"
    v, t = closed_form_gap(MeasureParams(3, 6.0))
    assert np.isclose(v, 10.0) and t == "upper"
    v, t = closed_form_gap(MeasureParams(4, 4.5))
    assert np.isclose(v, 6.0) and t == "mid"


@given(st.integers(min_value=1, max_value=6),
       st.floats(min_value=1e-3, max_value=1e-1))
@settings(max_examples=50, deadline=None)
def test_closed_form_branch_continuity(n, h):
    # the piecewise formula is continuous across both junctions
    joints = [1.5] if n == 1 else [n / 2.0 + 2.0, n + 1.0]
    for b0 in joints:
        lo, _ = closed_form_gap(MeasureParams(n, b0 - h))
        hi, _ = closed_form_gap(MeasureParams(n, b0 + h))
        mid, _ = closed_form_gap(MeasureParams(n, b0))
        # branch slopes at the junctions are at most 4, so the jump is O(h)
        assert abs(hi - lo) <= 8.0 * h + 1e-12
        assert min(lo, hi) - 1e-12 <= mid <= max(lo, hi) + 1e-12


def test_closed_form_gap_is_the_lowest_mode_bottom():
    # the gap is the least first nontrivial mode_spectrum entry over ell <= 2
    # (ell <= 1 on the line): mode 0's second (its first is the constants),
    # every other mode's first; the grid holds both window edges and n + 1
    for n in range(1, 9):
        edges = [n / 2.0 + 1.0, n / 2.0 + 2.0, n + 1.0]
        for beta in np.concatenate([n / 2.0 + np.linspace(1e-3, 12.0, 4000), edges]):
            p = MeasureParams(n, beta)
            bottoms = [mode_spectrum(p, ell)[1 if ell == 0 else 0]
                       for ell in range(2 if n == 1 else 3)]
            v, _ = closed_form_gap(p)
            assert abs(min(bottoms) - v) <= 2.2e-16 * v, (n, beta, bottoms, v)


def test_mode_head_is_the_start_of_mode_spectrum():
    # the shift and the guard read only the entries for k < ell + 4 and the
    # edge: mode_spectrum's first entries, bit for bit, at every range
    for n, beta in [(1, 0.6), (1, 54.0), (2, 4.0), (3, 2.6), (3, 5.0), (6, 120.0)]:
        p = MeasureParams(n, beta)
        for ell in range(4):
            *head, edge = spectral._mode_head(p, ell)
            full = mode_spectrum(p, ell)
            assert head == full[:min(2, len(full) - 1)] and edge == full[-1], (n, beta, ell)


def test_mode_head_runs_once_per_mode(monkeypatch):
    # numeric_gap reads each mode's head several times (shift, guard and
    # report); the closed-form values behind it are computed once per
    # (params, ell), and not again on a second call
    real, calls = spectral._pearson_values, []

    def counted(params, ell, kmax):
        calls.append(ell)
        return real(params, ell, kmax)

    monkeypatch.setattr(spectral, "_pearson_values", counted)
    spectral._mode_head.cache_clear()
    p, disc = MeasureParams(3, 3.8), Discretization(m=256, delta=1e-3)
    numeric_gap(p, disc)
    assert sorted(calls) == [0, 1]
    numeric_gap(p, disc)
    assert sorted(calls) == [0, 1]


def test_mode_spectrum_table():
    # the values r^k Y_ell give for k = ell + 2j < beta - n/2, then the edge
    assert mode_spectrum(MeasureParams(2, 4.0), 0) == [0.0, 8.0, 9.0]
    assert mode_spectrum(MeasureParams(2, 4.0), 1) == [6.0, 10.0]
    assert mode_spectrum(MeasureParams(1, 54.0), 0)[:2] == [0.0, 210.0]
    assert mode_spectrum(MeasureParams(1, 54.0), 1)[0] == 106.0
    p = MeasureParams(3, 5.0)
    assert np.allclose(mode_spectrum(p, 2), [16.0, 18.25], rtol=0, atol=1e-13)
    # each value lies (beta - n/2 - k)^2 below the edge, ascending
    for ell in range(4):
        *vals, edge = mode_spectrum(p, ell)
        ks = ell + 2 * np.arange(len(vals))
        assert np.allclose(edge - np.array(vals), (3.5 - ks) ** 2, rtol=0, atol=1e-12)


def test_rayleigh_power_family():
    # frozen oracle pins (independent closed-moment evaluation)
    assert np.isclose(rayleigh_quotient_power(0.2499, MeasureParams(2, 1.5)),
                      0.25015000999800036, rtol=1e-13)
    assert np.isclose(rayleigh_quotient_power(0.2499, MeasureParams(3, 2.0)),
                      0.2501557356004688, rtol=1e-13)
    # decreasing approach to (beta - n/2)^2 from above as eps -> eps_max
    p = MeasureParams(2, 1.8)
    eps_max = (2.0 * p.beta - p.n) / 4.0
    limit = (p.beta - p.n / 2.0) ** 2
    vals = [rayleigh_quotient_power(eps_max - d, p) for d in (0.2, 0.05, 1e-3, 1e-6)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    assert vals[-1] > limit
    assert abs(vals[-1] - limit) < 1e-4
    with pytest.raises(ValueError):
        rayleigh_quotient_power(0.0, p)
    with pytest.raises(ValueError):
        rayleigh_quotient_power(eps_max, p)


def test_rayleigh_1d_family():
    # frozen oracle pin for the odd line family
    assert np.isclose(rayleigh_quotient_1d(-0.2501, MeasureParams(1, 1.0)),
                      0.25016668444207435, rtol=1e-13)
    # approaches (beta - 1/2)^2 at the admissibility edge
    beta = 1.2
    eps_max = (2.0 * beta - 3.0) / 4.0
    vals = [rayleigh_quotient_1d(eps_max - d, MeasureParams(1, beta))
            for d in (0.1, 1e-3, 1e-6)]
    limit = (beta - 0.5) ** 2
    assert all(v > limit for v in vals)
    assert abs(vals[-1] - limit) < 1e-4
    # beta > 3/2: eps = 0 is admissible and gives the linear function exactly
    assert np.isclose(rayleigh_quotient_1d(0.0, MeasureParams(1, 2.0)), 2.0,
                      rtol=1e-12)
    # a family on the line: any other dimension is refused
    with pytest.raises(ValueError, match="n = 1"):
        rayleigh_quotient_1d(-0.1, MeasureParams(2, 1.8))


def test_discretization():
    d = Discretization(m=128, delta=1e-2)
    p = MeasureParams(3, 3.8)
    r = d.radii(p)
    assert r.shape == (128,)
    assert r[0] == 0.0
    assert np.all(np.diff(r) > 0)
    assert np.isclose(r[-1], np.tan(np.pi / 2.0 - 1e-2))
    # s = asinh r is uniform
    np.testing.assert_allclose(np.diff(np.arcsinh(r)), np.arcsinh(r[-1]) / 127,
                               rtol=1e-12)
    with pytest.raises(ValueError):
        Discretization(m=16)
    with pytest.raises(ValueError):
        Discretization(delta=0.5)
    # m is a count: a float is refused by name, a numpy integer is the same grid
    for m in (2048.0, np.float64(128.0), "128"):
        with pytest.raises(ValueError, match="m must be an integer"):
            Discretization(m=m)
    assert Discretization(m=np.int64(128), delta=1e-2).radii(p) is r
    # every point whose cap R_beta lies past tan(pi/2 - delta) shares one
    # grid: at delta = 1e-3 those with beta < 41.17 + n/2
    assert d.radii(MeasureParams(1, 0.55)) is d.radii(MeasureParams(6, 60.0)) is r
    fine = Discretization(m=128, delta=1e-3)
    assert fine.radii(MeasureParams(1, 0.55)) is fine.radii(MeasureParams(6, 44.1))
    assert fine.radii(MeasureParams(6, 44.2))[-1] < fine.radii(MeasureParams(6, 44.1))[-1]
    # past it the grid ends where (1 + R^2)^(-(2 beta - n + 1)/2) = 1e-250
    for n, beta in [(6, 66.0), (3, 200.0), (1, 3000.0)]:
        R = d.radii(MeasureParams(n, beta))[-1]
        assert R < r[-1]
        assert np.isclose(np.log10(1.0 + R * R) * (2.0 * beta - n + 1.0) / 2.0, 250.0,
                          rtol=1e-12)
    # the radii and the grid's cell rule are shared by every caller: read-only
    for a in (r, *d._grid(p)[1]):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def _half_width(M):
    i, j = np.nonzero(M)
    return int(np.max(np.abs(i - j)))


def test_assemble_mode_structure():
    p = MeasureParams(2, 3.0)
    disc = Discretization(m=96, delta=1e-2)
    p0 = assemble_mode(0, p, disc)
    assert p0.ell == 0
    A0, B0 = p0.A.toarray(), p0.B.toarray()
    assert np.allclose(A0, A0.T)
    assert np.allclose(B0, B0.T)
    # banded: tridiagonal hats plus at most two ray columns at offset <= 2
    assert p0.ray_ks and _half_width(A0) <= 2 and _half_width(B0) <= 2
    plain = _mode(0, p, disc, tail_rays=False)
    assert _half_width(plain.A.toarray()) == 1
    assert _half_width(plain.B.toarray()) == 1
    # constants lie in the kernel of the Dirichlet form (hat functions sum
    # to one; ray columns are built relative to the constant already)
    ones = np.zeros(p0.size())
    ones[: len(p0.radii)] = 1.0
    resid = p0.A @ ones
    assert np.max(np.abs(resid)) < 1e-10
    # B is positive definite
    assert np.all(np.linalg.eigvalsh(B0) > 0)
    p1 = assemble_mode(1, p, disc)
    assert p1.size() < p0.size() + 2  # node at r = 0 dropped for ell >= 1
    # the nontrivial eigenvalues of every mode are strictly positive (the
    # solver never returns mode 0's constants)
    assert lowest_eigs(p0) > 0.1
    assert lowest_eigs(p1) > 0.1


def _cells(rule, j):
    """The grid rule restricted to the cells j (an index array or a slice)."""
    return tuple(a[..., j] for a in rule)


def _reference_hat_part(ell, params, disc):
    """Cell-by-cell dense assembly of the hat-hat block (the loop that the
    vectorized assembly replaced), using the same per-cell hat-product rule."""
    n, beta = params.n, params.beta
    r, rule = disc._grid(params)
    cl = float(ell * (ell + n - 2))
    off = 0 if ell == 0 else 1
    nh = len(r) - off
    A, B = np.zeros((nh, nh)), np.zeros((nh, nh))
    for j in range(len(r) - 1):
        mass, ang, kS = _cell_integrals(_cells(rule, slice(j, j + 1)), n, beta)
        mass, ang, kS = [x[0] for x in mass], [x[0] for x in ang], kS[0]
        il, ir = j - off, j + 1 - off
        if il >= 0:
            B[il, il] += mass[0]
            A[il, il] += kS + cl * ang[0]
            B[il, ir] = B[ir, il] = mass[1]
            A[il, ir] = A[ir, il] = -kS + cl * ang[1]
        B[ir, ir] += mass[2]
        A[ir, ir] += kS + cl * ang[2]
    return A, B


@pytest.mark.parametrize("m, delta", [(64, 0.2), (96, 1e-2), (128, 1e-3)])
@pytest.mark.parametrize("n, beta", [(1, 1.2), (2, 1.5), (3, 3.8), (4, 9.0)])
def test_assemble_mode_matches_cell_loop(m, delta, n, beta):
    # same arithmetic per cell, so the band layout must reproduce the loop
    # exactly, apart from the tail term the last hat adds on [R, inf)
    disc = Discretization(m=m, delta=delta)
    for ell in range(4):
        prob = _mode(ell, MeasureParams(n, beta), disc, tail_rays=False)
        A_ref, B_ref = _reference_hat_part(ell, MeasureParams(n, beta), disc)
        A, B = prob.A.toarray(), prob.B.toarray()
        grid = np.ones(A.shape, dtype=bool)
        grid[-1, -1] = False
        np.testing.assert_array_equal(A[grid], A_ref[grid])
        np.testing.assert_array_equal(B[grid], B_ref[grid])
        assert A[-1, -1] >= A_ref[-1, -1] and B[-1, -1] > B_ref[-1, -1]


@pytest.mark.parametrize("ell", [0, 2])
@pytest.mark.parametrize("n, beta, rays", [(2, 1.5, 0), (3, 3.0, 1), (2, 4.0, 2)])
def test_tail_block_matches_quad(n, beta, rays, ell):
    # the tail functions on [R, inf) are the last hat's constant extension
    # psi_0 = 1 and the rays psi_k = r^k - R^k; their Gram blocks (the band
    # from the last hat on, less the hat block) against adaptive quadrature
    p = MeasureParams(n, beta)
    disc = Discretization(m=64, delta=0.05)
    prob = assemble_mode(ell, p, disc)
    assert len(prob.ray_ks) == rays
    A_ref, B_ref = _reference_hat_part(ell, p, disc)
    last = len(A_ref) - 1
    A_tail, B_tail = (M.toarray()[last:, last:] for M in (prob.A, prob.B))
    A_tail[0, 0] -= A_ref[-1, -1]
    B_tail[0, 0] -= B_ref[-1, -1]

    R, cl = float(prob.radii[-1]), ell * (ell + n - 2)
    ks = (0,) + prob.ray_ks

    def psi(k, r, deriv=False):
        if deriv:
            return k * r ** (k - 1) if k else 0.0
        return r ** k - R ** k if k else 1.0

    def tail_quad(g):
        return quad(g, R, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    for a, ka in enumerate(ks):
        for b, kb in enumerate(ks):
            b_ref = tail_quad(lambda r: psi(ka, r) * psi(kb, r)
                              * r ** (n - 1) * (1 + r * r) ** -beta)
            a_ref = tail_quad(lambda r: (psi(ka, r, True) * psi(kb, r, True)
                                         + cl * psi(ka, r) * psi(kb, r) / (r * r))
                              * r ** (n - 1) * (1 + r * r) ** (1 - beta))
            assert abs(B_tail[a, b] - b_ref) <= 1e-10 * abs(b_ref), (a, b)
            assert abs(A_tail[a, b] - a_ref) <= 1e-10 * abs(a_ref), (a, b)


def test_eigen_upper_bounds_are_true_upper_bounds():
    # Galerkin eigenvalues bound the true ones from above: with the closed
    # form known exactly, rel_error must be >= -(discretization noise)
    disc = Discretization(m=256, delta=1e-3)
    for n, beta in [(2, 4.0), (3, 5.0), (1, 2.0), (2, 1.5)]:
        rep = numeric_gap(MeasureParams(n, beta), disc)
        assert rep.rel_error > -1e-9


def test_numeric_gap_matches_closed_form_upper_range():
    # upper range: gap carried by the linear (ell = 1) sector, which the ray
    # augmented basis captures exactly
    disc = Discretization(m=256, delta=1e-3)
    rep = numeric_gap(MeasureParams(3, 5.0), disc)
    assert isinstance(rep, GapReport)
    assert rep.range_tag == "upper"
    assert rep.minimizing_mode == 1
    assert abs(rep.rel_error) < 1e-8
    # mode 1 has the lower bottom (8 < 10) and is solved; mode 0's count
    # under sigma_0 = 9.9 certifies it above the gap, so it is not solved
    assert rep.mode_eigs[0] is None
    assert rep.numeric_gap == rep.mode_eigs[1]


def test_numeric_gap_mid_range():
    disc = Discretization(m=512, delta=1e-3)
    rep = numeric_gap(MeasureParams(3, 3.8), disc)
    assert rep.range_tag == "mid"
    assert rep.minimizing_mode == 0  # radial quadratic-type minimizer
    assert abs(rep.rel_error) < 5e-3


def test_numeric_gap_line():
    disc = Discretization(m=256, delta=1e-3)
    rep = numeric_gap(MeasureParams(1, 3.0), disc)
    assert rep.range_tag == "upper"
    assert len(rep.mode_eigs) == 2  # even + odd sectors only
    assert abs(rep.rel_error) < 1e-8
    with pytest.raises(ValueError):
        numeric_gap(MeasureParams(1, 3.0), disc, ell_max=1)


def _tuples(v):
    """A JSON value with its lists, nested ones too, read back as tuples."""
    return tuple(map(_tuples, v)) if isinstance(v, list) else v


def test_gap_report_json_roundtrip(tmp_path):
    out = tmp_path / "gap.json"
    assert main(["gap", "--n", "2", "--beta", "4.0", "--m", "128",
                 "--delta", "1e-2", "--out", str(out)]) == EXIT_OK
    d = json.loads(out.read_text())
    p = MeasureParams(2, 4.0)
    rep = numeric_gap(p, Discretization(m=128, delta=1e-2))
    assert d["n"] == 2 and d["beta"] == 4.0
    assert d["range_tag"] == rep.range_tag
    assert d["m"] == 128
    # the file reads back as the report, float for float
    assert GapReport(**{k: _tuples(v) for k, v in d.items()}) == rep
    # each mode's floor: mode 0's first nontrivial closed-form value, then
    # mode 1's first.  Mode 1 is solved, and mode 0, certified above it, is
    # written as null.  Mode 1's extremal r lies in the trial space, so its
    # value is the bottom up to rounding, of either sign: the value is
    # checked against the eigenvalue of its own bands instead
    assert d["mode_bottoms"] == [mode_spectrum(p, ell)[1 if ell == 0 else 0]
                                 for ell in range(2)] == [8.0, 6.0]
    assert d["mode_eigs"][0] is None
    lam = rep.mode_eigs[1]
    prob = assemble_mode(1, p, Discretization(m=128, delta=1e-2))
    band = _band_eigenvalue(prob, lam)
    assert abs(lam - band) <= 1e-14 * band, (lam, band)
    # the solved mode's bracket reads back as the two points whose counts
    # certified it, around the value; the certified mode has none
    eps = spectral.BRACKET_EPS_SCALE * prob.size() ** 2
    assert d["mode_brackets"] == [None, [lam * (1.0 - eps), lam * (1.0 + eps)]]
    lo, hi = rep.mode_brackets[1]
    assert lo < lam < hi and lo < band < hi


def test_sweep_csv_deterministic(tmp_path):
    betas = np.linspace(1.2, 4.0, 5)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (f1, f2):
        assert main(["sweep", "--n", "2", "--beta-min", "1.2", "--beta-max",
                     "4.0", "--steps", "5", "--m", "96", "--delta", "1e-2",
                     "--out", str(out)]) == EXIT_OK
    assert f1.read_bytes() == f2.read_bytes()
    header, *rows = f1.read_text().splitlines()
    assert header.split(",") == ["n", "beta", "range_tag", "closed_form",
                                 "numeric_gap", "rel_error",
                                 "minimizing_mode", "m", "delta",
                                 "mode0_bracket_lo", "mode0_bracket_hi",
                                 "mode1_bracket_lo", "mode1_bracket_hi"]
    assert [float(row.split(",")[1]) for row in rows] == list(betas)
    # each row brackets its gap; a certified mode's two cells are empty
    for row in rows:
        cells = row.split(",")
        gap, mode = float(cells[4]), int(cells[6])
        assert float(cells[9 + 2 * mode]) < gap < float(cells[10 + 2 * mode])
        assert all((cells[9 + 2 * ell] == "") == (cells[10 + 2 * ell] == "")
                   for ell in (0, 1))


# Frozen mpmath values (scripts/make_oracle_values.py) on cells 0, 1023 and
# 2046 of the m = 2048, delta = 1e-3 grid at (n, beta) = (3, 3.8), per
# exponent d: the hat products (LL, LR, RR) against r^2 (1+r^2)^(-d) (mass)
# and (1+r^2)^(1-d) (the ell term), one row per product, then the gradient
# term int r^2 (1+r^2)^(1-d) dr / h^2; and the tail moments
# int_R^inf r^c (1+r^2)^(-d) dr where they converge.
_CELL_PINS = {
    1.2: (
        (1.7065602361600427e-9, 0.0079751395163502366, 0.07803747848162419),
        (2.5598322869437732e-9, 0.0039861051759993295, 0.039004248771283322),
        (1.0239288811497559e-8, 0.0079692841714290763, 0.077979546718843926),
        (0.0012377329012904692, 0.0079911354491570983, 0.078037556954971361),
        (0.00061886610933318736, 0.0039940853585977467, 0.039004287920625336),
        (0.00123773119473346, 0.0079852090585675231, 0.077979624843305274),
        (0.00123773119473346, 1734.628724952837, 16973.433292088414),
    ),
    2.5: (
        (1.7065514965965921e-9, 2.4749125885002375e-6, 1.2457975411296946e-9),
        (2.5598104381531349e-9, 1.2340226081469877e-6, 6.2116631848123236e-10),
        (1.0239157719579641e-8, 2.4611981492689845e-6, 1.2388780101886995e-9),
        (0.0012377306827634731, 2.4798765946822008e-6, 1.2457987938888506e-9),
        (0.00061886278155449167, 1.2364931302760343e-6, 6.211669419604838e-10),
        (0.0012377178836776689, 2.466116333554233e-6, 1.2388792513723384e-9),
        (0.0012377178836776689, 0.53700637799816423, 0.00027031131545969351),
    ),
    5.0: (
        (1.7065346899272532e-9, 4.4367723673937919e-13, 1.2632763003875701e-24),
        (2.5597684218901337e-9, 2.2020032343731188e-13, 6.2696647731328477e-25),
        (1.0238905624874026e-8, 4.3714584517543336e-13, 1.2446518490272625e-24),
        (0.0012377264163973367, 4.4456713802801108e-13, 1.2632775707297079e-24),
        (0.00061885638205990863, 2.2064116910627902e-13, 6.2696710661863044e-25),
        (0.0012376922859724421, 4.3801939327797247e-13, 1.244653096001951e-24),
        (0.0012376922859724421, 9.5824215190329392e-8, 2.7283598230491177e-19),
    ),
    10.0: (
        (1.706501077312708e-9, 1.4259307701093333e-26, 1.2990230835290731e-54),
        (2.5596843918985605e-9, 7.0118083052120082e-27, 6.3876280332477018e-55),
        (1.0238401455737915e-8, 1.3791223368820815e-26, 1.2563293280620035e-54),
        (0.0012377178837911127, 1.4287908461948497e-26, 1.2990243898313432e-54),
        (0.00061884358338586051, 7.0258462861417776e-27, 6.3876344447928713e-55),
        (0.0012376410924526668, 1.3818782643700882e-26, 1.2563305867490768e-54),
        (0.0012376410924526668, 3.0514360590718063e-21, 2.7798022887855492e-49),
    ),
    50.0: (
        (1.7062322111508457e-9, 1.6260578049427038e-134, 1.6268734661294107e-294),
        (2.5590122736011947e-9, 7.4302213296995057e-135, 7.4332580521544315e-295),
        (1.023436907568103e-8, 1.355940695167778e-134, 1.356364611419196e-294),
        (0.0012376496289911161, 1.6293195483461071e-134, 1.6268751022497901e-294),
        (0.00061874120911721166, 7.4450986329180192e-135, 7.4332655140668651e-295),
        (0.0012372316350316104, 1.3586505303984959e-134, 1.3563659704456825e-294),
        (0.0012372316350316104, 3.239864065498021e-129, 3.2412018452606286e-289),
    ),
}
_TAIL_PINS = {
    (0, 1.2): 4.5068380511410856e-5,
    (1, 1.2): 0.15773932560408946,
    (0, 2.5): 2.4999991666663088e-13,
    (1, 2.5): 3.3333316666665345e-10,
    (2, 2.5): 4.9999970833336873e-7,
    (0, 5): 1.1111098989900553e-28,
    (1, 5): 1.2499983333338956e-25,
    (2, 5): 1.4285692063503495e-22,
    (0, 10): 5.2631436090367543e-59,
    (1, 10): 5.5555388889084008e-56,
    (2, 10): 5.8823336429567176e-53,
    (0, 50): 1.0100848386078904e-299,
    (1, 50): 1.0203914967292618e-296,
    (2, 50): 1.0309106634718177e-293,
}



def _check_cell_pins(d):
    r, rule = Discretization(m=2048, delta=1e-3)._grid(MeasureParams(3, 3.8))
    j = np.array([0, 1023, 2046])
    mass, ang, grad = _cell_integrals(_cells(rule, j), 3, d)
    np.testing.assert_allclose(np.array([*mass, *ang, grad]), _CELL_PINS[d],
                               rtol=1e-12, atol=0)
    for c in (0, 1, 2):
        if (c, d) in _TAIL_PINS:
            np.testing.assert_allclose(_tail_moment(float(r[-1]), c, d),
                                       _TAIL_PINS[c, d], rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [1.2, 2.5, 5.0])
def test_cell_moments_match_oracle_pins(d):
    _check_cell_pins(d)


@pytest.mark.parametrize("d", [10.0, 50.0])
def test_cell_moments_large_exponent_pins(d):
    # one rule on every cell, Gauss in s = asinh r: measured against mpmath
    # over every cell of this grid, the worst relative error of a band
    # entry is 7.6e-15 at d = 10 and 5.2e-14 at d = 50
    _check_cell_pins(d)


# One point per range tag: lower, mid, upper, and the line (lower, upper).
_SOLVER_POINTS = [(2, 1.5), (3, 3.8), (3, 5.0), (1, 1.2), (1, 3.0)]


@pytest.mark.parametrize("tail_rays", [True, False])
@pytest.mark.parametrize("n, beta", _SOLVER_POINTS)
@pytest.mark.parametrize("m", [96, 256])
def test_lowest_eigs_matches_dense_eigh(m, n, beta, tail_rays):
    disc = Discretization(m=m, delta=1e-3)
    for ell in range(4):
        prob = _mode(ell, MeasureParams(n, beta), disc, tail_rays)
        got = lowest_eigs(prob)
        # mode 0's dense spectrum starts with the constants, never returned
        first = 1 if ell == 0 else 0
        ref = sla.eigh(prob.A.toarray(), prob.B.toarray(), eigvals_only=True,
                       subset_by_index=[first, first])[0]
        assert abs(got - ref) <= 1e-9 * abs(ref), (ell, got, ref)


@pytest.mark.parametrize("n, beta", _SOLVER_POINTS)
def test_numeric_gap_modes_match_one_mode_assembly(n, beta):
    # numeric_gap builds every mode from one pass over the cells: the same
    # bands, hence the same values, as assembling each mode on its own
    disc = Discretization(m=256, delta=1e-3)
    p = MeasureParams(n, beta)
    alone = tuple(lowest_eigs(assemble_mode(ell, p, disc))
                  for ell in range(2 if n == 1 else 4))
    rep = numeric_gap(p, disc)
    # the modes it solves have the same values; those it certifies (None)
    # do not hold the gap
    assert len(rep.mode_eigs) == 2 and any(v is not None for v in rep.mode_eigs)
    assert all(v in (None, a) for v, a in zip(rep.mode_eigs, alone))
    assert (rep.numeric_gap, rep.minimizing_mode) == (min(alone), alone.index(min(alone)))


@pytest.mark.parametrize("m, delta", [(96, 1e-2), (2048, 1e-3)])
def test_bands_on_a_warm_grid_match_a_cold_one(m, delta):
    # the grid's cell rule is built once and read by every later assembly:
    # bands on a grid that has served other points are the cold bands
    disc = Discretization(m=m, delta=delta)

    def bands(n, beta):
        return [(q.A.band, q.B.band) for rays in (True, False)
                for q in spectral._mode_problems(range(4), MeasureParams(n, beta), disc, rays)]

    warm = [bands(n, beta) for n, beta in _SOLVER_POINTS]
    for (n, beta), got in zip(_SOLVER_POINTS, warm):
        spectral._grid_rule.cache_clear()
        for (A, B), (A0, B0) in zip(got, bands(n, beta), strict=True):
            np.testing.assert_array_equal(A, A0)
            np.testing.assert_array_equal(B, B0)


@pytest.mark.parametrize("m", [64, 256])
@pytest.mark.parametrize("where", ["lower", "mid", "upper"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_numeric_gap_mode_cutoff_premise(n, where, m):
    # numeric_gap's cutoff rests on lam_1 >= n - 1 and, for ell >= 2,
    # lam_ell >= lam_{ell-1} + (2 ell + n - 3) on the Galerkin values;
    # measured tightest slack 3.1e-6 relative, at (3, 3.75) with m = 64
    beta = {"lower": n / 2.0 + 0.1, "mid": 0.75 * n + 1.5, "upper": n + 2.0}[where]
    p, disc = MeasureParams(n, beta), Discretization(m=m, delta=1e-3)
    lam = [lowest_eigs(prob) for prob in spectral._mode_problems(range(6), p, disc)]
    assert lam[1] >= (n - 1) * (1.0 - 1e-9)
    for ell in range(2, 6):
        assert lam[ell] - lam[ell - 1] >= (2 * ell + n - 3) * (1.0 - 1e-9), ell
    rep = numeric_gap(p, disc)
    first = lam[:4]
    assert (rep.numeric_gap, rep.minimizing_mode) == (min(first), first.index(min(first)))


@pytest.mark.parametrize("n, beta", [(1, 1.2), (3, 3.8)])
def test_numeric_gap_integrates_the_cells_once(monkeypatch, n, beta):
    # one _cell_integrals call (mass, ell term and gradient), whatever ell_max
    real, calls = spectral._cell_integrals, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spectral, "_cell_integrals", counted)
    for ell_max in (2, 3, 6):
        calls.clear()
        numeric_gap(MeasureParams(n, beta), Discretization(m=96, delta=1e-3), ell_max)
        assert len(calls) == 1, ell_max


def _stock_lowest(prob):
    """The lowest value above the guard's sigma by scipy's stock shift-invert
    Lanczos (ARPACK's eigsh with M = B at sigma) on sparse copies of the
    bands: a reference independent of the package's own solves."""
    A, B = (sparse.diags([M.band[d, :M.shape[0] - d] for d in range(len(M.band))]
                         + [M.band[d, :M.shape[0] - d] for d in range(1, len(M.band))],
                         list(range(len(M.band))) + [-d for d in range(1, len(M.band))],
                         format="csc")
            for M in (prob.A, prob.B))
    sigma = prob._guarded[0]
    vals = eigsh(A, k=3, M=B, sigma=sigma, return_eigenvectors=False)
    return min(v for v in vals if v > sigma)


@pytest.mark.parametrize("n, beta", _SOLVER_POINTS)
def test_one_value_solve_matches_lanczos(n, beta):
    # the one-value solve (inverse iteration at sigma, certified by two
    # counts) against scipy's stock shift-invert Lanczos (_stock_lowest),
    # modes 0-3 at m = 256
    disc = Discretization(m=256, delta=1e-3)
    for prob in spectral._mode_problems(range(4), MeasureParams(n, beta), disc):
        lam = lowest_eigs(prob)
        ref = _stock_lowest(prob)
        assert abs(lam - ref) <= 1e-12 * ref, (prob.ell, lam, ref)


def test_shifted_solve_refuses_a_singular_factor(monkeypatch):
    # a zero column of the hat block, or a singular ray block, gives None
    # (the shift is a value to rounding), never LinAlgError or a non-finite
    # vector; a regular band solves.  A singular factor at sigma is a
    # NumericalBreakdown of the one-value solve
    prob = _mode(1, MeasureParams(3, 3.8), Discretization(m=64, delta=1e-3),
                 tail_rays=False)
    nn = prob.size()
    spd = np.vstack([np.full(nn, 2.0), np.full(nn, 1.0)])
    b = np.linspace(-1.0, 1.0, nn)
    np.testing.assert_allclose(SymBand(spd) @ spectral._shifted_solve(prob, spd)(b), b,
                               rtol=0, atol=1e-12)
    zero = spd.copy()
    zero[:, 0] = 0.0
    assert spectral._shifted_solve(prob, zero) is None
    for beta in (3.0, 3.8):  # one ray, then two
        prob = assemble_mode(1, MeasureParams(3, beta), Discretization(m=64, delta=1e-3))
        nn, nh = prob.size(), prob.size() - len(prob.ray_ks)
        spd = np.vstack([np.full(nn, 2.0), np.full(nn, 1.0), np.zeros(nn)])
        b = np.linspace(-1.0, 1.0, nn)
        np.testing.assert_allclose(SymBand(spd) @ spectral._shifted_solve(prob, spd)(b), b,
                                   rtol=0, atol=1e-12)
        zero = spd.copy()
        zero[1, nh - 1] = zero[0, nh] = 0.0  # w = 0 and R11 = 0
        cases = [zero]
        if len(prob.ray_ks) == 2:
            second = zero.copy()
            second[0, nh:] = 1.0  # S = [[1, 1], [1, 1]]
            cases.append(second)
        for M in cases:
            assert spectral._shifted_solve(prob, M) is None
    monkeypatch.setattr(spectral, "_shifted_solve", lambda problem, shifted: None)
    with pytest.raises(NumericalBreakdown,
                       match=r"ell=1 .*: A - sigma B at .* is singular"):
        lowest_eigs(prob)


def _ldl_solve(band, b):
    """Solve M x = b for M symmetric in lower band storage (band[d, j] =
    M[j+d, j]) by LDL^T without pivoting, in the dtype of `band`."""
    p, nn = len(band) - 1, band.shape[1]
    L = np.zeros_like(band)
    D = np.zeros(nn, dtype=band.dtype)
    for j in range(nn):
        ks = range(1, min(p, j) + 1)
        D[j] = band[0, j] - sum(L[k, j - k] ** 2 * D[j - k] for k in ks)
        for d in range(1, min(p, nn - 1 - j) + 1):
            L[d, j] = (band[d, j] - sum(L[d + k, j - k] * L[k, j - k] * D[j - k]
                                        for k in ks if d + k <= p)) / D[j]
    x = b.copy()
    for j in range(nn):
        for d in range(1, min(p, nn - 1 - j) + 1):
            x[j + d] -= L[d, j] * x[j]
    x /= D
    for j in range(nn - 1, -1, -1):
        for d in range(1, min(p, nn - 1 - j) + 1):
            x[j] -= L[d, j] * x[j + d]
    return x


def _band_eigenvalue(prob, lam):
    """The eigenvalue of prob's double bands next to lam, in extended
    precision: two steps of inverse iteration at lam, then the Rayleigh
    quotient (stable to ~1e-16 at m = 2048)."""
    A = SymBand(prob.A.band.astype(np.longdouble))
    B = SymBand(prob.B.band.astype(np.longdouble))
    shifted = A.band - np.longdouble(lam) * B.band
    # not the all-ones start: on mode 0 that is the constants' eigenvector
    v = np.linspace(1.0, 2.0, prob.size(), dtype=np.longdouble)
    for _ in range(2):
        v = _ldl_solve(shifted, B @ v)
        v /= np.sqrt(v @ v)
    return float((v @ (A @ v)) / (v @ (B @ v)))


# Per-mode values of numeric_gap at m = 2048: the eigenvalues of the double
# bands by _band_eigenvalue (the same iteration in 40-digit mpmath agrees
# with these pins to <= 8.8e-17).
_M2048_MODE_EIGS = {
    (2, 4.0): (8.000018383323905, 6.000000000000099, 12.000013788046303,
               18.0265515577405),
    (3, 3.8): (5.200007036545101, 5.59999999999941, 11.200006062256811,
               17.331670018286832),
    (1, 1.2): (0.6179682832109081, 0.5577700717772193),
}


@pytest.mark.parametrize("n, beta", list(_M2048_MODE_EIGS))
def test_numeric_gap_m2048_pins(n, beta):
    p, disc = MeasureParams(n, beta), Discretization(m=2048, delta=1e-3)
    rep = numeric_gap(p, disc)
    pins = _M2048_MODE_EIGS[n, beta]
    # numeric_gap solves mode 0, mode 1 or both; the rest are solved here
    probs = list(spectral._mode_problems(range(len(pins)), p, disc))
    got = rep.mode_eigs + (None,) * (len(pins) - len(rep.mode_eigs))
    eigs = tuple(lowest_eigs(prob) if v is None else v
                 for prob, v in zip(probs, got))
    np.testing.assert_allclose(eigs, pins, rtol=1e-12, atol=0.0)
    # the pins are the bands' eigenvalues, not an earlier solver's output
    oracle = [_band_eigenvalue(prob, lam) for prob, lam in zip(probs, eigs)]
    np.testing.assert_allclose(oracle, _M2048_MODE_EIGS[n, beta],
                               rtol=1e-14, atol=0.0)


# The assembly oracle.  The upper range's extremal r lies in mode 1's trial
# space (hat coefficients r_i, ray r - R with coefficient 1), so its
# Rayleigh quotient on the bands, formed in extended precision, is
# 2(beta - 1) up to the rounding of the band entries, with no eigensolver.
# Measured worst |relative error| over n = 1..6 and the betas below:
# 1.1e-14 (m = 256), 2.4e-13 (2048), 3.9e-13 (4096); bands whose hat
# products expand moments as r1^2 q0 - 2 r1 q1 + q2 read 4.0e-14 to
# 6.3e-14, 6.0e-13 to 1.2e-12 and 2.9e-12 to 6.5e-12 per n.  What is left
# is the rounding of the stored diagonal sums, amplified by (r/h)^2 where
# the stiffness rows cancel.
_EXTREMAL_BOUND = {256: 2.5e-14, 2048: 4e-13, 4096: 1e-12}


@pytest.mark.parametrize("m", sorted(_EXTREMAL_BOUND))
@pytest.mark.parametrize("n", range(1, 7))
def test_upper_extremal_rayleigh_quotient_measures_the_assembly(n, m):
    disc = Discretization(m=m, delta=1e-3)
    for beta in sorted({n + 1.0, n + 1.5, n + 2.5, n + 4.0, 2.0 * n + 3.0,
                        10.0, 20.0, 30.0, 42.0, 45.0, 60.0}):
        prob = assemble_mode(1, MeasureParams(n, beta), disc)
        A, B = (SymBand(M.band.astype(np.longdouble)) for M in (prob.A, prob.B))
        nh = prob.size() - len(prob.ray_ks)
        x = np.zeros(prob.size(), dtype=np.longdouble)
        x[:nh], x[nh] = prob.radii[1:], 1.0
        rel = float((x @ (A @ x)) / (x @ (B @ x)) / (2.0 * (beta - 1.0)) - 1.0)
        assert abs(rel) <= _EXTREMAL_BOUND[m], (beta, rel)


@pytest.mark.parametrize("n, beta, m", [(n, beta, 256) for n, beta in _SOLVER_POINTS]
                         + [(n, beta, 2048) for n, beta in _M2048_MODE_EIGS])
def test_floored_mode0_matches_the_unshifted_solve(n, beta, m):
    # mode 0 at 0.99 x its first nontrivial closed-form value, where its
    # constants lie under the shift, by inverse iteration (lowest_eigs),
    # against the bands' eigenvalue in extended precision
    # (_band_eigenvalue) next to it
    p = MeasureParams(n, beta)
    prob = assemble_mode(0, p, Discretization(m=m, delta=1e-3))
    lam = lowest_eigs(prob)
    ref = _band_eigenvalue(prob, lam)
    assert abs(lam - ref) <= 2e-12 * ref, (lam, ref)


@pytest.mark.parametrize("n, beta", [(2, 1.5), (3, 3.8)])
def test_lowest_eigs_large_mode_residual_and_inertia(n, beta):
    # nn > 2048, without and with rays: the size range once served by a
    # separate solver path
    disc = Discretization(m=4096, delta=1e-3)
    for ell in (1, 2, 3):
        prob = assemble_mode(ell, MeasureParams(n, beta), disc)
        lam = lowest_eigs(prob)
        # Eigenvector by inverse iteration at the returned value, residual
        # formed in extended precision: in double, the cancelling stiffness
        # rows alone leave a rounding floor near 1e-9 ||Bv|| at (3, 3.8).
        A = SymBand(prob.A.band.astype(np.longdouble))
        B = SymBand(prob.B.band.astype(np.longdouble))
        shifted = A.band - np.longdouble(lam) * B.band
        v = np.ones(prob.size(), dtype=np.longdouble)
        for _ in range(2):
            v = _ldl_solve(shifted, B @ v)
            v /= np.sqrt(v @ v)
        Bv = B @ v
        res = A @ v - np.longdouble(lam) * Bv
        assert np.sqrt(res @ res) <= 1e-10 * np.sqrt(Bv @ Bv)
        # A - lam' B positive definite just below lam: no eigenvalue missed
        sla.cholesky_banded(prob.A.band - lam * (1.0 - 1e-8) * prob.B.band,
                            lower=True)


def _skewed_ray_stiffness(n):
    """A stand-in for spectral._tail_moments at dimension n that returns the
    stiffness moments (powers from n - 3 on) at 1e-6 of their value: each
    tail ray's Rayleigh quotient falls far under every mode's bottom."""
    real = spectral._tail_moments
    return lambda R, cs, d: real(R, cs, d) * (1e-6 if cs.min() == n - 3 else 1.0)


def test_numerical_breakdown_names_the_problem():
    # (3, 200) solves on its grid, truncated where the tail weight is 1e-250
    # (its far mass entries underflowed at R = 1000); handed a mass band
    # whose last entry has underflowed, the guard names the problem
    p, disc = MeasureParams(3, 200.0), Discretization(m=256, delta=1e-3)
    assert abs(numeric_gap(p, disc).rel_error) <= 1e-12
    prob = assemble_mode(0, p, disc)
    band = prob.B.band.copy()
    band[0, -1] = -4.88e-319
    with pytest.raises(NumericalBreakdown, match=r"ell=0 \(n=3, beta=200, nn=258\)"):
        lowest_eigs(dataclasses.replace(prob, B=SymBand(band)))


@pytest.mark.parametrize("n, beta", [(1, 53.6), (3, 54.6)])
def test_breakdown_names_the_smallest_mass_entry(n, beta):
    # far ray mass entries that underflow to negative subnormals, not
    # zeros: the reason says so and names the smallest
    p, disc = MeasureParams(n, beta), Discretization(m=64, delta=1e-3)
    assert abs(numeric_gap(p, disc).rel_error) <= 1e-12
    prob = assemble_mode(0, p, disc)
    band = prob.B.band.copy()
    band[0, -2:] = -3e-320, -1e-310  # the two rays
    with pytest.raises(NumericalBreakdown,
                       match=r"ell=0 .*: mass entries not positive "
                             r"\(smallest \S+\)") as err:
        lowest_eigs(dataclasses.replace(prob, B=SymBand(band)))
    assert float(re.search(r"\(smallest (\S+)\)", str(err.value)).group(1)) == -1e-310


# Where the far tail-ray and mass entries were subnormal on the grid that
# ended at R = 1000 for every beta: numeric_gap returned values 66-100% low
# there before the floor, and raised after it.  They solve now.
_SILENT_WRONG = [(1, 53.4), (1, 53.5), (1, 53.9), (1, 54.0),
                 (3, 54.4), (3, 54.5), (3, 54.9), (3, 55.0)]


@pytest.mark.parametrize("m", [512, 2048])
def test_numeric_gap_raises_under_the_closed_form_bottom(monkeypatch, m):
    # with the rays' stiffness skewed (_skewed_ray_stiffness), numeric_gap
    # refuses the Galerkin values under mode 0's bottom, and each ell >= 1
    # solve its own
    disc = Discretization(m=m, delta=1e-3)
    for n, beta in _SILENT_WRONG:
        p = MeasureParams(n, beta)
        assert abs(numeric_gap(p, disc).rel_error) <= 1e-12
        monkeypatch.setattr(spectral, "_tail_moments", _skewed_ray_stiffness(n))
        with pytest.raises(NumericalBreakdown,
                           match=r"ell=0 .* below sigma = .* closed-form bottom"):
            numeric_gap(p, disc)
        for prob in spectral._mode_problems(range(1, 2 if n == 1 else 4), p, disc):
            with pytest.raises(NumericalBreakdown,
                               match=r"A - sigma B at sigma = .* closed-form bottom"):
                lowest_eigs(prob)
        monkeypatch.undo()
    # just below the window
    rep = numeric_gap(MeasureParams(1, 53.0), disc)
    assert abs(rep.numeric_gap - 104.0) <= 1e-12 * 104.0


# Points that broke down on the grid that ended at R = 1000 for every beta
# (all but (3, 42)), and two where a 26-term tail series broke down on this
# grid; measured worst |rel_error| 1.5e-14 at m = 256 and 4.9e-13 at
# m = 2048, at (3, 200).
_LARGE_BETA = [(3, 200.0), (6, 120.0), (1, 54.0), (3, 54.5), (2, 60.0), (3, 42.0),
               (4, 1100.0), (1, 3e4)]


@pytest.mark.parametrize("m", [256, 2048])
@pytest.mark.parametrize("n, beta", _LARGE_BETA)
def test_numeric_gap_at_large_beta(n, beta, m):
    rep = numeric_gap(MeasureParams(n, beta), Discretization(m=m, delta=1e-3))
    assert rep.range_tag == "upper"
    assert abs(rep.rel_error) <= 1e-12, rep


# mpmath values (scripts/make_oracle_values.py) of the tail moments past
# the cap R_beta of (6, 1e5), R = 0.076 < 1, where the 2F1 series in
# -1/R^2 is asymptotic (a R^2 = 577) and stops after 7 terms past the
# leading 1; measured within 3.8e-14.  Moments off by 5.2e-8 here broke
# numeric_gap's inertia count.
_FAR_TAIL_R = 0.07598162769871525
_FAR_TAIL_PINS = {
    (5, 100000): 1.6579516271909491e-260,
    (6, 100000): 1.2608388383622835e-261,
    (7, 100000): 9.5884328505592199e-263,
    (8, 100000): 7.2918212650748879e-264,
    (9, 100000): 5.5452959567615675e-265,
    (3, 99999): 2.883379528382136e-258,
    (4, 99999): 2.192748784000802e-259,
    (5, 99999): 1.6675400600415083e-260,
    (6, 99999): 1.2681306596273583e-261,
    (7, 99999): 9.6438858101268355e-263,
}


def test_tail_moments_past_the_binomial_series():
    p, disc = MeasureParams(6, 1e5), Discretization(m=64, delta=1e-3)
    assert float(disc.radii(p)[-1]) == _FAR_TAIL_R
    for (c, d), value in _FAR_TAIL_PINS.items():
        np.testing.assert_allclose(_tail_moment(_FAR_TAIL_R, c, d), value,
                                   rtol=1e-12, atol=0)
    rep = numeric_gap(p, disc)
    assert rep.range_tag == "upper"
    assert abs(rep.rel_error) <= 1e-12, rep


# mpmath values (scripts/make_oracle_values.py) of the tail moments past
# the cap R_beta of (6, 1e7), R = 0.0076, where a R^2 = 576, near (6, 1e5)'s
# 577 while a grew a hundredfold: the same 7 terms; measured within 2.4e-14
_FARTHEST_TAIL_R = 0.007587245784327266
_FARTHEST_TAIL_PINS = {
    (5, 10000000): 1.6625629331474814e-266,
    (6, 10000000): 1.2625259049926485e-268,
    (7, 10000000): 9.5874437814673516e-271,
    (8, 10000000): 7.2805751937660596e-273,
    (9, 10000000): 5.5287745681470605e-275,
    (3, 9999999): 2.8832328082578569e-262,
    (4, 9999999): 2.1894814026126282e-264,
    (5, 9999999): 1.6626588075852961e-266,
    (6, 9999999): 1.2625987107445862e-268,
    (7, 9999999): 9.5879966589241663e-271,
}


def test_tail_moments_and_gap_at_beta_1e7():
    p, disc = MeasureParams(6, 1e7), Discretization(m=64, delta=1e-3)
    assert float(disc.radii(p)[-1]) == _FARTHEST_TAIL_R
    for (c, d), value in _FARTHEST_TAIL_PINS.items():
        np.testing.assert_allclose(_tail_moment(_FARTHEST_TAIL_R, c, d), value,
                                   rtol=1e-12, atol=0)
    rep = numeric_gap(p, disc)
    assert rep.range_tag == "upper"
    assert abs(rep.rel_error) <= 1e-12, rep


def _domain_betas(n):
    return sorted({n / 2 + 0.05, n / 2 + 0.5, n / 2 + 1.5, n / 2 + 2.5, n + 1.5,
                   n + 4.0, 10.0, 20.0, 40.0, 42.0, 54.5, 60.0, 120.0, 200.0})


# The sweep's worst |rel_error| per range, measured: mid 1.50e-3 at m = 64
# and 9.24e-5 at m = 256, both at (4, 4.5); upper 6.7e-15 and 6.1e-14.
_DOMAIN_BOUND = {64: {"mid": 1.6e-3, "upper": 1e-12}, 256: {"mid": 1e-4, "upper": 1e-12}}


@pytest.mark.parametrize("m", [64, 256])
@pytest.mark.parametrize("n", range(1, 7))
def test_numeric_gap_domain_sweep(n, m):
    # the whole domain beta > n/2, up to beta = 200: no breakdown, the lower
    # range (the edge of the essential spectrum) never under the edge, and
    # the mid and upper ranges within the measured bounds above
    disc = Discretization(m=m, delta=1e-3)
    for beta in _domain_betas(n):
        rep = numeric_gap(MeasureParams(n, beta), disc)
        if rep.range_tag == "lower":
            assert rep.numeric_gap >= rep.closed_form - 1e-6, rep
        else:
            assert abs(rep.rel_error) <= _DOMAIN_BOUND[m][rep.range_tag], rep


# The lower range at large n, beta = n/2 + 1 (edge 1): the bands' rounding
# swamps the values there, and numeric_gap returned 0.99 x the edge (the
# shift) at n = 30, 40 and 60, which the guard's count under sigma passes.
# A value is now returned only where its bracket's two counts hold.
@pytest.mark.parametrize("m", [64, 256, 2048])
@pytest.mark.parametrize("n", [16, 30, 40, 60])
def test_numeric_gap_at_large_n_is_bracketed_or_refused(n, m):
    try:
        rep = numeric_gap(MeasureParams(n, n / 2 + 1), Discretization(m=m, delta=1e-3))
    except NumericalBreakdown as exc:
        assert "Galerkin values below" in str(exc)
        return
    assert rep.range_tag == "lower"
    assert rep.numeric_gap >= rep.closed_form * (1.0 - 1e-12), rep
    lo, hi = rep.mode_brackets[rep.minimizing_mode]
    assert lo < rep.numeric_gap < hi


# Deep in the lower range (beta - n/2 <= 0.05) the rounding of a value and
# of its count grows about as m^2: the measured worst distance from a value
# to the point where its count steps is 2.6e-11 at m = 2048, 9.2e-11 at
# 8192 and 3.2e-10 at 16384 (at (5, 2.52)), so no fixed bracket holds at
# every m.  Each bracket contains scipy's stock shift-invert Lanczos value
# of the same problem (_stock_lowest).
@pytest.mark.parametrize("m", [8192, 16384])
@pytest.mark.parametrize("n, beta", [(1, 0.51), (3, 1.52), (5, 2.52)])
def test_deep_lower_range_is_bracketed_at_large_m(n, beta, m):
    p, disc = MeasureParams(n, beta), Discretization(m=m, delta=1e-3)
    rep = numeric_gap(p, disc)
    (prob,) = spectral._mode_problems((rep.minimizing_mode,), p, disc)
    ref = _stock_lowest(prob)
    lo, hi = rep.mode_brackets[rep.minimizing_mode]
    assert lo < rep.numeric_gap < hi and lo < ref < hi, (rep, ref)


def _tail_exponents(n, beta):
    """Every (c, d) of a tail moment the assembly reads at (n, beta): c =
    n-1+p+q against beta (the mass) and c = n-3+p+q against beta - 1 (the
    ell term), p and q over 0 and the admissible rays."""
    powers = (0,) + spectral._admissible_rays(n, beta)
    sums = {p + q for p in powers for q in powers}
    return {(n - 1 + s, beta) for s in sums} | {(n - 3 + s, beta - 1.0) for s in sums}


@pytest.mark.parametrize("n", range(1, 7))
def test_tail_moments_satisfy_their_recurrences(n):
    # no closed form: at the grid end R of the domain sweep and past it to
    # beta = 1e7, every moment T(c, d) the assembly reads with
    # a = d - (c+1)/2 >= 1e-3 (below, the relations' own d + 1 perturbs a)
    # meets the contiguous relation T(c, d) = T(c, d+1) + T(c+2, d+1) and
    # integration by parts, 2d T(c+2, d+1) = R^(c+1) (1+R^2)^(-d) +
    # (c+1) T(c, d); each residual relative to its largest summand
    worst = 0.0
    for beta in _domain_betas(n) + [1100.0, 3e4, 1e5, 1e7]:
        for m in (64, 2048):
            for delta in (1e-3, 0.2):
                R = float(Discretization(m=m, delta=delta).radii(MeasureParams(n, beta))[-1])
                for c, d in _tail_exponents(n, beta):
                    if d - (c + 1) / 2.0 < 1e-3:
                        continue
                    T0, T1, T2 = (_tail_moment(R, c, d), _tail_moment(R, c, d + 1.0),
                                  _tail_moment(R, c + 2.0, d + 1.0))
                    edge = math.exp((c + 1) * math.log(R) - d * math.log1p(R * R))
                    for terms in ((T0, -T1, -T2), (2.0 * d * T2, -edge, -(c + 1) * T0)):
                        worst = max(worst, abs(sum(terms)) / max(map(abs, terms)))
    assert worst <= 1e-12, worst


# mpmath values (scripts/make_oracle_values.py) of every tail moment the
# assembly reads, keyed by (n, beta, delta) on the m = 64 grid, with its R:
# at (3, 3.5 + 1e-6) the ray k = 2 is admitted with a = 1e-6 at c = 6, and
# at delta = 0.2, R = 4.93, the series is longest (13 terms past the
# leading 1); measured within 7.4e-15
_EDGE_TAIL_PINS = {
    (3, 3.500001, 0.001): (999.9996666666938, {
        (2, 3.500001): 2.4999617115155788e-13,
        (3, 3.500001): 3.3332813931458636e-10,
        (4, 3.500001): 4.9999205064113412e-7,
        (5, 3.500001): 0.0009999833512956206,
        (6, 3.500001): 499993.09222113225,
        (0, 2.500001): 2.4999633781576226e-13,
        (1, 2.500001): 3.3332833931157662e-10,
        (2, 2.500001): 4.9999230063730527e-7,
        (3, 2.500001): 0.00099998368462375992,
        (4, 2.500001): 499993.09222163224,
    }),
    (1, 1.2, 0.2): (4.933154875586893, {
        (0, 1.2): 0.074961250643556608,
        (-2, 0.19999999999999996): 0.076216249128649161,
    }),
    (3, 3.8, 0.2): (4.933154875586893, {
        (2, 3.8): 0.00012664334903952434,
        (3, 3.8): 0.00080502025810970413,
        (4, 3.8): 0.0055653065437562946,
        (5, 3.8): 0.045454735597080055,
        (6, 3.8): 0.61786295853436482,
        (0, 2.8): 0.0001302309799348885,
        (1, 2.8): 0.00082597800614634859,
        (2, 2.8): 0.005691949892795819,
        (3, 2.8): 0.046259755855189759,
        (4, 2.8): 0.62342826507812112,
    }),
}


@pytest.mark.parametrize("n, beta, delta", list(_EDGE_TAIL_PINS))
def test_tail_moments_at_the_ray_edge_and_the_widest_delta(n, beta, delta):
    R, pins = _EDGE_TAIL_PINS[n, beta, delta]
    assert float(Discretization(m=64, delta=delta).radii(MeasureParams(n, beta))[-1]) == R
    assert set(pins) == _tail_exponents(n, beta)
    for (c, d), value in pins.items():
        np.testing.assert_allclose(_tail_moment(R, c, d), value, rtol=1e-12, atol=0)


def _dense_negatives(M):
    """Negative eigenvalues of the symmetric band M by a dense eigvalsh, after
    the congruence by D = diag(M)^(-1/2) (Sylvester: the same inertia) that
    brings the far rows (their weight down to 1e-250) to unit scale, where
    eigvalsh sees signs."""
    d = 1.0 / np.sqrt(np.abs(M[0]))
    return int(np.sum(np.linalg.eigvalsh(SymBand(M).toarray() * d[:, None] * d) < 0.0))


# the silent-wrong points and their neighbours 0.1 apart in beta (whose far
# ray mass entries were negative on the grid that ended at R = 1000), and a
# point with a single tail ray (k = 1): all at m = 64, and the silent-wrong
# points and the one-ray point at m = 256 as well
_INERTIA_POINTS = sorted({(n, round(beta + db, 1)) for n, beta in _SILENT_WRONG
                          for db in (-0.1, 0.0, 0.1)} | {(3, 3.0)})
_INERTIA_CASES = ([(n, beta, 64) for n, beta in _INERTIA_POINTS]
                  + [(n, beta, 256) for n, beta in _SILENT_WRONG + [(3, 3.0)]])


@pytest.mark.parametrize("n, beta, m", _INERTIA_CASES)
def test_inertia_counts_the_values_under_the_shift(n, beta, m):
    # _inertia against a dense count on the same band, on every mode with and
    # without rays, at the floored shift, between consecutive closed-form
    # values (the lowest four) and, where the mass diagonal is positive,
    # between consecutive Galerkin values (the lowest six, from the scaled
    # dense pencil)
    p, disc = MeasureParams(n, beta), Discretization(m=m, delta=1e-3)
    for tail_rays in (True, False):
        for prob in spectral._mode_problems(range(2 if n == 1 else 4), p, disc,
                                            tail_rays):
            assert prob.ray_ks == (((1, 2) if beta > 4 else (1,))
                                   if tail_rays else ())
            table = np.array(mode_spectrum(p, prob.ell))
            shifts = [spectral._floor_shift(table[1 if prob.ell == 0 else 0])[0]]
            shifts += list(0.5 * (table[:3] + table[1:4]))
            lam = []
            if np.all(prob.B.band[0] > 0.0):
                d = 1.0 / np.sqrt(prob.B.band[0])
                lam = sla.eigh(prob.A.toarray() * d[:, None] * d,
                               prob.B.toarray() * d[:, None] * d,
                               eigvals_only=True, subset_by_index=[0, 5])
                shifts = [lam[0] - 1.0] + list(0.5 * (lam[:-1] + lam[1:])) + shifts
            for j, sigma in enumerate(shifts):
                M = prob.A.band - sigma * prob.B.band
                dense = _dense_negatives(M)
                assert spectral._inertia(prob, M, "M") == dense, (prob.ell, sigma)
                if j < len(lam):
                    assert dense == j, (prob.ell, sigma, lam)


def test_floored_breakdown_reports_the_count(monkeypatch):
    # at (1, 54.0), with each mode's first nontrivial closed-form value 1.5x
    # too high (mode 0: 315 for 210, mode 1: 159 for 106), the shift sits
    # above one Galerkin value past the closed form's: mode 0 has two values
    # under it where the closed form has the constants only, mode 1 one
    # where it has none
    real = spectral._mode_head

    def skewed(params, ell):
        vals = list(real(params, ell))
        vals[1 if ell == 0 else 0] *= 1.5
        return vals

    monkeypatch.setattr(spectral, "_mode_head", skewed)
    p, disc = MeasureParams(1, 54.0), Discretization(m=512, delta=1e-3)
    for prob in spectral._mode_problems(range(2), p, disc):
        closed = 1 if prob.ell == 0 else 0
        with pytest.raises(NumericalBreakdown,
                           match=f"puts {closed + 1} Galerkin values below sigma "
                                 f"= .*, where the closed-form bottom has {closed}"):
            lowest_eigs(prob)


def test_slow_solves_refactor_once_on_the_sweep(monkeypatch):
    # spectral_sweep's eight points at m = 2048: the dgttrs solves of
    # numeric_gap, one per inverse-iteration step and one per factor with
    # tail rays (its Schur column).  With every step at sigma they took 87;
    # refactoring once at the running value, where the steps at sigma are
    # slow (the lower range, and mode 0 in the mid range), takes 56
    real, calls = lapack.dgttrs, []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(lapack, "dgttrs", counted)
    disc = Discretization(m=2048, delta=1e-3)
    for n, beta in [(1, 1.2), (1, 3.0), (2, 1.5), (2, 4.0), (3, 2.0), (3, 3.8),
                    (3, 5.0), (3, 200.0)]:
        numeric_gap(MeasureParams(n, beta), disc)
    assert len(calls) <= 64, len(calls)


def test_singular_refactor_stops_at_the_bracket(monkeypatch):
    # a singular factor at the running value stops the steps, and the
    # bracket's counts judge that value; made to read singular here, the
    # factor meets a value that has converged to about 1e-3 only, which
    # the counts refuse instead of returning it
    real, calls = spectral._shifted_solve, []

    def second_singular(problem, shifted):
        calls.append(None)
        return real(problem, shifted) if len(calls) == 1 else None

    monkeypatch.setattr(spectral, "_shifted_solve", second_singular)
    prob = assemble_mode(0, MeasureParams(3, 2.0), Discretization(m=256, delta=1e-3))
    with pytest.raises(NumericalBreakdown, match="the counts at"):
        lowest_eigs(prob)
    assert len(calls) == 2


def test_numeric_gap_at_2_42_on_the_delta_1e2_truncation():
    # the upper range: the gap is 2(beta - 1) = 82, on mode 1, whose
    # extremal r lies in the trial space; delta = 1e-3, 0.05 and 0.2 give
    # it to rounding; at delta = 1e-2 mode 0's last hat and ray entries are
    # near 1e-160, and the count's ray products w w / d, whose w^2
    # underflowed to 0, put a second value under 0.99 x its bottom 160
    rep = numeric_gap(MeasureParams(2, 42.0), Discretization(m=256, delta=1e-2))
    assert rep.minimizing_mode == 1 and abs(rep.rel_error) <= 1e-12


@pytest.mark.parametrize("m", [64, 256])
@pytest.mark.parametrize("n, beta", _SOLVER_POINTS)
def test_certified_mode_lies_above_the_gap(n, beta, m):
    # numeric_gap certifies a mode by its count under sigma instead of
    # solving it; against every mode 0-3 solved on its own, the gap and its
    # mode are the minimum's, and each certified mode's value is at least
    # its sigma, which is at least the gap
    p, disc = MeasureParams(n, beta), Discretization(m=m, delta=1e-3)
    alone = [lowest_eigs(prob)
             for prob in spectral._mode_problems(range(2 if n == 1 else 4), p, disc)]
    rep = numeric_gap(p, disc)
    assert (rep.numeric_gap, rep.minimizing_mode) == (min(alone), alone.index(min(alone)))
    for ell, (v, bottom) in enumerate(zip(rep.mode_eigs, rep.mode_bottoms)):
        if v is None:
            assert alone[ell] >= 0.99 * bottom >= rep.numeric_gap, ell


def test_numeric_gap_solves_both_sectors_where_sigma_is_under_the_gap():
    # on the line at beta = 1.2 both bottoms are the edge 0.49, and either
    # sigma (0.4851) lies under the other mode's value: both are solved
    rep = numeric_gap(MeasureParams(1, 1.2), Discretization(m=256, delta=1e-3))
    assert rep.mode_bottoms[0] == rep.mode_bottoms[1]
    assert None not in rep.mode_eigs
    assert rep.minimizing_mode == 1 and rep.numeric_gap == rep.mode_eigs[1] < rep.mode_eigs[0]


def test_numeric_gap_solves_eight_modes_on_the_sweep(monkeypatch):
    # spectral_sweep's seven solvable points: one solve each, and two at
    # (1, 1.2); solving mode 0 and mode 1 everywhere took 12
    real, calls = spectral.lowest_eigs, []

    def counted(problem):
        calls.append((problem.params.n, problem.params.beta, problem.ell))
        return real(problem)

    monkeypatch.setattr(spectral, "lowest_eigs", counted)
    disc = Discretization(m=256, delta=1e-3)
    for n, beta in [(1, 1.2), (1, 3.0), (2, 1.5), (2, 4.0), (3, 2.0), (3, 3.8),
                    (3, 5.0)]:
        numeric_gap(MeasureParams(n, beta), disc)
    assert calls == [(1, 1.2, 0), (1, 1.2, 1), (1, 3.0, 1), (2, 1.5, 0),
                     (2, 4.0, 1), (3, 2.0, 0), (3, 3.8, 0), (3, 5.0, 1)]


def test_numeric_gap_guards_each_mode_once(monkeypatch):
    # spectral_sweep's seven solvable points: one guard count (under sigma)
    # per mode problem, modes 0 and 1 at each point, whether the mode is then
    # solved or certified; guarding each solved mode again took 22.  Each
    # solved value then takes the two counts of its bracket, at its ends
    real, calls = spectral._inertia, []

    def counted(problem, shifted, what):
        kind = "guard" if what.startswith("A - sigma B at sigma") else what
        calls.append((kind, problem.params.n, problem.params.beta, problem.ell))
        return real(problem, shifted, what)

    monkeypatch.setattr(spectral, "_inertia", counted)
    disc = Discretization(m=256, delta=1e-3)
    points = [(1, 1.2), (1, 3.0), (2, 1.5), (2, 4.0), (3, 2.0), (3, 3.8), (3, 5.0)]
    reports = [numeric_gap(MeasureParams(n, beta), disc) for n, beta in points]
    assert [c[1:] for c in calls if c[0] == "guard"] == [
        (n, beta, ell) for n, beta in points for ell in (0, 1)]
    solved = [(1, 1.2, 0), (1, 1.2, 1), (1, 3.0, 1), (2, 1.5, 0), (2, 4.0, 1),
              (3, 2.0, 0), (3, 3.8, 0), (3, 5.0, 1)]
    brackets = [c for c in calls if c[0] != "guard"]
    assert [c[1:] for c in brackets] == [s for s in solved for _ in range(2)]
    ends = [rep.mode_brackets[ell] for rep in reports for ell in (0, 1)
            if rep.mode_brackets[ell] is not None]
    assert [c[0] for c in brackets] == [f"A - mu B at mu = {end:.17g} (bracket)"
                                        for pair in ends for end in pair]


def test_numeric_gap_counts_the_certified_mode(monkeypatch):
    # mid range: mode 0 is solved and mode 1 certified by its count alone;
    # with mode 1's closed form 10x high its sigma lies over Galerkin
    # values, and the count refuses it where no solve runs
    real = spectral._mode_head

    def high(params, ell):
        vals = real(params, ell)
        return [10.0 * v for v in vals] if ell == 1 else vals

    monkeypatch.setattr(spectral, "_mode_head", high)
    with pytest.raises(NumericalBreakdown,
                       match=r"ell=1 .* puts [1-9]\d* Galerkin values below sigma "
                             r"= .*, where the closed-form bottom has 0"):
        numeric_gap(MeasureParams(3, 3.8), Discretization(m=256, delta=1e-3))


@pytest.mark.parametrize("tail_rays", [True, False])
@pytest.mark.parametrize("n, beta", _SOLVER_POINTS)
def test_inertia_matches_the_dense_count(n, beta, tail_rays):
    # the dpttrf count, restarted past each negative pivot, against the
    # negative eigenvalues of the dense A - mu B, from under the bottom to
    # past several values
    p, disc = MeasureParams(n, beta), Discretization(m=64, delta=1e-3)
    for prob in spectral._mode_problems(range(3), p, disc, tail_rays):
        bottom = spectral._mode_bottom(p, prob.ell)
        for factor in (0.5, 0.99, 1.2, 3.0):
            M = prob.A.band - factor * bottom * prob.B.band
            assert spectral._inertia(prob, M, "M") == _dense_negatives(M), (prob.ell, factor)


@pytest.mark.parametrize("ell", [0, 1])
def test_bracket_refuses_a_value_off_its_count(ell):
    # the certified value passes its two counts; moved by 10 eps (the
    # bracket's relative half-width), below (both counts read the closed
    # form's) or above (both read one more), it is refused
    prob = assemble_mode(ell, MeasureParams(3, 3.8), Discretization(m=256, delta=1e-3))
    closed = prob._guarded[1]
    lam = lowest_eigs(prob)
    spectral._bracket(prob, lam)
    eps = spectral.BRACKET_EPS_SCALE * prob.size() ** 2
    for factor, counts in ((1.0 - 10.0 * eps, closed), (1.0 + 10.0 * eps, closed + 1)):
        with pytest.raises(NumericalBreakdown,
                           match=rf"ell={ell} .*: the counts at .* and .*, around lam = .*, "
                                 rf"put {counts} and {counts} Galerkin values "
                                 rf"below, where the lowest nontrivial value needs "
                                 rf"{closed} and {closed + 1}"):
            spectral._bracket(prob, lam * factor)


def test_inertia_refuses_zero_and_nan_pivots():
    prob = _mode(1, MeasureParams(3, 3.8), Discretization(m=64, delta=1e-3),
                 tail_rays=False)
    nn = prob.size()
    spd = np.vstack([np.full(nn, 2.0), np.full(nn, 1.0)])
    assert spectral._inertia(prob, spd, "M") == 0
    zero = spd.copy()
    zero[0, 1] = 0.5  # d_1 = 0.5 - 1/2
    nan = spd.copy()
    nan[0, 40] = np.nan  # dpttrf passes it on
    inf = spd.copy()
    inf[:, 10] = np.inf  # inf/inf makes the next pivot NaN
    for M in (zero, nan, inf):
        with pytest.raises(NumericalBreakdown, match="M has a zero or NaN pivot"):
            spectral._inertia(prob, M, "M")
    # the ray block's pivots: S11 after one ray (3.0) or two (3.8), and
    # S22 - S21^2/S11 after two
    for beta in (3.0, 3.8):
        prob = assemble_mode(1, MeasureParams(3, beta), Discretization(m=64, delta=1e-3))
        nn, nh = prob.size(), prob.size() - len(prob.ray_ks)
        spd = np.vstack([np.full(nn, 2.0), np.full(nn, 1.0), np.zeros(nn)])
        assert spectral._inertia(prob, spd, "M") == 0
        zero = spd.copy()
        zero[1, nh - 1] = zero[0, nh] = 0.0  # w = 0 and R11 = 0
        nan = spd.copy()
        nan[0, nh] = np.nan
        cases = [zero, nan]
        if len(prob.ray_ks) == 2:
            second = zero.copy()
            second[0, nh:] = 1.0  # S = [[1, 1], [1, 1]]
            cases.append(second)
        for M in cases:
            with pytest.raises(NumericalBreakdown, match="M has a zero or NaN pivot"):
                spectral._inertia(prob, M, "M")


def _underflow_band(prob):
    """A band on the layout of prob (two rays) whose ray products underflow
    in the w w / d form: ray couplings w = 1e-170 to a last hat of pivot
    d = 1e-300 (decoupled from an SPD hat block), so w_i w_j = 1e-340
    rounds to 0 while w_i (w_j / d) = 1e-40 does not.  The ray block
    R = [[0.5, 1], [1, 0.5]] 1e-40 then has the Schur complement
    S = R - w w' / d = -0.5e-40 I: two negative values."""
    nn = prob.size()
    nh = nn - 2
    band = np.zeros((3, nn))
    band[0, :nh - 1], band[1, :nh - 2] = 2.0, 1.0
    band[0, nh - 1] = 1e-300
    band[1, nh - 1] = band[2, nh - 1] = 1e-170
    band[0, nh:], band[1, nh] = 0.5e-40, 1e-40
    return band


def test_ray_products_survive_underflow():
    # the count's three ray products and the solve's Schur product against
    # the dense reference after the congruence by diag(M)^(-1/2), which
    # brings every row to unit scale (Sylvester: the same inertia)
    prob = assemble_mode(1, MeasureParams(3, 3.8), Discretization(m=64, delta=1e-3))
    assert len(prob.ray_ks) == 2
    band = _underflow_band(prob)
    assert _dense_negatives(band) == 2
    assert spectral._inertia(prob, band, "M") == 2
    d = 1.0 / np.sqrt(np.abs(band[0]))
    b = np.linspace(1.0, 2.0, prob.size()) / d
    ref = np.linalg.solve(SymBand(band).toarray() * d[:, None] * d, b * d) * d
    got = spectral._shifted_solve(prob, band)(b)
    np.testing.assert_allclose(got / d, ref / d, rtol=1e-12, atol=1e-12)


def test_spectral_refusals():
    # the line family past its epsilon limit (2 beta - 3)/4, NaN included
    p = MeasureParams(1, 2.0)
    assert spectral.RAYLEIGH_EPS_LIMIT["oned"](1, 2.0) == 0.25
    assert spectral.RAYLEIGH_EPS_LIMIT["power"](2, 1.8) == (2.0 * 1.8 - 2.0) / 4.0
    for eps in (0.25, 0.3, np.nan):
        with pytest.raises(ValueError, match=r"is not below 0.25: x \(1\+x\^2\)\^eps "
                                             r"is not square-integrable"):
            rayleigh_quotient_1d(eps, p)
    with pytest.raises(ValueError, match="is not below 0.4: f is not square-integrable"):
        rayleigh_quotient_power(np.nan, MeasureParams(2, 1.8))
    # int_R^inf r^c (1+r^2)^(-d) dr needs 2d - c > 1
    with pytest.raises(ValueError, match="tail moment diverges"):
        _tail_moment(10.0, 2.0, 1.5)
    disc = Discretization(m=64, delta=1e-2)
    with pytest.raises(ValueError, match="mode degree must be nonnegative"):
        assemble_mode(-1, MeasureParams(2, 3.0), disc)
    # a non-finite band entry is a breakdown before any factorization
    prob = assemble_mode(1, MeasureParams(2, 3.0), disc)
    for name in ("A", "B"):
        band = getattr(prob, name).band.copy()
        band[0, 5] = np.inf if name == "A" else np.nan
        bad = dataclasses.replace(prob, **{name: SymBand(band)})
        with pytest.raises(NumericalBreakdown, match=r"ell=1 \(n=2, beta=3, nn=\d+\): "
                                                     r"non-finite band entries"):
            lowest_eigs(bad)
