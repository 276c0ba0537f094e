import dataclasses
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from cauchygap import functions
from cauchygap.functions import make_power_family, make_random_test
from cauchygap.measures import MeasureParams, mean_sq_norm, omega_moment
from cauchygap import quadrature
from cauchygap.quadrature import (
    VERIFY_GRID,
    QuadratureSpec,
    default_nd_spec,
    integrate_nd,
    lowfact_coefficients,
    lowfact_epsilon_scan,
    lowfact_sign_check,
    verify_all,
)
from cauchygap.spectral import GAP_FORMULA, range_edges

ALL_TAGS = ("IPP1", "IPP2", "IPP3", "IPP4", "GAMMABIS", "GRG",
            "IRG", "LOWFACT", "ONED_SPLIT", "ONED_LOW")


def test_integrate_nd_moments():
    # quadrature reproduces the Gamma-function moments in every dimension
    for n, beta in [(1, 1.0), (1, 2.5), (2, 1.4), (2, 3.0), (3, 2.0), (3, 4.0)]:
        p = MeasureParams(n, beta)
        spec = default_nd_spec(n)
        one = integrate_nd(lambda x: np.ones(x.shape[0]), p, spec)
        assert np.isclose(one, 1.0, rtol=1e-12)
        for g in (0.5, 1.0, 2.0):
            val = integrate_nd(
                lambda x: (1.0 + np.sum(x * x, axis=-1)) ** (-g), p, spec
            )
            assert np.isclose(val, omega_moment(g, p), rtol=1e-11)


def test_integrate_nd_mean_sq_norm():
    for n, beta in [(1, 2.5), (2, 3.0), (3, 3.5)]:
        p = MeasureParams(n, beta)
        val = integrate_nd(
            lambda x: np.sum(x * x, axis=-1), p, default_nd_spec(n)
        )
        assert np.isclose(val, mean_sq_norm(p), rtol=1e-9)


def test_integrate_nd_growing_power():
    # positive powers of w stress the tail handling of the compactified rule
    p = MeasureParams(2, 3.0)
    f = make_power_family(0.4)
    val = integrate_nd(lambda x: f.value(x), p, default_nd_spec(2))
    assert np.isclose(val, omega_moment(-0.4, p), rtol=1e-10)


def test_integrate_nd_support_and_seam_hints():
    # seam-pinned panels converge at once; truncation alone needs many more
    # nodes to beat down the kink error, and the un-hinted open-domain rule
    # only gets within ~1e-3 (its tail panels cannot refine across the seams)
    p = MeasureParams(2, 1.5)
    f = make_random_test(2, 2)
    spec = default_nd_spec(2)
    hinted = integrate_nd(lambda x: f.value(x), p, spec,
                          support_radius=f.support_radius,
                          seams=f.radial_seams)
    dense = integrate_nd(lambda x: f.value(x), p,
                         QuadratureSpec("polar_2d", nodes=4096),
                         support_radius=f.support_radius)
    assert np.isclose(hinted, dense, rtol=1e-10)
    base = integrate_nd(lambda x: f.value(x), p, spec)
    assert np.isclose(base, hinted, rtol=2e-3)


def _whole_rule(p, spec, support_radius=None, seams=()):
    blocks = list(quadrature._node_blocks(p, spec, support_radius, seams))
    return (np.concatenate([x for x, *_ in blocks]),
            np.concatenate([w for _, w, *_ in blocks]))


def test_integrate_nd_stacked_fields_match_separate_calls():
    # a stack of fields integrates to the separate scalar integrals, and the
    # blocked sums to the whole-array sum, on an open and a compact rule
    bump = make_random_test(2, 2)
    cases = [(MeasureParams(3, 4.0), None, ()),
             (MeasureParams(2, 1.5), bump.support_radius, bump.radial_seams)]
    for p, radius, seams in cases:
        spec = default_nd_spec(p.n)
        parts = [lambda x: x[:, 0] ** 2 + x[:, -1],
                 lambda x: 1.0 / (1.0 + np.sum(x * x, axis=-1)),
                 lambda x: np.cos(x[:, 0]) * np.sum(x * x, axis=-1) ** 0.25]
        if radius is not None:
            parts.append(bump.value)
        stacked = integrate_nd(lambda x: np.stack([g(x) for g in parts]), p, spec,
                               support_radius=radius, seams=seams)
        assert stacked.shape == (len(parts),)
        pts, wts = _whole_rule(p, spec, radius, seams)
        for g, got in zip(parts, stacked):
            alone = integrate_nd(g, p, spec, support_radius=radius, seams=seams)
            whole = float(np.sum(wts * g(pts)))
            assert isinstance(alone, float)
            assert abs(got - alone) <= 1e-13 * abs(whole)
            assert abs(got - whole) <= 1e-13 * abs(whole)


def test_integrate_nd_blocks_stay_within_node_chunk():
    # the integrand only ever sees whole-row blocks of at most _NODE_CHUNK
    # nodes, and together they cover the rule once
    p = MeasureParams(3, 4.0)
    spec = default_nd_spec(3)
    seen = []

    def g(x):
        seen.append(x.shape[0])
        return np.ones(x.shape[0])

    assert np.isclose(integrate_nd(g, p, spec), 1.0, rtol=1e-12)
    assert len(seen) > 1 and max(seen) <= quadrature._NODE_CHUNK
    assert sum(seen) == len(_whole_rule(p, spec)[1])


def test_integrate_nd_refuses_malformed_integrands():
    # a (K, 1) column would broadcast against the (K,) weights into K x K
    p = MeasureParams(1, 2.0)
    spec = QuadratureSpec(nodes=16)
    for bad in (lambda x: x ** 2, lambda x: 1.0, lambda x: np.ones(len(x) + 1),
                lambda x: np.ones((2, 2, len(x)))):
        with pytest.raises(ValueError, match="shape"):
            integrate_nd(bad, p, spec, support_radius=1.0)


def test_quadrature_spec_refuses_bad_sizes():
    with pytest.raises(ValueError, match="16 nodes"):
        QuadratureSpec(nodes=15)
    for bad in (0, -4):
        with pytest.raises(ValueError, match="angular_nodes"):
            QuadratureSpec(angular_nodes=bad)
    # sizes are integers, numpy's included; anything else is refused by name
    for field in ("nodes", "angular_nodes"):
        for bad in (64.5, 12.5, "64", np.float64(64.0), None):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                QuadratureSpec(**{field: bad})
        spec = QuadratureSpec(**{field: np.int64(64)})
        assert getattr(spec, field) == 64


def test_quadrature_spec_refuses_an_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme 'gauss_hermite'; pick from"):
        QuadratureSpec(scheme="gauss_hermite")


def test_integrate_nd_refuses_n_above_three():
    # the deterministic sphere rules stop at n = 3; only the node blocks of
    # a radial f (angular_mode 0, on e_1) or a linear one (1, on +-e_i) run
    # there
    p = MeasureParams(4, 3.0)
    with pytest.raises(ValueError, match="n <= 3"):
        integrate_nd(lambda x: np.ones(x.shape[0]), p, default_nd_spec(4))
    for mode in (0, 1):
        one = sum(w.sum() for _, w, *_ in quadrature._node_blocks(
            p, default_nd_spec(4), angular_mode=mode))
        assert np.isclose(one, 1.0, rtol=1e-12)


def _sphere_monomials(n, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=n)
            if sum(e) <= degree]


def _rule_average(dirs, wts, e):
    return float(wts @ np.prod(dirs ** np.array(e), axis=1))


@pytest.mark.parametrize("n", range(1, 7))
def test_axis_rule_is_exact_to_degree_three(n):
    # every sphere monomial average of degree <= 3: 1, 0 for odd degrees,
    # delta_ij / n for u_i u_j; and the same averages as the n <= 3 rules,
    # which on the line are the same rule
    dirs, wts = quadrature._axis_directions(n)
    assert dirs.shape == (2 * n, n) and np.allclose(np.sum(dirs ** 2, axis=1), 1.0)
    full = (quadrature._sphere_directions(n, default_nd_spec(n).angular_nodes)
            if n <= 3 else None)
    for e in _sphere_monomials(n, 3):
        exact = {0: 1.0, 2: (1.0 / n if max(e) == 2 else 0.0)}.get(sum(e), 0.0)
        axis = _rule_average(dirs, wts, e)
        assert abs(axis - exact) <= 1e-15, e
        if full is not None:
            assert abs(_rule_average(*full, e) - axis) <= 1e-15, e
    if n == 1:
        assert np.array_equal(dirs, full[0]) and np.array_equal(wts, full[1])


def test_product_nodes_refuse_a_scheme_for_another_n():
    # every caller of the tensor rule, not only integrate_nd, refuses a
    # polar_2d spec off the plane
    spec = QuadratureSpec("polar_2d", nodes=64, angular_nodes=16)
    with pytest.raises(ValueError, match="polar_2d requires n = 2"):
        verify_all(MeasureParams(3, 2.5), spec=spec, trials=1)
    with pytest.raises(ValueError, match="polar_2d requires n = 2"):
        integrate_nd(lambda x: np.ones(x.shape[0]), MeasureParams(1, 2.0), spec)


def test_verify_grid_contents():
    assert len(VERIFY_GRID) == 14
    for n, beta in VERIFY_GRID:
        assert n in (1, 2, 3)
        assert beta > n / 2.0
    # beta = n/2 + 2 coincides with n + 1 at n = 2, so that pair dedupes
    assert (2, 3.0) in VERIFY_GRID
    assert sum(1 for n, _ in VERIFY_GRID if n == 2) == 4
    assert (1, 0.8) in VERIFY_GRID and (3, 6.0) in VERIFY_GRID
    # the beta = 2 rows are exact floats, so beta - 2 vanishes exactly there
    assert (1, 2.0) in VERIFY_GRID and (2, 2.0) in VERIFY_GRID


def test_verify_all_tags_and_accuracy():
    p = MeasureParams(3, 2.5)
    reports = verify_all(p, trials=4, seed=2)
    tags = [r.tag for r in reports]
    for t in ("IPP1", "IPP2", "IPP3", "IPP4", "GAMMABIS", "GRG", "IRG",
              "LOWFACT"):
        assert t in tags
    assert "ONED_SPLIT" not in tags  # line-only identities
    for r in reports:
        assert r.status == "ok"
        assert r.rel_err < 1e-6
        assert r.n == 3 and r.beta == 2.5


def test_verify_all_skips():
    # beta = 2 kills the (beta - 2) factors: IPP3, IPP4 and GRG become the
    # Lebesgue identities a1 + t2 = 0 and a1 = a2, checked like every row
    reports = verify_all(MeasureParams(2, 2.0), trials=2, seed=0)
    by_tag = {r.tag: r for r in reports}
    for t in ("IPP1", "IPP2", "IPP3", "IPP4", "GAMMABIS", "GRG", "IRG",
              "LOWFACT"):
        assert by_tag[t].status == "ok"
        assert by_tag[t].rel_err <= 1e-6
    # the line has its own split identities and no angular-gradient ones
    line = {r.tag: r for r in verify_all(MeasureParams(1, 2.5), trials=2, seed=0)}
    assert "ONED_SPLIT" in line and "ONED_LOW" in line
    assert "IRG" not in line and "LOWFACT" not in line


@pytest.mark.parametrize("n", [1, 2, 3])
def test_beta_2_rows_scaled_by_their_terms(n):
    # at beta = 2 the lhs of IPP3, IPP4 and GRG is 0 and rhs is what is left
    # of terms near 1e4 that cancel: the error is scaled by those terms, so
    # the rows read rounding (<= 4e-15 measured, 1e-11 to 1e-10 on the
    # scale max(1, |lhs|, |rhs|))
    p = MeasureParams(n, 2.0)
    pack = quadrature._random_test_pack(p, None, 50, 0)
    by_tag = {r.tag: r for r in verify_all(p, trials=50, seed=0)}
    for tag in ("IPP3", "IPP4", "GRG"):
        lhs, rhs, terms = quadrature._tag_sides(tag, pack, p)
        assert np.all(lhs == 0.0)
        rel = quadrature._rel_err(lhs, rhs, terms)
        assert np.array_equal(rel, np.abs(rhs) / np.maximum(
            1.0, np.max(np.abs(terms), axis=0)))
        assert rel.max() <= 1e-13 and by_tag[tag].rel_err <= 1e-13, (tag, rel.max())


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("beta", [2.0 - 1e-9, 2.0, 2.0 + 1e-9])
def test_verify_all_near_beta_2(n, beta):
    # dividing IPP3/IPP4/GRG by beta - 2 would amplify rounding to 1e-3 here
    spec = QuadratureSpec(scheme="polar_2d" if n == 2 else "product_spherical",
                          nodes=128, angular_nodes=40)
    reports = verify_all(MeasureParams(n, beta), spec=spec, trials=50, seed=0)
    assert len(reports) == 8
    for r in reports:
        assert r.status == "ok"
        assert r.rel_err <= 1e-6, (r.tag, r.rel_err)


def test_corrupt_ipp1_control():
    # flipping the right-hand side of IPP1 must produce an O(1) residual;
    # guards against a suite that trivially compares a quantity with itself
    reports = verify_all(MeasureParams(2, 3.0), trials=2, seed=0,
                         corrupt_ipp1=True)
    by_tag = {r.tag: r for r in reports}
    assert by_tag["IPP1"].rel_err > 0.1
    for t in ("IPP2", "GAMMABIS", "IRG", "LOWFACT"):
        assert by_tag[t].rel_err < 1e-6


PACK_FIELDS = ("a1", "a2", "gam", "g2i", "gx2", "qi", "p1", "p2", "wdw2", "t2")


def _reference_pack(f, params, pts, wts):
    """The integrals from full gradient/Hessian tensors of one function, with
    grad Lap f by fourth-order central differences of the Hessian trace."""
    n, beta = params.n, params.beta
    x = pts
    w = 1.0 + np.sum(x * x, axis=-1)
    g = f.gradient(x)
    H = f.hessian(x)
    lap = np.trace(H, axis1=1, axis2=2)
    g2 = np.sum(g * g, axis=-1)
    gx = np.sum(g * x, axis=-1)
    x2 = np.sum(x * x, axis=-1)
    xHg = np.einsum("ki,kij,kj->k", x, H, g)
    hs2 = np.einsum("kij,kij->k", H, H)
    scale = 1e-4 * (1.0 + np.sqrt(x2))
    g_dlap = np.zeros_like(g)
    for i in range(n):
        sh = np.zeros(n)
        sh[i] = 1.0
        sh = scale[:, None] * sh[None, :]

        def lap_at(y):
            return np.trace(f.hessian(y), axis1=1, axis2=2)

        g_dlap[:, i] = (-lap_at(x + 2.0 * sh) + 8.0 * lap_at(x + sh)
                        - 8.0 * lap_at(x - sh) + lap_at(x - 2.0 * sh)) / (12.0 * scale)
    fields = {
        "a1": w * w * hs2, "a2": (w * lap) ** 2, "gam": w * g2, "g2i": g2,
        "gx2": gx * gx, "qi": g2 * x2 - gx * gx, "p1": 4.0 * w * xHg,
        "p2": 2.0 * w * lap * gx,
        "wdw2": (-2.0 * n * w + 4.0 * (beta - 1.0) * x2) * g2,
        "t2": w * w * np.sum(g * g_dlap, axis=-1),
        "mean": f.value(x), "sq": f.value(x) ** 2,
    }
    return {k: float(np.sum(wts * v)) for k, v in fields.items()}


def test_block_pack_matches_reference_pack():
    # the separable pack (radial moments times angular Grams) at orders 1
    # (a deficit's int f, int f^2 and int Gamma), 2 and 3 against the
    # per-function pointwise reference on the nodes of the
    # same criterion-4 rule, on the line, at beta = 2 and at n = 2 and 3;
    # qi vanishes identically on the line, so it is compared there on the
    # scale of its cancelling parts, int |x|^2 |grad f|^2 = qi + gx2
    for n, beta in [(1, 0.8), (2, 2.0), (2, 3.0), (3, 2.5)]:
        p = MeasureParams(n, beta)
        spec = QuadratureSpec(scheme="polar_2d" if n == 2 else "product_spherical",
                              nodes=128, angular_nodes=40)
        pts, wts = _whole_rule(p, spec, 3.0, (1.8,))
        seeds = [0, 1, 2]
        coefs, labels = functions.random_test_coefficients(seeds, n)
        packs = {order: quadrature._FieldPack(
                     coefs, p, quadrature._pack_tables(p, spec, 3.0, (1.8,), order), labels)
                 for order in (1, 2, 3)}
        for t, seed in enumerate(seeds):
            f = make_random_test(seed, n)
            ref = _reference_pack(f, p, pts, wts)
            for order, pack in packs.items():
                assert pack.labels[t] == f.label
                for key in ("mean", "sq", "gam") if order == 1 else PACK_FIELDS:
                    got = getattr(pack, key)[t]
                    if key == "t2" and order == 2:
                        assert np.isnan(got)
                        continue
                    scale = abs(ref["gx2"]) if (n, key) == (1, "qi") else abs(ref[key])
                    assert abs(got - ref[key]) <= 1e-9 * scale, (n, beta, seed, order, key)


@pytest.mark.parametrize("nodes, angular", [(128, 40), (16, 12)])
def test_verify_all_trial_blocks(monkeypatch, nodes, angular):
    # more trials than one block and not a multiple of it: the same reports
    # as one trial per block.  A row names the first trial within a relative
    # 1e-12 of its worst.  Blocking moves rel_err by rounding only, which on
    # rows at rounding level can reorder trials; on these two rules it
    # leaves every row's worst trial in place (the coarse rule leaves
    # quadrature errors of 1e-3..1 in most rows).
    p = MeasureParams(3, 2.5)
    spec = QuadratureSpec(scheme="product_spherical", nodes=nodes,
                          angular_nodes=angular)
    trials = 2 * quadrature._TRIAL_BLOCK + 3
    blocked = verify_all(p, spec=spec, trials=trials, seed=1)
    blocked_pack = quadrature._random_test_pack(p, spec, trials, 1)
    monkeypatch.setattr(quadrature, "_TRIAL_BLOCK", 1)
    single = verify_all(p, spec=spec, trials=trials, seed=1)
    pack = quadrature._random_test_pack(p, spec, trials, 1)
    for key in PACK_FIELDS:
        assert np.allclose(getattr(blocked_pack, key), getattr(pack, key),
                           rtol=1e-12, atol=0.0)
    assert [r.tag for r in blocked] == [r.tag for r in single]
    for a, b in zip(blocked, single):
        assert a.status == b.status and a.trials == b.trials == trials
        assert abs(a.rel_err - b.rel_err) <= 1e-12
        rel = quadrature._rel_err(*quadrature._tag_sides(a.tag, pack, p))
        first_tied = pack.labels[int(np.flatnonzero(rel >= rel.max() * (1.0 - 1e-12))[0])]
        assert a.detail == b.detail == first_tied


def test_verify_all_names_each_rows_worst_trial():
    # rows that read at rounding level (1e-16..1e-13) still report and name
    # their worst trial, not the first one within an absolute 1e-12 of it:
    # at (1, 0.8) IPP3 reads 4.95e-15 on seed 0 and 7.81e-15 on seed 5
    p = MeasureParams(1, 0.8)
    reports = verify_all(p, trials=8, seed=0)
    pack = quadrature._random_test_pack(p, None, 8, 0)
    for rep in reports:
        rel = quadrature._rel_err(*quadrature._tag_sides(rep.tag, pack, p))
        assert rel.max() < 1e-12
        assert rep.rel_err == rel.max(), rep.tag
        assert rep.detail == pack.labels[int(np.argmax(rel))], rep.tag
    ipp3 = next(rep for rep in reports if rep.tag == "IPP3")
    assert ipp3.detail == functions.random_test_coefficients([5], 1)[1][0]


def test_verify_all_reports_a_nan_trial(monkeypatch):
    # a trial whose integrals are NaN makes every row's worst error NaN and
    # names that trial; the rounding tie rule must not pass over it to a
    # finite trial
    p = MeasureParams(3, 2.5)
    spec = QuadratureSpec("product_spherical", nodes=16, angular_nodes=12)
    pack_of = quadrature._random_test_pack

    def nan_trial(*args, **kwargs):
        pack = pack_of(*args, **kwargs)
        for key in PACK_FIELDS + ("gamma2",):
            getattr(pack, key)[1] = np.nan
        return pack

    monkeypatch.setattr(quadrature, "_random_test_pack", nan_trial)
    reports = verify_all(p, spec=spec, trials=3, seed=0)
    assert len(reports) == 8
    label = functions.random_test_coefficients([1], 3)[1][0]
    for rep in reports:
        assert np.isnan(rep.rel_err) and not rep.rel_err <= 1e-5, rep.tag
        assert rep.detail == label


@pytest.mark.parametrize("n, beta", [(1, 0.8), (2, 3.0), (3, 2.5)])
def test_packs_on_a_warm_cache_match_a_cold_one(n, beta):
    # a pack's seed-independent tables are cached per rule and order, their
    # direction side per direction set: packs of every order at a point
    # whose n, spec and support have served another beta are the packs
    # built on cleared caches, bit for bit, and every cached array is
    # read-only
    spec = QuadratureSpec(scheme="polar_2d" if n == 2 else "product_spherical",
                          nodes=128, angular_nodes=40)
    coefs, labels = functions.random_test_coefficients([0, 1, 2], n)

    def packs(b):
        p = MeasureParams(n, b)
        return [vars(quadrature._FieldPack(coefs, p, quadrature._pack_tables(
                    p, spec, functions.RANDOM_TEST_RADIUS, functions.RANDOM_TEST_SEAMS,
                    order), labels)) for order in (1, 2, 3)]

    packs(beta + 1.0)
    warm = packs(beta)
    quadrature._pack_tables_cached.cache_clear()
    quadrature._direction_fields.cache_clear()
    for got, cold in zip(warm, packs(beta), strict=True):
        assert got.keys() == cold.keys()
        for key, value in cold.items():
            np.testing.assert_array_equal(got[key], value, err_msg=key)
    for order in (1, 2, 3):
        fields, dirs, dw, _, first, blocks = quadrature._pack_tables(
            MeasureParams(n, beta), spec, functions.RANDOM_TEST_RADIUS,
            functions.RANDOM_TEST_SEAMS, order)
        for a in (fields._table, fields._u, dirs, dw, first, *blocks.values()):
            assert not a.flags.writeable


def test_random_test_tables_are_built_on_the_directions(monkeypatch):
    # verify_all evaluates the random tests on the tensor rule in factored
    # form: every monomial table has one column per sphere direction (130 on
    # criterion 4's spec), never one per node of a radial-row block; the
    # tables are cached per rule and per direction set, so the caches start
    # empty here
    quadrature._pack_tables_cached.cache_clear()
    quadrature._direction_fields.cache_clear()
    spec = QuadratureSpec("product_spherical", nodes=128, angular_nodes=40)
    p = MeasureParams(3, 2.5)
    directions = len(quadrature._sphere_directions(3, spec.angular_nodes)[1])
    assert directions == 130
    largest_block = max(len(w) for _, w, *_ in quadrature._node_blocks(
        p, spec, functions.RANDOM_TEST_RADIUS, functions.RANDOM_TEST_SEAMS))
    assert largest_block > 30 * directions
    points = []
    table = functions._monomials

    def spy(x, *basis):
        points.append(len(x))
        return table(x, *basis)

    monkeypatch.setattr(functions, "_monomials", spy)
    verify_all(p, spec=spec, trials=2, seed=0)
    assert points and max(points) <= directions


def test_identity_checks_never_stream_node_blocks(monkeypatch):
    # the random-test packs integrate in separable form on the tensor rule's
    # factors; no identity check builds node-sized blocks
    def refuse(*args, **kwargs):
        raise AssertionError("_node_blocks called")

    monkeypatch.setattr(quadrature, "_node_blocks", refuse)
    spec = QuadratureSpec("product_spherical", nodes=128, angular_nodes=40)
    p = MeasureParams(3, 2.2)
    assert len(verify_all(p, spec=spec, trials=2, seed=0)) == 8
    assert lowfact_sign_check(p, spec, trials=2)["resolved"] == "plus"
    assert len(lowfact_epsilon_scan(p, [0.3, 0.8], spec, trials=2)) == 2


def test_lowfact_uses_order_two_packs(monkeypatch):
    # LOWFACT and Gamma2 read no t2, so the lowfact packs skip grad Lap f:
    # t2 is NaN there, and the results equal those of full order-3 packs
    p = MeasureParams(3, 2.2)
    spec = QuadratureSpec("product_spherical", nodes=128, angular_nodes=40)
    pack2 = quadrature._random_test_pack(p, spec, 3, 0, order=2)
    pack3 = quadrature._random_test_pack(p, spec, 3, 0)
    assert np.all(np.isnan(pack2.t2)) and np.all(np.isfinite(pack3.t2))
    for key in PACK_FIELDS[:-1] + ("gamma2",):
        np.testing.assert_allclose(getattr(pack2, key), getattr(pack3, key),
                                   rtol=1e-13, atol=0.0)
    eps = [0.3, 0.8, 1.3]

    def run():
        return (lowfact_sign_check(p, spec, trials=3),
                lowfact_epsilon_scan(p, eps, spec, trials=3))

    sign2, scan2 = run()
    orders = []
    order_any = quadrature._random_test_pack

    def order3(*args, order):
        orders.append(order)
        return order_any(*args, order=3)

    monkeypatch.setattr(quadrature, "_random_test_pack", order3)
    sign3, scan3 = run()
    assert orders == [2, 2]
    assert sign2["resolved"] == sign3["resolved"]
    for key in ("residual_plus", "residual_minus", "eps0_plus", "resolved_eps0"):
        assert abs(sign2[key] - sign3[key]) <= 1e-13, key
    for a, b in zip(scan2, scan3):
        assert a["eps"] == b["eps"] and a["D"] == b["D"]
        assert abs(a["rel_err"] - b["rel_err"]) <= 1e-13


def test_verify_all_reports_ipp3_ipp4_everywhere():
    # the third-order identities keep their order-3 packs at every grid point
    for n, beta in VERIFY_GRID:
        spec = QuadratureSpec("polar_2d" if n == 2 else "product_spherical",
                              nodes=128, angular_nodes=40)
        by_tag = {r.tag: r for r in verify_all(MeasureParams(n, beta), spec=spec,
                                               trials=1, seed=0)}
        for tag in ("IPP3", "IPP4"):
            assert np.isfinite(by_tag[tag].lhs) and np.isfinite(by_tag[tag].rhs)
            assert by_tag[tag].rel_err <= 1e-6, (n, beta, tag)


@pytest.mark.parametrize("angular", [12, 40, 64, 101])
def test_sphere_directions_n3_match_the_double_loop(angular):
    # the broadcast rule is the product rule's double loop, bit for bit and
    # in the same order: Gauss-Legendre in cos(polar) times uniform azimuth
    dirs, wts = quadrature._sphere_directions(3, angular)
    p_polar, q_azim = max(8, angular // 4), max(12, angular // 3)
    ug, wg = leggauss(p_polar)
    psi = 2.0 * math.pi * np.arange(q_azim) / q_azim
    s = np.sqrt(1.0 - ug ** 2)
    ref_dirs, ref_wts = [], []
    for i in range(p_polar):
        for j in range(q_azim):
            ref_dirs.append((s[i] * math.cos(psi[j]), s[i] * math.sin(psi[j]), ug[i]))
            ref_wts.append(0.5 * wg[i] / q_azim)
    np.testing.assert_array_equal(dirs, np.array(ref_dirs))
    np.testing.assert_array_equal(wts, np.array(ref_wts))


# the line's split: eps0 = 3/2 - beta, D(eps) = (1 - eps)(2(beta - 1) + eps)
_LINE_POINTS = [(1, beta) for beta in (0.8, 1.2, 2.0, 2.5, 4.0)]


def test_lowfact_sign_check():
    # residual vanishes with the plus sign eps0 = beta_L - beta, not minus
    # (on the line the minus sign leaves 2.7e-3 to 0.27, measured)
    for n, beta in [(2, 1.5), (3, 2.2)] + _LINE_POINTS:
        res = lowfact_sign_check(MeasureParams(n, beta), trials=3, seed=0)
        assert res["resolved"] == "plus"
        assert np.isclose(res["resolved_eps0"], range_edges(n)[0] - beta, rtol=1e-12)
        assert res["residual_plus"] < 1e-8
        assert res["residual_minus"] > 1e-3 * res["residual_plus"] + 1e-6


def test_lowfact_split_closes_on_x1_past_n3():
    # f = x_1 has Hess f = 0, so a1 = a2 = p1 = p2 = 0, and the closed forms
    # g2i = 1, gam = 1 + E|x|^2, gx2 = E|x|^2 / n, qi = E|x|^2 (1 - 1/n);
    # Gamma2 = n gam + 2(beta - 1).  At n >= 4 the eps^2 terms close only
    # with the coefficient (n - 2) eps^2 of lowfact_coefficients' B
    for n in (4, 5, 6):
        for beta in (n / 2 + 1.2, n / 2 + 1.6, n / 2 + 2.0):
            m2 = mean_sq_norm(MeasureParams(n, beta))
            pack = types.SimpleNamespace(a1=0.0, a2=0.0, p1=0.0, p2=0.0, g2i=1.0,
                                         gam=1.0 + m2, gx2=m2 / n, qi=m2 * (1.0 - 1.0 / n))
            gamma2 = n * pack.gam + 2.0 * (beta - 1.0)
            for eps in (-0.7, 0.3):
                rhs = quadrature._split_rhs(pack, n, beta, eps)
                assert abs(rhs - gamma2) <= 1e-13 * abs(gamma2), (n, beta, eps, rhs)


@pytest.mark.parametrize("n, beta", VERIFY_GRID)
def test_each_split_tag_runs_at_its_own_eps(n, beta):
    # every split tag closes at every eps, so only its rhs shows which member
    # of the twisted split it evaluates: IRG at 0, ONED_SPLIT at 1/2, LOWFACT
    # and ONED_LOW at eps0 = beta_L - beta, where D is the lower-range gap
    p = MeasureParams(n, beta)
    pack = quadrature._random_test_pack(p, None, 3, 0, order=2)
    eps0 = range_edges(n)[0] - beta
    own = {"IRG": 0.0, "ONED_SPLIT": 0.5, "LOWFACT": eps0, "ONED_LOW": eps0}
    tags = [tag for tag in quadrature.applicable_tags(p) if tag in own]
    assert tags == (["ONED_SPLIT", "ONED_LOW"] if n == 1 else ["IRG", "LOWFACT"])
    for tag in tags:
        lhs, rhs, _ = quadrature._tag_sides(tag, pack, p)
        assert np.array_equal(lhs, pack.gamma2)
        assert np.array_equal(rhs, quadrature._split_rhs(pack, n, beta, own[tag])), tag
    assert lowfact_coefficients(n, beta, eps0)[2] == pytest.approx(
        GAP_FORMULA["lower"](n, beta), rel=1e-14, abs=1e-14)
    if n >= 2:
        assert lowfact_coefficients(n, beta, 0.0)[2] == GAP_FORMULA["mid"](n, beta)


def test_random_test_checks_refuse_zero_trials():
    p = MeasureParams(2, 1.5)
    calls = (lambda: verify_all(p, trials=0),
             lambda: lowfact_sign_check(p, trials=0),
             lambda: lowfact_epsilon_scan(p, [0.0], trials=0))
    for call in calls:
        with pytest.raises(ValueError, match="need at least one trial"):
            call()


def test_radial_rule_keeps_every_tail_panel():
    # 8 core panels and 399 tail panels [tau/2, tau] from tau = pi/4 while
    # tau > 1e-120, 8 nodes each; no weight underflows at (1, 1.2)
    r, logw = quadrature._radial_rule_cached(1, 1.2, 256, None, ())
    assert len(r) == len(logw) == 3256
    assert 1e119 < r.max() < 1e121


def test_lowfact_epsilon_scan_peak():
    for n, beta in [(2, 1.5)] + _LINE_POINTS:
        p = MeasureParams(n, beta)
        eps0 = range_edges(n)[0] - beta
        eps_values = np.linspace(eps0 - 0.5, eps0 + 0.5, 11)
        rows = lowfact_epsilon_scan(p, eps_values, trials=2, seed=0)
        assert len(rows) == len(eps_values)
        assert np.allclose([row["eps"] for row in rows], eps_values)
        # the split closes at every eps; what singles out eps0 is the D parabola
        resid = np.array([row["rel_err"] for row in rows])
        assert np.max(resid) < 1e-8
        dvals = np.array([row["D"] for row in rows])
        assert np.argmax(dvals) == 5
        assert np.isclose(dvals[5], (beta - n / 2.0) ** 2, rtol=1e-12)


@given(st.integers(min_value=1, max_value=3),
       st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=0.1, max_value=2.5))
@settings(max_examples=12, deadline=None)
def test_moment_quadrature_property(n, excess, g):
    beta = n / 2.0 + excess
    p = MeasureParams(n, beta)
    val = integrate_nd(
        lambda x: (1.0 + np.sum(x * x, axis=-1)) ** (-g), p, default_nd_spec(n)
    )
    assert np.isclose(val, omega_moment(g, p), rtol=1e-9)
