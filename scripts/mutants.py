#!/usr/bin/env python3
"""Mutation ledger: broken formulas that named tests must catch.

Each entry of MUTANTS is (name, file, old text, new text, why, tests).  For
every entry the script copies the tree to a temporary directory (never the
checkout), replaces the old text, which must occur in the file exactly
once, by the new text, and runs the entry's tests there under a timeout.
A mutant is caught when every one of its tests fails (a parametrized test
in at least one case); otherwise it survives, and the line names the tests
that passed.  Each entry prints one line: caught or survived, its time and
its name.

    python3 scripts/mutants.py                           # the whole ledger
    python3 scripts/mutants.py --only tail-series-sign   # one entry

Exit status: 0 when every entry run is caught, 1 when one survives, 2 when
an old text is not found exactly once or pytest cannot run the tests.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPECTRAL = "src/cauchygap/spectral.py"
QUADRATURE = "src/cauchygap/quadrature.py"
SEMIGROUP = "src/cauchygap/semigroup.py"
FUNCTIONS = "src/cauchygap/functions.py"
HYGIENE = "tests/test_hygiene.py"
TIMEOUT_S = 900

MUTANTS = [
    ("mass-hats-swapped", SPECTRAL,
     '    return np.einsum("ji,kji->ki", wm, hats), np.einsum("ji,kji->ki", w, hats), grad\n',
     '    return np.einsum("ji,kji->ki", wm, hats[::-1]), np.einsum("ji,kji->ki", w, hats), grad\n',
     "phi_L and phi_R swapped in the mass products",
     ["tests/test_spectral.py::test_cell_moments_match_oracle_pins"]),
    ("mass-factor-dropped", SPECTRAL,
     "    r2 = rr * rr\n    wm = w * r2\n    r2 += 1.0\n    wm /= r2\n",
     "    wm = w\n",
     "the mass weight without its factor r^2/(1+r^2), equal to the ell weight",
     ["tests/test_spectral.py::test_cell_moments_match_oracle_pins"]),
    ("lowfact-at-eps-zero", QUADRATURE,
     '2: {"IRG": 0.0, "LOWFACT": None}}',
     '2: {"IRG": 0.0, "LOWFACT": 0.0}}',
     "LOWFACT at eps = 0, the mid-range split, in place of eps0",
     ["tests/test_quadrature.py::test_each_split_tag_runs_at_its_own_eps"]),
    ("guard-count-skipped", SPECTRAL,
     "    if below != closed:\n",
     "    if False:\n",
     "the guard's Sylvester count never compared with the closed form's",
     ["tests/test_semigroup.py::test_variance_check_guards_every_solve",
      "tests/test_spectral.py::test_floored_breakdown_reports_the_count"]),
    ("tail-load-dropped", SPECTRAL,
     "        b[-1] += float(prof[rr.size:] @ wt)\n",
     "",
     "the last hat's load over [R, inf) left out of the projection",
     ["tests/test_semigroup.py::test_mode_loads_match_their_own_gauss_nodes",
      "tests/test_semigroup.py::test_projected_start_keeps_constants_beyond_R"]),
    ("pack-key-without-beta", QUADRATURE,
     "@lru_cache(maxsize=64)\ndef _pack_tables_cached(",
     "def _beta_blind(build):\n"
     "    @lru_cache(maxsize=64)\n"
     "    def cached(n, nodes, *key):\n"
     "        return build(n, cached.beta, nodes, *key)\n\n"
     "    def lookup(n, beta, nodes, *key):\n"
     "        cached.beta = beta\n"
     "        return cached(n, nodes, *key)\n\n"
     "    lookup.cache_clear = cached.cache_clear\n"
     "    return lookup\n\n\n"
     "@_beta_blind\ndef _pack_tables_cached(",
     "the pack tables cached without beta in their key: a rule's packs read "
     "the tables of the first beta it served",
     ["tests/test_quadrature.py::test_packs_on_a_warm_cache_match_a_cold_one"]),
    ("tail-series-sign", SPECTRAL,
     "    z = -1.0 / (R * R)\n",
     "    z = 1.0 / (R * R)\n",
     "the tail moments' 2F1 series in +1/R^2 in place of -1/R^2",
     ["tests/test_spectral.py::test_tail_moments_satisfy_their_recurrences",
      "tests/test_spectral.py::test_tail_moments_past_the_binomial_series"]),
    ("inertia-schur-dropped", SPECTRAL,
     "        d = np.append(d, rays)\n",
     "",
     "the ray block's Schur pivots left out of the Sylvester count",
     ["tests/test_spectral.py::test_inertia_matches_the_dense_count",
      "tests/test_spectral.py::test_inertia_counts_the_values_under_the_shift"]),
    ("line-d-minus-eps", QUADRATURE,
     "return 0.0, C, (1.0 - eps) * (2.0 * (beta - 1.0) + eps)",
     "return 0.0, C, (1.0 - eps) * (2.0 * (beta - 1.0) - eps)",
     "the line's D as (1 - eps)(2(beta - 1) - eps)",
     ["tests/test_quadrature.py::test_each_split_tag_runs_at_its_own_eps",
      "tests/test_quadrature.py::test_lowfact_epsilon_scan_peak"]),
    ("bracket-upper-count-skipped", SPECTRAL,
     "    if counts != [closed, closed + 1]:\n",
     "    if counts[0] != closed:\n",
     "a one-value solve's count at lam (1 + eps) never compared with closed + 1",
     ["tests/test_spectral.py::test_bracket_refuses_a_value_off_its_count",
      "tests/test_spectral.py::test_numeric_gap_at_large_n_is_bracketed_or_refused"]),
    ("refactor-reads-sigma", SPECTRAL,
     "        new = mu + (y @ Bx) / yBy\n",
     "        new = sigma + (y @ Bx) / yBy\n",
     "after the refactor, each value read as sigma + y'Bx / y'By, at the old shift",
     ["tests/test_spectral.py::test_numeric_gap_m2048_pins",
      "tests/test_spectral.py::test_slow_solves_refactor_once_on_the_sweep"]),
    ("contour-pair-undoubled", SEMIGROUP,
     "        flow += 2.0 * (c / t * solve(Bu)).real\n",
     "        flow += (c / t * solve(Bu)).real\n",
     "the contour's conjugate nodes left out: the sum over theta_k > 0 not doubled",
     ["tests/test_semigroup.py::test_flow_end_term_matches_the_dense_sum_over_every_mode",
      "tests/test_semigroup.py::test_flow_integral_matches_dense_spectrum",
      "tests/test_semigroup.py::test_variance_check_sees_the_flow_end_term",
      "tests/test_semigroup.py::test_deficit_trace_matches_dense_spectrum"]),
    ("contour-shift-unscaled", SEMIGROUP,
     "    out = math.exp(-t * sigma) * flow\n",
     "    out = flow\n",
     "the flow under the guard's shift without its factor e^{-t sigma}",
     ["tests/test_semigroup.py::test_flow_end_term_matches_the_dense_sum_over_every_mode",
      "tests/test_semigroup.py::test_flow_integral_matches_dense_spectrum",
      "tests/test_semigroup.py::test_variance_check_sees_the_flow_end_term",
      "tests/test_semigroup.py::test_deficit_trace_matches_dense_spectrum"]),
    ("contour-fewest-nodes", SEMIGROUP,
     "if eps * decay <= _TALBOT_EPS[_TALBOT_N])",
     "if N > 0)",
     "the contour always at its smallest tabulated N = 6, whatever the horizon",
     ["tests/test_semigroup.py::test_flow_end_term_matches_the_dense_sum_over_every_mode",
      "tests/test_semigroup.py::test_flow_integral_matches_dense_spectrum",
      "tests/test_semigroup.py::test_variance_check_sees_the_flow_end_term"]),
    ("contour-constants-flowed", SEMIGROUP,
     "    if problem.ell == 0:\n",
     "    if problem.ell < 0:\n",
     "mode 0's constants flowed with the rest, under the shift that puts them at x > 0",
     ["tests/test_semigroup.py::test_flow_keeps_mode_zero_constants_exactly"]),
    ("flow-returns-constants", SEMIGROUP,
     "    out = math.exp(-t * sigma) * flow\n",
     "    out = v - u + math.exp(-t * sigma) * flow\n",
     "mode 0's constants split off the flow but returned with it, unflowed",
     ["tests/test_semigroup.py::test_flow_keeps_mode_zero_constants_exactly",
      "tests/test_semigroup.py::test_deficit_trace_matches_dense_spectrum"]),
    ("trace-horizon-nodes", SEMIGROUP,
     "_flow_at(prob, v, t, _TALBOT_N)",
     "_flow_at(prob, v, t, next(N for N, eps in _TALBOT_EPS.items()\n"
     "                 if eps * math.exp(-t * prob._guarded[0]) <= _TALBOT_EPS[_TALBOT_N]))",
     "the trace's flow on the fewest nodes its decay allows, the variance check's rule, "
     "not on 24",
     ["tests/test_semigroup.py::test_deficit_trace_matches_dense_spectrum"]),
    ("schur-product-underflow", SPECTRAL,
     "                s21 = shifted[1, nh] - w[1] * (w[0] / d[-1])\n",
     "                s21 = shifted[1, nh] - w[1] * w[0] / d[-1]\n",
     "the count's ray product S21 as w w / d, whose w w underflows on far rays",
     ["tests/test_spectral.py::test_numeric_gap_at_2_42_on_the_delta_1e2_truncation",
      "tests/test_spectral.py::test_ray_products_survive_underflow"]),
    ("inertia-first-ray-underflow", SPECTRAL,
     "            rays = [shifted[0, nh] - w[0] * (w[0] / d[-1])]\n",
     "            rays = [shifted[0, nh] - w[0] * w[0] / d[-1]]\n",
     "the count's first ray product as w w / d, whose w w underflows on far rays",
     ["tests/test_spectral.py::test_ray_products_survive_underflow"]),
    ("inertia-second-ray-underflow", SPECTRAL,
     " - w[1] * (w[1] / d[-1]) - ",
     " - w[1] * w[1] / d[-1] - ",
     "the count's second ray product as w w / d, whose w w underflows on far rays",
     ["tests/test_spectral.py::test_ray_products_survive_underflow"]),
    ("solve-schur-underflow", SPECTRAL,
     "np.outer(z[-1] * w, w)",
     "z[-1] * np.outer(w, w)",
     "the solve's ray Schur product as t (w w'), whose w w' underflows on far rays",
     ["tests/test_spectral.py::test_ray_products_survive_underflow"]),
    ("radial-direction-weight", QUADRATURE,
     "        dirs = np.eye(1, params.n), np.ones(1)\n",
     "        dirs = np.eye(1, params.n), np.full(1, 0.5 / params.n)\n",
     "a radial f's one direction at the weight 1/(2n) of the +-e_i rule, not 1",
     ["tests/test_semigroup.py::test_var_and_energy_matches_three_call_formula",
      "tests/test_semigroup.py::test_route_deficit_matches_quadrature"]),
    ("hessian-off-diagonal-unweighted", QUADRATURE,
     '                rows["hess"][:, :, c] *= math.sqrt(2.0)\n',
     '                rows["hess"][:, :, c] *= 1.0\n',
     "the distinct off-diagonal Hessian entries counted once in ||Hess f||^2, "
     "not twice (sqrt 2 on each side of the Gram)",
     ["tests/test_quadrature.py::test_block_pack_matches_reference_pack"]),
    ("direction-weight-both-sides", FUNCTIONS,
     "        self._mono = _monomials(u, parent, var) * np.sqrt(dw)\n",
     "        self._mono = _monomials(u, parent, var) * dw\n",
     "the direction weights dw on both sides of every angular Gram, not sqrt(dw)",
     ["tests/test_quadrature.py::test_block_pack_matches_reference_pack",
      "tests/test_functions.py::test_random_test_fields_on_radial_rows_match_pointwise"]),
    ("scipy-at-import", SPECTRAL,
     "from numpy.polynomial.legendre import leggauss\n",
     "from numpy.polynomial.legendre import leggauss\n"
     "from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, zgttrf, zgttrs\n",
     "spectral's LAPACK routines imported with the module, not at the first factorization",
     [f"{HYGIENE}::test_import_loads_no_oracle_or_special_functions",
      f"{HYGIENE}::test_identity_layer_loads_no_scipy_and_the_spectral_solves_load_lapack",
      f"{HYGIENE}::test_scipy_is_imported_by_spectral_alone_and_only_inside_functions"]),
    ("sparse-ops", FUNCTIONS,
     "    lap = sum(Di @ Di for Di in D)\n",
     "    from scipy import sparse\n"
     "    D = [sparse.csr_array(Di) for Di in D]\n"
     "    lap = sum(Di @ Di for Di in D)\n"
     "    iu, ju = np.triu_indices(n)\n"
     "    ops = sparse.vstack([sparse.eye_array(M)] + D + [D[j] @ D[i] for i, j in zip(iu, ju)]\n"
     "                        + [Dk @ lap for Dk in D], format=\"csr\")\n"
     "    return np.sum(exps, axis=1), parent, var, ops\n",
     "the random tests' derivative stack built with scipy.sparse, at their first use",
     [f"{HYGIENE}::test_identity_layer_loads_no_scipy_and_the_spectral_solves_load_lapack"]),
]

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                               ".bench_out", "*.egg-info")


class LedgerError(Exception):
    """An entry that cannot be applied or run."""


def mutate(tree: Path, path: str, old: str, new: str) -> None:
    """Replace old by new in tree/path, where old occurs exactly once."""
    target = tree / path
    text = target.read_text()
    found = text.count(old)
    if found != 1:
        raise LedgerError(f"{path}: the old text occurs {found} times, not once: {old!r}")
    target.write_text(text.replace(old, new))


def run(entry) -> list:
    """The entry's tests that pass with its mutant, on a copy of the tree."""
    name, path, old, new, _, tests = entry
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        mutate(tree, path, old, new)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode not in (0, 1):  # 1: a test failed; others: pytest could not run
        raise LedgerError(f"{name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    return [t for t in tests if not any(f == t or f.startswith(t + "[") for f in failed)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=[e[0] for e in MUTANTS],
                    help="run this entry alone")
    args = ap.parse_args(argv)
    survived = 0
    for entry in MUTANTS:
        if args.only not in (None, entry[0]):
            continue
        start = time.perf_counter()
        try:
            passed = run(entry)
        except (LedgerError, subprocess.TimeoutExpired) as exc:
            print(f"error     {entry[0]}: {exc}")
            return 2
        survived += bool(passed)
        print(f"{'SURVIVED' if passed else 'caught':9} {time.perf_counter() - start:6.1f} s  "
              f"{entry[0]}: {entry[4]}" + "".join(f"\n          passed: {t}" for t in passed),
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
