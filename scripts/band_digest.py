"""Two SHA-256 lines: the Galerkin bands and the heat flow's loads, then
the solves on them.

Hashes the bands A and B of modes 0-3, with and without tail rays, at each
(m, delta, n, beta) of a fixed list: the eight spectral_sweep points on
m = 2048, delta = 1e-3, and the grids and points of
test_assemble_mode_matches_cell_loop.  Then it hashes the heat flow's hat
loads (`spectral._hat_loads`) of three profiles: the seed-0 bump on the
line at (1, 2.0), m = 1024, whose load over [R, inf) is 0, and two whose
load there is not, the centered quadratic at (1, 4.0), m = 128,
delta = 0.2, and a linear f at (3, 3.8), m = 256.  Every grid serves
several (n, beta) in turn, as in a sweep.

The second line hashes what is solved on such bands, with or without
--short: the reprs of `numeric_gap` at the eight sweep points on
m = 256 and m = 2048, delta = 1e-3, then criterion 7's
`variance_representation_check` (the seed-s bump on the line at
(1, 2.0), m = 1024, rho = 2) for seeds 0-9 at T = 4 and T = 0.05.
Two source trees that print the same lines assemble the same bytes and
solve them to the same floats, so a change meant to leave the numbers
alone can be checked with one command on each tree:

    PYTHONPATH=src python3 scripts/band_digest.py           # full list
    PYTHONPATH=src python3 scripts/band_digest.py --short   # bands on the cell-loop grids only
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from cauchygap.functions import make_linear, make_quadratic_centered, make_random_test
from cauchygap.measures import MeasureParams
from cauchygap.semigroup import _mode_profiles, variance_representation_check
from cauchygap.spectral import Discretization, _hat_loads, _mode_problems, numeric_gap

SWEEP_POINTS = ((1, 1.2), (1, 3.0), (2, 1.5), (2, 4.0),
                (3, 2.0), (3, 3.8), (3, 5.0), (3, 200.0))
CELL_LOOP_GRIDS = ((64, 0.2), (96, 1e-2), (128, 1e-3))
CELL_LOOP_POINTS = ((1, 1.2), (2, 1.5), (3, 3.8), (4, 9.0))


def cases(short: bool):
    """(m, delta, n, beta) in hashing order."""
    out = [(m, delta, n, beta) for m, delta in CELL_LOOP_GRIDS
           for n, beta in CELL_LOOP_POINTS]
    if not short:
        out += [(2048, 1e-3, n, beta) for n, beta in SWEEP_POINTS]
    return out


def _update(h, a: np.ndarray):
    h.update(np.asarray(a.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())


def digest(short: bool = False) -> str:
    h = hashlib.sha256()
    for m, delta, n, beta in cases(short):
        disc, params = Discretization(m=m, delta=delta), MeasureParams(n, beta)
        for rays in (True, False):
            for prob in _mode_problems(range(4), params, disc, tail_rays=rays):
                _update(h, prob.A.band)
                _update(h, prob.B.band)
    for f, params, disc in (
            (make_random_test(0, 1), MeasureParams(1, 2.0), Discretization(m=1024, delta=1e-3)),
            (make_quadratic_centered(MeasureParams(1, 4.0)), MeasureParams(1, 4.0),
             Discretization(m=128, delta=0.2)),
            (make_linear(np.ones(3)), MeasureParams(3, 3.8), Discretization(m=256, delta=1e-3))):
        loads = _hat_loads(lambda r: _mode_profiles(f, params, r), params, disc)
        for ell in sorted(loads):
            _update(h, loads[ell])
    return h.hexdigest()


def solve_digest() -> str:
    h = hashlib.sha256()
    for m in (256, 2048):
        disc = Discretization(m=m, delta=1e-3)
        for n, beta in SWEEP_POINTS:
            h.update(repr(numeric_gap(MeasureParams(n, beta), disc)).encode())
    params, disc = MeasureParams(1, 2.0), Discretization(m=1024, delta=1e-3)
    for seed in range(10):
        for T in (4.0, 0.05):
            check = variance_representation_check(make_random_test(seed, 1), 2.0, T, 0.01,
                                                   params, disc)
            h.update(repr(check).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--short", action="store_true",
                    help="hash the bands of the cell-loop grids only (and the loads)")
    args = ap.parse_args(argv)
    print(digest(args.short))
    print(solve_digest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
