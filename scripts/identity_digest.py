"""One SHA-256 over the identity layer's outputs.

Hashes the reprs of, in order:
  - every `verify_all` row's (tag, lhs, rhs, rel_err), not its `detail`;
  - `lowfact_sign_check`'s two residuals;
  - `lowfact_epsilon_scan`'s rows (eps, rel_err, D) on five eps around eps0;
each at the 14 points of VERIFY_GRID with fixed trials and seed, on the
default spec and on criterion 4's spec (polar_2d at n = 2, else
product_spherical; 128 radial and 40 angular nodes); then
  - `quadrature._var_and_energy` of the random bumps whose deficits the
    heat-flow benchmark takes (seeds 0-3 at (2, 1.5) and at (1, 1.2)).
Two source trees that print the same digest compute the same floats, so a
change meant to leave the identity numbers alone (the random-test pack,
say) can be checked with one command on each tree:

    PYTHONPATH=src python3 scripts/identity_digest.py           # full list
    PYTHONPATH=src python3 scripts/identity_digest.py --short   # 3 points, default spec
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from cauchygap.functions import make_random_test
from cauchygap.measures import MeasureParams
from cauchygap.quadrature import (VERIFY_GRID, QuadratureSpec, _var_and_energy,
                                  lowfact_epsilon_scan, lowfact_sign_check,
                                  verify_all)
from cauchygap.spectral import range_edges

TRIALS, SEED = 8, 0
BUMPS = ((2, 1.5), (1, 1.2))
BUMP_SEEDS = range(4)


def _specs(n: int, short: bool):
    """The default spec (None), then criterion 4's unless short."""
    if short:
        return (None,)
    scheme = "polar_2d" if n == 2 else "product_spherical"
    return None, QuadratureSpec(scheme=scheme, nodes=128, angular_nodes=40)


def reprs(short: bool = False):
    """The hashed reprs, in order: per point and spec the verify rows, the
    sign check and the scan rows; then the bumps' (Var, int Gamma)."""
    grid = VERIFY_GRID[:3] if short else VERIFY_GRID
    for n, beta in grid:
        params = MeasureParams(n, beta)
        eps0 = range_edges(n)[0] - beta
        for spec in _specs(n, short):
            for r in verify_all(params, spec, trials=TRIALS, seed=SEED):
                yield repr((r.tag, r.lhs, r.rhs, r.rel_err))
            sign = lowfact_sign_check(params, spec, trials=3, seed=SEED)
            yield repr((sign["residual_plus"], sign["residual_minus"]))
            for r in lowfact_epsilon_scan(params, eps0 + np.linspace(-0.5, 0.5, 5),
                                          spec, trials=3, seed=SEED):
                yield repr((r["eps"], r["rel_err"], r["D"]))
    for n, beta in BUMPS:
        for s in BUMP_SEEDS:
            yield repr(_var_and_energy(make_random_test(s, n), MeasureParams(n, beta)))


def digest(short: bool = False) -> str:
    h = hashlib.sha256()
    for line in reprs(short):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--short", action="store_true",
                    help="the first three grid points on the default spec only")
    args = ap.parse_args(argv)
    print(digest(args.short))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
