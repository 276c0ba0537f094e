"""One SHA-256 over the identity layer's outputs.

Hashes the reprs of these records, in order:
  - the integrals of every trial of the random-test packs of orders 1, 2
    and 3 (`quadrature._random_test_pack`);
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

A change meant to move them by rounding only states its bound instead:
--dump PATH writes every hashed float to a JSON file, and --against PATH
prints, per kind of record, the worst change against such a file written
on another tree (run the script of one tree with PYTHONPATH set to each
tree's src/):

    PYTHONPATH=<old>/src python3 scripts/identity_digest.py --dump old.json
    PYTHONPATH=src python3 scripts/identity_digest.py --against old.json

Each value is compared relative to its own magnitude, and the lhs and rhs
of a verify row on the scale max(1, |lhs|, |rhs|), rel_err's floor.  A
pack's qi vanishes identically on the line, so the dump holds qi + gx2,
the integral of |x|^2 |grad f|^2 it is computed from.  A verify row names
its worst trial, which rounding moves among trials whose rel_err is at
rounding level; such rows are counted as moved, not compared.  Residuals
(rel_err) are relative errors already and are compared on the scale 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math

import numpy as np

from cauchygap.functions import make_random_test
from cauchygap.measures import MeasureParams
from cauchygap.quadrature import (VERIFY_GRID, QuadratureSpec, _random_test_pack,
                                  _var_and_energy, lowfact_epsilon_scan,
                                  lowfact_sign_check, verify_all)
from cauchygap.spectral import range_edges

TRIALS, SEED = 8, 0
BUMPS = ((2, 1.5), (1, 1.2))
BUMP_SEEDS = range(4)


def _pack_values(pack, order: int) -> list:
    """The integrals of a pack of `order`, with qi + gx2 in place of qi."""
    if order == 1:
        return [pack.mean, pack.sq, pack.gam]
    return [pack.a1, pack.a2, pack.gam, pack.g2i, pack.gx2, pack.qi + pack.gx2,
            pack.p1, pack.p2, pack.wdw2, pack.t2, pack.gamma2]


def _specs(n: int, short: bool):
    """The default spec (None), then criterion 4's unless short."""
    if short:
        return (None,)
    scheme = "polar_2d" if n == 2 else "product_spherical"
    return None, QuadratureSpec(scheme=scheme, nodes=128, angular_nodes=40)


def records(short: bool = False):
    """The hashed records, in order, as (kind, label, values, residuals,
    trial): per point and spec the packs' integrals per trial, the verify
    rows, the sign check and the scan rows; then the bumps' (Var, int
    Gamma).  `trial` names a verify row's worst trial, else it is None."""
    grid = VERIFY_GRID[:3] if short else VERIFY_GRID
    for n, beta in grid:
        params = MeasureParams(n, beta)
        eps0 = range_edges(n)[0] - beta
        for s, spec in enumerate(_specs(n, short)):
            point = f"({n}, {beta}) spec {s}"
            for order in (1, 2, 3):
                values = _pack_values(_random_test_pack(params, spec, TRIALS, SEED, order), order)
                for t in range(TRIALS):
                    yield ("pack", f"{point} order {order} trial {t}",
                           [float(v[t]) for v in values], [], None)
            for r in verify_all(params, spec, trials=TRIALS, seed=SEED):
                yield "verify", f"{point} {r.tag}", [r.lhs, r.rhs], [r.rel_err], r.detail
            sign = lowfact_sign_check(params, spec, trials=3, seed=SEED)
            yield ("sign", f"{point} lowfact_sign_check", [],
                   [sign["residual_plus"], sign["residual_minus"]], None)
            for r in lowfact_epsilon_scan(params, eps0 + np.linspace(-0.5, 0.5, 5),
                                          spec, trials=3, seed=SEED):
                yield "scan", f"{point} eps {r['eps']!r}", [r["eps"], r["D"]], [r["rel_err"]], None
    for n, beta in BUMPS:
        for s in BUMP_SEEDS:
            yield ("bump", f"({n}, {beta}) seed {s}",
                   [float(v) for v in _var_and_energy(make_random_test(s, n),
                                                      MeasureParams(n, beta))], [], None)


def digest(rows) -> str:
    h = hashlib.sha256()
    for _, label, values, residuals, _ in rows:
        h.update(repr((label, values, residuals)).encode() + b"\n")
    return h.hexdigest()


def _change(old, new, floor: float = 0.0) -> float:
    """max |new - old| / max(floor, |old|, |new|) over the pairs of the two
    lists, with matching NaNs equal; inf where a NaN meets a number."""
    worst = 0.0
    for a, b in zip(old, new):
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                return math.inf
        elif a != b:
            worst = max(worst, abs(a - b) / max(floor, abs(a), abs(b)))
    return worst


def against(rows, old: dict) -> list:
    """Lines per kind of record: the worst change against the dump `old`
    and its record, then the count of verify rows whose worst trial moved."""
    worst, moved = {}, 0
    for kind, label, values, residuals, trial in rows:
        if label not in old:
            raise SystemExit(f"record {label!r} is missing from the dump")
        ref = old[label]
        changes = {kind + " residual": _change(ref["residuals"], residuals, 1.0)}
        if kind == "verify" and ref["trial"] != trial:
            moved += 1
        elif values:
            floor = max(1.0, *map(abs, values + ref["values"])) if kind == "verify" else 0.0
            changes[kind] = _change(ref["values"], values, floor)
        for key, change in changes.items():
            if (residuals or key == kind) and change >= worst.get(key, (-1.0,))[0]:
                worst[key] = change, label
    return ([f"{key:16} {change:.3g}  {label}" for key, (change, label) in worst.items()]
            + [f"{'verify moved':16} {moved}"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--short", action="store_true",
                    help="the first three grid points on the default spec only")
    ap.add_argument("--dump", metavar="PATH",
                    help="also write every hashed float to this JSON file")
    ap.add_argument("--against", metavar="PATH",
                    help="print the worst change against a --dump of another tree")
    args = ap.parse_args(argv)
    rows = list(records(args.short))
    print(digest(rows))
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump({label: {"values": values, "residuals": residuals, "trial": trial}
                       for _, label, values, residuals, trial in rows}, fh, indent=0)
    if args.against:
        with open(args.against) as fh:
            print("\n".join(against(rows, json.load(fh))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
