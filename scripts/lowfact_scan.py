#!/usr/bin/env python3
"""Resolve the sign ambiguity in the low-range factorization exponent.

The factorization closes for a one-parameter family of exponents; the
distinguished one maximizes the D coefficient.  This scan shows (a) the
residual of the identity stays at quadrature precision across the whole
eps grid, and (b) D peaks at eps0 = beta_L - beta (the 'plus' sign;
beta_L from spectral.range_edges), where it equals (beta - n/2)^2.  Every
n >= 1 works, the line included (--n 1, where beta_L = 3/2).
"""

import argparse

import numpy as np

from cauchygap.measures import MeasureParams
from cauchygap.quadrature import lowfact_epsilon_scan, lowfact_sign_check
from cauchygap.spectral import GAP_FORMULA


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--beta", type=float, default=1.5)
    ap.add_argument("--width", type=float, default=0.8)
    ap.add_argument("--points", type=int, default=17)
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    p = MeasureParams(args.n, args.beta)
    res = lowfact_sign_check(p, trials=args.trials, seed=args.seed)
    print(f"n={args.n} beta={args.beta}")
    print(f"  eps0(plus)  = {res['eps0_plus']:+.6f}  "
          f"residual = {res['residual_plus']:.3e}")
    print(f"  eps0(minus) = {res['eps0_minus']:+.6f}  "
          f"residual = {res['residual_minus']:.3e}")
    print(f"  resolved sign: {res['resolved']} "
          f"(eps0 = {res['resolved_eps0']:+.6f})")

    eps0 = res["eps0_plus"]
    grid = np.linspace(eps0 - args.width, eps0 + args.width, args.points)
    rows = lowfact_epsilon_scan(p, grid, trials=args.trials, seed=args.seed)
    print(f"\n  {'eps':>10s} {'rel_err':>12s} {'D':>12s}")
    for row in rows:
        mark = "  <-- eps0" if np.isclose(row["eps"], eps0) else ""
        print(f"  {row['eps']:10.4f} {row['rel_err']:12.3e} "
              f"{row['D']:12.6f}{mark}")
    best = max(rows, key=lambda r: r["D"])
    print(f"\n  D maximized at eps = {best['eps']:.4f} "
          f"(expected {eps0:.4f}); D there = {best['D']:.6f} "
          f"vs (beta - n/2)^2 = {GAP_FORMULA['lower'](args.n, args.beta):.6f}")


if __name__ == "__main__":
    main()
