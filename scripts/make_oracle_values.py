#!/usr/bin/env python3
"""Regenerate the frozen numerical constants used in the test suite.

Everything here is computed independently of the package (mpmath at 50
significant digits) so the tests pin against values that do not depend on
the implementation under test.  Run and paste; the suite itself never
imports mpmath.
"""

import argparse
import math

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def Z(n, beta):
    """Normalisation of (1+|x|^2)^(-beta) on R^n:  pi^(n/2) G(b-n/2)/G(b)."""
    return mp.pi ** (mp.mpf(n) / 2) * mp.gamma(beta - mp.mpf(n) / 2) / mp.gamma(beta)


def M(n, beta, gamma):
    """M_gamma = int (1+|x|^2)^gamma dmu = Z(n, beta-gamma)/Z(n, beta)."""
    return Z(n, mp.mpf(beta) - mp.mpf(gamma)) / Z(n, beta)


def fmt(x):
    return mp.nstr(x, 17)


def main():
    print("# normalisation constants")
    for n, b in [(1, 1), (2, 2), (3, 3), (2, 4), (3, 3.8), (1, 0.75)]:
        print(f"Z({n},{b}) = {fmt(Z(n, mp.mpf(b)))}")

    print("\n# density at origin-ish points")
    # density(x) = (1+|x|^2)^(-beta) / Z
    n, b = 2, 2
    x2 = mp.mpf(1)  # |x|^2 = 1 e.g. x=(1,0)
    print(f"density(n=2,beta=2,|x|^2=1) = {fmt((1 + x2) ** (-b) / Z(n, b))}")
    print(f"1/(4*pi) = {fmt(1 / (4 * mp.pi))}")

    print("\n# inverse-weight moments  int (1+|x|^2)^(-g) dmu = Z(n,beta+g)/Z(n,beta)")
    for n, b, g in [(2, 2, 1), (3, 2.5, 0.5), (1, 1, 2)]:
        print(f"omega_moment(n={n},beta={b},g={g}) = {fmt(Z(n, mp.mpf(b) + mp.mpf(g)) / Z(n, mp.mpf(b)))}")
        # cross-check against (beta-n/2)/beta for g=1:
    print(f"(beta-n/2)/beta at n=2,beta=2 = {fmt((mp.mpf(2) - 1) / 2)}")

    print("\n# positive-weight moments M_g")
    for n, b, g in [(2, 4, 1), (2, 4, 2), (3, 3.8, 1), (1, 2, 0.5)]:
        print(f"M(n={n},beta={b},g={g}) = {fmt(M(n, b, g))}")

    print("\n# mean squared norm n/(2 beta - n - 2)")
    for n, b in [(2, 2.0001), (2, 2.1), (3, 4), (1, 2)]:
        print(f"mean_sq_norm(n={n},beta={b}) = {fmt(mp.mpf(n) / (2 * mp.mpf(b) - n - 2))}")

    print("\n# closed-form gap table rows (piecewise)")

    def gap(n, beta):
        n = mp.mpf(n)
        beta = mp.mpf(beta)
        if n == 1:
            return (beta - mp.mpf(1) / 2) ** 2 if beta <= mp.mpf(3) / 2 else 2 * (beta - 1)
        if beta <= n / 2 + 2:
            return (beta - n / 2) ** 2
        if beta <= n + 1:
            return 4 * (beta - n / 2 - 1)
        return 2 * (beta - 1)

    for n, b in [(1, 0.75), (1, 1.5), (1, 3), (2, 1.5), (2, 3), (2, 3.5), (2, 4),
                 (3, 2.0), (3, 3.8), (3, 4), (3, 5), (4, 4.5), (4, 6)]:
        print(f"gap(n={n},beta={b}) = {fmt(gap(n, b))}")

    print("\n# power-family Rayleigh quotient  4 e^2 (M_2e - M_(2e-1)) / (M_2e - M_e^2)")

    def rq(n, beta, eps):
        n, beta, eps = mp.mpf(n), mp.mpf(beta), mp.mpf(eps)
        m2e = M(n, beta, 2 * eps)
        m2e1 = M(n, beta, 2 * eps - 1)
        me = M(n, beta, eps)
        return 4 * eps ** 2 * (m2e - m2e1) / (m2e - me ** 2)

    for n, b in [(2, 1.5), (3, 2.0)]:
        e_star = (2 * mp.mpf(b) - n) / 4
        for frac in [mp.mpf("0.5"), mp.mpf("0.9"), mp.mpf("0.98")]:
            e = frac * e_star
            print(f"rq(n={n},beta={b},eps={fmt(e)}) = {fmt(rq(n, b, e))}   target {fmt((mp.mpf(b)-mp.mpf(n)/2)**2)}")

    print("\n# lower-range split constants at (n=3, beta=2.6), eps=0.7 and eps0")
    n, b = mp.mpf(3), mp.mpf("2.6")
    for e in [mp.mpf("0.7"), n / 2 + 2 - b]:
        B = ((n - 2) * e ** 2 - 8 * (b - 1) * e + 8 * (b - 1) * (n + 1 - b)) / (2 * (n - 1))
        C = e * (e + 2 * (b - 1))
        D = -(e ** 2) + (n + 2 - 2 * (b - 1)) * e + 4 * (b - n / 2 - 1)
        print(f"eps={fmt(e)}: B={fmt(B)} C={fmt(C)} D={fmt(D)}")
    print(f"eps0 = n/2+2-beta = {fmt(n/2+2-b)}; D(eps0) should be (beta-n/2)^2 = {fmt((b-n/2)**2)}")

    print("\n# curvature witness closed forms at |x0|")
    # Gamma(log-radial witness) = 1 + 1/|x|^2 ; Gamma2 = n/|x|^4 + (2 beta + n - 2)/|x|^2
    for n, b, r in [(2, 1.5, 2.0), (3, 3.0, 4.0)]:
        n_, b_, r_ = mp.mpf(n), mp.mpf(b), mp.mpf(r)
        print(f"witness(n={n},beta={b},r={r}): Gamma={fmt(1 + 1/r_**2)}  "
              f"Gamma2={fmt(n_/r_**4 + (2*b_+n_-2)/r_**2)}")

    print("\n# curvature-condition margins")
    # (H1) min eig Hess(omega) = 2 for the Cauchy weight (exact).
    # (H2) matrix (beta-1)*Hess(w) + (n+1-beta)/(n-1) * w*(Hess(w) - Lap(w) Id)
    #   for w = 1+r^2: Hess = 2 Id, Lap = 2n =>
    #   margin = 2(beta-1) + (n+1-beta)/(n-1) * w * 2(1-n) = 2(beta-1) - 2 w (n+1-beta)
    #   worst over r: if beta <= n+1 decreasing in w => -inf unless beta = n+1... at beta=n+1: 2n.
    n = mp.mpf(3)
    b = n + 1
    print(f"h2_margin at beta=n+1, n=3 (w-uniform): {fmt(2*(b-1))} = 2n = {fmt(2*n)}")

    print("\n# kappa window  [(n(n+1)k - 2)/(n(k+1) - 2), n+1]")
    for n, k in [(2, 2), (3, 1.5)]:
        n_, k_ = mp.mpf(n), mp.mpf(k)
        lo = (n_ * (n_ + 1) * k_ - 2) / (n_ * (k_ + 1) - 2)
        print(f"window(n={n},kappa={k}) = [{fmt(lo)}, {fmt(n_+1)}]")

    print("\n# sq-norm CDF example: P(|x|^2 <= 1) at n=2, beta=2 = I_(1/2)(1, 1) = 1/2")
    print(f"betainc: {fmt(mp.betainc(1, 1, 0, mp.mpf(1)/2, regularized=True))}")

    print("\n# 1D split constants A_e = 2(beta-1)+e, B_e = A_e(1-e); at e0=3/2-beta")
    b = mp.mpf("1.2")
    e0 = mp.mpf(3) / 2 - b
    print(f"beta=1.2: A0={fmt(2*(b-1)+e0)} (= beta-1/2 = {fmt(b-mp.mpf(1)/2)}), "
          f"B0={fmt((2*(b-1)+e0)*(1-e0))} (= (beta-1/2)^2 = {fmt((b-mp.mpf(1)/2)**2)})")

    print("\n# cell hat products on the m = 2048, delta = 1e-3 grid r = sinh(s) at")
    print("# (n, beta) = (3, 3.8), cells 0, 1023, 2046, for the exponents d: mass")
    print("# (LL, LR, RR) against r^2 (1+r^2)^(-d), ell (LL, LR, RR) against")
    print("# (1+r^2)^(1-d), grad = int r^2 (1+r^2)^(1-d) dr / h^2; then the tail")
    print("# moments int_R^inf r^c (1+r^2)^(-d) dr")
    # With t = 1/(1+r^2) a moment int r^c (1+r^2)^(-d) dr is (1/2) int of
    # the beta density t^(a-1) (1-t)^(b-1), a = d - (c+1)/2, b = (c+1)/2;
    # mpmath's incomplete beta stays exact where tanh-sinh quadrature of
    # the steep integrand (d >= 10) does not.  The hat products expand in
    # three moments, which cancel in double but not at 50 digits.  The
    # cells are [sinh s0, sinh s1] for the float64 s the package builds
    # (grid_s), whose rounded sinh are the package's radii.
    s = grid_s(2048, 1e-3, 3, 3.8)
    r = [mp.sinh(mp.mpf(float(x))) for x in s]

    def moment(c, d, lo, hi):  # over [lo, hi] (hi = None: to infinity)
        a, b = d - mp.mpf(c + 1) / 2, mp.mpf(c + 1) / 2
        return mp.betainc(a, b, 0 if hi is None else 1 / (1 + hi ** 2), 1 / (1 + lo ** 2)) / 2

    def pairs(c, d, j):  # (LL, LR, RR) of the hats on cell j against r^c (1+r^2)^(-d)
        r0, r1 = r[j], r[j + 1]
        q0, q1, q2 = (moment(c + i, d, r0, r1) for i in range(3))
        hh = (r1 - r0) ** 2
        return ((r1 * r1 * q0 - 2 * r1 * q1 + q2) / hh,
                (-r0 * r1 * q0 + (r0 + r1) * q1 - q2) / hh,
                (r0 * r0 * q0 - 2 * r0 * q1 + q2) / hh)

    cells = (0, 1023, 2046)
    print("_CELL_PINS = {")
    for d in ("1.2", "2.5", "5", "10", "50"):
        d = mp.mpf(d)
        mass = [pairs(2, d, j) for j in cells]
        ell = [pairs(0, d - 1, j) for j in cells]
        grad = [moment(2, d - 1, r[j], r[j + 1]) / (r[j + 1] - r[j]) ** 2 for j in cells]
        rows = [[p[i] for p in mass] for i in range(3)] + [[p[i] for p in ell] for i in range(3)]
        print(f"    {mp.nstr(d, 3)}: (")
        for row in rows + [grad]:
            print(f"        ({', '.join(fmt(v) for v in row)}),")
        print("    ),")
    print("}")
    R = mp.mpf(float(np.sinh(s[-1])))  # the tail starts at the package's float64 R
    print("_TAIL_PINS = {")
    for d in ("1.2", "2.5", "5", "10", "50"):
        for c in (0, 1, 2):
            if mp.mpf(d) - mp.mpf(c + 1) / 2 > 0:  # else the tail moment diverges
                print(f"    ({c}, {d}): {fmt(moment(c, mp.mpf(d), R, None))},")
    print("}")

    print("\n# tail moments past the cap R_beta of (n, beta) = (6, 1e5) and")
    print("# (6, 1e7) on the m = 64 grid, where t_R = 1/(1+R^2) = 0.994 and")
    print("# 0.99994: c = n-1+p+q against beta (the mass) and c = n-3+p+q")
    print("# against beta - 1 (the ell term), p + q = 0..4")
    n = 6
    for beta, name in ((100000, "_FAR_TAIL"), (10000000, "_FARTHEST_TAIL")):
        R = mp.mpf(float(np.sinh(grid_s(64, 1e-3, n, beta)[-1])))
        print(f"{name}_R = {float(R)!r}")
        print(f"{name}_PINS = {{")
        for c0, d in ((n - 1, beta), (n - 3, beta - 1)):
            for c in range(c0, c0 + 5):
                print(f"    ({c}, {d}): {fmt(moment(c, mp.mpf(d), R, None))},")
        print("}")

    print("\n# tail moments on the m = 64 grid at (3, 3.5 + 1e-6), delta = 1e-3, on")
    print("# the ray-admissibility edge (a = d - (c+1)/2 = 1e-6 at c = 6), and at")
    print("# (1, 1.2) and (3, 3.8), delta = 0.2, where R = 4.93 is the smallest")
    print("# uncapped R: every (c, d) the assembly reads, c = n-1+p+q against beta")
    print("# and c = n-3+p+q against beta - 1, p and q over 0 and the rays")
    print("_EDGE_TAIL_PINS = {")
    for n, beta, delta in ((3, 3.5 + 1e-6, 1e-3), (1, 1.2, 0.2), (3, 3.8, 0.2)):
        R = float(np.sinh(grid_s(64, delta, n, beta)[-1]))
        powers = (0,) + tuple(k for k in (1, 2) if 2.0 * k < 2.0 * beta - n - 1e-9)
        sums = sorted({p + q for p in powers for q in powers})
        print(f"    ({n}, {beta!r}, {delta!r}): ({R!r}, {{")
        for c0, d in ((n - 1, beta), (n - 3, beta - 1.0)):
            for c in (c0 + s for s in sums):
                print(f"        ({c}, {d!r}): {fmt(moment(c, mp.mpf(d), mp.mpf(R), None))},")
        print("    }),")
    print("}")


def grid_s(m, delta, n, beta):
    """The s values of spectral.Discretization(m, delta) for the measure
    (n, beta), written out here: s uniform on [0, asinh R], where
    R = min(tan(pi/2 - delta), R_beta) and (1 + R_beta^2)^((2 beta - n + 1)/2)
    = 10^250, the radius where the tail weight reaches about 1e-250.  The
    radii are r = sinh(s)."""
    far = math.tan(math.pi / 2.0 - delta)
    tail = 500.0 * math.log(10.0) / (2.0 * beta - n + 1.0)
    R = far if tail >= math.log1p(far * far) else math.sqrt(math.expm1(tail))
    return np.linspace(0.0, math.asinh(R), m)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--radii", nargs=2, type=float, metavar=("N", "BETA"),
                        help="print the m = 2048, delta = 1e-3 radii at (N, BETA), "
                             "one per line, instead of the constants")
    args = parser.parse_args()
    if args.radii:
        print("\n".join(repr(float(x)) for x in np.sinh(grid_s(2048, 1e-3, *args.radii))))
    else:
        main()
