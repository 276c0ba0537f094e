"""Command-line front end: gap, sweep, verify, deficit, rayleigh, sample.

Exit codes: 0 success, 1 configuration error, 2 tolerance failure,
3 numerical breakdown (a mode problem's matrices underflow or lose
definiteness).  Flags override a plain-text key=value config file
(--config); --out defaults into the directory named by the CAUCHYGAP_OUTDIR
environment variable.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .functions import make_linear, make_quadratic_centered, make_random_test
from .measures import MeasureParams, mean_sq_norm, omega_moment, sample
from .quadrature import VERIFY_GRID, lowfact_sign_check, verify_all
from .semigroup import DeficitMismatch, deficit
from .spectral import (GAP_FORMULA, Discretization, NumericalBreakdown,
                       gap_sweep, numeric_gap, rayleigh_quotient_1d,
                       rayleigh_quotient_power, write_sweep_csv)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TOLERANCE = 2
EXIT_NUMERICAL = 3

OUTDIR_ENV = "CAUCHYGAP_OUTDIR"


def _fmt(x: float) -> str:
    return "%.17g" % x


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file; flags take precedence")
    common.add_argument("--n", type=int)
    common.add_argument("--beta", type=float)
    common.add_argument("--m", type=int)
    common.add_argument("--delta", type=float)
    common.add_argument("--ell-max", type=int, dest="ell_max")
    common.add_argument("--trials", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--out")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--tol", type=float)

    parser = argparse.ArgumentParser(
        prog="cauchygap",
        description="Spectral gap and curvature identities of the weighted "
                    "diffusion operator for heavy-tailed power-law measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gap", parents=[common],
                   help="one (n, beta) eigensolve vs the closed form")
    p = sub.add_parser("sweep", parents=[common],
                       help="gap table over a beta range")
    p.add_argument("--beta-min", type=float, dest="beta_min")
    p.add_argument("--beta-max", type=float, dest="beta_max")
    p.add_argument("--steps", type=int)
    p = sub.add_parser("verify", parents=[common],
                       help="integral identity suite")
    p.add_argument("--corrupt-ipp1", action="store_true", dest="corrupt_ipp1",
                   help="negative control: flip a sign in IPP1 and expect "
                        "the report to fail")
    p = sub.add_parser("deficit", parents=[common],
                       help="range deficit of a named test function")
    p.add_argument("--range", choices=("upper", "mid", "lower"))
    p.add_argument("--f", choices=("linear", "quadratic", "bump"))
    p = sub.add_parser("rayleigh", parents=[common],
                       help="trial-family Rayleigh quotients near the "
                            "essential spectrum")
    p.add_argument("--family", choices=("power", "oned"))
    p.add_argument("--eps-from-limit",
                   help="comma list of distances below the admissible "
                        "epsilon limit")
    p = sub.add_parser("sample", parents=[common],
                       help="exact sampler draws to CSV")
    p.add_argument("--count", type=int)
    return parser


def load_config(path: str) -> dict:
    """Typed values of a key=value file, each key typed and checked by its
    flag's declaration; ValueError on an unknown key, a bad value or a
    malformed line."""
    commands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    options = {a.dest: a for p in commands.values() for a in p._actions
               if a.nargs != 0 and a.dest != "config"}  # not --help, --config, switches
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.strip()!r}")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in options:
                raise ValueError(f"unknown config key {key!r}")
            opt = options[key]
            values[key] = (opt.type or str)(val.strip())
            if opt.choices and values[key] not in opt.choices:
                raise ValueError(f"config {key}={val.strip()}: not one of {opt.choices}")
    return values


def _merge_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    for key, val in load_config(args.config).items():
        if getattr(args, key, None) is None:
            setattr(args, key, val)


def _out_path(args: argparse.Namespace, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), default_name)


def _params(args: argparse.Namespace) -> MeasureParams:
    if args.n is None or args.beta is None:
        raise ValueError("--n and --beta are required")
    return MeasureParams(args.n, args.beta)


def _disc(args: argparse.Namespace) -> Discretization:
    return Discretization(m=args.m if args.m is not None else 512,
                          delta=args.delta if args.delta is not None else 1e-3)


def cmd_gap(args: argparse.Namespace) -> int:
    params = _params(args)
    report = numeric_gap(params, _disc(args),
                         ell_max=args.ell_max if args.ell_max is not None else 3)
    tol = args.tol if args.tol is not None else 1e-3
    fmt = args.format or "json"
    path = _out_path(args, f"gap_n{params.n}_beta{params.beta:g}.{fmt}")
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write(report.to_json() + "\n")
    else:
        write_sweep_csv([report], path)
    print(f"n={report.n} beta={report.beta:g} closed_form={_fmt(report.closed_form)} "
          f"numeric={_fmt(report.numeric_gap)} rel_error={report.rel_error:.3e} "
          f"[{report.range_tag}] -> {path}")
    return EXIT_OK if abs(report.rel_error) <= tol else EXIT_TOLERANCE


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n is None:
        raise ValueError("--n is required")
    if args.beta_min is None or args.beta_max is None:
        raise ValueError("--beta-min and --beta-max are required")
    steps = args.steps if args.steps is not None else 20
    if steps < 1:
        raise ValueError("--steps must be >= 1")
    if not (args.n / 2.0 < args.beta_min < args.beta_max):
        raise ValueError("need n/2 < beta-min < beta-max")
    betas = np.linspace(args.beta_min, args.beta_max, steps)
    reports = gap_sweep(args.n, betas, _disc(args),
                        ell_max=args.ell_max if args.ell_max is not None else 3)
    path = _out_path(args, f"sweep_n{args.n}.csv")
    write_sweep_csv(reports, path)
    print(f"{len(reports)} rows -> {path}")
    for tag in ("lower", "mid", "upper"):
        errs = [abs(r.rel_error) for r in reports if r.range_tag == tag]
        if errs:
            print(f"  {tag:5s}: worst |rel_error| = {max(errs):.3e}")
    if any(r.range_tag == "lower" and abs(r.rel_error) > 1e-2 for r in reports):
        print("  note: the lower range is an essential-spectrum edge; the "
              "Galerkin value sits above it and converges slowly in m.")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    trials = args.trials if args.trials is not None else 50
    seed = args.seed if args.seed is not None else 0
    tol = args.tol if args.tol is not None else 1e-5
    if args.n is not None and args.beta is not None:
        grid = [(args.n, args.beta)]
    elif args.n is None and args.beta is None:
        grid = list(VERIFY_GRID)
    else:
        raise ValueError("give both --n and --beta, or neither for the "
                         "default grid")
    points = []
    ok = True
    worst = 0.0
    for n, beta in grid:
        params = MeasureParams(n, beta)
        reports = verify_all(params, trials=trials, seed=seed,
                             corrupt_ipp1=args.corrupt_ipp1)
        for rep in reports:
            ok = ok and rep.rel_err <= tol
            worst = max(worst, rep.rel_err)
            print(f"n={n} beta={beta:g} {rep.tag:10s} "
                  f"rel_err={rep.rel_err:.3e} {rep.status}")
        entry = {"n": n, "beta": beta,
                 "reports": [dataclasses.asdict(r) for r in reports]}
        if n >= 2:
            entry["lowfact_sign"] = lowfact_sign_check(params, trials=3,
                                                       seed=seed)
        points.append(entry)
    payload = {"tol": tol, "trials": trials, "seed": seed,
               "corrupt_ipp1": bool(args.corrupt_ipp1),
               "all_pass": ok, "points": points}
    path = _out_path(args, "verify.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"worst rel_err = {worst:.3e}; "
          + ("all identities hold" if ok else "FAILURES present"))
    print(f"{'PASS' if ok else 'FAIL'} -> {path}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def _named_test_function(name: str, params: MeasureParams, seed: int):
    if name == "linear":
        a = np.zeros(params.n)
        a[0] = 1.0
        return make_linear(a)
    if name == "quadratic":
        return make_quadratic_centered(params)
    if name == "bump":
        return make_random_test(seed=seed, n=params.n)
    raise ValueError(f"unknown test function {name!r}")


def cmd_deficit(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.range is None or args.f is None:
        raise ValueError("--range and --f are required")
    f = _named_test_function(args.f, params, args.seed or 0)
    value = deficit(f, params, args.range)
    path = _out_path(args, f"deficit_{args.range}_{args.f}.csv")
    with open(path, "w") as fh:
        fh.write("n,beta,range_tag,f,deficit\n")
        fh.write(f"{params.n},{_fmt(params.beta)},{args.range},{args.f},"
                 f"{_fmt(value)}\n")
    print(f"deficit[{args.range}]({args.f}) = {_fmt(value)} -> {path}")
    return EXIT_OK


def cmd_rayleigh(args: argparse.Namespace) -> int:
    params = _params(args)
    family = args.family or ("oned" if params.n == 1 else "power")
    if args.eps_from_limit is None:
        raise ValueError("--eps-from-limit is required (comma list)")
    dists = [float(tok) for tok in args.eps_from_limit.split(",") if tok.strip()]
    if not dists or any(d <= 0 for d in dists):
        raise ValueError("distances below the limit must be positive")
    limit = GAP_FORMULA["lower"](params.n, params.beta)
    if family == "power":
        eps_max = (2.0 * params.beta - params.n) / 4.0
        quotient = lambda e: rayleigh_quotient_power(e, params)  # noqa: E731
    else:
        if params.n != 1:
            raise ValueError("family oned requires n = 1")
        eps_max = (2.0 * params.beta - 3.0) / 4.0
        quotient = lambda e: rayleigh_quotient_1d(e, params.beta)  # noqa: E731
    rows = []
    for d in sorted(dists, reverse=True):
        eps = eps_max - d
        rows.append((d, eps, quotient(eps), limit))
    path = _out_path(args, f"rayleigh_{family}_n{params.n}.csv")
    with open(path, "w") as fh:
        fh.write("family,n,beta,eps_from_limit,epsilon,quotient,limit\n")
        for d, eps, q, lim in rows:
            fh.write(f"{family},{params.n},{_fmt(params.beta)},{_fmt(d)},"
                     f"{_fmt(eps)},{_fmt(q)},{_fmt(lim)}\n")
    for d, eps, q, lim in rows:
        print(f"eps={_fmt(eps)} quotient={_fmt(q)} (limit {_fmt(lim)})")
    print(f"-> {path}")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    params = _params(args)
    count = args.count if args.count is not None else 1000
    seed = args.seed if args.seed is not None else 0
    batch = sample(params, count, seed)
    path = _out_path(args, f"sample_n{params.n}_beta{params.beta:g}.csv")
    batch.to_csv(path)
    x2 = np.sum(batch.points ** 2, axis=1)
    est1 = float(np.mean(1.0 / (1.0 + x2)))
    se1 = float(np.std(1.0 / (1.0 + x2)) / np.sqrt(count))
    expected1 = omega_moment(1.0, params)
    line = (f"# moment_check,omega_inv,{_fmt(est1)},{_fmt(expected1)},{_fmt(se1)}")
    lines = [line]
    if 2.0 * params.beta - params.n - 2.0 > 0:
        est2 = float(np.mean(x2))
        se2 = float(np.std(x2) / np.sqrt(count))
        lines.append(f"# moment_check,mean_sq_norm,{_fmt(est2)},"
                     f"{_fmt(mean_sq_norm(params))},{_fmt(se2)}")
    with open(path, "a") as fh:
        for line in lines:
            fh.write(line + "\n")
    print(f"{count} draws -> {path}")
    return EXIT_OK


_COMMANDS = {
    "gap": cmd_gap,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "deficit": cmd_deficit,
    "rayleigh": cmd_rayleigh,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except DeficitMismatch as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # argparse: 0 after --help, else a usage error
        return EXIT_CONFIG if exc.code else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
