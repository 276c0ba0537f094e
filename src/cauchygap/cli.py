"""Command-line front end: gap, sweep, verify, deficit, rayleigh, sample.

Exit codes: 0 success, 1 configuration error, 2 tolerance failure,
3 numerical breakdown (a mode problem's matrices underflow or lose
definiteness).  Each subcommand is declared once, in `build_parser`: its
name and help, the function it runs, the flags it reads with their
defaults and types (it refuses any other), and the flags it requires.  A
key=value config file (--config) overrides the defaults and flags
override the file; `main` then checks the required flags, in one place.
Domain rules (beta > n/2, the Rayleigh epsilon limits, count >= 1, ...)
are the library's refusals.  --out defaults into the directory named by
the CAUCHYGAP_OUTDIR environment variable.

Every file is written by `_write_csv` or `_write_json`: lines end in
"\n" and a float is written as %.17g.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from .functions import make_linear, make_quadratic_centered, make_random_test
from .measures import MeasureParams, l2_growth_limit, mean_sq_norm, omega_moment, sample
from .quadrature import VERIFY_GRID, lowfact_sign_check, verify_all
from .semigroup import DeficitMismatch, deficit
from .spectral import (GAP_FORMULA, RAYLEIGH_EPS_LIMIT, Discretization,
                       NumericalBreakdown, numeric_gap, rayleigh_quotient_1d,
                       rayleigh_quotient_power)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TOLERANCE = 2
EXIT_NUMERICAL = 3

OUTDIR_ENV = "CAUCHYGAP_OUTDIR"

SWEEP_COLUMNS = ("n", "beta", "range_tag", "closed_form", "numeric_gap",
                 "rel_error", "minimizing_mode", "m", "delta")
# a report's mode_brackets follow SWEEP_COLUMNS, empty where a mode is certified
BRACKET_COLUMNS = ("mode0_bracket_lo", "mode0_bracket_hi",
                   "mode1_bracket_lo", "mode1_bracket_hi")


def _fmt(x: float) -> str:
    return "%.17g" % x


def _write_csv(path: str, header, rows) -> None:
    """A header line, then one line per row; a float cell as %.17g, any
    other cell (int, str) as str."""
    with open(path, "w") as fh:
        for row in itertools.chain((header,), rows):
            fh.write(",".join([_fmt(v) if isinstance(v, float) else str(v)
                               for v in row]) + "\n")


def _sweep_row(report) -> list:
    return [getattr(report, c) for c in SWEEP_COLUMNS] + [
        end for b in report.mode_brackets for end in (b or ("", ""))]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _at_least(kind, low, name: str):
    """A flag type: kind(text), refused with ValueError below low or NaN,
    so that argparse and load_config apply the same rule; argparse names
    it in its message as `name`."""
    def parse(text):
        value = kind(text)
        if not value >= low:
            raise ValueError(f"{text!r} is not a {name}")
        return value
    parse.__name__ = name
    return parse


# Flags that several subcommands declare; --n and --beta have no default,
# as a config file may supply them, and `main` checks them.
_SHARED_FLAGS = {
    "n": dict(type=int),
    "beta": dict(type=float),
    "m": dict(type=int, default=512),
    "delta": dict(type=float, default=1e-3),
    "seed": dict(type=_at_least(int, 0, "non-negative int"), default=0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchygap",
        description="Spectral gap and curvature identities of the weighted "
                    "diffusion operator for heavy-tailed power-law measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, required, *flags):
        """Subcommand `name`, which runs run(args): --config, --out and the
        shared flags named.  `required` names the flags that `main` needs
        from the command line or the --config file."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, required=required)
        p.add_argument("--config", help="key=value file; flags take precedence")
        p.add_argument("--out")
        for flag in flags:
            p.add_argument("--" + flag, **_SHARED_FLAGS[flag])
        return p

    tol = _at_least(float, 0.0, "non-negative float")
    p = command("gap", cmd_gap, "one (n, beta) eigensolve vs the closed form",
                ("n", "beta"), "n", "beta", "m", "delta")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--tol", type=tol, default=1e-3)
    p = command("sweep", cmd_sweep, "gap table over a beta range",
                ("n", "beta_min", "beta_max"), "n", "m", "delta")
    p.add_argument("--beta-min", type=float)
    p.add_argument("--beta-max", type=float)
    p.add_argument("--steps", type=_at_least(int, 1, "positive int"), default=20)
    p = command("verify", cmd_verify, "integral identity suite", (),
                "n", "beta", "seed")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--tol", type=tol, default=1e-5)
    p.add_argument("--corrupt-ipp1", action="store_true",
                   help="negative control: flip a sign in IPP1 and expect "
                        "the report to fail")
    p = command("deficit", cmd_deficit, "range deficit of a named test function",
                ("n", "beta", "range", "f"), "n", "beta", "seed")
    p.add_argument("--range", choices=("upper", "mid", "lower"))
    p.add_argument("--f", choices=tuple(_TEST_FUNCTIONS))
    p = command("rayleigh", cmd_rayleigh, "trial-family Rayleigh quotients "
                "near the essential spectrum", ("n", "beta", "eps_from_limit"),
                "n", "beta")
    p.add_argument("--family", choices=tuple(_QUOTIENTS))
    p.add_argument("--eps-from-limit",
                   help="comma list of distances below the admissible "
                        "epsilon limit")
    p = command("sample", cmd_sample, "exact sampler draws to CSV", ("n", "beta"),
                "n", "beta", "seed")
    p.add_argument("--count", type=int, default=1000)
    return parser


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return next(a.choices for a in parser._actions if a.dest == "command")


def load_config(path: str) -> dict:
    """Typed values of a key=value file, each key typed and checked by its
    flag's declaration in any subcommand; ValueError on an unknown key, a
    bad value or a malformed line."""
    options = {a.dest: a for p in _subcommands(build_parser()).values()
               for a in p._actions
               if a.nargs != 0 and a.dest != "config"}  # not --help, --config, switches
    values = {}
    with open(path) as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in options:
                raise ValueError(f"unknown config key {key!r}")
            opt = options[key]
            where = f"config line {number}, {key} = {val}"
            try:
                values[key] = (opt.type or str)(val)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if opt.choices and values[key] not in opt.choices:
                raise ValueError(f"{where}: not one of {opt.choices}")
    return values


def _out_path(args: argparse.Namespace, default_name: str) -> str:
    return args.out or os.path.join(os.environ.get(OUTDIR_ENV, "."), default_name)


def cmd_gap(args: argparse.Namespace) -> int:
    params = MeasureParams(args.n, args.beta)
    report = numeric_gap(params, Discretization(m=args.m, delta=args.delta))
    path = _out_path(args, f"gap_n{params.n}_beta{params.beta:g}.{args.format}")
    if args.format == "json":
        _write_json(path, dataclasses.asdict(report))
    else:
        _write_csv(path, SWEEP_COLUMNS + BRACKET_COLUMNS, [_sweep_row(report)])
    print(f"n={report.n} beta={report.beta:g} closed_form={_fmt(report.closed_form)} "
          f"numeric={_fmt(report.numeric_gap)} rel_error={report.rel_error:.3e} "
          f"[{report.range_tag}] -> {path}")
    return EXIT_OK if abs(report.rel_error) <= args.tol else EXIT_TOLERANCE


def cmd_sweep(args: argparse.Namespace) -> int:
    if not args.beta_min < args.beta_max:
        raise ValueError("need beta-min < beta-max")
    disc = Discretization(m=args.m, delta=args.delta)
    reports = [numeric_gap(MeasureParams(args.n, float(b)), disc)
               for b in np.linspace(args.beta_min, args.beta_max, args.steps)]
    path = _out_path(args, f"sweep_n{args.n}.csv")
    _write_csv(path, SWEEP_COLUMNS + BRACKET_COLUMNS, [_sweep_row(r) for r in reports])
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
    if (args.n is None) != (args.beta is None):
        raise ValueError("give both --n and --beta, or neither for the "
                         "default grid")
    grid = VERIFY_GRID if args.n is None else [(args.n, args.beta)]
    points = []
    ok = True
    worst = 0.0
    for n, beta in grid:
        params = MeasureParams(n, beta)
        reports = verify_all(params, trials=args.trials, seed=args.seed,
                             corrupt_ipp1=args.corrupt_ipp1)
        for rep in reports:
            passed = rep.rel_err <= args.tol
            ok = ok and passed
            worst = max(worst, rep.rel_err)
            print(f"n={n} beta={beta:g} {rep.tag:10s} "
                  f"rel_err={rep.rel_err:.3e} {'ok' if passed else 'FAIL'}")
        points.append({"n": n, "beta": beta,
                       "reports": [dataclasses.asdict(r) for r in reports],
                       "lowfact_sign": lowfact_sign_check(params, trials=3,
                                                          seed=args.seed)})
    payload = {"tol": args.tol, "trials": args.trials, "seed": args.seed,
               "corrupt_ipp1": bool(args.corrupt_ipp1),
               "all_pass": ok, "points": points}
    path = _out_path(args, "verify.json")
    _write_json(path, payload)
    print(f"worst rel_err = {worst:.3e}; "
          + ("all identities hold" if ok else "FAILURES present"))
    print(f"{'PASS' if ok else 'FAIL'} -> {path}")
    return EXIT_OK if ok else EXIT_TOLERANCE


# --f's choices: each test function from (params, seed)
_TEST_FUNCTIONS = {
    "linear": lambda params, seed: make_linear(np.eye(params.n)[0]),
    "quadratic": lambda params, seed: make_quadratic_centered(params),
    "bump": lambda params, seed: make_random_test(seed=seed, n=params.n),
}


def cmd_deficit(args: argparse.Namespace) -> int:
    params = MeasureParams(args.n, args.beta)
    f = _TEST_FUNCTIONS[args.f](params, args.seed)
    value = deficit(f, params, args.range)
    path = _out_path(args, f"deficit_{args.range}_{args.f}.csv")
    _write_csv(path, ("n", "beta", "range_tag", "f", "deficit"),
               [(params.n, params.beta, args.range, args.f, value)])
    print(f"deficit[{args.range}]({args.f}) = {_fmt(value)} -> {path}")
    return EXIT_OK


# --family's choices; each quotient refuses an epsilon at or past its
# family's limit, so it also refuses a distance d <= 0 below that limit
_QUOTIENTS = {"power": rayleigh_quotient_power, "oned": rayleigh_quotient_1d}


def cmd_rayleigh(args: argparse.Namespace) -> int:
    params = MeasureParams(args.n, args.beta)
    family = args.family or ("oned" if params.n == 1 else "power")
    dists = [float(tok) for tok in args.eps_from_limit.split(",") if tok.strip()]
    if not dists:
        raise ValueError("--eps-from-limit needs at least one distance")
    limit = GAP_FORMULA["lower"](params.n, params.beta)
    eps_max = RAYLEIGH_EPS_LIMIT[family](params.n, params.beta)
    rows = [(family, params.n, params.beta, d, eps_max - d,
             _QUOTIENTS[family](eps_max - d, params), limit)
            for d in sorted(dists, reverse=True)]
    path = _out_path(args, f"rayleigh_{family}_n{params.n}.csv")
    _write_csv(path, ("family", "n", "beta", "eps_from_limit", "epsilon",
                      "quotient", "limit"), rows)
    for *_, eps, q, lim in rows:
        print(f"eps={_fmt(eps)} quotient={_fmt(q)} (limit {_fmt(lim)})")
    print(f"-> {path}")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    params = MeasureParams(args.n, args.beta)
    points = sample(params, args.count, args.seed)
    x2 = np.sum(points ** 2, axis=1)
    checks = [("omega_inv", 1.0 / (1.0 + x2), omega_moment(1.0, params))]
    if 1 < l2_growth_limit(params):  # |x| in L^2: E|x|^2 is finite
        checks.append(("mean_sq_norm", x2, mean_sq_norm(params)))
    path = _out_path(args, f"sample_n{params.n}_beta{params.beta:g}.csv")
    # the points row by row (np.float64 cells are floats), then the checks
    _write_csv(path, [f"x{i + 1}" for i in range(params.n)], itertools.chain(
        points, (("# moment_check", name, float(np.mean(v)), expected,
                  float(np.std(v) / np.sqrt(args.count)))
                 for name, v, expected in checks)))
    print(f"{args.count} draws -> {path}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:  # the file's values become the subcommand's defaults
            command = _subcommands(parser)[args.command]
            dests = {a.dest for a in command._actions}
            command.set_defaults(**{k: v for k, v in load_config(args.config).items()
                                    if k in dests})
            args = parser.parse_args(argv)
        missing = ["--" + d.replace("_", "-") for d in args.required
                   if getattr(args, d) is None]
        if missing:
            raise ValueError(f"{args.command} needs {' '.join(missing)} "
                             "(flags or --config keys)")
        return args.run(args)
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
