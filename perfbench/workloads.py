"""The benchmark's workloads, their correctness checks and their metrics.

Each workload is a fixed list of operations ("ops") on cauchygap's public API,
the one the `cauchygap` CLI wraps.  A run repeats whole passes over the list
until the requested seconds have elapsed.  Every op's output is checked; an op
that raises or fails its check counts as failed and is never dropped, retried
or skipped.  Only the program call is timed, the check is not.

Calls go through the module attribute (``spectral.numeric_gap``, not a name
imported here), so the tracer's wrappers see them.
"""
from __future__ import annotations

import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from cauchygap import functions, quadrature, semigroup, spectral
from cauchygap.measures import MeasureParams

# Seeds of pass p are seed + p * PASS_SEED_STRIDE, so pass 0 uses the
# workload seed itself.
PASS_SEED_STRIDE = 1000

GAP_REL_TOL = 1e-3        # criterion 2: mid/upper points against the closed form
EDGE_SLACK = 1e-6         # criterion 3: lower points sit above the edge
IDENTITY_TOL = 1e-5       # criterion 4 and `cauchygap verify`'s default
VARIANCE_SLACK = 1e-4     # criterion 7: |.| <= tail + 1e-4
DEFICIT_ZERO = 1e-8       # criteria 7-8: extremal deficits vanish
DEFICIT_NEG = -1e-6       # criterion 8: lower-range deficits are strictly negative


@dataclass
class OpRecord:
    op: int
    kind: str
    label: str
    seconds: float
    ok: bool
    units: float = 0.0          # work units the op completed (see `unit`)
    info: dict = field(default_factory=dict)
    error: str = ""


class Recorder:
    """Runs ops one at a time: time the call, then check its output."""

    def __init__(self, tracer=None):
        self.records: list[OpRecord] = []
        self.tracer = tracer

    def run(self, kind, label, call, check):
        op = len(self.records)
        if self.tracer is not None:
            self.tracer.op = op
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            seconds = time.perf_counter() - t0
            tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.records.append(OpRecord(op, kind, label, seconds, False, error=tb))
            return
        seconds = time.perf_counter() - t0
        ok, units, info = check(out)
        self.records.append(OpRecord(op, kind, label, seconds, bool(ok), units, info))

    def of(self, kind):
        return [r for r in self.records if r.kind == kind]


def _max(values, default=float("nan")):
    values = list(values)
    return max(values) if values else default


# ----------------------------------------------------------------------


class SpectralSweep:
    """numeric_gap(ell_max=3) at m = 2048 on eight fixed (n, beta) points.

    Lower points carry no tail rays (nn <= 2048, dense eigh for every mode);
    mid and upper points carry rays (nn = 2049-2050, shift-invert eigsh), so
    both sides of the solver switch are loaded.  (3, 200) lies in the
    documented domain and raises today, so it counts as a failed op.
    """
    name = "spectral_sweep"
    unit = "gap solve"
    POINTS = ((1, 1.2), (1, 3.0), (2, 1.5), (2, 4.0),
              (3, 2.0), (3, 3.8), (3, 5.0), (3, 200.0))

    def __init__(self, seed, toy=False):
        self.seed = seed  # no randomness in this workload
        self.disc = spectral.Discretization(m=64 if toy else 2048, delta=1e-3)
        self.ell_max = 3

    def parameters(self):
        return {"points": self.POINTS, "m": self.disc.m, "delta": self.disc.delta,
                "ell_max": self.ell_max}

    def warm_up(self):
        return {}

    def run_pass(self, rec, p):
        for n, beta in self.POINTS:
            params = MeasureParams(n, beta)
            rec.run("numeric_gap", f"numeric_gap({n}, {beta:g})",
                    lambda: spectral.numeric_gap(params, self.disc, ell_max=self.ell_max),
                    self.check)

    @staticmethod
    def check(rep):
        if rep.range_tag == "lower":
            excess = (rep.numeric_gap - rep.closed_form) / rep.closed_form
            ok = rep.numeric_gap >= rep.closed_form - EDGE_SLACK
            return ok, 1.0, {"edge_excess": excess}
        rel = abs(rep.rel_error)
        return rel <= GAP_REL_TOL, 1.0, {"rel_err": rel}

    def metrics(self, rec, wall):
        ops = rec.of("numeric_gap")
        passed = [r for r in ops if r.ok]
        rel = _max(r.info["rel_err"] for r in ops if "rel_err" in r.info)
        return {
            "gap_solves_per_s": (len(passed) / wall, "1/s", "higher"),
            "gap_rel_err_max": (rel, "1", "lower"),
            "gap_edge_excess_max": (_max(r.info["edge_excess"] for r in ops
                                         if "edge_excess" in r.info), "1", "lower"),
        }


class IdentityVerify:
    """verify_all over the 14 VERIFY_GRID points with criterion 4's spec, then
    lowfact_sign_check(trials=3) at the n >= 2 points, as `cauchygap verify`
    does.  All the work is in `functions` and `quadrature`."""
    name = "identity_verify"
    unit = "random trial"
    SUPPORT = 3.0  # verify_all's default support radius

    def __init__(self, seed, toy=False, corrupt_ipp1=False):
        self.seed = seed
        self.nodes, self.angular = (16, 12) if toy else (128, 40)
        self.trials = 1 if toy else 2
        self.lowfact_trials = 1 if toy else 3
        self.corrupt_ipp1 = corrupt_ipp1

    def spec(self, n):
        return quadrature.QuadratureSpec(
            scheme="polar_2d" if n == 2 else "product_spherical",
            nodes=self.nodes, angular_nodes=self.angular)

    def parameters(self):
        return {"grid": quadrature.VERIFY_GRID, "nodes": self.nodes,
                "angular_nodes": self.angular, "trials": self.trials,
                "lowfact_trials": self.lowfact_trials,
                "trial_seeds": "verify_all(seed = seed + pass * %d)" % PASS_SEED_STRIDE}

    def warm_up(self):
        # First fill of the cached radial rules and sphere directions, with
        # the exact keys verify_all uses (support 3, seam at 0.6 * 3).
        mass = {}
        for n, beta in quadrature.VERIFY_GRID:
            mass[f"{n},{beta:g}"] = quadrature.integrate_nd(
                lambda x: np.ones(len(x)), MeasureParams(n, beta), self.spec(n),
                support_radius=self.SUPPORT, seams=(0.6 * self.SUPPORT,))
        if not all(0.0 < v <= 1.0 + 1e-12 for v in mass.values()):
            raise RuntimeError(f"ball masses outside (0, 1]: {mass}")
        return {"ball_mass_min": min(mass.values())}

    def run_pass(self, rec, p):
        s = self.seed + p * PASS_SEED_STRIDE
        for n, beta in quadrature.VERIFY_GRID:
            params, spec = MeasureParams(n, beta), self.spec(n)
            rec.run("verify_all", f"verify_all({n}, {beta:g})",
                    lambda: quadrature.verify_all(params, spec=spec, trials=self.trials,
                                                  seed=s, corrupt_ipp1=self.corrupt_ipp1),
                    self.check_verify)
        for n, beta in quadrature.VERIFY_GRID:
            if n < 2:
                continue
            params, spec = MeasureParams(n, beta), self.spec(n)
            rec.run("lowfact_sign_check", f"lowfact_sign_check({n}, {beta:g})",
                    lambda: quadrature.lowfact_sign_check(params, spec=spec,
                                                          trials=self.lowfact_trials, seed=s),
                    lambda res: self.check_lowfact(res, n, beta))

    def check_verify(self, reports):
        rows = [r for r in reports if r.status == "ok"]
        worst = _max((r.rel_err for r in rows), 0.0)
        return (worst <= IDENTITY_TOL, float(self.trials),
                {"rows_checked": len(rows), "rel_err": worst})

    @staticmethod
    def check_lowfact(res, n, beta):
        # eps0 = n/2 + 2 - beta closes the split; where both signs give
        # eps0 = 0 the two candidates tie and either label is right.
        eps0 = n / 2.0 + 2.0 - beta
        resid = min(res["residual_plus"], res["residual_minus"])
        ok = math.isclose(res["resolved_eps0"], eps0, abs_tol=1e-12) and resid <= IDENTITY_TOL
        return ok, 0.0, {"residual": resid}

    def metrics(self, rec, wall):
        ops = rec.of("verify_all")
        rel = _max((r.info["rel_err"] for r in ops if "rel_err" in r.info), float("nan"))
        passes = max(1, len(ops) // len(quadrature.VERIFY_GRID))
        rows = sum(r.info.get("rows_checked", 0) for r in ops) / passes
        return {
            "verify_trials_per_s": (sum(r.units for r in ops) / wall, "1/s", "higher"),
            "identity_rel_err_max": (rel, "1", "lower"),
            "identity_rows_checked": (rows, "count", "higher"),
        }


class HeatFlow:
    """Criterion 7's variance representation (Crank-Nicolson, m = 1024,
    dt = 2e-5, T = default_horizon(Var, gap)) for f = make_random_test(seed, 1),
    then the eight-call deficit set of criteria 7-8."""
    name = "heat_flow"
    unit = "Crank-Nicolson step"
    VAR_PARAMS = (1, 2.0)

    def __init__(self, seed, toy=False):
        self.seed = seed
        self.disc = spectral.Discretization(m=64 if toy else 1024, delta=1e-3)
        self.dt = 2e-3 if toy else 2e-5

    def parameters(self):
        return {"variance": {"n_beta": self.VAR_PARAMS, "rho": 2.0, "m": self.disc.m,
                             "delta": self.disc.delta, "dt": self.dt,
                             "f": "make_random_test(seed, 1)",
                             "T": "default_horizon(Var, closed-form gap)"},
                "deficits": [label for label, *_ in self._deficit_set(self.seed)]}

    def warm_up(self):
        # First fill of the cached radial rules every op integrates against.
        bump = functions.make_random_test(0, 1)
        keys = [(MeasureParams(*self.VAR_PARAMS), bump.support_radius, bump.radial_seams)]
        for _, (n, beta), make, _ in self._deficit_set(0):
            f = make()
            keys.append((MeasureParams(n, beta), f.support_radius, f.radial_seams))
        for params, radius, seams in keys:
            quadrature.integrate_nd(lambda x: np.ones(len(x)), params,
                                    quadrature.default_nd_spec(params.n),
                                    support_radius=radius, seams=seams)
        return {}

    @staticmethod
    def _deficit_set(s):
        """(label, (n, beta), constructor, expected sign) for criteria 7-8."""
        lin = functions.make_linear
        return [
            ("upper linear e1 (3, 4)", (3, 4.0), lambda: lin(np.array([1.0, 0.0, 0.0])), "zero"),
            ("upper linear e2 (3, 4)", (3, 4.0), lambda: lin(np.array([0.0, 1.0, 0.0])), "zero"),
            ("mid quadratic (3, 3.8)", (3, 3.8),
             lambda: functions.make_quadratic_centered(MeasureParams(3, 3.8)), "zero"),
            (f"lower bump s={s} (2, 1.5)", (2, 1.5),
             lambda: functions.make_random_test(s, 2), "negative"),
            (f"lower bump s={s + 1} (2, 1.5)", (2, 1.5),
             lambda: functions.make_random_test(s + 1, 2), "negative"),
            (f"lower bump s={s + 2} (2, 1.5)", (2, 1.5),
             lambda: functions.make_random_test(s + 2, 2), "negative"),
            ("lower power eps=0.15 (2, 1.5)", (2, 1.5),
             lambda: functions.make_power_family(0.15), "negative"),
            (f"lower bump s={s} (1, 1.2)", (1, 1.2),
             lambda: functions.make_random_test(s, 1), "negative"),
        ]

    def variance_op(self, s):
        p = MeasureParams(*self.VAR_PARAMS)
        f = functions.make_random_test(s, 1)
        spec = quadrature.default_nd_spec(1)
        kw = dict(support_radius=f.support_radius, seams=f.radial_seams)
        mean = quadrature.integrate_nd(lambda x: f.value(x), p, spec, **kw)
        var = quadrature.integrate_nd(lambda x: f.value(x) ** 2, p, spec, **kw) - mean ** 2
        gap, _ = spectral.closed_form_gap(p)
        T = semigroup.default_horizon(var, gap)
        rho = 2.0 * (p.beta - 1.0)
        lhs, rhs, err, tail = semigroup.variance_representation_check(
            f, rho, T, self.dt, p, self.disc)
        steps = max(1, math.ceil(T / self.dt - 1e-12))
        return {"var": var, "rhs": rhs, "discrete_err": err, "tail": tail,
                "T": T, "cn_steps": steps}

    @staticmethod
    def check_variance(out):
        abs_err = abs(out["var"] - out["rhs"])
        bound = out["tail"] + VARIANCE_SLACK
        ok = out["discrete_err"] <= bound and abs_err <= bound
        return ok, float(out["cn_steps"]), dict(out, abs_err=abs_err)

    @staticmethod
    def check_deficit(value, sign):
        ok = abs(value) <= DEFICIT_ZERO if sign == "zero" else value < DEFICIT_NEG
        return ok, 0.0, {"deficit": value, "expect": sign}

    def run_pass(self, rec, p):
        s = self.seed + p * PASS_SEED_STRIDE
        rec.run("variance", f"variance_representation_check(seed={s})",
                lambda: self.variance_op(s), self.check_variance)
        for label, (n, beta), make, sign in self._deficit_set(s):
            range_tag = label.split()[0]
            rec.run("deficit", f"deficit {label}",
                    lambda: semigroup.deficit(make(), MeasureParams(n, beta), range_tag),
                    lambda v: self.check_deficit(v, sign))

    def metrics(self, rec, wall):
        var_ops = rec.of("variance")
        defs = rec.of("deficit")
        per_pass = max(1, len(defs) // 8)
        abs_err = _max((r.info["abs_err"] for r in var_ops if "abs_err" in r.info))
        return {
            "variance_check_s": (statistics.median(r.seconds for r in var_ops), "s", "lower"),
            "variance_abs_err": (abs_err, "1", "lower"),
            "deficit_set_s": (sum(r.seconds for r in defs) / per_pass, "s", "lower"),
        }


WORKLOADS = {w.name: w for w in (SpectralSweep, IdentityVerify, HeatFlow)}
