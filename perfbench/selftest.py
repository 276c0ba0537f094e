"""Self-test of the benchmark at toy size (about a minute).

    python3 perfbench/selftest.py

Runs one pass of every workload at toy size, untraced and traced, through
the same measuring code as run.py, and checks that

- BENCHMARK.json names every metric the runs print, with its unit, and the
  runs print every metric listed below with the unit and direction stated;
- the correctness gate bites: with verify_all(corrupt_ipp1=True) every
  verify_all op is reported as failed;
- traced self times plus trace.unattributed_s account for the traced wall
  time, and functions.hessian runs 1 + 4n times per verify_all trial where
  the IPP3/IPP4 stencil is live (13 at n = 3) and once where it is skipped.
Exits 0 when every check holds.
"""
import argparse
import json
import math
import sys

import run  # pins the BLAS threads before numpy is imported

# Per-workload metrics printed in DETAIL: name -> (unit, better).
COMMON = {"failed_frac": ("ratio", "lower"), "setup_s": ("s", "lower"),
          "peak_rss_mb": ("MB", "lower")}
DETAIL_METRICS = {
    "spectral_sweep": {"gap_solves_per_s": ("1/s", "higher"),
                       "gap_rel_err_max": ("1", "lower"),
                       "gap_edge_excess_max": ("1", "lower")},
    "identity_verify": {"verify_trials_per_s": ("1/s", "higher"),
                        "identity_rel_err_max": ("1", "lower"),
                        "identity_rows_checked": ("count", "higher")},
    "heat_flow": {"variance_check_s": ("s", "lower"),
                  "variance_abs_err": ("1", "lower"),
                  "deficit_set_s": ("s", "lower")},
}


def main():
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
            print("FAIL", what)

    run.import_program()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES),
           "BENCHMARK.json names the three workloads")
    expect(all(m["unit"] and m["better"] in ("lower", "higher")
               for m in list(e2e.values()) + list(layer.values())),
           "every BENCHMARK.json metric has a unit and a direction")

    clean_passed = set()  # verify_all ops that pass at toy size without corruption
    for name in run.WORKLOAD_NAMES:
        make = workloads.WORKLOADS[name]
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=3, seconds=1e-9, trace=trace)
            w = make(args.seed, toy=True)
            w.warm_up()
            result, detail, _ = run.measure(args, w, setup_probes=1)
            metrics = result["metrics"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["attempted"] >= 1, f"{name}/{trace}: result keys")
            listed = layer if trace else e2e
            expect(set(metrics) == set(listed),
                   f"{name}/{trace}: printed metrics {sorted(set(metrics) ^ set(listed))} "
                   "differ from BENCHMARK.json")
            for key, m in metrics.items():
                expect(key in listed and m["unit"] == listed[key]["unit"],
                       f"{name}/{trace}: unit of {key}")
            if not trace:
                clean_passed.update(op["label"] for op in detail["ops"]
                                    if op["ok"] and op["label"].startswith("verify_all"))
                expect(all(m["value"] > 0 for m in metrics.values()),
                       f"{name}: end-to-end metrics are positive")
                want = dict(COMMON, **DETAIL_METRICS[name])
                got = detail["metrics"]
                for key, (unit, better) in want.items():
                    expect(key in got and (got[key]["unit"], got[key]["better"]) == (unit, better),
                           f"{name}: DETAIL metric {key} [{unit}, {better}]")
                continue
            own = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
            wall = metrics["trace.wall_s"]["value"]
            expect(math.isclose(own + metrics["trace.unattributed_s"]["value"], wall,
                                rel_tol=1e-9), f"{name}: self times account for the wall time")
            if name == "identity_verify":
                per_trial = {op["label"]: op["info"]["hessian_calls_per_trial"]
                             for op in detail["ops"] if op["label"].startswith("verify_all")}
                for n, beta in ((3, 2.5), (3, 3.5), (3, 4.0), (3, 6.0)):
                    expect(per_trial[f"verify_all({n}, {beta:g})"] == 13,
                           f"13 hessian calls per trial at ({n}, {beta:g})")
                expect(per_trial["verify_all(3, 2)"] == 1, "1 hessian call per trial at (3, 2)")

    # Negative control: a broken identity must be reported as a failed op.
    args = argparse.Namespace(workload="identity_verify", seed=0, seconds=1e-9, trace=0)
    w = workloads.IdentityVerify(0, toy=True, corrupt_ipp1=True)
    result, detail, _ = run.measure(args, w, setup_probes=1)
    verify_ops = [op for op in detail["ops"] if op["label"].startswith("verify_all")]
    expect(clean_passed and not any(op["ok"] for op in verify_ops),
           "corrupt_ipp1: every verify_all op is reported as failed, "
           "including those that pass without it")
    expect(result["failed"] >= len(verify_ops), "corrupt_ipp1: failures are counted")

    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
