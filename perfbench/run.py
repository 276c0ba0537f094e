"""cauchygap benchmark: one workload per fresh, single-threaded process.

    python3 perfbench/run.py --workload spectral_sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

The package is imported from the src/ next to this directory.  A run
repeats whole passes over the workload's ops until --seconds have elapsed
(at least one pass), checks every op's output, and prints

  PROVENANCE {...}   machine, versions, BLAS threads, seed, parameters
  DETAIL {...}       every op with its time and check, the per-workload metrics
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as its last line.  --trace 0 reports the end-to-end metrics (tracing off);
--trace 1 wraps the layer modules' public functions, reports per-layer
metrics and writes the spans to .bench_out/.  --workload all runs every
workload in its own process and prints their metrics as a table.
"""
import os

# Before numpy is imported anywhere: pin every BLAS pool to one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("spectral_sweep", "identity_verify", "heat_flow")
SETUP_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and warm up, report ready, exit (set-up timing)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    return args


def import_program():
    """Import cauchygap from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import cauchygap
    origin = Path(cauchygap.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"cauchygap imported from {origin}, not from {ROOT / 'src'}")


def provenance(args, workload, trace_overhead):
    import numpy as np
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, AttributeError):
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = res.stdout.strip() or None
    return {
        "cpu": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__, "numpy_blas": blas(np),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy),
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "trace_overhead_frac": trace_overhead,
        "parameters": workload.parameters(),
    }


def setup_samples(workload, seed, n):
    """Seconds from process start to ready-for-the-first-op, in n fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        out.append(ready)
    return out


def run_all(args):
    """Every workload in its own process; print their metrics as one table."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            print(f"{name}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
            status = 1
            continue
        detail = next(json.loads(ln[len("DETAIL "):]) for ln in lines
                      if ln.startswith("DETAIL "))
        final = json.loads(lines[-1])
        print(f"== {name}  attempted {final['attempted']}  failed {final['failed']}"
              f"  correct {final['correct']}")
        rows = dict(detail["metrics"])
        rows.update({k: {"value": v["value"], "unit": v["unit"], "better": ""}
                     for k, v in final["metrics"].items() if k not in rows})
        for key, m in rows.items():
            print(f"   {key:48s} {m['value']:<14.6g} {m['unit']:8s} {m['better']}")
    return status


def measure(args, workload, setup_probes=SETUP_PROBES):
    """Run passes for args.seconds; return (result line, detail, overhead)."""
    import workloads

    tracer = None
    span_cost = 0.0
    if args.trace:
        import tracing
        span_cost = tracing.span_cost_s()
        tracer = tracing.Tracer()
        tracer.install()
    rec = workloads.Recorder(tracer)
    t0 = time.perf_counter()
    passes = 0
    try:
        while True:
            workload.run_pass(rec, passes)
            passes += 1
            if time.perf_counter() - t0 >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    named = workload.metrics(rec, wall)
    attempted = len(rec.records)
    failed = sum(not r.ok for r in rec.records)
    units = sum(r.units for r in rec.records)
    detail_metrics = {"failed_frac": (failed / attempted, "ratio", "lower")}
    detail_metrics.update(named)

    layer = {}
    if tracer is not None:
        trials = sum(r.units for r in rec.of("verify_all"))
        layer = tracer.layer_metrics(wall, span_cost, int(trials))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")
        hess = tracer.calls_by_op("functions.hessian", "quadrature.verify_all")
        for r in rec.of("verify_all"):
            if r.units:
                r.info["hessian_calls_per_trial"] = hess.get(r.op, 0) / r.units
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        setup = setup_samples(workload.name, args.seed, setup_probes)
        detail_metrics["setup_s"] = (statistics.median(setup), "s", "lower")
        detail_metrics["peak_rss_mb"] = (peak_rss_mb, "MB", "lower")
        result_metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "throughput_per_s": {"value": units / wall, "unit": "1/s"},
        }

    detail = {
        "workload": workload.name, "seed": args.seed, "passes": passes,
        "setup_samples_s": None if tracer is not None else setup,
        "measured_s": wall, "work_unit": workload.unit, "units_completed": units,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "better": b}
                    for k, (v, u, b) in detail_metrics.items()},
        "ops": [{"op": r.op, "label": r.label, "seconds": r.seconds, "ok": r.ok,
                 "units": r.units, "info": r.info, "error": r.error}
                for r in rec.records],
    }
    # Ops that raise or fail their check are counted in `failed`; `correct`
    # says every op was checked and every reported value is a real number.
    correct = units > 0 and all(math.isfinite(m["value"]) for m in result_metrics.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    return result, detail, layer.get("trace.overhead_frac", (None,))[0]


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import cauchygap from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    warm = workload.warm_up()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    setup_in_process = time.perf_counter() - T_START
    result, detail, overhead = measure(args, workload)
    detail.update(setup_in_process_s=setup_in_process, warm_up=warm)
    print("PROVENANCE " + json.dumps(provenance(args, workload, overhead)))
    print("DETAIL " + json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
