"""wavetank benchmark: one command, three workloads, outside-in timing.

    python3 benchmarks/run.py --workload {mcewan,single-mode,many-modes}
                              [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from
``src/`` and nothing under ``src/`` is modified.  Load is a closed loop
with one client: WORKERS fresh worker processes run one after another,
each paying the cold set-up once and then repeating the workload for
S / WORKERS seconds.  Every run's outputs are checked (see workloads.py).

``--trace 0`` reports the end-to-end metrics: median ``wall_s`` and
``cell_updates_per_s`` over the runs, median ``setup_s`` and
``peak_rss_mb`` over the workers.  ``--trace 1`` alternates untraced and
traced runs and reports the per-layer metrics from the spans, per cold
workload run (one set-up plus one run); the spans are written to
``.bench_out/``.  The last line of standard output is the JSON result;
the lines before it are a readable summary and a JSON record of the
environment, the seed's inputs and the sample counts.
"""

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S
from tracer import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mcewan", "single-mode", "many-modes")
WORKERS = 3
DEADLINE_S = 170.0
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

PROBE = """
import json, numpy, scipy, wavetank
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version")}))
"""


def environment(child_env):
    """Machine and library record.  Importing wavetank here also warms
    the byte-code cache, so the first timed set-up does not compile."""
    probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        sys.stderr.write(probe.stderr)
        raise SystemExit("benchmark: cannot import wavetank from src/")
    record = json.loads(probe.stdout.strip().splitlines()[-1])
    record.update(python=platform.python_version(), nproc=os.cpu_count(),
                  cpus_usable=len(os.sched_getaffinity(0)),
                  blas_threads=BLAS_PINS,
                  load="closed loop, one client, one worker process at a time")
    try:
        with open("/proc/cpuinfo") as fh:
            record["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), None)
    except OSError:
        record["cpu_model"] = None
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                caches[f"L{level} {kind}"] = fh.read().strip()
        except OSError:
            pass
    record["caches"] = caches
    return record


def run_workers(args, child_env, scratch, started):
    results = []
    for k in range(WORKERS):
        path = os.path.join(scratch, f"worker{k}.json")
        remaining = DEADLINE_S - (time.perf_counter() - started)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
               str(args.seed), repr(args.seconds / WORKERS), str(args.trace),
               scratch, path]
        try:
            proc = subprocess.run(cmd, env=child_env, stdout=subprocess.DEVNULL,
                                  timeout=max(remaining, 5.0))
            ok = proc.returncode == 0 and os.path.exists(path)
        except subprocess.TimeoutExpired:
            ok = False
        if ok:
            with open(path) as fh:
                results.append(json.load(fh))
        else:
            print(f"benchmark: worker {k} failed", file=sys.stderr)
            results.append(None)
    return results


def high_percentile(values):
    """(p, value) for the highest whole percentile with at least ten
    samples beyond it, or None when there are fewer than 20 samples."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(results, runs):
    """Medians.  Run times are scaled to the reference machine speed
    sampled during each run (see calibrate.py), and their raw medians go
    to the record; set-up times are raw, since the import they include
    does not track the reference kernel."""
    walls = [r["wall_s"] for r in runs]
    setups = [w["setup_s"] for w in results]
    metrics = {
        "wall_s": (statistics.median(
            r["wall_s"] * REFERENCE_S / r["reference_s"] for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cell_updates_per_s": (statistics.median(
            r["cells"] / (r["wall_s"] * REFERENCE_S / r["reference_s"])
            for r in runs), "1/s"),
        "peak_rss_mb": (
            statistics.median(w["peak_rss_kb"] for w in results) / 1024.0, "MB"),
    }
    samples = {"wall_s_raw": {"n": len(walls), "median": statistics.median(walls),
                              "quartiles": statistics.quantiles(walls, n=4)
                              if len(walls) > 1 else None,
                              "high_percentile": high_percentile(walls)},
               "setup_s": {"n": len(setups), "values": setups},
               "reference_s": statistics.median(r["reference_s"] for r in runs)}
    return metrics, samples


def per_layer(results, traced, untraced):
    """Per-layer metrics per cold workload run: the set-up spans averaged
    over workers plus the run spans averaged over traced runs.  Times are
    self times (span minus child spans)."""
    totals = {}     # (phase, span name) -> {"self_s": ..., "calls": ..., counts}
    for w in results:
        own = self_times(w["spans"])
        for span in w["spans"]:
            phase = "setup" if span[2] == "setup" else "run"
            layer = totals.setdefault((phase, span[3]), {"self_s": 0.0, "calls": 0})
            layer["self_s"] += own[span[0]]
            layer["calls"] += 1
            for name, count in (span[6] or {}).items():
                layer[name] = layer.get(name, 0) + count
    per = {"setup": len(results), "run": len(traced)}

    def value(name, field="self_s"):
        return sum(totals.get((phase, name), {}).get(field, 0) / n
                   for phase, n in per.items())

    adv_s, steps = value("solver.advance"), value("solver.advance", "steps")
    g_nonzero = value("coefficients.build", "g_nonzero")
    g_size = value("coefficients.build", "g_size")
    write_s = value("fields.write_state") + value("fields.export")
    written = (value("fields.write_state", "bytes")
               + value("fields.export", "bytes"))
    return {
        "solver.advance_self_s": (adv_s, "s"),
        "solver.steps": (steps, "count"),
        "solver.step_us": (adv_s / steps * 1e6 if steps else 0.0, "us"),
        "solver.cell_updates": (value("solver.advance", "cells"), "count"),
        "solver.aborts": (value("solver.advance", "aborts"), "count"),
        "coefficients.build_s": (value("coefficients.build"), "s"),
        "coefficients.build_calls": (value("coefficients.build", "calls"), "count"),
        "coefficients.build_failed": (value("coefficients.build", "failed"), "count"),
        "coefficients.g_nonzero_frac": (g_nonzero / g_size if g_size else 0.0,
                                        "ratio"),
        "fields.write_state_s": (value("fields.write_state"), "s"),
        "fields.write_state_calls": (value("fields.write_state", "calls"), "count"),
        "fields.export_s": (value("fields.export"), "s"),
        "fields.synthesize_s": (value("fields.synthesize"), "s"),
        "fields.bytes_written": (written, "bytes"),
        "fields.write_mb_per_s": (written / write_s / 1e6 if write_s else 0.0,
                                  "MB/s"),
        "cli.self_s": (value("cli.main"), "s"),
        "modes.basis_s": (value("modes.basis"), "s"),
        "modes.project_s": (value("modes.project"), "s"),
        "scenario.initial_state_s": (value("scenario.initial_state"), "s"),
        "scenario.config_s": (value("scenario.config"), "s"),
        "verification.self_s": (value("verification.census")
                                + value("verification.convergence"), "s"),
        "verification.oracle_s": (value("verification.oracle"), "s"),
        "trace.overhead_frac": (
            statistics.median(r["wall_s"] / r["reference_s"] for r in traced)
            / statistics.median(r["wall_s"] / r["reference_s"] for r in untraced)
            - 1.0, "ratio"),
        "trace.unattributed_frac": (
            sum(r["unattributed_s"] for r in traced)
            / sum(r["wall_s"] for r in traced), "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "wavetank", "__init__.py")):
        raise SystemExit(f"benchmark: no wavetank sources under {ROOT}/src")
    child_env = dict(os.environ, **BLAS_PINS)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    out_root = os.path.join(ROOT, ".bench_out")
    scratch = os.path.join(out_root, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        env = environment(child_env)
        results = run_workers(args, child_env, scratch, started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = failed = 0
    failures = []
    for w in results:
        attempted += 1
        if w is None or w["setup_failures"]:
            failed += 1
            failures += ["worker crashed"] if w is None else w["setup_failures"]
            continue
        for r in w["runs"]:
            attempted += 1
            if r["failures"]:
                failed += 1
                failures += r["failures"]
    done = [w for w in results if w is not None and not w["setup_failures"]]
    runs = [r for w in done for r in w["runs"]]
    # time the runs that passed their checks; if none did, time them all
    # (the result then reads "correct": false)
    good = [r for r in runs if not r["failures"]] or runs
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (args.trace and not traced):
        raise SystemExit("benchmark: no run completed; no metrics to report")

    if args.trace:
        # layer numbers describe every traced run, failed or not
        metrics = per_layer(done, [r for r in runs if r["traced"]], untraced)
        samples = {"traced_runs": len(traced), "untraced_runs": len(untraced)}
        trace_path = os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump([w["spans"] for w in done], fh)
    else:
        metrics, samples = end_to_end(done, untraced)

    print(f"wavetank benchmark: workload {args.workload}, seed {args.seed}, "
          f"{sum(not r['failures'] for r in runs)} of {len(runs)} runs passed "
          f"their checks, in {len(results)} workers")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(f"  {'ops_failed_frac':30s} {failed / attempted:14.6g} "
          f"({failed} of {attempted})")
    known = sum(w["info"].get("default_build") == "ConsistencyError" for w in done)
    if known:
        print(f"  known defect: the default coefficient build raised "
              f"ConsistencyError in {known} of {len(done)} set-ups (reported "
              f"as coefficients.build_failed, not counted as failed)")
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": WORKERS, "environment": env,
        "inputs": done[0]["info"], "samples": samples,
        "ops_failed_frac": failed / attempted, "failures": failures,
        "known_default_build_failures": known}}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
