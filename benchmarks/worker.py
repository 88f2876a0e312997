"""One benchmark worker process.

A fresh interpreter pays the cold set-up the way ``wavetank run`` does --
the clock starts before ``import wavetank`` and stops when the
workload's inputs are ready -- then repeats the workload until its time
budget is spent and writes its samples as JSON.  With tracing on, the
runs alternate untraced and traced, so the tracing overhead is measured
in the same process.

Usage (``src`` on PYTHONPATH; run.py does this):
    python3 worker.py WORKLOAD SEED BUDGET_S TRACE SCRATCH_DIR RESULT_JSON
"""

import json
import resource
import sys
import time
import traceback


def main(argv):
    workload, seed, budget, trace, scratch, result_path = argv
    seed, budget, trace = int(seed), float(budget), trace == "1"

    started = time.perf_counter()
    import wavetank  # noqa: F401  (timed: part of the cold set-up)
    import tracer
    import workloads

    spans = tracer.Tracer()
    counter = tracer.CellCounter()
    if trace:
        spans.trace = "setup"
        spans.install()
    wl = workloads.WORKLOADS[workload](seed, scratch)
    try:
        setup_failures = wl.setup()
    except Exception:
        traceback.print_exc()
        setup_failures = ["set-up raised"]
    setup_s = time.perf_counter() - started
    if trace:
        spans.uninstall()
    import calibrate

    runs = []
    spent = 0.0
    index = 0
    # at least one run, two when traced (one untraced, one traced); then
    # stop where the total lands nearest the budget
    while not setup_failures and (index < 1 + trace
                                  or spent + spent / index / 2 < budget):
        traced = trace and index % 2 == 1
        recorder = spans if traced else counter
        spans.trace = index
        counter.cells = 0
        recorder.install()
        with calibrate.SpeedProbe() as speed:
            t0 = time.perf_counter()
            try:
                outcome = wl.run(index)
            except Exception:
                traceback.print_exc()
                outcome = None
            wall = time.perf_counter() - t0 - speed.spent
        recorder.uninstall()
        spent += wall
        try:
            failures = ["run raised"] if outcome is None else wl.check(outcome)
        except Exception:
            traceback.print_exc()
            failures = ["check raised"]
        run = {"wall_s": wall, "reference_s": speed.chunk_s,
               "cells": counter.cells, "traced": traced, "failures": failures}
        if traced:
            own = [s for s in spans.spans if s[2] == index]
            run["cells"] = sum(s[6]["cells"] for s in own if s[3] == tracer.ADVANCE)
            # wall time outside every top-level layer span (the spans also
            # hold the probe's time, so compare with the unreduced wall)
            run["unattributed_s"] = wall + speed.spent - sum(
                s[5] - s[4] for s in own if s[1] is None)
        runs.append(run)
        index += 1

    result = {
        "setup_s": setup_s,
        "setup_failures": setup_failures,
        "runs": runs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "info": wl.info,
        "spans": spans.spans,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
