"""The committed benchmark records that share the pairs/summary shape
(`BENCH_pr10.json` on) name every end-to-end metric of BENCHMARK.json on
every one of its workloads, with the parent's and the change's median,
and state their claim in BENCHMARK.json's names, with the medians of
their own summary, so tables across records can be built by code."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
BETTER = {m["name"]: m["better"]
          for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
METRICS = list(BETTER)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# BENCH_pr7 to pr9 predate the shared shape
RECORDS = sorted(path for path in glob.glob(os.path.join(ROOT, "BENCH_pr*.json"))
                 if int(os.path.basename(path)[8:-5]) >= 10)


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_summarises_every_workload_and_metric(path):
    with open(path) as fh:
        record = json.load(fh)
    for workload in WORKLOADS:
        summary = record["workloads"][workload]["summary"]
        for metric in END_TO_END:
            for side in ("parent_median", "change_median"):
                value = summary[metric][side]
                assert isinstance(value, (int, float)), (workload, metric)
    claim = record["claim"]
    assert claim["metric"] in METRICS
    assert claim["workload"] in WORKLOADS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_claim_agrees_with_its_summary(path):
    with open(path) as fh:
        record = json.load(fh)
    claim = record["claim"]
    summary = record["workloads"][claim["workload"]]["summary"]
    medians = summary[claim["metric"]]
    parent, change = claim["parent_median"], claim["change_median"]
    assert parent == medians["parent_median"]
    assert change == medians["change_median"]
    if BETTER[claim["metric"]] == "lower":
        better = change < parent
    else:
        better = change > parent
    # a met claim has its change median on the metric's better side
    assert isinstance(claim["met"], bool)
    assert better or not claim["met"]
