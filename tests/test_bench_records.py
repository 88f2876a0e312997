"""The committed benchmark records that share the pairs/summary shape
(`BENCH_pr1*.json`) name every end-to-end metric of BENCHMARK.json on
every one of its workloads, with the parent's and the change's median,
and state their claim in BENCHMARK.json's names, so tables across
records can be built by code."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
METRICS = END_TO_END + [m["name"] for m in BENCHMARK["per_layer"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_pr1*.json")))


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
