"""The benchmark's golden digests, checked on one cycle of each workload that
simulates, so a change of any SimReport or sweep CSV fails here first."""
import importlib
import json

import pytest

from test_engine import gateway_reports
from test_trace_sites import bench_run  # noqa: F401  (the fixture that loads perfbench/run.py)


@pytest.mark.parametrize("workload", ["tdma_gateway", "aloha_crowd", "sweep_short"])
def test_one_cycle_passes_its_checks_with_the_golden_digests(bench_run, tmp_path, workload):
    workloads = importlib.import_module("workloads")   # run.py's sibling
    golden = bench_run._load_golden(workload, bench_run.DEFAULT_SEED)
    digests = []
    for op in workloads.build(workload, bench_run.DEFAULT_SEED, tmp_path):
        op.load()
        result = op.finish(op.execute())
        assert op.check(result) == [], f"{workload} op {op.index}"
        digests.append(op.digest(result))
    assert digests == golden


def test_reports_assembled_from_arrays_digest_as_json(bench_run, monkeypatch):
    # a numpy integer among the per-node successes would make json.dumps fail
    workloads = importlib.import_module("workloads")
    for report in gateway_reports(monkeypatch):
        json.dumps({name: workloads._plain(getattr(report, name))
                    for name in workloads.REPORT_FIELDS})
        assert len(workloads.report_digest(report)) == 64
