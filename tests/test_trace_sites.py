"""The benchmark's traced run wraps library functions by module attribute;
these tests keep every such attribute resolvable after refactors."""
import importlib.util
import sys
from pathlib import Path

import pytest

from uwmac.core import (Delay, ModelAwareRole, NodeSpec, Scenario, TdmaRole,
                        TdmaSchedule)
from uwmac.policies import build_model_aware_policy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # run.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_resolves_to_a_callable(bench_run):
    sites = bench_run.trace_sites()
    assert sites
    for module, attr, span, _ in sites:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_forbidden_slot_count_is_the_length_of_the_policy_set():
    # TDMA arrivals at AP slots 4, 9, 14, ... forbid model-aware sends 3, 8, 13, ...
    scenario = Scenario((NodeSpec(0, Delay(1), ModelAwareRole()),
                         NodeSpec(1, Delay(4), TdmaRole(TdmaSchedule(5, frozenset({0}))))),
                        horizon=20)
    policy = build_model_aware_policy(scenario)
    expected = [s for s in range(scenario.total_send_slots) if s % 5 == 3]
    assert len(policy.forbidden_send_slots) == len(expected) == 6
