import dataclasses
import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_model import reference_run
from uwmac.bruteforce import certify_policy
from uwmac.core import (AlohaRole, ContractViolation, Delay, ModelAwareRole,
                        NodeSpec, Scenario, TdmaRole, TdmaSchedule,
                        ValidationError)
from uwmac import engine
from uwmac.engine import (SimReport, compare_to_oracle, default_tolerance, node_rng,
                          run, sweep)
from uwmac.oracle import Branch, OracleResult, optimal_aloha
from uwmac.policies import build_model_aware_policy


def _ma(node_id, delay, member=True):
    return NodeSpec(node_id, Delay(delay), ModelAwareRole(member))


def _tdma(node_id, delay, frame, assigned):
    return NodeSpec(node_id, Delay(delay), TdmaRole(TdmaSchedule(frame, frozenset(assigned))))


def _aloha(node_id, delay, q):
    return NodeSpec(node_id, Delay(delay), AlohaRole(q))


def random_scenarios(count, seed):
    rng = np.random.default_rng(seed)
    scenarios = []
    while len(scenarios) < count:
        nodes = []
        node_id = 0
        n_ma = int(rng.integers(0, 3))
        ma_delay = int(rng.integers(0, 4))
        for _ in range(n_ma):
            nodes.append(_ma(node_id, ma_delay))
            node_id += 1
        for _ in range(int(rng.integers(0, 3))):
            frame = int(rng.integers(1, 7))
            assigned = {int(o) for o in rng.choice(frame, size=rng.integers(0, frame + 1),
                                                   replace=False)}
            nodes.append(_tdma(node_id, int(rng.integers(0, 4)), frame, assigned))
            node_id += 1
        for _ in range(int(rng.integers(0, 3))):
            nodes.append(_aloha(node_id, int(rng.integers(0, 4)), float(rng.random())))
            node_id += 1
        if not nodes:
            continue
        scenarios.append(Scenario(tuple(nodes), horizon=int(rng.integers(50, 200)),
                                  seed=int(rng.integers(0, 2 ** 32))))
    return scenarios


def _assert_matches_reference(scenario):
    report = run(scenario)
    stats, per_node, _ = reference_run(scenario)
    assert report.successes == stats["successes"]
    assert report.collisions == stats["collisions"]
    assert report.idle == stats["idle"]
    assert report.tdma_cross_collisions == stats["cross"]
    assert report.per_node_successes == per_node


def test_engine_matches_reference_simulation():
    for scenario in random_scenarios(25, seed=99):
        _assert_matches_reference(scenario)


@st.composite
def small_scenarios(draw, max_horizon=60):
    """Up to 6 nodes, delays <= 4, frames <= 5; up to 3 gateway members share
    one delay, TDMA schedules may overlap, and the warm-up is either the
    default (the max delay) or an explicit one above it."""
    delay = st.integers(0, 4)
    n_ma = draw(st.integers(0, 3))
    ma_delay = draw(delay)
    roles = [ModelAwareRole()] * n_ma
    for _ in range(draw(st.integers(0 if n_ma else 1, 6 - n_ma))):
        if draw(st.booleans()):
            frame = draw(st.integers(1, 5))
            assigned = draw(st.frozensets(st.integers(0, frame - 1)))
            roles.append(TdmaRole(TdmaSchedule(frame, assigned)))
        else:
            roles.append(AlohaRole(draw(st.floats(0.0, 1.0))))
    nodes = tuple(NodeSpec(i, Delay(ma_delay if i < n_ma else draw(delay)), role)
                  for i, role in enumerate(roles))
    max_delay = max(n.delay.slots for n in nodes)
    warmup = draw(st.none() | st.integers(max_delay + 1, max_delay + 30))
    return Scenario(nodes, horizon=draw(st.integers(1, max_horizon)), warmup=warmup,
                    seed=draw(st.integers(0, 2 ** 64 - 1)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(small_scenarios())
def test_engine_matches_reference_on_generated_scenarios(scenario):
    _assert_matches_reference(scenario)


@pytest.mark.parametrize("block", [1, 7, 1000])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(scenario=small_scenarios(max_horizon=2500))
def test_engine_matches_reference_across_block_boundaries(block, scenario):
    # the window, the warm-up and the gateway's turn all straddle blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_SLOTS", block)
        _assert_matches_reference(scenario)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("block", [1, 7, 1000])
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(scenario=small_scenarios(max_horizon=1200))
def test_threaded_draws_match_one_thread_and_the_reference(block, workers, scenario):
    # every block with an ALOHA node splits its draws across the helper threads
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_SLOTS", block)
        patch.setattr(engine, "PARALLEL_DRAWS", 1)
        patch.setattr(engine, "WORKERS", 1)
        serial = run(scenario)
        patch.setattr(engine, "WORKERS", workers)
        assert run(scenario) == serial
        _assert_matches_reference(scenario)


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("uwmac-draws")]


def _crowd():
    """Eight ALOHA nodes over two full blocks: past the parallel threshold."""
    scenario = Scenario((_ma(0, 1), *(_aloha(i, i % 3, 0.02) for i in range(1, 9))),
                        horizon=2 * engine.BLOCK_SLOTS, seed=4)
    assert scenario.num_aloha * engine.BLOCK_SLOTS >= engine.PARALLEL_DRAWS
    return scenario


def test_helper_threads_stay_bounded(monkeypatch):
    monkeypatch.setattr(engine, "WORKERS", 3)
    others = threading.active_count() - len(_helper_threads())
    for _ in range(20):
        run(_crowd())
    assert 1 <= len(_helper_threads()) <= 2
    assert threading.active_count() <= others + 2


def test_concurrent_runs_share_the_helpers(monkeypatch):
    monkeypatch.setattr(engine, "WORKERS", 1)
    serial = run(_crowd())
    monkeypatch.setattr(engine, "WORKERS", 3)
    reports = []

    def caller():
        for _ in range(3):
            reports.append(run(_crowd()))

    callers = [threading.Thread(target=caller) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert reports == [serial] * 12


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helpers(monkeypatch):
    # the child inherits the parent's pool object but none of its threads
    monkeypatch.setattr(engine, "WORKERS", 2)
    threaded = run(_crowd())
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if run(_crowd()) == threaded else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung")
    assert os.waitstatus_to_exitcode(status[1]) == 0


def test_a_run_below_the_threshold_starts_no_helper(monkeypatch):
    def no_pool(helpers):
        raise AssertionError(f"asked for {helpers} helper threads")

    monkeypatch.setattr(engine, "WORKERS", 3)
    monkeypatch.setattr(engine, "_helper_pool", no_pool)
    before = threading.active_count()
    # the sweep_short shape: 4 nodes at H = 500
    run(Scenario((_ma(0, 1), _tdma(1, 3, 4, {0}), _aloha(2, 0, 0.1), _aloha(3, 2, 0.2)),
                 horizon=500, seed=9))
    assert threading.active_count() == before


def test_an_error_in_a_helper_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(engine, "WORKERS", 2)
    draw = engine._draw

    def failing_in_helpers(*args):
        if threading.current_thread().name.startswith("uwmac-draws"):
            raise RuntimeError("draw failed")
        draw(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_draw", failing_in_helpers)
        with pytest.raises(RuntimeError, match="draw failed"):
            run(_crowd())
    # the pool keeps working after a failed run
    threaded = run(_crowd())
    monkeypatch.setattr(engine, "WORKERS", 1)
    assert run(_crowd()) == threaded


@st.composite
def warm_gateways(draw):
    """A transmit-branch gateway against 0 to 3 TDMA nodes with frames 1 to 9
    and delays on either side of the gateway's, and a warm-up up to 3000."""
    ma_delay = draw(st.integers(0, 4))
    nodes = [_ma(i, ma_delay) for i in range(draw(st.integers(2, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        frame = draw(st.integers(1, 9))
        assigned = draw(st.frozensets(st.integers(0, frame - 1)))
        nodes.append(_tdma(len(nodes), draw(st.integers(0, 12)), frame, assigned))
    max_delay = max(n.delay.slots for n in nodes)
    return Scenario(tuple(nodes), horizon=1,
                    warmup=draw(st.integers(max_delay, max_delay + 3000)), seed=0)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(scenario=warm_gateways(), block=st.sampled_from([1, 7, 1000, 65536]))
def test_warmup_decision_count_matches_a_plain_walk(scenario, block):
    # the count over whole periods of the forbidden pattern equals walking the warm-up
    policy = build_model_aware_policy(scenario)
    first_send = scenario.warmup_slots - policy.delay.slots
    walked = sum(int(np.count_nonzero(policy.transmit_mask(s, min(97, first_send - s))))
                 for s in range(0, first_send, 97))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_SLOTS", block)
        assert engine._transmit_decisions_before(policy, first_send) == walked


@pytest.mark.parametrize("skip", [0, 1, 7, 12345, 10**6])
def test_advance_equals_drawing_and_discarding(skip):
    # run skips each ALOHA node's unmeasured draws with advance; that is only
    # sound while one random() consumes exactly one step of the generator
    advanced = node_rng(2024, 3)
    advanced.bit_generator.advance(skip)
    drawn = node_rng(2024, 3)
    drawn.random(skip)
    assert np.array_equal(advanced.random(1000), drawn.random(1000))


def test_run_memory_does_not_grow_with_the_horizon():
    nodes = (_ma(0, 2), _ma(1, 2), _ma(2, 2), _tdma(3, 4, 5, {0}), _tdma(4, 1, 7, {2, 3}),
             *(_aloha(i, i % 5, 0.01 * i) for i in range(5, 13)))
    peaks = []
    for horizon in (10**5, 10**6):
        scenario = Scenario(nodes, horizon=horizon, seed=6)
        tracemalloc.start()
        try:
            run(scenario)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + (2 << 20)


def test_model_aware_never_collides_with_tdma():
    scenario = Scenario((_ma(0, 1), _tdma(1, 4, 5, {0}), _tdma(2, 0, 5, {2}),
                         _aloha(3, 2, 0.4)), horizon=2000, seed=8)
    _, _, arrival_sets = reference_run(scenario)
    tdma_ids, ma_ids = {1, 2}, {0}
    for arrivals in arrival_sets:
        assert not (arrivals & tdma_ids and arrivals & ma_ids)


def test_tdma_coexistence_reaches_one_exactly():
    scenario = Scenario((_ma(0, 1), _tdma(1, 4, 5, {0})), horizon=10_000, seed=1)
    report = run(scenario)
    assert report.empirical_throughput == 1.0
    assert report.collisions == 0 and report.idle == 0
    assert report.oracle.optimal_throughput == 1.0
    assert report.deviation == 0.0


def test_multi_tdma_multi_model_aware_reaches_one():
    scenario = Scenario((_ma(0, 1), _ma(1, 1), _ma(2, 1),
                         _tdma(3, 4, 5, {0}), _tdma(4, 0, 5, {2})),
                        horizon=5_000, seed=2)
    report = run(scenario)
    assert report.empirical_throughput == 1.0
    member_counts = [report.per_node_successes[i] for i in (0, 1, 2)]
    assert max(member_counts) - min(member_counts) <= 1


def test_lone_always_on_aloha_node():
    scenario = Scenario((_aloha(0, 0, 1.0),), horizon=100, seed=0)
    report = run(scenario)
    assert report.empirical_throughput == 1.0
    assert report.oracle is None        # nobody plays the optimal policy


def test_model_aware_with_two_half_rate_aloha():
    scenario = Scenario((_ma(0, 1), _aloha(1, 0, 0.5), _aloha(2, 2, 0.5)),
                        horizon=100_000, seed=303)
    report = run(scenario)
    assert report.oracle.optimal_throughput == pytest.approx(0.5, abs=1e-12)
    assert report.oracle.chosen_branch is Branch.SILENT
    assert abs(report.empirical_throughput - 0.5) <= 0.01


def test_report_counts_add_up():
    for scenario in random_scenarios(10, seed=5):
        report = run(scenario)
        assert report.successes + report.collisions + report.idle == report.measured_slots
        assert report.empirical_throughput == report.successes / report.measured_slots


def test_run_is_deterministic():
    scenario = Scenario((_ma(0, 1), _aloha(1, 0, 0.4), _tdma(2, 2, 4, {1})),
                        horizon=5_000, seed=77)
    assert run(scenario) == run(scenario)


def test_seed_changes_aloha_draws():
    base = Scenario((_ma(0, 1), _aloha(1, 0, 0.4)), horizon=5_000, seed=77)
    other = dataclasses.replace(base, seed=78)
    assert run(base) != run(other)


def test_adding_a_node_keeps_other_streams():
    # per-node substreams are keyed by (seed, id): node 1's draws are identical
    # with and without node 2 in the scenario
    small = Scenario((_ma(0, 1), _aloha(1, 0, 0.4)), horizon=2_000, seed=9)
    big = Scenario((_ma(0, 1), _aloha(1, 0, 0.4), _aloha(2, 1, 0.0)), horizon=2_000, seed=9)
    assert run(small).successes == run(big).successes


def test_run_validates_scenario():
    bad = Scenario((_ma(0, 1), _ma(5, 1)), horizon=0, warmup=0, seed=-2)
    with pytest.raises(ValidationError) as info:
        run(bad)
    assert len(info.value.errors) >= 3


def test_tdma_overlap_flagged_and_oracle_attached():
    # even AP slots carry both TDMA arrivals (blocked), odd ones are free
    scenario = Scenario((_ma(0, 0), _tdma(1, 0, 2, {0}), _tdma(2, 0, 2, {0})),
                        horizon=1_000, seed=4)
    report = run(scenario)
    assert report.tdma_cross_collisions == 500
    assert report.oracle.optimal_throughput == 0.5
    assert report.oracle.chosen_branch is Branch.TRANSMIT
    assert report.deviation == 0.0
    cert = certify_policy(dataclasses.replace(scenario, horizon=12))
    assert cert.matches and cert.oracle_value == 0.5


def test_warmup_convention_recorded():
    scenario = Scenario((_ma(0, 3),), horizon=100, seed=1)
    assert run(scenario).warmup_slots == 3
    explicit = dataclasses.replace(scenario, warmup=10)
    assert run(explicit).warmup_slots == 10


@pytest.mark.parametrize("empirical,oracle_value,tolerance,passed", [
    (1.0, 1.0, 1e-9, True),
    (0.495, 0.5, 0.01, True),
    (0.55, 0.5, 0.01, False),
])
def test_compare_to_oracle(empirical, oracle_value, tolerance, passed):
    report = SimReport(measured_slots=1000, successes=int(empirical * 1000),
                       collisions=0, idle=0, per_node_successes={},
                       empirical_throughput=empirical, warmup_slots=0,
                       tdma_cross_collisions=0)
    oracle = optimal_aloha([1.0 - oracle_value]) if oracle_value != 1.0 \
        else OracleResult(1.0, 1.0)
    result = compare_to_oracle(report, oracle, tolerance)
    assert result.passed is passed
    assert result.deviation == pytest.approx(abs(empirical - oracle_value), abs=1e-12)


def test_compare_to_oracle_rejects_bad_tolerance():
    report = run(Scenario((_ma(0, 0),), horizon=10, seed=0))
    for tolerance in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ContractViolation):
            compare_to_oracle(report, report.oracle, tolerance)


def test_default_tolerance_shape():
    assert default_tolerance(1.0, 10_000) == pytest.approx(1e-9, abs=1e-12)
    assert default_tolerance(0.5, 100_000) == pytest.approx(
        4 * np.sqrt(0.25 / 100_000) + 1e-9, abs=1e-15)


def test_sweep_q_grid_matches_oracle():
    base = Scenario((_ma(0, 1), _aloha(1, 0, 0.5)), horizon=20_000, seed=11)
    grid = [("q", [round(0.1 * k, 1) for k in range(1, 10)])]
    points = sweep(base, grid)
    assert len(points) == 9
    for point in points:
        q = point.params["q"]
        expected = max(q, 1.0 - q)
        tolerance = default_tolerance(expected, 20_000)
        assert point.error is None
        assert abs(point.report.empirical_throughput - expected) <= tolerance


def test_sweep_empty_grid():
    base = Scenario((_ma(0, 1), _aloha(1, 0, 0.5)), horizon=100, seed=11)
    assert sweep(base, []) == []


def test_sweep_is_deterministic():
    base = Scenario((_ma(0, 1), _aloha(1, 0, 0.5)), horizon=2_000, seed=11)
    grid = [("q", [0.2, 0.8])]
    assert sweep(base, grid) == sweep(base, grid)


def test_sweep_records_point_errors_and_continues():
    base = Scenario((_ma(0, 1), _aloha(1, 0, 0.5)), horizon=500, seed=11)
    points = sweep(base, [("q", [0.3, 1.7, 0.6])])
    assert [p.error is None for p in points] == [True, False, True]
    assert "[0, 1]" in points[1].error


def test_sweep_p_reconfigures_tdma():
    base = Scenario((_ma(0, 1), _tdma(1, 2, 10, {0}), _aloha(2, 0, 0.6)),
                    horizon=20_000, seed=13)
    points = sweep(base, [("p", [0.2, 0.5, 0.15])])
    assert points[0].report.oracle.optimal_throughput == pytest.approx(
        0.2 * 0.4 + 0.8 * 0.6, abs=1e-12)
    assert points[1].report.oracle.optimal_throughput == pytest.approx(
        0.5 * 0.4 + 0.5 * 0.6, abs=1e-12)
    assert points[2].error is not None   # 0.15 of a 10-slot frame is fractional


def test_sweep_rejects_unknown_parameter():
    base = Scenario((_ma(0, 1), _aloha(1, 0, 0.5)), horizon=100, seed=11)
    with pytest.raises(ValidationError):
        sweep(base, [("bogus", [1, 2])])


def test_monte_carlo_consistency_four_sigma():
    cases = [
        (Scenario((_ma(0, 1), _aloha(1, 3, 0.3)), horizon=100_000, seed=2001), 0.7),
        (Scenario((_ma(0, 1), _aloha(1, 0, 0.7)), horizon=100_000, seed=2002), 0.7),
        (Scenario((_ma(0, 2), _aloha(1, 0, 0.2), _aloha(2, 1, 0.3), _aloha(3, 0, 0.1)),
                  horizon=100_000, seed=2003), 0.504),
    ]
    for scenario, expected in cases:
        report = run(scenario)
        bound = 4.0 * np.sqrt(expected * (1.0 - expected) / report.measured_slots)
        assert abs(report.empirical_throughput - expected) <= bound
