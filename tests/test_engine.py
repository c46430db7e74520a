import collections
import concurrent.futures
import dataclasses
import itertools
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
from uwmac.core import (Action, AlohaRole, ContractViolation, Delay, ModelAwareRole,
                        NodeSpec, Scenario, TdmaRole, TdmaSchedule,
                        ValidationError)
from uwmac import engine, policies
from uwmac.engine import default_tolerance, node_rng, run, sweep
from uwmac.oracle import Branch
from uwmac.policies import ModelAwarePolicy, build_model_aware_policy


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


@pytest.mark.parametrize("block", [1, 7, 60, 1000])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(scenario=small_scenarios(max_horizon=2500))
def test_engine_matches_reference_across_block_boundaries(block, scenario):
    # the window, the warm-up and the gateway's turn all straddle blocks; every
    # lcm of frames up to 5 divides 60, so at 60 each block reuses one profile
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_SLOTS", block)
        _assert_matches_reference(scenario)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("block", [1, 7, 60, 1000])
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(scenario=small_scenarios(max_horizon=1200))
def test_threaded_draws_match_one_thread_and_the_reference(block, workers, scenario):
    # small blocks cut the window into `workers` ranges, counted on the helper
    # threads; the ranges start at any phase of the frames and turn of the gateway
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_SLOTS", block)
        patch.setattr(engine, "WORKERS", 1)
        serial = run(scenario)
        patch.setattr(engine, "WORKERS", workers)
        assert run(scenario) == serial
        _assert_matches_reference(scenario)


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("uwmac-ranges")]


def _crowd():
    """Eight ALOHA nodes over two full blocks: two ranges at two or more workers."""
    scenario = Scenario((_ma(0, 1), *(_aloha(i, i % 3, 0.02) for i in range(1, 9))),
                        horizon=2 * engine.BLOCK_SLOTS, seed=4)
    assert -(-scenario.horizon // engine.BLOCK_SLOTS) == 2
    return scenario


def test_helper_threads_stay_bounded(monkeypatch):
    # a run's helpers live for that run only
    monkeypatch.setattr(engine, "WORKERS", 3)
    before = threading.active_count()
    for _ in range(20):
        run(_crowd())
    assert _helper_threads() == []
    assert threading.active_count() == before


def test_concurrent_runs_match_a_serial_run(monkeypatch):
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
    # the child inherits none of the parent's threads, so it starts its own helpers
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


def test_a_one_block_run_starts_no_helper(monkeypatch):
    def no_executor(workers, **kwargs):
        raise AssertionError(f"asked for {workers} helper threads")

    monkeypatch.setattr(engine, "WORKERS", 3)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_executor)
    before = threading.active_count()
    # the sweep_short shape: 4 nodes at H = 500
    run(Scenario((_ma(0, 1), _tdma(1, 3, 4, {0}), _aloha(2, 0, 0.1), _aloha(3, 2, 0.2)),
                 horizon=500, seed=9))
    assert threading.active_count() == before


def test_an_error_in_a_helper_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(engine, "WORKERS", 2)
    count_range = engine._count_range

    def failing_in_helpers(*args):
        if threading.current_thread().name.startswith("uwmac-ranges"):
            raise RuntimeError("range failed")
        return count_range(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_count_range", failing_in_helpers)
        with pytest.raises(RuntimeError, match="range failed"):
            run(_crowd())
    # the next run starts helpers of its own
    threaded = run(_crowd())
    monkeypatch.setattr(engine, "WORKERS", 1)
    assert run(_crowd()) == threaded


def test_no_helper_outlives_a_failed_run(monkeypatch):
    # range 0 fails at once on the calling thread while a helper still counts
    monkeypatch.setattr(engine, "WORKERS", 2)
    finished = threading.Event()

    def slow_helper_failing_caller(*args):
        if not threading.current_thread().name.startswith("uwmac-ranges"):
            raise RuntimeError("range 0 failed")
        time.sleep(0.2)
        finished.set()

    monkeypatch.setattr(engine, "_count_range", slow_helper_failing_caller)
    with pytest.raises(RuntimeError, match="range 0 failed"):
        run(_crowd())
    assert finished.is_set()


@pytest.mark.parametrize("blocks", [2, 5])
def test_a_run_counts_one_range_per_worker(monkeypatch, blocks):
    # a transmit-branch gateway against frames 5 and 3: the ranges split its
    # decision stream, so each range's turns must be merged at the right member
    nodes = (_ma(0, 2), _ma(1, 2), _ma(2, 2), _tdma(3, 1, 5, {0}), _tdma(4, 0, 3, {1}),
             _aloha(5, 3, 0.05), _aloha(6, 1, 0.1))
    scenario = Scenario(nodes, horizon=blocks * engine.BLOCK_SLOTS, seed=12)
    count_range = engine._count_range
    calls = []

    def counted(*args):
        calls.append(args[1])
        return count_range(*args)

    monkeypatch.setattr(engine, "_count_range", counted)
    # frames 5 and 3 cut blocks at a multiple of 15 AP slots
    block = engine.BLOCK_SLOTS - engine.BLOCK_SLOTS % 15
    window_blocks = -(-scenario.horizon // block)
    reports = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(engine, "WORKERS", workers)
        calls.clear()
        reports[workers] = run(scenario)
        assert len(calls) == min(workers, window_blocks)
    assert reports[1].oracle.chosen_branch is Branch.TRANSMIT
    assert reports[2] == reports[1] and reports[3] == reports[1]


def test_run_memory_does_not_grow_with_the_ranges(monkeypatch):
    # each range keeps its senders' masks at one bit per slot
    monkeypatch.setattr(engine, "WORKERS", 3)
    scenario = Scenario((_ma(0, 1), *(_aloha(i, i % 4, 0.01) for i in range(1, 49))),
                        horizon=4 * engine.BLOCK_SLOTS, seed=5)
    run(scenario)   # concurrent.futures is imported outside the measurement
    tracemalloc.start()
    try:
        run(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 48 * engine.BLOCK_SLOTS


def _counted(calls, name, function):
    """`function`, counting its calls in calls[name]."""
    def wrapper(*args):
        calls[name] += 1
        return function(*args)
    return wrapper


def test_block_profile_is_built_once_per_phase(monkeypatch):
    # frames 5 and 3 repeat every 15 AP slots, so every block of the window
    # starts at phase 0 and only the short last block needs a profile of its own;
    # the plan counts the window's TDMA classes off one period and the remainder
    calls = collections.Counter()
    monkeypatch.setattr(TdmaSchedule, "sends", _counted(calls, "tdma", TdmaSchedule.sends))
    # the decisions are read off the TDMA rows, so no block asks the policy
    monkeypatch.setattr(ModelAwarePolicy, "transmit_mask",
                        _counted(calls, "policy", ModelAwarePolicy.transmit_mask))
    nodes = (_ma(0, 2), _ma(1, 2), _ma(2, 2), _tdma(3, 1, 5, {0}), _tdma(4, 0, 3, {1}))
    for blocks in (2, 20):
        calls.clear()
        report = run(Scenario(nodes, horizon=blocks * engine.BLOCK_SLOTS, seed=3))
        assert min(report.per_node_successes[m] for m in range(3)) > 0
        assert calls == {"tdma": 8}
    # a window of one block reads its classes off the plan's one profile
    calls.clear()
    report = run(Scenario(nodes, horizon=500, seed=3))
    assert min(report.per_node_successes[m] for m in range(3)) > 0
    assert calls == {"tdma": 2}


def test_a_period_longer_than_a_block_builds_a_profile_per_block(monkeypatch):
    # a frame of 16 against blocks of 8 AP slots: only the window's first
    # block (AP slot 2) is at the plan's phase, so each later block builds
    # its own profile, the last (AP slots 42 .. 44) a short one
    monkeypatch.setattr(engine, "BLOCK_SLOTS", 8)
    monkeypatch.setattr(engine, "WORKERS", 1)
    built, counting = [], []
    build, count_range = engine._BlockProfile.build, engine._count_range

    def recorded(tdma, transmit, k, first, count):
        if counting:
            built.append(first)
        return build(tdma, transmit, k, first, count)

    def counted(*args):
        counting.append(True)
        try:
            return count_range(*args)
        finally:
            counting.pop()

    monkeypatch.setattr(engine._BlockProfile, "build", staticmethod(recorded))
    monkeypatch.setattr(engine, "_count_range", counted)
    scenario = Scenario((_ma(0, 1), _tdma(1, 2, 16, {0, 5}), _aloha(2, 0, 0.2)),
                        horizon=43, seed=3)
    report = run(scenario)
    assert built == [10, 18, 26, 34, 42]
    _assert_matches_reference(scenario)
    monkeypatch.setattr(engine, "WORKERS", 2)
    assert run(scenario) == report


def test_helpers_make_no_generator_and_ask_no_policy(monkeypatch):
    # frames 5 and 3 repeat every 15 AP slots, more than a block of 7, so the
    # helper's range builds profiles of its own; generators and the plan's
    # count of the TDMA classes (window and warm-up turns) still happen on the
    # calling thread only, and nothing asks the policy for a forbidden slot
    caller = threading.current_thread()
    calls = collections.Counter()
    counting, spans = [], []

    def on_thread(name, function):
        def wrapper(*args):
            calls[name + " in classes" * bool(counting),
                  threading.current_thread() is caller] += 1
            return function(*args)
        return wrapper

    def classes(tdma, begin, end, period):
        spans.append((begin, end, threading.current_thread() is caller))
        counting.append(True)
        try:
            return tdma_classes(tdma, begin, end, period)
        finally:
            counting.pop()

    tdma_classes = engine._tdma_classes
    monkeypatch.setattr(engine, "BLOCK_SLOTS", 7)
    monkeypatch.setattr(engine, "WORKERS", 2)
    monkeypatch.setattr(engine, "node_rng", on_thread("rng", engine.node_rng))
    monkeypatch.setattr(TdmaSchedule, "sends", on_thread("tdma", TdmaSchedule.sends))
    monkeypatch.setattr(engine, "_tdma_classes", classes)
    monkeypatch.setattr(policies, "compute_forbidden_send_slots",
                        on_thread("policy", policies.compute_forbidden_send_slots))
    nodes = (_ma(0, 2), _ma(1, 2), _tdma(2, 1, 5, {0}), _tdma(3, 4, 3, {1}),
             _aloha(4, 3, 0.05), _aloha(5, 0, 0.1))
    report = run(Scenario(nodes, horizon=200, warmup=40, seed=6))
    assert report.oracle.chosen_branch is Branch.TRANSMIT
    assert calls["tdma", False] > 0 and calls["tdma in classes", True] > 0
    assert spans == [(40, 240, True), (2, 40, True)]   # the window, then the warm-up
    assert calls["rng", True] == 4   # two ALOHA nodes in each of two ranges
    assert {name for name, on_caller in calls if not on_caller} == {"tdma"}
    assert not any(name == "policy" for name, _ in calls)


def test_a_long_warmup_asks_the_policy_for_no_slot(monkeypatch):
    # a transmit-branch gateway whose warm-up spans many blocks and periods
    # counts its turns off the TDMA rows, as the reference model's walk does
    def refuse(*args):
        raise AssertionError("the engine asked the policy for its slots")

    nodes = (_ma(0, 2), _ma(1, 2), _ma(2, 2), _tdma(3, 1, 5, {0}), _tdma(4, 4, 7, {1, 3}),
             _aloha(5, 0, 0.05))
    scenario = Scenario(nodes, horizon=300, warmup=997, seed=4)
    expected = reference_run(scenario)[1]
    monkeypatch.setattr(engine, "BLOCK_SLOTS", 64)
    monkeypatch.setattr(ModelAwarePolicy, "transmit_mask", refuse)
    monkeypatch.setattr(policies, "compute_forbidden_send_slots", refuse)
    report = run(scenario)
    assert report.oracle.chosen_branch is Branch.TRANSMIT
    assert report.per_node_successes == expected
    report = run(dataclasses.replace(scenario, warmup=10**12))
    assert min(report.per_node_successes[m] for m in range(3)) > 0


@st.composite
def window_blocks(draw):
    """A stream of 1 to 3 model-aware members against 0 to 3 TDMA nodes, whose
    frames are short or longer than BLOCK_SLOTS and may overlap, with delays on
    either side of the stream's; an ALOHA node whose q picks the branch; and a
    block that starts anywhere from the stream's delay on, so before the
    warm-up ends it can reach TDMA send slots below 0."""
    ma_delay = draw(st.integers(0, 6))
    nodes = [_ma(i, ma_delay) for i in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        frame = draw(st.integers(1, 9)
                     | st.integers(engine.BLOCK_SLOTS - 3, engine.BLOCK_SLOTS + 300))
        assigned = draw(st.frozensets(st.integers(0, frame - 1), max_size=12))
        nodes.append(_tdma(len(nodes), draw(st.integers(0, 12)), frame, assigned))
    nodes.append(_aloha(len(nodes), draw(st.integers(0, 12)), draw(st.floats(0.0, 1.0))))
    max_delay = max(n.delay.slots for n in nodes)
    start = draw(st.integers(max_delay, max_delay + 100))
    first = draw(st.integers(ma_delay, start + 3 * engine.BLOCK_SLOTS))
    count = draw(st.integers(1, 300) | st.just(engine.BLOCK_SLOTS))
    horizon = max(1, first + count - start)
    return Scenario(tuple(nodes), horizon=horizon, warmup=start, seed=0), first, count


def _tdma_arrivals(tdma, first, count):
    """Row i: whether TDMA node i's packet reaches AP slots first .. first + count - 1."""
    # AP slot a hears a TDMA node of delay d from send slot a - d, if that is >= 0:
    # applied here too, so the profile does not lean on `sends` alone for it
    arrivals = np.zeros((len(tdma), count), dtype=bool)
    for row, n in enumerate(tdma):
        heard = np.arange(first, first + count) >= n.delay.slots
        arrivals[row] = n.role.schedule.sends(first - n.delay.slots, count) & heard
    return arrivals


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=window_blocks())
def test_decisions_are_the_complement_of_the_tdma_arrivals(case):
    scenario, first, count = case
    policy = build_model_aware_policy(scenario)
    transmit = policy.default_action is Action.TRANSMIT
    decisions = policy.transmit_mask(first - policy.delay.slots, count)
    tdma = scenario.tdma_nodes
    arrivals = _tdma_arrivals(tdma, first, count)
    assert np.array_equal(decisions, ~arrivals.any(axis=0) if transmit
                          else np.zeros(count, dtype=bool))
    # the profile holds those arrivals, those decisions in turns, and the planes
    k = len(scenario.model_aware_nodes)
    profile = engine._BlockProfile.build(tdma, transmit, k, first, count)
    rows = np.unpackbits(profile.packed, axis=1).astype(bool)
    assert not rows[:, count:].any()
    rows = rows[:, :count]
    assert np.array_equal(rows[:len(tdma)], arrivals)
    positions = decisions.nonzero()[0]
    for turn in range(k):
        assert np.array_equal(rows[len(tdma) + turn].nonzero()[0], positions[turn::k])
    assert np.array_equal(rows[-2], arrivals.sum(axis=0) >= 2)
    assert np.array_equal(rows[-1], arrivals.any(axis=0) | decisions)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=window_blocks(), data=st.data())
def test_a_short_block_is_the_start_of_a_full_one(case, data):
    # the window's short last block gets a profile of its own, which must hold
    # the first n slots of the full block's, turns and counts included
    scenario, first, count = case
    n = data.draw(st.integers(1, count))
    tdma = scenario.tdma_nodes
    for k, transmit in itertools.product((1, 2, 3), (False, True)):
        full = engine._BlockProfile.build(tdma, transmit, k, first, count)
        short = engine._BlockProfile.build(tdma, transmit, k, first, n)
        rows = np.unpackbits(short.packed, axis=1)
        assert not rows[:, n:].any()
        rows = rows[:, :n].astype(int)
        assert np.array_equal(rows, np.unpackbits(full.packed, axis=1)[:, :n])
        decided = rows[len(tdma):len(tdma) + k].sum()
        cross = rows[-2].sum()
        assert (short.count, short.decided, short.cross, short.single) == (
            n, decided, cross, rows[-1].sum() - cross - decided)


@st.composite
def warm_gateways(draw):
    """A transmit-branch gateway against 0 to 3 TDMA nodes with frames 1 to 9
    or longer than BLOCK_SLOTS and delays on either side of the gateway's; a
    warm-up up to 3000 slots or up to several blocks of BLOCK_SLOTS; the block
    size the count walks in, which is at least 1000 on a long warm-up; and a
    horizon of 1 to 3 such blocks, shorter or longer than the frames' lcm."""
    ma_delay = draw(st.integers(0, 4))
    nodes = [_ma(i, ma_delay) for i in range(draw(st.integers(2, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        frame = draw(st.integers(1, 9)
                     | st.integers(engine.BLOCK_SLOTS - 3, engine.BLOCK_SLOTS + 300))
        assigned = draw(st.frozensets(st.integers(0, frame - 1), max_size=12))
        nodes.append(_tdma(len(nodes), draw(st.integers(0, 12)), frame, assigned))
    max_delay = max(n.delay.slots for n in nodes)
    span = draw(st.integers(0, 3000)
                | st.integers(engine.BLOCK_SLOTS, 4 * engine.BLOCK_SLOTS))
    block = draw(st.sampled_from([1, 7, 1000, 65536] if span <= 3000 else [1000, 65536]))
    horizon = draw(st.integers(1, 3 * block))
    return Scenario(tuple(nodes), horizon=horizon, warmup=max_delay + span, seed=0), block


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=warm_gateways())
def test_warmup_decision_count_matches_a_plain_walk(case):
    # counting the TDMA classes over whole periods equals walking the policy's
    # warm-up, whose decisions are the AP slots no TDMA packet reaches, and
    # walking the window's arrivals slot by slot
    scenario, block = case
    policy = build_model_aware_policy(scenario)
    delay, start, horizon = policy.delay.slots, scenario.warmup_slots, scenario.horizon
    first_send = start - delay
    walked = sum(int(np.count_nonzero(policy.transmit_mask(s, min(997, first_send - s))))
                 for s in range(0, first_send, 997))
    tdma = scenario.tdma_nodes
    period = math.lcm(*(n.role.schedule.frame_length for n in tdma))
    senders = _tdma_arrivals(tdma, start, horizon).sum(axis=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_SLOTS", block)
        assert first_send - sum(engine._tdma_classes(tdma, delay, start, period)) == walked
        assert engine._tdma_classes(tdma, start, start + horizon, period) == (
            np.count_nonzero(senders == 1), np.count_nonzero(senders >= 2))


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


def test_sweep_rejects_a_parameter_given_twice():
    base = Scenario((_ma(0, 1), _aloha(1, 0, 0.5)), horizon=100, seed=11)
    with pytest.raises(ValidationError, match="^sweep parameter 'q' given twice$"):
        sweep(base, [("q", [0.1, 0.2]), ("seed", [1]), ("q", [0.3])])


@pytest.mark.parametrize("name", ["horizon", "warmup", "seed"])
@pytest.mark.parametrize("value", [2.5, 1.9, math.nan, math.inf, True, np.bool_(False), "3"])
def test_sweep_rejects_a_value_that_is_not_a_whole_number(monkeypatch, name, value):
    calls = collections.Counter()
    monkeypatch.setattr(engine, "_simulate", _counted(calls, "point", engine._simulate))
    base = Scenario((_ma(0, 1), _aloha(1, 0, 0.5)), horizon=100, seed=11)
    with pytest.raises(ValidationError,
                       match=f"^sweep parameter {name!r} takes whole numbers, got "):
        sweep(base, [("q", [0.2]), (name, [3, value])])
    assert not calls   # no point ran


@pytest.mark.parametrize("name", ["q", "p"])
@pytest.mark.parametrize("value", [True, np.bool_(False), "0.3", None, 0.5j])
def test_sweep_rejects_a_value_that_is_not_a_real_number(monkeypatch, name, value):
    calls = collections.Counter()
    monkeypatch.setattr(engine, "_simulate", _counted(calls, "point", engine._simulate))
    base = Scenario((_ma(0, 1), _tdma(1, 0, 5, {0}), _aloha(2, 0, 0.5)), horizon=100, seed=11)
    with pytest.raises(ValidationError,
                       match=f"^sweep parameter {name!r} takes real numbers, got "):
        sweep(base, [("seed", [3]), (name, [0.2, value])])
    assert not calls   # no point ran


def test_sweep_leaves_real_values_out_of_range_to_the_points():
    # nan, inf and an out-of-range q, and a p that is no whole number of slots,
    # are errors of their own points only
    base = Scenario((_ma(0, 1), _tdma(1, 0, 5, {0}), _aloha(2, 0, 0.5)), horizon=100, seed=11)
    points = sweep(base, [("q", [math.nan, math.inf, 1.5, np.float32(0.25)]),
                          ("p", [0.3, np.float64(0.2)])])
    assert [point.report is not None for point in points] == [False] * 7 + [True]
    assert all("in [0, 1]" in point.error for point in points[:6])
    assert "not a whole number of slots" in points[6].error


def test_sweep_takes_python_and_numpy_integers():
    base = Scenario((_ma(0, 1), _aloha(1, 0, 0.5)), horizon=100, seed=11)
    points = sweep(base, [("horizon", [40, np.int64(40), np.uint16(40)]),
                          ("warmup", [np.int32(5)]), ("seed", [np.uint64(7), 7])])
    expected = run(dataclasses.replace(base, horizon=40, warmup=5, seed=7))
    assert [(point.seed, point.report) for point in points] == [(7, expected)] * 6


# bases for the sweep grids: a transmit-branch gateway, overlapping TDMA
# arrivals with a silent-branch node, one TDMA node whose frame takes `p`, and
# no model-aware node; the q values of the grids cross z = 0 on each
SWEEP_BASES = {
    "gateway": Scenario((_ma(0, 2), _ma(1, 2), _ma(2, 2), _tdma(3, 1, 5, {0}),
                         _tdma(4, 0, 3, {1}), _aloha(5, 3, 0.05)), horizon=30, seed=8),
    "overlap": Scenario((_ma(0, 0), _tdma(1, 0, 2, {0}), _tdma(2, 2, 2, {0}),
                         _aloha(3, 1, 0.7)), horizon=30, seed=9),
    "one_tdma": Scenario((_ma(0, 1), _tdma(1, 3, 4, {0}), _aloha(2, 0, 0.1),
                          _aloha(3, 2, 0.2)), horizon=30, seed=10),
    "no_model_aware": Scenario((_tdma(0, 1, 4, {1, 2}), _aloha(1, 0, 0.3)),
                               horizon=30, seed=11),
}


@st.composite
def sweep_grids(draw):
    """Up to three of q, p, horizon and warmup with one or two values each,
    repeats allowed, and a seed list last, first or not at all; seeds -1 and
    2^64 are errors, p = 0.3 is a fractional slot count and a warm-up of 1 lies
    below some bases' delays."""
    values = {"q": [0.05, 0.3, 0.7, 0.9, 1.7], "p": [0.0, 0.25, 0.5, 0.75, 0.3],
              "horizon": [1, 9, 40], "warmup": [4, 17, 1]}
    names = draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=3))
    grid = [(name, draw(st.lists(st.sampled_from(values[name]), min_size=1, max_size=2)))
            for name in names]
    seeds = ("seed", draw(st.lists(st.sampled_from([3, 0, 2 ** 64 - 1, 7, -1, 2 ** 64]),
                                   min_size=1, max_size=4)))
    where = draw(st.sampled_from(["last", "first", "absent"]))
    if where == "last":
        return grid + [seeds]
    if where == "first":
        return [seeds] + grid
    return grid or [seeds]


def _point_scenario(base, point):
    scenario = base
    for name, value in point.params.items():
        scenario = engine._apply_parameter(scenario, name, value)
    return dataclasses.replace(scenario, seed=point.seed)


def _window(plan):
    return plan.start, plan.horizon, plan.block


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("base", sorted(SWEEP_BASES))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(grid=sweep_grids())
def test_sweep_equals_a_run_of_each_point(base, workers, grid):
    # blocks of 7 make the reused plans count several ranges, and both sizes
    # batch several lanes of a short window: up to 7 at H = 1 in blocks of 7,
    # and up to 2, 7 and 64 at H = 30, 9 and 1 in blocks of 64
    base = SWEEP_BASES[base]
    names = [name for name, _ in grid]
    combos = list(itertools.product(*(values for _, values in grid)))
    simulate = engine._simulate
    for block in (7, 64):
        batches = []

        def recorded(lanes):
            batches.append([plan for plan, _ in lanes])
            return simulate(lanes)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "BLOCK_SLOTS", block)
            patch.setattr(engine, "WORKERS", workers)
            patch.setattr(engine, "_simulate", recorded)
            points = sweep(base, grid)
            # each batch shares a window and takes at most a block's slots,
            # and a batch is cut short only where the next point's window differs
            assert sum(map(len, batches)) == sum(point.report is not None for point in points)
            for lanes, after in zip(batches, batches[1:] + [None]):
                start, horizon, block_slots = _window(lanes[0])
                assert {_window(plan) for plan in lanes} == {(start, horizon, block_slots)}
                cap = block // min(block_slots, horizon)
                assert len(lanes) <= cap
                assert (after is None or len(lanes) == cap
                        or _window(after[0]) != _window(lanes[0]))
            assert [p.index for p in points] == list(range(len(combos)))
            for point, combo in zip(points, combos):
                assert point.params == dict(zip(names, combo))
                seed = (int(point.params["seed"]) if "seed" in point.params
                        else engine._derive_seed(base.seed, point.index))
                assert point.seed == seed
                report = error = None
                try:
                    report = run(_point_scenario(base, point))
                except (ValidationError, ContractViolation) as exc:
                    error = str(exc)
                assert (point.report, point.error) == (report, error)


def test_a_sweep_builds_one_plan_per_run_of_seeds(monkeypatch):
    calls = collections.Counter()
    monkeypatch.setattr(engine, "build_model_aware_policy",
                        _counted(calls, "policy", engine.build_model_aware_policy))
    monkeypatch.setattr(engine, "validate_scenario",
                        _counted(calls, "validate", engine.validate_scenario))
    base = Scenario((_ma(0, 1), _tdma(1, 2, 10, {0}), _aloha(2, 0, 0.3), _aloha(3, 1, 0.1)),
                    horizon=300, seed=5)
    q, p, seed = ("q", [0.2, 0.7]), ("p", [0.1, 0.2, 0.5]), ("seed", [1, 2, 3, 4])
    seed_last = sweep(base, [q, p, seed])
    assert calls == {"policy": 6, "validate": 6}
    calls.clear()
    seed_first = sweep(base, [seed, q, p])
    assert calls == {"policy": 24, "validate": 24}

    def by_params(points):
        return {(point.params["q"], point.params["p"], point.seed): point.report
                for point in points}

    assert {r.oracle.chosen_branch for r in by_params(seed_last).values()} == set(Branch)
    assert len(by_params(seed_last)) == 24
    assert by_params(seed_first) == by_params(seed_last)


def test_a_sweep_seeds_each_listed_seed_once_per_aloha_node(monkeypatch):
    calls = collections.Counter()
    monkeypatch.setattr(engine, "node_rng", _counted(calls, "seeded", engine.node_rng))
    monkeypatch.setattr(engine, "WORKERS", 1)
    base = Scenario((_ma(0, 1), _tdma(1, 2, 10, {0}), _aloha(2, 0, 0.3), _aloha(3, 1, 0.1)),
                    horizon=300, seed=5)
    q, p, seed = ("q", [0.2, 0.7]), ("p", [0.1, 0.2, 0.5]), ("seed", [1, 2, 3, 4])
    # 4 listed seeds x 2 ALOHA nodes, wherever the seeds stand; with no seed
    # listed, each of the 6 points is seeded at its derived seed
    for grid, seeded in (([q, p, seed], 8), ([seed, q, p], 8), ([q, p], 6 * 2)):
        calls.clear()
        points = sweep(base, grid)
        assert calls == {"seeded": seeded}
        for point in points:
            scenario = base
            for name, value in point.params.items():
                scenario = engine._apply_parameter(scenario, name, value)
            assert point.report == run(dataclasses.replace(scenario, seed=point.seed))


def test_a_sweep_works_the_oracle_out_once_per_plan(monkeypatch):
    # the oracle's inputs are the window's TDMA classes and q, which the seed does not move
    calls = collections.Counter()
    monkeypatch.setattr(engine, "optimal_mixed", _counted(calls, "oracle", engine.optimal_mixed))
    monkeypatch.setattr(engine, "_plan", _counted(calls, "plan", engine._plan))
    base = Scenario((_ma(0, 1), _tdma(1, 2, 10, {0}), _aloha(2, 0, 0.3), _aloha(3, 1, 0.1)),
                    horizon=300, seed=5)
    q, seed = ("q", [0.2, 0.7]), ("seed", [1, 2, 3, 4])
    for grid, plans in (([q, seed], 2), ([seed, q], 8)):
        calls.clear()
        points = sweep(base, grid)
        assert calls == {"plan": plans, "oracle": plans}
        for point in points:
            scenario = engine._apply_parameter(base, "q", point.params["q"])
            calls.clear()
            assert point.report == run(dataclasses.replace(scenario, seed=point.seed))
            assert calls == {"plan": 1, "oracle": 1}


def test_a_sweep_counts_its_short_points_in_batches(monkeypatch):
    # the sweep_short shape: 8 q x 6 p x 4 seeds at H = 500 fill 131 + 61 lanes
    calls = []
    count_range = engine._count_range

    def counted(plans, *args):
        calls.append(len(plans) * min(plans[0].block, plans[0].horizon))
        return count_range(plans, *args)

    monkeypatch.setattr(engine, "_count_range", counted)
    base = Scenario((_ma(0, 1), _tdma(1, 3, 10, {0}), _aloha(2, 5, 0.1), _aloha(3, 0, 0.1)),
                    horizon=500, seed=5)
    grid = [("q", [0.05, 0.1, 0.2, 0.3, 0.6, 0.7, 0.8, 0.9]),
            ("p", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]), ("seed", [11, 12, 13, 14])]
    points = sweep(base, grid)
    assert calls == [131 * 500, 61 * 500]
    assert all(slots <= engine.BLOCK_SLOTS for slots in calls)
    assert {point.report.oracle.chosen_branch for point in points} == set(Branch)
    for point in points:
        assert point.report == run(_point_scenario(base, point))
    # an invalid seed, and a p that is no whole number of slots, between the
    # lanes keep their places and their own errors
    calls.clear()
    points = sweep(base, [("p", [0.1, 0.15, 0.2]), ("seed", [1, -1, 2])])
    assert calls == [4 * 500]
    assert [point.report is None for point in points] == [False, True, False, True, True,
                                                          True, False, True, False]
    for point in points:
        try:
            expected = (run(_point_scenario(base, point)), None)
        except ValidationError as exc:
            expected = (None, str(exc))
        assert (point.report, point.error) == expected
    assert "seed" in points[1].error and "whole number of slots" in points[3].error


def test_a_sweep_builds_one_profile_per_layout(monkeypatch):
    # the sweep_short shape: q moves only the branch, so the 48 plans of
    # 8 q x 6 p share 6 p x 2 branches = 12 profiles; a change of q applies
    # q and p again and a change of p only p, 8 x 2 + 40 = 56 parameters
    calls = collections.Counter()
    monkeypatch.setattr(engine._BlockProfile, "build",
                        staticmethod(_counted(calls, "profile", engine._BlockProfile.build)))
    monkeypatch.setattr(engine, "_apply_parameter",
                        _counted(calls, "apply", engine._apply_parameter))
    monkeypatch.setattr(engine, "_plan", _counted(calls, "plan", engine._plan))
    base = Scenario((_ma(0, 1), _tdma(1, 3, 10, {0}), _aloha(2, 5, 0.1), _aloha(3, 0, 0.1)),
                    horizon=500, seed=5)
    grid = [("q", [0.05, 0.1, 0.2, 0.3, 0.6, 0.7, 0.8, 0.9]),
            ("p", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]), ("seed", [11, 12, 13, 14])]
    points = sweep(base, grid)
    assert calls == {"profile": 12, "apply": 56, "plan": 48}
    assert {point.report.oracle.chosen_branch for point in points} == set(Branch)
    for point in points:
        assert point.report == run(_point_scenario(base, point))


def test_a_sweeps_profiles_stay_within_a_block(monkeypatch):
    # blocks of 40 AP slots hold three profiles of a 12-slot window, and the
    # grid's 10 p x 2 branches make 20: the layouts are cleared as they fill
    monkeypatch.setattr(engine, "BLOCK_SLOTS", 40)
    held = []
    keep = engine._Layouts.keep

    def recorded(layouts, key, layout):
        keep(layouts, key, layout)
        assert sum(kept.profile.count for kept in layouts.values()) == layouts.slots
        held.append(layouts.slots)

    monkeypatch.setattr(engine._Layouts, "keep", recorded)
    base = Scenario((_ma(0, 1), _tdma(1, 3, 10, {0}), _aloha(2, 5, 0.1), _aloha(3, 0, 0.1)),
                    horizon=12, seed=5)
    points = sweep(base, [("q", [0.2, 0.8]), ("p", [k / 10 for k in range(10)]),
                          ("seed", [1, 2])])
    assert len(held) == 20 and max(held) == 36 and held.count(12) == 7
    for point in points:
        assert point.report == run(_point_scenario(base, point))


def test_a_bad_value_between_good_ones_keeps_its_error(monkeypatch):
    # q = 1.7 and p = 0.3 of a 4-slot frame fail; the chain of scenarios
    # applies again from the parameter that failed, so every point after
    # a failure is still the run of its own values
    applied = []
    apply = engine._apply_parameter

    def recorded(scenario, name, value):
        applied.append(name)
        return apply(scenario, name, value)

    monkeypatch.setattr(engine, "_apply_parameter", recorded)
    base = SWEEP_BASES["one_tdma"]
    points = sweep(base, [("q", [0.2, 1.7, 0.3]), ("p", [0.25, 0.3, 0.5])])
    assert applied == ["q", "p", "p", "p", "q", "q", "q", "q", "p", "p", "p"]
    assert [point.report is None for point in points] == [False, True, False, True, True,
                                                          True, False, True, False]
    for point in points:
        try:
            expected = (run(_point_scenario(base, point)), None)
        except ValidationError as exc:
            expected = (None, str(exc))
        assert (point.report, point.error) == expected
    assert all("probability" in point.error for point in points[3:6])
    assert "whole number of slots" in points[1].error and points[1].error == points[7].error


def test_a_sweep_batches_each_window_across_the_grid(monkeypatch):
    # with horizon innermost no two consecutive points share a window, yet
    # each window's 192 points fill 130 + 62 lanes at H = 501 and 131 + 61 at
    # H = 500, each batch seeding its 4 seeds once per ALOHA node
    calls, seeded = [], collections.Counter()
    count_range = engine._count_range

    def counted(plans, *args):
        calls.append((len(plans), plans[0].horizon))
        return count_range(plans, *args)

    monkeypatch.setattr(engine, "_count_range", counted)
    monkeypatch.setattr(engine, "node_rng", _counted(seeded, "node_rng", engine.node_rng))
    base = Scenario((_ma(0, 1), _tdma(1, 3, 10, {0}), _aloha(2, 5, 0.1), _aloha(3, 0, 0.1)),
                    horizon=500, seed=5)
    grid = [("q", [0.05, 0.1, 0.2, 0.3, 0.6, 0.7, 0.8, 0.9]),
            ("p", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]), ("seed", [11, 12, 13, 14]),
            ("horizon", [500, 501])]
    points = sweep(base, grid)
    assert calls == [(130, 501), (131, 500), (61, 500), (62, 501)]
    assert seeded == {"node_rng": 4 * 4 * 2}
    assert [point.params["horizon"] for point in points] == [500, 501] * 192
    for point in points:
        assert point.report == run(_point_scenario(base, point))


def test_a_gateway_in_a_batch_splits_its_successes_as_a_run_does(monkeypatch):
    # q crosses z = 0 and p moves the free AP slots of the warm-up, so each
    # warm-up's batch holds lanes of both branches whose gateways start the
    # window at each of the three members
    batches = []
    simulate = engine._simulate

    def recorded(lanes):
        batches.append([plan for plan, _ in lanes])
        return simulate(lanes)

    monkeypatch.setattr(engine, "_simulate", recorded)
    base = Scenario((_ma(0, 2), _ma(1, 2), _ma(2, 2), _tdma(3, 1, 5, {0}), _aloha(4, 3, 0.05),
                     _aloha(5, 0, 0.1)), horizon=30, seed=8)
    points = sweep(base, [("warmup", [4, 10]), ("p", [0.2, 0.4, 0.6]),
                          ("q", [0.05, 0.3, 0.7, 0.9]), ("seed", [3, 7])])
    assert [len(lanes) for lanes in batches] == [24, 24]
    for lanes in batches:
        assert {plan.transmit for plan in lanes} == {False, True}
        assert {plan.sent % 3 for plan in lanes if plan.transmit} == {0, 1, 2}
    for point in points:
        report = run(_point_scenario(base, point))
        assert point.report == report
        if report.oracle.chosen_branch is Branch.TRANSMIT:
            assert min(report.per_node_successes[m] for m in range(3)) > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_lanes_of_several_blocks_count_as_their_runs(monkeypatch, workers):
    # sweep never batches a window of several blocks, but _simulate counts
    # such lanes too: each lane keeps its own profiles, decisions and turns;
    # a block of 20 AP slots holds 16, 12 and 8 decisions at p = 0.2, 0.4 and
    # 0.6, so the lanes' turns drift apart from block to block
    monkeypatch.setattr(engine, "BLOCK_SLOTS", 22)
    monkeypatch.setattr(engine, "WORKERS", workers)
    base = Scenario((_ma(0, 2), _ma(1, 2), _ma(2, 2), _tdma(3, 1, 5, {0}), _aloha(4, 3, 0.05),
                     _aloha(5, 0, 0.1)), horizon=100, warmup=10, seed=8)
    scenarios = [dataclasses.replace(engine._apply_parameter(
                     engine._apply_parameter(base, "p", p), "q", q), seed=seed)
                 for p, q, seed in [(0.2, 0.05, 4), (0.4, 0.9, 3), (0.4, 0.3, 4), (0.6, 0.05, 3)]]
    plans = [engine._plan(scenario) for scenario in scenarios]
    assert [plan.transmit for plan in plans] == [True, False, True, True]
    assert len({plan.sent % 3 for plan in plans if plan.transmit}) == 3
    reports = engine._simulate([(plan, scenario.seed) for plan, scenario in zip(plans, scenarios)])
    assert reports == [run(scenario) for scenario in scenarios]


def test_lanes_come_back_in_their_order():
    # lanes of two plans whose seeds do not stand together: each report stays
    # at its lane, and no two of them are equal
    base = Scenario((_ma(0, 1), _tdma(1, 3, 10, {0}), _aloha(2, 5, 0.1), _aloha(3, 0, 0.1)),
                    horizon=500, seed=5)
    scenarios = [dataclasses.replace(engine._apply_parameter(base, "q", q), seed=seed)
                 for q, seed in [(0.2, 12), (0.6, 11), (0.6, 12), (0.2, 11)]]
    plans = [engine._plan(scenario) for scenario in scenarios]
    reports = engine._simulate([(plan, scenario.seed) for plan, scenario in zip(plans, scenarios)])
    assert reports == [run(scenario) for scenario in scenarios]
    assert len({report.successes for report in reports}) == 4


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


def gateway_reports(monkeypatch):
    """Reports whose per-node successes come from the engine's lanes x nodes
    array: a 3-member gateway's run of three blocks at WORKERS 1 and 2, also
    with int64 warm-up, horizon and delays, and each point of a gateway sweep
    over two warm-ups and three p, one batch per warm-up, whose lanes start
    the round robin at different turns."""
    base = Scenario((_ma(0, 1), _ma(1, 1), _ma(2, 1), _tdma(3, 4, 5, {0}), _tdma(4, 0, 5, {2}),
                     _aloha(5, 2, 0.05)), horizon=150_000, warmup=31, seed=4)
    wide = Scenario(tuple(dataclasses.replace(n, delay=Delay(np.int64(n.delay.slots)))
                          for n in base.nodes),
                    horizon=np.int64(150_000), warmup=np.int64(31), seed=4)
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(engine, "WORKERS", workers)
        reports += [run(base), run(wide)]
    assert reports[1:] == reports[:1] * 3
    swept = Scenario((_ma(0, 1), _ma(1, 1), _ma(2, 1), _tdma(3, 4, 5, {0}), _aloha(4, 2, 0.05),
                      _aloha(5, 0, 0.1)), horizon=200, seed=4)
    points = sweep(swept, [("warmup", [10, 31]), ("p", [0.2, 0.4, 0.6]), ("seed", [1, 2])])
    return reports + [point.report for point in points]


def test_per_node_successes_are_python_ints_in_id_order(monkeypatch):
    batches = []
    simulate = engine._simulate

    def recorded(lanes):
        batches.append({plan.sent % 3 for plan, _ in lanes})
        return simulate(lanes)

    monkeypatch.setattr(engine, "_simulate", recorded)
    reports = gateway_reports(monkeypatch)
    assert len(batches) == 6 and all(len(turns) > 1 for turns in batches[-2:])
    for report in reports:
        per_node = report.per_node_successes
        assert list(per_node) == list(range(6))
        assert {type(count) for count in per_node.values()} == {int}
        assert sum(per_node.values()) == report.successes
        assert {type(report.successes), type(report.collisions), type(report.idle)} == {int}
        assert min(per_node[m] for m in range(3)) > 0


@pytest.mark.parametrize("name, value", [
    ("q", 0.3), ("q", np.float64(0.7)), ("q", 1), ("p", 0.5), ("p", np.float64(0.25)),
    ("horizon", 17), ("horizon", np.int64(9)), ("warmup", 4.0), ("warmup", np.int64(6))])
def test_a_swept_scenario_equals_its_replaced_dataclass(name, value):
    # _apply_parameter builds nodes and scenarios directly; what it builds is
    # the scenario that dataclasses.replace gives, role tuples included
    base = SWEEP_BASES["one_tdma"]
    if name == "q":
        role = AlohaRole(float(value))
        expected = dataclasses.replace(base, nodes=tuple(
            dataclasses.replace(n, role=role) if isinstance(n.role, AlohaRole) else n
            for n in base.nodes))
    elif name == "p":
        frame = base.tdma_nodes[0].role.schedule.frame_length
        role = TdmaRole(TdmaSchedule(frame, frozenset(range(round(value * frame)))))
        expected = dataclasses.replace(base, nodes=tuple(
            dataclasses.replace(n, role=role) if isinstance(n.role, TdmaRole) else n
            for n in base.nodes))
    else:
        expected = dataclasses.replace(base, **{name: int(value)})
    applied = engine._apply_parameter(base, name, value)
    assert applied == expected and hash(applied) == hash(expected)
    for field in ("horizon", "warmup", "seed"):
        assert type(getattr(applied, field)) is type(getattr(expected, field))
    for roles in ("aloha_nodes", "tdma_nodes", "model_aware_nodes", "aloha_probs"):
        assert getattr(applied, roles) == getattr(expected, roles)


@pytest.mark.parametrize("name, value, message", [
    ("q", 1.7, "ALOHA transmit probability must lie in [0, 1], got 1.7"),
    ("q", -0.1, "ALOHA transmit probability must lie in [0, 1], got -0.1"),
    ("p", 0.3, "p=0.3 is not a whole number of slots in a frame of length 4"),
    ("p", 1.25, "p=1.25 is not a whole number of slots in a frame of length 4")])
def test_a_bad_swept_value_keeps_its_message(name, value, message):
    with pytest.raises(ValidationError) as caught:
        engine._apply_parameter(SWEEP_BASES["one_tdma"], name, value)
    assert str(caught.value) == message
