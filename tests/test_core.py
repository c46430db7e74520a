import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_model import (ArrivalLedger, Outcome, SlotOutcome,
                             register_transmission, resolve_slot)
from uwmac import core
from uwmac.core import (AlohaRole, ContractViolation, Delay, ModelAwareRole,
                        NodeSpec, Scenario, TdmaRole, TdmaSchedule,
                        ValidationError, delay_from_distance, seed_errors,
                        validate_scenario)


def test_register_direct_addition():
    ledger = ArrivalLedger()
    register_transmission(ledger, 0, 5, Delay(3))
    assert ledger.arrivals_at(8) == frozenset({0})


def test_register_zero_delay_identity():
    ledger = ArrivalLedger()
    register_transmission(ledger, 1, 0, Delay(0))
    assert ledger.arrivals_at(0) == frozenset({1})


def test_register_two_nodes_same_arrival_slot():
    # 6 + 2 lands on the same AP slot as 5 + 3
    ledger = ArrivalLedger()
    register_transmission(ledger, 0, 5, Delay(3))
    register_transmission(ledger, 1, 6, Delay(2))
    assert ledger.arrivals_at(8) == frozenset({0, 1})


def test_register_only_touches_one_slot():
    ledger = ArrivalLedger()
    register_transmission(ledger, 0, 5, Delay(3))
    for slot in range(20):
        if slot != 8:
            assert ledger.arrivals_at(slot) == frozenset()


def test_register_duplicate_rejected():
    ledger = ArrivalLedger()
    register_transmission(ledger, 0, 5, Delay(3))
    with pytest.raises(ContractViolation):
        register_transmission(ledger, 0, 5, Delay(3))


def test_register_negative_send_slot_rejected():
    with pytest.raises(ContractViolation):
        register_transmission(ArrivalLedger(), 0, -1, Delay(0))


def test_resolve_idle():
    assert resolve_slot(ArrivalLedger(), 7) == SlotOutcome.idle()


def test_resolve_success():
    ledger = ArrivalLedger()
    register_transmission(ledger, 2, 4, Delay(0))
    outcome = resolve_slot(ledger, 4)
    assert outcome == SlotOutcome.success(2)
    assert outcome.node == 2


def test_resolve_collision():
    ledger = ArrivalLedger()
    register_transmission(ledger, 0, 5, Delay(3))
    register_transmission(ledger, 1, 6, Delay(2))
    outcome = resolve_slot(ledger, 8)
    assert outcome.kind is Outcome.COLLISION
    assert outcome.nodes == frozenset({0, 1})
    with pytest.raises(ContractViolation):
        outcome.node


def test_resolve_is_pure():
    ledger = ArrivalLedger()
    register_transmission(ledger, 3, 2, Delay(1))
    assert resolve_slot(ledger, 3) == resolve_slot(ledger, 3)


def test_successes_bounded_by_registrations():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ledger = ArrivalLedger()
        n_nodes = int(rng.integers(1, 5))
        delays = [int(rng.integers(0, 4)) for _ in range(n_nodes)]
        registered = 0
        for node in range(n_nodes):
            for t in range(15):
                if rng.random() < 0.4:
                    register_transmission(ledger, node, t, Delay(delays[node]))
                    registered += 1
        successes = sum(resolve_slot(ledger, a).kind is Outcome.SUCCESS
                        for a in range(20))
        assert successes <= registered


def test_arrival_slots_injective_per_node():
    # constant delay: distinct send slots map to distinct AP slots
    ledger = ArrivalLedger()
    for t in range(10):
        register_transmission(ledger, 0, t, Delay(3))
    hits = [a for a in range(20) if ledger.arrivals_at(a)]
    assert len(hits) == 10


def test_slot_outcome_count_invariants():
    with pytest.raises(ValidationError):
        SlotOutcome(Outcome.SUCCESS, frozenset())
    with pytest.raises(ValidationError):
        SlotOutcome(Outcome.COLLISION, frozenset({1}))
    with pytest.raises(ValidationError):
        SlotOutcome(Outcome.IDLE, frozenset({1}))


@pytest.mark.parametrize("distance,speed,slot,expected", [
    (1500, 1500, 1.0, 1),    # exact quotient
    (1501, 1500, 1.0, 2),    # ceiling forced
    (750, 1500, 0.1, 5),     # 0.5 s of propagation in 0.1 s slots
])
def test_delay_from_distance(distance, speed, slot, expected):
    assert delay_from_distance(distance, speed, slot) == Delay(expected)


def test_delay_from_distance_rejects_nonpositive():
    with pytest.raises(ValidationError) as info:
        delay_from_distance(-1, 0, 1)
    assert len(info.value.errors) == 2


def test_delay_negative_rejected():
    with pytest.raises(ValidationError):
        Delay(-1)


def test_tdma_schedule_invariants():
    with pytest.raises(ValidationError):
        TdmaSchedule(0, frozenset())
    with pytest.raises(ValidationError):
        TdmaSchedule(4, frozenset({4}))
    assert TdmaSchedule(4, frozenset({0, 2})).ratio == 0.5


def test_aloha_role_probability_range():
    with pytest.raises(ValidationError):
        AlohaRole(1.5)
    with pytest.raises(ValidationError):
        AlohaRole(-0.1)


def _ma(node_id, delay, member=True):
    return NodeSpec(node_id, Delay(delay), ModelAwareRole(member))


def test_validate_scenario_collects_all_violations():
    scn = Scenario(nodes=(_ma(0, 3), _ma(2, 3)), horizon=0, warmup=1, seed=-1)
    errors = validate_scenario(scn)
    assert len(errors) >= 4
    joined = " ".join(errors)
    assert "dense" in joined and "horizon" in joined
    assert "warmup" in joined and "seed" in joined


@pytest.mark.parametrize("seed, valid", [(0, True), (2 ** 64 - 1, True),
                                         (-1, False), (2 ** 64, False)])
def test_a_seed_is_an_unsigned_64_bit_integer(seed, valid):
    expected = [] if valid else [f"seed must be an unsigned 64-bit integer, got {seed}"]
    assert seed_errors(seed) == expected
    assert validate_scenario(Scenario(nodes=(_ma(0, 0),), horizon=1, seed=seed)) == expected


def test_validate_scenario_empty():
    assert validate_scenario(Scenario(nodes=(), horizon=10)) \
        == ["scenario needs at least one node"]


def test_validate_gateway_strict_mode():
    mixed_delays = Scenario(nodes=(_ma(0, 1), _ma(1, 2)), horizon=10)
    assert any("strict mode" in e for e in validate_scenario(mixed_delays))
    non_member = Scenario(nodes=(_ma(0, 1), _ma(1, 1, member=False)), horizon=10)
    assert any("gateway members" in e for e in validate_scenario(non_member))
    ok = Scenario(nodes=(_ma(0, 1), _ma(1, 1)), horizon=10)
    assert validate_scenario(ok) == []


def test_validate_single_model_aware_non_member_is_fine():
    scn = Scenario(nodes=(_ma(0, 2, member=False),), horizon=10)
    assert validate_scenario(scn) == []


def test_scenario_derived_counts():
    scn = Scenario(nodes=(
        NodeSpec(0, Delay(1), ModelAwareRole()),
        NodeSpec(1, Delay(4), TdmaRole(TdmaSchedule(5, frozenset({0})))),
        NodeSpec(2, Delay(2), AlohaRole(0.3)),
        NodeSpec(3, Delay(0), AlohaRole(0.6)),
    ), horizon=100)
    assert scn.num_tdma == 1 and scn.num_aloha == 2
    assert scn.aloha_probs == (0.3, 0.6)
    assert scn.max_delay == 4
    assert scn.warmup_slots == 4          # defaults to the max delay
    assert scn.tdma_frame_ratio == 0.2
    assert scn.total_send_slots == 4 + 100 + 4 + 1


def test_scenario_explicit_warmup_wins():
    scn = Scenario(nodes=(_ma(0, 2),), horizon=10, warmup=9)
    assert scn.warmup_slots == 9


@pytest.mark.parametrize("first", ["tdma_nodes", "aloha_nodes", "model_aware_nodes"])
def test_scenario_role_tuples_come_from_one_sort(monkeypatch, first):
    # nodes out of id order: whichever role tuple is asked for first sorts the
    # nodes once for all three, each in id order, and nodes of no role are in none
    tdma = TdmaRole(TdmaSchedule(5, frozenset({0})))
    nodes = (NodeSpec(4, Delay(0), AlohaRole(0.6)), NodeSpec(1, Delay(4), tdma),
             NodeSpec(3, Delay(1), ModelAwareRole()), NodeSpec(0, Delay(2), AlohaRole(0.3)),
             NodeSpec(5, Delay(0), None), NodeSpec(2, Delay(1), ModelAwareRole()))
    scn = Scenario(nodes=nodes, horizon=10)
    sorts = []

    def counted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(core, "sorted", counted, raising=False)
    getattr(scn, first)
    assert len(sorts) == 1
    assert [n.id for n in scn.tdma_nodes] == [1]
    assert [n.id for n in scn.aloha_nodes] == [0, 4]
    assert [n.id for n in scn.model_aware_nodes] == [2, 3]
    assert len(sorts) == 1


def test_sends_memory_does_not_grow_with_the_frame():
    schedule = TdmaSchedule(10**7, frozenset({0}))
    tracemalloc.start()
    try:
        mask = schedule.sends(3, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(mask) == 100 and not mask.any()   # offset 0 first recurs at slot 10**7
    # offsets whose first slot lies at or past the mask's end set nothing
    schedule = TdmaSchedule(10**7, frozenset({0, 5, 99, 100, 5_000, 10**7 - 1}))
    assert np.flatnonzero(schedule.sends(0, 100)).tolist() == [0, 5, 99]
    assert np.flatnonzero(schedule.sends(3, 100)).tolist() == [2, 96, 97]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(frame=st.integers(1, 40) | st.sampled_from([2 ** 63 - 1, 2 ** 70]),
       data=st.data(), first=st.integers(-300, 300) | st.integers(-2 ** 72, 2 ** 72),
       count=st.integers(0, 120))
def test_sends_matches_definition(frame, data, first, count):
    # frames shorter and longer than the mask, frames past int64, and masks
    # that start before slot 0
    near = st.integers(0, min(frame, 200) - 1) | st.integers(max(frame - 200, 0), frame - 1)
    schedule = TdmaSchedule(frame, data.draw(st.frozensets(near, max_size=12)))
    mask = schedule.sends(first, count)
    assert mask.dtype == bool and len(mask) == count
    assert mask.tolist() == [slot >= 0 and slot % frame in schedule.assigned
                             for slot in range(first, first + count)]
