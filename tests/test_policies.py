import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwmac.core import (Action, AlohaRole, ContractViolation, Delay,
                        ModelAwareRole, NodeSpec, Scenario, TdmaRole,
                        TdmaSchedule, ValidationError)
from reference_model import (GatewayRoster, aloha_decide, gateway_select,
                             tdma_decide)
from uwmac.oracle import optimal_aloha
from uwmac.policies import (ModelAwarePolicy, build_model_aware_policy,
                            compute_forbidden_send_slots)


@pytest.mark.parametrize("frame,assigned,t,expected", [
    (10, {0}, 20, Action.TRANSMIT),
    (10, {0}, 7, Action.WAIT),
    (4, {1, 3}, 11, Action.TRANSMIT),   # 11 mod 4 = 3
])
def test_tdma_decide(frame, assigned, t, expected):
    assert tdma_decide(TdmaSchedule(frame, frozenset(assigned)), t) is expected


def test_tdma_decide_negative_slot():
    with pytest.raises(ContractViolation):
        tdma_decide(TdmaSchedule(2, frozenset({0})), -1)


def test_aloha_decide_degenerate_probabilities():
    rng = np.random.default_rng(0)
    assert all(aloha_decide(AlohaRole(0.0), rng) is Action.WAIT for _ in range(100))
    assert all(aloha_decide(AlohaRole(1.0), rng) is Action.TRANSMIT for _ in range(100))


def test_aloha_decide_frequency():
    rng = np.random.default_rng(12345)
    params = AlohaRole(0.3)
    draws = 100_000
    hits = sum(aloha_decide(params, rng) is Action.TRANSMIT for _ in range(draws))
    assert abs(hits / draws - 0.3) <= 0.005


def forbidden_slots(tdma, ma_delay, first_send, last_send):
    """The forbidden send slots of compute_forbidden_send_slots as a set."""
    mask = compute_forbidden_send_slots(tdma, ma_delay, first_send, last_send)
    assert mask.dtype == bool and len(mask) == last_send - first_send + 1
    return set((np.flatnonzero(mask) + first_send).tolist())


def test_forbidden_slots_shifted_frame():
    # TDMA sends at 0, 5 -> arrivals at 4, 9 -> forbidden sends 3, 8
    tdma = [(TdmaSchedule(5, frozenset({0})), Delay(4))]
    assert forbidden_slots(tdma, Delay(1), 0, 9) == {3, 8}


def test_forbidden_slots_no_tdma():
    assert forbidden_slots([], Delay(2), 0, 50) == set()


def test_forbidden_slots_equal_delays():
    tdma = [(TdmaSchedule(2, frozenset({0})), Delay(3))]
    assert forbidden_slots(tdma, Delay(3), 0, 3) == {0, 2}


def test_forbidden_slots_negative_candidates_excluded():
    # ma delay larger than the tdma delay shifts candidates below zero
    tdma = [(TdmaSchedule(4, frozenset({0})), Delay(0))]
    forbidden = forbidden_slots(tdma, Delay(3), 0, 12)
    assert forbidden == {1, 5, 9}       # s + 3 = 4k, s >= 0
    assert all(s >= 0 for s in forbidden)
    # a range that starts below 0 still forbids no s < 0, though s = -3 meets TDMA slot 0
    assert forbidden_slots(tdma, Delay(3), -5, 12) == {1, 5, 9}


def test_forbidden_slots_multiple_tdma_nodes():
    tdma = [(TdmaSchedule(4, frozenset({0})), Delay(2)),
            (TdmaSchedule(4, frozenset({1})), Delay(0))]
    forbidden = forbidden_slots(tdma, Delay(0), 0, 11)
    assert forbidden == {2, 6, 10, 1, 5, 9}


def test_forbidden_slots_bad_range():
    with pytest.raises(ContractViolation):
        compute_forbidden_send_slots([], Delay(0), 5, 4)


@st.composite
def tdma_nodes(draw):
    frame = draw(st.integers(1, 7))
    assigned = draw(st.one_of(st.just(frozenset()), st.just(frozenset(range(frame))),
                              st.frozensets(st.integers(0, frame - 1))))
    return TdmaSchedule(frame, assigned), Delay(draw(st.integers(0, 8)))


def forbidden_by_definition(tdma, ma_delay, first_send, last_send):
    """Send slots s >= 0 whose arrival meets the arrival of a TDMA send t >= 0."""
    return {s for s in range(max(first_send, 0), last_send + 1)
            for schedule, delay in tdma
            for t in [s + ma_delay.slots - delay.slots]
            if t >= 0 and t % schedule.frame_length in schedule.assigned}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(tdma=st.lists(tdma_nodes(), max_size=3), ma_delay=st.builds(Delay, st.integers(0, 8)),
       first_send=st.integers(-5, 5), span=st.integers(0, 60),
       aloha_q=st.sampled_from([None, 0.2, 0.8]))
def test_forbidden_mask_matches_definition(tdma, ma_delay, first_send, span, aloha_q):
    last_send = first_send + span
    assert forbidden_slots(tdma, ma_delay, first_send, last_send) == \
        forbidden_by_definition(tdma, ma_delay, first_send, last_send)

    nodes = [NodeSpec(0, ma_delay, ModelAwareRole())]
    nodes += [NodeSpec(i, delay, TdmaRole(schedule))
              for i, (schedule, delay) in enumerate(tdma, start=1)]
    if aloha_q is not None:
        nodes.append(NodeSpec(len(nodes), Delay(0), AlohaRole(aloha_q)))
    scn = _scenario(*nodes, horizon=span + 1)
    policy = build_model_aware_policy(scn)
    total = scn.total_send_slots
    expected = forbidden_by_definition(tdma, ma_delay, 0, total - 1)
    transmits = policy.default_action is Action.TRANSMIT
    assert [bool(policy.transmit_mask(t, 1)[0]) for t in range(total)] == \
        [transmits and t not in expected for t in range(total)]
    assert policy.transmit_mask(-1, 1).tolist() == [transmits]
    assert policy.transmit_mask(total, 1).tolist() == [transmits]


def z_value(q):
    """The sign the model-aware policy's default decision is taken from."""
    return optimal_aloha(q).z_value


def test_z_value_examples():
    assert z_value([0.3]) == pytest.approx(0.4, abs=1e-15)
    assert z_value([0.5, 0.5]) == pytest.approx(-0.25, abs=1e-15)
    assert z_value([]) == 1.0


def test_z_value_single_node_closed_form():
    for q in np.linspace(0, 1, 21):
        assert z_value([float(q)]) == pytest.approx(1.0 - 2.0 * q, abs=1e-12)


def _scenario(*nodes, horizon=40, seed=3):
    return Scenario(nodes=tuple(nodes), horizon=horizon, seed=seed)


def test_build_policy_aloha_transmit_default():
    scn = _scenario(NodeSpec(0, Delay(1), ModelAwareRole()),
                    NodeSpec(1, Delay(0), AlohaRole(0.2)))
    policy = build_model_aware_policy(scn)
    assert policy.forbidden_send_slots.tolist() == []
    assert policy.default_action is Action.TRANSMIT


def test_build_policy_aloha_silent_default():
    scn = _scenario(NodeSpec(0, Delay(1), ModelAwareRole()),
                    NodeSpec(1, Delay(0), AlohaRole(0.8)))
    assert build_model_aware_policy(scn).default_action is Action.WAIT


def test_build_policy_tdma_blocks_even_slots():
    scn = _scenario(NodeSpec(0, Delay(0), ModelAwareRole()),
                    NodeSpec(1, Delay(0), TdmaRole(TdmaSchedule(2, frozenset({0})))))
    policy = build_model_aware_policy(scn)
    assert policy.default_action is Action.TRANSMIT   # empty ALOHA set gives z = 1
    evens = {s for s in range(scn.total_send_slots) if s % 2 == 0}
    assert policy.forbidden_send_slots.tolist() == sorted(evens)
    assert policy.transmit_mask(4, 2).tolist() == [False, True]


def test_build_policy_rejects_non_model_aware_node():
    # the policy belongs to the scenario's model-aware stream; without one there is none
    aloha_only = _scenario(NodeSpec(0, Delay(0), AlohaRole(0.2)))
    with pytest.raises(ContractViolation):
        build_model_aware_policy(aloha_only)
    tdma_only = _scenario(NodeSpec(0, Delay(0), TdmaRole(TdmaSchedule(2, frozenset({0})))))
    with pytest.raises(ContractViolation):
        build_model_aware_policy(tdma_only)


def test_policy_default_follows_oracle_branch():
    heavy = ModelAwarePolicy((), Delay(0), 0, optimal_aloha([0.8]))
    assert heavy.default_action is Action.WAIT and heavy.z_value < 0
    light = ModelAwarePolicy((), Delay(0), 0, optimal_aloha([0.2]))
    assert light.default_action is Action.TRANSMIT and light.z_value > 0


def test_build_policy_strict_mode_rejects_mixed_delays():
    scn = _scenario(NodeSpec(0, Delay(1), ModelAwareRole()),
                    NodeSpec(1, Delay(2), ModelAwareRole()))
    with pytest.raises(ValidationError):
        build_model_aware_policy(scn)


def test_threshold_consistency():
    for q in np.linspace(0, 1, 41):
        scn = _scenario(NodeSpec(0, Delay(0), ModelAwareRole()),
                        NodeSpec(1, Delay(0), AlohaRole(float(q))))
        default = build_model_aware_policy(scn).default_action
        assert (default is Action.WAIT) == (q > 0.5)


def test_gateway_select_round_robin():
    roster = GatewayRoster((3, 5))
    node, roster = gateway_select(roster, Action.TRANSMIT)
    assert node == 3 and roster.cursor == 1
    node, roster = gateway_select(roster, Action.TRANSMIT)
    assert node == 5 and roster.cursor == 0


def test_gateway_select_wait_keeps_cursor():
    roster = GatewayRoster((3, 5), cursor=1)
    node, after = gateway_select(roster, Action.WAIT)
    assert node is None and after == roster


def test_gateway_empty_roster_rejected():
    with pytest.raises(ContractViolation):
        GatewayRoster(())


def test_round_robin_fairness_any_window():
    rng = np.random.default_rng(17)
    members = (0, 1, 2)
    roster = GatewayRoster(members)
    picks = []
    for _ in range(500):
        decision = Action.TRANSMIT if rng.random() < 0.6 else Action.WAIT
        node, roster = gateway_select(roster, decision)
        if node is not None:
            picks.append(node)
    for start in range(0, len(picks) - 30, 13):
        for width in (7, 12, 30):
            window = picks[start:start + width]
            counts = [window.count(m) for m in members]
            assert max(counts) - min(counts) <= 1
