import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwmac import bruteforce
from uwmac.bruteforce import (ActionSequence, HorizonLimitError, certify_policy,
                              enumerate_optimal, exact_expected_throughput,
                              policy_sequence)
from uwmac.core import (Action, AlohaRole, ContractViolation, Delay,
                        ModelAwareRole, NodeSpec, Scenario, TdmaRole,
                        TdmaSchedule, ValidationError)
from uwmac.engine import run
from uwmac.oracle import optimal_mixed

T, W = Action.TRANSMIT, Action.WAIT


def _scenario(*nodes, horizon, seed=5):
    return Scenario(nodes=tuple(nodes), horizon=horizon, seed=seed)


def _ma(node_id, delay):
    return NodeSpec(node_id, Delay(delay), ModelAwareRole())


def _tdma(node_id, delay, frame, assigned):
    return NodeSpec(node_id, Delay(delay), TdmaRole(TdmaSchedule(frame, frozenset(assigned))))


def _aloha(node_id, delay, q):
    return NodeSpec(node_id, Delay(delay), AlohaRole(q))


def joint_expected_throughput(seq, scenario):
    """Fully joint enumeration over every (slot, ALOHA node) coin at once.

    Exponential in N * H; only usable for tiny scenarios, which is the point:
    it shares nothing with the per-slot decomposition it checks.
    """
    q = scenario.aloha_probs
    horizon = scenario.horizon
    start = scenario.warmup_slots
    tdma = [(n.role.schedule, n.delay.slots) for n in scenario.tdma_nodes]
    ma_delay = scenario.model_aware_nodes[0].delay.slots

    total = 0.0
    coins = len(q) * horizon
    for joint in itertools.product((0, 1), repeat=coins):
        prob = 1.0
        for k, bit in enumerate(joint):
            qi = q[k % len(q)]
            prob *= qi if bit else 1.0 - qi
        successes = 0
        for i in range(horizon):
            ap_slot = start + i
            arrivals = 0
            for schedule, d in tdma:
                send = ap_slot - d
                if send >= 0 and send % schedule.frame_length in schedule.assigned:
                    arrivals += 1
            if seq.bits[i] is T and ap_slot - ma_delay >= 0:
                arrivals += 1
            for j in range(len(q)):
                if joint[i * len(q) + j]:
                    arrivals += 1
            if arrivals == 1:
                successes += 1
        total += prob * successes
    return total / horizon


def reference_optimum(wait, transmit):
    """The per-bit enumeration: one pass over all 2^H codes per slot, slot 0
    the most significant bit, ties to the largest code."""
    h = len(wait)
    codes = np.arange(1 << h, dtype=np.uint32)
    values = np.zeros(codes.shape, dtype=np.float64)
    for i in range(h):
        sends = (codes >> (h - 1 - i)) & 1
        values += np.where(sends == 1, transmit[i], wait[i])
    values /= h
    best_value = values.max()
    best_code = int(codes[values == best_value].max())
    bits = tuple(T if (best_code >> (h - 1 - i)) & 1 else W for i in range(h))
    return ActionSequence(bits), float(best_value)


def window_probs(scenario):
    """Each measured slot's success probability for wait and for transmit."""
    window = bruteforce._window(scenario)
    return ([window.wait[c] for c in window.classes],
            [window.transmit[c] for c in window.classes])


def test_all_wait_against_single_aloha():
    scn = _scenario(_ma(0, 1), _aloha(1, 0, 0.3), horizon=8)
    seq = ActionSequence((W,) * 8)
    assert exact_expected_throughput(seq, scn) == pytest.approx(0.3, abs=1e-15)


def test_all_transmit_hits_tdma_arrivals():
    scn = _scenario(_ma(0, 1), _tdma(1, 4, 5, {0}), horizon=10)
    value = exact_expected_throughput(ActionSequence((T,) * 10), scn)
    assert value < 1.0
    assert value == pytest.approx(0.8, abs=1e-15)   # 2 of 10 slots collide


def test_policy_sequence_against_tdma_is_perfect():
    scn = _scenario(_ma(0, 1), _tdma(1, 4, 5, {0}), horizon=10)
    assert exact_expected_throughput(policy_sequence(scn), scn) == 1.0


@pytest.mark.parametrize("scn", [
    # in the wait branch, a negative horizon reached numpy as a negative size
    _scenario(_ma(0, 1), _aloha(1, 0, 0.9), horizon=-1),
    _scenario(_ma(0, 1), _aloha(2, 0, 0.3), horizon=4),
    Scenario((_ma(0, 3),), horizon=4, warmup=1),
], ids=["negative-horizon", "sparse-ids", "warmup-below-delay"])
def test_policy_sequence_rejects_what_enumeration_rejects(scn):
    with pytest.raises(ValidationError) as enumerated:
        enumerate_optimal(scn)
    with pytest.raises(ValidationError) as played:
        policy_sequence(scn)
    assert played.value.errors == enumerated.value.errors


def test_sequence_length_must_match_horizon():
    scn = _scenario(_ma(0, 0), horizon=5)
    with pytest.raises(ContractViolation):
        exact_expected_throughput(ActionSequence((T,) * 4), scn)


def test_exact_evaluation_has_no_horizon_cap():
    # one O(H) pass: the policy's exact value over 10,000 slots is the closed form
    # at the window's TDMA fraction, 2 of every 5 slots (the window holds whole frames)
    scn = _scenario(_ma(0, 1), _tdma(1, 3, 5, {0, 2}), _aloha(2, 0, 0.3),
                    _aloha(3, 2, 0.4), horizon=10_000)
    value = exact_expected_throughput(policy_sequence(scn), scn)
    assert abs(value - optimal_mixed(0.4, scn.aloha_probs).optimal_throughput) <= 1e-12


def test_exact_requires_model_aware_node():
    scn = _scenario(_aloha(0, 0, 0.5), horizon=4)
    with pytest.raises(ContractViolation):
        exact_expected_throughput(ActionSequence((W,) * 4), scn)


def test_action_sequence_string_round_trip():
    seq = ActionSequence.from_string("TWWT")
    assert seq.bits == (T, W, W, T)
    assert seq.to_string() == "TWWT"
    with pytest.raises(Exception):
        ActionSequence.from_string("TXW")


def test_enumerate_single_slot_aloha():
    scn = _scenario(_ma(0, 1), _aloha(1, 0, 0.3), horizon=1)
    best, value = enumerate_optimal(scn)
    assert best.bits == (T,)
    assert value == pytest.approx(0.7, abs=1e-15)


def test_enumerate_two_slots_heavy_aloha():
    scn = _scenario(_ma(0, 1), _aloha(1, 0, 0.8), horizon=2)
    best, value = enumerate_optimal(scn)
    assert best.bits == (W, W)
    assert value == pytest.approx(0.8, abs=1e-15)


def test_enumerate_tdma_alternation():
    scn = _scenario(_ma(0, 0), _tdma(1, 0, 2, {0}), horizon=4)
    best, value = enumerate_optimal(scn)
    assert best.bits == (W, T, W, T)
    assert value == 1.0


def test_enumerate_refuses_long_horizon():
    scn = _scenario(_ma(0, 0), horizon=17)
    with pytest.raises(HorizonLimitError):
        enumerate_optimal(scn)
    best, _ = enumerate_optimal(replace(scn, horizon=4))
    assert len(best) == 4


def test_enumerate_tie_breaks_toward_transmit():
    # q = 0.5 makes every sequence worth exactly 0.5
    scn = _scenario(_ma(0, 1), _aloha(1, 0, 0.5), horizon=5)
    best, value = enumerate_optimal(scn)
    assert best.bits == (T,) * 5
    assert value == 0.5


def test_exact_matches_joint_enumeration():
    cases = [
        _scenario(_ma(0, 1), _aloha(1, 0, 0.3), _aloha(2, 2, 0.6), horizon=5),
        _scenario(_ma(0, 0), _tdma(1, 1, 3, {0}), _aloha(2, 0, 0.4), horizon=4),
        _scenario(_ma(0, 2), _aloha(1, 1, 0.2), _aloha(2, 0, 0.5),
                  _aloha(3, 3, 0.7), horizon=4),
    ]
    sequences = ["TWTWT", "WTTW", "TTWW"]
    for scn, text in zip(cases, sequences):
        seq = ActionSequence.from_string(text)
        assert exact_expected_throughput(seq, scn) == pytest.approx(
            joint_expected_throughput(seq, scn), abs=1e-12)


def test_flipping_transmit_never_helps_when_z_nonnegative():
    scn = _scenario(_ma(0, 1), _aloha(1, 0, 0.3), horizon=8)
    base = ActionSequence((T,) * 8)
    base_value = exact_expected_throughput(base, scn)
    for i in range(8):
        bits = list(base.bits)
        bits[i] = W
        flipped = exact_expected_throughput(ActionSequence(tuple(bits)), scn)
        assert flipped <= base_value + 1e-15


def test_certificate_three_way_match():
    scn = _scenario(_ma(0, 1), _tdma(1, 4, 5, {0}), _aloha(2, 0, 0.3), horizon=10)
    cert = certify_policy(scn)
    assert cert.matches
    assert cert.best_value == cert.policy_value
    assert cert.max_deviation <= 1e-12
    assert cert.tdma_window_fraction == pytest.approx(0.2, abs=1e-15)


def test_a_certificate_works_its_window_out_once():
    # the enumeration builds the window; the policy's value and the classes
    # read it back from the cache
    scn = _scenario(_ma(0, 1), _tdma(1, 4, 5, {0}), _aloha(2, 0, 0.3), horizon=10)
    bruteforce._window.cache_clear()
    cert = certify_policy(scn)
    info = bruteforce._window.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert cert.matches
    assert (cert.best_value, cert.policy_value) == (enumerate_optimal(scn)[1],
                                                    exact_expected_throughput(
                                                        policy_sequence(scn), scn))


def test_certificate_covers_overlapping_tdma():
    # both TDMA arrivals land on every even AP slot, so half the window is blocked
    scn = _scenario(_ma(0, 0), _tdma(1, 0, 2, {0}), _tdma(2, 0, 2, {0}), horizon=6)
    cert = certify_policy(scn)
    assert cert.matches and cert.max_deviation == 0.0
    assert cert.best_value == cert.policy_value == cert.oracle_value == 0.5
    assert (cert.tdma_window_fraction, cert.tdma_window_blocked) == (0.0, 0.5)
    assert optimal_mixed(cert.tdma_window_fraction, scn.aloha_probs,
                         cert.tdma_window_blocked).optimal_throughput == cert.oracle_value


def test_gateway_group_counts_as_one_decision_stream():
    scn = _scenario(_ma(0, 1), _ma(1, 1), _tdma(2, 0, 2, {0}), horizon=6)
    cert = certify_policy(scn)
    assert cert.matches
    assert cert.best_value == 1.0


def test_aloha_probabilities_match_joint_enumeration_up_to_ten_nodes():
    # one slot, so the joint walk is over the 2^N ALOHA subsets alone
    for n in range(11):
        q = [round(0.05 + 0.09 * ((3 * i + n) % 10), 2) for i in range(n)]
        scn = _scenario(_ma(0, 1), *(_aloha(i + 1, i % 3, qi) for i, qi in enumerate(q)),
                        horizon=1)
        for text in ("T", "W"):
            seq = ActionSequence.from_string(text)
            assert exact_expected_throughput(seq, scn) == pytest.approx(
                joint_expected_throughput(seq, scn), abs=1e-12)


def test_certificate_with_forty_aloha_nodes():
    q = [0.01 + 0.002 * i for i in range(40)]
    scn = _scenario(_ma(0, 1), _tdma(1, 2, 4, {0}),
                    *(_aloha(i + 2, i % 4, qi) for i, qi in enumerate(q)), horizon=8)
    cert = certify_policy(scn)
    assert cert.matches
    assert cert.best_value == pytest.approx(
        optimal_mixed(0.25, q).optimal_throughput, abs=1e-12)


@st.composite
def small_scenarios(draw):
    """H <= 12: one model-aware node or a gateway of up to three members, up to
    three TDMA nodes whose arrivals may overlap, and up to three ALOHA nodes."""
    ma_delay = draw(st.integers(0, 5))
    roles = [(ModelAwareRole(), ma_delay)] * draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 3))):
        frame = draw(st.integers(1, 6))
        assigned = draw(st.frozensets(st.integers(0, frame - 1)))
        roles.append((TdmaRole(TdmaSchedule(frame, assigned)), draw(st.integers(0, 5))))
    for _ in range(draw(st.integers(0, 3))):
        q = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0))
        roles.append((AlohaRole(q), draw(st.integers(0, 5))))
    ids = draw(st.permutations(range(len(roles))))
    nodes = tuple(NodeSpec(i, Delay(d), role) for i, (role, d) in zip(ids, roles))
    max_delay = max(d for _, d in roles)
    warmup = draw(st.none() | st.integers(max_delay, max_delay + 6))
    return Scenario(nodes, draw(st.integers(1, 12)), warmup, draw(st.integers(0, 2**32)))


def test_three_routes_agree_on_generated_scenarios():
    seen = []

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(small_scenarios())
    def check(scn):
        cert = certify_policy(scn)
        assert abs(cert.best_value - cert.policy_value) <= 1e-12
        assert abs(cert.best_value - cert.oracle_value) <= 1e-12
        assert run(scn).oracle.optimal_throughput == cert.oracle_value
        seen.append((cert.tdma_window_blocked > 0, len(scn.model_aware_nodes) > 1))

    check()
    # the generated set really holds overlapping windows and gateways
    assert sum(overlap for overlap, _ in seen) >= 20
    assert sum(gateway for _, gateway in seen) >= 20


# exact ties (equal probabilities, repeated slots) and zeros are the cases
# where the tie-break decides the sequence
slot_probs = st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 12).flatmap(lambda h: st.tuples(
    st.lists(slot_probs, min_size=h, max_size=h), st.lists(slot_probs, min_size=h, max_size=h))))
def test_doubling_table_equals_the_per_bit_enumeration(probs):
    wait, transmit = probs
    best, value = bruteforce._optimum(wait, transmit)
    expected_best, expected_value = reference_optimum(wait, transmit)
    assert best == expected_best
    assert value == expected_value


def test_enumeration_equals_the_per_bit_reference_on_generated_scenarios():
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(small_scenarios())
    def check(scn):
        assert enumerate_optimal(scn) == reference_optimum(*window_probs(scn))

    check()


def test_enumeration_at_the_limit_stays_within_three_tables():
    scn = _scenario(_ma(0, 1), _tdma(1, 2, 5, {0, 2}), _aloha(2, 0, 0.3), horizon=16)
    assert enumerate_optimal(scn) == reference_optimum(*window_probs(scn))
    tracemalloc.start()
    try:
        enumerate_optimal(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2^16 float64 table is 512 KiB; the last doubling step holds 2.5 of
    # them, while the per-bit passes over a code array peaked at about 1.6 MB
    assert peak <= 3 * (8 << 16)
