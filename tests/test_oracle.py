import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwmac.oracle import (Branch, OracleResult, ValidationError,
                          expected_mixed_throughput, expected_slot_throughput,
                          optimal_aloha, optimal_mixed, optimal_tdma_only,
                          prob_all_silent, success_prob_exactly_one)


def enum_exactly_one(q):
    """Independent check: walk all 2^N ALOHA outcomes."""
    total = 0.0
    for outcome in itertools.product((0, 1), repeat=len(q)):
        if sum(outcome) == 1:
            total += math.prod(qi if bit else 1.0 - qi
                               for qi, bit in zip(q, outcome))
    return total


def enum_expected_f(b, q):
    """Independent check of f(b): joint enumeration over the model-aware coin
    and all ALOHA outcomes, counting exactly-one-arrival events."""
    total = 0.0
    for ma_bit in (0, 1):
        ma_prob = b if ma_bit else 1.0 - b
        for outcome in itertools.product((0, 1), repeat=len(q)):
            prob = ma_prob * math.prod(qi if bit else 1.0 - qi
                                       for qi, bit in zip(q, outcome))
            if ma_bit + sum(outcome) == 1:
                total += prob
    return total


def test_exactly_one_frozen_values():
    assert success_prob_exactly_one([0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)
    assert success_prob_exactly_one([1.0]) == 1.0
    assert success_prob_exactly_one([0.2, 0.3, 0.1]) == pytest.approx(0.398, abs=1e-15)
    assert success_prob_exactly_one([]) == 0.0


def test_exactly_one_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = list(rng.random(int(rng.integers(1, 11))))
        assert success_prob_exactly_one(q) == pytest.approx(enum_exactly_one(q),
                                                            abs=1e-12)


def test_prob_all_silent():
    assert prob_all_silent([]) == 1.0
    assert isinstance(prob_all_silent([]), float)
    assert prob_all_silent([0.2, 0.3, 0.1]) == pytest.approx(0.504, abs=1e-15)


def test_probability_inputs_validated():
    with pytest.raises(ValidationError):
        success_prob_exactly_one([0.5, 1.2])
    with pytest.raises(ValidationError):
        expected_slot_throughput(1.5, [0.5])


def test_expected_slot_throughput_examples():
    assert expected_slot_throughput(1.0, [0.3]) == pytest.approx(0.7, abs=1e-15)
    assert expected_slot_throughput(0.0, [0.3]) == pytest.approx(0.3, abs=1e-15)
    assert expected_slot_throughput(0.5, [0.5, 0.5]) == pytest.approx(0.375, abs=1e-15)


def test_expected_slot_throughput_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(50):
        b = float(rng.random())
        q = list(rng.random(int(rng.integers(0, 5))))
        assert expected_slot_throughput(b, q) == pytest.approx(enum_expected_f(b, q),
                                                               abs=1e-12)


def test_optimal_tdma_only_is_one():
    result = optimal_tdma_only()
    assert result.optimal_throughput == 1.0
    assert result.chosen_branch is Branch.TRANSMIT


def test_optimal_aloha_cases():
    high = optimal_aloha([0.7])
    assert high.optimal_throughput == pytest.approx(0.7, abs=1e-15)
    assert high.chosen_branch is Branch.SILENT

    boundary = optimal_aloha([0.5])
    assert boundary.optimal_throughput == 0.5
    assert boundary.chosen_branch is Branch.TRANSMIT   # z = 0 ties to transmit
    assert boundary.z_value == 0.0

    pair = optimal_aloha([0.5, 0.5])
    assert pair.optimal_throughput == pytest.approx(0.5, abs=1e-15)
    assert pair.chosen_branch is Branch.SILENT
    assert pair.z_value == pytest.approx(-0.25, abs=1e-15)

    light = optimal_aloha([0.3])
    assert light.z_value == pytest.approx(0.4, abs=1e-15)
    assert light.chosen_branch is Branch.TRANSMIT

    empty = optimal_aloha([])
    assert empty.z_value == 1.0
    assert empty.optimal_throughput == 1.0


def test_optimal_aloha_single_node_threshold():
    for q in np.linspace(0.0, 1.0, 21):
        result = optimal_aloha([float(q)])
        expected = q if q > 0.5 else 1.0 - q
        assert result.optimal_throughput == pytest.approx(expected, abs=1e-12)
        assert result.z_value == pytest.approx(1.0 - 2.0 * q, abs=1e-12)


def test_expected_mixed_examples():
    assert expected_mixed_throughput(0.4, 1.0, [0.3]) == pytest.approx(0.7, abs=1e-15)
    assert expected_mixed_throughput(1.0, 0.0, [0.3]) == pytest.approx(0.7, abs=1e-15)
    assert expected_mixed_throughput(0.0, 0.2, [0.6]) == pytest.approx(0.56, abs=1e-15)


def test_optimal_mixed_cases():
    silent = optimal_mixed(0.2, [0.6])
    assert silent.optimal_throughput == pytest.approx(0.56, abs=1e-15)
    assert silent.chosen_branch is Branch.SILENT

    transmit = optimal_mixed(0.25, [0.2])
    assert transmit.optimal_throughput == pytest.approx(0.8, abs=1e-15)
    assert transmit.chosen_branch is Branch.TRANSMIT
    assert transmit.z_value == pytest.approx(0.75 * 0.6, abs=1e-15)

    degenerate = optimal_mixed(0.0, [0.7])
    assert degenerate == optimal_aloha([0.7])


def test_optimal_mixed_reduces_to_tdma_only():
    for p in (0.0, 0.3, 1.0):
        result = optimal_mixed(p, [])
        assert result.optimal_throughput == 1.0
        assert result.chosen_branch is Branch.TRANSMIT


def test_optimal_mixed_p_one_routes_to_transmit_branch():
    # F is constant in b at p = 1; the tie goes to the transmit branch
    result = optimal_mixed(1.0, [0.9])
    assert result.chosen_branch is Branch.TRANSMIT
    assert result.z_value == 0.0
    assert result.optimal_throughput == pytest.approx(0.1, abs=1e-15)


def test_optimal_mixed_with_blocked_slots():
    # nobody succeeds in a blocked slot; the free rest plays the sign of z
    assert optimal_mixed(0.0, [], 0.5).optimal_throughput == 0.5
    silent = optimal_mixed(0.25, [0.6], 0.25)
    assert silent.chosen_branch is Branch.SILENT
    assert silent.optimal_throughput == pytest.approx(0.25 * 0.4 + 0.5 * 0.6, abs=1e-15)
    transmit = optimal_mixed(0.25, [0.2], 0.25)
    assert transmit.chosen_branch is Branch.TRANSMIT
    assert transmit.optimal_throughput == pytest.approx(0.75 * 0.8, abs=1e-15)
    full = optimal_mixed(0.5, [0.9], 0.5)   # no free slot: z = 0 ties to transmit
    assert full.z_value == 0.0 and full.chosen_branch is Branch.TRANSMIT
    for p, blocked in ((-0.1, 0.0), (0.0, -0.1), (0.0, 1.5), (0.6, 0.6)):
        with pytest.raises(ValidationError):
            optimal_mixed(p, [0.3], blocked)


def test_optimal_mixed_without_blocked_slots_keeps_the_frame_formula():
    # blocked = 0 must reproduce the formula without a blocked share bit for bit
    rng = np.random.default_rng(43)
    for _ in range(2000):
        q = list(rng.random(int(rng.integers(0, 6))))
        p = float(rng.random()) if rng.random() < 0.9 else float(rng.integers(0, 2))
        silent, one = prob_all_silent(q), success_prob_exactly_one(q)
        z = (1.0 - p) * (silent - one) + 0.0
        value = p * silent + (1.0 - p) * one if z < 0 else silent
        result = optimal_mixed(p, q)
        assert (result.optimal_throughput, result.z_value) == (value, z)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(q=st.lists(st.floats(0.0, 1.0), max_size=6), horizon=st.integers(1, 12),
       data=st.data())
def test_expected_mixed_endpoints_give_the_optimum_with_blocked_slots(q, horizon, data):
    # a window of `horizon` AP slots with `single` lone and `blocked` overlapping arrivals
    single = data.draw(st.integers(0, horizon))
    blocked = data.draw(st.integers(0, horizon - single))
    p, blocked = single / horizon, blocked / horizon
    best = max(expected_mixed_throughput(0.0, p, q, blocked),
               expected_mixed_throughput(1.0, p, q, blocked))
    assert abs(best - optimal_mixed(p, q, blocked).optimal_throughput) <= 1e-15
    # with no blocked share the frame formula holds bit for bit
    assert expected_mixed_throughput(0.3, p, q) == (
        p * prob_all_silent(q) + (1.0 - p) * expected_slot_throughput(0.3, q))


def test_expected_mixed_rejects_shares_outside_the_unit_interval():
    for p, blocked in ((-0.1, 0.0), (0.0, -0.1), (0.0, 1.5), (0.6, 0.6)):
        with pytest.raises(ValidationError):
            expected_mixed_throughput(0.5, p, [0.3], blocked)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(q=st.lists(st.floats(0.0, 1.0), max_size=6), horizon=st.integers(1, 12),
       data=st.data())
def test_optimal_mixed_ignores_the_order_of_q(q, horizon, data):
    single = data.draw(st.integers(0, horizon))
    blocked = data.draw(st.integers(0, horizon - single))
    permuted = data.draw(st.permutations(q))
    a = optimal_mixed(single / horizon, q, blocked / horizon)
    b = optimal_mixed(single / horizon, permuted, blocked / horizon)
    assert abs(a.optimal_throughput - b.optimal_throughput) <= 1e-12
    assert a.chosen_branch is b.chosen_branch


def test_endpoint_optimality_random():
    rng = np.random.default_rng(37)
    for _ in range(300):
        q = list(rng.random(int(rng.integers(0, 5))))
        p = float(rng.random())
        f0 = expected_slot_throughput(0.0, q)
        f1 = expected_slot_throughput(1.0, q)
        assert optimal_aloha(q).optimal_throughput == max(f0, f1)
        m0 = expected_mixed_throughput(0.0, p, q)
        m1 = expected_mixed_throughput(1.0, p, q)
        assert optimal_mixed(p, q).optimal_throughput == pytest.approx(max(m0, m1),
                                                                       abs=1e-12)
        for b in rng.random(5):
            assert expected_slot_throughput(float(b), q) <= max(f0, f1) + 1e-12
            assert expected_mixed_throughput(float(b), p, q) <= max(m0, m1) + 1e-12


def test_throughputs_stay_in_unit_interval():
    rng = np.random.default_rng(41)
    for _ in range(200):
        q = list(rng.random(int(rng.integers(0, 6))))
        p = float(rng.random())
        assert 0.0 <= optimal_aloha(q).optimal_throughput <= 1.0
        assert 0.0 <= optimal_mixed(p, q).optimal_throughput <= 1.0
        assert 0.0 <= expected_mixed_throughput(float(rng.random()), p, q) <= 1.0


def test_oracle_result_invariants():
    with pytest.raises(ValidationError):
        OracleResult(1.5, 1.0)
    with pytest.raises(ValidationError):
        OracleResult(-0.1, 1.0)


def test_oracle_result_branch_follows_z_sign():
    assert OracleResult(0.5, -0.1).chosen_branch is Branch.SILENT
    assert OracleResult(0.5, 0.1).chosen_branch is Branch.TRANSMIT
    assert OracleResult(0.5, 0.0).chosen_branch is Branch.TRANSMIT   # z = 0 ties to transmit
