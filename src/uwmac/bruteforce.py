"""Exact expectations, and exhaustive certificates over short horizons.

Because per-node delays are constant, each model-aware send slot feeds
exactly one AP slot, so the expected throughput of any binary action sequence
decomposes into per-slot success probabilities and can be computed exactly in
O(H), at any horizon. Enumerating all 2^H sequences, which only short
horizons allow, then certifies that the precomputed policy and the
closed-form optimum really are optimal.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Action, ContractViolation, Scenario, ValidationError, validate_scenario
from .oracle import optimal_mixed
from .policies import build_model_aware_policy

ENUMERATION_HORIZON_LIMIT = 16
CERTIFICATE_TOLERANCE = 1e-12


class HorizonLimitError(ValueError):
    """Requested horizon is too long to enumerate all 2^H sequences."""


@dataclass(frozen=True)
class ActionSequence:
    """Model-aware actions, one per measured send slot."""

    bits: tuple[Action, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(self.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def to_string(self) -> str:
        return "".join("T" if b is Action.TRANSMIT else "W" for b in self.bits)

    @classmethod
    def from_string(cls, text: str) -> "ActionSequence":
        bad = sorted(set(text) - {"T", "W"})
        if bad:
            raise ValidationError(f"action string may only contain T and W, got {bad}")
        return cls(tuple(Action.TRANSMIT if c == "T" else Action.WAIT for c in text))


def _aloha_success_probs(q: Sequence[float]) -> tuple[float, float]:
    """(P(no ALOHA transmits), P(exactly one transmits)), adding one node at a
    time: O(N) instead of walking all 2^N subsets.

    Deliberately independent of the closed forms in the oracle module.
    """
    p_none, p_one = 1.0, 0.0
    for qi in q:
        p_none, p_one = p_none * (1.0 - qi), p_one * (1.0 - qi) + p_none * qi
    return p_none, p_one


def _tdma_arrival_counts(scenario: Scenario) -> list[int]:
    """Deterministic TDMA arrivals per measured AP slot."""
    start, horizon = scenario.warmup_slots, scenario.horizon
    counts = [0] * horizon
    for node in scenario.tdma_nodes:
        schedule = node.role.schedule
        d = node.delay.slots
        for i in range(horizon):
            t = start + i - d
            if t >= 0 and t % schedule.frame_length in schedule.assigned:
                counts[i] += 1
    return counts


def _per_slot_probs(scenario: Scenario) -> tuple[list[float], list[float]]:
    """Success probability of each measured slot for wait (p0) and transmit
    (p1), once the scenario is valid and has a model-aware decision stream."""
    errors = validate_scenario(scenario)
    if errors:
        raise ValidationError(errors)
    if not scenario.model_aware_nodes:
        raise ContractViolation("scenario has no model-aware node to enumerate")
    counts = _tdma_arrival_counts(scenario)
    p_none, p_one = _aloha_success_probs(scenario.aloha_probs)
    p0, p1 = [], []
    for c in counts:
        p1.append(p_none if c == 0 else 0.0)
        p0.append(p_one if c == 0 else (p_none if c == 1 else 0.0))
    return p0, p1


def exact_expected_throughput(seq: ActionSequence, scenario: Scenario) -> float:
    """Exact expectation of successes / measured slots under `seq`; no sampling.

    Slot i of the sequence is the model-aware send slot feeding measured AP
    slot warmup + i. Works for a single model-aware node or a strict-mode
    gateway group (one decision stream either way).
    """
    p0, p1 = _per_slot_probs(scenario)
    if len(seq) != scenario.horizon:
        raise ContractViolation(f"sequence length {len(seq)} must equal the "
                                f"horizon {scenario.horizon}")
    total = 0.0
    for i, bit in enumerate(seq.bits):
        total += p1[i] if bit is Action.TRANSMIT else p0[i]
    return total / scenario.horizon


def enumerate_optimal(scenario: Scenario) -> tuple[ActionSequence, float]:
    """Evaluate all 2^H action sequences; return a maximizer and its value.

    Ties break toward the lexicographically largest sequence (TRANSMIT before
    WAIT), matching the policy module's z = 0 rule.
    """
    h = scenario.horizon
    if h > ENUMERATION_HORIZON_LIMIT:
        raise HorizonLimitError(f"horizon {h} exceeds the enumeration limit "
                                f"{ENUMERATION_HORIZON_LIMIT}")
    p0, p1 = _per_slot_probs(scenario)
    codes = np.arange(1 << h, dtype=np.uint32)
    values = np.zeros(codes.shape, dtype=np.float64)
    for i in range(h):
        transmit = (codes >> (h - 1 - i)) & 1
        values += np.where(transmit == 1, p1[i], p0[i])
    values /= h
    best_value = values.max()
    best_code = int(codes[values == best_value].max())
    bits = tuple(Action.TRANSMIT if (best_code >> (h - 1 - i)) & 1 else Action.WAIT
                 for i in range(h))
    return ActionSequence(bits), float(best_value)


def policy_sequence(scenario: Scenario) -> ActionSequence:
    """Action sequence the precomputed model-aware policy plays over the
    measured window."""
    policy = build_model_aware_policy(scenario)
    first_send = scenario.warmup_slots - policy.delay.slots
    transmit = policy.transmit_mask(first_send, scenario.horizon)
    return ActionSequence(tuple(Action.TRANSMIT if t else Action.WAIT for t in transmit))


@dataclass(frozen=True)
class Certificate:
    """Three-way agreement: enumerated optimum, policy value, closed form."""

    horizon: int
    best_sequence: ActionSequence
    best_value: float
    policy_value: float
    oracle_value: float
    tdma_window_fraction: float
    tdma_window_blocked: float
    tolerance: float

    @property
    def max_deviation(self) -> float:
        return max(abs(self.best_value - self.policy_value),
                   abs(self.best_value - self.oracle_value))

    @property
    def matches(self) -> bool:
        return self.max_deviation <= self.tolerance


def certify_policy(scenario: Scenario) -> Certificate:
    """Certify that the policy attains the enumerated optimum and that both
    equal the closed-form optimum at the window's fractions of AP slots with
    one and with several TDMA arrivals."""
    h = scenario.horizon
    best_seq, best_value = enumerate_optimal(scenario)
    policy_value = exact_expected_throughput(policy_sequence(scenario), scenario)
    counts = _tdma_arrival_counts(scenario)
    fraction = sum(1 for c in counts if c == 1) / h
    blocked = sum(1 for c in counts if c >= 2) / h
    oracle_value = optimal_mixed(fraction, scenario.aloha_probs, blocked).optimal_throughput
    return Certificate(h, best_seq, best_value, policy_value, oracle_value,
                       fraction, blocked, CERTIFICATE_TOLERANCE)
