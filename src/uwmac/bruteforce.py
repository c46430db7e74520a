"""Exact expectations, and exhaustive certificates over short horizons.

Because per-node delays are constant, each model-aware send slot feeds
exactly one AP slot, so the expected throughput of any binary action sequence
decomposes into per-slot success probabilities and can be computed exactly in
O(H), at any horizon. Enumerating all 2^H sequences, which only short
horizons allow, then certifies that the precomputed policy and the
closed-form optimum really are optimal. The enumeration builds the table of
all 2^H values by doubling, in O(2^H) time and memory: 512 KB of float64 at
ENUMERATION_HORIZON_LIMIT = 16.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


class _Window(NamedTuple):
    """The measured window as the model-aware stream sees it. classes[i] is
    min(TDMA arrivals, 2) at measured AP slot i; wait[c] and transmit[c] are a
    slot of class c's success probability when the stream waits or transmits."""

    classes: bytes
    wait: tuple[float, float, float]
    transmit: tuple[float, float, float]


@functools.lru_cache(maxsize=1)
def _window(scenario: Scenario) -> _Window:
    """The window of a valid scenario with a model-aware decision stream. The
    last one is kept, so evaluations of one scenario in a row build it once."""
    errors = validate_scenario(scenario)
    if errors:
        raise ValidationError(errors)
    if not scenario.model_aware_nodes:
        raise ContractViolation("scenario has no model-aware node to enumerate")
    p_none, p_one = _aloha_success_probs(scenario.aloha_probs)
    return _Window(bytes(min(c, 2) for c in _tdma_arrival_counts(scenario)),
                   wait=(p_one, p_none, 0.0), transmit=(p_none, 0.0, 0.0))


def exact_expected_throughput(seq: ActionSequence, scenario: Scenario) -> float:
    """Exact expectation of successes / measured slots under `seq`; no sampling.

    Slot i of the sequence is the model-aware send slot feeding measured AP
    slot warmup + i. Works for a single model-aware node or a strict-mode
    gateway group (one decision stream either way).
    """
    window = _window(scenario)
    horizon = len(window.classes)
    if len(seq) != horizon:
        raise ContractViolation(f"sequence length {len(seq)} must equal the "
                                f"horizon {horizon}")
    total = 0.0
    for bit, c in zip(seq.bits, window.classes):
        total += window.transmit[c] if bit is Action.TRANSMIT else window.wait[c]
    return total / horizon


def _optimum(wait: Sequence[float], transmit: Sequence[float]) -> tuple[ActionSequence, float]:
    """Best of all 2^H sequences over slots with these success probabilities.

    The table of all 2^H values is built by doubling: after slot i, entry
    2k + b is entry k of the table over slots 0 .. i-1 plus slot i's wait
    (b = 0) or transmit (b = 1) probability. Slot 0 is thus an index's most
    significant bit, each value is the same left-to-right sum as a loop over
    one sequence, and the table costs O(2^H) time and memory.
    """
    h = len(wait)
    values = np.zeros(1)
    for i in range(h):
        values = np.stack((values + wait[i], values + transmit[i]), axis=1).ravel()
    values /= h
    # the last maximizer is the lexicographically largest sequence
    best_code = values.size - 1 - int(np.argmax(values[::-1]))
    bits = tuple(Action.TRANSMIT if (best_code >> (h - 1 - i)) & 1 else Action.WAIT
                 for i in range(h))
    return ActionSequence(bits), float(values[best_code])


def enumerate_optimal(scenario: Scenario) -> tuple[ActionSequence, float]:
    """Evaluate all 2^H action sequences; return a maximizer and its value.

    Costs O(2^H) time and memory: 512 KB of float64 at the limit of 16.
    Ties break toward the lexicographically largest sequence (TRANSMIT before
    WAIT), matching the policy module's z = 0 rule.
    """
    h = scenario.horizon
    if h > ENUMERATION_HORIZON_LIMIT:
        raise HorizonLimitError(f"horizon {h} exceeds the enumeration limit "
                                f"{ENUMERATION_HORIZON_LIMIT}")
    window = _window(scenario)
    return _optimum([window.wait[c] for c in window.classes],
                    [window.transmit[c] for c in window.classes])


def policy_sequence(scenario: Scenario) -> ActionSequence:
    """Action sequence the precomputed model-aware policy plays over the
    measured window of a valid scenario."""
    errors = validate_scenario(scenario)
    if errors:
        raise ValidationError(errors)
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
    # the enumeration refuses a long horizon first, then builds the window
    # that the policy's value and the classes below read from `_window`'s cache
    best_seq, best_value = enumerate_optimal(scenario)
    policy_value = exact_expected_throughput(policy_sequence(scenario), scenario)
    classes = _window(scenario).classes
    fraction = classes.count(1) / h
    blocked = classes.count(2) / h
    oracle_value = optimal_mixed(fraction, scenario.aloha_probs, blocked).optimal_throughput
    return Certificate(h, best_seq, best_value, policy_value, oracle_value,
                       fraction, blocked, CERTIFICATE_TOLERANCE)
