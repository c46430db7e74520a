"""The precomputed optimal policy of the model-aware side: forbidden send
slots from the TDMA schedules, and a static default action from the sign of z."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (Action, ContractViolation, Delay, ModelAwareRole, NodeId,
                   Scenario, TdmaSchedule, ValidationError,
                   gateway_strict_errors)
from .oracle import optimal_mixed


def compute_forbidden_send_slots(tdma_nodes: Sequence[tuple[TdmaSchedule, Delay]],
                                 ma_delay: Delay, first_send: int,
                                 last_send: int) -> set[int]:
    """Send slots whose arrival would land on top of a TDMA arrival.

    A model-aware send in slot s arrives at s + ma_delay; it is forbidden when
    some TDMA node scheduled to send in slot t (t >= 0) arrives at the same AP
    slot t + tdma_delay. Negative candidate slots are excluded.
    """
    if last_send < first_send:
        raise ContractViolation(f"last_send {last_send} < first_send {first_send}")
    lo = max(first_send, 0)
    if lo > last_send or not tdma_nodes:
        return set()
    send = np.arange(lo, last_send + 1, dtype=np.int64)
    hit = np.zeros(send.shape, dtype=bool)
    for schedule, delay in tdma_nodes:
        if not schedule.assigned:
            continue
        t = send + (ma_delay.slots - delay.slots)
        offsets = np.fromiter(schedule.assigned, dtype=np.int64)
        hit |= (t >= 0) & np.isin(t % schedule.frame_length, offsets)
    return {int(s) for s in send[hit]}


@dataclass(frozen=True)
class ModelAwarePolicy:
    """Precomputed open-loop policy: wait in forbidden slots, otherwise play
    the static default decided by the sign of z."""

    forbidden_send_slots: frozenset[int]
    default_action: Action
    z_value: float

    def __post_init__(self):
        object.__setattr__(self, "forbidden_send_slots", frozenset(self.forbidden_send_slots))
        expected = Action.TRANSMIT if self.z_value >= 0 else Action.WAIT
        if self.default_action is not expected:
            raise ValidationError(f"default action {self.default_action.value} "
                                  f"inconsistent with z = {self.z_value}")

    def decide(self, t: int) -> Action:
        return Action.WAIT if t in self.forbidden_send_slots else self.default_action


def build_model_aware_policy(scenario: Scenario, ma_node: NodeId) -> ModelAwarePolicy:
    """Assemble the optimal policy for a model-aware node (or gateway group).

    The node is assumed to know every delay and every other node's strategy:
    forbidden slots come from all TDMA schedules shifted into its own send
    clock, the default action from the sign of z over all ALOHA probabilities.
    """
    by_id = {n.id: n for n in scenario.nodes}
    node = by_id.get(ma_node)
    if node is None or not isinstance(node.role, ModelAwareRole):
        raise ContractViolation(f"node {ma_node} is not model-aware")
    strict = gateway_strict_errors(scenario)
    if strict:
        raise ValidationError(strict)
    tdma = [(n.role.schedule, n.delay) for n in scenario.tdma_nodes]
    forbidden = compute_forbidden_send_slots(tdma, node.delay, 0,
                                             scenario.total_send_slots - 1)
    # forbidden slots already dodge every TDMA arrival, so the default faces ALOHA only
    z = optimal_mixed(0.0, scenario.aloha_probs).z_value
    default = Action.TRANSMIT if z >= 0 else Action.WAIT
    return ModelAwarePolicy(frozenset(forbidden), default, z)
