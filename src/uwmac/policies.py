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


def tdma_slot_mask(schedule: TdmaSchedule, shift: int, count: int) -> np.ndarray:
    """Boolean mask over `count` slots: mask[s] is True when the frame offset
    (s + shift) mod frame_length is assigned."""
    frame = schedule.frame_length
    lut = np.zeros(frame, dtype=bool)
    lut[list(schedule.assigned)] = True
    # tile a rolled frame: np.resize would concatenate one copy per frame
    return np.tile(np.roll(lut, -(shift % frame)), -(-count // frame))[:count]


def compute_forbidden_send_slots(tdma_nodes: Sequence[tuple[TdmaSchedule, Delay]],
                                 ma_delay: Delay, first_send: int,
                                 last_send: int) -> np.ndarray:
    """Boolean mask over send slots first_send..last_send (entry i is slot
    first_send + i): True where an arrival would land on a TDMA arrival.

    A model-aware send in slot s arrives at s + ma_delay; it is forbidden when
    some TDMA node scheduled to send in slot t (t >= 0) arrives at the same AP
    slot t + tdma_delay. Negative candidate slots are never forbidden.
    """
    if last_send < first_send:
        raise ContractViolation(f"last_send {last_send} < first_send {first_send}")
    count = last_send - first_send + 1
    forbidden = np.zeros(count, dtype=bool)
    for schedule, delay in tdma_nodes:
        shift = ma_delay.slots - delay.slots
        hit = tdma_slot_mask(schedule, first_send + shift, count)
        # s < 0 is no send slot, and s < -shift maps to a TDMA slot t < 0
        hit[:max(0, -first_send, -shift - first_send)] = False
        forbidden |= hit
    return forbidden


@dataclass(frozen=True, eq=False)
class ModelAwarePolicy:
    """Precomputed open-loop policy: wait in forbidden slots, otherwise play
    the static default decided by the sign of z.

    `forbidden` is a read-only boolean mask indexed by send slot 0, 1, ...;
    slots beyond it play the default.
    """

    forbidden: np.ndarray
    default_action: Action
    z_value: float

    def __post_init__(self):
        expected = Action.TRANSMIT if self.z_value >= 0 else Action.WAIT
        if self.default_action is not expected:
            raise ValidationError(f"default action {self.default_action.value} "
                                  f"inconsistent with z = {self.z_value}")
        self.forbidden.flags.writeable = False

    @property
    def forbidden_send_slots(self) -> np.ndarray:
        """Sorted indices of the forbidden send slots."""
        return np.flatnonzero(self.forbidden)

    def decide(self, t: int) -> Action:
        if 0 <= t < len(self.forbidden) and self.forbidden[t]:
            return Action.WAIT
        return self.default_action


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
    return ModelAwarePolicy(forbidden, default, z)
