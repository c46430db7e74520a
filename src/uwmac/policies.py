"""The precomputed optimal policy of the model-aware side: forbidden send
slots from the TDMA schedules, and a static default action from the sign of z."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (Action, ContractViolation, Delay, Scenario, TdmaSchedule,
                   ValidationError, gateway_strict_errors)
from .oracle import Branch, OracleResult, optimal_mixed


def tdma_slot_mask(schedule: TdmaSchedule, shift: int, count: int) -> np.ndarray:
    """Boolean mask over `count` slots: mask[s] is True when the frame offset
    (s + shift) mod frame_length is assigned."""
    frame = schedule.frame_length
    mask = np.zeros(count, dtype=bool)
    for offset in schedule.assigned:
        if (first := (offset - shift) % frame) < count:
            mask[first::frame] = True
    return mask


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
    the static default of the oracle's branch (the sign of z).

    `forbidden` is a read-only boolean mask indexed by send slot 0, 1, ...;
    slots beyond it play the default.
    """

    forbidden: np.ndarray
    oracle: OracleResult

    def __post_init__(self):
        self.forbidden.flags.writeable = False

    @property
    def z_value(self) -> float:
        return self.oracle.z_value

    @property
    def default_action(self) -> Action:
        return Action.TRANSMIT if self.oracle.chosen_branch is Branch.TRANSMIT else Action.WAIT

    @property
    def forbidden_send_slots(self) -> np.ndarray:
        """Sorted indices of the forbidden send slots."""
        return np.flatnonzero(self.forbidden)

    def decide(self, t: int) -> Action:
        if 0 <= t < len(self.forbidden) and self.forbidden[t]:
            return Action.WAIT
        return self.default_action


def build_model_aware_policy(scenario: Scenario) -> ModelAwarePolicy:
    """Assemble the optimal policy of the scenario's model-aware decision
    stream: its single model-aware node, or its strict-mode gateway group,
    whose members share one delay.

    The stream is assumed to know every delay and every other node's strategy:
    forbidden slots come from all TDMA schedules shifted into its own send
    clock, the default action from the sign of z over all ALOHA probabilities.
    """
    group = scenario.model_aware_nodes
    if not group:
        raise ContractViolation("scenario has no model-aware node")
    strict = gateway_strict_errors(scenario)
    if strict:
        raise ValidationError(strict)
    tdma = [(n.role.schedule, n.delay) for n in scenario.tdma_nodes]
    forbidden = compute_forbidden_send_slots(tdma, group[0].delay, 0,
                                             scenario.total_send_slots - 1)
    # forbidden slots already dodge every TDMA arrival, so the default faces ALOHA only
    return ModelAwarePolicy(forbidden, optimal_mixed(0.0, scenario.aloha_probs))
