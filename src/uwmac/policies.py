"""The optimal policy of the model-aware side: forbidden send slots from the
TDMA schedules, and a static default action from the sign of z."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (Action, ContractViolation, Delay, Scenario, TdmaSchedule,
                   ValidationError, gateway_strict_errors)
from .oracle import Branch, OracleResult, optimal_mixed


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
        # send slot s meets the TDMA send in slot s + ma_delay - delay
        forbidden |= schedule.sends(first_send + ma_delay.slots - delay.slots, count)
    forbidden[:max(0, -first_send)] = False   # s < 0 is no send slot
    return forbidden


@dataclass(frozen=True, eq=False)
class ModelAwarePolicy:
    """Open-loop policy over send slots 0 .. send_slots - 1: wait in forbidden
    slots, otherwise play the static default of the oracle's branch (the
    sign of z). Slots outside that range play the default.

    It stores only what fixes its decisions: the TDMA schedules with their
    delays, which shift them into the stream's send clock by `delay` minus
    the TDMA delay, and the ALOHA-only `OracleResult`. Decisions are computed
    on demand for a requested range of send slots (`forbidden_mask`,
    `transmit_mask`), so no query costs more than the range it asks for.
    """

    tdma: tuple[tuple[TdmaSchedule, Delay], ...]
    delay: Delay
    send_slots: int
    oracle: OracleResult

    @property
    def z_value(self) -> float:
        return self.oracle.z_value

    @property
    def default_action(self) -> Action:
        return Action.TRANSMIT if self.oracle.chosen_branch is Branch.TRANSMIT else Action.WAIT

    def forbidden_mask(self, first_send: int, count: int) -> np.ndarray:
        """Boolean mask over send slots first_send .. first_send + count - 1:
        True where the slot is forbidden."""
        if count == 0:
            return np.zeros(0, dtype=bool)
        forbidden = compute_forbidden_send_slots(self.tdma, self.delay, first_send,
                                                 first_send + count - 1)
        forbidden[max(0, self.send_slots - first_send):] = False
        return forbidden

    def transmit_mask(self, first_send: int, count: int) -> np.ndarray:
        """Boolean mask over send slots first_send .. first_send + count - 1:
        True where the policy transmits."""
        if self.default_action is Action.WAIT:
            return np.zeros(count, dtype=bool)
        return ~self.forbidden_mask(first_send, count)

    @property
    def forbidden_send_slots(self) -> np.ndarray:
        """Sorted indices of the forbidden send slots."""
        return np.flatnonzero(self.forbidden_mask(0, self.send_slots))


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
    tdma = tuple((n.role.schedule, n.delay) for n in scenario.tdma_nodes)
    # forbidden slots already dodge every TDMA arrival, so the default faces ALOHA only
    return ModelAwarePolicy(tdma, group[0].delay, scenario.total_send_slots,
                            optimal_mixed(0.0, scenario.aloha_probs))
