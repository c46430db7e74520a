"""Scalar per-slot reference model of the channel, for differential tests.

Every send decision is taken one slot at a time and every arrival is
recorded in a ledger; AP slots are then classified one by one. It shares
only `uwmac.core`'s types and the per-node RNG streams (`node_rng`) with the
library: the model-aware stream's branch and its forbidden slots are worked
out here, so the engine must match it count for count on any scenario.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

import numpy as np

from uwmac.core import (Action, AlohaRole, ContractViolation, Delay, NodeId,
                        Scenario, TdmaRole, TdmaSchedule, ValidationError)
from uwmac.engine import node_rng


class Outcome(Enum):
    IDLE = "idle"
    SUCCESS = "success"
    COLLISION = "collision"


@dataclass(frozen=True)
class SlotOutcome:
    """Resolution of one AP slot."""

    kind: Outcome
    nodes: frozenset[NodeId]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        n = len(self.nodes)
        ok = ((self.kind is Outcome.IDLE and n == 0)
              or (self.kind is Outcome.SUCCESS and n == 1)
              or (self.kind is Outcome.COLLISION and n >= 2))
        if not ok:
            raise ValidationError(f"{self.kind.value} outcome with {n} arrivals")

    @classmethod
    def idle(cls) -> "SlotOutcome":
        return cls(Outcome.IDLE, frozenset())

    @classmethod
    def success(cls, node: NodeId) -> "SlotOutcome":
        return cls(Outcome.SUCCESS, frozenset({node}))

    @classmethod
    def collision(cls, nodes: Iterable[NodeId]) -> "SlotOutcome":
        return cls(Outcome.COLLISION, frozenset(nodes))

    @property
    def node(self) -> NodeId:
        if self.kind is not Outcome.SUCCESS:
            raise ContractViolation(f"no single sender in a {self.kind.value} slot")
        return next(iter(self.nodes))


class ArrivalLedger:
    """Arrival bookkeeping for one simulation run: AP slot -> arriving node ids."""

    def __init__(self):
        self._by_slot: dict[int, set[NodeId]] = {}
        self._registered: set[tuple[NodeId, int]] = set()

    def arrivals_at(self, ap_slot: int) -> frozenset[NodeId]:
        return frozenset(self._by_slot.get(ap_slot, ()))

    def __len__(self) -> int:
        return len(self._registered)


def register_transmission(ledger: ArrivalLedger, node: NodeId, send_slot: int,
                          delay: Delay) -> ArrivalLedger:
    """Record that `node` sends in `send_slot`; the packet lands at send_slot + delay."""
    if send_slot < 0:
        raise ContractViolation(f"send slot must be >= 0, got {send_slot}")
    key = (node, send_slot)
    if key in ledger._registered:
        raise ContractViolation(f"node {node} already registered for send slot {send_slot}")
    ledger._registered.add(key)
    ledger._by_slot.setdefault(send_slot + delay.slots, set()).add(node)
    return ledger


def resolve_slot(ledger: ArrivalLedger, ap_slot: int) -> SlotOutcome:
    """Classify one AP slot from its arrival set; pure in the arrivals."""
    arrivals = ledger.arrivals_at(ap_slot)
    if not arrivals:
        return SlotOutcome.idle()
    if len(arrivals) == 1:
        return SlotOutcome.success(next(iter(arrivals)))
    return SlotOutcome.collision(arrivals)


def tdma_decide(schedule: TdmaSchedule, t: int) -> Action:
    """Deterministic frame schedule: transmit iff the slot's frame offset is assigned."""
    if t < 0:
        raise ContractViolation(f"slot index must be >= 0, got {t}")
    if t % schedule.frame_length in schedule.assigned:
        return Action.TRANSMIT
    return Action.WAIT


def aloha_decide(role: AlohaRole, rng: np.random.Generator) -> Action:
    """One Bernoulli(q) draw from the node's stream."""
    return Action.TRANSMIT if rng.random() < role.q else Action.WAIT


def stream_transmits(q: Iterable[float]) -> bool:
    """The model-aware stream's branch: transmit iff P(no ALOHA node sends)
    >= P(exactly one does), adding one node at a time."""
    none, one = 1.0, 0.0
    for qi in q:
        none, one = none * (1.0 - qi), one * (1.0 - qi) + none * qi
    return none >= one


def stream_decide(scenario: Scenario, transmits: bool, t: int) -> Action:
    """The stream's action in send slot t: TRANSMIT iff its branch transmits
    and no TDMA packet sent from a slot u >= 0 reaches its AP slot t + d."""
    if not transmits:
        return Action.WAIT
    arrival = t + scenario.model_aware_nodes[0].delay.slots
    for node in scenario.tdma_nodes:
        u = arrival - node.delay.slots
        if u >= 0 and tdma_decide(node.role.schedule, u) is Action.TRANSMIT:
            return Action.WAIT
    return Action.TRANSMIT


@dataclass(frozen=True)
class GatewayRoster:
    """Round-robin rotation over the coordinated model-aware members."""

    members: tuple[NodeId, ...]
    cursor: int = 0

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ContractViolation("gateway roster must have at least one member")
        if not 0 <= self.cursor < len(self.members):
            raise ContractViolation(f"cursor {self.cursor} out of range for "
                                    f"{len(self.members)} members")


def gateway_select(roster: GatewayRoster,
                   decision: Action) -> tuple[NodeId | None, GatewayRoster]:
    """Apply one gateway decision: on TRANSMIT pick the next member in turn,
    on WAIT keep every member silent and leave the cursor alone."""
    if decision is Action.WAIT:
        return None, roster
    node = roster.members[roster.cursor]
    return node, replace(roster, cursor=(roster.cursor + 1) % len(roster.members))


def reference_run(scenario: Scenario):
    """Slot-by-slot simulation built from the primitives above.

    Returns (stats, per-node successes, arrival set of each measured AP slot);
    stats holds successes, collisions, idle and cross (AP slots with two or
    more TDMA arrivals).
    """
    ledger = ArrivalLedger()
    delays = {n.id: n.delay for n in scenario.nodes}
    members = tuple(n.id for n in scenario.model_aware_nodes)
    transmits = stream_transmits(scenario.aloha_probs)
    roster = GatewayRoster(members) if members else None
    rngs = {n.id: node_rng(scenario.seed, n.id) for n in scenario.aloha_nodes}

    for t in range(scenario.total_send_slots):
        for node in scenario.nodes:
            if isinstance(node.role, TdmaRole):
                if tdma_decide(node.role.schedule, t) is Action.TRANSMIT:
                    register_transmission(ledger, node.id, t, node.delay)
            elif isinstance(node.role, AlohaRole):
                if aloha_decide(node.role, rngs[node.id]) is Action.TRANSMIT:
                    register_transmission(ledger, node.id, t, node.delay)
        if roster is not None:
            sender, roster = gateway_select(roster, stream_decide(scenario, transmits, t))
            if sender is not None:
                register_transmission(ledger, sender, t, delays[sender])

    start = scenario.warmup_slots
    stats = {"successes": 0, "collisions": 0, "idle": 0, "cross": 0}
    per_node = {n.id: 0 for n in scenario.nodes}
    tdma_ids = {n.id for n in scenario.tdma_nodes}
    arrival_sets = []
    for a in range(start, start + scenario.horizon):
        outcome = resolve_slot(ledger, a)
        arrival_sets.append(ledger.arrivals_at(a))
        if outcome.kind is Outcome.SUCCESS:
            stats["successes"] += 1
            per_node[outcome.node] += 1
        elif outcome.kind is Outcome.COLLISION:
            stats["collisions"] += 1
        else:
            stats["idle"] += 1
        if len(ledger.arrivals_at(a) & tdma_ids) >= 2:
            stats["cross"] += 1
    return stats, per_node, arrival_sets
