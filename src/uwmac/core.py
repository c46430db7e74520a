"""Slotted-channel primitives: node roles, delays and scenario validation.

Time is an integer slot index. A node with propagation delay d slots that
sends in slot t is heard by the access point (AP) in slot t + d. Success and
collision are adjudicated per AP slot: exactly one arrival succeeds, two or
more collide, zero is idle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Union

import numpy as np

NodeId = int


class ValidationError(ValueError):
    """Invalid input. Carries every violation found, not just the first."""

    def __init__(self, errors: Iterable[str] | str):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ContractViolation(ValueError):
    """An operation was invoked outside its stated contract."""


class Action(Enum):
    TRANSMIT = "transmit"
    WAIT = "wait"


@dataclass(frozen=True)
class Delay:
    """Propagation delay in whole slots: a send in slot t arrives at t + slots."""

    slots: int

    def __post_init__(self):
        if self.slots < 0:
            raise ValidationError(f"delay must be >= 0 slots, got {self.slots}")


@dataclass(frozen=True)
class TdmaSchedule:
    """Periodic frame schedule: transmit whenever the slot's frame offset is assigned."""

    frame_length: int
    assigned: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "assigned", frozenset(self.assigned))
        errors = []
        if self.frame_length < 1:
            errors.append(f"frame_length must be >= 1, got {self.frame_length}")
        else:
            bad = sorted(o for o in self.assigned if not 0 <= o < self.frame_length)
            if bad:
                errors.append(f"assigned offsets {bad} fall outside [0, {self.frame_length})")
        if errors:
            raise ValidationError(errors)

    @property
    def ratio(self) -> float:
        """Fraction of frame slots this schedule uses."""
        return len(self.assigned) / self.frame_length

    @cached_property
    def sorted_offsets(self) -> np.ndarray:
        """The assigned offsets as a sorted read-only array, built on first use:
        int64, or Python ints for a frame too long for int64."""
        dtype = np.int64 if self.frame_length <= np.iinfo(np.int64).max else object
        offsets = np.sort(np.fromiter(self.assigned, dtype, len(self.assigned)))
        offsets.flags.writeable = False
        return offsets


@dataclass(frozen=True)
class TdmaRole:
    schedule: TdmaSchedule


@dataclass(frozen=True)
class AlohaRole:
    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValidationError(f"ALOHA transmit probability must lie in [0, 1], got {self.q}")
        object.__setattr__(self, "q", float(self.q))


@dataclass(frozen=True)
class ModelAwareRole:
    gateway_member: bool = True


Role = Union[TdmaRole, AlohaRole, ModelAwareRole]


@dataclass(frozen=True)
class NodeSpec:
    """One node: identity, whole-slot propagation delay, and behavioural role."""

    id: NodeId
    delay: Delay
    role: Role


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description; immutable once built.

    horizon counts measured AP slots; warmup AP slots are simulated but
    excluded from metrics. warmup=None defaults to the maximum node delay so
    that every measured AP slot can receive arrivals from every node.
    """

    nodes: tuple[NodeSpec, ...]
    horizon: int
    warmup: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def max_delay(self) -> int:
        return max((n.delay.slots for n in self.nodes), default=0)

    @property
    def warmup_slots(self) -> int:
        return self.max_delay if self.warmup is None else self.warmup

    @property
    def total_send_slots(self) -> int:
        # send slots 0..warmup+horizon+max_delay, so every measured AP slot
        # has complete arrival information
        return self.warmup_slots + self.horizon + self.max_delay + 1

    @cached_property
    def tdma_nodes(self) -> tuple[NodeSpec, ...]:
        return tuple(n for n in sorted(self.nodes, key=lambda n: n.id)
                     if isinstance(n.role, TdmaRole))

    @cached_property
    def aloha_nodes(self) -> tuple[NodeSpec, ...]:
        return tuple(n for n in sorted(self.nodes, key=lambda n: n.id)
                     if isinstance(n.role, AlohaRole))

    @cached_property
    def model_aware_nodes(self) -> tuple[NodeSpec, ...]:
        return tuple(n for n in sorted(self.nodes, key=lambda n: n.id)
                     if isinstance(n.role, ModelAwareRole))

    @property
    def num_tdma(self) -> int:
        return len(self.tdma_nodes)

    @property
    def num_aloha(self) -> int:
        return len(self.aloha_nodes)

    @property
    def aloha_probs(self) -> tuple[float, ...]:
        return tuple(n.role.q for n in self.aloha_nodes)

    @property
    def tdma_frame_ratio(self) -> float:
        """Sum of the TDMA schedule ratios; describes the schedules only (may exceed 1)."""
        return sum(n.role.schedule.ratio for n in self.tdma_nodes)


def gateway_strict_errors(scenario: Scenario) -> list[str]:
    """Strict-mode checks for coordinated model-aware groups.

    More than one model-aware node implies a single centralized decision
    stream, which requires every node to be a gateway member and all members
    to share one propagation delay.
    """
    group = scenario.model_aware_nodes
    if len(group) <= 1:
        return []
    errors = []
    if any(not n.role.gateway_member for n in group):
        errors.append("multiple model-aware nodes must all be gateway members; "
                      "independently deciding model-aware nodes are not supported")
    if len({n.delay.slots for n in group}) > 1:
        errors.append("gateway members must share one propagation delay (strict mode)")
    return errors


def validate_scenario(scenario: Scenario) -> list[str]:
    """Return every scenario-level violation (empty list when valid)."""
    if not scenario.nodes:
        return ["scenario needs at least one node"]
    errors = []
    ids = sorted(n.id for n in scenario.nodes)
    if ids != list(range(len(scenario.nodes))):
        errors.append(f"node ids must be dense 0..{len(scenario.nodes) - 1}, got {ids}")
    if scenario.horizon < 1:
        errors.append(f"horizon must be >= 1, got {scenario.horizon}")
    if scenario.warmup is not None:
        if scenario.warmup < 0:
            errors.append(f"warmup must be >= 0, got {scenario.warmup}")
        elif scenario.warmup < scenario.max_delay:
            errors.append(f"warmup {scenario.warmup} is below the max node delay "
                          f"{scenario.max_delay}; early AP slots would miss arrivals")
    if not 0 <= scenario.seed < 2 ** 64:
        errors.append(f"seed must be an unsigned 64-bit integer, got {scenario.seed}")
    errors += gateway_strict_errors(scenario)
    return errors


def _is_finite(value: float) -> bool:
    """math.isfinite, also for an int too large to convert to a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def delay_from_distance(distance_m: float, sound_speed_mps: float,
                        slot_duration_s: float) -> Delay:
    """Whole-slot delay for a straight-line acoustic path, rounded up."""
    errors = [f"{name} must be a positive finite number, got {value}"
              for name, value in (("distance_m", distance_m),
                                  ("sound_speed_mps", sound_speed_mps),
                                  ("slot_duration_s", slot_duration_s))
              if not (_is_finite(value) and value > 0)]
    if errors:
        raise ValidationError(errors)
    slot_length_m = sound_speed_mps * slot_duration_s
    # the product can underflow to 0 and the quotient overflow to infinity
    quotient = distance_m / slot_length_m if slot_length_m > 0 else math.inf
    if not math.isfinite(quotient):
        raise ValidationError(f"distance_m / (sound_speed_mps * slot_duration_s) must "
                              f"be a finite number of slots, got {quotient}")
    # shave float dust so an exact slot multiple does not round up a slot
    return Delay(max(1, math.ceil(quotient - 1e-9)))
