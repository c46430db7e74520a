"""Closed-form expected and optimal slot throughputs.

Against N independent slotted-ALOHA senders with probabilities q_i and TDMA
arrivals landing alone in a fraction p of the AP slots, the expected per-slot
throughput when the model-aware side transmits with probability b is affine
in b, so the optimum sits at b = 0 or b = 1. These formulas are the ground
truth the simulation engine is checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .core import ValidationError


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")


def _check_probs(q: Sequence[float]) -> None:
    bad = [f"q[{i}] must lie in [0, 1], got {qi}"
           for i, qi in enumerate(q) if not 0.0 <= qi <= 1.0]
    if bad:
        raise ValidationError(bad)


def prob_all_silent(q: Sequence[float]) -> float:
    """P(no ALOHA node transmits) = prod_i (1 - q_i). Empty input gives 1."""
    _check_probs(q)
    return _all_silent(q)


def success_prob_exactly_one(q: Sequence[float]) -> float:
    """P(exactly one ALOHA node transmits) = sum_i q_i * prod_{j != i} (1 - q_j).

    Empty input gives 0 (no node can succeed).
    """
    _check_probs(q)
    return _exactly_one(q)


def _all_silent(q: Sequence[float]) -> float:
    return math.prod((1.0 - qi for qi in q), start=1.0)


def _exactly_one(q: Sequence[float]) -> float:
    total = 0.0
    for i, qi in enumerate(q):
        term = qi
        for j, qj in enumerate(q):
            if j != i:
                term *= 1.0 - qj
        total += term
    return total


def expected_slot_throughput(b: float, q: Sequence[float]) -> float:
    """f(b) = b * prod(1 - q_i) + (1 - b) * P(exactly one ALOHA transmits)."""
    _check_unit("b", b)
    return b * prob_all_silent(q) + (1.0 - b) * success_prob_exactly_one(q)


class Branch(Enum):
    """Which endpoint of the affine objective the optimum takes."""

    TRANSMIT = "transmit"   # b* = 1: model-aware side fills every free slot
    SILENT = "silent"       # b* = 0: channel is left to the ALOHA side


@dataclass(frozen=True)
class OracleResult:
    """Optimal per-slot network throughput and the branch attaining it: the
    sign of z picks the branch, and z = 0 ties to transmit."""

    optimal_throughput: float
    chosen_branch: Branch = field(init=False)
    z_value: float

    def __post_init__(self):
        if not 0.0 <= self.optimal_throughput <= 1.0:
            raise ValidationError(f"throughput must lie in [0, 1], got {self.optimal_throughput}")
        object.__setattr__(self, "chosen_branch",
                           Branch.TRANSMIT if self.z_value >= 0 else Branch.SILENT)


def optimal_tdma_only() -> OracleResult:
    """TDMA-only competition: the model-aware side fills every free slot, so
    the network saturates at throughput 1 regardless of delays."""
    return optimal_mixed(0.0, ())


def optimal_aloha(q: Sequence[float]) -> OracleResult:
    """Optimal throughput against ALOHA senders only.

    z = prod(1 - q_i) - sum_i q_i prod_{j != i} (1 - q_j) is df/db. Negative z
    means staying silent wins (throughput = P(exactly one ALOHA transmits));
    otherwise transmitting every slot wins (throughput = prod(1 - q_i)).
    For a single sender this reduces to q if q > 0.5, else 1 - q. This is the
    mixed optimum with no TDMA side (p = 0).
    """
    return optimal_mixed(0.0, q)


def expected_mixed_throughput(b: float, p: float, q: Sequence[float],
                              blocked: float = 0.0) -> float:
    """F(b) = p * prod(1 - q_i) + (1 - p - blocked) * f(b) with p the share of
    AP slots that see exactly one TDMA arrival and `blocked` the share that see
    several, as in `optimal_mixed`."""
    for name, value in (("p", p), ("blocked", blocked), ("p + blocked", p + blocked)):
        _check_unit(name, value)
    return p * prob_all_silent(q) + ((1.0 - p) - blocked) * expected_slot_throughput(b, q)


def optimal_mixed(p: float, q: Sequence[float], blocked: float = 0.0) -> OracleResult:
    """Optimal throughput when a fraction p of the AP slots sees exactly one
    TDMA arrival and a fraction `blocked` several: wait on every arrival and
    play the sign of z in the free rest, for p * P0 + free * max(P0, P1).
    With no free slot z is 0, which routes to the transmit branch.
    """
    for name, value in (("p", p), ("blocked", blocked), ("p + blocked", p + blocked)):
        _check_unit(name, value)
    _check_probs(q)
    silent, exactly_one = _all_silent(q), _exactly_one(q)
    free = (1.0 - p) - blocked
    z = free * (silent - exactly_one) + 0.0   # +0.0 normalises -0.0 when free == 0
    if z < 0:
        return OracleResult(p * silent + free * exactly_one, z)
    return OracleResult((1.0 - blocked) * silent, z)
