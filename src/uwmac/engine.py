"""Deterministic seeded slot simulation with oracle comparison and sweeps.

One run is a pure function of (scenario, seed): every node gets an
independent RNG substream keyed by (seed, node id), so adding a node never
perturbs the draws of the others. Metrics count AP slots in
[warmup, warmup + horizon); throughput is successes / measured slots.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (Action, AlohaRole, ContractViolation, NodeId, Scenario,
                   TdmaRole, TdmaSchedule, ValidationError, validate_scenario)
from .oracle import OracleResult, optimal_mixed
from .policies import build_model_aware_policy, tdma_slot_mask


def node_rng(seed: int, node_id: NodeId) -> np.random.Generator:
    """Independent per-node substream derived from (scenario seed, node id)."""
    return np.random.default_rng([seed, node_id])


@dataclass(frozen=True)
class SimReport:
    """Measured channel statistics for one run, plus the oracle comparison.

    warmup_slots records the warm-up convention actually applied (AP slots
    before it are simulated but not counted). oracle/deviation are None only
    when no model-aware node is present.
    """

    measured_slots: int
    successes: int
    collisions: int
    idle: int
    per_node_successes: dict[NodeId, int]
    empirical_throughput: float
    warmup_slots: int
    tdma_cross_collisions: int
    oracle: OracleResult | None = None
    deviation: float | None = None


def _transmit_masks(scenario: Scenario) -> dict[NodeId, np.ndarray]:
    """Boolean send decision per node per send slot, roles already applied."""
    total = scenario.total_send_slots
    masks: dict[NodeId, np.ndarray] = {}
    for node in scenario.nodes:
        if isinstance(node.role, TdmaRole):
            masks[node.id] = tdma_slot_mask(node.role.schedule, 0, total)
        elif isinstance(node.role, AlohaRole):
            masks[node.id] = node_rng(scenario.seed, node.id).random(total) < node.role.q
        else:
            masks[node.id] = np.zeros(total, dtype=bool)

    members = [n.id for n in scenario.model_aware_nodes]
    if members:
        policy = build_model_aware_policy(scenario)
        if policy.default_action is Action.TRANSMIT:
            decisions = ~policy.forbidden
        else:
            decisions = np.zeros(total, dtype=bool)
        # round-robin: k-th transmit decision goes to members[k mod K]
        picks = np.flatnonzero(decisions)
        for turn, member in enumerate(members):
            masks[member][picks[turn::len(members)]] = True
    return masks


def run(scenario: Scenario) -> SimReport:
    """Simulate one scenario and report measured throughput.

    Raises ValidationError listing every scenario violation. With a model-aware
    node, the closed-form optimum over the measured window's TDMA arrival
    profile is attached along with the deviation.
    """
    errors = validate_scenario(scenario)
    if errors:
        raise ValidationError(errors)
    masks = _transmit_masks(scenario)
    start, horizon = scenario.warmup_slots, scenario.horizon
    counts = np.zeros(horizon, dtype=np.int32)
    tdma_counts = np.zeros(horizon, dtype=np.int32)
    arrivals: dict[NodeId, np.ndarray] = {}
    for node in sorted(scenario.nodes, key=lambda n: n.id):
        d = node.delay.slots
        # arrival at AP slot a came from send slot a - d; start >= max delay
        segment = masks[node.id][start - d: start + horizon - d]
        arrivals[node.id] = segment
        counts += segment
        if isinstance(node.role, TdmaRole):
            tdma_counts += segment

    success_mask = counts == 1
    successes = int(success_mask.sum())
    collisions = int((counts >= 2).sum())
    idle = int((counts == 0).sum())
    per_node = {node_id: int((segment & success_mask).sum())
                for node_id, segment in arrivals.items()}
    cross = int(np.count_nonzero(tdma_counts >= 2))
    empirical = successes / horizon

    oracle = deviation = None
    if scenario.model_aware_nodes:
        single = int(np.count_nonzero(tdma_counts)) - cross
        oracle = optimal_mixed(single / horizon, scenario.aloha_probs, cross / horizon)
        deviation = abs(empirical - oracle.optimal_throughput)
    return SimReport(measured_slots=scenario.horizon, successes=successes,
                     collisions=collisions, idle=idle,
                     per_node_successes=per_node,
                     empirical_throughput=empirical,
                     warmup_slots=scenario.warmup_slots,
                     tdma_cross_collisions=cross,
                     oracle=oracle, deviation=deviation)


@dataclass(frozen=True)
class ComparisonResult:
    passed: bool
    deviation: float


def check_tolerance(tolerance: float) -> None:
    """Reject a comparison tolerance that is not a positive finite number."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ContractViolation(f"tolerance must be a positive finite number, got {tolerance}")


def compare_to_oracle(report: SimReport, oracle: OracleResult,
                      tolerance: float) -> ComparisonResult:
    """Pass iff |empirical - optimal| <= tolerance."""
    check_tolerance(tolerance)
    deviation = abs(report.empirical_throughput - oracle.optimal_throughput)
    return ComparisonResult(deviation <= tolerance, deviation)


def default_tolerance(optimal_throughput: float, measured_slots: int) -> float:
    """Four-sigma binomial band around the oracle value, with a tiny floor so
    deterministic scenarios still compare cleanly."""
    t = optimal_throughput
    return 4.0 * math.sqrt(t * (1.0 - t) / measured_slots) + 1e-9


SWEEP_PARAMETERS = ("q", "p", "horizon", "warmup", "seed")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: either a report or the error that stopped it."""

    index: int
    params: dict
    seed: int
    report: SimReport | None
    error: str | None


def _derive_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1, np.uint64)[0])


def _apply_parameter(scenario: Scenario, name: str, value) -> Scenario:
    if name == "q":
        if not scenario.aloha_nodes:
            raise ValidationError("sweep parameter 'q' needs at least one ALOHA node")
        nodes = tuple(replace(n, role=AlohaRole(float(value)))
                      if isinstance(n.role, AlohaRole) else n
                      for n in scenario.nodes)
        return replace(scenario, nodes=nodes)
    if name == "p":
        tdma = scenario.tdma_nodes
        if len(tdma) != 1:
            raise ValidationError("sweep parameter 'p' needs exactly one TDMA node")
        frame = tdma[0].role.schedule.frame_length
        used = float(value) * frame
        if not 0 <= used <= frame or abs(used - round(used)) > 1e-9:
            raise ValidationError(f"p={value} is not a whole number of slots "
                                  f"in a frame of length {frame}")
        schedule = TdmaSchedule(frame, frozenset(range(int(round(used)))))
        nodes = tuple(replace(n, role=TdmaRole(schedule)) if n.id == tdma[0].id else n
                      for n in scenario.nodes)
        return replace(scenario, nodes=nodes)
    if name == "horizon":
        return replace(scenario, horizon=int(value))
    if name == "warmup":
        return replace(scenario, warmup=int(value))
    # sweep has already rejected every other name
    return replace(scenario, seed=int(value))


def sweep(base: Scenario, grid: Sequence[tuple[str, Sequence]]) -> list[SweepPoint]:
    """Run the cross product of the grid; points are independent and seeded
    deterministically from (base seed, point index).

    Grid-point failures are recorded on the point and the sweep continues.
    """
    grid = list(grid)
    if not grid:
        return []
    unknown = [name for name, _ in grid if name not in SWEEP_PARAMETERS]
    if unknown:
        raise ValidationError([f"unknown sweep parameter {name!r}; expected one of "
                               f"{', '.join(SWEEP_PARAMETERS)}" for name in unknown])
    names = [name for name, _ in grid]
    points = []
    for index, combo in enumerate(itertools.product(*(values for _, values in grid))):
        params = dict(zip(names, combo))
        seed = int(params["seed"]) if "seed" in params else _derive_seed(base.seed, index)
        try:
            scenario = base
            for name, value in params.items():
                scenario = _apply_parameter(scenario, name, value)
            scenario = replace(scenario, seed=seed)
            points.append(SweepPoint(index, params, seed, run(scenario), None))
        except (ValidationError, ContractViolation) as exc:
            points.append(SweepPoint(index, params, seed, None, str(exc)))
    return points
