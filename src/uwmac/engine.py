"""Deterministic seeded slot simulation with oracle comparison and sweeps.

One run is a pure function of (scenario, seed): every node gets an
independent RNG substream keyed by (seed, node id), so adding a node never
perturbs the draws of the others. Metrics count AP slots in
[warmup, warmup + horizon); throughput is successes / measured slots.

`run` walks that window in blocks of at most BLOCK_SLOTS AP slots. Each
measured AP slot hears each node's send from exactly one earlier slot, so a
block only needs every node's sends over one block-long range: TDMA sends from
the schedule, ALOHA sends from the node's generator (its unmeasured draws
skipped with `advance`), and the model-aware stream's sends, one sender even
for a gateway, from the policy's range query. Inside the window the TDMA
arrivals and the decisions repeat every `period` AP slots, the lcm of the
frames, so a block is cut at the largest multiple of the period that fits in
BLOCK_SLOTS (at BLOCK_SLOTS when the period is longer) and they are built once
per phase of the period, not once per block (`_BlockProfile`). Memory is
O(BLOCK_SLOTS x nodes), whatever the horizon and warm-up; time is O(horizon),
plus, for a gateway of several members in the transmit branch,
O(min(warm-up, settle + 2 x period)) to count whose turn the window starts
with (see `_transmit_decisions_before`).

When a full block holds at least PARALLEL_DRAWS ALOHA draws, each block's
ALOHA sends are drawn on every CPU the process may use (WORKERS): ALOHA node i
goes to chunk i mod WORKERS, the calling thread draws chunk 0 and persistent
helper threads, started on the first such run, draw the others. Every
generator is still drawn by one thread in block order, so a run stays a pure
function of (scenario, seed), whatever the CPU count.
"""
from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (Action, AlohaRole, ContractViolation, NodeId, Scenario,
                   TdmaRole, TdmaSchedule, ValidationError, validate_scenario)
from .oracle import OracleResult, optimal_mixed
from .policies import ModelAwarePolicy, build_model_aware_policy, tdma_slot_mask


BLOCK_SLOTS = 1 << 16
# a full block of at least this many ALOHA draws splits them across WORKERS threads
PARALLEL_DRAWS = 1 << 18
# the CPUs this process may run on
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_pool = None   # (helper count, executor) of the draw helpers, started on first need
_pool_lock = threading.Lock()


def _helper_pool(helpers: int):
    """The persistent executor of `helpers` draw threads; one of another size
    is shut down and replaced. concurrent.futures is imported here, not at
    module level, so that importing uwmac stays cheap."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != helpers:
            from concurrent.futures import ThreadPoolExecutor
            if _pool is not None:
                _pool[1].shutdown()
            _pool = helpers, ThreadPoolExecutor(helpers, thread_name_prefix="uwmac-draws")
        return _pool[1]


def _forget_pool() -> None:
    # a forked child has none of its parent's threads: it starts its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _draw(chunk, draws: np.ndarray, masks: np.ndarray, counts: np.ndarray) -> None:
    """For each (generator, q, row) of the chunk: refill `draws`, write the
    node's send mask into masks[row] and add it to `counts`. Everything is
    written in place, so a helper thread allocates no array."""
    for rng, q, row in chunk:
        mask = masks[row]
        np.less(rng.random(out=draws), q, out=mask)
        np.add(counts, mask, out=counts)


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


def _transmit_decisions_before(policy: ModelAwarePolicy, first_send: int, period: int) -> int:
    """Transmit decisions of the policy in send slots 0 .. first_send - 1. From
    send slot `settle` on no decision looks at a TDMA slot below 0, so they
    repeat every `period` slots (the lcm of the frames): one period counts for
    all the whole ones."""
    def walk(begin: int, end: int) -> int:
        return sum(int(np.count_nonzero(policy.transmit_mask(s, min(BLOCK_SLOTS, end - s))))
                   for s in range(begin, end, BLOCK_SLOTS))
    settle = max([0] + [delay.slots - policy.delay.slots for _, delay in policy.tdma])
    full = max(0, (first_send - settle) // period)
    head = first_send - full * period
    return walk(0, head) + (full * walk(head, head + period) if full else 0)


class _BlockProfile:
    """The part of a block of AP slots that the schedules alone fix: the
    deterministic senders per slot, each TDMA node's arrivals and the model-aware
    stream's transmit decisions, whose positions are split by relative turn
    (turns[j] holds decisions j, j + k, j + 2k, ... of the block for k members)."""

    def __init__(self, counts: np.ndarray, arrivals: dict[NodeId, np.ndarray],
                 turns: list[np.ndarray]):
        self.counts, self.arrivals, self.turns = counts, arrivals, turns
        self.decided = sum(map(len, turns))
        # a decision never shares its slot with a TDMA arrival, so every slot
        # of two or more deterministic senders is a cross collision
        self.cross = int(np.count_nonzero(counts >= 2))
        self.single = int(np.count_nonzero(counts)) - self.cross - self.decided

    @classmethod
    def build(cls, tdma: Sequence, policy: ModelAwarePolicy | None, k: int,
              first: int, count: int) -> _BlockProfile:
        """The profile of AP slots first .. first + count - 1 for a decision
        stream whose k members take turns."""
        counts = np.zeros(count, dtype=np.int32)
        arrivals = {}
        for node in tdma:
            segment = tdma_slot_mask(node.role.schedule, first - node.delay.slots, count)
            counts += segment
            arrivals[node.id] = segment
        turns = []
        if policy is not None:
            decisions = policy.transmit_mask(first - policy.delay.slots, count)
            counts += decisions
            positions = decisions.nonzero()[0]
            turns = [positions[j::k] for j in range(k)]
        return cls(counts, arrivals, turns)

    def prefix(self, count: int) -> _BlockProfile:
        """The profile of the first `count` slots of this one."""
        arrivals = {node_id: segment[:count] for node_id, segment in self.arrivals.items()}
        turns = [positions[:positions.searchsorted(count)] for positions in self.turns]
        return _BlockProfile(self.counts[:count], arrivals, turns)


def run(scenario: Scenario) -> SimReport:
    """Simulate one scenario and report measured throughput.

    Raises ValidationError listing every scenario violation. With a model-aware
    node, the closed-form optimum over the measured window's TDMA arrival
    profile is attached along with the deviation.
    """
    errors = validate_scenario(scenario)
    if errors:
        raise ValidationError(errors)
    start, horizon = scenario.warmup_slots, scenario.horizon
    # arrival at AP slot a came from send slot a - d; start >= max delay
    aloha = scenario.aloha_nodes
    draws = []   # (generator, q, send-mask row) of each ALOHA node
    for row, node in enumerate(aloha):
        rng = node_rng(scenario.seed, node.id)
        rng.bit_generator.advance(start - node.delay.slots)   # the unmeasured draws
        draws.append((rng, node.role.q, row))
    tdma = scenario.tdma_nodes
    # inside the window every send slot is >= 0 and below send_slots, so the
    # TDMA arrivals and the decisions repeat every `period` AP slots
    period = math.lcm(*[node.role.schedule.frame_length for node in tdma])
    block = BLOCK_SLOTS - BLOCK_SLOTS % period if period <= BLOCK_SLOTS else BLOCK_SLOTS
    members = [n.id for n in scenario.model_aware_nodes]
    policy = None
    sent = 0
    if members:
        policy = build_model_aware_policy(scenario)
        # the gateway's transmit decisions before the window set whose turn it starts with
        if len(members) > 1 and policy.default_action is Action.TRANSMIT:
            sent = _transmit_decisions_before(policy, start - policy.delay.slots, period)

    successes = collisions = cross = single = 0
    per_node = {node.id: 0 for node in sorted(scenario.nodes, key=lambda n: n.id)}
    # each block's draws land in buffers made once per run: a draw buffer per
    # worker, partial counts per helper and one send-mask row per ALOHA node
    cap = min(block, horizon)
    # the threshold counts BLOCK_SLOTS, so the choice does not hang on the frames
    workers = WORKERS if min(BLOCK_SLOTS, horizon) * len(aloha) >= PARALLEL_DRAWS else 1
    bufs = np.empty((workers, cap))
    partials = np.empty((workers - 1, cap), dtype=np.int32)
    masks = np.empty((len(aloha), cap), dtype=bool)
    chunks = [draws[w::workers] for w in range(workers)]
    pool = _helper_pool(workers - 1) if workers > 1 else None
    phase = None
    for first in range(start, start + horizon, block):
        n = min(block, start + horizon - first)
        # a profile is built once per phase of the frames; the short last
        # block of a phase already seen takes a prefix of its profile
        if (first - start) % period != phase:
            phase = (first - start) % period
            profile = _BlockProfile.build(tdma, policy, len(members), first, n)
        elif n < len(profile.counts):
            profile = profile.prefix(n)
        counts = profile.counts.copy()
        # the helpers run only while the calling thread draws, never while it
        # runs the interpreter-bound policy and TDMA code above
        block_masks = masks[:, :n]
        jobs = []
        for chunk, buf, partial in zip(chunks[1:], bufs[1:], partials):
            partial = partial[:n]
            partial.fill(0)
            jobs.append((pool.submit(_draw, chunk, buf[:n], block_masks, partial), partial))
        _draw(chunks[0], bufs[0, :n], block_masks, counts)
        for job, partial in jobs:
            job.result()
            counts += partial

        success_mask = counts == 1
        successes += int(np.count_nonzero(success_mask))
        collisions += int(np.count_nonzero(counts >= 2))
        for node_id, segment in profile.arrivals.items():
            per_node[node_id] += int(np.count_nonzero(segment & success_mask))
        for row, node in enumerate(aloha):
            per_node[node.id] += int(np.count_nonzero(block_masks[row] & success_mask))
        # the k-th transmit decision from send slot 0 on goes to members[k mod K],
        # and `sent` of them came before this block
        for turn, positions in enumerate(profile.turns):
            per_node[members[(sent + turn) % len(members)]] += int(
                np.count_nonzero(success_mask[positions]))
        sent += profile.decided
        cross += profile.cross
        single += profile.single
    empirical = successes / horizon

    oracle = deviation = None
    if members:
        oracle = optimal_mixed(single / horizon, scenario.aloha_probs, cross / horizon)
        deviation = abs(empirical - oracle.optimal_throughput)
    return SimReport(measured_slots=horizon, successes=successes,
                     collisions=collisions, idle=horizon - successes - collisions,
                     per_node_successes=per_node,
                     empirical_throughput=empirical,
                     warmup_slots=start,
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
