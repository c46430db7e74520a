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
per phase of the period, not once per block (`_BlockProfile`). Each sender's
sends in a block are kept at one bit per slot. Time is O(horizon), plus, for a
gateway of several members in the transmit branch, O(min(warm-up, settle +
2 x period)) to count whose turn the window starts with (see
`_transmit_decisions_before`).

The window's blocks are cut into R = min(WORKERS, blocks) contiguous ranges,
WORKERS being the CPUs the process may use: range r takes blocks
blocks x r // R onward. The calling thread counts range 0 and persistent
helper threads, started on the first run of more than one block, count the
others; the ranges' integer totals are merged in range order. Each range has
its own copies of the generators, advanced to its first slot, so every
generator is still drawn by exactly one thread, in slot order, and a run stays
a pure function of (scenario, seed), whatever the CPU count. A run of one
block, or on one CPU, starts no helper, and importing uwmac starts none. Memory
is O(BLOCK_SLOTS x (1 + nodes / 8)) per range, whatever the horizon and warm-up.
With a period of at most BLOCK_SLOTS every range reuses the first block's
profile, built on the calling thread; with a longer one each range builds its
own profiles, so the helpers then call `policy.transmit_mask` too.

A run is `_plan` then `_simulate`. `_plan` does all that the scenario fixes
whatever its seed: validation, the period and block, the policy, the gateway's
decisions before the window and the first block's profile, held in a `_Plan`.
`_simulate` makes the ALOHA generators at the seed, counts the ranges and
attaches the oracle. `sweep` keeps its last valid plan: a point whose
parameters other than `seed` equal those that built it checks only its seed
(`seed_errors`, the rule `validate_scenario` applies) and simulates that plan.
So a grid that lists `seed` last builds one plan per run of seeds.
"""
from __future__ import annotations

import copy
import itertools
import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (Action, AlohaRole, ContractViolation, NodeId, NodeSpec, Scenario,
                   TdmaRole, TdmaSchedule, ValidationError, seed_errors,
                   validate_scenario)
from .oracle import OracleResult, optimal_mixed
from .policies import ModelAwarePolicy, build_model_aware_policy, tdma_slot_mask


BLOCK_SLOTS = 1 << 16
# the CPUs this process may run on
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_pool = None   # (helper count, executor) of the range helpers, started on first need
_pool_lock = threading.Lock()


def _helper_pool(helpers: int):
    """The persistent executor of `helpers` range threads; one of another size
    is shut down and replaced. concurrent.futures is imported here, not at
    module level, so that importing uwmac stays cheap."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != helpers:
            from concurrent.futures import ThreadPoolExecutor
            if _pool is not None:
                _pool[1].shutdown()
            _pool = helpers, ThreadPoolExecutor(helpers, thread_name_prefix="uwmac-ranges")
        return _pool[1]


def _forget_pool() -> None:
    # a forked child has none of its parent's threads: it starts its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
    """The part of a block of AP slots that the schedules alone fix, packed one
    bit per slot into rows of 64-bit words: the sends of each TDMA node, then
    of each relative turn of the model-aware stream's k members (turn j holds
    decisions j, j + k, j + 2k, ... of the block), then the two planes of the
    deterministic sender count: two or more, and one or more."""

    def __init__(self, count: int, packed: np.ndarray, k: int):
        self.count, self.packed, self.k = count, packed, k
        slots = np.add.reduce(np.bitwise_count(packed.view(np.uint64)), axis=1).tolist()
        self.decided = sum(slots[-2 - k:-2])
        # every slot of two or more deterministic senders is a cross collision
        self.cross, busy = slots[-2:]
        self.single = busy - self.cross - self.decided

    @classmethod
    def build(cls, tdma: Sequence, policy: ModelAwarePolicy | None, k: int,
              first: int, count: int) -> _BlockProfile:
        """The profile of AP slots first .. first + count - 1."""
        turns = len(tdma)   # the row of turn 0
        # whole 64-bit words of flags, false past `count`
        senders = np.zeros((turns + k + 2, -(-count // 64) * 64), dtype=bool)
        for row, node in enumerate(tdma):
            senders[row, :count] = tdma_slot_mask(node.role.schedule, first - node.delay.slots,
                                                  count)
        if policy is not None:
            decisions = policy.transmit_mask(first - policy.delay.slots, count)
            if k == 1:
                senders[turns, :count] = decisions
            else:
                positions = decisions.nonzero()[0]
                for turn in range(k):
                    senders[turns + turn, positions[turn::k]] = True
        np.logical_or.reduce(senders[:-2], axis=0, out=senders[-1])
        # a decision never shares its slot with a TDMA arrival or with another
        # decision, so only TDMA arrivals can make two deterministic senders
        if turns > 1:
            counts = np.add.reduce(senders[:turns], axis=0, dtype=np.int32)
            np.greater_equal(counts, 2, out=senders[-2])
        return cls(count, np.packbits(senders, axis=1), k)

    def prefix(self, count: int) -> _BlockProfile:
        """The profile of the first `count` slots of this one."""
        packed = self.packed.copy()
        packed[:, count // 8] &= 0xFF00 >> count % 8 & 0xFF   # bits are big-endian
        packed[:, -(-count // 8):] = 0
        return _BlockProfile(count, packed, self.k)


def _range_buffers(slots: int, rows: int) -> tuple:
    """A range's buffers for blocks of up to `slots` AP slots: the draws, the
    send flags, and `rows` rows of packed sends plus the two planes of a
    `_BlockProfile`, in bytes that a whole number of 64-bit words holds."""
    return (np.empty(slots), np.empty(slots, dtype=bool),
            np.zeros((rows + 2, -(-slots // 64) * 8), dtype=np.uint8))


@dataclass(frozen=True)
class _Plan:
    """What a valid scenario fixes whatever its seed: everything a run does
    before it makes its first ALOHA generator. Ranges read it and never write it."""

    nodes: int                      # the ids are 0 .. nodes - 1
    aloha: tuple                    # (id, delay slots, q) of each ALOHA node, by id
    tdma: tuple[NodeSpec, ...]
    start: int                      # the first measured AP slot
    horizon: int
    period: int                     # the lcm of the TDMA frames
    block: int                      # AP slots per block
    policy: ModelAwarePolicy | None
    members: tuple[NodeId, ...]     # the model-aware stream's members, by id
    sent: int                       # its transmit decisions before the window
    profile: _BlockProfile          # of the window's first block


def _plan(scenario: Scenario) -> _Plan:
    """Validate `scenario` and build everything of its run but the draws."""
    errors = validate_scenario(scenario)
    if errors:
        raise ValidationError(errors)
    start, horizon = scenario.warmup_slots, scenario.horizon
    tdma = scenario.tdma_nodes
    # inside the window every send slot is >= 0 and below send_slots, so the
    # TDMA arrivals and the decisions repeat every `period` AP slots
    period = math.lcm(*[node.role.schedule.frame_length for node in tdma])
    block = BLOCK_SLOTS - BLOCK_SLOTS % period if period <= BLOCK_SLOTS else BLOCK_SLOTS
    members = tuple(n.id for n in scenario.model_aware_nodes)
    k = len(members)
    policy = None
    sent = 0
    if members:
        policy = build_model_aware_policy(scenario)
        # the gateway's transmit decisions before the window set whose turn it starts with
        if k > 1 and policy.default_action is Action.TRANSMIT:
            sent = _transmit_decisions_before(policy, start - policy.delay.slots, period)
    return _Plan(len(scenario.nodes),
                 tuple((n.id, n.delay.slots, n.role.q) for n in scenario.aloha_nodes),
                 tdma, start, horizon, period, block, policy, members, sent,
                 _BlockProfile.build(tdma, policy, k, start, min(block, horizon)))


def _count_range(plan: _Plan, begin: int, end: int, aloha: Sequence, buffers: tuple) -> tuple:
    """Count AP slots begin .. end - 1, block by block.

    `aloha` holds each ALOHA node's (generator at slot `begin`, q). `buffers`
    come from `_range_buffers`, made by the caller and written in place: the
    ALOHA nodes' sends, then a profile's rows. Returns (successes,
    collisions, cross, single, successes per row, decisions): the rows are
    the ALOHA nodes, the TDMA nodes, then turn j of the range's decisions.
    """
    start, block, period, tdma, policy = (plan.start, plan.block, plan.period,
                                          plan.tdma, plan.policy)
    k, profile = len(plan.members), plan.profile
    draws, send_flags, packed = buffers
    words, first_fixed = packed.view(np.uint64), len(aloha)
    fixed = first_fixed + len(tdma)   # the row of turn 0
    totals = [0] * (fixed + k)
    collisions = cross = single = decided = 0
    phase = 0
    for first in range(begin, end, block):
        n = min(block, end - first)
        # a profile is built once per phase of the frames; the short last
        # block of a phase already seen takes a prefix of its profile
        if (first - start) % period != phase:
            phase = (first - start) % period
            profile = _BlockProfile.build(tdma, policy, k, first, n)
        elif n < profile.count:
            profile = profile.prefix(n)
        flags, size = send_flags[:n], -(-n // 8)
        if n < block and first > begin:
            packed[:, size:] = 0   # the bits that the longer blocks before left there
        packed[first_fixed:, :size] = profile.packed[:, :size]
        twos, ones = packed[-2, :size], packed[-1, :size]
        for row, (rng, q) in enumerate(aloha):
            np.less(rng.random(out=draws[:n]), q, out=flags)
            sends = np.packbits(flags)
            packed[row, :size] = sends
            # the sender count's planes saturate at two
            twos |= ones & sends
            ones |= sends
        ones ^= twos   # the slots of exactly one sender
        # a sender's successes are its sends in those slots
        np.bitwise_and(words[:-2], words[-1], out=words[:-2])
        won = np.add.reduce(np.bitwise_count(words[:-1]), axis=1).tolist()
        collisions += won[-1]
        for row in range(fixed):
            totals[row] += won[row]
        for turn in range(k):
            totals[fixed + (decided + turn) % k] += won[fixed + turn]
        decided += profile.decided
        cross += profile.cross
        single += profile.single
    # every success slot has exactly one sender
    return sum(totals), collisions, cross, single, totals, decided


def run(scenario: Scenario) -> SimReport:
    """Simulate one scenario and report measured throughput.

    Raises ValidationError listing every scenario violation. With a model-aware
    node, the closed-form optimum over the measured window's TDMA arrival
    profile is attached along with the deviation.
    """
    return _simulate(_plan(scenario), scenario.seed)


def _simulate(plan: _Plan, seed: int) -> SimReport:
    """The run of `plan`'s scenario at `seed`, a valid seed."""
    start, horizon, members = plan.start, plan.horizon, plan.members
    # arrival at AP slot a came from send slot a - d; start >= max delay
    aloha = []   # (generator, q) of each ALOHA node
    for node_id, delay, q in plan.aloha:
        rng = node_rng(seed, node_id)
        rng.bit_generator.advance(start - delay)   # the unmeasured draws
        aloha.append((rng, q))
    cap = min(plan.block, horizon)
    rows = len(aloha) + len(plan.tdma) + len(members)
    # range r counts blocks blocks * r // ranges onward; the calling thread
    # counts range 0 after handing the others to the helpers
    blocks = -(-horizon // plan.block)
    ranges = min(WORKERS, blocks)
    bounds = [start + blocks * r // ranges * plan.block for r in range(ranges)] + [start + horizon]
    pool = _helper_pool(WORKERS - 1) if ranges > 1 else None
    jobs = []
    try:
        for begin, end in zip(bounds[1:], bounds[2:]):
            copies = []
            for rng, q in aloha:
                rng = copy.deepcopy(rng)
                rng.bit_generator.advance(begin - start)
                copies.append((rng, q))
            jobs.append(pool.submit(_count_range, plan, begin, end, copies,
                                    _range_buffers(cap, rows)))
        counted = [_count_range(plan, start, bounds[1], aloha, _range_buffers(cap, rows))]
    finally:
        # no helper outlives the run, even when range 0 fails
        for job in jobs:
            job.exception()
    for job in jobs:
        counted.append(job.result())

    successes = collisions = cross = single = 0
    per_node = dict.fromkeys(range(plan.nodes), 0)
    ids = [node_id for node_id, _, _ in plan.aloha] + [node.id for node in plan.tdma]
    k, sent = len(members), plan.sent
    for got, lost, crossed, singles, totals, decided in counted:
        successes += got
        collisions += lost
        cross += crossed
        single += singles
        for node_id, count in zip(ids, totals):
            per_node[node_id] += count
        # transmit decision i from send slot 0 on goes to members[i mod k],
        # and `sent` of them came before this range
        for turn, count in enumerate(totals[rows - k:]):
            per_node[members[(sent + turn) % k]] += count
        sent += decided
    empirical = successes / horizon

    oracle = deviation = None
    if members:
        probs = tuple(q for _, q in aloha)
        oracle = optimal_mixed(single / horizon, probs, cross / horizon)
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

    A point whose parameters other than `seed` equal those that built the last
    valid plan (`_plan`) reuses it: only its seed is checked and drawn.
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
    repeated = dict.fromkeys(name for i, name in enumerate(names) if name in names[:i])
    if repeated:
        raise ValidationError([f"sweep parameter {name!r} given twice" for name in repeated])
    fixed = [i for i, name in enumerate(names) if name != "seed"]
    plan = key = None   # the last valid plan and the values but the seed it was built for
    points = []
    for index, combo in enumerate(itertools.product(*(values for _, values in grid))):
        params = dict(zip(names, combo))
        seed = int(params["seed"]) if "seed" in params else _derive_seed(base.seed, index)
        values = [combo[i] for i in fixed]
        try:
            if values != key:
                scenario = base
                for name, value in params.items():
                    scenario = _apply_parameter(scenario, name, value)
                plan, key = _plan(replace(scenario, seed=seed)), values
            else:
                errors = seed_errors(seed)
                if errors:
                    raise ValidationError(errors)
            points.append(SweepPoint(index, params, seed, _simulate(plan, seed), None))
        except (ValidationError, ContractViolation) as exc:
            points.append(SweepPoint(index, params, seed, None, str(exc)))
    return points
