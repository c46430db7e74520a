"""Deterministic slot simulation from a seed, with oracle comparison and sweeps.

One run is a pure function of (scenario, seed): every node gets an
independent RNG substream keyed by (seed, node id), so adding a node never
perturbs the draws of the others. Metrics count AP slots in
[warmup, warmup + horizon); throughput is successes / measured slots.

`run` walks that window in blocks of at most BLOCK_SLOTS AP slots. Each
measured AP slot hears each node's send from exactly one earlier slot, so a
block only needs every node's sends over one block-long range, kept at one bit
per slot: TDMA sends from the schedule, ALOHA sends from the node's generator
(its unmeasured draws skipped with `advance`), and the model-aware stream's,
one sender even for a gateway. Its policy knows every schedule, so in the
transmit branch it transmits in exactly the AP slots that no TDMA packet
reaches, read off the TDMA arrivals (`_BlockProfile`, the one builder of what
the schedules fix). Both repeat every `period` AP slots, the lcm of the
frames, so a block is cut at the largest multiple of the period that fits in
BLOCK_SLOTS (at BLOCK_SLOTS when the period is longer). So every block starts
at phase 0 of the period and shares the first block's profile, save the short
last block; a period longer than BLOCK_SLOTS builds one per block. Time is
O(horizon), plus, for a gateway of several members in the transmit branch,
O(min(warm-up, settle + 2 x period)) to count whose turn the window starts
with.

The window's blocks are cut into R = min(WORKERS, blocks) contiguous ranges,
WORKERS being the CPUs the process may use: range r takes blocks
blocks x r // R onward. The calling thread counts range 0, and R - 1 helper
threads, started for the run and joined before it returns, count the others;
the ranges' integer totals are merged in range order. A range makes its own
buffers and reads only the plans and its own fresh generators, which the
calling thread made for it, advanced to its first slot. So every generator is
drawn by exactly one thread, in slot order, and a run stays a pure function of
(scenario, seed), whatever the CPU count. A run of one block, or on one CPU,
starts no helper, and importing uwmac starts none. Memory is O(BLOCK_SLOTS x
(1 + nodes / 8)) per range, whatever the horizon and warm-up.

A run is `_plan` then `_simulate`. `_plan` does all that the scenario fixes
whatever its seed: validation, the period and block, the policy's branch
(all that the engine asks of `policies`), the first block's profile, and the
window's TDMA classes, its cross collisions and the oracle at them, held in a
`_Plan`. A window of one block reads its classes off that profile; one
counter of the classes (`_tdma_classes`) gives those of a longer window and
the gateway's decisions before the window. The part that q does not move
either, the `_Layout` that the plan holds (period, block, profile, classes
and the gateway's decisions before the window), is fixed by the TDMA nodes,
the window, the branch and the stream's member count and delay; `sweep`
hands its plans one `_Layouts` memo of them by that key, and `run` none.

`_simulate` counts lanes. A lane is a (plan, seed) pair, and the lanes of one
call share start, horizon, block and node layout; `run` is a call of one lane.
The lanes stay in the order given, and each run of lanes of one seed gets one
set of ALOHA generators. `_count_range` then counts every lane of a range in
one pass per block: each seed's generator of a node draws once, one broadcast
comparison at each lane's own q turns the draws into the sends of all that
seed's lanes, and the packing, the planes, the counts and the reduction run
once on arrays with a leading lane axis. The lanes of a plan, and the plans
of a layout, share one profile object, so a range stacks each distinct
profile once and gives each lane its rows by index into that stack. After
the ranges, every lane's successes per node come from one lanes x nodes
array: the ranges' counts, each gateway turn moved to its member by the
decisions before the range, and one `tolist`. Each report gets its own
plan's oracle.

`sweep` keeps its last valid plan: a point whose parameters other than `seed`
equal those that built it checks only its seed (`seed_errors`, the rule
`validate_scenario` applies) and reuses that plan. So a grid that lists
`seed` last builds one plan per run of seeds. Any other point builds one
scenario, `base` with all of its values applied in grid order (`_derive`),
and one plan from it. The plans share their layouts through the sweep's
memo, whose profiles hold at most BLOCK_SLOTS slots in all: a layout that
would take them past clears the memo first. The validation, the branch and
the oracle still run once per plan, so every point keeps its own error. The
valid points of one warm-up and horizon are counted together, wherever they
stand in the grid, in batches of at most BLOCK_SLOTS // min(block, horizon)
lanes. So a batch's buffers are never larger than one run's, and a batch of
several lanes has a window of one block: one range and no profile to
rebuild. Each batch is sorted by seed, so it seeds each of its distinct
seeds' ALOHA generators once, through `node_rng`, as `run` does.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (Action, AlohaRole, ContractViolation, NodeId, NodeSpec, Scenario,
                   TdmaRole, TdmaSchedule, ValidationError, is_real, seed_errors,
                   validate_scenario)
from .oracle import OracleResult, optimal_mixed
from .policies import build_model_aware_policy


BLOCK_SLOTS = 1 << 16
# the CPUs this process may run on
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


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


def _tdma_classes(tdma: Sequence, begin: int, end: int, period: int) -> tuple[int, int]:
    """(single, cross): how many of AP slots begin .. end - 1 exactly one TDMA
    packet reaches, and how many two or more. From AP slot `settle` on the
    arrivals repeat every `period` slots (the lcm of the frames), so one
    period counts for all the whole ones."""
    settle = max([begin] + [node.delay.slots for node in tdma])
    full = max(0, (end - settle) // period)
    head = end - full * period
    single = cross = 0
    # begin .. head - 1 once, then one period from head for each whole one
    for first, last, times in ((begin, head, 1), (head, head + period if full else head, full)):
        for a in range(first, last, BLOCK_SLOTS):
            block = _BlockProfile.build(tdma, False, 0, a, min(BLOCK_SLOTS, last - a))
            single += times * block.single
            cross += times * block.cross
    return single, cross


class _BlockProfile:
    """The part of a block of AP slots that the schedules alone fix, packed one
    bit per slot into rows of 64-bit words: the sends of each TDMA node, then
    of each relative turn of the model-aware stream's k members (turn j holds
    decisions j, j + k, j + 2k, ... of the block), then the two planes of the
    deterministic sender count: two or more, and one or more. Each TDMA row
    starts at the node's first arrival, AP slot = its delay, so from the
    stream's own delay on the policy's transmit branch transmits in exactly
    the slots that no TDMA row marks."""

    def __init__(self, count: int, packed: np.ndarray, k: int):
        self.count, self.packed = count, packed
        slots = np.add.reduce(np.bitwise_count(packed.view(np.uint64)), axis=1).tolist()
        self.decided = sum(slots[-2 - k:-2])
        # every slot of two or more deterministic senders is a cross collision
        self.cross, busy = slots[-2:]
        self.single = busy - self.cross - self.decided

    @classmethod
    def build(cls, tdma: Sequence, transmit: bool, k: int, first: int,
              count: int) -> _BlockProfile:
        """The profile of AP slots first .. first + count - 1, for a model-aware
        stream of k members that transmits, or stays silent, by `transmit`."""
        turns = len(tdma)   # the row of turn 0
        # whole 64-bit words of bits, zero past `count`
        packed = np.zeros((turns + k + 2, -(-count // 64) * 8), dtype=np.uint8)
        size = -(-count // 8)
        twos, ones = packed[-2, :size], packed[-1, :size]
        for row, node in enumerate(tdma):
            sends = np.packbits(node.role.schedule.sends(first - node.delay.slots, count))
            packed[row, :size] = sends
            # the sender count's planes saturate at two
            twos |= ones & sends
            ones |= sends
        if transmit:
            free = np.unpackbits(ones, count=count) == 0
            if k == 1:
                packed[turns, :size] = np.packbits(free)
            else:
                decisions = np.zeros((k, count), dtype=bool)
                positions = free.nonzero()[0]
                for turn in range(k):
                    decisions[turn, positions[turn::k]] = True
                packed[turns:turns + k, :size] = np.packbits(decisions, axis=1)
            ones |= np.packbits(free)
        return cls(count, packed, k)


class _Layout(NamedTuple):
    """The part of a plan that neither its seed nor its q fixes: what its TDMA
    nodes, window, branch and stream's member count and delay fix."""

    period: int                     # the lcm of the TDMA frames
    block: int                      # AP slots per block
    profile: _BlockProfile          # of the window's first block
    single: int                     # the window's AP slots of exactly one TDMA arrival
    cross: int                      # the window's AP slots of two or more TDMA arrivals
    sent: int                       # the stream's transmit decisions before the window


class _Plan(NamedTuple):
    """What a valid scenario fixes whatever its seed, oracle included: all of a run
    but the draws and what they decide. Ranges read it and never write it."""

    aloha: tuple                    # (id, delay slots, q) of each ALOHA node, by id
    tdma: tuple[NodeSpec, ...]
    start: int                      # the first measured AP slot
    horizon: int
    transmit: bool                  # whether the model-aware stream's policy transmits
    members: tuple[NodeId, ...]     # its members, by id
    layout: _Layout
    oracle: OracleResult | None     # at the window's classes; None without a stream


class _Layouts(dict):
    """The layouts of one `sweep`'s plans, by what fixes them. Their profiles
    hold at most BLOCK_SLOTS slots in all: one that would take them past
    clears the rest first."""

    slots = 0

    def keep(self, key: tuple, layout: _Layout) -> None:
        if self.slots + layout.profile.count > BLOCK_SLOTS:
            self.clear()
            self.slots = 0
        self[key] = layout
        self.slots += layout.profile.count


def _layout(tdma: tuple[NodeSpec, ...], start: int, horizon: int, transmit: bool,
            k: int, delay: int) -> _Layout:
    """The layout of a window of `horizon` AP slots from `start`, for a
    model-aware stream of k members at `delay` slots (k = 0 without one)."""
    # inside the window every send slot is >= 0 and below send_slots, so the
    # TDMA arrivals and the decisions repeat every `period` AP slots
    period = math.lcm(*[node.role.schedule.frame_length for node in tdma])
    block = BLOCK_SLOTS - BLOCK_SLOTS % period if period <= BLOCK_SLOTS else BLOCK_SLOTS
    profile = _BlockProfile.build(tdma, transmit, k, start, min(block, horizon))
    # a window of one block is that profile's
    single, cross = ((profile.single, profile.cross) if horizon <= block
                     else _tdma_classes(tdma, start, start + horizon, period))
    # the gateway's decisions before the window, its free AP slots, set its first turn
    sent = (start - delay - sum(_tdma_classes(tdma, delay, start, period))
            if k > 1 and transmit else 0)
    return _Layout(period, block, profile, single, cross, sent)


def _plan(scenario: Scenario, layouts: _Layouts | None = None) -> _Plan:
    """Validate `scenario` and build all of its run that does not depend on the
    seed. Its layout comes from `layouts` when they hold it, and goes there
    when they do not."""
    errors = validate_scenario(scenario)
    if errors:
        raise ValidationError(errors)
    # Python ints, so that every count of a report is one, whatever integers the scenario holds
    start, horizon = operator.index(scenario.warmup_slots), operator.index(scenario.horizon)
    tdma = scenario.tdma_nodes
    group = scenario.model_aware_nodes   # its members share one delay
    members = tuple(n.id for n in group)
    transmit = bool(members) and (build_model_aware_policy(scenario).default_action
                                  is Action.TRANSMIT)
    # all that fixes the layout, as `_layout` takes it
    key = (tdma, start, horizon, transmit, len(members), group[0].delay.slots if group else 0)
    layout = None if layouts is None else layouts.get(key)
    if layout is None:
        layout = _layout(*key)
        if layouts is not None:
            layouts.keep(key, layout)
    oracle = (optimal_mixed(layout.single / horizon, scenario.aloha_probs, layout.cross / horizon)
              if members else None)
    return _Plan(tuple((n.id, n.delay.slots, n.role.q) for n in scenario.aloha_nodes), tdma,
                 start, horizon, transmit, members, layout, oracle)


def _count_range(plans: Sequence[_Plan], begin: int, end: int, aloha: Sequence) -> list[tuple]:
    """Count AP slots begin .. end - 1 of each lane, block by block.

    Lane i is `plans[i]` at a seed; the lanes share start, horizon, block and
    node layout, and lanes lo .. hi - 1 of each (lo, hi, generators) in
    `aloha` share a seed, whose generators, one per ALOHA node and at slot
    `begin`, draw once for all of them. The range makes its own buffers, for
    blocks of up to min(block, horizon) AP slots: one node's draws, each
    lane's send flags, and each lane's packed rows of sends, a profile's
    rows after the ALOHA nodes'. Each distinct profile is stacked once, and
    each lane's rows are read from that stack by its index. Returns each
    lane's (collisions, successes per row, decisions): the rows are the
    ALOHA nodes, the TDMA nodes, then turn j of the range's decisions.
    """
    plan = plans[0]
    start, block, period = plan.start, plan.layout.block, plan.layout.period
    k = len(plan.members)
    # each distinct profile, with the first lane of it, and each lane's index among them
    firsts = {}
    at = [firsts.setdefault(lane.layout.profile, (len(firsts), lane))[0] for lane in plans]
    profiles, owners = list(firsts), [lane for _, lane in firsts.values()]
    # every lane's profile rows, from one stack of the distinct profiles, copied in at each block
    fixed_rows = np.stack([profile.packed for profile in profiles])[at]
    decisions = [profile.decided for profile in profiles]
    # each lane's q of each ALOHA node
    probs = np.array([[q for _, _, q in lane.aloha] for lane in plans])
    first_fixed = len(plan.aloha)
    fixed = first_fixed + len(plan.tdma)   # the row of turn 0
    cap = min(block, plan.horizon)
    draws, send_flags = np.empty(cap), np.empty((len(plans), cap), dtype=bool)
    # the packed rows, then the sender count's two planes, in whole 64-bit words
    packed = np.zeros((len(plans), fixed + k + 2, -(-cap // 64) * 8), dtype=np.uint8)
    words = packed.view(np.uint64)
    # the rows of sends, the plane of exactly one sender, and the rows counted
    sent_words, single, counted = words[:, :-2], words[:, -1:], words[:, :-1]
    totals = collisions = None   # the first block's counts
    decided, width = [0] * len(plans), 0
    for first in range(begin, end, block):
        n = min(block, end - first)
        # the plans' profiles serve every full block unless the period is longer than a block
        if first > start and period > block or n != profiles[0].count:
            profiles = [_BlockProfile.build(lane.tdma, lane.transmit, k, first, n)
                        for lane in owners]
            fixed_rows = np.stack([profile.packed for profile in profiles])[at]
            decisions = [profile.decided for profile in profiles]
        if n != width:   # the buffers' views for blocks of n slots
            width, size = n, -(-n // 8)
            if first > begin:
                packed[:, :, size:] = 0   # the bits that the longer blocks before left there
            draw, flags = draws[:n], send_flags[:, :n]
            aloha_views = packed[:, :first_fixed, :size]
            fixed_view = packed[:, first_fixed:, :size]
            twos, ones = packed[:, -2, :size], packed[:, -1, :size]
            # each seed's lanes' flags, and their q of each ALOHA node
            groups = [(flags[lo:hi], [probs[lo:hi, row, None] for row in range(first_fixed)],
                       generators) for lo, hi, generators in aloha]
        fixed_view[...] = fixed_rows[:, :, :size]
        for row in range(first_fixed):
            for lane_flags, q, generators in groups:
                np.less(generators[row].random(out=draw), q[row], out=lane_flags)
            sends = np.packbits(flags, axis=1)
            aloha_views[:, row] = sends
            # the sender count's planes saturate at two
            twos |= ones & sends
            ones |= sends
        ones ^= twos   # the slots of exactly one sender
        # a sender's successes are its sends in those slots
        np.bitwise_and(sent_words, single, out=sent_words)
        won = np.add.reduce(np.bitwise_count(counted), axis=2, dtype=np.uint32).tolist()
        if totals is None:   # no decision came before, so turn j is relative turn j
            collisions, totals = [counts.pop() for counts in won], won
        else:
            for lane, counts in enumerate(won):
                lane_totals = totals[lane]
                collisions[lane] += counts[-1]
                for row in range(fixed):
                    lane_totals[row] += counts[row]
                for turn in range(k):
                    lane_totals[fixed + (decided[lane] + turn) % k] += counts[fixed + turn]
        decided = [before + decisions[profile] for before, profile in zip(decided, at)]
    return list(zip(collisions, totals, decided))


def run(scenario: Scenario) -> SimReport:
    """Simulate one scenario and report measured throughput.

    Raises ValidationError listing every scenario violation. With a model-aware
    node, the closed-form optimum over the measured window's TDMA arrival
    profile is attached along with the deviation.
    """
    return _simulate([(_plan(scenario), scenario.seed)])[0]


def _simulate(lanes: Sequence[tuple[_Plan, int]]) -> list[SimReport]:
    """Count each lane, a (plan, valid seed) pair, and attach its plan's oracle.

    The lanes share start, horizon, block and node layout, and each range
    makes buffers for all of them: lanes x min(block, horizon) slots, which
    `sweep` keeps within one block. Each range seeds the ALOHA generators
    through `node_rng` once per run of lanes of equal seed, for all the lanes
    of that run, so a caller that groups its lanes by seed seeds each seed
    once. After the ranges, the lanes' successes per node are summed in one
    lanes x nodes int64 array, each range's gateway turns moved to their
    members, and read off with one `tolist`, so every count is a Python int.
    The reports come back in lane order.
    """
    plans = [plan for plan, _ in lanes]
    seeds = [(seed, len(list(same))) for seed, same in itertools.groupby(s for _, s in lanes)]
    plan = plans[0]
    start, horizon, members, block = plan.start, plan.horizon, plan.members, plan.layout.block
    # range r counts blocks blocks * r // ranges onward; the calling thread makes its generators
    blocks = -(-horizon // block)
    ranges = min(WORKERS, blocks)
    bounds = [start + blocks * r // ranges * block for r in range(ranges)] + [start + horizon]
    work = []
    for begin, end in zip(bounds, bounds[1:]):
        aloha, lo = [], 0   # (lo, hi, generators at AP slot `begin`) of each run of a seed
        for seed, count in seeds:
            generators = []
            for node_id, delay, _ in plan.aloha:
                rng = node_rng(seed, node_id)
                # arrival at AP slot a came from send slot a - d; start >= max delay,
                # and `advance` takes no numpy integer, which a delay may be
                rng.bit_generator.advance(int(begin - delay))
                generators.append(rng)
            aloha.append((lo, lo + count, generators))
            lo += count
        work.append((plans, begin, end, aloha))
    if ranges == 1:
        counted = [_count_range(*work[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor
        # leaving the `with` waits for every helper, even when range 0 fails
        with ThreadPoolExecutor(ranges - 1, thread_name_prefix="uwmac-ranges") as helpers:
            jobs = [helpers.submit(_count_range, *args) for args in work[1:]]
            counted = [_count_range(*work[0])]
        counted += [job.result() for job in jobs]

    ids = [node_id for node_id, _, _ in plan.aloha] + [node.id for node in plan.tdma]
    k, rows = len(members), len(ids)
    # each lane's successes per row, the turn rows turned into members, over all ranges
    counts, collisions = 0, [0] * len(plans)
    # transmit decision i from send slot 0 on goes to members[i mod k], and `sent`
    # of them came before each range: reduced as a Python int, as a delay may be int64
    sent = [int(plan.layout.sent) % k for plan in plans] if k > 1 else None
    each = np.arange(len(plans))[:, None]
    for lost, totals, decided in (zip(*per_lane) for per_lane in counted):
        table = np.array(totals, dtype=np.int64)
        if k > 1:   # member m takes the range's turn (m - sent) mod k
            table[:, rows:] = table[each, rows + (np.arange(k) - np.array(sent)[:, None]) % k]
            sent = [(before + count) % k for before, count in zip(sent, decided)]
        counts = counts + table
        collisions = [total + count for total, count in zip(collisions, lost)]
    # by node id, which are dense: the column of node i is the row of the i-th smallest id
    columns = ids + list(members)
    successes = counts[:, sorted(range(len(columns)), key=columns.__getitem__)]
    reports = []
    for plan, per_node, success, collision in zip(plans, successes.tolist(),
                                                  successes.sum(axis=1).tolist(), collisions):
        empirical, oracle = success / horizon, plan.oracle
        deviation = None if oracle is None else abs(empirical - oracle.optimal_throughput)
        reports.append(SimReport(
            measured_slots=horizon, successes=success, collisions=collision,
            idle=horizon - success - collision, per_node_successes=dict(enumerate(per_node)),
            empirical_throughput=empirical, warmup_slots=start,
            tdma_cross_collisions=plan.layout.cross, oracle=oracle, deviation=deviation))
    return reports


def default_tolerance(optimal_throughput: float, measured_slots: int) -> float:
    """Four-sigma binomial band around the oracle value, with a tiny floor so
    deterministic scenarios still compare cleanly."""
    t = optimal_throughput
    return 4.0 * math.sqrt(t * (1.0 - t) / measured_slots) + 1e-9


# each sweep parameter, by the kind of number it takes
SWEEP_PARAMETERS = {"q": "real", "p": "real", "horizon": "whole", "warmup": "whole",
                    "seed": "whole"}


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


def _is_whole(value) -> bool:
    """Whether `value` is a Python or numpy integer, or a float of integral value."""
    return is_real(value) and (isinstance(value, numbers.Integral)
                                or float(value).is_integer())


def _derive(base: Scenario, params: dict) -> Scenario:
    """`base` with the value of each of `params` (name: value) applied in their
    order, built as one Scenario. Raises the ValidationError of the first
    value that fails."""
    fields = {"horizon": base.horizon, "warmup": base.warmup, "seed": base.seed}
    roles = {}   # the new role of each swept role type
    for name, value in params.items():
        if name == "q":
            if not base.aloha_nodes:
                raise ValidationError("sweep parameter 'q' needs at least one ALOHA node")
            roles[AlohaRole] = AlohaRole(float(value))
        elif name == "p":
            tdma = base.tdma_nodes
            if len(tdma) != 1:
                raise ValidationError("sweep parameter 'p' needs exactly one TDMA node")
            frame = tdma[0].role.schedule.frame_length
            used = float(value) * frame
            if not 0 <= used <= frame or abs(used - round(used)) > 1e-9:
                raise ValidationError(f"p={value} is not a whole number of slots "
                                      f"in a frame of length {frame}")
            roles[TdmaRole] = TdmaRole(TdmaSchedule(frame, frozenset(range(int(round(used))))))
        else:   # sweep has already rejected every other name: horizon, warmup or seed
            fields[name] = int(value)
    nodes = tuple(NodeSpec(n.id, n.delay, roles[type(n.role)]) if type(n.role) in roles else n
                  for n in base.nodes)
    return Scenario(nodes, **fields)


def sweep(base: Scenario, grid: Sequence[tuple[str, Sequence]]) -> list[SweepPoint]:
    """Run the cross product of the grid; points are independent, and a point
    whose grid lists no `seed` takes one derived from (base seed, point index).

    A point whose parameters other than `seed` equal those that built the last
    valid plan (`_plan`) reuses it: only its seed is checked. Any other point
    builds one scenario, `base` with its values applied in grid order, and its
    plan around a layout that the sweep's memo may already hold (keyed by the
    TDMA nodes, window, branch and the stream's member count and delay; at
    most BLOCK_SLOTS profile slots in all). The valid points
    of one warm-up and horizon are counted together, wherever they stand in
    the grid, as the lanes of one `_simulate` call, up to as many as fill one
    block, sorted by seed so that each seed's lanes share its draws; the points
    stay in grid order. So the lanes that wait for a
    window's batch hold less than one block of packed profile rows.
    Grid-point failures are recorded on the point and the sweep continues.
    An unknown or repeated name, or a value of the wrong kind (`q` and `p` take
    real numbers, the others whole ones), raises ValidationError before any point runs.
    """
    grid = [(name, tuple(values)) for name, values in grid]
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
    mistyped = []
    for name, values in grid:
        kind = SWEEP_PARAMETERS[name]
        fits = is_real if kind == "real" else _is_whole
        mistyped += [f"sweep parameter {name!r} takes {kind} numbers, got {value!r}"
                     for value in values if not fits(value)]
    if mistyped:
        raise ValidationError(mistyped)
    fixed = [i for i, name in enumerate(names) if name != "seed"]
    # the last valid plan, the values but the seed it was built for, the batch
    # of its window and the lanes that fill it
    plan = key = batch = lanes = None
    layouts = _Layouts()
    points = []
    pending = {}   # (start, horizon): (index, params, plan, seed) of its points not counted yet

    def count(batch):
        batch.sort(key=operator.itemgetter(3))   # stable: each seed's lanes stand together
        reports = _simulate([(plan, seed) for _, _, plan, seed in batch])
        for (index, params, _, seed), report in zip(batch, reports):
            points[index] = SweepPoint(index, params, seed, report, None)
        batch.clear()

    for index, combo in enumerate(itertools.product(*(values for _, values in grid))):
        params = dict(zip(names, combo))
        seed = int(params["seed"]) if "seed" in params else _derive_seed(base.seed, index)
        values = [combo[i] for i in fixed]
        try:
            if values != key:
                plan = _plan(_derive(base, {**params, "seed": seed}), layouts)
                key = values
                # a batch's lanes share one window (and, as `p` keeps the frame, one
                # block), and all of them take no more slots than one block
                batch = pending.setdefault((plan.start, plan.horizon), [])
                lanes = BLOCK_SLOTS // min(plan.layout.block, plan.horizon)
            else:
                errors = seed_errors(seed)
                if errors:
                    raise ValidationError(errors)
        except (ValidationError, ContractViolation) as exc:
            points.append(SweepPoint(index, params, seed, None, str(exc)))
            continue
        points.append(None)   # counted with its plan's batch
        batch.append((index, params, plan, seed))
        if len(batch) >= lanes:
            count(batch)
    for batch in pending.values():
        if batch:
            count(batch)
    return points
