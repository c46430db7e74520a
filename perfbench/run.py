"""uwmac benchmark: one workload per process, closed loop, every output checked.

    python3 perfbench/run.py --workload tdma_gateway --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # the four workloads in turn

Generates the workload's inputs from --seed, measures set-up time in fresh
interpreters, then runs ops back to back (each starts when the previous one
returned) for --seconds, checking every output. With --trace 0 the last line
of standard output is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
GOLDEN = HERE / "golden.json"
WORKLOAD_NAMES = ("tdma_gateway", "aloha_crowd", "sweep_short", "certify_grid")
DEFAULT_SEED = 1
SETUP_RUNS = 9
TAIL_BEYOND = 10
REF_LOOP = 50_000
REF_PASSES = 25
REF_SECONDS = 0.010  # the reference work's time at reference speed
SPEED_EVERY = 0.25   # seconds between host-speed samples
REF_STARTUP_SECONDS = 0.15  # BARE_CHILD's start-up time at reference speed
MB = 1e6

# A fresh interpreter imports the package and loads and validates the first
# input, then reports ready.
SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import uwmac, uwmac.cli
scenario, errors = uwmac.cli.load_scenario(sys.argv[2])
print("ready" if scenario is not None and not errors else "invalid", flush=True)
"""
# The reference for set-up times: a fresh interpreter that only imports numpy.
BARE_CHILD = """\
import numpy
print("ready", flush=True)
"""


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter and array work, which tracks
    the host's current speed for both kinds of code."""
    import numpy

    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    codes = numpy.arange(1 << 16, dtype=numpy.uint32)
    values = numpy.zeros(codes.shape)
    for bit in range(REF_PASSES):
        values += numpy.where((codes >> (bit % 16)) & 1 == 1, 0.25, 0.5)
    return time.perf_counter() - t0


@dataclass
class Measurement:
    """Op wall times, host-speed factors and slot counts of one closed-loop phase.

    A shared host's speed drifts by up to 1.5x over seconds and every op slows
    with it. The reference work, timed every SPEED_EVERY seconds between ops,
    tracks the drift: an op's wall time times REF_SECONDS over the mean
    reference time around it is its time at reference speed. Every reported
    time is scaled so; the unscaled median is printed alongside.
    """

    wall: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    slots: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def scaled(self) -> list[float]:
        return [w * f for w, f in zip(self.wall, self.speed)]

    def p50_ms(self) -> float:
        return statistics.median(self.scaled()) * 1e3

    def tail(self) -> tuple[float, float, int]:
        """(ms, percentile, samples beyond): the highest percentile of op time
        with at least TAIL_BEYOND samples above it (the maximum if too few)."""
        ordered = sorted(self.scaled())
        n = len(ordered)
        beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
        return ordered[n - 1 - beyond] * 1e3, 100.0 * (n - beyond) / n, beyond

    def ns_per_slot(self) -> float:
        return statistics.median(t / s for t, s in zip(self.scaled(), self.slots)) * 1e9


def check(op, raw, golden: list | None) -> list[str]:
    result = op.finish(raw)
    errors = op.check(result)
    if golden is not None:
        digest = op.digest(result)
        if digest is not None and digest != golden[op.index]:
            errors.append(f"digest {digest} differs from the golden {golden[op.index]}")
    return errors


def measure(ops, seconds: float, golden: list | None, tracer=None) -> Measurement:
    """Closed loop over the op cycle for at least `seconds` and one full cycle."""
    result = Measurement()
    # keep the benchmark's own objects out of the collector's full scans
    gc.collect()
    gc.freeze()
    start = last_ref = time.perf_counter()
    ref_before = reference_seconds()
    pending = 0
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            raw = op.execute()
        except Exception as exc:  # a raising op counts as failed; keep measuring
            raw, errors = None, [f"raised {type(exc).__name__}: {exc}"]
        else:
            errors = None
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        if errors is None:
            try:
                errors = check(op, raw, golden)
            except Exception as exc:  # malformed output
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        result.wall.append(elapsed)
        result.slots.append(op.slots)
        result.attempted += 1
        if errors:
            result.failed += 1
            print(f"op {op.index} failed: {'; '.join(errors[:3])}", file=sys.stderr)
        i += 1
        pending += 1
        if time.perf_counter() - last_ref >= SPEED_EVERY:
            ref_before = _close_batch(result, pending, ref_before)
            pending = 0
            last_ref = time.perf_counter()
    if pending:
        _close_batch(result, pending, ref_before)
    return result


def _close_batch(result: Measurement, pending: int, ref_before: float) -> float:
    """Give the last `pending` ops the speed factor of the reference times
    around them; return the new reference time."""
    ref_after = reference_seconds()
    result.speed += [2 * REF_SECONDS / (ref_before + ref_after)] * pending
    return ref_after


def _spawn_seconds(argv: list[str]) -> float:
    """Seconds from spawning `argv` until it prints ready; waits for its exit."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if line.strip() != b"ready" or child.returncode != 0:
        raise RuntimeError(f"set-up child failed: {line!r}, exit {child.returncode}")
    return elapsed


def setup_seconds(first_input: Path) -> float:
    """Median set-up time at reference speed over SETUP_RUNS fresh interpreters.

    Most of the set-up is interpreter start and the numpy import, which drift
    with the host differently from the reference work, so each set-up time is
    scaled by REF_STARTUP_SECONDS over the mean time of the two spawns around
    it that only import numpy. One untimed spawn of each first fills the
    bytecode and page caches.
    """
    python = [sys.executable, "-I", "-c"]
    setup = python + [SETUP_CHILD, str(SRC), str(first_input)]
    bare = python + [BARE_CHILD]
    _spawn_seconds(setup)
    ref_before = _spawn_seconds(bare)
    times = []
    for _ in range(SETUP_RUNS):
        elapsed = _spawn_seconds(setup)
        ref_after = _spawn_seconds(bare)
        times.append(elapsed * 2 * REF_STARTUP_SECONDS / (ref_before + ref_after))
        ref_before = ref_after
    return statistics.median(times)


def trace_sites():
    """(module, attribute, span name, on_result) for every traced call site:
    each public function is wrapped where its caller looks it up."""
    from uwmac import bruteforce, cli, engine, policies

    def forbidden(tracer, args, kwargs, policy):
        tracer.count("policies.forbidden_slots", len(policy.forbidden_send_slots))

    def node_slots(tracer, args, kwargs, report):
        scenario = args[0] if args else kwargs["scenario"]
        tracer.count("engine.node_send_slots", len(scenario.nodes) * scenario.total_send_slots)

    def sequences(tracer, args, kwargs, result):
        tracer.count("bruteforce.sequences", 1 << len(result[0]))

    def rows(tracer, args, kwargs, points):
        tracer.count("cli.csv_rows", len(points))

    return [
        (engine, "run", "engine.run", node_slots),
        (engine, "validate_scenario", "core.validate_scenario", None),
        (engine, "build_model_aware_policy", "policies.build_model_aware_policy", forbidden),
        (engine, "optimal_mixed", "oracle.optimal_mixed", None),
        (engine, "node_rng", "engine.node_rng", None),
        (policies, "compute_forbidden_send_slots", "policies.compute_forbidden_send_slots", None),
        (bruteforce, "certify_policy", "bruteforce.certify_policy", None),
        (bruteforce, "enumerate_optimal", "bruteforce.enumerate_optimal", sequences),
        (bruteforce, "exact_expected_throughput", "bruteforce.exact_expected_throughput", None),
        (bruteforce, "policy_sequence", "bruteforce.policy_sequence", None),
        (bruteforce, "build_model_aware_policy", "policies.build_model_aware_policy", forbidden),
        (bruteforce, "optimal_mixed", "oracle.optimal_mixed", None),
        (bruteforce, "validate_scenario", "core.validate_scenario", None),
        (cli, "main", "cli.main", None),
        (cli, "load_scenario", "cli.load_scenario", None),
        (cli, "sweep", "engine.sweep", rows),
        (cli, "run", "engine.run", node_slots),
        (cli, "validate_scenario", "core.validate_scenario", None),
        (cli, "certify_policy", "bruteforce.certify_policy", None),
    ]


def layer_metrics(spans, counts: dict, ops: int, memory_spans, untraced_p50_ms: float,
                  traced_p50_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase; times and counts are per op.
    Peaks come from `memory_spans`, recorded with tracemalloc on."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    peak: dict[str, int] = {}
    for s in memory_spans:
        peak[s.name] = max(peak.get(s.name, 0), s.peak_bytes)
    policy_in_run = 0.0
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + selfs[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        if (s.name == "policies.build_model_aware_policy" and s.parent is not None
                and by_id[s.parent].name == "engine.run"):
            policy_in_run += s.end - s.start

    def ms(name):
        return total.get(name, 0.0) * 1e3 / ops, "ms/op"

    def self_ms(name):
        return own.get(name, 0.0) * 1e3 / ops, "ms/op"

    def n_calls(name):
        return calls.get(name, 0) / ops, "calls/op"

    def count(name, unit):
        return counts.get(name, 0) / ops, unit

    node_slots = counts.get("engine.node_send_slots", 0)
    run_s = total.get("engine.run", 0.0)
    return {
        "policies.build_model_aware_policy.calls":
            n_calls("policies.build_model_aware_policy"),
        "policies.build_model_aware_policy.self_ms": self_ms("policies.build_model_aware_policy"),
        "policies.compute_forbidden_send_slots.ms": ms("policies.compute_forbidden_send_slots"),
        "policies.peak_mb": (peak.get("policies.build_model_aware_policy", 0) / MB, "MB"),
        "policies.forbidden_slots": count("policies.forbidden_slots", "slots/op"),
        "policies.share_of_run": (policy_in_run / run_s if run_s else 0.0, "ratio"),
        "engine.run.calls": n_calls("engine.run"),
        "engine.run.self_ms": self_ms("engine.run"),
        "engine.run.peak_mb": (peak.get("engine.run", 0) / MB, "MB"),
        "engine.node_rng.calls": n_calls("engine.node_rng"),
        "engine.node_send_slots": count("engine.node_send_slots", "slots/op"),
        "engine.self_ns_per_node_slot":
            (own.get("engine.run", 0.0) * 1e9 / node_slots if node_slots else 0.0, "ns"),
        "engine.sweep.self_ms": self_ms("engine.sweep"),
        "core.validate_scenario.calls": n_calls("core.validate_scenario"),
        "core.validate_scenario.ms": ms("core.validate_scenario"),
        "oracle.optimal_mixed.calls": n_calls("oracle.optimal_mixed"),
        "oracle.optimal_mixed.ms": ms("oracle.optimal_mixed"),
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.load_scenario.ms": ms("cli.load_scenario"),
        "cli.csv_rows": count("cli.csv_rows", "rows/op"),
        "bruteforce.certify_policy.self_ms": self_ms("bruteforce.certify_policy"),
        "bruteforce.enumerate_optimal.ms": ms("bruteforce.enumerate_optimal"),
        "bruteforce.exact_expected_throughput.ms": ms("bruteforce.exact_expected_throughput"),
        "bruteforce.policy_sequence.ms": ms("bruteforce.policy_sequence"),
        "bruteforce.sequences": count("bruteforce.sequences", "sequences/op"),
        "trace.overhead_pct": (100.0 * (traced_p50_ms / untraced_p50_ms - 1.0), "%"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all: each in a fresh process in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="closed-loop measuring time (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    return parser.parse_args(argv)


def _load_golden(workload: str, seed: int) -> list | None:
    doc = json.loads(GOLDEN.read_text())
    return doc["workloads"].get(workload) if seed == doc["seed"] else None


def _print_result(phases: list[Measurement], metrics: dict) -> None:
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"  error_rate {failed / attempted:g} ({failed} of {attempted} ops failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(args) -> int:
    """Run every workload in its own fresh process, one after another, and
    print one result whose metric names are prefixed by the workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def traced_phase(ops, seconds: float, golden: list | None, memory: bool):
    """Closed loop with every trace site wrapped; `memory` adds tracemalloc,
    which slows allocation-heavy code, so its times are not reported."""
    tracer = Tracer()
    if memory:
        tracemalloc.start()
    tracer.install(trace_sites())
    try:
        return tracer, measure(ops, seconds, golden, tracer=tracer)
    finally:
        tracer.uninstall()
        if memory:
            tracemalloc.stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    # a single-threaded process: pin native thread pools before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "uwmac" / "__init__.py").is_file():
        print(f"error: no uwmac sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import numpy
    import uwmac
    if Path(uwmac.__file__).resolve().parent != (SRC / "uwmac").resolve():
        print(f"error: imported uwmac from {uwmac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    print(f"uwmac benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; nproc {os.cpu_count()}, "
          f"Python {sys.version.split()[0]}, numpy {numpy.__version__}")
    golden = _load_golden(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        ops = workloads.build(args.workload, args.seed, Path(tmp))
        setup_s = setup_seconds(ops[0].path) if args.trace == 0 else None
        for op in ops:
            op.load()
        phases = [measure(ops[:1], 0.0, golden)]  # warm-up, not reported
        if args.trace == 0:
            timed = measure(ops, args.seconds, golden)
            phases.append(timed)
            tail_ms, pct, beyond = timed.tail()
            print(f"  {len(timed.wall)} timed ops; op_ms_tail is p{pct:.2f} "
                  f"({beyond} of {len(timed.wall)} samples beyond); unscaled wall "
                  f"op p50 {statistics.median(timed.wall) * 1e3:.6g} ms at a median "
                  f"speed factor of {statistics.median(timed.speed):.4g}")
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_ms_p50": (timed.p50_ms(), "ms"),
                "op_ms_tail": (tail_ms, "ms"),
                "ns_per_slot": (timed.ns_per_slot(), "ns"),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
                                "MB"),
            }
        else:
            untraced = measure(ops, args.seconds / 2, golden)
            timing, traced = traced_phase(ops, args.seconds / 2, golden, memory=False)
            memory, one_cycle = traced_phase(ops, 0.0, golden, memory=True)
            phases += [untraced, traced, one_cycle]
            (WORK / "spans").mkdir(exist_ok=True)
            stem = WORK / "spans" / f"{args.workload}-seed{args.seed}"
            timing.write(stem.with_suffix(".jsonl"))
            memory.write(stem.with_suffix(".memory.jsonl"))
            print(f"  {len(untraced.wall)} untraced, {len(traced.wall)} traced and "
                  f"{len(one_cycle.wall)} memory-traced ops; spans written to "
                  f"{stem.relative_to(ROOT)}.jsonl and .memory.jsonl")
            metrics = layer_metrics(timing.spans, timing.counts, len(traced.wall),
                                    memory.spans, untraced.p50_ms(), traced.p50_ms())
    _print_result(phases, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
