"""Workloads of the uwmac benchmark: input generators, operations and checks.

Every workload is a cycle of generated operations ("ops"). The inputs of a
cycle are scenario JSON files made from the workload seed alone; the program
only ever sees those files, loaded through `uwmac.cli.load_scenario`. Each op
calls one public entry point through its module attribute (`engine.run`,
`cli.main`, `bruteforce.certify_policy`) so that a traced run can wrap it.

Why these four workloads:

- tdma_gateway: building the forbidden-slot set in `policies` dominates
  `run`, so a change to the policy representation shows here.
- aloha_crowd: per-node RNG draws and the shift-and-count step dominate and
  `policies` is negligible; the masks and draws exceed the L2 cache, so a
  streaming engine shows here and a policy change does not.
- sweep_short: 192 short runs through the command line; fixed per-point costs
  (validation, scenario rebuilds, generator construction, oracle, CSV) dominate.
- certify_grid: the only workload that reaches `bruteforce`; small ALOHA
  counts exercise the 2^H sequence enumeration, large ones the 2^N subsets.
"""
from __future__ import annotations

import csv
import dataclasses
import enum
import hashlib
import io
import json
import math
import random
from pathlib import Path

from uwmac import bruteforce, cli, engine, oracle

# |empirical - oracle| must lie within this many binomial standard deviations;
# at 6 sigma a correct engine fails about once in 5e8 runs.
BAND_SIGMAS = 6.0
CERTIFICATE_TOLERANCE = 1e-12

# SimReport fields that the golden digest covers: every field the report has
# today. Naming them keeps the digest stable if a later change adds a field.
REPORT_FIELDS = ("measured_slots", "successes", "collisions", "idle",
                 "per_node_successes", "empirical_throughput", "warmup_slots",
                 "tdma_cross_collisions", "oracle", "deviation")


def _plain(value):
    """JSON-ready form of a report value; floats keep every digit."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def report_digest(report) -> str:
    doc = {name: _plain(getattr(report, name)) for name in REPORT_FIELDS}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def band(expected: float, slots: int) -> float:
    """Allowed |empirical - expected| over `slots` independent slots."""
    return BAND_SIGMAS * math.sqrt(max(expected * (1.0 - expected), 0.0) / slots) + 1e-9


def _node(node_id: int, delay: int, role: dict) -> dict:
    return {"id": node_id, "delay_slots": delay, "role": role}


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1))
    return path


def _load(path: Path):
    scenario, errors = cli.load_scenario(str(path))
    if errors or scenario is None:
        raise ValueError(f"generated input {path} is invalid: {errors}")
    return scenario


class _ScenarioOp:
    """An op on one scenario, loaded from its generated file before timing."""

    def __init__(self, index: int, path: Path):
        self.index = index
        self.path = path
        self.scenario = None

    def load(self) -> None:
        self.scenario = _load(self.path)

    def finish(self, raw):
        return raw


class RunOp(_ScenarioOp):
    """One `engine.run` call on a generated scenario."""

    @property
    def slots(self) -> int:
        return self.scenario.horizon

    def execute(self):
        return engine.run(self.scenario)

    def check(self, report) -> list[str]:
        errors = []
        if report.successes + report.collisions + report.idle != report.measured_slots:
            errors.append("successes + collisions + idle != measured_slots")
        if sum(report.per_node_successes.values()) != report.successes:
            errors.append("per-node successes do not sum to successes")
        if report.measured_slots != self.scenario.horizon:
            errors.append("measured_slots != horizon")
        if report.oracle is None:
            errors.append("no oracle attached although TDMA arrivals do not overlap")
        else:
            expected = report.oracle.optimal_throughput
            if abs(report.empirical_throughput - expected) > band(expected, report.measured_slots):
                errors.append(f"empirical {report.empirical_throughput!r} outside the "
                              f"{BAND_SIGMAS:g}-sigma band around oracle {expected!r}")
        return errors

    def digest(self, report) -> str:
        return report_digest(report)


class SweepOp:
    """One in-process `uwmac sweep` command writing CSV to a file."""

    def __init__(self, index: int, path: Path, grid: list[str], points: int,
                 horizon: int, out: Path):
        self.index = index
        self.path = path
        self.points = points
        self.horizon = horizon
        self.out = out
        self.grid = grid
        # the widest 6-sigma band of any point, so exit code 1 means a real miss
        self.argv = ["sweep", "--scenario", str(path), "--out", str(out),
                     "--tolerance", repr(band(0.5, horizon))]
        for spec in grid:
            self.argv += ["--sweep", spec]

    def load(self) -> None:
        _load(self.path)

    @property
    def slots(self) -> int:
        return self.points * self.horizon

    def execute(self):
        return cli.main(self.argv)

    def finish(self, code):
        return code, self.out.read_bytes()

    def check(self, result) -> list[str]:
        code, data = result
        errors = [] if code == 0 else [f"sweep exited {code}"]
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if len(rows) != self.points:
            errors.append(f"{len(rows)} CSV rows, expected {self.points}")
        for row in rows:
            if row["status"] != "ok":
                errors.append(f"row {row['scenario_id']}: status {row['status']!r}")
                continue
            counts = int(row["successes"]) + int(row["collisions"]) + int(row["idle"])
            if counts != int(row["measured_slots"]):
                errors.append(f"row {row['scenario_id']}: slot counts do not add up")
            expected = float(row["oracle"])
            if abs(float(row["empirical"]) - expected) > band(expected, self.horizon):
                errors.append(f"row {row['scenario_id']}: outside the oracle band")
        return errors

    def digest(self, result) -> str:
        return hashlib.sha256(result[1]).hexdigest()


class CertifyOp(_ScenarioOp):
    """One `bruteforce.certify_policy` call on a short-horizon scenario."""

    @property
    def slots(self) -> int:
        # every slot of every enumerated sequence
        return (1 << self.scenario.horizon) * self.scenario.horizon

    def execute(self):
        return bruteforce.certify_policy(self.scenario)

    def check(self, cert) -> list[str]:
        errors = [] if cert.matches else ["certificate does not match"]
        closed = oracle.optimal_mixed(cert.tdma_window_fraction,
                                      self.scenario.aloha_probs).optimal_throughput
        for name in ("best_value", "policy_value", "oracle_value"):
            if abs(getattr(cert, name) - closed) > CERTIFICATE_TOLERANCE:
                errors.append(f"{name} {getattr(cert, name)!r} != optimal_mixed {closed!r}")
        return errors

    def digest(self, cert):
        return None


def _tdma_gateway(rng: random.Random, workdir: Path, horizon: int):
    ops = []
    for k in range(8):
        ma_delay = rng.randint(0, 3)
        nodes = [_node(i, ma_delay, {"model_aware": {"gateway_member": True}})
                 for i in range(3)]
        # two TDMA nodes whose AP arrivals fall on different frame residues
        d3, d4 = rng.randint(0, 6), rng.randint(0, 6)
        o3 = rng.randrange(5)
        taken = (o3 + d3) % 5
        o4 = rng.choice([o for o in range(5) if (o + d4) % 5 != taken])
        nodes += [_node(3, d3, {"tdma": {"frame_length": 5, "assigned": [o3]}}),
                  _node(4, d4, {"tdma": {"frame_length": 5, "assigned": [o4]}})]
        # six ops take the transmit branch (z > 0) and two the silent one, so
        # the median op falls well inside the transmit cluster
        lo, hi = (0.05, 0.3) if k % 4 != 3 else (0.55, 0.95)
        nodes += [_node(i, rng.randint(0, 6), {"aloha": {"q": round(rng.uniform(lo, hi), 4)}})
                  for i in (5, 6)]
        doc = {"nodes": nodes, "horizon": horizon, "seed": rng.getrandbits(32)}
        ops.append(RunOp(k, _write(workdir / f"tdma_gateway-{k}.json", doc)))
    return ops


def _aloha_crowd(rng: random.Random, workdir: Path, horizon: int):
    ops = []
    for k in range(8):
        nodes = [_node(0, rng.randint(0, 6), {"model_aware": {}})]
        nodes += [_node(i, rng.randint(0, 6), {"aloha": {"q": round(rng.uniform(0.002, 0.03), 4)}})
                  for i in range(1, 49)]
        doc = {"nodes": nodes, "horizon": horizon, "seed": rng.getrandbits(32)}
        ops.append(RunOp(k, _write(workdir / f"aloha_crowd-{k}.json", doc)))
    return ops


def _sweep_short(rng: random.Random, workdir: Path, horizon: int):
    ops = []
    for k in range(8):
        nodes = [_node(0, rng.randint(0, 3), {"model_aware": {}}),
                 _node(1, rng.randint(0, 6), {"tdma": {"frame_length": 10, "assigned": [0]}}),
                 _node(2, rng.randint(0, 6), {"aloha": {"q": 0.1}}),
                 _node(3, rng.randint(0, 6), {"aloha": {"q": 0.1}})]
        doc = {"nodes": nodes, "horizon": horizon, "seed": rng.getrandbits(32)}
        # q values on both sides of the z = 0 threshold, so both branches run
        qs = ([round(rng.uniform(0.02, 0.3), 3) for _ in range(4)]
              + [round(rng.uniform(0.55, 0.95), 3) for _ in range(4)])
        ps = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        seeds = [rng.getrandbits(32) for _ in range(4)]
        grid = ["q=" + ",".join(map(str, qs)), "p=" + ",".join(map(str, ps)),
                "seed=" + ",".join(map(str, seeds))]
        ops.append(SweepOp(k, _write(workdir / f"sweep_short-{k}.json", doc), grid,
                           len(qs) * len(ps) * len(seeds), horizon,
                           workdir / f"sweep_short-{k}.csv"))
    return ops


def _certify_grid(rng: random.Random, workdir: Path, horizon: int):
    ops = []
    for n_aloha in range(15):
        frame = rng.randint(3, 6)
        assigned = sorted(rng.sample(range(frame), rng.randint(1, 2)))
        nodes = [_node(0, rng.randint(0, 3), {"model_aware": {}}),
                 _node(1, rng.randint(0, 4), {"tdma": {"frame_length": frame,
                                                       "assigned": assigned}})]
        nodes += [_node(i, rng.randint(0, 4), {"aloha": {"q": round(rng.uniform(0.01, 0.5), 4)}})
                  for i in range(2, 2 + n_aloha)]
        doc = {"nodes": nodes, "horizon": horizon, "seed": rng.getrandbits(32)}
        ops.append(CertifyOp(n_aloha, _write(workdir / f"certify_grid-{n_aloha}.json", doc)))
    return ops


# name -> (generator, horizon in measured slots)
WORKLOADS = {
    "tdma_gateway": (_tdma_gateway, 1_000_000),
    "aloha_crowd": (_aloha_crowd, 1_000_000),
    "sweep_short": (_sweep_short, 500),
    "certify_grid": (_certify_grid, 16),
}


def build(name: str, seed: int, workdir: Path, horizon: int | None = None) -> list:
    """Write the input files of one cycle of `name` and return its ops.

    The same (name, seed) always gives the same inputs; `horizon` overrides
    the workload's size for tests.
    """
    generate, default_horizon = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return generate(rng, workdir, default_horizon if horizon is None else horizon)
