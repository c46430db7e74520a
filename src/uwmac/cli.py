"""Command line front end: scenario files in, reports and CSV out.

Exit codes: 0 success, 1 comparison or certificate failure, 2 input error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .bruteforce import (ENUMERATION_HORIZON_LIMIT, HorizonLimitError,
                         certify_policy, exact_expected_throughput,
                         policy_sequence, ActionSequence)
from .core import (Action, AlohaRole, ContractViolation, Delay, ModelAwareRole,
                   NodeSpec, Scenario, TdmaRole, TdmaSchedule, ValidationError,
                   delay_from_distance, is_real, validate_scenario)
from .engine import SWEEP_PARAMETERS, default_tolerance, run, sweep

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2

CSV_COLUMNS = ["scenario_id", "seed", "measured_slots", "successes", "collisions",
               "idle", "empirical", "oracle", "branch", "z", "deviation",
               "tolerance", "pass", "tdma_cross_collisions", "status"]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _construct(errors: list[str], path: str, make, *args):
    """Call a validating constructor, filing each range error under `path`."""
    try:
        return make(*args)
    except ValidationError as exc:
        errors.extend(f"{path}: {message}" for message in exc.errors)
        return None


def _parse_role(doc, path: str, errors: list[str]):
    if not isinstance(doc, dict) or len(doc) != 1:
        errors.append(f"{path}: expected an object with exactly one of "
                      f"tdma, aloha, model_aware")
        return None
    kind, body = next(iter(doc.items()))
    if kind not in ("tdma", "aloha", "model_aware"):
        errors.append(f"{path}.{kind}: unknown role (expected tdma, aloha or model_aware)")
        return None
    if not isinstance(body, dict):
        errors.append(f"{path}.{kind}: expected an object")
        return None
    if kind == "tdma":
        frame = body.get("frame_length")
        assigned = body.get("assigned")
        ok = True
        if not _is_int(frame):
            errors.append(f"{path}.tdma.frame_length: expected an integer")
            ok = False
        if not isinstance(assigned, list) or not all(_is_int(o) for o in assigned):
            errors.append(f"{path}.tdma.assigned: expected a list of integers")
            ok = False
        schedule = (_construct(errors, f"{path}.tdma", TdmaSchedule, frame,
                               frozenset(assigned)) if ok else None)
        return None if schedule is None else TdmaRole(schedule)
    if kind == "aloha":
        q = body.get("q")
        if not is_real(q):
            errors.append(f"{path}.aloha.q: expected a number")
            return None
        return _construct(errors, f"{path}.aloha.q", AlohaRole, q)
    member = body.get("gateway_member", True)
    if not isinstance(member, bool):
        errors.append(f"{path}.model_aware.gateway_member: expected a boolean")
        return None
    return ModelAwareRole(member)


GEOMETRY_KEYS = ("distance_m", "sound_speed_mps", "slot_duration_s")


def _parse_delay(doc, path: str, errors: list[str]):
    has_slots = "delay_slots" in doc
    has_geometry = "geometry" in doc
    if has_slots == has_geometry:
        errors.append(f"{path}: exactly one of delay_slots or geometry is required")
        return None
    if has_slots:
        slots = doc["delay_slots"]
        if not _is_int(slots):
            errors.append(f"{path}.delay_slots: expected an integer")
            return None
        return _construct(errors, f"{path}.delay_slots", Delay, slots)
    geometry = doc["geometry"]
    if not isinstance(geometry, dict):
        errors.append(f"{path}.geometry: expected an object")
        return None
    untyped = [key for key in GEOMETRY_KEYS if not is_real(geometry.get(key))]
    if untyped:
        errors.extend(f"{path}.geometry.{key}: expected a number" for key in untyped)
        return None
    return _construct(errors, f"{path}.geometry", delay_from_distance,
                      *(geometry[key] for key in GEOMETRY_KEYS))


def parse_scenario(doc) -> tuple[Scenario | None, list[str]]:
    """Build a Scenario from a decoded JSON document, collecting every schema
    violation with its field path."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return None, ["top level: expected an object"]
    nodes_doc = doc.get("nodes")
    nodes = []
    if not isinstance(nodes_doc, list) or not nodes_doc:
        errors.append("nodes: expected a non-empty list")
    else:
        for i, node_doc in enumerate(nodes_doc):
            path = f"nodes[{i}]"
            if not isinstance(node_doc, dict):
                errors.append(f"{path}: expected an object")
                continue
            node_id = node_doc.get("id")
            if not _is_int(node_id) or node_id < 0:
                errors.append(f"{path}.id: expected a nonnegative integer")
                node_id = None
            delay = _parse_delay(node_doc, path, errors)
            role = _parse_role(node_doc.get("role"), f"{path}.role", errors)
            if node_id is not None and delay is not None and role is not None:
                nodes.append(NodeSpec(node_id, delay, role))

    horizon = doc.get("horizon")
    if not _is_int(horizon) or horizon < 1:
        errors.append("horizon: expected a positive integer")
    warmup = doc.get("warmup")
    if warmup is not None and (not _is_int(warmup) or warmup < 0):
        errors.append("warmup: expected a nonnegative integer")
        warmup = None
    seed = doc.get("seed")
    if not _is_int(seed) or not 0 <= seed < 2 ** 64:
        errors.append("seed: expected an unsigned 64-bit integer")

    if errors:
        return None, errors
    scenario = Scenario(tuple(nodes), horizon, warmup, seed)
    return scenario, validate_scenario(scenario)


def load_scenario(path: str, slots: int | None = None, warmup: int | None = None,
                  seed: int | None = None) -> tuple[Scenario | None, list[str]]:
    """Read and validate a scenario file. Each override that is not None
    replaces its field of the file (`slots` its horizon) before the one
    validation, so a bad override is reported under the field's path, with
    every other error, and a good one stands in for a bad file value."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        return None, [f"cannot read {path}: {exc}"]
    # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an integer
    # beyond Python's digit limit; deep nesting overflows the decoder's stack
    except (ValueError, RecursionError) as exc:
        return None, [f"{path} is not valid JSON: {exc}"]
    if isinstance(doc, dict):
        overrides = {"horizon": slots, "warmup": warmup, "seed": seed}
        doc.update((key, value) for key, value in overrides.items() if value is not None)
    return parse_scenario(doc)


def _cell(value):
    """A bool spelled out, a float as its repr, anything else as it is. The
    CSV writer writes a Python float by repr too, so `_rows` uses this for
    the verdict and to render a float that a run of points shares once."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else value


def _write_csv(out_path: str | None, fieldnames: list[str], rows: list[list]) -> None:
    """Write rows as `_rows` renders them, each a list in the order of
    `fieldnames`, to out_path, or to stdout when it is None."""
    with (contextlib.nullcontext(sys.stdout) if out_path is None
          else open(out_path, "w", newline="")) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(rows)


def _rows(entries, tolerance: float | None) -> tuple[list[list], bool]:
    """The CSV row of each (params, scenario id, seed, report, error), as a
    list in column order: the swept `params`, then CSV_COLUMNS; and whether
    every report passed. The report is None when `error` stopped its point.
    With an oracle, a report passes when its deviation is at most `tolerance`
    (None for the four-sigma default). This is the one renderer of cells,
    so the CSV writer writes the rows as they are: each cell is None, a str,
    an int or a Python float, which the writer writes by repr, and the
    verdict is spelled out by `_cell`. The cells that the oracle fixes are
    rendered by `_cell` once for a run of points that share their plan's
    oracle."""
    rows, passed, oracle, slots = [], True, None, None
    for params, scenario_id, seed, report, error in entries:
        if report is None:
            rows.append([*params, scenario_id, seed, *[None] * (len(CSV_COLUMNS) - 3),
                         f"error: {error}"])
            continue
        row = [*params, scenario_id, seed, report.measured_slots, report.successes,
               report.collisions, report.idle, report.empirical_throughput]
        if report.oracle is None:
            row += [None] * 6 + [report.tdma_cross_collisions, "oracle-na"]
        else:
            if report.oracle is not oracle or report.measured_slots != slots:
                oracle, slots = report.oracle, report.measured_slots
                limit = (default_tolerance(oracle.optimal_throughput, slots)
                         if tolerance is None else tolerance)
                shared = (_cell(oracle.optimal_throughput), oracle.chosen_branch.value,
                          _cell(oracle.z_value))
                shown = _cell(limit)
            verdict = report.deviation <= limit
            passed &= verdict
            row += [*shared, report.deviation, shown, _cell(verdict),
                    report.tdma_cross_collisions, "ok"]
        rows.append(row)
    return rows, passed


def _input_error(errors: list[str]) -> int:
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _load_for_simulation(args) -> tuple[Scenario | None, list[str]]:
    """Scenario of run and sweep, plus any --tolerance or --out error, all
    found before anything is simulated."""
    scenario, errors = load_scenario(args.scenario, args.slots, args.warmup, args.seed)
    tolerance = args.tolerance
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0):
        errors = [*errors, f"--tolerance: expected a positive finite number, got {tolerance}"]
    if args.out is not None:
        out = Path(args.out)
        if not out.parent.is_dir():
            errors = [*errors, f"--out: {str(out.parent)!r} is not a directory"
                      if out.parent.exists()
                      else f"--out: directory {str(out.parent)!r} does not exist"]
        elif out.is_dir():
            errors = [*errors, f"--out: {args.out!r} is a directory, not a file"]
    return scenario, errors


def _cmd_run(args) -> int:
    scenario, errors = _load_for_simulation(args)
    if errors or scenario is None:
        return _input_error(errors)
    report = run(scenario)
    scenario_id = Path(args.scenario).stem
    (row,), passed = _rows([([], scenario_id, scenario.seed, report, None)], args.tolerance)

    print(f"scenario: {scenario_id} (seed {scenario.seed})")
    print(f"nodes: {len(scenario.model_aware_nodes)} model-aware, "
          f"{scenario.num_tdma} tdma (p={scenario.tdma_frame_ratio:.4g}), "
          f"{scenario.num_aloha} aloha")
    print(f"measured slots: {report.measured_slots} (warm-up {report.warmup_slots})")
    print(f"successes / collisions / idle: {report.successes} / "
          f"{report.collisions} / {report.idle}")
    print(f"empirical throughput: {report.empirical_throughput:.6f}")
    if report.tdma_cross_collisions > 0:
        print(f"warning: {report.tdma_cross_collisions} AP slots saw overlapping "
              f"TDMA arrivals", file=sys.stderr)
    if report.oracle is None:
        print("oracle: not applicable")
    else:
        print(f"oracle optimal: {report.oracle.optimal_throughput!r} "
              f"({report.oracle.chosen_branch.value} branch, z={report.oracle.z_value!r})")
        tolerance = row[CSV_COLUMNS.index("tolerance")]   # rendered as the CSV holds it
        verdict = "PASS" if passed else "FAIL"
        print(f"deviation: {report.deviation!r} (tolerance {tolerance}) -> {verdict}")
    if args.out:
        _write_csv(args.out, CSV_COLUMNS, [row])
    return EXIT_OK if passed else EXIT_FAILED


def _parse_grid(specs: list[str]) -> tuple[list[tuple[str, list]], list[str]]:
    grid = []
    errors = []
    for spec in specs:
        name, sep, rest = spec.partition("=")
        name = name.strip()
        if not sep or not name or not rest.strip():
            errors.append(f"--sweep {spec!r}: expected name=v1,v2,...")
            continue
        values = []
        whole = SWEEP_PARAMETERS.get(name) == "whole"
        for token in rest.split(","):
            token = token.strip()
            try:
                values.append(int(token) if whole else float(token))
            except ValueError:
                errors.append(f"--sweep {spec!r}: {token!r} is not a "
                              f"{'whole number' if whole else 'number'}")
        grid.append((name, values))
    return grid, errors


def _cmd_sweep(args) -> int:
    scenario, errors = _load_for_simulation(args)
    if errors or scenario is None:
        return _input_error(errors)
    grid, grid_errors = _parse_grid(args.sweep)
    if grid_errors:
        return _input_error(grid_errors)
    scenario_id = Path(args.scenario).stem
    try:
        points = sweep(scenario, grid)
    except (ValidationError, ContractViolation) as exc:
        return _input_error([str(exc)])

    rows, passed = _rows([(point.params.values(), f"{scenario_id}#{point.index}", point.seed,
                           point.report, point.error) for point in points], args.tolerance)
    _write_csv(args.out, [name for name, _ in grid] + CSV_COLUMNS, rows)
    return EXIT_OK if passed else EXIT_FAILED


def _cmd_verify(args) -> int:
    scenario, errors = load_scenario(args.scenario, args.horizon, seed=args.seed)
    if errors or scenario is None:
        return _input_error(errors)
    try:
        cert = certify_policy(scenario)
        if args.corrupt_policy:
            flipped = ActionSequence(tuple(
                Action.WAIT if bit is Action.TRANSMIT else Action.TRANSMIT
                for bit in policy_sequence(scenario).bits))
            cert = replace(cert, policy_value=exact_expected_throughput(flipped, scenario))
    except HorizonLimitError as exc:
        return _input_error([f"{exc}; pass --horizon to verify a shorter window"])
    except (ValidationError, ContractViolation) as exc:
        return _input_error([str(exc)])

    print(f"enumerated optimum over 2^{cert.horizon} sequences: "
          f"{cert.best_value!r} ({cert.best_sequence.to_string()})")
    print(f"policy value: {cert.policy_value!r}")
    blocked = (f", blocked {cert.tdma_window_blocked!r}"
               if cert.tdma_window_blocked > 0 else "")
    print(f"closed-form optimum at window tdma fraction "
          f"{cert.tdma_window_fraction!r}{blocked}: {cert.oracle_value!r}")
    print(f"certificate: {'MATCH' if cert.matches else 'MISMATCH'} "
          f"(max deviation {cert.max_deviation:.3e}, tolerance {cert.tolerance!r})")
    return EXIT_OK if cert.matches else EXIT_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="uwmac",
        description="Slotted MAC coexistence simulator with analytic oracles")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--slots", type=int, default=None,
                       help="override the measured horizon")
        p.add_argument("--warmup", type=int, default=None,
                       help="override the warm-up slot count")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="write results CSV here")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the oracle comparison tolerance")

    p_run = sub.add_parser("run", help="simulate one scenario and compare to the oracle")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid and emit CSV")
    common(p_sweep)
    p_sweep.add_argument("--sweep", action="append", required=True,
                         metavar="name=v1,v2,...",
                         help="parameter grid; repeat for a cross product "
                              f"(names: {', '.join(SWEEP_PARAMETERS)})")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify",
                              help="brute-force certificate that the policy is optimal")
    p_verify.add_argument("--scenario", required=True, help="scenario JSON file")
    p_verify.add_argument("--seed", type=int, default=None, help="override the seed")
    p_verify.add_argument("--horizon", type=int, default=None,
                          help=f"measured window to enumerate "
                               f"(<= {ENUMERATION_HORIZON_LIMIT})")
    p_verify.add_argument("--corrupt-policy", action="store_true",
                          help="negative control: evaluate a deliberately "
                               "inverted policy instead")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
