import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uwmac import cli
from uwmac.cli import CSV_COLUMNS, main, parse_scenario
from uwmac.engine import default_tolerance, sweep

ROOT = Path(__file__).resolve().parent.parent
# stdout and exit code of run and verify on every demos/scenarios file, and
# of sweep on mixed.json and pure_tdma.json;
# regenerate with tests/golden/make_golden.py only when output should change
GOLDEN_CLI = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())

SINGLE_ALOHA = {
    "nodes": [
        {"id": 0, "delay_slots": 1, "role": {"model_aware": {"gateway_member": True}}},
        {"id": 1, "delay_slots": 0, "role": {"aloha": {"q": 0.2}}},
    ],
    "horizon": 20000,
    "seed": 42,
}

PURE_TDMA = {
    "nodes": [
        {"id": 0, "delay_slots": 1, "role": {"model_aware": {}}},
        {"id": 1, "delay_slots": 4, "role": {"tdma": {"frame_length": 5, "assigned": [0]}}},
    ],
    "horizon": 10000,
    "seed": 7,
}

# 97 measured slots can never hit the oracle's 0.5 exactly, so the deviation
# is never 0 and a tiny tolerance must fail
COIN_ALOHA = {**SINGLE_ALOHA, "horizon": 97,
              "nodes": [SINGLE_ALOHA["nodes"][0],
                        {"id": 1, "delay_slots": 0, "role": {"aloha": {"q": 0.5}}}]}

TDMA_OVERLAP = {
    "nodes": [
        {"id": 0, "delay_slots": 0, "role": {"model_aware": {}}},
        {"id": 1, "delay_slots": 0, "role": {"tdma": {"frame_length": 2, "assigned": [0]}}},
        {"id": 2, "delay_slots": 0, "role": {"tdma": {"frame_length": 2, "assigned": [0]}}},
    ],
    "horizon": 1000,
    "seed": 7,
}


# the schedule ratios sum to 1.2, yet in the measured AP slots 6 and 7 only
# node 2's arrivals land (node 1 sends offsets 6 and 7, which are unassigned)
OVERFULL_TDMA = {
    "nodes": [
        {"id": 0, "delay_slots": 0, "role": {"model_aware": {}}},
        {"id": 1, "delay_slots": 0,
         "role": {"tdma": {"frame_length": 10, "assigned": [0, 1, 2, 3, 4, 5]}}},
        {"id": 2, "delay_slots": 6,
         "role": {"tdma": {"frame_length": 10, "assigned": [0, 1, 2, 3, 4, 5]}}},
    ],
    "horizon": 2,
    "warmup": 6,
    "seed": 7,
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_run_single_aloha(tmp_path, capsys):
    path = _write(tmp_path, "single_aloha.json", SINGLE_ALOHA)
    out = tmp_path / "report.csv"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "0.8" in stdout and "transmit" in stdout
    rows = _read_csv(out)
    assert len(rows) == 1
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert rows[0]["oracle"] == "0.8"
    assert rows[0]["branch"] == "transmit"
    assert rows[0]["pass"] == "true"
    assert rows[0]["status"] == "ok"


def test_run_pure_tdma_exact(tmp_path, capsys):
    path = _write(tmp_path, "pure_tdma.json", PURE_TDMA)
    assert main(["run", "--scenario", path]) == 0
    stdout = capsys.readouterr().out
    assert "1.000000" in stdout
    assert "deviation: 0.0" in stdout


def test_run_pass_fail_recomputable_from_row(tmp_path):
    path = _write(tmp_path, "single_aloha.json", SINGLE_ALOHA)
    out = tmp_path / "report.csv"
    main(["run", "--scenario", path, "--out", str(out)])
    row = _read_csv(out)[0]
    deviation, tolerance = float(row["deviation"]), float(row["tolerance"])
    assert (deviation <= tolerance) == (row["pass"] == "true")
    assert abs(float(row["empirical"]) - float(row["oracle"])) == pytest.approx(
        deviation, abs=1e-15)


def test_run_malformed_file_exits_2(tmp_path, capsys):
    doc = {
        "nodes": [
            {"id": 0, "delay_slots": 1,
             "geometry": {"distance_m": 100, "sound_speed_mps": 1500,
                          "slot_duration_s": 0.1},
             "role": {"model_aware": {}}},
            {"id": 1, "delay_slots": -3, "role": {"aloha": {"q": 1.7}}},
        ],
        "horizon": 0,
        "seed": "nope",
    }
    path = _write(tmp_path, "broken.json", doc)
    assert main(["run", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert "nodes[0]: exactly one of delay_slots or geometry" in err
    assert "nodes[1].delay_slots" in err
    assert "nodes[1].role.aloha.q" in err
    assert "horizon" in err and "seed" in err


def test_run_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_run_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--scenario", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    '{"seed": ' + "7" * 5000 + "}",   # beyond Python's int digit limit
    b'{"seed": "\xff"}',              # not UTF-8
    "[" * 200_000,                    # deeper than the decoder's stack
], ids=["huge-int", "bad-utf8", "deep-nesting"])
def test_undecodable_json_is_an_input_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert main(["run", "--scenario", str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(GOLDEN_CLI))
def test_stdout_matches_golden(monkeypatch, capsys, case):
    golden = GOLDEN_CLI[case]
    monkeypatch.chdir(ROOT)
    assert main(golden["argv"]) == golden["exit_code"]
    assert capsys.readouterr().out == golden["stdout"]


def test_run_comparison_failure_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "single_aloha.json", COIN_ALOHA)
    assert main(["run", "--scenario", path, "--tolerance", "1e-12"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_invalid_tolerance_is_an_input_error(tmp_path, capsys, command, tolerance):
    path = _write(tmp_path, "single_aloha.json", SINGLE_ALOHA)
    out = tmp_path / "never.csv"
    argv = [command, "--scenario", path, "--tolerance", tolerance, "--out", str(out)]
    if command == "sweep":
        argv += ["--sweep", "q=0.3"]
    assert main(argv) == 2
    assert "--tolerance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("target,problem", [
    ("missing-dir/x.csv", "directory {parent!r} does not exist"),
    (".", "{out!r} is a directory, not a file"),
    ("afile/x.csv", "{parent!r} is not a directory"),
], ids=["missing-dir", "a-dir", "a-file"])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, monkeypatch, command, target,
                                          problem):
    def never(*args):
        raise AssertionError("simulated before rejecting --out")
    monkeypatch.setattr("uwmac.cli.run", never)
    monkeypatch.setattr("uwmac.cli.sweep", never)
    path = _write(tmp_path, "pure_tdma.json", PURE_TDMA)
    (tmp_path / "afile").write_text("")
    out = tmp_path / target
    argv = [command, "--scenario", path, "--out", str(out)]
    if command == "sweep":
        argv += ["--sweep", "seed=1"]
    assert main(argv) == 2
    message = problem.format(out=str(out), parent=str(out.parent))
    assert capsys.readouterr().err == f"error: --out: {message}\n"
    assert not (tmp_path / "missing-dir").exists()
    assert (tmp_path / "afile").read_text() == ""


@pytest.mark.parametrize("distance,speed,slot", [
    (1e300, 1e-300, 1.0),      # the quotient overflows to infinity
    (1e3, 1e-200, 1e-200),     # the slot length underflows to zero
    (10 ** 400, 1500, 0.1),    # an integer too large for a float
], ids=["quotient-overflow", "slot-underflow", "huge-int"])
def test_geometry_overflow_is_a_range_error(tmp_path, capsys, distance, speed, slot):
    doc = {**PURE_TDMA, "nodes": [
        {"id": 0, "geometry": {"distance_m": distance, "sound_speed_mps": speed,
                               "slot_duration_s": slot},
         "role": {"model_aware": {}}},
        PURE_TDMA["nodes"][1]]}
    path = _write(tmp_path, "overflow.json", doc)
    assert main(["run", "--scenario", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("error: nodes[0].geometry: ") for line in err)


def test_range_errors_carry_field_paths(tmp_path, capsys):
    doc = {
        "nodes": [
            {"id": 0, "geometry": {"distance_m": float("nan"), "sound_speed_mps": 1500,
                                   "slot_duration_s": 0.1},
             "role": {"model_aware": {}}},
            {"id": 1, "delay_slots": 0,
             "role": {"tdma": {"frame_length": 0, "assigned": []}}},
            {"id": 2, "delay_slots": 0,
             "role": {"tdma": {"frame_length": 4, "assigned": [1, 4]}}},
        ],
        "horizon": 10,
        "seed": 1,
    }
    path = _write(tmp_path, "ranges.json", doc)
    assert main(["run", "--scenario", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("error: nodes[0].geometry: distance_m") for line in err)
    assert any(line.startswith("error: nodes[1].role.tdma: frame_length") for line in err)
    assert any(line.startswith("error: nodes[2].role.tdma: assigned offsets [4]")
               for line in err)


def test_run_tdma_overlap_warns_and_exits_0(tmp_path, capsys):
    path = _write(tmp_path, "overlap.json", TDMA_OVERLAP)
    out = tmp_path / "overlap.csv"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "500 AP slots saw overlapping TDMA arrivals" in captured.err
    assert "not applicable" not in captured.err + captured.out
    assert "oracle optimal: 0.5 (transmit branch" in captured.out
    row = _read_csv(out)[0]
    assert row["status"] == "ok"
    assert (row["oracle"], row["deviation"], row["pass"]) == ("0.5", "0.0", "true")
    assert row["tdma_cross_collisions"] == "500"
    assert main(["verify", "--scenario", path, "--horizon", "12"]) == 0
    assert "certificate: MATCH" in capsys.readouterr().out


def test_run_overfull_tdma_schedules_attach_an_oracle(tmp_path, capsys):
    path = _write(tmp_path, "overfull.json", OVERFULL_TDMA)
    out = tmp_path / "overfull.csv"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "oracle optimal: 1.0 (transmit branch" in stdout
    row = _read_csv(out)[0]
    assert (row["status"], row["oracle"], row["deviation"]) == ("ok", "1.0", "0.0")


def test_sweep_overfull_tdma_schedules_rows_ok(tmp_path):
    path = _write(tmp_path, "overfull.json", OVERFULL_TDMA)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", path, "--sweep", "seed=1,2,3",
                 "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert [row["oracle"] for row in rows] == ["1.0"] * 3


def test_run_overrides(tmp_path, capsys):
    path = _write(tmp_path, "single_aloha.json", SINGLE_ALOHA)
    assert main(["run", "--scenario", path, "--slots", "500", "--seed", "9",
                 "--warmup", "6"]) == 0
    stdout = capsys.readouterr().out
    assert "measured slots: 500 (warm-up 6)" in stdout
    assert "seed 9" in stdout


def test_a_valid_override_replaces_an_invalid_file_value(tmp_path, capsys):
    path = _write(tmp_path, "single_aloha.json", {**SINGLE_ALOHA, "horizon": 0})
    assert main(["run", "--scenario", path, "--slots", "100"]) == 0
    assert "measured slots: 100" in capsys.readouterr().out


def test_overrides_are_checked_as_file_fields_all_errors_at_once(tmp_path, capsys):
    path = _write(tmp_path, "single_aloha.json", SINGLE_ALOHA)
    assert main(["run", "--scenario", path, "--slots", "0", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "horizon: expected a positive integer" in err
    assert "seed: expected an unsigned 64-bit integer" in err


def test_pass_is_deviation_at_most_tolerance(tmp_path):
    path = _write(tmp_path, "coin.json", COIN_ALOHA)
    out = tmp_path / "r.csv"
    assert main(["run", "--scenario", path, "--out", str(out)]) in (0, 1)
    deviation = float(_read_csv(out)[0]["deviation"])
    assert deviation > 0
    assert main(["run", "--scenario", path, "--out", str(out),
                 "--tolerance", repr(deviation)]) == 0
    assert _read_csv(out)[0]["pass"] == "true"
    below = math.nextafter(deviation, 0)
    assert main(["run", "--scenario", path, "--out", str(out),
                 "--tolerance", repr(below)]) == 1
    assert _read_csv(out)[0]["pass"] == "false"


def test_run_huge_warmup_finishes(capsys):
    # the ALOHA node skips its unmeasured draws and the engine walks only the
    # measured window, so a warm-up of 1e12 slots allocates nothing of its size;
    # the gateway counts its warm-up decisions over one TDMA period, not all of them
    for name, slots in (("single_aloha.json", 100000), ("gateway_roster.json", 10000)):
        scenario = str(ROOT / "demos" / "scenarios" / name)
        assert main(["run", "--scenario", scenario, "--warmup", str(10**12)]) == 0
        stdout = capsys.readouterr().out
        assert f"measured slots: {slots} (warm-up 1000000000000)" in stdout
        assert "-> PASS" in stdout


def test_csv_byte_identical_across_runs(tmp_path):
    path = _write(tmp_path, "single_aloha.json", SINGLE_ALOHA)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--scenario", path, "--out", str(out1)])
    main(["run", "--scenario", path, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_calls_in_one_process_write_what_each_writes_alone(tmp_path, capsys):
    # the parser is built once per process, and no --sweep list of one call
    # reaches the next
    doc = {**SINGLE_ALOHA, "horizon": 500,
           "nodes": SINGLE_ALOHA["nodes"] + [
               {"id": 2, "delay_slots": 2,
                "role": {"tdma": {"frame_length": 10, "assigned": [0]}}}]}
    path = _write(tmp_path, "mixed.json", doc)
    commands = [["sweep", "--scenario", path, "--sweep", "q=0.2,0.8"],
                ["run", "--scenario", path, "--out", str(tmp_path / "run.csv")],
                ["sweep", "--scenario", path, "--sweep", "p=0.1,0.3", "--sweep", "seed=1,2"]]
    src = Path(__file__).resolve().parent.parent / "src"
    alone = []
    for argv in commands:
        result = subprocess.run([sys.executable, "-m", "uwmac.cli", *argv],
                                capture_output=True, text=True, timeout=60,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        alone.append(result.stdout)
    alone_csv = (tmp_path / "run.csv").read_bytes()
    (tmp_path / "run.csv").unlink()
    together = []
    for argv in commands:
        assert main(argv) == 0
        together.append(capsys.readouterr().out)
    assert cli.build_parser() is cli.build_parser()
    assert together == alone
    assert (tmp_path / "run.csv").read_bytes() == alone_csv
    assert together[2].splitlines()[0].startswith("p,seed,scenario_id")


def _fmt(value) -> str:
    """The CSV cell rule that `_rows` keeps: None empty, bools spelled out,
    floats by repr and anything else by str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def test_csv_cells_are_rendered_by_the_cell_rule(tmp_path):
    # `_rows` renders its cells with `_cell`, and `_write_csv` writes them as they are
    values = [None, True, False, 0, 2 ** 64 - 1, -0.0, 1e-300, math.nan, math.inf, 0.1,
              'error: bad "p", 0.3']
    names = [f"c{i}" for i in range(len(values))]
    out = tmp_path / "cells.csv"
    cli._write_csv(str(out), names, [[cli._cell(value) for value in values], [None] * len(names)])
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerows([names, [_fmt(value) for value in values], [""] * len(names)])
    assert out.read_bytes() == expected.getvalue().encode()


def _reference_row(params, scenario_id, seed, report, tolerance, error):
    """A CSV row by the rule that rows keep: a dict by column, absent cells
    empty; its tolerance defaults to four sigma."""
    row = {"scenario_id": scenario_id, "seed": seed, "status": f"error: {error}"}
    if report is not None:
        row.update(measured_slots=report.measured_slots, successes=report.successes,
                   collisions=report.collisions, idle=report.idle,
                   empirical=report.empirical_throughput,
                   tdma_cross_collisions=report.tdma_cross_collisions, status="oracle-na")
    if report is not None and report.oracle is not None:
        if tolerance is None:
            tolerance = default_tolerance(report.oracle.optimal_throughput,
                                          report.measured_slots)
        row.update(oracle=report.oracle.optimal_throughput,
                   branch=report.oracle.chosen_branch.value, z=report.oracle.z_value,
                   deviation=report.deviation, tolerance=tolerance,
                   status="ok", **{"pass": report.deviation <= tolerance})
    row.update(params)
    return row


@pytest.mark.parametrize("tolerance", [None, 0.02])
@pytest.mark.parametrize("doc", [SINGLE_ALOHA, {**SINGLE_ALOHA, "nodes": [
    *SINGLE_ALOHA["nodes"],
    {"id": 2, "delay_slots": 2, "role": {"tdma": {"frame_length": 4, "assigned": [0]}}}]},
    {**SINGLE_ALOHA, "nodes": [{"id": 0, "delay_slots": 1, "role": {"aloha": {"q": 0.2}}}]}])
def test_sweep_rows_are_each_points_report_by_the_cell_rule(tmp_path, doc, tolerance):
    # seeds innermost, so each run of a plan's points shares its oracle's
    # cells; every row is still its own point's, error and oracle-na rows too
    path = _write(tmp_path, "doc.json", doc)
    specs = ["q=0.2,0.7,1.5", "horizon=300,301", "seed=1,2,-1"]
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scenario", path, "--out", str(out)]
    argv += [] if tolerance is None else ["--tolerance", repr(tolerance)]
    code = main(argv + [arg for spec in specs for arg in ("--sweep", spec)])
    scenario, _ = cli.load_scenario(path)
    grid, _ = cli._parse_grid(specs)
    rows = [_reference_row(point.params, f"doc#{point.index}", point.seed, point.report,
                           tolerance, point.error) for point in sweep(scenario, grid)]
    names = ["q", "horizon", "seed"] + CSV_COLUMNS
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(
        [names] + [[_fmt(row.get(name)) for name in names] for row in rows])
    assert out.read_bytes() == expected.getvalue().encode()
    assert code == (1 if any(row.get("pass") is False for row in rows) else 0)
    assert {row["status"] for row in rows} >= {"error: ALOHA transmit probability must "
                                               "lie in [0, 1], got 1.5"}


def test_sweep_q_grid(tmp_path):
    path = _write(tmp_path, "single_aloha.json", {**SINGLE_ALOHA, "horizon": 20000})
    out = tmp_path / "sweep.csv"
    values = ",".join(str(round(0.1 * k, 1)) for k in range(1, 10))
    assert main(["sweep", "--scenario", path, "--sweep", f"q={values}",
                 "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 9
    assert list(rows[0].keys()) == ["q"] + CSV_COLUMNS
    curve = [float(r["empirical"]) for r in rows]
    # V-shape with the minimum at q = 0.5
    assert min(curve) == curve[4]
    for row in rows:
        q = float(row["q"])
        assert float(row["oracle"]) == pytest.approx(max(q, 1 - q), abs=1e-12)
        assert row["pass"] == "true"


def test_sweep_point_error_recorded(tmp_path):
    doc = {
        "nodes": [
            {"id": 0, "delay_slots": 1, "role": {"model_aware": {}}},
            {"id": 1, "delay_slots": 2, "role": {"tdma": {"frame_length": 10, "assigned": [0]}}},
            {"id": 2, "delay_slots": 0, "role": {"aloha": {"q": 0.6}}},
        ],
        "horizon": 5000,
        "seed": 3,
    }
    path = _write(tmp_path, "mixed.json", doc)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", path, "--sweep", "p=0.2,0.15,0.5",
                 "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error:")
    assert rows[1]["empirical"] == ""
    assert rows[2]["status"] == "ok"


def test_sweep_empty_grid_header_only(tmp_path, capsys):
    path = _write(tmp_path, "single_aloha.json", SINGLE_ALOHA)
    assert main(["sweep", "--scenario", path, "--sweep", "q="]) == 2
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--scenario", path, "--sweep", "q=0.3",
                 "--out", str(out), "--slots", "100"]) == 0
    assert len(_read_csv(out)) == 1


def test_sweep_comparison_failure_exits_1(tmp_path):
    path = _write(tmp_path, "single_aloha.json", COIN_ALOHA)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--scenario", path, "--sweep", "q=0.5",
                 "--tolerance", "1e-12", "--out", str(out)]) == 1


def test_sweep_bad_grid_spec_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "single_aloha.json", SINGLE_ALOHA)
    assert main(["sweep", "--scenario", path, "--sweep", "q=0.1,abc"]) == 2
    assert "is not a number" in capsys.readouterr().err
    assert main(["sweep", "--scenario", path, "--sweep", "horizon=2.5"]) == 2
    assert "'2.5' is not a whole number" in capsys.readouterr().err
    assert main(["sweep", "--scenario", path, "--sweep", "bogus=1"]) == 2


def test_sweep_parameter_given_twice_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "single_aloha.json", SINGLE_ALOHA)
    out = tmp_path / "twice.csv"
    assert main(["sweep", "--scenario", path, "--sweep", "q=0.1,0.2", "--sweep", "q=0.3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: sweep parameter 'q' given twice\n"
    assert not out.exists()


def test_verify_matches(tmp_path, capsys):
    path = _write(tmp_path, "single_aloha.json", {**SINGLE_ALOHA, "horizon": 8})
    assert main(["verify", "--scenario", path]) == 0
    assert "MATCH" in capsys.readouterr().out


def test_verify_mixed_scenario(tmp_path, capsys):
    doc = {
        "nodes": [
            {"id": 0, "delay_slots": 1, "role": {"model_aware": {}}},
            {"id": 1, "delay_slots": 2, "role": {"tdma": {"frame_length": 2, "assigned": [0]}}},
            {"id": 2, "delay_slots": 0, "role": {"aloha": {"q": 0.6}}},
        ],
        "horizon": 8,
        "seed": 3,
    }
    path = _write(tmp_path, "mixed.json", doc)
    assert main(["verify", "--scenario", path, "--horizon", "8"]) == 0
    assert "MATCH" in capsys.readouterr().out


def test_verify_prints_the_blocked_share_of_an_overlapping_window(tmp_path, capsys):
    # AP slots 0 mod 4 hear both TDMA nodes and 1 mod 4 only the second, so
    # c1 = c2 = 0.25; without c2 the line would read as optimal_mixed(0.25, [0.3]) = 0.7
    doc = {
        "nodes": [
            {"id": 0, "delay_slots": 0, "role": {"model_aware": {}}},
            {"id": 1, "delay_slots": 0, "role": {"tdma": {"frame_length": 4, "assigned": [0]}}},
            {"id": 2, "delay_slots": 0,
             "role": {"tdma": {"frame_length": 4, "assigned": [0, 1]}}},
            {"id": 3, "delay_slots": 0, "role": {"aloha": {"q": 0.3}}},
        ],
        "horizon": 8,
        "seed": 3,
    }
    path = _write(tmp_path, "overlap.json", doc)
    assert main(["verify", "--scenario", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == ("closed-form optimum at window tdma fraction 0.25, "
                        "blocked 0.25: 0.5249999999999999")
    assert lines[3].startswith("certificate: MATCH")


def test_verify_corrupted_policy_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "single_aloha.json", {**SINGLE_ALOHA, "horizon": 8})
    assert main(["verify", "--scenario", path, "--corrupt-policy"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_horizon_too_large_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "single_aloha.json", SINGLE_ALOHA)
    assert main(["verify", "--scenario", path, "--horizon", "17"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_verify_long_scenario_horizon_names_the_option(tmp_path, capsys):
    path = _write(tmp_path, "pure_tdma.json", PURE_TDMA)
    assert main(["verify", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert "horizon 10000 exceeds the enumeration limit 16" in err
    assert "--horizon" in err


def test_verify_uses_scenario_horizon_when_small(tmp_path):
    path = _write(tmp_path, "single_aloha.json", {**SINGLE_ALOHA, "horizon": 6})
    assert main(["verify", "--scenario", path]) == 0


def test_parse_scenario_geometry_delay():
    scenario, errors = parse_scenario({
        "nodes": [
            {"id": 0,
             "geometry": {"distance_m": 750, "sound_speed_mps": 1500,
                          "slot_duration_s": 0.1},
             "role": {"model_aware": {}}},
        ],
        "horizon": 10,
        "seed": 1,
    })
    assert errors == []
    assert scenario.nodes[0].delay.slots == 5


def test_parse_scenario_rejects_unknown_role():
    _, errors = parse_scenario({
        "nodes": [{"id": 0, "delay_slots": 0, "role": {"csma": {}}}],
        "horizon": 10, "seed": 1,
    })
    assert any("unknown role" in e for e in errors)


def test_parse_scenario_cross_field_validation():
    _, errors = parse_scenario({
        "nodes": [{"id": 0, "delay_slots": 3, "role": {"model_aware": {}}},
                  {"id": 2, "delay_slots": 0, "role": {"aloha": {"q": 0.5}}}],
        "horizon": 10, "warmup": 1, "seed": 1,
    })
    assert any("dense" in e for e in errors)
    assert any("warmup" in e for e in errors)


# a valid scenario with every field kind: model-aware, TDMA and a geometry ALOHA node
MUTABLE = {
    "nodes": [
        {"id": 0, "delay_slots": 1, "role": {"model_aware": {"gateway_member": True}}},
        {"id": 1, "delay_slots": 2, "role": {"tdma": {"frame_length": 4, "assigned": [0, 1]}}},
        {"id": 2, "geometry": {"distance_m": 1500.0, "sound_speed_mps": 1500.0,
                               "slot_duration_s": 0.5},
         "role": {"aloha": {"q": 0.3}}},
    ],
    "horizon": 40,
    "warmup": 3,
    "seed": 11,
}
DELETE = object()
WRONG_TYPES = [None, True, "7", 1.5, [], {}, DELETE]
# range mutations stay small, so a value that is valid after all costs little to run
BAD_VALUES = {
    ("horizon",): [-1, 0, 1],
    ("warmup",): [-1, 0, 2],
    ("seed",): [-1, 2**64, 0],
    ("nodes",): [[]],
    ("nodes", 0, "id"): [-1, 1, 3],
    ("nodes", 0, "delay_slots"): [-1, 0, 4],
    ("nodes", 0, "role"): [{"csma": {}}, {"tdma": {}, "aloha": {}}],
    ("nodes", 0, "role", "model_aware", "gateway_member"): [1, False],
    ("nodes", 1, "role", "tdma", "frame_length"): [0, -1, 1],
    ("nodes", 1, "role", "tdma", "assigned"): [[4], [-1], [True], [0.5]],
    ("nodes", 2, "geometry", "distance_m"): [-1.0, 0.0, float("nan"), float("inf"), 1e6],
    ("nodes", 2, "geometry", "sound_speed_mps"): [0.0, float("-inf"), 1e-300],
    ("nodes", 2, "geometry", "slot_duration_s"): [-0.5, float("nan"), 1e300],
    ("nodes", 2, "role", "aloha", "q"): [-0.1, 1.5, float("nan"), 1],
}


@st.composite
def mutated_scenarios(draw):
    path = draw(st.sampled_from(sorted(BAD_VALUES, key=repr)))
    value = draw(st.sampled_from(BAD_VALUES[path] + WRONG_TYPES))
    doc = json.loads(json.dumps(MUTABLE))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_malformed_scenarios_never_raise(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutated") / "scenario.json"

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(mutated_scenarios())
    def check(doc):
        path.write_text(json.dumps(doc))
        _, errors = parse_scenario(json.loads(path.read_text()))
        code = main(["run", "--scenario", str(path)])
        assert code in (0, 1, 2)
        if errors:
            assert code == 2

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        check()


def test_import_starts_no_thread_and_loads_no_executor():
    # the engine's range helpers start with each run of several blocks, not on import
    probe = ("import sys, threading, uwmac.cli; "
             "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "False"]
