"""Regenerate the golden stdout files of the CLI and the demos.

`tests/test_cli.py` replays every case in `cli.json` through `uwmac.cli.main`
and `tests/test_demos.py` runs every demo; both compare stdout byte for byte.
Run from the repository root, and only when an output change is intended:

    PYTHONPATH=src python tests/golden/make_golden.py
"""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from uwmac.bruteforce import ENUMERATION_HORIZON_LIMIT
from uwmac.cli import main

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent


def cli_cases() -> dict[str, list[str]]:
    """run, verify, verify at the enumeration limit and the verify negative
    control on every scenario file, plus sweep CSV on stdout: seed last, seed
    first, and a p grid."""
    limit = str(ENUMERATION_HORIZON_LIMIT)
    cases = {}
    for path in sorted((ROOT / "demos" / "scenarios").glob("*.json")):
        scenario = str(path.relative_to(ROOT))
        cases[f"run-{path.stem}"] = ["run", "--scenario", scenario]
        cases[f"verify-{path.stem}"] = ["verify", "--scenario", scenario, "--horizon", "12"]
        cases[f"verify-limit-{path.stem}"] = ["verify", "--scenario", scenario,
                                              "--horizon", limit]
        cases[f"verify-corrupt-{path.stem}"] = ["verify", "--scenario", scenario,
                                                "--horizon", "12", "--corrupt-policy"]
    sweep = ["sweep", "--slots", "2000", "--scenario"]
    mixed, q, seeds = "demos/scenarios/mixed.json", "q=0.1,0.3,0.6", "seed=3,-1,7"
    cases["sweep-mixed"] = [*sweep, mixed, "--sweep", q, "--sweep", seeds]
    cases["sweep-seed-first-mixed"] = [*sweep, mixed, "--sweep", seeds, "--sweep", q]
    cases["sweep-pure_tdma"] = [*sweep, "demos/scenarios/pure_tdma.json",
                                "--sweep", "p=0,0.2,0.3,0.6"]
    return cases


def write_cli() -> None:
    golden = {}
    for case, argv in cli_cases().items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        golden[case] = {"argv": argv, "exit_code": code, "stdout": out.getvalue()}
    (GOLDEN / "cli.json").write_text(json.dumps(golden, indent=1) + "\n")


def write_demos() -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for script in sorted((ROOT / "demos").glob("*.py")):
        result = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                                capture_output=True, text=True, check=True)
        (GOLDEN / "demos" / f"{script.stem}.txt").write_text(result.stdout)


if __name__ == "__main__":
    os.chdir(ROOT)
    write_cli()
    write_demos()
