"""Every demo script runs to completion against the package sources and
prints its golden stdout."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_demo(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(script):
    result = _run_demo(script)
    assert result.returncode == 0, result.stderr
    # regenerate with tests/golden/make_golden.py only when output should change
    golden = ROOT / "tests" / "golden" / "demos" / f"{script.stem}.txt"
    assert result.stdout == golden.read_text()


def test_tdma_coexistence_prints_plain_slot_numbers():
    result = _run_demo(ROOT / "demos" / "tdma_coexistence.py")
    assert result.stdout.splitlines()[0] == \
        "first forbidden send slots: [3, 8, 13, 18, 23, 28] (then every 5th)"
