"""Rewrite golden.json: SHA-256 digests of every SimReport and sweep CSV that
one cycle of each workload produces at the default seed.

    python3 perfbench/make_golden.py

Outputs must stay bit-identical across speed changes, so rerun this only for
a change that is meant to alter results, and say so in its description.
"""
import json
import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, GOLDEN, SRC, WORK, WORKLOAD_NAMES

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402


def main() -> None:
    digests = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name in WORKLOAD_NAMES:
            ops = workloads.build(name, DEFAULT_SEED, Path(tmp))
            cycle = []
            for op in ops:
                op.load()
                result = op.finish(op.execute())
                errors = op.check(result)
                if errors:
                    sys.exit(f"{name} op {op.index} fails its checks: {errors[:3]}")
                cycle.append(op.digest(result))
            if any(d is not None for d in cycle):
                digests[name] = cycle
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": digests},
                                 indent=1) + "\n")


if __name__ == "__main__":
    main()
