#!/usr/bin/env python3
"""Run every workload, each in its own process, and print one table.

    python3 bench/report.py --seed 1 --seconds 50            # end-to-end metrics
    python3 bench/report.py --seed 2 --seconds 50 --trace 1  # per-layer metrics

For each workload it prints every metric by name with its value, unit and
sample count, the failed-op ratio with its base, each failed op with its
reason, and the outcome of each known-defect probe op.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        record_path = ROOT / ".bench_out" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        summary(json.loads(record_path.read_text(encoding="utf-8")), sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
