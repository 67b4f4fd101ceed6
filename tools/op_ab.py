#!/usr/bin/env python3
"""Time two checkouts against each other, op by op, in one process.

    python3 tools/op_ab.py --parent DIR --change DIR [--seed N [N ...]] [--passes 5] [--family F ...]

Two benchmark processes on one machine can differ by more than a small
change's gain even when their work is the same, so this tool runs both
checkouts in one process instead. Each checkout's ``src/stieltjes`` is copied
into a temporary directory as the package ``stieltjes_parent`` or
``stieltjes_change`` (the package imports its own modules only relatively).
The timed ops of both workloads in ``bench/workloads.py`` for each seed (7
by default), or of the chosen families, then go through the two ``cli.main``s
by ``bench/run.py``'s ``run_op``: op by op, the two sides one after the other,
with the side that goes first switching from op to op and from pass to pass.
The warm-up ops run once on both sides before any timing. Op ids repeat
across seeds, so each seed's documents are written to a directory of their own.

Each op must give both sides the same outcome (exit code, any exception
raised out of ``main``, stdout, stderr and the output file, with the package
directory masked in warning paths); the ids of ops that differ are printed
and the exit code is then 1 (with several seeds, each id after its seed). The
table gives per workload, family and subcommand, over all seeds, and with
several seeds also per seed and workload, the number of samples, each side's
median latency and the change-to-parent ratios of the medians (``p50``) and
of the summed latencies (``sum``).

``bench/workloads.py`` and ``bench/run.py`` are imported from the checkout
this tool lives in and are only read.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SIDES = ("parent", "change")
FIELDS = ("exit", "exception", "stdout", "stderr", "file")


def _load(checkout: str, side: str, packages: Path):
    """``checkout``'s ``cli`` module, imported from its copy ``stieltjes_<side>``."""
    copy = packages / f"stieltjes_{side}"
    shutil.copytree(Path(checkout, "src", "stieltjes"), copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"stieltjes_{side}.cli"), str(copy)


def _groups(seed: int | None, workload: str, op) -> tuple[tuple[int, str], ...]:
    """The table rows an op counts in, as (rank, label): workload, family,
    subcommand and, unless ``seed`` is None, seed and workload."""
    groups = ((0, f"workload {workload}"), (1, f"family {op.family}"),
              (2, f"subcommand {op.argv[0]}"))
    return groups if seed is None else (*groups, (3, f"seed {seed} {workload}"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout to compare against")
    parser.add_argument("--change", required=True, help="checkout with the change")
    parser.add_argument("--seed", type=int, nargs="+", default=[7])
    parser.add_argument("--passes", type=int, default=5, help="timed passes over the ops")
    parser.add_argument("--family", action="append",
                        help="time only this op family (repeatable); default all")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    sys.path.insert(0, str(BENCH))
    # run.py fixes the BLAS thread count on import, before numpy is loaded
    from run import run_op
    from workloads import WORKLOADS

    def chosen(seed, part):
        return [(seed, name, op) for name, build in WORKLOADS.items()
                for op in build(seed, part) if not args.family or op.family in args.family]

    several = len(args.seed) > 1
    timed = [item for seed in args.seed for item in chosen(seed, "timed")]
    warm = [item for seed in args.seed for item in chosen(seed, "warmup")]
    if not timed:
        parser.error(f"no op of family {args.family}")

    with tempfile.TemporaryDirectory(prefix="op_ab-") as tmp:
        packages = Path(tmp, "packages")
        packages.mkdir()
        workdirs = {seed: Path(tmp, f"work-{seed}") for seed in args.seed}
        for workdir in workdirs.values():
            workdir.mkdir(exist_ok=True)
        sys.path.insert(0, str(packages))
        loaded = {side: _load(checkout, side, packages)
                  for side, checkout in zip(SIDES, (args.parent, args.change))}
        for seed, _, op in warm + timed:
            for name, text in op.file_texts().items():
                (workdirs[seed] / name).write_text(text, encoding="utf-8")

        def run(side, seed, op):
            cli, copy = loaded[side]
            # entering catch_warnings clears every once-per-location record, so
            # an op's stderr holds the warnings a fresh CLI call would print
            with warnings.catch_warnings():
                latency, outcome = run_op(cli, op, str(workdirs[seed]))
            return latency, [text.replace(copy, "<package>") if isinstance(text, str) else text
                             for text in outcome]

        differ = {}
        latencies = {side: {} for side in SIDES}
        for seed, _, op in warm:
            for side in SIDES:
                run(side, seed, op)
        for p in range(args.passes):
            gc.collect()
            for i, (seed, workload, op) in enumerate(timed):
                order = SIDES if (i + p) % 2 == 0 else SIDES[::-1]
                results = {side: run(side, seed, op) for side in order}
                (lat_a, out_a), (lat_b, out_b) = results["parent"], results["change"]
                fields = [f for f, a, b in zip(FIELDS, out_a, out_b) if a != b]
                if fields:
                    differ.setdefault(f"seed {seed} {op.id}" if several else op.id, fields)
                for group in _groups(seed if several else None, workload, op):
                    latencies["parent"].setdefault(group, []).append(lat_a)
                    latencies["change"].setdefault(group, []).append(lat_b)

    print(f"{'group':<32} {'samples':>7} {'parent_p50_ms':>13} {'change_p50_ms':>13} "
          f"{'p50':>6} {'sum':>6}")
    for group, before in sorted(latencies["parent"].items()):
        after = latencies["change"][group]
        p50_a, p50_b = statistics.median(before), statistics.median(after)
        print(f"{group[1]:<32} {len(before):>7} {1000 * p50_a:>13.3f} {1000 * p50_b:>13.3f} "
              f"{p50_b / p50_a:>6.3f} {sum(after) / sum(before):>6.3f}")
    for op_id, fields in sorted(differ.items()):
        print(f"{op_id}: {', '.join(fields)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
