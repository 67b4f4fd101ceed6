#!/usr/bin/env python3
"""Compare two checkouts op by op on the benchmark's generated ops.

    python3 tools/op_diff.py --parent DIR --change DIR --seed N [N ...]

Every op of both workloads in ``bench/workloads.py`` (the timed and warm-up
lists and the ``derive`` probe, the same ops ``bench/run.py`` runs for the
seed) goes through each checkout's own ``stieltjes.cli.main`` by
``bench/run.py``'s ``run_op``. The two checkouts run at the same time, each in
its own process and fresh empty directory with relative file names, so a path
that shows up in an output is the same for both. The exit code, any exception
raised out of ``main``, stdout, stderr and the op's output file are compared. The ids of
the ops that differ are printed with the fields that differ, and one summary
line per seed counts them per op family (``Op.family``); the exit code is 1 if
any op of any seed differs.

``bench/workloads.py`` and ``bench/run.py`` are imported from the checkout
this tool lives in and are only read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
FIELDS = ("exit", "exception", "stdout", "stderr", "file")


def _run(checkout: str, seed: int) -> dict:
    """Each op's outcome under ``checkout``'s sources, run in the current
    directory: {op id: {field: value or sha256 of the text, "family": family}}."""
    sys.path.insert(0, str(BENCH))
    # run.py fixes the BLAS thread count on import, before numpy is loaded
    from run import run_op
    from workloads import WORKLOADS, build_derive_probe

    src = str(Path(checkout, "src").resolve())
    sys.path.insert(0, src)
    from stieltjes import cli

    if not str(Path(cli.__file__).resolve()).startswith(src):
        raise SystemExit(f"op_diff.py: imported {cli.__file__}, not {src}")
    ops = [op for build in WORKLOADS.values() for part in ("warmup", "timed")
           for op in build(seed, part)] + build_derive_probe(seed)
    for op in ops:
        for name, text in op.file_texts().items():
            Path(name).write_text(text, encoding="utf-8")
    outcomes = {}
    for op in ops:
        # entering catch_warnings clears every once-per-location record, so
        # an op's stderr holds the warnings a fresh CLI call would print
        with warnings.catch_warnings():
            _, outcome = run_op(cli, op, ".")
        code, exc, *texts = outcome
        outcomes[op.id] = dict(zip(FIELDS, [code, exc] + [
            None if text is None else hashlib.sha256(text.encode()).hexdigest()
            for text in texts]), family=op.family)
    return outcomes


def _outcomes(checkouts: tuple[str, ...], seed: int) -> list[dict]:
    """``_run`` for every checkout at once, each in a new process and a new
    empty directory; the outcomes in checkout order."""
    with contextlib.ExitStack() as stack:
        procs = [subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--run", str(Path(checkout).resolve()),
             "--seed", str(seed)],
            cwd=stack.enter_context(tempfile.TemporaryDirectory(prefix="op_diff-")),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) for checkout in checkouts]
        results = [proc.communicate() for proc in procs]
    for checkout, proc, (_, err) in zip(checkouts, procs, results):
        if proc.returncode != 0:
            raise SystemExit(f"op_diff.py: running {checkout} failed:\n{err}")
    return [json.loads(out) for out, _ in results]


def _diff(parent: str, change: str, seed: int) -> int:
    """Print the ops of ``seed`` that differ and the seed's summary line; the count."""
    before, after = _outcomes((parent, change), seed)
    families = Counter()
    for op_id in sorted(before.keys() | after.keys()):
        a, b = before.get(op_id), after.get(op_id)
        fields = FIELDS if a is None or b is None else [f for f in FIELDS if a[f] != b[f]]
        if fields:
            families[(a or b)["family"]] += 1
            print(f"{op_id}: {', '.join(fields)}")
    differ = sum(families.values())
    per_family = ", ".join(f"{family} {n}" for family, n in sorted(families.items()))
    print(f"seed {seed}: {differ} of {len(before)} ops differ"
          + (f" ({per_family})" if differ else ""), flush=True)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="checkout to compare against")
    parser.add_argument("--change", help="checkout with the change")
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--run", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        print(json.dumps(_run(args.run, args.seed[0])))
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    differ = [_diff(args.parent, args.change, seed) for seed in args.seed]
    return 1 if any(differ) else 0


if __name__ == "__main__":
    sys.exit(main())
