"""The op-diff tool: a checkout against itself and against a planted change; the
op-ab timing tool on a checkout against itself."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def op_diff(parent, change, seeds=("7",)):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_diff.py"), "--parent", str(parent),
         "--change", str(change), "--seed", *seeds],
        capture_output=True, text=True,
    )


def planted(checkout: Path, main_body: str, before: str = "") -> Path:
    """A copy of the library whose ``cli.main`` is replaced, after the code
    ``before``; returns its cli.py."""
    shutil.copytree(ROOT / "src" / "stieltjes", checkout / "src" / "stieltjes",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = (checkout / "src" / "stieltjes" / "cli.py").resolve()
    with open(cli, "a", encoding="utf-8") as fh:
        fh.write(f"\n\n{before}\n\ndef main(argv=None):\n{main_body}")
    return cli


def test_a_checkout_against_itself_differs_nowhere():
    proc = op_diff(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["seed 7: 0 of 590 ops differ"]


def test_several_seeds_run_in_one_call(tmp_path):
    # one summary line per seed; exit 1 when any seed differs
    proc = op_diff(ROOT, ROOT, ("7", "11"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "seed 7: 0 of 590 ops differ"
    assert re.fullmatch(r"seed 11: 0 of \d+ ops differ", lines[1]) and len(lines) == 2
    planted(tmp_path, "    return 3\n")
    proc = op_diff(ROOT, tmp_path, ("11", "7"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    summaries = [line for line in proc.stdout.splitlines() if line.startswith("seed ")]
    assert [line.split(":")[0] for line in summaries] == ["seed 11", "seed 7"]
    assert summaries[1].startswith("seed 7: 590 of 590 ops differ")


def test_a_planted_change_is_named_op_by_op(tmp_path):
    planted(tmp_path, "    return 3\n")
    proc = op_diff(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == ("seed 7: 590 of 590 ops differ (ftc-grid 112, plume-picard 105, "
                         "pointwise 252, probe 9, probe-jump 3, probe-knot 3, solve-euler 106)")
    assert all(line.split(": ")[1].startswith("exit") for line in lines[:-1])


def test_each_op_prints_its_warnings_as_a_fresh_call_would(tmp_path):
    # under the default filter a warning shows once per code location; each
    # op must still show it, as each op is one CLI call of its own
    call = "warnings.warn('planted', RuntimeWarning)"
    warns = planted(tmp_path / "warns", f"    import warnings\n    {call}\n    return 0\n")
    line = len(warns.read_text(encoding="utf-8").splitlines()) - 1
    printed = f"{warns}:{line}: RuntimeWarning: planted\n  {call}\n"
    planted(tmp_path / "prints", f"    import sys\n    sys.stderr.write({printed!r})\n"
            "    return 0\n")
    proc = op_diff(tmp_path / "warns", tmp_path / "prints")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["seed 7: 0 of 590 ops differ"]


def op_ab(parent, change, seeds=("7",), passes="1"):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_ab.py"), "--parent", str(parent),
         "--change", str(change), "--seed", *seeds, "--family", "pointwise", "--passes", passes],
        capture_output=True, text=True,
    )


def test_op_ab_times_a_checkout_against_itself():
    proc = op_ab(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["group", "samples", "parent_p50_ms", "change_p50_ms", "p50", "sum",
                                "sum_min", "sum_max"]
    rows = {" ".join(line.split()[:2]): line.split()[2:] for line in lines[1:]}
    assert list(rows) == ["workload ftc-pointwise", "family pointwise", "subcommand decompose",
                          "subcommand derive", "subcommand integrate"]
    assert rows["family pointwise"][0] == "240"
    assert all(float(p50) > 0.0 and float(total) > 0.0 for *_, p50, total, _, _ in rows.values())
    # one pass: its ratio is the pooled one
    assert all(total == low == high for *_, total, low, high in rows.values())


def test_op_ab_bounds_the_pooled_sum_ratio_by_the_passes():
    # the pooled ratio is a mediant of the per-pass ratios
    proc = op_ab(ROOT, ROOT, passes="3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for line in proc.stdout.splitlines()[1:]:
        total, low, high = map(float, line.split()[-3:])
        assert low <= total <= high, line


def test_op_ab_names_the_ops_whose_outcomes_differ(tmp_path):
    planted(tmp_path, "    return 3\n")
    proc = op_ab(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    named = [line for line in proc.stdout.splitlines() if line.startswith("pointwise-timed-")]
    assert len(named) == 240 and named[0] == "pointwise-timed-000: exit, stdout differ"


def test_op_ab_times_several_seeds_in_one_run(tmp_path):
    # the pooled rows count every seed's samples, and each seed gets its own row
    proc = op_ab(ROOT, ROOT, ("7", "11"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = {" ".join(line.split()[:-7]): line.split()[-7:] for line in proc.stdout.splitlines()[1:]}
    assert list(rows) == ["workload ftc-pointwise", "family pointwise", "subcommand decompose",
                          "subcommand derive", "subcommand integrate",
                          "seed 11 ftc-pointwise", "seed 7 ftc-pointwise"]
    assert rows["family pointwise"][0] == "480"
    assert rows["seed 7 ftc-pointwise"][0] == rows["seed 11 ftc-pointwise"][0] == "240"
    # op ids repeat across seeds, so each seed's ops must read that seed's
    # documents: a change that differs only on seed 11's documents differs
    # on seed 11's ops alone
    planted(tmp_path, "    return 3 if _reads_seed_11(argv) else _main(argv)\n", READS_SEED_11)
    proc = op_ab(ROOT, tmp_path, ("7", "11"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    named = [line for line in proc.stdout.splitlines() if ": " in line]
    assert len(named) == 240 and all(line.startswith("seed 11 ") for line in named)
    assert named[0] == "seed 11 pointwise-timed-000: exit, stdout differ"


# for a planted cli.py: whether a document argv names holds seed 11's text
READS_SEED_11 = """
_main = main
_SEED_11 = {}


def _reads_seed_11(argv):
    if not _SEED_11:
        from workloads import WORKLOADS  # on the path op_ab.py runs with
        _SEED_11.update(item for build in WORKLOADS.values() for op in build(11)
                        for item in op.file_texts().items())
    return any(_SEED_11.get(os.path.basename(a)) == open(a, encoding="utf-8").read()
               for a in argv if a.endswith(".json") and os.path.exists(a))
"""
