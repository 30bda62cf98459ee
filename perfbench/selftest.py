"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Runs every workload at its small size, untraced and traced, and checks that
each metric BENCHMARK.json declares appears with its unit and that every
output passes.  Then it corrupts outputs (one digit of a sweep, the Monte
Carlo mean moved by 10 standard errors, an es objective above na) and checks
that each corrupted call counts as a failed operation.  Last, it runs the
benchmark in a directory without the package and expects a nonzero exit and
no result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys

import run

SEED = 7
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def declared() -> tuple[list[str], dict[str, str], dict[str, str]]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    return [w["name"] for w in spec["workloads"]], units[0], units[1]


def small_run(workload: str, trace: bool) -> dict:
    return run.run(workload, SEED, 0.5, trace, small=True)["result"]


@contextlib.contextmanager
def corrupted(transform):
    """Make harqsdo.cli.main print transform(its real output)."""
    real = run.cli.main

    def corrupt(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = real(argv)
        sys.stdout.write(transform(buf.getvalue()))
        return rc

    run.cli.main = corrupt
    try:
        yield
    finally:
        run.cli.main = real


def change_last_digit(text: str) -> str:
    return text[:-2] + ("2" if text[-2] == "1" else "1") + "\n"


def edit_row(text: str, edit) -> str:
    """Apply edit(columns, row) to every data row of a CSV output."""
    lines = text.splitlines()
    table = list(csv.reader(lines[1:]))
    for row in table[1:]:
        edit(table[0], row)
    buf = io.StringIO()
    buf.write(lines[0] + "\n")
    csv.writer(buf, lineterminator="\n").writerows(table)
    return buf.getvalue()


def shift_mean(columns, row) -> None:
    se = float(row[columns.index("stderr_symbols")])
    i = columns.index("mean_symbols")
    row[i] = format(float(row[i]) + 10 * se, ".12g")


def raise_es(columns, row) -> None:
    if row[columns.index("method")] == "es":
        row[columns.index("expected_symbols")] = "1e9"


def check_metrics(workloads, e2e_units, layer_units) -> None:
    expect(sorted(workloads) == sorted(run.WORKLOADS), "BENCHMARK.json lists the workloads of run.py")
    for name in workloads:
        for trace, units in ((False, e2e_units), (True, layer_units)):
            r = small_run(name, trace)
            tag = f"{name} trace={int(trace)}"
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                   f"{tag}: correct, {r['failed']} of {r['attempted']} failed")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == units, f"{tag}: every declared metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in r["metrics"].values()),
                   f"{tag}: every value a number")


def check_corruption() -> None:
    setups = 2  # set-up interpreters at small size: one warm, one timed
    for name, transform, what in (
        ("sweep-n-fig2", change_last_digit, "one changed digit"),
        ("sweep-k-es", change_last_digit, "one changed digit"),
        ("simulate-narrow", lambda t: edit_row(t, shift_mean), "mean moved by 10 SE"),
    ):
        with corrupted(transform):
            r = small_run(name, False)
        expect(not r["correct"] and r["failed"] == r["attempted"] - setups,
               f"{name}, {what}: all {r['attempted'] - setups} calls failed, got {r['failed']}")
        expect(r["metrics"]["ops_ok_ratio"]["value"] < 1.0, f"{name}, {what}: ops_ok_ratio < 1")
    argv = run.argv_for(run.WORKLOADS["sweep-k-es"], SEED, True, 0)
    _, text, _ = run.invoke(argv)
    expect(run.checks.es_not_worse(text) is None, "sweep-k-es: es no worse than na and lna")
    expect(run.checks.es_not_worse(edit_row(text, raise_es)) is not None,
           "sweep-k-es: an es objective above na fails")


def check_without_package() -> None:
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-k-es", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the package: exit {proc.returncode}, no result")


def main() -> int:
    run.load_package()
    check_metrics(*declared())
    check_corruption()
    check_without_package()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
