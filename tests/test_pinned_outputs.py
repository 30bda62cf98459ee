"""Byte identity of CLI output against pinned sha256 digests.

perfbench/digests.json maps each space-joined argument list to the sha256 of
its stdout.  This test recomputes them all: the set-up optimize call, and the
two sweeps at every pinned eps, both reduced and at the benchmark's size.  A
change that moves any printed digit of a schedule, objective or throughput
fails here.  validate's CSV and JSON reports are pinned below, so no check's
value, tolerance or verdict moves unseen either.  So are the JSON forms of
both benchmark sweeps at eps 0.47, of a sweep with skipped rows and of an
optimize call: a row's schedule prints there as a list.  So are three runs
whose scoring blocks are thinner than m, or whose m lie far apart, and the
CSV of four sweeps with skipped rows.  So is the stdout of demos 01-04, run
as scripts; demo 05 prints the path it writes to, so its bytes depend on
the checkout.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from harqsdo.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")
SMALL = (
    "optimize --k 8 --n 24 --m 3 --eps 0.5",
    "sweep-n --k 32 --n 66:120:27 --m 1:4 --model all --eps ",
    "sweep-k --k 36:40:2 --n 56 --m 4 --model all --eps ",
)
BENCHMARK_SIZE = (
    "sweep-n --k 32 --n 66:120:2 --m 1:8 --model all --eps ",
    "sweep-k --k 24:40:4 --n 88 --m 5 --model all --eps ",
)

VALIDATE = {
    "validate": "97770204e86411a147e22a46ccf7bae74cbd11a18dbc11467bdd5ee78e89deb6",
    "validate --format json": "4220be79b973ba88ec36bda10dee2d6377b0eae8c6cdeaff40b22a43ba001b5c",
}

JSON = {
    "sweep-n --k 32 --n 66:120:2 --m 1:8 --model all --eps 0.47 --format json":
        "3e4c1af83c0a30ca8c688270fe43db6ab082b2f05ff8e8c7da7e1743d59164e0",
    "sweep-k --k 24:40:4 --n 88 --m 5 --model all --eps 0.47 --format json":
        "e18f57532abf0cad219f05901915dbd0d6c7f03ca51f1df9c71c2249c98c94d6",
    "sweep-k --k 20:26:2 --n 24 --m 3 --model all --format json":
        "f0dab05722022fe70f3bb71c6a29630d7fea0031fe350389b3e39b02ff613c2c",
    "optimize --k 8 --n 24 --m 3 --model all --format json":
        "de0e90691dd79f8f0f6ada04b21f3c448c630fb374d4ca6f5db55bd83038e5d6",
}

# sdo scores blocks of _BLOCK_CELLS // m candidates: fewer than m at m = 300
# and 3000, many at m = 2; and a k sweep of 13 rows, each stacking two models
WIDE = {
    "sweep-n --k 32 --n 340:400:20 --m 2,40,300 --model all --eps 0.9":
        "ae4e23b7053517cec167a77b1dc906b8d7caaa02926d335e61515d83e06b273b",
    "sweep-k --k 4:40:3 --n 120 --m 12 --model all --eps 0.7":
        "ffeda5fe7b9f490cac0f7f07ce1206273317092e0250daa067eb9873ac529c3a",
    "optimize --k 32 --n 4000 --m 3000 --model lna --eps 0.5":
        "8566e37bbc1939a83f2172ea9f3f0a0ab3e107fe8554ca6dfd5356ab1ef15469",
}

# skipped rows in CSV, a fixed tail of empty cells after the method: under nI
# columns in the k sweeps and under a schedule column in the first n sweep; the
# last run skips no row, but gives an n and an m twice
SKIPPED = {
    "sweep-k --k 20:26:2 --n 24 --m 3 --model all":
        "bfe743995793b153060281e79d39ffa45a9dde4583bdc4629bd839af8257d7c0",
    "sweep-k --k 1:30 --n 24 --m 6 --model all --eps 0.9":
        "f4ea6e1d6c8a81f9b635a1a4be1aa9fa7b2f3bf69de44cdb295d22035b1f07ad",
    "sweep-n --k 8 --n 8:12 --m 1:6 --model es":
        "ff6e4bc396df9d81f01c1674a4bfe14f7f86ccf02ddd7d98ae78a254e82e2ef2",
    "sweep-n --k 32 --n 66,66,70 --m 3,1,3 --model lna --eps 0.3":
        "d329954a6382a051389e8abd49225b311abde0a66324f8c72569d1afca64147c",
}

DEMOS = {
    "01_decoding_law.py": "34e5517db4f23f4af99b9856a7d0885c61ca5c1879cc7094e5814cc7a310c9e7",
    "02_ack_and_round_length.py":
        "9bba029652506f6bc9cabdc223b21a310f45e048be69c74111a292f9c864fc84",
    "03_schedule_optimization.py":
        "f96a6158374257a96668eee4b35709609a4a757631127293a1df6e52833d35e0",
    "04_monte_carlo_validation.py":
        "d2dbea181165bca13b44df4d509ebc4477bb4d8fef8b55e72f16dd28b848265f",
}

with open(DIGESTS) as fh:
    ALL_PINNED = json.load(fh)["digests"]
PINNED = {argv: digest for argv, digest in ALL_PINNED.items() if argv.startswith(SMALL)}


def test_small_argument_lists_are_all_pinned():
    assert len(PINNED) == 81


def _stdout_digest(argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv.split()) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_output_matches_pinned_digest(argv, monkeypatch):
    monkeypatch.delenv("HARQ_SDO_OUT", raising=False)
    assert _stdout_digest(argv) == PINNED[argv]


def test_benchmark_size_argument_lists_reproduce(monkeypatch):
    # the benchmark's two sweeps at all 40 eps, in one test
    monkeypatch.delenv("HARQ_SDO_OUT", raising=False)
    full = {argv: digest for argv, digest in ALL_PINNED.items()
            if argv.startswith(BENCHMARK_SIZE)}
    assert len(full) == 80
    assert [argv for argv in sorted(full) if _stdout_digest(argv) != full[argv]] == []


@pytest.mark.parametrize("argv", sorted(VALIDATE))
def test_validate_matches_pinned_digest(argv, monkeypatch):
    monkeypatch.delenv("HARQ_SDO_OUT", raising=False)
    assert _stdout_digest(argv) == VALIDATE[argv]


@pytest.mark.parametrize("argv", sorted(JSON))
def test_json_matches_pinned_digest(argv, monkeypatch):
    monkeypatch.delenv("HARQ_SDO_OUT", raising=False)
    assert _stdout_digest(argv) == JSON[argv]


@pytest.mark.parametrize("argv", sorted(WIDE))
def test_wide_block_matches_pinned_digest(argv, monkeypatch):
    monkeypatch.delenv("HARQ_SDO_OUT", raising=False)
    assert _stdout_digest(argv) == WIDE[argv]


@pytest.mark.parametrize("argv", sorted(SKIPPED))
def test_skipped_rows_match_pinned_digest(argv, monkeypatch):
    monkeypatch.delenv("HARQ_SDO_OUT", raising=False)
    assert _stdout_digest(argv) == SKIPPED[argv]


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_stdout_matches_pinned_digest(demo):
    src = os.path.join(ROOT, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("HARQ_SDO_OUT", None)
    run = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                         capture_output=True, env=env, timeout=300, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == DEMOS[demo]
