"""Byte identity of CLI output against pinned sha256 digests.

perfbench/digests.json maps each space-joined argument list to the sha256 of
its stdout.  This test recomputes them all: the set-up optimize call, and the
two sweeps at every pinned eps, both reduced and at the benchmark's size.  A
change that moves any printed digit of a schedule, objective or throughput
fails here.  validate's CSV and JSON reports are pinned below, so no check's
value, tolerance or verdict moves unseen either.  So is the stdout of demos
01-04, run as scripts; demo 05 prints the path it writes to, so its bytes
depend on the checkout.
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


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_stdout_matches_pinned_digest(demo):
    src = os.path.join(ROOT, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("HARQ_SDO_OUT", None)
    run = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                         capture_output=True, env=env, timeout=300, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == DEMOS[demo]
