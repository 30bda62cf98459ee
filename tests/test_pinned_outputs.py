"""Byte identity of CLI output against the sha256 digests pinned for the benchmark.

perfbench/digests.json maps each space-joined argument list to the sha256 of
its stdout.  This test recomputes the small-size ones: the set-up optimize
call and the two reduced sweeps at every pinned eps.  A change that moves any
printed digit of a schedule, objective or throughput fails here.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from harqsdo.cli import main

DIGESTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "digests.json")
SMALL = (
    "optimize --k 8 --n 24 --m 3 --eps 0.5",
    "sweep-n --k 32 --n 66:120:27 --m 1:4 --model all --eps ",
    "sweep-k --k 36:40:2 --n 56 --m 4 --model all --eps ",
)

with open(DIGESTS) as fh:
    PINNED = {argv: digest for argv, digest in json.load(fh)["digests"].items()
              if argv.startswith(SMALL)}


def test_small_argument_lists_are_all_pinned():
    assert len(PINNED) == 81


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_output_matches_pinned_digest(argv, monkeypatch):
    monkeypatch.delenv("HARQ_SDO_OUT", raising=False)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv.split()) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == PINNED[argv]
