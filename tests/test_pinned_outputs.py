"""Byte identity of CLI output against pinned sha256 digests.

perfbench/digests.json maps each space-joined argument list to the sha256 of
its stdout.  This test recomputes the small-size ones: the set-up optimize
call and the two reduced sweeps at every pinned eps.  A change that moves any
printed digit of a schedule, objective or throughput fails here.  validate's
CSV and JSON reports are pinned below, so no check's value, tolerance or
verdict moves unseen either.
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

VALIDATE = {
    "validate": "97770204e86411a147e22a46ccf7bae74cbd11a18dbc11467bdd5ee78e89deb6",
    "validate --format json": "4220be79b973ba88ec36bda10dee2d6377b0eae8c6cdeaff40b22a43ba001b5c",
}

with open(DIGESTS) as fh:
    PINNED = {argv: digest for argv, digest in json.load(fh)["digests"].items()
              if argv.startswith(SMALL)}


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


@pytest.mark.parametrize("argv", sorted(VALIDATE))
def test_validate_matches_pinned_digest(argv, monkeypatch):
    monkeypatch.delenv("HARQ_SDO_OUT", raising=False)
    assert _stdout_digest(argv) == VALIDATE[argv]
