"""Output checks for the benchmark workloads.

Each check returns None when the CLI output is right and a one-line reason
when it is not, so the caller can count the invocation as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from harqsdo import CodeParams, ack_prob

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def load_digests() -> dict[str, str]:
    """sha256 of the CLI output, keyed by the space-joined argument list."""
    with open(DIGESTS) as fh:
        return json.load(fh)["digests"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows(text: str) -> list[dict]:
    """Data rows of a CSV output, without the '#' header line."""
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


def pinned(digests: dict[str, str], argv, text: str) -> str | None:
    key = " ".join(argv)
    want = digests.get(key)
    if want is None:
        return f"no pinned digest for {key!r}"
    if sha256(text) != want:
        return f"output of {key!r} differs from its pinned digest"
    return None


def es_not_worse(text: str) -> str | None:
    """In a sweep-k with --model all, es must be no worse than na and lna at every k."""
    by_k: dict[str, dict[str, str]] = {}
    for row in rows(text):
        by_k.setdefault(row["k"], {})[row["method"]] = row["expected_symbols"]
    for k, objective in by_k.items():
        try:
            es = float(objective["es"])
            heuristics = [float(objective[m]) for m in ("na", "lna")]
        except (KeyError, ValueError):
            return f"k={k}: no es, na and lna objectives in {sorted(objective)}"
        if any(es > h for h in heuristics):
            return f"k={k}: es objective {es} above na/lna {heuristics}"
    return None


def simulate_agrees(text: str, sigmas: float) -> str | None:
    """Monte Carlo mean and per-block ACK rates within `sigmas` standard errors of the laws."""
    try:
        (row,) = rows(text)
        k, n, m, trials = (int(row[c]) for c in ("k", "n", "m", "trials"))
        params = CodeParams(k, n, float(row["epsilon"]))
        mean = float(row["mean_symbols"])
        se = float(row["stderr_symbols"])
        analytic = float(row["analytic_expected_symbols"])
        rates = [(int(row[f"n{i}"]), float(row[f"ack_rate_block{i}"])) for i in range(1, m + 1)]
    except (KeyError, ValueError) as exc:
        return f"unreadable simulate output: {exc!r}"
    if abs(mean - analytic) > sigmas * se:
        return f"mean {mean} is more than {sigmas} SE ({se}) from analytic {analytic}"
    for i, (boundary, rate) in enumerate(rates, start=1):
        p = ack_prob(params, boundary)
        se_i = math.sqrt(p * (1.0 - p) / trials)
        if abs(rate - p) > sigmas * se_i:
            return f"ack_rate_block{i} {rate} is more than {sigmas} SE from ack_prob {p}"
    return None
