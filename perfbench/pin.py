"""Pin the sha256 of every CLI output the benchmark checks by digest.

    python3 perfbench/pin.py

Writes perfbench/digests.json.  Run it only at a commit whose outputs are
known to be right: every later commit is checked against these digests, and
pinning again at a commit that changed the output hides the change.
"""

from __future__ import annotations

import json
import sys

import run


def pinned_argvs() -> list[list[str]]:
    argvs = [list(run.SETUP_ARGV)]
    for w in run.WORKLOADS.values():
        if w.command == "simulate":
            continue
        for base in (w.argv, w.small):
            argvs += [base.split() + ["--eps", eps] for eps in run.EPS_VARIANTS]
    return argvs


def main() -> int:
    run.load_package()
    digests = {}
    for argv in pinned_argvs():
        _, text, reason = run.invoke(argv)
        if reason is None and argv[0] == "sweep-k":
            reason = run.checks.es_not_worse(text)
        if reason:
            sys.exit(f"pin: {' '.join(argv)}: {reason}")
        digests[" ".join(argv)] = run.checks.sha256(text)
    with open(run.checks.DIGESTS, "w") as fh:
        json.dump({"pinned_at": run.git_commit(), "source_sha256": run.source_sha256(),
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(digests)} digests in {run.checks.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
