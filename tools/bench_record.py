"""Record paired benchmark runs of two checkouts in one JSON file.

    python3 tools/bench_record.py --base DIR --head DIR --out BENCH_N.json \
        [--workload NAME ...] [--seeds 1-5] [--seconds 8]

DIR is the root of a checkout: base the parent, head the change.  For each
workload and seed this runs DIR/perfbench/run.py --trace 0 once for each
side, as a child process with DIR as its working directory, base first for
odd seeds and head first for even ones.  It reads the last two lines of
each run's stdout, the detail record and the result object (perfbench/
README.md); a run that exits nonzero, or prints no result, is recorded as
correct: false with no metrics.  The file holds the machine (from the first
detail record), each run's gated metrics (the end_to_end names of head's
BENCHMARK.json) and raw wall-time spread, each side's median and quartiles
per metric, and per metric the number of seeds on which head did better
than base, with the median ratio head / base.  It imports nothing from
harqsdo.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("base", "head")


def parse_run(stdout: str, returncode: int) -> dict:
    """One run's record: correct, its gated metrics' values, and the detail record.

    The last line of stdout is the result object and the line before it the
    detail record.  A nonzero exit, or a last line that is not a JSON object
    with metrics, makes the run incorrect, with no metrics.
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2]) if len(lines) > 1 else {}
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return {"correct": False, "metrics": {}, "detail": {}}
    if returncode != 0:
        return {"correct": False, "metrics": {}, "detail": detail}
    return {"correct": bool(result.get("correct")), "metrics": metrics, "detail": detail}


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive) of values; one value is all three."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], gated: dict[str, str]) -> dict:
    """Each side's spread of every gated metric, and head against base seed by seed.

    gated maps a metric to "lower" or "higher", the better direction.  A
    side's spread reads its correct runs; a seed counts as a pair only where
    both sides ran correctly and report the metric.
    """
    sides = {side: {} for side in SIDES}
    pairs = {}
    for name, better in gated.items():
        for side in SIDES:
            values = [r[side]["metrics"][name] for r in runs
                      if r[side]["correct"] and name in r[side]["metrics"]]
            if values:
                sides[side][name] = spread(values)
        both = [(r["base"]["metrics"][name], r["head"]["metrics"][name]) for r in runs
                if r["base"]["correct"] and r["head"]["correct"]
                and name in r["base"]["metrics"] and name in r["head"]["metrics"]]
        if both:
            wins = sum(head < base if better == "lower" else head > base for base, head in both)
            ratios = [head / base for base, head in both if base]
            pairs[name] = {"better": better, "head_better": wins, "pairs": len(both),
                           "median_ratio": statistics.median(ratios) if ratios else None}
    return {"spread": sides, "pairs": pairs}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    record = parse_run(proc.stdout, proc.returncode)
    if proc.returncode:
        record["error"] = proc.stderr.strip()[-300:]
    return record


def seed_list(text: str) -> list[int]:
    """'1-5' or '1,3,7' as a list of seeds."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="root of the parent's checkout")
    parser.add_argument("--head", required=True, help="root of the change's checkout")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    roots = {"base": args.base, "head": args.head}
    with open(os.path.join(args.head, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    gated = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"settings": {"seeds": seed_list(args.seeds), "seconds": args.seconds, "trace": 0},
              "machine": None, "sides": {}, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in record["settings"]["seeds"]:
            order = SIDES if seed % 2 else SIDES[::-1]
            run = {"seed": seed, "order": list(order)}
            for side in order:
                done = run_once(roots[side], workload, seed, args.seconds)
                env = done["detail"].get("env", {})
                if record["machine"] is None and env:
                    record["machine"] = {key: env.get(key) for key in (
                        "cpu_model", "nproc", "usable_cpus", "python", "numpy", "scipy")}
                if env:
                    record["sides"].setdefault(side, {
                        "commit": env.get("commit"), "source_sha256": env.get("source_sha256")})
                run[side] = {"correct": done["correct"],
                             "metrics": {name: done["metrics"][name]
                                         for name in gated if name in done["metrics"]},
                             "wall_s": done["detail"].get("wall_s"),
                             "loadavg": [done["detail"].get("loadavg_start"),
                                         done["detail"].get("loadavg_end")]}
                if "error" in done:
                    run[side]["error"] = done["error"]
                print(f"{workload} seed {seed} {side}: {json.dumps(run[side]['metrics'])}",
                      file=sys.stderr)
            runs.append(run)
        record["workloads"][workload] = {"runs": runs, **summarize(runs, gated)}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
