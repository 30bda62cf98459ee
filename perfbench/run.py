"""Closed-loop benchmark of the harq-sdo command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports the package from
the checkout's src/.  One client calls harqsdo.cli.main(argv) in-process,
one invocation at a time, after a warm-up call, for S seconds.  The seed
makes the CLI arguments; the package sees only those.  Every output is
checked (checks.py).  A fixed reference kernel runs between invocations
(reference.py), and the gated time is each invocation's wall time as a
multiple of the kernel's.  --trace 0 reports the end-to-end metrics; --trace 1
reports per-layer metrics from spans recorded around the calls between the
package's modules (tracer.py).  The line before the last one on stdout holds
the environment and the details; the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from reference import reference
from tracer import Target, Tracer, dump, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NPROC = len(os.sched_getaffinity(0))

SETUP_RUNS = 7
# On a shared virtual machine the speed of a busy process settles only after
# seconds of sustained load, so untimed calls run that long before timing.
WARMUP_S = 2.0
SIGMAS = 4.0
# Sweeps take a new erasure rate each invocation, so no result computed in one
# call can serve the next: a CLI user pays every design point afresh.
EPS_VARIANTS = tuple(f"{0.30 + 0.01 * j:.2f}" for j in range(40))
SETUP_ARGV = ("optimize", "--k", "8", "--n", "24", "--m", "3", "--eps", "0.5")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: str
    small: str  # the same command at reduced size, for selftest.py
    workers: int = 0  # simulate only; capped at the CPUs this process may use

    @property
    def command(self) -> str:
        return self.argv.split()[0]


# Why each workload is here: perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("sweep-n-fig2",
             "sweep-n --k 32 --n 66:120:2 --m 1:8 --model all",
             "sweep-n --k 32 --n 66:120:27 --m 1:4 --model all"),
    Workload("sweep-k-es",
             "sweep-k --k 24:40:4 --n 88 --m 5 --model all",
             "sweep-k --k 36:40:2 --n 56 --m 4 --model all"),
    Workload("simulate-narrow",
             "simulate --k 32 --n 88 --m 4 --eps 0.5 --trials 3000",
             "simulate --k 32 --n 88 --m 4 --eps 0.5 --trials 200", workers=2),
)}


def argv_for(w: Workload, seed: int, small: bool, i: int, workers: int | None = None) -> list[str]:
    """CLI arguments of invocation i (0 is the warm-up); a pure function of its inputs."""
    base = (w.small if small else w.argv).split()
    rng = random.Random(f"{w.name}:{seed}")
    if w.command == "simulate":
        workers = min(w.workers, NPROC) if workers is None else workers
        return base + ["--seed", str(rng.randrange(2 ** 31)), "--workers", str(workers)]
    start = rng.randrange(len(EPS_VARIANTS))
    return base + ["--eps", EPS_VARIANTS[(start + i) % len(EPS_VARIANTS)]]


class Outputs:
    """Checks every output and counts the invocations that failed."""

    def __init__(self, w: Workload, digests: dict[str, str]) -> None:
        self.command = w.command
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.reference: str | None = None  # simulate: the warm-up output
        self.reference_reason: str | None = None

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    def check(self, argv, text: str, reason: str | None) -> None:
        if reason is None:
            reason = self._verdict(argv, text)
        self.record(reason)

    def _verdict(self, argv, text: str) -> str | None:
        if self.command != "simulate":
            reason = checks.pinned(self.digests, argv, text)
            if reason is None and self.command == "sweep-k":
                reason = checks.es_not_worse(text)
            return reason
        # Every simulate invocation of a run repeats the warm-up's seed, so its
        # output must equal the warm-up's, which is checked against the laws.
        if self.reference is None:
            self.reference = text
            self.reference_reason = checks.simulate_agrees(text, SIGMAS)
        if text != self.reference:
            return "output differs from the warm-up output of the same seed"
        return self.reference_reason


def invoke(argv, tracer=None) -> tuple[float, str, str | None]:
    """One CLI call: (wall seconds, stdout, failure reason or None)."""
    buf = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = tracer.call("cli", cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the harness keeps going; the call counts as failed
        traceback.print_exc()
        return time.perf_counter() - t0, buf.getvalue(), f"raised {exc!r}"
    wall = time.perf_counter() - t0
    return wall, buf.getvalue(), None if rc in (0, None) else f"exited with {rc!r}"


def warm_up(argvs, outputs: Outputs, seconds: float) -> str:
    """Untimed, checked calls until `seconds` have passed; returns the first output."""
    deadline = time.perf_counter() + seconds
    first = None
    for argv in argvs:
        _, text, reason = invoke(argv)
        outputs.check(argv, text, reason)
        first = text if first is None else first
        if time.perf_counter() >= deadline:
            return first


def measure_setup(outputs: Outputs, runs: int) -> float:
    """Median wall time of a fresh interpreter importing the CLI and running a tiny optimize."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import harqsdo.cli as cli; "
            "raise SystemExit(cli.main(sys.argv[2:]))")
    cmd = [sys.executable, "-c", code, SRC, *SETUP_ARGV]
    walls = []
    for i in range(runs + 1):  # the first run fills the byte-code and file caches
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode:
            outputs.record(f"set-up interpreter exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-200:]}")
        else:
            outputs.record(checks.pinned(outputs.digests, SETUP_ARGV, proc.stdout))
        if i:
            walls.append(wall)
    return statistics.median(walls)


def work_units(w: Workload, text: str) -> int:
    """Rows a sweep emits, or rounds a simulation draws, in one invocation."""
    try:
        data = checks.rows(text)
        return int(data[0]["trials"]) if w.command == "simulate" else len(data)
    except (IndexError, KeyError, ValueError):
        return 0


def tail(walls: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it (nearest rank)."""
    rank = len(walls) - 10
    if rank < 1:
        return None
    return {"percentile": 100 * rank // len(walls), "value": sorted(walls)[rank - 1]}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(w: Workload, seed: int, seconds: float, small: bool, outputs: Outputs):
    setup_s = measure_setup(outputs, 1 if small else SETUP_RUNS)
    reference()  # its first run pays one-time costs
    # Warm-up calls count down from 0 and timed calls up from 1: no repeats.
    text = warm_up((argv_for(w, seed, small, -j) for j in itertools.count()), outputs,
                   0.0 if small else WARMUP_S)
    units = work_units(w, text)
    walls, refs = [], [reference()]
    deadline = time.perf_counter() + seconds
    i = 1
    while not walls or time.perf_counter() < deadline:
        argv = argv_for(w, seed, small, i)
        wall, text, reason = invoke(argv)
        outputs.check(argv, text, reason)
        walls.append(wall)
        refs.append(reference())
        i += 1
    # Each invocation against the mean of the reference runs just before and after it.
    ratios = [wall * 2 / (before + after) for wall, before, after in zip(walls, refs, refs[1:])]
    if w.command == "simulate":  # worker invariance, outside the timed region
        timed = min(w.workers, NPROC)
        argv = argv_for(w, seed, small, 0, workers=1 if timed > 1 else min(2, NPROC))
        _, text, reason = invoke(argv)
        outputs.check(argv, text, reason)
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_per_ref": (statistics.median(ratios), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_ok_ratio": (1.0 - outputs.failed / outputs.attempted, "ratio"),
    }
    detail = {
        "wall_s": {"samples": len(walls), **spread(walls), "tail": tail(walls)},
        "wall_per_ref": {**spread(ratios), "tail": tail(ratios)},
        "reference_s": spread(refs),
        "cells_per_s" if w.command != "simulate" else "trials_per_s":
            {"value": units / wall_s, "unit": "1/s"},
        "ops_failed_ratio": outputs.failed / outputs.attempted,
    }
    return metrics, detail, True


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3}


def _point(args, _result):
    p = args["params"]
    return {"point": (p.k, p.n, p.epsilon)}


def _kn_point(args, _result):
    return {"point": (args["k"], args["n"])}


def _n1_candidates(_args, report):
    span = report.n1_searched
    return {"count": span[1] - span[0] + 1 if span else 0}


def _search_space(args, _result):
    p, m = args["params"], args["m"]
    return {"count": math.comb(p.n - p.k, m - 1) if m > 1 else 0}


def _trials(_args, report):
    return {"count": report.trials}


def layer_targets():
    """The names one harqsdo module calls in another, at this package layout."""
    return (
        Target("sdo.optimize", "harqsdo.cli", "optimize", _n1_candidates),
        Target("sdo.exhaustive_search", "harqsdo.cli", "exhaustive_search", _search_space),
        Target("simulate.estimate", "harqsdo.cli", "estimate", _trials, cpu=True),
        Target("channel.ack_curve", "harqsdo.sdo", "ack_curve", _point),
        Target("channel.expected_round_symbols", "harqsdo.sdo", "expected_round_symbols"),
        Target("channel.throughput", "harqsdo.sdo", "throughput"),
        Target("codes.decode_success_curve", "harqsdo.channel", "decode_success_curve",
               _kn_point),
        Target("simulate.trial_rng", "harqsdo.simulate", "trial_rng"),
    )


def child_processes() -> int:
    """Live child processes of this process, read from /proc."""
    count = 0
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as fh:
                count += len(fh.read().split())
    except OSError:
        return 0
    return count


def counts(summary: dict) -> dict:
    return {name: (a["calls"], a["count"], len(a["points"])) for name, a in summary.items()}


def per_layer(w: Workload, seed: int, seconds: float, small: bool, outputs: Outputs):
    tracer = Tracer(layer_targets())
    # Every call repeats the warm-up's arguments, so the counts must repeat exactly.
    argv = argv_for(w, seed, small, 0)
    warm_up(itertools.repeat(argv), outputs, 0.0 if small else WARMUP_S)
    untraced, traced, summaries = [], [], []
    unseen_work = False
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        wall, text, reason = invoke(argv)
        outputs.check(argv, text, reason)
        untraced.append(wall)
        tracer.spans.clear()
        kids_cpu = resource.getrusage(resource.RUSAGE_CHILDREN)
        with tracer.installed():
            wall, text, reason = invoke(argv, tracer)
        outputs.check(argv, text, reason)
        traced.append(wall)
        summaries.append(summarize(tracer.spans))
        kids_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        # Work done in child processes is invisible to the wrappers.
        unseen_work |= child_processes() > 0 or (
            kids_after.ru_utime + kids_after.ru_stime > kids_cpu.ru_utime + kids_cpu.ru_stime)
    os.makedirs(OUT, exist_ok=True)
    dump(tracer.spans, os.path.join(OUT, f"spans-{w.name}.json"))
    repeat = all(counts(s) == counts(summaries[0]) for s in summaries)

    first = summaries[0]

    def count(name, field="calls"):
        if unseen_work or name in tracer.missing:
            return None
        return first.get(name, {}).get(field, 0)

    def per_point(name):
        calls = count(name)
        points = len(first.get(name, {}).get("points", ()))
        return None if calls is None else (calls / points if points else 0.0)

    def median_of(name, value):
        if name in tracer.missing:
            return None
        return statistics.median(value(s.get(name)) if s.get(name) else 0 for s in summaries)

    def self_s(name):
        return median_of(name, lambda a: a["self_ns"] / 1e9)

    def estimate_ratio(value):
        return median_of("simulate.estimate", lambda a: value(a) if a["count"] else 0.0)

    rows = checks.rows(text) if w.command == "simulate" and reason is None else []
    metrics = {
        "cli.self_s": (self_s("cli"), "s"),
        "sdo.optimize.calls": (count("sdo.optimize"), "count"),
        "sdo.optimize.self_s": (self_s("sdo.optimize"), "s"),
        "sdo.optimize.n1_candidates": (count("sdo.optimize", "count"), "count"),
        "sdo.exhaustive_search.calls": (count("sdo.exhaustive_search"), "count"),
        "sdo.exhaustive_search.self_s": (self_s("sdo.exhaustive_search"), "s"),
        "sdo.exhaustive_search.candidates": (count("sdo.exhaustive_search", "count"), "count"),
        "channel.ack_curve.calls": (count("channel.ack_curve"), "count"),
        "channel.ack_curve.self_s": (self_s("channel.ack_curve"), "s"),
        "channel.ack_curve.calls_per_point": (per_point("channel.ack_curve"), "calls/point"),
        "channel.expected_round_symbols.self_s":
            (self_s("channel.expected_round_symbols"), "s"),
        "channel.throughput.self_s": (self_s("channel.throughput"), "s"),
        "codes.decode_success_curve.calls": (count("codes.decode_success_curve"), "count"),
        "codes.decode_success_curve.self_s": (self_s("codes.decode_success_curve"), "s"),
        "codes.decode_success_curve.calls_per_point":
            (per_point("codes.decode_success_curve"), "calls/point"),
        "simulate.estimate.self_s": (self_s("simulate.estimate"), "s"),
        "simulate.trial_rng.calls": (count("simulate.trial_rng"), "count"),
        "simulate.trial_rng.self_s": (self_s("simulate.trial_rng"), "s"),
        "simulate.us_per_trial":
            (estimate_ratio(lambda a: a["wall_ns"] / 1e3 / a["count"]), "us"),
        "simulate.failed_round_ratio":
            (1.0 - float(rows[0]["success_rate"]) if rows else 0.0, "ratio"),
        "simulate.cpu_per_wall": (estimate_ratio(lambda a: a["cpu_ns"] / a["wall_ns"]), "ratio"),
        "trace_overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    }
    detail = {
        "traced_invocations": len(traced),
        "untraced_wall_s": statistics.median(untraced),
        "traced_wall_s": statistics.median(traced),
        "counts_repeat": repeat,
        "work_in_child_processes": unseen_work,
        "missing_targets": sorted(tracer.missing),
    }
    return metrics, detail, repeat


def loadavg() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code where git cannot."""
    pkg = os.path.join(SRC, "harqsdo")
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), None)
    return {
        "nproc": os.cpu_count(), "usable_cpus": NPROC, "cpu_model": model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "source_sha256": source_sha256(), "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One benchmark run; returns the detail record and the result object."""
    w = WORKLOADS[workload]
    os.environ.pop("HARQ_SDO_OUT", None)  # the CLI must write to stdout
    load_start = loadavg()
    outputs = Outputs(w, checks.load_digests())
    measure = per_layer if trace else end_to_end
    metrics, detail, sound = measure(w, seed, seconds, small, outputs)
    record = {
        "workload": w.name, "trace": int(trace), "argv0": argv_for(w, seed, small, 0),
        "env": environment(seed), "loadavg_start": load_start, "loadavg_end": loadavg(),
        **detail, "failures": outputs.reasons,
    }
    result = {
        "correct": outputs.failed == 0 and sound,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return {"detail": record, "result": result}


def load_package() -> None:
    """Import harqsdo from this checkout's src/, nowhere else."""
    global cli, checks
    if not os.path.isfile(os.path.join(SRC, "harqsdo", "cli.py")):
        raise SystemExit(f"perfbench: no package source at {SRC}/harqsdo; "
                         "run from a checkout of the repository")
    # One client, so numerical libraries get one thread each.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import harqsdo.cli as cli_module

    if not os.path.abspath(cli_module.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported harqsdo from {cli_module.__file__}, not {SRC}")
    import checks as checks_module

    cli, checks = cli_module, checks_module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_package()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
