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
CSV of four sweeps with skipped rows, and the dict rows of constants and
simulate.  So is the stdout of demos 01-04, run as scripts; demo 05 prints
the path it writes to, so its bytes depend on the checkout.

Every pinned argument list is also run in a child process under another
kernel, OpenBLAS's Haswell one and numpy without its AVX-512 loops, so that
a pin which holds under one kernel alone shows as such: each list that
moves there today is a strict xfail with its cause.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import platform
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

# the dict rows of constants, as CSV and as JSON, and of simulate as JSON: its
# boundaries fill the nI columns of its CSV and print as a list in its JSON
DICT_ROWS = {
    "constants": "8768c5b984a9059a981e9e40e58578f302f9f2f00699127c25b959ac8797b925",
    "constants --format json":
        "6ba7dfc5ca31979df46d34aaea3c2569a5c4ee9dbbdea79e20d08493c39b994f",
    "simulate --k 8 --n 24 --m 3 --trials 200 --seed 3 --model all --format json":
        "52f7646d0df0a332bc395e3b03459a8fc656eb51e2da4a465a0654ccfa07b886",
    "simulate --k 8 --n 24 --m 3 --trials 200 --seed 3 --model all --format json"
    " --matrix-reuse 3":
        "55dd7157edc1ed83d33a6c588a5c8d0c35f2fbdaeb7b30d30b2fba6f59d85a22",
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


@pytest.mark.parametrize("argv", sorted(DICT_ROWS))
def test_dict_rows_match_pinned_digest(argv, monkeypatch):
    monkeypatch.delenv("HARQ_SDO_OUT", raising=False)
    assert _stdout_digest(argv) == DICT_ROWS[argv]


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_stdout_matches_pinned_digest(demo):
    src = os.path.join(ROOT, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("HARQ_SDO_OUT", None)
    run = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                         capture_output=True, env=env, timeout=300, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == DEMOS[demo]


# every argument list pinned above, demos aside
KERNEL_LISTS = {**ALL_PINNED, **VALIDATE, **JSON, **WIDE, **SKIPPED, **DICT_ROWS}

# channel._ack_table computes each ACK value as 1 - dot, and where ACK is small
# that keeps only absolute accuracy; a kernel that moves the dot's last bits
# moves the 12-digit throughputs of these lists
_HASWELL_MOVES = frozenset({
    "sweep-k --k 1:30 --n 24 --m 6 --model all --eps 0.9",
    *(f"sweep-k --k 36:40:2 --n 56 --m 4 --model all --eps {eps}"
      for eps in ["0.50", "0.57"] + [f"0.{i}" for i in range(59, 70)]),
    "sweep-n --k 32 --n 66:120:2 --m 1:8 --model all --eps 0.69",
})
_NO_AVX512_MOVES = frozenset({"sweep-n --k 32 --n 66:120:2 --m 1:8 --model all --eps 0.68"})
_KERNELS = {
    "haswell": (_HASWELL_MOVES, "the Haswell ddot sums the ACK dot in another order, and "
                "1 - dot moves a 12-digit throughput"),
    "no-avx512": (_NO_AVX512_MOVES, "numpy's AVX2 exp rounds some binomial log-weights of "
                  "the ACK curve apart from its AVX-512 exp, and a 12-digit throughput moves"),
}

# prints the OpenBLAS core name (read as CI's runtime-only step reads it), the
# numpy dispatch targets still on, and the digest of each argument list's stdout
_CHILD = """
import contextlib, ctypes, glob, hashlib, io, json, os, sys
import numpy
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath
from harqsdo.cli import main

core = "unknown"
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                   "openblas_get_corename"):
        try:
            get = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_char_p
        core = get().decode()
digests = {}
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split())
    digests[argv] = hashlib.sha256(buf.getvalue().encode()).hexdigest() if code == 0 else code
on = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
json.dump({"core": core, "dispatch": on, "digests": digests}, sys.stdout)
"""


def _past_avx2() -> list[str]:
    """numpy's dispatch targets past AVX2 that this CPU runs: its AVX-512 groups."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)
            and (name.startswith("AVX512") or name == "X86_V4")]


@functools.cache
def _kernel_digests(kernel: str) -> tuple[str | None, dict]:
    """(why kernel cannot be switched here, or None; each list's digest under it)."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"both kernels are x86-64 ones, and this is {platform.machine()}", {}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))))}
    env.pop("HARQ_SDO_OUT", None)
    if kernel == "haswell":
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        env["OPENBLAS_CORETYPE"] = "Haswell"
    else:
        env.pop("OPENBLAS_CORETYPE", None)
        past = _past_avx2()
        if not past:
            return "numpy runs no AVX-512 loop on this CPU", {}
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(past)
    run = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(sorted(KERNEL_LISTS)),
                         capture_output=True, text=True, env=env, timeout=600, check=True)
    child = json.loads(run.stdout)
    if kernel == "haswell" and child["core"] != "Haswell":
        return f"OpenBLAS runs core {child['core']!r} under OPENBLAS_CORETYPE=Haswell", {}
    if kernel == "no-avx512" and set(child["dispatch"]) & set(past):
        return f"numpy kept {sorted(set(child['dispatch']) & set(past))} switched on", {}
    return None, child["digests"]


@pytest.mark.parametrize("kernel, argv", [
    pytest.param(kernel, argv, id=f"{kernel}-{argv}", marks=[
        pytest.mark.xfail(strict=True, reason=cause)] if argv in moves else [])
    for kernel, (moves, cause) in _KERNELS.items() for argv in sorted(KERNEL_LISTS)])
def test_output_holds_under_another_kernel(kernel, argv):
    skipped, digests = _kernel_digests(kernel)
    if skipped:
        pytest.skip(skipped)
    assert digests[argv] == KERNEL_LISTS[argv]
