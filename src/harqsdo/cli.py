"""Command-line surface: optimization, figure sweeps, simulation, validation.

Every command emits CSV or JSON with floats fixed at 12 significant digits
and no timestamps, so identical configurations produce byte-identical files.
The design commands (optimize, sweep-k, sweep-n) build each row as a plain
record of DESIGN_FIELDS and print its CSV line with one string format; their
JSON rows, and every row of simulate, validate and constants, are dicts.
The default output directory can be set with the HARQ_SDO_OUT environment
variable; without it (and without --out) results go to stdout.  validate
passes a check when its value is at most its tolerance; four checks state
their own verdict, and any failed check makes the exit status 1.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field, fields

from . import __version__
from .codes import (
    CodeParams,
    _check_epsilon,
    _integral,
    decodable_count_moments,
    decodable_count_pmf,
    decode_success_curve,
    decode_success_prob,
    dst_constant,
    erdos_borwein_constant,
    overhead_moment,
)
from .channel import ack_curve, ack_curves, round_length_law
from .sdo import CdfModel, _check_m, _feasible, _row_entries, optimize, optimize_row
# unused here; perfbench traces it by this name
from .sdo import exhaustive_search  # noqa: F401
from .simulate import _first_dependent, estimate, rescore

__all__ = ["RunConfig", "main", "run_validate"]

COMMANDS = ("optimize", "sweep-k", "sweep-n", "simulate", "validate", "constants")
DESIGN_COMMANDS = ("optimize", "sweep-k", "sweep-n")
MODELS = ("na", "lna", "es", "all")
ENV_OUT_DIR = "HARQ_SDO_OUT"

_MODEL_KIND = {"es": "exhaustive", "na": "normal", "lna": "lognormal"}


def _fmt(x) -> str:
    """Fixed 12-significant-digit rendering for golden-file stability."""
    return format(float(x), ".12g")


def _round12(x) -> float:
    return float(_fmt(x))


def _int_value(name: str, value) -> int:
    """value, or the number a string spells, as an int; 8.0 and 1e2 pass, 8.5 raises."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            try:
                value = float(value)  # as a config file's JSON number reads
            except ValueError:
                pass  # _integral rejects the string itself, naming the field
    return _integral(name, value)


def parse_int_range(text, name: str = "range") -> list[int]:
    """Accept a scalar, 'lo:hi', 'lo:hi:step', or a comma list of integers."""
    if not isinstance(text, (str, list, tuple)):
        text = [text]
    if isinstance(text, (list, tuple)):
        return [_int_value(name, v) for v in text]
    s = text.strip()
    if "," in s:
        return [_int_value(name, v) for v in s.split(",") if v.strip()]
    if ":" in s:
        parts = [_int_value(name, v) for v in s.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ValueError(f"bad range {text!r}")
        if step < 1 or hi < lo:
            raise ValueError(f"bad range {text!r}")
        try:
            return list(range(lo, hi + 1, step))
        except OverflowError:  # more values than a list can index
            raise ValueError(f"{name} range {text!r} is too long") from None
    return [_int_value(name, s)]


def _float_value(name: str, value) -> float:
    """value, or the number a string spells, as a float; a bool is no number.

    -0.0 reads as 0.0, so it prints as the 0 it runs as.
    """
    if not isinstance(value, bool):
        try:
            return float(value) + 0.0
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def parse_float_range(text, name: str = "range") -> list[float]:
    """Accept a scalar, a list, or a comma list of numbers."""
    if isinstance(text, str):
        text = [v.strip() for v in text.split(",") if v.strip()]
    elif not isinstance(text, (list, tuple)):
        text = [text]
    return [_float_value(name, v) for v in text]


@dataclass
class RunConfig:
    command: str
    k: list[int] = field(default_factory=lambda: [8])
    n: list[int] = field(default_factory=lambda: [24])
    m: list[int] = field(default_factory=lambda: [2])
    epsilon: list[float] = field(default_factory=lambda: [0.5])
    model: str = "na"
    trials: int = 10000
    seed: int = 1
    workers: int = 1
    matrix_reuse: int = 1
    out: str | None = None
    format: str = "csv"
    gnuplot: bool = False

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        for name in ("k", "n", "m", "epsilon"):
            if not getattr(self, name):
                raise ValueError(f"range {name} is empty")
        # a flag or config file may give 2.0 for 2; the header must print what runs
        for name in ("trials", "seed", "workers", "matrix_reuse"):
            setattr(self, name, _int_value(name, getattr(self, name)))
        # workers changes no work; it is still checked, so a bad value stays an error
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError(f"out must be a path or null, got {self.out!r}")
        if not isinstance(self.gnuplot, bool):
            raise ValueError(f"gnuplot must be true or false, got {self.gnuplot!r}")

    def scalar(self, name: str):
        vals = getattr(self, name)
        if len(vals) != 1:
            raise ValueError(f"command {self.command} needs a single {name}, got {vals}")
        return vals[0]

    def param_summary(self) -> str:
        # workers and output destination deliberately excluded: they must not
        # change the emitted bytes
        return (
            f"command={self.command} k={_join(self.k)} n={_join(self.n)} "
            f"m={_join(self.m)} epsilon={_join(self.epsilon)} model={self.model} "
            f"trials={self.trials} seed={self.seed} matrix_reuse={self.matrix_reuse}"
        )


def _join(vals) -> str:
    return ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in vals)


def _methods(model: str) -> list[str]:
    if model == "all":
        return ["es", "na", "lna"]
    return [model]


# the fields of a design row (optimize, sweep-k, sweep-n), in the order of its
# JSON keys; schedule is the boundaries tuple, or None in a skipped row
DESIGN_FIELDS = ("k", "n", "m", "epsilon", "method", "schedule", "expected_symbols",
                 "throughput")


def _design_rows(cfg: RunConfig, methods: list[str], *, best_only: bool = False,
                 skip: bool = True) -> list[tuple]:
    """Records of every (k, n, m) cell of cfg, k slowest and m fastest.

    eps and every m are checked first, so that skipped rows cannot hide a
    bad value.  sdo._row_entries solves every (k, n) of the command in one
    pass, reading the cells lazily, each (k, n, m) checked for a schedule
    once: its chunks span k, its SDO models step every k of a chunk
    together, and es solves each n for all its m in one backward pass.
    The ACK curves of every (k, n) share eps, so ack_curves computes the
    curves of each chunk together.  A row is a plain record, DESIGN_FIELDS
    in order, built straight from a plain entry, so its schedule is a
    boundaries tuple; no report and no dict is built.  A cell has one
    record per method, or with best_only the record of the first method of
    highest throughput; an n or m given twice gives its records twice.
    Where no schedule fits, a cell has one skipped record, its method
    "skipped" and its last three fields None, or with skip False the
    solver raises.
    """
    eps = cfg.scalar("epsilon")
    _check_epsilon(eps)
    for m in cfg.m:
        _check_m(m)
    kinds = [_MODEL_KIND[method] for method in methods]
    cells = ((k, n, [m for m in cfg.m if not skip or _feasible(k, n, m)])
             for k in cfg.k for n in cfg.n)
    rows: list[tuple] = []
    for k, n, by_kind in _row_entries(eps, cells, kinds, ack_curves):
        for m in cfg.m:
            if m not in by_kind[kinds[0]]:
                rows.append((k, n, m, eps, "skipped", None, None, None))
                continue
            records = [(k, n, m, eps, method, *by_kind[kind][m])
                       for method, kind in zip(methods, kinds)]
            if best_only:  # the first of highest throughput
                records = [max(records, key=operator.itemgetter(7))]
            rows.extend(records)
    return rows


def run_optimize(cfg: RunConfig) -> tuple[list[str], list[tuple]]:
    _, _, m = cfg.scalar("k"), cfg.scalar("n"), cfg.scalar("m")
    rows = _design_rows(cfg, _methods(cfg.model), skip=False)  # raises if m fits no schedule
    return _sweep_columns(m), rows


def _sweep_columns(m: int) -> list[str]:
    return (["k", "n", "m", "epsilon", "method"] + [f"n{i}" for i in range(1, m + 1)]
            + ["expected_symbols", "throughput"])


def run_sweep_k(cfg: RunConfig) -> tuple[list[str], list[tuple]]:
    n, m = cfg.scalar("n"), cfg.scalar("m")
    if m > n:  # no k >= 1 fits, and m would size the columns of an all-skipped table
        raise ValueError(f"sweep-k needs m <= n, got m={m}, n={n}")
    return _sweep_columns(m), _design_rows(cfg, _methods(cfg.model))


def run_sweep_n(cfg: RunConfig) -> tuple[list[str], list[tuple]]:
    cfg.scalar("k")
    # `all` keeps the better SDO model per cell, as in the blocklength figure
    methods = ["na", "lna"] if cfg.model == "all" else [cfg.model]
    return list(DESIGN_FIELDS), _design_rows(cfg, methods, best_only=True)


def run_simulate(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    k, n, m = cfg.scalar("k"), cfg.scalar("n"), cfg.scalar("m")
    eps = cfg.scalar("epsilon")
    params = CodeParams(k, n, eps)
    kinds = {method: _MODEL_KIND[method] for method in _methods(cfg.model)}
    [(_, by_kind)] = optimize_row(k, eps, [(n, (m,))], kinds.values())  # one solve, every method
    solved = [(method, by_kind[kind][m]) for method, kind in kinds.items()]
    # one draw: every row scores the same trials (common random numbers)
    drawn = estimate(params, solved[0][1].schedule, cfg.trials, cfg.seed,
                     matrix_reuse=cfg.matrix_reuse)
    rows = []
    for method, report in solved:
        est = rescore(drawn, report.schedule)
        row = {
            "k": k, "n": n, "m": m, "epsilon": eps, "method": method,
            "schedule": report.schedule.boundaries,
            "trials": est.trials, "seed": est.seed,
            "mean_symbols": est.mean_symbols,
            "stderr_symbols": est.stderr_symbols,
            "success_rate": est.success_rate,
            "empirical_throughput": est.empirical_throughput,
            "analytic_expected_symbols": report.objective,
            "analytic_throughput": report.throughput,
            "generator": est.generator,
            "matrix_reuse": est.matrix_reuse,
        }
        for i, rate in enumerate(est.ack_rate_per_block, start=1):
            row[f"ack_rate_block{i}"] = rate
        rows.append(row)
    columns = list(rows[0].keys())
    columns.remove("schedule")
    columns[5:5] = [f"n{i}" for i in range(1, m + 1)]
    return columns, rows


def _validation_checks() -> list[dict]:
    """Named numeric checks over the analytic layers; desk scale, deterministic.

    A check passes when its unrounded value is at most its tolerance.  Only
    four give their own verdict: success_prob_exact_small (== 0 on a Fraction),
    success_prob_monotone_n and ack_monotone_in_t (>= 0), and
    throughput_below_capacity (< 0).
    """
    import numpy as np

    checks: list[dict] = []

    def add(name: str, value: float, tolerance: float, passed: bool | None = None) -> None:
        passed = value <= tolerance if passed is None else passed
        checks.append({"name": name, "value": _round12(value), "tolerance": tolerance,
                       "passed": bool(passed)})

    c0 = erdos_borwein_constant()
    c1 = dst_constant()
    add("erdos_borwein_digits", abs(c0 - 1.6066951524), 5e-11)
    add("dst_digits", abs(c1 - 1.1373387363), 5e-11)
    for j, exact in enumerate((1.0, c0, 5.3255032015)):
        add(f"overhead_moment_{j}", abs(overhead_moment(j) - exact), 1e-9)
    ident = abs(overhead_moment(2) - overhead_moment(1) ** 2 - overhead_moment(1) - c1)
    add("overhead_variance_identity", ident, 1e-10)

    # exact enumeration of Eq.-style success fractions at n <= 5: each
    # (d, c) matrix is one trial lane of the decode kernel, column j of lane
    # L being bits j d..j d + d - 1 of L; 2**20 lanes at most, taken in chunks
    from fractions import Fraction

    worst = Fraction(0)
    for nn in range(1, 6):
        for kk in range(1, nn + 1):
            dd = nn - kk
            for rr in range(0, nn + 1):
                cc = nn - rr
                count = 2 ** (dd * cc)
                shifts = np.arange(cc, dtype=np.uint64)[:, None] * np.uint64(dd)
                mask = np.uint64(2 ** dd - 1)
                total = 0
                for lo in range(0, count, 1 << 14):
                    lanes = np.arange(lo, min(lo + (1 << 14), count), dtype=np.uint64)
                    cols = (lanes >> shifts & mask)[None]
                    total += int(np.count_nonzero(_first_dependent(cols) == cc))
                frac = Fraction(total, count)
                diff = abs(Fraction(decode_success_prob(kk, nn, rr)) - frac)
                worst = max(worst, diff)
    add("success_prob_exact_small", float(worst), 0.0, worst == 0)

    grid = [(2, 6), (4, 8), (4, 12), (8, 16), (8, 24)]
    worst_mono = 0.0
    for kk in range(1, 7):
        for n1 in range(kk, 13):
            for n2 in range(n1 + 1, 15):
                for rr in range(-1, 16):
                    worst_mono = min(
                        worst_mono,
                        decode_success_prob(kk, n1, rr) - decode_success_prob(kk, n2, rr),
                    )
    add("success_prob_monotone_n", worst_mono, 0.0, worst_mono >= 0.0)

    worst_sum = 0.0
    worst_diff = 0.0
    for kk, nn in grid:
        total = sum(decodable_count_pmf(kk, nn, rr) for rr in range(kk, nn + 1))
        worst_sum = max(worst_sum, abs(total - 1.0))
        for rr in range(kk, nn + 1):
            lhs = decodable_count_pmf(kk, nn, rr)
            rhs = decode_success_prob(kk, nn, rr) - decode_success_prob(kk, nn, rr - 1)
            worst_diff = max(worst_diff, abs(lhs - rhs))
    add("decodable_pmf_sums_to_one", worst_sum, 1e-12)
    add("decodable_pmf_difference_form", worst_diff, 1e-12)

    gap = abs(decodable_count_moments(8, 72).mean - (8.0 + c0))
    add("decode_mean_converges", gap, 1e-9)

    worst_ack_step = 0.0
    worst_ack_bound = 0.0
    worst_law = 0.0
    worst_cdf = 0.0
    worst_capacity = -math.inf
    worst_tel = 0.0
    for kk, nn in grid:
        # up to 0.99: at 0.999 the clamped 1 - sum form of ACK steps down by
        # about 1e-16 where ACK is near 0, and ack_monotone_in_t would fail
        for eps in (0.0, 0.3, 0.5, 0.9, 0.99):
            params = CodeParams(kk, nn, eps)
            curve = ack_curve(params)
            ps = decode_success_curve(kk, nn)
            worst_ack_step = min(worst_ack_step, float(np.diff(curve[kk:]).min()))
            worst_ack_bound = max(worst_ack_bound, float((curve - ps).max()))
            law = round_length_law(params)
            worst_law = max(worst_law, abs(float(law.pmf.sum()) - 1.0))
            cdf = np.cumsum(law.pmf)
            for t in range(kk, nn):
                worst_cdf = max(worst_cdf, abs(float(cdf[t - kk]) - float(curve[t])))
            for mm in (1, 2, 3):
                if not _feasible(kk, nn, mm):
                    continue
                rep = optimize(params, mm, "normal")
                worst_capacity = max(worst_capacity, rep.throughput - (1.0 - eps))
                b = rep.schedule.boundaries
                a = curve[list(b)].tolist()  # every boundary lies in 1..n
                direct = b[0] * a[0]
                for i in range(1, len(b)):
                    direct += b[i] * (a[i] - a[i - 1])
                direct += b[-1] * (1.0 - a[-1])
                worst_tel = max(worst_tel, abs(direct - rep.objective))
    add("ack_monotone_in_t", worst_ack_step, 0.0, worst_ack_step >= 0.0)
    add("ack_bounded_by_success_prob", worst_ack_bound, 1e-12)
    add("round_law_normalized", worst_law, 1e-10)
    add("round_law_cdf_matches_ack", worst_cdf, 1e-10)
    add("telescoping_identity", worst_tel, 1e-9)
    add("throughput_below_capacity", worst_capacity, 0.0, worst_capacity < 0.0)

    model = CdfModel.for_params(CodeParams(32, 88, 0.5), "lognormal")
    mean_err = abs(math.exp(model.mu_star + model.sigma2_star / 2) - model.mu)
    var_err = abs(
        (math.exp(model.sigma2_star) - 1.0)
        * math.exp(2 * model.mu_star + model.sigma2_star)
        - model.sigma2
    )
    add("lognormal_mean_matched", mean_err, 1e-9)
    add("lognormal_variance_matched", var_err, 1e-9)
    return checks


def run_validate(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    return ["name", "value", "tolerance", "verdict"], _validation_checks()


def run_constants(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    rows = [{"name": "erdos_borwein", "value": erdos_borwein_constant()},
            {"name": "digital_search_tree", "value": dst_constant()}]
    rows += [{"name": f"overhead_moment_{j}", "value": overhead_moment(j)} for j in range(3)]
    return ["name", "value"], rows


def _csv_header(cfg: RunConfig) -> str:
    return f"# harq-sdo {__version__} {cfg.param_summary()}\n"


def _design_csv(cfg: RunConfig, columns: list[str], rows: list[tuple]) -> str:
    """The CSV text of _design_rows's records, one string format per row.

    No cell of a design row can hold a comma, a quote or a newline: they
    are ints, 12-digit floats and method names, so no cell is quoted and
    the text is what csv.writer writes.  eps is formatted once.  The
    boundaries fill the nI columns, one each, or are joined by spaces in
    sweep-n's schedule column; a skipped row ends in a fixed run of empty
    cells.
    """
    eps = _fmt(cfg.scalar("epsilon"))
    sep = " " if cfg.command == "sweep-n" else ","
    skipped = "," * (len(columns) - 5) + "\n"
    lines = [_csv_header(cfg), ",".join(columns) + "\n"]
    for k, n, m, _, method, b, value, rate in rows:
        if b is None:
            lines.append(f"{k},{n},{m},{eps},{method}{skipped}")
        else:
            lines.append(f"{k},{n},{m},{eps},{method},{sep.join(map(str, b))},"
                         f"{value:.12g},{rate:.12g}\n")
    return "".join(lines)


def _rows_to_csv(cfg: RunConfig, columns: list[str], rows: list[dict]) -> str:
    """The CSV text of simulate, validate and constants: a header line naming
    the run, the columns, then one line per row.

    A row's cells come from its values, in key order; columns only names
    them.  A tuple fills consecutive cells, as simulate's schedule fills its
    nI columns; a bool is a verdict, pass or FAIL; None is an empty cell
    and a float prints 12 digits.  csv.writer quotes a cell that needs it,
    as simulate's generator does.
    """
    import csv as _csv

    buf = io.StringIO()
    buf.write(_csv_header(cfg))
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        cells = []
        for value in row.values():
            if isinstance(value, tuple):
                cells.extend(map(str, value))
            elif isinstance(value, bool):
                cells.append("pass" if value else "FAIL")
            else:
                cells.append("" if value is None else _fmt(value) if isinstance(value, float)
                             else str(value))
        writer.writerow(cells)
    return buf.getvalue()


def _rows_to_json(cfg: RunConfig, columns: list[str], rows: list[dict]) -> str:
    payload = {
        "tool": "harq-sdo",
        "version": __version__,
        "parameters": cfg.param_summary(),
        "columns": columns,
        # a schedule tuple is written as a list
        "rows": [{k: _round12(v) if isinstance(v, float) else v for k, v in r.items()}
                 for r in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


_GNUPLOT_TEMPLATE = """\
# gnuplot script for {csv}
set datafile separator ","
set key autotitle columnhead
set xlabel "{xlabel}"
set ylabel "throughput"
plot "{csv}" using {xcol}:{ycol} with linespoints
"""


def _emit(cfg: RunConfig, columns: list[str], rows: list) -> str:
    design = cfg.command in DESIGN_COMMANDS  # rows are records, not dicts
    if cfg.format == "csv":
        text = (_design_csv if design else _rows_to_csv)(cfg, columns, rows)
    else:
        if design:
            rows = [dict(zip(DESIGN_FIELDS, record)) for record in rows]
        text = _rows_to_json(cfg, columns, rows)
    out = cfg.out
    if out is None and os.environ.get(ENV_OUT_DIR):
        out = os.path.join(os.environ[ENV_OUT_DIR], f"{cfg.command}.{cfg.format}")
    if out:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w", newline="") as fh:
            fh.write(text)
        if cfg.gnuplot and cfg.format == "csv" and cfg.command in ("sweep-k", "sweep-n"):
            xlabel = "k" if cfg.command == "sweep-k" else "n"
            script = _GNUPLOT_TEMPLATE.format(
                csv=os.path.basename(out), xlabel=xlabel,
                xcol=columns.index(xlabel) + 1, ycol=columns.index("throughput") + 1)
            with open(out + ".gp", "w", newline="") as fh:
                fh.write(script)
    else:
        sys.stdout.write(text)
    return text


_RUNNERS = {
    "optimize": run_optimize,
    "sweep-k": run_sweep_k,
    "sweep-n": run_sweep_n,
    "simulate": run_simulate,
    "validate": run_validate,
    "constants": run_constants,
}


class _Parser(argparse.ArgumentParser):
    """A parser whose errors reach main as its one-line message, without usage."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls (each
    # returns a fresh Namespace) and _Parser.error only raises, so every argv
    # parses as with a parser of its own.  Absent flags set nothing, so no
    # default can replace a value from the config file; flags and --config
    # may come before or after the command
    parser = _Parser(
        prog="harq-sdo",
        description="Incremental-redundancy schedule design and validation "
        "for erasure channels.",
        argument_default=argparse.SUPPRESS,
    )
    # a SUPPRESS default would be checked against the choices and fail
    parser.add_argument("command", nargs="?", choices=COMMANDS, default=None)
    parser.add_argument("--config", help="flat JSON file with RunConfig fields")
    parser.add_argument("--k")
    parser.add_argument("--n")
    parser.add_argument("--m")
    parser.add_argument("--eps", dest="epsilon", metavar="EPS")
    parser.add_argument("--model", choices=MODELS)
    parser.add_argument("--trials")
    parser.add_argument("--seed")
    parser.add_argument("--workers")
    parser.add_argument("--matrix-reuse", dest="matrix_reuse")
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--gnuplot", action="store_true")
    return parser


def build_config(argv) -> RunConfig:
    given = vars(_build_parser().parse_args(argv))
    path = given.pop("config", None)
    if given["command"] is None:
        del given["command"]
    settings: dict = {}
    if path:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as err:
            raise ValueError(f"cannot read config {path}: {err.strerror}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"config {path} is not valid JSON: {err}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"config {path} must hold a JSON object, "
                             f"got {type(loaded).__name__}")
        settings.update(loaded)
    settings.update(given)
    if "command" not in settings:
        raise ValueError("no command given (use a subcommand or a config file)")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(settings) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for name in ("k", "n", "m"):
        if name in settings:
            settings[name] = parse_int_range(settings[name], name)
    if "epsilon" in settings:
        settings["epsilon"] = parse_float_range(settings["epsilon"], "epsilon")
    return RunConfig(**settings)


def main(argv=None) -> int:
    try:
        cfg = build_config(sys.argv[1:] if argv is None else argv)
        columns, rows = _RUNNERS[cfg.command](cfg)
    except ValueError as err:
        sys.stderr.write(f"harq-sdo: error: {err}\n")
        return 2
    try:
        _emit(cfg, columns, rows)
    except OSError as err:
        where = err.filename or "output"  # a failed write() names no file
        sys.stderr.write(f"harq-sdo: error: cannot write {where}: {err.strerror}\n")
        return 2
    if cfg.command == "validate":
        failed = [r["name"] for r in rows if not r["passed"]]
        if failed:
            sys.stderr.write(f"failed checks: {', '.join(failed)}\n")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
