"""Command-line surface: optimization, figure sweeps, simulation, validation.

Every command emits CSV or JSON with floats fixed at 12 significant digits
and no timestamps, so identical configurations produce byte-identical files.
The default output directory can be set with the HARQ_SDO_OUT environment
variable; without it (and without --out) results go to stdout.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

from . import __version__
from .codes import (
    CodeParams,
    _integral,
    decodable_count_moments,
    decodable_count_pmf,
    decode_success_curve,
    decode_success_prob,
    dst_constant,
    erdos_borwein_constant,
    overhead_moment,
)
from .channel import Schedule, ack_curve, round_length_law
from .sdo import CdfModel, OptimizerReport, exhaustive_search, optimize
from .simulate import _first_dependent, estimate

__all__ = ["RunConfig", "main", "run_validate"]

COMMANDS = ("optimize", "sweep-k", "sweep-n", "simulate", "validate", "constants")
MODELS = ("na", "lna", "es", "all")
ENV_OUT_DIR = "HARQ_SDO_OUT"

_MODEL_KIND = {"na": "normal", "lna": "lognormal"}


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
        return list(range(lo, hi + 1, step))
    return [_int_value(name, s)]


def _float_value(name: str, value) -> float:
    """value, or the number a string spells, as a float."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


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


def _solve(params: CodeParams, m: int, method: str) -> OptimizerReport:
    if method == "es":
        return exhaustive_search(params, m)
    return optimize(params, m, _MODEL_KIND[method])


def _optimize_rows(params: CodeParams, m: int, model: str) -> list[dict]:
    rows = []
    for method in _methods(model):
        report = _solve(params, m, method)
        rows.append({
            "k": params.k,
            "n": params.n,
            "m": m,
            "epsilon": params.epsilon,
            "method": method,
            "schedule": report.schedule,
            "expected_symbols": report.objective,
            "throughput": report.throughput,
        })
    return rows


def run_optimize(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    k, n, m = cfg.scalar("k"), cfg.scalar("n"), cfg.scalar("m")
    eps = cfg.scalar("epsilon")
    rows = _optimize_rows(CodeParams(k, n, eps), m, cfg.model)
    return _sweep_columns(m), rows


def _sweep_columns(m: int) -> list[str]:
    return ["k", "n", "m", "epsilon", "method"] + [f"n{i}" for i in range(1, m + 1)] + [
        "expected_symbols",
        "throughput",
    ]


def run_sweep_k(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    n, m = cfg.scalar("n"), cfg.scalar("m")
    eps = cfg.scalar("epsilon")
    rows: list[dict] = []
    for k in cfg.k:
        if k > n or k + m - 1 > n:
            rows.append({
                "k": k, "n": n, "m": m, "epsilon": eps, "method": "skipped",
                "schedule": None, "expected_symbols": None, "throughput": None,
            })
            continue
        rows.extend(_optimize_rows(CodeParams(k, n, eps), m, cfg.model))
    return _sweep_columns(m), rows


def run_sweep_n(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    k = cfg.scalar("k")
    eps = cfg.scalar("epsilon")
    # `all` keeps the better SDO model per cell, as in the blocklength figure
    methods = ["na", "lna"] if cfg.model == "all" else [cfg.model]
    rows: list[dict] = []
    for n in cfg.n:
        for m in cfg.m:
            row = {"k": k, "n": n, "m": m, "epsilon": eps, "method": "skipped",
                   "schedule": None, "expected_symbols": None, "throughput": None}
            if k + m - 1 <= n:
                best = None
                for meth in methods:
                    rep = _solve(CodeParams(k, n, eps), m, meth)
                    if best is None or rep.throughput > best[1].throughput:
                        best = (meth, rep)
                row.update(method=best[0], schedule=best[1].schedule,
                           expected_symbols=best[1].objective,
                           throughput=best[1].throughput)
            rows.append(row)
    columns = ["k", "n", "m", "epsilon", "method", "schedule",
               "expected_symbols", "throughput"]
    return columns, rows


def run_simulate(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    k, n, m = cfg.scalar("k"), cfg.scalar("n"), cfg.scalar("m")
    eps = cfg.scalar("epsilon")
    params = CodeParams(k, n, eps)
    method = cfg.model if cfg.model != "all" else "na"
    report = _solve(params, m, method)
    est = estimate(params, report.schedule, cfg.trials, cfg.seed,
                   workers=cfg.workers, matrix_reuse=cfg.matrix_reuse)
    row = {
        "k": k, "n": n, "m": m, "epsilon": eps, "method": method,
        "schedule": report.schedule,
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
    columns = list(row.keys())
    columns.remove("schedule")
    columns[5:5] = [f"n{i}" for i in range(1, m + 1)]
    return columns, [row]


def _validation_checks() -> list[dict]:
    """Named numeric checks over the analytic layers; desk scale, deterministic."""
    import numpy as np

    checks: list[dict] = []

    def add(name: str, value: float, tolerance: float, passed: bool) -> None:
        checks.append({
            "name": name,
            "value": _round12(value),
            "tolerance": tolerance,
            "passed": bool(passed),
        })

    c0 = erdos_borwein_constant()
    c1 = dst_constant()
    add("erdos_borwein_digits", abs(c0 - 1.6066951524), 5e-11,
        abs(c0 - 1.6066951524) <= 5e-11)
    add("dst_digits", abs(c1 - 1.1373387363), 5e-11, abs(c1 - 1.1373387363) <= 5e-11)
    add("overhead_moment_0", abs(overhead_moment(0) - 1.0), 1e-9,
        abs(overhead_moment(0) - 1.0) <= 1e-9)
    add("overhead_moment_1", abs(overhead_moment(1) - c0), 1e-9,
        abs(overhead_moment(1) - c0) <= 1e-9)
    add("overhead_moment_2", abs(overhead_moment(2) - 5.3255032015), 1e-9,
        abs(overhead_moment(2) - 5.3255032015) <= 1e-9)
    ident = abs(overhead_moment(2) - overhead_moment(1) ** 2 - overhead_moment(1) - c1)
    add("overhead_variance_identity", ident, 1e-10, ident <= 1e-10)

    # exact enumeration of Eq.-style success fractions at n <= 5: each
    # (d, c) matrix is one bit-sliced lane of the decode kernel, entry (r, j)
    # of lane L being bit j d + r of L.  Bit b < 6 of L is bit b of L's place
    # in its 64-lane word, a fixed pattern; bit b >= 6 fills whole words.
    from fractions import Fraction

    patterns = [sum(1 << lane for lane in range(64) if lane >> b & 1) for b in range(6)]
    worst = Fraction(0)
    for nn in range(1, 6):
        for kk in range(1, nn + 1):
            dd = nn - kk
            for rr in range(0, nn + 1):
                cc = nn - rr
                count = 2 ** (dd * cc)
                group = np.arange(-(-count // 64), dtype="<u8")
                cols = np.empty((cc, len(group), dd), dtype="<u8")
                for b in range(dd * cc):
                    j, r = divmod(b, dd)
                    cols[j, :, r] = (patterns[b] if b < 6 else
                                     np.where(group >> (b - 6) & 1, ~np.uint64(0), 0))
                total = int(np.count_nonzero(_first_dependent(cols)[:count] == cc))
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
    add("decodable_pmf_sums_to_one", worst_sum, 1e-12, worst_sum <= 1e-12)
    add("decodable_pmf_difference_form", worst_diff, 1e-12, worst_diff <= 1e-12)

    gap = abs(decodable_count_moments(8, 72).mean - (8.0 + c0))
    add("decode_mean_converges", gap, 1e-9, gap <= 1e-9)

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
                if kk + mm - 1 > nn:
                    continue
                rep = optimize(params, mm, "normal")
                worst_capacity = max(
                    worst_capacity, rep.throughput - (1.0 - eps)
                )
                b = rep.schedule.boundaries
                direct = b[0] * _curve_at(curve, b[0])
                for i in range(1, len(b)):
                    direct += b[i] * (_curve_at(curve, b[i]) - _curve_at(curve, b[i - 1]))
                direct += b[-1] * (1.0 - _curve_at(curve, b[-1]))
                worst_tel = max(worst_tel, abs(direct - rep.objective))
    add("ack_monotone_in_t", worst_ack_step, 0.0, worst_ack_step >= 0.0)
    add("ack_bounded_by_success_prob", worst_ack_bound, 1e-12, worst_ack_bound <= 1e-12)
    add("round_law_normalized", worst_law, 1e-10, worst_law <= 1e-10)
    add("round_law_cdf_matches_ack", worst_cdf, 1e-10, worst_cdf <= 1e-10)
    add("telescoping_identity", worst_tel, 1e-9, worst_tel <= 1e-9)
    add("throughput_below_capacity", worst_capacity, 0.0, worst_capacity < 0.0)

    model = CdfModel.for_params(CodeParams(32, 88, 0.5), "lognormal")
    mean_err = abs(math.exp(model.mu_star + model.sigma2_star / 2) - model.mu)
    var_err = abs(
        (math.exp(model.sigma2_star) - 1.0)
        * math.exp(2 * model.mu_star + model.sigma2_star)
        - model.sigma2
    )
    add("lognormal_mean_matched", mean_err, 1e-9, mean_err <= 1e-9)
    add("lognormal_variance_matched", var_err, 1e-9, var_err <= 1e-9)
    return checks


def _curve_at(curve, t: int) -> float:
    return float(curve[t]) if 0 <= t < len(curve) else 0.0


def run_validate(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    checks = _validation_checks()
    return ["name", "value", "tolerance", "verdict"], checks


def run_constants(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    rows = [
        {"name": "erdos_borwein", "value": erdos_borwein_constant()},
        {"name": "digital_search_tree", "value": dst_constant()},
        {"name": "overhead_moment_0", "value": overhead_moment(0)},
        {"name": "overhead_moment_1", "value": overhead_moment(1)},
        {"name": "overhead_moment_2", "value": overhead_moment(2)},
    ]
    return ["name", "value"], rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _rows_to_csv(cfg: RunConfig, columns: list[str], rows: list[dict]) -> str:
    import csv as _csv

    buf = io.StringIO()
    buf.write(f"# harq-sdo {__version__} {cfg.param_summary()}\n")
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        cells = []
        for col in columns:
            if col.startswith("n") and col[1:].isdigit() and "schedule" in row:
                sched = row.get("schedule")
                idx = int(col[1:]) - 1
                if sched is not None and idx < len(sched.boundaries):
                    cells.append(str(sched.boundaries[idx]))
                else:
                    cells.append("")
            elif col == "schedule":
                sched = row.get("schedule")
                cells.append(
                    " ".join(str(b) for b in sched.boundaries) if sched else ""
                )
            elif col == "verdict":
                cells.append("pass" if row.get("passed") else "FAIL")
            else:
                cells.append(_cell(row.get(col)))
        writer.writerow(cells)
    return buf.getvalue()


def _json_ready(value):
    if isinstance(value, float):
        return _round12(value)
    if isinstance(value, Schedule):
        return list(value.boundaries)
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _rows_to_json(cfg: RunConfig, columns: list[str], rows: list[dict]) -> str:
    payload = {
        "tool": "harq-sdo",
        "version": __version__,
        "parameters": cfg.param_summary(),
        "columns": columns,
        "rows": [_json_ready(r) for r in rows],
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


def _emit(cfg: RunConfig, columns: list[str], rows: list[dict]) -> str:
    if cfg.format == "csv":
        text = _rows_to_csv(cfg, columns, rows)
    else:
        text = _rows_to_json(cfg, columns, rows)
    out = cfg.out
    if out is None and os.environ.get(ENV_OUT_DIR):
        out = os.path.join(os.environ[ENV_OUT_DIR], f"{cfg.command}.{cfg.format}")
    if out:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w", newline="") as fh:
            fh.write(text)
        if cfg.gnuplot and cfg.format == "csv" and cfg.command in ("sweep-k", "sweep-n"):
            xcol = columns.index("k" if cfg.command == "sweep-k" else "n") + 1
            ycol = columns.index("throughput") + 1
            script = _GNUPLOT_TEMPLATE.format(
                csv=os.path.basename(out),
                xlabel="k" if cfg.command == "sweep-k" else "n",
                xcol=xcol,
                ycol=ycol,
            )
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


def _build_parser() -> argparse.ArgumentParser:
    # absent flags set nothing, so a subcommand's defaults cannot replace a
    # --config given before it, nor any flag a value from the config file
    config = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    config.add_argument("--config", help="flat JSON file with RunConfig fields")
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--k")
    flags.add_argument("--n")
    flags.add_argument("--m")
    flags.add_argument("--eps", dest="epsilon", metavar="EPS")
    flags.add_argument("--model", choices=MODELS)
    flags.add_argument("--trials")
    flags.add_argument("--seed")
    flags.add_argument("--workers")
    flags.add_argument("--matrix-reuse", dest="matrix_reuse")
    flags.add_argument("--out")
    flags.add_argument("--format", choices=("csv", "json"))
    flags.add_argument("--gnuplot", action="store_true")
    parser = argparse.ArgumentParser(
        prog="harq-sdo",
        description="Incremental-redundancy schedule design and validation "
        "for erasure channels.",
        parents=[config],
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        sub.add_parser(name, parents=[config, flags])
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
    _emit(cfg, columns, rows)
    if cfg.command == "validate":
        failed = [r["name"] for r in rows if not r["passed"]]
        if failed:
            sys.stderr.write(f"failed checks: {', '.join(failed)}\n")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
