"""Property tests over random small design points (k, n, eps, m)."""

import contextlib
import io
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from harqsdo import (
    CdfModel,
    CodeParams,
    Schedule,
    ack_curve,
    ack_curves,
    cli,
    exhaustive_search,
    expected_round_symbols,
    optimize,
    round_length_law,
    sdo,
)
from oracles import (CountedModel, rows_to_csv_loop, schedule_from_model, sdo_optimize,
                     sdo_recursion, trajectories_loop)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def design_points(draw, max_k=12, max_extra=24):
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k, k + max_extra))
    eps = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999]))
    return CodeParams(k, n, eps)


@SETTINGS
@given(design_points(max_k=40, max_extra=80))
def test_ack_curve_is_a_monotone_probability(p):
    curve = ack_curve(p)
    assert curve.min() >= 0.0 and curve.max() <= 1.0
    # monotone up to the rounding of the 1 - sum form, a few ulps of 1 per term
    assert np.all(np.diff(curve[p.k:]) >= -1e-13)


@SETTINGS
@given(design_points(max_k=64, max_extra=192))
def test_round_length_law_is_a_pmf(p):
    # where the curve is rounding noise it steps down by a few ulps; the law
    # must neither go negative there nor gain mass from it
    pmf = round_length_law(p).pmf
    assert pmf.min() >= 0.0
    assert abs(float(pmf.sum()) - 1.0) <= 1e-12


@SETTINGS
@given(design_points(), st.integers(1, 5), st.randoms(use_true_random=False))
def test_exact_search_is_no_worse_than_any_schedule(p, m, rng):
    m = min(m, p.n - p.k + 1)
    es = exhaustive_search(p, m)
    b = es.schedule.boundaries
    assert len(b) == m and b[-1] == p.n and all(x < y for x, y in zip(b, b[1:]))
    if m > 1:
        assert b[0] >= p.k
    tol = 1e-12 * p.n
    for kind in ("normal", "lognormal"):
        assert es.objective <= optimize(p, m, kind).objective + tol
    for _ in range(20):
        interior = sorted(rng.sample(range(p.k, p.n), m - 1))
        cand = Schedule(tuple(interior) + (p.n,))
        assert es.objective <= expected_round_symbols(p, cand) + tol


@SETTINGS
@given(design_points(max_k=64, max_extra=192), st.integers(2, 8),
       st.sampled_from(["normal", "lognormal"]), st.data())
def test_sdo_recursion_matches_oracle(p, m, kind, data):
    m = min(m, p.n - p.k + 1)
    assume(m >= 2)
    n1 = data.draw(st.integers(p.k, p.n - m + 1))
    model = CdfModel.for_params(p, kind)
    want = sdo_recursion(model.cdf, model.pdf, p.n, m, n1)
    assert schedule_from_model(model, p.n, m, n1) == want


@st.composite
def trajectory_groups(draw):
    """Groups of many k at one eps, as sdo._trajectories takes them, untabulated.

    k runs to 60 and n to 200; the m sets run wide, to 300, and may be
    empty or hold 2 alone.  eps 0 and 0.999999 put a model's mean far from
    its boundaries, where its density underflows to 0 and rows end.
    """
    eps = draw(st.sampled_from([0.0, 1e-9, 0.3, 0.4, 0.5, 0.6, 0.7, 0.99, 0.999999]))
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 60))
        least = draw(st.integers(2, 12))
        ms = draw(st.one_of(st.just(()), st.sets(st.integers(least, 300), max_size=3).map(
            lambda more: tuple(sorted({least} | more)))))
        top = draw(st.integers(k + min(ms, default=1) - 1, 200))
        kinds = draw(st.sampled_from([("normal",), ("lognormal",), ("normal", "lognormal")]))
        groups.append((k, top, ms, [CdfModel.for_params(CodeParams(k, k, eps), kind)
                                    for kind in kinds]))
    return groups


@settings(SETTINGS, max_examples=40)
@given(trajectory_groups())
def test_trajectories_equal_the_loop_across_k(groups):
    # the stepped matrix of many k is the scalar loop's, group by group, bit
    # for bit, each row padded with +inf to the tallest.  Each table is its
    # model's F and F' from k on, past the farthest boundary the loop steps
    # from, by at most _TABLE_RUN past that or top, and no further than reach
    tables = [[([], []) for _ in models] for _, _, _, models in groups]
    got = sdo._trajectories([(k, top, ms, models, held)
                             for (k, top, ms, models), held in zip(groups, tables)])
    counted = [[CountedModel(model) for model in models] for _, _, _, models in groups]
    want = [trajectories_loop(models, top, ms, k, top - min(ms, default=1) + 1)
            for (k, top, ms, _), models in zip(groups, counted)]
    assert len(got) == max(rows.shape[1] for rows in want)
    want = np.concatenate([np.pad(rows, ((0, 0), (0, len(got) - rows.shape[1])),
                                  constant_values=np.inf) for rows in want])
    assert got.T.tobytes() == want.tobytes()
    for (k, top, ms, models), held, loops in zip(groups, tables, counted):
        for model, table, loop in zip(models, held, loops):
            end = k + len(table[0]) - 1
            assert list(zip(*table)) == [model.cdf_pdf(float(x)) for x in range(k, end + 1)]
            farthest = max(loop.at, default=k - 1)
            assert farthest <= end <= min(sdo._reach(k, top, ms),
                                          max(top, farthest) + sdo._TABLE_RUN)


@st.composite
def cross_k_cells(draw):
    """eps and a few (k, n, ms) cells of up to three k, as _row_entries takes them.

    A k comes back, next to itself or after another k, with a larger or a
    smaller reach; an ms may be empty, hold 1, or hold an m twice.
    """
    eps = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]))
    ks = draw(st.lists(st.integers(1, 16), min_size=1, max_size=3))
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.sampled_from(ks))
        n = draw(st.integers(k, k + 24))
        ms = draw(st.lists(st.integers(1, min(8, n - k + 1)), max_size=4))
        cells.append((k, n, ms))
    return eps, cells


@pytest.mark.parametrize("block_cells", [7, None], ids=["7-cell-chunks", "default-chunks"])
def test_cross_k_entries_equal_each_cell_alone(block_cells):
    # cells of many k solved together, chunk by chunk, with a k's models and
    # tables held across chunks, give each cell the entries it gets alone
    @settings(SETTINGS, max_examples=40)
    @given(cross_k_cells())
    def check(row):
        eps, cells = row
        kinds = ["normal", "exhaustive", "lognormal"]
        with pytest.MonkeyPatch.context() as mp:
            if block_cells is not None:
                mp.setattr(sdo, "_BLOCK_CELLS", block_cells)
            got = list(sdo._row_entries(eps, cells, kinds, ack_curves))
        assert [(k, n) for k, n, _ in got] == [(k, n) for k, n, _ in cells]
        for cell, entry in zip(cells, got):
            assert [entry] == list(sdo._row_entries(eps, [cell], kinds, sdo._each_curve)), cell

    check()


@st.composite
def sweep_rows(draw):
    """k, eps, an n list and an m list, as a sweep's flags may give them.

    The n come unsorted, one at least twice, one too small for every m
    but 1.  The m hold 1, one m at least twice, and one m no n fits.
    """
    k = draw(st.integers(1, 12))
    eps = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]))
    ns = draw(st.lists(st.integers(k, k + 20), min_size=1, max_size=5))
    ns += [draw(st.sampled_from(ns)), k + draw(st.integers(0, 1))]
    ms = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    ms += [1, draw(st.sampled_from(ms)), max(ns) - k + 2]
    return k, eps, draw(st.permutations(ns)), draw(st.permutations(ms))


@pytest.mark.parametrize("block_cells", [3, None], ids=["3-cell-blocks", "default-blocks"])
def test_sweep_row_matches_optimize_and_oracle(block_cells):
    @settings(SETTINGS, max_examples=30)
    @given(sweep_rows())
    def check(row):
        k, eps, ns, ms = row
        # the cells as the CLI builds them: each n once, with the m that fit it
        cells = {n: [m for m in ms if k + m - 1 <= n] for n in ns}
        kinds = ["normal", "lognormal"]
        with pytest.MonkeyPatch.context() as mp:
            if block_cells is not None:
                mp.setattr(sdo, "_BLOCK_CELLS", block_cells)
            got = list(sdo.optimize_row(k, eps, cells.items(), kinds))
        assert [n for n, _ in got] == list(cells)
        for n, by_kind in got:
            p = CodeParams(k, n, eps)
            for kind in kinds:
                assert sorted(by_kind[kind]) == sorted(set(cells[n]))
                model = CdfModel.for_params(p, kind)
                for m, rep in by_kind[kind].items():
                    assert rep == optimize(p, m, kind), (kind, n, m)
                    want = ((n,), float(n)) if m == 1 else sdo_optimize(
                        model.cdf, model.pdf, ack_curve(p), k, n, m)
                    assert (rep.schedule.boundaries, rep.objective) == want, (kind, n, m)

    check()


@st.composite
def design_argvs(draw):
    """A small sweep-n or sweep-k argument list, as a user may type it.

    sweep-n takes sweep_rows's n and m lists (skipped cells, m = 1, an n
    and an m given twice); sweep-k takes a k list that may repeat a k and
    hold k too large for n and m, with m = 1 among the m it may draw.
    """
    k, eps, ns, ms = draw(sweep_rows())
    if draw(st.booleans()):
        model = draw(st.sampled_from(["na", "lna", "all"]))
        argv = ["sweep-n", "--k", str(k), "--n", ",".join(map(str, ns)),
                "--m", ",".join(map(str, ms)), "--model", model]
    else:
        n = draw(st.integers(1, 16))
        m = draw(st.integers(1, min(n, 4)))
        ks = draw(st.lists(st.integers(1, n + 2), min_size=1, max_size=5))
        argv = ["sweep-k", "--k", ",".join(map(str, ks)), "--n", str(n), "--m", str(m),
                "--model", "all"]
    return argv + ["--eps", repr(eps)]


def test_design_output_matches_per_cell_oracle(monkeypatch):
    # the CSV a line per record equals the per-cell loop over dicts rebuilt
    # by field name, and the JSON rows are those dicts with 12-digit floats
    monkeypatch.delenv("HARQ_SDO_OUT", raising=False)

    def stdout(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        return buf.getvalue()

    @settings(SETTINGS, max_examples=40)
    @given(design_argvs())
    def check(argv):
        cfg = cli.build_config(argv)
        columns, records = cli._RUNNERS[cfg.command](cfg)
        rows = [dict(zip(cli.DESIGN_FIELDS, record)) for record in records]
        assert stdout(argv) == rows_to_csv_loop(cfg, columns, rows)
        payload = json.loads(stdout(argv + ["--format", "json"]))
        assert payload["columns"] == columns
        assert payload["rows"] == [
            {key: cli._round12(v) if isinstance(v, float) else list(v)
             if isinstance(v, tuple) else v for key, v in row.items()} for row in rows]

    check()
