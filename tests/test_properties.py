"""Property tests over random small design points (k, n, eps, m)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from harqsdo import (
    CdfModel,
    CodeParams,
    Schedule,
    ack_curve,
    exhaustive_search,
    expected_round_symbols,
    optimize,
    round_length_law,
)
from harqsdo.sdo import _schedule_from_model

from oracles import sdo_recursion

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
    assert _schedule_from_model(model, p.n, m, n1) == want
