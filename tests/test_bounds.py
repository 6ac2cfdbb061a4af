import math
import re
from fractions import Fraction

import numpy as np
import pytest

from toric_codes.field import GF
from toric_codes.bounds import (
    BoundsError,
    beats_gv,
    bound_report,
    conjecture1_bound,
    conjecture2_bound,
    gv_rate,
    hansen_params,
    segment_upper_bound,
)
from toric_codes.geometry import Fan2D, TDivisor, polytope_of_divisor
from toric_codes.codes import min_distance_exhaustive
from toric_codes.tables import FANS
from toric_codes.toric import toric_code

FAN1 = Fan2D([(2, -1), (-1, 2), (-1, -1)])
FAN3 = Fan2D([(1, 0), (0, 1), (-1, 0), (0, -1)])
FAN6 = Fan2D([(2, -1), (-1, 1), (-1, 0)])
FAN7 = Fan2D([(5, -1), (-1, 5), (-1, -1)])


def poly(fan, coeffs):
    return polytope_of_divisor(fan, TDivisor(coeffs))


# -- closed forms -------------------------------------------------------------


def test_hansen_params_table_rows():
    p = hansen_params("b", 7, 2)
    assert (p.n, p.k, p.d, p.in_range) == (36, 6, 24, True)
    p = hansen_params("c", 5, 1, 1)
    assert p.d == 16 - 4 - 4 + 1 == 9
    p = hansen_params("b", 5, 5)
    assert not p.in_range  # q <= a + 1
    # q = a + 1 is out of range: the closed form is not trusted there
    # (the constructed code has k = 13, d = 3 from character collisions)
    p = hansen_params("b", 5, 4)
    assert not p.in_range and p.k == 15
    p = hansen_params("a", 9, 2)
    assert p.in_range and p.k == 9


@pytest.mark.parametrize("q", ["x", 6, 2.5, True, 1])
def test_hansen_params_refuses_a_q_that_is_not_a_prime_power(q):
    with pytest.raises(BoundsError, match=re.escape(f"q = {q!r} is not a prime power")):
        hansen_params("b", q, 2)


# every call of hansen_params in the tests and demo 03, with the (n, k, d,
# in_range) recorded before q was checked
HANSEN_PREDICTIONS = {
    ("b", 7, 2, 0, 1): (36, 6, 24, True),
    ("c", 5, 1, 1, 1): (16, 4, 9, True),
    ("b", 5, 5, 0, 1): (16, 21, -4, False),
    ("b", 5, 4, 0, 1): (16, 15, 0, False),
    ("a", 9, 2, 0, 1): (64, 9, 32, True),
    ("b", 5, 2, 0, 1): (16, 6, 8, True),
    ("a", 7, 2, 0, 1): (36, 9, 12, True),
    ("d", 5, 1, 1, 1): (16, 5, 8, True),
    ("d", 8, 2, 1, 1): (49, 9, 28, True),
    ("b", 7, 3, 0, 1): (36, 10, 18, True),
    ("b", 8, 2, 0, 1): (49, 6, 35, True),
}


def test_hansen_predictions_are_unchanged_by_the_q_check():
    """A prime power q, Python or numpy, gives the recorded prediction in
    Python ints."""
    for (case, q, a, b, m), want in HANSEN_PREDICTIONS.items():
        for q_in in (q, np.int64(q)):
            p = hansen_params(case, q_in, a, b, m)
            assert (p.n, p.k, p.d, p.in_range) == want
            assert all(type(v) is int for v in (p.n, p.k, p.d))


# -- segment bound -------------------------------------------------------------


def test_segment_bound_rectangle():
    for a, b in [(1, 3), (2, 2), (3, 1)]:
        p = poly(FAN3, (0, 0, a, b))
        n = 16
        assert segment_upper_bound(p.lattice_points(), n) == n - max(a, b)


def test_segment_bound_single_point():
    p = poly(FAN1, (0, 0, 0))
    assert segment_upper_bound(p.lattice_points(), 16) == 16


def test_segment_bound_fan1_example():
    # points {(0,0),(1,1),(1,2),(2,1)}: longest run is 2 points -> h = 1
    p = poly(FAN1, (0, 0, 3))
    assert segment_upper_bound(p.lattice_points(), 16) == 15


def test_segment_bound_field_cap():
    # a lattice run longer than q-1 cannot be witnessed: the root set
    # saturates, so h caps at q-2 once the field is known
    fan2_10 = Fan2D([(1, 0), (-1, 10), (0, -1)])
    p = poly(fan2_10, (5, 9, 4))
    assert segment_upper_bound(p.lattice_points(), 49, 8) == 49 - 6
    assert segment_upper_bound(p.lattice_points(), 49) < 0  # uncapped raw form


def segment_walk(poly, n, q=None):
    """The segment bound by a walk along every run of lattice points, after
    a translation to nonnegative coordinates: the oracle that
    ``segment_upper_bound``, which reads per-line extents, must match."""
    pts = poly.lattice_points()
    x0 = min(p[0] for p in pts)
    y0 = min(p[1] for p in pts)
    pts = {(x - x0, y - y0) for x, y in pts}
    h = 0
    for axis in (0, 1):
        starts = [p for p in pts if (p[0] - (axis == 0), p[1] - (axis == 1)) not in pts]
        for p in starts:
            run = 0
            nxt = (p[0] + (axis == 0), p[1] + (axis == 1))
            while nxt in pts:
                run += 1
                nxt = (nxt[0] + (axis == 0), nxt[1] + (axis == 1))
            h = max(h, run)
    if q is not None:
        h = min(h, q - 2)
    return n - h


def test_segment_bound_matches_the_run_walk():
    """Random nonempty polytopes over every preset fan, with and without a
    field cap."""
    rng = np.random.default_rng(2469)
    checked = 0
    for rays in FANS.values():
        fan = Fan2D(rays)
        for _ in range(60):
            p = poly(fan, rng.integers(-4, 9, size=fan.s).tolist())
            if not p.lattice_points():
                continue
            checked += 1
            for q in (None, 4, 9):
                assert segment_upper_bound(p.lattice_points(), 100, q) == segment_walk(p, 100, q)
    assert checked >= 400


def test_segment_bound_dominates_observed_d():
    for coeffs, q in [((0, 0, 3), 5), ((1, 1, 2), 5), ((2, 3, 1), 5)]:
        res = toric_code(GF(q), FAN1, coeffs)
        d = min_distance_exhaustive(res.code).d
        assert d <= segment_upper_bound(res.spec.basis, res.n)


# -- GV ------------------------------------------------------------------------


def test_gv_rate_endpoints():
    for q in (2, 5, 8):
        assert gv_rate(q, 0.0) == 1.0
        assert abs(gv_rate(q, (q - 1) / q)) < 1e-12


def test_gv_rate_headline_value():
    assert abs(gv_rate(8, 28 / 49) - 0.1369) < 5e-4


def test_beats_gv_headline():
    assert beats_gv(49, 11, 28, 8)
    assert 11 / 49 > gv_rate(8, 28 / 49)


def test_gv_shape_grid():
    # H_q is concave (second derivative -1/x - 1/(1-x) scaled), so the
    # curve 1 - H_q is convex and decreasing on [0, (q-1)/q]
    for q in (2, 3, 5, 8):
        hi = (q - 1) / q
        xs = [hi * i / 40 for i in range(41)]
        ys = [gv_rate(q, x) for x in xs]
        for i in range(1, 40):
            assert ys[i] <= (ys[i - 1] + ys[i + 1]) / 2 + 1e-12  # convex
            assert ys[i] <= ys[i - 1] + 1e-12  # decreasing


def test_gv_domain_errors():
    """Past the Plotkin point (q-1)/q the curve is 0, up to delta = 1; a
    relative distance outside [0, 1] is refused."""
    for q in (2, 3, 5, 8):
        for delta in ((q - 1) / q + 1e-9, 0.9999, 1.0):
            assert gv_rate(q, delta) == 0.0
    assert gv_rate(5, 0.9) == 0.0
    for delta in (1.1, -0.1):
        with pytest.raises(BoundsError, match=re.escape(f"delta = {delta} out of [0, 1]")):
            gv_rate(5, delta)


def gv_oracle(n, k, d, q):
    """(rate, beats) by the GV rule written out: 1 - H_q(delta) up to the
    Plotkin point, 0 past it."""
    delta = d / n
    if delta > (q - 1) / q:
        return 0.0, k > 0
    h = delta * math.log(q - 1, q) if q > 2 else 0.0
    h -= sum(x * math.log(x, q) for x in (delta, 1 - delta) if x > 0)
    return 1.0 - h, k / n > 1.0 - h


def test_beats_gv_agrees_with_the_bound_report():
    """On every golden row, at its published d, and on the G = 0 codes,
    whose d = n lies past the Plotkin point: ``beats_gv`` and
    ``bound_report`` give the oracle's answer."""
    from toric_codes.tables import GOLDEN_TABLES, field_for_q
    from toric_codes.toric import hansen_code

    cases = []
    for table in GOLDEN_TABLES.values():
        for row in table.rows:
            if table.kind == "hansen-b":
                cases.append((hansen_code("b", field_for_q(row.q), a=row.a), row.d))
            elif table.kind == "toric":
                cases.append((toric_code(field_for_q(row.q), table.fan, row.divisor), row.d))
    past = [toric_code(GF(*pm), FAN1, (0, 0, 0)) for pm in ((2, 1), (3, 1), (2, 2), (7, 1))]
    cases += [(res, res.n) for res in past]
    outcomes = []
    for res, d in cases:
        n, k, q = res.n, res.k, res.spec.gf.q
        rate, beats = gv_oracle(n, k, d, q)
        rep = bound_report(res, d)
        assert beats_gv(n, k, d, q) is rep.beats_gv is beats
        assert abs(rep.gv_rate - rate) < 1e-12 and rep.gv_rate == gv_rate(q, d / n)
        outcomes.append((d / n > (q - 1) / q, beats))
    assert outcomes.count((True, True)) == 4 and {False, True} <= {b for _, b in outcomes}


# -- conjectures ----------------------------------------------------------------


def test_conjecture1_examples():
    # vol = 2, n = 12: N = 2 qualifies (8 <= 12 <= 16)
    p = poly(FAN3, (0, 0, 2, 1))  # rectangle 2x1, area 2
    rep = conjecture1_bound(p, 12)
    assert rep.applicable and rep.N == 2 and rep.d_lower == 12 - 8
    # vol = 50/3, n = 16: 2N vol > 16 already at N = 2
    pg = poly(FAN1, (0, 0, 10))
    assert not conjecture1_bound(pg, 16).applicable
    # fan7 headline polytope (0,0), (25/6, 5/6), (5/6, 25/6): exact area
    # 25/3, so N = 2 qualifies (100/3 <= 49 <= 200/3) with bound 47/3
    p7 = poly(FAN7, (0, 0, 5))
    assert p7.volume() == Fraction(25, 3)
    rep7 = conjecture1_bound(p7, 49)
    assert rep7.applicable and rep7.N == 2 and rep7.d_lower == Fraction(47, 3)


def test_conjecture2_fan6_row():
    p = poly(FAN6, (0, 0, 2))
    rep = conjecture2_bound(FAN6, TDivisor((0, 0, 2)), p, 36)
    assert rep.smooth and rep.strictly_convex and rep.degree_ok and rep.applicable
    assert rep.predicted_k == 6
    assert rep.d_lower == 36 - 12 == 24
    res = toric_code(GF(7), FAN6, (0, 0, 2))
    assert res.k == 6  # prediction matches the constructed dimension


def test_conjecture2_singular_inapplicable():
    p = poly(FAN1, (0, 0, 3))
    rep = conjecture2_bound(FAN1, TDivisor((0, 0, 3)), p, 16)
    assert not rep.smooth
    assert not rep.applicable


def test_bound_report_assembly():
    coeffs = (0, 0, 3)
    res = toric_code(GF(5), FAN1, coeffs)
    d = min_distance_exhaustive(res.code).d
    rep = bound_report(res, d)
    assert rep.singleton_defect == 16 + 1 - 4 - 10 == 3
    assert rep.segment_upper == 15
    assert rep.d == 10
    assert isinstance(rep.beats_gv, bool)
