"""Acceptance criteria, one test per criterion, each printing a PASS line.

The reproduction corpus (every golden table row with its computed code and
exact distance) is built once and shared: criterion 3 and 5 consume the
table diffs, criterion 9 the parameter properties.  Stated runtime budgets
are asserted where the criterion pins one.
"""

import itertools
import time
from functools import lru_cache

import numpy as np
import pytest

from toric_codes.field import GF
from toric_codes.codes import (
    LinearCode,
    matmul,
    matvec,
    min_distance,
    min_distance_exhaustive,
    min_distance_infoset,
    reed_muller,
    rm_predicted_params,
)
from toric_codes.bounds import beats_gv, conjecture2_bound, hansen_params, segment_upper_bound
from toric_codes.decoder import decode, setup as decoder_setup, syndrome, zero_set, error_locator, error_values
from toric_codes.geometry import (
    Fan2D,
    OrbitPoint,
    TDivisor,
    count_rational_points,
    lattice_points,
    polytope_of_divisor,
    torus_points,
)
from toric_codes.tables import FANS, GOLDEN_TABLES, field_for_q
from toric_codes.toric import ToricCodeSpec, hansen_code, toric_code

from test_codes import rm_monomial_count

FAN1 = Fan2D(FANS["fan1"])


def announce(criterion, ok, detail=""):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@lru_cache(maxsize=None)
def corpus():
    """Every toric golden-table row: (table_id, row, result, d_report)."""
    out = []
    for table_id, table in GOLDEN_TABLES.items():
        if table.kind == "rm":
            continue
        for row in table.rows:
            if getattr(row, "flag", ""):
                continue
            gf = field_for_q(row.q)
            if table.kind == "hansen-b":
                res = hansen_code("b", gf, a=row.a)
                div = (0, 0, row.a)
                fan = Fan2D(FANS["fan4"])
            else:
                fan = Fan2D(table.fan)
                res = toric_code(gf, fan, row.divisor)
                div = row.divisor
            if table_id == "fan1" and row.q == 5 and row.k <= 12:
                rep = min_distance_exhaustive(res.code, work_cap=70_000_000)
            elif table_id == "hansen-b" and (row.q, row.a) in ((5, 2), (7, 2), (7, 3), (8, 2)):
                rep = min_distance_exhaustive(res.code, work_cap=70_000_000)
            elif table_id == "fan1":
                rep = min_distance_infoset(res.code)
            else:
                rep = min_distance(res.code)
            out.append((table_id, row, fan, TDivisor(div), res, rep))
    return out


# -- criterion 1: Reed-Muller baseline -------------------------------------------


def test_criterion_1_reed_muller():
    t0 = time.time()
    code = reed_muller(GF(2), 5, 1)
    d = min_distance_exhaustive(code).d
    ok = (code.n, code.k, d) == (32, 6, 16)
    ok = ok and rm_predicted_params(2, 5, 1) == (32, 6, 16)

    # constructed dimension equals the prediction for every (q, m, ell)
    # with q^m <= 729.  Distinct reduced monomials are linearly independent
    # functions on GF(q)^m (tensor Vandermonde), so the constructed rank is
    # the monomial count; the count is checked against the closed form for
    # the whole range, and the rank argument itself is verified by honest
    # row reduction on every field with q^m <= 32.
    prime_powers = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for me in (1, 2, 3, 4, 5, 6):
            if p**me <= 729:
                prime_powers.append((p, me))
    for p, me in prime_powers:
        q = p**me
        for m in range(1, 10):
            if q**m > 729:
                break
            for ell in range(0, m * (q - 1) + 1):
                n_pred, k_pred, _ = rm_predicted_params(q, m, ell)
                ok = ok and n_pred == q**m and k_pred == rm_monomial_count(q, m, ell)
    for p, me in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        q = p**me
        gf = GF(p, me)
        for m in range(1, 6):
            if q**m > 32:
                break
            for ell in range(0, m * (q - 1) + 1):
                c = reed_muller(gf, m, ell)
                n_pred, k_pred, _ = rm_predicted_params(q, m, ell)
                ok = ok and (c.n, c.k) == (n_pred, k_pred)
    elapsed = time.time() - t0
    announce(1, ok and elapsed < 1.0, f"(32,6,16) exact, sweep to q^m=729, {elapsed:.2f}s")


# -- criterion 2: Hansen case (b) -------------------------------------------------


def test_criterion_2_hansen_b():
    t0 = time.time()
    expected = {(5, 2): (16, 6, 8), (7, 2): (36, 6, 24), (7, 3): (36, 10, 18), (8, 2): (49, 6, 35)}
    rows = {
        (row.q, row.a): (res, rep)
        for table_id, row, _, _, res, rep in corpus()
        if table_id == "hansen-b"
    }
    ok = True
    for (q, a), (n, k, d) in expected.items():
        res, rep = rows[(q, a)]
        ok = ok and rep.method == "exhaustive" and (res.n, res.k, rep.d) == (n, k, d)
        pred = hansen_params("b", q, a)
        if pred.in_range:
            ok = ok and (pred.n, pred.k, pred.d) == (n, k, d)
    announce(2, ok, f"4 rows exact by exhaustive search, {time.time() - t0:.0f}s incl. corpus")


# -- criterion 3: fan1 table -------------------------------------------------------


def test_criterion_3_fan1_table():
    rows = [entry for entry in corpus() if entry[0] == "fan1"]
    ok = len(rows) == 18  # 19 published rows, 1 flagged duplicate
    t_exh = 0.0
    for _, row, _, _, res, rep in rows:
        exact = (res.n, res.k, rep.d) == (row.n, row.k, row.d)
        ok = ok and exact and rep.exact
        if row.q == 5 and row.k <= 12:
            ok = ok and rep.method == "exhaustive"
        else:
            ok = ok and rep.method == "information-set"
    # the duplicated (2,3,3) divisor: reproduced under the (14,2) reading,
    # and the (15,2) reading is flagged in the golden table
    dup = [r for r in GOLDEN_TABLES["fan1"].rows if r.divisor == (2, 3, 3)]
    ok = ok and len(dup) == 2
    ok = ok and any(r.flag == "duplicate-unresolved" and r.k == 15 for r in dup)
    reproduced = [r for _, r, _, _, _, _ in rows if r.divisor == (2, 3, 3)]
    ok = ok and len(reproduced) == 1 and reproduced[0].k == 14
    announce(3, ok, "18 rows exact; (2,3,3) reproduced as (16,14,2), k=15 row flagged")


# -- criterion 4: the (49,11,28)_8 record ------------------------------------------


def test_criterion_4_headline_record():
    entry = [e for e in corpus() if e[0] == "fan7"][0]
    _, row, _, _, res, rep = entry
    ok = (res.n, res.k, rep.d) == (49, 11, 28)
    ok = ok and rep.method == "information-set" and rep.exact
    announce(4, ok, "fan7 5*D3 over GF(8) = (49,11,28)")


# -- criterion 5: fan6 and fan2 tables ----------------------------------------------


def test_criterion_5_fan6_fan2_tables():
    t0 = time.time()
    ok = True
    count = 0
    for table_id in ("fan6", "fan2-m3", "fan2-m5", "fan2-m10"):
        for _, row, _, _, res, rep in (e for e in corpus() if e[0] == table_id):
            count += 1
            ok = ok and (res.n, res.k) == (row.n, row.k)
            if rep.exact:
                ok = ok and rep.d == row.d
            else:
                ok = ok and rep.lower <= row.d <= rep.upper
    elapsed = time.time() - t0
    ok = ok and count == 24 + 7 + 4 + 3
    announce(5, ok and elapsed < 1800, f"{count} rows, {elapsed:.0f}s incl. shared corpus build")


# -- criterion 6: rational point counts ----------------------------------------------


def test_criterion_6_point_counts():
    expected = {2: 7, 3: 13, 4: 21, 5: 31, 7: 57, 8: 73}
    ok = all(
        count_rational_points(FAN1, field_for_q(q)) == v for q, v in expected.items()
    )
    announce(6, ok, "fan1 counts 7,13,21,31,57,73 for q=2,3,4,5,7,8")


# -- criterion 7: decoding-example dimensions -----------------------------------------


def test_criterion_7_example_dimensions():
    from fractions import Fraction

    def dim(coeffs):
        return len(lattice_points(polytope_of_divisor(FAN1, TDivisor(coeffs))))

    ok = dim((0, 0, 10)) == 22
    ok = ok and dim((2, 2, 2)) == 10
    ok = ok and dim((-2, -2, 8)) == 5
    ok = ok and dim((-3, -3, 7)) == 1
    ok = ok and polytope_of_divisor(FAN1, TDivisor((0, 0, 10))).volume() == Fraction(50, 3)
    announce(7, ok, "dims 22/10/5/1 and vol 50/3 exact")


# -- criterion 8: decoder round trip ---------------------------------------------------


def test_criterion_8_decoder_roundtrip():
    t0 = time.time()
    gf = GF(2, 3)
    pts = list(torus_points(gf)) + [OrbitPoint(0, 1), OrbitPoint(1, 1)]
    spec = ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 10)), pts)
    st = decoder_setup(spec, TDivisor((2, 2, 2)))
    dual = st.result.dual
    rng = np.random.default_rng(2026)
    ok = st.n == 51
    wrong_unique = 0
    exact_unique = 0
    for trial in range(100):
        c = matvec(gf, dual.gen.T, rng.integers(0, 8, size=dual.k).astype(np.int16))
        e = np.zeros(51, dtype=np.int16)
        w = trial % 3
        if w >= 1:
            e[49] = rng.integers(1, 8)
        if w == 2:
            e[50] = rng.integers(1, 8)
        r = gf.vadd(c, e)
        out = decode(r, st)
        if len(out.zero_set) <= st.zero_cap:
            if out.status != "unique":
                ok = False
        if out.status == "unique":
            if np.array_equal(out.errors_found, e):
                exact_unique += 1
            else:
                wrong_unique += 1
    ok = ok and wrong_unique == 0 and exact_unique == 100

    # the published worked-example shape: unit errors at the boundary
    # points, received = e itself; the planted values solve the value
    # system directly
    e = np.zeros(51, dtype=np.int16)
    e[49] = e[50] = 1
    s = syndrome(e, st)
    nf = zero_set(error_locator(s, st), st)
    out = error_values(s, nf, st)
    ok = ok and out.status == "unique" and np.array_equal(out.errors_found, e)
    elapsed = time.time() - t0
    announce(8, ok and elapsed < 60, f"100/100 exact uniques, 0 wrong uniques, {elapsed:.0f}s")


# -- criterion 9: bound properties over the corpus --------------------------------------


def test_criterion_9_bound_properties():
    corp = corpus()
    t0 = time.time()
    ok = True
    gv_winners = 0
    for table_id, row, fan, div, res, rep in corp:
        n, k, d = res.n, res.k, rep.d
        defect = n + 1 - k - d
        ok = ok and defect >= 0
        is_mds = "MDS" in row.note
        ok = ok and (defect == 0) == is_mds
        ok = ok and d <= segment_upper_bound(res.spec.basis, n, row.q)
        c2 = conjecture2_bound(fan, div, polytope_of_divisor(fan, div), n)
        if c2.applicable:
            ok = ok and k == c2.predicted_k
        if beats_gv(n, k, d, row.q):
            gv_winners += 1
        if table_id == "fan7":
            ok = ok and beats_gv(n, k, d, row.q)
    ok = ok and gv_winners >= 6  # the record code and at least five others
    elapsed = time.time() - t0
    announce(9, ok and elapsed < 60, f"defect/MDS, segment, conj2, {gv_winners} GV winners, {elapsed:.0f}s")


# -- criterion 10: engine cross-validation ------------------------------------------------


def test_criterion_10_engine_agreement():
    t0 = time.time()
    rng = np.random.default_rng(31415)
    ok = True
    fields = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5)}
    count = 0
    while count < 200:
        q = int(rng.choice([2, 3, 4, 5]))
        gf = fields[q]
        n = int(rng.integers(6, 21))
        k = int(rng.integers(1, min(n, 8) + 1))
        M = rng.integers(0, q, size=(k, n)).astype(np.int16)
        code = LinearCode(gf, M)
        if code.k == 0:
            continue
        count += 1
        a = min_distance_exhaustive(code)
        b = min_distance_infoset(code)
        ok = ok and a.d == b.d
    # every golden-table code with q^k <= 1e6
    checked = 0
    for _, row, _, _, res, _ in corpus():
        if row.q**res.k <= 10**6:
            checked += 1
            a = min_distance_exhaustive(res.code)
            b = min_distance_infoset(res.code)
            ok = ok and a.d == b.d == row.d
    elapsed = time.time() - t0
    announce(10, ok and elapsed < 600, f"200 random + {checked} table codes agree, {elapsed:.0f}s")
