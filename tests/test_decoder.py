import collections
import functools
import hashlib
import itertools

import numpy as np
import pytest

from toric_codes import codes, decoder, toric
from toric_codes.field import GF
from toric_codes.codes import LinearCode, _elements, matvec, min_distance_exhaustive, null_space, rref, solve
from toric_codes.decoder import (
    DecodeOutcome,
    DecoderSetup,
    SetupError,
    bracket_matrix,
    decode,
    error_locator,
    error_values,
    setup as decoder_setup,
    syndrome,
    zero_set,
)
from toric_codes.geometry import (
    Fan2D,
    OrbitPoint,
    TDivisor,
    evaluation_matrix,
    lattice_points,
    least_orders,
    polytope_of_divisor,
    torus_points,
)
from toric_codes.tables import FANS, field_for_q
from toric_codes.toric import ToricCodeSpec, default_points

from test_geometry import graded_evaluation, reference_graded

FAN1 = Fan2D([(2, -1), (-1, 2), (-1, -1)])
FAN4 = Fan2D([(1, 0), (0, 1), (-1, -1)])


def boundary_setup(**kwargs):
    """fan1 over GF(8), G = 10 D_3, G' = 2(D_1+D_2+D_3), 49 torus points
    plus one point on each of the first two ray orbits (n = 51)."""
    gf = GF(2, 3)
    pts = list(torus_points(gf)) + [OrbitPoint(0, 1), OrbitPoint(1, 1)]
    spec = ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 10)), pts)
    return decoder_setup(spec, TDivisor((2, 2, 2)), **kwargs)


def torus_setup():
    """fan4 over GF(5), G = 3 D_3, G' = D_3, all 16 torus points."""
    gf = GF(5)
    spec = ToricCodeSpec(gf, FAN4, TDivisor((0, 0, 3)), default_points(gf, FAN4))
    return decoder_setup(spec, TDivisor((0, 0, 1)))


def random_dual_codeword(st, rng):
    dual = st.result.dual
    msg = rng.integers(0, st.spec.gf.q, size=dual.k).astype(np.int16)
    return matvec(st.spec.gf, dual.gen.T, msg)


# -- setup ---------------------------------------------------------------------


def test_setup_dimensions_boundary():
    st = boundary_setup()
    assert len(st.spec.basis) == 22
    assert len(st.basis_locator) == 10
    assert len(st.basis_gap) == 5
    # L(G - 3D) is 1-dimensional
    assert len(lattice_points(polytope_of_divisor(FAN1, TDivisor((-3, -3, 7))))) == 1
    assert st.n == 51
    assert st.zero_cap >= 2
    assert st.condition_c == "unverified"  # dual has k = 29, too big to verify


def test_setup_gprime_equals_g():
    gf = GF(5)
    spec = ToricCodeSpec(gf, FAN4, TDivisor((0, 0, 3)), default_points(gf, FAN4))
    st = decoder_setup(spec, TDivisor((0, 0, 3)))
    assert st.basis_gap == [(0, 0)]  # L(0) = constants


def test_setup_empty_space_error():
    gf = GF(5)
    spec = ToricCodeSpec(gf, FAN4, TDivisor((0, 0, 3)), default_points(gf, FAN4))
    with pytest.raises(SetupError, match="zero"):
        decoder_setup(spec, TDivisor((0, 0, 5)))  # L(G - G') empty


def test_setup_of_a_full_rank_code_says_its_dual_is_zero(monkeypatch):
    """fan1 over GF(8), G = 40 D_3: k = n = 49, so the dual, the code the
    decoder decodes, is zero; set-up says so before any distance search."""
    def never(*args, **kwargs):
        raise AssertionError("a distance search ran")

    monkeypatch.setattr(decoder, "min_distance", never)
    gf = GF(2, 3)
    spec = ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 40)), default_points(gf, FAN1))
    with pytest.raises(SetupError, match=r"the dual code, which this decoder decodes, is zero: the code has k = n = 49"):
        decoder_setup(spec, TDivisor((2, 2, 2)))


def test_setup_refuses_a_sliver_basis_before_listing_it(monkeypatch):
    """A G' whose polytope holds one point over 2 000 001 columns t = x + y
    is refused with CodeError before either basis is listed."""
    def never(*args):
        raise AssertionError("a basis was listed")

    rays = [(1000001, -1000000), (1, 1), (-1000001, 1000000), (-1, -1)]
    gf = GF(2, 3)
    spec = ToricCodeSpec(gf, Fan2D(rays), TDivisor((0, 0, 0, 0)), list(torus_points(gf)))
    monkeypatch.setattr(toric, "lattice_points", never)
    with pytest.raises(codes.CodeError, match="would step through 2000001 columns"):
        decoder_setup(spec, TDivisor((0, 0, 0, 2 * 10**6)))


# fan1, G' = 2(D_1+D_2+D_3): the worked example (demo 05, the default
# budget), and the benchmark's gf8-boundary and gf9-torus set-ups (a budget
# of 300 000 words); the fields are (zero_cap, zero_cap_exact, condition_c,
# d_dual)
PINNED_SETUPS = [
    ((2, 3), (0, 0, 10), [(0, 1), (1, 1)], {}, (23, False, "unverified", None)),
    ((2, 3), (0, 0, 10), [(0, 1), (1, 1)], {"z_work_budget": 300_000}, (26, False, "unverified", None)),
    ((3, 2), (0, 0, 12), [], {"z_work_budget": 300_000}, (32, False, "unverified", None)),
]


@pytest.mark.parametrize("pm,divisor,boundary,kwargs,want", PINNED_SETUPS,
                         ids=["demo05", "gf8-boundary", "gf9-torus"])
def test_setup_zero_caps_are_pinned(pm, divisor, boundary, kwargs, want):
    """The auxiliary searches of these set-ups run on the translation path,
    and none of them reaches a restricted last level (k - 1) best < n w,
    so their set-up fields stay as recorded."""
    gf = GF(*pm)
    pts = list(torus_points(gf)) + [OrbitPoint(ray, s) for ray, s in boundary]
    spec = ToricCodeSpec(gf, FAN1, TDivisor(divisor), pts)
    st = decoder_setup(spec, TDivisor((2, 2, 2)), **kwargs)
    assert (st.zero_cap, st.zero_cap_exact, st.condition_c, st.d_dual) == want


def test_zero_cap_exact_on_torus_setup():
    st = torus_setup()
    # aux code is the (16, 3) triangle code with d = 12, all points clean
    assert st.zero_cap_exact
    assert st.zero_cap == 16 - 12
    assert st.condition_c in ("verified", "failed")
    assert st.d_dual is not None


# (orbit points, G', sha256 prefix of the locator table's level-0 columns
# with every other column zeroed, zero cap), recorded before the locator was
# read at twisted levels; fan1 over GF(8), G = 10 D_3
RECORDED_SETUPS = [
    ([(0, 1), (1, 1)], (2, 2, 2), "137e7a70947ba6e7", 23),
    ([(0, 3), (1, 6), (1, 7)], (2, 2, 2), "4610b2354e99c516", 24),
    ([(0, 3), (0, 5), (1, 6)], (0, 2, 2), "f02f2c635d71cef2", 15),
]
RECORDED_IDS = [f"recorded-{i}" for i in range(len(RECORDED_SETUPS))]


@functools.lru_cache(maxsize=None)
def recorded_setup(orbit, gprime):
    gf = GF(2, 3)
    pts = list(torus_points(gf)) + [OrbitPoint(r, s) for r, s in orbit]
    return decoder_setup(ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 10)), pts), TDivisor(gprime))


def twisted_terms(st):
    """Per point: the level -beta (beta the least order of the gap basis
    there), and the orders and leading values of the locator basis."""
    gf, fan = st.spec.gf, st.spec.fan
    terms = []
    for pt in st.spec.points:
        beta = graded_evaluation(st.basis_gap, [pt], gf, fan)[0].min()
        order, value = graded_evaluation(st.basis_locator, [pt], gf, fan)
        terms.append((-int(beta), order[:, 0].tolist(), value[:, 0].tolist()))
    return terms


def reference_zero_set(f, gf, terms):
    """The twisted rule point by point: at each point, the sum of f_j's
    leading values over the terms whose order there equals the level."""
    out = []
    for i, (level, orders, values) in enumerate(terms):
        total = 0
        for a, o, v in zip(f.tolist(), orders, values):
            if o == level:
                total = gf.add(total, gf.mul(a, v))
        if total == 0:
            out.append(i)
    return out


@pytest.mark.parametrize("orbit, gprime, torus_digest, zero_cap", RECORDED_SETUPS, ids=RECORDED_IDS)
def test_setup_table_keeps_recorded_level_zero_values(orbit, gprime, torus_digest, zero_cap):
    st = recorded_setup(tuple(orbit), gprime)
    assert st.locator.shape == (len(st.basis_locator), st.n) and st.locator.dtype == np.int16
    terms = twisted_terms(st)
    flat = np.array([level == 0 for level, _, _ in terms])
    assert not flat[49:].all()  # some orbit point is read below order 0
    level0 = np.where(flat, st.locator, 0).astype("<i2")
    assert hashlib.sha256(level0.tobytes()).hexdigest()[:16] == torus_digest
    assert (st.zero_cap, st.zero_cap_exact) == (zero_cap, False)


@pytest.mark.parametrize("orbit, gprime", [row[:2] for row in RECORDED_SETUPS], ids=RECORDED_IDS)
def test_zero_set_matches_twisted_per_point_rule(orbit, gprime):
    st = recorded_setup(tuple(orbit), gprime)
    gf, n, ell = st.spec.gf, st.n, len(st.basis_locator)
    terms = twisted_terms(st)
    rng = np.random.default_rng(7)
    locators = []
    while len(locators) < 150:  # dense and sparse random locators
        f = rng.integers(0, gf.q, size=ell) * (rng.random(ell) < (0.3 if len(locators) % 2 else 1.0))
        if f.any():
            locators.append(f.astype(np.int16))
    orbit_cols = np.arange(49, n)
    from_words = 0
    while from_words < 100:  # locators of words with planted orbit errors
        e = np.zeros(n, dtype=np.int16)
        hit = orbit_cols[rng.random(orbit_cols.size) < 0.6]
        e[hit] = rng.integers(1, gf.q, size=hit.size)
        if rng.random() < 0.5:
            e[rng.integers(0, 49)] = rng.integers(1, gf.q)
        try:
            locators.append(error_locator(syndrome(gf.vadd(random_dual_codeword(st, rng), e), st), st))
        except SetupError:
            continue
        from_words += 1
    for f in locators:
        assert zero_set(f, st) == reference_zero_set(f, gf, terms)


# -- brackets -------------------------------------------------------------------


def bracket(r: np.ndarray, exponent, setup: DecoderSetup) -> int:
    """[r, phi] = sum_i r_i phi(P_i) for the character phi = x^exponent;
    the per-character reference for the entries of the syndrome."""
    spec = setup.spec
    r = _elements(spec.gf, r, "received word", setup.n)
    row = evaluation_matrix([tuple(exponent)], spec.points, spec.gf, spec.fan)  # (1, n)
    return int(matvec(spec.gf, row, r)[0])


def test_bracket_zero_vector():
    st = torus_setup()
    assert bracket(np.zeros(16, dtype=np.int16), (1, 1), st) == 0


def test_bracket_codeword_against_lg():
    st = torus_setup()
    rng = np.random.default_rng(0)
    c = random_dual_codeword(st, rng)
    for h in st.spec.basis:
        assert bracket(c, h, st) == 0
    # and the full bracket matrix of a codeword vanishes
    assert not bracket_matrix(syndrome(c, st), st).any()


def test_bracket_explicit_sum():
    st = torus_setup()
    r = np.zeros(16, dtype=np.int16)
    r[0] = r[1] = r[2] = 1
    gf = st.spec.gf
    for phi in [(1, 1), (2, 0)]:
        expect = 0
        for i in range(3):
            expect = gf.add(expect, reference_graded(phi, st.spec.points[i], gf, st.spec.fan)[1])
        assert bracket(r, phi, st) == expect


def reference_bracket_matrix(r, st):
    """B[i, j] = [r, f_j g_i] from one strict evaluation row per product,
    the table setup kept before brackets were read from the syndrome."""
    gf, kg, ell = st.spec.gf, len(st.basis_gap), len(st.basis_locator)
    prods = [(f[0] + g[0], f[1] + g[1]) for g in st.basis_gap for f in st.basis_locator]
    FG = evaluation_matrix(prods, st.spec.points, gf, st.spec.fan).reshape(kg, ell, st.n)
    return gf.vsum(gf.vmul(FG, r[None, None, :]), axis=2)


@functools.lru_cache(maxsize=None)
def orbit_setup(fan, q, divisor, orbit, gprime):
    """A golden-table fan over GF(q) with the given orbit points after the
    torus points."""
    gf = field_for_q(q)
    pts = list(torus_points(gf)) + [OrbitPoint(r, s) for r, s in orbit]
    spec = ToricCodeSpec(gf, Fan2D(FANS[fan]), TDivisor(divisor), pts)
    return decoder_setup(spec, TDivisor(gprime))


BRACKET_SETUPS = {
    **{
        f"recorded-{i}": functools.partial(recorded_setup, tuple(orbit), gprime)
        for i, (orbit, gprime, *_) in enumerate(RECORDED_SETUPS)
    },
    "boundary": boundary_setup,
    "torus": torus_setup,
    # G' with a negative coefficient, and with poles at the orbit points
    "fan6": functools.partial(orbit_setup, "fan6", 8, (0, 0, 3), ((0, 1), (1, 2)), (-1, 1, 2)),
    "fan7": functools.partial(orbit_setup, "fan7", 8, (0, 0, 5), ((0, 1), (1, 3)), (2, 0, 2)),
    "fan2-m3": functools.partial(orbit_setup, "fan2-m3", 7, (0, 3, 2), ((0, 2),), (1, -1, 2)),
}


@pytest.mark.parametrize("name", sorted(BRACKET_SETUPS))
def test_bracket_matrix_matches_per_product_evaluation(name):
    st = BRACKET_SETUPS[name]()
    gf = st.spec.gf
    assert st.bracket_index.shape == (len(st.basis_gap), len(st.basis_locator))
    # every product is a row of H
    assert 0 <= st.bracket_index.min() and st.bracket_index.max() < len(st.spec.basis)
    assert len(st.spec.basis) == len(st.result.eval_matrix)
    rng = np.random.default_rng(9)
    words = [rng.integers(0, gf.q, size=st.n).astype(np.int16) for _ in range(20)]
    words.append(gf.vadd(random_dual_codeword(st, rng), np.eye(1, st.n, st.n - 1, dtype=np.int16)[0]))
    for r in words:
        B = bracket_matrix(syndrome(r, st), st)
        assert B.dtype == np.int16
        assert np.array_equal(B, reference_bracket_matrix(r, st))


@pytest.mark.parametrize("name", sorted(BRACKET_SETUPS))
def test_locator_table_is_the_levelled_evaluation(monkeypatch, name):
    """The set-up's locator table is L(G') read at the levels minus the
    least order of the gap basis (``least_orders``, the per-point minimum
    of the oracle's orders), in blocks of 1, 100 and 2^18 entries; no
    locator monomial has an order below its level (module docstring)."""
    from toric_codes import geometry

    st = BRACKET_SETUPS[name]()
    gf, fan, pts = st.spec.gf, st.spec.fan, st.spec.points
    beta = graded_evaluation(st.basis_gap, pts, gf, fan)[0].min(axis=0)
    assert np.array_equal(least_orders(st.basis_gap, pts, gf, fan), beta)
    order, value = graded_evaluation(st.basis_locator, pts, gf, fan)
    assert (order >= -beta).all()
    want = np.where(order == -beta, value, 0)
    assert st.locator.dtype == np.int16 and np.array_equal(st.locator, want)
    for block in (1, 100, 1 << 18):
        monkeypatch.setattr(geometry, "_EVALUATION_BLOCK", block)
        assert np.array_equal(evaluation_matrix(st.basis_locator, pts, gf, fan, -beta), want)


# the grid side that set-up marks on the auxiliary code of each set-up:
# recorded-2 has an orbit point at level 0, every other one only torus points
AUX_GRIDS = {"boundary": 7, "fan2-m3": 6, "fan6": 7, "fan7": 7, "recorded-0": 7, "recorded-1": 7,
             "recorded-2": None, "torus": 4}


@pytest.mark.parametrize("name", sorted(BRACKET_SETUPS))
def test_setup_marks_its_auxiliary_code_as_the_translation_check_decides(monkeypatch, name):
    """Set-up marks the auxiliary code invariant under the torus
    translations exactly when its level-0 columns are the torus points in
    the fixed order, and the mark is what ``_torus_translations`` answers
    on the code, so the check it skips would find the same grid."""
    marked = []
    mark = decoder._mark_translation_grid
    monkeypatch.setattr(decoder, "_mark_translation_grid",
                        lambda code, points: marked.append(code) or mark(code, points))
    make = BRACKET_SETUPS[name]
    if isinstance(make, functools.partial):  # run set-up again, not from the cache
        make = functools.partial(make.func.__wrapped__, *make.args)
    st = make()
    [aux] = marked
    assert aux._translation_grid == AUX_GRIDS[name]
    assert aux._translation_grid == codes._torus_translations(st.spec.gf, aux._reduced[0][: aux.k])


@pytest.mark.parametrize("name", sorted(set(BRACKET_SETUPS) - {"torus"}))
def test_bracket_products_factor_at_twisted_levels(name):
    """H[bracket_index[i, j], P] = f~_j(P) g~_i(P): the locator table times
    g_i at level +beta, its leading value where its order at P is the least
    order of the gap basis there (0 elsewhere)."""
    st = BRACKET_SETUPS[name]()
    gf, spec = st.spec.gf, st.spec
    order, value = graded_evaluation(st.basis_gap, spec.points, gf, spec.fan)
    beta = order.min(axis=0)
    on_orbit = np.array([isinstance(pt, OrbitPoint) for pt in spec.points])
    assert (beta[on_orbit] != 0).any()  # some orbit point sits at a nonzero level
    g_twisted = np.where(order == beta, value, 0)
    products = gf.mul_table[st.locator[None, :, :], g_twisted[:, None, :]]
    assert np.array_equal(st.result.eval_matrix[st.bracket_index], products)


# -- locator and zero set --------------------------------------------------------


def test_codeword_decodes_to_zero_error():
    for st in (torus_setup(), boundary_setup()):
        rng = np.random.default_rng(1)
        c = random_dual_codeword(st, rng)
        out = decode(c, st)
        assert out.status == "unique"
        assert not np.asarray(out.errors_found).any()


def test_locator_vanishes_on_planted_boundary_support():
    st = boundary_setup()
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = random_dual_codeword(st, rng)
        e = np.zeros(51, dtype=np.int16)
        e[49] = rng.integers(1, 8)
        e[50] = rng.integers(1, 8)
        r = st.spec.gf.vadd(c, e)
        f = error_locator(syndrome(r, st), st)
        nf = zero_set(f, st)
        assert {49, 50}.issubset(set(nf))  # candidate set covers the support


@pytest.mark.parametrize("symbol", [-1, 7])
def test_decode_rejects_symbols_outside_the_field(symbol):
    st = torus_setup()
    r = np.zeros(16, dtype=np.int16)
    r[4] = symbol
    with pytest.raises(ValueError, match="element indices 0..4"):
        decode(r, st)


# each stage with the length of the vector it checks: the received word
# (n = 16) for the stages that take r, the syndrome (|basis of L(G)| = 10)
# for the rest
STAGES = {
    "syndrome": (syndrome, 16),
    "decode": (decode, 16),
    "bracket_matrix": (bracket_matrix, 10),
    "error_locator": (error_locator, 10),
    "error_values": (lambda s, st: error_values(s, [5], st), 10),
}


@pytest.mark.parametrize("symbol", [-1, 5])
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_stages_reject_symbols_outside_the_field(stage, symbol):
    st = torus_setup()
    stage, m = STAGES[stage]
    v = np.zeros(m, dtype=np.int16)
    v[5] = symbol
    with pytest.raises(ValueError, match="element indices 0..4"):
        stage(v, st)


@pytest.mark.parametrize("cap", [0, -1, 2.5, True, "abc", None])
def test_list_cap_must_be_a_positive_integer(cap):
    st = torus_setup()
    r = np.zeros(16, dtype=np.int16)
    with pytest.raises(ValueError, match="list cap must be an integer >= 1"):
        error_values(syndrome(r, st), [], st, list_cap=cap)
    # decode checks the cap also for a word that fails before the value system
    rng = np.random.default_rng(10)
    words = (rng.integers(0, 5, size=16).astype(np.int16) for _ in range(100))
    overloaded = next(w for w in words if not null_space(st.spec.gf, bracket_matrix(syndrome(w, st), st)).size)
    for word in (r, overloaded):
        with pytest.raises(ValueError, match="list cap must be an integer >= 1"):
            decode(word, st, list_cap=cap)


def test_zero_set_rejects_zero_locator():
    st = torus_setup()
    with pytest.raises(ValueError):
        zero_set(np.zeros(len(st.basis_locator), dtype=np.int16), st)


# a scalar, a column and a vector one entry short, for a stage whose input
# has length m
MALFORMED = {
    "r0": lambda m: np.int16(3),
    "r1": lambda m: np.zeros((m, 1), dtype=np.int16),
    "r2": lambda m: np.zeros(m - 1, dtype=np.int16),
}


@pytest.mark.parametrize("r", sorted(MALFORMED))
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_stages_reject_words_that_are_not_length_n_vectors(stage, r):
    st = torus_setup()
    stage, m = STAGES[stage]
    with pytest.raises(ValueError, match=f"1-D vector of length {m}"):
        stage(MALFORMED[r](m), st)


# f4 is a stack of the wrong width, f7 a stack with a zero row, f8 an empty
# stack; a stack of valid rows such as [[1, 4, 0]] is valid
@pytest.mark.parametrize(
    "f",
    [[1, -1, 0], [1, 9, 0], [1, 4], [1, 4, 0, 0], [[1, 4], [0, 1]], 3, [1.0, 4.0, 0.0],
     [[1, 4, 0], [0, 0, 0]], np.zeros((0, 3), dtype=np.int16)],
)
def test_zero_set_rejects_locators_outside_the_basis_space(f):
    st = torus_setup()
    assert len(st.basis_locator) == 3
    with pytest.raises(ValueError):
        zero_set(f, st)


@pytest.mark.parametrize("nf", [[16], [-1], [3, 3], [1.5], [[3]], [True]])
def test_error_values_rejects_invalid_candidate_positions(nf):
    st = torus_setup()
    with pytest.raises(ValueError, match="distinct integers in 0..15"):
        error_values(np.zeros(len(st.spec.basis), dtype=np.int16), nf, st)


def nonzeros(e):
    return {int(i): int(e[i]) for i in np.flatnonzero(e)}


# every outcome of the value system on torus_setup (n = 16, zero cap 4):
# (candidate positions, received word as {position: symbol}, list cap) ->
# (status, errors found as {position: symbol}, within the zero cap,
# diagnostics), recorded before error_values built its outcome in one place
VALUE_OUTCOMES = {
    "empty set, zero syndrome": (([], {}, 256), ("unique", {}, True, "")),
    "empty set, nonzero syndrome": (
        ([], {0: 1}, 256),
        ("fail", None, True, "empty candidate set but nonzero syndrome"),
    ),
    "inconsistent": (
        ([1], {0: 1}, 256),
        ("fail", None, True, "inconsistent value system (locator missed an error position)"),
    ),
    "unique": (([3], {3: 2}, 256), ("unique", {3: 2}, True, "")),
    "unique beyond the zero cap": (
        ([0, 1, 2, 3, 4], dict.fromkeys(range(5), 1), 256),
        ("list", [dict.fromkeys(range(5), 1)], False, "solution unique but |N(f)| exceeds the zero cap"),
    ),
    "beyond the list cap": (
        (list(range(8)), {7: 3}, 4),
        ("fail", None, False, "5 candidate solutions exceed the list cap 4"),
    ),
    "underdetermined": (
        (list(range(8)), {7: 3}, 5),
        (
            "list",
            [
                {0: 1, 1: 2, 2: 4, 3: 3, 4: 4, 5: 3, 6: 1},
                {0: 4, 1: 3, 2: 1, 3: 2, 4: 1, 5: 2, 6: 4, 7: 1},
                {0: 2, 1: 4, 2: 3, 3: 1, 4: 3, 5: 1, 6: 2, 7: 2},
                {7: 3},
                {0: 3, 1: 1, 2: 2, 3: 4, 4: 2, 5: 4, 6: 3, 7: 4},
            ],
            False,
            "underdetermined value system",
        ),
    ),
}


@pytest.mark.parametrize("case", list(VALUE_OUTCOMES))
def test_error_values_outcomes_match_recorded_values(case):
    (nf, symbols, cap), (status, found, within, diagnostics) = VALUE_OUTCOMES[case]
    st = torus_setup()
    r = np.zeros(16, dtype=np.int16)
    r[list(symbols)] = list(symbols.values())
    out = error_values(syndrome(r, st), nf, st, list_cap=cap)
    assert (out.status, out.zero_set, out.within_zero_cap, out.diagnostics) == (status, nf, within, diagnostics)
    assert out.locator is None
    if found is None:
        assert out.errors_found is None
    elif status == "unique":
        assert out.errors_found.shape == (16,) and nonzeros(out.errors_found) == found
    else:
        assert [nonzeros(e) for e in out.errors_found] == found
        assert all(e.dtype == np.int16 and e.shape == (16,) for e in out.errors_found)


def test_list_cap_message_of_a_count_past_the_digit_limit():
    """A value system over GF(64) with 2400 free unknowns has 64^2400
    solutions, more digits than Python converts to a string: the outcome
    writes the count as a power (a count below 2^64 stays in decimal, as in
    the recorded outcomes above)."""
    from types import SimpleNamespace

    n = 2400
    setup = SimpleNamespace(spec=SimpleNamespace(gf=GF(2, 6)), zero_cap=n, n=n,
                            result=SimpleNamespace(eval_matrix=np.zeros((1, n), dtype=np.int16)))
    out = decoder._values(np.zeros(1, dtype=np.int16), np.arange(n), setup, 256)
    assert (out.status, out.diagnostics) == ("fail", "64^2400 candidate solutions exceed the list cap 256")


def reference_candidates(gf, x, ns, nf, n):
    """The nested loop that listed the solutions x + sum c_i ns_i."""
    cands = []
    for combo in itertools.product(range(gf.q), repeat=ns.shape[0]):
        b = x.copy()
        for c, row in zip(combo, ns):
            if c:
                b = gf.vadd(b, gf.vscale(c, row))
        e = np.zeros(n, dtype=np.int16)
        e[nf] = b
        cands.append(e)
    return cands


@pytest.mark.parametrize("make, free", [(torus_setup, 2), (torus_setup, 3), (boundary_setup, 2)])
def test_list_candidates_match_nested_loop(make, free):
    st = make()
    gf, H = st.spec.gf, st.result.eval_matrix
    rng = np.random.default_rng(8)
    cols = rng.permutation(st.n)
    # the shortest prefix of cols whose value system has `free` free dimensions
    m = next(m for m in range(1, st.n + 1) if m - rref(gf, H[:, cols[:m]])[1] == free)
    nf = sorted(cols[:m].tolist())
    e = np.zeros(st.n, dtype=np.int16)
    e[nf] = rng.integers(0, gf.q, size=m)
    x, ns = solve(gf, H[:, nf], matvec(gf, H, e))
    assert ns.shape[0] == free and gf.q**free <= 256
    out = error_values(syndrome(e, st), nf, st)
    assert out.status == "list"
    expect = reference_candidates(gf, x, ns, nf, st.n)
    assert len(out.errors_found) == len(expect) == gf.q**free
    for got, want in zip(out.errors_found, expect):
        assert got.dtype == np.int16 and np.array_equal(got, want)
    assert any(np.array_equal(c, e) for c in out.errors_found)


# -- decoding round trips ---------------------------------------------------------


def test_boundary_roundtrip_suite():
    st = boundary_setup()
    gf = st.spec.gf
    rng = np.random.default_rng(3)
    wrong_unique = 0
    unique_ok = 0
    for trial in range(100):
        c = random_dual_codeword(st, rng)
        e = np.zeros(51, dtype=np.int16)
        w = trial % 3  # weights 0, 1, 2 planted on the orbit points
        if w >= 1:
            e[49] = rng.integers(1, 8)
        if w == 2:
            e[50] = rng.integers(1, 8)
        r = gf.vadd(c, e)
        out = decode(r, st)
        if len(out.zero_set) <= st.zero_cap:
            assert out.status == "unique", (trial, out.diagnostics)
        if out.status == "unique":
            if np.array_equal(out.errors_found, e):
                unique_ok += 1
            else:
                wrong_unique += 1
    assert wrong_unique == 0
    assert unique_ok == 100


def planted_words(st, rng, weights):
    """(received word, planted error) for each weight: a random dual
    codeword plus that many errors at random positions."""
    gf = st.spec.gf
    for t in weights:
        e = np.zeros(st.n, dtype=np.int16)
        e[rng.choice(st.n, size=t, replace=False)] = rng.integers(1, gf.q, size=t)
        yield gf.vadd(random_dual_codeword(st, rng), e), e


def test_gf16_torus_words_decode_uniquely():
    """fan1 over GF(16), G = 14 D_3, G' = 3(D_1+D_2+D_3), all 225 torus
    points; the candidate set is the common zero set of the null space."""
    gf = GF(2, 4)
    spec = ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 14)), list(torus_points(gf)))
    st = decoder_setup(spec, TDivisor((3, 3, 3)))
    rng = np.random.default_rng(16)
    for r, e in planted_words(st, rng, [1 + j % 4 for j in range(20)]):
        out = decode(r, st)
        assert out.status == "unique" and np.array_equal(out.errors_found, e)
        s = syndrome(r, st)
        ns = null_space(gf, bracket_matrix(s, st))
        common = sorted(set.intersection(*(set(zero_set(f, st)) for f in ns)))
        assert out.zero_set == zero_set(ns, st) == common
        assert zero_set(ns[:1], st) == zero_set(ns[0], st)  # a stack of one locator
        assert np.array_equal(out.locator, error_locator(s, st))


def count_decoder_calls(monkeypatch, setup):
    """Wrap decoder bindings and the set-up field's product kernel; the
    returned Counter tallies every input check by what it checks, the
    products with H, the reductions of the bracket system, the value
    systems and the calls of each public stage."""
    calls = collections.Counter()
    H = setup.result.eval_matrix
    bracket_shape = setup.bracket_index.shape

    def wrap(module, name, key):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key(*args)] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    wrap(decoder, "_elements", lambda gf, a, what, *rest: "check of r" if what == "received word" else f"check of {what}")
    # the products: the field product kernel on checked operands, which the
    # syndrome and the zero-set step use, and matmul
    wrap(setup.spec.gf, "_mul", lambda A, B: "product with H" if H is A or H is B else None)
    wrap(decoder, "matmul", lambda gf, A, B: "product with H" if H is A or H is B else None)
    # every reduction runs the one in-place loop: the decoder's own, and
    # rref's inside codes (null_space)
    for module in (decoder, codes):
        wrap(module, "_rref", lambda gf, M, *rest: "reduction of B" if np.shape(M) == bracket_shape else None)
    # the value system: its solution read off one reduction of [H[:, nf] | s]
    wrap(decoder, "_solution", lambda *args: "value system")
    for name in ("syndrome", "bracket_matrix", "error_locator", "zero_set", "error_values", "null_space"):
        wrap(decoder, name, lambda *args, name=name: name)
    return calls


def test_decode_reads_each_word_through_one_syndrome(monkeypatch):
    """Per word: one check of r, one product with H, one reduction of the
    bracket system and one value system, and no other check or stage;
    without a locator the chain stops right after that reduction."""
    st = boundary_setup()
    calls = count_decoder_calls(monkeypatch, st)
    rng = np.random.default_rng(13)
    chain = {"check of r": 1, "product with H": 1, "syndrome": 1, "reduction of B": 1}
    for r, e in planted_words(st, rng, [0, 1, 2, 3, 4, 8]):
        calls.clear()
        out = decode(r, st)
        calls.pop(None, None)
        assert calls == {**chain, "value system": 1}
        assert out.status != "unique" or np.array_equal(out.errors_found, e)
    st = torus_setup()
    calls = count_decoder_calls(monkeypatch, st)
    words = (rng.integers(0, 5, size=16).astype(np.int16) for _ in range(100))
    overloaded = next(w for w in words if not null_space(st.spec.gf, bracket_matrix(syndrome(w, st), st)).size)
    calls.clear()
    assert decode(overloaded, st).status == "fail"
    calls.pop(None, None)
    assert calls == chain


def generic_decode(r, st, list_cap=256):
    """The stage chain that ``decode`` shortcuts: the null basis of the
    bracket system, its common zero set, the value system, and the first
    null vector as the locator."""
    s = syndrome(r, st)
    ns = null_space(st.spec.gf, bracket_matrix(s, st))
    if not len(ns):
        with pytest.raises(SetupError) as no_locator:
            error_locator(s, st)
        return DecodeOutcome("fail", None, None, [], diagnostics=str(no_locator.value))
    out = error_values(s, zero_set(ns, st), st, list_cap)
    out.locator = error_locator(s, st)
    assert np.array_equal(out.locator, ns[0])
    return out


def assert_same_outcome(got, want):
    assert got.status == want.status
    assert got.zero_set == want.zero_set
    assert got.within_zero_cap == want.within_zero_cap
    assert got.diagnostics == want.diagnostics
    if want.locator is None:
        assert got.locator is None
    else:
        assert got.locator.dtype == np.int16 and np.array_equal(got.locator, want.locator)
    if want.errors_found is None:
        assert got.errors_found is None
    elif want.status == "list":
        assert isinstance(got.errors_found, list) and len(got.errors_found) == len(want.errors_found)
        for a, b in zip(got.errors_found, want.errors_found):
            assert np.array_equal(a, b)
    else:
        assert np.array_equal(got.errors_found, want.errors_found)


def listing_setup():
    """fan4 over GF(5), G = 2 D_3, G' = D_3, all 16 torus points: a zero
    set can hold the support of a codeword, so past the design radius the
    value system lists.  No seeded word lists on the two setups above."""
    gf = GF(5)
    spec = ToricCodeSpec(gf, FAN4, TDivisor((0, 0, 2)), default_points(gf, FAN4))
    return decoder_setup(spec, TDivisor((0, 0, 1)))


def gf9_torus_setup():
    """fan1 over GF(9), G = 6 D_3, G' = D_1 + D_2 + D_3, all 64 torus
    points: an odd p^m, whose adds take the flat table and whose sums read
    the digit fields."""
    gf = GF(3, 2)
    spec = ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 6)), list(torus_points(gf)))
    return decoder_setup(spec, TDivisor((1, 1, 1)))


# (set-up, seed, most planted errors, the outcomes the words must reach as
# (status, locator is None)); the torus bracket systems have at least ell
# rows, so a full-rank one leaves no locator
OUTCOMES = {"unique": ("unique", False), "fail": ("fail", False), "list": ("list", False), "none": ("fail", True)}
CHAIN_CASES = {
    "boundary": (boundary_setup, 31, 12, ["unique", "fail"]),
    "torus": (torus_setup, 32, 9, ["unique", "none"]),
    "listing torus": (listing_setup, 33, 9, ["unique", "fail", "none", "list"]),
    "GF(9) torus": (gf9_torus_setup, 34, 9, ["unique", "fail", "none", "list"]),
}


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_decode_matches_the_generic_chain(case):
    """``decode`` reads the zero set and the locator off one reduction of
    the bracket system; on fixed-seed words from 0 errors to well past the
    design radius, and on random words, every field of its outcome equals
    that of the chain null_space -> zero_set -> error_values."""
    make, seed, most, reached = CHAIN_CASES[case]
    st = make()
    gf = st.spec.gf
    rng = np.random.default_rng(seed)
    words = [r for r, _ in planted_words(st, rng, [j % (most + 1) for j in range(240)])]
    words += [rng.integers(0, gf.q, size=st.n).astype(np.int16) for _ in range(40)]
    words.append(np.zeros(st.n, dtype=np.int16))
    seen, ranks = collections.Counter(), set()
    for r in words:
        B = bracket_matrix(syndrome(r, st), st)
        ranks.add(rref(gf, B)[1])
        for cap in (256, 1):
            got = decode(r, st, list_cap=cap)
            assert_same_outcome(got, generic_decode(r, st, cap))
            seen[got.status, got.locator is None] += 1
    # an all-zero bracket matrix, a full-rank one, and every expected outcome
    assert {0, min(st.bracket_index.shape)} <= ranks
    assert {OUTCOMES[o] for o in reached} <= set(seen), seen


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_decode_outcomes_leave_the_index_arrays_behind(case):
    """``decode`` carries its candidate set as an index array; the outcome
    lists it as Python ints, and its errors and locator are int16, on the
    words of ``test_decode_matches_the_generic_chain``."""
    make, seed, most, _ = CHAIN_CASES[case]
    st = make()
    rng = np.random.default_rng(seed)
    words = [r for r, _ in planted_words(st, rng, [j % (most + 1) for j in range(240)])]
    words += [rng.integers(0, st.spec.gf.q, size=st.n).astype(np.int16) for _ in range(40)]
    words.append(np.zeros(st.n, dtype=np.int16))
    for r in words:
        for cap in (256, 1):
            out = decode(r, st, list_cap=cap)
            assert type(out.zero_set) is list and all(type(i) is int for i in out.zero_set)
            found = out.errors_found
            for e in [] if found is None else found if out.status == "list" else [found]:
                assert e.dtype == np.int16 and e.shape == (st.n,)
            assert out.locator is None or out.locator.dtype == np.int16


def test_boundary_overload_never_wrong_unique():
    """Past the design radius the common zero set can drop an error
    position; the value system must then fail or list, never answer with
    another error."""
    st = boundary_setup()
    rng = np.random.default_rng(12)
    for r, e in planted_words(st, rng, [4 + j % 7 for j in range(1400)]):
        out = decode(r, st)
        assert out.status != "unique" or np.array_equal(out.errors_found, e)


def test_value_system_prop52_style():
    # all-ones errors at the boundary positions: the planted values solve
    # the value system directly
    st = boundary_setup()
    e = np.zeros(51, dtype=np.int16)
    e[49] = e[50] = 1
    r = e  # received = 0-codeword + e
    s = syndrome(r, st)
    f = error_locator(s, st)
    nf = zero_set(f, st)
    assert {49, 50}.issubset(set(nf))
    out = error_values(s, nf, st)
    assert out.status == "unique"
    assert np.array_equal(out.errors_found, e)


def test_torus_roundtrip_and_oracle():
    st = torus_setup()
    gf = st.spec.gf
    dual = st.result.dual
    d_dual = st.d_dual
    assert d_dual is not None
    t = (d_dual - 1) // 2
    rng = np.random.default_rng(4)
    # all dual codewords for the nearest-codeword oracle (5^6 = 15625)
    msgs = np.array(list(itertools.product(range(5), repeat=dual.k)), dtype=np.int16)
    from toric_codes.codes import matmul

    all_cw = matmul(gf, msgs, dual.gen)

    wrong_unique = 0
    for trial in range(30):
        c = random_dual_codeword(st, rng)
        weight = rng.integers(0, t + 1)
        e = np.zeros(16, dtype=np.int16)
        pos = rng.choice(16, size=weight, replace=False)
        for p in pos:
            e[p] = rng.integers(1, 5)
        r = gf.vadd(c, e)
        out = decode(r, st)
        if out.status == "unique":
            err = np.asarray(out.errors_found)
            dist = np.count_nonzero(gf.vsub(all_cw, r[None, :]), axis=1).min()
            if np.count_nonzero(err) != dist:
                wrong_unique += 1
    assert wrong_unique == 0


def test_overload_never_wrong_unique():
    st = torus_setup()
    gf = st.spec.gf
    dual = st.result.dual
    rng = np.random.default_rng(5)
    from toric_codes.codes import matmul

    msgs = np.array(list(itertools.product(range(5), repeat=dual.k)), dtype=np.int16)
    all_cw = matmul(gf, msgs, dual.gen)
    for _ in range(20):
        r = rng.integers(0, 5, size=16).astype(np.int16)
        out = decode(r, st)
        if out.status == "unique":
            err = np.asarray(out.errors_found)
            # a unique answer must identify a true nearest codeword
            dist = np.count_nonzero(gf.vsub(all_cw, r[None, :]), axis=1).min()
            assert np.count_nonzero(err) == dist
        elif out.status == "list":
            # every candidate explains r as codeword + error
            for e in out.errors_found:
                c = gf.vsub(r, e)
                assert not matvec(gf, st.result.eval_matrix, c).any()


def test_decoder_never_touches_outside_zero_set():
    st = boundary_setup()
    rng = np.random.default_rng(6)
    c = random_dual_codeword(st, rng)
    e = np.zeros(51, dtype=np.int16)
    e[49] = 3
    r = st.spec.gf.vadd(c, e)
    out = decode(r, st)
    assert out.status == "unique"
    err = np.asarray(out.errors_found)
    outside = [i for i in range(51) if i not in out.zero_set]
    assert not err[outside].any()
