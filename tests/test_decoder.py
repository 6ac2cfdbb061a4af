import hashlib
import itertools

import numpy as np
import pytest

from toric_codes.field import GF
from toric_codes.codes import LinearCode, matvec, min_distance_exhaustive
from toric_codes.decoder import (
    DecoderSetup,
    SetupError,
    bracket,
    bracket_matrix,
    decode,
    error_locator,
    error_values,
    setup as decoder_setup,
    zero_set,
)
from toric_codes.geometry import (
    Fan2D,
    OrbitPoint,
    TDivisor,
    lattice_points,
    polytope_of_divisor,
    torus_points,
)
from toric_codes.toric import ToricCodeSpec, default_points

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
    assert len(st.basis_full) == 22
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


def test_zero_cap_exact_on_torus_setup():
    st = torus_setup()
    # aux code is the (16, 3) triangle code with d = 12, all points clean
    assert st.zero_cap_exact
    assert st.zero_cap == 16 - 12
    assert st.condition_c in ("verified", "failed")
    assert st.d_dual is not None


# locator tables recorded before evaluation moved to one graded routine:
# (orbit points, G', sha256 prefix of locator_torus, {point: (levels,
# sha256 prefix of the bucket)}, zero cap); fan1 over GF(8), G = 10 D_3
RECORDED_SETUPS = [
    (
        [(0, 1), (1, 1)],
        (2, 2, 2),
        "137e7a70947ba6e7",
        {49: ([-2, -1, 0, 1, 2, 4], "9eafedee58331e4b"), 50: ([-2, -1, 0, 1, 2, 4], "5355e03526155e5e")},
        23,
    ),
    (
        [(0, 3), (1, 6), (1, 7)],
        (2, 2, 2),
        "4610b2354e99c516",
        {
            49: ([-2, -1, 0, 1, 2, 4], "fd3377aa970c8c4e"),
            50: ([-2, -1, 0, 1, 2, 4], "2f37ffa363c426f5"),
            51: ([-2, -1, 0, 1, 2, 4], "b9d55d7be06e2558"),
        },
        24,
    ),
    ([(0, 3), (0, 5), (1, 6)], (0, 2, 2), "f02f2c635d71cef2", {51: ([-2, -1, 0, 1], "b7e270c329cba0ab")}, 15),
]


@pytest.mark.parametrize("orbit, gprime, locator_digest, graded, zero_cap", RECORDED_SETUPS)
def test_setup_tables_match_recorded_values(orbit, gprime, locator_digest, graded, zero_cap):
    def digest(a):
        assert a.dtype == np.int16
        return hashlib.sha256(a.astype("<i2").tobytes()).hexdigest()[:16]

    gf = GF(2, 3)
    pts = list(torus_points(gf)) + [OrbitPoint(r, s) for r, s in orbit]
    st = decoder_setup(ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 10)), pts), TDivisor(gprime))
    assert digest(st.locator_torus) == locator_digest
    assert {i: (g.levels, digest(g.bucket)) for i, g in st.graded.items()} == graded
    assert all(type(x) is int for g in st.graded.values() for x in g.levels)
    assert (st.zero_cap, st.zero_cap_exact) == (zero_cap, False)


# -- brackets -------------------------------------------------------------------


def test_bracket_zero_vector():
    st = torus_setup()
    assert bracket(np.zeros(16, dtype=np.int16), (1, 1), st) == 0


def test_bracket_codeword_against_lg():
    st = torus_setup()
    rng = np.random.default_rng(0)
    c = random_dual_codeword(st, rng)
    for h in st.basis_full:
        assert bracket(c, h, st) == 0
    # and the full bracket matrix of a codeword vanishes
    assert not bracket_matrix(c, st).any()


def test_bracket_explicit_sum():
    st = torus_setup()
    r = np.zeros(16, dtype=np.int16)
    r[0] = r[1] = r[2] = 1
    gf = st.spec.gf
    for phi in [(1, 1), (2, 0)]:
        from toric_codes.geometry import evaluate_monomial

        expect = 0
        for i in range(3):
            expect = gf.add(expect, evaluate_monomial(st.spec.points[i], phi, gf))
        assert bracket(r, phi, st) == expect


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
        f = error_locator(r, st)
        nf = zero_set(f, st)
        assert {49, 50}.issubset(set(nf))  # candidate set covers the support


@pytest.mark.parametrize("symbol", [-1, 7])
def test_decode_rejects_symbols_outside_the_field(symbol):
    st = torus_setup()
    r = np.zeros(16, dtype=np.int16)
    r[4] = symbol
    with pytest.raises(ValueError, match="element indices 0..4"):
        decode(r, st)


STAGES = {
    "bracket": lambda r, st: bracket(r, (0, 0), st),
    "bracket_matrix": bracket_matrix,
    "error_locator": error_locator,
    "error_values": lambda r, st: error_values(r, [5], st),
}


@pytest.mark.parametrize("symbol", [-1, 5])
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_stages_reject_symbols_outside_the_field(stage, symbol):
    st = torus_setup()
    r = np.zeros(16, dtype=np.int16)
    r[5] = symbol
    with pytest.raises(ValueError, match="element indices 0..4"):
        STAGES[stage](r, st)


def test_zero_set_rejects_zero_locator():
    st = torus_setup()
    with pytest.raises(ValueError):
        zero_set(np.zeros(len(st.basis_locator), dtype=np.int16), st)


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


def test_value_system_prop52_style():
    # all-ones errors at the boundary positions: the planted values solve
    # the value system directly
    st = boundary_setup()
    e = np.zeros(51, dtype=np.int16)
    e[49] = e[50] = 1
    r = e  # received = 0-codeword + e
    f = error_locator(r, st)
    nf = zero_set(f, st)
    assert {49, 50}.issubset(set(nf))
    out = error_values(r, nf, st)
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
                assert not matvec(gf, st.H, c).any()


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
