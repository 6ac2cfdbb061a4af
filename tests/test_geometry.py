import re
from fractions import Fraction

import numpy as np
import pytest

from toric_codes.field import GF
from toric_codes.geometry import (
    Fan2D,
    FanError,
    LatticePolytope,
    OrbitPoint,
    PoleError,
    PolytopeError,
    TDivisor,
    TorusPoint,
    count_rational_points,
    evaluation_matrix,
    graded_evaluation,
    is_ample,
    is_cartier,
    is_smooth,
    lattice_points,
    orbit_points,
    polytope_of_divisor,
    torus_evaluation_matrix,
    torus_points,
)

FAN1 = Fan2D([(2, -1), (-1, 2), (-1, -1)])
FAN4 = Fan2D([(1, 0), (0, 1), (-1, -1)])
FAN6 = Fan2D([(2, -1), (-1, 1), (-1, 0)])
FAN7 = Fan2D([(5, -1), (-1, 5), (-1, -1)])


def poly(fan, coeffs):
    return polytope_of_divisor(fan, TDivisor(coeffs))


# -- fan validation ------------------------------------------------------


def test_validate_fan_accepts_standard_fans():
    assert Fan2D([(1, 0), (0, 1), (-1, -1)]).s == 3
    assert Fan2D([(1, 0), (0, 1), (-1, 0), (0, -1)]).s == 4


def test_validate_fan_rejects_nonprimitive():
    with pytest.raises(FanError, match="primitive"):
        Fan2D([(2, 0), (0, 1), (-1, -1)])


def test_validate_fan_rejects_incomplete():
    with pytest.raises(FanError):
        Fan2D([(1, 0), (0, 1)])
    # ccw but not a single full turn is impossible with positive dets and
    # winding 1; a double cover must be rejected
    with pytest.raises(FanError, match="wind"):
        Fan2D([(1, 0), (-1, 2), (-1, -1), (2, 1), (-1, 1), (-1, -2)])


def test_validate_fan_rejects_cw_order():
    with pytest.raises(FanError, match="ccw"):
        Fan2D([(1, 0), (-1, -1), (0, 1)])


# int() would read each of these as 5, and (5, -1) makes the fan of the
# (49, 11, 28) record
NOT_INTEGERS = pytest.mark.parametrize(
    "bad", [5.9, np.float64(5.0), "5", True], ids=["float", "numpy-float", "str", "bool"]
)


@NOT_INTEGERS
def test_fans_and_divisors_take_integers_only(bad):
    with pytest.raises(FanError, match="must hold integers"):
        Fan2D([(bad, -1), (-1, 5), (-1, -1)])
    with pytest.raises(FanError, match="must hold integers"):
        TDivisor((0, 0, bad))
    assert Fan2D([(np.int64(5), -1), (-1, 5), (-1, -1)]) == FAN7
    assert TDivisor(np.array([0, 0, 5])).coeffs == (0, 0, 5)


@NOT_INTEGERS
def test_polytopes_take_integers_only(bad):
    with pytest.raises(PolytopeError, match="must hold integers"):
        LatticePolytope(FAN7.rays, (0, 0, bad))
    with pytest.raises(PolytopeError, match="must hold integers"):
        LatticePolytope([(bad, -1), (-1, 5), (-1, -1)], (0, 0, 5))
    with pytest.raises(PolytopeError, match="must hold integers"):
        poly(FAN7, (0, 0, 5)).translate((bad, 0))


# -- smoothness / Cartier / ample ---------------------------------------


def test_smoothness():
    assert is_smooth(FAN4).overall
    assert not is_smooth(FAN1).overall
    assert is_smooth(FAN6).overall
    assert not is_smooth(FAN7).overall
    rep = is_smooth(FAN1)
    assert rep.per_cone == (False, False, False)  # all dets are 3


def test_cartier_fan1_mod3():
    for coeffs, expect in [((1, 1, 1), True), ((0, 0, 1), False), ((2, 5, -1), True), ((0, 0, 3), True)]:
        flag, ms = is_cartier(FAN1, TDivisor(coeffs))
        assert flag == expect == ((coeffs[0] - coeffs[1]) % 3 == 0 and (coeffs[1] - coeffs[2]) % 3 == 0)
        if flag:
            for (mx, my), i in zip(ms, range(3)):
                v, w = FAN1.rays[i], FAN1.rays[(i + 1) % 3]
                assert mx * v[0] + my * v[1] == -coeffs[i]
                assert mx * w[0] + my * w[1] == -coeffs[(i + 1) % 3]


def test_cartier_fan2_mod_m():
    for m in (3, 5, 10):
        fan2 = Fan2D([(1, 0), (-1, m), (0, -1)])
        for d in [(0, 0, 1), (1, m - 1, 2), (2, 1, 0), (m, 0, 4)]:
            flag, _ = is_cartier(fan2, TDivisor(d))
            assert flag == ((d[0] + d[1]) % m == 0)


def test_smooth_implies_cartier():
    rng = np.random.default_rng(3)
    fan3 = Fan2D([(1, 0), (0, 1), (-1, 0), (0, -1)])
    for fan in (FAN4, fan3, FAN6):
        for _ in range(25):
            d = TDivisor(rng.integers(-5, 6, size=fan.s))
            assert is_cartier(fan, d)[0]


def test_ample_criteria():
    # very ample iff d1+d2+d3 > 0 on these fans
    for coeffs in [(1, 1, 1), (0, 0, 3), (3, 0, 0)]:
        assert is_ample(FAN1, TDivisor(coeffs)) == (sum(coeffs) > 0)
    assert not is_ample(FAN6, TDivisor((0, 0, 0)))
    for coeffs in [(0, 0, 1), (1, 2, 3), (2, 0, 0), (0, 0, -1), (-1, -1, 1)]:
        assert is_ample(FAN6, TDivisor(coeffs)) == (sum(coeffs) > 0)
    with pytest.raises(FanError, match="Cartier"):
        is_ample(FAN1, TDivisor((0, 0, 1)))


# -- polytopes -----------------------------------------------------------


def test_decoding_example_polytopes():
    pg = poly(FAN1, (0, 0, 10))
    assert set(pg.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(10, 3), Fraction(20, 3)),
        (Fraction(20, 3), Fraction(10, 3)),
    }
    assert pg.volume() == Fraction(50, 3)
    assert len(lattice_points(pg)) == 22

    pgp = poly(FAN1, (2, 2, 2))
    assert set(pgp.vertices) == {
        (Fraction(-2), Fraction(-2)),
        (Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(2)),
    }
    assert len(lattice_points(pgp)) == 10

    pdiff = poly(FAN1, (-2, -2, 8))
    assert set(pdiff.vertices) == {
        (Fraction(2), Fraction(2)),
        (Fraction(10, 3), Fraction(14, 3)),
        (Fraction(14, 3), Fraction(10, 3)),
    }
    assert len(lattice_points(pdiff)) == 5

    assert len(lattice_points(poly(FAN1, (-3, -3, 7)))) == 1


def test_zero_divisor_polytope_is_origin():
    for fan in (FAN1, FAN4, FAN6):
        p = poly(fan, (0,) * fan.s)
        assert p.vertices == [(Fraction(0), Fraction(0))]
        assert lattice_points(p) == [(0, 0)]
        assert p.volume() == 0


def test_fan1_small_polytopes():
    # graded-lex: total degree first, lexicographic tie break
    assert lattice_points(poly(FAN1, (0, 0, 3))) == [(0, 0), (1, 1), (1, 2), (2, 1)]
    assert len(lattice_points(poly(FAN7, (0, 0, 5)))) == 11


def test_empty_polytope():
    p = poly(FAN1, (-3, -3, 2))  # needs 2x-y >= 3, -x+2y >= 3, x+y <= 2
    assert p.is_empty
    assert lattice_points(p) == []
    with pytest.raises(Exception):
        p.volume()


def test_fan6_volume_closed_form():
    # The polytope {y <= 2x+d1, y >= x-d2, x <= d3} is a triangle with a
    # vertical side of length d1+d2+d3 at x = d3 and apex at distance
    # d1+d2+d3, so its area is (d1+d2+d3)^2 / 2 whenever that sum is >= 0.
    for d1 in range(0, 4):
        for d2 in range(0, 4):
            for d3 in range(max(1 - d1 - d2, 0), 6):
                v = poly(FAN6, (d1, d2, d3)).volume()
                assert v == Fraction((d1 + d2 + d3) ** 2, 2)


def test_lattice_count_translation_invariant():
    rng = np.random.default_rng(11)
    for fan in (FAN1, FAN6):
        for _ in range(10):
            d = TDivisor(rng.integers(0, 5, size=fan.s))
            base = polytope_of_divisor(fan, d)
            t = rng.integers(-4, 5, size=2)
            shifted = base.translate(t)
            a = lattice_points(base)
            b = lattice_points(shifted)
            assert len(a) == len(b)
            assert {(x + t[0], y + t[1]) for x, y in a} == set(b)


# -- rational points ------------------------------------------------------


def test_count_rational_points_fan1():
    expected = {2: 7, 3: 13, 4: 21, 5: 31, 7: 57, 8: 73}
    for q, count in expected.items():
        gf = GF(2, 2) if q == 4 else (GF(2, 3) if q == 8 else GF(q))
        assert count_rational_points(FAN1, gf) == count


def test_torus_points_count_and_order():
    assert len(torus_points(GF(5))) == 16
    assert len(torus_points(GF(2, 3))) == 49
    assert torus_points(GF(2)) == [TorusPoint(1, 1)]
    gf = GF(5)
    pts = torus_points(gf)
    keys = [(gf.dlog(p.t1), gf.dlog(p.t2)) for p in pts]
    assert keys == sorted(keys)


def test_orbit_points():
    gf8 = GF(2, 3)
    assert len(orbit_points(FAN1, 0, gf8)) == 7
    # u_3 = (1, -1) spans v_3-perp: x^u_3 has order 0 on the orbit of ray 3
    # and is the orbit character s there
    order, value = graded_evaluation([(1, -1)], orbit_points(FAN1, 2, gf8), gf8, FAN1)
    assert not order.any()
    assert value[0].tolist() == gf8.units()
    # boundary count: total - torus - fixed points
    assert 3 * (8 - 1) == count_rational_points(FAN1, gf8) - 49 - 3


# -- monomial evaluation ---------------------------------------------------


def test_evaluate_monomial_torus():
    gf = GF(5)
    assert (evaluation_matrix([(0, 0)], torus_points(gf), gf) == 1).all()
    M = evaluation_matrix([(1, 2), (-1, 0)], [TorusPoint(2, 3)], gf)
    assert M[0, 0] == gf.mul(2, gf.mul(3, 3))
    assert M[1, 0] == gf.inv(2)


def test_evaluate_monomial_orbit():
    gf = GF(2, 3)
    with pytest.raises(PoleError):
        evaluation_matrix([(1, 1)], [OrbitPoint(2, 1)], gf, FAN1)
    # ray 1 of fan1: u_1 = (1, 2); a = (1, 2) = 1 * u_1
    orbit = orbit_points(FAN1, 0, gf)
    M = evaluation_matrix([(1, 2), (2, 4), (1, 0)], orbit, gf, FAN1)
    for j, pt in enumerate(orbit):
        assert M[0, j] == pt.s
        assert M[1, j] == gf.mul(pt.s, pt.s)
        # positive pairing evaluates to zero
        assert M[2, j] == 0


def test_torus_evaluation_multiplicative():
    gf = GF(7)
    rng = np.random.default_rng(5)
    pts = torus_points(gf)[::5]
    for _ in range(20):
        a = tuple(rng.integers(-4, 5, size=2))
        b = tuple(rng.integers(-4, 5, size=2))
        ab = (a[0] + b[0], a[1] + b[1])
        M = evaluation_matrix([a, b, ab], pts, gf)
        assert np.array_equal(M[2], gf.vmul(M[0], M[1]))
        for j, pt in enumerate(pts):
            assert M[2, j] == reference_graded(ab, pt, gf, None)[1]


def test_evaluation_matrix_consistency():
    gf = GF(5)
    exps = [(0, 0), (1, 1), (2, 1), (1, 2)]  # all pole-free on ray 1
    pts = torus_points(gf) + orbit_points(FAN1, 0, gf)
    M = evaluation_matrix(exps, pts, gf, FAN1)
    assert M.shape == (4, 20)
    for i, a in enumerate(exps):
        for j, pt in enumerate(pts):
            c, val = reference_graded(a, pt, gf, FAN1)
            assert M[i, j] == (val if c == 0 else 0)
    # torus-only matrix admits arbitrary (also negative) exponents
    M2 = evaluation_matrix([(-1, 2)], torus_points(gf), gf)
    for j, pt in enumerate(torus_points(gf)):
        assert M2[0, j] == reference_graded((-1, 2), pt, gf, None)[1]


@pytest.mark.parametrize(
    "exps,point",
    [
        ([(1.5, 0)], TorusPoint(2, 1)),
        ([("1", 0)], TorusPoint(2, 1)),
        ([(1, 0)], TorusPoint(2.7, 1)),
        ([(1, 2)], OrbitPoint(0.9, 1)),
    ],
)
def test_evaluation_takes_integers_only(exps, point):
    """A cast to int64 would evaluate 1.5 as 1 and 2.7 as 2, and put
    OrbitPoint(0.9, 1) on ray 0."""
    gf = GF(2, 3)
    with pytest.raises(ValueError, match="must be integers"):
        evaluation_matrix(exps, [point], gf, FAN1)
    # an empty list reads as float64 and is still no input error
    assert evaluation_matrix([], [TorusPoint(2, 1)], gf).shape == (0, 1)
    assert evaluation_matrix([(1, 0)], [], gf).shape == (1, 0)


# -- graded evaluation against the scalar formulas ---------------------------

FAN2_M3 = Fan2D([(1, 0), (-1, 3), (0, -1)])
ORACLE_FIELDS = [(2, 3), (2, 4), (5, 1), (7, 1), (3, 2), (5, 2)]


def reference_graded(a, point, gf, fan):
    """(order, value) of x^a at one point by the scalar formulas: the torus
    dlog sum, and on the orbit of ray r the order <a, v_r> with the value
    s^lam, where a - <a, v_r> m_r = lam u_r for the transverse vector m_r
    and the orbit lattice generator u_r, v_r rotated by +90 degrees."""
    if isinstance(point, TorusPoint):
        e = (gf.dlog(point.t1) * a[0] + gf.dlog(point.t2) * a[1]) % (gf.q - 1)
        return 0, int(gf.exp[e])
    v = fan.rays[point.ray]
    m = fan.transverse_vector(point.ray)
    u = (-v[1], v[0])
    c = a[0] * v[0] + a[1] * v[1]
    red = (a[0] - c * m[0], a[1] - c * m[1])
    lam = red[0] // u[0] if u[0] else red[1] // u[1]
    assert red == (lam * u[0], lam * u[1])
    return c, gf.pow(point.s, lam)


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
@pytest.mark.parametrize("fan", [FAN1, FAN4, FAN6, FAN7, FAN2_M3], ids=["fan1", "fan4", "fan6", "fan7", "fan2-m3"])
def test_graded_evaluation_matches_scalar_formulas(p, m, fan):
    gf = GF(p, m)
    rng = np.random.default_rng(100 * p + m)
    exps = [tuple(int(x) for x in rng.integers(-6, 7, size=2)) for _ in range(12)]
    torus = torus_points(gf)
    pts = [torus[int(i)] for i in rng.choice(len(torus), size=8, replace=False)]
    for r in range(fan.s):
        pts += orbit_points(fan, r, gf)
    order, value = graded_evaluation(exps, pts, gf, fan)
    assert order.shape == value.shape == (len(exps), len(pts))
    for i, a in enumerate(exps):
        for j, pt in enumerate(pts):
            assert (order[i, j], value[i, j]) == reference_graded(a, pt, gf, fan)
    # strict mode, one orbit at a time, on the exponents pole-free there
    for r in range(fan.s):
        v = fan.rays[r]
        ok = [a for a in exps if a[0] * v[0] + a[1] * v[1] >= 0]
        orbit = orbit_points(fan, r, gf)
        M = evaluation_matrix(ok, orbit + pts[:8], gf, fan)
        assert M.dtype == np.int16
        for i, a in enumerate(ok):
            for j, pt in enumerate(orbit + pts[:8]):
                c, val = reference_graded(a, pt, gf, fan)
                assert M[i, j] == (val if c == 0 else 0)
        bad = [a for a in exps if a[0] * v[0] + a[1] * v[1] < 0]
        if bad:
            msg = re.escape(f"monomial {bad[0]} has a pole along D_{r + 1}")
            with pytest.raises(PoleError, match=msg):
                evaluation_matrix(ok + bad, pts[:8] + orbit, gf, fan)


def test_torus_evaluation_matrix_is_the_strict_torus_case():
    gf = GF(3, 2)
    exps = [(0, 0), (-3, 2), (5, 7)]
    M = torus_evaluation_matrix(exps, gf)
    assert np.array_equal(M, evaluation_matrix(exps, torus_points(gf), gf))
    assert M.shape == (3, 64) and M.dtype == np.int16


def test_graded_evaluation_rejects_bad_points():
    gf = GF(5)
    with pytest.raises(ValueError, match="needs the fan"):
        graded_evaluation([(1, 0)], [OrbitPoint(0, 1)], gf)
    with pytest.raises(ValueError, match="units"):
        graded_evaluation([(1, 0)], [TorusPoint(0, 1)], gf)
    with pytest.raises(FanError, match="out of range"):
        graded_evaluation([(1, 0)], [OrbitPoint(3, 1)], gf, FAN1)
