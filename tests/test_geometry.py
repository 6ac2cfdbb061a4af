import math
import re
from fractions import Fraction

import numpy as np
import pytest

from toric_codes.codes import CodeError
from toric_codes.field import GF
from toric_codes.geometry import (
    Fan2D,
    FanError,
    LatticePolytope,
    OrbitPoint,
    PointSet,
    PoleError,
    PolytopeError,
    TDivisor,
    TorusPoint,
    count_rational_points,
    _characters,
    evaluation_matrix,
    is_ample,
    is_cartier,
    is_smooth,
    lattice_points,
    least_orders,
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


NOT_PAIRS = pytest.mark.parametrize(
    "bad", [(1, 0, 0), (1,), 5, None], ids=["triple", "single", "scalar", "none"]
)


@NOT_PAIRS
def test_rays_must_be_pairs(bad):
    with pytest.raises(FanError, match=re.escape(f"ray {bad!r} must be 2 integers")):
        Fan2D([bad, (-1, 2), (-1, -1)])


@NOT_PAIRS
def test_normals_must_be_pairs(bad):
    with pytest.raises(PolytopeError, match=re.escape(f"normal {bad!r} must be 2 integers")):
        LatticePolytope([bad, (-1, 5), (-1, -1)], (0, 0, 5))


@pytest.mark.parametrize("bad", [5, None, 2.5], ids=["int", "none", "float"])
def test_ray_and_normal_lists_must_be_sequences(bad):
    with pytest.raises(FanError, match=re.escape(f"rays {bad!r} must be a sequence of integer pairs")):
        Fan2D(bad)
    with pytest.raises(
        PolytopeError, match=re.escape(f"normals {bad!r} must be a sequence of integer pairs")
    ):
        LatticePolytope(bad, (0, 0, 5))
    with pytest.raises(PolytopeError, match=re.escape(f"offsets {bad!r} must be a sequence of integers")):
        LatticePolytope(FAN7.rays, bad)


@NOT_PAIRS
def test_translations_must_be_pairs(bad):
    with pytest.raises(PolytopeError, match=re.escape(f"translation {bad!r} must be 2 integers")):
        poly(FAN7, (0, 0, 5)).translate(bad)


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


def bounded_reference(normals):
    """The angular-gap rule, kept as the oracle of the boundedness check:
    the normals' distinct directions, in angle order, turn by less than pi
    from each one to the next.  Float angles order the small directions of
    the tests exactly."""
    dirs = {(x // math.gcd(x, y), y // math.gcd(x, y)) for x, y in normals if (x, y) != (0, 0)}
    vs = sorted(dirs, key=lambda v: math.atan2(v[1], v[0]) % (2 * math.pi))
    return len(vs) >= 3 and all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in zip(vs, vs[1:] + vs[:1]))


def test_boundedness_matches_the_angular_gap_rule():
    rng = np.random.default_rng(17)
    for _ in range(3000):
        k = int(rng.integers(1, 7))
        r = int(rng.choice([1, 2, 6]))
        normals = [tuple(int(c) for c in rng.integers(-r, r + 1, size=2)) for _ in range(k)]
        assert LatticePolytope(normals, [1] * k)._bounded == bounded_reference(normals)


@pytest.mark.parametrize(
    "normals", [[(1, 0), (0, 1), (0, 0)], [(1, 0), (2, 0), (3, 0)]], ids=["zero-normal", "parallel"]
)
def test_normals_in_a_closed_half_plane_bound_nothing(normals):
    """x >= -1 and y >= -1 bound a quadrant with or without the constraint
    <u, 0> >= -1, and three parallel normals a half plane, so neither set's
    points can be enumerated."""
    with pytest.raises(PolytopeError, match="needs a bounded polytope"):
        lattice_points(LatticePolytope(normals, (1, 1, 1)))


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


def box_listing(p):
    """The listing that the column listing replaced, kept as its oracle:
    every point of the bounding box that the polytope contains, sorted
    into graded-lex order."""
    if not p.vertices:
        return []
    xs, ys = [v[0] for v in p.vertices], [v[1] for v in p.vertices]
    pts = [
        (x, y)
        for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1)
        for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1)
        if p.contains((x, y))
    ]
    return sorted(pts, key=lambda a: (a[0] + a[1], a))


def golden_polytopes():
    from toric_codes.tables import GOLDEN_TABLES

    for table in GOLDEN_TABLES.values():
        for row in table.rows:
            if table.kind == "hansen-b":
                yield poly(FAN4, (0, 0, row.a))
            elif table.kind != "rm":
                yield poly(Fan2D(table.fan), row.divisor)


def test_column_listing_matches_the_box_listing():
    polytopes = list(golden_polytopes())
    assert len(polytopes) == 64
    rng = np.random.default_rng(23)
    while len(polytopes) < 1064:
        k = int(rng.integers(3, 7))
        normals = [tuple(int(c) for c in rng.integers(-4, 5, size=2)) for _ in range(k)]
        p = LatticePolytope(normals, [int(d) for d in rng.integers(-6, 13, size=k)])
        if p._bounded:
            polytopes.append(p)
    sizes = set()
    for p in polytopes:
        want = box_listing(p)
        assert lattice_points(p) == want
        assert p.lattice_point_count() == len(want)
        sizes.add(min(len(want), 2))
    assert sizes == {0, 1, 2}  # empty polytopes and single points included


def test_lattice_point_count_without_listing():
    """fan1, divisor (0, 0, D): column t = x + y, 0 <= t <= D, holds the x
    with t/3 <= x <= 2t/3 (2x - y >= 0 and 2y - x >= 0), which sum to
    (D+1)(D+2)//6, plus 1 when 3 divides D."""

    def closed(D):
        return (D + 1) * (D + 2) // 6 + (D % 3 == 0)

    for D in (0, 1, 2, 3, 100, 300, 1000, 100_000):
        by_column = sum(2 * t // 3 + (-t // 3) + 1 for t in range(D + 1))
        assert by_column == closed(D)
        assert poly(FAN1, (0, 0, D)).lattice_point_count() == closed(D)
    assert [closed(D) for D in (100, 300, 1000)] == [1717, 15151, 167167]
    big = poly(FAN1, (0, 0, 10**30))
    assert big.lattice_point_count() == closed(10**30) and "_points" not in vars(big)


def test_floor_sum_matches_the_direct_sum():
    from toric_codes.geometry import _floor_sum

    rng = np.random.default_rng(29)
    for _ in range(500):
        n, m = int(rng.integers(0, 40)), int(rng.integers(1, 30))
        a, b = (int(v) for v in rng.integers(-90, 91, size=2))
        assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


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
        ([(1, 0)], TorusPoint(2**64, 1)),
    ],
)
def test_evaluation_takes_integers_only(exps, point):
    """A cast to int64 would evaluate 1.5 as 1 and 2.7 as 2, and put
    OrbitPoint(0.9, 1) on ray 0."""
    gf = GF(2, 3)
    with pytest.raises(ValueError, match="must be integers"):
        evaluation_matrix(exps, [point], gf, FAN1)
    # a row of the wrong length is refused, not re-cut into pairs
    with pytest.raises(ValueError, match="rows of 2 integers"):
        evaluation_matrix([(1, 2, 3), (4,)], [TorusPoint(2, 1)], gf)
    with pytest.raises(ValueError, match="rows of 2 integers"):
        evaluation_matrix([1, 2], [TorusPoint(2, 1)], gf)
    # an empty list is still no input error
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


def graded_evaluation(exponents, points, gf, fan=None):
    """The oracle of the levelled evaluation: the vanishing order and the
    leading value of every character at every point, two whole k x n
    arrays (int64 and int16), from the checked inputs of ``_characters``."""
    A, orders, ray, w = _characters(exponents, points, gf, fan)
    e = A @ w.T
    np.remainder(e, gf.q - 1, out=e)
    return orders[:, ray], gf.exp.astype(np.int16)[e]


def levelled_oracle(exponents, points, gf, fan, level):
    """What ``evaluation_matrix`` at ``level`` must give, from the oracle:
    the message of the PoleError at the first point where some order is
    below the level, else the leading values where the order equals it."""
    order, value = graded_evaluation(exponents, points, gf, fan)
    level = np.zeros(len(points), dtype=np.int64) if level is None else level
    below = np.argwhere(order.T < level[:, None])
    if not len(below):
        return np.where(order == level, value, 0)
    j, i = below[0]
    a, at = tuple(exponents[i]), level[j]
    if at == 0:
        return f"monomial {a} has a pole along D_{points[j].ray + 1}"
    return f"monomial {a} has order {order[i, j]} below the level {at} at point {j}"


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
    # the least order at each point, and the reading at that level and at
    # random levels around it: values, zeros above it, the first pole below
    least = least_orders(exps, pts, gf, fan)
    assert least.dtype == np.int64 and np.array_equal(least, order.min(axis=0))
    for level in [least, least + rng.integers(-1, 2, size=len(pts))]:
        want = levelled_oracle(exps, pts, gf, fan, level)
        if isinstance(want, str):
            with pytest.raises(PoleError) as err:
                evaluation_matrix(exps, pts, gf, fan, level)
            assert str(err.value) == want
        else:
            got = evaluation_matrix(exps, pts, gf, fan, level)
            assert got.dtype == np.int16 and np.array_equal(got, want)
    assert isinstance(levelled_oracle(exps, pts, gf, fan, least + 1), str)
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


@pytest.mark.parametrize("bool_", [True, np.True_, False, np.False_], ids=["True", "np.True_", "False", "np.False_"])
def test_evaluation_takes_no_bools(bool_):
    """numpy reads a bool among integers as 0 or 1: [(True, 0)] would be the
    exponent (1, 0)."""
    gf = GF(2, 3)
    for exps, point in [
        ([(bool_, 0)], TorusPoint(2, 1)),
        ([(1, 0), (0, bool_)], TorusPoint(2, 1)),
        ([(1, 0)], TorusPoint(bool_, 3)),
        ([(1, 2)], OrbitPoint(bool_, 1)),
        ([(1, 2)], OrbitPoint(0, bool_)),
    ]:
        with pytest.raises(ValueError, match="not bools"):
            least_orders(exps, [point], gf, FAN1)
        with pytest.raises(ValueError, match="not bools"):
            evaluation_matrix(exps, [point], gf, FAN1)
    # an integer array cannot hold a bool; a bool array is no integer array
    assert evaluation_matrix(np.array([[1, 0]]), [TorusPoint(2, 1)], gf).shape == (1, 1)
    with pytest.raises(ValueError, match="must be integers"):
        evaluation_matrix(np.array([[bool_, False]]), [TorusPoint(2, 1)], gf)


def test_graded_evaluation_rejects_bad_points():
    """Both readers, the levelled evaluation and the least orders, check
    the points, the levels and the exponents."""
    gf = GF(5)
    for read in (evaluation_matrix, least_orders):
        with pytest.raises(ValueError, match="needs the fan"):
            read([(1, 0)], [OrbitPoint(0, 1)], gf)
        with pytest.raises(ValueError, match="units"):
            read([(1, 0)], [TorusPoint(0, 1)], gf)
        with pytest.raises(FanError, match="out of range"):
            read([(1, 0)], [OrbitPoint(3, 1)], gf, FAN1)
    with pytest.raises(ValueError, match="no exponents"):
        least_orders([], [TorusPoint(1, 1)], gf)
    pts = [TorusPoint(1, 1), OrbitPoint(0, 1)]
    # 2^63 is read as uint64, which int64 would wrap to -2^63
    for level in ([0], [0, 0, 0], [0.5, 0], [True, False], [[0, 0]], [1 << 63, 0]):
        with pytest.raises(ValueError, match="level must hold 2 integers"):
            evaluation_matrix([(1, 0)], pts, gf, FAN1, level)
    # a level above every order at a torus point reads a pole there
    with pytest.raises(PoleError, match=re.escape("monomial (1, 0) has order 0 below the level 1 at point 0")):
        evaluation_matrix([(1, 0)], pts, gf, FAN1, [1, 0])
    assert not evaluation_matrix([(1, 0)], pts, gf, FAN1, np.array([-1, -5], dtype=np.int8)).any()


FAN3 = Fan2D([(1, 0), (0, 1), (-1, 0), (0, -1)])


@pytest.mark.parametrize("fan", [FAN1, FAN3, FAN7], ids=["fan1", "fan3", "fan7"])
def test_evaluation_is_exact_at_any_exponent_int64_orders_hold(fan):
    """Exponents up to the largest that keeps every order <a, v_r> in
    int64 (|a| |v| < 2^62), read at each one's least order: the scalar
    oracle in Python ints gives the same orders and leading values at the
    torus points and at every orbit point.  The products A w^T would wrap
    in int64; the values read them reduced mod q - 1."""
    gf = GF(2, 3)
    widest = max(abs(c) for v in fan.rays for c in v)
    top = ((1 << 62) - 1) // widest
    rng = np.random.default_rng(62)
    exps = [(top, -top), (-top, 7)] + [
        a for a in ((2**61 + 3, 0), (2**62 - 5, 1), (12345678901234567, -5)) if max(map(abs, a)) <= top
    ]
    exps += [tuple(int(x) for x in rng.integers(-top, top + 1, size=2)) for _ in range(8)]
    # a multiple of the orbit lattice generator of ray 1: order 0 there
    u = (-fan.rays[0][1], fan.rays[0][0])
    exps.append((u[0] * (top // widest), u[1] * (top // widest)))
    pts = list(torus_points(gf))
    for r in range(fan.s):
        pts += orbit_points(fan, r, gf)
    for a in exps:
        least = least_orders([a], pts, gf, fan)
        got = evaluation_matrix([a], pts, gf, fan, least)[0]
        for j, pt in enumerate(pts):
            assert (least[j], got[j]) == reference_graded(a, pt, gf, fan)
    # at level 0 on the torus points alone, with and without the fan
    torus = torus_points(gf)
    M = evaluation_matrix(exps, torus, gf, fan)
    assert np.array_equal(M, evaluation_matrix(exps, torus, gf))
    for i, a in enumerate(exps):
        assert [int(x) for x in M[i]] == [reference_graded(a, pt, gf, fan)[1] for pt in torus]
    # no fan reads no order: any int64 exponent evaluates exactly
    big = [((1 << 63) - 1, -(1 << 63)), (2**62 - 5, 1)]
    got = torus_evaluation_matrix(big, gf)
    assert [[int(x) for x in row] for row in got] == [
        [reference_graded(a, pt, gf, fan)[1] for pt in torus] for a in big
    ]


@pytest.mark.parametrize("fan, a, ok", [(FAN3, 2**62 - 1, True), (FAN3, 2**62, False),
                                         (FAN1, 2**61 - 1, True), (FAN1, -(2**61), False)])
def test_orders_that_int64_cannot_hold_are_refused(fan, a, ok):
    """|a| |v| must stay below 2^62: then |<a, v>| < 2^63.  Both readers
    refuse a larger exponent with ValueError, before any order is formed."""
    gf = GF(5)
    pts = [TorusPoint(1, 1), OrbitPoint(0, 1)]
    for read in (least_orders, lambda e, p, g, f: evaluation_matrix(e, p, g, f, [0, -(1 << 62)])):
        if ok:
            read([(a, 0)], pts, gf, fan)
        else:
            with pytest.raises(ValueError, match=r"would not fit in 64 bits \(\|a\| \|v\| must stay below 2\^62\)"):
                read([(a, 0)], pts, gf, fan)


def test_evaluation_in_blocks_matches_one_block(monkeypatch):
    """On every golden toric divisor, at the torus points and then the
    points of the orbits whose divisor coefficient is 0 (no pole), or of
    every orbit, blocks of 1, 100 and 2^18 entries (one point, a few points
    and every point per block) give the oracle's reading over all points,
    at level 0, at the least order of the basis, and one above that at the
    orbit points: the same int16 matrix, or a PoleError at the same first
    pole."""
    from toric_codes import geometry
    from toric_codes.tables import GOLDEN_TABLES, field_for_q
    from toric_codes.toric import default_points

    outcomes = {"matrix": 0, "pole": 0}
    for table in GOLDEN_TABLES.values():
        if table.kind != "toric":
            continue
        fan = Fan2D(table.fan)
        for row in table.rows:
            gf = field_for_q(row.q)
            basis = lattice_points(polytope_of_divisor(fan, TDivisor(row.divisor)))
            flat = [r for r in range(fan.s) if row.divisor[r] == 0]
            for orbits in (flat, range(fan.s)):
                pts = default_points(gf, fan, orbits=orbits)
                least = least_orders(basis, pts, gf, fan)
                orbit = np.array([isinstance(pt, OrbitPoint) for pt in pts])
                for level in (None, least, least + orbit):
                    want = levelled_oracle(basis, pts, gf, fan, level)
                    outcomes["pole" if isinstance(want, str) else "matrix"] += 1
                    for block in (1, 100, 1 << 18):
                        monkeypatch.setattr(geometry, "_EVALUATION_BLOCK", block)
                        if isinstance(want, str):
                            with pytest.raises(PoleError) as err:
                                evaluation_matrix(basis, pts, gf, fan, level)
                            assert str(err.value) == want
                        else:
                            got = evaluation_matrix(basis, pts, gf, fan, level)
                            assert got.dtype == np.int16 and np.array_equal(got, want)
    assert min(outcomes.values()) >= 5


# -- point sets -------------------------------------------------------------


def object_points(gf, fan, torus, orbits, singles=()):
    """The reference listing as point objects: the torus lex by
    (dlog t1, dlog t2), then each orbit by dlog s, then single points."""
    us = gf.units()
    pts = [TorusPoint(a, b) for a in us for b in us] if torus else []
    pts += [OrbitPoint(r, s) for r in orbits for s in us]
    return pts + [OrbitPoint(r, s) for r, s in singles]


def test_point_sets_read_as_their_point_objects():
    gf = GF(5)
    torus, orbit = torus_points(gf), orbit_points(FAN1, 1, gf)
    assert isinstance(torus, PointSet) and torus.rows.dtype == np.int64
    assert torus == [TorusPoint(a, b) for a in gf.units() for b in gf.units()]
    assert list(orbit) == [OrbitPoint(1, s) for s in gf.units()]
    assert [orbit[i] for i in range(-len(orbit), len(orbit))] == list(orbit) * 2
    assert type(orbit[0].ray) is int and type(torus[5].t2) is int
    assert torus[2:7] == list(torus)[2:7] and isinstance(torus[2:7], PointSet)
    # + on either side, with a PointSet or a list of objects
    joined = torus + list(orbit)
    assert isinstance(joined, PointSet) and joined == list(torus) + list(orbit)
    assert list(torus) + orbit == joined == torus + orbit
    assert joined != torus and joined != list(torus) + list(orbit)[::-1]
    assert OrbitPoint(1, 3) in joined and joined.index(OrbitPoint(1, 1)) == 16
    # the conversion of a PointSet is the set itself; of a list, its rows
    assert PointSet.of(joined) is joined
    assert PointSet.of(list(joined)) == joined and len(PointSet()) == 0
    with pytest.raises(ValueError):
        torus.rows[0, 2] = 2
    with pytest.raises(TypeError):
        hash(torus)
    for ray in (True, 1.0, np.True_):
        with pytest.raises(FanError, match="must be an integer"):
            orbit_points(FAN1, ray, gf)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2)])
@pytest.mark.parametrize("fan", [FAN1, FAN4, FAN6, FAN7], ids=["fan1", "fan4", "fan6", "fan7"])
def test_point_set_path_matches_the_object_lists(p, m, fan):
    """Over each orbit subset of the fan, in a seeded order, with and
    without the torus and with seeded single orbit points after it: the
    listing equals the object list in order, and the least orders and the
    levelled evaluation at level 0 and at those orders read the same from
    the PointSet, from the object list and from the oracle."""
    from itertools import combinations

    from toric_codes.toric import default_points

    gf = GF(p, m)
    rng = np.random.default_rng([p, m, fan.s])
    exps = [tuple(int(x) for x in rng.integers(-4, 5, size=2)) for _ in range(6)]
    subsets = [c for k in range(fan.s + 1) for c in combinations(range(fan.s), k)]
    for subset in subsets:
        orbits = [int(r) for r in rng.permutation(subset)]
        others = [r for r in range(fan.s) if r not in orbits]
        singles = [(r, int(rng.integers(1, gf.q))) for r in others[:2]]
        for torus in (True, False):
            objects = object_points(gf, fan, torus, orbits, singles)
            pts = default_points(gf, fan, torus=torus, orbits=orbits)
            assert pts == object_points(gf, fan, torus, orbits)
            pts = pts + [OrbitPoint(r, s) for r, s in singles]
            assert pts == objects and list(pts) == objects
            if not objects:
                continue
            least = least_orders(exps, pts, gf, fan)
            assert np.array_equal(least, least_orders(exps, objects, gf, fan))
            for level in (None, least):
                want = levelled_oracle(exps, objects, gf, fan, level)
                for points in (pts, objects):
                    if isinstance(want, str):
                        with pytest.raises(PoleError) as err:
                            evaluation_matrix(exps, points, gf, fan, level)
                        assert str(err.value) == want
                    else:
                        assert np.array_equal(evaluation_matrix(exps, points, gf, fan, level), want)


# a point that breaks a rule next to the orbit of ray 1 (0-based) of FAN1
# over GF(5), with the error and message of the object lists: a ray
# outside 0..2, a coordinate outside 1..4, a bool or a float where an
# integer belongs, and a point that is already in the set
BAD_POINTS = {
    "ray-1": (OrbitPoint(-1, 1), FanError, "orbit ray index out of range for a 3-ray fan"),
    "ray-s": (OrbitPoint(3, 1), FanError, "orbit ray index out of range for a 3-ray fan"),
    "coordinate-0": (TorusPoint(0, 1), ValueError, "point coordinates must be units of GF(5)"),
    "bool": (TorusPoint(True, 2), ValueError, "point coordinates and ray indices must be integers, not bools"),
    "numpy-bool": (OrbitPoint(0, np.True_), ValueError, "point coordinates and ray indices must be integers, not bools"),
    "float": (TorusPoint(2.0, 1), ValueError, "point coordinates and ray indices must be integers, got ['float', 'int']"),
    "duplicate": (OrbitPoint(1, 3), CodeError, "evaluation points must be distinct"),
}


@pytest.mark.parametrize("name", sorted(BAD_POINTS))
def test_bad_points_keep_their_errors(name):
    """In a list of objects or added to a PointSet, through a spec and its
    build, or through the levelled evaluation and the least orders, a bad
    point raises one error type with one message; a repeated point is no
    error for evaluation."""
    from toric_codes.toric import ToricCodeSpec, build

    gf = GF(5)
    bad, error, message = BAD_POINTS[name]
    orbit = orbit_points(FAN1, 1, gf)
    basis = lattice_points(poly(FAN1, (0, 0, 3)))  # no pole on ray 1
    routes = {
        "spec": lambda pts: build(ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 3)), pts())),
        "evaluation": lambda pts: evaluation_matrix(basis, pts(), gf, FAN1),
        "least orders": lambda pts: least_orders(basis, pts(), gf, FAN1),
    }
    for route, read in routes.items():
        for points in (lambda: list(orbit) + [bad], lambda: orbit + [bad], lambda: [bad] + orbit):
            if error is CodeError and route != "spec":
                assert len(read(points)) in (len(basis), len(orbit) + 1)
                continue
            with pytest.raises(error) as err:
                read(points)
            assert type(err.value) is error and str(err.value) == message
