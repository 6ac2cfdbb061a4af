import numpy as np
import pytest

from toric_codes.field import GF
from toric_codes.codes import CodeError, LinearCode, min_distance_exhaustive
from toric_codes.geometry import (
    Fan2D,
    FanError,
    OrbitPoint,
    PointSet,
    PoleError,
    TDivisor,
    evaluation_matrix,
    orbit_points,
    torus_points,
)
from toric_codes.toric import (
    ToricCodeSpec,
    build,
    default_points,
    function_space,
    hansen_code,
    hansen_fan,
    toric_code,
)
from toric_codes.bounds import hansen_params

FAN1 = Fan2D([(2, -1), (-1, 2), (-1, -1)])
FAN7 = Fan2D([(5, -1), (-1, 5), (-1, -1)])


def test_default_points_counts():
    assert len(default_points(GF(5), FAN1)) == 16
    assert len(default_points(GF(2, 3), FAN1)) == 49
    assert len(default_points(GF(2, 3), FAN1, orbits=[0, 1, 2])) == 70


def test_default_points_take_the_orbits_in_the_order_given():
    gf = GF(5)
    swapped = default_points(gf, FAN1, torus=False, orbits=[1, 0])
    assert swapped[0] == OrbitPoint(ray=1, s=1)
    assert swapped == orbit_points(FAN1, 1, gf) + orbit_points(FAN1, 0, gf)
    assert default_points(gf, FAN1, orbits=[1, 0])[16:] == swapped


def test_build_fan1_row():
    res = toric_code(GF(5), FAN1, (0, 0, 3))
    assert (res.n, res.k, res.kc) == (16, 4, 4)
    assert res.injective
    assert min_distance_exhaustive(res.code).d == 10


def test_build_fan7_headline_shape():
    res = toric_code(GF(2, 3), FAN7, (0, 0, 5))
    assert (res.n, res.k) == (49, 11)
    assert res.injective


@pytest.mark.parametrize("bad", [5.7, "5"])
def test_non_integer_divisor_is_an_error(bad):
    """int() would build the (49, 11) record code from (0, 0, 5.7)."""
    with pytest.raises(FanError, match="must hold integers"):
        toric_code(GF(2, 3), FAN7, (0, 0, bad))
    with pytest.raises(FanError, match="must hold integers"):
        toric_code(GF(2, 3), [(bad, -1), (-1, 5), (-1, -1)], (0, 0, 5))


def test_repetition_from_origin_polytope():
    res = toric_code(GF(5), FAN1, (0, 0, 0))
    assert res.k == 1
    assert min_distance_exhaustive(res.code).d == res.n


def test_pole_is_hard_error():
    gf = GF(2, 3)
    pts = default_points(gf, FAN1, orbits=[2])  # ray 3 carries the divisor
    with pytest.raises(PoleError):
        build(ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 3)), pts))


def test_spec_over_the_size_caps_is_refused_before_listing_p_g():
    # |P_G| = 1 666 716 667 on 49 points: counted, never listed
    with pytest.raises(CodeError, match="evaluation matrix would hold 1666716667 x 49"):
        toric_code(GF(2, 3), FAN1.rays, (0, 0, 100_000))
    # over GF(1021), k <= |P_G| = 2, so the dual has at least n - 2 rows
    gf = GF(1021)
    with pytest.raises(CodeError, match="dual generator would hold 1040398 x 1040400"):
        ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 2)), torus_points(gf))
    # fan1 over GF(64), divisor (0, 0, 40): (3969, 287), within both caps
    assert len(function_space(FAN1, TDivisor((0, 0, 40)), 63**2)) == 287


@pytest.mark.parametrize("rays, divisor, point", [
    # P_G = {(a, 0)}: the vertex bounds the point exactly
    ([(1, 0), (0, 1), (-1, 0), (0, -1)], (-(2**62), 0, 2**62, 0), (2**62, 0)),
    # P_G = {(2^62, -2^61)} on fan1: its order along D_1 is 2^63 + 2^61
    (FAN1.rays, (-(2**63 + 2**61), 2**63, 2**61), (2**62, -(2**61))),
])
def test_function_space_refuses_orders_that_int64_cannot_hold(rays, divisor, point):
    """Before it lists P_D, the gate refuses a polytope whose vertex
    coordinates times the fan's ray coordinates reach 2^62, as evaluation
    would; one step inside, the same polytope is listed."""
    fan = Fan2D(rays)
    with pytest.raises(CodeError, match=r"would not fit in 64 bits"):
        function_space(fan, TDivisor(divisor), 49)
    widest = max(abs(c) for v in rays for c in v)
    inside = TDivisor(d // (2 * widest) for d in divisor)
    listed = function_space(fan, inside, 49)
    assert listed == [(point[0] // (2 * widest), point[1] // (2 * widest))]


def test_function_space_refuses_rays_that_int64_cannot_hold():
    """P_G = {(0, 0)} on a fan with a ray coordinate of -2^63 - 1, which
    int64 cannot hold: the gate reads |a| as at least 1, so it refuses
    every ray coordinate of magnitude 2^62 or more."""
    with pytest.raises(CodeError, match="would not fit in 64 bits"):
        function_space(Fan2D([(1, 0), (0, 1), (-1, -(2**63) - 1)]), TDivisor((0, 0, 0)), 49)
    assert function_space(Fan2D([(1, 0), (0, 1), (-1, 1 - 2**62)]), TDivisor((0, 0, 0)), 49) == [(0, 0)]


def test_empty_basis_error():
    with pytest.raises(CodeError, match="empty"):
        toric_code(GF(5), FAN1, (-3, -3, 2))


@pytest.mark.parametrize("points", [PointSet(), []])
def test_spec_refuses_an_empty_point_set(points):
    """No points is refused by the spec itself, before the polytope or a
    dual is formed, as the CLI's job reader refuses it."""
    with pytest.raises(CodeError, match="^empty point set$"):
        ToricCodeSpec(GF(2, 3), FAN1, TDivisor((0, 0, 2)), points)
    with pytest.raises(CodeError, match="^empty point set$"):
        toric_code(GF(2, 3), FAN1, (0, 0, 2), torus=False)


def test_order_invariance():
    gf = GF(5)
    pts = default_points(gf, FAN1)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(pts))
    res0 = build(ToricCodeSpec(gf, FAN1, TDivisor((1, 1, 2)), pts))
    res1 = build(ToricCodeSpec(gf, FAN1, TDivisor((1, 1, 2)), [pts[i] for i in perm]))
    assert (res0.n, res0.k) == (res1.n, res1.k)
    assert min_distance_exhaustive(res0.code).d == min_distance_exhaustive(res1.code).d


def test_exponent_congruence():
    # a -> a + (q-1) e_j changes no torus evaluation
    gf = GF(5)
    spec = ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 3)), default_points(gf, FAN1))
    shifted = [(a + 4, b) for a, b in spec.basis]
    assert np.array_equal(build(spec).eval_matrix, evaluation_matrix(shifted, spec.points, gf, FAN1))


def test_basis_is_the_lattice_points_of_the_divisor_polytope():
    gf = GF(5)
    spec = ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 3)), default_points(gf, FAN1))
    assert spec.basis == [(0, 0), (1, 1), (1, 2), (2, 1)]
    with pytest.raises(TypeError):
        ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 3)), default_points(gf, FAN1), spec.basis)


def test_small_q_rank_drop_is_warned():
    # fan1 (2,3,3) over GF(5): 15 lattice points but rank 14
    res = toric_code(GF(5), FAN1, (2, 3, 3))
    assert res.kc == 15
    assert res.k == 14
    assert not res.injective
    assert any("injective" in w for w in res.warnings)


def test_k_at_most_kc_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = tuple(int(x) for x in rng.integers(0, 4, size=3))
        if sum(d) == 0:
            continue
        res = toric_code(GF(5), FAN1, d)
        assert res.code.k <= res.kc


def test_dual_dimensions():
    res = toric_code(GF(5), FAN1, (0, 0, 3))
    assert res.dual.k == res.n - res.k
    for row in res.code.gen:
        assert not res.dual.syndrome(row).any()


# -- the classical families ---------------------------------------------------


def test_hansen_case_b_small():
    gf = GF(5)
    res = hansen_code("b", gf, a=2)
    pred = hansen_params("b", 5, a=2)
    assert pred.in_range
    assert (res.n, res.k) == (pred.n, pred.k) == (16, 6)
    assert min_distance_exhaustive(res.code).d == pred.d == 8


def test_hansen_case_a_small():
    gf = GF(7)  # in range needs q > 2a+1
    res = hansen_code("a", gf, a=2)
    pred = hansen_params("a", 7, a=2)
    assert pred.in_range
    assert (res.n, res.k) == (pred.n, pred.k) == (36, 9)
    assert min_distance_exhaustive(res.code).d == pred.d == 36 - 4 * 6


def test_hansen_case_a_refined_fan_matches():
    gf = GF(7)
    base = hansen_code("a", gf, a=2)
    fan = hansen_fan("a-refined")
    from toric_codes.toric import hansen_divisor

    res = build(
        ToricCodeSpec(gf, fan, hansen_divisor("a-refined", 2), default_points(gf, fan))
    )
    assert (res.n, res.k) == (base.n, base.k)
    assert np.array_equal(res.eval_matrix, base.eval_matrix)


def test_hansen_case_c_small():
    gf = GF(5)
    res = hansen_code("c", gf, a=1, b=1)
    pred = hansen_params("c", 5, a=1, b=1)
    assert pred.k == 4 and (res.n, res.k) == (16, 4)
    assert min_distance_exhaustive(res.code).d == pred.d == 16 - 4 - 4 + 1


def test_hansen_case_d_small():
    gf = GF(5)
    res = hansen_code("d", gf, a=1, b=1, m=1)
    pred = hansen_params("d", 5, a=1, b=1, m=1)
    assert pred.in_range  # q = 5 > max(1, 1, 2) + 1
    assert (res.n, res.k) == (pred.n, pred.k) == (16, 5)
    assert min_distance_exhaustive(res.code).d == pred.d == 8


def test_hansen_case_d_k_formula_asymmetric():
    # a != b exercises the axis-swap bookkeeping
    gf = GF(2, 3)
    res = hansen_code("d", gf, a=2, b=1, m=1)
    pred = hansen_params("d", 8, a=2, b=1, m=1)
    assert res.k == pred.k == (2 + 1) * (1 + 1) + 1 * 2 * 3 // 2


def test_hansen_invalid():
    with pytest.raises(CodeError):
        hansen_code("e", GF(5), a=1)
    with pytest.raises(CodeError):
        hansen_code("c", GF(5), a=1, b=0)


def test_a_list_of_points_is_converted_once(monkeypatch):
    """The spec converts a list of point objects to its PointSet once;
    build and the decoder set-up read that set, and the set-up keeps n as
    an int."""
    from toric_codes import decoder, geometry

    calls = []
    init = geometry.PointSet.__init__
    monkeypatch.setattr(geometry.PointSet, "__init__", lambda self, pts=(): calls.append(1) or init(self, pts))
    gf = GF(2, 3)
    points = list(torus_points(gf)) + [OrbitPoint(0, 1), OrbitPoint(1, 1)]
    assert not calls  # the listing makes its rows with numpy
    spec = ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 10)), points)
    assert len(calls) == 1 and isinstance(spec.points, PointSet) and spec.points == points
    assert ToricCodeSpec(gf, FAN1, TDivisor((0, 0, 10)), spec.points).points is spec.points
    st = decoder.setup(spec, TDivisor((2, 2, 2)))
    assert len(calls) == 1 and st.spec.points is spec.points
    assert type(st.n) is int and st.n == 51


# the generators of the three fan1 codes that the construct benchmark
# builds, as the sha256 of their shape and little-endian int16 entries
CONSTRUCT_DIGESTS = {
    ((2, 5), (0, 0, 12), ()): "aeaf182773b62ec868717a1f4106c84ad75e71d73988246a9dc756538218e5a6",
    ((23, 1), (0, 0, 10), ()): "e0229e8e455ea57f975b7e25806322b17228cbd8b6a20985769986568df68830",
    ((5, 2), (0, 0, 10), (0, 1)): "4d62d4cc903e0d62b3c2b277f039ebc44803a8413d55ed52d09035793ddba93d",
}


@pytest.mark.parametrize("key", sorted(CONSTRUCT_DIGESTS))
def test_built_generators_keep_their_bytes(key):
    """From the default PointSet and from the same points as objects."""
    import hashlib

    (p, m), divisor, orbits = key
    gf = GF(p, m)
    pts = default_points(gf, FAN1, orbits=orbits)
    for points in (pts, list(pts)):
        gen = np.ascontiguousarray(build(ToricCodeSpec(gf, FAN1, TDivisor(divisor), points)).code.gen, dtype="<i2")
        assert hashlib.sha256(repr(gen.shape).encode() + gen.tobytes()).hexdigest() == CONSTRUCT_DIGESTS[key]
