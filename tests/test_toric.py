import numpy as np
import pytest

from toric_codes.field import GF
from toric_codes.codes import CodeError, LinearCode, min_distance_exhaustive
from toric_codes.geometry import (
    Fan2D,
    FanError,
    OrbitPoint,
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


def test_empty_basis_error():
    with pytest.raises(CodeError, match="empty"):
        toric_code(GF(5), FAN1, (-3, -3, 2))


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
