import numpy as np
import pytest

from toric_codes.field import GF, FieldError, make_field


# ---------------------------------------------------------------------
# independent oracle: naive polynomial arithmetic mod (p, modulus)
# ---------------------------------------------------------------------
def digits(n, p, m):
    return [(n // p**k) % p for k in range(m)]


def undigits(ds, p):
    return sum(c * p**k for k, c in enumerate(ds))


def naive_add(a, b, gf):
    return undigits([(x + y) % gf.p for x, y in zip(digits(a, gf.p, gf.m), digits(b, gf.p, gf.m))], gf.p)


def naive_mul(a, b, gf):
    p, m = gf.p, gf.m
    da, db = digits(a, p, m), digits(b, p, m)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    # reduce by the monic modulus
    mod = list(gf.modulus)
    while len(prod) > m:
        lead = prod[-1]
        shift = len(prod) - 1 - m
        for k in range(m + 1):
            prod[shift + k] = (prod[shift + k] - lead * mod[k]) % p
        prod.pop()
    return undigits(prod + [0] * m, p)


SMALL_QS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
            (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1),
            (31, 1), (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2), (53, 1),
            (59, 1), (61, 1), (2, 6)]


@pytest.mark.parametrize("p,m", SMALL_QS)
def test_tables_match_naive_oracle(p, m):
    gf = GF(p, m)
    q = gf.q
    assert q <= 64
    for a in range(q):
        for b in range(q):
            assert gf.add(a, b) == naive_add(a, b, gf)
            assert gf.mul(a, b) == naive_mul(a, b, gf)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1), (7, 1), (2, 5), (5, 2)])
def test_inverse_and_negation(p, m):
    gf = GF(p, m)
    for a in range(gf.q):
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
            assert gf.mul(a, 1) == a


def test_make_field_basics():
    assert make_field(2, 3).q == 8
    assert make_field(5, 1).q == 5


def test_gf8_t_times_t2():
    # modulus t^3 + t + 1: t * t^2 = t^3 = t + 1
    gf = make_field(2, 3, (1, 1, 0, 1))
    t = 2
    assert gf.mul(t, gf.mul(t, t)) == gf.element([1, 1, 0])


def test_prime_field_examples():
    gf = GF(5)
    assert gf.add(2, 4) == 1
    # inverse(2): exhaustive search oracle
    inv2 = next(x for x in range(5) if gf.mul(2, x) == 1)
    assert gf.inv(2) == inv2 == 3
    assert gf.pow(2, -1) == 3


def test_pow_rules():
    for p, m in [(5, 1), (2, 3), (3, 2)]:
        gf = GF(p, m)
        assert gf.pow(gf.g, gf.q - 1) == 1
        for a in range(gf.q):
            assert gf.pow(a, gf.q) == a  # Frobenius/Fermat
            assert gf.pow(a, 0) == 1
        with pytest.raises(ZeroDivisionError):
            gf.pow(0, -2)


def test_units_order_and_dlog():
    gf = GF(5)
    assert gf.g == 2
    assert gf.units() == [1, 2, 4, 3]
    assert GF(2).units() == [1]
    for p, m in [(5, 1), (2, 3), (3, 2), (7, 1)]:
        gf = GF(p, m)
        us = gf.units()
        assert len(us) == gf.q - 1
        assert len(set(us)) == gf.q - 1
        for k, u in enumerate(us):
            assert gf.dlog(u) == k


def test_construction_errors():
    with pytest.raises(FieldError):
        make_field(4, 1)  # non-prime p
    with pytest.raises(FieldError):
        make_field(2, 11)  # q > 1024
    # the cap is checked before primality and before p**m: both fail at once
    with pytest.raises(FieldError, match="cap"):
        make_field(2**61 - 1, 1)
    with pytest.raises(FieldError, match="cap"):
        make_field(2, 10**9)
    with pytest.raises(FieldError):
        make_field(2, 2, (1, 0, 1))  # t^2 + 1 = (t+1)^2 over GF(2)
    with pytest.raises(ZeroDivisionError):
        GF(5).div(1, 0)
    with pytest.raises(FieldError):
        GF(5).add(1, 7)  # out of range


def test_vectorized_ops_match_scalar():
    rng = np.random.default_rng(7)
    for p, m in [(2, 3), (5, 1), (3, 2), (7, 1)]:
        gf = GF(p, m)
        A = rng.integers(0, gf.q, size=50).astype(np.int16)
        B = rng.integers(0, gf.q, size=50).astype(np.int16)
        assert all(int(x) == gf.add(int(a), int(b)) for x, a, b in zip(gf.vadd(A, B), A, B))
        assert all(int(x) == gf.mul(int(a), int(b)) for x, a, b in zip(gf.vmul(A, B), A, B))
        c = int(A[0])
        assert all(int(x) == gf.mul(c, int(b)) for x, b in zip(gf.vscale(c, B), B))
        # vsum against left fold
        acc = 0
        for a in A:
            acc = gf.add(acc, int(a))
        assert int(gf.vsum(A)) == acc


def test_custom_modulus_nonprimitive_t():
    # t^2 + 1 over GF(3) is irreducible but t has order 4 < 8
    gf = make_field(3, 2, (1, 0, 1))
    assert gf.q == 9
    us = gf.units()
    assert len(set(us)) == 8
    for a in range(1, 9):
        assert gf.mul(a, gf.inv(a)) == 1
