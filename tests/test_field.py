import numpy as np
import pytest

from toric_codes.field import _DEFAULT_MODULI, GF, FieldError, make_field


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


def naive_fold(values, gf):
    acc = 0
    for a in values:
        acc = naive_add(acc, int(a), gf)
    return acc


VECTOR_FIELDS = [(2, 3), (5, 1), (7, 1), (3, 2), (3, 3), (5, 2), (3, 6), (31, 2), (2, 10)]


@pytest.mark.parametrize("p,m", VECTOR_FIELDS)
def test_vectorized_ops_match_scalar(p, m):
    gf = GF(p, m)
    q, n = gf.q, 5
    rng = np.random.default_rng([7, p, m])
    # the distance engines' broadcast: every nonzero multiple against a block
    A = rng.integers(0, q, size=(q - 1, 1, n)).astype(np.int16)
    B = rng.integers(0, q, size=(1, 3, n)).astype(np.int16)
    C = gf.vadd(A, B)
    assert C.shape == (q - 1, 3, n) and C.dtype == np.int16
    for idx in np.ndindex(C.shape):
        assert int(C[idx]) == naive_add(int(A[idx[0], 0, idx[2]]), int(B[0, idx[1], idx[2]]), gf)
    M = rng.integers(0, q, size=(6, 9)).astype(np.int16)
    for axis in (0, 1, -1):
        S = gf.vsum(M, axis=axis)
        assert S.dtype == np.int16
        assert S.tolist() == [naive_fold(v, gf) for v in np.moveaxis(M, axis, 0).T]
    P = gf.vmul(M, M[::-1])
    assert P.dtype == np.int16
    assert all(int(x) == naive_mul(int(a), int(b), gf) for x, a, b in zip(P.flat, M.flat, M[::-1].flat))
    c = int(M[0, 0])
    assert all(int(x) == naive_mul(c, int(b), gf) for x, b in zip(gf.vscale(c, M).flat, M.flat))
    assert gf.neg_table.dtype == np.int16
    for a in range(q):
        assert int(gf.neg_table[a]) == undigits([-d % p for d in digits(a, p, m)], p)
        assert gf.coeffs(a) == tuple(digits(a, p, m))
        assert gf.element(gf.coeffs(a)) == a


# every odd p^m with m >= 2 and q <= 1024: the fields whose vsum reads the
# digit planes
ODD_EXTENSIONS = sorted((p, m) for p, m in _DEFAULT_MODULI if p > 2)


@pytest.mark.parametrize("p,m", ODD_EXTENSIONS)
def test_vsum_matches_digit_loop(p, m):
    gf = GF(p, m)
    rng = np.random.default_rng([13, p, m])
    for shape in [(7,), (0, 3), (4, 6), (3, 4, 5)]:
        A = rng.integers(0, gf.q, size=shape).astype(np.int16)
        for axis in sorted({0, 1, -1} & set(range(-1, A.ndim))):
            S = gf.vsum(A, axis=axis)
            rows = np.moveaxis(A, axis, -1)
            # one digit at a time: the digit sums mod p are the sum's digits
            want = np.zeros(rows.shape[:-1], dtype=np.int64)
            for idx in np.ndindex(rows.shape[:-1]):
                sums = [sum(digits(int(a), p, m)[k] for a in rows[idx]) % p for k in range(m)]
                want[idx] = undigits(sums, p)
            assert S.dtype == np.int16 and np.shape(S) == want.shape
            assert np.array_equal(S, want)
        assert type(gf.vsum(A.ravel())) is np.int16  # a 1-D sum is a scalar


def naive_add_table(p, m):
    D = np.array([digits(n, p, m) for n in range(p**m)])
    table = np.zeros((p**m, p**m), dtype=np.int64)
    for k in range(m):
        table += (D[:, None, k] + D[None, :, k]) % p * p**k
    return table


@pytest.mark.parametrize(
    "p,m", sorted(_DEFAULT_MODULI) + [(p, 1) for p in range(2, 32) if all(p % d for d in range(2, p))]
)
def test_add_table_matches_naive_oracle(p, m):
    gf = GF(p, m)
    assert gf.add_table.dtype == np.int16
    assert np.array_equal(gf.add_table, naive_add_table(p, m))


# bit planes for p = 2 and 3, digit bytes for p >= 5, and uint16 digits for GF(131)
PACKED_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (7, 1), (5, 2),
                 (31, 1), (2, 10), (31, 2), (131, 1)]


@pytest.mark.parametrize("n", [1, 49, 64, 65, 130])
@pytest.mark.parametrize("p,m", PACKED_FIELDS)
def test_packed_words_match_vadd(p, m, n):
    gf = GF(p, m)
    rng = np.random.default_rng([11, p, m, n])
    # the engines' broadcast: the q-1 multiples of a row against a block of words
    A = rng.integers(0, gf.q, size=(gf.q - 1, 1, n)).astype(np.int16)
    B = rng.integers(0, gf.q, size=(1, 6, n)).astype(np.int16)
    B[0, 0] = 0
    B[0, 1] = gf.vneg(A[0, 0])  # a zero sum
    PA, PB = gf.pack(A), gf.pack(B)
    assert PA.dtype == gf.packed_dtype and PA.shape[1:] == A.shape[:-1]
    assert np.array_equal(gf.unpack(PA, n), A) and gf.unpack(PA, n).dtype == np.int16
    S = gf.padd(PA, PB)
    assert S.shape[1:] == (gf.q - 1, 6)
    C = gf.vadd(A, B)
    assert np.array_equal(gf.unpack(S, n), C)
    assert np.array_equal(gf.pweight(S), np.count_nonzero(C, axis=-1))
    assert gf.pweight(S)[0, 1] == 0
    assert np.array_equal(gf.pweight(PA), np.count_nonzero(A, axis=-1))


@pytest.mark.parametrize("p,m", [(p, m) for p, m in PACKED_FIELDS if p**m <= 32])
def test_packed_add_covers_every_pair(p, m):
    gf = GF(p, m)
    a, b = np.divmod(np.arange(gf.q**2), gf.q)  # one word holding every pair
    got = gf.unpack(gf.padd(gf.pack(a), gf.pack(b)), gf.q**2)
    assert np.array_equal(got, gf.add_table[a, b])


def test_element_rejects_more_than_m_digits():
    gf = GF(2, 3)
    assert gf.element([1, 1, 1]) == 7
    with pytest.raises(FieldError, match="digits"):
        gf.element([1, 1, 1, 1])
    with pytest.raises(FieldError, match="digits"):
        gf.element([0, 0, 0, 1])


def test_custom_modulus_nonprimitive_t():
    # t^2 + 1 over GF(3) is irreducible but t has order 4 < 8
    gf = make_field(3, 2, (1, 0, 1))
    assert gf.q == 9
    us = gf.units()
    assert len(set(us)) == 8
    for a in range(1, 9):
        assert gf.mul(a, gf.inv(a)) == 1
