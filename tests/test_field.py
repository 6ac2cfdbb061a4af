import functools
import itertools
import re
import reprlib
import sys
import time
import tracemalloc

import numpy as np
import pytest

from toric_codes.field import _DEFAULT_MODULI, GF, FieldError, prime_power
from toric_codes.tables import field_for_q


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
    x = 1
    for k in range(2 * (q - 1)):  # exp holds the powers of g, twice over
        assert gf.exp[k] == x
        x = naive_mul(x, gf.g, gf)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1), (7, 1), (2, 5), (5, 2)])
def test_inverse_and_negation(p, m):
    gf = GF(p, m)
    for a in range(gf.q):
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
            assert gf.mul(a, 1) == a


def test_make_field_basics():
    assert GF(2, 3).q == 8
    assert GF(5, 1).q == 5


def test_gf8_t_times_t2():
    # modulus t^3 + t + 1: t * t^2 = t^3 = t + 1
    gf = GF(2, 3, (1, 1, 0, 1))
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
        GF(4, 1)  # non-prime p
    with pytest.raises(FieldError):
        GF(2, 11)  # q > 1024
    # the cap is checked before primality and before p**m: both fail at once
    with pytest.raises(FieldError, match="cap"):
        GF(2**61 - 1, 1)
    with pytest.raises(FieldError, match="cap"):
        GF(2, 10**9)
    with pytest.raises(FieldError):
        GF(2, 2, (1, 0, 1))  # t^2 + 1 = (t+1)^2 over GF(2)
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


# every odd p^m with m >= 2 and q <= 1024: the fields whose vsum sums the
# digit fields
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


@pytest.mark.parametrize("p,m", ODD_EXTENSIONS)
def test_vsum_fills_each_digit_field_up_to_the_chunk_cap(p, m):
    """Sums of exactly sum_cap, sum_cap + 1 and 2 sum_cap terms along an
    axis.  In column 0 every term is the element whose digits are all
    p - 1, so a chunk brings every bit field of width b = 63 // m to within
    p - 1 of 2^b, where one more term would carry; from the second chunk on,
    the sum so far is one of the terms.  Over m = 2 the cap
    (2^31 - 1) // (p - 1) is too many terms to gather, so the instance's
    cap is lowered to 7 there: the chunk loop runs on the same fields."""
    gf = GF(p, m)
    width = 63 // m
    assert gf.sum_cap == ((1 << width) - 1) // (p - 1)
    assert (p, m) != (3, 6) or gf.sum_cap == 511
    if m == 2:
        gf.sum_cap = 7
    rng = np.random.default_rng([17, p, m])
    top = gf.q - 1  # every digit p - 1
    for terms in (gf.sum_cap, gf.sum_cap + 1, 2 * gf.sum_cap):
        A = rng.integers(0, gf.q, size=(terms, 3)).astype(np.int16)
        A[:, 0] = top
        A[: gf.sum_cap, 1] = top
        # one digit at a time, each digit sum mod p
        want = sum(gf.digits[A, k].sum(axis=0, dtype=np.int64) % p * p**k for k in range(m))
        assert want[0] == undigits([terms * (p - 1) % p] * m, p)
        for B, axis in [(A, 0), (A.T, 1), (A.T, -1), (A[:, :, None], 0)]:
            S = gf.vsum(B, axis=axis)
            assert S.dtype == np.int16
            assert np.array_equal(S.reshape(-1), want)


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


@pytest.mark.parametrize("p", [3, 5, 7, 23, 1021])
def test_prime_vadd_matches_the_integer_sum_mod_p(p):
    """Every pair (a, b), as int64 and as int16 operands."""
    gf = GF(p)
    a, b = np.divmod(np.arange(p * p, dtype=np.int64), p)
    for A, B in [(a, b), (a.astype(np.int16), b.astype(np.int16))]:
        C = gf.vadd(A, B)
        assert C.dtype == np.int16 and np.array_equal(C, (a + b) % p)


# p = 2, prime p, and odd p^m with int16 (q^2 < 2^15) and intp indices
@pytest.mark.parametrize("p,m", [(2, 1), (2, 5), (3, 1), (23, 1), (1021, 1), (3, 2), (5, 2), (13, 2),
                                 (3, 5), (7, 3)])
def test_in_place_add_matches_the_add_table(p, m):
    """``_iadd`` on every pair, and on a strided block of rows with a
    broadcast row, as ``rref`` calls it."""
    gf = GF(p, m)
    q = gf.q
    a, b = np.divmod(np.arange(q * q), q)
    a, b = a.astype(np.int16), b.astype(np.int16)
    X = a.copy()
    gf._iadd(X, b)
    assert X.dtype == np.int16 and np.array_equal(X, gf.add_table[a, b])
    rng = np.random.default_rng([5, p, m])
    R = rng.integers(0, q, size=(9, 12)).astype(np.int16)
    Y = rng.integers(0, q, size=(1, 9)).astype(np.int16)
    want = R.copy()
    want[2:7, 3:] = gf.add_table[R[2:7, 3:], Y]
    gf._iadd(R[2:7, 3:], Y)
    assert np.array_equal(R, want)


# int16 indices (q^2 < 2^15, GF(181) the largest such q), and intp ones past
# that bound
@pytest.mark.parametrize("p,m", [(7, 1), (2, 3), (3, 2), (181, 1), (2, 8), (3, 5), (1021, 1)])
def test_flat_product_matches_vmul(p, m):
    """``_mul`` on every pair of elements, and broadcast as the decoder
    calls it: a matrix times a vector, and a stack of scalars times rows."""
    gf = GF(p, m)
    q = gf.q
    a, b = np.divmod(np.arange(q * q), q)
    a, b = a.astype(np.int16), b.astype(np.int16)
    C = gf._mul(a, b)
    assert C.dtype == np.int16 and np.array_equal(C, gf.vmul(a, b))
    rng = np.random.default_rng([6, p, m])
    H = rng.integers(0, q, size=(5, 7)).astype(np.int16)
    r = rng.integers(0, q, size=7).astype(np.int16)
    assert np.array_equal(gf._mul(H, r), gf.vmul(H, r))
    coef, L = H[:3, :2], H[2:]
    assert np.array_equal(gf._mul(coef[:, :, None], L[:, None]), gf.vmul(coef[:, :, None], L[:, None]))


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
    # a weight is the distance to the zero word
    assert np.array_equal(gf.pdist(S, np.zeros_like(S)), np.count_nonzero(C, axis=-1))
    assert gf.pdist(S, np.zeros_like(S))[0, 1] == 0
    assert np.array_equal(gf.pdist(PA, np.zeros_like(PA)), np.count_nonzero(A, axis=-1))


@pytest.mark.parametrize("p,m", [(p, m) for p, m in PACKED_FIELDS if p**m <= 32])
def test_packed_add_covers_every_pair(p, m):
    gf = GF(p, m)
    a, b = np.divmod(np.arange(gf.q**2), gf.q)  # one word holding every pair
    got = gf.unpack(gf.padd(gf.pack(a), gf.pack(b)), gf.q**2)
    assert np.array_equal(got, gf.add_table[a, b])


def is_prime_power(q):
    try:
        return bool(prime_power(q))
    except FieldError:
        return False


# every q <= 64, then larger fields of each packed form
PSCALE_QS = [q for q in range(2, 65) if is_prime_power(q)]
PSCALE_QS += [81, 121, 125, 128, 243, 256, 343, 625, 729, 1021, 1024]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("q", PSCALE_QS)
def test_pscale_equals_the_packed_products(q, n):
    """pscale of packed words is the packing of their products, by the
    units and by every element, on a new last axis after the batch axes."""
    gf = field_for_q(q)
    rng = np.random.default_rng([71, q, n])
    A = rng.integers(0, q, size=(2, 3, n)).astype(np.int16)
    A[0, 0] = 0
    A[0, 1] = q - 1
    PA = gf.pack(A)
    for c in (np.array(gf.units(), dtype=np.int16), np.arange(q)):
        got = gf.pscale(PA, c)
        want = gf.pack(np.moveaxis(gf.mul_table[c][:, A], 0, -2))
        assert got.dtype == gf.packed_dtype and got.shape == PA.shape + (len(c),)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("q", [2, 4, 9, 7, 25])
def test_pspan_equals_every_choice_of_coefficients(q, r):
    """pspan of the packed multiples c x_t of r words is the packing of
    sum_t c_t x_t for every choice of the c_t, one per column, the last
    word the fastest digit, with batch axes between the word axis and the
    rows: over every element and over two of them, zero first.  No words
    span the zero word alone."""
    gf = field_for_q(q)
    rng = np.random.default_rng([83, q, r])
    X = rng.integers(0, q, size=(2, 3, 70)).astype(np.int16)
    for c in (np.arange(q), np.array([0, q - 1])):
        # the multiples (word, 2, r, c) of the last r words
        M = np.moveaxis(gf.pack(gf.mul_table[c][:, X]), 1, -1)[:, :, 3 - r :]
        got = gf.pspan(M)
        want = []
        for choice in itertools.product(range(len(c)), repeat=r):
            terms = [gf.mul_table[c[i], X[:, 3 - r + t]] for t, i in enumerate(choice)]
            want.append(functools.reduce(lambda a, b: gf.add_table[a, b], terms, np.zeros_like(X[:, 0])))
        assert got.dtype == gf.packed_dtype and got.shape == M.shape[:2] + (len(c) ** r,)
        assert np.array_equal(got, gf.pack(np.stack(want, axis=1)))


# every field of the engine tests in test_codes.py, and the two-byte form;
# n = 255 and 256 are the largest distance a uint8 count holds and the first
# that needs a uint16 one
@pytest.mark.parametrize("n", [1, 49, 64, 65, 130, 255, 256])
@pytest.mark.parametrize("p,m", PACKED_FIELDS)
def test_packed_distance_matches_unpacked_words(p, m, n):
    """pdist counts the positions where two words differ, pdist(x, -y) is
    the weight of x + y, and psub is the difference, over the engines'
    broadcast of a block against a table."""
    gf = GF(p, m)
    rng = np.random.default_rng([19, p, m, n])
    A = rng.integers(0, gf.q, size=(5, 1, n)).astype(np.int16)
    B = rng.integers(0, gf.q, size=(1, 7, n)).astype(np.int16)
    B[0, 0] = A[0, 0]  # distance 0
    B[0, 1] = gf.vneg(A[1, 0])  # a zero sum
    B[0, 2] = gf.vadd(A[2, 0], np.ones(n, dtype=np.int16))  # distance n
    PA, PB = gf.pack(A), gf.pack(B)
    D = gf.pdist(PA, PB)
    assert D.shape == (5, 7) and D[0, 0] == 0 and D[2, 2] == n
    assert np.array_equal(D, np.count_nonzero(gf.unpack(PA, n) != gf.unpack(PB, n), axis=-1))
    assert np.array_equal(gf.pdist(PB, PA), D)
    W = gf.pdist(PA, gf.pack(gf.vneg(B)))
    S = gf.padd(PA, PB)
    assert np.array_equal(W, gf.pdist(S, np.zeros_like(S))) and W[1, 1] == 0
    assert np.array_equal(gf.unpack(gf.psub(PA, PB), n), gf.vsub(A, B))


@pytest.mark.parametrize("p,m", [(p, m) for p, m in PACKED_FIELDS if p**m <= 32])
def test_packed_distance_covers_every_pair(p, m):
    gf = GF(p, m)
    a, b = np.divmod(np.arange(gf.q**2), gf.q)
    # one word of length 1 per pair, then one word holding every pair
    PA, PB = gf.pack(a[:, None]), gf.pack(b[:, None])
    assert np.array_equal(gf.pdist(PA, PB), a != b)
    assert np.array_equal(gf.pdist(PA, gf.pack(gf.neg_table[b][:, None])), gf.add_table[a, b] != 0)
    assert np.array_equal(gf.unpack(gf.psub(PA, PB), 1)[:, 0], gf.add_table[a, gf.neg_table[b]])
    got = gf.unpack(gf.psub(gf.pack(a), gf.pack(b)), gf.q**2)
    assert np.array_equal(got, gf.add_table[a, gf.neg_table[b]])
    assert gf.pdist(gf.pack(a), gf.pack(b)) == np.count_nonzero(a != b)


def test_element_rejects_more_than_m_digits():
    gf = GF(2, 3)
    assert gf.element([1, 1, 1]) == 7
    with pytest.raises(FieldError, match="digits"):
        gf.element([1, 1, 1, 1])
    with pytest.raises(FieldError, match="digits"):
        gf.element([0, 0, 0, 1])


def test_custom_modulus_nonprimitive_t():
    # t^2 + 1 over GF(3) is irreducible but t has order 4 < 8
    gf = GF(3, 2, (1, 0, 1))
    assert gf.q == 9
    us = gf.units()
    assert len(set(us)) == 8
    for a in range(1, 9):
        assert gf.mul(a, gf.inv(a)) == 1


# ---------------------------------------------------------------------
# g, exp and the irreducibility check: one multiply-by-t rule builds them
# ---------------------------------------------------------------------
PRIMES = [p for p in range(2, 1025) if all(p % d for d in range(2, int(p**0.5) + 1))]


def prime_factors(n):
    out, r = [], 2
    while n > 1:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out


@pytest.mark.parametrize("p,m", sorted(_DEFAULT_MODULI))
def test_frozen_moduli_take_t_as_g(p, m):
    assert GF(p, m).g == p  # the class of t, index p


def test_prime_fields_take_the_least_primitive_root():
    for p in PRIMES:
        gf = field_for_q(p)
        assert (gf.p, gf.m, gf.modulus) == (p, 1, (0, 1))
        # x is primitive iff x^((p-1)/r) != 1 for every prime r dividing p - 1
        roots = (x for x in range(1, p) if all(pow(x, (p - 1) // r, p) != 1 for r in prime_factors(p - 1)))
        assert gf.g == next(roots)


def naive_pow(x, e, gf):
    out = 1
    for bit in bin(e)[2:]:
        out = naive_mul(out, out, gf)
        if bit == "1":
            out = naive_mul(out, x, gf)
    return out


def has_full_order(x, gf):
    n = gf.q - 1
    return naive_pow(x, n, gf) == 1 and all(naive_pow(x, n // r, gf) != 1 for r in prime_factors(n))


def naive_divides(d, f, p):
    """Whether the monic polynomial d divides f over GF(p), by long division."""
    r = list(f)
    while len(r) >= len(d):
        lead = r[-1]
        shift = len(r) - len(d)
        for i, c in enumerate(d):
            r[shift + i] = (r[shift + i] - lead * c) % p
        r.pop()
    return not any(r)


def naive_irreducible(f, p):
    """Trial division by every monic polynomial of degree 1 .. deg(f) / 2."""
    m = len(f) - 1
    return not any(
        naive_divides(list(tail) + [1], f, p)
        for k in range(1, m // 2 + 1)
        for tail in itertools.product(range(p), repeat=k)
    )


MODULUS_SWEEP = [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(1, 9) if p**m <= 256]


@pytest.mark.parametrize("p,m", MODULUS_SWEEP)
def test_modulus_accepted_iff_trial_division_finds_no_factor(p, m):
    for tail in itertools.product(range(p), repeat=m):
        f = list(tail) + [1]
        if not naive_irreducible(f, p):
            with pytest.raises(FieldError, match=re.escape(f"modulus {f} is reducible over GF({p})")):
                GF(p, m, f)
            continue
        gf = GF(p, m, f)
        # g is the least element of order q - 1, the class of t first
        candidates = ([p] if m > 1 else []) + list(range(1, gf.q))
        assert gf.g == next(x for x in candidates if has_full_order(x, gf))


def test_reducible_modulus_at_the_cap_is_rejected_within_a_second():
    start = time.perf_counter()
    with pytest.raises(FieldError, match="reducible"):
        GF(2, 10, [1] + [0] * 9 + [1])  # t^10 + 1 = (t^5 + 1)^2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "args",
    [(2.0,), (2, 3.0), (True,), (2, True), ("2",), (2, 3, (1, 1.9, 0, 1)), (2, 3, (1, True, 0, 1)),
     (3, 2, np.array([1.0, 0.0, 1.0]))],
)
def test_construction_rejects_non_integers(args):
    with pytest.raises(FieldError, match="integers"):
        GF(*args)


def boundary_rows():
    """Per public boundary of the package, its module error and a call
    with one bad value in the named place.  Each place gets the values of
    a JSON file that do not belong there: an int where a sequence belongs
    (a list where an integer does), a string (where a sequence belongs,
    the empty one too, which iterates as an empty sequence), a float, a
    bool and None, except where None is the documented default (a field's
    modulus, no work budget)."""
    from toric_codes.bounds import BoundsError, hansen_params
    from toric_codes.codes import CodeError, LinearCode, min_distance, reed_muller
    from toric_codes.decoder import decode, setup
    from toric_codes.geometry import (
        Fan2D, FanError, LatticePolytope, PointSet, PolytopeError, TDivisor, orbit_points,
    )
    from toric_codes.toric import ToricCodeSpec, default_points, hansen_code

    fan = Fan2D([(1, 0), (0, 1), (-1, -1)])
    code = LinearCode(GF(5), [[1, 0, 1, 2], [0, 1, 3, 4]])
    st = setup(ToricCodeSpec(GF(5), fan, TDivisor((0, 0, 3)), default_points(GF(5), fan)), TDivisor((0, 0, 1)))
    word = np.zeros(st.n, dtype=np.int16)
    sequence, scalar = [5, "x", "", 2.0, True, None], [[2], "x", 2.0, True, None]
    return {
        "GF.p": (FieldError, lambda bad: GF(bad), scalar),
        "GF.m": (FieldError, lambda bad: GF(2, bad), scalar),
        "GF.modulus": (FieldError, lambda bad: GF(2, 3, bad), sequence[:-1]),
        "GF.modulus-entry": (FieldError, lambda bad: GF(2, 1, [bad, 1]), scalar),
        "PointSet": (ValueError, lambda bad: PointSet(bad), sequence),
        "PointSet-entry": (ValueError, lambda bad: PointSet([bad]), scalar),
        "hansen_code.a": (CodeError, lambda bad: hansen_code("b", GF(5), bad), scalar),
        "hansen_code.b": (CodeError, lambda bad: hansen_code("c", GF(5), 1, bad), scalar),
        "hansen_code.m": (CodeError, lambda bad: hansen_code("d", GF(5), 1, 1, bad), scalar),
        "hansen_params.q": (BoundsError, lambda bad: hansen_params("b", bad, 2), scalar),
        "hansen_params.a": (BoundsError, lambda bad: hansen_params("b", 5, bad), scalar),
        "hansen_params.b": (BoundsError, lambda bad: hansen_params("c", 5, 1, bad), scalar),
        "hansen_params.m": (BoundsError, lambda bad: hansen_params("d", 5, 1, 1, bad), scalar),
        "Fan2D": (FanError, lambda bad: Fan2D(bad), sequence),
        "Fan2D.ray": (FanError, lambda bad: Fan2D([bad, (0, 1), (-1, -1)]), sequence),
        "TDivisor": (FanError, lambda bad: TDivisor(bad), sequence),
        "TDivisor-entry": (FanError, lambda bad: TDivisor((0, 0, bad)), scalar),
        "LatticePolytope.normals": (PolytopeError, lambda bad: LatticePolytope(bad, (0, 0, 1)), sequence),
        "LatticePolytope.offsets": (PolytopeError, lambda bad: LatticePolytope(fan.rays, bad), sequence),
        "orbit_points.ray": (FanError, lambda bad: orbit_points(fan, bad, GF(5)), scalar),
        "reed_muller.m": (CodeError, lambda bad: reed_muller(GF(2), bad, 1), scalar),
        "reed_muller.ell": (CodeError, lambda bad: reed_muller(GF(2), 3, bad), scalar),
        "min_distance.work_budget": (CodeError, lambda bad: min_distance(code, work_budget=bad), scalar[:-1]),
        "decode.list_cap": (CodeError, lambda bad: decode(word, st, list_cap=bad), scalar),
    }


def test_every_boundary_refuses_malformed_values_with_its_module_error():
    """The one integer rule (``field._is_integer``) at each boundary: a
    malformed value raises the module's own error, never a TypeError or
    an AttributeError from deeper in the code."""
    for place, (error, call, values) in boundary_rows().items():
        for bad in values:
            try:
                call(bad)
            except error:
                continue
            pytest.fail(f"{place} took {bad!r}")


def refusal(call) -> str:
    """The message of the ValueError that ``call`` raises."""
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


def test_refusals_show_a_short_value_in_full():
    """Messages recorded before long values were abbreviated: a value of
    at most ``_SHOWN_CHARS`` characters is shown as its repr."""
    from toric_codes.geometry import Fan2D, TDivisor, orbit_points
    from toric_codes.field import prime_power

    fan = Fan2D([(1, 0), (0, 1), (-1, -1)])
    recorded = {
        "divisor (0, 0, 2.5) must hold integers": lambda: TDivisor((0, 0, 2.5)),
        "divisor 'abc' must be a sequence of integers": lambda: TDivisor("abc"),
        "divisor {'a': 1} must be a sequence of integers": lambda: TDivisor({"a": 1}),
        "divisor 5 must be a sequence of integers": lambda: TDivisor(5),
        "ray (1, 'x') must hold integers": lambda: Fan2D([(1, 0), (0, 1), (1, "x")]),
        "modulus (1, 1, 0.5, 1) must hold integers": lambda: GF(2, 3, [1, 1, 0.5, 1]),
        f"q = {'x' * 50!r} is not a prime power": lambda: prime_power("x" * 50),
        "ray index [7, 7, 7, 7, 7] must be an integer in 0..2": lambda: orbit_points(fan, [7] * 5, GF(5)),
        "divisor (np.float64(0.0), np.float64(0.5), np.float64(1.0), np.float64(1.5), "
        "np.float64(2.0), np.float64(2.5)) must hold integers": lambda: TDivisor(np.arange(6) / 2),
    }
    for message, call in recorded.items():
        assert refusal(call) == message


def test_refusals_abbreviate_a_long_value():
    """A long value is shown by reprlib's abbreviation, cut to
    ``_SHOWN_CHARS`` characters, never in full."""
    from toric_codes.field import _SHOWN_CHARS, _integers, _positive, _shown, prime_power
    from toric_codes.geometry import TDivisor

    message = refusal(lambda: TDivisor([0] * 100000 + [2.5]))
    assert message == "divisor (0, 0, 0, 0, 0, 0, ...) must hold integers"
    nested = [[[list(range(100))] * 6] * 6] * 6
    for value in ("x" * 10_000, list(range(100_000)), np.zeros(100_000), -10**300, nested):
        assert len(_shown(value)) <= _SHOWN_CHARS
        for call in (lambda: _integers(value, "v", FieldError, 3), lambda: _positive(value, "v", FieldError),
                     lambda: prime_power(value)):
            assert len(refusal(call)) <= _SHOWN_CHARS + 60
    # the shown form is repr up to the limit, and reprlib's past it
    assert _shown("x" * (_SHOWN_CHARS - 2)) == repr("x" * (_SHOWN_CHARS - 2))
    assert _shown("x" * (_SHOWN_CHARS - 1)) == reprlib.repr("x" * (_SHOWN_CHARS - 1)) == "'" + "x" * 12 + "..." + "x" * 13 + "'"


def test_construction_takes_numpy_integers():
    gf = GF(np.int64(2), np.int32(3), np.array([1, 1, 0, 1]))
    assert gf == GF(2, 3, (1, 1, 0, 1))
    assert type(gf.p) is int and type(gf.m) is int and all(type(c) is int for c in gf.modulus)


@pytest.mark.parametrize("q,pm", [(4, (2, 2)), (8, (2, 3)), (9, (3, 2)), (16, (2, 4)), (25, (5, 2)),
                                  (27, (3, 3)), (32, (2, 5)), (49, (7, 2)), (64, (2, 6)), (81, (3, 4)),
                                  (121, (11, 2)), (1024, (2, 10))])
def test_field_for_q_factors_q(q, pm):
    gf = field_for_q(q)
    assert (gf.p, gf.m) == pm and gf == GF(*pm)


@pytest.mark.parametrize("q", [6, 12, 1000, 1, 0, -4])
def test_field_for_q_rejects_a_q_that_is_not_a_prime_power(q):
    with pytest.raises(FieldError, match=re.escape(f"q = {q} is not a prime power")):
        field_for_q(q)


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (2, 3), (3, 2)])
def test_unpack_peak_memory_is_a_small_multiple_of_its_result(p, m):
    gf = GF(p, m)
    A = np.random.default_rng([17, p, m]).integers(0, gf.q, size=(2000, 1024)).astype(np.int16)
    P = gf.pack(A)
    tracemalloc.start()
    try:
        U = gf.unpack(P, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(U, A) and U.dtype == np.int16
    assert peak <= 6 * U.nbytes


@pytest.fixture
def digit_limit():
    """Python's limit on the digits of an int converted to a string, at its
    default of 4300 for the test; an interpreter without the limit skips."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts ints of any length to strings")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


def test_refusals_show_an_int_past_the_digit_limit_by_its_size(digit_limit):
    """repr refuses an int of more than 4300 digits with ValueError; the
    refusals show it by its size instead, alone or inside a container,
    with the caller's error type."""
    from toric_codes.field import _SHOWN_CHARS, _integers, _positive, _shown, prime_power

    huge = 10**5000
    assert _shown(huge) == "<int of 16610 bits>"
    assert _shown(-huge) == "<negative int of 16610 bits>"
    for call, message in [
        (lambda: _positive(-huge, "x", FieldError), "x must be an integer >= 1, got <negative int of 16610 bits>"),
        (lambda: prime_power(-huge), "q = <negative int of 16610 bits> is not a prime power"),
        (lambda: prime_power(huge), "q = <int of 16610 bits> is not a prime power"),
        (lambda: _integers([1, huge, 2.5], "v", FieldError), "v (1, <int of 16610 bits>, 2.5) must hold integers"),
        (lambda: _integers([huge], "v", FieldError, 2), "v [<int of 16610 bits>] must be 2 integers"),
    ]:
        with pytest.raises(FieldError) as exc:
            call()
        assert str(exc.value) == message
    # a value whose repr is short keeps it; an int just under the limit is
    # abbreviated by reprlib as before
    assert _shown(10**4299).startswith("1000000000")
    assert len(_shown([huge] * 1000)) <= _SHOWN_CHARS
