import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest

from toric_codes.field import _DEFAULT_MODULI, GF, FieldError
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


# every field of the engine tests in test_codes.py, and the two-byte form
@pytest.mark.parametrize("n", [1, 49, 64, 65, 130])
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
    PA, PB = gf.pack(A), gf.pack(B)
    D = gf.pdist(PA, PB)
    assert D.shape == (5, 7) and D[0, 0] == 0
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
