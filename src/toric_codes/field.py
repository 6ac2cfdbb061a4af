"""Exact arithmetic in small finite fields GF(p^m), q = p^m <= 1024.

Elements are plain integers 0 .. q-1.  The integer n encodes the residue
polynomial c_0 + c_1 t + ... + c_{m-1} t^{m-1} through its base-p digits
(c_0 = n % p, c_1 = (n // p) % p, ...), held once in the ``digits`` table
with place values ``place = p**k``.  Multiplication goes through
log/antilog tables over a distinguished primitive element g, so it is O(1)
per operation and vectorizes over numpy arrays.

Construction multiplies by one rule, multiplication by t: a q-entry map
that shifts each element's digits up one place and subtracts the top
digit times the monic modulus f, mod p.  As x y = sum_i x_i (t^i y), the
row of products by any x takes m array steps over that map, the addition
table and the table of c y for c in GF(p).  g is the first candidate (t
first when m > 1, then 1, 2, ..., q - 1) whose powers from 1 first return
to 1 after q - 1 steps; those powers are ``exp``, and ``log``,
``mul_table`` and ``inv_table`` follow.  An element of order q - 1 makes
every nonzero element a unit, so GF(p)[t]/(f) is a field and f is
irreducible; a candidate with a zero in its row of products is a zero
divisor and shows f reducible.  One of the two always comes first: a
finite ring that is not a field has a zero divisor, and a field has a
cyclic unit group (Lidl and Niederreiter, *Finite Fields*).

Addition reads the q x q ``add_table``; negation and digit sums read the
same tables.  Two vectorized fast paths stay because the table gather is
slower there:

- p = 2 adds by XOR;
- prime fields add and reduce once, as the unsigned minimum of C and
  C - p (``padd``'s formula), in place of a compare, select and int16
  copy.

For odd p^m the table replaces a loop over digits.  ``_iadd``, the
in-place add of ``codes.rref``, takes the same paths for p = 2 and prime
p, and for odd p^m one ``take`` from the flat table at X q + Y, in int16
while q^2 < 2^15, in place of the 2-D gather.  ``_mul``, the product of
the decoder's per-word path, is the same ``take`` from the flat
``mul_table`` at A q + B.  The operands of both must be element indices:
an index >= q reads another row of the table and gives a wrong result
without an error.  So they stay private, for operands that the caller
checked or formed from checked data, and the public ``vmul`` keeps the
2-D gather ``mul_table[A, B]``, which raises IndexError on such an index.

A field sum (``vsum``) for odd p^m gathers ``digit_fields``, one int64
per element that holds digit k in bit field k, of width b = 63 // m, and
sums it along the axis as integers: the digit sums of up to ``sum_cap`` =
(2^b - 1) // (p - 1) terms fit their fields (511 over GF(3^6)), a longer
axis runs in chunks of that many, and each field mod p, recombined with
``place``, is the sum's index: one gather and one sum in place of m of
each over the digit rows.  CHANGES.md records the measurements behind
these paths and the packed kernels below.

The distance engines add and compare whole blocks of codewords in a
packed form (``pack``, ``unpack``, ``padd``, ``psub``, ``pspan``, ``pscale``,
``pdist``), with the packed word axis first so that a broadcast runs along
the contiguous block:

- p = 2: m bit planes of ceil(n / 64) uint64, added by XOR;
- p = 3: 2m bit planes, [digit = 1] and [digit = 2], added by six
  bitwise operations;
- p >= 5: one uint8 per digit (uint16 above p = 128), added by
  ``np.minimum(C, C - p)``, which for p^m replaces the table gather.

Every form is canonical, so two words differ at a position exactly when
one of its planes differs.  ``pdist`` XORs each plane and ORs it in place
into one accumulator, then takes the popcount (bit planes) or the count of
nonzero bytes; a weight is the distance to the zero word, so no sum of
the block is formed before its weights.

``pspan`` forms the sums sum_t c_t x_t of a few packed words over every
choice of the c_t, from their multiples.  ``pscale`` forms the multiples
c x of packed words for a list of elements c without unpacking them.
Multiplication by c is F_p-linear on the digits, so every combination of a
word's digit planes is formed once, the ``pspan`` of its digits' multiples
(XORs of bit planes for p = 2; for p = 3 the [x = 1] and [x = 2] plane
pairs, which multiplying by 2 swaps; bytes for p >= 5), and each digit
plane of c x is gathered from that table.  A prime field p >= 5 gathers
c x from its p x p residues in one step.  The engines pack only their
k x n rows and scale them (CHANGES.md has the timings).

The default modulus for each (p, m) comes from a frozen table of primitive
polynomials (t itself generates the unit group), so every derived artifact
is reproducible bit for bit.  A user-supplied monic irreducible modulus is
accepted as an override; p, m and its coefficients must be Python or numpy
integers.
"""

from __future__ import annotations

import math
import reprlib
from typing import Iterable, Sequence

import numpy as np

MAX_Q = 1024

# the most characters of an input value that an error message shows
_SHOWN_CHARS = 200

# Lexicographically smallest monic primitive polynomial per (p, m).
# Coefficient tuples are low-degree-first and include the leading 1.
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 1, 0, 1),
    (2, 9): (1, 0, 0, 0, 0, 1, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (2, 0, 0, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (2, 0, 0, 0, 0, 1, 1),
    (5, 2): (2, 1, 1),
    (5, 3): (2, 0, 1, 1),
    (5, 4): (2, 0, 2, 1, 1),
    (7, 2): (3, 1, 1),
    (7, 3): (2, 1, 1, 1),
    (11, 2): (2, 4, 1),
    (13, 2): (2, 1, 1),
    (17, 2): (3, 1, 1),
    (19, 2): (2, 1, 1),
    (23, 2): (5, 2, 1),
    (29, 2): (2, 5, 1),
    (31, 2): (3, 2, 1),
}


class FieldError(ValueError):
    """Invalid field construction or field operation."""


def _is_integer(value) -> bool:
    """The package's one rule for an integer input: a Python or numpy
    integer, never a bool.  Nothing is converted first, since int() would
    truncate 2.5 and parse "2".  The helpers below apply it, each raising
    the error type its caller passes."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class _ShortRepr(reprlib.Repr):
    """``reprlib.repr``'s abbreviation, except that an int past Python's
    limit on digits converted to a string, which repr refuses with
    ValueError, is shown by its size."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"


_SHORT_REPR = _ShortRepr()


def _shown(value) -> str:
    """repr(value) when it has at most ``_SHOWN_CHARS`` characters, else
    the abbreviation of ``reprlib.repr``, cut to that length, with an int
    past the digit limit shown by its size (``_ShortRepr``): an error
    message names a bad input without printing all of a long one."""
    try:
        text = repr(value)
        if len(text) <= _SHOWN_CHARS:
            return text
    except ValueError:  # an int past the digit limit, or a container holding one
        pass
    return _SHORT_REPR.repr(value)[:_SHOWN_CHARS]


def _sequence(values, what: str, error: type[ValueError], of: str) -> tuple:
    """``values`` as a tuple, else ``error`` naming the value: ``of`` says
    what the sequence should hold.  A string, a mapping or a set is not
    read as one: its items would be characters, keys, or in no set order."""
    if not isinstance(values, (str, bytes, dict, set, frozenset)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise error(f"{what} {_shown(values)} must be {of}")


def _integers(values, what: str, error: type[ValueError], length: int | None = None) -> tuple[int, ...]:
    """``values`` as Python ints when each is an integer and, with
    ``length``, there are that many, else ``error``."""
    of = f"{'a sequence of' if length is None else length} integers"
    items = _sequence(values, what, error, of)
    if length is not None and len(items) != length:
        raise error(f"{what} {_shown(values)} must be {of}")
    if not all(map(_is_integer, items)):
        raise error(f"{what} {_shown(items)} must hold integers")
    return tuple(int(v) for v in items)


def _positive(value, what: str, error: type[ValueError]) -> int:
    """``value`` as a Python int when it is an integer >= 1, else ``error``."""
    if not _is_integer(value) or value < 1:
        raise error(f"{what} must be an integer >= 1, got {_shown(value)}")
    return int(value)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q) -> tuple[int, int]:
    """(p, m) with q = p^m for a prime p; FieldError unless q is such an
    integer (a bool is not one)."""
    if not _is_integer(q):
        raise FieldError(f"q = {_shown(q)} is not a prime power")
    q = int(q)
    # the least divisor p >= 2 of q is prime, and q is a prime power iff q = p^m
    p = next((d for d in range(2, math.isqrt(max(q, 0)) + 1) if q % d == 0), q)
    m = 1
    while 1 < p and p**m < q:
        m += 1
    if p < 2 or p**m != q:
        raise FieldError(f"q = {_shown(q)} is not a prime power")
    return p, m


class GF:
    """The finite field GF(p^m) with element indices 0 .. q-1.

    All arithmetic methods accept and return plain ints; the v-prefixed
    variants operate elementwise on numpy integer arrays.
    """

    def __init__(self, p: int, m: int = 1, modulus: Iterable[int] | None = None):
        p, m = _integers((p, m), "p and m", FieldError)
        if m < 1:
            raise FieldError(f"extension degree m = {m} must be >= 1")
        # the cap comes first, so that a huge p or m fails at once
        if p > MAX_Q or m >= MAX_Q.bit_length() or p**m > MAX_Q:
            raise FieldError(f"q = {p}^{m} exceeds the supported cap {MAX_Q}")
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        q = p**m
        self.p = p
        self.m = m
        self.q = q

        if modulus is not None:
            mod = [c % p for c in _integers(modulus, "modulus", FieldError)]
            if len(mod) != m + 1 or mod[-1] != 1:
                raise FieldError("modulus must be monic of degree m")
        elif m == 1:
            mod = [0, 1]
        else:
            mod = list(_DEFAULT_MODULI[(p, m)])
        self.modulus = tuple(mod)

        self._build_tables()

    # -- construction ---------------------------------------------------

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        # the base-p encoding: element n has digits[n] . place == n; place is
        # int16 so that unpack recombines digits in int16 (q <= 1024 fits)
        self.place = p ** np.arange(m, dtype=np.int16)
        self.digits = (np.arange(q)[:, None] // self.place % p).astype(np.int16)
        # vsum for odd p^m: digit k of n in bit field k of width 63 // m, so
        # that a sum of up to sum_cap entries carries no field into the next
        width = 63 // m
        self._field_shift = width * np.arange(m, dtype=np.int64)
        self._field_mask = (1 << width) - 1
        self.digit_fields = (self.digits.astype(np.int64) << self._field_shift).sum(axis=1)
        self.sum_cap = self._field_mask // (p - 1)
        # add_table one digit at a time: an index below p * w is hi * w + lo,
        # and hi and lo add independently
        prime_add = ((np.arange(p)[:, None] + np.arange(p)) % p).astype(np.int16)
        add = np.zeros((1, 1), dtype=np.int16)
        for w in self.place.tolist():
            add = (w * prime_add[:, None, :, None] + add[None, :, None, :]).reshape(p * w, p * w)
        self.add_table = add
        self.neg_table = np.argmin(add, axis=1).astype(np.int16)  # a + (-a) = 0

        scaled = np.arange(p)[:, None, None] * self.digits % p @ self.place  # scaled[c, y] = c y
        # t y: the digits of y move up one place, and the top digit c comes
        # back as -c times the modulus below its leading 1
        top, rest = np.divmod(np.arange(q), p ** (m - 1))
        times_t = add[rest * p, scaled[-top % p, self.element(self.modulus[:-1])]]
        # a field has an element of order q - 1 and no zero divisor, any other
        # finite ring has a zero divisor: the loop breaks or raises
        for g in ([p] if m > 1 else []) + list(range(1, q)):
            row, ty = scaled[self.digits[g, 0]], np.arange(q)  # row[y] = g y
            for c in self.digits[g, 1:].tolist():
                ty = times_t[ty]
                row = add[row, scaled[c, ty]]
            if not row[1:].all():
                raise FieldError(f"modulus {list(self.modulus)} is reducible over GF({p})")
            row, powers = row.tolist(), [1]
            while (y := row[powers[-1]]) != 1:  # g is a unit: its powers return to 1
                powers.append(y)
            if len(powers) == q - 1:
                break
        self.g = g

        exp = np.array(powers * 2, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        log[powers] = np.arange(q - 1)
        self.exp = exp
        self.log = log

        # log sums stay below 2(q-1), the length of exp; the zero row and
        # column (log -1) are overwritten
        mul = exp[log[:, None] + log]
        mul[0, :] = 0
        mul[:, 0] = 0
        self.mul_table = mul.astype(np.int16)

        inv = np.zeros(q, dtype=np.int16)
        inv[exp[: q - 1]] = exp[(q - 1 - log[exp[: q - 1]]) % (q - 1)]
        self.inv_table = inv

        # packed words (see pack): bit planes for p = 2 and 3, else one byte
        # (two above p = 128) per digit, wide enough to hold a digit sum
        self.planes = 2 * m if p == 3 else m
        self.packed_dtype = np.dtype("<u8" if p <= 3 else np.uint8 if 2 * p <= 256 else np.uint16)
        # for pscale: the residues x y mod p, and the element whose digit j
        # is digit i of c t^j, at [c, i]
        self._residues = scaled[:, :p].astype(self.packed_dtype)
        self._scale_rows = (self.digits[mul[:, self.place]].swapaxes(1, 2) @ self.place).astype(np.intp)

    # -- scalar operations ----------------------------------------------

    def _check(self, *els: int) -> None:
        for a in els:
            if not 0 <= a < self.q:
                raise FieldError(f"{a} is not an element index of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        self._check(a)
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self.inv_table[a])

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e with negative e meaning (a^-1)^(-e); a**0 == 1."""
        self._check(a)
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 raised to a negative power")
            return 1 if e == 0 else 0
        return int(self.exp[(int(self.log[a]) * e) % (self.q - 1)])

    def units(self) -> list[int]:
        """The q-1 nonzero elements in the fixed order g^0, g^1, ..."""
        return [int(x) for x in self.exp[: self.q - 1]]

    def dlog(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("discrete log of zero")
        return int(self.log[a])

    # -- vectorized operations ------------------------------------------

    def vadd(self, A, B):
        if self.p == 2:
            return np.bitwise_xor(A, B)
        if self.m == 1:
            return self._reduce_sum(np.asarray(np.add(A, B, dtype=np.int16)))
        return self.add_table[A, B]

    def _iadd(self, X: np.ndarray, Y: np.ndarray) -> None:
        """X += Y in place, for an int16 array X and Y of element indices
        that broadcasts to it: XOR for p = 2, one add and one reduction for
        prime p, and for odd p^m one ``take`` from the flat add table at
        X q + Y, in int16 while q^2 < 2^15 and in intp above."""
        if self.p == 2:
            np.bitwise_xor(X, Y, out=X)
        elif self.m == 1:
            self._reduce_sum(np.add(X, Y, out=X))
        else:
            q = self.q
            index = X.astype(np.int16 if q * q < 1 << 15 else np.intp)
            index *= q
            index += Y
            X[...] = self.add_table.ravel().take(index)

    def _mul(self, A, B) -> np.ndarray:
        """A * B elementwise, broadcast, for int16 arrays of element indices:
        one ``take`` from the flat multiplication table at A q + B, indexed
        in int16 while q^2 < 2^15 and in intp above."""
        q = self.q
        index = np.multiply(A, q, dtype=np.int16 if q * q < 1 << 15 else np.intp)
        return self.mul_table.ravel().take(index + B)

    def _reduce_sum(self, C: np.ndarray) -> np.ndarray:
        """C mod p in place, for an int16 array of sums of two elements of
        GF(p), as ``padd`` does it: as uint16, C - p wraps above C when
        C < p, so the unsigned minimum of C and C - p is the residue."""
        U = C.view(np.uint16)
        np.minimum(U, U - self.p, out=U)
        return C

    def vneg(self, A):
        return self.neg_table[A]

    def vsub(self, A, B):
        return self.vadd(A, self.neg_table[B])

    def vmul(self, A, B):
        return self.mul_table[A, B]

    def vscale(self, c: int, A):
        return self.mul_table[c][A]

    def vsum(self, A, axis: int = 0):
        """Field sum along one axis (digitwise base-p accumulation)."""
        A = np.asarray(A)
        if self.p == 2:
            return np.bitwise_xor.reduce(A, axis=axis).astype(np.int16)
        if self.m == 1:
            return (np.sum(A, axis=axis, dtype=np.int64) % self.p).astype(np.int16)
        # one gather of the digit fields, one integer sum per chunk of at most
        # sum_cap terms, then each field mod p
        F = self.digit_fields.take(A)
        cap = self.sum_cap
        if F.shape[axis] <= cap:
            return self._reduce_fields(F.sum(axis=axis))
        F = np.moveaxis(F, axis, 0)
        S = F[:cap].sum(axis=0)
        for start in range(cap, len(F), cap - 1):
            # the sum so far, its fields reduced, is one term of the next chunk
            S = self.digit_fields[self._reduce_fields(S)] + F[start : start + cap - 1].sum(axis=0)
        return self._reduce_fields(S)

    def _reduce_fields(self, S):
        """The elements whose digit k is field k of S mod p."""
        D = (S[..., None] >> self._field_shift & self._field_mask) % self.p
        return (D @ self.place).astype(np.int16)

    # -- packed words -----------------------------------------------------

    def pack(self, A) -> np.ndarray:
        """Pack words of element indices, one word along the last axis of A.

        The packed word axis comes first, so that a broadcast add over many
        words runs along the contiguous batch axes.  It holds ``planes``
        planes of equal length, one after the other.  For p = 2 and p = 3
        a plane is ceil(n / 64) uint64, position i at bit i % 64 of word
        i // 64: plane j holds digit j for p = 2, and planes j and m + j
        hold [digit j = 1] and [digit j = 2] for p = 3.  Otherwise plane j
        holds digit j of each position, one uint8 (uint16 above p = 128)
        each.
        """
        A = np.asarray(A)
        n = A.shape[-1]
        D = self.digits[A].swapaxes(-1, -2)  # (..., m, n)
        if self.p > 3:
            P = D.reshape(A.shape[:-1] + (-1,))
        else:
            if self.p == 3:
                D = np.concatenate([D == 1, D == 2], axis=-2)
            bits = np.zeros(D.shape[:-1] + (-(-n // 64) * 64,), dtype=np.uint8)
            bits[..., :n] = D
            P = np.packbits(bits, axis=-1, bitorder="little").view(self.packed_dtype)
            P = P.reshape(A.shape[:-1] + (-1,))
        return np.ascontiguousarray(P.transpose(-1, *range(P.ndim - 1)), dtype=self.packed_dtype)

    def unpack(self, P, n: int) -> np.ndarray:
        """The int16 element indices of packed words of length n, one word
        along the last axis."""
        P = np.asarray(P)
        P = P.transpose(*range(1, P.ndim), 0)
        P = np.ascontiguousarray(P).reshape(P.shape[:-1] + (self.planes, -1))
        if self.p > 3:
            D = P
        else:
            D = np.unpackbits(P.view(np.uint8), axis=-1, count=n, bitorder="little")
            if self.p == 3:
                D = D[..., : self.m, :] + 2 * D[..., self.m :, :]
        return (D.swapaxes(-2, -1) @ self.place).astype(np.int16, copy=False)

    def padd(self, A, B) -> np.ndarray:
        """Sum of packed words, broadcasting over the batch axes."""
        if self.p == 2:
            return A ^ B
        if self.p == 3:
            # a = [x = 1] and b = [x = 2] per digit, summed in six bitwise
            # operations (the tests check every pair of elements)
            h = len(A) // 2
            a1, b1, a2, b2 = A[:h], A[h:], B[:h], B[h:]
            t = (a1 | b2) ^ (a2 | b1)
            out = np.empty((2 * h,) + t.shape[1:], dtype=self.packed_dtype)
            np.bitwise_xor(b1 | b2, t, out=out[:h])
            np.bitwise_xor(a1 | a2, t, out=out[h:])
            return out
        C = A + B
        return np.minimum(C, C - self.p)  # C - p wraps above C when C < p

    def psub(self, A, B) -> np.ndarray:
        """Difference A - B of packed words, broadcasting over the batch
        axes."""
        if self.p == 2:
            return A ^ B
        if self.p == 3:
            h = len(B) // 2  # -x swaps the planes [x = 1] and [x = 2]
            return self.padd(A, np.concatenate([B[h:], B[:h]]))
        C = A - B
        return np.minimum(C, C + self.p)  # when A < B, C wraps above p and C + p is A - B + p

    def pscale(self, P, c) -> np.ndarray:
        """The packed words c_i x for each packed word x of P and each
        element c_i of c, on a new last axis: the packed products
        ``mul_table[c_i][A]``, formed from the packed words alone.

        x -> c x is F_p-linear on the digits: digit i of c x is the
        combination of the digits x_j whose coefficients are the digits of
        ``_scale_rows[c, i]`` (digit i of c t^j, for each j).  So one table,
        the ``pspan`` of the multiples a x_j with digit 0 the fastest,
        holds every combination sum_j b_j x_j, indexed by the element of
        digits b, as one packed digit (XOR of bit planes for p = 2; for
        p = 3 the planes [x = 1] and [x = 2], which 2 x swaps), and each
        digit plane of c_i x is gathered from it.  A prime field p >= 5
        gathers its products from the p x p residues in one step.
        """
        p, m = self.p, self.m
        P, c = np.asarray(P), np.asarray(c)
        batch = P.shape[1:]
        if p > 3 and m == 1:
            return self._residues[:, c][P]
        r = 2 if p == 3 else 1  # planes per digit
        # X[h, ..., j] = plane h of x_(m-1-j), the packed digits of x, digit 0
        # last, and A[..., j, a] = a x_(m-1-j) for a = 0 .. p-1
        X = P.reshape((r, m, -1) + batch).transpose(0, *range(2, P.ndim + 2), 1)[..., ::-1]
        words = X.shape[1:-1]
        if p > 3:
            A = self._residues[X]
        else:
            A = np.zeros(X.shape + (p,), dtype=self.packed_dtype)
            A[..., 1] = X
            if p == 3:
                A[..., 2] = X[::-1]  # 2 x swaps the planes [x = 1] and [x = 2]
        # span[h, ..., b] = plane h of sum_j b_j x_j
        span = self.pspan(A.reshape((-1,) + batch + (m, p))).reshape((r,) + words + (self.q,))
        index = self._scale_rows[c]
        out = np.empty((r, m) + words + (len(c),), dtype=self.packed_dtype)
        for h in range(r):
            for i in range(m):
                # the indices are elements, so "clip" changes none of them;
                # unlike "raise", it writes to out without a buffer
                np.take(span[h], index[:, i], axis=-1, out=out[h, i], mode="clip")
        return out.reshape((-1,) + batch + (len(c),))

    def pspan(self, M) -> np.ndarray:
        """The packed sums sum_t c_t x_t over every choice of the c_t, one
        per column, from the multiples M (word, ..., r, c) of r packed
        words x_t, M[..., t, 0] the zero word: c^r columns, the last word
        the fastest digit, so the first c^s columns span the last s words."""
        shape, r = M.shape[:-2], M.shape[-2]
        S = M[..., r - 1, :] if r else np.zeros(shape + (1,), dtype=self.packed_dtype)
        for t in reversed(range(r - 1)):
            S = self.padd(M[..., t, :, None], S[..., None, :]).reshape(shape + (-1,))
        return np.ascontiguousarray(S)

    def pdist(self, A, B) -> np.ndarray:
        """Hamming distances between packed words, broadcasting over the
        batch axes.  Every packed form is canonical, so a position differs
        exactly when one of its planes does: each plane of A ^ B is ORed in
        place into one accumulator, whose nonzero positions are counted."""
        step = len(A) // self.planes
        acc = A[:step] ^ B[:step]
        if step < len(A):
            part = np.empty_like(acc)
            for j in range(step, len(A), step):
                np.bitwise_xor(A[j : j + step], B[j : j + step], out=part)
                acc |= part
        if self.p > 3:
            # the nonzero flags in place over uint8 bytes, summed as uint8
            # in the narrowest type that holds n: faster than count_nonzero,
            # and below n = 256 a sum without a cast
            nz = np.not_equal(acc, 0, out=acc.view(np.bool_)) if acc.itemsize == 1 else acc != 0
            return nz.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(step))
        counts = np.bitwise_count(acc)
        return counts[0] if step == 1 else counts.sum(axis=0)

    # -- misc -------------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector of an element index."""
        self._check(a)
        return tuple(self.digits[a].tolist())

    def element(self, digits: Sequence[int]) -> int:
        """Element index of a base-p digit vector, low digit first: at most
        m digits, each read mod p."""
        if len(digits) > self.m:
            raise FieldError(f"{len(digits)} digits exceed the degree m = {self.m} of GF({self.q})")
        return sum(int(c) % self.p * w for c, w in zip(digits, self.place.tolist()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF)
            and (self.p, self.m, self.modulus, self.g) == (other.p, other.m, other.modulus, other.g)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus, self.g))

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.m == 1 else f"GF({self.p}^{self.m})"
