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
slower there (median times, 2 vCPUs, numpy 2.4.6):

- p = 2 adds by XOR: a (7, 5000, 49) broadcast add over GF(8) takes
  0.55 ms, against 6.2 ms through the table.
- prime fields add and reduce once: 12.6 us against 17.0 us for a 36-row
  block over GF(7), the shape of the information-set engine's adds.

For odd p^m the table replaces a loop over digits: the broadcast add above
takes 5.5 ms against 22.1 ms over GF(9), and 7.9 against 19.2 ms over
GF(25).

A field sum (``vsum``) for odd p^m reads ``digit_planes``, one int64 row
of digit k per k: one 1-D take per digit, a contiguous sum, the digit sums
mod p recombined.  Over a (100, 64) block summed along its rows (best of
7, 2 vCPUs, numpy 2.4.6) it takes 60 us against 330 us for the 3-D gather
of ``digits`` it replaced over GF(9), 60 against 338 us over GF(25), and
133 against 355 us over GF(3^6).

The distance engines add and compare whole blocks of codewords in a
packed form (``pack``, ``unpack``, ``padd``, ``psub``, ``pdist``), with the
packed word axis first so that a broadcast runs along the contiguous block:

- p = 2: m bit planes of ceil(n / 64) uint64, added by XOR;
- p = 3: 2m bit planes, [digit = 1] and [digit = 2], added by six
  bitwise operations;
- p >= 5: one uint8 per digit (uint16 above p = 128), added by
  ``np.minimum(C, C - p)``, which for p^m replaces the table gather.

Every form is canonical, so two words differ at a position exactly when
one of its planes differs.  ``pdist`` XORs each plane and ORs it in place
into one accumulator, then takes the popcount (bit planes) or the count of
nonzero bytes; a weight is the distance to the zero word.  One block
of 512 words against the q-1 unit multiples of 8 rows, as the
information-set engine's one-row leaf does it, in words per second
against the earlier leaf (``padd`` of the whole block, then its weights)
and int16 ``vadd`` and ``count_nonzero`` one row at a time (best of 7,
best of 5 interleaved rounds, 2 vCPUs, numpy 2.4.6): GF(8), n = 49, 204 M
against 190 M and 11 M; GF(9), n = 64, 155 M against 27 M and 2.0 M;
GF(5), n = 16, 249 M against 167 M and 6.1 M; GF(7), n = 36, 115 M
against 15 M and 3.2 M; GF(25), n = 24, 100 M against 16 M and 4.2 M.

The default modulus for each (p, m) comes from a frozen table of primitive
polynomials (t itself generates the unit group), so every derived artifact
is reproducible bit for bit.  A user-supplied monic irreducible modulus is
accepted as an override; p, m and its coefficients must be Python or numpy
integers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

MAX_Q = 1024

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
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GF:
    """The finite field GF(p^m) with element indices 0 .. q-1.

    All arithmetic methods accept and return plain ints; the v-prefixed
    variants operate elementwise on numpy integer arrays.
    """

    def __init__(self, p: int, m: int = 1, modulus: Iterable[int] | None = None):
        if not _is_integer(p) or not _is_integer(m):
            raise FieldError(f"p = {p!r} and m = {m!r} must be integers")
        p, m = int(p), int(m)
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
            mod = list(modulus)
            if not all(map(_is_integer, mod)):
                raise FieldError(f"modulus {mod!r} must hold integers")
            mod = [int(c) % p for c in mod]
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
        # digit_planes[k, n] = digit k of n, wide enough to sum without overflow
        self.digit_planes = np.ascontiguousarray(self.digits.T, dtype=np.int64)
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
            C = A + B
            return np.where(C >= self.p, C - self.p, C).astype(np.int16)
        return self.add_table[A, B]

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
        # one contiguous sum per digit plane, then the digits recombined
        out = 0
        for plane, w in zip(self.digit_planes, self.place.tolist()):
            out = out + plane.take(A).sum(axis=axis) % self.p * w
        return out.astype(np.int16)

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
            # the nonzero flags in place over uint8 bytes, summed in the
            # narrowest type that holds n: faster than count_nonzero
            nz = np.not_equal(acc, 0, out=acc.view(np.bool_)) if acc.itemsize == 1 else acc != 0
            return nz.sum(axis=0, dtype=np.min_scalar_type(step))
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
