"""Linear codes over GF(q): exact row reduction, duals, syndromes, two
exact minimum-distance engines, and the Reed-Muller baseline family.

Matrices are numpy int16 arrays of element indices.  Row reduction is
exact and vectorized, on a copy of the input, in place:

- ``rref`` checks the entries once, on entry (``_elements``: an integer
  array of indices 0..q-1, else CodeError), so every later entry is an
  element index, which the flat table index below needs (an index >= q
  would read another row of the table); ``solve`` and ``LinearCode``
  leave the check of what they reduce to it.  It permutes the columns
  into scan order and hands its checked copy to ``_rref``, the one pivot
  loop, which reduces a matrix in place with no check; ``decode`` calls
  ``_rref`` directly on the two systems it forms from checked data;
- each pivot c adds -R[i, c] times the pivot row, from column c on, to
  every other row i nonzero in column c.  When those rows fill at least
  half of the span lo..hi-1 from the first to the last of them, the slab
  R[lo:hi, c:] is updated in place, its other rows adding 0; else the rows
  are gathered, updated and scattered back, so that a tall matrix whose
  pivot columns thin out pays only for its nonzero rows;
- the update is ``GF._iadd``: XOR for p = 2, an add and an unsigned
  minimum for prime p, and one ``take`` from the flat add table at
  X q + Y for odd p^m.  The products f_i R[r, j] are formed row-major,
  as R is (a column-major product made the slab update several times
  slower), from at most min(#f, q) rows of ``mul_table``: for fewer than
  q factors, its rows at f, then their entries at the pivot row's; else
  its columns at the pivot row's entries, then that block's rows at f,
  copied whole.  Rows are swapped by copying them and the pivot row is
  scaled by one 1-D ``take``.

CHANGES.md records the measurements behind the two update paths, the
half-full rule and the two product forms.

Each code keeps one reduction, ``LinearCode._reduced``: the one that
``__init__`` makes of its rows (through ``rref``, which checks them), or,
for a dual, a reduction of its generator made the first time it is read.
A null-space basis (hence a dual) is read off the reduced form without a
second reduction.  ``dual()`` reads that basis off the primal's reduction
and takes it as it is, with no second validation or rank pass: its
entries are 1s and negated entries of R, and each row is the only one
nonzero in its free column, so its rank is n - k by construction.  A dual
generator of more than ``MATRIX_SIZE_CAP`` = 2^28 entries is refused with
CodeError before it is allocated, as is an evaluation matrix (``toric``).
The exhaustive engine enumerates one representative per projective
message class; the information-set engine is a Brouwer-Zimmermann-style
search over systematic generators on (maximally) disjoint information
sets, maintaining a certified lower bound until it meets the best weight
found.  Its first systematic matrix is the code's kept reduced echelon
form; only the later, disjoint information sets are reduced in the
search.

Both engines weigh codewords as packed words (``GF.pack``: bit planes for
p = 2 and 3, one byte per position otherwise) and keep them packed.  Each
packs only its k x n rows; the multiples c r of a row are scaled from its
packed form (``GF.pscale``), so no (q-1) k n array of products is formed.
A leaf of either engine is a block X of packed words and a table T that is
closed under negation, so the distances ``GF.pdist`` from each x to each t
are the weights of the words x + t.  The longer of X and T is the inner
axis, and only the words at the leaf's least weight are formed (x - t,
``GF.psub``).
The leaves are:

- exhaustive engine: a message with first nonzero symbol 1 at row j is
  its prefix (row j, then odometer rows: packed adds of the multiples
  c r_i) plus a word of the block table and one of the suffix table.  The
  suffix table spans the last v rows in at most ``_SUFFIX_WORDS`` = 2^15
  words, which stay in cache, and the block table the b rows above them,
  q^(b+v) <= ``_PRODUCT_BLOCK``; the first q^r words of either span its
  last r rows.  Each message is weighed once, so the work is
  (q^k - 1)/(q - 1) however the rows are split;
- information-set engine, level 1: the zero word, against every row of a
  matrix at once;
- level 2: the zero word, against a block of the pair words r_s + u r_t,
  s < t (s = 0 alone on a restricted level), in lex order of (s, t), formed
  in one ``GF.padd`` broadcast.  A block holds at most the matrix's share
  of ``_PAIR_LEAF_BYTES`` below, and at least one pair; the words are X and
  the zero word is T, so the ties are the words themselves, not their
  negatives.  The 7 920 pair words of the GF(9) row (64, 45, 4) are one
  block; as 44 one-row leaves, with packed products, the row took 2.7 ms,
  and it takes 1.1 ms (CHANGES.md);
- from level 3 on, one support row left: the unit multiples u r_s of the
  rows after the block's last;
- two support rows left: the pair table of the words u r_s + v r_t, s < t,
  from the rows after the block's last, when the block times those words
  holds at most a 1/m share of ``_PAIR_LEAF_BYTES`` (2 MB) of packed words,
  m the number of enumerated matrices.  The pair table is built once per
  matrix at level 3, over the rows from the first one whose pairs fit that
  share, so the m tables together hold at most 2 MB; a larger block
  recurses one row first.

A leaf hands on its words at its least weight; a smaller weight replaces
the words kept so far and an equal one joins them, across the levels of an
information-set search as well.  The witness is the lex-min of these ties
(or of their translates, below), taken once per search, when it ends or a
budget stops it, by ``_witness``.  It unpacks the ties in blocks of at most
max(1, 2^18 // n) words, so most searches unpack once; the lex-min of a
union is the lex-min of its parts' lex-mins, here one argmin over the rows
as byte strings.

The leaf buffer.  A broadcast of a leaf, X against T, runs through numpy's
buffered iterator when its inner axis is shorter than 4096, in chunks of up
to the ufunc buffer's size, and smaller chunks run faster there; most
leaves of the golden rows have such an inner axis.  So every task of both
engines runs under a buffer of ``_LEAF_BUFSIZE`` = 1024 elements, scoped by
``np.errstate``, which restores the caller's buffer size on exit (numpy >=
2.0), one scope per exhaustive search and per information-set level.  The
count of nonzero bytes in ``GF.pdist`` sums the flags as uint8 rather than
casting bools, a cast the small buffer would slow.  The buffer changes no
result: d, work and witness stay bit for bit.  CHANGES.md records the
measurements behind the leaves, the buffer and the two torus paragraphs
below.

Torus translations.  Coordinate i N + j of a code on the (q-1)^2 torus
points in the fixed order, N = q-1 >= 2, is the point (a^i, a^j), and a
translation (t1, t2) -> (s1 t1, s2 t2) rolls this N x N grid.  It
multiplies every character row by a constant, so an evaluation code on
these points is invariant by construction (Little and Schwarz, AAECC
2007): ``toric.build`` marks such a code, as ``decoder.setup`` marks its
auxiliary code on those points, and ``dual()`` copies the mark,
since a coordinate permutation fixes a code exactly when it fixes its dual
(``LinearCode._translation_grid``, N or None).  Every other code is checked
on its first reduced generator: rolling the grid one step along each axis
maps every row into the row space, compared on the n - k non-pivot
columns (``_torus_translations``, which answers N or None).  On an
invariant code the translation group acts regularly on the coordinates and
the engine enumerates its first systematic matrix only, on information set
I.  A word of information weight at most w on a translate sI is the
translate of a word of information weight at most w on I, of the same
weight.  So after level w every word that is not a translate of an
enumerated word has at least w+1 nonzeros on each of the n translates of
I; each coordinate lies in exactly k of them, so its weight is at least
ceil(n (w+1) / k) (ceil(n / k) before level 1).  The witness is the
lex-min over every translate of the least-weight words, found from N alone
and narrowed before any translate is formed.  Translate (a, b) holds grid
row i - a as its row i, rolled by b, so the lex-min translate starts with
a tie's longest cyclic run of zero grid rows, then with the least rotation
of the row after it.  Every start of such a run is kept; of each row after
one, the rotations that start with its longest run of zeros, then those
whose first nonzero entry is least, then those whose whole row is least.
Only these survivors are formed in full, in blocks of at most max(2^18, n)
entries, and compared.  A tie fixed by many translations, such as the
constant word of a k = 1 code, keeps them all.  The rotated rows of a
block of ties hold at most max(2^18, N n) entries.  Over GF(128), the 127
ties of a budgeted fan1 search take 0.09 s on 2 vCPUs; forming every
translate took 13.6 s (CHANGES.md).  Codes with
orbit points, another point order, Reed-Muller codes and random codes
fail the check and keep the disjoint information sets.

The last level through row 0.  Before a level w >= 2, with best the least
weight found so far: if (k-1) best < n w, the level enumerates only the
supports that contain row 0 (the task s0 = 0), C(k-1, w-1) (q-1)^(w-1)
words instead of C(k, w) (q-1)^(w-1), certifies ceil(n w / (k-1)) and ends
the search.  A word c that the levels below w missed has information weight
at least w on each of its n translates of I; these weights sum to k wt(c),
so at most k wt(c) - n w translates exceed w, while exactly wt(c)
translates hold row 0's pivot column (the group acts regularly).  So when
wt(c) < n w / (k-1), some translate has weight w on I with row 0 in its
support, and a unit multiple of it is enumerated: every word of weight at
most best is found.  The full level would end the search as well, as
ceil(n (w+1) / k) >= ceil(n w / (k-1)) for w < k.  The supports it skips
would only add unit multiples of translates of words found, so the witness
is restored from the ties at the best weight of every level: the lex-min of
lam sigma(c) over those ties c, every translate sigma, and the scales lam
that make a translate tau(c) of information weight at most w read 1 at its
first pivot column (the normalization of enumerated words), which is the
set of translates of the words the full level and its predecessors would
have enumerated at that weight.  The same ``_witness`` restores it: a
tie's scales come from its translates' entries at the pivot columns, and
since scaling keeps zeros, the runs of zero rows and of leading zeros
narrow the candidates before a scale is applied; the least first nonzero
entry then leaves one scale per rotation.

Products.  ``matmul`` is the public product kernel: ``matvec``,
syndromes of a ``LinearCode``, codewords and the decoder's stage functions
run through it.  Per block of the inner axis it takes one broadcast
``vmul`` of shape (rows, width, cols), one ``vsum`` over the width and one
``vadd`` into the result, with width max(1, 2^18 // (rows cols)).  No
temporary then holds more than max(2^18, rows cols) entries: a small
product is a single broadcast, and one with rows cols > 2^18 runs one
inner index at a time.  Every entry of both operands is checked once, by
the 2-D gather of ``vmul`` itself, on the operands' unsigned views: an
index past q - 1 raises there, and read as unsigned a negative entry lies
past q - 1 (read as signed, -1 once gave the last table row).  Only
eight-byte operands, which the gather reads as intp again, and the operands
of an empty product take one maximum each (``_unsigned``).  The flat
``GF._mul`` is not used here: it reads an entry past q - 1 as another
element, and with it in the product of ``G H^T``, the builds timed next to
it in bench ``construct`` ran about a fifth slower (CHANGES.md).
``decode``'s per-word products, the syndrome and the candidate step, run
on operands it has checked or made (decoder module docstring) through the
flat ``GF._mul``; the candidate step multiplies the negated reduced rows
of the bracket system by the pivot rows of the locator table, an inner
axis of the rank, which is shorter than the null basis times the whole
table (inner axis ell); CHANGES.md records the timings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .field import GF, FieldError, _integers, _positive, _shown, prime_power


class CodeError(ValueError):
    """Invalid code construction or operation."""


class WorkCapExceeded(RuntimeError):
    """Exhaustive enumeration would exceed the configured work cap."""


# A code with at most this many projective messages is small enough to
# enumerate them all: min_distance(method="auto") then runs the exhaustive
# engine when the work budget allows it, and the decoder checks condition
# (C) on its dual.
EXHAUSTIVE_LIMIT = 2_000_000

# the methods of min_distance
METHODS = ("auto", "exhaustive", "infoset")

# the most entries of one broadcast block of matmul, unless a single inner
# index needs more (rows * cols)
_PRODUCT_BLOCK = 1 << 18

# the most words of the exhaustive engine's suffix table, which every leaf
# reads: a fraction of a product block, so that it stays in cache
_SUFFIX_WORDS = _PRODUCT_BLOCK >> 3

# the most bytes of packed words in the pair tables of one information-set
# search together: each of its m matrices has a share of 1/m, and a two-row
# leaf of that matrix, block times table suffix, and a block of its level 2
# hold at most that share
_PAIR_LEAF_BYTES = 1 << 21

# the numpy ufunc buffer, in elements, under which every task of both
# engines runs (module docstring)
_LEAF_BUFSIZE = 1 << 10

# the most entries of a matrix that construction forms, an evaluation matrix
# |P_G| x n or a dual generator (n - k) x n: 512 MiB of int16
MATRIX_SIZE_CAP = 1 << 28


# -- exact linear algebra ---------------------------------------------------


def rref(gf: GF, mat: np.ndarray, col_order=None) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form by exact field arithmetic.

    col_order optionally gives the column scan order (used to steer pivots
    into chosen information sets): distinct integers 0..cols-1, else
    CodeError; only its columns are scanned for pivots.
    Returns (R, rank, pivot_columns).  The entries of ``mat`` must be
    element indices 0..q-1 of an integer array, else CodeError; they are
    checked once, on entry.  The columns are
    permuted into scan order, reduced by ``_rref`` on that copy, and put
    back.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise CodeError("rref expects a 2-D matrix")
    R = _elements(gf, mat, "matrix")  # a fresh int16 copy, reduced in place
    if col_order is None:
        rank, pivots = _rref(gf, R)
        return R, rank, pivots
    cols = R.shape[1]
    order = _integers(col_order, "column order", CodeError)
    unscanned = np.ones(cols, dtype=bool)
    if not order or (min(order) >= 0 and max(order) < cols):
        perm = np.array(order, dtype=np.intp)
        unscanned[perm] = False
    # a column out of range leaves every column unscanned, a repeated one more
    # than the order leaves out
    if np.count_nonzero(unscanned) != cols - len(order):
        raise CodeError(f"column order {_shown(col_order)} must hold distinct columns 0..{cols - 1}")
    perm = np.concatenate([perm, np.flatnonzero(unscanned)])
    R = R.take(perm, axis=1)  # row-major, as the row updates need
    rank, pivots = _rref(gf, R, len(order))
    out = np.empty_like(R)
    out[:, perm] = R
    return out, rank, [int(perm[c]) for c in pivots]


def _rref(gf: GF, R: np.ndarray, scan: int | None = None) -> tuple[int, list[int]]:
    """Reduce R in place to reduced row echelon form over its first
    ``scan`` columns (all by default); returns (rank, pivot_columns).  R
    must be a writable int16 array of element indices that the caller
    owns: ``rref`` makes it from a checked copy, and ``decode`` from its
    own syndrome and the set-up's tables, so no entry is checked here.

    Each pivot row is zero left of its pivot, and each pivot adds
    -R[i, c] times the pivot row to every other row i, in place, from
    column c on (module docstring): to the slab of rows from the first to
    the last such row when at least half of them are such rows (the others
    add 0), else to those rows gathered and scattered back.
    """
    rows, cols = R.shape
    mul = gf.mul_table
    pivots: list[int] = []
    r = 0
    for c in range(cols if scan is None else scan):
        if r == rows:
            break
        nz = R[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            row = R[pr].copy()
            R[pr] = R[r]
            R[r] = row
        if R[r, c] != 1:
            R[r, c:] = mul[gf.inv_table[R[r, c]]].take(R[r, c:])
        factor = gf.neg_table.take(R[:, c])
        factor[r] = 0
        other = factor.nonzero()[0]
        if other.size:
            lo, hi = int(other[0]), int(other[-1]) + 1
            slab = 2 * other.size >= hi - lo
            f = factor[lo:hi] if slab else factor[other]
            # the products f_i R[r, j], row-major as R is: from the table's
            # rows at f below q rows, else from its columns at the pivot
            # row's entries, whose rows at f are then copied whole
            pivot_row = R[r, c:]
            if f.size < gf.q:
                Y = mul[f].take(pivot_row, axis=1)
            else:
                Y = mul.take(pivot_row, axis=1)[f]
            if slab:
                gf._iadd(R[lo:hi, c:], Y)
            else:
                X = R[other, c:]
                gf._iadd(X, Y)
                R[other, c:] = X
        pivots.append(c)
        r += 1
    return r, pivots


def _null_basis(gf: GF, R: np.ndarray, pivots: list[int], cols: int) -> np.ndarray:
    """Null-space basis of the first ``cols`` columns of a reduced matrix R
    with the given pivot columns: the vector for free column f has x_f = 1
    and x_p = -R[row of p, f] at each pivot p.  The free columns come from
    one mask over all ``cols`` columns, a numpy pass, as ``dual`` needs at
    n in the hundreds; ``decode`` lists its few free columns itself."""
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, cols), dtype=np.int16)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = gf.neg_table[R[: len(pivots), free]].T
    return basis


def null_space(gf: GF, mat: np.ndarray) -> np.ndarray:
    """Basis of {x : mat @ x = 0}, one row per free column, deterministic:
    the vector for free column f has x_f = 1 and pivot entries solved."""
    R, _, pivots = rref(gf, mat)
    return _null_basis(gf, R, pivots, R.shape[1])


def matmul(gf: GF, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact matrix product over the field, the one product kernel (module
    docstring): per block of the inner axis, one broadcast product and one
    field sum, added into the result.  A and B must be integer arrays of
    element indices 0..q-1, else CodeError; every entry is checked once,
    by the gather of ``vmul`` on its unsigned view (module docstring)."""
    A, B = np.asarray(A), np.asarray(B)
    if A.dtype.kind not in "iu" or B.dtype.kind not in "iu":
        raise CodeError(f"operands must be integer arrays, got dtypes {A.dtype} and {B.dtype}")
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise CodeError("length mismatch")
    (rows, inner), cols = A.shape, B.shape[1]
    width = max(1, _PRODUCT_BLOCK // max(1, rows * cols))
    out = None
    try:
        A, B = _unsigned(A, gf.q, rows * cols == 0), _unsigned(B, gf.q, rows * cols == 0)
        # an empty inner axis still takes one empty block, whose sum is zero
        for s in range(0, max(inner, 1), width):
            blk = slice(s, s + width)
            block = gf.vsum(gf.vmul(A[:, blk, None], B[None, blk]), axis=1)
            out = block if out is None else gf.vadd(out, block)
    except IndexError:
        raise CodeError(f"operand entries must be element indices 0..{gf.q - 1}") from None
    return out


def _unsigned(X: np.ndarray, q: int, unread: bool) -> np.ndarray:
    """The unsigned view of an integer operand of ``matmul``, whose gather
    raises IndexError on every entry past q - 1; read as unsigned, a
    negative entry lies there (a one-byte operand is widened first, as
    q <= 1024).  Its entries are checked here instead, with the same error,
    when the gather reads them as intp again (eight bytes) or reads none of
    them (an empty product)."""
    X = X.astype(np.int16) if X.itemsize == 1 else X
    U = X.view(X.dtype.str.replace("i", "u"))
    if (X.itemsize == 8 or unread) and U.size and U.max() >= q:
        raise IndexError
    return U


def matvec(gf: GF, A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v over the field: ``matmul`` on one column."""
    return matmul(gf, A, np.asarray(v)[:, None])[:, 0]


def _solution(R: np.ndarray, rank: int, pivots: list[int]) -> np.ndarray | None:
    """The solution of A x = b whose free variables are 0, read off the
    reduced form R of the augmented matrix [A | b] with its rank and pivot
    columns; None when the system is inconsistent (a pivot in the last
    column).  The first columns of R are the reduced form of A itself, so
    ``_null_basis`` reads the null space off R with no second reduction."""
    cols = R.shape[1] - 1
    if rank and pivots[-1] == cols:
        return None
    if rank == cols:  # unique: the pivots are the columns 0..cols-1
        return R[:cols, cols]
    x = np.zeros(cols, dtype=np.int16)
    x[pivots] = R[:rank, cols]
    return x


def solve(gf: GF, A: np.ndarray, b: np.ndarray):
    """Solve A x = b for a 2-D matrix A and a vector b of len(A) element
    indices (else CodeError).  Returns (particular, null_basis) or None
    when inconsistent; the particular solution sets all free variables
    to 0."""
    A, b = np.asarray(A), np.asarray(b)
    if A.ndim != 2:
        raise CodeError(f"the matrix of a linear system must be 2-D, got shape {A.shape}")
    if b.shape != (len(A),):
        raise CodeError(
            f"right-hand side must be a 1-D vector of length {len(A)}, got shape {b.shape}"
        )
    # rref checks the entries of [A | b]; only the dtypes are checked here,
    # as a bool or float operand would take the other's in the concatenation
    # (an empty A, say from [[], []], has no entry to check and becomes int16)
    if any(M.size and M.dtype.kind not in "iu" for M in (A, b)):
        raise CodeError(f"the entries of a linear system must be element indices 0..{gf.q - 1}")
    if not A.size:
        A = A.astype(np.int16)
    R, rank, pivots = rref(gf, np.concatenate([A, b[:, None]], axis=1))
    x = _solution(R, rank, pivots)
    return None if x is None else (x, _null_basis(gf, R, pivots, A.shape[1]))


# -- the code object --------------------------------------------------------


def check_matrix_size(rows: int, cols: int, what: str) -> None:
    """CodeError when a rows x cols matrix would hold more than
    ``MATRIX_SIZE_CAP`` entries; called before the matrix is formed."""
    if rows * cols > MATRIX_SIZE_CAP:
        raise CodeError(
            f"the {what} would hold {rows} x {cols} entries, "
            f"more than the size cap {MATRIX_SIZE_CAP} (2^28)"
        )


def _elements(gf: GF, a, what: str, length: int | None = None) -> np.ndarray:
    """``a`` as an int16 array of element indices 0..q-1, else CodeError;
    with ``length``, ``a`` must be a 1-D vector of that length."""
    a = np.asarray(a)
    if length is not None and a.shape != (length,):
        raise CodeError(f"{what} must be a 1-D vector of length {length}, got shape {a.shape}")
    if a.size and (a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= gf.q):
        raise CodeError(f"{what} entries must be element indices 0..{gf.q - 1}")
    return a.astype(np.int16)


class LinearCode:
    """A k-dimensional length-n code given by a full-rank generator matrix.

    Rank-deficient input is accepted: the row space is reduced to a basis
    and a warning is recorded.  Codes compare by identity.
    """

    gf: GF
    gen: np.ndarray
    n: int
    k: int
    d: int | None
    warnings: list[str]
    # N when the code is invariant under the rolls of its N x N coordinate
    # grid by construction: ``toric.build`` marks the codes on the torus
    # points in the fixed order, and a dual copies its primal's mark.  The
    # distance engine checks every other code itself (module docstring).
    _translation_grid: int | None = None

    def __init__(self, gf: GF, rows):
        self.gf = gf
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise CodeError("generator must be a 2-D matrix")
        self.warnings = []
        # rref checks the entries, once
        R, rank, pivots = rref(gf, rows)
        self._reduced = (R, pivots)
        if rank < rows.shape[0]:
            self.warnings.append(
                f"generator rows are dependent: rank {rank} < {rows.shape[0]}; reduced"
            )
            self.gen = R[:rank].copy()
        else:
            self.gen = rows.astype(np.int16)
        self.n = int(rows.shape[1])
        self.k = int(rank)
        self.d = None

    @cached_property
    def _reduced(self) -> tuple[np.ndarray, list[int]]:
        """(R, pivots): the reduced echelon form of a matrix with the row
        space of ``gen`` (its first k rows are that of ``gen``) and its
        pivot columns.  ``__init__`` keeps the reduction it made; a dual
        reduces its generator the first time this is read."""
        R, _, pivots = rref(self.gf, self.gen)
        return R, pivots

    def dual(self) -> "LinearCode":
        """The (n-k)-dimensional annihilator code; G @ H^T = 0.  Its
        generator is the null basis of this code's reduced form; one of
        more than ``MATRIX_SIZE_CAP`` entries is CodeError."""
        if self.k == 0:
            raise CodeError("dual of the zero-dimensional code is everything")
        check_matrix_size(self.n - self.k, self.n, "dual generator")
        R, pivots = self._reduced
        code = LinearCode._of_null_basis(self.gf, _null_basis(self.gf, R, pivots, self.n))
        # a coordinate permutation fixes a code exactly when it fixes its dual
        code._translation_grid = self._translation_grid
        if self.k == self.n:
            code.warnings.append("dual of the full space is the zero code")
        return code

    @classmethod
    def _of_null_basis(cls, gf: GF, basis: np.ndarray) -> "LinearCode":
        """The code whose generator is ``basis``, a fresh int16 array from
        ``_null_basis``, taken as it is; ``dual`` is its only caller.  Its
        entries are 1s and entries of ``gf.neg_table``, so element indices,
        and each row is the only one nonzero in its free column, so its
        rank is its row count: ``__init__``'s range check and rank pass
        would find nothing.  Every other matrix goes through ``__init__``."""
        code = cls.__new__(cls)
        code.gf, code.gen = gf, basis
        code.n, code.k = basis.shape[1], basis.shape[0]
        code.d, code.warnings = None, []
        return code

    def syndrome(self, v) -> np.ndarray:
        """Inner products of v with each generator row; v lies in the dual
        of this code iff the syndrome vanishes."""
        return matvec(self.gf, self.gen, _elements(self.gf, v, "vector", self.n))

    def codeword(self, message) -> np.ndarray:
        """Encode a length-k message vector."""
        return matvec(self.gf, self.gen.T, _elements(self.gf, message, "message", self.k))

    def __repr__(self) -> str:
        d = self.d if self.d is not None else "?"
        return f"LinearCode[n={self.n}, k={self.k}, d={d}] over {self.gf!r}"


# -- minimum distance: exhaustive engine ------------------------------------


@dataclass
class WeightReport:
    d: int
    witness: np.ndarray | None  # None only when a budget stopped the search before any word
    method: str
    work: int
    exact: bool = True
    lower: int | None = None
    upper: int | None = None


def _lexmin(words: np.ndarray) -> np.ndarray:
    """The lexicographically least row.  Big-endian element indices compare
    as byte strings in that order, so one argmin over the rows as strings
    finds it (an order of magnitude faster than a lexsort over n keys)."""
    keys = np.ascontiguousarray(words, dtype=">u2").view(f"S{2 * words.shape[1]}")
    # a copy: a view would keep every word of the block alive
    return words[np.argmin(keys[:, 0])].copy()


def _nearest(
    gf: GF, X: np.ndarray, T: np.ndarray, bound: int
) -> tuple[int, np.ndarray | None, int]:
    """(least weight, the packed words at that weight, word count) of the
    words x - t for x in X and t in T, packed words one per column; the
    words are None when the least weight is above ``bound``.

    The weights are distances (``GF.pdist``), the longer of X and T along
    the inner axis, and only the words at the least weight are formed.
    Every table T of the engines is closed under negation, so x - t runs
    over the words x + t.  The engines call it under ``_run_tasks``: a
    broadcast whose inner axis is shorter than 4096 runs in chunks of up to
    numpy's ufunc buffer, and it runs faster in small ones (module
    docstring).
    """
    inner_x = X.shape[1] > T.shape[1]
    if inner_x:
        D = gf.pdist(X[:, None, :], T[:, :, None])
    else:
        D = gf.pdist(X[:, :, None], T[:, None, :])
    w = int(D.min())
    if w > bound:
        return w, None, D.size
    i, j = np.divmod(np.flatnonzero(D == w), D.shape[1])  # faster than a 2-D nonzero
    xi, ti = (j, i) if inner_x else (i, j)
    return w, gf.psub(X[:, xi], T[:, ti]), D.size


def _reduce_results(results, best_w=None, ties=None, work=0):
    """Order-independent min-reduce of (weight, packed ties, count) results
    to the least weight and every packed tie at it: a smaller weight
    replaces the ties, an equal one extends them; results without ties only
    add their work."""
    for w, cand, count in results:
        work += count
        if cand is None:
            continue
        if ties is None or w < best_w:
            best_w, ties = w, cand
        elif w == best_w:
            ties = np.concatenate([ties, cand], axis=1)
    return best_w, ties, work


def _zero_runs(zero: np.ndarray) -> np.ndarray:
    """The length of the cyclic run of True that starts at each position of
    each row of ``zero``; every row holds a False."""
    N = zero.shape[1]
    falses = np.where(np.concatenate([zero, zero], axis=1), 2 * N, np.arange(2 * N))
    return np.minimum.accumulate(falses[:, ::-1], axis=1)[:, ::-1][:, :N] - np.arange(N)


def _witness(gf: GF, ties: np.ndarray, n: int, N: int | None = None,
             pivots: np.ndarray | None = None, w: int | None = None) -> np.ndarray:
    """The lex-min word among the packed ties or, with N (the side of the
    coordinate grid of a translation-invariant code), among every torus
    translate of every tie; with the pivots of a restricted last level w,
    among the scaled translates that restore its witness; the ties are then
    codewords with a translate of information weight at most w, as the
    words a search enumerates are.  The candidates are narrowed before any
    translate is formed (module docstring).  A block holds at most
    max(2^18, n) entries of ties or survivors, and max(2^18, N n) of
    rotated rows or max(2^18, k n) of pivot entries, k = len(pivots)."""
    step = max(1, _PRODUCT_BLOCK // n)
    per = step if N is None else max(1, step // max(N, 0 if pivots is None else len(pivots)))
    minima = []
    for s in range(0, ties.shape[1], per):
        words = gf.unpack(ties[:, s : s + per], n)
        if N is None:
            minima.append(_lexmin(words))
            continue
        grid = words.reshape(-1, N, N)
        scales = np.zeros((len(words), gf.q), dtype=bool)  # scales[c, lam]
        if pivots is None:
            scales[:, 1] = True  # the element 1
        else:  # from each translate's entries at the pivot columns
            pi, pj = np.divmod(pivots, N)
            a, b = np.arange(N)[:, None, None], np.arange(N)[:, None]
            info = words[:, ((pi - a) % N * N + (pj - b) % N).reshape(n, -1)]
            nz = info != 0
            lead = np.take_along_axis(info, nz.argmax(axis=2)[..., None], axis=2)[..., 0]
            ok = nz.sum(axis=2) <= w
            scales[np.nonzero(ok)[0], gf.inv_table[lead[ok]]] = True
        # translate (a, b) holds grid row (i - a) mod N as its row i, and
        # entry (j - b) mod N of a row as its entry j: candidate (c, r, t,
        # lam) is tie c's translate (-r, -t), scaled by lam
        runs = _zero_runs(~grid.any(axis=2))
        L = runs.max()
        c, r = np.nonzero(runs == L)
        first = grid[c, (r + L) % N]  # each candidate's first nonzero row
        runs = _zero_runs(first == 0)
        z = runs.max()
        i, t = np.nonzero(runs == z)
        e, lam = np.nonzero(scales[c[i]])
        v = gf.mul_table[lam, first[i[e], (t[e] + z) % N]]  # the first nonzero entry
        e, lam = e[v == v.min()], lam[v == v.min()]
        i, t, at = i[e], t[e], np.arange(N)
        rows = gf.mul_table[lam[:, None], first[i[:, None], (t[:, None] + at) % N]]
        keep = (rows == _lexmin(rows)).all(axis=1)
        c, r, t, lam = c[i[keep]], r[i[keep]], t[keep], lam[keep]
        for u in range(0, len(lam), step):
            b = slice(u, u + step)  # translate (-r, -t) of tie c, formed in full
            V = grid[c[b, None, None], (r[b, None, None] + at[:, None]) % N, (t[b, None, None] + at) % N]
            minima.append(_lexmin(gf.mul_table[lam[b, None], V.reshape(-1, n)]))
    return _lexmin(np.array(minima))


def check_work_budget(work_budget) -> int | None:
    """``work_budget`` if it is None (no budget) or an integer >= 1, else
    CodeError."""
    return None if work_budget is None else _positive(work_budget, "work budget", CodeError)


def _run_tasks(fn, tasks, best_w=None, ties=None, work=0):
    """``_reduce_results`` over fn of each task, in task order, under a
    ufunc buffer of ``_LEAF_BUFSIZE`` elements (module docstring); the
    caller's buffer size is restored on return."""
    with np.errstate():
        np.setbufsize(_LEAF_BUFSIZE)
        return _reduce_results(map(fn, tasks), best_w, ties, work)


def _span_table(gf: GF, multiples: np.ndarray) -> np.ndarray:
    """The packed words sum_t c_t r_t over every choice of the c_t, one per
    column, from the multiples (word, r, q) of r rows; the last row is the
    fastest digit, so the first q^s words span the last s rows."""
    S = np.zeros((len(multiples), 1), dtype=gf.packed_dtype)
    for t in reversed(range(multiples.shape[1])):
        S = gf.padd(multiples[:, t, :, None], S[:, None, :]).reshape(len(S), -1)
    return S


def min_distance_exhaustive(code: LinearCode, work_cap: int = 2_000_000_000) -> WeightReport:
    """Exact d by enumerating one representative per projective message
    class (first nonzero message symbol = 1).

    Messages are scanned in vectorized blocks of packed words: a shared
    suffix table covers the trailing rows, a block per task the rows above
    it, and short odometer prefixes the rest.  The result is a
    deterministic min-reduce.  ``work_cap`` must be an integer >= 1, else
    CodeError.
    """
    gf, G, k, n = code.gf, code.gen, code.k, code.n
    q = gf.q
    work_cap = _positive(work_cap, "work cap", CodeError)
    if k == 0:
        raise CodeError("empty code has no minimum distance")
    # the count is compared, never formatted: it may have more digits than
    # Python converts to a string
    if (q**k - 1) // (q - 1) > work_cap:
        raise WorkCapExceeded(f"{q}^{k}/({q} - 1) messages exceed the work cap {work_cap}")

    # every multiple c * row, scaled once from the packed rows (word, k, q).
    # The suffix table spans the last v rows in at most _SUFFIX_WORDS words,
    # the block table the b rows above them, with q^(b+v) <= _PRODUCT_BLOCK;
    # each task's block adds the block table to one odometer prefix (module
    # docstring)
    multiples = gf.pscale(gf.pack(G), np.arange(q))
    v = 0
    while v + 1 <= k - 1 and q ** (v + 1) <= _SUFFIX_WORDS:
        v += 1
    b = 0
    while v + b + 1 <= k - 1 and q ** (v + b + 1) <= _PRODUCT_BLOCK:
        b += 1
    S = _span_table(gf, multiples[:, k - v :])
    B = _span_table(gf, multiples[:, k - v - b : k - v])

    def tasks():
        for j in range(k):
            odometer = max(0, k - 1 - j - v - b)
            yield from ((j, combo) for combo in itertools.product(range(q), repeat=odometer))

    def run(task):
        j, combo = task
        prefix = multiples[:, j, 1:2]  # row j, then the odometer rows
        for t, c in enumerate(combo, j + 1):
            prefix = gf.padd(prefix, multiples[:, t, c : c + 1])
        free = k - 1 - j
        # the first q^r words of either table span its last r rows
        block = gf.padd(prefix, B[:, : q ** min(max(0, free - v), b)])
        return _nearest(gf, block, S[:, : q ** min(free, v)], n)

    best_w, ties, work = _run_tasks(run, tasks())
    return WeightReport(d=best_w, witness=_witness(gf, ties, n), method="exhaustive", work=work)


# -- minimum distance: information-set (Brouwer-Zimmermann) engine ----------


def _pair_table(gf: GF, scaled: np.ndarray, first: int) -> np.ndarray:
    """The packed words u r_s + v r_t for rows first <= s < t and units u,
    v, one per column, from the unit multiples ``scaled`` (word, k, q-1) of
    the rows.  The words of each s lie after those of s - 1, so the words
    with s >= start are a suffix; with u and v every word's negative is in
    the table."""
    words = len(scaled)
    return np.concatenate(
        [
            gf.padd(scaled[:, s, :, None, None], scaled[:, None, s + 1 :, :]).reshape(words, -1)
            for s in range(first, scaled.shape[1] - 1)
        ],
        axis=1,
    )


def _systematic_generators(code: LinearCode) -> Iterator[tuple[np.ndarray, int]]:
    """Row-reduced generators of ``code`` systematic on pairwise disjoint
    column sets, computed lazily.

    Yields (matrix, rank_of_its_set); ranks are k for the first sets and may
    drop for the last one(s).  The first matrix is the code's reduced
    echelon form, R[:k] of ``code._reduced``; the later ones reduce ``gen``
    with the columns used so far scanned last.
    """
    gf, G = code.gf, code.gen
    k, n = G.shape
    R, pivots = code._reduced
    used = set(pivots)
    yield R[:k], len(pivots)
    while len(used) < n:
        order = [c for c in range(n) if c not in used] + [c for c in range(n) if c in used]
        R, rank, pivots = rref(gf, G, col_order=order)
        new_pivots = [c for c in pivots if c not in used]
        if not new_pivots:
            break
        used.update(new_pivots)
        yield R, len(new_pivots)


def _torus_translations(gf: GF, R: np.ndarray) -> int | None:
    """N = q-1, the side of the coordinate grid, when the code with
    full-rank reduced echelon generator R is invariant under the (q-1)^2
    torus translations; else None.  ``min_distance_infoset`` runs it on
    every code that ``toric.build`` did not mark invariant.

    Coordinate i N + j is the torus point (a^i, a^j); a translation
    (t1, t2) -> (s1 t1, s2 t2) rolls this N x N grid.  The rolls by one
    step along each axis generate the group, so the code is invariant when
    both map every row of R into its row space: a row space word x equals
    x[pivots] @ R.  The pivot columns of R are the identity, so that holds
    on them for any x, and only the n - k other columns are compared.
    """
    N, n = gf.q - 1, R.shape[1]
    if N < 2 or n != N**2:
        return None
    pivots = np.argmax(R != 0, axis=1)  # each row's leading entry
    others = np.ones(n, dtype=bool)
    others[pivots] = False
    grid = np.arange(n).reshape(N, N)
    for axis in (0, 1):
        V = R[:, np.roll(grid, 1, axis=axis).ravel()]
        if not np.array_equal(V[:, others], matmul(gf, V[:, pivots], R[:, others])):
            return None
    return N


def min_distance_infoset(
    code: LinearCode,
    work_budget: int | None = None,
) -> WeightReport:
    """Exact d via enumeration of bounded information-weight codewords in
    systematic generators over disjoint information sets.

    After finishing information weight w, every unseen codeword has weight
    at least sum_j max(0, (w+1) - (k - rank_j)), which certifies the lower
    bound; the search stops when it reaches the best weight found.  A code
    invariant under the torus translations enumerates its first matrix only
    and certifies ceil(n (w+1) / k) instead (module docstring), with the
    witness the lex-min over the translates of its lightest words.  Level w
    enumerates (active matrices) * C(k, w) * (q-1)^(w-1) words, except the
    restricted level of the translation path: a level w >= 2 with
    (k-1) best < n w, best the least weight found so far, enumerates only the
    C(k-1, w-1) (q-1)^(w-1) words through row 0, certifies ceil(n w / (k-1))
    and ends the search.  A level that would take ``work`` past
    ``work_budget`` is not started, and the report is the certified
    [lower, upper] interval of the last finished level.
    """
    gf, k, n = code.gf, code.k, code.n
    q = gf.q
    work_budget = check_work_budget(work_budget)
    if k == 0:
        raise CodeError("empty code has no minimum distance")
    generators = _systematic_generators(code)
    first = next(generators)
    # the side of the coordinate grid whose translations fix the code, or None
    N = code._translation_grid or _torus_translations(gf, first[0])
    mats = [first] if N is not None else [first, *generators]
    deficits = [k - rank for _, rank in mats]

    # each matrix packed once: its rows (word, k), and from the second level
    # on the q-1 unit multiples of each row (word, k, q-1), scaled from them
    units = np.array(gf.units(), dtype=np.int16)
    rows = [gf.pack(R) for R, _ in mats]
    multiples: list[np.ndarray | None] = [None] * len(mats)
    # from level 3 on, each matrix's pair table over the rows from
    # pair_first on: it holds pair_sizes[s] words from row s on, and
    # pair_first is the first row whose words fit the matrix's share of the
    # cap.  The zero word is the table of levels 1 and 2.
    pairs: list[np.ndarray | None] = [None] * len(mats)
    pair_words = _PAIR_LEAF_BYTES // (rows[0][:, 0].nbytes * len(mats))
    pair_sizes = [math.comb(k - s, 2) * (q - 1) ** 2 for s in range(k + 1)]
    pair_first = next(s for s in range(k + 1) if pair_sizes[s] <= pair_words)
    zero = np.zeros((len(rows[0]), 1), dtype=gf.packed_dtype)
    best_w = n + 1
    work = 0
    kept: np.ndarray | None = None  # the packed ties at best_w of every level

    # a matrix may be dropped from the enumeration, but then its term is
    # forfeited for the rest of the search (the bound requires enumeration
    # at every completed weight).  Drop exactly those matrices that cannot
    # contribute by the stopping level projected from the current upper
    # bound: their terms are zero there, so the projection is unchanged.
    active = [True] * len(mats)

    def bound(w_: int) -> int:
        """The certified lower bound once information weight w_ is done."""
        if N is not None:
            return -(-n * (w_ + 1) // k)
        return sum(max(0, (w_ + 1) - dft) for dft, on in zip(deficits, active) if on)

    lower = bound(0)
    for w in range(1, k + 1):
        w_star = next((w_ for w_ in range(1, k + 1) if bound(w_) >= best_w), k)
        for j, dft in enumerate(deficits):
            if active[j] and (w_star + 1) - dft <= 0:
                active[j] = False
        # the restricted last level of the translation path (module docstring)
        restricted = N is not None and w >= 2 and (k - 1) * best_w < n * w
        if restricted:
            cost = math.comb(k - 1, w - 1) * (q - 1) ** (w - 1)
        else:
            cost = sum(active) * math.comb(k, w) * (q - 1) ** (w - 1)
        if work_budget is not None and work + cost > work_budget:
            upper = min(best_w, n)
            witness = None if kept is None else _witness(gf, kept, n, N)
            return WeightReport(
                upper, witness, "information-set", work, exact=False, lower=lower, upper=upper
            )

        # levels 1 and 2 weigh their words themselves against the zero word:
        # every row of a matrix, or a block of pair words r_s + u r_t formed
        # in one broadcast.  From level 3 on, a depth-first support
        # enumeration with prefix-shared packed blocks: extending a support
        # adds the q-1 unit multiples of the new row to every word of the
        # block, and a leaf weighs the block against the table of its last
        # one or two rows (module docstring); a task starts at one row s0.
        # A task keeps a leaf's packed ties only when its least weight is at
        # most the task's best so far, which starts at the best weight of
        # the earlier levels; the ties join those of the earlier levels and
        # are unpacked once, when the search ends.
        level_best = best_w

        def leaf(task):
            X, scaled, s, t = task
            if scaled is not None:
                X = gf.padd(X[:, s, None], scaled[:, t]).reshape(len(X), -1)
            return _nearest(gf, X, zero, level_best)

        def run(task):
            block, start, scaled, pair_table = task
            state = (level_best, None, 0)

            def rec(start, block, remaining):
                nonlocal state
                if remaining == 1:
                    T = scaled[:, start:].reshape(len(scaled), -1)
                elif remaining == 2 and block.shape[1] * pair_sizes[start] <= pair_words:
                    T = pair_table[:, -pair_sizes[start] :]
                else:
                    for s in range(start, k - remaining + 1):
                        child = gf.padd(block[:, None, :], scaled[:, s, :, None])
                        rec(s + 1, child.reshape(len(child), -1), remaining - 1)
                    return
                state = _reduce_results([_nearest(gf, block, T, state[0])], *state)

            rec(start, block, w - 1)
            return state

        tasks = []
        for j in range(len(mats)):
            if not active[j]:
                continue
            if w == 1:
                tasks.append((rows[j], None, None, None))
                continue
            if multiples[j] is None:
                multiples[j] = gf.pscale(rows[j], units)
            if w == 2:  # the pairs s < t, s = 0 on a restricted level, in lex order
                s, t = np.triu_indices(1 if restricted else k, 1, k)
                per = max(1, pair_words // (q - 1))
                for b in range(0, len(s), per):
                    sb, tb = s[b : b + per], t[b : b + per]
                    if sb[0] == sb[-1]:  # one row s: slices, with no gather
                        sb, tb = slice(sb[0], sb[0] + 1), slice(tb[0], tb[-1] + 1)
                    tasks.append((rows[j], multiples[j], sb, tb))
                continue
            if pairs[j] is None and pair_first < k - 1:
                pairs[j] = _pair_table(gf, multiples[j], pair_first)
            tasks.extend(
                (rows[j][:, s0 : s0 + 1], s0 + 1, multiples[j], pairs[j])
                for s0 in range(1 if restricted else k - w + 1)
            )
        best_w, kept, work = _run_tasks(leaf if w <= 2 else run, tasks, best_w, kept, work)
        if restricted:  # every word of weight at most best_w has been found
            pivots = np.argmax(mats[0][0] != 0, axis=1)
            return WeightReport(
                best_w, _witness(gf, kept, n, N, pivots, w),
                "information-set", work,
            )
        lower = bound(w)
        if lower >= best_w:
            break
    witness = _witness(gf, kept, n, N)
    return WeightReport(d=best_w, witness=witness, method="information-set", work=work)


def min_distance(
    code: LinearCode,
    method: str = "auto",
    work_budget: int | None = None,
) -> WeightReport:
    """Dispatch between the two engines under one work budget (codewords
    enumerated) that both honour before they start work; auto runs the
    exhaustive engine only when its cost, the number of projective messages,
    is at most EXHAUSTIVE_LIMIT and at most the budget."""
    if method not in METHODS:
        raise CodeError(f"unknown method {method!r}")
    work_budget = check_work_budget(work_budget)
    q, k = code.gf.q, code.k
    total = (q**k - 1) // (q - 1)
    if method == "auto":
        method = "exhaustive" if total <= min(EXHAUSTIVE_LIMIT, work_budget or total) else "infoset"
    if method == "exhaustive":
        cap = {} if work_budget is None else {"work_cap": work_budget}
        rep = min_distance_exhaustive(code, **cap)
    else:
        rep = min_distance_infoset(code, work_budget=work_budget)
    if rep.exact:
        code.d = rep.d
    return rep


# -- Reed-Muller baseline ----------------------------------------------------


def _rm_exponents(q: int, m: int, ell: int) -> list[tuple[int, ...]]:
    """Exponent tuples with total degree <= ell and per-variable degree
    <= q-1, graded-lex order."""
    exps = [
        e
        for e in itertools.product(range(min(q - 1, ell) + 1), repeat=m)
        if sum(e) <= ell
    ]
    exps.sort(key=lambda e: (sum(e), e))
    return exps


RM_SIZE_CAP = 1 << 16  # the most points q^m a Reed-Muller code is built on


def reed_muller(gf: GF, m: int, ell: int) -> LinearCode:
    """Evaluation code of all m-variate monomials of total degree <= ell
    (per-variable degree <= q-1) at every point of GF(q)^m."""
    q = gf.q
    m, ell = _integers((m, ell), "m and ell", CodeError)
    if m < 1 or ell < 0:
        raise CodeError("need m >= 1 and ell >= 0")
    n = q**m
    if n > RM_SIZE_CAP:
        raise CodeError(f"q^m = {q}^{m} exceeds the size cap {RM_SIZE_CAP}")
    # power table: POW[v, e] with 0^0 = 1
    emax = min(q - 1, ell)
    POW = np.zeros((q, emax + 1), dtype=np.int16)
    POW[:, 0] = 1
    for e in range(1, emax + 1):
        POW[:, e] = gf.vmul(POW[:, e - 1], np.arange(q, dtype=np.int16))
    pts = np.array(list(itertools.product(range(q), repeat=m)), dtype=np.int16)
    rows = []
    for e in _rm_exponents(q, m, ell):
        acc = np.ones(n, dtype=np.int16)
        for t in range(m):
            acc = gf.vmul(acc, POW[pts[:, t], e[t]])
        rows.append(acc)
    return LinearCode(gf, np.array(rows, dtype=np.int16))


def _rm_predicted_inputs(q, m, ell, error: type[ValueError] = CodeError) -> tuple[int, int, int]:
    """q, m and ell as Python ints (a numpy q would overflow in q^m);
    ``error`` unless q is a prime power and m >= 1 and 0 <= ell <= m(q-1)
    are integers."""
    try:
        p, e = prime_power(q)
    except FieldError as exc:
        raise error(str(exc)) from exc
    q = p**e
    m, ell = _integers((m, ell), "m and ell", error)
    if m < 1 or not 0 <= ell <= m * (q - 1):
        raise error(f"need m >= 1 and 0 <= ell <= m(q-1), got m = {m}, ell = {ell}")
    return q, m, ell


def rm_predicted_params(q: int, m: int, ell: int) -> tuple[int, int, int]:
    """Closed-form (n, k, d) for the Reed-Muller family: n = q^m,
    k = sum_j (-1)^j C(m, j) C(m + ell - q j, m) over 0 <= j <= min(m,
    ell / q), and d = (q-b) q^(m-a-1) for ell = a(q-1) + b with
    1 <= b <= q-1.  k counts the exponent vectors in [0, q-1]^m of total
    degree at most ell: by inclusion-exclusion over the j coordinates
    that exceed q-1, each term counts degree i <= ell by C(m-1 + i - q j,
    m-1), and the hockey-stick identity sums those over i.  The inputs
    are checked by ``_rm_predicted_inputs`` (CodeError).  The sum takes
    O(ell / q) big-integer binomials, so a caller with a size cap checks
    the cap first."""
    q, m, ell = _rm_predicted_inputs(q, m, ell)
    k = sum(
        (-1) ** j * math.comb(m, j) * math.comb(m + ell - q * j, m)
        for j in range(min(m, ell // q) + 1)
    )
    if ell == 0:
        a, b = -1, q - 1
    else:
        a = (ell - 1) // (q - 1)
        b = ell - a * (q - 1)
    d = (q - b) * q ** (m - a - 1)
    return q**m, k, d
