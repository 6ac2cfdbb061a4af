"""Linear codes over GF(q): exact row reduction, duals, syndromes, two
exact minimum-distance engines, and the Reed-Muller baseline family.

Matrices are numpy int16 arrays of element indices.  Row reduction is
exact and vectorized: each pivot eliminates its column from every other row
in one rank-1 update, and a null-space basis (hence a dual) is read off the
reduced form without a second reduction.  The exhaustive engine
enumerates one representative per projective message class; the
information-set engine is a Brouwer-Zimmermann-style search over systematic
generators on (maximally) disjoint information sets, maintaining a
certified lower bound until it meets the best weight found.

Both engines weigh codewords as packed words (``GF.pack``: bit planes for
p = 2 and 3, one byte per position otherwise) and keep them packed.  A leaf
of either engine is a block X of packed words and a table T that is closed
under negation, so the distances ``GF.pdist`` from each x to each t are the
weights of the words x + t.  The longer of X and T is the inner axis, and
only the words at the leaf's least weight are formed (x - t, ``GF.psub``).
The tables are:

- exhaustive engine: the first q^r words of its suffix table, which span
  the last r rows; each message prefix is a chain of packed adds of the
  multiples c r_i of the rows, packed once per search;
- information-set engine, level 1: the zero word, against every row of a
  matrix at once;
- one support row left: the unit multiples u r_s of the rows after the
  block's last;
- two support rows left: the pair table of the words u r_s + v r_t, s < t,
  from the rows after the block's last, when the block times those words
  holds at most a 1/m share of ``_PAIR_LEAF_BYTES`` (2 MB) of packed words,
  m the number of enumerated matrices.  The pair table is built once per
  matrix at level 3, over the rows from the first one whose pairs fit that
  share, so the m tables together hold at most 2 MB; a larger block
  recurses one row first.

A leaf hands on its words at its least weight; a smaller weight replaces
the words kept so far and an equal one joins them.  The witness is the
lex-min of these ties, taken once per finished information-set level and
once per exhaustive search, after one unpack unless the ties and their
translates exceed max(2^18, translates x n) entries; the lex-min of a union
is the lex-min of its parts' lex-mins, here one argmin over the rows as
byte strings.  Against leaves that added the whole block and then weighed
it, one pass over the 61 golden rows of the ``corpus`` benchmark went from
0.465 s to 0.273 s (``wall_s``, medians of 10 alternating runs each,
scaled), with the same d, method, work and witness on every row (2 vCPUs,
Python 3.11.7, numpy 2.4.6).

Torus translations.  When n = (q-1)^2, q >= 3, and the code is invariant
under the torus translations (t1, t2) -> (s1 t1, s2 t2) (checked on the
first reduced generator: rolling the (q-1) x (q-1) grid of coordinates one
step along each axis maps every row into the row space, compared on the
n - k non-pivot columns), the translation
group acts regularly on the coordinates and the engine enumerates its first
systematic matrix only, on information set I.  A word of information weight
at most w on a translate sI is the translate of a word of information weight
at most w on I, of the same weight.  So after level w every word that is not
a translate of an enumerated word has at least w+1 nonzeros on each of the n
translates of I; each coordinate lies in exactly k of them, so its weight is
at least ceil(n (w+1) / k) (ceil(n / k) before level 1).  The witness is the
lex-min over every translate of the least-weight words.  Every torus-only
code in the fixed point order qualifies, since a translation multiplies each
character by a constant; codes with orbit points, Reed-Muller codes and random codes keep the
disjoint information sets.  Over the 64 golden rows the work fell from
1.19 G to 0.13 G codewords and the record (49, 11, 28) from 0.42 s to
0.09 s (2 vCPUs, numpy 2.4.6), with equal d, interval and witness on every
row.

Products.  ``matmul`` is the one product kernel: ``matvec``, syndromes,
codewords and the decoder's brackets and candidate set all run through
it.  Per block of the inner axis it takes one broadcast ``vmul`` of shape
(rows, width, cols), one ``vsum`` over the width and one ``vadd`` into the
result, with width max(1, 2^18 // (rows cols)).  No temporary then holds more than
max(2^18, rows cols) entries: a small product is a single broadcast, and
one with rows cols > 2^18 runs one inner index at a time, as the column
loop it replaced did.  In ``decode``'s candidate step (null basis times
locator table) the kernel takes 22 us against 54 us for that loop on the
GF(8) boundary words of the README and 53 against 88 us on its GF(9) torus
words; a whole word goes from 171 to 147 us and from 265 to 241 us (best of
three runs of 300 words, 2 vCPUs, Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .field import GF, _is_integer


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

# the most bytes of packed words in the pair tables of one information-set
# search together: each of its m matrices has a share of 1/m, and a two-row
# leaf of that matrix, block times table suffix, holds at most that share
_PAIR_LEAF_BYTES = 1 << 21


# -- exact linear algebra ---------------------------------------------------


def rref(gf: GF, mat: np.ndarray, col_order=None) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form by exact field arithmetic.

    col_order optionally gives the column scan order (used to steer pivots
    into chosen information sets).  Returns (R, rank, pivot_columns).

    The columns are first permuted into scan order, so the pivot row is
    zero left of its pivot and each pivot costs one rank-1 update of the
    columns from the pivot on, over the rows that are nonzero there.
    """
    R = np.array(mat, dtype=np.int16, copy=True)
    if R.ndim != 2:
        raise CodeError("rref expects a 2-D matrix")
    rows, cols = R.shape
    scan = cols
    perm = None
    if col_order is not None:
        scan = len(col_order)
        perm = np.asarray(list(col_order), dtype=np.intp)
        unscanned = np.ones(cols, dtype=bool)
        unscanned[perm] = False
        perm = np.concatenate([perm, np.flatnonzero(unscanned)])
        R = R[:, perm]
    pivots: list[int] = []
    r = 0
    for c in range(scan):
        if r == rows:
            break
        nz = R[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        if R[r, c] != 1:
            R[r, c:] = gf.mul_table[gf.inv_table[R[r, c]], R[r, c:]]
        # every other row that is nonzero in column c adds -R[i, c] times
        # the pivot row
        factor = gf.neg_table[R[:, c]]
        factor[r] = 0
        other = factor.nonzero()[0]
        if other.size:
            R[other, c:] = gf.vadd(R[other, c:], gf.mul_table[factor[other]][:, R[r, c:]])
        pivots.append(c)
        r += 1
    if perm is not None:
        out = np.empty_like(R)
        out[:, perm] = R
        R = out
        pivots = [int(perm[c]) for c in pivots]
    return R, r, pivots


def _null_basis(gf: GF, R: np.ndarray, pivots: list[int], cols: int) -> np.ndarray:
    """Null-space basis of the first ``cols`` columns of a reduced matrix R
    with the given pivot columns: the vector for free column f has x_f = 1
    and x_p = -R[row of p, f] at each pivot p."""
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
    field sum, added into the result."""
    A = np.asarray(A, dtype=np.int16)
    B = np.asarray(B, dtype=np.int16)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise CodeError("length mismatch")
    (rows, inner), cols = A.shape, B.shape[1]
    width = max(1, _PRODUCT_BLOCK // max(1, rows * cols))
    out = None
    # an empty inner axis still takes one empty block, whose sum is zero
    for s in range(0, max(inner, 1), width):
        blk = slice(s, s + width)
        block = gf.vsum(gf.vmul(A[:, blk, None], B[None, blk]), axis=1)
        out = block if out is None else gf.vadd(out, block)
    return out


def matvec(gf: GF, A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v over the field: ``matmul`` on one column."""
    return matmul(gf, A, np.asarray(v)[:, None])[:, 0]


def solve(gf: GF, A: np.ndarray, b: np.ndarray):
    """Solve A x = b.  Returns (particular, null_basis) or None when
    inconsistent; the particular solution sets all free variables to 0."""
    A = np.asarray(A, dtype=np.int16)
    b = np.asarray(b, dtype=np.int16).reshape(-1)
    aug = np.concatenate([A, b[:, None]], axis=1)
    R, rank, pivots = rref(gf, aug)
    ncols = A.shape[1]
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = np.zeros(ncols, dtype=np.int16)
    x[pivots] = R[:rank, ncols]
    # R[:, :ncols] is the reduced form of A itself, so its null space needs
    # no second reduction
    return x, _null_basis(gf, R, pivots, ncols)


# -- the code object --------------------------------------------------------


def _rows_own_columns(M: np.ndarray) -> bool:
    """True when every row has a column in which it is the only nonzero
    entry.  Such rows are linearly independent, so their rank needs no
    elimination; a null-space basis and a systematic generator qualify."""
    nz = M != 0
    return bool(nz[:, nz.sum(axis=0) == 1].any(axis=1).all())


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

    def __init__(self, gf: GF, rows):
        self.gf = gf
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise CodeError("generator must be a 2-D matrix")
        rows = _elements(gf, rows, "generator")
        self.warnings = []
        self._reduced = None  # (R, pivots) of rows, hence of gen, for dual()
        if _rows_own_columns(rows):
            rank = rows.shape[0]
        else:
            R, rank, pivots = rref(gf, rows)
            self._reduced = (R, pivots)
        if rank < rows.shape[0]:
            self.warnings.append(
                f"generator rows are dependent: rank {rank} < {rows.shape[0]}; reduced"
            )
            self.gen = R[:rank].copy()
        else:
            self.gen = rows
        self.n = int(rows.shape[1])
        self.k = int(rank)
        self.d = None

    def dual(self) -> "LinearCode":
        """The (n-k)-dimensional annihilator code; G @ H^T = 0."""
        if self.k == 0:
            raise CodeError("dual of the zero-dimensional code is everything")
        if self._reduced is None:
            R, _, pivots = rref(self.gf, self.gen)
        else:
            R, pivots = self._reduced
        code = LinearCode(self.gf, _null_basis(self.gf, R, pivots, self.n))
        if self.k == self.n:
            code.warnings.append("dual of the full space is the zero code")
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
    over the words x + t.
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


def _witness(gf: GF, ties: np.ndarray, n: int, translations: np.ndarray | None = None):
    """The lex-min word among the packed ties or, with ``translations`` (one
    coordinate permutation per row), among every translate of every tie.
    It unpacks the ties in blocks whose words, with their T translates
    each (T = 1 without), hold at most max(_PRODUCT_BLOCK, T n) entries,
    and takes the lex-min of the block minima."""
    T = 1 if translations is None else len(translations)
    per = max(1, _PRODUCT_BLOCK // (T * n))
    minima = []
    for s in range(0, ties.shape[1], per):
        words = gf.unpack(ties[:, s : s + per], n)
        if translations is not None:
            words = np.take(words, translations, axis=1).reshape(-1, n)
        minima.append(_lexmin(words))
    return _lexmin(np.array(minima))


def _positive(value, what: str) -> int:
    if not _is_integer(value) or value < 1:
        raise CodeError(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


def check_workers(workers) -> int:
    """``workers`` if it is an integer >= 1, else CodeError."""
    return _positive(workers, "workers")


def check_work_budget(work_budget) -> int | None:
    """``work_budget`` if it is None (no budget) or an integer >= 1, else
    CodeError."""
    return None if work_budget is None else _positive(work_budget, "work budget")


def _run_tasks(fn, tasks, workers: int):
    """fn over the tasks, in task order; a pool starts no more threads than
    there are tasks or processors, and one worker streams the tasks."""
    if workers > 1:
        tasks = list(tasks)
        workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, tasks)
        return
    import concurrent.futures as cf

    with cf.ThreadPoolExecutor(max_workers=workers) as ex:
        yield from ex.map(fn, tasks)


def min_distance_exhaustive(
    code: LinearCode, work_cap: int = 2_000_000_000, workers: int = 1
) -> WeightReport:
    """Exact d by enumerating one representative per projective message
    class (first nonzero message symbol = 1).

    Messages are scanned in vectorized blocks of packed words: a shared
    suffix table covers the trailing rows, short odometer prefixes cover
    the rest.  The result is a deterministic min-reduce, identical for any
    worker count.
    """
    gf, G, k, n = code.gf, code.gen, code.k, code.n
    q = gf.q
    workers = check_workers(workers)
    if k == 0:
        raise CodeError("empty code has no minimum distance")
    total = (q**k - 1) // (q - 1)
    if total > work_cap:
        raise WorkCapExceeded(
            f"{total} projective messages exceed the work cap {work_cap}"
        )

    # every multiple c * row, packed once (word, q, k); the packed suffix
    # table over the last v rows, last row = fastest digit; a block holds at
    # most 2^18 messages
    multiples = gf.pack(gf.mul_table[:, G])
    v = 0
    while v + 1 <= k - 1 and q ** (v + 1) <= 1 << 18:
        v += 1
    S = np.zeros((len(multiples), 1), dtype=gf.packed_dtype)
    for t in range(v):
        S = gf.padd(multiples[:, :, k - 1 - t, None], S[:, None, :]).reshape(len(S), -1)

    def tasks():
        for j in range(k):
            free = k - 1 - j
            if free <= v:
                yield (j, ())
            else:
                yield from ((j, combo) for combo in itertools.product(range(q), repeat=free - v))

    def run(task):
        j, combo = task
        prefix = multiples[:, 1, j : j + 1]  # row j, then the odometer rows
        for t, c in enumerate(combo, j + 1):
            prefix = gf.padd(prefix, multiples[:, c, t : t + 1])
        rows = q ** min(k - 1 - j, v)
        # the first q^r suffixes span the last r rows: a subspace
        return _nearest(gf, prefix, S[:, :rows], n)

    best_w, ties, work = _reduce_results(_run_tasks(run, tasks(), workers))
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


def _systematic_generators(gf: GF, G: np.ndarray) -> Iterator[tuple[np.ndarray, int]]:
    """Row-reduced generators systematic on pairwise disjoint column sets,
    computed lazily.

    Yields (matrix, rank_of_its_set); ranks are k for the first sets and may
    drop for the last one(s).  The first matrix is G's reduced echelon form.
    """
    k, n = G.shape
    used: set[int] = set()
    while len(used) < n:
        order = [c for c in range(n) if c not in used] + [c for c in range(n) if c in used]
        R, rank, pivots = rref(gf, G, col_order=order)
        new_pivots = [c for c in pivots if c not in used]
        if not new_pivots:
            break
        used.update(new_pivots)
        yield R, len(new_pivots)


def _torus_translations(gf: GF, R: np.ndarray) -> np.ndarray | None:
    """The coordinate permutations of all (q-1)^2 torus translations, one
    per row, when the code with full-rank reduced echelon generator R is
    invariant under them; else None.

    Coordinate i (q-1) + j is the torus point (a^i, a^j); a translation
    (t1, t2) -> (s1 t1, s2 t2) rolls this (q-1) x (q-1) grid.  The rolls by
    one step along each axis generate the group, so the code is invariant
    when both map every row of R into its row space: a row space word x
    equals x[pivots] @ R.  The pivot columns of R are the identity, so that
    holds on them for any x, and only the n - k other columns are compared.
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
    # row a N + b is the grid rolled by (a, b): its entry i N + j is
    # ((i - a) mod N) N + (j - b) mod N
    shift = (np.arange(N)[None, :] - np.arange(N)[:, None]) % N  # shift[a, i]
    return (shift[:, None, :, None] * N + shift[None, :, None, :]).reshape(n, n)


def min_distance_infoset(
    code: LinearCode,
    work_budget: int | None = None,
    workers: int = 1,
) -> WeightReport:
    """Exact d via enumeration of bounded information-weight codewords in
    systematic generators over disjoint information sets.

    After finishing information weight w, every unseen codeword has weight
    at least sum_j max(0, (w+1) - (k - rank_j)), which certifies the lower
    bound; the search stops when it reaches the best weight found.  A code
    invariant under the torus translations enumerates its first matrix only
    and certifies ceil(n (w+1) / k) instead (module docstring), with the
    witness the lex-min over the translates of its lightest words.  Level w
    enumerates (active matrices) * C(k, w) * (q-1)^(w-1) words; a level that
    would take ``work`` past ``work_budget`` is not started, and the report
    is the certified [lower, upper] interval of the last finished level.
    """
    gf, G, k, n = code.gf, code.gen, code.k, code.n
    q = gf.q
    workers = check_workers(workers)
    work_budget = check_work_budget(work_budget)
    if k == 0:
        raise CodeError("empty code has no minimum distance")
    generators = _systematic_generators(gf, G)
    first = next(generators)
    translations = _torus_translations(gf, first[0])
    mats = [first] if translations is not None else [first, *generators]
    deficits = [k - rank for _, rank in mats]

    # each matrix packed once: its rows (word, k), and from the second level
    # on the q-1 unit multiples of each row (word, k, q-1)
    units = np.array(gf.units(), dtype=np.int16)
    rows = [gf.pack(R) for R, _ in mats]
    multiples: list[np.ndarray | None] = [None] * len(mats)
    # from level 3 on, each matrix's pair table over the rows from
    # pair_first on: it holds pair_sizes[s] words from row s on, and
    # pair_first is the first row whose words fit the matrix's share of the
    # cap.  The zero word is the table of level 1.
    pairs: list[np.ndarray | None] = [None] * len(mats)
    pair_words = _PAIR_LEAF_BYTES // (rows[0][:, 0].nbytes * len(mats))
    pair_sizes = [math.comb(k - s, 2) * (q - 1) ** 2 for s in range(k + 1)]
    pair_first = next(s for s in range(k + 1) if pair_sizes[s] <= pair_words)
    zero = np.zeros((len(rows[0]), 1), dtype=gf.packed_dtype)
    best_w = n + 1
    witness: np.ndarray | None = None
    work = 0

    # a matrix may be dropped from the enumeration, but then its term is
    # forfeited for the rest of the search (the bound requires enumeration
    # at every completed weight).  Drop exactly those matrices that cannot
    # contribute by the stopping level projected from the current upper
    # bound: their terms are zero there, so the projection is unchanged.
    active = [True] * len(mats)

    def bound(w_: int) -> int:
        """The certified lower bound once information weight w_ is done."""
        if translations is not None:
            return -(-n * (w_ + 1) // k)
        return sum(max(0, (w_ + 1) - dft) for dft, on in zip(deficits, active) if on)

    lower = bound(0)
    for w in range(1, k + 1):
        w_star = next((w_ for w_ in range(1, k + 1) if bound(w_) >= best_w), k)
        for j, dft in enumerate(deficits):
            if active[j] and (w_star + 1) - dft <= 0:
                active[j] = False
        cost = sum(active) * math.comb(k, w) * (q - 1) ** (w - 1)
        if work_budget is not None and work + cost > work_budget:
            upper = min(best_w, n)
            return WeightReport(
                upper, witness, "information-set", work, exact=False, lower=lower, upper=upper
            )

        # depth-first support enumeration with prefix-shared packed blocks:
        # extending a support adds the q-1 unit multiples of the new row to
        # every word of the block, and a leaf weighs the block against the
        # table of its last one or two rows (module docstring).  A task
        # starts at one row s0, or at level 1 at every row of a matrix.  It
        # keeps a leaf's packed ties only when its least weight is at most
        # the task's best so far, which starts at the best weight of the
        # earlier levels; the level's ties are unpacked after every task has
        # run, so the result is the same for any worker count.
        level_best = best_w

        def run(task):
            block, start, scaled, pair_table = task
            state = (level_best, None, 0)

            def rec(start, block, remaining):
                nonlocal state
                if remaining == 0:
                    T = zero
                elif remaining == 1:
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
        for j, (R, _rank) in enumerate(mats):
            if not active[j]:
                continue
            if w == 1:  # one leaf: every row against the zero word
                tasks.append((rows[j], k, None, None))
                continue
            if multiples[j] is None:
                multiples[j] = gf.pack(gf.mul_table[units][:, R].transpose(1, 0, 2))
            if w > 2 and pairs[j] is None and pair_first < k - 1:
                pairs[j] = _pair_table(gf, multiples[j], pair_first)
            tasks.extend(
                (rows[j][:, s0 : s0 + 1], s0 + 1, multiples[j], pairs[j]) for s0 in range(k - w + 1)
            )
        level_w, ties, work = _reduce_results(_run_tasks(run, tasks, workers), best_w, None, work)
        if ties is not None:
            cand = _witness(gf, ties, n, translations)
            if witness is None or level_w < best_w or tuple(cand) < tuple(witness):
                best_w, witness = level_w, cand
        lower = bound(w)
        if lower >= best_w:
            break
    return WeightReport(d=best_w, witness=witness, method="information-set", work=work)


def min_distance(
    code: LinearCode,
    method: str = "auto",
    workers: int = 1,
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
        rep = min_distance_exhaustive(code, workers=workers, **cap)
    else:
        rep = min_distance_infoset(code, work_budget=work_budget, workers=workers)
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
    if m < 1 or ell < 0:
        raise CodeError("need m >= 1 and ell >= 0")
    n = q**m
    if n > RM_SIZE_CAP:
        raise CodeError(f"q^m = {n} exceeds the size cap {RM_SIZE_CAP}")
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


def rm_predicted_params(q: int, m: int, ell: int) -> tuple[int, int, int]:
    """Closed-form (n, k, d) for the Reed-Muller family: n = q^m, k from the
    alternating binomial double sum, d = (q-b) q^(m-a-1) for
    ell = a(q-1) + b with 1 <= b <= q-1."""
    if m < 1 or not 0 <= ell <= m * (q - 1):
        raise CodeError(f"need m >= 1 and 0 <= ell <= m(q-1), got m = {m}, ell = {ell}")
    k = 0
    for i in range(ell + 1):
        for j in range(i // q + 1):
            k += (-1) ** j * math.comb(m, j) * math.comb(m - 1 + i - q * j, m - 1)
    if ell == 0:
        a, b = -1, q - 1
    else:
        a = (ell - 1) // (q - 1)
        b = ell - a * (q - 1)
    d = (q - b) * q ** (m - a - 1)
    return q**m, k, d
