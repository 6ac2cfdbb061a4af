import itertools
import math

import numpy as np
import pytest

from toric_codes.field import GF
from toric_codes.geometry import torus_evaluation_matrix, torus_points
from toric_codes.codes import (
    MATRIX_SIZE_CAP,
    CodeError,
    LinearCode,
    WeightReport,
    WorkCapExceeded,
    _systematic_generators,
    _torus_translations,
    _witness,
    matmul,
    matvec,
    min_distance,
    min_distance_exhaustive,
    min_distance_infoset,
    null_space,
    reed_muller,
    rm_predicted_params,
    _null_basis,
    _rref,
    _solution,
    check_matrix_size,
    rref,
    solve,
)


def brute_force_distance(code):
    """Oracle: enumerate every nonzero message."""
    gf, G = code.gf, code.gen
    best = code.n + 1
    for msg in itertools.product(range(gf.q), repeat=code.k):
        if not any(msg):
            continue
        cw = matvec(gf, G.T, np.array(msg, dtype=np.int16))
        best = min(best, int(np.count_nonzero(cw)))
    return best


def random_code(gf, n, k, rng):
    while True:
        M = rng.integers(0, gf.q, size=(k, n)).astype(np.int16)
        code = LinearCode(gf, M)
        if code.k == k:
            return code


# -- rref / dual / syndrome ------------------------------------------------


def rref_reference(gf, mat, col_order=None):
    """The row-by-row elimination that rref replaced, kept as its oracle."""
    R = np.array(mat, dtype=np.int16, copy=True)
    rows, cols = R.shape
    order = range(cols) if col_order is None else col_order
    pivots = []
    r = 0
    for c in order:
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        piv = int(R[r, c])
        if piv != 1:
            R[r] = gf.vscale(gf.inv(piv), R[r])
        for i in np.nonzero(R[:, c])[0]:
            if i != r:
                R[i] = gf.vsub(R[i], gf.vscale(int(R[i, c]), R[r]))
        pivots.append(c)
        r += 1
    return R, r, pivots


def random_matrix(gf, rows, cols, rank, rng):
    """A rows x cols matrix of rank at most ``rank`` (a product of two
    random factors), so that dependent rows occur."""
    A = rng.integers(0, gf.q, size=(rows, rank)).astype(np.int16)
    B = rng.integers(0, gf.q, size=(rank, cols)).astype(np.int16)
    return matmul(gf, A, B)


# p = 2, prime p (GF(1021) the largest) and odd p^m; GF(3^5) and GF(7^3)
# have q^2 > 2^15, so their in-place adds index the add table in intp
ORACLE_FIELDS = [(2, 1), (2, 3), (2, 4), (2, 5), (5, 1), (7, 1), (23, 1), (1021, 1), (3, 2), (5, 2),
                 (3, 5), (7, 3)]


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_rref_matches_row_by_row_reference(p, m):
    gf = GF(p, m)
    rng = np.random.default_rng(1000 + 10 * p + m)
    shapes = [(1, 1), (3, 3), (4, 9), (9, 4), (6, 20), (12, 12), (20, 7)]
    for rows, cols in shapes:
        for rank in sorted({0, 1, min(rows, cols) // 2, min(rows, cols)}):
            M = random_matrix(gf, rows, cols, rank, rng)
            orders = [None, list(rng.permutation(cols)), list(rng.permutation(cols))[: cols // 2]]
            for order in orders:
                got = rref(gf, M, col_order=order)
                want = rref_reference(gf, M, col_order=order)
                assert np.array_equal(got[0], want[0])
                assert got[1:] == want[1:]
            # the in-place loop on a copy that is already element indices,
            # over every column and over the first half
            for scan in (None, cols // 2):
                R = M.astype(np.int16)
                got = _rref(gf, R, scan)
                want = rref(gf, M, col_order=None if scan is None else range(scan))
                assert np.array_equal(R, want[0]) and got == want[1:]


@pytest.mark.parametrize("p,m", ORACLE_FIELDS + [(2, 6)])
def test_rref_matches_reference_on_sparse_and_thin_matrices(p, m):
    """Sparse pivot columns take the gathered update, and block-diagonal
    ones update only their block; rows that are zero in the pivot column
    must come out unchanged."""
    gf = GF(p, m)
    rng = np.random.default_rng(3000 + 10 * p + m)
    cases = [rng.integers(0, gf.q, size=shape).astype(np.int16) for shape in [(1, 9), (9, 1), (1, 1)]]
    for rows, cols in [(6, 14), (14, 6), (10, 10)]:
        for density in (0.1, 0.3):
            M = random_matrix(gf, rows, cols, min(rows, cols), rng)
            cases.append(np.where(rng.random((rows, cols)) < density, M, 0).astype(np.int16))
        # block diagonal: every pivot column is zero outside its block
        B = np.zeros((rows, cols), dtype=np.int16)
        B[: rows // 2, : cols // 2] = rng.integers(0, gf.q, size=(rows // 2, cols // 2))
        B[rows // 2 :, cols // 2 :] = rng.integers(0, gf.q, size=(rows - rows // 2, cols - cols // 2))
        cases.append(B)
    cases.append(np.zeros((3, 5), dtype=np.int16))
    for M in cases:
        cols = M.shape[1]
        for order in [None, list(rng.permutation(cols)), list(rng.permutation(cols))[: (cols + 1) // 2]]:
            got = rref(gf, M, col_order=order)
            want = rref_reference(gf, M, col_order=order)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]


def spy_on_updates(gf):
    """Record the form of each pivot update of rref over ``gf``: "slab"
    when the rows are updated in place in R, "gathered" when a copy is."""
    forms = []

    def iadd(X, Y):
        forms.append("gathered" if X.flags.owndata else "slab")
        GF._iadd(gf, X, Y)

    gf._iadd = iadd
    return forms


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_rref_matches_reference_on_wide_and_tall_matrices(p, m):
    """Wide rank-k matrices of the benchmark's shapes, whose pivots update
    slabs (over GF(2) some are under half full), and a tall sparse one whose
    pivot columns stay under half full, so that it reaches the gathered
    form."""
    gf = GF(p, m)
    forms = spy_on_updates(gf)
    rng = np.random.default_rng(4000 + 10 * p + m)
    for rows, cols in [(31, 961), (22, 484), (22, 624)]:
        M = rng.integers(0, gf.q, size=(rows, cols)).astype(np.int16)
        for order in [None, list(rng.permutation(cols))]:
            forms.clear()
            got = rref(gf, M, col_order=order)
            want = rref_reference(gf, M, col_order=order)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
            assert got[1] == rows and "slab" in forms
    M = rng.integers(0, gf.q, size=(3000, 16)).astype(np.int16)
    M[rng.random(M.shape) >= 0.04] = 0
    forms.clear()
    got = rref(gf, M)
    want = rref_reference(gf, M)
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
    assert "gathered" in forms


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_rref_slab_leaves_rows_with_a_zero_factor_unchanged(p, m):
    """One pivot, in column 0, whose nonzero rows are scattered: the slab
    from the first to the last row that needs an update holds rows that are
    zero in column 0, which must come out unchanged, as must the rows
    outside it; a span under half full takes the gathered form."""
    gf = GF(p, m)
    forms = spy_on_updates(gf)
    rng = np.random.default_rng(5000 + 10 * p + m)
    cases = [([2, 4, 5, 7, 8], "slab"), ([3, 4, 6], "slab"), ([1, 5, 6, 7, 9, 10], "slab"),
             ([0, 1, 11], "gathered")]
    for nonzero, form in cases:
        M = rng.integers(0, gf.q, size=(12, 9)).astype(np.int16)
        M[:, 0] = 0
        M[nonzero, 0] = rng.integers(1, gf.q, size=len(nonzero))
        forms.clear()
        R, rank, pivots = rref(gf, M, col_order=[0])
        assert (rank, pivots, forms) == (1, [0], [form])
        if nonzero[0]:  # the pivot row, swapped with row 0
            assert np.array_equal(R[nonzero[0]], M[0])
        zero = [i for i in range(1, 12) if i not in nonzero]
        assert np.array_equal(R[zero], M[zero])
        assert not R[1:, 0].any() and R[0, 0] == 1
        want = rref_reference(gf, M, col_order=[0])
        assert np.array_equal(R, want[0]) and (rank, pivots) == want[1:]


BAD_MATRICES = [
    pytest.param((7, 1), [[1.5, 2.0]], id="floats"),
    pytest.param((7, 1), np.array([[1, 2]], dtype=float), id="integral-floats"),
    pytest.param((7, 1), [[True, False], [False, True]], id="bools"),
    pytest.param((7, 1), [[-1, 3], [2, 5]], id="negative"),
    pytest.param((7, 1), [[1, 3], [2, 7]], id="q"),
    pytest.param((2, 3), [[9, 1]], id="above-q"),
]


@pytest.mark.parametrize("solve_fn", [rref, null_space])
@pytest.mark.parametrize("pm,mat", BAD_MATRICES)
def test_rref_and_null_space_refuse_entries_that_are_not_element_indices(solve_fn, pm, mat):
    with pytest.raises(CodeError, match="element indices"):
        solve_fn(GF(*pm), mat)


@pytest.mark.parametrize("order", [[0, 0, 1], [-1], [5], [3], [0, 1, 2, 0], [2**70], [True], [1.0],
                                   "01", [[0, 1]], 7])
def test_rref_refuses_a_column_order_that_is_not_distinct_columns(order):
    """On a 3 x 3 identity over GF(8), a repeated column once gave a 3 x 4
    matrix of rank 2, -1 rank 1 with pivot -1, and 5 an IndexError: a
    column order must hold distinct integers 0..cols-1, else CodeError."""
    with pytest.raises(CodeError, match="column order"):
        rref(GF(2, 3), np.eye(3, dtype=np.int16), col_order=order)


def test_rref_takes_any_distinct_columns_as_its_order():
    """Part of the columns, none, a range, an index array and a numpy int:
    only the columns of the order are scanned, in its order, as the
    reference does."""
    gf = GF(2, 3)
    M = random_matrix(gf, 3, 5, 3, np.random.default_rng(73))
    for order in ([4, 0], [], range(5), np.array([3, 1, 2]), (np.int64(2),)):
        got = rref(gf, M, col_order=order)
        want = rref_reference(gf, M, col_order=order)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_dual_is_the_null_space_basis(p, m):
    gf = GF(p, m)
    rng = np.random.default_rng(2000 + 10 * p + m)
    for n, k in [(6, 1), (10, 4), (12, 9), (5, 5)]:
        M = random_matrix(gf, k + 1, n, k, rng)
        code = LinearCode(gf, M)
        assert code.k == rref(gf, M)[1]
        h = code.dual()
        assert (h.n, h.k) == (n, n - code.k) and h.k == rref(gf, h.gen)[1]
        assert np.array_equal(h.gen, null_space(gf, code.gen))
        assert not matmul(gf, code.gen, h.gen.T).any()
        assert bool(h.warnings) == (code.k == n)


def same_code(a, b):
    assert a.gen.dtype == b.gen.dtype == np.int16
    assert np.array_equal(a.gen, b.gen)
    assert (a.n, a.k, a.warnings) == (b.n, b.k, b.warnings)


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (2, 3), (3, 2), (5, 2)])
def test_dual_matches_the_checked_construction(p, m):
    """``dual()`` against the construction it replaced: the null basis of
    the primal's reduction through the public, checked ``LinearCode``."""
    gf = GF(p, m)
    rng = np.random.default_rng(3000 + 10 * p + m)
    shapes = [(7, 3, 3), (9, 5, 2), (12, 8, 6), (6, 6, 6), (5, 7, 5), (10, 1, 1), (8, 4, 0)]
    matrices = [random_matrix(gf, rows, n, rank, rng) for n, rows, rank in shapes]
    # a systematic generator
    matrices.append(np.hstack([np.eye(3, dtype=np.int16), rng.integers(0, gf.q, (3, 4), dtype=np.int16)]))
    for M in matrices:
        if not M.any():
            M[0, 0] = 1  # a zero code has no dual
        code, n = LinearCode(gf, M), M.shape[1]
        R, pivots = code._reduced
        oracle = LinearCode(gf, _null_basis(gf, R, pivots, n))
        if code.k == n:
            oracle.warnings.append("dual of the full space is the zero code")
        h = code.dual()
        same_code(h, oracle)
        assert not matmul(gf, code.gen, h.gen.T).any()
        assert not np.shares_memory(h.gen, R) and not np.shares_memory(h.gen, code.gen)
        if code.k < n:
            same_code(h.dual(), oracle.dual())


def reference_null_basis(gf, R, pivots, cols):
    """The null basis entry by entry: for the k-th free column f, in
    ascending order, x_f = 1 and x_p = -R[i, f] at the pivot p of row i."""
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int16)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, p in enumerate(pivots):
            basis[k, p] = gf.neg(int(R[i, f]))
    return basis


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (2, 3), (3, 2)])
def test_null_basis_and_dual_match_the_entrywise_definition(p, m):
    """``_null_basis``, which finds the free columns by one mask, against
    the definition on fixed-seed random reduced matrices, wide, tall and
    rank-deficient, also on the first columns of a consistent augmented
    system (the value system's case); ``dual()`` is that basis."""
    gf = GF(p, m)
    rng = np.random.default_rng([41, p, m])
    # rows, columns, rank at most
    shapes = [(3, 12, 3), (5, 300, 5), (12, 4, 4), (30, 9, 9), (8, 8, 3), (10, 25, 4), (20, 7, 2), (6, 6, 0)]
    for rows, cols, rank in shapes:
        M = random_matrix(gf, rows, cols, rank, rng)
        R, r, pivots = rref(gf, M)
        want = reference_null_basis(gf, R, pivots, cols)
        got = _null_basis(gf, R, pivots, cols)
        assert got.dtype == np.int16 and got.shape == want.shape == (cols - r, cols)
        assert np.array_equal(got, want)
        if 0 < r < cols:
            assert np.array_equal(LinearCode(gf, M).dual().gen, want)
        # [M | M x]: the last column is never a pivot
        b = matvec(gf, M, rng.integers(0, gf.q, size=cols).astype(np.int16))
        R, r, pivots = rref(gf, np.column_stack([M, b]))
        assert pivots[-1:] != [cols]
        assert np.array_equal(_null_basis(gf, R, pivots, cols), reference_null_basis(gf, R, pivots, cols))


def test_dual_skips_the_checks_of_outside_input(monkeypatch):
    import toric_codes.codes as codes

    seen = []  # (name, the matrix it was given)

    def spy(name):
        real = getattr(codes, name)

        def wrapper(gf, mat, *args):
            seen.append((name, np.array(mat)))
            return real(gf, mat, *args)

        return wrapper

    for name in ("_elements", "rref"):
        monkeypatch.setattr(codes, name, spy(name))
    gf = GF(3)
    # the constructor checks the entries once, through rref, whether the
    # rows are systematic (the first matrix) or not (the second), and keeps
    # the reduction; dual() reduces and checks nothing.  The dual reduces
    # its own generator, once, the first time its reduction is read
    for rows in ([[1, 2, 0, 1], [0, 1, 1, 2]], [[1, 2, 0, 1], [1, 1, 1, 2]]):
        seen.clear()
        code = LinearCode(gf, rows)
        assert [name for name, _ in seen] == ["rref", "_elements"]
        assert all(np.array_equal(M, rows) for _, M in seen)
        seen.clear()
        h = code.dual()
        assert seen == [] and (h.n, h.k) == (4, 2)
        h.dual()
        h.dual()
        assert [name for name, _ in seen] == ["rref", "_elements"]
        assert all(np.array_equal(M, h.gen) for _, M in seen)


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (2, 3), (3, 2), (5, 2)])
def test_kept_reduction_is_the_rref_of_the_generator(p, m):
    """However a code is made, ``_reduced`` is (R, pivots) of a fresh
    ``rref`` of its generator, up to the zero rows a rank-deficient input
    leaves: full-rank, systematic and rank-deficient rows through
    ``__init__``, ``dual()`` and ``dual().dual()``."""
    gf = GF(p, m)
    rng = np.random.default_rng([29, p, m])
    systematic = np.hstack([np.eye(4, dtype=np.int16), rng.integers(0, gf.q, (4, 5), dtype=np.int16)])
    cases = [random_code(gf, 9, 4, rng).gen, systematic, random_matrix(gf, 6, 8, 3, rng)]
    deficient = 0
    for M in cases:
        code = LinearCode(gf, M)
        deficient += code.k < len(M)
        for c in (code, code.dual(), code.dual().dual()):
            R, pivots = c._reduced
            want, rank, want_pivots = rref(gf, c.gen)
            assert (rank, pivots) == (c.k, want_pivots)
            assert np.array_equal(R[: c.k], want) and not R[c.k :].any()
    assert deficient == 1


def test_dual_over_the_size_cap_is_refused_before_it_is_formed(monkeypatch):
    def never(*args):
        raise AssertionError("the null basis was formed")

    monkeypatch.setattr("toric_codes.codes._null_basis", never)
    n = 1 << 15  # (n - 1) n entries, nearly four times the cap
    code = LinearCode(GF(2), np.ones((1, n), dtype=np.int16))
    with pytest.raises(CodeError, match="dual generator would hold 32767 x 32768 entries"):
        code.dual()


def test_matrix_size_cap_is_inclusive():
    side = 1 << 14
    assert side * side == MATRIX_SIZE_CAP
    check_matrix_size(side, side, "dual generator")
    with pytest.raises(CodeError, match="evaluation matrix"):
        check_matrix_size(side + 1, side, "evaluation matrix")
    # the dual of fan1 over GF(128), divisor (0, 0, 6), k = 10, fits
    check_matrix_size(16129 - 10, 16129, "dual generator")


@pytest.mark.parametrize("orbits", [(), (0, 1)])
def test_build_reduces_its_generator_once(monkeypatch, orbits):
    from toric_codes.codes import rref as real_rref
    from toric_codes.toric import toric_code

    calls = []

    def counting_rref(*args, **kwargs):
        calls.append(args[1].shape)
        return real_rref(*args, **kwargs)

    monkeypatch.setattr("toric_codes.codes.rref", counting_rref)
    gf = GF(2, 3)
    result = toric_code(gf, [(2, -1), (-1, 2), (-1, -1)], (0, 0, 4), orbits=orbits)
    assert calls == [result.eval_matrix.shape]  # the code's rank; the dual reuses it
    monkeypatch.undo()
    assert np.array_equal(result.dual.gen, null_space(gf, result.code.gen))


def test_dual_of_rows_that_skipped_elimination():
    gf = GF(3)
    G = np.array([[1, 0, 2, 1], [0, 2, 1, 1]], dtype=np.int16)  # each row owns a column
    h = LinearCode(gf, G).dual()
    assert np.array_equal(h.gen, null_space(gf, G))
    assert not matmul(gf, G, h.gen.T).any()


def test_rank_of_rows_with_private_columns():
    gf = GF(3)
    # row 0 alone is nonzero in column 0, yet rows 1 and 2 are dependent
    code = LinearCode(gf, [[1, 0, 0], [0, 1, 2], [0, 2, 1]])
    assert code.k == 2 and code.warnings
    # every row owns a column: independent, stored unchanged
    G = np.array([[1, 0, 2, 1], [0, 2, 1, 1]], dtype=np.int16)
    code = LinearCode(gf, G)
    assert code.k == 2 and np.array_equal(code.gen, G) and not code.warnings


def test_rref_examples():
    gf = GF(5)
    R, rank, piv = rref(gf, np.eye(4, dtype=np.int16))
    assert rank == 4 and piv == [0, 1, 2, 3]
    _, rank, _ = rref(gf, np.zeros((3, 5), dtype=np.int16))
    assert rank == 0
    _, rank, _ = rref(gf, np.array([[1, 2], [2, 4]], dtype=np.int16))
    assert rank == 1  # second row is twice the first mod 5


def test_dual_repetition_code():
    gf = GF(2)
    rep = LinearCode(gf, [[1, 1, 1]])
    h = rep.dual()
    assert (h.n, h.k) == (3, 2)
    # row space equals that of {(1,1,0),(1,0,1)}: null-space enumeration over 8 vectors
    expected = {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    span = set()
    for m in itertools.product(range(2), repeat=2):
        span.add(tuple(int(x) for x in matvec(gf, h.gen.T, np.array(m, dtype=np.int16))))
    assert span == expected


def test_dual_involution_and_dimensions():
    rng = np.random.default_rng(0)
    for q, n, k in [(2, 7, 3), (3, 8, 4), (5, 6, 2)]:
        gf = GF(q)
        code = random_code(gf, n, k, rng)
        h = code.dual()
        assert h.k == n - k
        hh = h.dual()
        r1 = rref(gf, code.gen)[0][: code.k]
        r2 = rref(gf, hh.gen)[0][: hh.k]
        assert np.array_equal(r1, r2)
        # duality: every generator row has zero syndrome against code.dual()
        for row in code.gen:
            assert not h.syndrome(row).any()


def test_syndrome_examples():
    # code.syndrome(v) vanishes iff v is a codeword of code.dual()
    gf = GF(2)
    rep = LinearCode(gf, [[1, 1, 1]])
    h = rep.dual()
    assert not h.syndrome(rep.gen[0]).any()  # generator row against its dual
    assert not rep.syndrome(np.zeros(3, dtype=np.int16)).any()
    e1 = np.array([1, 0, 0], dtype=np.int16)
    assert np.array_equal(h.syndrome(e1), h.gen[:, 0])
    with pytest.raises(CodeError):
        rep.syndrome(np.zeros(4, dtype=np.int16))


def test_solve_and_null_space():
    gf = GF(7)
    A = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int16)
    b = np.array([1, 2], dtype=np.int16)
    x, ns = solve(gf, A, b)
    assert np.array_equal(matvec(gf, A, x), b)
    assert ns.shape[0] == 2
    for row in ns:
        assert not matvec(gf, A, row).any()
    assert solve(gf, A, np.array([1, 3], dtype=np.int16)) is None


def random_systems(gf, rng):
    """Random systems (A, b): full rank, rank-deficient (repeated and
    combined rows), with zero columns, with no columns or no rows, and
    inconsistent ones (b off the column space)."""
    for rows, cols in [(3, 3), (4, 2), (2, 5), (5, 5), (3, 0), (0, 3), (0, 0), (1, 1), (6, 4)]:
        for _ in range(6):
            A = rng.integers(0, gf.q, size=(rows, cols)).astype(np.int16)
            if rows >= 2 and rng.integers(2):  # a combination of two rows
                c = int(rng.integers(1, gf.q))
                A[-1] = gf.vadd(A[0], gf.vscale(c, A[1 % (rows - 1)]))
            if cols and rng.integers(2):
                A[:, rng.integers(cols)] = 0
            x = rng.integers(0, gf.q, size=cols).astype(np.int16)
            b = matvec(gf, A, x) if cols else np.zeros(rows, dtype=np.int16)
            yield A, b
            yield A, rng.integers(0, gf.q, size=rows).astype(np.int16)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 2), (7, 1), (5, 2)])
def test_solution_read_off_the_reduced_system_agrees_with_solve(p, m):
    """``_solution`` and ``_null_basis`` on one reduction of [A | b], as
    the decoder's value system reads them, against ``solve``, and both
    against the definition: A x = b with x zero on the free columns, a
    null basis of cols - rank(A) independent rows, and None exactly when
    b is outside the column space (rank [A | b] > rank A)."""
    gf = GF(p, m)
    rng = np.random.default_rng([23, p, m])
    seen = set()
    for A, b in random_systems(gf, rng):
        rows, cols = A.shape
        R, rank, pivots = rref(gf, np.column_stack([A, b]))
        x = _solution(R, rank, pivots)
        sol = solve(gf, A, b)
        rank_a = rref(gf, A)[1]
        assert (x is None) == (sol is None) == (rank > rank_a)
        if x is None:
            seen.add("inconsistent")
            continue
        ns = _null_basis(gf, R, pivots, cols)
        assert np.array_equal(x, sol[0]) and np.array_equal(ns, sol[1])
        assert x.dtype == ns.dtype == np.int16 and x.shape == (cols,)
        assert np.array_equal(matvec(gf, A, x), b)
        assert not x[[c for c in range(cols) if c not in pivots]].any()
        assert ns.shape == (cols - rank_a, cols) and rref(gf, ns)[1] == len(ns)
        assert not (len(ns) and matmul(gf, A, ns.T).any())
        seen.add("unique" if rank_a == cols else "deficient")
    assert seen == {"inconsistent", "unique", "deficient"}


def test_solve_checks_its_inputs():
    gf = GF(7)
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int16)
    for b in ([1.5, 2, 3], [1, -1, 0], [1, 7, 0], [1, 2], [[1], [2], [3]], 3):
        with pytest.raises(CodeError):
            solve(gf, A, b)
    for bad in (A[0], A.astype(float), A - 1, A + 5, np.zeros((3, 3, 1), dtype=np.int16), A == 1):
        with pytest.raises(CodeError):
            solve(gf, bad, [1, 2, 3])
    with pytest.raises(CodeError):  # a bool b would become int16 in [A | b]
        solve(gf, A, np.array([True, False, True]))
    assert solve(gf, [[], []], [0, 0])[0].shape == (0,) and solve(gf, [[], []], [0, 1]) is None
    x, ns = solve(gf, A.tolist(), [1, 2, 3])  # nested lists are fine
    assert np.array_equal(matvec(gf, A, x), [1, 2, 3]) and len(ns) == 1


# -- exhaustive engine -------------------------------------------------------


def _analyze_block_reference(block):
    weights = np.count_nonzero(block, axis=1)
    w = int(weights.min())
    hits = block[weights == w]
    return w, hits[np.lexsort(hits.T[::-1])[0]].copy(), block.shape[0]


def _reduce_reference(results, best_w=None, witness=None, work=0):
    for w, cand, count in results:
        work += count
        if best_w is None or w < best_w or (w == best_w and tuple(cand) < tuple(witness)):
            best_w, witness = w, cand
    return best_w, witness, work


def min_distance_exhaustive_reference(code):
    """The int16 exhaustive engine that the packed one replaced, kept as its
    oracle."""
    gf, G, k, n = code.gf, code.gen, code.k, code.n
    q = gf.q
    v = 0
    while v + 1 <= k - 1 and q ** (v + 1) <= 1 << 18:
        v += 1
    S = np.zeros((1, n), dtype=np.int16)
    for t in range(v):
        row = G[k - 1 - t]
        S = np.concatenate([gf.vadd(S, gf.vscale(c, row)[None, :]) for c in range(q)], axis=0)
    results = []
    for j in range(k):
        free = k - 1 - j
        for combo in itertools.product(range(q), repeat=max(0, free - v)):
            w0 = G[j]
            for t, c in enumerate(combo):
                if c:
                    w0 = gf.vadd(w0, gf.vscale(c, G[j + 1 + t]))
            rows = q ** min(free, v)
            results.append(_analyze_block_reference(gf.vadd(w0[None, :], S[:rows])))
    best_w, witness, work = _reduce_reference(results)
    return WeightReport(d=best_w, witness=witness, method="exhaustive", work=work)


def min_distance_infoset_reference(code, work_budget=None, levels=None):
    """The int16 information-set engine that the packed one replaced, kept
    as its oracle (one leaf block per support prefix).  Under a
    budget it enumerates each level in full and discards a level whose work
    would cross the budget, without the engine's cost formula.  ``levels``,
    if given, collects the cumulative work after each finished level."""
    gf, G, k, n = code.gf, code.gen, code.k, code.n
    mats = list(_systematic_generators(code))
    deficits = [k - rank for _, rank in mats]
    units = np.array(gf.units(), dtype=np.int16)
    best_w, witness, work = n + 1, None, 0
    active = [True] * len(mats)

    def bound_at(w_):
        return sum(max(0, (w_ + 1) - dft) for dft, on in zip(deficits, active) if on)

    def projected_stop(upper):
        return next((w_ for w_ in range(1, k + 1) if bound_at(w_) >= upper), k)

    lower = bound_at(0)
    for w in range(1, k + 1):
        w_star = projected_stop(best_w)
        for j, dft in enumerate(deficits):
            if active[j] and (w_star + 1) - dft <= 0:
                active[j] = False
        results = []

        def rec(start, block, remaining, scaled):
            if remaining == 0:
                results.append(_analyze_block_reference(block))
                return
            for s in range(start, k - remaining + 1):
                child = gf.vadd(block[None, :, :], scaled[s][:, None, :])
                rec(s + 1, child.reshape(-1, n), remaining - 1, scaled)

        for j, (R, _rank) in enumerate(mats):
            if active[j]:
                scaled = {s: gf.mul_table[units][:, R[s]] for s in range(k)}
                for s0 in range(k - w + 1):
                    rec(s0 + 1, R[s0][None, :], w - 1, scaled)
        if work_budget is not None and work + sum(c for _, _, c in results) > work_budget:
            upper = min(best_w, n)
            return WeightReport(upper, witness, "information-set", work, False, lower, upper)
        best_w, witness, work = _reduce_reference(results, best_w, witness, work)
        if levels is not None:
            levels.append(work)
        lower = bound_at(w)
        if lower >= best_w or w == k:
            break
    return WeightReport(d=best_w, witness=witness, method="information-set", work=work)


def assert_same_report(got, want):
    assert (got.d, got.method, got.work, got.exact, got.lower, got.upper) == (
        want.d, want.method, want.work, want.exact, want.lower, want.upper
    )
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness.dtype == np.int16 and np.array_equal(got.witness, want.witness)


def test_exhaustive_identity():
    gf = GF(3)
    code = LinearCode(gf, np.eye(4, dtype=np.int16))
    rep = min_distance_exhaustive(code)
    assert rep.d == 1
    assert rep.work == (3**4 - 1) // 2


def test_exhaustive_gf3_example():
    gf = GF(3)
    code = LinearCode(gf, [[1, 0, 1, 1], [0, 1, 1, 2]])
    rep = min_distance_exhaustive(code)
    assert rep.d == brute_force_distance(code)
    assert int(np.count_nonzero(rep.witness)) == rep.d


def test_work_cap():
    gf = GF(5)
    code = LinearCode(gf, np.eye(6, dtype=np.int16))
    with pytest.raises(WorkCapExceeded):
        min_distance_exhaustive(code, work_cap=10)


def test_huge_message_count_exceeds_the_work_cap_without_formatting_it():
    """GF(64), k = 2400: (q^k - 1)/(q - 1) has more digits than Python
    converts to a string, and both ways into the exhaustive engine raise
    WorkCapExceeded with a short message."""
    k = 2400
    gen = np.concatenate([np.eye(k, dtype=np.int16), np.ones((k, 1), dtype=np.int16)], axis=1)
    code = LinearCode(GF(2, 6), gen)  # the identity plus an all-ones column
    assert code.k == k
    for call in (lambda: min_distance_exhaustive(code),
                 lambda: min_distance(code, method="exhaustive", work_budget=10)):
        with pytest.raises(WorkCapExceeded, match=r"^64\^2400/\(64 - 1\) messages exceed the work cap") as exc:
            call()
        assert len(str(exc.value)) < 200


# (p, m, k): codes whose leaves weigh a block of prefixes against the suffix
# table, GF(5) k = 9 with an odometer row above the block
BLOCK_LEAF_CODES = [(7, 1, 7), (2, 3, 7), (5, 1, 9), (3, 2, 6)]


@pytest.mark.parametrize("p,m,k", BLOCK_LEAF_CODES)
def test_exhaustive_blocks_match_the_reference(monkeypatch, p, m, k):
    """The engine's d, work and witness equal the int16 reference, and its
    leaves form every codeword once per projective class: as many words as
    classes, pairwise apart by more than a unit scale, all in the row
    space."""
    from toric_codes import codes as codes_module

    gf = GF(p, m)
    code = random_code(gf, k + 3, k, np.random.default_rng([67, p, m]))
    nearest = codes_module._nearest
    words = []

    def recording_nearest(gf_, X, T, bound):
        words.append(gf_.unpack(gf_.psub(X[:, :, None], T[:, None, :]).reshape(len(X), -1), code.n))
        return nearest(gf_, X, T, bound)

    monkeypatch.setattr(codes_module, "_nearest", recording_nearest)
    got = min_distance_exhaustive(code)
    assert_same_report(got, min_distance_exhaustive_reference(code))
    assert max(len(w) for w in words) > 1  # the blocks hold more than one prefix
    words = np.concatenate(words)
    assert len(words) == got.work == (gf.q**k - 1) // (gf.q - 1)
    assert not matmul(gf, code.dual().gen, words.T).any()
    # the unit multiple of each word whose first nonzero entry is 1
    lead = words[np.arange(len(words)), (words != 0).argmax(axis=1)]
    normal = gf.mul_table[gf.inv_table[lead][:, None], words]
    assert len(np.unique(normal.view(f"V{normal.itemsize * code.n}"))) == len(words)


def test_witness_in_row_space():
    rng = np.random.default_rng(1)
    gf = GF(5)
    code = random_code(gf, 10, 4, rng)
    rep = min_distance_exhaustive(code)
    # witness weight matches and witness is a codeword: consistent syndrome
    assert int(np.count_nonzero(rep.witness)) == rep.d
    assert not code.dual().syndrome(rep.witness).any()


@pytest.mark.parametrize("cap", [None, 2.5, "9", True, 0, -1])
def test_work_cap_must_be_a_positive_integer(cap):
    code = LinearCode(GF(3), [[1, 0, 1, 1], [0, 1, 1, 2]])
    with pytest.raises(CodeError, match="work cap must be an integer >= 1"):
        min_distance_exhaustive(code, work_cap=cap)


class LeafFailure(RuntimeError):
    pass


@pytest.mark.parametrize("caller", [None, 4096], ids=["default", "caller-4096"])
def test_engines_leave_the_callers_buffer_size(monkeypatch, caller):
    """Every leaf runs under the engines' ufunc buffer, and the caller's
    buffer size is the same after a normal return, a budget stop (the
    interval report), WorkCapExceeded and a failing leaf."""
    from toric_codes import codes

    real_nearest = codes._nearest
    seen = []

    def recording_nearest(*args):
        seen.append(np.getbufsize())
        return real_nearest(*args)

    monkeypatch.setattr(codes, "_nearest", recording_nearest)
    code = random_code(GF(3), 12, 6, np.random.default_rng(9))
    with np.errstate():
        if caller is not None:
            np.setbufsize(caller)
        before = np.getbufsize()
        assert min_distance_exhaustive(code).exact
        assert np.getbufsize() == before
        assert min_distance_infoset(code).exact
        assert np.getbufsize() == before
        stopped = min_distance_infoset(code, work_budget=13)
        assert not stopped.exact and stopped.lower < stopped.upper
        assert np.getbufsize() == before
        with pytest.raises(WorkCapExceeded):
            min_distance_exhaustive(code, work_cap=10)
        assert np.getbufsize() == before
        assert seen and set(seen) == {codes._LEAF_BUFSIZE}

        def failing_nearest(*args):
            raise LeafFailure

        monkeypatch.setattr(codes, "_nearest", failing_nearest)
        for engine in (min_distance_exhaustive, min_distance_infoset):
            with pytest.raises(LeafFailure):
                engine(code)
            assert np.getbufsize() == before


def test_record_report_does_not_depend_on_the_callers_buffer():
    """The record (49, 11, 28): the same d, work and witness when the
    caller has set an odd ufunc buffer, which is restored afterwards."""
    from toric_codes.toric import toric_code

    code = toric_code(GF(2, 3), [(5, -1), (-1, 5), (-1, -1)], (0, 0, 5)).code
    want = min_distance_infoset(code)
    assert (want.d, want.work) == (28, 5466297)
    with np.errstate():
        np.setbufsize(64)
        got = min_distance_infoset(code)
        assert np.getbufsize() == 64
    assert_same_report(got, want)


# -- information-set engine ---------------------------------------------------


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (2, 3), (3, 2), (5, 2)])
def test_first_systematic_matrix_is_the_codes_reduction(p, m):
    """The first matrix that the search takes from ``LinearCode._reduced``
    equals a fresh reduction of the generator in natural column order,
    rank and pivots included, also for rank-deficient rows; the later
    disjoint sets equal those of the same search on the code's dual's
    dual, which has the same row space and reduces its generator when the
    search first reads it."""
    gf = GF(p, m)
    rng = np.random.default_rng([71, p, m])
    deficient = 0
    for rows, cols, rank in [(4, 9, 4), (6, 12, 4), (5, 20, 5), (8, 10, 3), (3, 30, 2), (7, 7, 7)]:
        code = LinearCode(gf, random_matrix(gf, rows, cols, rank, rng))
        deficient += code.k < rows
        R, r, pivots = rref(gf, code.gen, col_order=range(cols))
        mats = list(_systematic_generators(code))
        assert (mats[0][1], code.k, code._reduced[1]) == (r, r, pivots)
        assert np.array_equal(mats[0][0], R)
        assert np.argmax(mats[0][0] != 0, axis=1).tolist() == pivots
        if code.k < cols:
            fresh = list(_systematic_generators(code.dual().dual()))
            assert [rk for _, rk in mats] == [rk for _, rk in fresh]
            assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(mats, fresh))
    assert deficient >= 2


def test_engines_agree_random():
    rng = np.random.default_rng(3)
    cases = [(2, 12, 6), (3, 10, 5), (4, 9, 4), (5, 8, 4), (2, 14, 7), (3, 9, 3)]
    for q, n, k in cases:
        gf = GF(2, 2) if q == 4 else GF(q)
        for _ in range(4):
            code = random_code(gf, n, k, rng)
            a = min_distance_exhaustive(code)
            b = min_distance_infoset(code)
            assert a.d == b.d, (q, n, k)


# every packed form: bit planes (p = 2, 3), digit bytes (p >= 5, two digits
# for GF(25)), and ten planes for GF(2^10)
ENGINE_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (7, 1), (5, 2),
                 (31, 1), (2, 10)]


@pytest.mark.parametrize("p,m", ENGINE_FIELDS)
def test_engines_match_int16_references(p, m):
    gf = GF(p, m)
    rng = np.random.default_rng([13, p, m])
    k_max = max(2, int(math.log(2e4, gf.q)) + 1)  # at most ~2 * 10^4 projective messages
    inexact = 0
    for n, k in [(9, min(k_max, 5)), (49, k_max), (70, min(k_max, 6)), (130, min(k_max, 4))]:
        code = random_code(gf, n, k, rng)
        assert_same_report(min_distance_exhaustive(code), min_distance_exhaustive_reference(code))
        assert_same_report(min_distance_infoset(code), min_distance_infoset_reference(code))
        for budget in (1, k):
            got = min_distance_infoset(code, work_budget=budget)
            assert_same_report(got, min_distance_infoset_reference(code, work_budget=budget))
            inexact += not got.exact
    assert inexact or k_max == 2  # the certified-interval return is covered too


# fields with bit planes (p = 2, 3), digit bytes (p = 5) and three planes
# (GF(8)); each code takes two or three levels, and one [40, 14] binary
# code drops a matrix on the way
@pytest.mark.parametrize("p,m,n,k", [(2, 1, 40, 14), (3, 1, 22, 8), (5, 1, 18, 5), (2, 3, 16, 4)])
def test_work_budget_holds_for_every_method(p, m, n, k):
    """Budgets at each level's cumulative work, one below it, and at the
    exhaustive engine's cost: no method enumerates past its budget, every
    interval holds the exact d, and a witness is a codeword of weight
    upper."""
    gf = GF(p, m)
    rng = np.random.default_rng([17, p, m])
    total = (gf.q**k - 1) // (gf.q - 1)
    for _ in range(3):
        code = random_code(gf, n, k, rng)
        d = min_distance_exhaustive(code).d
        levels = []
        min_distance_infoset_reference(code, levels=levels)
        budgets = {b for lw in levels + [total] for b in (lw - 1, lw)} - {0}
        for budget in sorted(budgets):
            for method in ("auto", "exhaustive", "infoset"):
                try:
                    rep = min_distance(code, method=method, work_budget=budget)
                except WorkCapExceeded:
                    assert method == "exhaustive" and total > budget
                    continue
                assert rep.work <= budget
                lower, upper = (rep.d, rep.d) if rep.exact else (rep.lower, rep.upper)
                assert lower <= d <= upper
                if rep.witness is not None:
                    assert int(np.count_nonzero(rep.witness)) == upper
                    assert not code.dual().syndrome(rep.witness).any()
                if method == "auto":
                    assert (rep.method == "exhaustive") == (total <= budget)
                if method == "infoset":  # every level that fits runs, and no other
                    done = [lw for lw in levels if lw <= budget]
                    assert rep.work == (done[-1] if done else 0)
                    assert rep.exact == (len(done) == len(levels))


@pytest.mark.parametrize("budget", [0, -5, 1.5, "2", True])
def test_work_budget_must_be_a_positive_integer(budget):
    from toric_codes.reproduce import reproduce_table

    code = LinearCode(GF(3), [[1, 0, 1, 1], [0, 1, 1, 2]])
    for call in (min_distance, min_distance_infoset):
        with pytest.raises(CodeError, match="work budget must be an integer >= 1"):
            call(code, work_budget=budget)
    with pytest.raises(CodeError, match="work budget must be an integer >= 1"):
        reproduce_table("rm", work_budget=budget)


# -- the torus translation path ------------------------------------------------


def random_torus_code(gf, k, rng):
    """Evaluations of k distinct random characters at every torus point, in
    the fixed order: a code that every torus translation maps to itself."""
    pairs = list(itertools.product(range(gf.q - 1), repeat=2))
    chosen = rng.choice(len(pairs), size=k, replace=False)
    return LinearCode(gf, torus_evaluation_matrix([pairs[i] for i in chosen], gf))


def translation_permutations(gf):
    """Row s maps coordinate i to the index of the point s * P_i, for every
    torus point s, by field multiplication of the point coordinates."""
    pts = [(pt.t1, pt.t2) for pt in torus_points(gf)]
    index = {pt: i for i, pt in enumerate(pts)}
    return np.array(
        [[index[(gf.mul(s1, t1), gf.mul(s2, t2))] for t1, t2 in pts] for s1, s2 in pts]
    )


def grid_rolls(N):
    """The coordinate maps of the torus translations on the N x N grid, one
    row per translate (a, b) in (a, b) order: the word's grid rolled by a
    along its first axis and b along its second."""
    grid = np.arange(N * N).reshape(N, N)
    return np.array([np.roll(grid, (a, b), axis=(0, 1)).ravel() for a in range(N) for b in range(N)])


def translations_taken(code):
    """The grid rolls of the side N that the check answers, the translates
    the engine's witness ranges over; None when the check refuses the
    code."""
    N = _torus_translations(code.gf, rref(code.gf, code.gen)[0])
    return None if N is None else grid_rolls(N)


def translation_search(code):
    """Plain message enumeration of the translation rule through the reduced
    echelon generator: level w takes every message of weight w with first
    nonzero symbol 1, and the search stops once ceil(n (w+1) / k) reaches
    the least weight seen.  A level w >= 2 with (k-1) best < n w, best the
    least weight before it, is the engine's restricted level: its work and
    the cumulative level list count only the messages whose symbol 0 is 1,
    and the full rule must stop there too.  Returns (d, hits, work,
    cumulative work after each level, the restricted level or None); a hit
    is (level, word, enumerated) for each word of weight d, enumerated False
    for a word that the restricted level skips."""
    gf, k, n = code.gf, code.k, code.n
    R = rref(gf, code.gen)[0]
    units = gf.units()  # units[0] is 1
    best, hits, work, levels, restricted = n + 1, [], 0, [], None
    for w in range(1, k + 1):
        msgs = []
        for support in itertools.combinations(range(k), w):
            for coeffs in itertools.product(units, repeat=w - 1):
                msg = np.zeros(k, dtype=np.int16)
                msg[list(support)] = (units[0],) + coeffs
                msgs.append(msg)
        msgs = np.array(msgs)
        through_0 = msgs[:, 0] != 0
        if w >= 2 and (k - 1) * best < n * w:
            restricted = w
        words = gf.vsum(gf.vmul(msgs[:, :, None], R[None]), axis=1)
        work += int(through_0.sum()) if restricted else len(words)
        levels.append(work)
        weights = np.count_nonzero(words, axis=1)
        if weights.min() < best:
            best, hits = int(weights.min()), []
        at_best = weights == best
        hits.extend((w, word, restricted is None or bool(t))
                    for word, t in zip(words[at_best], through_0[at_best]))
        if -(-n * (w + 1) // k) >= best:
            break
        assert restricted is None
    return best, hits, work, levels, restricted


def lexmin_row(words):
    words = np.asarray(words)
    return words[np.lexsort(words.T[::-1])[0]]


def translate_lexmin(words, perms):
    """The lex-min over every translate of every word."""
    return lexmin_row(np.concatenate([word[perms] for word in words]))


def restoring_scales(gf, word, perms, pivots, w):
    """The scales lam of a word c: the inverse of tau(c)'s entry at its
    first pivot column, for each translate tau(c) of information weight at
    most w."""
    scales = set()
    for tau in word[perms]:
        info = tau[pivots][tau[pivots] != 0]
        if len(info) <= w:
            scales.add(gf.inv(int(info[0])))
    return scales


def restored_lexmin(gf, words, perms, pivots, w):
    """The lex-min of lam sigma(c) over the words c, their translates sigma,
    and their scales lam (``restoring_scales``)."""
    return lexmin_row(np.concatenate([gf.vscale(lam, c[perms]) for c in words
                                      for lam in restoring_scales(gf, c, perms, pivots, w)]))


def min_distance_translation_reference(code):
    """Oracle of the translation path: d and the witness, the lex-min over
    every translate of every least-weight word, from full levels; work and
    the cumulative level list with the restricted last level
    (``translation_search``).  Returns (d, witness, work, levels)."""
    d, hits, work, levels, _ = translation_search(code)
    witness = translate_lexmin([word for _, word, _ in hits], translation_permutations(code.gf))
    return d, witness, work, levels


# GF(4) and GF(8) bit planes, GF(9) trit planes, GF(5) and GF(7) digit bytes
@pytest.mark.parametrize("p,m", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_translation_path_matches_references(p, m):
    """On random character sets over the full torus the engine takes the
    translation path: d, the exact flag and the interval equal the int16
    reference, with no more work, and d, witness and work equal the plain
    enumeration oracle of the translation rule.  (The witness is the lex-min
    over the translates of the enumerated words, not over the reference's
    disjoint information sets, so the two may pick different weight-d
    words; on every golden row they pick the same.)"""
    gf = GF(p, m)
    rng = np.random.default_rng([23, p, m])
    perms = translation_permutations(gf)
    for k in (1, 2, 3, 4, 5, 5, 6):
        code = random_torus_code(gf, k, rng)
        translations = translations_taken(code)
        assert translations is not None
        assert sorted(map(tuple, translations)) == sorted(map(tuple, perms))
        got = min_distance_infoset(code)
        want = min_distance_infoset_reference(code)
        assert (got.d, got.exact, got.lower, got.upper) == (want.d, want.exact, None, None)
        assert got.work <= want.work
        d, witness, work, _ = min_distance_translation_reference(code)
        assert (got.d, got.work) == (d, work)
        assert got.witness.dtype == np.int16 and np.array_equal(got.witness, witness)
        assert not code.dual().syndrome(got.witness).any()


def test_codes_without_translations_take_the_generic_path():
    """A torus code with permuted columns, one invariant along only one
    axis of the (q-1) x (q-1) grid, and a random code of length (q-1)^2 keep
    the disjoint information sets: every report field equals the int16
    reference, work included."""
    rng = np.random.default_rng(29)
    gf = GF(2, 3)
    torus = random_torus_code(gf, 5, rng)
    assert translations_taken(torus) is not None
    grid = np.arange(torus.n).reshape(7, 7)
    codes = [LinearCode(gf, torus.gen[:, rng.permutation(torus.n)])]
    # the same permutation of every grid row (or column) keeps the rolls of
    # the other axis
    codes += [LinearCode(gf, torus.gen[:, grid[:, rng.permutation(7)].ravel()]),
              LinearCode(gf, torus.gen[:, grid[rng.permutation(7)].ravel()])]
    for code in codes + [random_code(GF(7), 36, 4, rng), random_code(gf, 49, 5, rng)]:
        assert translations_taken(code) is None
        assert_same_report(min_distance_infoset(code), min_distance_infoset_reference(code))


@pytest.mark.parametrize("p,m,k", [(2, 3, 5), (3, 2, 4), (7, 1, 6)])
def test_translation_path_work_budget(p, m, k):
    """Budgets at each level's cumulative work and one below it: the engine
    runs exactly the levels that fit, lower is ceil(n (w+1) / k) after
    level w (ceil(n / k) before level 1), and the interval holds d.  The
    GF(8) code ends with a restricted level 3, and one word below it the
    report is the interval of level 2."""
    gf = GF(p, m)
    code = random_torus_code(gf, k, np.random.default_rng([31, p, m]))
    n = code.n
    d, _, _, levels, restricted = translation_search(code)
    assert len(levels) >= 2 and restricted == (3 if (p, m) == (2, 3) else None)
    if restricted is not None:
        rep = min_distance_infoset(code, work_budget=levels[-1] - 1)
        assert (rep.work, rep.exact, rep.lower) == (levels[-2], False, -(-n * restricted // k))
    for budget in sorted({b for lw in levels for b in (lw - 1, lw)} - {0}):
        rep = min_distance_infoset(code, work_budget=budget)
        done = [lw for lw in levels if lw <= budget]
        assert rep.work == (done[-1] if done else 0) <= budget
        assert rep.exact == (len(done) == len(levels))
        if rep.exact:
            assert rep.d == d
            continue
        assert rep.lower == -(-n * (len(done) + 1) // k)
        assert rep.lower <= d <= rep.upper
        if rep.witness is None:
            assert not done and rep.upper == n
        else:
            assert int(np.count_nonzero(rep.witness)) == rep.upper
            assert not code.dual().syndrome(rep.witness).any()


# the fields of the translation path: GF(4) and GF(8) bit planes, GF(5) and
# GF(7) digit bytes, GF(9) trit planes; per field, how many of its 200
# random torus codes below take a restricted last level
RESTRICTED_LEVELS = {(2, 2): 11, (5, 1): 23, (7, 1): 37, (2, 3): 122, (3, 2): 58}


def seeded_torus_codes(gf, seed):
    """The random torus codes of k = 2..6, drawn in turn from one seeded
    generator."""
    rng = np.random.default_rng([seed, gf.p, gf.m])
    return [random_torus_code(gf, k, rng) for k in range(2, 7)]


@pytest.mark.parametrize("p,m", RESTRICTED_LEVELS)
def test_restricted_level_keeps_d_and_witness_on_random_torus_codes(p, m):
    """On 200 random torus codes per field the engine's d, witness and work
    equal the oracle's: d and the witness by full enumeration, the work
    with the restricted last level, which the pinned number of codes
    takes."""
    gf = GF(p, m)
    perms = translation_permutations(gf)
    restricted = 0
    for seed in range(40):
        for code in seeded_torus_codes(gf, seed):
            d, hits, work, _, w = translation_search(code)
            rep = min_distance_infoset(code)
            assert (rep.d, rep.work) == (d, work)
            assert np.array_equal(rep.witness, translate_lexmin([word for _, word, _ in hits], perms))
            restricted += w is not None
    assert restricted == RESTRICTED_LEVELS[(p, m)]


# (p, m, seed, k): codes of ``seeded_torus_codes`` whose witness a search
# without the restoration would get wrong; of these, only the GF(9) seed-3
# code also needs the ties of its earlier levels restored
UNRESTORED_WITNESS_DIFFERS = [(2, 3, 18, 3), (2, 3, 29, 3), (2, 3, 30, 3), (2, 3, 39, 6),
                              (3, 2, 3, 3), (3, 2, 6, 3), (3, 2, 26, 3), (3, 2, 34, 3)]


@pytest.mark.parametrize("p,m,seed,k", UNRESTORED_WITNESS_DIFFERS)
def test_restricted_level_restores_the_skipped_witnesses(monkeypatch, p, m, seed, k):
    """The engine's witness is the full enumeration's, also with one tie per
    unpack block.  The lex-min over the translates of the words that the
    restricted search enumerates is another word, and so, for the GF(9)
    seed-3 code, is the restoration of the restricted level's ties alone
    after the earlier levels' witness; restoring every tie gives the full
    witness."""
    gf = GF(p, m)
    code = seeded_torus_codes(gf, seed)[k - 2]
    d, hits, work, _, w = translation_search(code)
    assert w is not None
    perms = translation_permutations(gf)
    pivots = rref(gf, code.gen)[2]
    full = translate_lexmin([word for _, word, _ in hits], perms)
    for block in (None, 1):
        if block is not None:
            monkeypatch.setattr("toric_codes.codes._PRODUCT_BLOCK", block)
        rep = min_distance_infoset(code)
        assert (rep.d, rep.work) == (d, work) and np.array_equal(rep.witness, full)
    enumerated = [word for _, word, on in hits if on]
    assert not np.array_equal(translate_lexmin(enumerated, perms), full)
    assert np.array_equal(restored_lexmin(gf, enumerated, perms, pivots, w), full)
    earlier = [word for level, word, _ in hits if level < w]
    last = [word for level, word, on in hits if on and level == w]
    partial = [translate_lexmin(earlier, perms)] if earlier else []
    partial += [restored_lexmin(gf, last, perms, pivots, w)] if last else []
    assert np.array_equal(lexmin_row(partial), full) == ((p, m, seed) != (3, 2, 3))


def test_translate_lexmin_over_blocks_of_ties(monkeypatch):
    """With one tie per block the witness is still the oracle's lex-min
    translate: this GF(8) code ends with 12 ties at its last level, and
    neither the first nor the last has the witness among its translates."""
    code = random_torus_code(GF(2, 3), 4, np.random.default_rng([4, 2, 3]))
    d, witness, work, _ = min_distance_translation_reference(code)
    monkeypatch.setattr("toric_codes.codes._PRODUCT_BLOCK", 1)
    rep = min_distance_infoset(code)
    assert (rep.d, rep.work) == (d, work) and np.array_equal(rep.witness, witness)


@pytest.mark.parametrize("p,m", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_translation_table_in_closed_form(p, m):
    """The check answers N = q-1, and each of the (q-1)^2 rolls of the
    coordinate grid, rows in (a, b) order, inverts the oracle's row of the
    same index (the map by the torus point whose logarithms are (a, b))."""
    gf = GF(p, m)
    N = gf.q - 1
    code = random_torus_code(gf, 3, np.random.default_rng([41, p, m]))
    assert _torus_translations(gf, rref(gf, code.gen)[0]) == N
    table = translations_taken(code)
    assert table.shape == (N * N, N * N)
    assert np.array_equal(table, np.argsort(translation_permutations(gf), axis=1))


def test_witness_is_unpacked_once_per_search(monkeypatch):
    """The engines keep their ties packed and unpack them once per search,
    when it ends or a budget stops it, on a random GF(8) code and a GF(9)
    torus code (their ties fit one unpack block)."""
    calls = []
    unpack = GF.unpack

    def counting_unpack(self, P, n):
        calls.append(P.shape)
        return unpack(self, P, n)

    generic = random_code(GF(2, 3), 30, 5, np.random.default_rng(47))
    torus = random_torus_code(GF(3, 2), 6, np.random.default_rng([43, 3, 2]))
    generic_levels, torus_levels = [], min_distance_translation_reference(torus)[3]
    min_distance_infoset_reference(generic, levels=generic_levels)
    monkeypatch.setattr(GF, "unpack", counting_unpack)
    for code, levels in [(generic, generic_levels), (torus, torus_levels)]:
        assert len(levels) >= 2
        calls.clear()
        rep = min_distance_infoset(code)
        assert rep.work == levels[-1] and len(calls) == 1
        calls.clear()
        rep = min_distance_infoset(code, work_budget=levels[-2])
        assert not rep.exact and rep.work == levels[-2] and len(calls) == 1
        calls.clear()
        min_distance_exhaustive(code)
        assert len(calls) == 1


def full_translation_check(gf, R):
    """Oracle of the translation check on all n columns: both unit rolls of
    the coordinate grid map each row of the reduced generator R into its
    row space."""
    N = gf.q - 1
    pivots = np.argmax(R != 0, axis=1)
    grid = np.arange(N * N).reshape(N, N)
    for axis in (0, 1):
        V = R[:, np.roll(grid, 1, axis=axis).ravel()]
        if not np.array_equal(V, matmul(gf, V[:, pivots], R)):
            return False
    return True


def assert_translation_check_is_full(code):
    R = rref(code.gf, code.gen)[0]
    taken = _torus_translations(code.gf, R) is not None
    assert taken == full_translation_check(code.gf, R)
    return taken


def test_translation_check_matches_the_full_check_on_random_codes():
    """Torus codes, torus codes with one grid axis permuted, and random
    codes of length (q-1)^2: the check on the non-pivot columns decides as
    the check on every column does, and both decisions occur."""
    rng = np.random.default_rng(53)
    decisions = set()
    for p, m in [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        gf = GF(p, m)
        N = gf.q - 1
        grid = np.arange(N * N).reshape(N, N)
        for k in {1, 2, min(5, N * N - 1)}:
            torus = random_torus_code(gf, k, rng)
            codes = [torus, random_code(gf, N * N, k, rng),
                     LinearCode(gf, torus.gen[:, grid[:, rng.permutation(N)].ravel()])]
            decisions.update(assert_translation_check_is_full(code) for code in codes)
    assert decisions == {True, False}


def test_translation_check_matches_the_full_check_on_golden_torus_rows():
    from toric_codes.tables import GOLDEN_TABLES, field_for_q
    from toric_codes.toric import hansen_code, toric_code

    rows = 0
    for table in GOLDEN_TABLES.values():
        if table.kind == "rm":
            continue
        for row in table.rows:
            if getattr(row, "flag", ""):
                continue
            gf = field_for_q(row.q)
            if table.kind == "hansen-b":
                code = hansen_code("b", gf, a=row.a).code
            else:
                code = toric_code(gf, table.fan, row.divisor).code
            if code.n == (gf.q - 1) ** 2:
                assert assert_translation_check_is_full(code)
                rows += 1
    assert rows >= 40


def test_translation_check_rejects_two_swapped_columns():
    """Swapping two non-pivot columns, or a pivot and a non-pivot column,
    of the record (49, 11, 28) breaks the invariance, and the check says
    so."""
    from toric_codes.toric import toric_code

    record = toric_code(GF(2, 3), [(5, -1), (-1, 5), (-1, -1)], (0, 0, 5)).code
    assert assert_translation_check_is_full(record)
    pivots = rref(record.gf, record.gen)[2]
    others = [c for c in range(record.n) if c not in pivots]
    for a, b in [(others[0], others[1]), (pivots[0], others[-1])]:
        perm = np.arange(record.n)
        perm[[a, b]] = perm[[b, a]]
        assert not assert_translation_check_is_full(LinearCode(record.gf, record.gen[:, perm]))


# -- the translation mark of built codes --------------------------------------

FAN1_RAYS = [(2, -1), (-1, 2), (-1, -1)]


# the work budget of the searches below: some of their codes would take
# 10^8 words and more to finish
MARK_BUDGET = 200_000


def translation_checks_run(monkeypatch, code):
    """min_distance_infoset of the code under ``MARK_BUDGET``, and the
    answers of the translation checks that it ran."""
    import toric_codes.codes as codes_module

    answers = []
    check = codes_module._torus_translations
    with monkeypatch.context() as patch:
        patch.setattr(codes_module, "_torus_translations",
                      lambda gf, R: answers.append(check(gf, R)) or answers[-1])
        rep = min_distance_infoset(code, work_budget=MARK_BUDGET)
    return rep, answers


def assert_marked_and_invariant(monkeypatch, result):
    """build marked the code and its dual with N = q-1, both pass the full
    check, and the search runs no check of its own; the code as plain rows
    runs the check, which says the same, and gets the same report."""
    gf, code, dual = result.spec.gf, result.code, result.dual
    N = gf.q - 1
    assert code._translation_grid == dual._translation_grid == N
    for c in (code, dual):
        assert full_translation_check(gf, rref(gf, c.gen)[0])
    rep, answers = translation_checks_run(monkeypatch, code)
    assert answers == []
    plain_rep, answers = translation_checks_run(monkeypatch, LinearCode(gf, code.gen))
    assert answers == [N]
    assert_same_report(rep, plain_rep)


def test_build_marks_every_golden_torus_row():
    """Every golden row of the torus tables is built on the torus points in
    the fixed order, so build marks it and its dual, and both are invariant
    by the full check: 64 rows, 24 of them rank-deficient."""
    from toric_codes.tables import GOLDEN_TABLES, field_for_q
    from toric_codes.toric import hansen_code, toric_code

    rows = deficient = 0
    for table in GOLDEN_TABLES.values():
        if table.kind == "rm":
            continue
        for row in table.rows:
            gf = field_for_q(row.q)
            if table.kind == "hansen-b":
                result = hansen_code("b", gf, a=row.a)
            else:
                result = toric_code(gf, table.fan, row.divisor)
            assert result.code._translation_grid == result.dual._translation_grid == gf.q - 1
            for c in (result.code, result.dual):
                assert full_translation_check(gf, rref(gf, c.gen)[0])
            rows += 1
            deficient += not result.injective
    assert (rows, deficient) == (64, 24)


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_build_marks_random_torus_codes_with_colliding_characters(monkeypatch, p, m):
    """Fixed-seed random rectangles, triangles and fan1 divisors whose
    exponents reach q-1 or more, so that characters collide and the rank
    drops: build marks every one and its dual, the full check holds on
    both, and the marked search equals the checked one."""
    from toric_codes.toric import hansen_code, toric_code

    gf = GF(p, m)
    q = gf.q
    rng = np.random.default_rng([67, p, m])
    deficient = 0
    for _ in range(3):
        a, b = (int(x) for x in rng.integers(q - 1, q + 2, size=2))
        for result in (hansen_code("c", gf, a=a, b=1), hansen_code("b", gf, a=a),
                       toric_code(gf, FAN1_RAYS, (0, 0, b))):
            assert_marked_and_invariant(monkeypatch, result)
            deficient += not result.injective
    assert deficient >= 6


def unmarked_codes(gf, rng):
    """Codes that build does not mark, or that are not built: the torus
    code of fan1 with G = (0, 0, 3) on its torus points and the orbit of a
    ray, on the torus points with the grid's first axis permuted, and on
    the torus points in reverse order; a Reed-Muller code; the torus code's
    rows as a plain LinearCode."""
    from toric_codes.geometry import Fan2D, TDivisor, torus_points
    from toric_codes.toric import ToricCodeSpec, build, toric_code

    N = gf.q - 1
    fan, div = Fan2D(FAN1_RAYS), TDivisor((0, 0, 3))
    points = list(torus_points(gf))
    perm = rng.permutation(N)
    if (perm == np.arange(N)).all():
        perm = perm[::-1]
    axis_permuted = [points[i * N + j] for i in perm for j in range(N)]
    torus = toric_code(gf, fan, div)
    return [toric_code(gf, fan, div, orbits=[0]).code,
            build(ToricCodeSpec(gf, fan, div, axis_permuted)).code,
            build(ToricCodeSpec(gf, fan, div, points[::-1])).code,
            reed_muller(gf, 2, 2),
            LinearCode(gf, torus.code.gen)]


@pytest.mark.parametrize("p,m", [(2, 2), (5, 1), (2, 3), (3, 2)])
def test_codes_build_does_not_mark_run_the_check(monkeypatch, p, m):
    """Orbit points, a permuted grid axis, another point order, Reed-Muller
    and plain rows: none is marked, the search runs the translation check
    once, it decides as the full check on all n columns does, and the
    report equals the one the check's decision leads to (the int16
    reference for a refused code)."""
    gf = GF(p, m)
    N = gf.q - 1
    for code in unmarked_codes(gf, np.random.default_rng([71, p, m])):
        assert code._translation_grid is None
        assert code.dual()._translation_grid is None
        rep, answers = translation_checks_run(monkeypatch, code)
        invariant = code.n == N * N and full_translation_check(gf, rref(gf, code.gen)[0])
        assert answers == [N if invariant else None]
        if not invariant:
            assert_same_report(rep, min_distance_infoset_reference(code, work_budget=MARK_BUDGET))


def dense_witness(gf, ties, n, table):
    """The witness as the engine formed it from an (n, n) table of
    translates, one unpack block: kept as the oracle of the blocks."""
    words = gf.unpack(ties, n)
    return lexmin_row(np.take(words, table, axis=1).reshape(-1, n))


def dense_restored_witness(gf, ties, n, table, pivots, w):
    """The restored witness as the engine formed it from an (n, n) table of
    translates, one unpack block: kept as the oracle of the blocks."""
    V = gf.unpack(ties, n)[:, table]  # V[c, t]: translate t of c
    info = V[:, :, pivots]
    nz = info != 0
    lead = np.take_along_axis(info, nz.argmax(axis=2)[..., None], axis=2)[..., 0]
    ok = nz.sum(axis=2) <= w
    scales = np.zeros((len(V), gf.q), dtype=bool)
    scales[np.nonzero(ok)[0], gf.inv_table[lead[ok]]] = True
    first = (V != 0).argmax(axis=2)
    c, t = np.nonzero(first == first.max())
    words = V[c, t]
    return lexmin_row(np.concatenate([gf.mul_table[lam][words[scales[c, lam]]] for lam in gf.units()]))


# the fields of the translation path: GF(4) and GF(8) bit planes, GF(5) and
# GF(7) digit bytes, GF(9) trit planes
WITNESS_FIELDS = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("p,m", WITNESS_FIELDS)
def test_blocked_witness_equals_the_dense_one(monkeypatch, p, m):
    """The witness calls of the searches of fixed-seed random torus codes,
    restricted and unrestricted last levels both, repeated with product
    blocks of N n entries (one tie per block), of 2 N n and of a single
    entry (one tie and one survivor per block): each equals the dense
    witness of the (n, n) table of all translates."""
    import toric_codes.codes as codes_module

    gf = GF(p, m)
    N = gf.q - 1
    n = N * N
    table = grid_rolls(N)
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(codes_module, "_witness", lambda *a: calls.append(a) or _witness(*a))
        for seed in range(8):
            for code in seeded_torus_codes(gf, seed):
                min_distance_infoset(code)
    assert {len(a) for a in calls} == {4, 6} and max(a[1].shape[1] for a in calls) >= 3
    for block in (N * n, 2 * N * n, 1):
        monkeypatch.setattr(codes_module, "_PRODUCT_BLOCK", block)
        for _, ties, n_, N_, *restricted in calls:
            assert (n_, N_) == (n, N)
            got = _witness(gf, ties, n, N, *restricted)
            if restricted:
                want = dense_restored_witness(gf, ties, n, table, *restricted)
            else:
                want = dense_witness(gf, ties, n, table)
            assert got.dtype == np.int16 and np.array_equal(got, want)


def random_rows(gf, rng, rows):
    """Random grid rows of length q-1, each with a nonzero entry."""
    R = rng.integers(0, gf.q, size=(rows, gf.q - 1))
    R[np.arange(rows), rng.integers(0, gf.q - 1, size=rows)] = rng.integers(1, gf.q, size=rows)
    return R


def maximal_zero_row_runs(words, N):
    """The start rows, over all the words, of the longest cyclic runs of
    zero grid rows, by walking each run."""
    runs = []
    for c, word in enumerate(words):
        zero = ~word.reshape(N, N).any(axis=1)
        for r in range(N):
            length = 0
            while length < N and zero[(r + length) % N]:
                length += 1
            runs.append((length, c, r))
    longest = max(runs)[0]
    return [(c, r) for length, c, r in runs if length == longest]


def assert_witness_is_the_oracles(gf, words, pivots=None, w=None):
    """``_witness`` of the packed words equals the oracle over every
    translate (``translate_lexmin``), or over every translate and scale
    (``restored_lexmin``); the same with one tie per block."""
    import toric_codes.codes as codes_module

    N = gf.q - 1
    perms = translation_permutations(gf)
    if pivots is None:
        want = translate_lexmin(words, perms)
    else:
        want = restored_lexmin(gf, words, perms, pivots, w)
    ties = gf.pack(np.array(words, dtype=np.int16))
    restricted = () if pivots is None else (pivots, w)
    for block in (codes_module._PRODUCT_BLOCK, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codes_module, "_PRODUCT_BLOCK", block)
            got = _witness(gf, ties, N * N, N, *restricted)
        assert got.dtype == np.int16 and np.array_equal(got, want)
    return want


@pytest.mark.parametrize("p,m", WITNESS_FIELDS)
def test_witness_keeps_every_longest_run_of_zero_rows(p, m):
    """Words with two or more longest runs of zero grid rows, the two runs
    in one word where the grid has four rows or more (GF(4)'s three rows
    leave room for only one, so there the runs lie in two words): the
    witness is the oracle's, and over the seeds it starts at a run other
    than the first that the words hold."""
    gf = GF(p, m)
    N = gf.q - 1
    later_run_won = False
    for seed in range(12):
        rng = np.random.default_rng([59, p, m, seed])
        words = []
        for zero_rows in ([0, N // 2], [1, 1 + N // 2]) if N >= 4 else ([0], [1]):
            grid = random_rows(gf, rng, N)
            grid[zero_rows] = 0
            words.append(grid.ravel())
        starts = maximal_zero_row_runs(words, N)
        assert len(starts) >= 2 and (N < 4 or [c for c, _ in starts].count(0) >= 2)
        witness = assert_witness_is_the_oracles(gf, words)
        first_c, first_r = starts[0]
        # the least translate that starts at the first run: its row rotations
        first_run = translate_lexmin([np.roll(words[first_c].reshape(N, N), -first_r, axis=0).ravel()],
                                     grid_rolls(N)[:N])
        later_run_won |= not np.array_equal(first_run, witness)
    assert later_run_won


@pytest.mark.parametrize("p,m", WITNESS_FIELDS)
def test_witness_of_translation_periodic_words(p, m):
    """Words fixed by many translations: the constant words of a k = 1
    code, whose every translate survives, and words whose grid rows are all
    one row that repeats with a period dividing q-1.  The witness is the
    oracle's, and at least q-1 translates reach it."""
    gf = GF(p, m)
    N = gf.q - 1
    n = N * N
    perms = translation_permutations(gf)
    period = next(d for d in range(2, N + 1) if N % d == 0)
    rng = np.random.default_rng([61, p, m])
    row = np.tile(random_rows(gf, rng, 1)[0, :period], N // period)
    cases = [[np.full(n, u) for u in gf.units()], [np.tile(row, N)],
             [np.tile(row, N), np.tile(np.roll(row, 1), N)]]
    for words in cases:
        witness = assert_witness_is_the_oracles(gf, words)
        reached = sum(np.array_equal(word[perm], witness) for word in words for perm in perms)
        assert reached >= N


@pytest.mark.parametrize("p,m", WITNESS_FIELDS)
def test_witness_decided_after_the_first_nonzero_row(p, m):
    """Ties that share their zero rows and their first nonzero row and
    differ only in later rows: every tie's best translate starts alike, so
    only the rows after the first nonzero one decide, and the witness is
    the oracle's."""
    gf = GF(p, m)
    N = gf.q - 1
    perms = translation_permutations(gf)
    for seed in range(6):
        rng = np.random.default_rng([67, p, m, seed])
        head = random_rows(gf, rng, 1)[0]
        words = []
        for _ in range(4):
            grid = random_rows(gf, rng, N)
            grid[0], grid[1] = 0, head
            words.append(grid.ravel())
        witness = assert_witness_is_the_oracles(gf, words)
        best = [translate_lexmin([word], perms) for word in words]
        assert all(np.array_equal(b[: 2 * N], witness[: 2 * N]) for b in best)
        assert sum(np.array_equal(b, witness) for b in best) < len(best)


@pytest.mark.parametrize("p,m", WITNESS_FIELDS)
def test_restored_witness_over_several_scales(p, m):
    """Restricted ties, codewords of information weight 1 or 2 of a random
    torus code of dimension 4, with the last level w = 2: some tie has two
    or more scales, and the witness is the oracle's over every translate
    and scale."""
    gf = GF(p, m)
    perms = translation_permutations(gf)
    several = False
    for seed in range(6):
        rng = np.random.default_rng([73, p, m, seed])
        R, _, pivots = rref(gf, random_torus_code(gf, 4, rng).gen)
        pivots = np.array(pivots)
        words = []
        for weight in (1, 2, 2):
            msg = np.zeros(4, dtype=np.int16)
            msg[rng.choice(4, size=weight, replace=False)] = rng.integers(1, gf.q, size=weight)
            words.append(matvec(gf, R.T, msg))
        scales = [restoring_scales(gf, word, perms, pivots, 2) for word in words]
        assert all(scales)
        several |= max(map(len, scales)) >= 2
        assert_witness_is_the_oracles(gf, words, pivots, 2)
    assert several


# a code of every packed form whose search runs three or four levels, so that
# two-row leaves occur; GF(2^10) would need a million words at level 3
PAIR_LEAF_CODES = [(2, 1, 48, 14), (2, 2, 30, 7), (2, 3, 40, 8), (2, 4, 24, 6), (3, 1, 36, 12),
                   (3, 2, 24, 6), (3, 3, 20, 5), (5, 1, 30, 7), (7, 1, 40, 8), (5, 2, 24, 6),
                   (31, 1, 20, 5)]


def run_both_leaf_forms(monkeypatch, search, pairs=True):
    """search() with the two-row leaf never taken and always taken: the two
    reports, after checking that only the second built a pair table, and
    that only when ``pairs`` (the search reaches level 3)."""
    import toric_codes.codes as codes_module

    built = []
    pair_table = codes_module._pair_table
    monkeypatch.setattr(codes_module, "_pair_table", lambda *a: built.append(1) or pair_table(*a))
    reports = []
    for cap in (0, 1 << 62):
        monkeypatch.setattr(codes_module, "_PAIR_LEAF_BYTES", cap)
        built.clear()
        reports.append(search())
        assert bool(built) == (pairs and cap > 0)
    return reports


@pytest.mark.parametrize("p,m,n,k", PAIR_LEAF_CODES)
def test_two_leaf_forms_give_one_report(monkeypatch, p, m, n, k):
    """With the two-row leaf never and always taken, the information-set
    engine reports the same d, exact flag, interval, work and witness as the
    int16 reference, with no budget and under budgets at each level's
    cumulative work and one below it."""
    code = random_code(GF(p, m), n, k, np.random.default_rng([59, p, m]))
    levels = []
    want = min_distance_infoset_reference(code, levels=levels)
    assert len(levels) >= 3
    budgets = sorted({b for lw in levels for b in (lw - 1, lw)} - {0})
    wants = {b: min_distance_infoset_reference(code, work_budget=b) for b in budgets}
    never, always = run_both_leaf_forms(monkeypatch, lambda: min_distance_infoset(code))
    assert_same_report(never, want)
    assert_same_report(always, want)
    for budget in budgets:
        never, always = run_both_leaf_forms(
            monkeypatch,
            lambda: min_distance_infoset(code, work_budget=budget),
            pairs=budget >= levels[2])
        assert_same_report(never, wants[budget])
        assert_same_report(always, wants[budget])


# GF(7) digit bytes, GF(8) bit planes, GF(9) trit planes
@pytest.mark.parametrize("p,m,k", [(7, 1, 5), (2, 3, 5), (3, 2, 5)])
def test_two_leaf_forms_give_one_report_on_the_translation_path(monkeypatch, p, m, k):
    """The translation path, with the two-row leaf never and always taken:
    d, witness and work equal the plain enumeration oracle, and the full
    reports equal each other with no budget and under budgets at each
    level's cumulative work and one below it."""
    gf = GF(p, m)
    code = random_torus_code(gf, k, np.random.default_rng([61, p, m]))
    assert translations_taken(code) is not None
    d, witness, work, levels = min_distance_translation_reference(code)
    assert len(levels) >= 3
    for budget in [None] + sorted({b for lw in levels[2:] for b in (lw - 1, lw)}):
        never, always = run_both_leaf_forms(
            monkeypatch,
            lambda: min_distance_infoset(code, work_budget=budget),
            pairs=budget is None or budget >= levels[2])
        assert_same_report(always, never)
        done = [lw for lw in levels if budget is None or lw <= budget]
        assert never.work == done[-1] and never.exact == (len(done) == len(levels))
        if never.exact:
            assert never.d == d and np.array_equal(never.witness, witness)


def task_enumeration(code, work_budget=None):
    """Oracle of the translation path as tasks: level w runs one task per
    first row s0 of a support (only s0 = 0 on a restricted level), the int16
    words r_s0 + sum u_i r_t over the later rows t of the support and units
    u_i, so level 2 is k - 1 tasks of one row against the unit multiples of
    the rows after it.  The stops, interval and witness follow the module
    docstring's rules; the report is the one of the first stop."""
    gf, k, n = code.gf, code.k, code.n
    R, _, pivots = rref(gf, code.gen)
    units = gf.units()
    perms = translation_permutations(gf)
    best, ties, work, lower = n + 1, [], 0, -(-n // k)
    for w in range(1, k + 1):
        restricted = w >= 2 and (k - 1) * best < n * w
        words = []
        for s0 in range(1 if restricted else k - w + 1):
            for support in itertools.combinations(range(s0 + 1, k), w - 1):
                for coeffs in itertools.product(units, repeat=w - 1):
                    word = R[s0]
                    for t, u in zip(support, coeffs):
                        word = gf.vadd(word, gf.vscale(u, R[t]))
                    words.append(word)
        if work_budget is not None and work + len(words) > work_budget:
            upper = min(best, n)
            witness = translate_lexmin(ties, perms) if ties else None
            return WeightReport(upper, witness, "information-set", work, False, lower, upper)
        work += len(words)
        weights = np.count_nonzero(words, axis=1)
        if weights.min() < best:
            best, ties = int(weights.min()), []
        ties += [word for word, weight in zip(words, weights) if weight == best]
        if restricted:
            return WeightReport(best, restored_lexmin(gf, ties, perms, pivots, w), "information-set", work)
        lower = -(-n * (w + 1) // k)
        if lower >= best:
            return WeightReport(best, translate_lexmin(ties, perms), "information-set", work)


# GF(4) and GF(8) bit planes, GF(5) and GF(7) digit bytes, GF(9) trit planes
@pytest.mark.parametrize("p,m", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_pair_leaf_matches_a_task_enumeration(monkeypatch, p, m):
    """Level 2 weighs its pair words r_s + u r_t, s < t, in blocks against
    the zero word.  Its report, d, work, witness and interval, equals a task
    enumeration: ``task_enumeration`` on torus codes, a restricted level 2
    among them, and the int16 reference on codes that fail the translation
    check, which search several matrices.  So it does with no budget and
    with budgets one word short of level 2 and just after it, and with
    blocks of one pair, of a few pairs across rows, and of every pair."""
    import toric_codes.codes as codes_module

    gf = GF(p, m)
    rng = np.random.default_rng([67, p, m])
    cases = []
    restricted = 0
    for k in (3, 3, 4, 4, 5, 6) * 2:
        code = random_torus_code(gf, k, rng)
        *_, levels, w = translation_search(code)
        restricted += w == 2
        cases.append((code, levels, task_enumeration))
    assert restricted
    for n, k in ((3 * gf.q, 4), (2 * gf.q + 5, 5)):
        code = random_code(gf, n, k, rng)
        assert translations_taken(code) is None and len(list(_systematic_generators(code))) > 1
        levels = []
        min_distance_infoset_reference(code, levels=levels)
        cases.append((code, levels, min_distance_infoset_reference))
    for code, levels, oracle in cases:
        budgets = [None] + ([levels[1] - 1, levels[1]] if len(levels) > 1 else [])
        wants = {budget: oracle(code, work_budget=budget) for budget in budgets}
        for cap in (0, 1 << 12, 1 << 21):
            monkeypatch.setattr(codes_module, "_PAIR_LEAF_BYTES", cap)
            for budget in budgets:
                assert_same_report(min_distance_infoset(code, work_budget=budget), wants[budget])


def test_record_search_peak_memory():
    """One search of the record (49, 11, 28) holds at most 4 MB of numpy
    buffers at a time."""
    import tracemalloc

    from toric_codes.toric import toric_code

    record = toric_code(GF(2, 3), [(5, -1), (-1, 5), (-1, -1)], (0, 0, 5)).code
    tracemalloc.start()
    try:
        rep = min_distance(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.d == 28 and peak < 4 << 20


def test_pair_tables_of_many_matrices_share_the_cap(monkeypatch):
    """A search over seven disjoint information sets builds a pair table
    for each at level 3, and together they hold at most _PAIR_LEAF_BYTES;
    through level 3 it holds at most 3 MB of numpy buffers at a time, with
    the report of the one-row leaves alone.  (With a 2 MB cap per table the
    seven held 4.7 MB.)"""
    import tracemalloc

    import toric_codes.codes as codes_module

    gf = GF(2, 3)
    code = random_code(gf, 130, 20, np.random.default_rng(7))
    budget = sum(7 * math.comb(20, w) * 7 ** (w - 1) for w in (1, 2, 3))
    sizes = []
    pair_table = codes_module._pair_table
    monkeypatch.setattr(
        codes_module, "_pair_table", lambda *a: (lambda t: sizes.append(t.nbytes) or t)(pair_table(*a)))
    tracemalloc.start()
    try:
        rep = min_distance_infoset(code, work_budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.work == budget and len(sizes) == 7
    assert sum(sizes) <= codes_module._PAIR_LEAF_BYTES and peak < 3 << 20
    monkeypatch.setattr(codes_module, "_PAIR_LEAF_BYTES", 0)
    assert_same_report(rep, min_distance_infoset(code, work_budget=budget))


def test_infoset_mds_like():
    # generator [I | 1] has d = 2; infoset should certify at w = 1
    gf = GF(5)
    G = np.concatenate([np.eye(5, dtype=np.int16), np.ones((5, 1), dtype=np.int16)], axis=1)
    code = LinearCode(gf, G)
    rep = min_distance_infoset(code)
    assert rep.d == 2 and rep.exact


def test_infoset_work_budget_interval():
    rng = np.random.default_rng(4)
    gf = GF(5)
    code = random_code(gf, 14, 7, rng)
    rep = min_distance_infoset(code, work_budget=1)
    if not rep.exact:
        exact = min_distance_exhaustive(code).d
        assert rep.lower <= exact <= rep.upper
    # and with no budget it is exact and matches
    assert min_distance_infoset(code).d == min_distance_exhaustive(code).d


def test_min_distance_auto_dispatch():
    rng = np.random.default_rng(5)
    gf = GF(2)
    code = random_code(gf, 10, 4, rng)
    rep = min_distance(code)
    assert rep.method == "exhaustive"
    rep2 = min_distance(code, method="infoset")
    assert rep2.d == rep.d


def test_monomial_equivalence():
    rng = np.random.default_rng(6)
    gf = GF(5)
    code = random_code(gf, 9, 4, rng)
    d0 = min_distance_exhaustive(code).d
    perm = rng.permutation(9)
    scales = rng.integers(1, 5, size=9).astype(np.int16)
    M = code.gen[:, perm]
    M = gf.mul_table[M, scales[None, :]]
    assert min_distance_exhaustive(LinearCode(gf, M)).d == d0


@pytest.mark.parametrize("rows", [[[1, 2, 9]], [[1, 2, -1]], [[8, 0, 0]], [[1.0, 2.0, 3.0]]])
def test_generator_entries_must_be_field_elements(rows):
    with pytest.raises(CodeError, match="element indices"):
        LinearCode(GF(2, 3), rows)


@pytest.mark.parametrize("symbol", [-1, 5, 9])
def test_syndrome_and_codeword_entries_must_be_field_elements(symbol):
    code = LinearCode(GF(5), [[1, 0, 1, 2], [0, 1, 3, 4]])
    with pytest.raises(CodeError, match="element indices 0..4"):
        code.syndrome([0, 0, 0, symbol])
    with pytest.raises(CodeError, match="element indices 0..4"):
        code.codeword([symbol, 0])


@pytest.mark.parametrize("v", [3, np.ones((4, 1), dtype=int), [[1, 0, 1, 2]], [1, 0, 1]])
def test_syndrome_needs_a_length_n_vector(v):
    code = LinearCode(GF(5), [[1, 0, 1, 2], [0, 1, 3, 4]])
    with pytest.raises(CodeError, match="1-D vector of length 4"):
        code.syndrome(v)


@pytest.mark.parametrize("message", [3, np.ones((2, 1), dtype=int), [1, 0, 1]])
def test_codeword_needs_a_length_k_vector(message):
    code = LinearCode(GF(5), [[1, 0, 1, 2], [0, 1, 3, 4]])
    with pytest.raises(CodeError, match="1-D vector of length 2"):
        code.codeword(message)


def test_codes_compare_by_identity():
    a = LinearCode(GF(3), [[1, 0, 1], [0, 1, 2]])
    b = LinearCode(GF(3), [[1, 0, 1], [0, 1, 2]])
    assert a == a and a != b
    assert a in [b, a] and b not in [a]


def test_rank_deficient_generator_warns():
    gf = GF(5)
    code = LinearCode(gf, [[1, 2, 3], [2, 4, 1], [0, 1, 0]])  # row2 = 2*row1
    assert code.k == 2
    assert code.warnings


# -- Reed-Muller --------------------------------------------------------------


def test_rm_mariner():
    gf = GF(2)
    code = reed_muller(gf, 5, 1)
    assert (code.n, code.k) == (32, 6)
    assert min_distance_exhaustive(code).d == 16
    assert rm_predicted_params(2, 5, 1) == (32, 6, 16)


def test_rm_degree_zero_is_repetition():
    gf = GF(3)
    code = reed_muller(gf, 2, 0)
    assert (code.n, code.k) == (9, 1)
    assert min_distance_exhaustive(code).d == 9
    assert rm_predicted_params(3, 2, 0) == (9, 1, 9)


def test_rm_q3_m2():
    gf = GF(3)
    code = reed_muller(gf, 2, 1)
    assert (code.n, code.k) == (9, 3)
    d = min_distance_exhaustive(code).d  # 27 codewords
    assert d == rm_predicted_params(3, 2, 1)[2] == 6


def test_rm_prediction_k_sum_terms():
    # q=2, m=5, ell=1: one monomial of degree 0 and five of degree 1
    assert rm_predicted_params(2, 5, 1)[1] == 1 + 5


def rm_k_double_sum(q: int, m: int, ell: int) -> int:
    """k as the alternating double sum over each degree i <= ell of the
    vectors in [0, q-1]^m of degree i, by inclusion-exclusion over the j
    coordinates above q-1: O(ell^2 / q) binomials."""
    return sum(
        (-1) ** j * math.comb(m, j) * math.comb(m - 1 + i - q * j, m - 1)
        for i in range(ell + 1)
        for j in range(i // q + 1)
    )


def test_rm_k_single_sum_matches_the_double_sum():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(1, 7):
            for ell in range(m * (q - 1) + 1):
                assert rm_predicted_params(q, m, ell)[1] == rm_k_double_sum(q, m, ell)
    # ell = m(q - 1) takes every monomial; halfway, over GF(2), half of
    # them and half the middle binomial
    assert rm_predicted_params(2, 400, 400)[1] == 2**400
    assert 2 * rm_predicted_params(2, 200, 100)[1] == 2**200 + math.comb(200, 100)
    assert rm_predicted_params(3, 40, 37)[1] == rm_k_double_sum(3, 40, 37)


def rm_degree_counts(q: int, m: int) -> list[int]:
    """coeffs[s] = #{e in [0, q-1]^m : sum(e) = s}, by direct convolution
    (an oracle independent of the alternating-sum closed form)."""
    coeffs = [1]
    for _ in range(m):
        out = [0] * (len(coeffs) + q - 1)
        for s, c in enumerate(coeffs):
            for t in range(q):
                out[s + t] += c
        coeffs = out
    return coeffs


def rm_monomial_count(q: int, m: int, ell: int) -> int:
    """|{e in [0, q-1]^m : sum(e) <= ell}| (equals the constructed
    dimension: distinct reduced monomials are linearly independent
    functions on GF(q)^m)."""
    return sum(rm_degree_counts(q, m)[: ell + 1])


def test_rm_constructed_rank_equals_prediction():
    for q, p, m_ext in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]:
        gf = GF(p, m_ext)
        for m in (1, 2):
            if q**m > 3**6:
                continue
            for ell in range(0, m * (q - 1) + 1):
                code = reed_muller(gf, m, ell)
                n, k, _ = rm_predicted_params(q, m, ell)
                assert (code.n, code.k) == (n, k)
                assert k == rm_monomial_count(q, m, ell)


def test_rm_errors():
    for m, ell in [(5, 1.5), (True, 1), (2.0, 1), (5, False), ("5", 1), (5, None)]:
        with pytest.raises(CodeError, match="must hold integers"):
            reed_muller(GF(2), m, ell)
        with pytest.raises(CodeError, match="must hold integers"):
            rm_predicted_params(2, m, ell)
    assert reed_muller(GF(2), np.int64(3), np.int8(1)).k == rm_predicted_params(2, np.int64(3), np.int8(1))[1] == 4
    assert rm_predicted_params(7, np.int8(100), np.int8(1))[0] == 7**100  # no int8 overflow
    assert rm_predicted_params(np.int64(7), 100, 1)[0] == 7**100  # no int64 overflow
    with pytest.raises(CodeError):
        rm_predicted_params(3, 2, 5)  # ell > m(q-1)
    with pytest.raises(CodeError):
        rm_predicted_params(3, 0, 0)  # no variables
    with pytest.raises(CodeError):
        reed_muller(GF(2), 20, 1)  # size cap
    # q^m past the digits that Python converts to a string
    with pytest.raises(CodeError, match=r"^q\^m = 2\^20000 exceeds the size cap 65536$"):
        reed_muller(GF(2), 20000, 1)


@pytest.mark.parametrize("q", [2.5, 6, True, 1, 12, "4", None])
def test_rm_prediction_rejects_a_q_that_is_not_a_prime_power(q):
    with pytest.raises(CodeError, match="is not a prime power"):
        rm_predicted_params(q, 2, 1)


def matmul_reference(gf, A, B):
    """The column loop that matmul replaced, kept as its oracle: one
    scaled row of B added per inner index."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int16)
    for k in range(A.shape[1]):
        out = gf.vadd(out, gf.mul_table[A[:, k]][:, B[k]])
    return out


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_matmul_consistency(p, m):
    gf = GF(p, m)
    rng = np.random.default_rng(8 + 10 * p + m)
    sizes = []  # of every broadcast block product

    def vmul(X, Y):
        out = GF.vmul(gf, X, Y)
        sizes.append(out.size)
        return out

    gf.vmul = vmul
    # inner dimension 0, single rows and columns, several inner blocks of
    # width 2 (rows * cols = 90 000), and width 1 (rows * cols > 2^18)
    shapes = [(3, 0, 4), (0, 5, 3), (1, 7, 1), (1, 9, 6), (6, 9, 1), (4, 5, 3)]
    for rows, inner, cols in shapes + [(300, 10, 300), (600, 5, 500)]:
        A = rng.integers(0, gf.q, size=(rows, inner)).astype(np.int16)
        B = rng.integers(0, gf.q, size=(inner, cols)).astype(np.int16)
        sizes.clear()
        C = matmul(gf, A, B)
        assert sum(sizes) == rows * inner * cols
        assert max(sizes, default=0) <= max(1 << 18, rows * cols)
        assert C.dtype == np.int16 and C.shape == (rows, cols)
        assert np.array_equal(C, matmul_reference(gf, A, B))
        if m == 1:
            assert np.array_equal(C, (A.astype(np.int64) @ B) % p)
        if cols == 1:
            assert np.array_equal(matvec(gf, A, B[:, 0]), C[:, 0])
    A = rng.integers(0, gf.q, size=(4, 5)).astype(np.int16)
    B = rng.integers(0, gf.q, size=(5, 3)).astype(np.int16)
    C = matmul(gf, A, B)
    for i in range(4):
        for j in range(3):
            acc = 0
            for t in range(5):
                acc = gf.add(acc, gf.mul(int(A[i, t]), int(B[t, j])))
            assert C[i, j] == acc
    with pytest.raises(CodeError, match="length mismatch"):
        matmul(gf, A[:2, :2], B[:3, :4])
    with pytest.raises(CodeError, match="length mismatch"):
        matvec(gf, A, B[:4, 0])


def test_matmul_refuses_operands_that_are_not_integer_arrays():
    gf = GF(2, 3)
    with pytest.raises(CodeError, match="integer arrays"):
        matmul(gf, [[1.5]], [[2]])
    A = np.ones((2, 3), dtype=np.int16)
    for bad in (A.astype(float), A.astype(bool), A.astype(complex), A.astype(object), A.astype(str)):
        with pytest.raises(CodeError, match="integer arrays"):
            matmul(gf, bad, A.T)
        with pytest.raises(CodeError, match="integer arrays"):
            matmul(gf, A, bad.T)
        with pytest.raises(CodeError, match="integer arrays"):
            matvec(gf, A, bad[0])
    with pytest.raises(CodeError, match="integer arrays"):
        matvec(gf, A, [])  # an empty list is a float array
    for dtype in (np.uint8, np.int32, np.int64, np.uint64):
        assert np.array_equal(matmul(gf, A.astype(dtype), [[1], [2], [3]]), [[0], [0]])


def test_matmul_refuses_entries_that_are_not_element_indices():
    """Every entry of both operands is checked: -1 once read the last row
    of the multiplication table (so [[-1]] times [[1]] gave [[7]] over
    GF(8)), and an entry >= q raised IndexError.  An index past q^2 of the
    flat table is refused as well, over GF(256), whose index is intp, and
    so is a negative entry of a narrow or byte-swapped integer dtype.  The
    int16 and int32 operands are checked by the gather itself, also in a
    later block of the inner axis; an empty product reads no entry, and its
    operands are checked all the same."""
    later = np.zeros((600, 2), dtype=np.int16)  # inner blocks of width 1
    later[5, 1] = -1
    empty = np.zeros((0, 1), dtype=np.int16)

    def i16(x):
        return np.array([[x]], dtype=np.int16)

    for gf in (GF(2, 3), GF(5), GF(3, 2), GF(2, 8)):
        q = gf.q
        for A, B in [([[-1]], [[1]]), ([[q]], [[1]]), ([[1]], [[-1]]), ([[1]], [[q]]),
                     (np.array([[q * q]], dtype=np.uint32), [[1]]), ([[1, 0], [0, 1]], [[1], [-q]]),
                     (np.array([[-1]], dtype=np.int8), [[1]]), ([[1]], np.array([[-1]], dtype=">i4")),
                     (i16(-1), i16(1)), (i16(1), i16(q)), (i16(q), np.array([[1]], dtype=np.uint16)),
                     (np.array([[-1]], dtype=np.int32), i16(1)), (later, np.ones((2, 600), dtype=np.int16)),
                     (empty, i16(q)), (empty, i16(-1)), (i16(-1), np.zeros((1, 0), dtype=np.int16))]:
            with pytest.raises(CodeError, match=f"element indices 0..{q - 1}"):
                matmul(gf, A, B)
        with pytest.raises(CodeError, match="element indices"):
            matvec(gf, [[1, 2]], [1, q])
        assert np.array_equal(matmul(gf, [[q - 1]], np.array([[1]], dtype=np.uint64)), [[q - 1]])
        assert np.array_equal(matmul(gf, np.array([[q - 1]], dtype=">i4"), [[1]]), [[q - 1]])


def test_matmul_sums_past_the_chunk_cap():
    """(1, 2000) by (2000, 1) over GF(3^6): one block of 2000 products,
    summed in chunks of at most 511; the all-(q - 1) products fill every
    digit field of the first chunk."""
    gf = GF(3, 6)
    assert gf.sum_cap == 511
    rng = np.random.default_rng(29)
    A = rng.integers(0, gf.q, size=(1, 2000)).astype(np.int16)
    B = rng.integers(0, gf.q, size=(2000, 1)).astype(np.int16)
    one, top = np.ones_like(A), np.full_like(B, gf.q - 1)
    for X, Y in [(A, B), (one, top), (one, B), (A, top)]:
        assert np.array_equal(matmul(gf, X, Y), matmul_reference(gf, X, Y))
    assert matmul(gf, one, top)[0, 0] == gf.vscale(2000 % 3, np.int16(gf.q - 1))
