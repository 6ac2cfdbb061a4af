import itertools
import math

import numpy as np
import pytest

from toric_codes.field import GF
from toric_codes.geometry import torus_evaluation_matrix, torus_points
from toric_codes.codes import (
    CodeError,
    LinearCode,
    WeightReport,
    WorkCapExceeded,
    _systematic_generators,
    _torus_translations,
    matmul,
    matvec,
    min_distance,
    min_distance_exhaustive,
    min_distance_infoset,
    null_space,
    reed_muller,
    rm_predicted_params,
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


ORACLE_FIELDS = [(2, 1), (2, 3), (2, 4), (5, 1), (7, 1), (3, 2), (5, 2)]


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


@pytest.mark.parametrize("p,m", ORACLE_FIELDS + [(2, 6)])
def test_rref_matches_reference_on_sparse_and_thin_matrices(p, m):
    """rref updates every row at each pivot; rows that are zero in the pivot
    column must come out unchanged."""
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
    oracle (one worker)."""
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
    as its oracle (one worker, one leaf block per support prefix).  Under a
    budget it enumerates each level in full and discards a level whose work
    would cross the budget, without the engine's cost formula.  ``levels``,
    if given, collects the cumulative work after each finished level."""
    gf, G, k, n = code.gf, code.gen, code.k, code.n
    mats = list(_systematic_generators(gf, G))
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


def test_witness_in_row_space():
    rng = np.random.default_rng(1)
    gf = GF(5)
    code = random_code(gf, 10, 4, rng)
    rep = min_distance_exhaustive(code)
    # witness weight matches and witness is a codeword: consistent syndrome
    assert int(np.count_nonzero(rep.witness)) == rep.d
    assert not code.dual().syndrome(rep.witness).any()


def test_workers_deterministic():
    rng = np.random.default_rng(2)
    gf = GF(3)
    code = random_code(gf, 12, 6, rng)
    a = min_distance_exhaustive(code, workers=1)
    b = min_distance_exhaustive(code, workers=4)
    assert a.d == b.d and np.array_equal(a.witness, b.witness)
    c = min_distance_infoset(code, workers=4)
    assert c.d == a.d
    for gf, n, k in [(GF(3), 12, 6), (GF(2, 3), 70, 5), (GF(7), 30, 4)]:
        code = random_code(gf, n, k, rng)
        for engine in (min_distance_exhaustive, min_distance_infoset):
            assert_same_report(engine(code, workers=2), engine(code, workers=1))


@pytest.mark.parametrize("workers", [0, -1, 1.5, "2", True, None])
def test_workers_must_be_a_positive_integer(workers):
    from toric_codes.reproduce import reproduce_table

    code = LinearCode(GF(3), [[1, 0, 1, 1], [0, 1, 1, 2]])
    for call in (min_distance, min_distance_exhaustive, min_distance_infoset):
        with pytest.raises(CodeError, match="workers must be an integer >= 1"):
            call(code, workers=workers)
    with pytest.raises(CodeError, match="workers must be an integer >= 1"):
        reproduce_table("rm", workers=workers)


def test_thread_pool_is_bounded_by_tasks_and_processors(monkeypatch):
    """A huge worker count starts no more threads than there are tasks or
    processors; the pool is a recording fake, so no thread starts."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
    code = random_code(GF(3), 12, 6, np.random.default_rng(9))
    want = min_distance_exhaustive(code)  # 6 tasks, one per leading row
    for cpus, size in [(64, 6), (4, 4)]:
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        sizes.clear()
        assert_same_report(min_distance_exhaustive(code, workers=10**9), want)
        assert sizes == [size]
    sizes.clear()
    min_distance_infoset(code, workers=10**9)
    assert sizes and max(sizes) <= 4


# -- information-set engine ---------------------------------------------------


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


def translations_taken(code):
    return _torus_translations(code.gf, rref(code.gf, code.gen)[0])


def min_distance_translation_reference(code):
    """Oracle of the translation path by plain message enumeration: level w
    takes every message of weight w with first nonzero symbol 1 through the
    reduced echelon generator, and the search stops once ceil(n (w+1) / k)
    reaches the least weight seen.  The witness is the lex-min over every
    translate of every least-weight word.  Returns (d, witness, work,
    cumulative work after each level)."""
    gf, k, n = code.gf, code.k, code.n
    R = rref(gf, code.gen)[0]
    units = gf.units()  # units[0] is 1
    best, hits, work, levels = n + 1, [], 0, []
    for w in range(1, k + 1):
        msgs = []
        for support in itertools.combinations(range(k), w):
            for coeffs in itertools.product(units, repeat=w - 1):
                msg = np.zeros(k, dtype=np.int16)
                msg[list(support)] = (units[0],) + coeffs
                msgs.append(msg)
        words = gf.vsum(gf.vmul(np.array(msgs)[:, :, None], R[None]), axis=1)
        work += len(words)
        levels.append(work)
        weights = np.count_nonzero(words, axis=1)
        if weights.min() < best:
            best, hits = int(weights.min()), []
        hits.extend(words[weights == best])
        if -(-n * (w + 1) // k) >= best:
            break
    perms = translation_permutations(gf)
    translates = np.concatenate([hit[perms] for hit in hits])
    return best, translates[np.lexsort(translates.T[::-1])[0]], work, levels


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
    level w (ceil(n / k) before level 1), and the interval holds d."""
    gf = GF(p, m)
    code = random_torus_code(gf, k, np.random.default_rng([31, p, m]))
    n = code.n
    d, _, _, levels = min_distance_translation_reference(code)
    assert len(levels) >= 2
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


def test_translation_path_workers_deterministic():
    from toric_codes.toric import toric_code

    record = toric_code(GF(2, 3), [(5, -1), (-1, 5), (-1, -1)], (0, 0, 5)).code
    codes = [record, random_torus_code(GF(3, 2), 5, np.random.default_rng(37))]
    for code in codes:
        assert translations_taken(code) is not None
        assert_same_report(min_distance_infoset(code, workers=2), min_distance_infoset(code))
    assert (record.n, record.k, min_distance_infoset(record).d) == (49, 11, 28)


# GF(7) digit bytes, GF(8) bit planes, GF(9) trit planes
@pytest.mark.parametrize("p,m", [(7, 1), (2, 3), (3, 2)])
def test_translation_path_two_workers(p, m):
    """Two workers give the one-worker report on the translation path, with
    no budget and under a budget that stops after level 1."""
    gf = GF(p, m)
    code = random_torus_code(gf, 5, np.random.default_rng([43, p, m]))
    assert translations_taken(code) is not None
    _, _, _, levels = min_distance_translation_reference(code)
    assert len(levels) >= 2
    for budget in (None, levels[0]):
        one = min_distance_infoset(code, work_budget=budget)
        assert one.exact == (budget is None)
        assert_same_report(min_distance_infoset(code, work_budget=budget, workers=2), one)


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
    """The table equals the (q-1)^2 rolls of the coordinate grid, rows in
    (a, b) order, and each row inverts the oracle's row of the same index
    (the map by the torus point whose logarithms are (a, b))."""
    gf = GF(p, m)
    N = gf.q - 1
    code = random_torus_code(gf, 3, np.random.default_rng([41, p, m]))
    table = translations_taken(code)
    grid = np.arange(N * N).reshape(N, N)
    rolls = [np.roll(grid, (a, b), axis=(0, 1)).ravel() for a in range(N) for b in range(N)]
    assert np.array_equal(table, rolls)
    assert np.array_equal(table, np.argsort(translation_permutations(gf), axis=1))


def test_witness_is_unpacked_once_per_level(monkeypatch):
    """The engines keep their ties packed: the information-set engine
    unpacks at most once per finished level, the exhaustive engine once per
    search, on a random GF(8) code and a GF(9) torus code (their ties fit
    one unpack block)."""
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
        assert rep.work == levels[-1] and 1 <= len(calls) <= len(levels)
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
    int16 reference, with one and two workers and under budgets at each
    level's cumulative work and one below it."""
    code = random_code(GF(p, m), n, k, np.random.default_rng([59, p, m]))
    levels = []
    want = min_distance_infoset_reference(code, levels=levels)
    assert len(levels) >= 3
    budgets = sorted({b for lw in levels for b in (lw - 1, lw)} - {0})
    wants = {b: min_distance_infoset_reference(code, work_budget=b) for b in budgets}
    for workers in (1, 2):
        never, always = run_both_leaf_forms(
            monkeypatch, lambda: min_distance_infoset(code, workers=workers))
        assert_same_report(never, want)
        assert_same_report(always, want)
        for budget in budgets:
            never, always = run_both_leaf_forms(
                monkeypatch,
                lambda: min_distance_infoset(code, workers=workers, work_budget=budget),
                pairs=budget >= levels[2])
            assert_same_report(never, wants[budget])
            assert_same_report(always, wants[budget])


# GF(7) digit bytes, GF(8) bit planes, GF(9) trit planes
@pytest.mark.parametrize("p,m,k", [(7, 1, 5), (2, 3, 5), (3, 2, 5)])
def test_two_leaf_forms_give_one_report_on_the_translation_path(monkeypatch, p, m, k):
    """The translation path, with the two-row leaf never and always taken:
    d, witness and work equal the plain enumeration oracle, and the full
    reports equal each other with one and two workers and under budgets at
    each level's cumulative work and one below it."""
    gf = GF(p, m)
    code = random_torus_code(gf, k, np.random.default_rng([61, p, m]))
    assert translations_taken(code) is not None
    d, witness, work, levels = min_distance_translation_reference(code)
    assert len(levels) >= 3
    for workers in (1, 2):
        for budget in [None] + sorted({b for lw in levels[2:] for b in (lw - 1, lw)}):
            never, always = run_both_leaf_forms(
                monkeypatch,
                lambda: min_distance_infoset(code, workers=workers, work_budget=budget),
                pairs=budget is None or budget >= levels[2])
            assert_same_report(always, never)
            done = [lw for lw in levels if budget is None or lw <= budget]
            assert never.work == done[-1] and never.exact == (len(done) == len(levels))
            if never.exact:
                assert never.d == d and np.array_equal(never.witness, witness)


def test_record_search_peak_memory():
    """One search of the record (49, 11, 28) holds at most 4 MB of numpy
    buffers at a time with one worker, and 6 MB with two."""
    import tracemalloc

    from toric_codes.toric import toric_code

    record = toric_code(GF(2, 3), [(5, -1), (-1, 5), (-1, -1)], (0, 0, 5)).code
    for workers, bound in [(1, 4 << 20), (2, 6 << 20)]:
        tracemalloc.start()
        try:
            rep = min_distance(record, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.d == 28 and peak < bound


def test_pair_tables_of_many_matrices_share_the_cap(monkeypatch):
    """A search over seven disjoint information sets builds a pair table
    for each at level 3, and together they hold at most _PAIR_LEAF_BYTES;
    through level 3 it holds at most 3 MB of numpy buffers at a time with
    one worker, and 4 MB with two, with the report of the one-row leaves
    alone.  (With a 2 MB cap per table the seven held 4.7 MB.)"""
    import tracemalloc

    import toric_codes.codes as codes_module

    gf = GF(2, 3)
    code = random_code(gf, 130, 20, np.random.default_rng(7))
    budget = sum(7 * math.comb(20, w) * 7 ** (w - 1) for w in (1, 2, 3))
    sizes = []
    pair_table = codes_module._pair_table
    monkeypatch.setattr(
        codes_module, "_pair_table", lambda *a: (lambda t: sizes.append(t.nbytes) or t)(pair_table(*a)))
    for workers, bound in [(1, 3 << 20), (2, 4 << 20)]:
        sizes.clear()
        tracemalloc.start()
        try:
            rep = min_distance_infoset(code, workers=workers, work_budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.work == budget and len(sizes) == 7
        assert sum(sizes) <= codes_module._PAIR_LEAF_BYTES and peak < bound
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
    # q=2, m=5, ell=1: i=0 contributes 1, i=1 contributes 5
    assert rm_predicted_params(2, 5, 1)[1] == 1 + 5


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
    with pytest.raises(CodeError):
        rm_predicted_params(3, 2, 5)  # ell > m(q-1)
    with pytest.raises(CodeError):
        rm_predicted_params(3, 0, 0)  # no variables
    with pytest.raises(CodeError):
        reed_muller(GF(2), 20, 1)  # size cap


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
