import itertools
import math

import numpy as np
import pytest

from toric_codes.field import GF
from toric_codes.codes import (
    CodeError,
    LinearCode,
    WeightReport,
    WorkCapExceeded,
    _systematic_generators,
    dual,
    matmul,
    matvec,
    min_distance,
    min_distance_exhaustive,
    min_distance_infoset,
    null_space,
    reed_muller,
    rm_monomial_count,
    rm_predicted_params,
    rref,
    solve,
    syndrome,
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
        # duality: every generator row has zero syndrome against dual(code)
        for row in code.gen:
            assert not syndrome(h, row).any()


def test_syndrome_examples():
    # syndrome(code, v) vanishes iff v is a codeword of dual(code)
    gf = GF(2)
    rep = LinearCode(gf, [[1, 1, 1]])
    h = rep.dual()
    assert not syndrome(h, rep.gen[0]).any()  # generator row against its dual
    assert not syndrome(rep, np.zeros(3, dtype=np.int16)).any()
    e1 = np.array([1, 0, 0], dtype=np.int16)
    assert np.array_equal(syndrome(h, e1), h.gen[:, 0])
    with pytest.raises(CodeError):
        syndrome(rep, np.zeros(4, dtype=np.int16))


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


def min_distance_infoset_reference(code, work_budget=None):
    """The int16 information-set engine that the packed one replaced, kept
    as its oracle (one worker, one leaf block per support prefix)."""
    gf, G, k, n = code.gf, code.gen, code.k, code.n
    mats = _systematic_generators(gf, G)
    deficits = [k - rank for _, rank in mats]
    units = np.array(gf.units(), dtype=np.int16)
    best_w, witness, work = n + 1, None, 0
    active = [True] * len(mats)

    def bound_at(w_):
        return sum(max(0, (w_ + 1) - dft) for dft, on in zip(deficits, active) if on)

    def projected_stop(upper):
        return next((w_ for w_ in range(1, k + 1) if bound_at(w_) >= upper), k)

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
        best_w, witness, work = _reduce_reference(results, best_w, witness, work)
        lower = bound_at(w)
        if lower >= best_w or w == k:
            break
        if work_budget is not None and work > work_budget:
            return WeightReport(best_w, witness, "information-set", work, False, lower, best_w)
    return WeightReport(d=best_w, witness=witness, method="information-set", work=work)


def assert_same_report(got, want):
    assert (got.d, got.method, got.work, got.exact, got.lower, got.upper) == (
        want.d, want.method, want.work, want.exact, want.lower, want.upper
    )
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
        reed_muller(GF(2), 20, 1)  # size cap


def test_matmul_consistency():
    rng = np.random.default_rng(8)
    gf = GF(2, 3)
    A = rng.integers(0, 8, size=(4, 5)).astype(np.int16)
    B = rng.integers(0, 8, size=(5, 3)).astype(np.int16)
    C = matmul(gf, A, B)
    for i in range(4):
        for j in range(3):
            acc = 0
            for t in range(5):
                acc = gf.add(acc, gf.mul(int(A[i, t]), int(B[t, j])))
            assert C[i, j] == acc
