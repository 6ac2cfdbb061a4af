"""The three workloads: ``corpus``, ``construct`` and ``decode``.

Each workload is a ``Plan``: the operations of one pass, a set-up that
builds the program state, one call per operation, and a check of every
result against frozen expectations.  Only ``decode`` draws its inputs from
the seed; the golden rows and the construct codes are frozen.  The
package is reached only through attribute lookups on its modules at call
time, so that a ``Tracer`` sees every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import frozen


@dataclass
class Outcome:
    key: tuple  # exact summary; must repeat across passes and under tracing
    ok: bool  # passes the correctness gate
    failed: bool  # no usable result
    exact: bool  # exactly the expected result (counts toward unique_frac)
    count: int = 0  # the workload's exact work count for this operation
    problem: str = ""


@dataclass
class Plan:
    items: list  # the operations of one pass, in order
    labels: list[str]
    setup: Callable[[], Any]  # builds the state the timed phase uses
    run: Callable[[Any, Any], Any]  # one operation
    check: Callable[[Any, Any, Any], Outcome]
    setup_repeats: int
    count_name: str


def digest(mat: np.ndarray) -> str:
    mat = np.ascontiguousarray(mat, dtype="<i2")
    return hashlib.sha256(repr(mat.shape).encode() + mat.tobytes()).hexdigest()


# -- corpus -------------------------------------------------------------------


def corpus(tc, seed: int, smoke: bool = False) -> Plan:
    """Exact minimum distance, method "auto", of every frozen golden row.

    One operation reproduces one golden table, as ``toric-codes reproduce``
    does; the rows and their order are frozen, so the seed changes nothing.
    """
    rows = frozen.SMOKE_CORPUS_ROWS if smoke else frozen.CORPUS_ROWS
    tables: dict[str, list[int]] = {}
    for i, row in enumerate(rows):
        tables.setdefault(row[0], []).append(i)
    items = list(tables.values())

    def setup():
        codes = []
        for family, (p, m), params, _ in rows:
            gf = tc.GF(p, m)
            if family == "rm":
                codes.append(tc.codes.reed_muller(gf, *params))
            elif family == "hansen-b":
                codes.append(tc.toric.hansen_code("b", gf, a=params[0]).code)
            else:
                codes.append(tc.toric.toric_code(gf, frozen.FANS[family], params).code)
        return codes

    def run(codes, table):
        return [tc.codes.min_distance(codes[i]) for i in table]

    def check_row(code, expected, rep):
        w = np.asarray(rep.witness)
        got = (code.n, code.k, rep.d)
        if not rep.exact or got != expected:
            return f"(n, k, d) = {got}, exact={rep.exact}, expected {expected}"
        if int(np.count_nonzero(w)) != rep.d:
            return f"witness weight {np.count_nonzero(w)} != d = {rep.d}"
        if tc.codes.solve(code.gf, code.gen.T, w) is None:
            return "witness is not a codeword"
        return ""

    def check(codes, table, reps):
        problems = []
        for i, rep in zip(table, reps):
            problem = check_row(codes[i], rows[i][3], rep)
            if problem:
                problems.append(f"row {rows[i][:3]}: {problem}")
        key = tuple(
            (rep.d, rep.method, int(rep.work), np.asarray(rep.witness).astype("<i2").tobytes())
            for rep in reps
        )
        ok = not problems
        return Outcome(
            key=key,
            ok=ok,
            failed=not ok,
            exact=ok,
            count=sum(int(rep.work) for rep in reps),
            problem="; ".join(problems),
        )

    return Plan(items, list(tables), setup, run, check, 5, "codewords")


# -- construct ----------------------------------------------------------------


def construct(tc, seed: int, smoke: bool = False) -> Plan:
    """Build plus dual of fan1 codes over GF(32), GF(23) and GF(25).

    One operation builds one code; the codes are frozen, so the seed
    changes nothing.
    """
    table = frozen.SMOKE_CONSTRUCT_CODES if smoke else frozen.CONSTRUCT_CODES
    keys = list(table)
    items = list(range(len(keys)))

    def setup():
        specs = []
        for (p, m), divisor, orbits in keys:
            gf = tc.GF(p, m)
            fan = tc.Fan2D(frozen.FANS["fan1"])
            points = tc.toric.default_points(gf, fan, torus=True, orbits=orbits)
            specs.append(tc.toric.ToricCodeSpec(gf, fan, tc.TDivisor(divisor), points))
        return specs

    def run(specs, i):
        return tc.toric.build(specs[i])

    def check(specs, i, res):
        n, k, k_dual, gen_digest = table[keys[i]]
        code, dual = res.code, res.dual
        got = (code.n, code.k, dual.k, digest(code.gen))
        problems = []
        if got != (n, k, k_dual, gen_digest):
            problems.append(f"(n, k, k_dual, digest) = {got}, expected {(n, k, k_dual, gen_digest)}")
        product = tc.codes.matmul(code.gf, code.gen, dual.gen.T)
        if product.any():
            problems.append("G H^T != 0")
        ok = not problems
        return Outcome(
            key=got + (digest(dual.gen),),
            ok=ok,
            failed=not ok,
            exact=ok,
            count=dual.k,
            problem="; ".join(problems),
        )

    labels = [f"GF({p}^{m}) G={d} orbits={o}" for (p, m), d, o in keys]
    return Plan(items, labels, setup, run, check, 25, "dual_rank")


# -- decode -------------------------------------------------------------------


@dataclass
class Word:
    received: np.ndarray
    planted: np.ndarray


def decode(tc, seed: int, smoke: bool = False) -> Plan:
    """List decoding of seeded noisy dual codewords on two instances.

    Word j of an instance carries 1 + j % t_max planted errors at seeded
    positions with seeded nonzero values, on a seeded random codeword of
    the dual code.  A pass interleaves three GF(8) words per GF(9) word.
    """
    counts = frozen.SMOKE_DECODE_WORDS if smoke else frozen.DECODE_WORDS
    names = list(frozen.DECODE_INSTANCES)
    ratio = counts[names[0]] // counts[names[1]]
    items = []
    for j in range(counts[names[1]]):
        items.extend((names[0], ratio * j + r) for r in range(ratio))
        items.append((names[1], j))

    def setup():
        state = {}
        for idx, name in enumerate(names):
            (p, m), divisor, boundary, t_max = frozen.DECODE_INSTANCES[name]
            gf = tc.GF(p, m)
            fan = tc.Fan2D(frozen.FANS["fan1"])
            points = list(tc.geometry.torus_points(gf))
            points += [tc.geometry.OrbitPoint(ray, s) for ray, s in boundary]
            spec = tc.toric.ToricCodeSpec(gf, fan, tc.TDivisor(divisor), points)
            st = tc.decoder.setup(
                spec, tc.TDivisor(frozen.DECODE_GPRIME), z_work_budget=frozen.DECODE_Z_WORK_BUDGET
            )
            dual = st.result.dual
            rng = np.random.default_rng([seed, idx])
            words = []
            for j in range(counts[name]):
                msg = rng.integers(0, gf.q, size=dual.k).astype(np.int16)
                c = tc.codes.matvec(gf, dual.gen.T, msg)
                t = 1 + j % t_max
                e = np.zeros(st.n, dtype=np.int16)
                e[rng.choice(st.n, size=t, replace=False)] = rng.integers(1, gf.q, size=t)
                words.append(Word(gf.vadd(c, e), e))
            state[name] = (st, words)
        return state

    def run(state, item):
        name, j = item
        st, words = state[name]
        return tc.decoder.decode(words[j].received, st)

    def check(state, item, out):
        name, j = item
        planted = state[name][1][j].planted
        found = out.errors_found
        if out.status == "unique":
            exact = bool(np.array_equal(found, planted))
            ok, failed = exact, not exact
            key_found = (np.asarray(found).astype("<i2").tobytes(),)
        elif out.status == "list":
            exact, ok = False, True
            failed = not any(np.array_equal(e, planted) for e in found)
            key_found = tuple(np.asarray(e).astype("<i2").tobytes() for e in found)
        else:
            exact, ok, failed, key_found = False, True, True, ()
        return Outcome(
            key=(out.status, tuple(out.zero_set)) + key_found,
            ok=ok,
            failed=failed,
            exact=exact,
            count=len(out.zero_set),
            problem="" if ok else "unique outcome differs from the planted error",
        )

    labels = [f"{name} word {j}" for name, j in items]
    return Plan(items, labels, setup, run, check, 3, "zero_set_size")


WORKLOADS = {"corpus": corpus, "construct": construct, "decode": decode}


def make_plan(tc, workload: str, seed: int, smoke: bool = False) -> Plan:
    return WORKLOADS[workload](tc, seed, smoke)
