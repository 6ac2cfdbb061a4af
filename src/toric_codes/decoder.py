"""List decoder for the dual C of a toric evaluation code C_L(P, G).

Given an auxiliary divisor G', a received word r = c + e enters once,
through ``syndrome``, which checks it and returns s = H r, the brackets
[r, h_j] over the basis h of L(G).  Every stage takes s: (1)
``bracket_matrix`` gathers the bracket system sum_j [r, f_j g_i] a_j = 0
over the monomial bases f of L(G') and g of L(G - G') from s; (2)
``zero_set`` takes the candidate set N(f), the common zeros of every
locator f = sum a_j f_j in the null space; (3) ``error_values`` solves
sum_{i in N(f)} b_i h_j(P_i) = s_j.

``decode`` runs the same chain from one reduction R of the bracket matrix
B, with rank rho and its pivot columns.  The null vector of free column f
is x_f = 1, x_p = -R[row of p, f] at each pivot p, so the twisted values of
the whole null basis are the free rows of the locator table plus
(-R[:rho, free])^T times its pivot rows: a product over rho (1 to 4 on the
bench words), where the null basis times the table runs over
ell = dim L(G').  The locator is the first of these vectors, and the value
system runs without the input checks of ``error_values``, on a syndrome
and a candidate set that ``decode`` made itself.  The value system is one
reduction of [H[:, N] | s]: a pivot in its last column leaves no
solution, else its q^(|N| - rank) solutions are counted before any is
formed, a unique one is the last column's first |N| entries, and the null
basis is read off only for a list within the cap.  The stage functions
keep their checks and stay the reference that ``decode`` is tested
against.

The per-word path checks r once, in ``syndrome``, and nothing after it.
Every later operand is the checked word, a table that set-up made from
checked data (H, the locator table, ``bracket_index``), or an array formed
from those by gathers, field products, negation and reduction, each of
which maps element indices to element indices.  So:

- the syndrome H r is one flat-table product (``GF._mul``) and one field
  sum along each row;
- the bracket matrix s[bracket_index] and the value matrix [H[:, N] | s]
  are fresh arrays that ``codes._rref``, the pivot loop of ``rref``
  without its entry check and copy, reduces in place; the value matrix is
  one int16 array, written by ``H.take(N, axis=1, out=...)`` and then s;
- the candidate step forms its rho x |free| x n products in one ``_mul``
  and adds them, one pivot row at a time, into the free rows of the
  locator table with ``GF._iadd``.

Each index a word needs is formed once and read with ``take``.  The free
columns are one intp array, listed from the pivots that the reduction
returns (a few of ell = dim L(G') columns; ``codes._null_basis`` masks
all of its columns instead, as ``dual`` needs at n in the hundreds): they
give the null-basis coefficients and the free rows of the locator table.
The pivot list gives its pivot rows and the outcome's locator.  The
candidate set N is the ``nonzero`` array of the zero test: it gives the
columns of the value matrix and the positions of the errors, and becomes
a list once, for ``DecodeOutcome.zero_set``.

The flat products read an index >= q as another row of the table, which
is why only operands made this way reach them; ``matmul`` and ``rref``
keep their entry checks for every other caller.

Setup lists L(G') and L(G - G') through ``toric.function_space``, the
gate that lists L(G), with no dual cap: no dual of either is formed.
Every bracket is an entry of s: a product f_j g_i has its exponent in
P_G' + P_(G-G'), which lies in P_G, the exponents of the basis h
(Skorobogatov-Vladut, IEEE Trans. IT 1990).  Setup keeps each product's
row in H; none has a pole, because ``build`` evaluated every exponent of
P_G at level 0.

Boundary subtleties: G' may carry positive coefficients on rays that host
orbit points, so a basis monomial of L(G') may have a pole there, and the
locator is read at a twisted level, not at order 0.  At a point P on ray
r, let beta_r be the least order <b, v_r> over the gap basis L(G - G')
(0 on the torus; ``geometry.least_orders``), and read L(G') at the level
-beta_r (``geometry.evaluation_matrix``).  That level never exceeds the
order of a locator monomial f_j: with g_i a gap monomial of order beta_r
at P, the product f_j g_i lies in P_G, which ``build`` evaluated without
a pole, so ord_P(f_j) + beta_r = ord_P(f_j g_i) >= 0.  So the reading
raises no PoleError, and f_j g_i (P) = f~_j(P) g~_i(P), where f~_j(P) is
the leading value of f_j if its order at P is -beta_r (else 0), and
g~_i(P) that of g_i at level +beta_r.  Setup keeps the one table f~_j(P).
The bracket system gives sum_i e_i f~(P_i) g~(P_i) = 0 for every g, so
(e_i f~(P_i)) lies in the dual of the twisted evaluation code of
L(G - G'): while the error count is below that dual's distance, f~
vanishes at every error position for every f in the null space
(Skorobogatov-Vladut 1990; Pellikaan, Discrete Math. 1992), and ``decode``
takes the common zeros of the whole null basis.  Past that radius the
intersection can drop an error position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import (
    EXHAUSTIVE_LIMIT,
    CodeError,
    LinearCode,
    WorkCapExceeded,
    _elements,
    _null_basis,
    _rref,
    _solution,
    matmul,
    min_distance,
    null_space,
)
from .field import _positive
from .geometry import PointSet, TDivisor, evaluation_matrix, least_orders
from .toric import ToricCodeSpec, ToricCodeResult, build, function_space, _mark_translation_grid


class SetupError(ValueError):
    """Decoder setup violates an assumption (empty space, no locator)."""


@dataclass
class DecoderSetup:
    spec: ToricCodeSpec
    result: ToricCodeResult
    gprime: TDivisor
    basis_locator: list[tuple[int, int]]  # L(G')
    basis_gap: list[tuple[int, int]]  # L(G - G')
    # (len(gap), len(locator)): the row of H = result.eval_matrix, and so of
    # spec.basis, that holds the product f_j g_i
    bracket_index: np.ndarray
    # (ell, n): f_j's leading value at point i if its order there is the
    # point's twisted level (module docstring), else 0
    locator: np.ndarray
    zero_cap: int
    zero_cap_exact: bool
    condition_c: str  # "verified" | "failed" | "unverified"
    d_dual: int | None
    n: int  # the number of points, read by every stage


@dataclass
class DecodeOutcome:
    status: str  # "unique" | "list" | "fail"
    errors_found: np.ndarray | list[np.ndarray] | None
    locator: np.ndarray | None
    zero_set: list[int]
    within_zero_cap: bool | None = None
    diagnostics: str = ""


def setup(
    spec: ToricCodeSpec,
    gprime: TDivisor,
    z_work_budget: int = 4_000_000,
) -> DecoderSetup:
    """Build bases, evaluation tables, and the zero cap Z.

    Z bounds the number of points at which a nonzero member of L(G') can
    have a zero twisted value.  It is n - d_aux, where d_aux is the
    minimum distance of L(G') evaluated at the points of level 0: exact
    when the search finishes within the budget, otherwise the search's
    certified lower bound (a smaller d_aux only enlarges Z, so the cap
    stays valid).
    """
    gf, fan = spec.gf, spec.fan
    n = len(spec.points)
    result = build(spec)
    if result.dual.k == 0:
        raise SetupError(
            f"the dual code, which this decoder decodes, is zero: the code has k = n = {n}"
        )

    # L(G') and L(G - G') are each evaluated at every point
    basis_locator = function_space(fan, gprime, n)
    basis_gap = function_space(fan, spec.divisor - gprime, n)
    if not basis_locator or not basis_gap:  # build has rejected an empty L(G)
        raise SetupError(
            "a required function space is zero: "
            f"|L(G)| = {len(spec.basis)}, |L(G')| = {len(basis_locator)}, "
            f"|L(G-G')| = {len(basis_gap)}"
        )

    # the row of H r that holds [r, f_j g_i]: f_j g_i lies in P_G
    row_of = {a: i for i, a in enumerate(spec.basis)}
    bracket_index = np.array(
        [[row_of[(f[0] + g[0], f[1] + g[1])] for f in basis_locator] for g in basis_gap],
        dtype=np.intp,
    )

    # each point's twisted level: minus the least order of the gap basis
    level = -least_orders(basis_gap, spec.points, gf, fan)
    locator = evaluation_matrix(basis_locator, spec.points, gf, fan, level)

    # zero cap from the level-0 columns of the auxiliary code, marked like a
    # built code when those columns are the torus points in the fixed order
    flat = level == 0
    aux = LinearCode(gf, locator[:, flat])
    _mark_translation_grid(aux, PointSet._of_rows(spec.points.rows[flat]))
    if aux.k < len(basis_locator):
        zcap, exact = n, True  # eval map on L(G') is not injective: no cap
    else:
        rep = min_distance(aux, work_budget=z_work_budget)
        zcap = n - (rep.d if rep.exact else rep.lower)
        exact = rep.exact and bool(flat.all())
    # condition (C): d(dual) must exceed the cap; checked only when the dual
    # is small enough to enumerate
    try:
        d_dual = min_distance(result.dual, method="exhaustive", work_budget=EXHAUSTIVE_LIMIT).d
        cond = "verified" if d_dual > zcap else "failed"
    except WorkCapExceeded:
        d_dual, cond = None, "unverified"

    return DecoderSetup(
        spec=spec,
        result=result,
        gprime=gprime,
        basis_locator=basis_locator,
        basis_gap=basis_gap,
        bracket_index=bracket_index,
        locator=locator,
        zero_cap=zcap,
        zero_cap_exact=exact,
        condition_c=cond,
        d_dual=d_dual,
        n=n,
    )


# -- the stages ---------------------------------------------------------------

_NO_LOCATOR = ("bracket system has a trivial null space: no locator "
               "(more errors than this setup supports)")


def syndrome(r, setup: DecoderSetup) -> np.ndarray:
    """The syndrome s = H r of a received word r, n element indices (else
    CodeError, a ValueError): s_j = [r, h_j] over the basis h of L(G).
    The one place a received word enters the decoder."""
    gf = setup.spec.gf
    r = _elements(gf, r, "received word", setup.n)
    return gf.vsum(gf._mul(setup.result.eval_matrix, r), axis=1)


def _syndrome(s, setup: DecoderSetup) -> np.ndarray:
    """A syndrome as len(spec.basis) element indices; CodeError otherwise."""
    return _elements(setup.spec.gf, s, "syndrome", len(setup.spec.basis))


def bracket_matrix(s: np.ndarray, setup: DecoderSetup) -> np.ndarray:
    """B[i, j] = [r, f_j g_i], gathered from the syndrome s = H r."""
    return _syndrome(s, setup)[setup.bracket_index]


def error_locator(s: np.ndarray, setup: DecoderSetup) -> np.ndarray:
    """A deterministic nontrivial solution of the bracket system of the
    syndrome s: the null-space basis vector of the first free column
    (graded-lex order); SetupError when the null space is trivial."""
    ns = null_space(setup.spec.gf, bracket_matrix(s, setup))
    if not len(ns):
        raise SetupError(_NO_LOCATOR)
    return ns[0]


def zero_set(f_coeffs: np.ndarray, setup: DecoderSetup) -> list[int]:
    """Candidate positions: the common zeros of one locator or of a stack of
    them, the points where every twisted value (its part at the point's
    level, see the module docstring) is zero."""
    gf, ell = setup.spec.gf, len(setup.basis_locator)
    f = np.asarray(f_coeffs)
    if f.ndim not in (1, 2) or f.shape[-1] != ell:
        raise ValueError(f"locators must be a vector or a stack of rows of length {ell}, not {f.shape}")
    F = _elements(gf, f.reshape(-1, ell), "locator")
    if not (len(F) and F.any(axis=1).all()):
        raise ValueError("a zero locator, or an empty stack, has no zero set")
    return np.flatnonzero(~matmul(gf, F, setup.locator).any(axis=0)).tolist()


def error_values(
    s: np.ndarray, nf: list[int], setup: DecoderSetup, list_cap: int = 256
) -> DecodeOutcome:
    """Solve the value system against the syndrome s = H r on the candidate
    positions ``nf``, distinct integers in 0..n-1, listing at most
    ``list_cap`` solutions, an integer >= 1 (else ValueError)."""
    list_cap = _positive(list_cap, "list cap", CodeError)
    s = _syndrome(s, setup)
    pos = np.asarray(nf)
    if pos.ndim != 1 or (
        pos.size
        and (pos.dtype.kind not in "iu" or pos.min() < 0 or pos.max() >= setup.n
             or len(set(pos.tolist())) != pos.size)
    ):
        raise ValueError(f"candidate positions must be distinct integers in 0..{setup.n - 1}")
    return _values(s, pos.astype(np.intp), setup, list_cap)


def _values(s: np.ndarray, nf: np.ndarray, setup: DecoderSetup, list_cap: int) -> DecodeOutcome:
    """``error_values`` on inputs it has checked, or that ``decode`` made:
    the candidate positions ``nf`` as an intp array, read as one until the
    outcome lists them."""
    gf, H, t = setup.spec.gf, setup.result.eval_matrix, nf.size
    within = t <= setup.zero_cap
    # one reduction of [H[:, nf] | s], written into one array; an empty nf
    # solves only a zero syndrome
    R = np.empty((len(H), t + 1), dtype=np.int16)
    H.take(nf, axis=1, out=R[:, :t])
    R[:, t] = s
    rank, pivots = _rref(gf, R)
    x = _solution(R, rank, pivots)
    count = 0 if x is None else gf.q ** (t - rank)  # number of solutions
    status, found, diagnostics = "fail", None, ""
    if x is None:
        diagnostics = (
            "inconsistent value system (locator missed an error position)"
            if t
            else "empty candidate set but nonzero syndrome"
        )
    elif count > list_cap:
        # a long count is written as a power: Python formats no integer of
        # more than 4300 digits
        shown = count if count < 1 << 64 else f"{gf.q}^{t - rank}"
        diagnostics = f"{shown} candidate solutions exceed the list cap {list_cap}"
    else:
        cands = np.zeros((count, setup.n), dtype=np.int16)
        cands[:, nf] = x
        if count > 1:
            ns = _null_basis(gf, R, pivots, t)
            # every combination of the null-space rows, last coefficient fastest
            combos = np.indices((gf.q,) * len(ns)).reshape(len(ns), count).T
            cands[:, nf] = gf.vadd(cands[:, nf], matmul(gf, combos, ns))
            status, found, diagnostics = "list", list(cands), "underdetermined value system"
        elif within:
            status, found = "unique", cands[0]
        else:
            status, found = "list", list(cands)
            diagnostics = "solution unique but |N(f)| exceeds the zero cap"
    return DecodeOutcome(
        status=status,
        errors_found=found,
        locator=None,
        zero_set=nf.tolist(),
        within_zero_cap=within,
        diagnostics=diagnostics,
    )


def decode(r: np.ndarray, setup: DecoderSetup, list_cap: int = 256) -> DecodeOutcome:
    """The stages on one syndrome, read off one reduction of its bracket
    system (module docstring): common zero set of the whole null basis ->
    values.  A unique outcome always satisfies the dual-code membership
    r - e in C (its brackets against L(G) vanish by construction of the
    value system).  The list cap is checked before the word; the outcome's
    locator is the one ``error_locator`` returns."""
    gf = setup.spec.gf
    list_cap = _positive(list_cap, "list cap", CodeError)
    s = syndrome(r, setup)
    B = s[setup.bracket_index]  # a fresh array, reduced in place
    rank, pivots = _rref(gf, B)
    ell = B.shape[1]
    if rank == ell:
        return DecodeOutcome("fail", None, None, [], diagnostics=_NO_LOCATOR)
    # the free columns, ascending as the pivots are, as one index array
    free = np.array([c for c in range(ell) if c not in pivots], dtype=np.intp)
    # column k: the pivot entries of null vector k
    coef = gf.neg_table.take(B[:rank].take(free, axis=1))
    L = setup.locator
    # the twisted values of the null basis: its free rows of L plus, folded
    # one pivot at a time, coef[i, k] times pivot row i of L
    values = L.take(free, axis=0)
    for Y in gf._mul(coef[:, :, None], L.take(pivots, axis=0)[:, None]):
        gf._iadd(values, Y)
    out = _values(s, (~values.any(axis=0)).nonzero()[0], setup, list_cap)
    out.locator = np.zeros(ell, dtype=np.int16)
    out.locator[free[0]] = 1
    out.locator.put(pivots, coef[:, 0])
    return out
