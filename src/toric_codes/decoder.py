"""List decoder for the dual C of a toric evaluation code C_L(P, G).

Given an auxiliary divisor G', a received word r = c + e enters once,
through ``syndrome``, which checks it and returns s = H r, the brackets
[r, h_j] over the basis h of L(G).  Every stage takes s: (1)
``bracket_matrix`` gathers the bracket system sum_j [r, f_j g_i] a_j = 0
over the monomial bases f of L(G') and g of L(G - G') from s; (2)
``zero_set`` takes the candidate set N(f), the common zeros of every
locator f = sum a_j f_j in the null space; (3) ``error_values`` solves
sum_{i in N(f)} b_i h_j(P_i) = s_j.  ``decode`` runs each stage once.

Every bracket is an entry of s: a product f_j g_i has its exponent in
P_G' + P_(G-G'), which lies in P_G, the exponents of the basis h
(Skorobogatov-Vladut, IEEE Trans. IT 1990).  Setup keeps each product's
row in H; none has a pole, because ``build`` evaluated every exponent of
P_G strictly.

Boundary subtleties: G' may carry positive coefficients on rays that host
orbit points, so a basis monomial of L(G') may have a pole there, and the
locator is read at a twisted level, not at order 0.  Every product
f_j g_i lies in P_G, which ``build`` evaluated without a pole, so at a
point P on ray r each f_j has order at least -beta_r, where beta_r is the
least order <b, v_r> over the gap basis L(G - G') (0 on the torus).
Hence f_j g_i (P) = f~_j(P) g~_i(P), where ``geometry.graded_evaluation``
gives f~_j(P), the leading value of f_j if its order at P is -beta_r (else
0), and g~_i(P), that of g_i at order +beta_r.  Setup keeps the one table
f~_j(P).  The bracket system gives sum_i e_i f~(P_i) g~(P_i) = 0 for every
g, so (e_i f~(P_i)) lies in the dual of the twisted evaluation code of
L(G - G'): while the error count is below that dual's distance, f~
vanishes at every error position for every f in the null space
(Skorobogatov-Vladut 1990; Pellikaan, Discrete Math. 1992), and ``decode``
takes the common zeros of the whole null basis.  Past that radius the
intersection can drop an error position.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .codes import (
    EXHAUSTIVE_LIMIT,
    LinearCode,
    WorkCapExceeded,
    _elements,
    _positive,
    matmul,
    matvec,
    min_distance,
    null_space,
    solve,
)
from .geometry import (
    TDivisor,
    graded_evaluation,
    lattice_points,
    polytope_of_divisor,
)
from .toric import ToricCodeSpec, ToricCodeResult, build


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

    @property
    def n(self) -> int:
        return len(self.spec.points)


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
    result = build(spec)

    basis_locator = lattice_points(polytope_of_divisor(fan, gprime))
    basis_gap = lattice_points(polytope_of_divisor(fan, spec.divisor - gprime))
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
    n = len(spec.points)

    # each point's twisted level: minus the least order of the gap basis
    level = -graded_evaluation(basis_gap, spec.points, gf, fan)[0].min(axis=0)
    order, value = graded_evaluation(basis_locator, spec.points, gf, fan)
    locator = np.where(order == level, value, 0)

    # zero cap from the level-0 columns of the auxiliary code
    flat = level == 0
    aux = LinearCode(gf, locator[:, flat])
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
    )


# -- the stages ---------------------------------------------------------------

_NO_LOCATOR = ("bracket system has a trivial null space: no locator "
               "(more errors than this setup supports)")


def syndrome(r, setup: DecoderSetup) -> np.ndarray:
    """The syndrome s = H r of a received word r, n element indices (else
    CodeError, a ValueError): s_j = [r, h_j] over the basis h of L(G).
    The one place a received word enters the decoder."""
    gf = setup.spec.gf
    return matvec(gf, setup.result.eval_matrix, _elements(gf, r, "received word", setup.n))


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
    gf = setup.spec.gf
    list_cap = _positive(list_cap, "list cap")
    s = _syndrome(s, setup)
    pos = np.asarray(nf)
    nf = pos.tolist()
    if pos.ndim != 1 or (
        pos.size
        and (pos.dtype.kind not in "iu" or pos.min() < 0 or pos.max() >= setup.n
             or len(set(nf)) != len(nf))
    ):
        raise ValueError(f"candidate positions must be distinct integers in 0..{setup.n - 1}")
    H = setup.result.eval_matrix
    within = len(nf) <= setup.zero_cap
    sol = solve(gf, H[:, nf], s)  # an empty nf solves only a zero syndrome
    count = 0 if sol is None else gf.q ** len(sol[1])  # number of solutions
    status, found, diagnostics = "fail", None, ""
    if sol is None:
        diagnostics = (
            "inconsistent value system (locator missed an error position)"
            if nf
            else "empty candidate set but nonzero syndrome"
        )
    elif count > list_cap:
        diagnostics = f"{count} candidate solutions exceed the list cap {list_cap}"
    else:
        x, ns = sol
        cands = np.zeros((count, setup.n), dtype=np.int16)
        cands[:, nf] = x
        if len(ns):
            # every combination of the null-space rows, last coefficient fastest
            combos = np.indices((gf.q,) * len(ns)).reshape(len(ns), count).T
            cands[:, nf] = gf.vadd(cands[:, nf], matmul(gf, combos, ns))
        status, found = "list", list(cands)
        if count > 1:
            diagnostics = "underdetermined value system"
        elif within:
            status, found = "unique", cands[0]
        else:
            diagnostics = "solution unique but |N(f)| exceeds the zero cap"
    return DecodeOutcome(
        status=status,
        errors_found=found,
        locator=None,
        zero_set=nf,
        within_zero_cap=within,
        diagnostics=diagnostics,
    )


def decode(r: np.ndarray, setup: DecoderSetup, list_cap: int = 256) -> DecodeOutcome:
    """The stages on one syndrome: bracket null space -> common zero set of
    the whole null basis -> values.  A unique outcome always satisfies the
    dual-code membership r - e in C (its brackets against L(G) vanish by
    construction of the value system).  The list cap is checked before the
    word; the outcome's locator is the one ``error_locator`` returns."""
    _positive(list_cap, "list cap")
    s = syndrome(r, setup)
    ns = null_space(setup.spec.gf, bracket_matrix(s, setup))
    if not len(ns):
        return DecodeOutcome("fail", None, None, [], diagnostics=_NO_LOCATOR)
    return replace(error_values(s, zero_set(ns, setup), setup, list_cap), locator=ns[0])
