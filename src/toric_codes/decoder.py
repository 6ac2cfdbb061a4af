"""List decoder for the dual C of a toric evaluation code C_L(P, G).

Given an auxiliary divisor G', a received word r = c + e is decoded by
(1) solving the bracket system sum_j [r, f_j g_i] a_j = 0 over the
monomial bases f of L(G') and g of L(G - G'), (2) taking the candidate
set N(f) where the locator f = sum a_j f_j fails to be provably nonzero,
and (3) solving sum_{i in N(f)} b_i h_j(P_i) = [r, h_j] over the basis h
of L(G).

Boundary subtleties: a basis monomial of L(G') may have a pole at an
orbit point (G' can carry positive coefficients on rays that host
points).  The locator is therefore evaluated through its graded
expansion in the transverse parameter: ``geometry.graded_evaluation``
gives each term's vanishing order <a, v_ray> and its leading value, and
setup keeps one table sliced by the vanishing orders that occur.  At
every point, torus and orbit alike (a torus column has only order 0),
the leading nonzero order decides zero (order > 0), a value (order 0),
or a pole (order < 0).  Pole positions cannot be certified error-free,
so they are kept in the candidate set N(f); the value system stays exact
either way because the products f_j g_i and the h_j are always pole-free
(hard setup error otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import (
    EXHAUSTIVE_LIMIT,
    LinearCode,
    WorkCapExceeded,
    _elements,
    matmul,
    matvec,
    min_distance,
    null_space,
    solve,
)
from .geometry import (
    PoleError,
    TDivisor,
    evaluation_matrix,
    graded_evaluation,
    lattice_points,
    polytope_of_divisor,
)
from .toric import ToricCodeSpec, ToricCodeResult, build


class SetupError(ValueError):
    """Decoder setup violates an assumption (empty space, required pole)."""


@dataclass
class DecoderSetup:
    spec: ToricCodeSpec
    result: ToricCodeResult
    gprime: TDivisor
    basis_locator: list[tuple[int, int]]  # L(G')
    basis_gap: list[tuple[int, int]]  # L(G - G')
    basis_full: list[tuple[int, int]]  # L(G)
    H: np.ndarray  # len(basis_full) x n, strict values
    FG: np.ndarray  # (len(gap), len(locator), n) product values
    levels: np.ndarray  # the vanishing orders that occur, ascending
    locator: np.ndarray  # (len(levels), ell, n) leading values at each order
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
    fail to be provably nonzero.  It is n - d_aux, where d_aux is the
    minimum distance of L(G') evaluated at the pole-free points: exact
    when the search finishes within the budget, otherwise the search's
    certified lower bound (a smaller d_aux only enlarges Z, so the cap
    stays valid).
    """
    gf, fan = spec.gf, spec.fan
    result = build(spec)

    basis_full = spec.basis
    basis_locator = lattice_points(polytope_of_divisor(fan, gprime))
    basis_gap = lattice_points(polytope_of_divisor(fan, spec.divisor - gprime))
    if not basis_locator or not basis_gap or not basis_full:
        raise SetupError(
            "a required function space is zero: "
            f"|L(G)| = {len(basis_full)}, |L(G')| = {len(basis_locator)}, "
            f"|L(G-G')| = {len(basis_gap)}"
        )

    H = result.eval_matrix
    prod_exps = [
        (fa[0] + ga[0], fa[1] + ga[1]) for ga in basis_gap for fa in basis_locator
    ]
    try:
        FG = evaluation_matrix(prod_exps, spec.points, gf, fan)
    except PoleError as exc:
        raise SetupError(f"pole in required product f_j * g_i: {exc}") from exc
    n = len(spec.points)
    FG = FG.reshape(len(basis_gap), len(basis_locator), n)

    # the locator basis sliced by vanishing order: locator[s, j, i] is the
    # leading value of f_j at point i when its order there is levels[s]
    order, value = graded_evaluation(basis_locator, spec.points, gf, fan)
    levels = np.unique(order)
    locator = np.where(order == levels[:, None, None], value, 0)

    # zero cap from the pole-free columns of the auxiliary code
    clean = order.min(axis=0) >= 0
    aux = LinearCode(gf, np.where(order == 0, value, 0)[:, clean])
    if aux.k < len(basis_locator):
        zcap, exact = n, True  # eval map on L(G') is not injective: no cap
    else:
        rep = min_distance(aux, work_budget=z_work_budget)
        zcap = n - (rep.d if rep.exact else rep.lower)
        exact = rep.exact and bool(clean.all())
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
        basis_full=basis_full,
        H=H,
        FG=FG,
        levels=levels,
        locator=locator,
        zero_cap=zcap,
        zero_cap_exact=exact,
        condition_c=cond,
        d_dual=d_dual,
    )


# -- the stages ---------------------------------------------------------------


def _received(r, setup: DecoderSetup) -> np.ndarray:
    """A received word as n int16 element indices; CodeError (a ValueError)
    otherwise."""
    return _elements(setup.spec.gf, r, "received word", setup.n)


def bracket(r: np.ndarray, exponent, setup: DecoderSetup) -> int:
    """[r, phi] = sum_i r_i phi(P_i) for the character phi = x^exponent."""
    spec = setup.spec
    r = _received(r, setup)
    row = evaluation_matrix([tuple(exponent)], spec.points, spec.gf, spec.fan)[0]
    return int(setup.spec.gf.vsum(setup.spec.gf.vmul(row, r)))


def bracket_matrix(r: np.ndarray, setup: DecoderSetup) -> np.ndarray:
    """B[i, j] = [r, f_j g_i] over the precomputed product tables."""
    gf = setup.spec.gf
    kg, ell, n = setup.FG.shape
    flat = setup.FG.reshape(kg * ell, n)
    return gf.vsum(gf.vmul(flat, _received(r, setup)[None, :]), axis=1).reshape(kg, ell)


def error_locator(r: np.ndarray, setup: DecoderSetup) -> np.ndarray:
    """A deterministic nontrivial solution of the bracket system: the
    null-space basis vector of the first free column (graded-lex order)."""
    B = bracket_matrix(r, setup)
    ns = null_space(setup.spec.gf, B)
    if ns.shape[0] == 0:
        raise SetupError(
            "bracket system has a trivial null space: no locator "
            "(more errors than this setup supports)"
        )
    return ns[0]


def zero_set(f_coeffs: np.ndarray, setup: DecoderSetup) -> list[int]:
    """Candidate positions: points where the locator is not provably
    nonzero (value zero, higher-order vanishing, or a pole)."""
    gf = setup.spec.gf
    f = _elements(gf, f_coeffs, "locator", len(setup.basis_locator))
    if not f.any():
        raise ValueError("zero locator has no zero set")
    # nz[s, i]: the order-levels[s] part of f is nonzero at point i
    nz = gf.vsum(gf.vmul(setup.locator, f[None, :, None]), axis=1) != 0
    # a candidate vanishes along the transverse curve, or its leading order
    # is > 0 (a zero) or < 0 (a pole)
    return np.flatnonzero(~nz.any(axis=0) | (setup.levels[nz.argmax(axis=0)] != 0)).tolist()


def error_values(
    r: np.ndarray, nf: list[int], setup: DecoderSetup, list_cap: int = 256
) -> DecodeOutcome:
    """Solve the value system on the candidate positions ``nf``, distinct
    integers in 0..n-1 (else ValueError)."""
    gf = setup.spec.gf
    r = _received(r, setup)
    pos = np.asarray(nf)
    nf = pos.tolist()
    if pos.ndim != 1 or (
        pos.size
        and (pos.dtype.kind not in "iu" or pos.min() < 0 or pos.max() >= setup.n
             or len(set(nf)) != len(nf))
    ):
        raise ValueError(f"candidate positions must be distinct integers in 0..{setup.n - 1}")
    s = matvec(gf, setup.H, r)  # [r, h_j] for every j
    within = len(nf) <= setup.zero_cap
    if not nf:
        if not s.any():
            return DecodeOutcome(
                status="unique",
                errors_found=np.zeros(setup.n, dtype=np.int16),
                locator=None,
                zero_set=[],
                within_zero_cap=within,
            )
        return DecodeOutcome(
            status="fail",
            errors_found=None,
            locator=None,
            zero_set=[],
            within_zero_cap=within,
            diagnostics="empty candidate set but nonzero syndrome",
        )
    A = setup.H[:, nf]
    sol = solve(gf, A, s)
    if sol is None:
        return DecodeOutcome(
            status="fail",
            errors_found=None,
            locator=None,
            zero_set=list(nf),
            within_zero_cap=within,
            diagnostics="inconsistent value system (locator missed an error position)",
        )
    x, ns = sol
    if ns.shape[0] == 0:
        e = np.zeros(setup.n, dtype=np.int16)
        e[nf] = x
        status = "unique" if within else "list"
        found = e if status == "unique" else [e]
        return DecodeOutcome(
            status=status,
            errors_found=found,
            locator=None,
            zero_set=list(nf),
            within_zero_cap=within,
            diagnostics="" if within else "solution unique but |N(f)| exceeds the zero cap",
        )
    count = gf.q ** ns.shape[0]
    if count > list_cap:
        return DecodeOutcome(
            status="fail",
            errors_found=None,
            locator=None,
            zero_set=list(nf),
            within_zero_cap=within,
            diagnostics=f"{count} candidate solutions exceed the list cap {list_cap}",
        )
    # every combination of the null-space rows, last coefficient fastest
    combos = np.indices((gf.q,) * ns.shape[0]).reshape(ns.shape[0], -1).T
    cands = np.zeros((count, setup.n), dtype=np.int16)
    cands[:, nf] = gf.vadd(x[None, :], matmul(gf, combos, ns))
    return DecodeOutcome(
        status="list",
        errors_found=list(cands),
        locator=None,
        zero_set=list(nf),
        within_zero_cap=within,
        diagnostics="underdetermined value system",
    )


def decode(r: np.ndarray, setup: DecoderSetup, list_cap: int = 256) -> DecodeOutcome:
    """Locator -> zero set -> values; a unique outcome always satisfies
    the dual-code membership r - e in C (its brackets against L(G) vanish
    by construction of the value system).  The received word is checked
    by the stages it enters."""
    try:
        f = error_locator(r, setup)
    except SetupError as exc:
        return DecodeOutcome(
            status="fail",
            errors_found=None,
            locator=None,
            zero_set=[],
            diagnostics=str(exc),
        )
    nf = zero_set(f, setup)
    out = error_values(r, nf, setup, list_cap=list_cap)
    out.locator = f
    return out
