"""Parameter predictions and bounds: closed forms for the four classical
polytope families, the lattice-segment upper bound on the minimum
distance, Gilbert-Varshamov comparison, and the two conjectural lower
bounds (reported, never asserted).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .field import FieldError, _positive, prime_power
from .geometry import Fan2D, LatticePolytope, TDivisor, is_ample, is_cartier, is_smooth


class BoundsError(ValueError):
    pass


# -- closed-form family parameters ------------------------------------------


@dataclass(frozen=True)
class HansenPrediction:
    case: str
    n: int
    k: int
    d: int
    in_range: bool


def hansen_params(case: str, q: int, a: int, b: int = 0, m: int = 1) -> HansenPrediction:
    """Exact (n, k, d) for the four families, with the q-range flag under
    which the closed form is guaranteed.  q must be a prime power, and each
    parameter that the case reads an integer >= 1, else BoundsError."""
    try:
        p, e = prime_power(q)
    except FieldError as exc:
        raise BoundsError(str(exc)) from exc
    q = p**e
    for name, value, read in (("a", a, True), ("b", b, case in ("c", "d")), ("m", m, case == "d")):
        if read:  # a parameter that the case does not read is not checked
            _positive(value, name, BoundsError)
    n = (q - 1) ** 2
    if case == "a":
        k = (a + 1) ** 2
        d = n - 2 * a * (q - 1)
        in_range = q > 2 * a + 1
    elif case == "b":
        k = (a + 1) * (a + 2) // 2
        d = n - a * (q - 1)
        in_range = q > a + 1
    elif case == "c":
        k = (a + 1) * (b + 1)
        d = n - a * (q - 1) - b * (q - 1) + a * b
        in_range = q > max(a, b) + 1
    elif case == "d":
        k = (a + 1) * (b + 1) + m * a * (a + 1) // 2
        d = min((q - a - 1) * (q - b - 1), (q - 1) * (q - b - a * m - 1))
        in_range = q > max(a, b, b + a * m) + 1
    else:
        raise BoundsError(f"unknown case {case!r}")
    return HansenPrediction(case, n, k, d, in_range)


# -- the segment upper bound --------------------------------------------------


def segment_upper_bound(poly: LatticePolytope, n: int, q: int | None = None) -> int:
    """d <= n - h, where h+1 is the longest run of consecutive lattice
    points along a coordinate direction inside the polytope.

    A run of h+1 points yields, after an integral translation (a monomial
    equivalence), a function (x_j - a_1)...(x_j - a_h) * monomial in the
    function space with at least h torus zeros and a nonzero codeword.
    The witness needs h distinct nonzero roots and must not vanish on the
    whole torus, so h is capped at q - 2 when the field size is supplied.
    The polytope is convex, so the lattice points of each row and column
    form one run, and h is the largest max - min over them.
    """
    pts = poly.lattice_points()
    if not pts:
        raise BoundsError("segment bound needs a nonempty polytope")
    lines = defaultdict(list)
    for x, y in pts:
        lines["row", y].append(x)
        lines["column", x].append(y)
    h = max(max(line) - min(line) for line in lines.values())
    if q is not None:
        h = min(h, q - 2)
    return n - h


# -- Gilbert-Varshamov ---------------------------------------------------------


def entropy_q(q: int, x: float) -> float:
    """q-ary entropy H_q(x) = x log_q(q-1) - x log_q x - (1-x) log_q(1-x),
    extended by continuity at the endpoints."""
    if not 0 <= x <= 1:
        raise BoundsError(f"x = {x} out of [0, 1]")
    acc = x * math.log(q - 1, q) if q > 2 else 0.0
    if 0 < x:
        acc -= x * math.log(x, q)
    if x < 1:
        acc -= (1 - x) * math.log(1 - x, q)
    return acc


def gv_rate(q: int, delta: float) -> float:
    """Rate of the Gilbert-Varshamov curve at relative distance delta."""
    if not 0 <= delta <= (q - 1) / q:
        raise BoundsError(f"delta = {delta} out of [0, (q-1)/q]")
    return 1.0 - entropy_q(q, delta)


def beats_gv(n: int, k: int, d: int, q: int) -> bool:
    """True when the code's rate lies strictly above the GV curve at its
    relative distance."""
    return k / n > gv_rate(q, d / n)


# -- the conjectural lower bounds ----------------------------------------------


@dataclass(frozen=True)
class Conjecture1Report:
    applicable: bool
    N: int | None = None
    all_N: tuple[int, ...] = ()
    d_lower: Fraction | None = None


def conjecture1_bound(poly: LatticePolytope, n: int) -> Conjecture1Report:
    """Smallest N > 1 with 2 N vol <= n <= 2 N^2 vol, and the implied
    conjectural bound d >= n - 2 N vol.  Reported, never asserted."""
    vol = poly.volume()
    if vol <= 0:
        return Conjecture1Report(applicable=False)
    qualifying = []
    N = 2
    while 2 * N * vol <= n:
        if n <= 2 * N * N * vol:
            qualifying.append(N)
        N += 1
    if not qualifying:
        return Conjecture1Report(applicable=False)
    best = qualifying[0]
    return Conjecture1Report(
        applicable=True,
        N=best,
        all_N=tuple(qualifying),
        d_lower=n - 2 * best * vol,
    )


@dataclass(frozen=True)
class Conjecture2Report:
    smooth: bool
    strictly_convex: bool
    degree_ok: bool
    applicable: bool
    predicted_k: int | None = None
    d_lower: int | None = None
    deg_G2: Fraction | None = None


def conjecture2_bound(
    fan: Fan2D, div: TDivisor, poly: LatticePolytope, n: int
) -> Conjecture2Report:
    """Surface case of the conjectural count: predicted k = |P n M| and
    d >= n - 2 |P n M| when the fan is smooth, the support function is
    strictly convex, and n > deg(G^2) = 2 vol(P).  Singular fans are
    reported inapplicable."""
    smooth = is_smooth(fan).overall
    cartier, _ = is_cartier(fan, div)
    convex = bool(cartier and is_ample(fan, div))
    deg2 = 2 * poly.volume() if not poly.is_empty else Fraction(0)
    degree_ok = n > deg2
    applicable = smooth and convex and degree_ok
    kc = poly.lattice_point_count()
    return Conjecture2Report(
        smooth=smooth,
        strictly_convex=convex,
        degree_ok=degree_ok,
        applicable=applicable,
        predicted_k=kc if applicable else None,
        d_lower=n - 2 * kc if applicable else None,
        deg_G2=deg2,
    )


# -- report assembly ------------------------------------------------------------


@dataclass
class BoundReport:
    n: int
    k: int
    d: int | None
    singleton_defect: int | None
    segment_upper: int
    gv_rate: float | None
    beats_gv: bool | None
    conj1: Conjecture1Report
    conj2: Conjecture2Report


def bound_report(
    q: int,
    fan: Fan2D,
    div: TDivisor,
    poly: LatticePolytope,
    n: int,
    k: int,
    d: int | None = None,
) -> BoundReport:
    rate = None
    beats = None
    if d is not None:
        delta = d / n
        if delta <= (q - 1) / q:
            rate = gv_rate(q, delta)
            beats = k / n > rate
        else:
            # beyond the Plotkin point the GV curve is 0: any code beats it
            rate = 0.0
            beats = True
    return BoundReport(
        n=n,
        k=k,
        d=d,
        singleton_defect=(n + 1 - k - d) if d is not None else None,
        segment_upper=segment_upper_bound(poly, n, q),
        gv_rate=rate,
        beats_gv=beats,
        conj1=conjecture1_bound(poly, n),
        conj2=conjecture2_bound(fan, div, poly, n),
    )
