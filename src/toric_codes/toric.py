"""Assemble evaluation codes from a field, a fan, a divisor, and a point
set: one generator row per lattice point of the divisor polytope, one
column per rational point.

The canonical point set is the dense torus in its fixed order, optionally
followed by full ray orbits in the order given.  A monomial with a pole
at some chosen point is a hard error (silent point exclusion would change
n); exponents with a coordinate of magnitude >= q-1 only raise a warning,
since character collisions then merely reduce the rank, which is
reported.

Every function space that is evaluated, L(G) here and L(G') and L(G - G')
in the decoder, is listed by one gate, ``function_space``, which counts
P_D in closed form and refuses an evaluation matrix over the size cap, a
sliver polytope (few points over many columns), or exponents whose orders
int64 cannot hold exactly, before it lists the points.
A spec then checks its dual cap from the points listed, as k <= |P_G|;
that cap can fail only when n > 2^14, so at most 2^14 points come first.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .field import GF, _positive
from .codes import CodeError, LinearCode, check_matrix_size
from .geometry import (
    EvalPoint,
    Fan2D,
    PointSet,
    TDivisor,
    _check_orders,
    evaluation_matrix,
    lattice_points,
    orbit_points,
    polytope_of_divisor,
    torus_points,
)


@dataclass
class ToricCodeSpec:
    gf: GF
    fan: Fan2D
    divisor: TDivisor
    # a sequence of TorusPoint and OrbitPoint objects, kept as its
    # PointSet (``PointSet.of``)
    points: PointSet | Sequence[EvalPoint]
    # the lattice points of P_G, one generator row each; always derived
    basis: list[tuple[int, int]] = dc_field(init=False)

    def __post_init__(self):
        self.points = PointSet.of(self.points)
        n = len(self.points)
        if not n:
            raise CodeError("empty point set")
        self.basis = function_space(self.fan, self.divisor, n)
        # k <= |P_G|, so the dual has at least n - |P_G| rows
        check_matrix_size(n - len(self.basis), n, "dual generator")
        # equal points are equal rows, which sorting puts next to each other
        rows = self.points.rows[np.lexsort(self.points.rows.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise CodeError("evaluation points must be distinct")


@dataclass
class ToricCodeResult:
    spec: ToricCodeSpec
    code: LinearCode
    dual: LinearCode
    eval_matrix: np.ndarray
    kc: int
    injective: bool
    warnings: list[str]

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def k(self) -> int:
        return self.code.k


# the most columns t = x + y that listing a polytope may step through
# beyond its lattice points
LISTING_SLACK = 1 << 18


def function_space(fan: Fan2D, divisor: TDivisor, n: int) -> list[tuple[int, int]]:
    """The monomial basis of L(D), the lattice points of P_D, for a code on
    n points: CodeError, before any is listed, when the evaluation matrix
    |P_D| x n would exceed ``MATRIX_SIZE_CAP`` entries, or when listing
    would step through more than |P_D| + 2^18 columns t = x + y, or when
    int64 might not hold the orders <a, v_i> of its points exactly
    (``geometry._check_orders``).  The listing takes one step per column
    and one per point, so it costs at most a fixed amount beyond the
    points, which the size cap bounds."""
    poly = polytope_of_divisor(fan, divisor)
    count = poly.lattice_point_count()
    check_matrix_size(count, n, "evaluation matrix")
    columns = poly.column_count()
    if columns > count + LISTING_SLACK:
        raise CodeError(
            f"listing {count} lattice points would step through {columns} columns, "
            f"more than their count plus {LISTING_SLACK} (2^18)"
        )
    # a lattice point's coordinates are at most its vertices' in magnitude,
    # Fractions whose floor |num| // den is read without forming |c|
    largest = max((abs(c.numerator) // c.denominator for v in poly.vertices for c in v), default=0)
    _check_orders(largest, fan, CodeError)
    return lattice_points(poly)


def default_points(
    gf: GF, fan: Fan2D, torus: bool = True, orbits: Sequence[int] = ()
) -> PointSet:
    """Torus points in the fixed order, then the full orbits of the 0-based
    rays in ``orbits``, in the order given."""
    pts = torus_points(gf) if torus else PointSet()
    for i in orbits:
        pts += orbit_points(fan, i, gf)
    return pts


def _mark_translation_grid(code: LinearCode, points: PointSet) -> None:
    """Mark ``code``, whose rows are characters evaluated at ``points``,
    invariant under the torus translations when the points are exactly the
    (q-1)^2 torus points in the fixed order, q >= 3: a translation
    multiplies each character row by a constant, so it fixes the row space
    (codes module docstring)."""
    q = code.gf.q
    if q >= 3 and points == torus_points(code.gf):
        code._translation_grid = q - 1


def build(spec: ToricCodeSpec) -> ToricCodeResult:
    """Evaluate every basis monomial at every point and take the row space.
    A code on exactly the (q-1)^2 torus points in the fixed order, q >= 3,
    and its dual are marked invariant under the torus translations."""
    if not spec.basis:
        raise CodeError("empty monomial basis: the divisor polytope has no lattice points")
    warnings = []
    q = spec.gf.q
    if any(abs(a) >= q - 1 for e in spec.basis for a in e):
        warnings.append(
            f"exponent coordinate of magnitude >= q-1 = {q - 1}: "
            "character collisions possible, rank may drop"
        )
    M = evaluation_matrix(spec.basis, spec.points, spec.gf, spec.fan)
    code = LinearCode(spec.gf, M)
    _mark_translation_grid(code, spec.points)
    warnings.extend(code.warnings)
    kc = len(spec.basis)
    injective = code.k == kc
    if not injective:
        warnings.append(f"evaluation map is not injective: rank {code.k} < {kc}")
    dual = code.dual()
    return ToricCodeResult(
        spec=spec,
        code=code,
        dual=dual,
        eval_matrix=M,
        kc=kc,
        injective=injective,
        warnings=warnings,
    )


def toric_code(
    gf: GF,
    rays: Sequence[Sequence[int]] | Fan2D,
    divisor: Sequence[int] | TDivisor,
    torus: bool = True,
    orbits: Sequence[int] = (),
) -> ToricCodeResult:
    """Convenience wrapper: validate, pick default points, build."""
    fan = rays if isinstance(rays, Fan2D) else Fan2D(rays)
    div = divisor if isinstance(divisor, TDivisor) else TDivisor(divisor)
    pts = default_points(gf, fan, torus=torus, orbits=orbits)
    return build(ToricCodeSpec(gf, fan, div, pts))


# -- the four classical triangle/rectangle/trapezoid families ---------------

# base fans; the primed variants are the refinements entered by hand
HANSEN_FANS = {
    "a": ((1, 0), (-1, 1), (-1, -1)),
    "a-refined": ((1, 0), (-1, 1), (-1, -1), (0, -1)),
    "b": ((1, 0), (0, 1), (-1, -1)),
    "c": ((1, 0), (0, 1), (-1, 0), (0, -1)),
}


def hansen_fan(case: str, m: int = 1) -> Fan2D:
    if case in HANSEN_FANS:
        return Fan2D(HANSEN_FANS[case])
    if case == "d":
        # refined trapezoid fan, smooth for every slope m >= 1
        return Fan2D([(1, 0), (0, 1), (-1, m), (0, -1)])
    raise CodeError(f"unknown case {case!r}")


def hansen_divisor(case: str, a: int, b: int = 0, m: int = 1) -> TDivisor:
    """Divisor whose polytope is the case's polytope at parameters (a, b, m).

    (a): isoceles triangle (0,0), (a,a), (0,2a) -> 2a * D_3 (the vertex
         data needs the doubled coefficient; a bare a*D_3 halves the
         triangle).
    (b): right triangle (0,0), (a,0), (0,a)     -> a * D_3.
    (c): rectangle a x b                        -> a * D_3 + b * D_4.
    (d): trapezoid (0,0), (a,0), (0,b), (a,b+am), up to the x<->y swap
         -> b * D_3 + a * D_4 on the refined fan.
    """
    if case == "a":
        return TDivisor((0, 0, 2 * a))
    if case == "a-refined":
        return TDivisor((0, 0, 2 * a, 2 * a))
    if case == "b":
        return TDivisor((0, 0, a))
    if case == "c":
        return TDivisor((0, 0, a, b))
    if case == "d":
        return TDivisor((0, 0, b, a))
    raise CodeError(f"unknown case {case!r}")


def hansen_code(case: str, gf: GF, a: int, b: int = 0, m: int = 1) -> ToricCodeResult:
    """Build the classical code family instance on its torus point set.

    Constructs on the singular base fan for case (a) (evaluation never
    needs smoothness; the refined fan gives the identical polytope and is
    available through hansen_fan("a-refined")).
    """
    if case not in ("a", "b", "c", "d"):
        raise CodeError(f"unknown case {case!r}")
    for name, value, read in (("a", a, True), ("b", b, case in ("c", "d")), ("m", m, case == "d")):
        if read:  # a parameter that the case does not read is not checked
            _positive(value, name, CodeError)
    fan = hansen_fan(case, m)
    div = hansen_divisor(case, a, b, m)
    return build(ToricCodeSpec(gf, fan, div, default_points(gf, fan)))
