"""Complete 2-D fans, T-invariant divisors, divisor polytopes and their
lattice points, rational point sets, and monomial-character evaluation.

A fan is given by its primitive ray generators v_1 .. v_s in strict
counterclockwise order; the maximal cones are the successive pairs
(v_i, v_{i+1}) with wraparound.  A divisor G = sum d_i D_i is a coefficient
list aligned with the rays.  Its polytope is

    P_G = { u in R^2 : <u, v_i> >= -d_i  for all i },

always bounded when the fan is complete.  A set of rational points is a
``PointSet``, one int64 array of rows, listed with numpy and checked once.
All polytope arithmetic is exact (Fractions); all evaluation is exact
field arithmetic, through one routine, ``evaluation_matrix``: each
character read at each point's level, its leading value where its
vanishing order there equals the level.  ``build`` reads level 0 and the
decoder the twisted levels of ``least_orders``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .field import GF, _integers, _is_integer, _sequence, _shown


class FanError(ValueError):
    """Invalid fan input."""


class PolytopeError(ValueError):
    """Invalid polytope operation."""


class PoleError(ValueError):
    """A monomial has a pole at an evaluation point (point/divisor clash)."""


Vec = tuple[int, int]


def _det(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _upper(v: Vec) -> bool:
    # True on the half-open upper half plane: angle in [0, pi)
    return v[1] > 0 or (v[1] == 0 and v[0] > 0)


def _angle_less(u: Vec, v: Vec) -> bool:
    """Strict comparison of ray angles in [0, 2*pi), integer arithmetic only."""
    su, sv = not _upper(u), not _upper(v)
    if su != sv:
        return su < sv
    return _det(u, v) > 0


class Fan2D:
    """A complete fan in Z^2, encoded by its primitive rays in ccw order."""

    def __init__(self, rays: Sequence[Sequence[int]]):
        rays = [
            _integers(v, "ray", FanError, 2)
            for v in _sequence(rays, "rays", FanError, "a sequence of integer pairs")
        ]
        if len(rays) < 3:
            raise FanError(f"need at least 3 rays, got {len(rays)} (fan incomplete)")
        for v in rays:
            if v == (0, 0) or math.gcd(abs(v[0]), abs(v[1])) != 1:
                raise FanError(f"ray {v} is not primitive")
        s = len(rays)
        for i in range(s):
            d = _det(rays[i], rays[(i + 1) % s])
            if d <= 0:
                raise FanError(
                    f"rays {rays[i]}, {rays[(i + 1) % s]} are not in strict ccw "
                    f"position (det = {d})"
                )
        # each ccw step turns by an angle in (0, pi); completeness means the
        # walk closes up after exactly one full turn
        wraps = sum(
            0 if _angle_less(rays[i], rays[(i + 1) % s]) else 1 for i in range(s)
        )
        if wraps != 1:
            raise FanError(f"rays wind {wraps} times around the origin, expected 1")
        self.rays: tuple[Vec, ...] = tuple(rays)
        self.s = s

    def cones(self) -> list[tuple[Vec, Vec]]:
        return [(self.rays[i], self.rays[(i + 1) % self.s]) for i in range(self.s)]

    def transverse_vector(self, i: int) -> Vec:
        """An integral m with <m, v_i> = 1 (exists since v_i is primitive)."""
        a, b = self.rays[i]
        g, x, y = _xgcd(a, b)
        assert g == 1
        return (x, y)

    def __eq__(self, other) -> bool:
        return isinstance(other, Fan2D) and self.rays == other.rays

    def __hash__(self):
        return hash(self.rays)

    def __repr__(self) -> str:
        return f"Fan2D({list(self.rays)})"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class TDivisor:
    """G = sum d_i D_i, coefficients aligned with the fan's rays."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        object.__setattr__(self, "coeffs", _integers(coeffs, "divisor", FanError))

    def __sub__(self, other: "TDivisor") -> "TDivisor":
        return TDivisor(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True))

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class SmoothnessReport:
    overall: bool
    per_cone: tuple[bool, ...]
    dets: tuple[int, ...]


def is_smooth(fan: Fan2D) -> SmoothnessReport:
    """A cone (v_i, v_{i+1}) is smooth iff |det| = 1."""
    dets = tuple(_det(u, v) for u, v in fan.cones())
    per = tuple(abs(d) == 1 for d in dets)
    return SmoothnessReport(all(per), per, dets)


def is_cartier(fan: Fan2D, div: TDivisor) -> tuple[bool, list[Vec] | None]:
    """Cartier iff every maximal cone admits integral local data m_sigma with
    <m_sigma, v_i> = -d_i on both of its rays."""
    if len(div) != fan.s:
        raise FanError("divisor length does not match ray count")
    ms: list[Vec] = []
    for i in range(fan.s):
        u, v = fan.rays[i], fan.rays[(i + 1) % fan.s]
        du, dv = div.coeffs[i], div.coeffs[(i + 1) % fan.s]
        det = _det(u, v)
        # solve <m, u> = -du, <m, v> = -dv by Cramer
        num_x = -du * v[1] + dv * u[1]
        num_y = -dv * u[0] + du * v[0]
        if num_x % det or num_y % det:
            return False, None
        ms.append((num_x // det, num_y // det))
    return True, ms


def is_ample(fan: Fan2D, div: TDivisor) -> bool:
    """Strict convexity of the support function: for each maximal cone sigma,
    <m_sigma, v_j> > -d_j for every ray v_j outside sigma.  Requires Cartier."""
    ok, ms = is_cartier(fan, div)
    if not ok:
        raise FanError("divisor is not Cartier; ampleness undefined")
    for i, m in enumerate(ms):
        in_cone = {i, (i + 1) % fan.s}
        for j, v in enumerate(fan.rays):
            if j in in_cone:
                continue
            if m[0] * v[0] + m[1] * v[1] <= -div.coeffs[j]:
                return False
    return True


class LatticePolytope:
    """Intersection of half planes <u, v_i> >= -d_i, with exact rational
    vertices and cached lattice points.

    May be empty, a point, a segment, or a polygon.  Construction from a
    complete fan always yields a bounded set.
    """

    def __init__(self, normals: Sequence[Vec], offsets: Sequence[int]):
        self.normals = tuple(
            _integers(v, "normal", PolytopeError, 2)
            for v in _sequence(normals, "normals", PolytopeError, "a sequence of integer pairs")
        )
        self.offsets = _integers(offsets, "offsets", PolytopeError)
        if len(self.normals) != len(self.offsets):
            raise PolytopeError("normals/offsets length mismatch")
        self._bounded = self._check_bounded()
        self.vertices = self._compute_vertices() if self._bounded else None

    # -- geometry ---------------------------------------------------------

    def _check_bounded(self) -> bool:
        # bounded iff the recession cone {w : <w, v_i> >= 0 for all i} is {0},
        # i.e. the normals are not all contained in a closed half plane.  A
        # cone other than {0} and the whole plane has a ray on a line
        # <w, v_i> = 0 with v_i != 0, and the ray w = +-(-v_i[1], v_i[0])
        # lies in the cone iff every <w, v_j> = +-det(v_i, v_j) is >= 0.  So
        # the set is bounded iff each nonzero normal has normals strictly on
        # both sides, and some normal is nonzero (else the cone is the plane)
        dets = [[_det(u, v) for v in self.normals] for u in self.normals if u != (0, 0)]
        return bool(dets) and all(min(d) < 0 < max(d) for d in dets)

    def contains(self, pt: Sequence) -> bool:
        x, y = pt
        return all(
            v[0] * x + v[1] * y >= -d for v, d in zip(self.normals, self.offsets)
        )

    def _compute_vertices(self) -> list[tuple[Fraction, Fraction]]:
        cand: set[tuple[Fraction, Fraction]] = set()
        n = len(self.normals)
        for i in range(n):
            for j in range(i + 1, n):
                u, v = self.normals[i], self.normals[j]
                det = _det(u, v)
                if det == 0:
                    continue
                di, dj = -self.offsets[i], -self.offsets[j]
                x = Fraction(di * v[1] - dj * u[1], det)
                y = Fraction(dj * u[0] - di * v[0], det)
                if self.contains((x, y)):
                    cand.add((x, y))
        pts = sorted(cand)
        if len(pts) <= 2:
            return pts
        # monotone-chain hull, strict turns: ccw vertex cycle, exact arithmetic
        def cross(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

        lower: list[tuple[Fraction, Fraction]] = []
        for p in pts:
            while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        upper: list[tuple[Fraction, Fraction]] = []
        for p in reversed(pts):
            while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
                upper.pop()
            upper.append(p)
        return lower[:-1] + upper[:-1]

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    # Lattice points by columns.  In the coordinates (t, x), t = x + y, the
    # integer points of column t are one interval of x, and columns in
    # ascending t with x ascending are the graded-lex order.  A half plane
    # <u, v> >= -d reads c t + e x >= -d with c = v[1] and e = v[0] - v[1]:
    # for e > 0 it bounds x below by -floor((c t + d) / e), for e < 0 above
    # by floor((c t + d) / -e), and for e = 0 it holds on every column that
    # meets the polytope.  A bounded polytope has half planes of both signs.

    @cached_property
    def _columns(self) -> tuple[list[Fraction], list, list]:
        """(cuts, lower, upper): the t of every vertex, ascending, so that
        the columns that meet the polytope run from the first cut to the
        last, and the half planes (c, d, |e|) that bound x below and above;
        computed once for the count and the listing."""
        if not self._bounded:
            raise PolytopeError("lattice-point enumeration needs a bounded polytope")
        lower, upper = [], []
        for (a, b), d in zip(self.normals, self.offsets):
            if a != b:
                (lower if a > b else upper).append((b, d, abs(a - b)))
        return sorted({x + y for x, y in self.vertices or ()}), lower, upper

    def lattice_point_count(self) -> int:
        """The number of integer points, without listing them: per column
        t, upper(t) - lower(t) + 1, summed in closed form over each stretch
        of columns between two vertices, where one half plane bounds each
        side (``_floor_sum``).  Its cost does not grow with the polytope."""
        cuts, lower, upper = self._columns
        # (c t + d) / |e| in integers, times the lcm of one side's |e|
        sides = [(side, math.lcm(*(e for _, _, e in side))) for side in (lower, upper)]
        total = 0
        for i, a in enumerate(cuts):
            # the columns a <= t < b, and t = a at the last vertex
            b = cuts[i + 1] if i + 1 < len(cuts) else a
            lo, hi = math.ceil(a), (math.ceil(b) - 1 if b > a else math.floor(a))
            if lo > hi:
                continue
            # upper(t) - lower(t) is the sum over both sides of the floor of
            # (c t + d) / |e| for the half plane that binds on the stretch,
            # the least at its middle num / den
            total += hi - lo + 1
            mid = (a + b) / 2
            num, den = mid.numerator, mid.denominator
            for side, scale in sides:
                c, d, e = min(side, key=lambda h: (h[0] * num + h[1] * den) * (scale // h[2]))
                total += _floor_sum(hi - lo + 1, e, c, c * lo + d)
        return total

    def column_count(self) -> int:
        """The number of columns t that ``lattice_points`` steps through,
        from the first cut to the last, without listing them."""
        cuts = self._columns[0]
        return max(0, math.floor(cuts[-1]) - math.ceil(cuts[0]) + 1) if cuts else 0

    @cached_property
    def _points(self) -> list[Vec]:
        cuts, lower, upper = self._columns
        columns = range(math.ceil(cuts[0]), math.floor(cuts[-1]) + 1) if cuts else ()
        pts = []
        for t in columns:
            lo = -min((c * t + d) // e for c, d, e in lower)
            hi = min((c * t + d) // e for c, d, e in upper)
            pts.extend((x, t - x) for x in range(lo, hi + 1))
        return pts

    def lattice_points(self) -> list[Vec]:
        """All integer points, graded-lex order (total degree, then lex),
        listed once by columns (see ``_columns``): one step per column and
        one per point."""
        return self._points

    def volume(self) -> Fraction:
        """Euclidean area by the shoelace formula over the vertex cycle."""
        if not self._bounded:
            raise PolytopeError("volume needs a bounded polytope")
        if not self.vertices:
            raise PolytopeError("volume of an empty polytope")
        vs = self.vertices
        if len(vs) <= 2:
            return Fraction(0)
        acc = Fraction(0)
        for k in range(len(vs)):
            x0, y0 = vs[k]
            x1, y1 = vs[(k + 1) % len(vs)]
            acc += x0 * y1 - x1 * y0
        return abs(acc) / 2

    def translate(self, t: Sequence[int]) -> "LatticePolytope":
        """Integral translation by t: offsets shift by -<t, v_i>."""
        tx, ty = _integers(t, "translation", PolytopeError, 2)
        return LatticePolytope(
            self.normals,
            [d - (v[0] * tx + v[1] * ty) for v, d in zip(self.normals, self.offsets)],
        )

    def __repr__(self) -> str:
        return f"LatticePolytope(vertices={self.vertices})"


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a i + b) / m) for i in range(n)), m >= 1, in O(log m)
    steps: the lattice points under a line, counted by the Euclidean
    algorithm on (a, m)."""
    total = 0
    while n > 0:
        total += (n * (n - 1) // 2) * (a // m) + n * (b // m)
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            break
        n, b, m, a = top // m, top % m, a, m
    return total


def polytope_of_divisor(fan: Fan2D, div: TDivisor) -> LatticePolytope:
    if len(div) != fan.s:
        raise FanError("divisor length does not match ray count")
    return LatticePolytope(fan.rays, div.coeffs)


def lattice_points(poly: LatticePolytope) -> list[Vec]:
    return poly.lattice_points()


# -- rational points and evaluation ---------------------------------------


@dataclass(frozen=True)
class TorusPoint:
    """A point (t1, t2) of the dense torus, both coordinates nonzero."""

    t1: int
    t2: int


@dataclass(frozen=True)
class OrbitPoint:
    """A point of the 1-dim orbit inside the boundary divisor D_i; the orbit
    parameter s runs over the unit group.  Ray index is 0-based."""

    ray: int
    s: int


EvalPoint = TorusPoint | OrbitPoint


def count_rational_points(fan: Fan2D, gf: GF) -> int:
    """Torus + s ray orbits + s fixed points."""
    q = gf.q
    return (q - 1) ** 2 + fan.s * (q - 1) + fan.s


class PointSet(Sequence):
    """An immutable sequence of evaluation points, held as one int64 array
    ``rows`` of shape (n, 4): kind (0 on the torus, 1 on an orbit), ray,
    and two coordinates.  The torus point (t1, t2) is (0, 0, t1, t2) and
    the orbit point s on ray r is (1, r, s, 1), so both coordinates are
    field elements whose logs ``_characters`` reads.

    Indexing and iteration yield ``TorusPoint`` and ``OrbitPoint`` objects;
    a slice is a PointSet.  ``==`` compares point by point with any
    sequence of points, and ``+`` concatenates a PointSet or a sequence of
    points on either side.  ``PointSet(points)`` checks and converts a
    sequence of point objects (``PointSet.of``); ``torus_points``,
    ``orbit_points`` and ``toric.default_points`` make their rows with
    numpy."""

    __slots__ = ("rows",)

    def __init__(self, points: Sequence[EvalPoint] = ()):
        points = _sequence(points, "points", ValueError, "a sequence of points")
        if not all(isinstance(pt, (TorusPoint, OrbitPoint)) for pt in points):
            raise ValueError("points must be TorusPoint and OrbitPoint objects")
        # the point fields must be integers, not bools or floats, by the
        # rules of ``_integer_array``; ranges are checked where the field
        # and the fan are known (``_characters``)
        rows = [(0, 0, pt.t1, pt.t2) if isinstance(pt, TorusPoint) else (1, pt.ray, pt.s, 1) for pt in points]
        self.rows = _integer_array(rows, "point coordinates and ray indices", 4)
        self.rows.flags.writeable = False

    @classmethod
    def _of_rows(cls, rows: np.ndarray) -> "PointSet":
        """Rows made by this module, taken without a check."""
        pts = cls.__new__(cls)
        pts.rows = rows
        rows.flags.writeable = False
        return pts

    @classmethod
    def of(cls, points: "PointSet | Sequence[EvalPoint]") -> "PointSet":
        """``points`` itself if it is a PointSet, else its one checked
        conversion."""
        return points if isinstance(points, PointSet) else cls(points)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PointSet._of_rows(self.rows[i])
        kind, ray, c1, c2 = self.rows[i].tolist()
        return OrbitPoint(ray, c1) if kind else TorusPoint(c1, c2)

    def __iter__(self):
        for kind, ray, c1, c2 in self.rows.tolist():
            yield OrbitPoint(ray, c1) if kind else TorusPoint(c1, c2)

    def __eq__(self, other) -> bool:
        if isinstance(other, PointSet):
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __add__(self, other) -> "PointSet":
        return PointSet._of_rows(np.concatenate([self.rows, PointSet.of(other).rows]))

    def __radd__(self, other) -> "PointSet":
        return PointSet.of(other) + self

    def __repr__(self) -> str:
        return f"PointSet({list(self)!r})"


def torus_points(gf: GF) -> PointSet:
    """All (q-1)^2 torus points, lex by (dlog t1, dlog t2)."""
    us = np.array(gf.units(), dtype=np.int64)
    rows = np.zeros((len(us) ** 2, 4), dtype=np.int64)
    rows[:, 2] = np.repeat(us, len(us))
    rows[:, 3] = np.tile(us, len(us))
    return PointSet._of_rows(rows)


def orbit_points(fan: Fan2D, ray: int, gf: GF) -> PointSet:
    """The q-1 points of the orbit of the 0-based ``ray``, by dlog s."""
    # a bool or a float would be written into the int64 rows as a ray
    if not (_is_integer(ray) and 0 <= ray < fan.s):
        raise FanError(f"ray index {_shown(ray)} must be an integer in 0..{fan.s - 1}")
    us = np.array(gf.units(), dtype=np.int64)
    rows = np.ones((len(us), 4), dtype=np.int64)
    rows[:, 1] = ray
    rows[:, 2] = us
    return PointSet._of_rows(rows)


def _integer_array(entries, what: str, width: int) -> np.ndarray:
    """Rows of ``width`` integers as an int64 array, else ValueError.  A
    list is read by the types of its entries, so a float is refused where a
    cast would truncate it, and a bool where numpy would read it as 0 or 1;
    an array by its dtype."""
    if isinstance(entries, np.ndarray):
        if entries.size and entries.dtype.kind not in "iu":
            raise ValueError(f"{what} must be integers, got dtype {entries.dtype}")
        return entries.astype(np.int64, copy=False).reshape(-1, width)
    try:
        rows_fit = set(map(len, entries)) <= {width}
    except TypeError:  # an entry that is not a row
        rows_fit = False
    if not rows_fit:
        raise ValueError(f"{what} must be rows of {width} integers")
    flat = list(chain.from_iterable(entries))
    types = set(map(type, flat))
    if {bool, np.bool_} & types:
        raise ValueError(f"{what} must be integers, not bools")
    if not all(issubclass(t, (int, np.integer)) for t in types):
        raise ValueError(f"{what} must be integers, got {sorted(t.__name__ for t in types)}")
    try:
        return np.fromiter(flat, np.int64, len(flat)).reshape(-1, width)
    except OverflowError:
        raise ValueError(f"{what} must be integers of at most 64 bits") from None


def _check_orders(largest: int, fan: Fan2D, error) -> None:
    """``error`` unless int64 holds every order <a, v_r> exactly for
    exponents a with coordinates of magnitude at most ``largest`` (read as
    at least 1): largest * max |ray coordinate| < 2^62, so |<a, v_r>| <
    2^63.  ``_characters`` checks its exponents, and
    ``toric.function_space`` the vertices of P_D before it lists them."""
    widest = max(abs(c) for v in fan.rays for c in v)
    if max(largest, 1) * widest >= 1 << 62:
        raise error(
            f"exponent coordinates up to {largest} on rays with coordinates up to {widest}: "
            "an order <a, v> would not fit in 64 bits (|a| |v| must stay below 2^62)"
        )


def _characters(
    exponents: Sequence[Vec], points: Sequence[EvalPoint], gf: GF, fan: Fan2D | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The checked exponents A (k x 2), the order of each character along
    each ray (k x (s+1), a last column of 0s for the torus), and per point
    its column of those (n) and w (n x 2), all int64: the leading values
    are g^((A w^T) mod (q-1)) (``evaluation_matrix``), so w is formed from
    turn vectors reduced mod q-1.  The orders are exact: exponents too
    large for that are a ValueError (``_check_orders``)."""
    s = fan.s if fan is not None else 0
    A = _integer_array(exponents, "exponents", 2)
    if fan is not None:
        _check_orders(max(-int(A.min()), int(A.max())) if A.size else 0, fan, ValueError)
    # per point the orbit flag, the ray, and two field elements whose logs
    # make w through the ray's turn matrix (row s of the tables: the torus)
    rows = PointSet.of(points).rows
    orbit, ray, coords = rows[:, 0] == 1, rows[:, 1], rows[:, 2:]
    if orbit.any() and fan is None:
        raise ValueError("orbit-point evaluation needs the fan")
    if (orbit & ((ray < 0) | (ray >= s))).any():
        raise FanError(f"orbit ray index out of range for a {s}-ray fan")
    if ((coords < 1) | (coords >= gf.q)).any():
        raise ValueError(f"point coordinates must be units of GF({gf.q})")
    ray = np.where(orbit, ray, s)
    normals = np.zeros((s + 1, 2), dtype=np.int64)
    turns = np.zeros((s + 1, 2, 2), dtype=np.int64)
    turns[s] = np.eye(2, dtype=np.int64)
    for r in range(s):
        m1, m2 = fan.transverse_vector(r)
        normals[r] = fan.rays[r]
        turns[r, 0] = (-m2 % (gf.q - 1), m1 % (gf.q - 1))
    logs = gf.log[coords]
    w = logs[:, :1] * turns[ray, 0] + logs[:, 1:] * turns[ray, 1]
    return A, A @ normals.T, ray, w


def least_orders(
    exponents: Sequence[Vec], points: Sequence[EvalPoint], gf: GF, fan: Fan2D | None = None
) -> np.ndarray:
    """The least vanishing order of the characters x^a at each point, n
    int64: the least of each column of the k x (s+1) table of orders along
    the rays (``_characters``), read at each point's ray, so no k x n array
    is formed.  The exponents must be nonempty, else ValueError."""
    A, orders, ray, _ = _characters(exponents, points, gf, fan)
    if not len(A):
        raise ValueError("the least order over no exponents is undefined")
    return orders.min(axis=0)[ray]


# the most entries of one block of ``evaluation_matrix``, unless a single
# point needs more (k)
_EVALUATION_BLOCK = 1 << 18


def evaluation_matrix(
    exponents: Sequence[Vec],
    points: Sequence[EvalPoint],
    gf: GF,
    fan: Fan2D | None = None,
    level: Sequence[int] | np.ndarray | None = None,
) -> np.ndarray:
    """Every character x^a read at every point's level, rows = exponents:
    its leading value where its vanishing order there equals the level, 0
    where the order is above it, and a PoleError at the first point where
    the order is below it.  ``level`` holds n integers; None is level 0,
    strict evaluation, where a character vanishing along an orbit's
    divisor is 0 and a pole is the error.

    At a torus point (t1, t2) the order is 0 and the value t1^a1 t2^a2.
    At the orbit point s on D_r the order is <a, v_r>; with m_r =
    transverse_vector(r), a - <a, v_r> m_r = det(m_r, a) u_r, so the
    leading value is the orbit character s^det(m_r, a).  Either value is
    g^((a . w) mod (q-1)): w = (log t1, log t2), or log(s) (-m_r2, m_r1).
    Exponents and point fields must be integers, not bools (ValueError).
    A value is exact at any exponent whose orders int64 holds, as A and the
    turn vectors enter reduced mod q-1; larger exponents are a ValueError
    (``_check_orders``).

    The points are evaluated in blocks of max(2^18 // k, 1) columns, so
    that of the k x n arrays only the int16 result is formed in full.
    """
    A, orders, ray, w = _characters(exponents, points, gf, fan)
    level = np.zeros(len(w), dtype=np.int64) if level is None else np.asarray(level)
    if level.shape != (len(w),) or (
        level.size and (level.dtype.kind not in "iu" or level.max() > np.iinfo(np.int64).max)
    ):
        raise ValueError(f"level must hold {len(w)} integers, one per point")
    level = level.astype(np.int64, copy=False)
    values = gf.exp.astype(np.int16)
    # only (A w^T) mod (q-1) is read, so A enters reduced and no product
    # overflows
    A_mod = A % (gf.q - 1)
    M = np.empty((len(A), len(w)), dtype=np.int16)
    width = max(_EVALUATION_BLOCK // max(len(A), 1), 1)
    for s in range(0, len(w), width):
        blk = slice(s, s + width)
        order, at = orders[:, ray[blk]], level[blk]
        if (order < at).any():
            j, i = np.argwhere(order.T < at[:, None])[0]
            a, lv = tuple(A[i].tolist()), at[j]
            raise PoleError(
                f"monomial {a} has a pole along D_{ray[s + j] + 1}" if lv == 0
                else f"monomial {a} has order {order[i, j]} below the level {lv} at point {s + j}"
            )
        e = A_mod @ w[blk].T
        np.remainder(e, gf.q - 1, out=e)
        M[:, blk] = np.where(order == at, values[e], 0)
    return M


def torus_evaluation_matrix(exponents: Sequence[Vec], gf: GF) -> np.ndarray:
    """Rows = exponents, columns = the fixed-order torus points."""
    return evaluation_matrix(exponents, torus_points(gf), gf)
