"""Complete 2-D fans, T-invariant divisors, divisor polytopes and their
lattice points, rational point sets, and monomial-character evaluation.

A fan is given by its primitive ray generators v_1 .. v_s in strict
counterclockwise order; the maximal cones are the successive pairs
(v_i, v_{i+1}) with wraparound.  A divisor G = sum d_i D_i is a coefficient
list aligned with the rays.  Its polytope is

    P_G = { u in R^2 : <u, v_i> >= -d_i  for all i },

always bounded when the fan is complete.  All polytope arithmetic is exact
(Fractions); all evaluation is exact field arithmetic, through one
routine, ``graded_evaluation``: the vanishing order and leading value of
each character at each point.  ``evaluation_matrix`` is its strict mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .field import GF, _is_integer


class FanError(ValueError):
    """Invalid fan input."""


class PolytopeError(ValueError):
    """Invalid polytope operation."""


class PoleError(ValueError):
    """A monomial has a pole at an evaluation point (point/divisor clash)."""


Vec = tuple[int, int]


def _integers(values, what: str, error: type[ValueError]) -> tuple[int, ...]:
    """``values`` as Python ints when each is an integer (a bool is not
    one), else ``error``: int() would truncate 2.5 and parse "2"."""
    values = tuple(values)
    if not all(map(_is_integer, values)):
        raise error(f"{what} {values!r} must hold integers")
    return tuple(int(v) for v in values)


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
        rays = [_integers((a, b), "ray", FanError) for a, b in rays]
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
        self.normals = tuple(_integers((a, b), "normal", PolytopeError) for a, b in normals)
        self.offsets = _integers(offsets, "offsets", PolytopeError)
        if len(self.normals) != len(self.offsets):
            raise PolytopeError("normals/offsets length mismatch")
        self._bounded = self._check_bounded()
        self.vertices = self._compute_vertices() if self._bounded else None
        self._points: list[Vec] | None = None

    # -- geometry ---------------------------------------------------------

    def _check_bounded(self) -> bool:
        # bounded iff the recession cone {w : <w, v_i> >= 0 for all i} is {0},
        # i.e. the normals are not all contained in a closed half plane;
        # equivalently every angular gap between consecutive normals is < pi
        import functools

        vs = sorted(
            set(self.normals),
            key=functools.cmp_to_key(lambda u, v: -1 if _angle_less(u, v) else (0 if u == v else 1)),
        )
        if len(vs) < 3:
            return False
        k = len(vs)
        for i in range(k):
            u, v = vs[i], vs[(i + 1) % k]
            d = _det(u, v)
            dot = u[0] * v[0] + u[1] * v[1]
            if d < 0 or (d == 0 and dot < 0):
                return False  # gap >= pi
        return True

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

    def lattice_points(self) -> list[Vec]:
        """All integer points, graded-lex order (total degree, then lex)."""
        if not self._bounded:
            raise PolytopeError("lattice-point enumeration needs a bounded polytope")
        if self._points is None:
            if not self.vertices:
                self._points = []
            else:
                xs = [v[0] for v in self.vertices]
                ys = [v[1] for v in self.vertices]
                x0, x1 = math.ceil(min(xs)), math.floor(max(xs))
                y0, y1 = math.ceil(min(ys)), math.floor(max(ys))
                pts = [
                    (x, y)
                    for x in range(x0, x1 + 1)
                    for y in range(y0, y1 + 1)
                    if self.contains((x, y))
                ]
                pts.sort(key=lambda a: (a[0] + a[1], a))
                self._points = pts
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
        tx, ty = _integers(t, "translation", PolytopeError)
        return LatticePolytope(
            self.normals,
            [d - (v[0] * tx + v[1] * ty) for v, d in zip(self.normals, self.offsets)],
        )

    def __repr__(self) -> str:
        return f"LatticePolytope(vertices={self.vertices})"


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


def torus_points(gf: GF) -> list[TorusPoint]:
    """All (q-1)^2 torus points, lex by (dlog t1, dlog t2)."""
    us = gf.units()
    return [TorusPoint(a, b) for a in us for b in us]


def orbit_points(fan: Fan2D, ray: int, gf: GF) -> list[OrbitPoint]:
    if not 0 <= ray < fan.s:
        raise FanError(f"ray index {ray} out of range for a {fan.s}-ray fan")
    return [OrbitPoint(ray, s) for s in gf.units()]


def graded_evaluation(
    exponents: Sequence[Vec], points: Sequence[EvalPoint], gf: GF, fan: Fan2D | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vanishing order and leading value of every character x^a at every
    point: two k x n arrays, rows = exponents, columns = points.

    At a torus point (t1, t2) the order is 0 and the value t1^a1 t2^a2.  At
    the orbit point s on D_r the order is <a, v_r> (a pole when negative);
    with m_r = transverse_vector(r), a - <a, v_r> m_r = det(m_r, a) u_r, so
    the leading value is the orbit character s^det(m_r, a).  Either value
    is g^((a . w) mod (q-1)): w = (log t1, log t2), or log(s) (-m_r2, m_r1).
    Exponents and point fields must be integers (ValueError).
    """
    A = np.array(exponents).reshape(-1, 2)
    s = fan.s if fan is not None else 0
    # one row per point: orbit flag, ray, and two field elements whose logs
    # make w through the ray's turn matrix (row s of the tables: the torus)
    rows = np.array(
        [(0, s, pt.t1, pt.t2) if isinstance(pt, TorusPoint) else (1, pt.ray, pt.s, 1) for pt in points]
    ).reshape(-1, 4)
    # one dtype check per array instead of a cast, which would truncate 1.5;
    # an empty list reads as float64
    for arr, what in ((A, "exponents"), (rows, "point coordinates and ray indices")):
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    A, rows = A.astype(np.int64, copy=False), rows.astype(np.int64, copy=False)
    orbit, ray, coords = rows[:, 0] == 1, rows[:, 1], rows[:, 2:]
    if orbit.any() and fan is None:
        raise ValueError("orbit-point evaluation needs the fan")
    if (orbit & ((ray < 0) | (ray >= s))).any():
        raise FanError(f"orbit ray index out of range for a {s}-ray fan")
    if ((coords < 1) | (coords >= gf.q)).any():
        raise ValueError(f"point coordinates must be units of GF({gf.q})")
    normals = np.zeros((s + 1, 2), dtype=np.int64)
    turns = np.zeros((s + 1, 2, 2), dtype=np.int64)
    turns[s] = np.eye(2, dtype=np.int64)
    for r in range(s):
        m1, m2 = fan.transverse_vector(r)
        normals[r] = fan.rays[r]
        turns[r, 0] = (-m2, m1)
    logs = gf.log[coords]
    w = logs[:, :1] * turns[ray, 0] + logs[:, 1:] * turns[ray, 1]
    order = (A @ normals.T)[:, ray]
    e = A @ w.T
    np.remainder(e, gf.q - 1, out=e)
    value = gf.exp.astype(np.int16)[e]
    return order, value


def evaluation_matrix(
    exponents: Sequence[Vec], points: Sequence[EvalPoint], gf: GF, fan: Fan2D | None = None
) -> np.ndarray:
    """Strict evaluation: x^a at every point, rows = exponents.  A character
    vanishing along an orbit's divisor is 0 there; a pole is a PoleError."""
    order, value = graded_evaluation(exponents, points, gf, fan)
    if (order < 0).any():
        j, i = np.argwhere(order.T < 0)[0]
        a = tuple(int(x) for x in exponents[i])
        raise PoleError(f"monomial {a} has a pole along D_{points[j].ray + 1}")
    return np.where(order == 0, value, 0)


def torus_evaluation_matrix(exponents: Sequence[Vec], gf: GF) -> np.ndarray:
    """Rows = exponents, columns = the fixed-order torus points."""
    return evaluation_matrix(exponents, torus_points(gf), gf)
