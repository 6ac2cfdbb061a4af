"""Fans, divisors, and their polytopes: the geometric half of the pipeline."""

from toric_codes import (
    Fan2D,
    TDivisor,
    count_rational_points,
    GF,
    is_ample,
    is_cartier,
    is_smooth,
    lattice_points,
    polytope_of_divisor,
)

# a singular fan: the middle cone has determinant 3
fan = Fan2D([(2, -1), (-1, 2), (-1, -1)])
print("rays:", fan.rays)
print("smooth?", is_smooth(fan).overall, "cone dets:", is_smooth(fan).dets)

# Cartier means integral local data on every cone; here it needs
# d1 = d2 = d3 mod 3
for coeffs in [(1, 1, 1), (0, 0, 1)]:
    flag, ms = is_cartier(fan, TDivisor(coeffs))
    print(f"G = {coeffs}: Cartier = {flag}", f"local data {ms}" if flag else "")
print("ample (1,1,1)?", is_ample(fan, TDivisor((1, 1, 1))))

# the divisor polytope carries the code: its lattice points are the
# monomial exponents that get evaluated
for coeffs in [(0, 0, 3), (0, 0, 10), (2, 2, 2)]:
    p = polytope_of_divisor(fan, TDivisor(coeffs))
    pts = lattice_points(p)
    print(f"\nG = {coeffs}")
    print("  vertices:", [(str(x), str(y)) for x, y in p.vertices])
    print("  volume:", p.volume())
    print(f"  {len(pts)} lattice points:", pts[:8], "..." if len(pts) > 8 else "")

# rational point counts: torus + ray orbits + fixed points
for q in (2, 3, 4, 5, 7, 8):
    gf = {4: GF(2, 2), 8: GF(2, 3)}.get(q, GF(q) if q in (2, 3, 5, 7) else None)
    print(f"|X(GF({q}))| =", count_rational_points(fan, gf))
