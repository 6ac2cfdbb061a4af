"""List-decode the dual of a toric code: locator system, candidate zero
set, value system.  Reproduces the boundary-error setup: 49 torus points
plus one point on each of two ray orbits, G = 10*D3, G' = 2(D1+D2+D3)."""

import numpy as np

from toric_codes import (
    GF,
    Fan2D,
    OrbitPoint,
    TDivisor,
    ToricCodeSpec,
    decode,
    decoder_setup,
    torus_points,
)
from toric_codes.codes import matvec

gf = GF(2, 3)
fan = Fan2D([(2, -1), (-1, 2), (-1, -1)])
points = list(torus_points(gf)) + [OrbitPoint(0, 1), OrbitPoint(1, 1)]
spec = ToricCodeSpec(gf, fan, TDivisor((0, 0, 10)), points)

st = decoder_setup(spec, TDivisor((2, 2, 2)))
print("n =", st.n, "| dim L(G) =", len(st.spec.basis),
      "| dim L(G') =", len(st.basis_locator), "| dim L(G-G') =", len(st.basis_gap))
print("zero cap Z =", st.zero_cap, "(exact)" if st.zero_cap_exact else "(certified)")
print("condition (C):", st.condition_c)

# plant two boundary errors on a random codeword of the dual
rng = np.random.default_rng(7)
dual = st.result.dual
c = matvec(gf, dual.gen.T, rng.integers(0, 8, size=dual.k).astype(np.int16))
e = np.zeros(st.n, dtype=np.int16)
e[49], e[50] = 3, 5
r = gf.vadd(c, e)

out = decode(r, st)
print("\nstatus:", out.status)
print("candidate set N(f):", [i + 1 for i in out.zero_set])
print("recovered error:", {i + 1: int(v) for i, v in enumerate(out.errors_found) if v})
print("matches planted:", bool(np.array_equal(out.errors_found, e)))
