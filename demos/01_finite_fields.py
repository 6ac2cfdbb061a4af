"""Finite field basics: build GF(8), inspect its tables, verify axioms."""

import numpy as np

from toric_codes import GF

gf = GF(2, 3)
print("field:", gf, "modulus (low-degree first):", gf.modulus)
print("primitive element g =", gf.g)
print("units in generator order:", gf.units())

# arithmetic on element indices
a, b = 5, 7
print(f"{a} + {b} = {gf.add(a, b)}")
print(f"{a} * {b} = {gf.mul(a, b)}")
print(f"{a}^-1  = {gf.inv(a)}, check: {gf.mul(a, gf.inv(a))}")
print(f"g^(q-1) = {gf.pow(gf.g, gf.q - 1)}")

# vectorized arithmetic drives all the matrix kernels
A = np.arange(8, dtype=np.int16)
print("negation table:", [int(x) for x in gf.vneg(A)])
print("3 * row:", [int(x) for x in gf.vscale(3, A)])

# a prime field for contrast
gf5 = GF(5)
print("\nGF(5): 2 + 4 =", gf5.add(2, 4), " inverse(2) =", gf5.inv(2))
