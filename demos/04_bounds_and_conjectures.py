"""Bound machinery: Singleton defect, the lattice-segment upper bound,
Gilbert-Varshamov comparison, and the two conjectural lower bounds."""

from toric_codes import GF, Fan2D, beats_gv, bound_report, gv_rate, min_distance, toric_code

fan6 = Fan2D([(2, -1), (-1, 1), (-1, 0)])
gf7 = GF(7)
res = toric_code(gf7, fan6, (0, 0, 2))
d = min_distance(res.code).d
rep = bound_report(res, d)

print("smooth fan, G = 2*D3 over GF(7):", (res.n, res.k, d))
print("Singleton defect:", rep.singleton_defect)
print("segment upper bound:", rep.segment_upper)
print(f"GV rate at delta = {d}/{res.n}: {rep.gv_rate:.4f}; beats GV: {rep.beats_gv}")
print("conjectural count bound applicable:", rep.conj2.applicable,
      "| predicted k:", rep.conj2.predicted_k, "| predicted d >=", rep.conj2.d_lower)
print("conjectural volume bound:", "N =", rep.conj1.N, "d >=", rep.conj1.d_lower)

# the record code sits far above the GV curve
print("\n(49,11,28) over GF(8):")
print(f"  rate {11/49:.4f} vs GV {gv_rate(8, 28/49):.4f} -> beats:", beats_gv(49, 11, 28, 8))
