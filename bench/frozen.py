"""Frozen inputs and expected outputs of the benchmark.

They are copied here rather than read from the package so that a change
to the package's own tables cannot move what the benchmark checks.
"""

FANS = {
    "fan1": ((2, -1), (-1, 2), (-1, -1)),
    "fan2-m3": ((1, 0), (-1, 3), (0, -1)),
    "fan2-m5": ((1, 0), (-1, 5), (0, -1)),
    "fan2-m10": ((1, 0), (-1, 10), (0, -1)),
    "fan6": ((2, -1), (-1, 1), (-1, 0)),
    "fan7": ((5, -1), (-1, 5), (-1, -1)),
}

# Every golden row except the row flagged "duplicate-unresolved" and the
# three slowest ones (fan6 over GF(9) with G = (0,0,3), fan6 over GF(8) with
# G = (0,0,4) and (0,4,3)), which together take about 140 s.
# (family, (p, m), parameters, (n, k, d)); parameters are (m, ell) for the
# Reed-Muller row, (a,) for the Hansen (b) rows and the divisor otherwise.
CORPUS_ROWS = (
    ("rm", (2, 1), (5, 1), (32, 6, 16)),
    ("hansen-b", (5, 1), (2,), (16, 6, 8)),
    ("hansen-b", (5, 1), (4,), (16, 13, 3)),
    ("hansen-b", (5, 1), (5,), (16, 15, 2)),
    ("hansen-b", (7, 1), (2,), (36, 6, 24)),
    ("hansen-b", (7, 1), (3,), (36, 10, 18)),
    ("hansen-b", (2, 3), (2,), (49, 6, 35)),
    ("fan1", (5, 1), (0, 0, 3), (16, 4, 10)),
    ("fan1", (5, 1), (1, 1, 2), (16, 5, 8)),
    ("fan1", (5, 1), (1, 1, 3), (16, 7, 6)),
    ("fan1", (5, 1), (1, 1, 4), (16, 10, 4)),
    ("fan1", (5, 1), (2, 3, 1), (16, 9, 6)),
    ("fan1", (5, 1), (2, 3, 2), (16, 12, 3)),
    ("fan1", (5, 1), (2, 3, 3), (16, 14, 2)),
    ("fan1", (7, 1), (1, 2, 0), (36, 3, 30)),
    ("fan1", (7, 1), (1, 2, 1), (36, 5, 24)),
    ("fan1", (7, 1), (1, 2, 2), (36, 7, 21)),
    ("fan1", (7, 1), (1, 2, 3), (36, 9, 20)),
    ("fan1", (7, 1), (2, 3, 4), (36, 18, 9)),
    ("fan1", (7, 1), (3, 0, 0), (36, 4, 27)),
    ("fan1", (2, 3), (0, 0, 3), (49, 4, 40)),
    ("fan1", (2, 3), (0, 1, 2), (49, 3, 42)),
    ("fan1", (2, 3), (0, 2, 3), (49, 7, 33)),
    ("fan1", (2, 3), (0, 3, 3), (49, 10, 28)),
    ("fan1", (2, 3), (0, 3, 4), (49, 12, 26)),
    ("fan2-m3", (5, 1), (0, 2, 2), (16, 11, 3)),
    ("fan2-m3", (5, 1), (0, 2, 3), (16, 15, 2)),
    ("fan2-m3", (5, 1), (0, 4, 2), (16, 14, 2)),
    ("fan2-m3", (5, 1), (1, 0, 0), (16, 2, 12)),
    ("fan2-m3", (7, 1), (0, 1, 0), (36, 2, 30)),
    ("fan2-m3", (2, 3), (1, 0, 0), (49, 2, 42)),
    ("fan2-m3", (3, 2), (0, 1, 0), (64, 2, 56)),
    ("fan2-m5", (5, 1), (0, 0, 3), (16, 13, 2)),
    ("fan2-m5", (5, 1), (3, 3, 2), (16, 14, 2)),
    ("fan2-m5", (7, 1), (1, 3, 4), (36, 29, 3)),
    ("fan2-m5", (2, 3), (4, 4, 4), (49, 39, 3)),
    ("fan2-m10", (7, 1), (5, 7, 4), (36, 33, 2)),
    ("fan2-m10", (2, 3), (5, 9, 4), (49, 40, 3)),
    ("fan2-m10", (3, 2), (5, 9, 4), (64, 45, 4)),
    ("fan6", (5, 1), (0, 0, 1), (16, 3, 12)),
    ("fan6", (5, 1), (0, 0, 2), (16, 6, 8)),
    ("fan6", (5, 1), (0, 0, 3), (16, 10, 4)),
    ("fan6", (5, 1), (0, 0, 4), (16, 13, 3)),
    ("fan6", (7, 1), (0, 0, 1), (36, 3, 30)),
    ("fan6", (7, 1), (0, 0, 2), (36, 6, 24)),
    ("fan6", (7, 1), (0, 0, 3), (36, 10, 18)),
    ("fan6", (7, 1), (0, 0, 4), (36, 15, 12)),
    ("fan6", (7, 1), (4, 1, 1), (36, 26, 5)),
    ("fan6", (7, 1), (4, 1, 2), (36, 30, 4)),
    ("fan6", (7, 1), (4, 1, 3), (36, 33, 3)),
    ("fan6", (7, 1), (4, 1, 4), (36, 35, 2)),
    ("fan6", (2, 3), (0, 0, 1), (49, 3, 42)),
    ("fan6", (2, 3), (0, 0, 2), (49, 6, 35)),
    ("fan6", (2, 3), (0, 0, 3), (49, 10, 28)),
    ("fan6", (2, 3), (0, 4, 4), (49, 39, 5)),
    ("fan6", (2, 3), (2, 4, 4), (49, 46, 3)),
    ("fan6", (2, 3), (3, 4, 4), (49, 48, 2)),
    ("fan6", (2, 3), (4, 1, 4), (49, 43, 4)),
    ("fan6", (3, 2), (0, 0, 1), (64, 3, 56)),
    ("fan6", (3, 2), (0, 0, 2), (64, 6, 48)),
    ("fan7", (2, 3), (0, 0, 5), (49, 11, 28)),
)

# Codewords the two engines enumerate over CORPUS_ROWS at the parent commit
# of the benchmark; reported, not checked (a faster engine may need fewer).
CORPUS_WORK = 170_019_468

# A quick subset for the smoke tests: both engines, five fields.
SMOKE_CORPUS_ROWS = tuple(CORPUS_ROWS[i] for i in (0, 1, 5, 7, 29, 31, 39, 51))

# construct: fan1 codes, (p, m), divisor, orbits of ray indices ->
# (n, k, k_dual, sha256 of the generator matrix)
CONSTRUCT_CODES = {
    ((2, 5), (0, 0, 12), ()): (
        961, 31, 930, "aeaf182773b62ec868717a1f4106c84ad75e71d73988246a9dc756538218e5a6"
    ),
    ((23, 1), (0, 0, 10), ()): (
        484, 22, 462, "e0229e8e455ea57f975b7e25806322b17228cbd8b6a20985769986568df68830"
    ),
    ((5, 2), (0, 0, 10), (0, 1)): (
        624, 22, 602, "4d62d4cc903e0d62b3c2b277f039ebc44803a8413d55ed52d09035793ddba93d"
    ),
}
SMOKE_CONSTRUCT_CODES = {
    ((2, 3), (0, 0, 4), ()): (
        49, 5, 44, "9034d80f6036648c9c2639d5910ab416a6884c982f5d2f8e4c6e02c48a86f6e8"
    ),
    ((7, 1), (0, 0, 3), ()): (
        36, 4, 32, "42d3c03f8176fd74cabab2541c784db6ecda6a27686cc06d394af86c799c20e1"
    ),
    ((3, 2), (0, 0, 4), (0, 1)): (
        80, 5, 75, "877813cf60edf27abb0c3378b2e56c65ceedbd92205852104f9a97db588ae68c"
    ),
}

# decode instances on fan1 with G' = (2, 2, 2): name -> ((p, m), divisor,
# boundary points as (ray, orbit parameter), largest planted error count)
DECODE_INSTANCES = {
    "gf8-boundary": ((2, 3), (0, 0, 10), ((0, 1), (1, 1)), 3),
    "gf9-torus": ((3, 2), (0, 0, 12), (), 4),
}
DECODE_GPRIME = (2, 2, 2)
# budget of the auxiliary distance search in decoder set-up; the search
# overshoots it, which is the behaviour the budget metric watches
DECODE_Z_WORK_BUDGET = 300_000
# words per pass: three GF(8) words per GF(9) word keeps the median inside
# the GF(8) latency cluster and the 99th percentile inside the GF(9) tail
DECODE_WORDS = {"gf8-boundary": 1200, "gf9-torus": 400}
SMOKE_DECODE_WORDS = {"gf8-boundary": 12, "gf9-torus": 4}
