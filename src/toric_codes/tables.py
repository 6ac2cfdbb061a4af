"""Golden parameter tables for the reproduction command.

Each row carries the published (n, k, d) for a code built from a preset
fan and divisor over GF(q), plus the original comparison annotation as
inert text.  A row flagged "duplicate-unresolved" repeats a divisor that
already appears with different (k, d); the computation reproduces the
other reading, and the flagged row is reported but not diffed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import GF, prime_power

# preset fans, keyed by the table ids they serve
FANS = {
    "fan1": ((2, -1), (-1, 2), (-1, -1)),
    "fan2-m3": ((1, 0), (-1, 3), (0, -1)),
    "fan2-m5": ((1, 0), (-1, 5), (0, -1)),
    "fan2-m10": ((1, 0), (-1, 10), (0, -1)),
    "fan3": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    "fan4": ((1, 0), (0, 1), (-1, -1)),
    "fan5": ((1, 0), (-1, 1), (-1, -1)),
    "fan6": ((2, -1), (-1, 1), (-1, 0)),
    "fan7": ((5, -1), (-1, 5), (-1, -1)),
}


def field_for_q(q: int) -> GF:
    """GF(q) with its default modulus, q = p^m factored."""
    return GF(*prime_power(q))


@dataclass(frozen=True)
class ToricRow:
    q: int
    divisor: tuple[int, ...]
    n: int
    k: int
    d: int
    note: str = ""
    flag: str = ""


@dataclass(frozen=True)
class HansenBRow:
    q: int
    a: int
    n: int
    k: int
    d: int
    note: str = ""


@dataclass(frozen=True)
class RMRow:
    q: int
    m: int
    ell: int
    n: int
    k: int
    d: int
    note: str = ""


@dataclass(frozen=True)
class GoldenTable:
    table_id: str
    kind: str  # "toric" | "hansen-b" | "rm"
    fan: tuple | None
    rows: tuple


GOLDEN_TABLES: dict[str, GoldenTable] = {
    "rm": GoldenTable(
        "rm",
        "rm",
        None,
        (RMRow(2, 5, 1, 32, 6, 16, "first-order length-32 binary code"),),
    ),
    "hansen-b": GoldenTable(
        "hansen-b",
        "hansen-b",
        FANS["fan4"],
        (
            HansenBRow(5, 2, 16, 6, 8, "best known"),
            HansenBRow(5, 4, 16, 13, 3, "best possible"),
            HansenBRow(5, 5, 16, 15, 2, "MDS"),
            HansenBRow(7, 2, 36, 6, 24, "d=25 best known"),
            HansenBRow(7, 3, 36, 10, 18, "d=19 best known"),
            HansenBRow(8, 2, 49, 6, 35, "d=36 best known"),
        ),
    ),
    "fan1": GoldenTable(
        "fan1",
        "toric",
        FANS["fan1"],
        (
            ToricRow(5, (0, 0, 3), 16, 4, 10, "d=11 best possible"),
            ToricRow(5, (1, 1, 2), 16, 5, 8, "d=9 best known"),
            ToricRow(5, (1, 1, 3), 16, 7, 6, "d=7 best known"),
            ToricRow(5, (1, 1, 4), 16, 10, 4, "d=5 best possible"),
            ToricRow(5, (2, 3, 1), 16, 9, 6, "best possible"),
            ToricRow(5, (2, 3, 2), 16, 12, 3, "d=4 best possible"),
            ToricRow(5, (2, 3, 3), 16, 14, 2, "best possible"),
            ToricRow(5, (2, 3, 3), 16, 15, 2, "MDS", flag="duplicate-unresolved"),
            ToricRow(7, (1, 2, 0), 36, 3, 30, "best possible"),
            ToricRow(7, (1, 2, 1), 36, 5, 24, "d=26 best known"),
            ToricRow(7, (1, 2, 2), 36, 7, 21, "d=22 best known"),
            ToricRow(7, (1, 2, 3), 36, 9, 20, "best known"),
            ToricRow(7, (2, 3, 4), 36, 18, 9, "d=12 best known"),
            ToricRow(7, (3, 0, 0), 36, 4, 27, "d=28 best known"),
            ToricRow(8, (0, 0, 3), 49, 4, 40, "best known"),
            ToricRow(8, (0, 1, 2), 49, 3, 42, "best possible"),
            ToricRow(8, (0, 2, 3), 49, 7, 33, "d=35 best known"),
            ToricRow(8, (0, 3, 3), 49, 10, 28, "best known"),
            ToricRow(8, (0, 3, 4), 49, 12, 26, "best known"),
        ),
    ),
    "fan2-m3": GoldenTable(
        "fan2-m3",
        "toric",
        FANS["fan2-m3"],
        (
            ToricRow(5, (0, 2, 2), 16, 11, 3, "d=4 best known"),
            ToricRow(5, (0, 2, 3), 16, 15, 2, "MDS"),
            ToricRow(5, (0, 4, 2), 16, 14, 2, "best possible"),
            ToricRow(5, (1, 0, 0), 16, 2, 12, "d=13 best possible"),
            ToricRow(7, (0, 1, 0), 36, 2, 30, "d=31 best possible"),
            ToricRow(8, (1, 0, 0), 49, 2, 42, "d=43 best possible"),
            ToricRow(9, (0, 1, 0), 64, 2, 56, "d=57 best possible"),
        ),
    ),
    "fan2-m5": GoldenTable(
        "fan2-m5",
        "toric",
        FANS["fan2-m5"],
        (
            ToricRow(5, (0, 0, 3), 16, 13, 2, "d=3 best possible"),
            ToricRow(5, (3, 3, 2), 16, 14, 2, "best possible"),
            ToricRow(7, (1, 3, 4), 36, 29, 3, "d=5 best known"),
            ToricRow(8, (4, 4, 4), 49, 39, 3, "d=6 best known"),
        ),
    ),
    "fan2-m10": GoldenTable(
        "fan2-m10",
        "toric",
        FANS["fan2-m10"],
        (
            ToricRow(7, (5, 7, 4), 36, 33, 2, "best possible"),
            ToricRow(8, (5, 9, 4), 49, 40, 3, "d=6 best known"),
            ToricRow(9, (5, 9, 4), 64, 45, 4, "d=12 best known"),
        ),
    ),
    "fan6": GoldenTable(
        "fan6",
        "toric",
        FANS["fan6"],
        (
            ToricRow(5, (0, 0, 1), 16, 3, 12, "best possible"),
            ToricRow(5, (0, 0, 2), 16, 6, 8, "d=9 best known"),
            ToricRow(5, (0, 0, 3), 16, 10, 4, "d=5 best known"),
            ToricRow(5, (0, 0, 4), 16, 13, 3, "best possible"),
            ToricRow(7, (0, 0, 1), 36, 3, 30, "best possible"),
            ToricRow(7, (0, 0, 2), 36, 6, 24, "best known"),
            ToricRow(7, (0, 0, 3), 36, 10, 18, "best known"),
            ToricRow(7, (0, 0, 4), 36, 15, 12, "d=14 best known"),
            ToricRow(7, (4, 1, 1), 36, 26, 5, "d=6 best known"),
            ToricRow(7, (4, 1, 2), 36, 30, 4, "d=5 best possible"),
            ToricRow(7, (4, 1, 3), 36, 33, 3, "best possible"),
            ToricRow(7, (4, 1, 4), 36, 35, 2, "MDS"),
            ToricRow(8, (0, 0, 1), 49, 3, 42, "best possible"),
            ToricRow(8, (0, 0, 2), 49, 6, 35, "d=36 best known"),
            ToricRow(8, (0, 0, 3), 49, 10, 28, "best known"),
            ToricRow(8, (0, 0, 4), 49, 15, 21, "d=23 best known"),
            ToricRow(8, (0, 4, 3), 49, 34, 6, "d=10 best known"),
            ToricRow(8, (0, 4, 4), 49, 39, 5, "d=6 best known"),
            ToricRow(8, (2, 4, 4), 49, 46, 3, "best possible"),
            ToricRow(8, (3, 4, 4), 49, 48, 2, "MDS"),
            ToricRow(8, (4, 1, 4), 49, 43, 4, "d=5 best possible"),
            ToricRow(9, (0, 0, 1), 64, 3, 56, "best possible"),
            ToricRow(9, (0, 0, 2), 64, 6, 48, "d=49 best known"),
            ToricRow(9, (0, 0, 3), 64, 10, 40, "d=41 best known"),
        ),
    ),
    "fan7": GoldenTable(
        "fan7",
        "toric",
        FANS["fan7"],
        (
            ToricRow(
                8, (0, 0, 5), 49, 11, 28, "record: previous best known had d=27"
            ),
        ),
    ),
}
