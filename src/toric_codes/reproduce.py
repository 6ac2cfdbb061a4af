"""Recompute the golden parameter tables and diff them row by row.

A row's dimension check is always exact; the distance check is exact when
the search finishes within the work budget, otherwise the row is marked
bound-only and the certified [lower, upper] interval is compared against
the golden value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import LinearCode, min_distance, reed_muller
from .tables import GOLDEN_TABLES, GoldenTable, field_for_q
from .toric import hansen_code, toric_code


@dataclass
class RowResult:
    label: str
    expected: tuple[int, int, int]
    got_n: int
    got_k: int
    got_d: int | None
    bounds: tuple[int, int] | None
    method: str
    status: str  # "ok" | "mismatch" | "bound-only" | "bound-mismatch" | "flagged"
    note: str
    flag: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "bound-only", "flagged")


def _check(label, expected, code: LinearCode, rep, note, flag="") -> RowResult:
    n_exp, k_exp, d_exp = expected
    if rep.exact:
        got_d, bounds = rep.d, None
        ok = (code.n, code.k, rep.d) == expected
        status = "ok" if ok else "mismatch"
    else:
        got_d, bounds = None, (rep.lower, rep.upper)
        dims_ok = (code.n, code.k) == (n_exp, k_exp)
        status = "bound-only" if dims_ok and rep.lower <= d_exp <= rep.upper else "bound-mismatch"
    return RowResult(
        label=label,
        expected=expected,
        got_n=code.n,
        got_k=code.k,
        got_d=got_d,
        bounds=bounds,
        method=rep.method,
        status=status,
        note=note,
        flag=flag,
    )


def reproduce_table(
    table_id: str,
    work_budget: int | None = None,
) -> list[RowResult]:
    if table_id not in GOLDEN_TABLES:
        raise KeyError(f"unknown table id {table_id!r}; known: {', '.join(GOLDEN_TABLES)}")
    table: GoldenTable = GOLDEN_TABLES[table_id]
    out: list[RowResult] = []
    for row in table.rows:
        if table.kind == "rm":
            label = f"rm q={row.q} m={row.m} ell={row.ell}"
            code = reed_muller(field_for_q(row.q), row.m, row.ell)
        elif table.kind == "hansen-b":
            label = f"hansen-b q={row.q} a={row.a}"
            code = hansen_code("b", field_for_q(row.q), a=row.a).code
        else:
            label = f"{table_id} q={row.q} d={list(row.divisor)}"
            if row.flag:
                out.append(
                    RowResult(
                        label=label,
                        expected=(row.n, row.k, row.d),
                        got_n=row.n,
                        got_k=-1,
                        got_d=None,
                        bounds=None,
                        method="-",
                        status="flagged",
                        note=row.note,
                        flag=row.flag,
                    )
                )
                continue
            code = toric_code(field_for_q(row.q), table.fan, row.divisor).code
        rep = min_distance(code, work_budget=work_budget)
        flag = getattr(row, "flag", "")
        out.append(_check(label, (row.n, row.k, row.d), code, rep, row.note, flag))
    return out


def format_results(results: list[RowResult], fmt: str = "markdown") -> str:
    header = ["row", "expected (n,k,d)", "computed", "method", "status", "note"]
    lines = []
    for r in results:
        comp = (
            f"({r.got_n},{r.got_k},{r.got_d})"
            if r.got_d is not None
            else (f"({r.got_n},{r.got_k},d in {list(r.bounds)})" if r.bounds else "-")
        )
        lines.append(
            [r.label, f"({r.expected[0]},{r.expected[1]},{r.expected[2]})", comp, r.method, r.status, r.note]
        )
    if fmt == "csv":
        rows = [",".join(header)] + [",".join(str(c).replace(",", ";") for c in row) for row in lines]
        return "\n".join(rows)
    if fmt == "markdown":
        rows = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        rows += ["| " + " | ".join(str(c) for c in row) + " |" for row in lines]
        return "\n".join(rows)
    if fmt == "json":
        import json

        return json.dumps(
            [
                {
                    "row": r.label,
                    "expected": list(r.expected),
                    "n": r.got_n,
                    "k": r.got_k,
                    "d": r.got_d,
                    "bounds": list(r.bounds) if r.bounds else None,
                    "method": r.method,
                    "status": r.status,
                    "note": r.note,
                }
                for r in results
            ],
            indent=2,
        )
    raise ValueError(f"unknown format {fmt!r}")
