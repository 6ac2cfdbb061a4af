"""Every reproduced output, pinned bit for bit.

``tests/data/golden_outputs.json`` holds, for each golden row that
``reproduce_table`` computes, its (n, k, d), method, exact flag, interval,
work and the sha256 of its witness; the ``mindist`` JSON of the
(49, 11, 28) record; and the worked decoding example of
``demos/05_list_decoding.py``: its stdout and the ``decode`` JSON of its
word; and the stdout of the demos that print no wall time (demo 03 prints
one).  A change that is meant to move one of these (a faster search moves
``work``) re-records the file and says so; any other difference is a
regression.  Re-record with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import runpy
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from toric_codes import cli, reproduce
from toric_codes.tables import GOLDEN_TABLES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_outputs.json"

RECORD_JOB = {
    "field": {"p": 2, "m": 3},
    "fan": {"rays": [[5, -1], [-1, 5], [-1, -1]]},
    "divisor": [0, 0, 5],
}

PINNED_DEMOS = (
    "01_finite_fields.py",
    "02_fans_and_polytopes.py",
    "04_bounds_and_conjectures.py",
    "06_golden_tables.py",
)


def _witness_sha256(witness):
    if witness is None:
        return None
    return hashlib.sha256(np.asarray(witness, dtype="<i2").tobytes()).hexdigest()


def table_rows(table_id: str) -> list[dict]:
    """Each computed row of ``reproduce_table(table_id)`` with the report
    its distance search returned."""
    reports = []
    search = reproduce.min_distance

    def recording(code, **kwargs):
        rep = search(code, **kwargs)
        reports.append(rep)
        return rep

    # reproduce_table looks min_distance up in its module at call time
    with mock.patch.object(reproduce, "min_distance", recording):
        results = reproduce.reproduce_table(table_id)
    computed = [r for r in results if r.status != "flagged"]
    assert len(computed) == len(reports)
    return [
        {
            "row": r.label,
            "n": r.got_n,
            "k": r.got_k,
            "d": r.got_d,
            "method": rep.method,
            "exact": rep.exact,
            "interval": None if rep.exact else [rep.lower, rep.upper],
            "status": r.status,
            "work": rep.work,
            "witness_sha256": _witness_sha256(rep.witness),
        }
        for r, rep in zip(computed, reports)
    ]


def record_mindist() -> dict:
    """The ``mindist`` JSON of the (49, 11, 28) record, as the CLI prints it."""
    with tempfile.TemporaryDirectory() as tmp:
        job = Path(tmp) / "record.json"
        job.write_text(json.dumps(RECORD_JOB))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["mindist", "--spec", str(job)]) == 0
    return json.loads(buf.getvalue())


def decoding_example() -> dict:
    """Demo 05's stdout and the ``decode`` JSON of its word (the CLI's keys,
    plus the outcome's locator)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        demo = runpy.run_path(str(ROOT / "demos" / "05_list_decoding.py"))
    out, st, r = demo["out"], demo["st"], demo["r"]
    doc = {
        "status": out.status,
        "zero_set": [i + 1 for i in out.zero_set],
        "within_zero_cap": out.within_zero_cap,
        "zero_cap": st.zero_cap,
        "condition_c": st.condition_c,
        "diagnostics": out.diagnostics,
        "locator": [int(x) for x in out.locator],
    }
    if out.status == "unique":
        doc["error"] = [int(x) for x in out.errors_found]
        doc["codeword"] = [int(x) for x in st.spec.gf.vsub(r, out.errors_found)]
    elif out.status == "list":
        doc["errors"] = [[int(x) for x in e] for e in out.errors_found]
    return {"stdout": buf.getvalue().splitlines(), "decode": doc}


def demo_stdout() -> dict:
    """The stdout lines of each pinned demo, by file name."""
    out = {}
    for name in PINNED_DEMOS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            runpy.run_path(str(ROOT / "demos" / name))
        out[name] = buf.getvalue().splitlines()
    return out


def golden_outputs() -> dict:
    return {
        "tables": {table_id: table_rows(table_id) for table_id in GOLDEN_TABLES},
        "record_mindist": record_mindist(),
        "decoding_example": decoding_example(),
        "demo_stdout": demo_stdout(),
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def test_every_reproduced_output_is_pinned():
    want = json.loads(GOLDEN.read_text())
    got = golden_outputs()
    for table_id in GOLDEN_TABLES:
        assert got["tables"][table_id] == want["tables"][table_id], table_id
    assert got["record_mindist"] == want["record_mindist"]
    assert got["decoding_example"] == want["decoding_example"]
    assert got["demo_stdout"] == want["demo_stdout"]
    assert dumps(got) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dumps(golden_outputs()))
