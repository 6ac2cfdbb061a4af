import json

import numpy as np
import pytest

from toric_codes.cli import load_build, main


def write_job(tmp_path, name="job.json", **overrides):
    job = {
        "field": {"p": 5, "m": 1},
        "fan": {"rays": [[2, -1], [-1, 2], [-1, -1]]},
        "divisor": [0, 0, 3],
        "points": {"torus": True, "orbits": []},
    }
    job.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return str(path)


FAN7_JOB = {
    "field": {"p": 2, "m": 3},
    "fan": {"rays": [[5, -1], [-1, 5], [-1, -1]]},
    "divisor": [0, 0, 5],
}


def test_build_fan1(tmp_path, capsys):
    spec = write_job(tmp_path)
    assert main(["build", "--spec", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["k"], doc["kc"]) == (16, 4, 4)
    assert doc["injective"]
    assert doc["basis"] == [[0, 0], [1, 1], [1, 2], [2, 1]]


def test_build_fan7(tmp_path, capsys):
    spec = write_job(tmp_path, **FAN7_JOB)
    assert main(["build", "--spec", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["k"]) == (49, 11)


def test_build_roundtrip(tmp_path, capsys):
    spec = write_job(tmp_path)
    out = tmp_path / "code.json"
    assert main(["build", "--spec", spec, "--output", str(out)]) == 0
    gf, code, doc = load_build(str(out))
    assert (code.n, code.k) == (16, 4)
    # byte-stable: rebuilding writes the identical file
    out2 = tmp_path / "code2.json"
    assert main(["build", "--spec", spec, "--output", str(out2)]) == 0
    assert out.read_text() == out2.read_text()


def test_build_rejects_bad_ray(tmp_path, capsys):
    spec = write_job(tmp_path, fan={"rays": [[2, 0], [0, 1], [-1, -1]]})
    assert main(["build", "--spec", spec]) == 2
    assert "primitive" in capsys.readouterr().err


def test_build_rejects_unknown_key(tmp_path, capsys):
    spec = write_job(tmp_path, extra={"x": 1})
    assert main(["build", "--spec", spec]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_build_pole_is_computation_error(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        field={"p": 2, "m": 3},
        points={"torus": True, "orbits": [3]},  # ray 3 carries the divisor
    )
    assert main(["build", "--spec", spec]) == 3


def test_mindist_fan1(tmp_path, capsys):
    spec = write_job(tmp_path)
    assert main(["mindist", "--spec", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d"] == 10
    assert doc["method"] == "exhaustive"
    assert sum(1 for x in doc["witness"] if x) == 10


def test_mindist_from_build_file(tmp_path, capsys):
    spec = write_job(tmp_path)
    out = tmp_path / "code.json"
    main(["build", "--spec", spec, "--output", str(out)])
    capsys.readouterr()
    assert main(["mindist", "--code", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 10


@pytest.mark.parametrize("entry", [-1, 5, 70000])
def test_mindist_rejects_generator_entry_outside_field(tmp_path, capsys, entry):
    spec = write_job(tmp_path)
    out = tmp_path / "code.json"
    main(["build", "--spec", spec, "--output", str(out)])
    doc = json.loads(out.read_text())
    doc["generator"][0][0] = entry
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["mindist", "--code", str(out)]) == 3
    assert "element indices" in capsys.readouterr().err


def test_bounds_cmd(tmp_path, capsys):
    spec = write_job(tmp_path)
    assert main(["bounds", "--spec", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["singleton_defect"] == 16 + 1 - 4 - 10
    assert doc["segment_upper"] == 15
    assert doc["conjecture2"]["applicable"] is False  # singular fan


def test_decode_zero_error_word(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        fan={"rays": [[1, 0], [0, 1], [-1, -1]]},
        divisor=[0, 0, 3],
        decoder={"gprime": [0, 0, 1]},
    )
    received = tmp_path / "r.txt"
    received.write_text(" ".join(["0"] * 16))
    assert main(["decode", "--spec", spec, "--received", str(received)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unique"
    assert doc["error"] == [0] * 16


def test_decode_single_torus_error(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        fan={"rays": [[1, 0], [0, 1], [-1, -1]]},
        divisor=[0, 0, 3],
        decoder={"gprime": [0, 0, 1]},
    )
    received = tmp_path / "r.txt"
    vec = [0] * 16
    vec[4] = 3
    received.write_text(" ".join(str(x) for x in vec))
    assert main(["decode", "--spec", spec, "--received", str(received)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unique"
    assert doc["error"] == vec  # 0 is a codeword, so e = r


@pytest.mark.parametrize("symbol", [-1, 5, 70000])
def test_decode_rejects_symbol_outside_field(tmp_path, capsys, symbol):
    spec = write_job(
        tmp_path,
        fan={"rays": [[1, 0], [0, 1], [-1, -1]]},
        divisor=[0, 0, 3],
        decoder={"gprime": [0, 0, 1]},
    )
    received = tmp_path / "r.txt"
    vec = [0] * 16
    vec[4] = symbol
    received.write_text(" ".join(str(x) for x in vec))
    assert main(["decode", "--spec", spec, "--received", str(received)]) == 2
    assert f"received symbol {symbol}" in capsys.readouterr().err


def test_reproduce_rm(capsys):
    assert main(["reproduce", "rm", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_reproduce_hansen_b(capsys):
    assert main(["reproduce", "hansen-b", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert out.count("| ok |") == 6


def test_reproduce_unknown_table():
    with pytest.raises(SystemExit):
        main(["reproduce", "nope"])


def test_reproduce_mismatch_exits_4(monkeypatch, capsys):
    from toric_codes import tables

    bad = tables.GoldenTable(
        "rm", "rm", None, (tables.RMRow(2, 5, 1, 32, 6, 17, "tampered"),)
    )
    monkeypatch.setitem(tables.GOLDEN_TABLES, "rm", bad)
    assert main(["reproduce", "rm"]) == 4
    assert "FAILED" in capsys.readouterr().err


def test_rm_cmd(capsys):
    assert main(["rm", "--p", "2", "-m", "5", "-l", "1", "--mindist"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["k"], doc["d"]) == (32, 6, 16)
    assert doc["predicted"] == {"n": 32, "k": 6, "d": 16}
