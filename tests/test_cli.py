import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from toric_codes.cli import load_build, main, make_parser


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


def test_build_to_unwritable_output_exits_2(tmp_path, capsys):
    spec = write_job(tmp_path)
    out = tmp_path / "missing-dir" / "code.json"
    assert main(["build", "--spec", spec, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "input error: cannot write output:" in err and "code.json" in err
    assert not out.exists()


@pytest.mark.parametrize("orbits, ray", [([1, 1], 1), ([2, 1, 2], 2)])
def test_job_with_a_repeated_orbit_ray_exits_2(tmp_path, capsys, orbits, ray):
    spec = write_job(tmp_path, points={"torus": True, "orbits": orbits})
    assert main(["build", "--spec", spec]) == 2
    assert f"points.orbits repeats ray {ray}" in capsys.readouterr().err


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


def test_job_file_has_no_bounds_block(tmp_path, capsys):
    # the block's one key was never read; it is now an unknown key
    spec = write_job(tmp_path, bounds={"conjectures": False})
    for command in ("build", "mindist", "bounds"):
        assert main([command, "--spec", spec]) == 2
    assert capsys.readouterr().err.count("job: unknown key 'bounds'") == 3


def test_bounds_reports_an_unproven_d_as_an_interval(tmp_path, capsys):
    # fan1 over GF(7), G = (2, 3, 4): a (36, 18, 9) code
    spec = write_job(tmp_path, field={"p": 7, "m": 1}, divisor=[2, 3, 4])
    assert main(["bounds", "--spec", spec, "--work-cap", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    lower, upper = doc["bounds"]
    assert doc["d"] is None and lower <= 9 <= upper
    assert doc["singleton_defect"] is None and doc["gv_rate"] is None and doc["beats_gv"] is None
    assert main(["bounds", "--spec", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["d"], doc["bounds"], doc["singleton_defect"]) == (9, None, 36 + 1 - 18 - 9)


def test_work_cap_bounds_an_exhaustive_sized_code(tmp_path, capsys):
    """156 projective messages: a smaller cap gives an interval instead of
    an exhaustive run, or exit 3 when the exhaustive engine is asked for."""
    spec = write_job(tmp_path)
    assert main(["mindist", "--spec", spec, "--work-cap", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["d"], doc["witness"], doc["work"]) == (None, None, 0)
    lower, upper = doc["bounds"]
    assert lower <= 10 <= upper == 16
    assert main(["mindist", "--spec", spec, "--work-cap", "155", "--method", "exhaustive"]) == 3
    assert main(["mindist", "--spec", spec, "--work-cap", "156"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["d"], doc["method"], doc["work"]) == (10, "exhaustive", 156)
    assert main(["reproduce", "rm", "--work-cap", "1", "--format", "json"]) == 0
    assert [row["status"] for row in json.loads(capsys.readouterr().out)] == ["bound-only"]


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag that is not an integer
        return exc.code


@pytest.mark.parametrize(
    "cap, message",
    [("0", "work budget must be an integer >= 1"), ("-5", "work budget must be an integer >= 1"),
     ("1.5", "invalid int value"), ("true", "invalid int value")],
)
def test_work_cap_flag_must_be_a_positive_integer(tmp_path, capsys, cap, message):
    spec = write_job(tmp_path)
    for argv in (["mindist", "--spec", spec], ["bounds", "--spec", spec], ["reproduce", "rm"]):
        assert exit_code(argv + ["--work-cap", cap]) == 2
    assert capsys.readouterr().err.count(message) == 3


@pytest.mark.parametrize("cap", [0, -5, 1.5, "2", True])
def test_job_file_work_cap_must_be_a_positive_integer(tmp_path, capsys, cap):
    spec = write_job(tmp_path, mindist={"work_cap": cap})
    assert main(["mindist", "--spec", spec]) == 2
    assert main(["bounds", "--spec", spec]) == 2
    assert capsys.readouterr().err.count("work budget must be an integer >= 1") == 2


@pytest.mark.parametrize("method", ["fast", "", "Auto", 1, None, ["auto"]])
def test_job_file_method_must_be_known(tmp_path, capsys, method):
    spec = write_job(tmp_path, mindist={"method": method})
    assert main(["mindist", "--spec", spec]) == 2
    assert main(["bounds", "--spec", spec]) == 2
    assert capsys.readouterr().err.count("method must be one of auto, exhaustive, infoset") == 2


def readme_commands():
    """Every ``toric-codes`` synopsis line of the README, expanded into one
    argument list per choice of its alternatives (``a|b``, ``{a,b}``),
    with optional parts included and placeholders N and X set to 1."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for line in re.findall(r"^toric-codes (.*)$", text, flags=re.M):
        choices = []
        for token in line.replace("[", "").replace("]", "").split():
            if token in ("N", "X"):
                token = "1"
            alternatives = token[0] == "{" or "|" in token
            choices.append(re.split(r"[|,]", token.strip("{}")) if alternatives else [token])
        yield from (list(argv) for argv in itertools.product(*choices))


def test_readme_command_lines_parse():
    parser = make_parser()
    commands = list(readme_commands())
    assert {argv[0] for argv in commands} == {"build", "mindist", "bounds", "decode", "reproduce", "rm"}
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


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


@pytest.mark.parametrize("planted", [{}, {50: 3}, {3: 1, 55: 6}, {0: 2, 49: 5, 62: 7}])
def test_decode_with_full_ray_orbits(tmp_path, capsys, planted):
    # fan1 over GF(8), all 49 torus points and the full orbits of D_1 and
    # D_2 (n = 63); G' has poles at every orbit point
    spec = write_job(
        tmp_path,
        field={"p": 2, "m": 3},
        divisor=[0, 0, 10],
        points={"torus": True, "orbits": [1, 2]},
        decoder={"gprime": [2, 2, 2]},
    )
    vec = [0] * 63
    for i, v in planted.items():
        vec[i] = v
    received = tmp_path / "r.txt"
    received.write_text(" ".join(map(str, vec)))
    assert main(["decode", "--spec", spec, "--received", str(received)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unique", doc
    assert doc["error"] == vec  # 0 is a codeword, so e = r
    assert doc["zero_set"] == sorted(i + 1 for i in planted)


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


@pytest.mark.parametrize(
    "m, ell, code",
    [("0", "1", 2), ("5", "-1", 2), ("5", "6", 2), ("5", "9", 2), ("5", "5", 0), ("20", "1", 3)],
)
def test_rm_parameters(capsys, m, ell, code):
    # ell runs over 0..m(q-1) = 5; the q^m size cap is a computation error
    assert main(["rm", "--p", "2", "-m", m, "-l", ell]) == code
    message = {0: "", 2: "need m >= 1 and 0 <= ell <= m(q-1)", 3: "exceeds the size cap 65536"}[code]
    assert message in capsys.readouterr().err


# -- malformed input: exit 2 (or 3), never a traceback -----------------------------


@pytest.mark.parametrize(
    "override",
    [
        {"field": 5},
        {"field": {"p": "x"}},
        {"fan": {"rays": [[1], [-1, 2], [-1, -1]]}},
        {"divisor": [0, 0, "a"]},
        {"points": {"orbits": 1}},
    ],
)
def test_build_rejects_malformed_spec(tmp_path, capsys, override):
    spec = write_job(tmp_path, **override)
    assert main(["build", "--spec", spec]) == 2
    assert "input error" in capsys.readouterr().err


# values that int() or bool() would turn into a different job
COERCED = [
    ({"field": {"p": 2, "m": 2.5}}, "field.m must be an integer"),
    ({"field": {"p": 5, "m": True}}, "field.m must be an integer"),
    ({"field": {"p": 5.0}}, "field.p must be an integer"),
    ({"field": {"p": 2, "m": 2, "modulus": [1, 1, 1.0]}}, "field.modulus must be a list of integers"),
    ({"fan": {"rays": [[2.0, -1], [-1, 2], [-1, -1]]}}, "fan.rays must be a list of integers"),
    ({"divisor": [0, 0, 2.5]}, "divisor must be a list of integers"),
    ({"points": {"orbits": [1.7]}}, "points.orbits must be a list of integers"),
    ({"points": {"orbits": [True]}}, "points.orbits must be a list of integers"),
    ({"points": {"torus": "false"}}, "points.torus must be true or false"),
    ({"points": {"torus": 0}}, "points.torus must be true or false"),
]


@pytest.mark.parametrize("override, message", COERCED)
def test_job_file_values_are_not_coerced(tmp_path, capsys, override, message):
    spec = write_job(tmp_path, **override)
    assert main(["build", "--spec", spec]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["abc", 2.5, True, -1, 0, None])
def test_decode_list_cap_must_be_a_positive_integer(tmp_path, capsys, cap):
    spec = write_job(
        tmp_path,
        fan={"rays": [[1, 0], [0, 1], [-1, -1]]},
        divisor=[0, 0, 3],
        decoder={"gprime": [0, 0, 1], "list_cap": cap},
    )
    received = tmp_path / "r.txt"
    received.write_text(" ".join(["0"] * 16))
    assert main(["decode", "--spec", spec, "--received", str(received)]) == 2
    assert "decoder.list_cap must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        None,
        "not json {",
        '{"field": {"p": 5, "m": 1}, "generator": [[1]]}',
        '{"field": {"p": 5, "m": 1.5, "modulus": [0, 1]}, "generator": [[1]]}',
    ],
)
def test_mindist_rejects_malformed_build_file(tmp_path, capsys, content):
    path = tmp_path / "code.json"
    if content is not None:
        path.write_text(content)
    assert main(["mindist", "--code", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_decode_rejects_malformed_gprime(tmp_path, capsys):
    spec = write_job(tmp_path, decoder={"gprime": [0, 0, "a"]})
    received = tmp_path / "r.txt"
    received.write_text(" ".join(["0"] * 16))
    assert main(["decode", "--spec", spec, "--received", str(received)]) == 2
    assert "decoder.gprime" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_flag_below_one_exits_2(tmp_path, capsys, workers):
    spec = write_job(tmp_path)
    assert main(["mindist", "--spec", spec, "--workers", workers]) == 2
    assert main(["reproduce", "rm", "--workers", workers]) == 2
    assert capsys.readouterr().err.count("workers must be an integer >= 1") == 2


@pytest.mark.parametrize("workers", [0, -3, 1.5, "2", True, None])
def test_job_file_workers_must_be_a_positive_integer(tmp_path, capsys, workers):
    spec = write_job(tmp_path, mindist={"workers": workers})
    assert main(["mindist", "--spec", spec]) == 2
    assert "workers must be an integer >= 1" in capsys.readouterr().err


# small values only: a mutated field stays at q <= 25, so every run is quick
JUNK = [None, True, -1, 0, 1, 2, 1.5, 2.5, "", "x", "false", [], [2], [[1, 0]], {}, {"p": 2}]


def mutate(doc, rng):
    """Replace or delete one entry anywhere in a JSON document, or add a key."""
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(doc)
    node, key = slots[rng.integers(len(slots))]
    action = rng.integers(3)
    if action == 0:
        node[key] = JUNK[rng.integers(len(JUNK))]
    elif action == 1:
        del node[key]
    elif isinstance(node, dict):
        node["extra"] = JUNK[rng.integers(len(JUNK))]
    else:
        node.append(JUNK[rng.integers(len(JUNK))])


def test_mutated_job_and_build_files_never_crash(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    job = {
        "field": {"p": 5, "m": 1},
        "fan": {"rays": [[2, -1], [-1, 2], [-1, -1]]},
        "divisor": [0, 0, 3],
        "points": {"torus": True, "orbits": [1]},
        "mindist": {"method": "auto", "workers": 1, "work_cap": 100000},
    }
    good_build = tmp_path / "good.json"
    job_path = write_job(tmp_path, "good_job.json", **job)
    assert main(["build", "--spec", job_path, "--output", str(good_build)]) == 0
    build = json.loads(good_build.read_text())
    # values that a lenient reader would accept as a different job
    for block, key, value in [("field", "m", 2.5), ("points", "orbits", [1.7]), ("points", "torus", "false")]:
        bad = json.loads(json.dumps(job))
        bad[block][key] = value
        path = write_job(tmp_path, "mutated.json", **bad)
        assert main(["build", "--spec", path]) == 2
        assert main(["mindist", "--spec", path]) == 2
    codes = []
    for trial in range(150):
        for doc, argv in ((job, ["build", "--spec"]), (build, ["mindist", "--code"])):
            bad = json.loads(json.dumps(doc))
            for _ in range(1 + trial % 2):
                mutate(bad, rng)
            path = tmp_path / "mutated.json"
            path.write_text(json.dumps(bad))
            if argv[0] == "build" and trial % 3 == 0:
                argv = ["mindist", "--spec"]
            codes.append(main(argv + [str(path)]))
    capsys.readouterr()
    assert set(codes) <= {0, 2, 3}
    assert {0, 2, 3} <= set(codes)
