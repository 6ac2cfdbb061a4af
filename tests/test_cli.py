import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import toric_codes
from toric_codes.cli import load_build, main, make_parser

SRC = Path(toric_codes.__file__).parents[1]


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


@pytest.mark.parametrize("token", ["1_0", "+3", "\u0663", "0x1", "3.0"])
def test_decode_takes_only_ascii_decimal_digits(tmp_path, capsys, token):
    # fan1 over GF(8), G = (0,0,10), G' = (2,2,2): int() reads "+3" and the
    # Arabic-Indic three as 3 and "1_0" as 10
    spec = write_job(tmp_path, field={"p": 2, "m": 3}, divisor=[0, 0, 10], decoder={"gprime": [2, 2, 2]})
    received = tmp_path / "r.txt"
    received.write_text(" ".join([token] + ["0"] * 48), encoding="utf-8")
    assert main(["decode", "--spec", spec, "--received", str(received)]) == 2
    assert f"received symbol {token} is not an element index of GF(8)" in capsys.readouterr().err


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


def test_decode_with_single_orbit_points(tmp_path, capsys):
    # demo 05's worked example as a job file: the 49 torus points of fan1
    # over GF(8), then the orbit points s = 1 of D_1 and D_2 (n = 51)
    golden = Path(__file__).parent / "data" / "golden_outputs.json"
    ex = json.loads(golden.read_text())["decoding_example"]["decode"]
    spec = write_job(
        tmp_path,
        field={"p": 2, "m": 3},
        divisor=[0, 0, 10],
        points={"torus": True, "orbit_points": [[1, 1], [2, 1]]},
        decoder={"gprime": [2, 2, 2]},
    )
    received = tmp_path / "r.txt"
    received.write_text(" ".join(str(c ^ e) for c, e in zip(ex["codeword"], ex["error"])))
    assert main(["decode", "--spec", spec, "--received", str(received)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["status"], doc["error"], doc["zero_set"]) == ("unique", ex["error"], [50, 51])


def test_single_orbit_points_follow_the_whole_orbits_in_file_order(tmp_path, capsys):
    from toric_codes import GF, Fan2D, OrbitPoint, TDivisor, ToricCodeSpec
    from toric_codes.toric import build, default_points

    spec = write_job(tmp_path, points={"torus": True, "orbits": [1], "orbit_points": [[2, 3], [2, 1]]})
    assert main(["build", "--spec", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    gf, fan = GF(5), Fan2D([(2, -1), (-1, 2), (-1, -1)])
    points = default_points(gf, fan, orbits=[0]) + [OrbitPoint(1, 3), OrbitPoint(1, 1)]
    want = build(ToricCodeSpec(gf, fan, TDivisor((0, 0, 3)), points))
    assert (doc["n"], doc["k"]) == (22, want.k)
    assert np.array_equal(doc["generator"], want.eval_matrix)


def test_whole_orbits_follow_the_file_order(tmp_path, capsys):
    gens = []
    for orbits in ([1, 2], [2, 1]):
        spec = write_job(tmp_path, points={"torus": True, "orbits": orbits})
        assert main(["build", "--spec", spec]) == 0
        gens.append(np.array(json.loads(capsys.readouterr().out)["generator"]))
    # 16 torus points over GF(5), then the two 4-point orbits swapped
    perm = list(range(16)) + list(range(20, 24)) + list(range(16, 20))
    assert gens[0].shape[1] == 24 and not np.array_equal(gens[0], gens[1])
    assert np.array_equal(gens[0][:, perm], gens[1])


def test_build_over_a_modulus_whose_t_is_not_primitive(tmp_path, capsys):
    # t^2 + 1 is irreducible over GF(3), and t has order 4 in GF(9)
    spec = write_job(tmp_path, field={"p": 3, "m": 2, "modulus": [1, 0, 1]})
    assert main(["build", "--spec", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["field"]["q"], doc["field"]["modulus"], doc["n"]) == (9, [1, 0, 1], 64)


def test_build_over_a_reducible_modulus_exits_2(tmp_path, capsys):
    # t^2 + 1 = (t + 1)^2 over GF(2)
    spec = write_job(tmp_path, field={"p": 2, "m": 2, "modulus": [1, 0, 1]})
    assert main(["build", "--spec", spec]) == 2
    assert "modulus [1, 0, 1] is reducible over GF(2)" in capsys.readouterr().err


def named(name, cases):
    """``(override, message)`` cases as pytest params with the ids
    ``{name}{i}-{rule}``: a case that gives three values names the rule it
    breaks apart from the message that the CLI prints."""
    return [
        pytest.param(*case[:2], id=f"{name}{i}-{case[-1]}") for i, case in enumerate(cases)
    ]


@pytest.mark.parametrize(
    "points, message",
    named("points", [
        ({"orbit_points": [[4, 1]]}, "orbit point ray 4 out of range 1..3"),
        ({"orbit_points": [[0, 1]]}, "orbit point ray 0 out of range 1..3"),
        ({"orbit_points": [[1, 0]]}, "orbit point s = 0 is not a nonzero element index 1..4"),
        ({"orbit_points": [[1, 5]]}, "orbit point s = 5 is not a nonzero element index 1..4"),
        ({"orbit_points": [[1, -1]]}, "orbit point s = -1 is not a nonzero element index 1..4"),
        ({"orbit_points": [[2, 1], [1, 3], [2, 1]]}, "points.orbit_points repeats [2, 1]"),
        ({"orbits": [2], "orbit_points": [[1, 1], [2, 4]]}, "orbit point [2, 4] lies on the whole orbit of ray 2"),
        ({"orbit_points": [[1, 1.0]]}, "points.orbit_points (1, 1.0) must hold integers",
         "points.orbit_points must be a list of integers"),
        ({"orbit_points": [[True, 1]]}, "points.orbit_points (True, 1) must hold integers",
         "points.orbit_points must be a list of integers"),
        ({"orbit_points": [["1", 1]]}, "points.orbit_points ('1', 1) must hold integers",
         "points.orbit_points must be a list of integers"),
        ({"orbit_points": [[1, 1, 1]]}, "points.orbit_points [1, 1, 1] must be 2 integers",
         "points.orbit_points must be a list of [ray, s] pairs"),
        ({"orbit_points": [1, 1]}, "points.orbit_points 1 must be 2 integers",
         "points.orbit_points must be a list of [ray, s] pairs"),
        ({"orbit_points": {"1": 1}}, "points.orbit_points {'1': 1} must be a list of [ray, s] pairs",
         "points.orbit_points must be a list of [ray, s] pairs"),
    ]),
)
def test_job_with_a_bad_orbit_point_exits_2(tmp_path, capsys, points, message):
    spec = write_job(tmp_path, points=points)
    assert main(["build", "--spec", spec]) == 2
    assert message in capsys.readouterr().err


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
    [("0", "1", 2), ("5", "-1", 2), ("5", "6", 2), ("5", "9", 2), ("5", "5", 0), ("20", "1", 3),
     ("20000", "1", 3), ("2000", "2000", 3), ("2000", "-1", 2), ("2000", "4001", 2)],
)
def test_rm_parameters(capsys, m, ell, code):
    """ell runs over 0..m(q-1); the q^m size cap is a computation error,
    checked after m and ell and before the closed-form sum, so a job far
    over the cap exits at once."""
    t0 = time.perf_counter()
    assert main(["rm", "--p", "2", "-m", m, "-l", ell]) == code
    assert time.perf_counter() - t0 < 1.0
    message = {0: "", 2: "need m >= 1 and 0 <= ell <= m(q-1)", 3: "exceeds the size cap 65536"}[code]
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# -- malformed input: exit 2 (or 3), never a traceback -----------------------------


@pytest.mark.parametrize(
    "override",
    [
        {"field": 5},
        {"field": {"p": "x"}},
        {"fan": {"rays": [[1], [-1, 2], [-1, -1]]}},
        {"divisor": [0, 0, "a"]},
        {"points": {"orbits": 1}},
        {"fan": {"rays": [[1, 0, 0], [-1, 2], [-1, -1]]}},
    ],
)
def test_build_rejects_malformed_spec(tmp_path, capsys, override):
    spec = write_job(tmp_path, **override)
    assert main(["build", "--spec", spec]) == 2
    assert "input error" in capsys.readouterr().err


# values that int() or bool() would turn into a different job; the
# constructors refuse them, and the CLI names the job key first
COERCED = named("override", [
    ({"field": {"p": 2, "m": 2.5}}, "field: p and m (2, 2.5) must hold integers",
     "field.m must be an integer"),
    ({"field": {"p": 5, "m": True}}, "field: p and m (5, True) must hold integers",
     "field.m must be an integer"),
    ({"field": {"p": 5.0}}, "field: p and m (5.0, 1) must hold integers", "field.p must be an integer"),
    ({"field": {"p": 2, "m": 2, "modulus": [1, 1, 1.0]}}, "field: modulus (1, 1, 1.0) must hold integers",
     "field.modulus must be a list of integers"),
    ({"fan": {"rays": [[2.0, -1], [-1, 2], [-1, -1]]}}, "fan.rays: ray (2.0, -1) must hold integers",
     "fan.rays must be a list of integers"),
    ({"divisor": [0, 0, 2.5]}, "divisor: divisor (0, 0, 2.5) must hold integers",
     "divisor must be a list of integers"),
    ({"points": {"orbits": [1.7]}}, "points.orbits (1.7,) must hold integers",
     "points.orbits must be a list of integers"),
    ({"points": {"orbits": [True]}}, "points.orbits (True,) must hold integers",
     "points.orbits must be a list of integers"),
    ({"points": {"torus": "false"}}, "points.torus must be true or false"),
    ({"points": {"torus": 0}}, "points.torus must be true or false"),
])


@pytest.mark.parametrize("override, message", COERCED)
def test_job_file_values_are_not_coerced(tmp_path, capsys, override, message):
    spec = write_job(tmp_path, **override)
    assert main(["build", "--spec", spec]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ({"fan": {"rays": 5}}, "fan.rays: rays 5 must be a sequence of integer pairs"),
        ({"field": {"p": 2, "m": 2, "modulus": 5}}, "field: modulus 5 must be a sequence of integers"),
        ({"field": {"p": 2, "m": 2, "modulus": ""}}, "field: modulus '' must be a sequence of integers"),
        ({"points": {"orbits": {}}}, "points.orbits {} must be a sequence of integers"),
    ],
)
def test_malformed_values_are_named_by_their_job_key(tmp_path, capsys, override, message):
    """A scalar, a string or an object where a list belongs: the
    constructors or the shared helpers refuse it, and the message starts
    with the job key (``COERCED`` holds the non-integer entries)."""
    spec = write_job(tmp_path, **override)
    for command in ("build", "mindist"):
        assert main([command, "--spec", spec]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


# the longest stderr a refused value may give: the value is shown in at
# most 200 characters (``field._SHOWN_CHARS``)
REFUSAL_CHARS = 300


@pytest.mark.parametrize(
    "override, start",
    [
        ({"divisor": [0] * 100_000 + [2.5]}, "input error: divisor: "),
        ({"points": {"torus": [1] * 100_000}}, "input error: points.torus "),
        ({"mindist": {"method": ["auto"] * 100_000}}, "input error: mindist: method "),
    ],
)
def test_a_long_refused_value_gives_one_short_line(tmp_path, capsys, override, start):
    spec = write_job(tmp_path, **override)
    assert main(["mindist", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1 and len(err) < REFUSAL_CHARS


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


def test_workers_flag_is_gone(tmp_path, capsys):
    spec = write_job(tmp_path)
    for argv in (["mindist", "--spec", spec], ["bounds", "--spec", spec], ["reproduce", "rm"]):
        assert exit_code(argv + ["--workers", "2"]) == 2
    assert capsys.readouterr().err.count("unrecognized arguments: --workers 2") == 3


def test_job_file_workers_key_is_unknown(tmp_path, capsys):
    spec = write_job(tmp_path, mindist={"workers": 1})
    assert main(["mindist", "--spec", spec]) == 2
    assert "mindist: unknown key 'workers'" in capsys.readouterr().err


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


OVERSIZE_JOBS = {
    # n = 1020^2: the dual would hold (n - 2) x n entries
    "gf1021": ({"p": 1021, "m": 1}, [0, 0, 2], "dual generator would hold 1040398 x 1040400"),
    # |P_G| = 1 666 716 667 lattice points on 49 torus points
    "divisor": ({"p": 2, "m": 3}, [0, 0, 100_000], "evaluation matrix would hold 1666716667 x 49"),
}


@pytest.mark.parametrize("command", ["build", "mindist", "bounds"])
@pytest.mark.parametrize("job", list(OVERSIZE_JOBS))
def test_oversize_job_exits_3_within_a_second(tmp_path, capsys, job, command):
    field, divisor, message = OVERSIZE_JOBS[job]
    spec = write_job(tmp_path, field=field, divisor=divisor)
    t0 = time.perf_counter()
    assert main([command, "--spec", spec]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert message in err and "size cap 268435456 (2^28)" in err and "Traceback" not in err


SLIVER_RAYS = [[1000001, -1000000], [1, 1], [-1000001, 1000000], [-1, -1]]


@pytest.mark.parametrize("command", ["build", "mindist", "bounds"])
@pytest.mark.parametrize("divisor, points, columns", [
    ([0, 0, 0, 2 * 10**7], 10, 20000001),  # listed in about a minute before
    ([0, 0, 0, 10**12], 500000, 1000000000001),  # under the size cap at n = 49
])
def test_sliver_job_exits_3_within_a_second(tmp_path, capsys, command, divisor, points, columns):
    """A sliver polytope, few lattice points over many columns t = x + y,
    is refused before its points are listed."""
    spec = write_job(tmp_path, field={"p": 2, "m": 3}, fan={"rays": SLIVER_RAYS}, divisor=divisor)
    t0 = time.perf_counter()
    assert main([command, "--spec", spec]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert f"listing {points} lattice points would step through {columns} columns" in err
    assert "Traceback" not in err


def test_exhaustive_count_past_the_digit_limit_exits_3(tmp_path, capsys):
    """A GF(64) build file with k = 2400 (the identity plus an all-ones
    column): (q^k - 1)/(q - 1) has more than 4300 digits, and the
    exhaustive engine's refusal is a computation error, not a traceback."""
    from toric_codes.field import GF

    k = 2400
    gen = np.concatenate([np.eye(k, dtype=int), np.ones((k, 1), dtype=int)], axis=1)
    doc = {"field": {"p": 2, "m": 6, "modulus": [int(c) for c in GF(2, 6).modulus]},
           "generator": gen.tolist()}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    assert main(["mindist", "--code", str(path), "--method", "exhaustive"]) == 3
    err = capsys.readouterr().err
    assert "64^2400/(64 - 1) messages exceed the work cap 2000000000" in err
    assert len(err) < 200 and "Traceback" not in err


def test_decoding_a_full_rank_code_says_its_dual_is_zero(tmp_path, capsys):
    """fan1 over GF(8), G = 40 D_3, G' = 2(D_1 + D_2 + D_3): k = n = 49."""
    spec = write_job(tmp_path, field={"p": 2, "m": 3}, divisor=[0, 0, 40], decoder={"gprime": [2, 2, 2]})
    received = tmp_path / "r.txt"
    received.write_text(" ".join(["0"] * 49))
    assert main(["decode", "--spec", spec, "--received", str(received)]) == 3
    err = capsys.readouterr().err
    assert "the dual code, which this decoder decodes, is zero" in err
    assert "minimum distance" not in err


def test_oversize_decoder_basis_exits_3(tmp_path, capsys):
    spec = write_job(tmp_path, divisor=[0, 0, 6], decoder={"gprime": [0, 0, 100_000]})
    received = tmp_path / "r.txt"
    received.write_text(" ".join(["0"] * 16))
    t0 = time.perf_counter()
    assert main(["decode", "--spec", spec, "--received", str(received)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "evaluation matrix would hold 1666716667 x 16" in capsys.readouterr().err


# decode jobs over GF(8) whose L(G') or L(G - G') the gate refuses: G' holds
# one lattice point over 2 000 001 columns t = x + y, and G - G' =
# (0, 0, 100 010) holds 1 667 050 022 on the 49 torus points
DECODE_REFUSALS = {
    "sliver": (SLIVER_RAYS, [0, 0, 0, 0], [0, 0, 0, 2 * 10**6],
               "listing 1 lattice points would step through 2000001 columns"),
    "gap": ([[2, -1], [-1, 2], [-1, -1]], [0, 0, 10], [0, 0, -100_000],
            "evaluation matrix would hold 1667050022 x 49"),
}


@pytest.mark.parametrize("job", list(DECODE_REFUSALS))
def test_decoder_basis_refused_by_the_gate_exits_3_within_a_second(tmp_path, capsys, job):
    """``decode`` lists L(G') and L(G - G') through the gate that lists
    L(G), so each refusal comes before the basis is listed."""
    rays, divisor, gprime, message = DECODE_REFUSALS[job]
    spec = write_job(tmp_path, field={"p": 2, "m": 3}, fan={"rays": rays}, divisor=divisor,
                     decoder={"gprime": gprime})
    received = tmp_path / "r.txt"
    received.write_text(" ".join(["0"] * 49))
    t0 = time.perf_counter()
    assert main(["decode", "--spec", spec, "--received", str(received)]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_mutated_job_and_build_files_never_crash(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    job = {
        "field": {"p": 5, "m": 1},
        "fan": {"rays": [[2, -1], [-1, 2], [-1, -1]]},
        "divisor": [0, 0, 3],
        "points": {"torus": True, "orbits": [1]},
        "mindist": {"method": "auto", "work_cap": 100000},
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
    # large divisors and large fields: a code over a size cap, or with an
    # empty P_G, exits 3 before it is formed, and a field over the q cap
    # exits 2, each within a second
    large = [
        ("divisor", 2, 10**5, 3), ("divisor", 0, 10**12, 3), ("divisor", 1, -(10**12), 3),
        ("field", "p", 1021, 3), ("field", "p", 10**12, 2), ("field", "m", 10, 2),
    ]
    for block, key, value, code in large:
        bad = json.loads(json.dumps(job))
        bad[block][key] = value
        path = write_job(tmp_path, "large.json", **bad)
        for command in ("build", "mindist"):
            t0 = time.perf_counter()
            assert main([command, "--spec", path]) == code
            assert time.perf_counter() - t0 < 1.0
    # the same generator read over GF(1021) is a valid code
    for p, code in ((1021, 0), (10**12, 2)):
        bad = json.loads(json.dumps(build))
        bad["field"]["p"] = p
        path = tmp_path / "large_build.json"
        path.write_text(json.dumps(bad))
        t0 = time.perf_counter()
        assert main(["mindist", "--code", str(path)]) == code
        assert time.perf_counter() - t0 < 1.0
    # a GF(64) decoder job whose dual is too large for condition (C), which
    # traced back on the integer digit limit, and a sliver polytope of 10
    # points over 2e7 columns
    received = tmp_path / "r.txt"
    received.write_text(" ".join(["0"] * 63**2))
    gf64 = write_job(tmp_path, "gf64.json", field={"p": 2, "m": 6}, divisor=[0, 0, 28],
                     decoder={"gprime": [5, 5, 5]})
    capsys.readouterr()
    assert main(["decode", "--spec", gf64, "--received", str(received)]) == 0
    assert json.loads(capsys.readouterr().out)["condition_c"] == "unverified"
    sliver = write_job(tmp_path, "sliver.json", field={"p": 2, "m": 3}, fan={"rays": SLIVER_RAYS},
                       divisor=[0, 0, 0, 2 * 10**7])
    t0 = time.perf_counter()
    assert main(["build", "--spec", sliver]) == 3
    assert time.perf_counter() - t0 < 1.0
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


# the set-up of the decoder job on fan1 over GF(128), G = (0, 0, 28) and G' =
# (5, 5, 5), printing its zero cap: when its auxiliary search packed every
# unit multiple of its rows and weighed the pair level as one-row leaves, it
# took 7.7 s and 2 769 MB max RSS (2 vCPUs, numpy 2.4); scaled from the packed
# rows, with the pair level in blocks, it takes about 2 s and 640 MB
GF128_SETUP = """
import json
from toric_codes import GF, Fan2D, TDivisor
from toric_codes.decoder import setup
from toric_codes.geometry import torus_points
from toric_codes.toric import ToricCodeSpec
gf = GF(2, 7)
spec = ToricCodeSpec(gf, Fan2D([(2, -1), (-1, 2), (-1, -1)]), TDivisor((0, 0, 28)), torus_points(gf))
st = setup(spec, TDivisor((5, 5, 5)))
print(json.dumps({"zero_cap": st.zero_cap, "exact": st.zero_cap_exact}))
"""


def test_decoder_setup_of_a_long_torus_code_stays_under_a_gib():
    """The GF(128) decoder set-up ends with its recorded zero cap, not
    exact, with no traceback and under 1 GiB max RSS."""
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", GF128_SETUP]
    run = subprocess.run([sys.executable, "-c", MEASURED_RUN, *argv], capture_output=True, text=True,
                         env=env, timeout=300, check=True)
    got = json.loads(run.stdout)
    assert got["code"] == 0 and "Traceback" not in got["err"]
    assert json.loads(got["out"]) == {"zero_cap": 15077, "exact": False}
    assert got["maxrss_kib"] < 1 << 20


def cli_process(argv, stdout):
    """``python -m toric_codes`` with the package under test, its standard
    error piped."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-m", "toric_codes", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env)


def test_build_into_a_reader_that_stops_after_100_bytes_exits_141(tmp_path):
    """``build | head -c 100``: the GF(32) fan1 code with G = 10 D_3 prints
    about 140 kB, more than a pipe holds, so the write is still going when
    the reader closes; the exit is 141 with nothing on standard error."""
    spec = write_job(tmp_path, field={"p": 2, "m": 5}, divisor=[0, 0, 10])
    proc = cli_process(["build", "--spec", spec], subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert head.startswith(b"{") and err == b""


@pytest.mark.parametrize("command", ["build", "mindist", "bounds", "decode", "reproduce", "rm"])
def test_every_subcommand_exits_141_on_a_closed_output(tmp_path, command):
    """Standard output is a pipe whose reader has already gone: every
    subcommand exits 141, with no traceback on standard error."""
    spec = write_job(tmp_path, fan={"rays": [[1, 0], [0, 1], [-1, -1]]}, decoder={"gprime": [0, 0, 1]})
    received = tmp_path / "r.txt"
    received.write_text(" ".join(["0"] * 16))
    argv = {
        "decode": ["decode", "--spec", spec, "--received", str(received)],
        "reproduce": ["reproduce", "rm"],
        "rm": ["rm", "--p", "2", "-m", "3", "-l", "1"],
    }.get(command, [command, "--spec", spec])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process(argv, write_end)
    finally:
        os.close(write_end)
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# mindist on the fan1 job G = (0, 0, 6) over GF(2^m), by (m, work cap): the
# fields of its JSON, the sha256 of all of its bytes, and the ceiling of the
# run's max RSS in MiB.  Each JSON is the one that the (n, n) table of
# translates gave; GF(128) then took 3 010 MiB and GF(64) 233 MiB under the
# cap 3000.  Under the cap 1 000 000, GF(128) ends with 127 tied words, whose
# translates the dense blocks of the grid formed in 13.4 s and 1 553 MB
# (2 vCPUs, numpy 2.4); the witness that narrows them first takes 1.0 s and
# 529 MB.
LONG_JOBS = {
    (6, 3000): ({"n": 3969, "k": 10, "d": None, "bounds": [1191, 3780], "method": "information-set",
                 "work": 2845},
                "b03c6fd2ebbd4a761873ff23772bc9c6ba8153517e167b560881f80f635422c5", 234),
    (7, 3000): ({"n": 16129, "k": 10, "d": None, "bounds": [3226, 15748], "method": "information-set",
                 "work": 10},
                "261d25cc11c85d59345cfa430384220960a1e26c8ab79b31adab291b3fcf363c", 1024),
    (7, 1_000_000): ({"n": 16129, "k": 10, "d": None, "bounds": [4839, 15748],
                      "method": "information-set", "work": 5725},
                     "e5017fdc80962e7ab0338c11fe469e4c59da4d4a51b1ea30cc4773ba18a89511", 1024),
}

# runs its arguments as one child and prints the child's standard output,
# then its exit code and max RSS (getrusage counts only this one child)
MEASURED_RUN = """
import json, resource, subprocess, sys
proc = subprocess.run(sys.argv[1:], capture_output=True, text=True)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"code": proc.returncode, "out": proc.stdout, "err": proc.stderr,
                  "maxrss_kib": usage.ru_maxrss}))
"""


@pytest.mark.parametrize("m,cap", sorted(LONG_JOBS),
                         ids=[f"{m}" if cap == 3000 else f"{m}-{cap}" for m, cap in sorted(LONG_JOBS)])
def test_budgeted_mindist_of_a_long_torus_code_stays_small(tmp_path, m, cap):
    """A budgeted search of a fan1 code over GF(2^m) takes the translates of
    its ties from the grid side, in bounded blocks: the same JSON, byte for
    byte, with no traceback, and the max RSS under the ceiling."""
    import hashlib

    pytest.importorskip("resource")
    fields, sha256, ceiling_mib = LONG_JOBS[m, cap]
    spec = write_job(tmp_path, field={"p": 2, "m": m}, divisor=[0, 0, 6], points={"torus": True})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "toric_codes", "mindist", "--spec", spec, "--work-cap", str(cap)]
    run = subprocess.run([sys.executable, "-c", MEASURED_RUN, *argv], capture_output=True, text=True,
                         env=env, timeout=300, check=True)
    got = json.loads(run.stdout)
    assert got["code"] == 0 and "Traceback" not in got["err"]
    doc = json.loads(got["out"])
    assert {key: doc[key] for key in fields} == fields
    assert hashlib.sha256(got["out"].encode()).hexdigest() == sha256
    assert got["maxrss_kib"] < ceiling_mib * 1024


# the bounds JSON of the record job and of the GF(3) fan1 code with G = 0,
# (4, 1, 4), whose relative distance 1 lies past the Plotkin point 2/3
BOUNDS_JSON = {
    "record": (FAN7_JOB, {
        "n": 49, "k": 11, "d": 28, "bounds": None, "singleton_defect": 11, "segment_upper": 46,
        "gv_rate": 0.13685635045380107, "beats_gv": True,
        "conjecture1": {"applicable": True, "N": 2, "all_N": [2], "d_lower": "47/3"},
        "conjecture2": {"smooth": False, "strictly_convex": False, "degree_ok": True, "applicable": False,
                        "predicted_k": None, "d_lower": None, "deg_G2": "50/3"},
    }),
    "gf3-g0": ({"field": {"p": 3}, "fan": {"rays": [[2, -1], [-1, 2], [-1, -1]]}, "divisor": [0, 0, 0]}, {
        "n": 4, "k": 1, "d": 4, "bounds": None, "singleton_defect": 0, "segment_upper": 4,
        "gv_rate": 0.0, "beats_gv": True,
        "conjecture1": {"applicable": False, "N": None, "all_N": [], "d_lower": None},
        "conjecture2": {"smooth": False, "strictly_convex": False, "degree_ok": True, "applicable": False,
                        "predicted_k": None, "d_lower": None, "deg_G2": "0"},
    }),
}


@pytest.mark.parametrize("no_mindist", [False, True])
@pytest.mark.parametrize("name", list(BOUNDS_JSON))
def test_bounds_prints_the_pinned_json(tmp_path, capsys, name, no_mindist):
    """Byte for byte; without the distance search, d and what is computed
    from it are null."""
    job, doc = BOUNDS_JSON[name]
    spec = str(tmp_path / "job.json")
    Path(spec).write_text(json.dumps(job))
    if no_mindist:
        doc = dict(doc, d=None, singleton_defect=None, gv_rate=None, beats_gv=None)
    assert main(["bounds", "--spec", spec] + ["--no-mindist"] * no_mindist) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize("no_mindist", [False, True])
def test_bounds_lists_p_g_once(tmp_path, capsys, monkeypatch, no_mindist):
    """The segment bound reads the lattice points that the build listed."""
    from toric_codes.geometry import LatticePolytope

    calls = []
    listing = LatticePolytope.lattice_points

    def counted(self):
        calls.append(self)
        return listing(self)

    monkeypatch.setattr(LatticePolytope, "lattice_points", counted)
    spec = write_job(tmp_path, **FAN7_JOB)
    assert main(["bounds", "--spec", spec] + ["--no-mindist"] * no_mindist) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["segment_upper"] == 46


# exponents past int64: fan3 with P_G = {(a, 0)}, and fan1 with P_G =
# {(2^62, -2^61)}, whose order along D_1 is 2^63 + 2^61
FAN1_RAYS = [[2, -1], [-1, 2], [-1, -1]]
FAN3_RAYS = [[1, 0], [0, 1], [-1, 0], [0, -1]]
ORBIT_DIVISOR = [-(2**63 + 2**61), 2**63, 2**61]
OVERFLOW_JOBS = {
    "a=2^63": {"field": {"p": 2, "m": 3}, "fan": {"rays": FAN3_RAYS},
               "divisor": [-(2**63), 0, 2**63, 0]},
    "orbit": {"field": {"p": 2, "m": 3}, "fan": {"rays": FAN1_RAYS},
              "divisor": ORBIT_DIVISOR, "points": {"orbits": [1]}},
}


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "toric_codes", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)


def test_build_at_an_exponent_past_2_61_prints_the_exact_generator(tmp_path):
    """a = 2^61 + 3: each torus point (g^i, g^j) reads g^(a i mod 7), from
    Python integers."""
    a = 2**61 + 3
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({"field": {"p": 2, "m": 3}, "fan": {"rays": FAN3_RAYS},
                                "divisor": [-a, 0, a, 0]}))
    run = run_cli(["build", "--spec", str(spec)])
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    gf = toric_codes.GF(2, 3)
    assert doc["basis"] == [[a, 0]]
    assert doc["generator"] == [[int(gf.exp[a * i % 7]) for i in range(7) for _ in range(7)]]


@pytest.mark.parametrize("command", ["build", "mindist", "bounds", "decode"])
@pytest.mark.parametrize("name", list(OVERFLOW_JOBS))
def test_orders_past_int64_exit_3(tmp_path, name, command):
    """The gate refuses the polytope before it is listed; ``decode`` takes
    it as G' of a code that builds, on the same points."""
    job = dict(OVERFLOW_JOBS[name])
    n = 49
    if command == "decode":
        job["decoder"] = {"gprime": job["divisor"]}
        job["divisor"] = [0, 0, 3, 3] if name == "a=2^63" else [0, 0, 10]
        n += 7 * ("points" in job)
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(job))
    received = tmp_path / "r.txt"
    received.write_text(" ".join(["0"] * n))
    run = run_cli([command, "--spec", str(spec)] + ["--received", str(received)] * (command == "decode"))
    assert run.returncode == 3 and "Traceback" not in run.stderr
    assert run.stderr.startswith("computation error: exponent coordinates up to ")
    assert run.stderr.rstrip().endswith("would not fit in 64 bits (|a| |v| must stay below 2^62)")
