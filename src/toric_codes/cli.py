"""Command-line surface: build codes from declarative JSON job files,
compute distances and bounds, decode received words, and reproduce the
golden parameter tables.

Exit codes: 0 success, 2 input validation, 3 computation error, 4 golden
mismatch, 141 standard output closed by its reader before the output was
written (128 + SIGPIPE, the status a shell reports for a program that
SIGPIPE ends, as ``toric-codes build ... | head`` can do).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bounds import bound_report
from .codes import (
    METHODS,
    CodeError,
    LinearCode,
    WorkCapExceeded,
    _rm_predicted_inputs,
    min_distance,
    reed_muller,
    rm_predicted_params,
)
from .decoder import SetupError, decode as decoder_decode, setup as decoder_setup
from .field import GF, FieldError, _integers, _positive, _sequence, _shown
from .geometry import Fan2D, FanError, OrbitPoint, PoleError, TDivisor
from .reproduce import format_results, reproduce_table
from .tables import GOLDEN_TABLES
from .toric import ToricCodeSpec, build as toric_build, default_points


class ValidationError(ValueError):
    pass


EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3
EXIT_MISMATCH = 4
EXIT_CLOSED_OUTPUT = 141


# -- job files ------------------------------------------------------------------


def _require_keys(obj: dict, allowed: dict[str, bool], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{where}: unknown key {key!r}")
    for key, required in allowed.items():
        if required and key not in obj:
            raise ValidationError(f"{where}: missing required key {key!r}")


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not text
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def _checked(key: str, make, *values):
    """``make(*values)``, its refusal of a value raised as ValidationError
    that names the job key: the constructors check their own inputs, by the
    package's one integer rule (``field._is_integer``)."""
    try:
        return make(*values)
    except (FieldError, FanError) as exc:
        raise ValidationError(f"{key}: {exc}") from exc


def load_job(path: str) -> dict:
    job = _read_json(path, "job file")
    _require_keys(
        job,
        {"field": True, "fan": True, "divisor": True, "points": False,
         "mindist": False, "decoder": False},
        "job",
    )
    _require_keys(job["field"], {"p": True, "m": False, "modulus": False}, "field")
    _require_keys(job["fan"], {"rays": True}, "fan")
    if "points" in job:
        _require_keys(
            job["points"], {"torus": False, "orbits": False, "orbit_points": False}, "points"
        )
    if "mindist" in job:
        _require_keys(job["mindist"], {"method": False, "work_cap": False}, "mindist")
    if "decoder" in job:
        _require_keys(job["decoder"], {"gprime": True, "list_cap": False}, "decoder")
    return job


def job_to_spec(job: dict) -> ToricCodeSpec:
    fld, pts_cfg = job["field"], job.get("points", {})
    gf = _checked("field", GF, fld["p"], fld.get("m", 1), fld.get("modulus"))
    fan = _checked("fan.rays", Fan2D, job["fan"]["rays"])
    div = _checked("divisor", TDivisor, job["divisor"])
    torus = pts_cfg.get("torus", True)
    if not isinstance(torus, bool):
        raise ValidationError(f"points.torus must be true or false, got {_shown(torus)}")
    # ray numbers are 1-based in files
    orbits = [i - 1 for i in _integers(pts_cfg.get("orbits", []), "points.orbits", ValidationError)]
    singles = [
        _integers(pt, "points.orbit_points", ValidationError, 2)
        for pt in _sequence(pts_cfg.get("orbit_points", []), "points.orbit_points",
                            ValidationError, "a list of [ray, s] pairs")
    ]
    if len(div) != fan.s:
        raise ValidationError(f"divisor has {len(div)} coefficients for a {fan.s}-ray fan")
    for t, i in enumerate(orbits):
        if not 0 <= i < fan.s:
            raise ValidationError(f"orbit ray index {i + 1} out of range 1..{fan.s}")
        if i in orbits[:t]:
            raise ValidationError(f"points.orbits repeats ray {i + 1}")
    # single orbit points [ray, s] follow the whole orbits, in file order
    for t, (ray, u) in enumerate(singles):
        if not 1 <= ray <= fan.s:
            raise ValidationError(f"orbit point ray {ray} out of range 1..{fan.s}")
        if not 1 <= u < gf.q:
            raise ValidationError(
                f"orbit point s = {u} is not a nonzero element index 1..{gf.q - 1}"
            )
        if ray - 1 in orbits:
            raise ValidationError(f"orbit point [{ray}, {u}] lies on the whole orbit of ray {ray}")
        if (ray, u) in singles[:t]:
            raise ValidationError(f"points.orbit_points repeats [{ray}, {u}]")
    points = default_points(gf, fan, torus=torus, orbits=orbits) + [
        OrbitPoint(ray - 1, u) for ray, u in singles
    ]
    if not len(points):
        raise ValidationError("empty point set")
    return ToricCodeSpec(gf, fan, div, points)


# -- build output serialization ----------------------------------------------------


def serialize_build(result) -> str:
    spec = result.spec
    doc = {
        "field": {
            "p": spec.gf.p,
            "m": spec.gf.m,
            "q": spec.gf.q,
            "modulus": list(spec.gf.modulus),
        },
        "fan": {"rays": [list(v) for v in spec.fan.rays]},
        "divisor": list(spec.divisor.coeffs),
        "n": result.n,
        "k": result.k,
        "kc": result.kc,
        "injective": result.injective,
        "basis": [list(a) for a in spec.basis],
        "generator": [[int(x) for x in row] for row in result.eval_matrix],
        "warnings": list(result.warnings),
    }
    return json.dumps(doc, indent=1)


def load_build(path: str) -> tuple[GF, LinearCode, dict]:
    doc = _read_json(path, "build file")
    try:
        fld = doc["field"]
        field, gen = (fld["p"], fld["m"], fld["modulus"]), np.array(doc["generator"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed build file: {exc!r}") from exc
    gf = _checked("field", GF, *field)
    return gf, LinearCode(gf, gen), doc


# -- subcommands ---------------------------------------------------------------------


def cmd_build(args) -> int:
    job = load_job(args.spec)
    result = toric_build(job_to_spec(job))
    text = serialize_build(result)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValidationError(f"cannot write output: {exc}") from exc
    else:
        print(text)
    return 0


def _mindist_report(code: LinearCode, job: dict, args):
    cfg = job.get("mindist", {})
    method = args.method or cfg.get("method", "auto")
    budget = cfg.get("work_cap") if args.work_cap is None else args.work_cap
    if method not in METHODS:
        raise ValidationError(
            f"mindist: method must be one of {', '.join(METHODS)}, got {_shown(method)}"
        )
    if budget is not None:
        budget = _positive(budget, "mindist: work budget", ValidationError)
    return min_distance(code, method=method, work_budget=budget)


def cmd_mindist(args) -> int:
    if args.code:
        _, code, _ = load_build(args.code)
        job = {}
    else:
        job = load_job(args.spec)
        code = toric_build(job_to_spec(job)).code
    if code.k == 0:
        raise CodeError("empty code")
    rep = _mindist_report(code, job, args)
    doc = {
        "n": code.n,
        "k": code.k,
        "d": rep.d if rep.exact else None,
        "bounds": None if rep.exact else [rep.lower, rep.upper],
        "method": rep.method,
        "work": rep.work,
        "witness": None if rep.witness is None else [int(x) for x in rep.witness],
    }
    print(json.dumps(doc, indent=1))
    return 0


def cmd_bounds(args) -> int:
    job = load_job(args.spec)
    result = toric_build(job_to_spec(job))
    d = interval = None
    if not args.no_mindist:
        dist = _mindist_report(result.code, job, args)
        # an inexact search proves only an interval; nothing is computed from it
        d, interval = (dist.d, None) if dist.exact else (None, [dist.lower, dist.upper])
    rep = bound_report(result, d)
    doc = {
        "n": rep.n,
        "k": rep.k,
        "d": rep.d,
        "bounds": interval,
        "singleton_defect": rep.singleton_defect,
        "segment_upper": rep.segment_upper,
        "gv_rate": rep.gv_rate,
        "beats_gv": rep.beats_gv,
        "conjecture1": {
            "applicable": rep.conj1.applicable,
            "N": rep.conj1.N,
            "all_N": list(rep.conj1.all_N),
            "d_lower": str(rep.conj1.d_lower) if rep.conj1.d_lower is not None else None,
        },
        "conjecture2": {
            "smooth": rep.conj2.smooth,
            "strictly_convex": rep.conj2.strictly_convex,
            "degree_ok": rep.conj2.degree_ok,
            "applicable": rep.conj2.applicable,
            "predicted_k": rep.conj2.predicted_k,
            "d_lower": rep.conj2.d_lower,
            "deg_G2": str(rep.conj2.deg_G2),
        },
    }
    print(json.dumps(doc, indent=1))
    return 0


def cmd_decode(args) -> int:
    job = load_job(args.spec)
    if "decoder" not in job:
        raise ValidationError("job file has no decoder block")
    spec = job_to_spec(job)
    gprime = _checked("decoder.gprime", TDivisor, job["decoder"]["gprime"])
    if len(gprime) != spec.fan.s:
        raise ValidationError("decoder.gprime length does not match the fan")
    list_cap = _positive(job["decoder"].get("list_cap", 256), "decoder.list_cap", ValidationError)
    st = decoder_setup(spec, gprime)
    try:
        with open(args.received) as fh:
            tokens = fh.read().split()
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read received vector: {exc}") from exc
    if len(tokens) != st.n:
        raise ValidationError(f"received vector has {len(tokens)} symbols, n = {st.n}")
    q = spec.gf.q
    # ASCII decimal digits only: int() would also take "+3", "1_0" and
    # non-ASCII digits
    bad = [tok for tok in tokens if not (tok.isascii() and tok.isdigit() and int(tok) < q)]
    if bad:
        raise ValidationError(f"received symbol {bad[0]} is not an element index of GF({q})")
    received = np.array([int(tok) for tok in tokens], dtype=np.int16)
    out = decoder_decode(received, st, list_cap=list_cap)
    doc = {
        "status": out.status,
        "zero_set": [i + 1 for i in out.zero_set],  # 1-based positions
        "within_zero_cap": out.within_zero_cap,
        "zero_cap": st.zero_cap,
        "condition_c": st.condition_c,
        "diagnostics": out.diagnostics,
    }
    if out.status == "unique":
        doc["error"] = [int(x) for x in out.errors_found]
        doc["codeword"] = [int(x) for x in st.spec.gf.vsub(received, out.errors_found)]
    elif out.status == "list":
        doc["errors"] = [[int(x) for x in e] for e in out.errors_found]
    print(json.dumps(doc, indent=1))
    return 0


def cmd_reproduce(args) -> int:
    budget = args.work_cap
    if budget is not None:
        budget = _positive(budget, "reproduce: work budget", ValidationError)
    results = reproduce_table(args.table, work_budget=budget)
    print(format_results(results, args.format))
    bad = [r for r in results if not r.ok]
    if bad:
        print(f"\n{len(bad)} row(s) FAILED the golden diff", file=sys.stderr)
        return EXIT_MISMATCH
    return 0


def cmd_rm(args) -> int:
    gf = GF(args.p, args.m_ext)
    q, m, ell = _rm_predicted_inputs(gf.q, args.m, args.ell, ValidationError)
    # over the q^m size cap: CodeError, exit 3, before the closed-form sum,
    # whose cost grows with ell^2 / q
    code = reed_muller(gf, m, ell)
    n, k, d = rm_predicted_params(q, m, ell)
    doc = {
        "q": gf.q,
        "m": args.m,
        "ell": args.ell,
        "n": code.n,
        "k": code.k,
        "predicted": {"n": n, "k": k, "d": d},
    }
    if args.mindist:
        doc["d"] = min_distance(code).d
    print(json.dumps(doc, indent=1))
    return 0


# -- entry point -----------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toric-codes",
        description="evaluation codes from 2-D fans over small finite fields",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a code from a JSON job file")
    b.add_argument("--spec", required=True)
    b.add_argument("--output", help="write the serialized code here instead of stdout")
    b.set_defaults(fn=cmd_build)

    m = sub.add_parser("mindist", help="exact minimum distance")
    src = m.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec")
    src.add_argument("--code", help="a build output file")
    m.add_argument("--method", choices=METHODS)
    m.add_argument("--work-cap", type=int)
    m.set_defaults(fn=cmd_mindist)

    bo = sub.add_parser("bounds", help="bound report for a job file")
    bo.add_argument("--spec", required=True)
    bo.add_argument("--no-mindist", action="store_true")
    bo.add_argument("--method", choices=METHODS)
    bo.add_argument("--work-cap", type=int)
    bo.set_defaults(fn=cmd_bounds)

    de = sub.add_parser("decode", help="decode a received word")
    de.add_argument("--spec", required=True)
    de.add_argument("--received", required=True, help="whitespace-separated element indices")
    de.set_defaults(fn=cmd_decode)

    re_ = sub.add_parser("reproduce", help="recompute a golden table and diff it")
    re_.add_argument("table", choices=list(GOLDEN_TABLES))
    re_.add_argument("--format", choices=["csv", "markdown", "json"], default="markdown")
    re_.add_argument("--work-cap", type=int)
    re_.set_defaults(fn=cmd_reproduce)

    rm = sub.add_parser("rm", help="Reed-Muller baseline code")
    rm.add_argument("--p", type=int, required=True, help="field characteristic")
    rm.add_argument("--m-ext", type=int, default=1, help="field extension degree")
    rm.add_argument("-m", "--m", dest="m", type=int, required=True, help="variables")
    rm.add_argument("-l", "--ell", dest="ell", type=int, required=True)
    rm.add_argument("--mindist", action="store_true")
    rm.set_defaults(fn=cmd_rm)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # the output is cut short, not wrong: no traceback, and standard
        # output goes to devnull so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_OUTPUT
    except (ValidationError, FieldError, FanError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PoleError, CodeError, SetupError, WorkCapExceeded) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
