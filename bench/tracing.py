"""Per-layer tracing from outside the package.

A ``Tracer`` replaces the public functions of the five layers (``field``,
``geometry``, ``codes``, ``toric``, ``decoder``) with timing wrappers for
the duration of a ``with`` block, and puts the originals back afterwards.
Modules import names directly (``decoder`` imports ``min_distance`` from
``codes``, ``toric`` imports ``LinearCode``), so every module binding of a
wrapped function is replaced, not only the defining one; methods of ``GF``
and ``LinearCode`` are wrapped on the class, which covers every binding.

Each wrapped call records one span (name, start, end, parent span, op id)
in flat in-memory arrays, written out once by ``save``.  Calls, inclusive
seconds and self seconds (inclusive minus the time covered by child spans)
are aggregated per name as the calls happen, together with exact counts
read from arguments and results (codewords enumerated, pivots, matrix
entries, candidate-set sizes).  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "toric_codes"
LAYERS = ("field", "geometry", "codes", "toric", "decoder")

# spans beyond this many are aggregated but not stored (28 bytes each)
MAX_SPANS = 6_000_000


def _count_vadd(counts, args, kwargs, result):
    counts["field.vadd.elems"] += int(np.size(result))


def _count_rref(counts, args, kwargs, result):
    counts["codes.rref.pivots"] += int(result[1])


def _count_eval(counts, args, kwargs, result):
    counts["geometry.evaluation_matrix.entries"] += int(np.size(result))


def _engine_counter(name):
    def count(counts, args, kwargs, result):
        counts[f"codes.{name}.work"] += int(result.work)
        budget = kwargs.get("work_budget")
        if budget:
            key = "codes.min_distance.budget_overshoot"
            counts[key] = max(counts[key], result.work / budget)

    return count


def _count_zero_set(counts, args, kwargs, result):
    counts["decoder.zero_set.size_total"] += len(result)


def _count_error_values(counts, args, kwargs, result):
    counts["decoder.list_outcomes"] += result.status == "list"


# (module, attribute path, span name, counter); an attribute path with a dot
# is a method wrapped on its class
TARGETS = (
    ("field", "GF.__init__", "field.GF", None),
    ("field", "GF.vadd", "field.vadd", _count_vadd),
    ("field", "GF.vsub", "field.vsub", None),
    ("field", "GF.vneg", "field.vneg", None),
    ("field", "GF.vscale", "field.vscale", None),
    ("field", "GF.vmul", "field.vmul", None),
    ("field", "GF.vsum", "field.vsum", None),
    ("geometry", "polytope_of_divisor", "geometry.polytope_of_divisor", None),
    ("geometry", "lattice_points", "geometry.lattice_points", None),
    ("geometry", "evaluation_matrix", "geometry.evaluation_matrix", _count_eval),
    ("geometry", "torus_evaluation_matrix", "geometry.torus_evaluation_matrix", None),
    ("codes", "rref", "codes.rref", _count_rref),
    ("codes", "null_space", "codes.null_space", None),
    ("codes", "matmul", "codes.matmul", None),
    ("codes", "matvec", "codes.matvec", None),
    ("codes", "solve", "codes.solve", None),
    ("codes", "LinearCode.__init__", "codes.LinearCode", None),
    ("codes", "LinearCode.dual", "codes.LinearCode.dual", None),
    ("codes", "min_distance", "codes.min_distance", None),
    (
        "codes",
        "min_distance_exhaustive",
        "codes.min_distance_exhaustive",
        _engine_counter("min_distance_exhaustive"),
    ),
    (
        "codes",
        "min_distance_infoset",
        "codes.min_distance_infoset",
        _engine_counter("min_distance_infoset"),
    ),
    ("codes", "reed_muller", "codes.reed_muller", None),
    ("toric", "build", "toric.build", None),
    ("toric", "toric_code", "toric.toric_code", None),
    ("toric", "hansen_code", "toric.hansen_code", None),
    ("decoder", "setup", "decoder.setup", None),
    ("decoder", "decode", "decoder.decode", None),
    ("decoder", "bracket_matrix", "decoder.bracket_matrix", None),
    ("decoder", "error_locator", "decoder.error_locator", None),
    ("decoder", "zero_set", "decoder.zero_set", _count_zero_set),
    ("decoder", "error_values", "decoder.error_values", _count_error_values),
)


class Tracer:
    """Context manager that wraps the package's public functions.

    ``op`` is the identifier stamped on every span that starts while it is
    set; the harness sets it to the operation (row, code or word) in hand.
    """

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op_ids = array("i")
        self.spans_dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._restore: list[tuple[object, str, object]] = []

    # -- installing the wrappers -------------------------------------------

    def _wrap(self, fn, span: str, counter):
        tracer = self
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        calls, total_s, self_s, counts = self.calls, self.total_s, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            if idx < MAX_SPANS:
                tracer.start.append(0.0)
                tracer.end.append(0.0)
                tracer.name.append(name_id)
                tracer.parent.append(tracer._stack[-1][0] if tracer._stack else -1)
                tracer.op_ids.append(tracer.op)
            else:
                idx = -1
                tracer.spans_dropped += 1
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                if idx >= 0:
                    tracer.start[idx] = t0
                    tracer.end[idx] = t1
                calls[span] += 1
                total_s[span] += dur
                self_s[span] += dur - frame[1]
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def __enter__(self) -> "Tracer":
        pkg = sys.modules[PACKAGE]
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, span, counter in TARGETS:
            home = getattr(pkg, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, span, counter))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, span, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, orig))
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- reading it back ----------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the aggregates, to subtract the set-up phase later."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def save(self, path, op_labels: list[str]) -> None:
        """Write every stored span once, as flat arrays in one .npz file."""
        n = len(self.start)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            op=np.frombuffer(self.op_ids, dtype=np.int32, count=n),
            op_labels=np.array(op_labels),
            spans_dropped=np.array(self.spans_dropped),
        )


def _per_solve(setup: dict, final: dict, passes: int) -> dict:
    """Aggregates for one set-up plus one timed pass: the set-up phase is
    traced once, the timed phase over ``passes`` identical passes."""
    out = {}
    for key in ("calls", "total_s", "self_s", "counts"):
        s, f = setup[key], final[key]
        out[key] = {}
        for name in set(s) | set(f):
            a = s.get(name, 0)
            out[key][name] = a + (f.get(name, 0) - a) / passes
    # a maximum does not scale with the pass count
    key = "codes.min_distance.budget_overshoot"
    out["counts"][key] = final["counts"].get(key, 0.0)
    return out


def layer_metrics(setup: dict, final: dict, passes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics as (value, unit), per set-up plus one pass."""
    agg = _per_solve(setup, final, passes)
    calls, tot, own, cnt = agg["calls"], agg["total_s"], agg["self_s"], agg["counts"]
    m: dict[str, tuple[float, str]] = {}

    def call_s(span):
        m[f"{span}.calls"] = (calls.get(span, 0), "count")
        m[f"{span}.s"] = (tot.get(span, 0.0), "s")

    def ratio(num, den):
        return num / den if den else 0.0

    call_s("field.vadd")
    elems = cnt.get("field.vadd.elems", 0)
    m["field.vadd.elems"] = (elems, "count")
    m["field.vadd.elems_per_s"] = (ratio(elems, own.get("field.vadd")), "1/s")
    for op in ("vscale", "vmul", "vsum"):
        call_s(f"field.{op}")

    work, engine_s = 0, 0.0
    for engine in ("codes.min_distance_exhaustive", "codes.min_distance_infoset"):
        call_s(engine)
        m[f"{engine}.work"] = (cnt.get(f"{engine}.work", 0), "count")
        work += cnt.get(f"{engine}.work", 0)
        engine_s += tot.get(engine, 0.0)
    m["codes.min_distance.codewords_per_s"] = (ratio(work, engine_s), "1/s")
    key = "codes.min_distance.budget_overshoot"
    m[key] = (cnt.get(key, 0.0), "ratio")

    call_s("codes.rref")
    m["codes.rref.pivots"] = (cnt.get("codes.rref.pivots", 0), "count")
    call_s("codes.null_space")
    call_s("codes.LinearCode")
    m["codes.LinearCode.dual.s"] = (tot.get("codes.LinearCode.dual", 0.0), "s")
    call_s("codes.solve")

    call_s("geometry.evaluation_matrix")
    key = "geometry.evaluation_matrix.entries"
    m[key] = (cnt.get(key, 0), "count")
    call_s("toric.build")

    for stage in ("setup", "bracket_matrix", "error_locator", "zero_set", "error_values"):
        m[f"decoder.{stage}.s"] = (tot.get(f"decoder.{stage}", 0.0), "s")
    size = ratio(cnt.get("decoder.zero_set.size_total", 0), calls.get("decoder.zero_set", 0))
    m["decoder.zero_set.size_mean"] = (size, "count")
    lists = ratio(cnt.get("decoder.list_outcomes", 0), calls.get("decoder.error_values", 0))
    m["decoder.list_frac"] = (lists, "ratio")

    for layer in LAYERS:
        self_s = sum(v for k, v in own.items() if k.split(".", 1)[0] == layer)
        m[f"layer.{layer}.self_s"] = (self_s, "s")
    return m
