"""Tracing for the per-layer run: spans plus the standard-library profiler.

Spans are recorded in the benchmark's own code around each call it makes
into a public function of the program; the profiler (cProfile) supplies
per-module self time and per-function call counts and cumulative times for
the calls the program makes internally.  With tracing off every hook is a
plain call, so the timed runs carry no tracing cost.
"""

from __future__ import annotations

import cProfile
import os
from contextlib import contextmanager
from time import perf_counter_ns

MODULES = ("moduli", "cordaug", "correspondence", "sheafmodel", "linalg", "field", "braid")


class Tracer:
    """Spans kept in memory; the profiler runs only inside operations."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = 0
        self.profile = cProfile.Profile() if enabled else None

    def call(self, name: str, fn, *args):
        """fn(*args), as a span named after the program function when tracing."""
        if not self.enabled:
            return fn(*args)
        with self._span(name):
            return fn(*args)

    @contextmanager
    def op(self, name: str):
        """One operation of the workload: a root span, profiled."""
        if not self.enabled:
            yield
            return
        self._op += 1
        self.profile.enable()
        try:
            with self._span(name):
                yield
        finally:
            self.profile.disable()

    @contextmanager
    def _span(self, name: str):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "op": self._op, "name": name, "start_ns": perf_counter_ns(), "end_ns": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            self._stack.pop()
            span["end_ns"] = perf_counter_ns()

    def span_seconds(self) -> dict[str, float]:
        """Total duration per span name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end_ns"] - s["start_ns"]) / 1e9
        return out

    def span_self_seconds(self) -> dict[str, float]:
        """Per span name, duration minus the part its child spans cover."""
        out = self.span_seconds()
        for s in self.spans:
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                out[parent] -= (s["end_ns"] - s["start_ns"]) / 1e9
        return out


def _key(code) -> tuple:
    code = getattr(getattr(code, "__func__", code), "__code__", code)
    return code.co_filename, code.co_firstlineno, code.co_name


def _profile_by_function(profile: cProfile.Profile) -> dict[tuple, tuple]:
    """(calls, self seconds, cumulative seconds) per function.

    Summed over code objects: a workload that imports the package afresh
    each round runs several code objects for one function, which pstats
    would keep only one of.
    """
    out: dict[tuple, tuple] = {}
    for entry in profile.getstats():
        if isinstance(entry.code, str):  # a built-in function
            continue
        calls, tottime, cumtime = out.get(_key(entry.code), (0, 0.0, 0.0))
        out[_key(entry.code)] = (calls + entry.callcount, tottime + entry.inlinetime,
                                 cumtime + entry.totaltime)
    return out


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return {"accept_ratio": "ratio", "per_candidate": "calls/candidate",
            "s": "s", "self_s": "s"}.get(last, "count")


def per_layer(cs, tracer: Tracer, rounds: int, per_candidate: int, kept: int) -> dict:
    """Per-layer metrics of one traced run, per round of the workload.

    ``per_candidate`` is the denominator of the per-candidate ratios (the
    candidates the workload verifies, or its `sheaf` requests); ``kept`` is
    the number of candidates the enumerator kept, for the accept ratio.
    """
    stats = _profile_by_function(tracer.profile)
    src = os.path.dirname(os.path.abspath(cs.__file__))
    spans = tracer.span_seconds()

    def calls(fn) -> int:
        return stats.get(_key(fn), (0, 0.0, 0.0))[0]

    def seconds(name: str, fn) -> float:
        # span time where the benchmark makes the call, else the profiler's
        # cumulative time for the calls the program makes internally
        return spans[name] if name in spans else stats.get(_key(fn), (0, 0.0, 0.0))[2]

    m, ca, co, sm = cs.moduli, cs.cordaug, cs.correspondence, cs.sheafmodel
    Scalar, Matrix = cs.field.Scalar, cs.linalg.Matrix
    out: dict[str, float] = {}
    for name, fn in [
        ("moduli.enumerate_augs", m.enumerate_augs),
        ("moduli.quotient_by_dilation", m.quotient_by_dilation),
        ("moduli.verify_bijection", m.verify_bijection),
        ("cordaug.passes_fast", ca.passes_fast),
        ("cordaug.canonical_form", ca.canonical_form),
        ("correspondence.aug_to_sheaf", co.aug_to_sheaf),
        ("correspondence.sheaf_to_aug", co.sheaf_to_aug),
        ("correspondence.choose_trivialization", co.choose_trivialization),
        ("correspondence.roundtrip_aug", co.roundtrip_aug),
        ("correspondence.roundtrip_sheaf", co.roundtrip_sheaf),
        ("sheafmodel.validate", sm.validate),
        ("sheafmodel.SheafData.from_json", sm.SheafData.from_json),
    ]:
        out[f"{name}.s"] = seconds(name, fn) / rounds

    passes = calls(ca.passes_fast)
    out["moduli.enumerate_augs.accept_ratio"] = kept / passes if passes else 0.0
    out["cordaug.passes_fast.calls"] = passes / rounds
    out["cordaug.apply_loop.calls"] = calls(ca.apply_loop) / rounds
    out["cordaug.check_relations.per_candidate"] = (
        calls(ca.check_relations) / per_candidate if per_candidate else 0.0)
    out["correspondence.aug_to_sheaf.per_candidate"] = (
        calls(co.aug_to_sheaf) / per_candidate if per_candidate else 0.0)
    out["sheafmodel.validate.calls"] = calls(sm.validate) / rounds
    out["sheafmodel.transport.calls"] = calls(sm.SheafData.transport) / rounds
    out["linalg.Matrix.allocs"] = calls(Matrix.__init__) / rounds
    out["linalg.rref.calls"] = calls(Matrix.rref) / rounds
    ops = (Scalar.__add__, Scalar.__sub__, Scalar.__mul__, Scalar.__neg__,
           Scalar.__truediv__, Scalar.inv, Scalar.__pow__)
    out["field.scalar_ops"] = sum(calls(f) for f in ops) / rounds
    out["field.scalar_allocs"] = calls(Scalar.__init__) / rounds
    out["braid.geometry.misses"] = cs.braid.geometry.cache_info().misses

    self_s = dict.fromkeys(MODULES, 0.0)
    for (filename, _, _), (_, tottime, _) in stats.items():
        if os.path.dirname(filename) == src:
            module = os.path.splitext(os.path.basename(filename))[0]
            if module in self_s:
                self_s[module] += tottime
    for module, total in self_s.items():
        out[f"{module}.self_s"] = total / rounds
    return {k: {"value": v, "unit": _unit(k)} for k, v in out.items()}
