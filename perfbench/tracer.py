"""Spans and counts at yqchar's layer boundaries, from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
``yqchar`` namespace that holds it (``fm_expand`` is imported by name into
``identities`` and ``cli``, ``avector_to_y`` into ``characters``), and
counts the constructions of the coordinate and monomial classes without
timing them.  Nothing under ``src/`` changes.

A span is (name, job, parent span, start, end), kept in flat arrays in
memory and written out by ``write_spans`` at the end of the run.  A span's
self time is its duration minus the durations of its child spans (one
thread, so children never overlap).
"""
from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from functools import update_wrapper
from time import perf_counter

__all__ = ["Tracer", "PER_LAYER", "EXACT"]

# Functions that get a span, by module.  These are the public entry points
# of each layer that the per-layer metrics below name, plus the remaining
# verifiers so that identity time is attributed to one of them.
TRACED = {
    "cli": ("dispatch",),
    "textio": ("format_monomial",),
    "identities": ("verify_tq", "verify_tsystem", "verify_two_term", "tq_rhs",
                   "tq_lhs_direct", "tq_lhs_division", "check_kr_skeleton",
                   "check_demazure_support", "check_m_support"),
    "characters": ("fm_expand", "char_mul", "divide_series", "stabilize",
                   "demazure_char_via_ses", "asymptotic_char", "prefundamental_char"),
    "monomials": ("avector_to_y", "y_to_psi", "psi_to_y", "avector_to_psi"),
    "cartan": ("build_cartan",),
    "sl2_explicit": ("build_module", "check_relations", "extract_qchar",
                     "verify_sl2_three_term"),
}
# Classes whose constructions are counted, not timed.
COUNTED = {"coords": ("Coord",), "monomials": ("AVector", "YMonomial", "PsiMonomial")}

# The per-layer metrics reported by a traced run, with their units.
PER_LAYER = {
    "cli.dispatch.self_s": "s",
    "cli.output_bytes": "B",
    "textio.format_monomial.calls": "count",
    "textio.format_monomial.total_s": "s",
    "identities.verify_tq.total_s": "s",
    "identities.verify_tsystem.total_s": "s",
    "identities.verify_two_term.total_s": "s",
    "identities.tq_rhs.self_s": "s",
    "identities.tq_lhs_division.self_s": "s",
    "identities.tq_regime_case.fails": "count",
    "characters.fm_expand.calls": "count",
    "characters.fm_expand.total_s": "s",
    "characters.fm_expand.self_s": "s",
    "characters.fm_expand.terms_out": "count",
    "characters.fm_expand.repeat_ratio": "ratio",
    "characters.char_mul.calls": "count",
    "characters.char_mul.self_s": "s",
    "characters.char_mul.terms_out": "count",
    "characters.divide_series.self_s": "s",
    "characters.stabilize.calls": "count",
    "characters.stabilize.self_s": "s",
    "characters.demazure_char_via_ses.self_s": "s",
    "monomials.avector_to_y.calls": "count",
    "monomials.avector_to_y.self_s": "s",
    "monomials.y_to_psi.self_s": "s",
    "monomials.psi_to_y.self_s": "s",
    "monomials.avector_to_psi.self_s": "s",
    "monomials.AVector.constructed": "count",
    "monomials.YMonomial.constructed": "count",
    "monomials.PsiMonomial.constructed": "count",
    "coords.Coord.constructed": "count",
    "cartan.build_cartan.total_s": "s",
    "sl2_explicit.build_module.self_s": "s",
    "sl2_explicit.build_module.dim_sum": "count",
    "sl2_explicit.check_relations.calls": "count",
    "sl2_explicit.check_relations.self_s": "s",
    "sl2_explicit.check_relations.instances": "count",
    "sl2_explicit.extract_qchar.self_s": "s",
    "trace.untraced_busy_s": "s",
    "trace.traced_busy_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Metrics that depend only on the job list, so two traced runs of one seed
# must give them exactly.
EXACT = tuple(n for n, u in PER_LAYER.items() if u in ("count", "B")) \
    + ("characters.fm_expand.repeat_ratio",)


class Tracer:
    """Records spans and counts for one single-threaded traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")    # 1 unless nested in a span of the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = -1
        self.output_bytes = 0
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.constructed: dict[str, list[int]] = {}
        self.terms_out: dict[str, int] = {"characters.fm_expand": 0, "characters.char_mul": 0}
        self.dim_sum = 0
        self.instances = 0
        self.fm_seen: set = set()
        self.fm_repeats = 0

    # -- installation --------------------------------------------------------
    def install(self):
        mods = [importlib.import_module(name) for name in
                ("yqchar", *(f"yqchar.{m}" for m in TRACED))]
        for mod_name, funcs in TRACED.items():
            mod = importlib.import_module(f"yqchar.{mod_name}")
            for fname in funcs:
                original = getattr(mod, fname)
                wrapped = self._wrap(f"{mod_name}.{fname}", original)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, key, wrapped)
        for mod_name, classes in COUNTED.items():
            mod = importlib.import_module(f"yqchar.{mod_name}")
            for cname in classes:
                self._count_constructions(f"{mod_name}.{cname}", getattr(mod, cname))

    def _count_constructions(self, name, cls):
        cell = self.constructed.setdefault(name, [0])
        init = cls.__init__

        def __init__(obj, *args, **kwargs):
            cell[0] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = __init__

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        on_result = self._result_hooks(name, fn)
        stack, depth = self._stack, self._depth
        names, jobs, parents, outer = self.span_name, self.span_job, self.span_parent, \
            self.span_outer
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            jobs.append(self.job)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[nid] -= 1
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return update_wrapper(wrapper, fn)

    def _result_hooks(self, name, fn):
        """Counts taken from a call's arguments or result, outside its span."""
        if name in self.terms_out:
            def terms(args, kwargs, result):
                self.terms_out[name] += len(result.terms)
            if name != "characters.fm_expand":
                return terms
            params = list(inspect.signature(fn).parameters.values())

            def fm(args, kwargs, result):
                terms(args, kwargs, result)
                key = tuple(args) + tuple(kwargs.get(p.name, p.default)
                                          for p in params[len(args):])
                if key in self.fm_seen:
                    self.fm_repeats += 1
                else:
                    self.fm_seen.add(key)
            return fm
        if name == "sl2_explicit.build_module":
            def dims(args, kwargs, result):
                self.dim_sum += result.dim
            return dims
        if name == "sl2_explicit.check_relations":
            def checked(args, kwargs, result):
                self.instances += result.checked
            return checked
        return None

    # -- aggregation ---------------------------------------------------------
    def aggregate(self) -> dict:
        """Per-name calls, total_s (outermost spans) and self_s, plus counts."""
        n = len(self.names)
        calls, total, self_s = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(self.span_name)
        for idx in range(len(self.span_name) - 1, -1, -1):
            dur = self.span_end[idx] - self.span_start[idx]
            nid = self.span_name[idx]
            calls[nid] += 1
            if self.span_outer[idx]:
                total[nid] += dur
            self_s[nid] += dur - child[idx]
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] += dur
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.total_s"] = total[nid]
            out[f"{name}.self_s"] = self_s[nid]
        for name, cell in self.constructed.items():
            out[f"{name}.constructed"] = cell[0]
        for name, count in self.terms_out.items():
            out[f"{name}.terms_out"] = count
        fm_calls = calls[self.names.index("characters.fm_expand")]
        out["characters.fm_expand.repeat_ratio"] = self.fm_repeats / fm_calls if fm_calls else 0.0
        out["sl2_explicit.build_module.dim_sum"] = self.dim_sum
        out["sl2_explicit.check_relations.instances"] = self.instances
        out["cli.output_bytes"] = self.output_bytes
        return out

    def write_spans(self, path) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tjob\tparent\tname\tstart_s\tend_s\n")
            for idx in range(len(self.span_name)):
                fh.write(f"{idx}\t{self.span_job[idx]}\t{self.span_parent[idx]}\t"
                         f"{self.names[self.span_name[idx]]}\t"
                         f"{self.span_start[idx]:.9f}\t{self.span_end[idx]:.9f}\n")
        return len(self.span_name)
