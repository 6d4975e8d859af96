"""In-process tracer for one benchmark job.

``install`` wraps the functions and methods of the ``radsob`` layers so that
each call becomes a span: name, start, end, parent span and job id.  The
layers are the modules ``cli``, ``norms``, ``opspace``, ``derivcalc``,
``indexpoly``, ``profile`` and ``quad``; a span's name starts with its
layer.

Functions are wrapped at every binding site: the defining module, each
module that imported the name, and the package namespace.  A function is
wrapped when it is public or when another module imported it, so every call
that crosses a layer boundary opens a span.  Selected methods are wrapped on
their classes (see ``METHODS``).

Every span is aggregated into per-name calls, total time and self time
(duration minus the time covered by child spans).  Individual span records
are kept only down to ``SPAN_DEPTH`` levels below the job's root span and
only for the first ``SPAN_LIMIT`` such spans (the rest are counted as
dropped), so memory stays bounded on jobs with millions of inner calls.  Counts of work
done (evaluation points, quadrature panels, output terms) and
``lru_cache.cache_info()`` deltas are recorded alongside.  Everything stays
in memory until ``Tracer.summary`` is called at the end of the job.
"""

from __future__ import annotations

import functools
import importlib
import types
from time import perf_counter

LAYERS = ("cli", "norms", "opspace", "derivcalc", "indexpoly", "profile", "quad")
SPAN_DEPTH = 3
SPAN_LIMIT = 20_000

# (layer, class, method, span name); methods sharing a span name are one operation.
METHODS = (
    ("profile", "_TermSum", "__mul__", "profile.mul"),
    ("profile", "_TermSum", "__rmul__", "profile.mul"),
    ("profile", "_TermSum", "__add__", "profile.add"),
    ("profile", "Profile", "eval", "profile.eval"),
    ("profile", "SquaredProfile", "eval", "profile.eval"),
    ("profile", "Profile", "derivative", "profile.derivative"),
    ("profile", "SquaredProfile", "derivative", "profile.derivative"),
    ("indexpoly", "MonomialPoly", "__mul__", "indexpoly.poly_mul"),
    ("indexpoly", "MonomialPoly", "__rmul__", "indexpoly.poly_mul"),
    ("indexpoly", "MonomialPoly", "laplacian", "indexpoly.laplacian"),
    ("indexpoly", "MonomialPoly", "eval", "indexpoly.eval"),
    ("indexpoly", "MonomialPoly", "eval_many", "indexpoly.eval_many"),
    ("derivcalc", "GramMatrix", "leading_minors", "derivcalc.leading_minors"),
    ("norms", "NormReport", "to_json", "norms.to_json"),
)

# span name -> cached function whose cache_info() delta is recorded
CACHES = {
    "profile.d_op": ("profile", "d_op"),
    "derivcalc.forward_terms": ("derivcalc", "forward_terms"),
    "quad.sphere_monomial_moment": ("quad", "sphere_monomial_moment"),
    "norms.sign_changes": ("norms", "_sign_changes"),
}


def _count_eval_points(tracer, args, kwargs, out):
    rho = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    tracer.count("profile.eval.points", getattr(rho, "size", 1))


def _count_terms_out(tracer, args, kwargs, out):
    terms = getattr(out, "terms", None)
    if terms is not None:
        tracer.count("profile.mul.terms_out", len(terms))


def _count_panels(tracer, args, kwargs, out):
    tracer.count("quad.integrate_1d.panels", out.subdivisions)
    tracer.count("quad.integrate_1d.unconverged", int(not out.converged))


COUNTED = (
    "profile.eval.points",
    "profile.mul.terms_out",
    "quad.integrate_1d.panels",
    "quad.integrate_1d.unconverged",
)

AFTER = {
    "profile.eval": _count_eval_points,
    "profile.mul": _count_terms_out,
    "quad.integrate_1d": _count_panels,
}


class Tracer:
    """Spans, counts and cache deltas of one job, kept in memory."""

    def __init__(self, job: str):
        self.job = job
        self.stack: list[list] = []  # open spans: [span id, child seconds]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.spans_dropped = 0
        self._next_id = 0
        self._caches: dict[str, tuple] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        after = AFTER.get(name)
        stack = self.stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(stack) < SPAN_DEPTH:
                    if len(spans) < SPAN_LIMIT:
                        spans.append((span_id, parent, name, start, end))
                    else:
                        tracer.spans_dropped += 1
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the layers of the already imported ``radsob`` package."""
        package = importlib.import_module("radsob")
        mods = {layer: importlib.import_module(f"radsob.{layer}") for layer in LAYERS}
        for span, (layer, attr) in CACHES.items():
            fn = getattr(mods[layer], attr)
            self._caches[span] = (fn, fn.cache_info())

        defined: dict[int, tuple[str, str, object]] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                callable_kind = isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))
                if callable_kind and obj.__module__ == mod.__name__:
                    defined[id(obj)] = (layer, attr, obj)
        imported = {
            id(obj)
            for mod in (package, *mods.values())
            for obj in vars(mod).values()
            if id(obj) in defined and defined[id(obj)][2].__module__ != mod.__name__
        }
        wrappers = {
            key: self.wrap(f"{layer}.{attr.lstrip('_')}", obj)
            for key, (layer, attr, obj) in defined.items()
            if not attr.startswith("_") or key in imported
        }
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

        for layer, cls_name, method, span in METHODS:
            cls = getattr(mods[layer], cls_name)
            setattr(cls, method, self.wrap(span, vars(cls)[method]))
        sampler = mods["quad"].SphereSampler
        points = functools.cached_property(
            self.wrap("quad.sphere_sampler.points", vars(sampler)["points"].func)
        )
        points.__set_name__(sampler, "points")
        sampler.points = points

    def summary(self) -> dict:
        """Aggregates of the job so far, as a JSON-ready document."""
        caches = {}
        for span, (fn, before) in self._caches.items():
            now = fn.cache_info()
            caches[span] = [now.hits - before.hits, now.misses - before.misses]
        return {
            "job": self.job,
            "stats": self.stats,
            "counts": self.counts,
            "caches": caches,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
