"""Trace and extension operators between radial fields and interval profiles.

The trace sends a radial field to its squared-argument profile; the
extension sends an interval profile back to the radial field it generates.
On the closed-form classes the two maps are exact mutual inverses at the
term-list level, and their norm ratios against the matching weighted
interval norms stay in a bounded, refinement-stable interval.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .norms import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    NormReport,
    NormValue,
    _ball_def_detail,
    _check_domain,
    _converged_values,
    _corpus_table,
    _profile_squared_detail,
    _square_overflows,
)
from .profile import CorpusEntry, RadialField, SquaredProfile, from_squared, to_squared


def trace(field: RadialField) -> SquaredProfile:
    """The squared-argument profile of the field: exact, term by term."""
    return to_squared(field.profile)


def extend(ft: SquaredProfile, d: int) -> RadialField:
    """The radial field in R^d generated by an interval profile (even by construction)."""
    return RadialField(d, from_squared(ft))


class _TraceExtPairFields(NamedTuple):
    d: int
    k: int
    p: float
    r: float


class TraceExtPair(_TraceExtPairFields):
    """The trace/extension pair at fixed (d, k, p, r), with norm accessors."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, d: int, k: int, p: float, r: float):
        _check_domain(d, k, p, r)
        return super().__new__(cls, d, k, p, r)

    def forward(self, field: RadialField) -> SquaredProfile:
        return trace(field)

    def backward(self, ft: SquaredProfile) -> RadialField:
        return extend(ft, self.d)

    def field_norm(self, field: RadialField, method: str = "exact-angular",
                   seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES,
                   tol: float = 1e-10) -> float:
        _check_domain(self.d, self.k, self.p, self.r, method)
        if field.d != self.d:
            raise ValueError(f"the field is in dimension {field.d}, not d = {self.d}")
        nv = _ball_def_detail(field, range(self.k + 1), self.p, self.r, method, seed, samples, tol)
        return _converged_values("TraceExtPair.field_norm", nv)[0]

    def interval_norm(self, ft: SquaredProfile, tol: float = 1e-10) -> float:
        """Weighted interval norm on (0, r^2) in its p-power form."""
        if _square_overflows(ft, self.r):
            raise OverflowError(f"r^2 = {self.r}^2 overflows the float range")
        nv = _profile_squared_detail(
            ft, self.d, range(self.k + 1), self.p, self.r * self.r, "p-power", tol
        )
        return _converged_values("TraceExtPair.interval_norm", nv)[0]


def boundedness_report(
    corpus: Sequence[CorpusEntry],
    d: int,
    k: int,
    p: float,
    r: float,
    method: str = "exact-angular",
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    tol: float = 1e-10,
) -> NormReport:
    """Norm ratios of the trace and extension over a corpus.

    For each profile, records the weighted interval norm of the trace, the
    ball norm of the field, and their ratio both ways; at k = 0 the ratio
    trace-over-field equals (2 / |S^(d-1)|)^(1/p) exactly.  Zero profiles
    and profiles with a non-finite, unconverged or zero norm, or without
    decay at r = math.inf, are listed under ``degenerate``, as in every norm
    report.
    """
    _check_domain(d, k, p, r, method)
    params = {"report": "boundedness", "d": d, "k": k, "p": p, "r": r, "method": method, "tol": tol}

    def routes(entry: CorpusEntry):
        field = RadialField(d, entry.profile)
        ft = trace(field)
        if extend(ft, d) != field:
            raise AssertionError(f"trace/extend round trip failed for {entry.label}")
        v_field = _ball_def_detail(field, range(k + 1), p, r, method, seed, samples, tol)
        if _square_overflows(ft, r):
            v_trace = NormValue(math.nan, math.inf)
        else:
            v_trace = _profile_squared_detail(ft, d, range(k + 1), p, r * r, "p-power", tol)
        return [("field", method, v_field), ("trace", "exact-angular", v_trace)]

    pairs = [("trace/field", "trace", "field", 1), ("field/trace", "field", "trace", 1)]
    return _corpus_table(params, corpus, routes, pairs)
