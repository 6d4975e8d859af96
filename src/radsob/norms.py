"""Sobolev norms of radial fields by every route, plus inequality checks.

Routes implemented for a radial field f(|x|) on the ball of radius r (or on
all of space, with decaying profiles):

* ``def``      -- the d-dimensional definition, summing L^p norms of all
                  partial derivatives up to order k.  For p = 2 the sum
                  over the derivatives of one order is a quadratic form in
                  the radial derivations D^j f: an exact angular matrix
                  per (d, n) times closed-form radial moments.  For
                  general p a seeded Monte Carlo sphere average is used.
* ``D``        -- weighted 1D norms of powers of the radial derivation
                  applied to the profile, on (0, r).
* ``squared``  -- weighted 1D norms of derivatives of the squared-argument
                  profile, on (0, r^2).

At every integer p up to 8 both 1D routes are closed form: between the
certified sign changes of the profile (none are needed at even p), |g|^p =
+-g^p stays in the term class, and each piece is a difference of lower
incomplete gamma functions.  Where the sign changes are not certified or the
difference cancels past tol (never at p = 2), and at fractional p, they use
adaptive quadrature.

The module also provides weighted Hardy-type inequality checks with the
explicit constants p/(ps+1) and 2^(p-1)(s+1)^p, boundary-value estimates,
and norms of corotational maps F_i(x) = x_i f(|x|) together with their
radial comparison norm in dimension d + 2.
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from ._lazy import np
from .derivcalc import (
    AngularMatrix,
    angular_matrix,
    check_multi_indices,
    corot_angular_matrix,
    forward_terms,
)
from .indexpoly import MonomialPoly, enumerate_multi
from .profile import CorpusEntry, Profile, RadialField, SquaredProfile, d_op, to_squared
from .profile import _TermTable, _term_table
from .quad import (
    QuadResult,
    QuadratureConvergenceError,
    _fsum,
    _gauss_moment,
    composite_nodes,
    integrate_1d,
    integrate_power_edge,
    integrate_power_weight,
    rough_scale,
    sphere_area,
    truncation_point,
    SphereSampler,
)

DEFAULT_SEED = 20240001
DEFAULT_SAMPLES = 200_000

_MC_FINE_PANELS = 32
_MC_COARSE_PANELS = 12
# samples per block of the Monte Carlo samples x nodes grid: a block of 64 samples x 480 nodes
# (240 KB) and its one temporary stay in a 2 MB L2 cache; 128 samples ran 2.5x slower
_MC_SAMPLE_BLOCK = 64
# samples per block of the two-summand expansion, whose arrays are samples x (p + 1): at p = 3
# a block takes 128 KB, and its numpy calls stay few
_MC_EXPANSION_BLOCK = 4096
_MC_EXPANSION_MAX_P = 8
_TINY = 1e-60
_EPS = 2.0**-52


class NormValue(NamedTuple):
    """A computed norm with its total error estimate and Monte Carlo part.

    ``converged`` is False when an adaptive quadrature behind the value
    missed its tolerance, so ``err`` may exceed the requested accuracy.
    """

    value: float
    err: float
    mc_se: float = 0.0
    converged: bool = True


def _converged_values(name: str, *nvs: NormValue) -> tuple[float, ...]:
    """The values of ``nvs``, or QuadratureConvergenceError with the err of an unconverged one."""
    for nv in nvs:
        if not nv.converged:
            raise QuadratureConvergenceError(f"{name}: a quadrature missed its tol", nv.err)
    return tuple(nv.value for nv in nvs)


class CorotField:
    """A corotational map F(x) = (x_1 f(|x|), ..., x_d f(|x|))."""

    __slots__ = ("d", "profile")

    def __init__(self, d: int, profile: Profile):
        if d < 2:
            raise ValueError(f"dimension must be >= 2, got {d}")
        if not profile.is_even:
            raise ValueError("corotational maps require an even profile")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "profile", profile)

    def __setattr__(self, name, value):
        raise AttributeError("CorotField is immutable")

    def eval(self, x) -> np.ndarray:
        pt = np.asarray(x, dtype=float)
        if pt.shape != (self.d,):
            raise ValueError(f"expected a point in R^{self.d}")
        return pt * self.profile.eval(float(np.linalg.norm(pt)))


# ---------------------------------------------------------------------------
# Shared integration helpers
# ---------------------------------------------------------------------------

def _check_domain(d=None, k=None, p=None, r=None, method=None, aggregation=None) -> None:
    """Raise ValueError unless each parameter given (not None) lies in the routes' domain.

    That is d >= 2, k >= 0, a finite p >= 1, r > 0 or r = inf, a known method
    and aggregation, and p = 2 or k = 0 for ``exact-angular``.  Every public
    entry point calls this before any quadrature or radial moment runs.
    """
    if d is not None and d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if k is not None and k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if p is not None and not 1 <= p < math.inf:
        raise ValueError(f"need a finite p >= 1, got {p}")
    if r is not None and not r > 0:
        raise ValueError(f"need r > 0 or r = inf, got {r}")
    if method not in (None, "exact-angular", "monte-carlo"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact-angular" and p not in (None, 2) and k not in (None, 0):
        raise ValueError("the exact-angular method requires p = 2 (or order k = 0)")
    if aggregation not in (None, "sum-of-norms", "p-power"):
        raise ValueError(f"unknown aggregation {aggregation!r}")


def _gauss_envelope(parts, p: float) -> tuple[float, int, float]:
    """(coeff, power, rate) dominating |sum_i w_i x^(e_i) prof_i(x)|^p for |w_i| <= bound_i.

    ``parts`` lists the (prof_i, bound_i, e_i); a plain profile is
    [(prof, 1, 0)].  The bound is coeff * (1 + x^power) * exp(-rate * x^q)
    with the profiles' argument power q; rate comes from the smallest decay
    over all terms and must be positive for half-line use.  A coefficient
    beyond the float range is inf.
    """
    live = [(prof, bound, e) for prof, bound, e in parts if not prof.is_zero]
    if not live:
        return 0.0, 0, math.inf
    try:
        c = float(sum(bound * prof.coeff_abs_sum for prof, bound, _ in live)) ** p
    except OverflowError:
        c = math.inf
    power = math.ceil(max(prof.max_power + e for prof, _, e in live) * p)
    rate = p * float(min(prof.min_decay for prof, _, _ in live))
    return c * 2 ** max(p - 1.0, 0.0), power, rate


_SCAN_CELLS = 64  # first grid of the sign-change scan
_SCAN_DEPTH = 40  # bisections of a cell before the scan gives up on it
_SCAN_MAX_CELLS = 1024  # open cells of one bisection level beyond which it gives up
_ROOT_STEPS = 64  # Newton or bisection steps of a root's refinement before it stops


@lru_cache(maxsize=64)
def _factored(prof) -> tuple[int, object, _TermTable, _TermTable]:
    """(m, g, (g, g'), (g', g'')): the smallest power m of prof, g = prof / x^m, and the
    ``_TermTable`` of g and g', which the scan evaluates as ``eval`` does, and of g' and g'',
    which it bounds.  g has the interior roots of prof and none at 0, where prof's zero of
    order m would keep the cells next to 0 from ever being certified.
    """
    m = min(a for _, a, _ in prof.terms)
    g = type(prof)([(c, a - m, b) for c, a, b in prof.terms]) if m else prof
    g1, g2 = g.derivative(), g.derivative(2)
    return m, g, _term_table(g, g1), _term_table(g1, g2)


def _scan_cells(curve: _TermTable, slope: _TermTable, upper: float):
    """The exact-zero edges and the sign-change brackets (lo, hi, g(lo)) of the scan of
    ``_sign_changes``, or None where it does not resolve; ``curve`` and ``slope`` are the tables
    of ``_factored``.  g is monotone on each bracket, with one root in it."""
    margin = 1.0 + 1e-12  # over the rounding of the bounds themselves
    # the first cells' edges and midpoints in one evaluation
    points = np.linspace(0.0, upper, 2 * _SCAN_CELLS + 1)
    (values, slopes), noises = curve.values(points)
    if not (np.isfinite(values).all() and np.isfinite(slopes).all()):
        return None
    lo, mid, hi = points[:-2:2], points[1::2], points[2::2]
    v_lo, v_mid, v_hi, d_mid = values[:-2:2], values[1::2], values[2::2], slopes[1::2]
    noises = noises[:, 1::2]
    # an edge of value 0 is a root where g differs in sign on either side, else it is stuck
    at_zero, sides = values[2:-2:2] == 0, np.sign(values[1:-2:2]) * np.sign(values[3::2]) < 0
    zeros, stuck = points[2:-2:2][at_zero & sides].tolist(), points[2:-2:2][at_zero & ~sides]
    brackets = []
    for _ in range(_SCAN_DEPTH):
        half = margin * 0.5 * (hi - lo)
        bound1, bound2 = slope.bounds(lo, hi)
        free = np.abs(v_mid) - noises[0] > half * bound1
        mono = np.abs(d_mid) - noises[1] > half * bound2
        if stuck.size:
            mono &= ~(np.isin(lo, stuck) | np.isin(hi, stuck))
        cross = mono & ~free & (np.sign(v_lo) * np.sign(v_hi) < 0)
        if cross.any():
            brackets += zip(lo[cross].tolist(), hi[cross].tolist(), v_lo[cross].tolist())
        split = ~(free | mono)
        open_cells = np.count_nonzero(split)
        if not open_cells:
            return zeros, brackets
        if 2 * open_cells > _SCAN_MAX_CELLS:
            return None
        lo, mid, hi = lo[split], mid[split], hi[split]
        v_lo, v_mid, v_hi = v_lo[split], v_mid[split], v_hi[split]
        if not v_mid.all():
            at_zero, sides = v_mid == 0, np.sign(v_lo) * np.sign(v_hi) < 0
            zeros += mid[at_zero & sides].tolist()
            stuck = np.concatenate((stuck, mid[at_zero & ~sides]))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        v_lo, v_hi = np.concatenate((v_lo, v_mid)), np.concatenate((v_mid, v_hi))
        mid = 0.5 * (lo + hi)
        (v_mid, d_mid), noises = curve.values(mid)
        if not (np.isfinite(v_mid).all() and np.isfinite(d_mid).all()):
            return None
    return None


def _refine_roots(curve: _TermTable, brackets) -> list[float]:
    """The root of g in each of the scan's brackets (lo, hi, g(lo)), all refined at once on the
    table (g, g') of ``_factored``.

    Each starts at its bracket's midpoint x.  The bracket shrinks to x on the side of g(x)'s
    sign, and x moves by a Newton step x - g/g' where that stays inside the bracket, else to
    the bracket's midpoint.  The root is x where |g(x)| is within the table's rounding bound,
    or the new x once a step moves it by at most 4 eps |x|, or after _ROOT_STEPS steps;
    ``_root_window`` certifies it either way.
    """
    lo, hi, v_lo = np.array(brackets).T
    x = 0.5 * (lo + hi)
    roots = x.copy()
    live = np.arange(len(x))
    for _ in range(_ROOT_STEPS):
        (v, d), (noise, _) = curve.values(x)
        at_root = np.abs(v) <= noise
        left = (v < 0) == (v_lo < 0)  # x lies on lo's side of the root
        lo, hi = np.where(left, x, lo), np.where(left, hi, x)
        step = x - v / d
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        roots[live] = np.where(at_root, x, step)
        keep = ~at_root & (np.abs(step - x) > 4 * _EPS * np.abs(x))
        if not keep.any():
            break
        live, x, lo, hi, v_lo = live[keep], step[keep], lo[keep], hi[keep], v_lo[keep]
    return roots.tolist()


def _dominant(prof) -> tuple:
    """The term (c, a, b) of least rate b and, among those, largest power a, (0, 0, 0) if none:
    it outgrows every other term as x grows, so prof has the sign of c past its last root."""
    return min(prof.terms, key=lambda t: (t[2], -t[1]), default=(0, 0, 0))


def _root_bound(prof) -> float | None:
    """A point B past which prof has no root; None where B is not finite or is capped.

    With (c0, a0, b0) the ``_dominant`` term, prof = c0 x^a0 e^(-b0 x^q) (1 + sum_i h_i),
    h_i = (c_i / c0) x^(a_i - a0) e^(-(b_i - b0) x^q).  Each |h_i| decreases past
    x_i = ((a_i - a0) / (q (b_i - b0)))^(1/q) where a_i > a0 (then b_i > b0), and everywhere
    otherwise.  B is the first of the largest x_i (or 1) times powers of 2^(1/4) where
    sum |h_i| <= 1/2, summed in logs (the 1/2 covers their rounding): on [B, inf) the sum
    stays below 1, and prof keeps the sign of c0.  The cap: where the terms' envelope
    max(B, 1)^P e^(-b0 B^q) (P the largest power) is below 2^-1022, prof / x^m nears its
    table's rounding floor before B, and the part of int x^gamma |prof|^p past that point is
    not negligible for every weight gamma.  Such a profile gets no certified roots; its
    integrals take adaptive quadrature, whose half-line cut bounds its own tail.
    """
    c0, a0, b0 = _dominant(prof)
    q = prof._q
    ratios = [(abs(c / c0), a - a0, float(b - b0)) for c, a, b in prof.terms if (a, b) != (a0, b0)]
    # ln of each ratio from its integer parts, which may lie beyond the float range
    others = [(math.log(r.numerator) - math.log(r.denominator), d, rate) for r, d, rate in ratios]

    def excess(x: float) -> float:  # sum |h_i(x)|, or inf where a term exceeds 1
        log_x, xq = math.log(x), x ** (q - 1) * x
        logs = [lr + d * log_x - (rate and rate * xq) for lr, d, rate in others]
        return math.inf if max(logs) > 0.0 else math.fsum(map(math.exp, logs))

    x = max([(d / (q * rate)) ** (1.0 / q) for _, d, rate in others if d > 0] or [1.0])
    while excess(x) > 0.5:
        x *= 2.0**0.25
        if math.isinf(x):
            return None
    envelope = prof.max_power * math.log(max(x, 1.0)) - float(b0) * x ** (q - 1) * x  # in logs
    return x if envelope >= -1022 * math.log(2.0) else None


@lru_cache(maxsize=8192)
def _sign_changes(prof) -> tuple[float, ...] | None:
    """All sign changes of a term-list function on (0, inf), certified; None if unresolved.

    These are the kinks of |prof|^p for odd or fractional p, and the ends of the pieces on
    which the closed form integrates (+-prof)^p, where a missed pair of roots would be a
    silent sign error.  None lie past prof's ``_root_bound`` B, so one scan of (0, B) serves
    every range and weight; callers keep the roots below their upper end.  The scan
    (``_scan_cells``) works on g = prof / x^m (``_factored``), which has prof's roots and does
    not underflow where x^m does, from a grid of _SCAN_CELLS cells.  A cell [lo, hi] of width h is
      * root-free when |g(mid)| > L1 h / 2, with L1 = sum |c'| hi^a' exp(-b lo^q) over the
        terms of g', a bound on |g'| on the cell;
      * monotone, with at most one root, when |g'(mid)| > L2 h / 2, L2 built alike from g'';
    each left side net of its rounding bound (``_TermTable.values``).  A monotone cell whose
    ends differ in sign holds one root, which ``_refine_roots`` finds on the same table of g; a
    scan point where g is exactly zero is a root where g differs in sign on either side (12 -
    12 x^2 at x = 1 on a scan of (0, 2)), else no cell ending there is monotone.  Other
    cells are bisected.  A cell unresolved after _SCAN_DEPTH bisections (at a double root,
    say), a non-finite value, more than _SCAN_MAX_CELLS open cells or no B make the result None.
    Each edge value is computed once and handed to both cells that share the edge, so a root
    within rounding of an edge counts once.  Terms of one sign need no scan.
    """
    if len({c > 0 for c, _, _ in prof.terms}) < 2:
        return ()  # terms of one sign: their sum keeps it on (0, inf)
    with np.errstate(all="ignore"):
        try:
            _, _, curve, slope = _factored(prof)
        except OverflowError:  # a coefficient beyond the float range
            return None
        bound = _root_bound(prof)
        found = None if bound is None else _scan_cells(curve, slope, bound)
        if found is None:
            return None
        zeros, brackets = found
        roots = zeros + (_refine_roots(curve, brackets) if brackets else [])
    return tuple(sorted(set(roots)))


def _halfline_cut(parts, p: float, extra_power: int, q: int, tol: float) -> tuple[float, float]:
    """Truncation point T and tail bound of a half-line integral of x^extra_power |sum parts|^p.

    ``parts`` are as for ``_gauss_envelope``, whose bound of the integrand
    ``truncation_point`` cuts at a tail below ``tol`` / 2; q is the
    profiles' argument power.  Every half-line route cuts here.
    """
    if not all(prof.decays for prof, _, _ in parts):
        raise ValueError("half-line integration requires a decaying profile")
    coeff, power, rate = _gauss_envelope(parts, p)
    return truncation_point(tol, rate, coeff, power + extra_power, q)


@lru_cache(maxsize=8192)
def _weighted_lp_power(
    prof,
    p: float,
    gamma: float,
    upper: float,
    rel_tol: float,
) -> QuadResult:
    """Integral of x^gamma |prof(x)|^p over (0, upper), upper may be inf.

    Adaptive quadrature: the route pieces at fractional p, the fallback of the
    closed form, and the independent oracle of ``verify identities``.  The
    interval is split at the sign changes of prof, the kinks of |prof|^p for
    odd or fractional p (none where the scan does not certify them).  The
    piece from 0 takes the x^gamma weight in ``integrate_power_weight``.  At
    fractional p, where |prof|^p behaves like |x - root|^p at a sign change,
    a piece ending at one is integrated from it in x = root +- h u^2
    (``integrate_power_edge``), in which the integrand is smooth; a piece with
    a sign change at both ends, or from 0 to one, is first split at its
    midpoint.  At integer p, |prof|^p = +-prof^p is smooth up to the
    pieces' ends, which stay whole.
    Memoised: routes and checks that need the same integral share one quadrature.
    """
    if prof.is_zero:
        return QuadResult(0.0, 0.0, 0, True)

    def core(x):
        return np.abs(prof.eval(x)) ** p

    def weighted(x):
        return x ** max(gamma, 0.0) * core(x)

    def inner(x):  # the integrand away from 0
        return x**gamma * core(x)

    # a power beyond the float range is inf, and a zero weight times inf NaN: reports flag the norm
    with np.errstate(over="ignore", invalid="ignore"):
        tail = 0.0
        if math.isinf(upper):
            upper, tail = _halfline_cut(
                [(prof, 1, 0)], p, max(0, math.ceil(gamma)), prof._q,
                1e-14 * max(rough_scale(weighted, 0.0, 2.0), 1e-10),
            )
        scale = max(rough_scale(weighted, 0.0, upper), rough_scale(weighted, 0.0, upper / 4.0),
                    _TINY)
        abs_tol = rel_tol * scale
        kinks = () if p % 2 == 0 else _sign_changes(prof) or ()
        edges = [0.0] + [k for k in kinks if 0.0 < k < upper] + [upper]
        # (a, b, mapped): a piece from a to b; a mapped piece starts at a sign change a and is
        # integrated in x = a + (b - a) u^2
        spans = []
        fractional = p != int(p)
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            if hi - lo <= 1e-15 * upper:
                continue
            at_lo, at_hi = fractional and i > 0, fractional and i < len(edges) - 2
            if at_hi:
                mid = 0.5 * (lo + hi)
                spans += [(lo, mid, at_lo), (hi, mid, True)]
            else:
                spans.append((lo, hi, at_lo))
        total = err = 0.0
        panels = 0
        converged = True
        for a, b, mapped in spans:
            piece_tol = abs_tol * abs(b - a) / upper
            if mapped:
                res = integrate_power_edge(inner, a, b, piece_tol)
            elif a == 0.0:
                res = integrate_power_weight(core, gamma, b, piece_tol)
            else:
                res = integrate_1d(inner, a, b, piece_tol)
            total += res.value
            err += res.error_estimate
            panels += res.subdivisions
            converged = converged and res.converged
    # at least the rounding of the sums over panels and pieces and of the integrand itself
    return QuadResult(total, max(err, 8 * _EPS * abs(total)) + tail, panels, converged)


def _pth_root(powsum: float, err_pow: float, p: float) -> tuple[float, float]:
    """A norm and its error from its p-th power and that power's error.

    First-order rule err_pow * value / (p * powsum), or err_pow^(1/p) at a
    zero sum; a negative sum (quadrature noise around zero) counts as zero.
    value and powsum enter scaled by the power of two of value, which rounds
    alike and keeps err_pow * value from overflowing where the error is finite.
    """
    powsum = max(powsum, 0.0)
    value = powsum ** (1.0 / p)
    if powsum > 0:
        e = math.frexp(value)[1]
        return value, err_pow * math.ldexp(value, -e) / (p * math.ldexp(powsum, -e))
    return value, err_pow ** (1.0 / p)


def _norm(
    parts: Sequence[QuadResult], p: float, aggregation: str = "p-power", scale: float = 1.0
) -> NormValue:
    """The norm whose p-th powers, one per derivative order, are ``scale`` times ``parts``.

    A negative part (quadrature noise around zero) counts as zero.  ``p-power`` roots the
    compensated sum of the parts, ``sum-of-norms`` adds their roots.  The constant enters
    before the root, so routes whose p-th powers agree give one value.  Converged when every
    part is.
    """
    converged = all(res.converged for res in parts)
    if aggregation == "p-power":
        powsum = _fsum([max(res.value, 0.0) for res in parts])
        value, err = _pth_root(scale * powsum, scale * sum(res.error_estimate for res in parts), p)
        return NormValue(value, err, 0.0, converged)
    roots = [_pth_root(scale * res.value, scale * res.error_estimate, p) for res in parts]
    return NormValue(sum(v for v, _ in roots), sum(e for _, e in roots), 0.0, converged)


# ---------------------------------------------------------------------------
# Exact term sums and their closed-form moments
# ---------------------------------------------------------------------------

def _product_terms(products) -> tuple[tuple[float, int, float | Fraction], ...]:
    """(c, a + 1, b) of each term c x^a e^(-b x^q) of the exact sum over ``products`` of the
    product of each one's term lists, which all have one length.

    The products are taken on integer numerators over common denominators of all coefficients
    and of all rates, exact and far cheaper than products of Fractions.  c is then correctly
    rounded to a float (+-inf beyond the float range), and b is a float where that is the rate
    exactly, as the moment kernel's cache hashes it on every lookup.
    """
    factors = [terms for product in products for terms in product]
    c_den = math.lcm(*(c.denominator for terms in factors for c, _, _ in terms))
    b_den = math.lcm(*(b.denominator for terms in factors for _, _, b in terms))
    sums: dict[tuple[int, int], int] = {}
    for product in products:
        total = {(0, 0): 1}
        for terms in product:
            base = [(c.numerator * c_den // c.denominator, a, b.numerator * b_den // b.denominator)
                    for c, a, b in terms]
            step: dict[tuple[int, int], int] = {}
            for (a1, b1), c1 in total.items():
                for c2, a2, b2 in base:
                    key = (a1 + a2, b1 + b2)
                    step[key] = step.get(key, 0) + c1 * c2
            total = step
        for key, c in total.items():
            sums[key] = sums.get(key, 0) + c
    scale = c_den ** len(products[0]) if products else 1
    terms = []
    for (a, b), c in sorted(sums.items()):
        if c:
            try:
                c_float = c / scale
            except OverflowError:
                c_float = math.inf if c > 0 else -math.inf
            rate = b / b_den
            n, d = rate.as_integer_ratio()
            terms.append((c_float, a + 1, rate if n * b_den == b * d else Fraction(b, b_den)))
    return tuple(terms)


@lru_cache(maxsize=64)
def _power_terms(g, p: int) -> tuple[tuple[float, int, float | Fraction], ...]:
    """(c, a + 1, b) of each term c x^a e^(-b x^q) of the exact power g^p."""
    return _product_terms([(g.terms,) * p])


def _moment_sum(terms, at_lo, at_hi, err: float) -> tuple[float, float]:
    """sum c (G(hi) - G(lo)) over the terms (c, ., .) of a term sum, G(lo) and G(hi) the moment
    kernel's (value, relative bound) of each term at the two ends, and err plus the kernel's
    bounds and the rounding of the differences, products and sum (with an absolute 2^-1074 each
    where they underflow)."""
    parts = []
    for (c, _, _), (v_lo, e_lo), (v_hi, e_hi) in zip(terms, at_lo, at_hi):
        diff = v_hi - v_lo
        part = c * diff
        parts.append(part)
        err += abs(c) * (abs(v_hi) * e_hi + abs(v_lo) * e_lo)
        err += 2 * _EPS * abs(part) + 2.0**-1074 * (abs(diff) + 1.0)
    total = _fsum(parts)
    return total, err + _EPS * abs(total)


def _pair_integral(pairs, r: float) -> tuple[float, float]:
    """Integral of sum w rho^m g(rho) h(rho) over (0, r), r <= inf, and a bound on its rounding
    error, over the (w, m, g, h) of ``pairs``: w an int or Fraction, m >= 0 an integer, g and h
    term lists (``Profile``).

    The sum is one exact term list (``_product_terms``), integrated term by term by
    ``_moment_sum``.  An r that is not > 0 (a NaN radius would never end the incomplete-gamma
    series) or a non-decaying term on the half-line raises ValueError; a radius whose powers
    overflow gives inf or NaN.
    """
    if not r > 0:
        raise ValueError(f"need r > 0 or r = inf, got {r}")
    terms = _product_terms([([(w, m, 0)], g.terms, h.terms) for w, m, g, h in pairs])
    at_r = [_gauss_moment(s, b, r) for _, s, b in terms]
    return _moment_sum(terms, [(0.0, 0.0)] * len(terms), at_r, 0.0)


# ---------------------------------------------------------------------------
# The d-dimensional definition route
# ---------------------------------------------------------------------------

def _form_square(mat: AngularMatrix, f: Profile, r: float) -> tuple[float, float]:
    """Squared L^2 norm over the ball (or space) of all derivatives of one order.

    |S^(d-1)| times the quadratic form of ``mat`` on the radial derivations D^j f, one exact
    term sum (``_pair_integral``); returns the value and a bound on its rounding error.
    """
    d, radial = mat.d, [d_op(f, j) for j in mat.js]
    pairs = [
        ((2 - (a == b)) * mat.entries[a][b], d - 1 + mat.degrees[a] + mat.degrees[b],
         radial[a], radial[b])
        for a in range(len(radial)) for b in range(a, len(radial)) if mat.entries[a][b]
    ]
    value, err = _pair_integral(pairs, r)
    area = sphere_area(d)
    # pi^(d/2) carries d/4 + 1 eps, Gamma(d/2) 16 (as in quad._gauss_moment_full), / and * one
    return area * value, area * (err + (0.25 * d + 18) * _EPS * abs(value))


def _form_norm(
    matrix: Callable[[int, int], AngularMatrix], d: int, orders: Sequence[int], f: Profile, r: float
) -> NormValue:
    """The p = 2 norm whose square is the sum over n in orders of matrix(d, n)'s form on f."""
    check_multi_indices(d, max(orders))  # before the lower orders' matrices are built
    return _norm([QuadResult(*_form_square(matrix(d, n), f, r), 0) for n in orders], 2)


def _ball_def_exact(
    field: RadialField, orders: Sequence[int], p: float, r: float, rel_tol: float
) -> NormValue:
    d, f = field.d, field.profile
    if p == 2:
        return _form_norm(angular_matrix, d, orders, f, r)
    # at p != 2 the domain check admits only order zero, the plain L^p norm: its angular
    # integral is exact, and it is the D route at order zero with the constant |S^(d-1)|
    return _profile_d_detail(f, d, [0], p, r, "p-power", rel_tol, sphere_area(d))


def _abs_pow(u: np.ndarray, p: float, scratch: np.ndarray | None = None) -> np.ndarray:
    """|u|^p elementwise, formed in place over u, which it returns or overwrites.

    For p in {1, 3/2, 2, ..., 8} it is a product of squares of |u|, times sqrt(|u|) at a
    half-integer p: within a few ulp of np.power and a fraction of its cost, with at most one
    temporary array, which is ``scratch`` (shaped like u) when one is given.  Any other p goes
    to np.power.  The bound on p is tested first, as 2p does not fit an int at huge p.
    """
    a = np.abs(u, out=u)
    twice = 2 * p
    if not (2 <= twice <= 16 and twice == int(twice)):
        return np.power(a, p, out=a)
    n, half = divmod(int(twice), 2)
    out = a
    for bit in bin(n)[3:]:  # a^n by squaring from the leading bit down
        out = np.multiply(out, out, out=scratch if out is a else out)
        if bit == "1":
            out *= a
    if half:
        out *= np.sqrt(a) if out is a else np.sqrt(a, out=a)
    return out


def _expands(terms: Sequence, p: float) -> bool:
    """Whether ``_mc_integrals`` sums this d^alpha f by the two-summand expansion.

    Beyond p = 8 the expansion's cancellation, which grows like 2^p, is left to the grid.
    """
    return len(terms) == 2 and p == int(p) and p <= _MC_EXPANSION_MAX_P


def _compensated_prefix(c: np.ndarray) -> np.ndarray:
    """The prefix sums along the last axis of c, from 0 to the total, each within about 1 ulp.

    np.cumsum adds in order, so Knuth's TwoSum recovers the rounding error of each addition
    exactly, and their running sum corrects the prefix sums.
    """
    out = np.zeros((*c.shape[:-1], c.shape[-1] + 1))
    s = np.cumsum(c, axis=-1, out=out[..., 1:])
    prev = out[..., :-1]
    back = s - prev
    lost = (prev - (s - back)) + (c - back)
    out[..., 1:] += np.cumsum(lost, axis=-1)
    return out


def _diamond(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The diamond angle of (x, y) in (-2, 2]: increasing with atan2(y, x), and up by exactly 1
    in a quarter turn.  It is NaN at (0, 0)."""
    t = y / (np.abs(x) + np.abs(y))
    return np.where(np.signbit(x), np.copysign(2.0, y) - t, t)


def _expansion_sums(
    V: np.ndarray, a: np.ndarray, b: np.ndarray, wt: np.ndarray, p: int
) -> np.ndarray:
    """Per-sample sums over the nodes of wt_n |v1 a_n + v2 b_n|^p, (v1, v2) the rows of V.

    At integer p, |U|^p = sign(U) U^p and U^p = sum_j C(p, j) v1^(p-j) v2^j a^(p-j) b^j, so a
    sample needs only the node sums X_j of the p + 1 coefficients C(p, j) wt a^(p-j) b^j, which
    Horner's rule in v2, with the powers of v1 alongside, combines.  At even p the sign is +1 on
    every node.  At odd p, U > 0 on the nodes whose direction lies within a quarter turn of the
    sample's.  With the nodes sorted by diamond angle those form one window of prefix sums,
    found by two binary searches, and X_j = 2 window - total.  A sample whose v1 has its sign bit
    set is taken negated, as |U|^p is even in (v1, v2): its angle then lies in [-1, 1] and its
    window within [-2, 2].  Samples go in blocks, so memory does not grow with their number, and
    no block size changes a sample's value.  ``_mc_rounding`` bounds the rounding.
    """
    j = np.arange(p + 1)[:, None]
    binom = np.array([[math.comb(p, i)] for i in range(p + 1)], dtype=float)
    coef = binom * wt * a ** (p - j) * b**j  # (p + 1) x nodes
    odd = p % 2 == 1
    if odd:
        angle = _diamond(a, b)
        order = np.argsort(angle, kind="stable")
        angle = angle[order]
        prefix = _compensated_prefix(coef[:, order])
        total = prefix[:, -1:]
    else:
        total = _compensated_prefix(coef)[:, -1:]
    acc = np.empty(len(V))
    for lo in range(0, len(V), _MC_EXPANSION_BLOCK):
        x, y = V[lo : lo + _MC_EXPANSION_BLOCK].T
        sums = total
        if odd:
            x, y = np.abs(x), y * np.copysign(1.0, x)
            phi = y / (x + np.abs(y))  # the diamond angle, as x >= 0
            # a node on the window's edge has U = 0 up to the rounding _mc_rounding bounds
            sums = np.take(prefix, np.searchsorted(angle, phi + 1.0), axis=1)
            sums -= np.take(prefix, np.searchsorted(angle, phi - 1.0), axis=1)
            sums *= 2.0
            sums -= total
        # sum_j X_j x^(p-j) y^j by Horner's rule from j = p down
        out = np.empty(len(x))
        out[:] = sums[p]
        x_pow = np.ones(len(x))
        term = np.empty(len(x))
        for i in range(p - 1, -1, -1):
            out *= y
            x_pow *= x
            out += np.multiply(sums[i], x_pow, out=term)
        acc[lo : lo + _MC_EXPANSION_BLOCK] = out
    return acc


def _mc_samples(terms: Sequence[tuple[MonomialPoly, Profile, int]], pts: np.ndarray) -> np.ndarray:
    """The poly_t of the (poly_t, g_t, deg_t) ``terms`` at the sample directions ``pts``, one
    column per summand: the same for every rule."""
    return np.stack([poly.eval_many(pts) for poly, _, _ in terms], axis=1)


def _mc_columns(
    terms, nodes: np.ndarray, weights: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """The radial columns rho^deg_t g_t(rho) at the nodes, one row per summand, and the weights
    times rho^(d-1).  A power or product beyond the float range is inf, and the norm flagged."""
    with np.errstate(over="ignore", invalid="ignore"):
        S = np.stack([g.eval(nodes) * nodes**deg for _, g, deg in terms])
        return S, weights * nodes ** (d - 1)


def _mc_integrals(V: np.ndarray, S: np.ndarray, wt: np.ndarray, p: float) -> np.ndarray:
    """Per-sample radial integrals of rho^(d-1) |sum_t rho^deg_t g_t(rho) poly_t(omega)|^p.

    ``V`` is ``_mc_samples`` of the summands (poly_t, g_t, deg_t) and (S, wt) is
    ``_mc_columns`` of a rule; neither is written to, as both are shared.  One summand
    factors into one Gauss sum of |rho^deg g(rho)|^p times |poly(omega)|^p.  Two summands at
    integer p up to 8 take ``_expansion_sums``, in O(samples + nodes) sums.  Otherwise the
    samples x nodes grid is summed in blocks of samples, so memory does not grow with their
    number.  The result does not depend on the block size (two or more): no block has one
    sample (numpy multiplies a one-row block by BLAS gemv, not gemm, which rounds
    differently), and einsum, unlike gemv, sums every row alike.
    """
    # a power or product beyond the float range is inf (inf * 0 is NaN): the norm is flagged
    with np.errstate(over="ignore", invalid="ignore"):
        if len(S) == 1:
            return float(wt @ _abs_pow(S[0].copy(), p)) * _abs_pow(V[:, 0].copy(), p)
        if _expands(S, p):
            return _expansion_sums(V, *S, wt, int(p))
        acc = np.empty(len(V))
        # one buffer for every block and one for its |.|^p: a block of 64 samples x 480 nodes
        # (240 KB) lies above glibc's mmap threshold, and allocated afresh for each block it
        # made the heap trim and regrow; the last block takes up to _MC_SAMPLE_BLOCK + 1 samples
        block = np.empty((min(_MC_SAMPLE_BLOCK + 1, len(V)), len(wt)))
        scratch = np.empty_like(block)
        edges = [*range(0, len(V) - 1, _MC_SAMPLE_BLOCK), len(V)]
        for lo, hi in zip(edges, edges[1:]):
            U = np.matmul(V[lo:hi], S, out=block[: hi - lo])
            acc[lo:hi] = np.einsum("bn,n->b", _abs_pow(U, p, scratch[: hi - lo]), wt)
        return acc


def _mc_rounding(
    terms: Sequence[tuple[MonomialPoly, Profile, int]], S: np.ndarray, wt: np.ndarray, p: float
) -> float:
    """A bound on the rounding of every sample's sum by ``_expansion_sums``, 0 for the others;
    (S, wt) is ``_mc_columns`` of the summands ``terms`` on the rule.

    A sample's sum is off by at most 4 (p + 8) eps |v|^p sum_n wt_n |(a_n, b_n)|^p.  By
    Cauchy-Schwarz |v|^p |(a, b)|^p bounds (|v1 a| + |v2 b|)^p, the size of every term the
    coefficients, the compensated prefix sums, the window differences and Horner's rule add; they
    round to at most (5 p / 2 + 11) eps of it.  A node whose sign the diamond angles put on the
    wrong side lies within 8 eps of the window's edge in angle, so there |U| <= 8 eps |v| |(a,
    b)|, and counting its |U|^p with the wrong sign costs at most 16 eps of its size.  On the
    unit sphere each |v_t| is at most the absolute coefficient sum of poly_t, so the bound holds
    for every sample without evaluating one.
    """
    if not _expands(terms, p):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        size = float(wt @ np.hypot(*S) ** p)
    v_max = math.hypot(*(float(sum(map(abs, poly.coeffs.values()))) for poly, _, _ in terms))
    return 4 * (p + 8) * _EPS * size * v_max**p


@lru_cache(maxsize=1)
def _sphere_points(d: int, seed: int, samples: int) -> np.ndarray:
    """The read-only ``SphereSampler(d, seed, samples).points``, drawn once for every profile."""
    return SphereSampler(d, seed, samples).points


def _ball_def_mc(
    field: RadialField,
    orders: Sequence[int],
    p: float,
    r: float,
    seed: int,
    samples: int,
) -> NormValue:
    d = field.d
    f = field.profile
    if samples < 2:
        raise ValueError("Monte Carlo needs at least 2 samples")
    check_multi_indices(d, max(orders))
    pts = _sphere_points(d, seed, samples)

    def rules(R: float):
        return composite_nodes(0.0, R, _MC_FINE_PANELS), composite_nodes(0.0, R, _MC_COARSE_PANELS)

    if math.isinf(r):
        panel = composite_nodes(0.0, 2.0, 1)
    else:
        fine, coarse = rules(r)
    acc = np.zeros(samples)
    quad_err = 0.0
    # each d^alpha f, alpha of every order n, as its nonzero summands poly(x) (D^j f)(|x|)
    # with poly homogeneous of degree 2j - n
    for n in orders:
        for alpha in enumerate_multi(d, n):
            terms = [(poly, d_op(f, j), 2 * j - n) for j, poly in forward_terms(d, tuple(alpha))
                     if not d_op(f, j).is_zero]
            if not terms:
                continue
            V = _mc_samples(terms, pts)  # once for every rule
            if math.isinf(r):
                # cut at this alpha's own T, its tail relative to a one-panel estimate on [0, 2]
                # of its sample-mean integrand; on the unit sphere |poly| is at most its
                # absolute coefficient sum
                scale = float(_mc_integrals(V, *_mc_columns(terms, *panel, d), p).mean())
                parts = [(g, sum(map(abs, poly.coeffs.values())), deg) for poly, g, deg in terms]
                T, tail = _halfline_cut(parts, p, d - 1, f._q, 1e-10 * max(scale, _TINY))
                fine, coarse = rules(T)
                quad_err += tail
            S, wt = _mc_columns(terms, *fine, d)
            acc_alpha = _mc_integrals(V, S, wt, p)
            acc_coarse = _mc_integrals(V, *_mc_columns(terms, *coarse, d), p)
            quad_err += abs(float(acc_alpha.mean()) - float(acc_coarse.mean()))
            quad_err += _mc_rounding(terms, S, wt, p)
            acc += acc_alpha

    area = sphere_area(d)
    pow_mean = area * float(acc.mean())
    # the std of acc scaled by an exact power of two, as squares of values near 1e300 overflow
    e = math.frexp(float(acc.max()))[1]
    with np.errstate(invalid="ignore"):  # an inf sample makes the std NaN, and the norm is flagged
        se_pow = area * math.ldexp(float(np.ldexp(acc, -e).std(ddof=1)), e) / math.sqrt(samples)
    value, err = _pth_root(pow_mean, se_pow + area * quad_err, p)
    return NormValue(value, err, _pth_root(pow_mean, se_pow, p)[1])


def _ball_def_detail(
    field: RadialField,
    orders: Sequence[int],
    p: float,
    r: float,
    method: str,
    seed: int,
    samples: int,
    rel_tol: float,
) -> NormValue:
    if method == "exact-angular":
        return _ball_def_exact(field, orders, p, r, rel_tol)
    return _ball_def_mc(field, orders, p, r, seed, samples)


def sobolev_ball_definition(
    field: RadialField,
    k: int,
    p: float,
    r: float,
    method: str = "exact-angular",
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    tol: float = 1e-10,
) -> float:
    """Sobolev norm of order k by the d-dimensional definition.

    ``method="exact-angular"`` (p = 2, or k = 0 for any p) integrates the
    angular polynomial factors by exact sphere moments; ``"monte-carlo"``
    handles any p >= 1 with a seeded sphere sample.  ``r`` may be
    ``math.inf`` for decaying profiles.
    """
    _check_domain(field.d, k, p, r, method)
    nv = _ball_def_detail(field, range(k + 1), p, r, method, seed, samples, tol)
    return _converged_values("sobolev_ball_definition", nv)[0]


# ---------------------------------------------------------------------------
# The two profile routes
# ---------------------------------------------------------------------------

# the largest p taken in closed form: g^p has up to binomial(n + p - 1, p) terms for n-term g
_CLOSED_FORM_MAX_P = 8


@lru_cache(maxsize=4096)
def _root_window(prof, x: float) -> tuple[float, float, int] | None:
    """(delta, lip, m) at a computed sign change x of prof, or None.

    With g = prof / x^m (``_factored``), a true root of prof lies within delta of x, and
    |g(y)| <= lip |y - root| for y between them: on a window of half-width w = 2^-26 x,
    |g'| >= least > 0 and |g'| <= lip, and |g(x)| plus its rounding is at most least delta.
    None when that least slope or delta <= w cannot be shown.
    """
    m, _, curve, slope = _factored(prof)
    w = 2.0**-26 * x
    with np.errstate(all="ignore"):
        (value, d_value), (noise, d_noise) = curve.values(np.array([x]))
        lip, d_lip = slope.bounds(np.array([x - w]), np.array([x + w]))
        least = abs(d_value[0]) - d_noise[0] - w * d_lip[0]
        delta = (abs(value[0]) + noise[0]) / least if least > 0 else math.inf
    if not delta <= w:
        return None
    return float(delta), float(lip[0]), m


@lru_cache(maxsize=1024)
def _closed_lp_power(g, p: int, gamma: float, upper: float) -> QuadResult | None:
    """Integral of x^gamma |g(x)|^p over (0, upper) in closed form, for an integer p >= 1.

    ``upper`` may be inf.  Between consecutive sign changes of g (none are needed at even
    p) |g|^p = +-g^p, and each term c x^a e^(-b x^q) of the exact power g^p integrates over
    a piece (lo, hi) to c (G(hi) - G(lo)), G the ``_gauss_moment`` kernel at s = gamma + a +
    1; a ``SquaredProfile`` (q = 1) is integrated in s itself, so no root of a squared
    radius is taken.  ``_sign_changes`` certifies every root of g on (0, inf), so past the
    last one g has the sign of its ``_dominant`` term, and it flips at each root: the sign of
    a piece is that sign times -1 per root at or past the piece's end, and a half-line's last
    piece runs to inf exactly.  err adds the bound of ``_moment_sum`` on each piece, the
    rounding of the sum of the pieces, and for each sign change the integral over the strip
    between it and the true one (``_root_window``), twice.  None, at odd p only, when the
    sign changes are not certified.  Memoised, as the Hardy and boundary checks take the
    same integrals.
    """
    q = g._q
    terms = _power_terms(g, p)
    exponents = []
    for _, a1, b in terms:
        s = gamma + a1
        back = s - gamma  # the rounding error of s, exactly (Knuth's TwoSum)
        exponents.append((s, b, abs((gamma - (s - back)) + (a1 - back))))

    def moments(x: float):
        return [_gauss_moment(s, b, x, q, s_err) for s, b, s_err in exponents]

    found = _sign_changes(g) if p % 2 else ()  # |g|^p = g^p at even p
    if found is None:
        return None
    roots = tuple(x for x in found if x < upper)
    last = (1 if p % 2 == 0 or _dominant(g)[0] > 0 else -1) * (-1) ** (len(found) - len(roots))
    at_edges = [[(0.0, 0.0)] * len(terms), *map(moments, roots), moments(upper)]
    pieces = []
    err = 0.0
    for j in range(len(roots) + 1):  # g flips sign at each of the len(roots) - j roots past piece j
        piece, err = _moment_sum(terms, at_edges[j], at_edges[j + 1], err)
        pieces.append(last * (-1) ** (len(roots) - j) * piece)
    for x in roots:
        window = _root_window(g, x)
        if window is None:
            return None
        delta, lip, m = window
        e = gamma + m * p  # y^gamma |g(y)|^p = y^(gamma + m p) |g(y) / y^m|^p
        err += 4 * delta * max((x - delta) ** e, (x + delta) ** e) * (lip * delta) ** p
    value = _fsum(pieces)
    return QuadResult(value, err + _EPS * abs(value), 0, True)


def _lp_power(g, p: float, gamma: float, upper: float, rel_tol: float) -> QuadResult:
    """Integral of x^gamma |g(x)|^p over (0, upper), upper may be inf: one route piece.

    At an integer p <= _CLOSED_FORM_MAX_P it is ``_closed_lp_power``, taken at p = 2 as it
    is (a rounding bound, whatever rel_tol) and at any other p when its err is at most
    rel_tol of its value.  Where the sign changes are not certified or the pieces cancel
    past that, and at fractional p, it is the adaptive ``_weighted_lp_power``.  Both are
    memoised, so the Hardy and boundary checks share their integrals.
    """
    if g.is_zero:
        return QuadResult(0.0, 0.0, 0, True)
    if math.isinf(upper) and not g.decays:
        raise ValueError("half-line integration requires a decaying profile")
    if p == int(p) and p <= _CLOSED_FORM_MAX_P:
        res = _closed_lp_power(g, int(p), gamma, upper)
        # at p != 2 an overflow (inf or NaN) falls back too: quadrature flags it as unconverged
        if p == 2 or res is not None and res.error_estimate <= rel_tol * abs(res.value) < math.inf:
            return res
    return _weighted_lp_power(g, p, gamma, upper, rel_tol)


def _profile_d_detail(
    f: Profile, d: int, orders: Sequence[int], p: float, r: float, aggregation: str, rel_tol: float,
    scale: float = 1.0,
) -> NormValue:
    # the weight is p ((d-1)/p + j), rounded once
    quads = [_lp_power(d_op(f, j), p, float(d - 1 + j * Fraction(p)), r, rel_tol) for j in orders]
    return _norm(quads, p, aggregation, scale)


def sobolev_profile_D(
    f: Profile,
    d: int,
    k: int,
    p: float,
    r: float,
    aggregation: str = "sum-of-norms",
    tol: float = 1e-10,
) -> float:
    """Weighted norms of radial-derivation powers of the profile on (0, r).

    The j-th summand is the L^p(0, r) norm of rho^((d-1)/p + j) (D^j f)(rho);
    ``aggregation`` selects the plain sum of norms or the (sum of p-th
    powers)^(1/p) form.  No sphere-area factor is included.  ``r`` may be
    ``math.inf`` for decaying profiles.
    """
    _check_domain(d, k, p, r, aggregation=aggregation)
    nv = _profile_d_detail(f, d, range(k + 1), p, r, aggregation, tol)
    return _converged_values("sobolev_profile_D", nv)[0]


def _profile_squared_detail(
    ft: SquaredProfile, d: int, orders: Sequence[int], p: float, r_squared: float,
    aggregation: str, rel_tol: float, scale: float = 1.0,
) -> NormValue:
    # the weight is p ((d-2)/(2p) + j/2), rounded once
    quads = [
        _lp_power(ft.derivative(j), p, float((d - 2 + j * Fraction(p)) / 2), r_squared, rel_tol)
        for j in orders
    ]
    return _norm(quads, p, aggregation, scale)


def sobolev_profile_squared(
    ft: SquaredProfile,
    d: int,
    k: int,
    p: float,
    r_squared: float,
    aggregation: str = "sum-of-norms",
    tol: float = 1e-10,
) -> float:
    """Weighted norms of derivatives of the squared-argument profile on (0, r^2).

    The j-th summand is the L^p(0, r^2) norm of s^((d-2)/(2p) + j/2) f~^(j)(s).
    ``r_squared`` may be ``math.inf`` for decaying profiles.
    """
    _check_domain(d, k, p, r_squared, aggregation=aggregation)
    nv = _profile_squared_detail(ft, d, range(k + 1), p, r_squared, aggregation, tol)
    return _converged_values("sobolev_profile_squared", nv)[0]


# ---------------------------------------------------------------------------
# L^p identity and homogeneous norms
# ---------------------------------------------------------------------------

def _route_triple(
    f: Profile, d: int, orders: Sequence[int], p: float, r: float, method: str, seed: int,
    samples: int, aggregation: str, rel_tol: float, constants: bool = False,
) -> tuple[NormValue, NormValue, NormValue]:
    """The def, D and squared routes of f(|x|) in R^d over the given derivative orders.

    With ``constants`` the p-th powers of the D and squared routes carry |S^(d-1)| and
    |S^(d-1)|/2 before the root, which makes all three one norm at k = 0.
    """
    if math.isinf(r) and not f.decays:
        raise ValueError("norms over all of space require strictly positive decay in every term")
    scale_d, scale_sq = (sphere_area(d), sphere_area(d) / 2.0) if constants else (1.0, 1.0)

    def squared() -> NormValue:
        if _square_overflows(f, r):
            return NormValue(math.nan, math.inf)
        return _profile_squared_detail(to_squared(f), d, orders, p, r * r, aggregation, rel_tol,
                                       scale_sq)

    return (_ball_def_detail(RadialField(d, f), orders, p, r, method, seed, samples, rel_tol),
            _profile_d_detail(f, d, orders, p, r, aggregation, rel_tol, scale_d), squared())


def _square_overflows(f, r: float) -> bool:
    """Whether the squared route of f over (0, r^2) cannot be taken in floats: r is finite
    but r^2 overflows, and f does not decay.  One that decays has vanished long before r^2,
    and its half-line value (r^2 = inf) is its value."""
    return math.isinf(r * r) and math.isfinite(r) and not f.decays


def _lp_oracle(
    field: RadialField, p: float, r: float, rel_tol: float
) -> tuple[NormValue, NormValue]:
    """The D and squared norms of ``lp_radial`` by adaptive quadrature.

    At integer p all three routes of ``lp_radial`` are closed form, and at
    p = 1 and 2 they reduce to the same incomplete gamma functions; these are
    the independent side that ``verify identities`` checks them against.
    """
    d, f = field.d, field.profile
    area = sphere_area(d)
    return (
        _norm([_weighted_lp_power(f, p, float(d - 1), r, rel_tol)], p, scale=area),
        _norm([_weighted_lp_power(to_squared(f), p, (d - 2) / 2, r * r, rel_tol)], p,
              scale=area / 2.0),
    )


def lp_radial(
    field: RadialField, p: float, r: float, tol: float = 1e-12
) -> tuple[float, float, float]:
    """The L^p norm of the field by its three equal-by-identity routes.

    Returns (value_def, value_D, value_squared): the k = 0 values of
    ``sobolev_ball_definition`` (closed form at integer p), and the roots of
    |S^(d-1)| times the p-th power of ``sobolev_profile_D`` and of |S^(d-1)|/2
    times that of ``sobolev_profile_squared``, which agree up to the combined
    error.  def and D are one computation, so they are equal; squared is
    independent.  At integer p all three are closed form.
    """
    _check_domain(p=p, r=r)
    detail = _route_triple(field.profile, field.d, [0], p, r, "exact-angular", DEFAULT_SEED, 0,
                           "p-power", tol, constants=True)
    return _converged_values("lp_radial", *detail)


def homogeneous_norm(
    f: Profile | RadialField,
    d: int,
    k: int,
    p: float,
    method: str = "exact-angular",
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    tol: float = 1e-10,
) -> tuple[float, float, float]:
    """Top-order norms over all of space, by the three routes.

    Returns (value_def_k_only, value_D, value_squared).  The definition
    route sums only the derivatives of order exactly k; the 1D routes carry
    the sphere-area constants, so at k = 0 all three coincide exactly.
    Requires every profile term to decay, and a RadialField in dimension d.
    """
    _check_domain(d, k, p, method=method)
    if isinstance(f, RadialField):
        if f.d != d:
            raise ValueError(f"the field is in dimension {f.d}, not d = {d}")
        f = f.profile
    detail = _route_triple(f, d, [k], p, math.inf, method, seed, samples, "p-power", tol,
                           constants=True)
    return _converged_values("homogeneous_norm", *detail)


# ---------------------------------------------------------------------------
# Hardy-type inequality checks
# ---------------------------------------------------------------------------

class InequalityReport(NamedTuple):
    """One evaluated weighted inequality: rhs terms, slack = rhs - lhs.

    ``converged`` is False when a quadrature behind either side missed tol.
    """

    name: str
    p: float
    r: float
    s: float
    lhs: float
    terms: tuple[float, ...]
    rhs: float
    slack: float
    quad_err: float
    converged: bool


def _hardy_integrals(f, p: float, r: float, s: float, tol: float):
    """The integrals int_0^r x^(ps) |f|^p and int_0^r x^(p(s+1)) |f'|^p, and whether both converged.

    Checks the domain of (p, r) and s > -1/p first.  The Hardy and the
    boundary estimates are both built from these two integrals.
    """
    _check_domain(p=p, r=r)
    if s <= -1.0 / p:
        raise ValueError(f"need s > -1/p = {-1.0 / p}, got {s}")
    zeroth = _lp_power(f, p, p * s, r, tol)
    grad = _lp_power(f.derivative(), p, p * (s + 1.0), r, tol)
    return zeroth, grad, zeroth.converged and grad.converged


def hardy_check(f, p: float, r: float, s: float, tol: float = 1e-12) -> InequalityReport:
    """Check the weighted Hardy inequality with its explicit constants.

    Interval form (finite r, any C^1 function in the term class):

        int_0^r x^(ps) |f|^p <= (p/(ps+1)) r^(ps+1) |f(r)|^p
                                + (p/(ps+1))^p int_0^r x^(p(s+1)) |f'|^p

    Passing r = math.inf selects the boundary-free half-line variant, which
    requires a decaying function.  ``f`` may be a Profile or a
    SquaredProfile.  Returns the evaluated sides; slack >= 0 up to
    quad_err, the error of its integrals, and the rounding of the sides.
    """
    lhs_res, grad_res, converged = _hardy_integrals(f, p, r, s, tol)
    const = p / (p * s + 1.0)
    if math.isinf(r):
        boundary = 0.0
        variant = "hardy-halfline"
    else:
        boundary = const * r ** (p * s + 1.0) * abs(f.eval(r)) ** p
        variant = "hardy-interval"
    gradient = const**p * grad_res.value
    rhs, lhs = boundary + gradient, lhs_res.value
    quad_err = lhs_res.error_estimate + const**p * grad_res.error_estimate
    return InequalityReport(variant, p, r, s, lhs, (boundary, gradient), rhs, rhs - lhs, quad_err,
                            converged)


def boundary_check(f, p: float, r: float, s: float, tol: float = 1e-12) -> InequalityReport:
    """Check the boundary-value estimate with its explicit constants.

        |f(r)|^p <= (2^(p-1) (s+1)^p / r^(ps+1)) int_0^r x^(ps) |f|^p
                    + (2^(p-1) / r^(ps+1)) int_0^r x^(p(s+1)) |f'|^p
    """
    if math.isinf(r):
        raise ValueError("the boundary estimate needs a finite radius")
    zeroth_res, grad_res, converged = _hardy_integrals(f, p, r, s, tol)
    scale = r ** (p * s + 1.0)
    if scale == 0.0:  # the constants' quotient overflows the float range
        raise OverflowError(f"r^(ps+1) = {r}^{p * s + 1.0} underflows to 0")
    front = 2.0 ** (p - 1.0) / scale
    zeroth = front * (s + 1.0) ** p * zeroth_res.value
    gradient = front * grad_res.value
    lhs, rhs = abs(f.eval(r)) ** p, zeroth + gradient
    quad_err = front * ((s + 1.0) ** p * zeroth_res.error_estimate + grad_res.error_estimate)
    return InequalityReport("boundary", p, r, s, lhs, (zeroth, gradient), rhs, rhs - lhs, quad_err,
                            converged)


# ---------------------------------------------------------------------------
# Corotational maps
# ---------------------------------------------------------------------------

def _corot_lhs_detail(F: CorotField, k: int, r: float) -> NormValue:
    return _form_norm(corot_angular_matrix, F.d, range(k + 1), F.profile, r)


def corot_lhs(F: CorotField, k: int, r: float) -> float:
    """H^k norm over the ball of the corotational map (p = 2 only).

    The component derivatives of each order form a quadratic form in the
    radial derivations of the profile: an exact angular matrix times
    closed-form radial moments, accurate to rounding.
    """
    _check_domain(k=k, r=r)
    return _corot_lhs_detail(F, k, r).value


def corot_rhs(f: Profile, d: int, k: int, r: float) -> float:
    """H^k norm over the ball in dimension d + 2 of the radial extension of f."""
    _check_domain(d, k, r=r)
    return _form_norm(angular_matrix, d + 2, range(k + 1), f, r).value


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _json_dumps(obj) -> str:
    """Strict JSON (no NaN or inf) with sorted keys and compact separators, newline-terminated."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


class ReportEntry(NamedTuple):
    label: str
    route: str
    value: float
    err: float
    method: str


class NormReport:
    """Per-(profile, route) values with pairwise ratio summaries.

    Serialises to JSON as {"params": ..., "entries": [...], "ratios":
    [{"pair", "min", "max"}, ...], "degenerate": [...]}, with null for a
    non-finite entry value or err; CSV writes the entries table only.
    """

    def __init__(self, params: dict):
        self.params = params
        self.entries: list[ReportEntry] = []
        self.ratios: list[dict] = []
        self.degenerate: list[dict] = []

    def to_json_dict(self) -> dict:
        return {
            "params": self.params,
            "entries": [
                {
                    "label": e.label,
                    "route": e.route,
                    "value": e.value if math.isfinite(e.value) else None,
                    "err": e.err if math.isfinite(e.err) else None,
                    "method": e.method,
                }
                for e in self.entries
            ],
            "ratios": self.ratios,
            "degenerate": self.degenerate,
        }

    def to_json(self) -> str:
        return _json_dumps(self.to_json_dict())

    def to_csv(self) -> str:
        import csv  # only CSV output needs it; a fresh `import radsob.cli` stays without it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "route", "method", "value", "err"])
        for e in self.entries:
            writer.writerow([e.label, e.route, e.method, repr(e.value), repr(e.err)])
        return buf.getvalue()

    def ratio_bounds(self, pair: str) -> tuple[float, float]:
        for row in self.ratios:
            if row["pair"] == pair:
                return row["min"], row["max"]
        raise KeyError(pair)


def _corpus_table(
    params: dict,
    corpus: Sequence[CorpusEntry],
    routes: Callable[[CorpusEntry], Sequence[tuple[str, str, NormValue]]],
    pairs: Sequence[tuple[str, str, str, int]],
) -> NormReport:
    """The report of a set of norm routes over a corpus, with ratio ranges.

    ``routes(entry)`` gives one (route, method, NormValue) per route of the
    entry's profile.  Each pair (name, numerator, denominator, power)
    becomes a ratio row with the min and max of (numerator /
    denominator)^power over the profiles, or nulls when none qualifies.
    ``params["r"]`` is the radius (finite when absent); at r = inf the report
    writes it as "inf", and a profile without decay is not admissible on the
    half-line.  Zero and inadmissible profiles get no entries; profiles
    with a non-finite (value or err), unconverged or zero norm keep their
    entries but stay out of the ratios.  All of them are listed under ``degenerate``.
    """
    halfline = math.isinf(params.get("r", 0.0))
    report = NormReport(dict(params, r="inf") if halfline else params)
    ratios: dict[str, list[float]] = {name: [] for name, _, _, _ in pairs}
    for entry in corpus:
        f = entry.profile
        reason = ("zero profile" if f.is_zero
                  else "no decay; not admissible on the half-line" if halfline and not f.decays
                  else None)
        if not reason:
            values = {}
            for route, method, nv in routes(entry):
                report.entries.append(ReportEntry(entry.label, route, nv.value, nv.err, method))
                values[route] = nv
            if not all(math.isfinite(v.value) and math.isfinite(v.err) for v in values.values()):
                reason = "non-finite norm"
            elif not all(v.converged for v in values.values()):
                reason = "unconverged quadrature"
            elif not all(v.value > 0 for v in values.values()):
                reason = "zero norm"
            else:
                for name, num, den, power in pairs:
                    # repeated products: x * x is correctly rounded, x ** 2 need not be
                    ratios[name].append(math.prod([values[num].value / values[den].value] * power))
        if reason:
            report.degenerate.append({"label": entry.label, "reason": reason})
    report.ratios = [
        {"pair": name, "min": min(vals, default=None), "max": max(vals, default=None)}
        for name, vals in sorted(ratios.items())
    ]
    return report


def equivalence_report(
    corpus: Sequence[CorpusEntry],
    d: int,
    k: int,
    p: float,
    r: float,
    method: str = "exact-angular",
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    tol: float = 1e-10,
    aggregation: str = "sum-of-norms",
) -> NormReport:
    """Three-route norm table over a corpus, with pairwise ratio ranges.

    For finite r the routes are the full order-k ball norms; with
    r = math.inf only the top order enters (the 1D routes then carry no
    sphere-area constants either way, so the k = 0 ratio def/D equals
    |S^(d-1)|^(1/p) exactly).  Degenerate profiles, those without decay at
    r = math.inf among them, are listed under ``degenerate`` (see
    ``_corpus_table``).
    """
    _check_domain(d, k, p, r, method, aggregation)
    params = {
        "report": "equivalence",
        "d": d,
        "k": k,
        "p": p,
        "r": r,
        "method": method,
        "seed": seed,
        "samples": samples,
        "tol": tol,
        "aggregation": aggregation,
    }
    orders = [k] if math.isinf(r) else range(k + 1)

    def routes(entry: CorpusEntry):
        v_def, v_D, v_sq = _route_triple(
            entry.profile, d, orders, p, r, method, seed, samples, aggregation, tol
        )
        return [("def", method, v_def), ("D", "exact-angular", v_D),
                ("squared", "exact-angular", v_sq)]

    pairs = [("def/D", "def", "D", 1), ("def/squared", "def", "squared", 1),
             ("D/squared", "D", "squared", 1)]
    return _corpus_table(params, corpus, routes, pairs)


def corot_report(
    corpus: Sequence[CorpusEntry],
    d: int,
    k: int,
    r: float,
) -> NormReport:
    """Corotational H^k norms against the (d+2)-dimensional radial norms.

    ``r`` may be ``math.inf``; the degenerate profiles are as in ``_corpus_table``.
    """
    _check_domain(d, k, r=r)
    check_multi_indices(d + 2, k)  # the rhs dimension, before any lhs matrix is built

    def routes(entry: CorpusEntry):
        lhs = _corot_lhs_detail(CorotField(d, entry.profile), k, r)
        rhs = _form_norm(angular_matrix, d + 2, range(k + 1), entry.profile, r)
        return [("lhs", "exact-angular", lhs), ("rhs", "exact-angular", rhs)]

    params = {"report": "corot", "d": d, "k": k, "p": 2, "r": r}
    pairs = [("lhs/rhs", "lhs", "rhs", 1), ("(lhs/rhs)^2", "lhs", "rhs", 2)]
    return _corpus_table(params, corpus, routes, pairs)
