"""Deterministic numerical integration and sphere integrals.

Provides adaptive 1D quadrature on intervals (composite 15-node
Gauss-Legendre panels with bisection refinement), two substitutions that
smooth an algebraic singularity at an end of the interval (x = u^m for a
weight x^gamma at 0, x = edge + h u^2 for |x - edge|^p), rigorous
truncation of half-line integrals from analytic envelopes, one closed-form
moment kernel (the incomplete gamma integral of x^(s-1) exp(-b x^q), q = 1
or 2, with an explicit rounding bound), exact surface areas and monomial
moments of the unit sphere, and seeded uniform samples of the sphere for
exponents without a closed angular form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from ._lazy import np

_EPS = 2.0**-52
_SHORT_DENOMINATOR = 100  # largest m that integrate_power_weight takes from gamma's rational form
_MAX_PANELS = 1 << 14  # panel budget of one integrate_1d call


class QuadratureConvergenceError(RuntimeError):
    """Raised when a quadrature cannot meet the requested tolerance."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


class QuadResult(NamedTuple):
    """Value of an integral together with its achieved error estimate."""

    value: float
    error_estimate: float
    subdivisions: int
    converged: bool = True


def _fsum(parts: list[float]) -> float:
    """math.fsum, or the plain float sum (inf or NaN) where fsum overflows or meets inf - inf."""
    try:
        return math.fsum(parts)
    except (OverflowError, ValueError):
        return sum(parts)


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 15-node Gauss-Legendre rule on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(15)


def _panel(g: Callable, a: float, b: float) -> float:
    nodes, weights = _gauss_legendre()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(weights, g(mid + half * nodes)))


def _panel_pair(g: Callable, lo: float, mid: float, hi: float) -> tuple[float, float]:
    """``(_panel(g, lo, mid), _panel(g, mid, hi))`` from one call of g on both panels' nodes."""
    nodes, weights = _gauss_legendre()
    m1, h1 = 0.5 * (lo + mid), 0.5 * (mid - lo)
    m2, h2 = 0.5 * (mid + hi), 0.5 * (hi - mid)
    vals = g(np.concatenate((m1 + h1 * nodes, m2 + h2 * nodes)))
    n = len(nodes)
    return h1 * float(np.dot(weights, vals[:n])), h2 * float(np.dot(weights, vals[n:]))


def rough_scale(g: Callable, a: float, b: float) -> float:
    """Single-panel estimate of the integral of |g|, for tolerance scaling."""
    return _panel(lambda x: np.abs(g(x)), a, b)


def composite_nodes(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a uniform composite 15-node Gauss-Legendre rule."""
    if panels < 1:
        raise ValueError("need at least one panel")
    rule_nodes, rule_weights = _gauss_legendre()
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mids[:, None] + half * rule_nodes[None, :]).ravel()
    weights = np.tile(half * rule_weights, panels)
    return nodes, weights


def integrate_1d(
    g: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> QuadResult:
    """Adaptive integral of g over [a, b] to absolute tolerance ``tol``.

    ``g`` must accept an ndarray of abscissae and return the values
    elementwise.  Panels are bisected until the coarse/fine discrepancy fits
    the panel's proportional share of ``tol`` (or the float64 noise floor of
    the panel values).  The returned ``error_estimate`` sums the accepted
    discrepancies, which conservatively bounds the true error for smooth
    integrands; each is floored at 4 eps times the absolute values of its
    two half-panel sums, their rounding, so that an unmeetable ``tol`` is
    flagged.  ``converged`` is False if any panel hit ``max_depth``, the call
    reached _MAX_PANELS panels (rounding noise above the noise floor would
    otherwise bisect toward 2^max_depth of them), or the total estimate
    exceeds ``tol``.  Both half-panels of a bisection come from one call of
    g.  The first non-finite panel sum ends it with a NaN value, an infinite
    error estimate and ``converged`` False.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"bad interval [{a}, {b}]")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    span = b - a
    state = {"panels": 1, "depth_ok": True}

    def recurse(lo: float, hi: float, coarse: float, depth: int) -> tuple[float, float]:
        mid = 0.5 * (lo + hi)
        left, right = _panel_pair(g, lo, mid, hi)
        state["panels"] += 2
        fine = left + right
        # floored at the rounding of the two panel sums: fine and coarse can agree
        # to the bit, and a zero estimate would meet any tol
        err = max(abs(fine - coarse), 4 * _EPS * (abs(left) + abs(right)))
        if not math.isfinite(err):
            raise FloatingPointError
        noise = 5e-15 * (abs(left) + abs(right) + abs(coarse))
        if err <= tol * (hi - lo) / span or err <= noise:
            return fine, err
        if depth >= max_depth or state["panels"] >= _MAX_PANELS:
            state["depth_ok"] = False
            return fine, err
        v1, e1 = recurse(lo, mid, left, depth + 1)
        v2, e2 = recurse(mid, hi, right, depth + 1)
        return v1 + v2, e1 + e2

    try:
        value, err = recurse(a, b, _panel(g, a, b), 1)
    except FloatingPointError:
        return QuadResult(math.nan, math.inf, state["panels"], False)
    converged = state["depth_ok"] and err <= tol
    return QuadResult(value, err, state["panels"], converged)


def integrate_power_weight(
    g: Callable,
    gamma: float,
    upper: float,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> QuadResult:
    """Integral of x^gamma * g(x) over (0, upper) for gamma > -1.

    Fractional weights are regularised by the substitution x = u^m, which
    turns x^gamma dx into m u^(m (gamma + 1) - 1) du.  For gamma < 0 within a
    few ulp of a rational with gamma + 1 = n/m in lowest terms, m <= 100,
    that m, so the new exponent n - 1 is a nonnegative integer and the
    integrand is smooth at 0 (products such as 3 * -0.1 miss -0.3 by an
    ulp).  Otherwise m = max(2, ceil(1/(gamma + 1))), which leaves a
    nonnegative power of u (m = 2 for gamma > 0 and at gamma = -1/2).
    Plain adaptive quadrature then applies.
    """
    if gamma <= -1:
        raise ValueError(f"weight exponent must be > -1, got {gamma}")
    if upper <= 0:
        raise ValueError("upper limit must be > 0")
    if gamma == int(gamma) and gamma >= 0:
        gi = int(gamma)
        return integrate_1d(lambda x: x**gi * g(x), 0.0, upper, tol, max_depth)
    short = Fraction(gamma).limit_denominator(_SHORT_DENOMINATOR)
    if -1 < short < 0 and abs(float(short) - gamma) <= 4 * math.ulp(gamma):
        m, expo = short.denominator, short.numerator + short.denominator - 1
    else:
        m = max(2, math.ceil(1.0 / (gamma + 1.0)))
        expo = m * gamma + m - 1  # >= 0 by choice of m

    def substituted(u):
        return m * u**expo * g(u**m)

    return integrate_1d(substituted, 0.0, upper ** (1.0 / m), tol, max_depth)


def integrate_power_edge(
    g: Callable,
    edge: float,
    end: float,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> QuadResult:
    """Integral of g over the interval between ``edge`` and ``end``, for g that behaves like
    |x - edge|^p at ``edge`` (|prof|^p at a sign change of prof, at fractional p >= 1).

    The substitution x = edge + (end - edge) u^2, u in [0, 1], turns |x - edge|^p dx into
    2 h^(p+1) u^(2p+1) du with h = |end - edge|: a polynomial at half-integer p and at least
    C^3 for every p >= 1, where in x the derivatives of order above p are unbounded at ``edge``
    and plain panels bisect toward it.  Plain adaptive quadrature then applies in u, as in
    ``integrate_power_weight``.
    """
    if not (math.isfinite(edge) and math.isfinite(end) and edge != end):
        raise ValueError(f"bad interval from {edge} to {end}")
    h = end - edge

    def substituted(u):
        return (2.0 * abs(h)) * u * g(edge + h * (u * u))

    return integrate_1d(substituted, 0.0, 1.0, tol, max_depth)


def truncation_point(
    tol: float,
    rate: float,
    env_coeff: float,
    env_power: int,
    q: int,
) -> tuple[float, float]:
    """Truncation point T and tail bound for a dominated half-line integrand.

    The integrand is assumed bounded by env_coeff * (1 + u^env_power) *
    exp(-rate * u^q) with rate > 0 and q >= 1 (q = 2 for profiles in rho,
    q = 1 for squared-argument profiles).  Returns (T, tail) with the
    analytic tail bound tail <= tol / 2, or (1, inf) when env_coeff is inf
    and no bound is known.
    """
    if rate <= 0:
        raise ValueError("decay rate must be > 0")
    if env_coeff < 0:
        raise ValueError("envelope coefficient must be >= 0")
    if env_coeff == 0:
        return 1.0, 0.0
    if env_coeff == math.inf:
        return 1.0, math.inf
    half = rate / 2.0
    # int_T^inf u^m e^(-r u^q) du <= e^(-r T^q / 2) Gamma((m+1)/q) / (q (r/2)^((m+1)/q)), in
    # logs, where Gamma or the power leaves the float range; K sums it over m = 0 and env_power
    l0, l1 = (math.lgamma((m + 1) / q) - math.log(q) - (m + 1) / q * math.log(half)
              for m in (0, env_power))
    log_K = math.log(env_coeff) + max(l0, l1) + math.log1p(math.exp(-abs(l0 - l1)))
    log_bound = math.log(tol / 2.0)
    if log_K <= log_bound:
        return 1.0, math.exp(log_K)
    # the gap widened by 2^-44 of the logs' size covers the rounding of the logs, of T and of
    # the tail's exponent, so that the tail stays within the bound
    gap = log_K - log_bound + 2.0**-44 * (1.0 + abs(log_K) + abs(log_bound))
    Tq = 2.0 * gap / rate
    # sqrt is correctly rounded, pow need not be
    T = max(math.sqrt(Tq) if q == 2 else Tq ** (1.0 / q), 1.0)
    # -(r/2) T^q rounded as (-(r/2) T) T ..., as a term list's float table rounds -b x^q
    return T, math.exp(log_K - half * T ** (q - 1) * T)


# ---------------------------------------------------------------------------
# Closed-form radial moments
# ---------------------------------------------------------------------------

def _pow(x: float, y: float) -> float:
    """x ** y, or inf where the power overflows the float range."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def _gauss_moment_full(s: float, b: Fraction, q: int) -> tuple[float, float]:
    """Gamma(a) / (q b^a) with a = s/q, the integral of x^(s-1) exp(-b x^q) over (0, inf).

    Returns the value and a relative error bound.  b is a Fraction, or a float equal to
    the rate.  At an integer or half-integer a the rational part is exact; otherwise it
    takes math.gamma (within 3.5 eps of Gamma over 40 000 random arguments in (0.01, 170),
    bounded here by 16 eps) and a float power of b.  A value, or a power of b, beyond the
    float range makes it inf.
    """
    twice = 2 * s / q  # exact: q is 1 or 2
    b = Fraction(b)
    try:
        if twice.is_integer():
            n, odd = divmod(int(twice), 2)
            if not odd:
                return float(Fraction(math.factorial(n - 1)) / (q * b**n)), _EPS
            # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
            c = Fraction(math.factorial(2 * n), q * 4**n * math.factorial(n)) / b**n
            return float(c) * math.sqrt(math.pi / float(b)), 3 * _EPS
        a = twice / 2
        # float(b) carries eps/2, which b^a turns into a eps/2; pow, division and product 3 eps
        return math.gamma(a) / (q * float(b) ** a), _EPS * (16.0 + a / 2 + 3.0)
    except OverflowError:
        return math.inf, _EPS


@lru_cache(maxsize=4096)
def _gauss_moment(
    s: float, b: Fraction, r: float, q: int = 2, s_err: float = 0.0
) -> tuple[float, float]:
    """Integral of x^(s-1) exp(-b x^q) over (0, r) for real s > 0, b >= 0, q in {1, 2}, r <= inf.

    Returns the value and a bound on its relative error.  b is a Fraction, or a float
    equal to the rate (whose hash is cheaper to take on each lookup).  At b = 0 it is
    r^s / s (a half-line then raises ValueError).  Otherwise, for finite r it is the lower
    incomplete gamma function gamma(a, x) / (q b^a) with a = s/q and x = b r^q
    (DLMF 8.2.1), summed from its series of positive terms (DLMF 8.7.1)

        r^s e^(-x) / s * sum_k x^k / ((a+1)(a+2)...(a+k)),

    unless the upper incomplete part is below eps / 8 of the whole (or x overflows),
    when the complete integral is returned.  ``s_err`` bounds the distance of s from the
    exponent meant, when s is a rounded sum: the bound then adds 2 s_err times a bound on
    |d ln(value) / ds|, which is ln r - (1/a + sum_k t_k H_k / sum_k t_k) / q on the series,
    H_k = 1/(a+1) + ... + 1/(a+k), and (psi(a) - ln b) / q on the complete integral (the
    factor 2 covers the second order, as s_err is a few ulp of s).  A power beyond the
    float range makes the value inf, or NaN, and never raises.
    """
    halfline = math.isinf(r)
    if not b:
        if halfline:
            raise ValueError("half-line integration requires a decaying profile")
        slope = 2 * (abs(math.log(r)) + 1.0 / s) if s_err else 0.0
        return _pow(r, s) / s, 2 * _EPS + s_err * slope
    a = s / q
    # psi(a) lies in (ln a - 1/a, ln a)
    full_slope = 2 * (abs(math.log(a)) + 1.0 / a + abs(math.log(float(b)))) / q if s_err else 0.0
    if halfline:
        full, full_rel = _gauss_moment_full(s, b, q)
        return full, full_rel + s_err * full_slope
    # relative error 1.5 eps, which moves the value by <= 1.5 eps x
    x = float(b) * r * r if q == 2 else float(b) * r
    if x > a + 1.0:
        # Gamma(a, x) <= x^(a-1) e^(-x) / (1 - max(a-1, 0)/x) for x > a - 1
        log_q = (a - 1.0) * math.log(x) - x - math.log1p(-max(a - 1.0, 0.0) / x) - math.lgamma(a)
        if not log_q >= math.log(_EPS / 8.0):  # an overflowing x makes log_q NaN
            full, full_rel = _gauss_moment_full(s, b, q)
            return full, full_rel + _EPS / 8.0 + s_err * full_slope
    terms = [1.0]
    t = 1.0
    k = 0
    moment = harmonic = weighted = 0.0
    while True:
        k += 1
        t = t * x / (a + k)
        terms.append(t)
        moment += k * t
        if s_err:
            harmonic += 1.0 / (a + k)
            weighted += t * harmonic
        # the sum is >= 1 and the remaining terms shrink by ratio <= 1/2 from here
        if t <= _EPS / 16.0 and x <= 0.5 * (a + k + 1):
            break
    total = math.fsum(terms)
    # term k carries 2k roundings, and 3k where a + k is inexact; the prefactor (pow, exp,
    # division, product) four
    kbar = moment / total
    steps = 1.0 if (2 * s / q).is_integer() else 1.5
    rel = _EPS * (steps * kbar + 1.5 * x + 4.0 + 1.0 / 16.0)
    if s_err:
        rel += 2 * s_err * (abs(math.log(r)) + (1.0 / a + weighted / total) / q)
    return _pow(r, s) * math.exp(-x) / s * total, rel


# ---------------------------------------------------------------------------
# Sphere integrals
# ---------------------------------------------------------------------------

def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d: 2 pi^(d/2) / Gamma(d/2)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@lru_cache(maxsize=None)
def sphere_monomial_moment(d: int, beta: tuple[int, ...]) -> float:
    """Surface integral of omega^beta over the unit sphere in R^d.

    Zero when any exponent is odd; otherwise
    2 * prod_i Gamma((beta_i + 1)/2) / Gamma((|beta| + d)/2).
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if len(beta) != d:
        raise ValueError(f"exponent tuple must have {d} entries, got {len(beta)}")
    if any(b < 0 for b in beta):
        raise ValueError("exponents must be >= 0")
    if any(b % 2 for b in beta):
        return 0.0
    num = 1.0
    for b in beta:
        num *= math.gamma((b + 1) / 2.0)
    return 2.0 * num / math.gamma((sum(beta) + d) / 2.0)


@lru_cache(maxsize=None)
def sphere_moment_ratio(d: int, beta: tuple[int, ...]) -> Fraction:
    """Average of omega^beta over the unit sphere in R^d, as an exact rational.

    Equals :func:`sphere_monomial_moment` divided by |S^(d-1)|: zero when
    any exponent is odd, otherwise prod_i (beta_i - 1)!! divided by
    d (d + 2) ... (d + |beta| - 2) (Folland, "How to integrate a polynomial
    over a sphere", Amer. Math. Monthly 108 (2001)).
    """
    if any(b % 2 for b in beta):
        return Fraction(0)
    num = 1
    for b in beta:
        num *= math.prod(range(1, b, 2))
    return Fraction(num, math.prod(range(d, d + sum(beta), 2)))


class _SphereSamplerFields(NamedTuple):
    d: int
    seed: int
    n: int


class SphereSampler(_SphereSamplerFields):
    """Reproducible uniform samples on the unit sphere in R^d.

    Identical (d, seed, n) always produce the identical sample array;
    points are normalised standard Gaussian vectors.
    """

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, d: int, seed: int, n: int):
        if d < 2:
            raise ValueError(f"dimension must be >= 2, got {d}")
        if n < 0:
            raise ValueError("sample count must be >= 0")
        return super().__new__(cls, d, seed, n)

    @cached_property
    def points(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        z = rng.standard_normal((self.n, self.d))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        pts = z / norms
        pts.flags.writeable = False
        return pts
