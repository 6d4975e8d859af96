"""Closed-form radial profiles: finite sums c * rho^a * exp(-b * rho^2).

This term class is closed under differentiation, multiplication, the
squared-argument substitution s = rho^2, and (on even profiles) the radial
derivation f -> f'(rho) / rho.  That closure is what lets every numeric
route in the package be cross-checked against an exact symbolic value.
Coefficients c and decay rates b are Fractions; floats appear only in a
``_TermTable``, the one float form of term lists (``eval``, the sign scan).

A profile is *even* when every power a is even; even profiles extend to
smooth radial functions of x through f(|x|) and carry a squared-argument
representative f~ with f(rho) = f~(rho^2).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from ._lazy import np
from .quad import _EPS, QuadratureConvergenceError, integrate_1d, rough_scale

Term = tuple[Fraction, int, Fraction]  # (coefficient, power, decay rate)


def _canonical_terms(terms: Iterable[Sequence]) -> tuple[Term, ...]:
    merged: dict[tuple[int, Fraction], Fraction] = {}
    for c, a, b in terms:
        if type(a) is not int:
            if a != int(a):  # int() alone would truncate a power such as 2.9
                raise ValueError(f"power must be an integer, got {a!r}")
            a = int(a)
        if a < 0:
            raise ValueError(f"power must be >= 0, got {a}")
        # products and derivatives hand in Fractions already: convert only the rest
        if type(b) is not Fraction:
            b = Fraction(b)
        if b < 0:
            raise ValueError(f"decay rate must be >= 0, got {b}")
        if type(c) is not Fraction:
            c = Fraction(c)
        key = (a, b)
        prev = merged.get(key)
        merged[key] = c if prev is None else prev + c
    return tuple(
        (c, a, b) for (a, b), c in sorted(merged.items()) if c != 0
    )


class _TermSum:
    """Sums of terms c * x^a * exp(-b * x^q); each subclass fixes the argument power q.

    ``eval`` is the row of the sum's own ``_TermTable``.  Subclasses bind ``eval`` and
    ``derivative`` in their own namespace, where the benchmark tracer wraps them per class.
    """

    __slots__ = ("terms", "_table", "_hash")

    def __init__(self, terms: Iterable[Sequence] = ()):
        object.__setattr__(self, "terms", _canonical_terms(terms))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_decay(self) -> Fraction | None:
        """Smallest decay rate over the terms; None for the zero function."""
        if not self.terms:
            return None
        return min(b for _, _, b in self.terms)

    @property
    def decays(self) -> bool:
        """Whether every term decays (b > 0), as integrals over the half-line require."""
        return all(b > 0 for _, _, b in self.terms)

    @property
    def coeff_abs_sum(self) -> Fraction:
        return sum((abs(c) for c, _, _ in self.terms), Fraction(0))

    @property
    def max_power(self) -> int:
        return max((a for _, a, _ in self.terms), default=0)

    def eval_at_zero_exact(self) -> Fraction:
        """Exact value at the origin (only a = 0 terms contribute)."""
        return sum((c for c, a, _ in self.terms if a == 0), Fraction(0))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # every lru_cache lookup hashes its profile: hash the Fraction terms once
        try:
            return self._hash
        except AttributeError:
            h = hash((type(self).__name__, self.terms))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*x^{a}*exp(-{b}*..)" for c, a, b in self.terms) or "0"
        return f"{type(self).__name__}[{body}]"

    def _binary(self, other, combine):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        return type(self)(combine(other))

    def __add__(self, other):
        return self._binary(other, lambda o: list(self.terms) + list(o.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)([(-c, a, b) for c, a, b in self.terms])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return type(self)([(c * s, a, b) for c, a, b in self.terms])
        if type(other) is type(self):
            return type(self)(
                [
                    (c1 * c2, a1 + a2, b1 + b2)
                    for c1, a1, b1 in self.terms
                    for c2, a2, b2 in other.terms
                ]
            )
        return NotImplemented

    __rmul__ = __mul__

    def _eval(self, x):
        """Value at x, a float or an ndarray, in x's shape: the value row of the sum's own
        ``_TermTable``, built on first use (so a coefficient beyond the float range raises
        OverflowError here, not in the constructor)."""
        try:
            table = self._table
        except AttributeError:
            table = _term_table(self)
            object.__setattr__(self, "_table", table)
        arr = np.asarray(x, dtype=float)
        points = arr.reshape(-1)
        out = table.rows(*table.factors(points, points))[0].reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out

    @lru_cache(maxsize=4096)
    def _derivative(self, j: int = 1):
        """Exact j-th derivative; the class is closed under differentiation.

        d/dx c x^a e^(-b x^q) = c a x^(a-1) e^(-b x^q) - q b c x^(a+q-1) e^(-b x^q).
        Memoised per (profile, j): the inequality checks and the kink scans ask for the
        same derivatives many times.
        """
        if j < 0:
            raise ValueError("derivative order must be >= 0")
        if j == 0:
            return self
        out = self._derivative(j - 1)  # memoised: each order is differentiated once
        q = self._q
        terms: list[Term] = []
        for c, a, b in out.terms:
            if a:
                terms.append((c * a, a - 1, b))
            if b:
                terms.append((-q * b * c, a + q - 1, b))
        return type(self)(terms)


class _TermTable(NamedTuple):
    """Term lists f_1, ..., f_R in floats: the one form in which radsob evaluates them.

    ``eval`` is the row of a list's own table; the sign scan evaluates (g, g') in one table
    and bounds (g', g'') with another.  Each exact (power, rate) pair is a column, in term
    order; row i of ``coef`` holds f_i's float coefficients (0 where it has no such term).
    A row's value at x is the sum from 0.0, in column order, of (c x^a) exp((-b x) x ...),
    with one x^a per distinct power and one exp per distinct rate: the same in every table
    where the other rows' terms are finite, and at each point whatever the call's other
    points.  ``size`` is |coef| (1 + eps), at least the exact coefficients' absolute values;
    ``rounding``, ``growth`` and ``floor`` are the parts of a row's rounding bound (``values``).
    """

    coef: np.ndarray  # (rows, columns, 1)
    size: np.ndarray  # (rows, columns)
    powers: tuple[int, ...]  # the distinct powers, and the index of each column's power in them
    power_of: tuple[int, ...]
    neg_rates: np.ndarray  # (distinct rates, 1) negated, and the row of each column's rate in it
    rate_of: np.ndarray
    rounding: np.ndarray  # (rows, 1)
    growth: np.ndarray
    floor: np.ndarray
    q: int

    def factors(self, x_pow, x_decay):
        """x_pow^a and exp(-b x_decay^q) for each column (a, b), at each point."""
        powered = [x_pow**a for a in self.powers]
        arg = self.neg_rates * x_decay  # -b x^q as (-b x) x ..., one rounding per factor
        for _ in range(1, self.q):
            arg *= x_decay
        decay = np.exp(arg, out=arg)
        if not self.neg_rates[0, 0]:
            decay[0] = 1.0  # a rate of 0 multiplies by nothing, even at x = inf
        return np.array([powered[i] for i in self.power_of]), decay[self.rate_of]

    def rows(self, powered, decay):
        """The rows' values at the points of ``factors``, one row per term list."""
        terms = self.coef * powered  # (rows, columns, points)
        terms *= decay
        # numpy adds the columns to 0.0 in order at each of several points, but pairwise at a
        # lone one, where add.accumulate keeps the order (+ 0.0 turns -0.0 into 0.0, as 0.0 +)
        if terms.shape[2] > 1:
            return terms.sum(axis=1, initial=0.0)
        return np.add.accumulate(terms, axis=1)[:, -1] + 0.0

    def values(self, x):
        """``rows`` at the 1-D array of points x, and bounds on their rounding errors.

        A term (c x^a) e^(-b x^q) rounds to within (4 + 1.5 b x^q) eps of itself (the
        exponent's 1.5 eps relative error grows by b x^q in exp), and the sum of n terms
        adds n eps / 2 of their absolute sum; with the coefficients' own rounding the
        bound is ``rounding`` + ``growth`` x^q = (n + 6 + 2 b_max x^q) eps times the sizes'
        sum.  Where the exp underflows it errs by up to 2^-1074, which adding 2^-1022 to it
        covers in that sum (the factor is at least 6 eps), and where x^a or a term underflows
        it errs by up to 2^-1074 |c| or 2^-1075: ``floor`` is 2^-1072 (sum |c| + n).
        """
        powered, decay = self.factors(x, x)
        factor = self.rounding + self.growth * (x * x if self.q == 2 else x)
        noise = factor * (self.size @ (powered * (decay + 2.0**-1022))) + self.floor
        return self.rows(powered, decay), noise

    def bounds(self, lo, hi):
        """sum |c| hi^a exp(-b lo^q) per row, c the exact coefficients: a bound of each row's
        absolute value over each [lo, hi]."""
        powered, decay = self.factors(hi, lo)
        return self.size @ (powered * decay)


def _term_table(*lists: _TermSum) -> _TermTable:
    """The _TermTable of the exact term lists ``lists``, all of one class; a list with no
    terms is a row of zeros."""
    keys = sorted({(a, b) for f in lists for _, a, b in f.terms}) or [(0, Fraction(0))]
    coef = np.zeros((len(lists), len(keys)))
    for i, f in enumerate(lists):
        for c, a, b in f.terms:
            coef[i, keys.index((a, b))] = float(c)  # OverflowError beyond the float range
    powers, column_rates = sorted({a for a, _ in keys}), [float(b) for _, b in keys]
    rates, size = sorted(set(column_rates)), np.abs(coef) * (1.0 + _EPS)
    n = np.array([[len(f.terms)] for f in lists])
    b_max = np.array([[float(max((b for _, _, b in f.terms), default=0))] for f in lists])
    return _TermTable(
        coef[:, :, None], size, tuple(powers), tuple(powers.index(a) for a, _ in keys),
        -np.array(rates).reshape(-1, 1), np.array([rates.index(b) for b in column_rates]),
        _EPS * (n + 6.0), 2 * _EPS * b_max, 2.0**-1072 * (size.sum(axis=1, keepdims=True) + n),
        lists[0]._q,
    )


class Profile(_TermSum):
    """f(rho) = sum of c * rho^a * exp(-b * rho^2) on [0, infinity)."""

    _q = 2
    eval = _TermSum._eval
    derivative = _TermSum._derivative

    @property
    def parity(self) -> str | None:
        """'even' / 'odd' when all powers share that parity, else None.

        The zero profile counts as even (and odd).
        """
        parities = {a % 2 for _, a, _ in self.terms}
        if parities <= {0}:
            return "even"
        if parities == {1}:
            return "odd"
        return None

    @property
    def is_even(self) -> bool:
        return all(a % 2 == 0 for _, a, _ in self.terms)


class SquaredProfile(_TermSum):
    """f~(s) = sum of c * s^a * exp(-b * s) on [0, infinity)."""

    _q = 1
    eval = _TermSum._eval
    derivative = _TermSum._derivative


def to_squared(f: Profile) -> SquaredProfile:
    """Squared-argument representative f~ with f(rho) = f~(rho^2); exact.

    Term by term, (c, a, b) becomes (c, a/2, b).  Requires an even profile.
    """
    if not f.is_even:
        raise ValueError("squared-argument substitution requires an even profile")
    return SquaredProfile([(c, a // 2, b) for c, a, b in f.terms])


def from_squared(ft: SquaredProfile) -> Profile:
    """Compose with rho^2: the even profile rho -> f~(rho^2)."""
    return Profile([(c, 2 * a, b) for c, a, b in ft.terms])


@lru_cache(maxsize=None)
def d_op(f: Profile, j: int = 1) -> Profile:
    """j-th power of the radial derivation f -> f'(rho)/rho, exactly.

    On even profiles the quotient extends smoothly through rho = 0, and the
    result equals 2^j times the j-th derivative of the squared-argument
    representative recomposed with rho^2; that is how it is computed here.
    """
    if j < 0:
        raise ValueError("order must be >= 0")
    if not f.is_even:
        raise ValueError("the radial derivation is defined on even profiles")
    scale = 2**j
    return Profile([(scale * c, 2 * a, b) for c, a, b in to_squared(f).derivative(j).terms])


def d_op_by_division(f: Profile, j: int = 1) -> Profile:
    """Same operation via literal differentiate-then-divide-by-rho steps.

    Kept as an independent exact route for cross-checks: the derivative of
    an even profile has every power >= 1, so dividing by rho is a plain
    power shift in the term list.
    """
    if not f.is_even:
        raise ValueError("the radial derivation is defined on even profiles")
    out = f
    for _ in range(j):
        dterms = out.derivative().terms
        if any(a < 1 for _, a, _ in dterms):
            raise ValueError("division by rho would leave the term class")
        out = Profile([(c, a - 1, b) for c, a, b in dterms])
    return out


def whitney_derivative(f: Profile, n: int, rho: float, tol: float = 1e-10) -> float:
    """Numeric value of f~^(n)(rho^2) from an integral over the even profile alone.

    Evaluates (1 / (2^(2n-1) (n-1)!)) * int_0^1 (1 - t^2)^(n-1) f^(2n)(t*rho) dt
    by adaptive quadrature.  ``tol`` is relative to a one-panel estimate of
    the integral of the integrand's absolute value (absolute when that is
    below 1).  Raises QuadratureConvergenceError with the achieved error
    estimate if the quadrature does not converge to it.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if rho <= 0:
        raise ValueError("rho must be > 0")
    if not f.is_even:
        raise ValueError("requires an even profile")
    f2n = f.derivative(2 * n)
    scale = 1.0 / (2 ** (2 * n - 1) * math.factorial(n - 1))

    def integrand(t):
        return (1.0 - t * t) ** (n - 1) * f2n.eval(t * rho)

    res = integrate_1d(integrand, 0.0, 1.0, tol=tol * max(1.0, rough_scale(integrand, 0.0, 1.0)))
    if not res.converged:
        raise QuadratureConvergenceError(
            "quadrature for the squared-argument derivative did not converge",
            estimate=res.error_estimate * scale,
        )
    return scale * res.value


class RadialField:
    """A dimension d >= 2 together with an even profile f, representing f(|x|)."""

    __slots__ = ("d", "profile")

    def __init__(self, d: int, profile: Profile):
        if d < 2:
            raise ValueError(f"dimension must be >= 2, got {d}")
        if not profile.is_even:
            raise ValueError("radial fields require an even profile")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "profile", profile)

    def __setattr__(self, name, value):
        raise AttributeError("RadialField is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadialField):
            return NotImplemented
        return self.d == other.d and self.profile == other.profile

    def __hash__(self) -> int:
        return hash((self.d, self.profile))

    def __repr__(self) -> str:
        return f"RadialField(d={self.d}, {self.profile!r})"

    def eval(self, x) -> float:
        pt = np.asarray(x, dtype=float)
        if pt.shape != (self.d,):
            raise ValueError(f"expected a point in R^{self.d}, got shape {pt.shape}")
        return float(self.profile.eval(float(np.linalg.norm(pt))))


# ---------------------------------------------------------------------------
# Profile corpus
# ---------------------------------------------------------------------------

class CorpusEntry(NamedTuple):
    label: str
    profile: Profile


BUILTIN_CORPUS_SEED = 20240001

_CANONICAL = [
    CorpusEntry("one", Profile([(1, 0, 0)])),
    CorpusEntry("rho2", Profile([(1, 2, 0)])),
    CorpusEntry("gauss", Profile([(1, 0, 1)])),
    CorpusEntry("rho4_gauss2", Profile([(3, 4, 2)])),
]


def builtin_corpus() -> list[CorpusEntry]:
    """Fixed, seeded corpus of 24 even profiles.

    Four canonical profiles plus twenty generated ones with coefficients in
    [-2, 2] (eighths), powers in {0, 2, 4, 6} and decay rates in
    {0, 1/2, 1, 2}.  Even-numbered generated entries use strictly positive
    decay in every term so they are admissible on the half-line.  The list
    is deterministic: same seed, same corpus.
    """
    import random

    rng = random.Random(BUILTIN_CORPUS_SEED)
    entries = list(_CANONICAL)
    powers = [0, 2, 4, 6]
    decaying = [Fraction(1, 2), Fraction(1), Fraction(2)]
    all_decays = [Fraction(0)] + decaying
    for idx in range(20):
        decays = decaying if idx % 2 == 0 else all_decays
        terms = []
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randrange(-16, 17), 8)
            if c == 0:
                c = Fraction(1, 2)
            terms.append((c, rng.choice(powers), rng.choice(decays)))
        prof = Profile(terms)
        if prof.is_zero:  # cancellation after merging; keep the corpus nonzero
            prof = Profile([(Fraction(1, 2), 2, Fraction(1))])
        entries.append(CorpusEntry(f"seed{idx:02d}", prof))
    return entries


def halfline_corpus(entries: Sequence[CorpusEntry] | None = None) -> list[CorpusEntry]:
    """Corpus entries whose every term decays, i.e. admissible on (0, infinity)."""
    if entries is None:
        entries = builtin_corpus()
    return [e for e in entries if not e.profile.is_zero and e.profile.decays]


def rational_to_json(x: Fraction) -> int | str:
    """An integer as a JSON number, any other rational as an exact "p/q" string."""
    return x.numerator if x.denominator == 1 else str(x)


def save_corpus(entries: Sequence[CorpusEntry], path: str | Path) -> None:
    """Write a corpus file: a JSON array of {"terms": [[c, a, b], ...], "label": ...}.

    Coefficients and decay rates are written exactly (see :func:`rational_to_json`).
    """
    doc = [
        {
            "terms": [
                [rational_to_json(c), a, rational_to_json(b)] for c, a, b in e.profile.terms
            ],
            "label": e.label,
        }
        for e in entries
    ]
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_corpus(path: str | Path) -> list[CorpusEntry]:
    """Read a corpus file written by :func:`save_corpus` (or by hand).

    Coefficients and decay rates may be JSON numbers or "p/q" strings, and must be finite;
    powers are integers, and no term number is a JSON boolean.  A malformed entry is a
    ValueError naming its label, or its position when it has none.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, list):
        raise ValueError("corpus file must contain a JSON array")
    entries = []
    for i, item in enumerate(doc):
        name = repr(str(item["label"])) if isinstance(item, dict) and "label" in item else f"#{i}"
        try:
            if not isinstance(item, dict) or "terms" not in item or "label" not in item:
                raise ValueError('an entry must be an object with "terms" and "label"')
            terms = item["terms"]
            if not (isinstance(terms, list) and all(isinstance(t, list) for t in terms)):
                raise ValueError('"terms" must be a list of [c, a, b] lists')
            if any(isinstance(v, bool) for term in terms for v in term):
                raise ValueError("a term number must not be a boolean")  # Fraction(True) is 1
            if any(isinstance(v, float) and not math.isfinite(v) for term in terms for v in term):
                raise ValueError("every term number must be finite")
            profile = Profile([(Fraction(c), a, Fraction(b)) for c, a, b in terms])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"corpus entry {name}: {exc}") from None
        entries.append(CorpusEntry(str(item["label"]), profile))
    return entries
