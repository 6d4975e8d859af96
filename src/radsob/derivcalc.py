"""Partial derivatives of radial fields and the exact recovery machinery.

The forward direction expands any partial derivative of f(|x|) into a finite
sum of polynomial factors times powers of the radial derivation applied to f;
summed over all derivatives of one order, the squared factors integrate over
the sphere to an exact rational angular matrix of the p = 2 norm.  A
corotational map x f(|x|) is the gradient of a radial field, so its matrix is
the same expansion's one order up.
The backward direction inverts that expansion: an exact rational Gram matrix,
defined as a sum over all coordinate tuples of a given length and taken in
closed form, yields recovery coefficients q_alpha with

    |x|^n (D^n f)(|x|) = sum over |alpha| = n of q_alpha(x/|x|) d^alpha f(|x|).

Everything up to final evaluation is exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

from ._lazy import np
from .indexpoly import MonomialPoly, MultiIndex, enumerate_multi, multi_factorial
from .profile import RadialField, d_op
from .quad import sphere_moment_ratio

DEFAULT_ENUMERATION_BUDGET = 10**7


class BudgetExceededError(ValueError):
    """An enumeration of ``required`` items, described by ``what``, would exceed the budget."""

    def __init__(self, what: str, required: int, budget: int):
        super().__init__(f"enumeration of {what} exceeds budget {budget}")
        self.required = required
        self.budget = budget


def check_multi_indices(d: int, n: int) -> None:
    """Raise :class:`BudgetExceededError` when the order-n multi-indices in R^d exceed
    ``DEFAULT_ENUMERATION_BUDGET``.

    There are binomial(n + d - 1, d - 1) of them, increasing in n, so a check
    of the top order covers every lower one.
    """
    required = math.comb(n + d - 1, d - 1)
    if required > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"binomial({n + d - 1}, {d - 1}) = {required} multi-indices",
            required,
            DEFAULT_ENUMERATION_BUDGET,
        )


# ---------------------------------------------------------------------------
# Forward expansion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def forward_terms(d: int, alpha: MultiIndex) -> tuple[tuple[int, MonomialPoly], ...]:
    """Expansion data for the derivative d^alpha of a radial field in R^d.

    Returns pairs (j, P_j) with P_j = Laplacian^(n-j) x^alpha / (2^(n-j) (n-j)!)
    for j = ceil(n/2) .. n, zero polynomials dropped, so that

        d^alpha f(|x|) = sum_j P_j(x) * (D^j f)(|x|).

    Each P_j is homogeneous of degree 2j - n.  This is the one producer of
    the P_j: the angular matrices (corotational ones too), the Monte Carlo
    route, the partial derivatives and the recovery coefficients all read
    them from here.
    """
    n = sum(alpha)
    if len(alpha) != d:
        raise ValueError(f"multi-index has {len(alpha)} entries, expected {d}")
    poly = MonomialPoly.monomial(d, alpha)
    out = []
    for i in range(n // 2 + 1):  # one Laplacian chain: poly = Laplacian^i x^alpha
        scaled = poly * Fraction(1, 2**i * math.factorial(i))
        if not scaled.is_zero:
            out.append((n - i, scaled))
        poly = poly.laplacian()
    return tuple(reversed(out))


def partial_derivative(field: RadialField, alpha: MultiIndex, x: Sequence[float]) -> float:
    """Value of d^alpha applied to the radial field at x (x = 0 allowed)."""
    pt = np.asarray(x, dtype=float)
    if pt.shape != (field.d,) or len(alpha) != field.d:
        raise ValueError(f"point and multi-index must live in R^{field.d}")
    rho = float(np.linalg.norm(pt))
    total = 0.0
    for j, poly in forward_terms(field.d, tuple(alpha)):
        total += poly.eval(pt) * d_op(field.profile, j).eval(rho)
    return total


def profile_derivative_from_partials(field: RadialField, j: int, x: Sequence[float]) -> float:
    """The ordinary j-th profile derivative f^(j)(|x|) recovered from partials.

    Uses f^(j)(|x|) = sum over |alpha| = j of d^alpha f(|x|) * (j!/alpha!) * x^alpha / |x|^j,
    which requires x != 0.
    """
    if j < 0:
        raise ValueError("order must be >= 0")
    pt = np.asarray(x, dtype=float)
    rho = float(np.linalg.norm(pt))
    if rho == 0.0:
        raise ValueError("recovery from partial derivatives requires x != 0")
    total = 0.0
    jfact = math.factorial(j)
    for alpha in enumerate_multi(field.d, j):
        mono = float(np.prod(pt ** np.asarray(alpha)))
        total += partial_derivative(field, alpha, pt) * (jfact / multi_factorial(alpha)) * mono
    return total / rho**j


# ---------------------------------------------------------------------------
# Angular matrices of the p = 2 quadratic form
# ---------------------------------------------------------------------------

class AngularMatrix(NamedTuple):
    """Angular factor of the squared L^2 norm of all derivatives of one order.

    For expansions d^alpha u = sum_j P_j(x) (D^j f)(|x|) with P_j homogeneous
    of degree ``degrees[a]`` for j = ``js[a]``, ``entries[a][b]`` is the sum
    over the derivatives of the integral over the unit sphere of
    P_js[a] * P_js[b], divided by |S^(d-1)|, which makes it rational.  Then

        sum over the derivatives of int_{|x| < r} |d^alpha u|^2
            = |S^(d-1)| sum_{a,b} entries[a][b] * int_0^r rho^(d-1+degrees[a]+degrees[b])
                                                   (D^js[a] f)(rho) (D^js[b] f)(rho) d rho.
    """

    d: int
    n: int
    js: tuple[int, ...]
    degrees: tuple[int, ...]
    entries: tuple[tuple[Fraction, ...], ...]


def _orbits(d: int, n: int):
    """(alpha, count) for each multi-index alpha of order n in R^d with nonincreasing entries.

    These are the partitions of n into at most d parts, padded with zeros;
    ``count`` = d! / prod_v m_v!, with m_v the number of entries equal to v
    (zeros included), is the number of multi-indices that permute to alpha.
    """

    def parts(rest: int, slots: int, largest: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            if first * slots < rest:
                return
            for tail in parts(rest - first, slots - 1, first):
                yield (first, *tail)

    for head in parts(n, d, n):
        alpha = head + (0,) * (d - len(head))
        count = math.factorial(d)
        for v in set(alpha):
            count //= math.factorial(alpha.count(v))
        yield alpha, count


def _angular_form(d: int, n: int, expansions, counts=None) -> AngularMatrix:
    """Sum of the sphere averages of P_j * P_j' over expansions [(j, P_j), ...], j ascending.

    The k-th expansion counts ``counts[k]`` times (each once when ``counts``
    is None).  Every P_j of the expansions is homogeneous of degree 2j - n.
    """
    js = sorted({j for expansion in expansions for j, _ in expansion})
    pos = {j: a for a, j in enumerate(js)}
    acc = [[Fraction(0)] * len(js) for _ in js]
    for expansion, count in zip(expansions, counts or [1] * len(expansions), strict=True):
        for idx, (j, poly) in enumerate(expansion):
            for j2, poly2 in expansion[idx:]:
                acc[pos[j]][pos[j2]] += count * sum(
                    (c * sphere_moment_ratio(d, beta) for beta, c in (poly * poly2).coeffs.items()),
                    Fraction(0),
                )
    for a in range(len(js)):
        for b in range(a):
            acc[a][b] = acc[b][a]
    return AngularMatrix(
        d, n, tuple(js), tuple(2 * j - n for j in js), tuple(tuple(row) for row in acc)
    )


@lru_cache(maxsize=None)
def angular_matrix(d: int, n: int) -> AngularMatrix:
    """Angular matrix A(d, n) of the derivatives d^alpha f(|x|), |alpha| = n, of a radial field.

    Sphere averages do not change when the coordinates are permuted, so every
    alpha contributes what its sorted representative does: the sum runs over
    the partitions of n, each counted once per multi-index of its orbit.
    """
    check_multi_indices(d, n)
    alphas, counts = zip(*_orbits(d, n))
    return _angular_form(d, n, [forward_terms(d, alpha) for alpha in alphas], counts)


@lru_cache(maxsize=None)
def corot_angular_matrix(d: int, n: int) -> AngularMatrix:
    """Angular matrix B(d, n) of the derivatives d^alpha F_i, |alpha| = n, i = 1..d,
    of the corotational map F(x) = x f(|x|).

    F is the gradient of the radial G(|x|), G(rho) = int_0^rho s f(s) ds, whose DG = f, so
    d^alpha F_i = d^(alpha + e_i) G = sum_j P_j^(alpha + e_i)(x) (D^(j-1) f)(|x|), j >= 1.
    Each beta of order n + 1 is alpha + e_i for one pair (alpha, i) per nonzero entry of beta:
    B(d, n) is the orbit sum of A(d, n + 1) with that weight, each j lowered by one.
    """
    check_multi_indices(d, n)
    betas, counts = zip(*_orbits(d, n + 1))
    weights = [count * (d - beta.count(0)) for beta, count in zip(betas, counts)]
    form = _angular_form(d, n + 1, [forward_terms(d, beta) for beta in betas], weights)
    return form._replace(n=n, js=tuple(j - 1 for j in form.js))


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------

def _invert_exact(
    rows: Sequence[Sequence[Fraction]], name: str
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
    """Inverse and leading principal minors of a positive definite matrix, exactly.

    One Gauss-Jordan pass without row exchanges: the k-th pivot is the ratio
    of the k-th to the (k-1)-th leading minor, so the minors are the running
    products of the pivots, and a pivot <= 0 means the matrix ``name`` is
    not positive definite.
    """
    k = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(k)] for i, r in enumerate(rows)]
    minors = []
    for col in range(k):
        pivot = aug[col][col]
        if pivot <= 0:
            raise ValueError(f"{name} is not positive definite")
        minors.append(pivot * (minors[-1] if minors else 1))
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[k:]) for row in aug), tuple(minors)


class GramMatrix(NamedTuple):
    """Exact rational Gram matrix of the scaled-Laplacian coefficient vectors.

    ``entries[i][j]`` sums, over all d**n coordinate tuples I, the products of
    the i-th and j-th scaled repeated Laplacians of the coordinate-product
    monomial evaluated at the last basis vector; ``_gram`` takes that sum in
    closed form.  The inverse is exact and satisfies entries @ inverse ==
    identity in rational arithmetic.
    """

    d: int
    n: int
    entries: tuple[tuple[Fraction, ...], ...]
    inverse: tuple[tuple[Fraction, ...], ...]
    minors: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def leading_minors(self) -> list[Fraction]:
        """Determinants of the leading principal blocks (all positive for SPD)."""
        return list(self.minors)

    def as_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries])


@lru_cache(maxsize=None)
def _gram(d: int, n: int) -> GramMatrix:
    """The Gram matrix of (d, n) in closed form, without enumerating a multi-index.

    entries[i][j] sums n!/alpha! p^i(alpha) p^j(alpha) over |alpha| = n, with p^j(alpha) the
    coefficient of x_d^(n-2j) in Laplacian^j x^alpha / (2^j j!).  That coefficient is zero
    unless alpha = (2m_1, ..., 2m_(d-1), n - 2M) with M = sum m_l <= j, where it is
    prod_l (2m_l - 1)!! c_M(j - M), c_M(t) = C(n - 2M, 2t) (2t - 1)!! and (-1)!! = 1.  Over
    the m_l of one M, n!/alpha! prod_l (2m_l - 1)!!^2 sums to n!/(n - 2M)! times
    sum prod_l C(2m_l, m_l) / 4^m_l, the coefficient of x^M in (1 - x)^(-(d-1)/2).  So the
    matrix is V diag(w) V^T, w_M = n!/(n - 2M)! ((d - 1)/2)_M / M!, with V[i][M] = c_M(i - M)
    unit lower triangular: positive definite for every (d, n), its k-th leading minor
    w_0 ... w_(k-1).
    """
    size = n // 2 + 1
    w = [Fraction(math.perm(n, 2 * m) * math.prod(range(d - 1, d - 1 + 2 * m, 2)),
                  2**m * math.factorial(m)) for m in range(size)]
    V = [[math.comb(n - 2 * m, 2 * (i - m)) * math.prod(range(1, 2 * (i - m), 2))
          for m in range(i + 1)] for i in range(size)]
    entries = tuple(
        tuple(sum((w[m] * V[i][m] * V[j][m] for m in range(min(i, j) + 1)), Fraction(0))
              for j in range(size))
        for i in range(size)
    )
    inverse, minors = _invert_exact(entries, f"Gram matrix for (d={d}, n={n})")
    return GramMatrix(d, n, entries, inverse, minors)


def _check_order(d: int, n: int, budget: int) -> None:
    """Reject d < 2 or n < 1, and raise :class:`BudgetExceededError` when d**n, the tuples of
    the Gram matrix's defining sum (the closed form enumerates none), exceeds ``budget``."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    required = d**n
    if required > budget:
        raise BudgetExceededError(f"{d}^{n} = {required} coordinate tuples", required, budget)


def gram_matrix(d: int, n: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> GramMatrix:
    """Exact Gram matrix for dimension d >= 2 and derivative order n >= 1.

    The sum over the d**n coordinate tuples is taken in closed form (``_gram``), at a
    cost that does not depend on d; raises :class:`BudgetExceededError` when d**n
    exceeds ``budget``.
    """
    _check_order(d, n, budget)
    return _gram(d, n)


def solve_linear_system(
    d: int,
    n: int,
    lhs: Sequence,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[Fraction]:
    """Exact rational solution y of (Gram matrix) y = lhs.

    ``lhs`` must have floor(n/2) + 1 entries (ints, Fractions, or floats,
    which are converted exactly).
    """
    gram = gram_matrix(d, n, budget)
    if len(lhs) != gram.size:
        raise ValueError(f"right-hand side must have {gram.size} entries, got {len(lhs)}")
    rhs = [Fraction(v) for v in lhs]
    return [
        sum((row[j] * rhs[j] for j in range(gram.size)), Fraction(0))
        for row in gram.inverse
    ]


# ---------------------------------------------------------------------------
# Recovery coefficients
# ---------------------------------------------------------------------------

class RecoveryCoeffs(NamedTuple):
    """Map alpha -> q_alpha with |x|^n (D^n f)(|x|) = sum q_alpha(x/|x|) d^alpha f(|x|).

    Each q_alpha is a homogeneous polynomial: of degree 2n for even n and
    2n - 1 for odd n (parity under x -> -x forces the degree to share the
    parity of n, so the minimal uniform even-n/odd-n choice is used; on the
    unit sphere the homogenising radius factors are invisible).
    """

    d: int
    n: int
    polys: Mapping[MultiIndex, MonomialPoly]

    @property
    def target_degree(self) -> int:
        return 2 * self.n - (self.n % 2)


@lru_cache(maxsize=None)
def _recovery(d: int, n: int) -> RecoveryCoeffs:
    gram = _gram(d, n)
    ginv0 = gram.inverse[0]
    r2 = MonomialPoly.radius_squared(d)
    nfact = math.factorial(n)
    polys: dict[MultiIndex, MonomialPoly] = {}
    for alpha in enumerate_multi(d, n):
        acc = MonomialPoly.zero(d)
        for j, scaled in forward_terms(d, alpha):
            i = n - j  # scaled = Laplacian^i x^alpha / (2^i i!)
            lift = (n + 2 * i - (n % 2)) // 2  # homogenise to the target degree
            acc = acc + ginv0[i] * (scaled * r2**lift)
        polys[alpha] = Fraction(nfact, multi_factorial(alpha)) * acc
    return RecoveryCoeffs(d, n, polys)


def recovery_coeffs(
    d: int, n: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> RecoveryCoeffs:
    """Recovery coefficients q_alpha for all |alpha| = n in dimension d."""
    _check_order(d, n, budget)
    return _recovery(d, n)


def recover_Dn(field: RadialField, n: int, x: Sequence[float]) -> float:
    """|x|^n (D^n f)(|x|) reconstructed purely from partial derivatives at x.

    Requires x != 0 (the construction divides by |x|).
    """
    pt = np.asarray(x, dtype=float)
    rho = float(np.linalg.norm(pt))
    if rho == 0.0:
        raise ValueError("recovery requires x != 0")
    omega = pt / rho
    rc = recovery_coeffs(field.d, n)
    total = 0.0
    for alpha, q in rc.polys.items():
        qv = q.eval(omega)
        if qv:
            total += qv * partial_derivative(field, alpha, pt)
    return total
