"""Multi-index combinatorics and an exact sparse monomial polynomial algebra.

Exponent vectors are plain tuples of nonnegative ints.  A polynomial maps
exponent tuples to ``Fraction`` coefficients, so repeated Laplacians, Gram
matrices, and the recovery coefficients built on top of them stay exact;
floats only appear when a polynomial is evaluated at a point.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from ._lazy import np

MultiIndex = tuple[int, ...]
DIndex = tuple[int, ...]

Scalar = int | Fraction


def multi_length(alpha: MultiIndex) -> int:
    """|alpha| = alpha_1 + ... + alpha_d."""
    return sum(alpha)


def multi_factorial(alpha: MultiIndex) -> int:
    """alpha! = alpha_1! * ... * alpha_d!."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def enumerate_multi(d: int, n: int) -> list[MultiIndex]:
    """All multi-indices with d entries and |alpha| = n, in ascending lexicographic order.

    The list has binomial(n + d - 1, d - 1) elements and no duplicates.  The partial sums
    alpha_1 + ... + alpha_i, i < d, of the multi-indices are exactly the nondecreasing (d - 1)-
    tuples over 0..n, in the same lexicographic order, and the entries are their differences.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    return [tuple(map(operator.sub, (*sums, n), (0, *sums)))
            for sums in itertools.combinations_with_replacement(range(n + 1), d - 1)]


def enumerate_dindex(d: int, n: int) -> Iterator[DIndex]:
    """All coordinate tuples (i_1, ..., i_n) with entries in {1, ..., d}.

    There are exactly d**n of them; n = 0 yields the single empty tuple.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    return itertools.product(range(1, d + 1), repeat=n)


def collapse(index: DIndex, d: int) -> MultiIndex:
    """Multi-index counting how often each coordinate value occurs in ``index``."""
    counts = [0] * d
    for i in index:
        if not 1 <= i <= d:
            raise ValueError(f"coordinate {i} outside 1..{d}")
        counts[i - 1] += 1
    return tuple(counts)


class MonomialPoly:
    """Sparse polynomial over the rationals in d variables.

    Coefficients are stored in a dict keyed by exponent tuples, kept in
    ascending lexicographic order for deterministic iteration.  Zero
    coefficients are never stored, so the zero polynomial has an empty map
    and structural equality coincides with polynomial equality.  Instances
    are immutable; all arithmetic returns new objects.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Mapping[MultiIndex, Scalar] | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        cleaned: dict[MultiIndex, Fraction] = {}
        if coeffs:
            for alpha in sorted(coeffs):
                if len(alpha) != dim or any(a < 0 for a in alpha):
                    raise ValueError(f"bad exponent tuple {alpha} for dimension {dim}")
                c = Fraction(coeffs[alpha])
                if c != 0:
                    cleaned[tuple(alpha)] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "MonomialPoly":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value: Scalar) -> "MonomialPoly":
        return cls(dim, {(0,) * dim: Fraction(value)})

    @classmethod
    def monomial(cls, dim: int, alpha: MultiIndex, coeff: Scalar = 1) -> "MonomialPoly":
        return cls(dim, {tuple(alpha): Fraction(coeff)})

    @classmethod
    def variable(cls, dim: int, i: int) -> "MonomialPoly":
        """The coordinate polynomial x_i, for i in 1..dim."""
        if not 1 <= i <= dim:
            raise ValueError(f"coordinate {i} outside 1..{dim}")
        alpha = tuple(1 if j == i - 1 else 0 for j in range(dim))
        return cls.monomial(dim, alpha)

    @classmethod
    def radius_squared(cls, dim: int) -> "MonomialPoly":
        """x_1^2 + ... + x_d^2."""
        out: dict[MultiIndex, Fraction] = {}
        for i in range(dim):
            alpha = tuple(2 if j == i else 0 for j in range(dim))
            out[alpha] = Fraction(1)
        return cls(dim, out)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None if mixed or zero."""
        degrees = {sum(alpha) for alpha in self.coeffs}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialPoly):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.dim, tuple(self.coeffs.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"MonomialPoly({self.dim}, 0)"
        parts = " + ".join(f"{c}*x^{alpha}" for alpha, c in self.coeffs.items())
        return f"MonomialPoly({self.dim}, {parts})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MonomialPoly") -> "MonomialPoly":
        if not isinstance(other, MonomialPoly):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            out[alpha] = out.get(alpha, Fraction(0)) + c
        return MonomialPoly(self.dim, out)

    def __neg__(self) -> "MonomialPoly":
        return MonomialPoly(self.dim, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other: "MonomialPoly") -> "MonomialPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MonomialPoly):
            if self.dim != other.dim:
                raise ValueError("dimension mismatch")
            out: dict[MultiIndex, Fraction] = {}
            for a1, c1 in self.coeffs.items():
                for a2, c2 in other.coeffs.items():
                    key = tuple(x + y for x, y in zip(a1, a2))
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return MonomialPoly(self.dim, out)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MonomialPoly(self.dim, {a: v * c for a, v in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MonomialPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MonomialPoly.constant(self.dim, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def laplacian(self) -> "MonomialPoly":
        """Sum of second partials, term by term: x^a -> sum_i a_i (a_i - 1) x^(a - 2 e_i)."""
        out: dict[MultiIndex, Fraction] = {}
        for alpha, c in self.coeffs.items():
            for i, a_i in enumerate(alpha):
                if a_i >= 2:
                    key = alpha[:i] + (a_i - 2,) + alpha[i + 1 :]
                    out[key] = out.get(key, Fraction(0)) + c * a_i * (a_i - 1)
        return MonomialPoly(self.dim, out)

    def laplacian_power(self, j: int) -> "MonomialPoly":
        """j-fold repeated Laplacian."""
        if j < 0:
            raise ValueError("repetition count must be >= 0")
        out = self
        for _ in range(j):
            if out.is_zero:
                break
            out = out.laplacian()
        return out

    # -- evaluation --------------------------------------------------------

    def eval(self, x: Sequence[float]) -> float:
        """Floating-point value at the point x."""
        if len(x) != self.dim:
            raise ValueError(f"point dimension {len(x)} != {self.dim}")
        pt = [float(v) for v in x]
        total = 0.0
        for alpha, c in self.coeffs.items():
            term = float(c)
            for v, a in zip(pt, alpha):
                if a:
                    term *= v**a
            total += term
        return total

    def eval_exact(self, x: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point."""
        if len(x) != self.dim:
            raise ValueError(f"point dimension {len(x)} != {self.dim}")
        pt = [Fraction(v) for v in x]
        total = Fraction(0)
        for alpha, c in self.coeffs.items():
            term = c
            for v, a in zip(pt, alpha):
                if a:
                    term *= v**a
            total += term
        return total

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Values at an (N, d) array of points, as an (N,) float array."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected an (N, {self.dim}) array, got {pts.shape}")
        total = np.zeros(pts.shape[0])
        for alpha, c in self.coeffs.items():
            term = np.full(pts.shape[0], float(c))
            for i, a in enumerate(alpha):
                if a:
                    term *= pts[:, i] ** a
            total += term
        return total


def p_poly(index: DIndex, j: int, d: int) -> MonomialPoly:
    """Scaled repeated Laplacian of the coordinate-product monomial of ``index``.

    Returns (1 / (2^j j!)) * Laplacian^j (x_{i_1} ... x_{i_n}), which is
    homogeneous of degree n - 2j or identically zero.  Requires
    0 <= j <= floor(n / 2) where n = len(index).
    """
    n = len(index)
    if not 0 <= j <= n // 2:
        raise ValueError(f"j must lie in 0..{n // 2} for an index of length {n}, got {j}")
    mono = MonomialPoly.monomial(d, collapse(index, d))
    scale = Fraction(1, (2**j) * math.factorial(j))
    return mono.laplacian_power(j) * scale
