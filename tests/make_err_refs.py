"""Extended-precision references for the err audit of ``norms._weighted_lp_power``.

Each row of ``tests/test_norms.py::ERR_REFS`` (and of ``KINK_ERR_REFS``, the integer-p
Hardy integrals with sign changes that the closed form integrates piecewise, and of
``SCAN_FALLBACK_ERR_REFS``, on profiles whose sign changes the scan cannot certify) names one
integral over a builtin corpus profile (or one of ``SCAN_FALLBACK_PROFILES``) in d = 3: a D-
or squared-route integral, one of the two integrals of the Hardy and boundary checks, or the
p-th power of a k = 0 definition-route norm, whose reference is the norm itself.  Each row of
``P2_ERR_REFS`` names one p = 2 D- or squared-route integral in d = 3 or 4,
which radsob takes in closed form, and each row of ``FORM_ERR_REFS`` one p = 2
quadratic form of the definition route or of the corotational norm: the exact
rational entries A_ab of its angular matrix times |S^(d-1)| and the mpmath
integrals of rho^(d-1+deg_a+deg_b) D^(j_a)f D^(j_b)f, one per pair.  This script
recomputes its reference with mpmath at 50 digits, independently of radsob's
quadrature and root finder: the integrand's sign changes are found on a scan
grid offset from every rational point and refined by bisection, the integral
is split there, and runs at 50 and 65 digits must agree far below the printed
digits.

    PYTHONPATH=src python tests/make_err_refs.py

prints the rows with fresh references, ready to paste into the table.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_norms import (  # noqa: E402
    ERR_D, ERR_REFS, FORM_ERR_REFS, FORM_MATRICES, KINK_ERR_REFS, P2_ERR_REFS,
    SCAN_FALLBACK_ERR_REFS, err_route_integral,
)

from radsob.profile import builtin_corpus, d_op  # noqa: E402

DIGITS = 50
SCAN_CELLS = 4000
# the offset of the scan grid from 0, in cells: irrational, so no root at a rational lands on it
SCAN_OFFSET = (math.sqrt(5) - 1) / 2


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _bisect(g, a, b):
    """A root of g in [a, b], where g(a) and g(b) differ in sign, to the working precision."""
    sign_a = mpmath.sign(g(a))
    for _ in range(mpmath.mp.prec):
        mid = (a + b) / 2
        sign_mid = mpmath.sign(g(mid))
        if sign_mid == 0:
            return mid
        a, b = (mid, b) if sign_mid == sign_a else (a, mid)
    return (a + b) / 2


def _integral(prof, p: float, gamma: float, upper: float, digits: int):
    """The integral at ``digits`` digits, tanh-sinh on the pieces between sign changes."""
    with mpmath.workdps(digits):
        terms = [(_mp(Fraction(c)), a, _mp(Fraction(b))) for c, a, b in prof.terms]
        q = prof._q

        def g(x):
            return mpmath.fsum(c * x**a * mpmath.exp(-b * x**q) for c, a, b in terms)

        # roots past 40 lie where every decaying term is below e^(-40^q / 2)
        span = mpmath.mpf(upper) if math.isfinite(upper) else mpmath.mpf(40)
        h = span / SCAN_CELLS
        xs = [(i + mpmath.mpf(SCAN_OFFSET)) * h for i in range(SCAN_CELLS)]
        vals = [g(x) for x in xs]
        roots = []
        for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]):
            if v0 == 0:
                roots.append(x0)
            elif mpmath.sign(v0) == -mpmath.sign(v1):
                roots.append(_bisect(g, x0, x1))
        points = [mpmath.mpf(0), *roots, mpmath.mpf(upper) if math.isfinite(upper) else mpmath.inf]
        p_mp, gamma_mp = mpmath.mpf(p), mpmath.mpf(gamma)
        # x = u^m with m (gamma + 1) >= 1 leaves no negative power of u at 0, whose part
        # next to 0 tanh-sinh would drop (an x^-0.9 weight lost 4e-6 of its integral)
        m = max(1, math.ceil(1 / (gamma + 1)))
        u_points = [x ** (mpmath.mpf(1) / m) for x in points]
        value = mpmath.quad(
            lambda u: m * u ** (m * (gamma_mp + 1) - 1) * abs(g(u**m)) ** p_mp, u_points
        )
        return value, len(roots)


def _norm(integral, p: float, digits: int):
    """(|S^(d-1)| integral)^(1/p), the norm whose p-th power the integral is, in d = ERR_D."""
    with mpmath.workdps(digits):
        area = 2 * mpmath.pi ** (mpmath.mpf(ERR_D) / 2) / mpmath.gamma(mpmath.mpf(ERR_D) / 2)
        return (area * integral) ** (1 / mpmath.mpf(p))


def _form(matrix: str, d: int, n: int, label: str, r: float, digits: int):
    """|S^(d-1)| sum over a <= b of (2 - delta_ab) A_ab int_0^r rho^(d-1+deg_a+deg_b) D^(j_a)f
    D^(j_b)f at ``digits`` digits, each pair by tanh-sinh on its own, split at powers of two."""
    mat = FORM_MATRICES[matrix](d, n)
    f = {e.label: e.profile for e in builtin_corpus()}[label]
    with mpmath.workdps(digits):
        radial = [[(_mp(c), a, _mp(b)) for c, a, b in d_op(f, j).terms] for j in mat.js]

        def g(terms, x):
            return mpmath.fsum(c * x**a * mpmath.exp(-b * x * x) for c, a, b in terms)

        end = mpmath.mpf(r) if math.isfinite(r) else mpmath.inf
        points = [mpmath.mpf(0), *(mpmath.mpf(2) ** i for i in range(-1, 6) if 2**i < r), end]
        total = mpmath.mpf(0)
        for a in range(len(radial)):
            for b in range(a, len(radial)):
                if not mat.entries[a][b]:
                    continue
                m = d - 1 + mat.degrees[a] + mat.degrees[b]
                pair = mpmath.quad(lambda x: x**m * g(radial[a], x) * g(radial[b], x), points)
                total += (2 - (a == b)) * _mp(mat.entries[a][b]) * pair
        area = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
        return area * total


def _agreed(value, check) -> str:
    """``value`` to 30 digits, once the run at 15 more digits agrees far below them."""
    if abs(value - check) > mpmath.mpf(10) ** -40 * abs(check):
        raise RuntimeError(f"{DIGITS} and {DIGITS + 15} digits disagree: {value} against {check}")
    return mpmath.nstr(value, 30)


def reference(prof, p: float, gamma: float, upper: float, norm: bool = False) -> tuple[str, int]:
    """The integral of x^gamma |prof(x)|^p over (0, upper), or with ``norm`` its k = 0 norm in
    d = ERR_D, and the integrand's number of interior sign changes."""
    value, n_roots = _integral(prof, p, gamma, upper, DIGITS)
    check, _ = _integral(prof, p, gamma, upper, DIGITS + 15)
    if norm:
        value, check = _norm(value, p, DIGITS), _norm(check, p, DIGITS + 15)
    return _agreed(value, check), n_roots


def main() -> None:
    for table, s_text in (
        (ERR_REFS, repr), (KINK_ERR_REFS, lambda s: "KINK_S"), (SCAN_FALLBACK_ERR_REFS, repr)
    ):
        for label, route, j, p, r, s, _, _ in table:
            ref, n_roots = reference(*err_route_integral(label, route, j, p, r, s), norm=route == "def")
            r_text = "math.inf" if math.isinf(r) else repr(r)
            print(f'    ("{label}", "{route}", {j}, {p!r}, {r_text}, {s_text(s)}, "{ref}", {n_roots}),')
        print()
    for label, route, d, j, r, _ in P2_ERR_REFS:
        ref, _ = reference(*err_route_integral(label, route, j, 2.0, r, None, d))
        r_text = "math.inf" if math.isinf(r) else repr(r)
        print(f'    ("{label}", "{route}", {d}, {j}, {r_text}, "{ref}"),')
    print()
    for matrix, d, n, label, r, _ in FORM_ERR_REFS:
        ref = _agreed(_form(matrix, d, n, label, r, DIGITS), _form(matrix, d, n, label, r, DIGITS + 15))
        r_text = "math.inf" if math.isinf(r) else repr(r)
        print(f'    ("{matrix}", {d}, {n}, "{label}", {r_text}, "{ref}"),')


if __name__ == "__main__":
    main()
