import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from radsob import quad
from radsob.quad import (
    QuadResult,
    SphereSampler,
    _panel,
    _panel_pair,
    composite_nodes,
    integrate_1d,
    integrate_power_edge,
    integrate_power_weight,
    sphere_area,
    sphere_moment_ratio,
    sphere_monomial_moment,
    truncation_point,
)


class TestIntegrate1d:
    def test_square(self):
        res = integrate_1d(lambda x: x**2, 0.0, 1.0, tol=1e-13)
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_radial_weight(self):
        res = integrate_1d(lambda x: x**2, 0.0, 2.0)
        assert res.value == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_gaussian_moment(self):
        res = integrate_1d(lambda x: x * np.exp(-x * x), 0.0, 12.0, tol=1e-13)
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_panel_exact_on_degree_25(self):
        # one 15-node panel integrates polynomials up to degree 29 exactly
        for deg in (10, 19, 25):
            got = _panel(lambda x: x**deg, 0.0, 1.0)
            assert got == pytest.approx(1.0 / (deg + 1), rel=1e-13)

    def test_kink_converges(self):
        res = integrate_1d(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, tol=1e-11)
        want = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
        assert res.converged
        assert res.value == pytest.approx(want, abs=1e-11)

    def test_error_estimate_invariants(self):
        res = integrate_1d(lambda x: np.sin(3 * x), 0.0, 2.0, tol=1e-11)
        assert res.error_estimate >= 0
        assert res.converged
        assert res.error_estimate <= 1e-11

    def test_estimate_floored_at_rounding(self):
        # a constant's fine and coarse panel sums agree to the bit; an estimate of
        # exactly zero would meet any tol
        res = integrate_1d(np.ones_like, 0.0, 1.0, tol=1e-30)
        assert not res.converged
        assert 0 < res.error_estimate <= 1e-15

    def test_depth_exhaustion_is_unconverged(self):
        # the kink at 1/3 keeps its panel above its share of tol at every depth while
        # the total estimate meets tol, so only the exhausted depth flags the result
        tol = 1e-4
        res = integrate_1d(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, tol=tol, max_depth=2)
        assert res.converged is False
        assert 0 < res.error_estimate <= tol
        assert math.isfinite(res.value)

    def test_determinism(self):
        f = lambda x: np.exp(-x) * np.cos(5 * x)
        a = integrate_1d(f, 0.0, 3.0, tol=1e-12)
        b = integrate_1d(f, 0.0, 3.0, tol=1e-12)
        assert a == b

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 1.0, 0.0)

    @pytest.mark.parametrize(
        "g",
        [
            lambda x: np.full_like(x, 1e200) ** 2,  # overflow everywhere
            lambda x: np.where(x > 0.7, np.nan, x),  # NaN on a subinterval
            lambda x: 1.0 / (x - 0.5) ** 2 * (np.abs(x - 0.5) > 1e-3) * 1e306,  # overflow near a point
        ],
    )
    def test_non_finite_panel_stops_at_once(self, g):
        with np.errstate(all="ignore"):
            res = integrate_1d(g, 0.0, 1.0, tol=math.inf, max_depth=12)
        assert not res.converged
        assert math.isnan(res.value)
        assert res.error_estimate == math.inf
        # the first non-finite panel ends the bisection, long before every branch
        # reaches max_depth (2^12 panels and more)
        assert res.subdivisions <= 2 * 12 + 1


    def test_noise_above_the_floor_stops_at_the_panel_budget(self):
        # an unresolved oscillation of relative size 1e-10 stays above the 5e-15 noise floor
        # down to panels of about 1e-6, so without a budget the bisection would run toward
        # 2^25 panels
        calls = []

        def noisy(x):
            calls.append(len(x))
            if len(calls) > 4 * quad._MAX_PANELS:
                raise RuntimeError("the bisection ran past its panel budget")
            return 1.0 + 1e-10 * np.sin(1e6 * x)

        res = integrate_1d(noisy, 0.0, 1.0, tol=1e-30)
        assert res.converged is False
        assert quad._MAX_PANELS <= res.subdivisions <= quad._MAX_PANELS + 2 * 40
        assert res.value == pytest.approx(1.0, rel=1e-9)


def _integrate_1d_two_calls(g, a, b, tol=1e-10, max_depth=40):
    """integrate_1d as it was with one call of g per half-panel, for bitwise comparison."""
    span = b - a
    state = {"panels": 1, "depth_ok": True}

    def recurse(lo, hi, coarse, depth):
        mid = 0.5 * (lo + hi)
        left = _panel(g, lo, mid)
        right = _panel(g, mid, hi)
        state["panels"] += 2
        fine = left + right
        err = max(abs(fine - coarse), 4 * 2.0**-52 * (abs(left) + abs(right)))
        if not math.isfinite(err):
            raise FloatingPointError
        noise = 5e-15 * (abs(left) + abs(right) + abs(coarse))
        if err <= tol * (hi - lo) / span or err <= noise:
            return fine, err
        if depth >= max_depth:
            state["depth_ok"] = False
            return fine, err
        v1, e1 = recurse(lo, mid, left, depth + 1)
        v2, e2 = recurse(mid, hi, right, depth + 1)
        return v1 + v2, e1 + e2

    try:
        value, err = recurse(a, b, _panel(g, a, b), 1)
    except FloatingPointError:
        return QuadResult(math.nan, math.inf, state["panels"], False)
    return QuadResult(value, err, state["panels"], state["depth_ok"] and err <= tol)


class TestPanelPair:
    """Both half-panels of a bisection come from one call of the integrand."""

    INTEGRANDS = [
        lambda x: np.exp(-x) * np.cos(5 * x),
        lambda x: np.abs(x - 1.0 / 3.0) ** 1.5,
        lambda x: x**7 - 3 * x**2,
    ]

    @pytest.mark.parametrize("g", INTEGRANDS)
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.3, 0.30001), (-2.5, 7.0)])
    def test_pair_equals_two_panels_bit_for_bit(self, g, lo, hi):
        mid = 0.5 * (lo + hi)
        assert _panel_pair(g, lo, mid, hi) == (_panel(g, lo, mid), _panel(g, mid, hi))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_one_call_per_bisection_and_the_same_result(self, corpus, p):
        for entry in corpus:
            f = entry.profile
            g = lambda x: x**2 * np.abs(f.eval(x)) ** p
            tol = 1e-10 * max(quad.rough_scale(g, 0.0, 1.5), 1e-60)
            calls = []

            def spy(x):
                calls.append(len(x))
                return g(x)

            res = integrate_1d(spy, 0.0, 1.5, tol)
            bisections = (res.subdivisions - 1) // 2
            assert calls == [15] + [30] * bisections, entry.label
            want = _integrate_1d_two_calls(g, 0.0, 1.5, tol)
            assert res == want, entry.label


class TestPowerWeight:
    def test_inverse_sqrt(self):
        res = integrate_power_weight(lambda x: np.ones_like(x), -0.5, 1.0, tol=1e-12)
        assert res.value == pytest.approx(2.0, abs=1e-11)

    def test_half_power(self):
        res = integrate_power_weight(lambda x: x**2, 0.5, 1.0, tol=1e-12)
        assert res.value == pytest.approx(1.0 / 3.5, abs=1e-12)

    def test_integer_direct(self):
        res = integrate_power_weight(lambda x: np.exp(-x), 2.0, 30.0, tol=1e-12)
        assert res.value == pytest.approx(2.0, abs=1e-10)

    def test_rejects_nonintegrable(self):
        with pytest.raises(ValueError):
            integrate_power_weight(lambda x: x, -1.0, 1.0)

    @pytest.mark.parametrize(
        "gamma", [-0.3, -0.7, -0.37, 3 * -0.1, 1.5 * -0.3, 0.55, 1.25, 0.123456789]
    )
    def test_fractional_weights_converge(self, gamma):
        res = integrate_power_weight(lambda x: 1.0 + x, gamma, 2.0, tol=1e-13)
        want = 2.0 ** (gamma + 1) / (gamma + 1) + 2.0 ** (gamma + 2) / (gamma + 2)
        assert res.converged
        assert res.value == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "gamma, m",
        [(-0.5, 2), (1.5, 2), (-0.3, 10), (-0.7, 10), (-0.37, 100), (3 * -0.1, 10),
         (1.5 * -0.3, 20), (0.55, 2), (1.25, 2), (0.37, 2), (-0.123456789, 2),
         (-0.9999999999999999, 2**53)],
    )
    def test_substitution_exponent(self, gamma, m, monkeypatch):
        # x = u^m: for gamma < 0 the denominator of gamma + 1 when gamma is within a few
        # ulp of a rational with denominator at most 100, else max(2, ceil(1/(gamma + 1)))
        seen = []

        def spy(g, a, b, tol, max_depth):
            seen.append(b)
            return QuadResult(0.0, 0.0, 1, True)

        monkeypatch.setattr(quad, "integrate_1d", spy)
        integrate_power_weight(lambda x: x, gamma, 4.0)
        assert seen == [4.0 ** (1.0 / m)]


class TestPowerEdge:
    @pytest.mark.parametrize("p", [1.5, 1.3, 2.5, 7.5])
    @pytest.mark.parametrize("edge, end", [(0.3, 1.0), (0.3, -0.2)])
    def test_power_at_either_end(self, p, edge, end):
        # |x - edge|^p over the interval from edge to end, with end on either side of edge
        res = integrate_power_edge(lambda x: np.abs(x - edge) ** p, edge, end, tol=1e-13)
        assert res.converged
        assert res.value == pytest.approx(abs(end - edge) ** (p + 1) / (p + 1), rel=1e-13)

    def test_half_integer_power_is_a_polynomial_in_u(self):
        # 2 h^(p+1) u^(2p+1) at p = 1.5 is u^4: the first bisection meets the tolerance, where
        # plain panels bisect toward the edge
        g = lambda x: (x - 0.25) ** 1.5  # noqa: E731
        mapped = integrate_power_edge(g, 0.25, 1.0, tol=1e-13)
        plain = integrate_1d(g, 0.25, 1.0, tol=1e-13)
        assert mapped.subdivisions == 3
        assert plain.subdivisions > 10 * mapped.subdivisions
        assert mapped.value == pytest.approx(0.75**2.5 / 2.5, rel=1e-14)

    def test_smooth_factor_times_power(self):
        # e^x |x - 1|^1.3 from 1 down to 0 against mpmath
        res = integrate_power_edge(lambda x: np.exp(x) * np.abs(x - 1.0) ** 1.3, 1.0, 0.0, 1e-13)
        with mpmath.workdps(30):
            want = mpmath.quad(lambda x: mpmath.exp(x) * (1 - x) ** mpmath.mpf(1.3), [0, 1])
        assert res.converged
        assert abs(res.value - float(want)) <= max(res.error_estimate, 1e-15)

    @pytest.mark.parametrize("edge, end", [(1.0, 1.0), (math.inf, 0.0), (0.0, math.nan)])
    def test_bad_interval(self, edge, end):
        with pytest.raises(ValueError):
            integrate_power_edge(np.ones_like, edge, end)


class TestHalfline:
    """Half-line integrals as the routes take them: quadrature up to the
    truncation point T, with the tail beyond T bounded analytically."""

    def test_gaussian(self):
        T, _ = truncation_point(1e-11, 1.0, 1.0, 0, 2)
        res = integrate_1d(lambda x: np.exp(-x * x), 0.0, T, 5e-12)
        assert res.value == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-10)
        assert res.converged

    def test_gaussian_second_moment(self):
        T, _ = truncation_point(1e-11, 1.0, 1.0, 2, 2)
        res = integrate_1d(lambda x: x**2 * np.exp(-x * x), 0.0, T, 5e-12)
        assert res.value == pytest.approx(math.sqrt(math.pi) / 4, abs=1e-10)

    def test_zero(self):
        assert truncation_point(1e-12, 1.0, 0.0, 0, 2) == (1.0, 0.0)

    def test_exponential_decay(self):
        T, _ = truncation_point(1e-11, 1.0, 1.0, 0, 1)
        res = integrate_1d(lambda x: np.exp(-x), 0.0, T, 5e-12)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_weighted(self):
        # the weight x^(1/2) enters the envelope as x^1
        T, _ = truncation_point(1e-11, 1.0, 1.0, 1, 1)
        res = integrate_power_weight(lambda x: np.exp(-x), 0.5, T, 5e-12)
        assert res.value == pytest.approx(math.gamma(1.5), abs=1e-9)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            truncation_point(1e-10, 0.0, 1.0, 0, 2)

    def test_truncation_tail_bound(self):
        T, tail = truncation_point(1e-10, 2.0, 5.0, 6, 2)
        assert T >= 1.0
        assert tail <= 5e-11
        # the bound really dominates the tail
        rest = integrate_1d(lambda x: 5.0 * (1 + x**6) * np.exp(-2 * x * x), T, T + 10.0)
        assert rest.value <= tail + 1e-15

    def test_truncation_tail_bound_exponential(self):
        # q = 1: the envelope of a squared-argument profile, exp(-rate * u)
        T, tail = truncation_point(1e-10, 2.0, 5.0, 6, 1)
        assert T >= 1.0
        assert tail <= 5e-11
        rest = integrate_1d(lambda x: 5.0 * (1 + x**6) * np.exp(-2 * x), T, T + 60.0, 1e-16)
        assert 0 < rest.value <= tail
        # and the bound is not loose by more than the e^(r T / 2) it gives away
        assert tail <= rest.value * math.exp(T) * 1e3

    def test_overflowing_envelope_has_no_bound(self):
        assert truncation_point(1e-10, 1.0, math.inf, 6, 2) == (1.0, math.inf)

    @pytest.mark.parametrize("coeff, power, rate", [(1e308, 6, 1.0), (1.0, 324, 1.5)])
    def test_overflowing_moment_factor_keeps_a_bound(self, coeff, power, rate):
        # the tail factor K overflows the float range while the envelope is finite: at 1e308
        # times 38.9, and at Gamma(162.5) / 0.75^162.5
        T, tail = truncation_point(1e-10, rate, coeff, power, 2)
        assert math.isfinite(T) and tail <= 5e-11
        with mpmath.workdps(30):
            rest = mpmath.quad(
                lambda u: coeff * (1 + u**power) * mpmath.exp(-rate * u * u), [T, mpmath.inf]
            )
        assert 0 < rest <= tail


class TestSphere:
    def test_areas(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)

    def test_moment_consistency_with_area(self):
        for d in (2, 3, 4, 5):
            assert sphere_monomial_moment(d, (0,) * d) == pytest.approx(sphere_area(d), rel=1e-14)

    def test_moment_examples(self):
        assert sphere_monomial_moment(3, (2, 0, 0)) == pytest.approx(4 * math.pi / 3, rel=1e-14)
        assert sphere_monomial_moment(2, (1, 1)) == 0.0

    def test_moment_symmetry(self):
        assert sphere_monomial_moment(3, (2, 4, 0)) == sphere_monomial_moment(3, (0, 2, 4))


def _sample_mean(values):
    """Mean of per-point values over a sphere sample, with its standard error."""
    return float(values.mean()), float(values.std(ddof=1)) / math.sqrt(len(values))


class TestMonteCarlo:
    def test_odd_component_vanishes(self):
        mean, se = _sample_mean(SphereSampler(4, 2024, 50_000).points[:, 0])
        assert abs(mean) <= 3 * se

    def test_second_moment(self):
        mean, se = _sample_mean(SphereSampler(3, 7, 100_000).points[:, 0] ** 2)
        assert abs(mean - 1.0 / 3.0) <= 3 * se

    def test_moments_match_mc(self):
        rng = np.random.default_rng(99)
        trials = 0
        while trials < 30:
            d = int(rng.integers(2, 5))
            beta = tuple(2 * int(b) for b in rng.integers(0, 3, size=d))
            if sum(beta) > 8:
                continue
            trials += 1
            pts = SphereSampler(d, 1000 + trials, 40_000).points
            mean, se = _sample_mean(np.prod(pts ** np.array(beta), axis=1))
            want = sphere_monomial_moment(d, beta) / sphere_area(d)
            tol = 4 * se if se > 0 else 1e-12
            assert abs(mean - want) <= tol

    def test_points_on_sphere(self):
        pts = SphereSampler(5, 123, 2000).points
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-14

    def test_reproducible_bit_for_bit(self):
        a = SphereSampler(3, 42, 1000).points
        b = SphereSampler(3, 42, 1000).points
        assert np.array_equal(a, b)
        assert not np.array_equal(a, SphereSampler(3, 43, 1000).points)

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ValueError):
            SphereSampler(2, 1, -1)


class TestGaussLegendreRule:
    def test_matches_independent_nodes_and_weights(self):
        from scipy.special import roots_legendre

        nodes, weights = roots_legendre(15)
        rule_nodes, rule_weights = quad._gauss_legendre()
        assert np.max(np.abs(rule_nodes - nodes)) <= 2e-15
        assert np.max(np.abs(rule_weights - weights)) <= 2e-15

    def test_one_panel_is_exact_to_degree_28(self):
        assert _panel(lambda x: x**28, 0.0, 1.0) == pytest.approx(1.0 / 29.0, rel=1e-14)


class TestCompositeNodes:
    def test_partition_of_unity(self):
        nodes, weights = composite_nodes(0.0, 2.0, 8)
        assert weights.sum() == pytest.approx(2.0, rel=1e-14)
        assert nodes.shape == weights.shape == (8 * 15,)
        # integrates a polynomial exactly
        assert float(weights @ nodes**6) == pytest.approx(2.0**7 / 7, rel=1e-13)


class TestGaussMoment:
    """The one moment kernel: int_0^r x^(s-1) exp(-b x^q) dx at real s and q in {1, 2}."""

    @staticmethod
    def reference(s, b, r, q):
        with mpmath.workdps(40):
            a, rate = mpmath.mpf(s) / q, mpmath.mpf(b.numerator) / b.denominator
            if not b:
                return mpmath.mpf(r) ** s / s
            upper = mpmath.inf if math.isinf(r) else rate * mpmath.mpf(r) ** q
            return mpmath.gammainc(a, 0, upper) / (q * rate**a)

    def test_matches_mpmath_within_bound(self):
        rng = random.Random(11)
        for case in range(400):
            q = rng.choice([1, 2])
            s = rng.choice(
                [rng.uniform(0.05, 60.0), rng.randrange(1, 40), rng.randrange(1, 80) / 2]
            )
            b = Fraction(rng.choice([0, 1, 2, 3, 4, 6, 9]), rng.choice([1, 2, 3, 7]))
            r = rng.choice([0.3, 0.5, 1.0, 1.7, 2.0, 3.3, 8.0] + ([math.inf] if b else []))
            value, rel = quad._gauss_moment(s, b, r, q)
            want = self.reference(s, b, r, q)
            assert abs(mpmath.mpf(value) - want) <= rel * want, (case, s, b, r, q)
            assert rel <= 1e-13

    def test_rounded_exponent_within_bound(self):
        # s_err covers a rounded sum s: the value is within its bound of the moment at s + ds
        rng = random.Random(12)
        for case in range(200):
            q = rng.choice([1, 2])
            s = rng.uniform(0.05, 40.0)
            ds = s * 1e-9 * rng.uniform(-1.0, 1.0)
            b = Fraction(rng.choice([1, 2, 3, 9]), rng.choice([1, 2, 7]))
            r = rng.choice([0.01, 0.3, 1.0, 2.0, 8.0, math.inf])
            value, rel = quad._gauss_moment(s, b, r, q, abs(ds))
            with mpmath.workdps(40):
                want = self.reference(mpmath.mpf(s) + mpmath.mpf(ds), b, r, q)
                assert abs(mpmath.mpf(value) - want) <= rel * want, (case, s, b, r, q)

    def test_float_rate_is_the_fraction(self):
        for args in [(3, 1.0), (7.5, 1.5), (4.25, 0.5)]:
            s, b = args
            for r in (0.5, 2.0, math.inf):
                for q in (1, 2):
                    assert quad._gauss_moment(s, b, r, q) == quad._gauss_moment.__wrapped__(
                        s, Fraction(b), r, q)

    def test_overflowing_radius_gives_inf_or_the_full_integral(self):
        # b r^2 beyond the float range is the complete integral; r^s beyond it is inf
        full = quad._gauss_moment(3, Fraction(1), math.inf)[0]
        assert quad._gauss_moment(3, Fraction(1), 1e300)[0] == full
        assert quad._gauss_moment(3, Fraction(0), 1e300)[0] == math.inf
        assert quad._gauss_moment(400.5, Fraction(1, 2), math.inf)[0] == math.inf

    def test_non_decaying_half_line_rejected(self):
        with pytest.raises(ValueError, match="decaying"):
            quad._gauss_moment(2.5, Fraction(0), math.inf, 1)


class TestSphereMomentRatio:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_float_moment(self, d):
        for n in range(0, 7):
            for beta in _multi_indices(d, n):
                want = sphere_monomial_moment(d, beta) / sphere_area(d)
                assert float(sphere_moment_ratio(d, beta)) == pytest.approx(want, rel=1e-13, abs=0)


def _multi_indices(d, n):
    if d == 1:
        return [(n,)]
    return [(k, *rest) for k in range(n + 1) for rest in _multi_indices(d - 1, n - k)]
