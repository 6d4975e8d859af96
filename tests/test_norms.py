import hashlib
import json
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radsob import norms, opspace, quad
from radsob.derivcalc import (
    _corot_forward_terms, angular_matrix, corot_angular_matrix, forward_terms,
)
from radsob.indexpoly import enumerate_multi
from radsob.norms import (
    CorotField,
    NormValue,
    _ball_def_detail,
    _ball_def_exact,
    _corot_lhs_detail,
    _norm,
    _profile_d_detail,
    _profile_squared_detail,
    _pth_root,
    boundary_check,
    corot_lhs,
    corot_report,
    corot_rhs,
    equivalence_report,
    hardy_check,
    homogeneous_norm,
    lp_radial,
    sobolev_ball_definition,
    sobolev_profile_D,
    sobolev_profile_squared,
)
from radsob.opspace import boundedness_report
from radsob.profile import (
    CorpusEntry,
    Profile,
    RadialField,
    _TermSum,
    builtin_corpus,
    d_op,
    to_squared,
)
from radsob.quad import (
    QuadResult,
    QuadratureConvergenceError,
    SphereSampler,
    integrate_1d,
    sphere_area,
    sphere_monomial_moment,
)

ONE = Profile([(1, 0, 0)])
RHO2 = Profile([(1, 2, 0)])
GAUSS = Profile([(1, 0, 1)])


def gauss_moment(n: int, a: float) -> float:
    """int_0^inf x^n e^(-a x^2) dx."""
    return math.gamma((n + 1) / 2.0) / (2.0 * a ** ((n + 1) / 2.0))


def rel_diff(a, b):
    s = max(abs(a), abs(b))
    return 0.0 if s == 0 else abs(a - b) / s


class TestWeightFamily:
    """The (d, p) preconditions of the weighted profile routes."""

    def test_rejects_bad_params(self):
        for route, g in [(sobolev_profile_D, GAUSS), (sobolev_profile_squared, to_squared(GAUSS))]:
            with pytest.raises(ValueError):
                route(g, 1, 0, 2.0, 1.0)
            with pytest.raises(ValueError):
                route(g, 2, 0, 0.5, 1.0)
            with pytest.raises(ValueError):
                route(g, 2, -1, 2.0, 1.0)


_CORPUS = [CorpusEntry("gauss", GAUSS)]

# each public entry point: the domain parameters it takes (a is the aggregation),
# and a call at (d, k, p, r)
_ENTRY_POINTS = {
    "sobolev_ball_definition": (
        "kpr", lambda d, k, p, r: sobolev_ball_definition(RadialField(3, GAUSS), k, p, r)),
    "sobolev_ball_definition-mc": ("kpr", lambda d, k, p, r: sobolev_ball_definition(
        RadialField(3, GAUSS), k, p, r, method="monte-carlo", samples=10)),
    "sobolev_profile_D": ("dkpra", lambda d, k, p, r, a="sum-of-norms": sobolev_profile_D(
        GAUSS, d, k, p, r, aggregation=a)),
    "sobolev_profile_squared": (
        "dkpra", lambda d, k, p, r, a="sum-of-norms": sobolev_profile_squared(
            to_squared(GAUSS), d, k, p, r, aggregation=a)),
    "lp_radial": ("pr", lambda d, k, p, r: lp_radial(RadialField(3, GAUSS), p, r)),
    "homogeneous_norm": ("dkp", lambda d, k, p, r: homogeneous_norm(GAUSS, d, k, p)),
    "hardy_check": ("pr", lambda d, k, p, r: hardy_check(GAUSS, p, r, 0.5)),
    "boundary_check": ("pr", lambda d, k, p, r: boundary_check(GAUSS, p, r, 0.5)),
    "corot_lhs": ("kr", lambda d, k, p, r: corot_lhs(CorotField(3, GAUSS), k, r)),
    "corot_rhs": ("dkr", lambda d, k, p, r: corot_rhs(GAUSS, d, k, r)),
    "equivalence_report": ("dkpra", lambda d, k, p, r, a="sum-of-norms": equivalence_report(
        _CORPUS, d, k, p, r, aggregation=a)),
    "corot_report": ("dkr", lambda d, k, p, r: corot_report(_CORPUS, d, k, r)),
    "TraceExtPair": ("dkpr", lambda d, k, p, r: opspace.TraceExtPair(d, k, p, r)),
    "boundedness_report": ("dkpr", lambda d, k, p, r: boundedness_report(_CORPUS, d, k, p, r)),
}
_BAD_VALUES = {
    "r": [math.nan, -math.inf, 0.0, -1.0],
    "p": [math.nan, math.inf, 0.5],
    "d": [1],
    "k": [-1],
    "a": ["typo"],
}


class TestDomain:
    """Every entry point rejects (d, k, p, r) outside the shared domain before any integral."""

    @pytest.mark.parametrize(
        "name, param, value",
        [
            pytest.param(name, param, value, id=f"{name}-{param}={value}")
            for name, (params, _) in _ENTRY_POINTS.items()
            for param in params
            for value in _BAD_VALUES[param]
        ],
    )
    def test_rejected_before_any_quadrature(self, monkeypatch, name, param, value):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("an integral ran before the parameter check")

        for mod in (quad, norms):
            monkeypatch.setattr(mod, "_gauss_moment", refuse)
            monkeypatch.setattr(mod, "integrate_1d", refuse)
        call = _ENTRY_POINTS[name][1]
        with pytest.raises(ValueError):
            call(**{"d": 3, "k": 1, "p": 2.0, "r": 1.0, param: value})
        assert calls == []


class TestLpRadial:
    def test_constant_ball_volume(self):
        v = lp_radial(RadialField(3, ONE), 2, 1.0)
        want = math.sqrt(4 * math.pi / 3)
        for value in v:
            assert value == pytest.approx(want, rel=1e-12)

    def test_disk_area(self):
        v = lp_radial(RadialField(2, ONE), 1, 2.0)
        for value in v:
            assert value == pytest.approx(4 * math.pi, rel=1e-12)

    def test_gaussian_closed_form(self):
        for r in (0.5, 1.0, 2.0):
            v = lp_radial(RadialField(2, GAUSS), 2, r)
            want = math.sqrt(math.pi / 2 * (1 - math.exp(-2 * r * r)))
            for value in v:
                assert value == pytest.approx(want, rel=1e-11)

    def test_three_routes_agree_on_corpus(self, corpus):
        for entry in corpus:
            for d in (2, 4):
                for p in (1.0, 3.0):
                    v_def, v_d, v_sq = lp_radial(RadialField(d, entry.profile), p, 1.0)
                    assert rel_diff(v_def, v_d) <= 1e-10
                    assert rel_diff(v_def, v_sq) <= 1e-10

    def test_halfline(self, decaying_corpus):
        for entry in decaying_corpus[:5]:
            v_def, v_d, v_sq = lp_radial(RadialField(3, entry.profile), 2, math.inf)
            assert rel_diff(v_def, v_d) <= 1e-9
            assert rel_diff(v_def, v_sq) <= 1e-9

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            lp_radial(RadialField(2, ONE), 0.5, 1.0)
        with pytest.raises(ValueError):
            lp_radial(RadialField(2, ONE), 2.0, -1.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("r", [1.0, math.inf])
    def test_routes_are_the_k0_norms_with_constants(self, corpus, decaying_corpus, p, r):
        # def is the k = 0 ball norm (closed form at p = 2); the 1D routes are the
        # k = 0 profile norms with |S^(d-1)| and |S^(d-1)|/2 on their p-th powers
        for entry in decaying_corpus if math.isinf(r) else corpus:
            f = entry.profile
            for d in (2, 3):
                area = sphere_area(d)
                field = RadialField(d, f)
                want = (
                    sobolev_ball_definition(field, 0, p, r, tol=1e-12),
                    sobolev_profile_D(f, d, 0, p, r, tol=1e-12),
                    sobolev_profile_squared(to_squared(f), d, 0, p, r * r, tol=1e-12),
                )
                got = lp_radial(field, p, r, tol=1e-12)
                for g, w, c in zip(got, want, (1.0, area, area / 2)):
                    assert g == pytest.approx(c ** (1 / p) * w, rel=4 * 2.0**-52, abs=0)

    def test_kink_splitting_regression(self):
        # |f| has a kink where f changes sign; without splitting the interval
        # there, the two-level panel estimator can accept a wrong value
        f = Profile([(Fraction(-1, 8), 4, 1), (Fraction(13, 8), 6, 1)])
        v_def, v_d, v_sq = lp_radial(RadialField(2, f), 1, 0.5, tol=1e-12)
        assert rel_diff(v_def, v_sq) <= 1e-12
        assert rel_diff(v_def, v_d) <= 1e-12

    def test_kink_found_at_tiny_scale(self):
        # values near 1e-170, whose products underflow to zero, keep their sign change
        scale = Fraction(1, 10**170)
        f = Profile([(Fraction(-1, 8), 4, 1), (Fraction(13, 8), 6, 1)])
        tiny = Profile([(c * scale, a, b) for c, a, b in f.terms])
        assert norms._sign_changes(tiny) == pytest.approx(norms._sign_changes(f))
        assert len(norms._sign_changes(f)) == 1
        got = lp_radial(RadialField(2, tiny), 1, 0.5, tol=1e-12)
        for g, w in zip(got, lp_radial(RadialField(2, f), 1, 0.5, tol=1e-12)):
            assert rel_diff(g / float(scale), w) <= 1e-12


class TestBallDefinition:
    def test_k0_reduces_to_lp(self, corpus):
        for entry in corpus[:6]:
            field = RadialField(3, entry.profile)
            v = sobolev_ball_definition(field, 0, 2, 1.0)
            assert v == pytest.approx(lp_radial(field, 2, 1.0)[0], rel=1e-11)

    def test_rho2_k1_hand_value(self):
        v = sobolev_ball_definition(RadialField(2, RHO2), 1, 2, 1.0)
        assert v == pytest.approx(math.sqrt(math.pi / 3 + 2 * math.pi), rel=1e-12)

    def test_rho2_k2_hand_value(self):
        v = sobolev_ball_definition(RadialField(2, RHO2), 2, 2, 1.0)
        assert v == pytest.approx(math.sqrt(math.pi / 3 + 2 * math.pi + 8 * math.pi), rel=1e-12)

    def test_monte_carlo_matches_exact(self, corpus):
        for entry in corpus[:4]:
            field = RadialField(3, entry.profile)
            exact = _ball_def_detail(field, range(3), 2.0, 1.0, "exact-angular", 0, 0, 1e-11)
            mc = _ball_def_detail(field, range(3), 2.0, 1.0, "monte-carlo", 77, 15_000, 1e-11)
            assert abs(exact.value - mc.value) <= 4 * max(mc.mc_se, 1e-12)

    def test_exact_angular_needs_p2(self):
        with pytest.raises(ValueError):
            sobolev_ball_definition(RadialField(2, RHO2), 1, 3, 1.0)

    def test_exact_angular_k0_any_p(self):
        field = RadialField(3, GAUSS)
        v = sobolev_ball_definition(field, 0, 3, 1.0)
        assert v == pytest.approx(lp_radial(field, 3, 1.0)[0], rel=1e-11)

    def test_monte_carlo_reproducible(self):
        field = RadialField(2, GAUSS)
        kwargs = dict(method="monte-carlo", seed=5, samples=5000)
        a = sobolev_ball_definition(field, 1, 3, 1.0, **kwargs)
        b = sobolev_ball_definition(field, 1, 3, 1.0, **kwargs)
        assert a == b

    def test_monte_carlo_needs_two_samples(self):
        for samples in (0, 1):
            with pytest.raises(ValueError, match="at least 2 samples"):
                sobolev_ball_definition(
                    RadialField(2, GAUSS), 1, 3, 1.0, method="monte-carlo", samples=samples
                )

    @pytest.mark.parametrize("d, k", [(3, 3), (5, 4)])
    def test_monte_carlo_halfline_envelope_dominates(self, d, k, monkeypatch):
        # the truncation envelope of each d^alpha f bounds |sum_t P_t(w) rho^deg D^j f|^p
        # for every direction w, with |P_t| up to 3.0 at (3, 3) and 5.99 at (5, 4)
        f, p = Profile([(1, 0, 1), (-2, 2, 1)]), 1.0
        envelopes = []
        real = norms._gauss_envelope

        def spy(parts, q):
            envelopes.append(real(parts, q))
            return envelopes[-1]

        monkeypatch.setattr(norms, "_gauss_envelope", spy)
        norms._ball_def_mc(RadialField(d, f), [k], p, math.inf, 1, 16)
        pts = SphereSampler(d, 7, 4000).points
        rho = np.linspace(0.0, 6.0, 241)
        alphas = enumerate_multi(d, k)
        assert len(envelopes) == len(alphas)
        for alpha, (coeff, power, rate) in zip(alphas, envelopes):
            terms = [(poly, d_op(f, j)) for j, poly in forward_terms(d, alpha)]
            V = np.stack([poly.eval_many(pts) for poly, _ in terms])
            S = np.stack(
                [g.eval(rho) * rho ** poly.homogeneous_degree() for poly, g in terms], axis=1
            )
            worst = (np.abs(S @ V) ** p).max(axis=1)
            assert np.all(worst <= coeff * (1.0 + rho**power) * np.exp(-rate * rho**2))
            # at p = 1 the coefficient covers each term's largest angular factor
            angular = np.abs(V).max(axis=1)
            assert coeff >= sum(a * float(g.coeff_abs_sum) for a, (_, g) in zip(angular, terms))

    def test_monte_carlo_halfline_tail_is_relative_to_the_integral(self, corpus):
        # a tail cut relative to the envelope coefficient left err at 2.08 and 2.35 times mc_se
        profiles = {entry.label: entry.profile for entry in corpus}
        for label in ("seed04", "seed07"):
            nv = norms._ball_def_mc(RadialField(3, profiles[label]), [3], 3.0, math.inf, 20240001, 300)
            assert nv.err <= 1.1 * nv.mc_se, label

    def test_monte_carlo_halfline(self):
        field = RadialField(3, GAUSS)
        exact = _ball_def_detail(field, [1], 2.0, math.inf, "exact-angular", 0, 0, 1e-11)
        mc = _ball_def_detail(field, [1], 2.0, math.inf, "monte-carlo", 3, 8000, 1e-9)
        assert abs(exact.value - mc.value) <= 4 * max(mc.mc_se, 1e-12)


class TestFactoredMonteCarlo:
    """One kernel per alpha and rule: a one-summand d^alpha f integrates as |poly(w)|^p times
    one sample-free Gauss sum; a two-summand one at integer p up to 8 sums the expansion of
    U^p over nodes sorted by direction; any other sums the samples x nodes grid in blocks of
    samples."""

    CASES = [(3, 1), (3, 2), (5, 2)]
    SAMPLES = 300

    @staticmethod
    def alpha_terms(f, d, n):
        """The nonzero summands (poly, D^j f, 2j - n) of each d^alpha f of order n."""
        out = []
        for alpha in enumerate_multi(d, n):
            terms = [(poly, d_op(f, j), 2 * j - n) for j, poly in forward_terms(d, tuple(alpha))
                     if not d_op(f, j).is_zero]
            if terms:
                out.append(terms)
        return out

    @staticmethod
    def unfactored(V, S, wt, p):
        """wt @ |S^T V^T|^p over the whole nodes x samples grid at once."""
        return wt @ np.abs(S.T @ V.T) ** p

    @staticmethod
    def grid(terms, pts, nodes, weights, d):
        """The kernel's arguments (V, S, wt) for one rule, built here without its helpers."""
        V = np.stack([poly.eval_many(pts) for poly, _, _ in terms], axis=1)
        S = np.stack([g.eval(nodes) * nodes**deg for _, g, deg in terms])
        return V, S, weights * nodes ** (d - 1)

    @staticmethod
    def kernel(terms, pts, nodes, weights, d, p):
        return norms._mc_integrals(
            norms._mc_samples(terms, pts), *norms._mc_columns(terms, nodes, weights, d), p
        )

    RULES = [
        quad.composite_nodes(0.0, 1.0, norms._MC_FINE_PANELS),
        quad.composite_nodes(0.0, 1.0, norms._MC_COARSE_PANELS),
        quad.composite_nodes(0.0, 2.0, 1),  # the half-line scale panel
    ]

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("d, n", CASES)
    def test_factored_integrals_match_the_full_kernel(self, corpus, d, n, p):
        pts = SphereSampler(d, 11, self.SAMPLES).points
        checked = 0
        for entry in corpus:
            for terms in self.alpha_terms(entry.profile, d, n):
                if len(terms) > 1:
                    continue
                for rule in self.RULES:
                    got = self.kernel(terms, pts, *rule, d, p)
                    want = self.unfactored(*self.grid(terms, pts, *rule, d), p)
                    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), entry.label
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_kernel_does_not_write_to_its_shared_arguments(self, p):
        # the fine rule's columns go on to _mc_rounding, and the samples to the coarse rule
        pts = SphereSampler(3, 11, self.SAMPLES).points
        for terms in [t for n in (1, 2, 4) for t in self.alpha_terms(GAUSS, 3, n)]:
            V = norms._mc_samples(terms, pts)
            S, wt = norms._mc_columns(terms, *self.RULES[0], 3)
            kept = V.copy(), S.copy(), wt.copy()
            norms._mc_integrals(V, S, wt, p)
            assert all(np.array_equal(a, b) for a, b in zip((V, S, wt), kept))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("r", [1.0, math.inf])
    @pytest.mark.parametrize("d, n", [*CASES, (3, 4)])
    def test_only_multi_summand_alphas_reach_the_kernel_with_samples(
        self, corpus, monkeypatch, d, n, r, p
    ):
        """Each alpha gets one kernel call per rule and on the half-line scale panel, and its
        sample polynomials are evaluated once for all of them.  A one-summand alpha sums no
        samples x nodes grid, nor does a two-summand one at integer p; the others sum it in
        blocks of samples."""
        calls, blocks, samples = [], [], []
        real_kernel, real_samples, real_einsum = norms._mc_integrals, norms._mc_samples, np.einsum

        def kernel(V, S, wt, p):
            calls.append((len(S), len(wt)))
            return real_kernel(V, S, wt, p)

        def sample_values(terms, pts):
            samples.append(len(terms))
            return real_samples(terms, pts)

        def einsum(spec, U, wt):
            blocks.append((len(calls) - 1, U.shape))
            return real_einsum(spec, U, wt)

        monkeypatch.setattr(norms, "_mc_integrals", kernel)
        monkeypatch.setattr(norms, "_mc_samples", sample_values)
        monkeypatch.setattr(np, "einsum", einsum)
        entries = [e for e in corpus if e.profile.decays] if math.isinf(r) else corpus
        if n == 4:
            entries = entries[:4]
        alphas = 0
        for entry in entries:
            norms._ball_def_mc(RadialField(d, entry.profile), [n], p, r, 1, self.SAMPLES)
            alphas += len(self.alpha_terms(entry.profile, d, n))
        assert len(calls) == (3 if math.isinf(r) else 2) * alphas
        assert len(samples) == alphas
        for i, (count, nodes) in enumerate(calls):
            shapes = [shape for call, shape in blocks if call == i]
            if count == 1 or (count == 2 and p == int(p)):
                assert shapes == []
            else:
                assert sum(rows for rows, _ in shapes) == self.SAMPLES
                assert all(rows <= norms._MC_SAMPLE_BLOCK and cols == nodes for rows, cols in shapes)
                assert len(shapes) > 1
        # alpha = (2, 0, ...) has two summands from n = 2 on, and (4, 0, ...) three at n = 4
        assert any(count > 1 for count, _ in calls) == (n >= 2)
        assert any(count > 2 for count, _ in calls) == (n >= 4)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("d, n", CASES[1:])
    def test_multi_summand_integrals_do_not_depend_on_the_block_size(
        self, corpus, monkeypatch, d, n, p
    ):
        # 1025 samples: a multiple of neither block size, one past a multiple of the default
        samples = 1025
        pts = SphereSampler(d, 11, samples).points
        default = norms._MC_SAMPLE_BLOCK
        assert samples % 7 and samples % default
        checked = 0
        for entry in corpus:
            for terms in self.alpha_terms(entry.profile, d, n):
                if len(terms) == 1:
                    continue
                for rule in self.RULES:
                    monkeypatch.setattr(norms, "_MC_SAMPLE_BLOCK", default)
                    want = self.kernel(terms, pts, *rule, d, p)
                    monkeypatch.setattr(norms, "_MC_SAMPLE_BLOCK", 7)
                    assert np.array_equal(self.kernel(terms, pts, *rule, d, p), want)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("r", [1.0, math.inf])
    def test_estimator_matches_the_unfactored_kernel(self, corpus, monkeypatch, p, r):
        def run(entry):
            field = RadialField(3, entry.profile)
            return norms._ball_def_mc(field, range(3), p, r, 1, self.SAMPLES)

        entries = [e for e in corpus if e.profile.decays] if math.isinf(r) else corpus
        factored = [run(e) for e in entries]
        monkeypatch.setattr(norms, "_mc_integrals", self.unfactored)
        for entry, nv in zip(entries, factored):
            ref = run(entry)
            assert rel_diff(nv.value, ref.value) <= 1e-14, entry.label
            assert rel_diff(nv.mc_se, ref.mc_se) <= 1e-10, entry.label

    @staticmethod
    def rounding_bound(V, a, b, wt, p):
        """The bound of norms._mc_rounding at each sample's own |v|, on columns given directly."""
        size = wt @ np.hypot(a, b) ** p
        return 4 * (p + 8) * norms._EPS * size * np.hypot(V[:, 0], V[:, 1]) ** p

    @pytest.mark.parametrize("p", [1.0, 3.0, 4.0, 5.0])
    @pytest.mark.parametrize("d, n", [(3, 2), (5, 2), (3, 3), (5, 3)])
    def test_expansion_matches_the_full_kernel(self, corpus, d, n, p):
        # each sample within the rounding bound at its own |v| of the grid, which takes |U|^p
        # node by node; the sample means, which the estimator sums, within 1e-14 relative
        pts = SphereSampler(d, 11, self.SAMPLES).points
        checked = 0
        for entry in corpus:
            for terms in self.alpha_terms(entry.profile, d, n):
                if len(terms) != 2:
                    continue
                for rule in self.RULES:
                    got = self.kernel(terms, pts, *rule, d, p)
                    V, (a, b), wt = self.grid(terms, pts, *rule, d)
                    want = self.unfactored(V, np.stack([a, b]), wt, p)
                    bound = self.rounding_bound(V, a, b, wt, p)
                    assert np.all(np.abs(got - want) <= bound), entry.label
                    assert rel_diff(got.mean(), want.mean()) <= 1e-14, entry.label
                    # the err term bounds every sample's, and stays far below a Monte Carlo error
                    err_term = norms._mc_rounding(terms, *norms._mc_columns(terms, *rule, d), p)
                    assert bound.max() <= err_term <= 1e-8 * want.mean()
                checked += 1
        assert checked > 0

    def test_only_the_expansion_has_a_rounding_bound(self):
        for n, p in ((1, 3.0), (2, 1.5), (2, 3.0), (2, 9.0), (4, 3.0)):
            for terms in self.alpha_terms(GAUSS, 3, n):
                bound = norms._mc_rounding(terms, *norms._mc_columns(terms, *self.RULES[0], 3), p)
                assert (bound > 0) == (len(terms) == 2 and p == 3.0)

    # nodes with a = b = 0, with b = 0 (a of either sign, b = -0.0 too), with a = 0, and two
    # in the same direction; samples on an axis (v1 or v2 zero, of either sign) or at 0, and
    # samples orthogonal to a node, where U = 0 lies on the edge of the sign window
    EDGE_A = np.array([0.0, 1.5, -2.0, -3.0, 0.0, 0.7, 1.4, -0.3, 2.0])
    EDGE_B = np.array([0.0, 0.0, 0.0, -0.0, -1.0, 0.2, 0.4, 1.1, -0.5])
    EDGE_WT = np.linspace(0.1, 0.9, 9)
    EDGE_V = np.array([
        [0.0, 1.0], [0.0, -1.0], [-0.0, 1.0], [-0.0, -1.0], [1.0, 0.0], [-1.0, 0.0], [1.0, -0.0],
        [-1.0, -0.0], [0.0, 0.0], [-0.0, -0.0], [0.2, -0.7], [-0.2, 0.7], [0.5, 2.0],
        [-1.1, -0.3], [0.3, 1.4], [2.0, 0.3], [0.4, 1.6],
    ])

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_expansion_edge_cases(self, monkeypatch, p):
        a, b, wt, V = self.EDGE_A, self.EDGE_B, self.EDGE_WT, self.EDGE_V
        want = np.abs(V @ np.stack([a, b])) ** p @ wt
        with np.errstate(invalid="ignore"):  # the direction of the zero sample is 0 / 0
            got = norms._expansion_sums(V, a, b, wt, p)
        assert np.all(np.abs(got - want) <= self.rounding_bound(V, a, b, wt, p))
        assert got[8] == got[9] == 0.0
        # the same values at any block size
        monkeypatch.setattr(norms, "_MC_EXPANSION_BLOCK", 3)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(norms._expansion_sums(V, a, b, wt, p), got)

    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_column_makes_every_sample_non_finite(self, p, bad):
        a = self.EDGE_A.copy()
        a[5] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            got = norms._expansion_sums(self.EDGE_V, a, self.EDGE_B, self.EDGE_WT, p)
        assert not np.isfinite(got).any()

    def test_overflowing_profile_is_flagged(self):
        # (1e200 e^(-rho^2))^3 overflows: the d = 3, k = 2, p = 3 table flags the profile
        corpus = [CorpusEntry("big", Profile([(10**200, 0, 1)]))]
        with np.errstate(all="raise"):
            report = equivalence_report(corpus, 3, 2, 3.0, 1.0, "monte-carlo", samples=200)
        assert report.degenerate == [{"label": "big", "reason": "non-finite norm"}]

    def test_peak_memory_does_not_grow_with_the_samples(self):
        # d^2 f of rho^4 exp(-2 rho^2) has multi-summand alphas; the nodes x samples grid of
        # one rule at 40 000 samples alone would take 154 MB
        field = RadialField(3, Profile([(3, 4, 2)]))
        norms._ball_def_mc(field, [2], 3.0, 1.0, 1, 1000)  # warm the caches
        tracemalloc.start()
        try:
            norms._ball_def_mc(field, [2], 3.0, 1.0, 1, 40_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestMonteCarloZScores:
    """The Monte Carlo standard error is calibrated: over 20 seeds, z = (MC - reference) / SE
    behaves as a standard normal.  With a right SE, the share of |z| <= 2 falls below 0.8 (16 of
    20) with probability 0.0017, and mean z^2, a chi-square with 20 degrees of freedom over 20,
    leaves [0.27, 2.37] with probability 0.001.  The seeds are fixed, so the test is
    deterministic; the bands say how unlikely a failure is on correct code."""

    SEEDS = range(1, 21)
    SAMPLES = 400
    SHARE_BAND = (0.8, 1.0)
    MEAN_SQUARE_BAND = (0.27, 2.37)

    def assert_standard_normal(self, z):
        z = np.array(z)
        assert len(z) == len(self.SEEDS)
        share = float(np.mean(np.abs(z) <= 2))
        assert self.SHARE_BAND[0] <= share <= self.SHARE_BAND[1], z
        assert self.MEAN_SQUARE_BAND[0] <= float(np.mean(z**2)) <= self.MEAN_SQUARE_BAND[1], z

    @pytest.mark.parametrize("k", [2, 3])
    def test_even_p_against_exact_angular(self, corpus, k):
        # at p = 2 every two-summand alpha takes the even branch of the expansion
        field = RadialField(3, {e.label: e.profile for e in corpus}["seed04"])
        exact = _ball_def_detail(field, range(k + 1), 2.0, 1.0, "exact-angular", 0, 0, 1e-10)
        z = []
        for seed in self.SEEDS:
            mc = _ball_def_detail(
                field, range(k + 1), 2.0, 1.0, "monte-carlo", seed, self.SAMPLES, 1e-10
            )
            z.append((mc.value - exact.value) / mc.mc_se)
        self.assert_standard_normal(z)

    @pytest.mark.parametrize("k", [2, 3])
    def test_odd_p_seed_against_seed(self, corpus, k):
        # at p = 3 no exact reference exists: two independent seeds, with their combined SE
        field = RadialField(3, {e.label: e.profile for e in corpus}["seed04"])
        z = []
        for seed in self.SEEDS:
            a, b = (
                _ball_def_detail(field, range(k + 1), 3.0, 1.0, "monte-carlo", s, self.SAMPLES, 1e-10)
                for s in (2 * seed - 1, 2 * seed)
            )
            z.append((a.value - b.value) / math.hypot(a.mc_se, b.mc_se))
        self.assert_standard_normal(z)


class TestAbsPow:
    """|u|^p by squares and at most one sqrt at p in {1, 3/2, ..., 8}, else np.power; in place."""

    U = np.concatenate([
        np.random.default_rng(5).standard_normal(2000) * 10.0 ** np.arange(-20, 20).repeat(50),
        [0.0, -0.0, 1.0, -1.0, 1e-300, 3e300, np.inf, -np.inf, np.nan],
    ])

    @staticmethod
    def reference(u, p):
        with np.errstate(over="ignore", under="ignore"):
            return np.abs(u) ** p

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0])
    def test_products_are_within_a_few_ulp_of_power(self, p):
        with np.errstate(over="ignore", under="ignore"):
            got = norms._abs_pow(self.U.copy(), p)
        want = self.reference(self.U, p)
        normal = np.isfinite(want) & (want >= np.finfo(float).tiny)
        assert np.all(np.abs(got[normal] - want[normal]) <= 6 * np.spacing(want[normal]))
        rest = ~normal & ~((want > 0) & (want < np.finfo(float).tiny))  # subnormals aside
        assert np.array_equal(got[rest], want[rest], equal_nan=True)
        assert got[-3] == got[-2] == np.inf and np.isnan(got[-1]) and got[-9] == got[-8] == 0.0

    @pytest.mark.parametrize("p", [1.3, 8.5, 1e308])
    def test_other_exponents_go_to_power(self, p, monkeypatch):
        sqrts = []
        real_sqrt = np.sqrt
        monkeypatch.setattr(np, "sqrt", lambda *a, **k: sqrts.append(a) or real_sqrt(*a, **k))
        with np.errstate(over="ignore", under="ignore"):
            got = norms._abs_pow(self.U.copy(), p)
        assert got.tobytes() == self.reference(self.U, p).tobytes()
        assert sqrts == []


class TestSphereSampleReuse:
    def test_one_sample_is_drawn_for_every_profile(self, corpus, monkeypatch):
        built = []
        real = norms.SphereSampler

        def sampler(d, seed, n):
            built.append((d, seed, n))
            return real(d, seed, n)

        monkeypatch.setattr(norms, "SphereSampler", sampler)
        norms._sphere_points.cache_clear()
        try:
            for entry in corpus[:6]:
                norms._ball_def_mc(RadialField(3, entry.profile), [1], 3.0, 1.0, 17, 50)
            assert built == [(3, 17, 50)]
            norms._ball_def_mc(RadialField(3, GAUSS), [1], 3.0, 1.0, 18, 50)
            assert built == [(3, 17, 50), (3, 18, 50)]
        finally:
            norms._sphere_points.cache_clear()


class TestProfileRoutes:
    def test_route_d_hand_value(self):
        v = sobolev_profile_D(RHO2, 2, 1, 2, 1.0)
        assert v == pytest.approx(math.sqrt(1.0 / 6.0) + 1.0, rel=1e-12)

    def test_route_d_k0_is_lp_without_area(self):
        for d in (2, 3):
            for p in (1.0, 2.0):
                v = sobolev_profile_D(GAUSS, d, 0, p, 1.0)
                lp = lp_radial(RadialField(d, GAUSS), p, 1.0)[0]
                assert v == pytest.approx(lp / sphere_area(d) ** (1.0 / p), rel=1e-11)

    def test_route_d_gaussian_halfline_closed_form(self):
        i0 = gauss_moment(2, 2.0)
        i1 = 4.0 * gauss_moment(4, 2.0)
        want = math.sqrt(i0) + math.sqrt(i1)
        got = sobolev_profile_D(GAUSS, 3, 1, 2, math.inf)
        assert got == pytest.approx(want, rel=1e-9)

    def test_route_squared_hand_value(self):
        # f~(s) = s on (0,1): j=0 integrand s^2, j=1 integrand s * 1
        v = sobolev_profile_squared(to_squared(RHO2), 2, 1, 2, 1.0)
        assert v == pytest.approx(math.sqrt(1.0 / 3.0) + math.sqrt(1.0 / 2.0), rel=1e-12)

    def test_route_squared_k0_is_lp_without_constant(self):
        for d in (2, 3):
            v = sobolev_profile_squared(to_squared(GAUSS), d, 0, 2, 1.0)
            lp = lp_radial(RadialField(d, GAUSS), 2, 1.0)[0]
            assert v == pytest.approx(lp / (sphere_area(d) / 2) ** 0.5, rel=1e-11)

    def test_routes_finite_and_positive(self, corpus):
        for entry in corpus[:8]:
            a = sobolev_profile_D(entry.profile, 3, 2, 2, 1.0)
            b = sobolev_profile_squared(to_squared(entry.profile), 3, 2, 2, 1.0)
            assert 0 < a < math.inf
            assert 0 < b < math.inf

    def test_aggregation_relation(self, corpus):
        # sum of norms and the p-power form differ by at most (k+1)^(1-1/p)
        k, p = 2, 2.0
        for entry in corpus[:6]:
            s = sobolev_profile_D(entry.profile, 3, k, p, 1.0, aggregation="sum-of-norms")
            q = sobolev_profile_D(entry.profile, 3, k, p, 1.0, aggregation="p-power")
            assert q <= s * (1 + 1e-12)
            assert s <= (k + 1) ** (1 - 1 / p) * q * (1 + 1e-12)


    @pytest.mark.parametrize("route", ["D", "squared"])
    def test_weight_exponents_are_rounded_once(self, route, monkeypatch):
        # gamma is d - 1 + j p (D) or (d - 2 + j p) / 2 (squared), correctly rounded; at p = 2
        # it is exact (test_p2_weight_exponents_are_exact)
        seen = []

        def spy(prof, p, gamma, upper, rel_tol):
            seen.append(gamma)
            return QuadResult(1.0, 0.0, 1, True)

        monkeypatch.setattr(norms, "_lp_power", spy)
        with localcontext() as ctx:
            ctx.prec = 80
            for d in range(2, 7):
                for j in range(5):
                    for p in (1.1, 1.25, 1.5, 2.5, 3.0, 3.5, 5.0, 7.0):
                        if route == "D":
                            _profile_d_detail(GAUSS, d, [j], p, 1.0, "p-power", 1e-10)
                            want = Decimal(d - 1) + j * Decimal(p)
                        else:
                            ft = to_squared(GAUSS)
                            _profile_squared_detail(ft, d, [j], p, 1.0, "p-power", 1e-10)
                            want = (Decimal(d - 2) + j * Decimal(p)) / 2
                        assert seen.pop() == float(want), (d, j, p)

    @pytest.mark.parametrize("route", ["D", "squared"])
    def test_p2_weight_exponents_are_exact(self, route, monkeypatch):
        # at p = 2 piece j is the closed form at the exact weight exponent d - 1 + 2j (D) or
        # (d - 2 + 2j) / 2 (squared), on (0, r) or (0, r^2): the squared route integrates in s
        seen = []

        def spy(g, p, gamma, upper):
            seen.append((p, type(gamma), gamma, upper))
            return QuadResult(1.0, 0.0, 0, True)

        monkeypatch.setattr(norms, "_weighted_lp_power", None)  # no quadrature at p = 2
        monkeypatch.setattr(norms, "_closed_lp_power", spy)
        for d in range(2, 7):
            for j in range(5):
                for r in (0.5, 1.1, 3.0, math.inf):
                    if route == "D":
                        _profile_d_detail(GAUSS, d, [j], 2.0, r, "p-power", 1e-10)
                        want = (2, float, float(d - 1 + 2 * j), r)
                    else:
                        ft = to_squared(GAUSS)
                        _profile_squared_detail(ft, d, [j], 2.0, r * r, "p-power", 1e-10)
                        want = (2, float, float((d - 2 + 2 * j) / 2), r * r)
                    assert seen.pop() == want, (d, j, r)

    def test_p2_squared_radius_that_is_no_float_square(self, monkeypatch):
        # r^2 = 2 has no float root: the squared piece is taken on (0, 2.0) itself, no root of it
        seen = []
        real = norms._closed_lp_power

        def spy(g, p, gamma, upper):
            seen.append(upper)
            return real(g, p, gamma, upper)

        monkeypatch.setattr(norms, "_closed_lp_power", spy)
        exact = norms._lp_power(to_squared(GAUSS), 2.0, 0.5, 2.0, 1e-10)
        assert seen == [2.0]
        want = float(mpmath.quad(lambda s: mpmath.sqrt(s) * mpmath.exp(-2 * s), [0, 2]))
        assert abs(exact.value - want) <= exact.error_estimate

    def test_weight_exponent_examples(self, monkeypatch):
        seen = []

        def spy(prof, p, gamma, upper, rel_tol):
            seen.append(gamma)
            return QuadResult(1.0, 0.0, 1, True)

        monkeypatch.setattr(norms, "_lp_power", spy)
        _profile_d_detail(GAUSS, 2, [4], 7.0, 1.0, "p-power", 1e-10)
        _profile_d_detail(GAUSS, 3, [1], 1.5, 1.0, "p-power", 1e-10)
        assert seen == [29.0, 3.5]


class TestPthRoot:
    def test_positive_sum_first_order_rule(self):
        value, err = _pth_root(8.0, 0.3, 3.0)
        assert value == pytest.approx(2.0, rel=1e-15)
        assert err == pytest.approx(0.3 * 2.0 / (3.0 * 8.0), rel=1e-15)

    def test_zero_sum_takes_the_root_of_the_error(self):
        assert _pth_root(0.0, 8e-12, 3.0) == (0.0, pytest.approx(2e-4, rel=1e-12))
        # a negative sum is quadrature noise around zero
        assert _pth_root(-1e-20, 1e-12, 2.0) == (0.0, pytest.approx(1e-6, rel=1e-12))

    def test_error_does_not_overflow_where_it_is_representable(self):
        # err_pow * value is 1.6e488, the error itself 1.6e188
        value, err = _pth_root(6.4e299, 2.1e288, 1.5)
        assert math.isfinite(err)
        assert err == pytest.approx(2.1e288 / 1.5 * 6.4e299 ** (1 / 1.5 - 1), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-100, max_value=1e100),
        st.floats(min_value=1e-30, max_value=1e30),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0]),
    )
    def test_power_of_two_scaling_rounds_like_the_plain_rule(self, powsum, err_pow, p):
        # where err_pow * value neither overflows nor underflows, the bits are those of the plain rule
        value, err = _pth_root(powsum, err_pow, p)
        assert value == powsum ** (1.0 / p)
        assert err == err_pow * value / (p * powsum)


class TestNorm:
    """norms._norm, the one step from per-order p-th powers to a norm and its err."""

    def test_p_power_sum_is_compensated(self):
        tiny = QuadResult(2.0**-53, 0.0, 0)
        parts = [QuadResult(1.0, 0.0, 0), tiny, tiny]
        assert sum(res.value for res in parts) == 1.0  # a plain sum loses both small parts
        assert _norm(parts, 1.0) == (1.0 + 2.0**-52, 0.0, 0.0, True)

    def test_scale_enters_before_the_root(self):
        # a negative part is quadrature noise around zero
        nv = _norm([QuadResult(2.0, 0.3, 0), QuadResult(-1e-20, 0.1, 0)], 3.0, scale=4.0)
        assert nv == (*_pth_root(8.0, 4.0 * (0.3 + 0.1), 3.0), 0.0, True)
        nv = _norm([QuadResult(2.0, 0.3, 0), QuadResult(6.0, 0.1, 0)], 3.0, "sum-of-norms", 4.0)
        roots = [_pth_root(8.0, 4.0 * 0.3, 3.0), _pth_root(24.0, 4.0 * 0.1, 3.0)]
        assert nv == (roots[0][0] + roots[1][0], roots[0][1] + roots[1][1], 0.0, True)

    @pytest.mark.parametrize("aggregation", ["p-power", "sum-of-norms"])
    def test_converged_only_when_every_part_is(self, aggregation):
        done, missed = QuadResult(1.0, 0.0, 3), QuadResult(1.0, 0.5, 9, False)
        assert _norm([done, done], 2.0, aggregation).converged
        assert not _norm([done, missed], 2.0, aggregation).converged

    def test_def_and_d_are_one_computation_at_order_zero(self, corpus, decaying_corpus):
        # the definition route at k = 0 is the D route's p-th power times |S^(d-1)|, rooted once
        for d in (2, 3, 5):
            for p in (1.0, 1.5, 2.0, 3.0):
                for entry in corpus:
                    v_def, v_d, _ = lp_radial(RadialField(d, entry.profile), p, 1.0)
                    assert v_def == v_d, (d, p, entry.label)
                for entry in decaying_corpus:
                    v_def, v_d, _ = homogeneous_norm(entry.profile, d, 0, p)
                    assert v_def == v_d, (d, p, entry.label)


class TestUnconvergedQuadratureRaises:
    """The public routes raise with the achieved err instead of returning an unconverged value."""

    CALLS = {
        "sobolev_ball_definition": lambda: sobolev_ball_definition(
            RadialField(2, GAUSS), 0, 3.0, 1.0, tol=1e-30
        ),
        "sobolev_profile_D": lambda: sobolev_profile_D(GAUSS, 2, 1, 3.0, 1.0, tol=1e-30),
        "sobolev_profile_squared": lambda: sobolev_profile_squared(
            to_squared(GAUSS), 2, 1, 3.0, 1.0, tol=1e-30
        ),
        "lp_radial": lambda: lp_radial(RadialField(2, GAUSS), 3.0, 1.0, tol=1e-30),
        "homogeneous_norm": lambda: homogeneous_norm(GAUSS, 2, 0, 3.0, tol=1e-30),
    }
    # at p = 2 these are closed form: the same value at any tol
    P2_CALLS = {
        "sobolev_profile_D": lambda tol: sobolev_profile_D(GAUSS, 2, 1, 2.0, 1.0, tol=tol),
        "sobolev_profile_squared": lambda tol: sobolev_profile_squared(
            to_squared(GAUSS), 2, 1, 2.0, 1.0, tol=tol
        ),
        "lp_radial": lambda tol: lp_radial(RadialField(2, GAUSS), 2.0, 1.0, tol=tol),
        "homogeneous_norm": lambda tol: homogeneous_norm(GAUSS, 2, 1, 2.0, tol=tol),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_raises_at_an_unmeetable_tol(self, name):
        with pytest.raises(QuadratureConvergenceError, match=f"^{name}: ") as info:
            self.CALLS[name]()
        assert 0 < info.value.estimate < math.inf

    @pytest.mark.parametrize("name", sorted(P2_CALLS))
    def test_p2_is_exact_at_any_tol(self, name):
        assert self.P2_CALLS[name](1e-30) == self.P2_CALLS[name](1e-10)

    @pytest.mark.parametrize("d, p", [(3, 3.0), (3, 1.0), (4, 1.5)])
    def test_raises_where_fine_and_coarse_panel_sums_agree(self, d, p):
        # here every panel's fine and coarse sums agree to the bit, so only the
        # rounding floor of the error estimate can miss the tol
        with pytest.raises(QuadratureConvergenceError, match="^sobolev_ball_definition: ") as info:
            sobolev_ball_definition(RadialField(d, GAUSS), 0, p, 1.0, tol=1e-30)
        assert 0 < info.value.estimate < math.inf


class TestHomogeneous:
    def test_k0_identity(self):
        v_def, v_d, v_sq = homogeneous_norm(GAUSS, 2, 0, 2)
        want = math.sqrt(math.pi / 2)
        assert v_def == pytest.approx(want, rel=1e-10)
        assert v_d == pytest.approx(want, rel=1e-10)
        assert v_sq == pytest.approx(want, rel=1e-10)
        # a RadialField gives its profile's values in its own dimension, and no other
        assert homogeneous_norm(RadialField(2, GAUSS), 2, 0, 2) == (v_def, v_d, v_sq)
        with pytest.raises(ValueError, match="dimension 3, not d = 5"):
            homogeneous_norm(RadialField(3, GAUSS), 5, 0, 2.0)

    def test_k1_gaussian_closed_forms(self):
        v_def, v_d, v_sq = homogeneous_norm(GAUSS, 3, 1, 2)
        want_d = math.sqrt(sphere_area(3) * 4.0 * gauss_moment(4, 2.0))
        # squared route: f~' = -e^(-s), weight s^(3/2), times |S^2|/2
        want_sq = math.sqrt(sphere_area(3) / 2 * math.gamma(2.5) / 2**2.5)
        assert v_d == pytest.approx(want_d, rel=1e-9)
        assert v_sq == pytest.approx(want_sq, rel=1e-9)
        # at order one, the definition route collapses to the D route exactly
        assert v_def == pytest.approx(v_d, rel=1e-9)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_k1_routes_are_the_top_order_norms_with_constants(self, decaying_corpus, p):
        method = "exact-angular" if p == 2 else "monte-carlo"
        for entry in decaying_corpus[:4]:
            f = entry.profile
            for d in (2, 3):
                area = sphere_area(d)
                want = (
                    _ball_def_detail(RadialField(d, f), [1], p, math.inf, method, 11, 2000, 1e-10),
                    _profile_d_detail(f, d, [1], p, math.inf, "p-power", 1e-10),
                    _profile_squared_detail(to_squared(f), d, [1], p, math.inf, "p-power", 1e-10),
                )
                constants = (1.0, area, area / 2)
                got = homogeneous_norm(f, d, 1, p, method=method, seed=11, samples=2000)
                for g, w, c in zip(got, want, constants):
                    assert g == pytest.approx(c ** (1 / p) * w.value, rel=4 * 2.0**-52, abs=0)

    def test_routes_ratio_recorded_not_asserted(self, decaying_corpus):
        for entry in decaying_corpus[:4]:
            v_def, v_d, v_sq = homogeneous_norm(entry.profile, 3, 2, 2)
            assert all(0 < v < math.inf for v in (v_def, v_d, v_sq))

    def test_rejects_nondecaying(self):
        with pytest.raises(ValueError):
            homogeneous_norm(ONE, 2, 1, 2)
        with pytest.raises(ValueError):
            homogeneous_norm(Profile([(1, 2, 0), (1, 0, 1)]), 2, 1, 2)


class TestHardy:
    def test_convergence_flag(self):
        assert hardy_check(GAUSS, 3, 1.0, 0.5).converged is True
        assert hardy_check(GAUSS, 3, 1.0, 0.5, tol=1e-30).converged is False
        assert boundary_check(GAUSS, 3, 1.0, 0.5).converged is True
        assert boundary_check(GAUSS, 3, 1.0, 0.5, tol=1e-30).converged is False

    def test_short_decimal_weight_converges(self):
        # x^-0.3 becomes u^6 under x = u^10, with no cusp left at 0
        rep = hardy_check(ONE, 1, 0.5, -0.3)
        assert rep.converged is True
        assert rep.lhs == pytest.approx(0.5**0.7 / 0.7, rel=1e-13)
        assert rep.slack >= -1e-12

    def test_inexact_short_decimal_weight_converges(self):
        # 1.5 * -0.3 is -0.44999999999999996, an ulp off -9/20; x = u^20 still applies
        rep = hardy_check(ONE, 1.5, 0.5, -0.3)
        assert rep.converged is True
        assert rep.lhs == pytest.approx(0.5**0.55 / 0.55, rel=1e-13)

    def test_constant_interval(self):
        rep = hardy_check(ONE, 2, 1.0, 0.0)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.terms[0] == pytest.approx(2.0, abs=1e-12)
        assert rep.terms[1] == pytest.approx(0.0, abs=1e-12)
        assert rep.slack == pytest.approx(1.0, abs=1e-11)

    def test_square_p1(self):
        rep = hardy_check(RHO2, 1, 1.0, 0.0)
        assert rep.lhs == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-11)

    def test_zero_function(self):
        rep = hardy_check(Profile([]), 2, 1.0, 0.0)
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.slack == 0.0

    def test_halfline_variant(self, decaying_corpus):
        for entry in decaying_corpus[:6]:
            rep = hardy_check(entry.profile, 2, math.inf, 0.5)
            assert rep.terms[0] == 0.0
            assert rep.slack >= -1e-10

    def test_squared_profile_accepted(self):
        rep = hardy_check(to_squared(GAUSS), 2, 1.5, 0.25)
        assert rep.slack >= -1e-12

    def test_grid_subset(self, corpus):
        for entry in corpus[:6]:
            for p in (1.0, 2.0, 3.0):
                for s in (-1.0 / (2 * p), 0.0, 1.0):
                    for r in (0.5, 2.0):
                        rep = hardy_check(entry.profile, p, r, s)
                        assert rep.slack >= -1e-10

    def test_precondition(self):
        with pytest.raises(ValueError):
            hardy_check(ONE, 2, 1.0, -0.6)
        with pytest.raises(ValueError):
            hardy_check(ONE, 0.5, 1.0, 0.0)


class TestWeightedIntegralMemo:
    F = Profile([(1, 0, 1), (-2, 2, 0)])  # one sign change in (0, 1), so odd p splits there

    def test_hardy_and_boundary_share_their_integrals(self, monkeypatch):
        # at integer p both integrals are closed form, computed once for both checks
        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form must not fall back here")

        monkeypatch.setattr(norms, "_weighted_lp_power", forbidden)
        norms._closed_lp_power.cache_clear()
        hardy_check(self.F, 3.0, 1.0, 0.5)
        info = norms._closed_lp_power.cache_info()
        assert (info.hits, info.misses) == (0, 2)  # f and f'
        assert len(norms._sign_changes(self.F)) == 1
        boundary_check(self.F, 3.0, 1.0, 0.5)
        info = norms._closed_lp_power.cache_info()
        assert (info.hits, info.misses) == (2, 2)

    def test_hardy_and_boundary_share_their_quadratures_at_fractional_p(self, monkeypatch):
        calls = []
        for name in ("integrate_power_weight", "integrate_power_edge", "integrate_1d"):
            real = getattr(norms, name)

            def spy(*args, _real=real, **kwargs):
                calls.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(norms, name, spy)
        norms._weighted_lp_power.cache_clear()
        hardy_check(self.F, 1.5, 1.0, 0.5)
        after_hardy = len(calls)
        # f in three: split at its sign change, and its first piece at its midpoint, so that the
        # halves next to the sign change are integrated in a variable smooth there; f' in one
        assert after_hardy == 4
        boundary_check(self.F, 1.5, 1.0, 0.5)
        assert len(calls) == after_hardy

    def test_lp_radial_def_and_d_share_one_quadrature(self):
        # one closed form at integer p, one adaptive quadrature at fractional p
        for p, memo in ((3.0, norms._closed_lp_power), (1.5, norms._weighted_lp_power)):
            memo.cache_clear()
            lp_radial(RadialField(3, self.F), p, 1.0)
            info = memo.cache_info()
            assert (info.hits, info.misses) == (1, 2), p


class TestSignChangeMaps:
    """At fractional p each piece next to a certified sign change is integrated in x = root +-
    h u^2 (quad.integrate_power_edge), where |g|^p is smooth; other pieces are as at integer p."""

    # (1 - 3 x^2 + x^4) e^(-x^2), with sign changes at 0.618 and 1.618
    G = Profile([(1, 0, 1), (-3, 2, 1), (1, 4, 1)])

    def spans(self, monkeypatch, p, g=G):
        calls = []
        for name in ("integrate_power_weight", "integrate_power_edge", "integrate_1d"):
            real = getattr(norms, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append((_name, *args[1:3]))
                return _real(*args, **kwargs)

            monkeypatch.setattr(norms, name, spy)
        norms._weighted_lp_power.__wrapped__(g, p, 2.0, 2.0, 1e-10)
        return calls

    def test_pieces_at_fractional_p(self, monkeypatch):
        r1, r2 = norms._sign_changes(self.G)
        m1, m2 = 0.5 * r1, 0.5 * (r1 + r2)
        assert self.spans(monkeypatch, 1.5) == [
            ("integrate_power_weight", 2.0, m1),  # gamma, upper
            ("integrate_power_edge", r1, m1),  # edge, end
            ("integrate_power_edge", r1, m2),
            ("integrate_power_edge", r2, m2),
            ("integrate_power_edge", r2, 2.0),
        ]

    def test_pieces_at_integer_p_and_without_certified_sign_changes(self, monkeypatch):
        r1, r2 = norms._sign_changes(self.G)
        assert self.spans(monkeypatch, 3.0) == [
            ("integrate_power_weight", 2.0, r1), ("integrate_1d", r1, r2), ("integrate_1d", r2, 2.0)
        ]
        monkeypatch.undo()
        # a double root: the scan gives up, and the one piece takes no map
        double = SCAN_FALLBACK_PROFILES["rho2m1_sq"]
        assert norms._sign_changes(double) is None
        assert self.spans(monkeypatch, 1.5, double) == [("integrate_power_weight", 2.0, 2.0)]

    def test_kinked_half_line_integral_takes_fewer_panels(self):
        # seed10's D f changes sign twice on the half-line.  Plain panels bisected toward both
        # sign changes: 181 panels before the pieces next to them were mapped, 19 after
        g, p, gamma, upper = err_route_integral("seed10", "D", 1, 1.5, math.inf, None)
        res = norms._weighted_lp_power.__wrapped__(g, p, gamma, upper, 1e-10)
        assert len(norms._sign_changes(g)) == 2
        assert res.converged
        assert res.subdivisions <= 40


class TestBoundary:
    def test_constant_equality(self):
        rep = boundary_check(ONE, 1, 1.0, 0.0)
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.slack) <= 1e-11

    def test_zero(self):
        rep = boundary_check(Profile([]), 2, 1.0, 0.0)
        assert rep.lhs == rep.rhs == 0.0

    def test_square_p2_s1(self):
        rep = boundary_check(RHO2, 2, 1.0, 1.0)
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(16.0 / 7.0, rel=1e-11)
        assert rep.slack == pytest.approx(9.0 / 7.0, rel=1e-10)

    def test_grid_subset(self, corpus):
        for entry in corpus[:6]:
            for p in (1.0, 2.0):
                for s in (0.0, 0.5, 3.0):
                    rep = boundary_check(entry.profile, p, 1.0, s)
                    assert rep.slack >= -1e-10

    def test_needs_finite_radius(self):
        with pytest.raises(ValueError):
            boundary_check(ONE, 2, math.inf, 0.0)


class TestCorot:
    def test_field_evaluation(self):
        F = CorotField(3, GAUSS)
        assert np.allclose(F.eval((0.0, 0.0, 0.0)), 0.0)
        x = np.array([0.3, -0.1, 0.2])
        rho = float(np.linalg.norm(x))
        assert np.allclose(F.eval(x), x * math.exp(-rho * rho))

    def test_expansion_matches_hand_formula(self):
        # d/dx1 of x1 f(|x|) = f(|x|) + x1^2 (Df)(|x|)
        f = Profile([(1, 2, 1), (Fraction(1, 2), 0, 0)])
        terms = _corot_forward_terms(3, (1, 0, 0), 1)
        x = np.array([0.4, -0.2, 0.7])
        rho = float(np.linalg.norm(x))
        got = sum(poly.eval(x) * d_op(f, j).eval(rho) for j, poly in terms)
        want = f.eval(rho) + x[0] ** 2 * d_op(f, 1).eval(rho)
        assert got == pytest.approx(want, rel=1e-13)

    def test_k0_hand_values(self):
        assert corot_lhs(CorotField(3, ONE), 0, 1.0) == pytest.approx(
            math.sqrt(4 * math.pi / 5), rel=1e-12
        )
        assert corot_rhs(ONE, 3, 0, 1.0) == pytest.approx(
            math.sqrt(8 * math.pi**2 / 15), rel=1e-12
        )

    def test_d2_k1_hand_value(self):
        got = corot_lhs(CorotField(2, ONE), 1, 1.0)
        assert got * got == pytest.approx(math.pi / 2 + 2 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_k0_exact_ratio(self, d, corpus):
        want = sphere_area(d) / sphere_area(d + 2)
        for entry in corpus[:6]:
            lhs = corot_lhs(CorotField(d, entry.profile), 0, 1.0)
            rhs = corot_rhs(entry.profile, d, 0, 1.0)
            assert (lhs / rhs) ** 2 == pytest.approx(want, rel=1e-8)

    def test_rhs_comparable_to_profile_route(self, corpus):
        # the right-hand side is equivalent (not equal) to the weighted profile
        # norms in dimension d + 2; check both are finite with a sane ratio
        for entry in corpus[:4]:
            rhs = corot_rhs(entry.profile, 3, 1, 1.0)
            route = sobolev_profile_D(entry.profile, 5, 1, 2, 1.0)
            assert 0 < rhs < math.inf
            assert 1e-3 < rhs / route < 1e3


class TestReports:
    def test_equivalence_k0_exact_ratio(self, corpus):
        report = equivalence_report(corpus[:8], 3, 0, 2, 1.0, tol=1e-12)
        lo, hi = report.ratio_bounds("def/D")
        want = math.sqrt(sphere_area(3))
        assert lo == pytest.approx(want, rel=1e-10)
        assert hi == pytest.approx(want, rel=1e-10)
        lo_sq, hi_sq = report.ratio_bounds("def/squared")
        want_sq = math.sqrt(sphere_area(3) / 2)
        assert lo_sq == pytest.approx(want_sq, rel=1e-10)
        assert hi_sq == pytest.approx(want_sq, rel=1e-10)

    def test_positive_bounded_interval(self, corpus):
        report = equivalence_report(corpus, 3, 2, 2, 1.0)
        for row in report.ratios:
            assert 0 < row["min"] <= row["max"] < math.inf

    def test_zero_profile_excluded(self):
        entries = [CorpusEntry("zero", Profile([])), CorpusEntry("gauss", GAUSS)]
        report = equivalence_report(entries, 2, 1, 2, 1.0)
        assert any(row["label"] == "zero" for row in report.degenerate)
        assert all(e.label != "zero" for e in report.entries)

    def test_halfline_excludes_nondecaying(self, corpus):
        report = equivalence_report(corpus, 3, 1, 2, math.inf)
        labels = {row["label"] for row in report.degenerate}
        assert "one" in labels and "rho2" in labels
        for row in report.ratios:
            assert 0 < row["min"] <= row["max"] < math.inf

    def test_monte_carlo_method(self, corpus):
        report = equivalence_report(
            corpus[:3], 3, 1, 3, 1.0, method="monte-carlo", samples=4000
        )
        assert all(
            e.method == "monte-carlo" for e in report.entries if e.route == "def"
        )
        for row in report.ratios:
            assert 0 < row["min"] <= row["max"] < math.inf

    def test_exact_angular_p3_k1_rejected(self, corpus):
        with pytest.raises(ValueError):
            equivalence_report(corpus[:2], 3, 1, 3, 1.0)

    def test_json_deterministic(self, corpus):
        a = equivalence_report(corpus[:4], 2, 1, 2, 1.0).to_json()
        b = equivalence_report(corpus[:4], 2, 1, 2, 1.0).to_json()
        assert a == b
        assert a.endswith("\n")

    def test_csv_layout(self, corpus):
        text = equivalence_report(corpus[:2], 2, 0, 2, 1.0).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "label,route,method,value,err"
        assert len(lines) == 1 + 2 * 3

    def test_corot_report(self, corpus):
        report = corot_report(corpus[:6], 3, 0, 1.0)
        lo, hi = report.ratio_bounds("(lhs/rhs)^2")
        want = sphere_area(3) / sphere_area(5)
        assert lo == pytest.approx(want, rel=1e-8)
        assert hi == pytest.approx(want, rel=1e-8)


class TestCorpusTable:
    """The one table builder behind the equivalence, corot and boundedness reports."""

    # sha256 of report JSON computed with the per-report builders this one replaced,
    # re-taken when each adaptive panel's error estimate got its rounding floor, and
    # again when each adaptive 1-D integral's err got a floor of 8 eps of its value
    # (both times only err fields moved), and when p = 3 came to be integrated in closed
    # form: every value moved by at most 1.1e-15 relative, within the combined err, the
    # errs rose from at most 8.7e-15 to at most 8.0e-14 of the value, and the ratio
    # bounds moved in the last digits; and when the sign scan came to refine its roots by
    # Newton steps on g = prof / x^m: two values moved by at most 6.7e-16 relative, within
    # 0.022 of the combined err, their errs by at most 1.4e-15 relative, and the ratio bounds
    # by at most 7.3e-16 relative; and when each profile came to be scanned once, up to its
    # root bound: three values moved by at most 0.03 of the combined err, and the ratio
    # bounds by at most 1e-15 relative (the boundedness report: two of those values)
    EQUIVALENCE_SHA = "f7c500889fa7268a04bd65dd2d0b20e2db395647e77d8b166afad762a374c88b"
    BOUNDEDNESS_SHA = "03a2fa4957c9b831eac6279df9d36eec9f687248e3a146e22a14061ac1bcf04d"
    # corot: JSON with every err set to 0, and the errs themselves (the closed-form
    # p = 2 errs now go through _pth_root, which rounds them differently in the last bits);
    # re-taken when each quadratic form came to be one exact term sum: one value moved by
    # 1.7e-16 relative, within 0.006 of the combined err, and the errs by 0.92 to 1.85 times;
    # and when the report's params lost the tol that no corot value reads (nothing else moved)
    COROT_SHA = "29617b783ae3f3c9a9ed702443b4ce07d3b98a44417eaaba4a8d1b434cb6bb2e"
    COROT_ERRS = (
        "0x1.076f411ad56dep-47", "0x1.aa844a84c1455p-48", "0x1.3b638e7d01064p-47",
        "0x1.7b7efe77a01c6p-47", "0x1.17c73d7f844e3p-47", "0x1.01532257104f4p-47",
        "0x1.743cdf07369d1p-46", "0x1.7c1fa5800cd63p-45",
    )

    @staticmethod
    def sha(report):
        return hashlib.sha256(report.to_json().encode()).hexdigest()

    def test_equivalence_and_boundedness_bytes_pinned(self, corpus):
        assert self.sha(equivalence_report(corpus[:8], 3, 0, 3.0, 1.0)) == self.EQUIVALENCE_SHA
        assert self.sha(boundedness_report(corpus[:8], 3, 0, 3.0, 1.0)) == self.BOUNDEDNESS_SHA

    def test_corot_bytes_pinned_up_to_err_rounding(self, corpus):
        report = corot_report(corpus[:4], 2, 1, 1.0)
        errs = [e.err for e in report.entries]
        report.entries[:] = [e._replace(err=0.0) for e in report.entries]
        assert self.sha(report) == self.COROT_SHA
        for got, want in zip(errs, map(float.fromhex, self.COROT_ERRS), strict=True):
            assert got == pytest.approx(want, rel=4e-16)

    def test_unconverged_boundedness_entries_are_flagged_and_kept(self, corpus):
        report = boundedness_report(corpus, 3, 0, 3.0, 1.0, tol=1e-30)
        flagged = [row["label"] for row in report.degenerate]
        assert len(flagged) == 24
        assert {row["reason"] for row in report.degenerate} == {"unconverged quadrature"}
        assert len(report.entries) == 2 * len(corpus)
        assert not boundedness_report(corpus, 3, 0, 3.0, 1.0).degenerate

    # report -> (module, route function to break, report builder)
    REPORTS = {
        "equivalence": (norms, "_profile_d_detail", lambda c: equivalence_report(c, 2, 1, 2, 1.0)),
        "corot": (norms, "_corot_lhs_detail", lambda c: corot_report(c, 2, 1, 1.0)),
        "boundedness": (
            opspace, "_profile_squared_detail", lambda c: boundedness_report(c, 2, 1, 2, 1.0)
        ),
    }

    @pytest.mark.parametrize("report", sorted(REPORTS))
    @pytest.mark.parametrize(
        "value, reason",
        [(math.nan, "non-finite norm"), (math.inf, "non-finite norm"), (0.0, "zero norm")],
    )
    def test_degenerate_route_value(self, report, value, reason, monkeypatch):
        module, name, build = self.REPORTS[report]
        gauss = [CorpusEntry("gauss", GAUSS)]
        gauss_only = build(gauss).ratios
        real = getattr(module, name)
        calls = []

        def broken_on_second_profile(*args):
            calls.append(args)
            return NormValue(value, 0.0) if len(calls) == 2 else real(*args)

        monkeypatch.setattr(module, name, broken_on_second_profile)
        rep = build(gauss + [CorpusEntry("broken", Profile([(1, 4, 2)]))])
        assert rep.degenerate == [{"label": "broken", "reason": reason}]
        assert {e.label for e in rep.entries} == {"gauss", "broken"}
        assert rep.ratios == gauss_only


class TestHalflineReports:
    """At r = inf every report lists the profiles without decay and writes the radius as "inf"."""

    NO_DECAY = "no decay; not admissible on the half-line"
    # report -> builder at radius r
    AT_RADIUS = {
        "corot": lambda c, r: corot_report(c, 2, 1, r),
        "boundedness": lambda c, r: boundedness_report(c, 3, 1, 2.0, r),
    }

    @pytest.mark.parametrize("report", sorted(AT_RADIUS))
    def test_profiles_without_decay_are_degenerate(self, report, corpus):
        rep = self.AT_RADIUS[report](corpus, math.inf)
        no_decay = [e.label for e in corpus if not e.profile.decays]
        assert len(no_decay) == 8
        assert rep.degenerate == [{"label": label, "reason": self.NO_DECAY} for label in no_decay]
        assert {e.label for e in rep.entries}.isdisjoint(no_decay)
        assert json.loads(rep.to_json())["params"]["r"] == "inf"

    @pytest.mark.parametrize("report", sorted(AT_RADIUS))
    def test_matches_a_far_radius(self, report, decaying_corpus):
        # every decay rate is >= 1/2, so the integrands beyond rho = 12 are below e^(-72)
        far, inf = (self.AT_RADIUS[report](decaying_corpus, r) for r in (12.0, math.inf))
        assert inf.degenerate == far.degenerate == []
        assert json.loads(inf.to_json())["params"]["r"] == "inf"
        for a, b in zip(inf.entries, far.entries, strict=True):
            assert (a.label, a.route) == (b.label, b.route)
            assert a.value == pytest.approx(b.value, rel=1e-12)


def quadrature_square(d, expansions, f, r):
    """Squared L^2 norm of sum_j P_j(x) (D^j f)(|x|) summed over the expansions.

    Angular factors by float sphere moments per expansion, radial factors by
    adaptive quadrature of the evaluated profiles (on (0, 12) for r = inf,
    where every integrand here decays like exp(-rho^2)).
    """
    upper = 12.0 if math.isinf(r) else r
    angular = {}
    for expansion in expansions:
        for j, poly in expansion:
            for j2, poly2 in expansion:
                mom = sum(
                    float(c) * sphere_monomial_moment(d, beta)
                    for beta, c in (poly * poly2).coeffs.items()
                )
                deg = poly.homogeneous_degree() + poly2.homogeneous_degree()
                angular[j, j2, deg] = angular.get((j, j2, deg), 0.0) + mom
    total = 0.0
    for (j, j2, deg), mom in angular.items():
        g, h, m = d_op(f, j), d_op(f, j2), d - 1 + deg
        res = integrate_1d(lambda x: x**m * g.eval(x) * h.eval(x), 0.0, upper, tol=1e-13)
        assert res.error_estimate <= 1e-13 * max(1.0, abs(res.value))
        total += mom * res.value
    return total


class TestClosedFormRoute:
    @pytest.mark.parametrize("d, orders, r", [(3, [0, 1, 2], 1.0), (2, [0, 1, 2], 0.7), (4, [1], math.inf)])
    def test_definition_matches_quadrature(self, corpus, d, orders, r):
        for entry in corpus:
            f = entry.profile
            if math.isinf(r) and not (f.min_decay and f.min_decay > 0):
                continue
            got = _ball_def_exact(RadialField(d, f), orders, 2.0, r, 1e-10)
            want = sum(
                quadrature_square(d, [forward_terms(d, a) for a in enumerate_multi(d, n)], f, r)
                for n in orders
            )
            assert got.value**2 == pytest.approx(want, rel=1e-11, abs=1e-300), entry.label
            # err is a rounding bound, far below the quadrature tolerances
            assert got.err <= 1e-11 * got.value

    @pytest.mark.parametrize("d, k", [(2, 2), (3, 1)])
    def test_corotational_matches_quadrature(self, corpus, d, k):
        for entry in corpus:
            f = entry.profile
            got = _corot_lhs_detail(CorotField(d, f), k, 1.0)
            want = sum(
                quadrature_square(
                    d,
                    [_corot_forward_terms(d, a, i) for a in enumerate_multi(d, n) for i in range(1, d + 1)],
                    f,
                    1.0,
                )
                for n in range(k + 1)
            )
            assert got.value**2 == pytest.approx(want, rel=1e-11, abs=1e-300), entry.label

    def test_route_runs_no_quadrature_and_no_term_products(self, corpus, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the closed-form p = 2 route must not call this")

        for module, name in [(norms, "integrate_1d"), (norms, "integrate_power_weight"),
                             (norms, "rough_scale"), (quad, "integrate_1d"),
                             (norms, "truncation_point")]:
            monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(_TermSum, "__mul__", forbidden)
        monkeypatch.setattr(_TermSum, "__rmul__", forbidden)
        f = Profile([(3, 4, 2), (-1, 2, Fraction(1, 2)), (Fraction(5, 8), 0, 1)])
        assert _ball_def_exact(RadialField(3, f), range(3), 2.0, 1.0, 1e-10).value > 0
        assert _ball_def_exact(RadialField(3, f), [2], 2.0, math.inf, 1e-10).value > 0
        assert _corot_lhs_detail(CorotField(3, f), 2, 1.0).value > 0


    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
    def test_p2_profile_pieces_match_quadrature(self, corpus, d, r):
        # closed form against adaptive quadrature, piece by piece, within the combined err
        checked = 0
        for entry in corpus:
            f = entry.profile
            if math.isinf(r) and not f.decays:
                continue
            for j in range(4):
                for g, gamma, upper in [
                    (d_op(f, j), float(d - 1 + 2 * j), r),
                    (to_squared(f).derivative(j), (d - 2 + 2 * j) / 2, r * r),
                ]:
                    exact = norms._lp_power(g, 2.0, gamma, upper, 1e-12)
                    adaptive = norms._weighted_lp_power(g, 2.0, gamma, upper, 1e-12)
                    assert exact.converged and adaptive.converged
                    gap = abs(exact.value - adaptive.value)
                    assert gap <= exact.error_estimate + adaptive.error_estimate, (entry.label, j)
                    checked += 1
        assert checked > 0

    def test_p2_profile_routes_run_no_quadrature(self, corpus, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the closed-form p = 2 route must not call this")

        monkeypatch.setattr(norms, "_weighted_lp_power", forbidden)
        for entry in corpus[:8]:
            for r in (1.0, math.inf) if entry.profile.decays else (1.0,):
                f, ft = entry.profile, to_squared(entry.profile)
                assert _profile_d_detail(f, 3, range(3), 2.0, r, "p-power", 1e-10).converged
                assert _profile_squared_detail(ft, 3, range(3), 2.0, r * r, "p-power", 1e-10).converged

    def test_p2_inequality_integrals_never_fall_back(self, corpus, monkeypatch):
        # at p = 2 the closed form is taken whatever tol, fractional weight exponents included
        def forbidden(*args, **kwargs):
            raise AssertionError("a p = 2 integral fell back to quadrature")

        monkeypatch.setattr(norms, "_weighted_lp_power", forbidden)
        for entry in corpus:
            f = entry.profile
            for s in (-0.25, 0.0, 0.5):
                for r in (1.0, math.inf) if f.decays else (1.0,):
                    assert hardy_check(f, 2.0, r, s, tol=1e-30).converged
                assert boundary_check(f, 2.0, 1.0, s, tol=1e-30).converged


def _mp_radial_moment(g, h, m, r):
    """The integral of rho^m g h over (0, r) by mpmath quadrature at 50 digits."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for c1, a1, b1 in g.terms:
            for c2, a2, b2 in h.terms:
                c = mpmath.mpf(c1.numerator * c2.numerator) / (c1.denominator * c2.denominator)
                b = mpmath.mpf(b1.numerator * b2.denominator + b2.numerator * b1.denominator) / (
                    b1.denominator * b2.denominator
                )
                s = m + a1 + a2 + 1
                upper = mpmath.inf if math.isinf(r) else mpmath.mpf(r)
                # split at the peak of the integrand so the quadrature sees a smooth bump
                peak = mpmath.sqrt((s - 1) / (2 * b)) if b and s > 1 else mpmath.mpf(0)
                points = [0, peak, upper] if 0 < peak < upper else [0, upper]
                total += c * mpmath.quad(lambda x: x ** (s - 1) * mpmath.exp(-b * x * x), points)
        return total


class TestPairIntegral:
    """The radial factor of the p = 2 quadratic forms: int_0^r sum w rho^m g h, one exact term sum."""

    DECAYS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 2), Fraction(4)]

    def _random_profile(self, rng, decaying):
        decays = self.DECAYS[1:] if decaying else self.DECAYS
        return Profile(
            [
                (Fraction(rng.randrange(-40, 41) or 1, rng.choice([1, 2, 3, 8])), rng.randrange(0, 13),
                 rng.choice(decays))
                for _ in range(rng.randint(1, 3))
            ]
        )

    def test_matches_mpmath_within_bound(self):
        rng = random.Random(7)
        for case in range(60):
            r = rng.choice([0.3, 1.0, 1.7, 3.0, math.inf])
            g = self._random_profile(rng, math.isinf(r))
            h = self._random_profile(rng, math.isinf(r))
            m = rng.randrange(0, 13)
            value, err = norms._pair_integral([(1, m, g, h)], r)
            want = _mp_radial_moment(g, h, m, r)
            assert abs(mpmath.mpf(value) - want) <= err, (case, g, h, m, r)
            # the bound is a rounding bound, not a loose quadrature estimate
            scale, _ = norms._pair_integral(
                [(1, m, Profile([(abs(c), a, b) for c, a, b in g.terms]),
                  Profile([(abs(c), a, b) for c, a, b in h.terms]))],
                r,
            )
            assert err <= 1e-12 * scale

    def test_weighted_pairs_sum_within_bound(self):
        # rational weights and several pairs make one term sum: within err of the weighted sum
        # of the references, also where the pairs cancel to near zero
        rng = random.Random(8)
        for case in range(20):
            r = rng.choice([1.0, 1.1, math.inf])
            pairs = [
                (Fraction(rng.randrange(-9, 10) or 1, rng.choice([1, 3, 7])), rng.randrange(0, 7),
                 self._random_profile(rng, math.isinf(r)), self._random_profile(rng, math.isinf(r)))
                for _ in range(rng.randint(1, 4))
            ]
            pairs.append((-pairs[0][0], *pairs[0][1:]))  # the first pair cancels exactly
            value, err = norms._pair_integral(pairs, r)
            with mpmath.workdps(50):
                want = mpmath.fsum(
                    mpmath.mpf(w.numerator) / w.denominator * _mp_radial_moment(g, h, m, r)
                    for w, m, g, h in pairs
                )
                assert abs(mpmath.mpf(value) - want) <= err, (case, pairs, r)

    def test_single_terms_closed_forms(self):
        # int_0^1 rho^2 d rho = 1/3 and int_0^inf rho e^(-rho^2) d rho = 1/2
        one = Profile([(1, 0, 0)])
        assert norms._pair_integral([(1, 2, one, one)], 1.0)[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
        gauss = Profile([(1, 0, Fraction(1, 2))])
        assert norms._pair_integral([(1, 1, gauss, gauss)], math.inf)[0] == pytest.approx(
            0.5, rel=1e-15)

    def test_zero_profile(self):
        assert norms._pair_integral([(1, 3, Profile([]), Profile([(1, 0, 1)]))], 1.0) == (0.0, 0.0)

    def test_non_decaying_pair_on_half_line_rejected(self):
        with pytest.raises(ValueError, match="decaying"):
            norms._pair_integral(
                [(1, 2, Profile([(1, 0, 0)]), Profile([(1, 2, 1), (1, 0, 0)]))], math.inf)

    @pytest.mark.parametrize("r", [math.nan, -1.0, 0.0])
    def test_radius_not_positive_rejected(self, r):
        # a NaN radius would otherwise never end the incomplete-gamma series
        gauss = Profile([(1, 0, 1)])
        with pytest.raises(ValueError, match="need r > 0"):
            norms._pair_integral([(1, 2, gauss, gauss)], r)

    def test_overflowing_radius_is_nan(self):
        # r^s beyond the float range is inf in both terms of (1 - rho^2) rho^2: inf - inf
        pair = (1, 2, Profile([(1, 0, 0), (-1, 2, 0)]), Profile([(1, 0, 0)]))
        value, err = norms._pair_integral([pair], 1e300)
        assert math.isnan(value) and not math.isfinite(err)


class TestOverflow:
    BIG = Profile([(10**200, 0, 1)])
    BIG_MIXED = Profile([(10**200, 0, 1), (-(10**200), 2, 1)])

    def test_envelope_beyond_float_range_is_inf(self):
        assert norms._gauss_envelope([(self.BIG, 1, 0)], 2.0)[0] == math.inf
        assert norms._gauss_envelope([(Profile([(10**400, 0, 1)]), 1, 0)], 1.0)[0] == math.inf

    def test_closed_form_overflow_is_nan_not_an_error(self):
        # the terms of BIG_MIXED^2 overflow to +inf and -inf; their sum is NaN, and so is its
        # rounding bound, whose last addend is eps times that sum
        value, err = norms._pair_integral([(1, 1, self.BIG_MIXED, self.BIG_MIXED)], 1.0)
        assert math.isnan(value) and not math.isfinite(err)
        nv = _corot_lhs_detail(CorotField(2, self.BIG_MIXED), 1, 1.0)
        assert not math.isfinite(nv.value)

    def test_quadrature_route_overflow_is_flagged(self):
        with np.errstate(all="ignore"):
            nv = norms._profile_d_detail(self.BIG, 2, [1], 3.0, 1.0, "p-power", 1e-10)
        assert math.isnan(nv.value) and not nv.converged

    @pytest.mark.parametrize("route", ["D", "squared"])
    def test_p2_route_overflow_is_flagged(self, route):
        # the closed form's pair products overflow to inf
        if route == "D":
            nv = norms._profile_d_detail(self.BIG, 2, [0, 1], 2.0, 1.0, "p-power", 1e-10)
        else:
            ft = to_squared(self.BIG)
            nv = norms._profile_squared_detail(ft, 2, [0, 1], 2.0, 1.0, "p-power", 1e-10)
        assert not (math.isfinite(nv.value) and math.isfinite(nv.err))
        report = equivalence_report([CorpusEntry("big", self.BIG)], 2, 1, 2.0, 1.0)
        assert report.degenerate == [{"label": "big", "reason": "non-finite norm"}]

    def test_report_writes_null_and_flags_the_profile(self):
        with np.errstate(all="ignore"):
            report = equivalence_report([CorpusEntry("big", self.BIG)], 2, 1, 2.0, 1.0)
        doc = json.loads(report.to_json())
        assert doc["degenerate"] == [{"label": "big", "reason": "non-finite norm"}]
        assert all(e["value"] is None and e["err"] is None for e in doc["entries"])

    def test_infinite_error_alone_is_flagged(self):
        def routes(entry):
            return [("a", "m", NormValue(1.0, math.inf)), ("b", "m", NormValue(1.0, 0.0))]

        report = norms._corpus_table({}, [CorpusEntry("x", GAUSS)], routes, [("a/b", "a", "b", 1)])
        assert report.degenerate == [{"label": "x", "reason": "non-finite norm"}]
        assert json.loads(report.to_json())["entries"][0] == {
            "label": "x", "route": "a", "value": 1.0, "err": None, "method": "m"}


def _kink_candidates(f):
    """The term lists whose sign changes the D and squared routes split at, up to order 3."""
    ft = to_squared(f)
    return [d_op(f, j) for j in range(4)] + [ft.derivative(j) for j in range(4)]


def _mp_eval(prof, y):
    """prof at y from its exact terms, in the current mpmath precision."""
    return mpmath.fsum(
        mpmath.mpf(c.numerator) / c.denominator * y**a
        * mpmath.exp(-mpmath.mpf(b.numerator) / b.denominator * y**prof._q)
        for c, a, b in prof.terms
    )


def _mp_root(prof, x: float):
    """The root nearest x of prof's exact terms, by mpmath at 50 digits."""
    with mpmath.workdps(50):
        terms = [(mpmath.mpf(c.numerator) / c.denominator, a,
                  mpmath.mpf(b.numerator) / b.denominator) for c, a, b in prof.terms]
        return mpmath.findroot(
            lambda y: mpmath.fsum(c * y**a * mpmath.exp(-b * y**prof._q) for c, a, b in terms),
            mpmath.mpf(x),
        )


class TestTableRoundingBound:
    """The rounding bound of ``_TermTable.values``, which every certified cell and root window
    rests on, against mpmath at 50 digits."""

    RHO = np.concatenate([[0.0, 1e-3], np.linspace(0.05, 6.0, 40), np.linspace(6.5, 40.0, 30)])

    def test_bound_covers_the_error_of_g_and_its_derivative(self, corpus):
        worst, underflowed = 0.0, 0
        for entry in corpus:
            for j in range(4):
                f = d_op(entry.profile, j)
                # the squared form in s = rho^2, up to s = 1600, where e^(-s / 2) underflows too
                for prof, x in ((f, self.RHO), (to_squared(f), self.RHO * self.RHO)):
                    if prof.is_zero:
                        continue
                    _, g, curve, _ = norms._factored(prof)
                    with np.errstate(all="ignore"):
                        values, noises = curve.values(x)
                    for row, h in enumerate((g, g.derivative())):
                        # the table's rows are Profile.eval, bit for bit: the bound covers it
                        assert values[row].tobytes() == h.eval(x).tobytes(), h
                        with mpmath.workdps(50):
                            terms = [(mpmath.mpf(c.numerator) / c.denominator, a,
                                      mpmath.mpf(b.numerator) / b.denominator)
                                     for c, a, b in h.terms]
                            for v, noise, xi in zip(values[row], noises[row], x.tolist()):
                                y = mpmath.mpf(xi)
                                exact = mpmath.fsum(
                                    c * y**a * mpmath.exp(-b * y**h._q) for c, a, b in terms
                                )
                                err = abs(mpmath.mpf(float(v)) - exact)
                                assert err <= noise, (h, xi, v, noise)
                                if err:
                                    worst = max(worst, float(err / noise))
                                underflowed += 0 < abs(exact) < 2.0**-1022
        assert underflowed > 1000  # exact values below the normal range: 2817
        # 0.20, at x = 5.69 (seen when the bound's test was written)
        assert worst < 0.5


class TestRootRefinement:
    """Each sign change the scan refines lies within ``_root_window``'s delta of the exact root,
    and past the scan's end, the root bound B, the exact profile keeps its dominant term's sign."""

    @staticmethod
    def certified_roots(prof) -> int:
        roots = norms._sign_changes.__wrapped__(prof)
        for x in roots or ():
            window = norms._root_window(prof, x)
            assert window is not None, (prof, x)
            with mpmath.workdps(50):
                assert abs(_mp_root(prof, x) - x) <= window[0], (prof, x)
        if roots is not None and len({c > 0 for c, _, _ in prof.terms}) == 2:
            bound, sign = norms._root_bound(prof), norms._dominant(prof)[0] > 0
            with mpmath.workdps(50):
                for y in (1.0, 1.01, 1.1, 1.5, 2.0, 4.0, 16.0):
                    value = _mp_eval(prof, mpmath.mpf(bound) * mpmath.mpf(y))
                    assert value != 0 and (value > 0) == sign, (prof, bound, y)
        return len(roots or ())

    def test_builtin_corpus_roots(self, corpus):
        total = sum(
            self.certified_roots(g) for entry in corpus for g in _kink_candidates(entry.profile)
        )
        assert total > 200  # 242 when written

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-2, max_value=2, max_denominator=8),
                st.sampled_from([0, 2, 4, 6]),
                st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_drawn_profile_roots(self, terms):
        for g in _kink_candidates(Profile(terms)):
            self.certified_roots(g)

    @staticmethod
    def assert_closed_form(prof, root):
        res = norms._closed_lp_power.__wrapped__(prof, 3, 0.0, 1.0)
        assert res is not None
        want = _mp_lp_power(prof, 3, 0.0, 1.0, [root])
        assert abs(res.value - want) <= res.error_estimate

    @pytest.mark.parametrize("m", [2070, 2075])
    def test_root_where_prof_underflows(self, m):
        # rho^m (1 - 100 rho^2 / 49) underflows near its root 0.7: to 0.0 at m = 2070, and to
        # values of the wrong sign at m = 2075; g = 1 - 100 rho^2 / 49 does not
        prof = Profile([(1, m, 0), (-Fraction(100, 49), m + 2, 0)])
        assert norms._sign_changes.__wrapped__(prof) == pytest.approx((0.7,), rel=4 * 2.0**-52)
        self.assert_closed_form(prof, mpmath.mpf(7) / 10)

    def test_tiny_root_to_relative_precision(self):
        # rho^30 - 1.54108e20 rho^32: an absolute tolerance of 1e-15 misses its root 8.06e-11
        prof = Profile([(1, 30, 0), (-154108 * 10**15, 32, 0)])
        (root,) = norms._sign_changes.__wrapped__(prof)
        with mpmath.workdps(50):
            exact = 1 / mpmath.sqrt(154108 * 10**15)
            assert abs(root - exact) <= 4 * 2.0**-52 * exact
        assert root == pytest.approx(8.0554055e-11, rel=1e-8)
        self.assert_closed_form(prof, exact)

    @staticmethod
    def refine(prof, brackets):
        """``_refine_roots`` of prof on the (lo, hi) brackets, each handed g(lo) as the scan does."""
        _, _, curve, _ = norms._factored(prof)
        with np.errstate(all="ignore"):
            (v_lo, _), _ = curve.values(np.array([lo for lo, _ in brackets]))
            return norms._refine_roots(curve, [(lo, hi, v) for (lo, hi), v in zip(brackets, v_lo)])

    def test_newton_step_outside_the_bracket_bisects(self):
        # (rho^2 - 1) e^(-rho^2) on (0, 6): beyond sqrt(2) it falls toward 0 as rho grows, so a
        # Newton step from the midpoint 3 heads off to infinity; the refinement bisects to
        # 1.5 and 0.75 instead, and Newton takes over toward the root 1
        prof = Profile([(1, 2, 1), (-1, 0, 1)])
        (root,) = self.refine(prof, [(0.0, 6.0)])
        assert abs(root - 1.0) <= 4 * 2.0**-52

    def test_brackets_refined_together_keep_their_order(self):
        # (rho^2 - 0.09)(rho^2 - 0.36)(rho^2 - 0.81): roots 0.3, 0.6 and 0.9; the narrow first
        # bracket converges steps before the wide ones, and all come back in bracket order
        prof = Profile([
            (1, 6, 0), (-Fraction(126, 100), 4, 0),
            (Fraction(3969, 10000), 2, 0), (-Fraction(26244, 1000000), 0, 0),
        ])
        roots = self.refine(prof, [(0.3 - 1e-9, 0.3 + 1e-9), (0.45, 0.7), (0.85, 0.99)])
        for root, exact in zip(roots, (0.3, 0.6, 0.9), strict=True):
            assert abs(root - exact) <= 4 * 2.0**-52 * exact

    def test_capped_refinement_is_certified_or_refused(self, monkeypatch):
        # one step leaves each root short of convergence: it stays in its bracket, and
        # _root_window either certifies it against the exact root or returns None
        monkeypatch.setattr(norms, "_ROOT_STEPS", 1)
        prof = Profile([(1, 8, 0), (-Fraction(9, 10) ** 8, 0, 0)])
        brackets = [(0.0, 1.0), (0.85, 0.95), (0.89, 0.91)]
        refused = 0
        for (lo, hi), root in zip(brackets, self.refine(prof, brackets), strict=True):
            assert lo < root < hi
            window = norms._root_window(prof, root)
            if window is None:
                refused += 1
            else:
                with mpmath.workdps(50):
                    assert abs(_mp_root(prof, root) - root) <= window[0]
        assert refused >= 1  # the wide bracket's first step is a bisection to 0.75


# The err audit of the adaptive 1-D integrals over builtin corpus profiles, in d = 3: each row is
# (label, route, j, p, r, s, reference, interior sign changes of the integrand).  The route names
# the integral of x^gamma |g|^p:
#   D        g = D^j f over (0, r), as the D route rounds gamma;
#   squared  g = f~^(j) over (0, r^2), as the squared route rounds gamma;
#   hardy    g = f^(j) over (0, r) with gamma = p (s + j), the two integrals of hardy_check and
#            boundary_check, at their tol 1e-12;
#   def      g = f over (0, r) with gamma = d - 1, the p-th power of the k = 0 norm of f(|x|) that
#            _ball_def_exact computes; its reference is that norm, (|S^(d-1)| integral)^(1/p).
# s is None outside the hardy rows.  The references come from tests/make_err_refs.py: mpmath at 50
# digits, split at the sign changes it finds on its own scan grid.
ERR_D = 3
ERR_REFS = [
    ("seed16", "D", 1, 3.0, 1.0, None, "0.0131882200156890381967161403024", 1),
    ("seed16", "D", 1, 3.0, math.inf, None, "0.278650395584731464718608055172", 1),
    ("seed16", "squared", 1, 1.5, 1.0, None, "0.0391538067202234435004794878871", 1),
    ("gauss", "D", 1, 1.5, math.inf, None, "0.643488458207041429503302036478", 0),
    ("gauss", "D", 0, 1.0, 1.0, None, "0.189472345820492351901971832985", 0),
    ("rho4_gauss2", "D", 1, 1.0, 2.0, None, "1.00230202332898682847152875436", 1),
    ("rho4_gauss2", "D", 1, 3.0, math.inf, None, "0.264207809555671956828841740908", 1),
    ("seed08", "D", 0, 1.0, 1.0, None, "0.0722971866392784279357469882626", 1),
    ("seed14", "D", 0, 1.5, math.inf, None, "0.729595660033337517114699074651", 1),
    ("seed19", "D", 2, 3.0, 1.0, None, "1.42991989238389879200489436625", 0),
    ("seed03", "squared", 2, 3.0, math.inf, None, "3.90445374562050286977621140838", 1),
    ("seed10", "D", 1, 1.0, math.inf, None, "2.56590015538903834397456933706", 2),
    ("seed00", "D", 2, 1.5, 1.0, None, "1.12844635102454874952295204753", 1),
    ("gauss", "hardy", 0, 1.0, 1.0, -0.3, "1.14381608478017126151584727272", 0),
    ("seed08", "hardy", 0, 3.0, 1.0, -0.3, "0.0125040984958084237298407988648", 1),
    ("gauss", "hardy", 0, 3.0, math.inf, -0.3, "9.21471263412148444742146689158", 0),
    ("seed16", "hardy", 1, 1.0, math.inf, -0.3, "1.02715390714742166455969314412", 1),
    ("seed10", "hardy", 1, 3.0, math.inf, -0.3, "0.565891727915892622163744071597", 2),
    ("seed00", "hardy", 1, 1.0, 1.0, 0.5, "0.289393510709301575892629821802", 1),
    ("seed14", "hardy", 0, 3.0, 1.0, 0.5, "0.0416833186861552401467156299553", 1),
    ("seed02", "hardy", 0, 1.0, math.inf, 0.5, "3.29153639905259289896544607035", 1),
    ("rho4_gauss2", "hardy", 1, 3.0, math.inf, 0.5, "0.515123898849789224974053870483", 1),
    ("seed08", "def", 0, 1.0, 1.0, None, "0.908513241684669049056203485668", 1),
    ("gauss", "def", 0, 3.0, 1.0, None, "0.983744142420247794433607594001", 0),
    ("seed14", "def", 0, 3.0, math.inf, None, "1.44275965069589612846726698672", 1),
    ("rho4_gauss2", "def", 0, 1.0, math.inf, None, "5.53697224654303819135218023243", 0),
    # fractional p: pieces between two sign changes, from 0 to one, and from one to r or to the
    # half-line's truncation point, each integrated in a variable smooth at the sign change
    ("seed10", "D", 1, 1.5, math.inf, None, "1.4704302288090244925935282877", 2),
    ("seed10", "D", 1, 1.5, 2.0, None, "0.904523503929074971551140232945", 2),
    ("seed08", "squared", 1, 1.5, math.inf, None, "14.1079560317438818202504521781", 2),
    ("seed09", "squared", 2, 1.5, 1.0, None, "0.508237629798140825617524950623", 2),
    ("seed10", "D", 1, 1.3, math.inf, None, "1.79938142503729505788242290198", 2),
    ("seed09", "D", 2, 1.3, 1.0, None, "1.41870806780198151212400425098", 2),
    ("seed04", "squared", 1, 1.3, math.inf, None, "3.11876810303926361421998778829", 1),
    ("seed08", "D", 0, 1.3, 1.0, None, "0.0516239601635439387102375430251", 1),
]


# the p = 2 closed-form D and squared pieces (norms._lp_power): (label, route, d, j, r, ref)
P2_ERR_REFS = [
    ("seed01", "D", 3, 0, 1.0, "0.10498189091839442582228079244"),
    ("seed16", "D", 3, 0, math.inf, "0.474020353323345514690770564278"),
    ("seed09", "D", 3, 2, 1.0, "5.23465735255428360289636026693"),
    ("seed00", "D", 3, 2, math.inf, "10.8606588966877935909545977486"),
    ("seed13", "D", 4, 0, 1.0, "0.0987154607940852005700328351183"),
    ("seed03", "D", 4, 0, math.inf, "4.55890034016927083333333333333"),
    ("seed05", "D", 4, 2, 1.0, "0.0292943175637492561565310103527"),
    ("seed18", "D", 4, 2, math.inf, "399.616436993634259259259259259"),
    ("seed11", "squared", 3, 0, 1.0, "0.0892714507942908783588911588412"),
    ("seed14", "squared", 3, 0, math.inf, "0.961326400140526658142530720794"),
    ("seed17", "squared", 3, 2, 1.0, "0.00479802380107969375491621438186"),
    ("seed06", "squared", 3, 2, math.inf, "11.0780950601276003801863426178"),
    ("rho2", "squared", 4, 0, 1.0, "0.25"),
    ("rho4_gauss2", "squared", 4, 0, math.inf, "0.263671875"),
    ("seed01", "squared", 4, 2, 1.0, "0.237936628833038086771457157909"),
    ("seed15", "squared", 4, 2, math.inf, "3.9199640721450617283950617284"),
    # 1.1 * 1.1 is no float square: the squared pieces are integrated up to it in s itself
    ("seed07", "D", 3, 0, 1.1, "0.0121282690331698192915880379454"),
    ("seed09", "D", 3, 2, 1.1, "32.0981527129985869069975175868"),
    ("seed05", "squared", 3, 0, 1.1, "0.0868396160574558654870673823921"),
    ("seed18", "squared", 3, 2, 1.1, "0.292065658909906955255981512246"),
]


# integer-p Hardy integrals whose integrand changes sign, at s = -1/6: the closed form
# (norms._closed_lp_power) integrates them piece by piece between the sign changes; rows as ERR_REFS
KINK_S = -1 / 6
KINK_ERR_REFS = [
    ("seed00", "hardy", 1, 1.0, 2.0, KINK_S, "0.919506013011292072164805491904", 2),
    ("seed00", "hardy", 1, 3.0, math.inf, KINK_S, "0.460707487517207180473484527098", 2),
    ("seed02", "hardy", 1, 1.0, math.inf, KINK_S, "4.97346023903217575922922590664", 2),
    ("seed08", "hardy", 0, 3.0, 1.0, KINK_S, "0.0121598253045441706304319470528", 1),
    ("seed08", "hardy", 1, 3.0, 2.0, KINK_S, "21.9998140320653622193007950404", 2),
    ("seed10", "hardy", 1, 1.0, math.inf, KINK_S, "1.36176042647084127623536493313", 2),
    ("seed14", "hardy", 0, 1.0, 1.0, KINK_S, "0.600756683796001843771842385231", 1),
    ("seed16", "hardy", 1, 3.0, 1.0, KINK_S, "0.0125330955392939027363268763385", 1),
    ("rho4_gauss2", "hardy", 1, 3.0, 2.0, KINK_S, "0.288829719341746514346391123403", 1),
]


# profiles on which the sign-change scan gives up (norms._sign_changes returns None): a double
# root, the same under a Gaussian, and two roots 5e-10 apart.  At integer p the closed form then
# falls back to adaptive quadrature; rows as ERR_REFS
SCAN_FALLBACK_PROFILES = {
    "rho2m1_sq": Profile([(1, 4, 0), (-2, 2, 0), (1, 0, 0)]),
    "rho2m1_sq_gauss": Profile([(1, 4, 1), (-2, 2, 1), (1, 0, 1)]),
    "rho2m1_close_pair": Profile(
        [(1, 4, 0), (-2 - Fraction(1, 10**9), 2, 0), (1 + Fraction(1, 10**9), 0, 0)]
    ),
}
SCAN_FALLBACK_ERR_REFS = [
    ("rho2m1_sq", "D", 0, 3.0, 2.0, None, "297.112132312132312132312132312", 0),
    ("rho2m1_sq_gauss", "D", 0, 3.0, math.inf, None, "0.0290672950897223051559826344068", 0),
    ("rho2m1_close_pair", "D", 0, 3.0, 2.0, None, "297.112131968302808439029947811", 0),
]


# the p = 2 quadratic forms (norms._form_square) of all order-n derivatives, orders n >= 1 of the
# definition route and of the corotational norm: (matrix, d, n, label, r, ref), ref the form
# |S^(d-1)| sum_(a,b) A_ab int_0^r rho^(d-1+deg_a+deg_b) D^(j_a)f D^(j_b)f over a builtin corpus
# profile, from tests/make_err_refs.py.  The seed06 rows at n = 3 cancel: their terms' absolute
# values sum to over 1000 times the form
FORM_MATRICES = {"angular": angular_matrix, "corot": corot_angular_matrix}
FORM_ERR_REFS = [
    ("angular", 2, 1, "seed01", 1.0, "19.1756114129590948627348573345"),
    ("angular", 3, 2, "seed09", 1.0, "69.0861845355610297016050726001"),
    ("angular", 4, 1, "seed05", 1.1, "1.49934440330470460380733584385"),
    ("angular", 3, 2, "seed13", 1.1, "1118.44838878697529922653555092"),
    ("angular", 3, 1, "seed03", math.inf, "74.5269586590410002343859522745"),
    ("angular", 4, 2, "seed15", math.inf, "464.26193590266078384422733181"),
    ("angular", 5, 3, "seed06", math.inf, "52882.8241035129037471575875813"),
    ("corot", 2, 1, "seed11", 1.0, "1.47145256090785511291837180781"),
    ("corot", 3, 2, "seed17", 1.0, "9.92325927629373142425267061705"),
    ("corot", 3, 1, "seed00", 1.1, "4.2039114513405979102648235545"),
    ("corot", 2, 2, "seed09", 1.1, "352.803432448257114387102283389"),
    ("corot", 2, 1, "seed14", math.inf, "13.7690115520615156779495542033"),
    ("corot", 3, 2, "seed18", math.inf, "8750.88683752164535165886043026"),
    ("corot", 4, 3, "seed06", math.inf, "93699.8541138884179758147125339"),
]


def err_route_integral(
    label: str, route: str, j: int, p: float, r: float, s: float | None, d: int = ERR_D
):
    """(g, p, gamma, upper) of one ERR_REFS row, with gamma as the code under audit rounds it."""
    f = {**{e.label: e.profile for e in builtin_corpus()}, **SCAN_FALLBACK_PROFILES}[label]
    if route == "D":
        return d_op(f, j), p, float(d - 1 + j * Fraction(p)), r
    if route == "squared":
        return to_squared(f).derivative(j), p, float((d - 2 + j * Fraction(p)) / 2), r * r
    if route == "hardy":
        return f.derivative(j), p, p * (s + j), r
    return f, p, d - 1, r


def err_row_id(row) -> str:
    label, route, j, p, r, s = row[:6]
    return f"{label}-{route}-j{j}-p{p:g}-r{r:g}" + ("" if s is None else f"-s{s:g}")


class TestErrCoversTrueError:
    """Every audited integral lies within its err of the extended-precision reference."""

    @pytest.mark.parametrize(
        "label, route, j, p, r, s, ref, sign_changes", ERR_REFS, ids=map(err_row_id, ERR_REFS)
    )
    def test_value_within_err(self, label, route, j, p, r, s, ref, sign_changes):
        # the first row missed at a bare panel floor: true error 1.2967e-17, err 1.1713e-17
        g, p, gamma, upper = err_route_integral(label, route, j, p, r, s)
        if route == "def":
            value, err, _, converged = _ball_def_exact(RadialField(ERR_D, g), [0], p, r, 1e-10)
        else:
            res = norms._weighted_lp_power(g, p, gamma, upper, 1e-12 if route == "hardy" else 1e-10)
            value, err, converged = res.value, res.error_estimate, res.converged
        assert converged
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(value) - mpmath.mpf(ref)) <= err

    @pytest.mark.parametrize(
        "label, route, d, j, r, ref", P2_ERR_REFS,
        ids=[f"{row[0]}-{row[1]}-d{row[2]}-j{row[3]}-p2-r{row[4]:g}" for row in P2_ERR_REFS],
    )
    def test_p2_closed_form_within_err(self, label, route, d, j, r, ref):
        g, p, gamma, upper = err_route_integral(label, route, j, 2.0, r, None, d)
        res = norms._lp_power(g, p, gamma, upper, 1e-10)
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(res.value) - mpmath.mpf(ref)) <= res.error_estimate

    def test_p2_rows_cover_d_j_and_r(self):
        for route in ("D", "squared"):
            assert {row[2:5] for row in P2_ERR_REFS if row[1] == route} == {
                (d, j, r) for d in (3, 4) for j in (0, 2) for r in (1.0, math.inf)
            } | {(3, j, 1.1) for j in (0, 2)}

    @pytest.mark.parametrize(
        "matrix, d, n, label, r, ref", FORM_ERR_REFS,
        ids=[f"{row[0]}-d{row[1]}-n{row[2]}-{row[3]}-r{row[4]:g}" for row in FORM_ERR_REFS],
    )
    def test_p2_form_within_err(self, matrix, d, n, label, r, ref):
        f = {e.label: e.profile for e in builtin_corpus()}[label]
        value, err = norms._form_square(FORM_MATRICES[matrix](d, n), f, r)
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(value) - mpmath.mpf(ref)) <= err

    def test_form_rows_cover_matrices_radii_orders_and_cancellation(self):
        assert {(row[0], row[4]) for row in FORM_ERR_REFS} == {
            (matrix, r) for matrix in FORM_MATRICES for r in (1.0, 1.1, math.inf)
        }
        assert {row[2] for row in FORM_ERR_REFS} == {1, 2, 3}
        for matrix, d, n, label, r, ref in FORM_ERR_REFS:
            # the same form on the absolute values of the entries and of the profile's terms
            f = {e.label: e.profile for e in builtin_corpus()}[label]
            mat = FORM_MATRICES[matrix](d, n)
            radial = [Profile([(abs(c), a, b) for c, a, b in d_op(f, j).terms]) for j in mat.js]
            pairs = [
                (abs(mat.entries[a][b]) * (2 - (a == b)), d - 1 + mat.degrees[a] + mat.degrees[b],
                 radial[a], radial[b])
                for a in range(len(radial)) for b in range(a, len(radial))
            ]
            size = sphere_area(d) * norms._pair_integral(pairs, r)[0]
            assert (size > 1000 * float(ref)) == (label == "seed06" and n == 3), (matrix, d, n, label)

    def test_rows_cover_p_r_and_kinks(self):
        assert {row[3] for row in ERR_REFS} == {1.0, 1.3, 1.5, 3.0}
        for p in (1.5, 1.3):
            rows = [row for row in ERR_REFS if row[3] == p]
            # a D piece between two sign changes, a half-line's last piece from one, and the
            # squared route across one
            assert any(row[1] == "D" and row[7] >= 2 for row in rows), p
            assert any(math.isinf(row[4]) and row[7] > 0 for row in rows), p
            assert any(row[1] == "squared" and row[7] > 0 for row in rows), p
        assert {1.0, math.inf} <= {row[4] for row in ERR_REFS}
        assert {row[7] > 0 for row in ERR_REFS} == {True, False}
        p_r = {(p, r) for p in (1.0, 3.0) for r in (1.0, math.inf)}
        for route in ("hardy", "def"):
            rows = [row for row in ERR_REFS if row[1] == route]
            assert {(row[3], row[4]) for row in rows} == p_r
            assert {row[7] > 0 for row in rows} == {True, False}
        assert {(row[3], row[4], row[5]) for row in ERR_REFS if row[1] == "hardy"} == {
            (p, r, s) for p in (1.0, 3.0) for r in (1.0, math.inf) for s in (-0.3, 0.5)
        }

    def test_root_on_a_scan_grid_point_is_split(self):
        # D rho4_gauss2 = 12 rho^2 (1 - rho^2) e^(-2 rho^2) vanishes at 1, a grid point of a scan
        # of (0, 2), which records it as a grid zero; the scan up to the root bound refines it
        # to 1 as well, and the reference splits there too
        g, _, _, upper = err_route_integral("rho4_gauss2", "D", 1, 1.0, 2.0, None)
        _, _, curve, slope = norms._factored(g)
        with np.errstate(all="ignore"):
            assert norms._scan_cells(curve, slope, upper) == ([1.0], [])
        assert norms._sign_changes(g) == (1.0,)
        assert [row[7] for row in ERR_REFS if row[:5] == ("rho4_gauss2", "D", 1, 1.0, 2.0)] == [1]

    @pytest.mark.parametrize(
        "label, route, j, p, r, s, ref, sign_changes", KINK_ERR_REFS,
        ids=map(err_row_id, KINK_ERR_REFS),
    )
    def test_closed_form_pieces_within_err(self, label, route, j, p, r, s, ref, sign_changes):
        g, p, gamma, upper = err_route_integral(label, route, j, p, r, s)
        assert len([x for x in norms._sign_changes(g) if x < upper]) == sign_changes
        closed = norms._closed_lp_power(g, int(p), gamma, upper)
        adaptive = norms._weighted_lp_power(g, p, gamma, upper, 1e-12)
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(closed.value) - mpmath.mpf(ref)) <= closed.error_estimate
            assert abs(mpmath.mpf(adaptive.value) - mpmath.mpf(ref)) <= adaptive.error_estimate

    INTEGER_P_ROWS = [row for row in ERR_REFS if row[3] == int(row[3]) and row[1] != "def"]

    @pytest.mark.parametrize("row", INTEGER_P_ROWS, ids=map(err_row_id, INTEGER_P_ROWS))
    def test_closed_form_within_err_on_the_audit_rows(self, row):
        label, route, j, p, r, s, ref, _ = row
        g, p, gamma, upper = err_route_integral(label, route, j, p, r, s)
        res = norms._closed_lp_power(g, int(p), gamma, upper)
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(res.value) - mpmath.mpf(ref)) <= res.error_estimate


class TestScanFallback:
    """Where the sign-change scan gives up on a real profile, the integer-p closed form falls
    back to adaptive quadrature, which converges to within its err of the reference."""

    @pytest.mark.parametrize(
        "label, route, j, p, r, s, ref, sign_changes", SCAN_FALLBACK_ERR_REFS,
        ids=map(err_row_id, SCAN_FALLBACK_ERR_REFS),
    )
    def test_falls_back_to_quadrature_within_err(
        self, monkeypatch, label, route, j, p, r, s, ref, sign_changes
    ):
        g, p, gamma, upper = err_route_integral(label, route, j, p, r, s)
        if math.isfinite(upper):
            assert norms._sign_changes(g) is None
        assert norms._closed_lp_power(g, int(p), gamma, upper) is None
        calls = []
        real = norms._weighted_lp_power

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(norms, "_weighted_lp_power", spy)
        res = norms._lp_power(g, p, gamma, upper, 1e-10)
        assert calls == [(g, p, gamma, upper, 1e-10)] and res.converged
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(res.value) - mpmath.mpf(ref)) <= res.error_estimate

    def test_double_root_value_is_pinned(self):
        # int_0^2 rho^2 (rho^2 - 1)^6, term by term: sum_i C(6, i) (-1)^i 2^(15 - 2i) / (15 - 2i)
        exact = sum(
            Fraction(math.comb(6, i) * (-1) ** i * 2 ** (2 * (6 - i) + 3), 2 * (6 - i) + 3)
            for i in range(7)
        )
        res = norms._lp_power(SCAN_FALLBACK_PROFILES["rho2m1_sq"], 3.0, 2.0, 2.0, 1e-10)
        assert res.value == pytest.approx(297.1121323121322, rel=1e-15)
        assert abs(Fraction(res.value) - exact) <= res.error_estimate <= 1e-14 * exact
        assert norms._sign_changes(SCAN_FALLBACK_PROFILES["rho2m1_sq"]) is None


class TestScanExits:
    """The sign-change scan's ways out other than certified roots, on real profiles."""

    def test_zero_without_a_sign_change_is_no_root(self):
        # (rho^2 - 1)(rho^2 - 1 - 1e-9) > 0 on (0, 1), yet rounds to 0.0 at scan points below 1
        prof = SCAN_FALLBACK_PROFILES["rho2m1_close_pair"]
        roots = norms._sign_changes.__wrapped__(prof)
        true = (1.0, math.sqrt(1.0 + 1e-9))
        assert roots is None or all(min(abs(x - t) for t in true) <= 4 * 2.0**-52 for x in roots)

    def test_too_many_open_cells_give_up(self, monkeypatch):
        # D seed10 has two sign changes, which the scan certifies within its default budget
        g = d_op({e.label: e.profile for e in builtin_corpus()}["seed10"], 1)
        assert len(norms._sign_changes.__wrapped__(g)) == 2
        monkeypatch.setattr(norms, "_SCAN_MAX_CELLS", 16)
        assert norms._sign_changes.__wrapped__(g) is None

    def test_non_finite_first_grid_gives_up(self):
        # 1 - 1e-310 rho^200 has its root at 35.5, and rho^200 overflows past 34.7: at the end
        # of the first grid, the root bound
        prof = Profile([(1, 0, 0), (-Fraction(1, 10**310), 200, 0)])
        bound = norms._root_bound(prof)
        assert 35.5 < bound < 40
        _, _, curve, slope = norms._factored(prof)
        with np.errstate(all="ignore"):
            assert not np.isfinite(curve.values(np.array([bound]))[0]).all()
            assert norms._scan_cells(curve, slope, bound) is None
        assert norms._sign_changes.__wrapped__(prof) is None

    def test_non_finite_after_a_bisection_gives_up(self, monkeypatch):
        # 1.6e308 + 1.1e307 rho e^(-rho^2 / 32) - rho^2, scanned up to 16: each term is finite up
        # to rho = 16, and so is their sum on the first grid 0, 8, 16 (at most 1.72e308), but
        # the sum overflows at the midpoint 4 of the first bisection, where the second term is
        # 2.7e307
        monkeypatch.setattr(norms, "_SCAN_CELLS", 1)
        monkeypatch.setattr(norms, "_root_bound", lambda prof: 16.0)
        prof = Profile([(16 * 10**307, 0, 0), (11 * 10**306, 1, Fraction(1, 32)), (-1, 2, 0)])
        _, _, curve, slope = norms._factored(prof)
        with np.errstate(all="ignore"):
            assert np.isfinite(curve.values(np.array([0.0, 8.0, 16.0]))[0]).all()
            assert not np.isfinite(curve.values(np.array([4.0]))[0]).all()
            assert norms._scan_cells(curve, slope, 16.0) is None
        assert norms._sign_changes.__wrapped__(prof) is None


class TestRootBound:
    """One scan per profile, up to the point B past which it has no root."""

    def test_root_past_the_halfline_cut_is_found(self):
        # (100 - rho^2) e^(-rho^2) changes sign at 10, past the truncation point of its p = 3
        # half-line integral at eps of the value, where the half-line scan used to stop
        g = Profile([(100, 0, 1), (-1, 2, 1)])
        assert norms._root_bound(g) > 10
        assert norms._sign_changes(g) == pytest.approx((10.0,), rel=4 * 2.0**-52)
        res = norms._closed_lp_power(g, 3, 0.5, math.inf)
        T, _ = norms._halfline_cut([(g, 1, 0)], 3, 1, 2, 2.0**-52 * res.value)
        assert T < 8
        want = _mp_lp_power(g, 3, 0.5, math.inf, [10])
        assert abs(res.value - want) <= res.error_estimate
        # the pieces (0, 10) and (10, inf) take the signs + and -, from the dominant term
        assert norms._dominant(g) == (-1, 2, 1)

    @pytest.mark.parametrize("upper", [2.0, math.inf])
    def test_bound_past_the_underflow_cap_is_uncertified(self, upper):
        # (1000 - rho^2) e^(-rho^2) changes sign at 31.6, where e^(-rho^2) is below 2^-1074; its
        # bound lies past the cap, so the profile gets no roots and the closed form falls back
        g = Profile([(1000, 0, 1), (-1, 2, 1)])
        assert norms._root_bound(g) is None and norms._sign_changes(g) is None
        assert norms._closed_lp_power(g, 3, 0.5, upper) is None
        res = norms._lp_power(g, 3.0, 0.5, upper, 1e-10)
        assert res.converged
        assert abs(res.value - _mp_lp_power(g, 3, 0.5, upper, [])) <= res.error_estimate

    def test_one_sign_profile_takes_its_terms_sign(self):
        # no roots: every piece of the closed form has the sign of the terms, here -
        g = Profile([(-1, 0, 1), (-2, 2, 2)])
        assert norms._sign_changes(g) == ()
        res = norms._closed_lp_power(g, 3, 0.5, math.inf)
        assert abs(res.value - _mp_lp_power(g, 3, 0.5, math.inf, [])) <= res.error_estimate


def _mp_lp_power(g, p, gamma, upper, points):
    """int_0^upper x^gamma |g(x)|^p at 40 digits, split at the given interior points."""
    with mpmath.workdps(40):
        terms = [(mpmath.mpf(c.numerator) / c.denominator, a,
                  mpmath.mpf(b.numerator) / b.denominator) for c, a, b in g.terms]

        def integrand(x):
            v = mpmath.fsum(c * x**a * mpmath.exp(-b * x**g._q) for c, a, b in terms)
            return x**gamma * abs(v) ** p

        end = mpmath.inf if math.isinf(upper) else mpmath.mpf(upper)
        return mpmath.quad(integrand, [0, *points, end])


class TestClosedForm:
    """Integer-p weighted integrals in closed form between certified sign changes."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, math.inf])
    def test_matches_adaptive_quadrature_within_combined_err(self, corpus, p, r):
        # the Hardy suite's weights x^(p s) and x^(p (s + 1)), on f, f', f~ and f~'
        checked = 0
        for entry in corpus:
            f = entry.profile
            if math.isinf(r) and not f.decays:
                continue
            ft = to_squared(f)
            for s in (-1.0 / (2 * p), 0.0, 0.5, 1.0, 3.0):
                for g, gamma, upper in [
                    (f, p * s, r), (f.derivative(), p * (s + 1.0), r),
                    (ft, p * s, r * r), (ft.derivative(), p * (s + 1.0), r * r),
                ]:
                    closed = norms._closed_lp_power(g, p, gamma, upper)
                    assert closed is not None, (entry.label, s)
                    adaptive = norms._weighted_lp_power(g, float(p), gamma, upper, 1e-12)
                    assert adaptive.converged
                    gap = abs(closed.value - adaptive.value)
                    assert gap <= closed.error_estimate + adaptive.error_estimate, (entry.label, s, g)
                    checked += 1
        assert checked >= 240

    def test_root_on_a_grid_point_splits_the_interval(self, monkeypatch):
        # f' of rho4_gauss2, (12 rho^3 - 12 rho^5) e^(-2 rho^2), vanishes at 1, a grid point of a
        # scan of (0, 2), and the scan up to its root bound finds it too; with the sign wrong
        # past it the p = 1 integral would be off by 2x
        g = Profile([(12, 3, 2), (-12, 5, 2)])
        assert norms._sign_changes(g) == (1.0,)
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_root_bound", lambda prof: 2.0)
            assert norms._sign_changes.__wrapped__(g) == (1.0,)
        for p, upper in ((1, 2.0), (3, 2.0), (1, math.inf), (3, math.inf)):
            res = norms._closed_lp_power(g, p, 0.5, upper)
            want = _mp_lp_power(g, p, 0.5, upper, [1])
            assert abs(res.value - want) <= res.error_estimate, (p, upper)

    @settings(max_examples=40, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 20), max_value=3, max_denominator=64),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([1, 3]),
        st.sampled_from([-0.5, 0.0, 1.5]),
        st.sampled_from([2.0, math.inf]),
    )
    def test_close_root_pair_is_right_or_falls_back(self, a, digits, p, gamma, upper):
        # (rho^2 - a)(rho^2 - a - eps) e^(-rho^2): two roots 1e-digits apart
        eps = Fraction(1, 10**digits)
        g = Profile([(a * (a + eps), 0, 1), (-(2 * a + eps), 2, 1), (1, 4, 1)])
        roots = [mpmath.sqrt(mpmath.mpf(a.numerator) / a.denominator),
                 mpmath.sqrt(mpmath.mpf((a + eps).numerator) / (a + eps).denominator)]
        res = norms._closed_lp_power(g, p, gamma, upper)
        if res is not None:
            want = _mp_lp_power(g, p, gamma, upper, roots)
            assert abs(res.value - want) <= res.error_estimate
        got = norms._lp_power(g, float(p), gamma, upper, 1e-10)
        assert got.converged

    @settings(max_examples=20, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 20), max_value=3, max_denominator=64),
        st.sampled_from([1, 3]),
        st.sampled_from([2.0, math.inf]),
    )
    def test_tangential_root_is_right_or_falls_back(self, a, p, upper):
        # (rho^2 - a)^2 e^(-rho^2) touches zero at sqrt(a) without a sign change
        g = Profile([(a * a, 0, 1), (-2 * a, 2, 1), (1, 4, 1)])
        res = norms._closed_lp_power(g, p, 0.5, upper)
        if res is not None:
            root = mpmath.sqrt(mpmath.mpf(a.numerator) / a.denominator)
            want = _mp_lp_power(g, p, 0.5, upper, [root])
            assert abs(res.value - want) <= res.error_estimate

    def test_unresolved_scan_falls_back_to_quadrature(self, monkeypatch):
        g = Profile([(1, 0, 1), (-2, 2, 0)])
        monkeypatch.setattr(norms, "_sign_changes", lambda prof: None)
        norms._closed_lp_power.cache_clear()
        assert norms._closed_lp_power(g, 3, 0.5, 1.0) is None
        calls = []
        real = norms._weighted_lp_power

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(norms, "_weighted_lp_power", spy)
        res = norms._lp_power(g, 3.0, 0.5, 1.0, 1e-12)
        assert calls == [(g, 3.0, 0.5, 1.0, 1e-12)] and res.converged
        norms._closed_lp_power.cache_clear()

    def test_cancelling_pieces_fall_back_to_quadrature(self, monkeypatch):
        # an err above rel_tol of the value sends the integral to adaptive quadrature
        g = Profile([(1, 0, 1), (-2, 2, 0)])
        closed = norms._closed_lp_power(g, 3, 0.5, 1.0)
        rel = closed.error_estimate / closed.value
        assert norms._lp_power(g, 3.0, 0.5, 1.0, 2 * rel) is closed
        assert norms._lp_power(g, 3.0, 0.5, 1.0, rel / 2) is norms._weighted_lp_power(
            g, 3.0, 0.5, 1.0, rel / 2)

    def test_every_quadrature_is_a_fallback(self, capsys, corpus, monkeypatch):
        # every integer-p Hardy, boundary, order-0 definition and p = 3 route integral is closed
        # form, and integrate_1d runs only where the closed form fell back: an uncertified scan,
        # or pieces that cancel past rel_tol
        from radsob import cli

        real_weighted, inside = norms._weighted_lp_power, []
        fallbacks = []

        def weighted(g, p, gamma, upper, rel_tol):
            if p == int(p) and not inside:
                closed = norms._closed_lp_power(g, int(p), gamma, upper)
                assert closed is None or not closed.error_estimate <= rel_tol * abs(closed.value)
                fallbacks.append((g, p, gamma, upper))
            inside.append(1)
            try:
                return real_weighted(g, p, gamma, upper, rel_tol)
            finally:
                inside.pop()

        def guarded(name):
            real = getattr(norms, name)

            def call(*args, **kwargs):
                assert inside, f"{name} outside a fallback"
                return real(*args, **kwargs)

            return call

        norms._weighted_lp_power.cache_clear()
        monkeypatch.setattr(norms, "_weighted_lp_power", weighted)
        for name in ("integrate_1d", "integrate_power_weight"):
            monkeypatch.setattr(norms, name, guarded(name))
        assert cli.main(["verify", "hardy"]) == 0
        hardy_fallbacks = len(set(fallbacks))
        capsys.readouterr()
        equivalence_report(corpus, 3, 0, 3.0, 1.0)
        equivalence_report(corpus, 3, 2, 3.0, 1.0, method="monte-carlo", samples=50)
        boundedness_report(corpus, 3, 0, 3.0, 1.0)
        # the Hardy grid's 2 640 integrals mostly take the closed form
        assert hardy_fallbacks < 2640 // 10
        real_weighted.cache_clear()

    def test_zero_profile_and_non_decaying_half_line(self):
        assert norms._lp_power(Profile([]), 3.0, 0.5, math.inf, 1e-12).value == 0.0
        with pytest.raises(ValueError, match="decaying"):
            norms._lp_power(ONE, 3.0, 0.5, math.inf, 1e-12)
