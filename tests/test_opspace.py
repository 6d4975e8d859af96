import inspect
import math
from fractions import Fraction

import pytest

from radsob import norms, opspace
from radsob.opspace import TraceExtPair, boundedness_report, extend, trace
from radsob.profile import Profile, RadialField, SquaredProfile, to_squared
from radsob.quad import QuadratureConvergenceError, sphere_area

ONE = Profile([(1, 0, 0)])
RHO2 = Profile([(1, 2, 0)])
GAUSS = Profile([(1, 0, 1)])


class TestPackageNames:
    """The package hands out the operators' names from ``opspace``, which it loads on first use."""

    def test_names_are_the_opspace_names(self):
        import radsob
        from radsob import boundedness_report as from_package

        assert from_package is opspace.boundedness_report
        for name in ("TraceExtPair", "extend", "trace"):
            assert getattr(radsob, name) is getattr(opspace, name)

    def test_other_names_raise_attribute_error(self):
        import radsob

        with pytest.raises(AttributeError, match="no_such_name"):
            radsob.no_such_name


class TestOperators:
    def test_trace_examples(self):
        assert trace(RadialField(2, RHO2)) == SquaredProfile([(1, 1, 0)])
        assert trace(RadialField(3, GAUSS)) == SquaredProfile([(1, 0, 1)])
        assert trace(RadialField(2, Profile([(3, 4, 2)]))) == SquaredProfile([(3, 2, 2)])

    def test_extend_examples(self):
        assert extend(SquaredProfile([(1, 0, 0)]), 3).profile == ONE
        assert extend(SquaredProfile([(1, 1, 0)]), 2).profile == RHO2

    def test_round_trips_exact(self, corpus):
        for d in (2, 3):
            for entry in corpus:
                field = RadialField(d, entry.profile)
                assert extend(trace(field), d) == field
                ft = to_squared(entry.profile)
                assert trace(extend(ft, d)) == ft

    def test_linearity(self, corpus):
        a, b = Fraction(3, 2), Fraction(-2, 7)
        for e1, e2 in zip(corpus[:5], corpus[5:10]):
            combo = RadialField(3, a * e1.profile + b * e2.profile)
            want = a * trace(RadialField(3, e1.profile)) + b * trace(RadialField(3, e2.profile))
            assert trace(combo) == want


class TestBoundedness:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_k0_exact_ratio(self, p, corpus):
        report = boundedness_report(corpus[:6], 3, 0, p, 1.0, tol=1e-12)
        want = (2.0 / sphere_area(3)) ** (1.0 / p)
        lo, hi = report.ratio_bounds("trace/field")
        assert lo == pytest.approx(want, rel=1e-10)
        assert hi == pytest.approx(want, rel=1e-10)

    def test_reciprocal_ratios(self, corpus):
        report = boundedness_report(corpus[:4], 2, 1, 2, 1.0)
        lo_f, hi_f = report.ratio_bounds("field/trace")
        lo_t, hi_t = report.ratio_bounds("trace/field")
        assert lo_f == pytest.approx(1.0 / hi_t, rel=1e-12)
        assert hi_f == pytest.approx(1.0 / lo_t, rel=1e-12)

    def test_interval_stable_under_refinement(self, corpus):
        coarse = boundedness_report(corpus, 3, 2, 2, 1.0, tol=1e-9)
        fine = boundedness_report(corpus, 3, 2, 2, 1.0, tol=1e-11)
        for pair in ("trace/field", "field/trace"):
            lo_c, hi_c = coarse.ratio_bounds(pair)
            lo_f, hi_f = fine.ratio_bounds(pair)
            assert abs(lo_c - lo_f) <= 1e-6 * abs(lo_f)
            assert abs(hi_c - hi_f) <= 1e-6 * abs(hi_f)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_radius_whose_square_overflows_is_flagged(self, corpus, p):
        # r^2 = inf: a profile without decay is flagged, one that decays keeps its norms
        report = boundedness_report(corpus[:4], 3, 0, p, 1e300)
        assert report.degenerate == [{"label": "one", "reason": "non-finite norm"},
                                     {"label": "rho2", "reason": "non-finite norm"}]
        halfline = boundedness_report(corpus[2:4], 3, 0, p, math.inf)
        for got, want in zip(report.entries[4:], halfline.entries, strict=True):
            assert got.value == pytest.approx(want.value, rel=1e-12)

    def test_zero_profile_excluded(self):
        from radsob.profile import CorpusEntry

        entries = [CorpusEntry("zero", Profile([])), CorpusEntry("gauss", GAUSS)]
        report = boundedness_report(entries, 2, 0, 2, 1.0)
        assert any(row["label"] == "zero" for row in report.degenerate)

    def test_round_trip_failure_names_the_entry(self, monkeypatch):
        from radsob.profile import CorpusEntry

        monkeypatch.setattr(opspace, "extend", lambda ft, d: RadialField(d, ONE))
        with pytest.raises(AssertionError, match="round trip failed for gauss$"):
            boundedness_report([CorpusEntry("gauss", GAUSS)], 2, 0, 2, 1.0)


class TestPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceExtPair(1, 0, 2.0, 1.0)
        with pytest.raises(ValueError):
            TraceExtPair(2, 0, 2.0, -1.0)

    def test_norm_accessors(self):
        pair = TraceExtPair(3, 0, 2.0, 1.0)
        field = RadialField(3, GAUSS)
        ratio = pair.interval_norm(pair.forward(field)) / pair.field_norm(field)
        assert ratio == pytest.approx(math.sqrt(2.0 / sphere_area(3)), rel=1e-10)

    CALLS = {
        "field_norm": lambda: TraceExtPair(2, 0, 3.0, 1.0).field_norm(
            RadialField(2, GAUSS), tol=1e-30),
        "interval_norm": lambda: TraceExtPair(3, 2, 3.0, 1.0).interval_norm(
            to_squared(GAUSS), tol=1e-30),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_accessors_raise_at_an_unmeetable_tol(self, name):
        with pytest.raises(QuadratureConvergenceError, match=f"^TraceExtPair.{name}: ") as info:
            self.CALLS[name]()
        assert 0 < info.value.estimate < math.inf

    @pytest.mark.parametrize("fn", [TraceExtPair.field_norm, boundedness_report])
    def test_monte_carlo_defaults_are_the_norms_defaults(self, fn):
        # the signature, since a Monte Carlo run at the default sample count is too slow here
        params = inspect.signature(fn).parameters
        assert params["seed"].default == norms.DEFAULT_SEED
        assert params["samples"].default == norms.DEFAULT_SAMPLES

    def test_field_norm_checks_the_method(self):
        pair = TraceExtPair(3, 1, 3.0, 1.0)
        with pytest.raises(ValueError, match="unknown method"):
            pair.field_norm(RadialField(3, GAUSS), method="typo")
        with pytest.raises(ValueError, match="exact-angular"):
            pair.field_norm(RadialField(3, GAUSS))

    def test_field_norm_rejects_a_field_of_another_dimension(self):
        pair = TraceExtPair(3, 1, 2.0, 1.0)
        assert pair.field_norm(RadialField(3, GAUSS)) == pytest.approx(2.0285838941888943, rel=1e-9)
        with pytest.raises(ValueError, match="^the field is in dimension 2, not d = 3$"):
            pair.field_norm(RadialField(2, GAUSS))

    def test_interval_norm_names_an_overflowing_square_of_r(self):
        pair = TraceExtPair(3, 1, 2.0, 1e200)
        with pytest.raises(OverflowError, match=r"^r\^2 = 1e\+200\^2 overflows the float range$"):
            pair.interval_norm(to_squared(ONE))
        # a decaying profile has vanished long before r^2: its half-line value is its value
        halfline = TraceExtPair(3, 1, 2.0, math.inf)
        assert pair.interval_norm(to_squared(GAUSS)) == halfline.interval_norm(to_squared(GAUSS))
