import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import special_ortho_group

from radsob.profile import (
    CorpusEntry,
    Profile,
    RadialField,
    SquaredProfile,
    builtin_corpus,
    d_op,
    d_op_by_division,
    from_squared,
    halfline_corpus,
    load_corpus,
    save_corpus,
    to_squared,
    whitney_derivative,
)

GAUSS = Profile([(1, 0, 1)])
RHO2 = Profile([(1, 2, 0)])
RHO4 = Profile([(1, 4, 0)])


class TestSquaredRepresentative:
    def test_rho_squared(self):
        assert to_squared(RHO2) == SquaredProfile([(1, 1, 0)])

    def test_gauss(self):
        assert to_squared(GAUSS) == SquaredProfile([(1, 0, 1)])

    def test_mixed(self):
        f = Profile([(3, 4, 2)])
        assert to_squared(f) == SquaredProfile([(3, 2, 2)])

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            to_squared(Profile([(1, 1, 0)]))

    def test_compose_identity(self, corpus):
        rng = np.random.default_rng(0)
        for entry in corpus:
            ft = to_squared(entry.profile)
            for rho in rng.uniform(0.0, 2.0, size=8):
                assert ft.eval(rho * rho) == pytest.approx(
                    entry.profile.eval(rho), rel=1e-14, abs=1e-14
                )

    def test_round_trip(self, corpus):
        for entry in corpus:
            assert from_squared(to_squared(entry.profile)) == entry.profile


class TestDerivative:
    def test_rho2(self):
        assert RHO2.derivative() == Profile([(2, 1, 0)])

    def test_each_derivative_is_computed_once(self):
        f = Profile([(3, 4, 2), (-1, 2, Fraction(1, 2))])
        assert f.derivative(2) is f.derivative(2)
        assert Profile(f.terms).derivative(2) is f.derivative(2)  # equal profiles share it
        ft = SquaredProfile(f.terms)
        assert ft.derivative(2) == SquaredProfile(f.terms).derivative(2) != f.derivative(2)
        with pytest.raises(ValueError):
            f.derivative(-1)

    def test_hash_is_taken_once(self):
        f = Profile([(3, 4, 2), (-1, 2, Fraction(1, 2))])
        assert hash(f) == hash(Profile(f.terms)) != hash(SquaredProfile(f.terms))
        assert f._hash == hash(f)

    def test_exp_squared_third(self):
        ft = SquaredProfile([(1, 0, 1)])
        assert ft.derivative(3) == SquaredProfile([(-1, 0, 1)])

    def test_gauss_second(self):
        expected = Profile([(-2, 0, 1), (4, 2, 1)])
        assert GAUSS.derivative(2) == expected

    def test_parity_alternates(self, corpus):
        for entry in corpus:
            f = entry.profile
            assert f.parity == "even"
            for j in range(1, 6):
                g = f.derivative(j)
                if g.is_zero:
                    continue
                assert g.parity == ("even" if j % 2 == 0 else "odd")

    def test_odd_orders_vanish_at_zero_exactly(self, corpus):
        for entry in corpus:
            for j in (1, 3, 5, 7):
                assert entry.profile.derivative(j).eval_at_zero_exact() == Fraction(0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.fractions(min_value=-8, max_value=8, max_denominator=50).filter(bool),
        st.integers(min_value=0, max_value=9),
        st.fractions(min_value=0, max_value=5, max_denominator=50),
    )
    def test_term_rule_for_both_classes(self, c, a, b):
        # d/dx c x^a e^(-b x^q) = c a x^(a-1) e^(-b x^q) - q b c x^(a+q-1) e^(-b x^q)
        assert Profile([(c, a, b)]).derivative() == Profile(
            [(c * a, max(a - 1, 0), b), (-2 * b * c, a + 1, b)]
        )
        assert SquaredProfile([(c, a, b)]).derivative() == SquaredProfile(
            [(c * a, max(a - 1, 0), b), (-b * c, a, b)]
        )

    def test_derivative_matches_finite_differences(self):
        h = 1e-5
        for f in (Profile([(3, 4, Fraction(3, 7)), (-1, 0, Fraction(5, 3))]),
                  SquaredProfile([(3, 4, Fraction(3, 7)), (-1, 0, Fraction(5, 3))])):
            x = np.linspace(0.2, 2.0, 7)
            fd = (f.eval(x + h) - f.eval(x - h)) / (2 * h)
            assert np.allclose(f.derivative().eval(x), fd, rtol=1e-8, atol=1e-9)


class TestEval:
    # At the builtin decays {1/2, 1, 2}, -b*r*r and -b*(r*r) round alike, so only
    # non-dyadic decays show the order in which a term's exponent is rounded.
    R = np.linspace(0.05, 3.0, 200)

    @pytest.mark.parametrize("b", [Fraction(3, 7), Fraction(5, 3)])
    @pytest.mark.parametrize("a", [0, 1, 4])
    def test_profile_term_is_bit_identical_to_formula(self, a, b):
        c, r = 1.375, self.R
        assert not np.array_equal(-float(b) * r * r, -float(b) * (r * r))
        want = c * r**a * np.exp(-float(b) * r * r)
        assert Profile([(Fraction(c), a, b)]).eval(r).tobytes() == want.tobytes()

    @pytest.mark.parametrize("b", [Fraction(3, 7), Fraction(5, 3)])
    @pytest.mark.parametrize("a", [0, 1, 4])
    def test_squared_term_is_bit_identical_to_formula(self, a, b):
        c, s = 1.375, self.R
        want = c * s**a * np.exp(-float(b) * s)
        assert SquaredProfile([(Fraction(c), a, b)]).eval(s).tobytes() == want.tobytes()

    def test_term_sum_adds_in_term_order(self):
        terms = [(Fraction(-5, 8), 2, Fraction(3, 7)), (Fraction(3, 2), 0, Fraction(5, 3)),
                 (Fraction(1, 4), 6, 0)]
        r = self.R
        want = np.zeros_like(r)
        for c, a, b in Profile(terms).terms:
            want = want + float(c) * r**a * np.exp(-float(b) * r * r)
        assert np.array_equal(Profile(terms).eval(r), want)

    def test_scalar_in_scalar_out(self):
        f = Profile([(2, 2, Fraction(3, 7))])
        got = f.eval(1.3)
        assert isinstance(got, float)
        assert got == f.eval(np.array([1.3]))[0]

    @staticmethod
    def eval_per_term(f, x):
        """eval as it was, converting each term and taking one exp per term, for bitwise comparison."""
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        for c, a, b in f.terms:
            term = np.full_like(arr, float(c))
            if a:
                term = term * arr**a
            if b:
                arg = -float(b) * arr
                for _ in range(1, f._q):
                    arg = arg * arr
                term = term * np.exp(arg)
            out = out + term
        if np.ndim(x) == 0:
            return float(out)
        return out

    def test_eval_is_bit_identical_to_one_exp_per_term(self, corpus):
        profiles = []
        for entry in corpus:
            for j in range(4):
                g = d_op(entry.profile, j)
                profiles += [g, to_squared(g), g * entry.profile]
        assert any(len({b for _, _, b in g.terms}) < len(g.terms) for g in profiles)
        x = np.concatenate([self.R, [0.0, 1e-3, 7.5, 40.0]])
        for g in profiles:
            assert g.eval(x).tobytes() == self.eval_per_term(g, x).tobytes(), g
            for v in (0.0, 0.7, 2.9):
                got, want = g.eval(v), self.eval_per_term(g, v)
                assert isinstance(got, float) and math.copysign(1, got) == math.copysign(1, want)
                assert got == want, g

    @pytest.mark.parametrize("cls", [Profile, SquaredProfile])
    def test_coefficient_beyond_float_range_overflows_in_eval(self, cls):
        f = cls([(10**400, 0, 1)])  # constructs: the float conversion waits for eval
        for x in (1.0, np.array([0.5, 1.0]), 2.0):
            with pytest.raises(OverflowError):
                f.eval(x)


class TestRadialDerivation:
    def test_rho2(self):
        assert d_op(RHO2, 1) == Profile([(2, 0, 0)])

    def test_rho4_second(self):
        assert d_op(RHO4, 2) == Profile([(8, 0, 0)])

    def test_gauss(self):
        assert d_op(GAUSS, 1) == Profile([(-2, 0, 1)])

    def test_matches_division_route(self, corpus):
        for entry in corpus:
            for j in range(7):
                assert d_op(entry.profile, j) == d_op_by_division(entry.profile, j)

    def test_matches_division_numerically(self, corpus):
        rng = np.random.default_rng(42)
        rhos = rng.uniform(1e-3, 1.0, size=50)
        for entry in corpus:
            for j in range(7):
                a = d_op(entry.profile, j).eval(rhos)
                b = d_op_by_division(entry.profile, j).eval(rhos)
                scale = np.maximum(np.abs(a), 1.0)
                assert np.all(np.abs(a - b) <= 1e-12 * scale)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            d_op(Profile([(1, 1, 0)]), 1)


class TestWhitney:
    def test_rho2_any_rho(self):
        for rho in (0.3, 1.0, 2.5):
            assert whitney_derivative(RHO2, 1, rho) == pytest.approx(1.0, abs=1e-12)

    def test_rho4_second(self):
        assert whitney_derivative(RHO4, 2, 0.8) == pytest.approx(2.0, abs=1e-11)

    def test_gauss_first(self):
        assert whitney_derivative(GAUSS, 1, 1.0) == pytest.approx(-math.exp(-1.0), abs=1e-10)

    def test_against_symbolic(self, corpus):
        for entry in corpus[:8]:
            ft = to_squared(entry.profile)
            for n in (1, 2, 3):
                want = ft.derivative(n).eval(0.81)
                got = whitney_derivative(entry.profile, n, 0.9)
                assert got == pytest.approx(want, abs=1e-8 * max(1.0, abs(want)))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            whitney_derivative(RHO2, 0, 1.0)
        with pytest.raises(ValueError):
            whitney_derivative(RHO2, 1, 0.0)


class TestRadialField:
    def test_rotation_invariance(self):
        field = RadialField(3, Profile([(1, 2, 1), (Fraction(-1, 2), 4, 0)]))
        rng = np.random.default_rng(3)
        for trial in range(5):
            rot = special_ortho_group.rvs(3, random_state=trial)
            x = rng.uniform(-1, 1, size=3)
            assert field.eval(rot @ x) == pytest.approx(field.eval(x), rel=1e-12, abs=1e-14)

    def test_rejects_odd_profile(self):
        with pytest.raises(ValueError):
            RadialField(2, Profile([(1, 1, 0)]))

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            RadialField(1, RHO2)


class TestCorpus:
    def test_size_and_labels(self, corpus):
        assert len(corpus) >= 20
        labels = [e.label for e in corpus]
        assert len(set(labels)) == len(labels)

    def test_deterministic(self, corpus):
        assert builtin_corpus() == corpus

    def test_term_ranges(self, corpus):
        for entry in corpus:
            assert not entry.profile.is_zero
            assert entry.profile.is_even
            for c, a, b in entry.profile.terms:
                assert abs(c) <= 2 or entry.label.startswith("rho4")
                assert a in (0, 2, 4, 6)
                assert b in (0, Fraction(1, 2), 1, 2)

    def test_halfline_subset(self, corpus, decaying_corpus):
        assert len(decaying_corpus) >= 10
        for entry in decaying_corpus:
            assert entry.profile.min_decay > 0

    def test_save_load_round_trip(self, corpus, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded == corpus
        doc = json.loads(path.read_text())
        assert {"terms", "label"} <= set(doc[0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.fractions(min_value=-8, max_value=8, max_denominator=10**6),
                    st.integers(min_value=0, max_value=12),
                    st.fractions(min_value=0, max_value=8, max_denominator=10**6),
                ),
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_save_load_round_trip_is_exact(self, term_lists):
        entries = [CorpusEntry(f"p{i}", Profile(terms)) for i, terms in enumerate(term_lists)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.json"
            save_corpus(entries, path)
            assert load_corpus(path) == entries

    def test_loads_float_coefficients(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text('[{"label": "x", "terms": [[0.5, 2, 1.0], [-3, 0, "1/3"]]}]')
        (entry,) = load_corpus(path)
        assert entry.profile == Profile([(Fraction(1, 2), 2, 1), (-3, 0, Fraction(1, 3))])

    def test_integral_float_power_is_accepted(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text('[{"label": "x", "terms": [[1, 2.0, 1]]}]')
        (entry,) = load_corpus(path)
        assert entry.profile == Profile([(1, 2, 1)])
        assert Profile([(1, 2.0, 1)]).terms[0][1] == 2

    @pytest.mark.parametrize("power", [0.5, 2.9, Fraction(5, 2)])
    def test_fractional_power_is_rejected(self, power):
        # int() truncated it: (1, 2.9, 1) was read as rho^2 exp(-rho^2)
        with pytest.raises(ValueError, match="power must be an integer"):
            Profile([(1, power, 1)])

    @pytest.mark.parametrize("doc, message", [
        ('[{"label": "frac", "terms": [[1, 2.9, 1]]}]', "corpus entry 'frac': power must be"),
        ('[{"label": "ok", "terms": []}, [1, 2, 3]]', "corpus entry #1: an entry must be an object"),
        ('[{"terms": []}]', "corpus entry #0: an entry must be an object"),
        ('[{"label": "five", "terms": 5}]', "corpus entry 'five': \"terms\" must be a list"),
        ('[{"label": "flat", "terms": [1, 2, 3]}]', "corpus entry 'flat': \"terms\" must be a list"),
        ('[{"label": "pair", "terms": [[1, 2]]}]', "corpus entry 'pair': not enough values"),
        ('[{"label": "obj", "terms": [[{}, 2, 1]]}]', "corpus entry 'obj': "),
        # Fraction(True) is 1: these loaded as the constant 1 and as rho^1
        ('[{"label": "flag", "terms": [[true, 0, false]]}]', "corpus entry 'flag': a term number"),
        ('[{"label": "power", "terms": [[1, true, 0]]}]', "corpus entry 'power': a term number"),
    ])
    def test_malformed_entry_is_a_value_error_naming_it(self, tmp_path, doc, message):
        path = tmp_path / "corpus.json"
        path.write_text(doc)
        with pytest.raises(ValueError) as exc:
            load_corpus(path)
        assert str(exc.value).startswith(message)
