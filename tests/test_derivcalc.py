import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from radsob.derivcalc import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    _angular_form,
    _corot_forward_terms,
    _gram,
    _invert_exact,
    _orbits,
    angular_matrix,
    check_multi_indices,
    corot_angular_matrix,
    forward_terms,
    gram_matrix,
    partial_derivative,
    profile_derivative_from_partials,
    recover_Dn,
    recovery_coeffs,
    solve_linear_system,
)
from radsob.indexpoly import MonomialPoly, collapse, enumerate_dindex, enumerate_multi, multi_factorial, p_poly
from radsob.norms import _form_square, _pair_integral
from radsob.oracles import fd_partial_derivative
from radsob.profile import Profile, RadialField, d_op
from radsob.quad import sphere_area, sphere_monomial_moment

GAUSS = Profile([(1, 0, 1)])
RHO2 = Profile([(1, 2, 0)])
RHO4 = Profile([(1, 4, 0)])


class TestForward:
    def test_rho2_second_derivative(self):
        field = RadialField(2, RHO2)
        for x in [(0.0, 0.0), (0.3, -0.4), (1.0, 2.0)]:
            assert partial_derivative(field, (2, 0), x) == pytest.approx(2.0, abs=1e-13)
            assert partial_derivative(field, (0, 2), x) == pytest.approx(2.0, abs=1e-13)
            assert partial_derivative(field, (1, 1), x) == pytest.approx(0.0, abs=1e-13)

    def test_order_zero(self):
        field = RadialField(3, GAUSS)
        x = (0.2, 0.1, -0.4)
        rho = math.sqrt(sum(v * v for v in x))
        assert partial_derivative(field, (0, 0, 0), x) == pytest.approx(math.exp(-rho * rho))

    def test_gauss_gradient(self):
        field = RadialField(3, GAUSS)
        got = partial_derivative(field, (1, 0, 0), (1.0, 0.0, 0.0))
        assert got == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-13)

    def test_dimension_mismatch(self):
        field = RadialField(2, RHO2)
        with pytest.raises(ValueError):
            partial_derivative(field, (1, 0, 0), (0.1, 0.2))

    def test_against_fd_oracle(self, corpus):
        rng = np.random.default_rng(2024)
        checked = 0
        for entry in corpus[:6]:
            for d in (2, 3):
                field = RadialField(d, entry.profile)
                for _ in range(4):
                    n = int(rng.integers(1, 5))
                    alpha = tuple(
                        enumerate_multi(d, n)[int(rng.integers(0, len(enumerate_multi(d, n))))]
                    )
                    x = rng.uniform(-1, 1, size=d)
                    norm = np.linalg.norm(x)
                    if norm < 0.1:
                        x *= 0.5 / max(norm, 1e-9)
                    fwd = partial_derivative(field, alpha, x)
                    fd = fd_partial_derivative(field, alpha, x)
                    assert abs(fwd - fd) <= max(1e-5 * abs(fd), 1e-7)
                    checked += 1
        assert checked >= 40


class TestProfileDerivativeFromPartials:
    def test_rho2(self):
        field = RadialField(2, RHO2)
        assert profile_derivative_from_partials(field, 1, (1.0, 0.0)) == pytest.approx(2.0)

    def test_rho4(self):
        field = RadialField(2, RHO4)
        assert profile_derivative_from_partials(field, 2, (0.0, 1.0)) == pytest.approx(12.0)

    def test_gauss(self):
        field = RadialField(3, GAUSS)
        x = np.array([1.0, 2.0, 2.0]) / 3.0
        got = profile_derivative_from_partials(field, 1, x)
        assert got == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-12)

    def test_matches_symbolic(self, corpus):
        rng = np.random.default_rng(7)
        for entry in corpus[:8]:
            for d in (2, 3):
                field = RadialField(d, entry.profile)
                for j in range(5):
                    x = rng.uniform(0.2, 0.9, size=d)
                    rho = float(np.linalg.norm(x))
                    want = entry.profile.derivative(j).eval(rho)
                    got = profile_derivative_from_partials(field, j, x)
                    assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            profile_derivative_from_partials(RadialField(2, RHO2), 1, (0.0, 0.0))


def leibniz_det(rows):
    """Determinant by the Leibniz formula: a signed sum over all permutations."""
    k = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


class TestGram:
    @pytest.mark.parametrize("d, n", [(2, 8), (3, 6), (4, 5), (5, 4), (2, 11), (3, 7), (7, 3)])
    def test_entries_equal_the_tuple_sum(self, d, n):
        # the defining sum over all d**n coordinate tuples, evaluated exactly at e_d
        e_d = (0,) * (d - 1) + (1,)
        size = n // 2 + 1
        want = [[Fraction(0)] * size for _ in range(size)]
        for index in enumerate_dindex(d, n):
            vec = [p_poly(index, j, d).eval_exact(e_d) for j in range(size)]
            for i in range(size):
                for j in range(size):
                    want[i][j] += vec[i] * vec[j]
        assert gram_matrix(d, n).entries == tuple(tuple(row) for row in want)

    def test_closed_form_walks_no_laplacian(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the Gram matrix took a Laplacian")

        _gram.cache_clear()
        monkeypatch.setattr(MonomialPoly, "laplacian", refuse)
        assert gram_matrix(4, 6).entries[0][0] == 1

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_leading_minors_equal_leibniz_determinants(self, d, n):
        gram = gram_matrix(d, n)
        assert gram.size <= 5
        want = [leibniz_det([row[:k] for row in gram.entries[:k]]) for k in range(1, gram.size + 1)]
        assert gram.leading_minors() == want

    @pytest.mark.parametrize("rows", [[[1, 2], [2, 1]], [[0, 1], [1, 0]], [[-1]]])
    def test_elimination_rejects_non_positive_definite(self, rows):
        with pytest.raises(ValueError, match="^M is not positive definite$"):
            _invert_exact([[Fraction(v) for v in row] for row in rows], "M")

    def test_order_one(self):
        for d in (2, 3, 4, 5):
            assert gram_matrix(d, 1).entries == ((Fraction(1),),)

    def test_order_two(self):
        for d in (2, 3, 4, 5):
            gram = gram_matrix(d, 2)
            assert gram.entries == ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(d)))

    def test_d2_n3_frozen(self):
        # enumerated by hand over the 8 coordinate tuples before the build
        assert gram_matrix(2, 3).entries == (
            (Fraction(1), Fraction(3)),
            (Fraction(3), Fraction(12)),
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_spd_and_exact_inverse(self, d, n):
        gram = gram_matrix(d, n)
        size = gram.size
        assert size == n // 2 + 1
        for i in range(size):
            for j in range(size):
                assert gram.entries[i][j] == gram.entries[j][i]
                prod = sum(gram.entries[i][l] * gram.inverse[l][j] for l in range(size))
                assert prod == Fraction(int(i == j))
        assert all(m > 0 for m in gram.leading_minors())

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 4), (3, 2), (3, 3), (3, 4), (2, 3)])
    def test_unit_vector_independence(self, d, n):
        gram = gram_matrix(d, n)
        rng = np.random.default_rng(31)
        for _ in range(10):
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            size = gram.size
            acc = np.zeros((size, size))
            for index in enumerate_dindex(d, n):
                vals = [p_poly(index, j, d).eval(u) for j in range(size)]
                acc += np.outer(vals, vals)
            assert np.max(np.abs(acc - gram.as_float())) <= 1e-10

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as exc:
            gram_matrix(10, 9, budget=10**6)
        assert exc.value.required == 10**9

    @pytest.mark.parametrize("matrix", [angular_matrix, corot_angular_matrix])
    def test_multi_index_budget(self, matrix):
        # raised before any of the binomial(39, 29) multi-indices is enumerated
        with pytest.raises(BudgetExceededError) as exc:
            matrix(30, 10)
        assert exc.value.required == math.comb(39, 29) > DEFAULT_ENUMERATION_BUDGET
        check_multi_indices(30, 7)  # binomial(36, 29) = 8347680 is within it

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gram_matrix(1, 2)
        with pytest.raises(ValueError):
            gram_matrix(3, 0)


class TestSolve:
    def test_identity_case(self):
        assert solve_linear_system(3, 1, [Fraction(5, 7)]) == [Fraction(5, 7)]

    def test_zero(self):
        assert solve_linear_system(3, 2, [0, 0]) == [Fraction(0), Fraction(0)]

    def test_two_by_two(self):
        assert solve_linear_system(3, 2, [1, 1]) == [Fraction(1), Fraction(0)]

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            solve_linear_system(3, 2, [1, 2, 3])

    def test_consistent_with_derivation_values(self):
        # the linear system's unknowns are |x|^(n-2j) (D^(n-j) f)(|x|); build the
        # right-hand side from scratch over all coordinate tuples and check the
        # exact solve reproduces those values
        d, n = 3, 3
        f = Profile([(1, 2, 1), (Fraction(-1, 2), 4, Fraction(1, 2))])
        field = RadialField(d, f)
        x = np.array([0.4, -0.3, 0.6])
        rho = float(np.linalg.norm(x))
        omega = x / rho
        size = n // 2 + 1
        lhs = []
        for i in range(size):
            total = 0.0
            for alpha in enumerate_multi(d, n):
                poly = MonomialPoly.monomial(d, alpha).laplacian_power(i) * Fraction(
                    math.factorial(n) // multi_factorial(alpha), 2**i * math.factorial(i)
                )
                total += poly.eval(omega) * partial_derivative(field, alpha, x)
            lhs.append(total)
        y = solve_linear_system(d, n, [Fraction(v).limit_denominator(10**12) for v in lhs])
        for j in range(size):
            want = rho ** (n - 2 * j) * d_op(f, n - j).eval(rho)
            assert float(y[j]) == pytest.approx(want, rel=1e-6, abs=1e-8)


class TestRecovery:
    def test_first_order_coefficients(self):
        for d in (2, 3, 4):
            rc = recovery_coeffs(d, 1)
            for i in range(1, d + 1):
                alpha = tuple(1 if j == i - 1 else 0 for j in range(d))
                assert rc.polys[alpha] == MonomialPoly.variable(d, i)

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
    def test_homogeneous_of_expected_degree(self, d, n):
        rc = recovery_coeffs(d, n)
        rng = np.random.default_rng(1)
        for alpha, q in rc.polys.items():
            if q.is_zero:
                continue
            assert q.homogeneous_degree() == rc.target_degree
            x = rng.uniform(-1.5, 1.5, size=d)
            lam = 1.7
            assert q.eval(lam * x) == pytest.approx(
                lam**rc.target_degree * q.eval(x), rel=1e-12
            )

    def test_degree_is_2n_for_even_order(self):
        assert recovery_coeffs(2, 2).target_degree == 4
        assert recovery_coeffs(3, 4).target_degree == 8

    def test_recover_rho2_first(self):
        field = RadialField(2, RHO2)
        assert recover_Dn(field, 1, (0.0, 2.0)) == pytest.approx(4.0, rel=1e-13)

    def test_recover_rho2_second_vanishes(self):
        field = RadialField(2, RHO2)
        assert recover_Dn(field, 2, (0.4, 0.7)) == pytest.approx(0.0, abs=1e-13)

    def test_recover_gauss_second(self):
        field = RadialField(3, GAUSS)
        x = np.array([2.0, 2.0, 1.0]) / 3.0
        assert recover_Dn(field, 2, x) == pytest.approx(4.0 * math.exp(-1.0), rel=1e-12)

    def test_round_trip_subset(self, corpus):
        rng = np.random.default_rng(12)
        for entry in corpus[:6]:
            for d in (2, 3, 4):
                field = RadialField(d, entry.profile)
                for n in (1, 2, 3):
                    x = rng.uniform(0.2, 1.0, size=d)
                    rho = float(np.linalg.norm(x))
                    got = recover_Dn(field, n, x)
                    want = rho**n * d_op(entry.profile, n).eval(rho)
                    rc = recovery_coeffs(d, n)
                    scale = sum(
                        abs(q.eval(x / rho) * partial_derivative(field, a, x))
                        for a, q in rc.polys.items()
                    )
                    assert abs(got - want) <= 1e-9 * max(abs(want), scale, 1e-12)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            recover_Dn(RadialField(2, RHO2), 1, (0.0, 0.0))

    def test_forward_terms_drop_zero_polys(self):
        terms = forward_terms(2, (1, 1))
        assert [j for j, _ in terms] == [2]


def direct_angular_sums(d, expansions):
    """{(j, j'): sum over expansions of the sphere integral of P_j * P_j'}, in floats."""
    out = {}
    for expansion in expansions:
        for j, poly in expansion.items():
            for j2, poly2 in expansion.items():
                mom = sum(
                    float(c) * sphere_monomial_moment(d, beta)
                    for beta, c in (poly * poly2).coeffs.items()
                )
                out[j, j2] = out.get((j, j2), 0.0) + mom
    return out


def corot_expansion(d, alpha, i):
    """{j: x_i P_j^alpha + alpha_i P_j^(alpha - e_i)} built from forward_terms."""
    out = {j: MonomialPoly.variable(d, i) * poly for j, poly in forward_terms(d, alpha)}
    if alpha[i - 1]:
        beta = tuple(a - (idx == i - 1) for idx, a in enumerate(alpha))
        for j, poly in forward_terms(d, beta):
            out[j] = out.get(j, MonomialPoly.zero(d)) + alpha[i - 1] * poly
    return out


class TestAngularMatrix:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_direct_per_alpha_sums(self, d, n):
        cases = [
            (
                angular_matrix(d, n),
                [dict(forward_terms(d, alpha)) for alpha in enumerate_multi(d, n)],
                0,
            ),
            (
                corot_angular_matrix(d, n),
                [corot_expansion(d, alpha, i) for alpha in enumerate_multi(d, n) for i in range(1, d + 1)],
                1,
            ),
        ]
        for mat, expansions, shift in cases:
            want = direct_angular_sums(d, expansions)
            assert {(j, j2) for j in mat.js for j2 in mat.js} == set(want)
            assert mat.degrees == tuple(2 * j - n + shift for j in mat.js)
            for a, j in enumerate(mat.js):
                for b, j2 in enumerate(mat.js):
                    assert isinstance(mat.entries[a][b], Fraction)
                    area_entry = sphere_area(d) * float(mat.entries[a][b])
                    assert area_entry == pytest.approx(want[j, j2], rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("d, n", [(2, 3), (3, 3), (4, 4), (5, 4), (6, 3), (3, 0)])
    def test_orbit_sums_equal_the_full_enumeration(self, d, n):
        # the sum over every multi-index (and component), exactly as Fractions
        alphas = list(enumerate_multi(d, n))
        full = _angular_form(d, n, 0, [forward_terms(d, alpha) for alpha in alphas])
        corot_expansions = [
            _corot_forward_terms(d, alpha, i) for alpha in alphas for i in range(1, d + 1)
        ]
        full_corot = _angular_form(d, n, 1, corot_expansions)
        assert angular_matrix(d, n) == full
        assert corot_angular_matrix(d, n) == full_corot

    @pytest.mark.parametrize("d, n", [(2, 5), (3, 4), (5, 3), (7, 2), (4, 0), (30, 7)])
    def test_orbits_partition_the_multi_indices(self, d, n):
        orbits = list(_orbits(d, n))
        assert sum(count for _, count in orbits) == math.comb(n + d - 1, d - 1)
        for alpha, count in orbits:
            assert len(alpha) == d and sum(alpha) == n
            assert list(alpha) == sorted(alpha, reverse=True)
            assert count == len(set(itertools.permutations(alpha))) if d <= 7 else count > 0
        assert len({alpha for alpha, _ in orbits}) == len(orbits)

    def test_order_one_hand_values(self):
        # sum_i |d_i f(|x|)|^2 = |x|^2 (Df)^2: one entry, the sphere average of |x|^2 = 1
        assert angular_matrix(3, 1).entries == ((Fraction(1),),)
        # d_i (x_k f) = delta_ik f + x_i x_k Df: entries 2, 1, 1, 1 (times |S^1|) in d = 2
        assert corot_angular_matrix(2, 1).entries == ((2, 1), (1, 1))


class TestTupleSumIdentity:
    """Summed over all d^n coordinate tuples, the squared n-th partials of f(|x|) integrate over R^d
    to |S^(d-1)| times the integral of rho^(d-1+2n) (D^n f)^2 (integration by parts); on a ball
    the boundary terms break it."""

    @staticmethod
    def tuple_matrix(d, n):
        # each multi-index's expansion once per coordinate tuple that collapses to it
        expansions = [
            forward_terms(d, alpha)
            for alpha in enumerate_multi(d, n)
            for _ in range(math.factorial(n) // multi_factorial(alpha))
        ]
        return _angular_form(d, n, 0, expansions)

    @staticmethod
    def gap(mat, f, r):
        d, n = mat.d, mat.n
        form, form_err = _form_square(mat, f, r)
        moment, moment_err = _pair_integral([(1, d - 1 + 2 * n, d_op(f, n), d_op(f, n))], r)
        area = sphere_area(d)
        return abs(form - area * moment), form_err + area * moment_err, abs(form)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_holds_on_r_d_within_err(self, decaying_corpus, d, n):
        mat = self.tuple_matrix(d, n)
        for entry in decaying_corpus:
            gap, err, _ = self.gap(mat, entry.profile, math.inf)
            assert gap <= err, (entry.label, gap, err)

    def test_fails_on_the_unit_ball(self, decaying_corpus):
        mat = self.tuple_matrix(3, 2)
        rel = [gap / value for gap, _, value in (self.gap(mat, e.profile, 1.0) for e in decaying_corpus)]
        assert max(rel) > 0.5
