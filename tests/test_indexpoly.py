import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import special_ortho_group

from radsob.indexpoly import (
    MonomialPoly,
    collapse,
    enumerate_dindex,
    enumerate_multi,
    multi_factorial,
    multi_length,
    p_poly,
)


def rand_poly(rng, dim, max_terms=4, max_power=4):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = tuple(rng.randint(0, max_power) for _ in range(dim))
        coeffs[alpha] = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
    return MonomialPoly(dim, coeffs)


class TestEnumeration:
    def test_zero_order(self):
        assert enumerate_multi(2, 0) == [(0, 0)]

    def test_order_two(self):
        assert enumerate_multi(2, 2) == [(0, 2), (1, 1), (2, 0)]

    def test_count_d3_n4(self):
        assert len(enumerate_multi(3, 4)) == 15

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 3), (4, 4), (5, 2), (1, 7)])
    def test_complete_and_duplicate_free(self, d, n):
        out = enumerate_multi(d, n)
        assert len(out) == math.comb(n + d - 1, d - 1)
        assert len(set(out)) == len(out)
        assert out == sorted(out)
        assert all(multi_length(a) == n and min(a) >= 0 for a in out)

    def test_order_matches_the_recursive_enumeration(self):
        def recursive(d, n):  # first entry ascending, the rest recursively
            if d == 1:
                return [(n,)]
            return [(first, *rest) for first in range(n + 1) for rest in recursive(d - 1, n - first)]

        for d in range(1, 8):
            for n in range(9):
                assert enumerate_multi(d, n) == recursive(d, n), (d, n)

    def test_many_dimensions_need_no_call_per_dimension(self):
        # the recursive enumeration exceeds Python's recursion limit here
        assert enumerate_multi(1100, 0) == [(0,) * 1100]
        out = enumerate_multi(1100, 1)
        assert len(out) == 1100
        assert out[0][-1] == out[-1][0] == 1

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 3), (2, 0)])
    def test_dindex_count(self, d, n):
        indices = list(enumerate_dindex(d, n))
        assert len(indices) == d**n
        assert len(set(indices)) == len(indices)
        for index in indices:
            assert multi_length(collapse(index, d)) == n

    def test_factorial(self):
        assert multi_factorial((3, 0, 2)) == 12
        assert multi_factorial((0, 0)) == 1


class TestLaplacian:
    def test_x1_squared(self):
        p = MonomialPoly.monomial(2, (2, 0))
        assert p.laplacian() == MonomialPoly.constant(2, 2)

    def test_mixed_product_vanishes(self):
        p = MonomialPoly.monomial(2, (1, 1))
        assert p.laplacian().is_zero

    def test_x1sq_x2sq(self):
        p = MonomialPoly.monomial(2, (2, 2))
        expected = MonomialPoly(2, {(0, 2): 2, (2, 0): 2})
        assert p.laplacian() == expected
        assert p.laplacian().eval((1.0, 2.0)) == pytest.approx(10.0)

    def test_power_matches_iteration(self):
        rng = random.Random(7)
        for _ in range(20):
            p = rand_poly(rng, 3)
            q = p
            for j in range(4):
                assert p.laplacian_power(j) == q
                q = q.laplacian()


class TestPPoly:
    def test_single_coordinate(self):
        assert p_poly((1,), 0, 2) == MonomialPoly.variable(2, 1)

    def test_repeated_coordinate(self):
        assert p_poly((1, 1), 1, 2) == MonomialPoly.constant(2, 1)

    def test_mixed_vanishes(self):
        assert p_poly((1, 2), 1, 2).is_zero

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            p_poly((1, 2, 1), 2, 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_homogeneity(self, d):
        rng = random.Random(11)
        np_rng = np.random.default_rng(5)
        for _ in range(30):
            n = rng.randint(1, 5)
            index = tuple(rng.randint(1, d) for _ in range(n))
            j = rng.randint(0, n // 2)
            poly = p_poly(index, j, d)
            if poly.is_zero:
                continue
            assert poly.homogeneous_degree() == n - 2 * j
            x = np_rng.uniform(-2, 2, size=d)
            lam = float(np_rng.uniform(0.3, 2.5))
            assert poly.eval(lam * x) == pytest.approx(
                lam ** (n - 2 * j) * poly.eval(x), rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("d", [2, 3])
    def test_rotation_covariance_first_order(self, d):
        rng = np.random.default_rng(17)
        for trial in range(5):
            rot = special_ortho_group.rvs(d, random_state=trial)
            x = rng.uniform(-1, 1, size=d)
            for i in range(1, d + 1):
                left = p_poly((i,), 0, d).eval(rot @ x)
                right = sum(
                    rot[i - 1, j - 1] * p_poly((j,), 0, d).eval(x) for j in range(1, d + 1)
                )
                assert left == pytest.approx(right, abs=1e-13)


class TestAlgebra:
    def test_commutative_associative(self):
        rng = random.Random(3)
        for _ in range(25):
            a, b, c = (rand_poly(rng, 2) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)

    def test_distributive(self):
        rng = random.Random(4)
        for _ in range(15):
            a, b, c = (rand_poly(rng, 3) for _ in range(3))
            assert a * (b + c) == a * b + a * c

    def test_eval_linear_in_coefficients(self):
        rng = random.Random(5)
        for _ in range(15):
            p, q = rand_poly(rng, 2), rand_poly(rng, 2)
            a, b = Fraction(3, 2), Fraction(-7, 5)
            x = (Fraction(1, 3), Fraction(-2, 7))
            combo = a * p + b * q
            assert combo.eval_exact(x) == a * p.eval_exact(x) + b * q.eval_exact(x)

    def test_zero_is_empty_map(self):
        p = MonomialPoly(2, {(1, 0): Fraction(1)})
        assert (p - p).is_zero
        assert (p - p) == MonomialPoly.zero(2)

    def test_pow(self):
        p = MonomialPoly.radius_squared(2)
        assert p**0 == MonomialPoly.constant(2, 1)
        assert p**2 == p * p
        assert p**3 == p * p * p

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MonomialPoly.constant(2, 1) + MonomialPoly.constant(3, 1)

    def test_eval_many_matches_eval(self):
        rng = random.Random(9)
        p = rand_poly(rng, 3)
        pts = np.random.default_rng(1).uniform(-1, 1, size=(10, 3))
        vals = p.eval_many(pts)
        for i in range(10):
            assert vals[i] == pytest.approx(p.eval(pts[i]), rel=1e-13, abs=1e-13)
