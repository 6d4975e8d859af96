"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from radsob.cli import main as cli_main
from radsob.derivcalc import (
    gram_matrix,
    partial_derivative,
    recover_Dn,
    recovery_coeffs,
)
from radsob.indexpoly import enumerate_multi
from radsob.norms import (
    _ball_def_detail,
    _profile_d_detail,
    boundary_check,
    corot_lhs,
    corot_rhs,
    equivalence_report,
    hardy_check,
    lp_radial,
)
from radsob.opspace import boundedness_report, extend, trace
from radsob.oracles import fd_partial_derivative
from radsob.profile import (
    RadialField,
    builtin_corpus,
    d_op,
    halfline_corpus,
    to_squared,
    whitney_derivative,
)
from radsob.quad import sphere_area

from fractions import Fraction


def report(n, elapsed, detail):
    print(f"\n[criterion {n:2d}] PASS ({elapsed:6.1f}s): {detail}")


def rel_diff(a, b):
    s = max(abs(a), abs(b))
    return 0.0 if s == 0 else abs(a - b) / s


def test_criterion_01_lp_identity(corpus):
    t0 = time.time()
    worst = 0.0
    checked = 0
    for entry in corpus:
        for d in (2, 3, 4, 5):
            field = RadialField(d, entry.profile)
            for p in (1.0, 2.0, 3.0):
                for r in (0.5, 1.0, 2.0):
                    v_def, v_d, v_sq = lp_radial(field, p, r, tol=1e-12)
                    err = max(rel_diff(v_def, v_d), rel_diff(v_def, v_sq), rel_diff(v_d, v_sq))
                    assert err <= 1e-10, (entry.label, d, p, r, err)
                    worst = max(worst, err)
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(1, elapsed, f"{checked} (profile,d,p,r) combinations, worst route disagreement {worst:.2e}")


def test_criterion_02_forward_expansion_vs_finite_differences(corpus):
    t0 = time.time()
    rng = np.random.default_rng(20240002)
    triples = 0
    worst_rel = 0.0
    while triples < 2000:
        entry = corpus[int(rng.integers(0, len(corpus)))]
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        alphas = enumerate_multi(d, n)
        alpha = alphas[int(rng.integers(0, len(alphas)))]
        x = rng.uniform(-1.0, 1.0, size=d)
        norm = float(np.linalg.norm(x))
        if norm < 1e-6:
            continue
        if norm < 0.1:
            x *= 0.55 / norm
        field = RadialField(d, entry.profile)
        fwd = partial_derivative(field, alpha, x)
        fd = fd_partial_derivative(field, alpha, x)
        ok = abs(fwd - fd) <= 1e-5 * abs(fd) or abs(fwd - fd) <= 1e-7
        assert ok, (entry.label, d, alpha, x.tolist(), fwd, fd)
        if abs(fd) > 1e-4:
            worst_rel = max(worst_rel, abs(fwd - fd) / abs(fd))
        triples += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, elapsed, f"{triples} triples vs 5-point stencils, worst relative error {worst_rel:.2e}")


def test_criterion_03_gram_machinery():
    t0 = time.time()
    confirmed = 0
    for d in (2, 3, 4, 5):
        for n in range(1, 7):
            gram = gram_matrix(d, n)
            assert all(m > 0 for m in gram.leading_minors()), (d, n)
            size = gram.size
            for i in range(size):
                for j in range(size):
                    assert gram.entries[i][j] == gram.entries[j][i]
                    prod = sum(gram.entries[i][l] * gram.inverse[l][j] for l in range(size))
                    assert prod == Fraction(int(i == j)), (d, n, i, j)
            if n == 1:
                assert gram.entries == ((Fraction(1),),)
            if n == 2:
                assert gram.entries == ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(d)))
            confirmed += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(3, elapsed, f"{confirmed} Gram matrices SPD with exact rational inverses")


def test_criterion_04_recovery_round_trip(corpus):
    t0 = time.time()
    rng = np.random.default_rng(20240004)
    samples = 0
    worst = 0.0
    while samples < 1000:
        entry = corpus[int(rng.integers(0, len(corpus)))]
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        x = rng.uniform(-1.0, 1.0, size=d)
        rho = float(np.linalg.norm(x))
        if rho < 0.15:
            continue
        field = RadialField(d, entry.profile)
        got = recover_Dn(field, n, x)
        want = rho**n * d_op(entry.profile, n).eval(rho)
        rc = recovery_coeffs(d, n)
        omega = x / rho
        scale = sum(
            abs(q.eval(omega) * partial_derivative(field, a, x)) for a, q in rc.polys.items()
        )
        bound = 1e-9 * max(abs(want), scale, 1e-12)
        assert abs(got - want) <= bound, (entry.label, d, n, got, want, scale)
        worst = max(worst, abs(got - want) / max(abs(want), scale, 1e-12))
        samples += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(4, elapsed, f"{samples} recovery round trips, worst scaled error {worst:.2e}")


def test_criterion_05_whitney_formula(corpus):
    t0 = time.time()
    checked = 0
    worst = 0.0
    for entry in corpus:
        ft = to_squared(entry.profile)
        for n in (1, 2, 3, 4):
            sym = ft.derivative(n)
            for rho in (0.5, 1.0, 1.5):
                got = whitney_derivative(entry.profile, n, rho, tol=1e-10)
                want = sym.eval(rho * rho)
                err = abs(got - want) / max(1.0, abs(want))
                assert err <= 1e-8, (entry.label, n, rho, got, want)
                worst = max(worst, err)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(5, elapsed, f"{checked} quadrature evaluations vs symbolic derivatives, worst {worst:.2e}")


def test_criterion_06_hardy_inequalities(corpus, decaying_corpus):
    t0 = time.time()
    checked = 0
    worst_slack = math.inf
    for entry in corpus:
        for p in (1.0, 2.0, 3.0):
            for s in (-1.0 / (2.0 * p), 0.0, 0.5, 1.0, 3.0):
                for r in (0.5, 1.0, 2.0):
                    rep = hardy_check(entry.profile, p, r, s)
                    assert rep.slack >= -1e-10, (entry.label, p, s, r, rep.slack)
                    brep = boundary_check(entry.profile, p, r, s)
                    assert brep.slack >= -1e-10, (entry.label, p, s, r, brep.slack)
                    worst_slack = min(worst_slack, rep.slack, brep.slack)
                    checked += 2
    for entry in decaying_corpus:
        for p in (1.0, 2.0, 3.0):
            for s in (-1.0 / (2.0 * p), 0.0, 0.5, 1.0, 3.0):
                rep = hardy_check(entry.profile, p, math.inf, s)
                assert rep.slack >= -1e-10, (entry.label, p, s, rep.slack)
                worst_slack = min(worst_slack, rep.slack)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(6, elapsed, f"{checked} grid points, minimum slack {worst_slack:.2e}")


def _ratio_interval(corpus, d, k, p, tol):
    ratios = []
    for entry in corpus:
        field = RadialField(d, entry.profile)
        v_def = _ball_def_detail(field, range(k + 1), p, 1.0, "exact-angular", 0, 0, tol)
        v_d = _profile_d_detail(entry.profile, d, range(k + 1), p, 1.0, "sum-of-norms", tol)
        ratios.append(v_def.value / v_d.value)
    return min(ratios), max(ratios)


def test_criterion_07_norm_equivalence_stability(corpus):
    t0 = time.time()
    details = []
    for d, k, p in ((2, 2, 2.0), (3, 3, 2.0), (4, 2, 2.0)):
        m1, M1 = _ratio_interval(corpus, d, k, p, 1e-10)
        m2, M2 = _ratio_interval(corpus, d, k, p, 1e-12)
        assert 0 < m1 <= M1 < math.inf
        drift = max(rel_diff(m1, m2), rel_diff(M1, M2))
        assert drift < 1e-6, (d, k, p, drift)
        details.append(f"(d={d},k={k},p={p:g}): [{m1:.4g},{M1:.4g}] drift {drift:.1e}")

    # p = 3 via Monte Carlo: interval reproducible across seeds within 4 SE
    d, k, p = 3, 2, 3.0
    samples = 10_000
    intervals = []
    for seed in (101, 707):
        ratios = []
        for entry in corpus:
            field = RadialField(d, entry.profile)
            v_def = _ball_def_detail(field, range(k + 1), p, 1.0, "monte-carlo", seed, samples, 1e-9)
            v_d = _profile_d_detail(entry.profile, d, range(k + 1), p, 1.0, "sum-of-norms", 1e-9)
            ratios.append((v_def.value / v_d.value, v_def.mc_se / v_d.value))
        intervals.append(ratios)
    for (r1, se1), (r2, se2) in zip(*intervals):
        combined = math.sqrt(se1**2 + se2**2)
        assert abs(r1 - r2) <= 4 * combined, (r1, r2, combined)
        assert 0 < r1 < math.inf
    lo = min(r for r, _ in intervals[0])
    hi = max(r for r, _ in intervals[0])
    details.append(f"(d=3,k=2,p=3,MC): [{lo:.4g},{hi:.4g}] seed-stable within 4 SE")
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(7, elapsed, "; ".join(details))


def test_criterion_08_corotational_equivalence(corpus):
    t0 = time.time()
    from radsob.norms import CorotField

    worst = 0.0
    for d in (2, 3, 4):
        want = sphere_area(d) / sphere_area(d + 2)
        for entry in corpus:
            lhs = corot_lhs(CorotField(d, entry.profile), 0, 1.0)
            rhs = corot_rhs(entry.profile, d, 0, 1.0)
            err = rel_diff((lhs / rhs) ** 2, want)
            assert err <= 1e-8, (entry.label, d, err)
            worst = max(worst, err)

    details = [f"k=0 ratio^2 exact to {worst:.2e} for d in {{2,3,4}}"]
    # both sides are exact quadratic forms at p = 2, so no tolerance can move the ratios
    for d, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ratios = [
            corot_lhs(CorotField(d, entry.profile), k, 1.0) / corot_rhs(entry.profile, d, k, 1.0)
            for entry in corpus
        ]
        assert 0 < min(ratios) <= max(ratios) < math.inf
        details.append(f"(d={d},k={k}): [{min(ratios):.4g},{max(ratios):.4g}]")
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(8, elapsed, "; ".join(details))


def test_criterion_09_trace_extension(corpus):
    t0 = time.time()
    for d in (2, 3):
        for entry in corpus:
            field = RadialField(d, entry.profile)
            assert extend(trace(field), d) == field
            ft = to_squared(entry.profile)
            assert trace(extend(ft, d)) == ft

    worst = 0.0
    for p in (1.0, 2.0, 3.0):
        rep = boundedness_report(corpus, 3, 0, p, 1.0, tol=1e-12)
        want = (2.0 / sphere_area(3)) ** (1.0 / p)
        lo, hi = rep.ratio_bounds("trace/field")
        err = max(rel_diff(lo, want), rel_diff(hi, want))
        assert err <= 1e-10, (p, lo, hi, want)
        worst = max(worst, err)

    coarse = boundedness_report(corpus, 3, 2, 2.0, 1.0, tol=1e-9)
    fine = boundedness_report(corpus, 3, 2, 2.0, 1.0, tol=1e-11)
    lo_c, hi_c = coarse.ratio_bounds("trace/field")
    lo_f, hi_f = fine.ratio_bounds("trace/field")
    drift = max(rel_diff(lo_c, lo_f), rel_diff(hi_c, hi_f))
    assert 0 < lo_f <= hi_f < math.inf
    assert drift < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(
        9,
        elapsed,
        f"round trips exact; k=0 ratio error {worst:.2e}; k=2 interval "
        f"[{lo_f:.4g},{hi_f:.4g}] drift {drift:.1e}",
    )


def test_criterion_10_report_determinism(tmp_path):
    t0 = time.time()
    pairs = []
    for name, args in (
        ("exact", ["equiv", "--dim", "2", "--k", "2", "--p", "2"]),
        (
            "mc",
            [
                "equiv", "--dim", "2", "--k", "1", "--p", "3",
                "--method", "monte-carlo", "--samples", "3000",
            ],
        ),
    ):
        p1 = tmp_path / f"{name}_1.json"
        p2 = tmp_path / f"{name}_2.json"
        assert cli_main(args + ["--out", str(p1)]) == 0
        assert cli_main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes(), name
        pairs.append(name)
    elapsed = time.time() - t0
    report(10, elapsed, f"byte-identical reruns for configs: {', '.join(pairs)}")
