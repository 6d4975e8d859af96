"""Command-line driver: verification suites and norm tables.

Subcommands: ``gram`` (exact Gram matrices as rational JSON), ``verify``
(named check suites with pass/fail JSON reports), ``equiv`` (three-route
norm tables), ``corot`` (corotational norm tables), ``moments`` (exact
sphere monomial moments).

Exit codes: 0 all checks pass, 1 verification failure, 2 bad
configuration, 3 enumeration budget exceeded, 4 numerical failure (an
unmet quadrature tolerance, or a float overflow outside a report entry).
stdout carries only the report; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import derivcalc, norms, profile
from ._lazy import np
from .derivcalc import BudgetExceededError, gram_matrix, recover_Dn
from .indexpoly import enumerate_multi
from .profile import RadialField, d_op, rational_to_json, to_squared, whitney_derivative
from .quad import _EPS, QuadratureConvergenceError, sphere_area, sphere_monomial_moment

_EXIT_OK = 0
_EXIT_VERIFY_FAILED = 1
_EXIT_BAD_CONFIG = 2
_EXIT_BUDGET = 3
_EXIT_NUMERICAL = 4


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_corpus(spec: str) -> list[profile.CorpusEntry]:
    if spec == "builtin":
        return profile.builtin_corpus()
    return profile.load_corpus(spec)


def _rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gram(args) -> int:
    gram = gram_matrix(args.dim, args.order, budget=args.budget)
    doc = {
        "d": gram.d,
        "n": gram.n,
        "gamma": [[rational_to_json(v) for v in row] for row in gram.entries],
        "gamma_inv": [[rational_to_json(v) for v in row] for row in gram.inverse],
    }
    _emit(norms._json_dumps(doc), args.out)
    return _EXIT_OK


def _cmd_moments(args) -> int:
    d, n = args.dim, args.order
    derivcalc.check_multi_indices(d, n)
    # each row writes its multi-index's d entries; count them, and ask for the area, first
    entries, budget = math.comb(n + d - 1, d - 1) * d, derivcalc.DEFAULT_ENUMERATION_BUDGET
    if entries > budget:
        what = f"{d} x binomial({n + d - 1}, {d - 1}) = {entries} multi-index entries"
        raise BudgetExceededError(what, entries, budget)
    area = sphere_area(d)
    rows = [
        {"beta": list(beta), "value": sphere_monomial_moment(d, beta)}
        for beta in enumerate_multi(d, n)
    ]
    doc = {"d": d, "order": n, "area": area, "moments": rows}
    _emit(norms._json_dumps(doc), args.out)
    return _EXIT_OK


def _suite_identities(args, checks: list) -> None:
    corpus = _load_corpus(args.corpus)
    r = args.radius
    if math.isinf(r):
        raise ValueError("the identities suite needs a finite radius")
    for d in (2, 3):
        for p in (1.0, 2.0):
            for entry in corpus:
                name = f"lp-identity d={d} p={p:g} r={r:g} {entry.label}"
                field = RadialField(d, entry.profile)
                rel_tol = min(args.tol, 1e-12)
                # at p = 1 and 2 the three routes are the same closed-form incomplete gamma
                # functions: check the definition route against the adaptive D and squared ones
                routes = (norms._ball_def_exact(field, [0], p, r, rel_tol),
                          *norms._lp_oracle(field, p, r, rel_tol))
                v_def, v_d, v_sq = norms._converged_values(name, *routes)
                err = max(_rel_diff(v_def, v_d), _rel_diff(v_def, v_sq))
                checks.append(
                    {
                        "name": name,
                        "pass": err <= args.tol,
                        "error": err,
                    }
                )
    rng = np.random.default_rng(args.seed)
    subset = corpus[:8]
    for d in (2, 3):
        for n in (1, 2, 3):
            for entry in subset:
                f = entry.profile
                x = rng.uniform(-1.0, 1.0, size=d)
                rho = float(np.linalg.norm(x))
                if rho < 0.1:
                    x = x * (0.5 / max(rho, 1e-9))
                    rho = float(np.linalg.norm(x))
                field = RadialField(d, f)
                got = recover_Dn(field, n, x)
                want = rho**n * d_op(f, n).eval(rho)
                scale = max(abs(want), abs(got), 1.0)
                err = abs(got - want) / scale
                checks.append(
                    {
                        "name": f"recovery d={d} n={n} {entry.label}",
                        "pass": err <= max(args.tol, 1e-9),
                        "error": err,
                    }
                )
                got_j = derivcalc.profile_derivative_from_partials(field, n, x)
                want_j = f.derivative(n).eval(rho)
                err_j = abs(got_j - want_j) / max(abs(want_j), abs(got_j), 1.0)
                checks.append(
                    {
                        "name": f"profile-derivative d={d} j={n} {entry.label}",
                        "pass": err_j <= max(args.tol, 1e-9),
                        "error": err_j,
                    }
                )


def _suite_hardy(args, checks: list) -> None:
    corpus = _load_corpus(args.corpus)
    tol = min(args.tol, 1e-12)
    p_grid = (1.0, 2.0, 3.0)
    r_grid = (0.5, 1.0, 2.0)

    def check(name: str, inequality, *args) -> None:
        try:
            rep = inequality(*args, tol=tol)
        except OverflowError as exc:
            raise OverflowError(f"{name}: a value overflowed the float range") from exc
        if not (math.isfinite(rep.lhs) and math.isfinite(rep.rhs)):
            # an integral beyond the float range, which no quadrature can meet either
            raise OverflowError(f"{name}: a value overflowed the float range")
        if not (rep.converged and math.isfinite(rep.quad_err)):
            raise QuadratureConvergenceError(f"{name}: a quadrature missed its tol", rep.quad_err)
        # slack short of 0 by at most its integrals' err and its own rounding refutes nothing
        allowed = rep.quad_err + 4 * _EPS * (abs(rep.lhs) + abs(rep.rhs))
        checks.append({"name": name, "pass": rep.slack >= -allowed, "error": min(rep.slack, 0.0)})

    if args.s is not None and args.s <= -1.0 / max(p_grid):
        # a configuration error (exit 2) for some p of the grid, found before any quadrature runs
        raise ValueError(f"need s > -1/p = {-1.0 / max(p_grid)} for every p, got {args.s}")
    for p in p_grid:
        if args.s is not None:
            s_grid = (args.s,)
        else:
            s_grid = (-1.0 / (2.0 * p), 0.0, 0.5, 1.0, 3.0)
        for s in s_grid:
            for r in r_grid:
                for entry in corpus:
                    tag = f"p={p:g} s={s:g} r={r:g} {entry.label}"
                    check(f"hardy {tag}", norms.hardy_check, entry.profile, p, r, s)
                    check(f"boundary {tag}", norms.boundary_check, entry.profile, p, r, s)
            for entry in profile.halfline_corpus(corpus):
                name = f"hardy-halfline p={p:g} s={s:g} {entry.label}"
                check(name, norms.hardy_check, entry.profile, p, math.inf, s)


def _suite_gram(args, checks: list) -> None:
    for d in range(2, 6):
        for n in range(1, 7):
            gram = gram_matrix(d, n, budget=args.budget)
            sym = all(
                gram.entries[i][j] == gram.entries[j][i]
                for i in range(gram.size)
                for j in range(gram.size)
            )
            spd = all(m > 0 for m in gram.leading_minors())
            ident = all(
                sum(gram.entries[i][l] * gram.inverse[l][j] for l in range(gram.size))
                == Fraction(int(i == j))
                for i in range(gram.size)
                for j in range(gram.size)
            )
            ok = sym and spd and ident
            if n == 1:
                ok = ok and gram.entries == ((Fraction(1),),)
            if n == 2:
                ok = ok and gram.entries == (
                    (Fraction(1), Fraction(1)),
                    (Fraction(1), Fraction(d)),
                )
            checks.append({"name": f"gram d={d} n={n}", "pass": ok, "error": 0.0})


def _suite_whitney(args, checks: list) -> None:
    corpus = _load_corpus(args.corpus)
    threshold = 1e-8
    for entry in corpus:
        f = entry.profile
        ft = to_squared(f)
        for n in (1, 2, 3, 4):
            sym = ft.derivative(n)
            for rho in (0.5, 1.0, 1.5):
                got = whitney_derivative(f, n, rho, tol=min(args.tol, 1e-10))
                want = sym.eval(rho * rho)
                err = abs(got - want)
                checks.append(
                    {
                        "name": f"whitney n={n} rho={rho:g} {entry.label}",
                        "pass": err <= threshold * max(1.0, abs(want)),
                        "error": err,
                    }
                )


# each suite's function and the flags it reads
_SUITES = {
    "identities": (_suite_identities, ("corpus", "radius", "tol", "seed")),
    "hardy": (_suite_hardy, ("corpus", "tol", "s")),
    "gram": (_suite_gram, ("budget",)),
    "whitney": (_suite_whitney, ("corpus", "tol")),
}


def _cmd_verify(args) -> int:
    checks: list[dict] = []
    _SUITES[args.suite][0](args, checks)
    passed = all(c["pass"] for c in checks)
    doc = {
        "suite": args.suite,
        "params": {flag: getattr(args, flag) for flag in _SUITES[args.suite][1]},
        "checks": checks,
        "passed": passed,
    }
    _emit(norms._json_dumps(doc), args.out)
    return _EXIT_OK if passed else _EXIT_VERIFY_FAILED


def _emit_report(report: norms.NormReport, args) -> int:
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return _EXIT_OK


def _cmd_equiv(args) -> int:
    corpus = _load_corpus(args.corpus)
    report = norms.equivalence_report(
        corpus,
        args.dim,
        args.k,
        args.p,
        args.radius,
        method=args.method,
        seed=args.seed,
        samples=args.samples,
        tol=args.tol,
    )
    return _emit_report(report, args)


def _cmd_corot(args) -> int:
    corpus = _load_corpus(args.corpus)
    report = norms.corot_report(corpus, args.dim, args.k, args.radius)
    return _emit_report(report, args)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _flag(parse, default, check=None, help=None) -> dict:
    """The add_argument spec of a flag: ``parse`` reads its text, then ``check`` its domain.

    A ValueError of either becomes argparse's exit 2, with a message naming the flag
    and the domain (``argument --p: need a finite p >= 1, got nan``).
    """

    def convert(text: str):
        try:
            value = parse(text)
            if check:
                check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return {"type": convert, "default": default, "help": help}


def _need(ok, domain: str):
    """A check that raises ValueError unless ``ok(value)``."""

    def check(value) -> None:
        if not ok(value):
            raise ValueError(f"need {domain}, got {value}")

    return check


# each flag's type, default, domain and help, stated once
_FLAGS = {
    "dim": _flag(int, 3, lambda d: norms._check_domain(d=d), "space dimension d"),
    "order": _flag(int, 2, _need(lambda n: n >= 0, "order >= 0"), "derivative order n"),
    "k": _flag(int, 2, lambda k: norms._check_domain(k=k), "Sobolev order k"),
    "p": _flag(float, 2.0, lambda p: norms._check_domain(p=p), "Lebesgue exponent p"),
    "radius": _flag(float, 1.0, lambda r: norms._check_domain(r=r), "ball radius r, or inf"),
    "method": {"choices": ("exact-angular", "monte-carlo"), "default": "exact-angular"},
    "seed": _flag(int, norms.DEFAULT_SEED),
    "samples": _flag(int, norms.DEFAULT_SAMPLES, _need(lambda n: n >= 0, "samples >= 0")),
    "tol": _flag(float, 1e-10, _need(lambda t: 0 < t < math.inf, "a finite tol > 0")),
    "corpus": {"default": "builtin", "help": "'builtin' or a corpus JSON path"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "budget": _flag(int, derivcalc.DEFAULT_ENUMERATION_BUDGET,
                    _need(lambda b: b >= 1, "budget >= 1"), "coordinate-tuple enumeration budget"),
    "s": _flag(float, None, _need(math.isfinite, "a finite s"), "hardy suite weight exponent"),
}

# each command's function, help and the flags it reads
_COMMANDS = {
    "gram": (_cmd_gram, "print an exact Gram matrix and its inverse", ("dim", "order", "budget")),
    "equiv": (_cmd_equiv, "three-route norm equivalence table",
              ("dim", "k", "p", "radius", "method", "seed", "samples", "tol", "corpus", "format")),
    "corot": (_cmd_corot, "corotational norm table (p = 2)",
              ("dim", "k", "radius", "corpus", "format")),
    "moments": (_cmd_moments, "exact sphere monomial moments of one order", ("dim", "order")),
}


def _build_parser() -> argparse.ArgumentParser:
    """A subparser per command and verify suite; argparse refuses every flag it does not read.

    Abbreviations are off, so an unread ``--s`` is not taken for ``--seed``.
    """
    parser = argparse.ArgumentParser(
        prog="radsob",
        description="Radial Sobolev norms by equivalent routes, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, func, flags, **kwargs):
        sp = subparsers.add_parser(name, allow_abbrev=False, **kwargs)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.add_argument("--out", help="write the report to this path")
        sp.set_defaults(func=func)

    for name, (func, help_text, flags) in _COMMANDS.items():
        add(sub, name, func, flags, help=help_text)
    sp_verify = sub.add_parser("verify", help="run a named verification suite")
    suites = sp_verify.add_subparsers(dest="suite", required=True)
    for name, (_, flags) in sorted(_SUITES.items()):
        add(suites, name, _cmd_verify, flags)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BUDGET
    except (QuadratureConvergenceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
