import argparse
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from radsob import derivcalc, norms, opspace, quad
from radsob.cli import _build_parser, main
from radsob.profile import CorpusEntry, Profile, builtin_corpus, save_corpus


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def exit_code(argv) -> int:
    """Exit code of the command, including argparse's own exit on a bad value."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestGram:
    def test_d3_n2_output(self, capsys):
        rc, out, err = run_cli(capsys, ["gram", "--dim", "3", "--order", "2"])
        assert rc == 0
        assert "[[1,1],[1,3]]" in out
        doc = json.loads(out)
        assert doc["gamma_inv"] == [["3/2", "-1/2"], ["-1/2", "1/2"]]
        assert err == ""

    def test_budget_exit_code(self, capsys):
        rc, out, err = run_cli(capsys, ["gram", "--dim", "10", "--order", "9"])
        assert rc == 3
        assert out == ""
        assert "budget" in err

    def test_d5_n8_output_is_pinned(self, capsys):
        # sha256 of the output of the tuple-by-tuple build
        rc, out, _ = run_cli(capsys, ["gram", "--dim", "5", "--order", "8"])
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "92a72ee08afd63dc893663f4a2f2db77841dc4d43ca3bd9c7d1242933fe5448c"
        )

    @pytest.mark.parametrize("d, n, sha", [
        (2, 20, "bc3aff767985532240ee27a557214456f70344c7cfb6f0567508614f742dcf13"),
        (3, 14, "bed6915c4b79ad1bd07651f9d00f6590bc0c8d1d2f7a8a5492c511465fa50899"),
    ])
    def test_outputs_are_pinned(self, capsys, d, n, sha):
        # sha256 of the outputs of the multi-index build
        rc, out, _ = run_cli(capsys, ["gram", "--dim", str(d), "--order", str(n)])
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, ["gram", "--dim", "4", "--order", "4"])
        _, out2, _ = run_cli(capsys, ["gram", "--dim", "4", "--order", "4"])
        assert out1 == out2


class TestVerify:
    def test_gram_suite(self, capsys):
        rc, out, _ = run_cli(capsys, ["verify", "gram"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 24

    def test_whitney_suite(self, capsys):
        rc, out, _ = run_cli(capsys, ["verify", "whitney"])
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_identities_suite(self, capsys):
        rc, out, _ = run_cli(capsys, ["verify", "identities"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all("error" in c and "pass" in c for c in doc["checks"])

    def test_identities_p2_checks_the_closed_form_against_quadrature(self, capsys, monkeypatch):
        # at p = 2 the def route is the closed-form quadratic form; a broken one must fail the
        # p = 2 checks against the adaptive D and squared routes, and no other check
        real = norms._pair_integral

        def broken(*args, **kwargs):
            value, err = real(*args, **kwargs)
            return value * (1 + 1e-8), err

        monkeypatch.setattr(norms, "_pair_integral", broken)
        rc, out, _ = run_cli(capsys, ["verify", "identities"])
        assert rc == 1
        checks = json.loads(out)["checks"]
        failed = {c["name"] for c in checks if not c["pass"]}
        p2 = {c["name"] for c in checks
              if c["name"].startswith("lp-identity") and " p=2 " in c["name"]}
        assert failed == p2 and len(p2) == 2 * 24

    def test_identities_p1_checks_the_closed_form_against_quadrature(self, capsys, monkeypatch):
        # at p = 1 the three routes are the same closed-form incomplete gamma functions; a broken
        # closed form must fail the p = 1 checks against the adaptive D and squared routes
        real = norms._closed_lp_power

        def broken(*args):
            res = real(*args)
            return None if res is None else res._replace(value=res.value * (1 + 1e-8))

        monkeypatch.setattr(norms, "_closed_lp_power", broken)
        rc, out, _ = run_cli(capsys, ["verify", "identities"])
        assert rc == 1
        checks = json.loads(out)["checks"]
        failed = {c["name"] for c in checks if not c["pass"]}
        p1 = {c["name"] for c in checks
              if c["name"].startswith("lp-identity") and " p=1 " in c["name"]}
        assert failed == p1 and len(p1) == 2 * 24

    def test_hardy_bad_s_is_config_error(self, capsys):
        rc, out, err = run_cli(capsys, ["verify", "hardy", "--s", "-0.7"])
        assert rc == 2
        assert out == ""
        assert "s >" in err

    def test_hardy_short_decimal_s(self, capsys):
        # the weight x^(p s) = x^-0.3 at p = 1 is integrated without a cusp (x = u^10)
        rc, out, _ = run_cli(capsys, ["verify", "hardy", "--s", "-0.3"])
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_hardy_inexact_short_decimal_s(self, capsys):
        # at p = 3 the weight exponent 3 * -0.1 misses -0.3 by an ulp and still gets x = u^10
        rc, out, _ = run_cli(capsys, ["verify", "hardy", "--s", "-0.1"])
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_hardy_single_s(self, capsys):
        rc, out, _ = run_cli(capsys, ["verify", "hardy", "--s", "0.5"])
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_hardy_single_s_output_is_pinned(self, capsys):
        # re-taken only after a field-by-field comparison, recorded in CHANGES.md
        rc, out, _ = run_cli(capsys, ["verify", "hardy", "--s", "0.5"])
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "279c14f2bf1226388eadc47c3933c3c03b46ec3701be4e1b4a5f79da27307e54"
        )

    @pytest.mark.parametrize("suite", ["identities", "hardy", "gram", "whitney"])
    def test_params_are_the_flags_the_suite_reads(self, capsys, suite):
        rc, out, _ = run_cli(capsys, ["verify", suite])
        assert rc == 0
        params = json.loads(out)["params"]
        assert params == {flag: FLAG_DEFAULTS[flag] for flag in FLAGS_READ[("verify", suite)]}

    def test_hardy_overflow_names_the_check(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text('[{"terms": [[1e200, 0, 1]], "label": "big"}]')
        with np.errstate(all="ignore"):
            rc, out, err = run_cli(capsys, ["verify", "hardy", "--corpus", str(path)])
        assert rc == 4
        assert out == ""
        assert err == "error: hardy p=2 s=-0.25 r=0.5 big: a value overflowed the float range\n"

    def test_hardy_underflow_names_the_check(self, capsys):
        # r^(ps + 1) = 0.5^1000001 underflows to 0, so the boundary constants' quotient overflows
        rc, out, err = run_cli(capsys, ["verify", "hardy", "--s", "1e6"])
        assert rc == 4
        assert out == ""
        assert err == "error: boundary p=1 s=1e+06 r=0.5 one: a value overflowed the float range\n"

    def test_hardy_overflowing_integral_names_the_check(self, capsys):
        # int_0^inf x^1000 e^(-x^2) = Gamma(500.5) / 2 lies beyond the float range
        rc, out, err = run_cli(capsys, ["verify", "hardy", "--s", "1e3"])
        assert rc == 4
        assert out == ""
        assert err == "error: hardy-halfline p=1 s=1000 gauss: a value overflowed the float range\n"

    def test_hardy_large_s_passes_within_err(self, capsys):
        # at s = 100 the p = 1 checks of monotone profiles of one sign, equalities, miss 0 by
        # up to 1e-16 of their sides (-3.65e47 for gauss, whose err is 6.69e48), and the
        # half-line tail bounds of p = 3 need factors beyond the float range
        rc, out, _ = run_cli(capsys, ["verify", "hardy", "--s", "100"])
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_hardy_violation_beyond_its_err_fails(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text('[{"terms": [[1, 0, 1]], "label": "gauss"}]')
        real = norms.hardy_check

        def short(*args, **kwargs):  # slack below 0 by twice what the pass test allows
            rep = real(*args, **kwargs)
            allowed = rep.quad_err + 4 * 2.0**-52 * (abs(rep.lhs) + abs(rep.rhs))
            gap = max(rep.slack, 0.0) + 2 * allowed
            return rep._replace(rhs=rep.rhs - gap, slack=rep.slack - gap)

        monkeypatch.setattr(norms, "hardy_check", short)
        rc, out, _ = run_cli(capsys, ["verify", "hardy", "--s", "0.5", "--corpus", str(path)])
        assert rc == 1
        checks = json.loads(out)["checks"]
        assert all(c["pass"] == c["name"].startswith("boundary") for c in checks)

    def test_hardy_scans_each_profile_once(self, capsys, monkeypatch):
        # one certified root set per profile serves every (p, s, r) of the grid
        norms._sign_changes.cache_clear()
        norms._closed_lp_power.cache_clear()
        norms._weighted_lp_power.cache_clear()
        real, seen = norms._sign_changes, []
        monkeypatch.setattr(norms, "_sign_changes", lambda prof: seen.append(prof) or real(prof))
        rc, _, _ = run_cli(capsys, ["verify", "hardy"])
        assert rc == 0
        assert real.cache_info().misses == len(set(seen)) == 47 < len(seen)

    def test_whitney_tolerance_is_relative(self, capsys, tmp_path):
        # an integrand of size 1e6 rounds at ~1e-10, the default tol taken as absolute
        path = tmp_path / "corpus.json"
        path.write_text('[{"terms": [[1000000, 0, 1]], "label": "mega"}]')
        rc, out, _ = run_cli(capsys, ["verify", "whitney", "--corpus", str(path)])
        assert rc == 0
        assert json.loads(out)["passed"] is True
        rc, out, err = run_cli(capsys, ["verify", "whitney", "--corpus", str(path), "--tol", "1e-30"])
        assert rc == 4
        assert out == ""
        assert "did not converge" in err


class TestEquiv:
    def test_default_run_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc, out, _ = run_cli(
            capsys, ["equiv", "--dim", "2", "--k", "1", "--out", str(out_path)]
        )
        assert rc == 0
        assert out == ""  # report went to the file, stdout stays clean
        doc = json.loads(out_path.read_text())
        assert {"params", "entries", "ratios", "degenerate"} <= set(doc)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["equiv", "--dim", "2", "--k", "1", "--p", "2"]
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["equiv", "--dim", "2", "--k", "0", "--format", "csv"]
        )
        assert rc == 0
        assert out.startswith("label,route,method,value,err")

    def test_p3_exact_angular_rejected(self, capsys):
        rc, out, err = run_cli(capsys, ["equiv", "--p", "3"])
        assert rc == 2
        assert out == ""

    def test_p3_monte_carlo_runs(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["equiv", "--dim", "2", "--k", "1", "--p", "3", "--method", "monte-carlo",
             "--samples", "2000"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert any(e["method"] == "monte-carlo" for e in doc["entries"])

    def test_halfline_radius(self, capsys):
        rc, out, _ = run_cli(capsys, ["equiv", "--dim", "3", "--k", "1", "--radius", "inf"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["params"]["r"] == "inf"
        assert doc["degenerate"]  # the non-decaying corpus entries are reported

    def test_custom_corpus_file(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(builtin_corpus()[:3], path)
        rc, out, _ = run_cli(capsys, ["equiv", "--dim", "2", "--k", "0", "--corpus", str(path)])
        assert rc == 0
        assert len(json.loads(out)["entries"]) == 9

    def test_missing_corpus_is_config_error(self, capsys):
        rc, out, err = run_cli(capsys, ["equiv", "--corpus", "/nonexistent.json"])
        assert rc == 2

    def test_unconverged_quadrature_is_degenerate(self, capsys):
        # at p = 3 every route integrates adaptively (at p = 2 none does: test_p2_tol_moves_nothing)
        argv = ["equiv", "--dim", "2", "--k", "0", "--p", "3", "--tol", "1e-30"]
        rc, out, _ = run_cli(capsys, argv)
        assert rc == 0
        doc = json.loads(out, parse_constant=reject_constant)
        unconverged = {
            row["label"] for row in doc["degenerate"] if row["reason"] == "unconverged quadrature"
        }
        # every quadrature error carries at least the rounding of its panel sums, so
        # every profile missed the tolerance; its entries stay in the table but its
        # ratios are left out
        missed = {
            e["label"] for e in doc["entries"] if e["route"] in ("D", "squared") and e["err"] > 0
        }
        assert unconverged == missed == {e["label"] for e in doc["entries"]}
        for row in doc["ratios"]:
            assert row["min"] is None and row["max"] is None

    def test_p2_tol_moves_nothing(self, capsys):
        # at p = 2 every route is closed form: an unmeetable tol changes only the echoed param
        _, default, _ = run_cli(capsys, ["equiv", "--dim", "2", "--k", "1"])
        rc, out, _ = run_cli(capsys, ["equiv", "--dim", "2", "--k", "1", "--tol", "1e-30"])
        assert rc == 0
        doc, want = json.loads(out), json.loads(default)
        assert doc["params"] == dict(want["params"], tol=1e-30)
        assert {k: v for k, v in doc.items() if k != "params"} == {
            k: v for k, v in want.items() if k != "params"}
        assert all(row["min"] is not None for row in doc["ratios"])

    def test_default_tolerance_converges(self, capsys):
        rc, out, _ = run_cli(capsys, ["equiv", "--dim", "2", "--k", "1"])
        assert rc == 0
        assert all(row["reason"] != "unconverged quadrature" for row in json.loads(out)["degenerate"])


# the flags each command and verify suite reads, besides --out; written out here, not read from cli
FLAGS_READ = {
    ("gram",): {"dim", "order", "budget"},
    ("moments",): {"dim", "order"},
    ("equiv",): {"dim", "k", "p", "radius", "method", "seed", "samples", "tol", "corpus", "format"},
    ("corot",): {"dim", "k", "radius", "corpus", "format"},
    ("verify", "identities"): {"corpus", "radius", "tol", "seed"},
    ("verify", "hardy"): {"corpus", "tol", "s"},
    ("verify", "gram"): {"budget"},
    ("verify", "whitney"): {"corpus", "tol"},
}
# each flag's default, where it is read
FLAG_DEFAULTS = {
    "dim": 3, "order": 2, "k": 2, "p": 2.0, "radius": 1.0, "method": "exact-angular",
    "seed": norms.DEFAULT_SEED, "samples": norms.DEFAULT_SAMPLES, "tol": 1e-10,
    "corpus": "builtin", "format": "json", "budget": 10**7, "s": None,
}
# values outside each flag's domain; --seed takes any integer, and --corpus is read when it runs
FLAG_BAD_VALUES = {
    "dim": ["1"], "order": ["-1"], "k": ["-1"], "p": ["0.5", "nan", "inf"],
    "radius": ["-1", "0", "nan", "-inf"], "method": ["magic"], "samples": ["-1"],
    "tol": ["0", "nan", "inf"], "format": ["xml"], "budget": ["0"], "s": ["nan", "inf"],
}
BAD_FLAG_ARGV = [
    [*command, f"--{flag}", value]
    for command, read in FLAGS_READ.items()
    for flag in sorted(read & FLAG_BAD_VALUES.keys())
    for value in FLAG_BAD_VALUES[flag]
]
# a value each flag accepts where it is read
FLAG_VALUES = {
    "dim": "2", "order": "2", "k": "1", "p": "2", "radius": "1", "method": "exact-angular",
    "seed": "1", "samples": "10", "tol": "1e-10", "corpus": "builtin", "format": "json",
    "budget": "100", "s": "0.5",
}
UNREAD_FLAG_ARGV = [
    [*command, f"--{flag}", value]
    for command, read in FLAGS_READ.items()
    for flag, value in FLAG_VALUES.items()
    if flag not in read
]


def parser_flags(parser, command=()) -> dict:
    """{command words: option strings} of every leaf subparser, help excluded."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {command: {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}}
    flags = {}
    for name, sub in subs[0].choices.items():
        flags.update(parser_flags(sub, command + (name,)))
    return flags


class TestParser:
    def test_each_command_takes_the_flags_it_reads(self):
        flags = parser_flags(_build_parser())
        assert flags == {
            command: {f"--{flag}" for flag in read} | {"--out"}
            for command, read in FLAGS_READ.items()
        }
        assert sum(map(len, flags.values())) == 38

    @pytest.mark.parametrize("command", list(FLAGS_READ))
    def test_each_read_flag_has_its_default(self, command):
        # and no flag the command does not read is set
        args = vars(_build_parser().parse_args(list(command)))
        for key in ("command", "suite", "func"):
            args.pop(key, None)
        assert args == {**{flag: FLAG_DEFAULTS[flag] for flag in FLAGS_READ[command]}, "out": None}

    @pytest.mark.parametrize("argv", BAD_FLAG_ARGV, ids="-".join)
    def test_out_of_domain_value_is_config_error(self, capsys, argv):
        # argparse refuses it before any command runs; the message names the flag
        assert exit_code(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument {argv[-2]}: " in out.err

    def test_flags_follow_the_suite_name(self, capsys):
        assert exit_code(["verify", "--tol", "1e-10", "hardy"]) == 2
        assert capsys.readouterr().out == ""


class TestExitCodes:
    def test_unconverged_quadrature_is_numerical_failure(self, capsys):
        rc, out, err = run_cli(capsys, ["verify", "whitney", "--tol", "1e-30"])
        assert rc == 4
        assert out == ""
        assert err.startswith("error: ") and "did not converge" in err
        assert "Traceback" not in err

    def test_unconverged_identity_is_numerical_failure(self, capsys):
        # an unmeetable tol is a numerical failure, not a failed identity check (exit 1)
        rc, out, err = run_cli(capsys, ["verify", "identities", "--tol", "1e-30"])
        assert rc == 4
        assert out == ""
        assert err.startswith("error: lp-identity ") and "quadrature missed its tol" in err

    def test_unconverged_inequality_is_numerical_failure(self, capsys):
        # the suite's quadratures run at min(--tol, 1e-12), which 1e-30 makes unmeetable
        rc, out, err = run_cli(capsys, ["verify", "hardy", "--tol", "1e-30"])
        assert rc == 4
        assert out == ""
        assert err.startswith("error: hardy ") and "quadrature missed its tol" in err

    def test_inequality_without_finite_err_is_numerical_failure(self, capsys, monkeypatch):
        # an integral whose err is inf (a tail without a bound) gives no verdict
        real = norms.hardy_check
        monkeypatch.setattr(norms, "hardy_check",
                            lambda *a, **k: real(*a, **k)._replace(quad_err=math.inf))
        rc, out, err = run_cli(capsys, ["verify", "hardy"])
        assert rc == 4
        assert out == ""
        assert err.startswith("error: hardy p=1 ") and "quadrature missed its tol" in err

    @pytest.mark.parametrize(
        "flags",
        [["--tol", "nan"], ["--p", "nan"], ["--p", "inf"], ["--radius", "nan"]],
    )
    def test_non_finite_input_is_config_error(self, capsys, flags):
        assert exit_code(["equiv", "--dim", "2", "--k", "0"] + flags) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("term", ["[1e400, 0, 1]", "[1, 0, 1e400]"], ids=["coeff", "decay"])
    def test_non_finite_corpus_number_is_config_error(self, capsys, tmp_path, term):
        # JSON reads 1e400 as inf, which has no exact Fraction
        path = tmp_path / "corpus.json"
        path.write_text(f'[{{"terms": [{term}], "label": "huge"}}]')
        rc, out, err = run_cli(capsys, ["equiv", "--dim", "2", "--k", "1", "--corpus", str(path)])
        assert rc == 2
        assert out == ""
        assert "'huge'" in err

    @pytest.mark.parametrize("corpus, message", [
        ('[{"terms": [[1, 2.9, 1]], "label": "frac"}]', "corpus entry 'frac': power must be"),
        ('[[1, 2, 3]]', "corpus entry #0: an entry must be an object"),
        ('[{"terms": 5, "label": "five"}]', "corpus entry 'five': \"terms\" must be a list"),
        ('[{"terms": [[1, true, 0]], "label": "flag"}]', "corpus entry 'flag': a term number"),
    ], ids=["fractional-power", "entry-not-an-object", "terms-not-a-list", "boolean-number"])
    def test_malformed_corpus_is_config_error(self, capsys, tmp_path, corpus, message):
        # int() truncated the power 2.9 to 2, and the other two escaped as a TypeError (exit 1)
        path = tmp_path / "corpus.json"
        path.write_text(corpus)
        rc, out, err = run_cli(capsys, ["equiv", "--dim", "3", "--k", "1", "--corpus", str(path)])
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [
        ["moments", "--dim", "20", "--order", "30"],
        ["equiv", "--dim", "30", "--k", "10"],
        ["equiv", "--dim", "30", "--k", "10", "--p", "3", "--method", "monte-carlo"],
        ["corot", "--dim", "30", "--k", "10"],
        # the order-17 multi-indices in R^10 are within the budget, but not those in R^12
        ["corot", "--dim", "10", "--k", "17"],
    ])
    def test_multi_index_budget_exit_code(self, argv):
        # in a subprocess capped at 2 GiB of address space: an unguarded run would build
        # ~1e13 (moments) or ~6e8 (equiv) tuples
        proc = _run_python(
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
            f"import radsob.cli; sys.exit(radsob.cli.main({argv!r}))", 20
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: enumeration of binomial(")
        assert "multi-indices exceeds budget 10000000" in proc.stderr

    @pytest.mark.parametrize("order, rc", [(3, 3), (2, 3), (2, 0)], ids=["d300-n3", "d300-n2", "d200-n2"])
    def test_moment_entry_budget_exit_code(self, order, rc):
        # d entries per multi-index: 300 x 4545100 = 1.4e9 and 300 x 45150 = 1.35e7 exceed the
        # budget (each multi-index count is within it), 200 x 20100 = 4.02e6 does not
        d = 300 if rc else 200
        argv = ["moments", "--dim", str(d), "--order", str(order)]
        proc = _run_python(
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
            f"import radsob.cli; sys.exit(radsob.cli.main({argv!r}))", 60
        )
        assert proc.returncode == rc, proc.stderr
        if rc:
            assert proc.stdout == ""
            assert proc.stderr.startswith(f"error: enumeration of 300 x binomial({order + 299}, 299) = ")
            assert "multi-index entries exceeds budget 10000000" in proc.stderr
        else:
            assert len(json.loads(proc.stdout)["moments"]) == math.comb(201, 199)

    @pytest.mark.parametrize("argv", [
        ["moments", "--dim", "1100", "--order", "0"],
        ["equiv", "--dim", "1100", "--k", "0", "--p", "3", "--method", "monte-carlo",
         "--samples", "10"],
    ])
    def test_thousand_dimensions_are_a_numerical_failure(self, capsys, argv):
        # the one multi-index of order 0 in R^1100 is built without a call per dimension;
        # |S^1099| then overflows quad.sphere_area's formula, a numerical failure (exit 4)
        rc, out, err = run_cli(capsys, argv)
        assert rc == 4
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", UNREAD_FLAG_ARGV)
    def test_flag_the_command_ignores_is_config_error(self, capsys, argv):
        # argparse refuses it; the message names the flag
        assert exit_code(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in out.err


class TestPinnedOutputs:
    """sha256 of stdout.  A pin is re-taken only after a field-by-field comparison of the old
    and new output, recorded in CHANGES.md."""

    # each id names its command, so re-taking a pin keeps the test's name
    PINS = [
        pytest.param(["equiv", "--dim", "4", "--k", "2", "--radius", "inf"],
                     "5d320e323d832a88c842392621e4108c944a39d30641f7b7eb199853a53e2063",
                     id="equiv-d4-k2-inf"),
        pytest.param(["corot", "--dim", "3", "--k", "2"],
                     "e974c730d5f4de42beb6bd07a3ead9a34e13c5f31cb81aef123b967e5439d7cd",
                     id="corot-d3-k2"),
        pytest.param(["equiv", "--dim", "3", "--k", "2", "--p", "3", "--method", "monte-carlo",
                      "--samples", "500", "--seed", "1"],
                     "5b45524bcca788841d3d5eacf039de974ea33f38aa73c7217e466a646f00faa7",
                     id="equiv-d3-k2-p3-mc500-seed1"),
        pytest.param(["corot", "--dim", "7", "--k", "5"],
                     "dd3a2a864e707353fca63e0b69aead2173d29c226a15f5be4858f6041ed8b486",
                     id="corot-d7-k5"),
        pytest.param(["corot", "--dim", "4", "--k", "3", "--radius", "inf"],
                     "0147cea2955013c78a700733322d9331d8f2f4e4f119c054f8172541756edeae",
                     id="corot-d4-k3-inf"),
    ]

    @pytest.mark.parametrize("argv, sha", PINS)
    def test_output_is_pinned(self, capsys, argv, sha):
        rc, out, _ = run_cli(capsys, argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    @pytest.mark.parametrize("argv, sha", [
        pytest.param(*PINS[2].values, id=PINS[2].id),
        pytest.param(["equiv", "--dim", "3", "--k", "2", "--p", "1.5", "--method", "monte-carlo",
                      "--samples", "500"], None, id="equiv-d3-k2-p1.5-mc500"),
    ])
    def test_output_does_not_depend_on_the_blas_thread_count(self, argv, sha):
        # p = 3 sums the expansion over node directions; p = 1.5 takes np.matmul blocks
        outs = []
        for preset in ({"OPENBLAS_NUM_THREADS": "2"}, {}):
            proc = _run_python(f"import sys, radsob.cli; sys.exit(radsob.cli.main({argv!r}))",
                               environ=_blas_environ(preset))
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        if sha is not None:
            assert hashlib.sha256(outs[0].encode()).hexdigest() == sha


class TestStrictJson:
    def test_empty_ratio_set_is_null(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus([CorpusEntry("one", Profile([(1, 0, 0)]))], path)
        rc, out, _ = run_cli(
            capsys, ["equiv", "--dim", "3", "--k", "1", "--radius", "inf", "--corpus", str(path)]
        )
        assert rc == 0
        doc = json.loads(out, parse_constant=reject_constant)
        assert doc["entries"] == []
        assert [row["label"] for row in doc["degenerate"]] == ["one"]
        assert all(row["min"] is None and row["max"] is None for row in doc["ratios"])


class TestNonFiniteNorms:
    """Coefficients whose norms overflow (or underflow) the float range end as
    flagged report entries or as a numerical failure, never as a hang, a
    configuration error or invalid JSON."""

    COMMANDS = [
        ["equiv", "--dim", "2", "--k", "1"],
        ["equiv", "--dim", "2", "--k", "0", "--p", "3"],
        ["equiv", "--dim", "3", "--k", "1", "--radius", "inf"],
        ["equiv", "--dim", "3", "--k", "1", "--p", "3", "--method", "monte-carlo",
         "--samples", "200"],
        ["corot", "--dim", "2", "--k", "1"],
    ]

    @staticmethod
    def check_run(capsys, argv, limit_s=10.0):
        start = time.monotonic()
        with np.errstate(all="ignore"):
            rc, out, err = run_cli(capsys, argv)
        assert time.monotonic() - start < limit_s, argv
        assert "Traceback" not in err
        if rc == 4:
            assert out == ""
            return None
        assert rc == 0, (argv, err)
        doc = json.loads(out, parse_constant=reject_constant)
        flagged = {row["label"] for row in doc["degenerate"]}
        for e in doc["entries"]:
            if e["value"] is None or e["err"] is None:
                assert e["label"] in flagged, (argv, e)
        return doc

    @pytest.mark.parametrize("argv", [COMMANDS[0], COMMANDS[4], COMMANDS[2]])
    def test_overflowing_profile_is_flagged(self, capsys, tmp_path, argv):
        path = tmp_path / "corpus.json"
        path.write_text('[{"terms": [[1e200, 0, 1]], "label": "big"}]')
        doc = self.check_run(capsys, argv + ["--corpus", str(path)])
        assert doc is not None
        assert doc["degenerate"] == [{"label": "big", "reason": "non-finite norm"}]
        assert all(e["value"] is None for e in doc["entries"])

    @pytest.mark.parametrize("argv", [
        COMMANDS[0],
        ["equiv", "--dim", "3", "--k", "2", "--p", "3", "--method", "monte-carlo", "--samples", "200"],
    ])
    def test_overflow_prints_no_numpy_warning(self, tmp_path, argv):
        # in a fresh interpreter with numpy's default error handling, as the console script runs
        path = tmp_path / "corpus.json"
        path.write_text('[{"terms": [[1e200, 0, 1]], "label": "big"}]')
        proc = _run_python(
            f"import sys, radsob.cli; sys.exit(radsob.cli.main({argv + ['--corpus', str(path)]!r}))"
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads(proc.stdout, parse_constant=reject_constant)
        assert doc["degenerate"] == [{"label": "big", "reason": "non-finite norm"}]

    @pytest.mark.parametrize("argv", [
        ["equiv", "--dim", "3", "--k", "2", "--radius", "1e300"],
        ["equiv", "--dim", "3", "--k", "2", "--radius", "1e300", "--p", "3", "--method",
         "monte-carlo", "--samples", "200"],
    ])
    def test_radius_whose_powers_overflow_is_flagged(self, argv):
        # r^s and the squared route's r^2 overflow: flagged entries, no error, no numpy warning
        proc = _run_python(f"import sys, radsob.cli; sys.exit(radsob.cli.main({argv!r}))")
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads(proc.stdout, parse_constant=reject_constant)
        flagged = {row["label"] for row in doc["degenerate"]}
        assert {"one", "rho2"} <= flagged
        assert {row["reason"] for row in doc["degenerate"]} == {"non-finite norm"}
        for e in doc["entries"]:
            if e["value"] is None or e["err"] is None:
                assert e["label"] in flagged
        # a decaying profile's D route is its half-line value
        assert all(e["value"] is not None for e in doc["entries"]
                   if e["label"] == "gauss" and e["route"] == "D")

    def test_huge_p_prints_no_numpy_warning(self):
        # |f|^p overflows to inf at p = 1e308, and a zero weight times inf is NaN
        argv = ["equiv", "--dim", "3", "--k", "1", "--p", "1e308", "--method", "monte-carlo",
                "--samples", "10"]
        proc = _run_python(f"import sys, radsob.cli; sys.exit(radsob.cli.main({argv!r}))")
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads(proc.stdout, parse_constant=reject_constant)
        assert {"label": "gauss", "reason": "non-finite norm"} in doc["degenerate"]

    def test_noisy_quadrature_at_p_200_ends_flagged(self):
        # x^202 |Df|^200 of seed09 carries rounding noise above the quadrature's noise floor
        # near x = 0.997; the panel budget ends its bisection, which ran toward 2^40 panels
        argv = ["equiv", "--dim", "3", "--k", "1", "--p", "200", "--method", "monte-carlo",
                "--samples", "10"]
        proc = _run_python(f"import sys, radsob.cli; sys.exit(radsob.cli.main({argv!r}))", 60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads(proc.stdout, parse_constant=reject_constant)
        assert doc["degenerate"] == [{"label": "seed09", "reason": "unconverged quadrature"}]

    def test_monte_carlo_errors_stay_finite(self, capsys, tmp_path):
        # err_pow * value and the squared samples overflowed while every error is representable
        path = tmp_path / "corpus.json"
        path.write_text('[{"terms": [[1e200, 0, 1]], "label": "big"}]')
        argv = ["equiv", "--dim", "3", "--k", "1", "--p", "1.5", "--radius", "inf",
                "--method", "monte-carlo", "--samples", "200", "--corpus", str(path)]
        doc = self.check_run(capsys, argv)
        assert doc is not None and doc["degenerate"] == []
        assert len(doc["entries"]) == 3
        assert all(math.isfinite(e["err"]) and e["err"] > 0 for e in doc["entries"])

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.booleans(),
                    st.integers(min_value=-300, max_value=300),
                    st.sampled_from([0, 2, 4]),
                    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
                ),
                min_size=1,
                max_size=2,
            ),
            min_size=1,
            max_size=2,
        )
    )
    def test_extreme_coefficients(self, capsys, tmp_path_factory, profiles):
        path = tmp_path_factory.mktemp("corpus") / "corpus.json"
        entries = [
            CorpusEntry(f"p{i}", Profile([((-1 if neg else 1) * Fraction(10) ** e, a, b)
                                          for neg, e, a, b in terms]))
            for i, terms in enumerate(profiles)
        ]
        save_corpus(entries, path)
        for argv in self.COMMANDS:
            self.check_run(capsys, argv + ["--corpus", str(path)])


class TestCorot:
    def test_k0_table(self, capsys):
        rc, out, _ = run_cli(capsys, ["corot", "--dim", "2", "--k", "0"])
        assert rc == 0
        doc = json.loads(out)
        pairs = {row["pair"] for row in doc["ratios"]}
        assert "(lhs/rhs)^2" in pairs

    def test_p_not_two_rejected(self, capsys):
        # corot reads no --p: its norms are defined at p = 2 only
        assert exit_code(["corot", "--p", "3"]) == 2
        assert capsys.readouterr().out == ""

    def test_halfline_radius(self, capsys):
        rc, out, _ = run_cli(capsys, ["corot", "--dim", "2", "--k", "1", "--radius", "inf"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["params"]["r"] == "inf"
        assert {row["reason"] for row in doc["degenerate"]} == {
            "no decay; not admissible on the half-line"}
        assert doc["entries"]


class TestMoments:
    def test_order_two(self, capsys):
        rc, out, _ = run_cli(capsys, ["moments", "--dim", "2", "--order", "2"])
        assert rc == 0
        doc = json.loads(out)
        values = {tuple(m["beta"]): m["value"] for m in doc["moments"]}
        assert values[(1, 1)] == 0.0
        assert values[(2, 0)] == pytest.approx(3.141592653589793, rel=1e-12)


_BLOCK_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
"""


def _run_python(code: str, timeout: float = 300, environ=None) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ if environ is None else environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )


def _blas_environ(preset: dict) -> dict:
    """os.environ without the variables OpenBLAS reads its thread count from, plus preset."""
    unset = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
    return {key: value for key, value in os.environ.items() if key not in unset} | preset


# as bench/job.py::_blas_threads
_BLAS_THREADS = """
def blas_threads():
    # OpenBLAS threads of the numpy in use, or -1 if it cannot be asked
    import ctypes, glob, os
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1
"""


class TestExactPathWithoutNumpy:
    """The closed-form commands neither import numpy nor need it (fresh interpreters)."""

    ARGV = [
        ["equiv", "--dim", "3", "--k", "2"],
        ["equiv", "--dim", "3", "--k", "1", "--radius", "inf"],
        ["equiv", "--dim", "4", "--k", "2", "--radius", "inf"],
        # a squared radius that is no float square, one that overflows, and a tol no sum meets
        ["equiv", "--dim", "3", "--k", "2", "--radius", "1.1"],
        ["equiv", "--dim", "3", "--k", "2", "--radius", "1e300"],
        ["equiv", "--dim", "2", "--k", "1", "--tol", "1e-30"],
        ["corot", "--dim", "2", "--k", "2"],
        ["gram", "--dim", "5", "--order", "8"],
        ["moments", "--dim", "3", "--order", "4"],
        ["verify", "gram"],
    ]

    @staticmethod
    def run_without_numpy(body: str) -> subprocess.CompletedProcess:
        # exit 9 when numpy was imported
        return _run_python(f"import sys\n{body}\nsys.exit(9 if 'numpy' in sys.modules else 0)\n")

    def test_import_loads_no_numpy(self):
        proc = self.run_without_numpy("import radsob.cli")
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_no_dataclasses_inspect_or_csv(self):
        proc = _run_python(
            "import sys, radsob.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'csv', 'radsob.opspace'} & set(sys.modules)))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_csv_output_keeps_its_bytes(self):
        proc = self.run_without_numpy(
            "import radsob.cli\n"
            "assert radsob.cli.main(['equiv', '--dim', '2', '--k', '1', '--format', 'csv']) == 0"
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "b8cf3bfe9d67ab98d32514681c0683d65c280ac6f40ada5062509d6985c039f3"
        )

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_command_loads_no_numpy(self, argv):
        proc = self.run_without_numpy(
            f"import radsob.cli\nassert radsob.cli.main({argv!r}) == 0\n"
            "assert 'radsob.opspace' not in sys.modules"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout

    def test_p2_boundedness_report_loads_no_numpy(self):
        proc = self.run_without_numpy(
            "from radsob.opspace import boundedness_report\n"
            "from radsob.profile import builtin_corpus\n"
            "print(boundedness_report(builtin_corpus(), 3, 2, 2.0, 1.0).to_json())"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["entries"]

    def test_array_path_loads_numpy_into_every_module(self):
        # the first use rebinds each module's np to numpy itself, so later reads cost nothing
        proc = self.run_without_numpy(
            "import radsob.cli\n"
            "assert radsob.cli.main(['equiv', '--dim', '2', '--k', '0', '--p', '3']) == 0\n"
            "import numpy\n"
            "print(sorted(name for name, mod in sys.modules.items() if name.startswith('radsob.')"
            " and name != 'radsob._lazy' and vars(mod).get('np', numpy) is not numpy), flush=True)"
        )
        assert proc.returncode == 9, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("preset, threads", [
        ({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2),
    ], ids=["unset", "OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2"])
    def test_array_path_runs_one_blas_thread_unless_the_user_sets_one(self, preset, threads):
        # the environment after the first numpy use is the one before it
        proc = _run_python(
            _BLAS_THREADS + "import contextlib, io, os, radsob.cli\n"
            "before = dict(os.environ)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert radsob.cli.main(['equiv', '--dim', '2', '--k', '0', '--p', '3']) == 0\n"
            "print(blas_threads(), dict(os.environ) == before)\n",
            environ=_blas_environ(preset),
        )
        assert proc.returncode == 0, proc.stderr
        count, kept = proc.stdout.split()
        if count == "-1":
            pytest.skip("no OpenBLAS library beside numpy")
        assert (int(count), kept) == (threads, "True")

    def test_numpy_imported_first_keeps_the_environment(self):
        # a read-only os.environ: any write by radsob would fail the command
        proc = _run_python(
            "import contextlib, io, os, sys, types\n"
            "import numpy\n"
            "os.environ = types.MappingProxyType(os.environ)\n"
            "import radsob.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    sys.exit(radsob.cli.main(['equiv', '--dim', '2', '--k', '0', '--p', '3']))\n",
            environ=_blas_environ({}),
        )
        assert proc.returncode == 0, proc.stderr


class TestRecords:
    """The result records keep their fields read-only, their validation and value equality."""

    GAUSS = Profile([(1, 0, 1)])

    def records(self):
        return [
            quad.QuadResult(1.0, 0.0, 1),
            derivcalc.angular_matrix(3, 2),
            derivcalc.recovery_coeffs(3, 2),
            norms.hardy_check(self.GAUSS, 2.0, 1.0, 0.5),
            norms.ReportEntry("gauss", "def", 1.0, 0.0, "exact-angular"),
            derivcalc.gram_matrix(3, 4),
            quad.SphereSampler(3, 0, 5),
            opspace.TraceExtPair(3, 1, 2.0, 1.0),
        ]

    def test_fields_are_read_only(self):
        for record in self.records():
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))

    def test_validation_messages(self):
        with pytest.raises(ValueError, match=r"^dimension must be >= 2, got 1$"):
            quad.SphereSampler(1, 0, 5)
        with pytest.raises(ValueError, match=r"^sample count must be >= 0$"):
            quad.SphereSampler(3, 0, -1)
        with pytest.raises(ValueError, match=r"^need r > 0 or r = inf, got -1\.0$"):
            opspace.TraceExtPair(3, 1, 2.0, -1.0)
        with pytest.raises(ValueError, match=r"^sample count must be >= 0$"):
            quad.SphereSampler(3, 0, 5)._replace(n=-1)
        with pytest.raises(ValueError, match=r"^need r > 0 or r = inf, got -1\.0$"):
            opspace.TraceExtPair(3, 1, 2.0, 1.0)._replace(r=-1.0)

    def test_equal_values_compare_and_hash_alike(self):
        a, b = opspace.TraceExtPair(3, 1, 2.0, 1.0), opspace.TraceExtPair(3, 1, 2.0, 1.0)
        assert a == b and hash(a) == hash(b)
        built = derivcalc._gram.__wrapped__(3, 4)
        cached = derivcalc.gram_matrix(3, 4)
        assert built is not cached
        assert built == cached and hash(built) == hash(cached)
        assert quad.QuadResult(1.0, 0.0, 1).converged is True

    def test_binding_sites_the_benchmark_tracer_wraps(self):
        # bench/tracer.py re-wraps these attributes on their classes and reads .subdivisions
        assert isinstance(vars(quad.SphereSampler)["points"], functools.cached_property)
        assert isinstance(vars(derivcalc.GramMatrix)["leading_minors"], types.FunctionType)
        assert isinstance(vars(norms.NormReport)["to_json"], types.FunctionType)
        assert quad.integrate_1d(lambda x: x, 0.0, 1.0).subdivisions >= 1


class TestRuntimeWithoutScipy:
    """scipy is a test-only dependency: the package neither imports nor needs it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["equiv", "--dim", "2", "--k", "1"],
            # odd/fractional p on the half-line: exercises the kink splitting root finder
            ["equiv", "--dim", "3", "--k", "1", "--p", "1.5", "--radius", "inf",
             "--method", "monte-carlo", "--samples", "500"],
            ["verify", "hardy"],
            ["verify", "identities"],
        ],
    )
    def test_commands_run_with_scipy_blocked(self, argv):
        code = _BLOCK_SCIPY + f"""
import radsob.cli

sys.exit(radsob.cli.main({argv!r}))
"""
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout

    def test_import_loads_no_scipy(self):
        code = """
import sys

import radsob.cli

print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
