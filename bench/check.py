"""Correctness checks of benchmark job outputs.

Every job gets the structural checks: the expected exit code, and stdout
that parses as strict JSON (``NaN`` and ``Infinity`` are rejected).  For
the seeds that have stored references (``bench/refs/<seed>.json``, produced
by ``bench/make_refs.py``) the outputs are also compared with the reference:

* norm-report entries computed exactly must satisfy
  ``|v - v_ref| <= err + err_ref + 1e-9 |v_ref|``;
* Monte Carlo entries must agree within 4 times the combined reported error,
  ``4 sqrt(err^2 + err_ref^2)``;
* every reference row must be present, with no extra rows, and the same
  profiles must be listed as degenerate;
* verification suites must report ``passed: true`` and the same check names;
* Gram matrices are exact and must be equal.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
MC_SIGMAS = 4.0
EXACT_REL = 1e-9
EPS = 2.0**-52


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(data: bytes):
    """Parse stdout as JSON, rejecting NaN and +/-Infinity."""
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def summarize(doc) -> dict:
    """The reference form of one job's parsed output."""
    if "entries" in doc:
        return {
            "kind": "report",
            "entries": [
                [e["label"], e["route"], e["method"], e["value"], e["err"]]
                for e in doc["entries"]
            ],
            "degenerate": sorted(row["label"] for row in doc["degenerate"]),
        }
    if "checks" in doc:
        names = [c["name"] for c in doc["checks"]]
        return {
            "kind": "verify",
            "suite": doc["suite"],
            "count": len(names),
            "names_sha256": hashlib.sha256("\n".join(names).encode()).hexdigest(),
        }
    if "gamma_inv" in doc:
        return {"kind": "gram", "doc": doc}
    raise ValueError("unrecognised job output")


def compare(got: dict, ref: dict) -> list[str]:
    """Problems of a summarized output against its reference; empty if it matches."""
    if got["kind"] != ref["kind"]:
        return [f"output kind {got['kind']} != reference {ref['kind']}"]
    if ref["kind"] == "gram":
        return [] if got["doc"] == ref["doc"] else ["Gram matrix differs from reference"]
    if ref["kind"] == "verify":
        problems = []
        if (got["count"], got["names_sha256"]) != (ref["count"], ref["names_sha256"]):
            problems.append(f"check names differ ({got['count']} vs {ref['count']} checks)")
        return problems
    problems = []
    if got["degenerate"] != ref["degenerate"]:
        problems.append("degenerate profiles differ from reference")
    rows = {(label, route): rest for label, route, *rest in got["entries"]}
    if len(rows) != len(got["entries"]):
        problems.append("duplicate report rows")
    for label, route, method, v_ref, e_ref in ref["entries"]:
        row = rows.pop((label, route), None)
        if row is None:
            problems.append(f"missing row {label}/{route}")
            continue
        _, v, e = row
        if method == "monte-carlo":
            limit = MC_SIGMAS * math.hypot(e, e_ref)
        else:
            limit = e + e_ref + EXACT_REL * abs(v_ref)
        if not abs(v - v_ref) <= limit:
            problems.append(f"{label}/{route}: {v!r} vs reference {v_ref!r} (limit {limit:.3g})")
    problems.extend(f"extra row {label}/{route}" for label, route in rows)
    return problems


def check_job(code: int, stdout: bytes, ref: dict | None) -> tuple[list[str], dict | None]:
    """Problems of one job run, and its summarized output when it parsed."""
    if code != 0:
        return [f"exit code {code}"], None
    try:
        doc = strict_json(stdout)
        got = summarize(doc)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"bad output: {exc}"], None
    problems = []
    if got["kind"] == "verify" and doc.get("passed") is not True:
        problems.append("verification suite did not pass")
    if ref is not None:
        problems.extend(compare(got, ref))
    return problems, got


def err_rel_max(summaries) -> float | None:
    """Largest err/|value| over the norm-report entries, floored at float64 epsilon.

    A relative error below one unit in the last place of a double is not
    resolvable, so the floor keeps the metric positive without hiding any
    error that can be represented.  None when no summary is a norm report.
    """
    worst = None
    for got in summaries:
        if got is None or got["kind"] != "report":
            continue
        for _, _, _, value, err in got["entries"]:
            if value != 0:
                worst = max(worst or EPS, abs(err) / abs(value))
    return worst


def load_refs(seed: int) -> dict | None:
    path = REFS / f"{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())
