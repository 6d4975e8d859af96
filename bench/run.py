"""End-to-end and per-layer benchmark of radsob.

Usage (from anywhere; the repository root is the parent of this directory)::

    python3 bench/run.py --workload exact-tables --seed 20240001 --seconds 40 --trace 0

Each workload is a fixed list of jobs: real ``radsob`` commands (and one
library report), each run in a fresh interpreter through ``bench/job.py``,
one at a time, from this single process (a closed loop with one client).
An untimed ``import radsob.cli`` warms the bytecode and file caches first.
The whole list is one pass.  The first pass always runs in full; after it,
jobs keep running in list order, round after round, while each is expected
(from its median so far) to end within ``--seconds``, and a job that would
not fit is skipped.  Timings are medians over each job's runs (``wall_s``
sums each job's median).  A reference job (``bench/reference.py``, which
imports no radsob) runs before the first job and after every job, once per
``REF_EVERY_S`` seconds of the job, and the timings are scaled to the speed
at which it takes ``REF_S`` (see ``Reference``).  Jobs get the caller's
environment plus ``PYTHONPATH=<root>/src``; nothing pins CPUs or sets BLAS
threads.

The seed makes the inputs: the 24-profile corpus (``bench/corpus.py``; the
default seed uses the builtin corpus) and the ``--seed`` passed to the Monte
Carlo tables and to ``verify identities``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, which come
from the tracer (``bench/tracer.py``) and from ``python -X importtime``.
Human-readable lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

import check  # noqa: E402  (this directory is on sys.path: run.py is a script)
import corpus  # noqa: E402
from tracer import COUNTED, LAYERS  # noqa: E402

RUN_LIMIT_S = 170.0  # a run is cut (and fails) past this many seconds
IMPORTTIME_REPEATS = 3
# About the median time of the reference job (reference.py) on the machine
# of the first baseline: timings are reported at the speed at which the
# reference job takes this long.
REF_S = 0.85
# After a job, the reference job runs once per this many seconds of the
# job's wall time (at least once), so long jobs get as many as short ones.
REF_EVERY_S = 3.0

# Sample counts at which per-sample work is about 70% of each Monte Carlo
# job (it is most of the job at the 200k default), while a pass stays near
# nine seconds so that a run holds several passes.
MC_SAMPLES = 3000
MC_HALFLINE_SAMPLES = 12000


class Job(NamedTuple):
    id: str
    kind: str  # "cli" or "boundedness"
    args: tuple[str, ...]


def workload_jobs(workload: str, corpus_spec: str, run_seed: int) -> list[Job]:
    c = ("--corpus", corpus_spec)
    s = ("--seed", str(run_seed))
    if workload == "exact-tables":
        return [
            Job("equiv-d2-k2", "cli", ("equiv", "--dim", "2", "--k", "2", *c)),
            Job("equiv-d3-k3", "cli", ("equiv", "--dim", "3", "--k", "3", *c)),
            Job("equiv-d5-k4", "cli", ("equiv", "--dim", "5", "--k", "4", *c)),
            Job("equiv-inf-d3-k1", "cli", ("equiv", "--dim", "3", "--k", "1", "--radius", "inf", *c)),
            Job("equiv-inf-d4-k2", "cli", ("equiv", "--dim", "4", "--k", "2", "--radius", "inf", *c)),
            Job("corot-d2-k2", "cli", ("corot", "--dim", "2", "--k", "2", *c)),
            Job("corot-d3-k2", "cli", ("corot", "--dim", "3", "--k", "2", *c)),
            Job("boundedness-d3-k2-p2", "boundedness", (corpus_spec, "3", "2", "2")),
        ]
    if workload == "montecarlo-tables":
        mc = ("--method", "monte-carlo", *s)
        return [
            Job(
                "mc-d3-k2-p3",
                "cli",
                ("equiv", "--dim", "3", "--k", "2", "--p", "3", "--samples", str(MC_SAMPLES), *mc, *c),
            ),
            Job(
                "mc-inf-d3-k1-p1.5",
                "cli",
                (
                    "equiv", "--dim", "3", "--k", "1", "--p", "1.5", "--radius", "inf",
                    "--samples", str(MC_HALFLINE_SAMPLES), *mc, *c,
                ),
            ),
        ]
    if workload == "verify-suites":
        return [
            Job("verify-hardy", "cli", ("verify", "hardy", *c)),
            Job("verify-identities", "cli", ("verify", "identities", *s, *c)),
            Job("verify-gram", "cli", ("verify", "gram")),
            Job("verify-whitney", "cli", ("verify", "whitney", *c)),
            Job("gram-d5-n8", "cli", ("gram", "--dim", "5", "--order", "8")),
            Job("boundedness-d3-k0-p3", "boundedness", (corpus_spec, "3", "0", "3")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("exact-tables", "montecarlo-tables", "verify-suites")

# Gated end-to-end metrics.  failed_frac and err_rel_max are printed beside
# them but not gated: the first is 0 on correct code (failures are reported as
# "failed"/"attempted"), and the second sits at the rounding floor on some
# workloads, where its seed-to-seed spread exceeds any useful bound.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_METRICS = {
    # profile: exact term algebra and term-list evaluation
    "profile.self_s": "s",
    "profile.mul.calls": "count",
    "profile.mul.terms_out": "count",
    "profile.mul.self_s": "s",
    "profile.eval.calls": "count",
    "profile.eval.points": "count",
    "profile.eval.self_s": "s",
    "profile.derivative.calls": "count",
    "profile.d_op.calls": "count",
    "profile.d_op.hit_ratio": "ratio",
    # quad: radial quadrature, truncation, sphere moments and sampling
    "quad.self_s": "s",
    "quad.integrate_1d.calls": "count",
    "quad.integrate_1d.panels": "count",
    "quad.integrate_1d.self_s": "s",
    "quad.integrate_1d.unconverged": "count",
    "quad.integrate_power_weight.calls": "count",
    "quad.integrate_halfline.calls": "count",
    "quad.truncation_point.calls": "count",
    "quad.rough_scale.calls": "count",
    "quad.rough_scale.self_s": "s",
    "quad.composite_nodes.calls": "count",
    "quad.sphere_monomial_moment.hit_ratio": "ratio",
    "quad.sphere_sampler.builds": "count",
    "quad.sphere_sampler.points_s": "s",
    # norms: routes, pair expansion, the Monte Carlo kernel, reports
    "norms.self_s": "s",
    "norms.equivalence_report.self_s": "s",
    "norms.corot_report.self_s": "s",
    "norms.hardy_check.calls": "count",
    "norms.boundary_check.calls": "count",
    "norms.lp_radial.calls": "count",
    "norms.to_json.self_s": "s",
    "norms.sign_changes.hit_ratio": "ratio",
    "norms.err_rel_max": "ratio",
    # indexpoly: exact polynomials
    "indexpoly.self_s": "s",
    "indexpoly.poly_mul.calls": "count",
    "indexpoly.poly_mul.self_s": "s",
    "indexpoly.laplacian.calls": "count",
    "indexpoly.eval_many.calls": "count",
    "indexpoly.eval_many.self_s": "s",
    # derivcalc: forward expansion, Gram matrices, recovery
    "derivcalc.self_s": "s",
    "derivcalc.forward_terms.calls": "count",
    "derivcalc.forward_terms.hit_ratio": "ratio",
    "derivcalc.gram_matrix.calls": "count",
    "derivcalc.gram_matrix.self_s": "s",
    "derivcalc.recover_Dn.calls": "count",
    "derivcalc.partial_derivative.calls": "count",
    # opspace: trace/extension reports
    "opspace.self_s": "s",
    "opspace.boundedness_report.calls": "count",
    # cli: argument parsing, corpus loading, suite loops, serialisation
    "cli.self_s": "s",
    "cli.main.calls": "count",
    "cli.stdout_bytes": "bytes",
    # setup: python -X importtime of radsob.cli
    "setup.numpy_s": "s",
    "setup.scipy_special_s": "s",
    "setup.scipy_optimize_s": "s",
    "setup.radsob_s": "s",
    # process
    "proc.cpu_s": "s",
    "proc.trace_overhead_s": "s",
    "proc.ref_s": "s",
}


NO_CALLS = (0, 0.0, 0.0)  # calls, total s, self s of a span that never ran


class JobRun(NamedTuple):
    job: Job
    code: int
    wall_s: float
    setup_s: float | None
    maxrss_mb: float
    cpu_s: float
    stdout: bytes
    stamp: dict


class PassRun(NamedTuple):
    traced: bool
    wall_s: float
    jobs: list[JobRun]


class RunCut(Exception):
    """The run exceeded its time limit."""


def job_env() -> dict:
    """The caller's environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _kill_on_alarm(pid: int):
    def handler(signum, frame):
        os.kill(pid, signal.SIGKILL)

    return handler


def run_job(job: Job, traced: bool, env: dict, deadline: float) -> JobRun:
    """Run one job to completion; kill it if the run's deadline passes."""
    stamp_path = WORK / f"stamp-{job.id}.json"
    out_path = WORK / f"stdout-{job.id}"
    err_path = WORK / f"stderr-{job.id}"
    stamp_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "job.py"), str(stamp_path), "1" if traced else "0",
            job.id, job.kind, *job.args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunCut(job.id)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _kill_on_alarm(proc.pid))
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-5:]
        print(f"job {job.id} exited with {code}: " + " | ".join(tail), file=sys.stderr)
    stamp = json.loads(stamp_path.read_text()) if stamp_path.exists() else {}
    if stamp and Path(stamp["radsob"]).resolve().parent.parent != SRC:
        raise SystemExit(f"radsob was imported from {stamp['radsob']}, not from {SRC}")
    return JobRun(
        job=job,
        code=code,
        wall_s=end - start,
        setup_s=stamp["imported"] - start if stamp else None,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=out_path.read_bytes(),
        stamp=stamp,
    )


def refs_after(job_wall_s: float) -> int:
    """How many reference runs follow a job that took ``job_wall_s``."""
    return max(1, math.ceil(job_wall_s / REF_EVERY_S))


class Reference:
    """Wall times of the reference job, run before the first job and after every job.

    A shared host changes a guest's speed by tens of percent over minutes,
    and the benchmark jobs and the reference job slow together.  ``scale``
    turns a time measured during the run into the time it would take at the
    speed at which the reference job takes ``REF_S``.
    """

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline
        self.times: list[float] = []

    def run(self) -> None:
        remaining = self.deadline - time.monotonic()
        start = time.monotonic()
        try:
            subprocess.run(
                [sys.executable, str(HERE / "reference.py")],
                env=self.env, cwd=ROOT, timeout=max(remaining, 0.001), check=True,
            )
        except subprocess.TimeoutExpired:
            raise RunCut("reference") from None
        self.times.append(time.monotonic() - start)

    def run_after(self, job_wall_s: float) -> None:
        for _ in range(refs_after(job_wall_s)):
            self.run()

    def scale(self) -> float:
        return REF_S / statistics.median(self.times)


def run_pass(
    jobs: list[Job], traced: bool, env: dict, deadline: float, reference: Reference | None = None,
    until: float | None = None, expected: dict[str, float] | None = None,
) -> PassRun:
    """Run the jobs in order; with ``until``, skip each job expected to end after it.

    With ``reference``, the reference job runs after every job.
    """
    start = time.monotonic()
    runs = []
    for job in jobs:
        if until is not None and time.monotonic() + expected[job.id] > until:
            continue
        runs.append(run_job(job, traced, env, deadline))
        if reference is not None:
            reference.run_after(runs[-1].wall_s)
    return PassRun(traced, time.monotonic() - start, runs)


def warm_up(env: dict) -> None:
    """Import radsob.cli once, untimed, so bytecode is compiled and files are cached."""
    subprocess.run(
        [sys.executable, "-c", "import radsob.cli"],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
    )


def job_runs(passes: list[PassRun]) -> dict[str, list[JobRun]]:
    """Every run of each job, by job id, in the order the jobs first ran."""
    runs: dict[str, list[JobRun]] = {}
    for p in passes:
        for j in p.jobs:
            runs.setdefault(j.job.id, []).append(j)
    return runs


def median_walls(passes: list[PassRun]) -> dict[str, float]:
    return {job_id: statistics.median(j.wall_s for j in runs) for job_id, runs in job_runs(passes).items()}


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


def importtime_breakdown(env: dict) -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy.special, scipy.optimize; self seconds of radsob."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import radsob.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    cumulative: dict[str, int] = {}
    radsob_us = 0
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        self_us, cum_us, name = int(m[1]), int(m[2]), m[3]
        cumulative.setdefault(name, cum_us)
        if name == "radsob" or name.startswith("radsob."):
            radsob_us += self_us
    return {
        "setup.numpy_s": cumulative.get("numpy", 0) / 1e6,
        "setup.scipy_special_s": cumulative.get("scipy.special", 0) / 1e6,
        "setup.scipy_optimize_s": cumulative.get("scipy.optimize", 0) / 1e6,
        "setup.radsob_s": radsob_us / 1e6,
    }


def workload_wall(passes: list[PassRun]) -> float:
    """Sum over jobs of each job's median wall time across its runs.

    Per-job medians drop a job run slowed by a burst of background load,
    which a median over whole passes would keep when passes are few, and
    they let a run use the time left after its last full pass.
    """
    return sum(median_walls(passes).values())


def e2e_metrics(passes: list[PassRun], scale: float) -> dict[str, tuple[float, str]]:
    """name -> (value, how it was measured) for the end-to-end metrics.

    The two timings are the measured ones times ``scale`` (see ``Reference``);
    ``peak_rss_mb`` is the largest per-job median max RSS.
    """
    untraced = [p for p in passes if not p.traced]
    runs = job_runs(untraced)
    wall = workload_wall(untraced)
    setups = [j.setup_s for p in untraced for j in p.jobs if j.setup_s is not None]
    # a run without setups has failed jobs, so it is already incorrect
    setup = statistics.median(setups or [0.0])
    rss = [statistics.median(j.maxrss_mb for j in r) for r in runs.values()]
    n_runs = sum(len(r) for r in runs.values())
    return {
        "wall_s": (wall * scale, f"measured {wall:.6g} s: sum of per-job medians over {n_runs} job runs"),
        "setup_s": (setup * scale, f"measured {setup:.6g} s: median of {len(setups)} job runs"),
        "peak_rss_mb": (max(rss), f"largest per-job median of {len(rss)} jobs"),
    }


def layer_metrics(passes: list[PassRun], env: dict, err_rel_max: float, reference: Reference) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes, process figures over untraced ones."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = []
    for p in traced:
        stats: dict[str, list] = {}
        counts: dict[str, int] = {}
        caches: dict[str, list] = {}
        for j in p.jobs:
            trace = j.stamp.get("trace", {})
            for name, (calls, total, self_s) in trace.get("stats", {}).items():
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
            for name, n in trace.get("counts", {}).items():
                counts[name] = counts.get(name, 0) + n
            for name, (hits, misses) in trace.get("caches", {}).items():
                acc = caches.setdefault(name, [0, 0])
                acc[0] += hits
                acc[1] += misses
        sampler = stats.get("quad.sphere_sampler.points", NO_CALLS)
        m: dict[str, float] = {
            "quad.sphere_sampler.builds": sampler[0],
            "quad.sphere_sampler.points_s": sampler[1],
            "cli.stdout_bytes": sum(len(j.stdout) for j in p.jobs),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v[2] for k, v in stats.items() if k.split(".")[0] == layer)
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if metric in m:
                continue
            if metric in COUNTED:
                m[metric] = counts.get(metric, 0)
            elif kind == "calls":
                m[metric] = stats.get(base, NO_CALLS)[0]
            elif kind == "self_s":
                m[metric] = stats.get(base, NO_CALLS)[2]
            elif kind == "hit_ratio":
                hits, misses = caches.get(base, [0, 0])
                m[metric] = hits / (hits + misses) if hits + misses else 0.0
        per_pass.append(m)
    # median_low keeps counts integral; they are equal in every traced pass anyway
    out = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    probes = [importtime_breakdown(env) for _ in range(IMPORTTIME_REPEATS)]
    for name in probes[0]:
        out[name] = statistics.median(p[name] for p in probes)
    out["norms.err_rel_max"] = err_rel_max
    out["proc.cpu_s"] = statistics.median(sum(j.cpu_s for j in p.jobs) for p in untraced)
    out["proc.trace_overhead_s"] = workload_wall(traced) - workload_wall(untraced)
    out["proc.ref_s"] = statistics.median(reference.times)
    missing = set(LAYER_METRICS) - set(out)
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name in LAYER_METRICS}


def write_trace_file(workload: str, seed: int, passes: list[PassRun]) -> Path:
    """Spans and aggregates of the first traced pass, one document per job."""
    first = next(p for p in passes if p.traced)
    path = WORK / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps([j.stamp.get("trace") for j in first.jobs]))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (SRC / "radsob" / "cli.py").is_file():
        print(f"error: no radsob sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    if args.seed == corpus.DEFAULT_SEED:
        corpus_spec = "builtin"
    else:
        corpus_path = WORK / f"corpus-{args.seed}.json"
        corpus.write(args.seed, corpus_path)
        corpus_spec = str(corpus_path)
    jobs = workload_jobs(args.workload, corpus_spec, args.seed)
    refs = check.load_refs(args.seed)
    env = job_env()

    passes: list[PassRun] = []
    cut = False
    reference = Reference(env, deadline)
    try:
        warm_up(env)
        start = time.monotonic()
        until = start + args.seconds
        reference.run()
        if args.trace:
            # whole rounds of one untraced and one traced pass, while the next round fits
            while not passes or time.monotonic() + (time.monotonic() - start) / rounds <= until:
                passes.append(run_pass(jobs, False, env, deadline, reference))
                passes.append(run_pass(jobs, True, env, deadline, reference))
                rounds = len(passes) // 2
        else:
            passes.append(run_pass(jobs, False, env, deadline, reference))
            while True:
                ref = statistics.median(reference.times)
                expected = {
                    job_id: wall + ref * refs_after(wall)
                    for job_id, wall in median_walls(passes).items()
                }
                p = run_pass(jobs, False, env, deadline, reference, until, expected)
                if not p.jobs:
                    break
                passes.append(p)
    except RunCut as exc:
        print(f"run cut at {RUN_LIMIT_S:g} s during job {exc}", file=sys.stderr)
        cut = True
    if not passes:
        print("error: the first pass did not finish", file=sys.stderr)
        return 1

    attempted = failed = 0
    summaries = {}
    first_bytes: dict[str, bytes] = {}
    for p in passes:
        for j in p.jobs:
            ref = refs.get(j.job.id) if refs else None
            problems, got = check.check_job(j.code, j.stdout, ref)
            expected = first_bytes.setdefault(j.job.id, j.stdout)
            if j.stdout != expected:
                problems.append("stdout differs from the job's first run" + (" (traced)" if p.traced else ""))
            summaries.setdefault(j.job.id, got)
            attempted += 1
            if problems:
                failed += 1
                print(f"FAILED {j.job.id}: " + "; ".join(problems[:5]), file=sys.stderr)
    correct = failed == 0 and not cut and len(summaries) == len(jobs)

    if refs is not None:
        print(f"correctness: structural checks and reference comparison (seed {args.seed})")
    else:
        print(f"correctness: structural checks only; no stored reference for seed {args.seed}")
    n_untraced = sum(len(p.jobs) for p in passes if not p.traced)
    print(f"workload {args.workload}: {len(jobs)} jobs, {n_untraced} untraced job runs, "
          f"corpus {'builtin' if corpus_spec == 'builtin' else f'generated from seed {args.seed}'}")
    print(f"failed_frac  {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} job runs)")
    err_rel_max = check.err_rel_max(summaries.values()) or 0.0
    print(f"err_rel_max  {err_rel_max:.6g} ratio (largest err/|value| over all norm-report entries)")

    if args.trace:
        metrics = layer_metrics(passes, env, err_rel_max, reference)
        blas = {j.stamp.get("blas_threads") for p in passes if p.traced for j in p.jobs}
        print(f"OpenBLAS threads seen in jobs: {sorted(b for b in blas if b is not None)}")
        print(f"trace written to {write_trace_file(args.workload, args.seed, passes).relative_to(ROOT)}")
        for name, value in metrics.items():
            print(f"{name:40s} {value:14.6g} {LAYER_METRICS[name]}")
        result = {name: {"value": value, "unit": LAYER_METRICS[name]} for name, value in metrics.items()}
    else:
        scale = reference.scale()
        print(f"reference job: median {REF_S / scale:.6g} s of {len(reference.times)} runs; "
              f"timings below are at the speed where it takes {REF_S:g} s (x {scale:.6g})")
        metrics = e2e_metrics(passes, scale)
        for name, (value, how) in metrics.items():
            print(f"{name:12s} {value:.6g} {E2E_UNITS[name]} ({how})")
        result = {name: {"value": value, "unit": E2E_UNITS[name]} for name, (value, _) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
