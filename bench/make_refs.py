"""Write the reference outputs that ``bench/run.py`` compares jobs against.

Usage::

    python3 bench/make_refs.py

Runs every job of every workload once, untraced, for the default seed and
the held-out seed, and writes ``bench/refs/<seed>.json``: one summarized
output per job id (see ``check.summarize``).  References are meant to be
produced by a known-good version of radsob and then left alone; a change
that moves a value beyond its reported error should fail the benchmark,
not rewrite the reference.
"""

from __future__ import annotations

import json
import sys
import time

import check
import corpus
import run

REF_SEEDS = (corpus.DEFAULT_SEED, 1)


def main() -> int:
    check.REFS.mkdir(exist_ok=True)
    run.WORK.mkdir(exist_ok=True)
    env = run.job_env()
    for seed in REF_SEEDS:
        if seed == corpus.DEFAULT_SEED:
            spec = "builtin"
        else:
            path = run.WORK / f"corpus-{seed}.json"
            corpus.write(seed, path)
            spec = str(path)
        refs = {}
        for workload in run.WORKLOADS:
            jobs = run.workload_jobs(workload, spec, seed)
            for job_run in run.run_pass(jobs, False, env, time.monotonic() + 3600).jobs:
                problems, got = check.check_job(job_run.code, job_run.stdout, None)
                if problems:
                    print(f"{job_run.job.id}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                refs[job_run.job.id] = got
        out = check.REFS / f"{seed}.json"
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(refs.items())]
        out.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {out} ({len(refs)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
