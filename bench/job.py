"""Run one benchmark job in a fresh interpreter, as the ``radsob`` command would.

Usage::

    python3 bench/job.py STAMP TRACE JOB_ID cli ARGS...
    python3 bench/job.py STAMP TRACE JOB_ID boundedness CORPUS D K P

``cli`` runs ``radsob.cli.main(ARGS)``, exactly what the ``radsob`` console
script runs.  ``boundedness`` prints ``opspace.boundedness_report`` over the
corpus (``builtin`` or a corpus file) at radius 1 as JSON.  The report goes
to stdout; the exit code is the command's.

The job writes a JSON side file STAMP holding the ``time.monotonic()`` at
which ``import radsob.cli`` finished (the parent compares it with the time it
spawned the process; both clocks are the system-wide monotonic clock), the
path radsob was imported from, and, when TRACE is 1, the tracer's summary
and the OpenBLAS thread count.
"""

from __future__ import annotations

import json
import sys
import time


def _blas_threads() -> int:
    """OpenBLAS threads of the numpy in use, or -1 if it cannot be asked."""
    import ctypes
    import glob
    import os

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


def _boundedness(argv: list[str]) -> int:
    import radsob.opspace
    import radsob.profile

    corpus_spec, d, k, p = argv
    if corpus_spec == "builtin":
        corpus = radsob.profile.builtin_corpus()
    else:
        corpus = radsob.profile.load_corpus(corpus_spec)
    report = radsob.opspace.boundedness_report(corpus, int(d), int(k), float(p), 1.0)
    sys.stdout.write(report.to_json())
    return 0


def main() -> int:
    stamp_path, trace, job_id, kind, *argv = sys.argv[1:]
    import radsob.cli

    imported = time.monotonic()
    stamp = {"imported": imported, "radsob": radsob.cli.__file__}
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer(job_id)
        tracer.install()
    if kind == "cli":
        code = radsob.cli.main(argv)
    elif kind == "boundedness":
        code = _boundedness(argv)
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    sys.stdout.flush()
    if tracer is not None:
        stamp["trace"] = tracer.summary()
        stamp["blas_threads"] = _blas_threads()
    with open(stamp_path, "w") as fh:
        json.dump(stamp, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
