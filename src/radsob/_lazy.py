"""numpy, imported on first use, with one BLAS thread.

The closed-form routes (p = 2 norm tables, Gram matrices, sphere moments)
run on ``Fraction`` and ``math`` alone; numpy serves only the array paths:
adaptive quadrature, the Monte Carlo route, profile evaluation and sampling.
So that the exact commands do not pay numpy's import, each radsob module
binds ``np`` from here, not from ``import numpy``.

numpy's OpenBLAS runs one thread unless the user sets ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``, or imports numpy before radsob.
radsob's largest BLAS products are too small to share between threads: the
Monte Carlo blocks multiply at most 65 samples by t summands by 480 nodes, the
term tables at most 2 rows by terms by 129 points, and the rest are 1-D dots.
Yet OpenBLAS's second thread is costly to start: on a 2-vCPU guest,
``import numpy`` took 0.155 s with two threads and 0.088 s with one (medians
of 12 alternating runs), and every radsob job that loads numpy paid that.
"""

from __future__ import annotations

import os
import sys

# the variables OpenBLAS reads its thread count from
_BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}


class _Numpy:
    """Stands for the numpy module in radsob's modules until one of them first uses it.

    The first attribute read imports numpy and rebinds ``np`` in every radsob
    module that holds this placeholder to numpy itself, so each later read
    costs what a read of an imported module costs, and patching numpy patches
    what radsob calls.  If this read loads numpy and the user set no thread
    count, ``OPENBLAS_NUM_THREADS=1`` is in the environment while OpenBLAS
    starts and is removed after, so ``os.environ`` and child processes see
    the environment as it was.
    """

    def __getattr__(self, name: str):
        if name.startswith("__"):  # probes such as __wrapped__ do not load numpy
            raise AttributeError(name)
        one_thread = "numpy" not in sys.modules and not _BLAS_THREAD_VARS & os.environ.keys()
        if one_thread:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            if one_thread:
                del os.environ["OPENBLAS_NUM_THREADS"]

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "radsob" and getattr(mod, "__dict__", {}).get("np") is self:
                mod.np = numpy
        return getattr(numpy, name)


np = _Numpy()
