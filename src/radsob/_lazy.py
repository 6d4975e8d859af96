"""numpy, imported on first use.

The closed-form routes (p = 2 norm tables, Gram matrices, sphere moments)
run on ``Fraction`` and ``math`` alone; numpy serves only the array paths:
adaptive quadrature, the Monte Carlo route, profile evaluation and sampling.
So that the exact commands do not pay numpy's import, each radsob module
binds ``np`` from here, not from ``import numpy``.
"""

from __future__ import annotations

import sys


class _Numpy:
    """Stands for the numpy module in radsob's modules until one of them first uses it.

    The first attribute read imports numpy and rebinds ``np`` in every radsob
    module that holds this placeholder to numpy itself, so each later read
    costs what a read of an imported module costs, and patching numpy patches
    what radsob calls.
    """

    def __getattr__(self, name: str):
        if name.startswith("__"):  # probes such as __wrapped__ do not load numpy
            raise AttributeError(name)
        import numpy

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "radsob" and getattr(mod, "__dict__", {}).get("np") is self:
                mod.np = numpy
        return getattr(numpy, name)


np = _Numpy()
