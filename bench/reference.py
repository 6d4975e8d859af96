"""The reference job: a fixed piece of work that measures the machine, not radsob.

Usage::

    python3 bench/reference.py

``run.py`` runs this in a fresh interpreter between benchmark jobs and times
it from outside, as it times the jobs.  It does what starts every job:
start an interpreter and import the third-party modules that ``radsob.cli``
imports.  It imports nothing from radsob, so no change to radsob moves its
time; what moves it is the speed the shared host gives this machine at that
moment, which moves the jobs' times the same way.
"""

import numpy  # noqa: F401
import scipy.optimize  # noqa: F401
import scipy.special  # noqa: F401
