"""Sobolev norms of radially symmetric functions by provably equivalent routes.

The package computes norms of radial fields f(|x|) three ways -- the
d-dimensional definition, weighted 1D norms of powers of the radial
derivation of the profile, and weighted 1D norms of derivatives of the
squared-argument profile -- and verifies numerically that the routes agree
where they must and stay uniformly comparable where they are merely
equivalent.  It also covers the exact multi-index machinery (repeated
Laplacians of monomials, Gram-matrix inversion, recovery coefficients),
Hardy-type inequalities with explicit constants, trace/extension operators,
and norms of corotational maps.
"""

from .derivcalc import (
    BudgetExceededError,
    GramMatrix,
    RecoveryCoeffs,
    forward_terms,
    gram_matrix,
    partial_derivative,
    profile_derivative_from_partials,
    recover_Dn,
    recovery_coeffs,
    solve_linear_system,
)
from .indexpoly import (
    DIndex,
    MonomialPoly,
    MultiIndex,
    collapse,
    enumerate_dindex,
    enumerate_multi,
    multi_factorial,
    multi_length,
    p_poly,
)
from .norms import (
    CorotField,
    InequalityReport,
    NormReport,
    boundary_check,
    corot_lhs,
    corot_report,
    corot_rhs,
    equivalence_report,
    hardy_check,
    homogeneous_norm,
    lp_radial,
    sobolev_ball_definition,
    sobolev_profile_D,
    sobolev_profile_squared,
)
from .profile import (
    CorpusEntry,
    Profile,
    RadialField,
    SquaredProfile,
    builtin_corpus,
    d_op,
    d_op_by_division,
    from_squared,
    halfline_corpus,
    load_corpus,
    save_corpus,
    to_squared,
    whitney_derivative,
)
from .quad import (
    QuadResult,
    QuadratureConvergenceError,
    SphereSampler,
    integrate_1d,
    integrate_power_weight,
    sphere_area,
    sphere_monomial_moment,
    truncation_point,
)

__version__ = "0.1.0"

# no command calls the trace/extension operators, so their module loads on first use
_OPSPACE = frozenset({"TraceExtPair", "boundedness_report", "extend", "trace"})


def __getattr__(name: str):
    if name in _OPSPACE:
        from . import opspace

        return getattr(opspace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
