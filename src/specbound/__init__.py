"""Exact bound-state spectra and wavefunctions for nine solvable potential
families, with an independent finite-difference verifier.

Three routes to every level: a closed-form expression, a root of the
series-termination residual, and a Sturm-count-certified eigenvalue of
the discretized problem.  The package treats agreement of all three as the
definition of correct.
"""

from .errors import (
    ConsistencyViolation,
    DegreeOverflow,
    GridTooCoarse,
    GridTooLarge,
    InvalidParameters,
    NegativeDiscriminant,
    NoBoundState,
    NotJacobiBranch,
    NotLaguerreBranch,
    OutOfDomain,
    SpecboundError,
    TooFewSamples,
    UnsupportedAngularMomentum,
    WindowDegenerate,
)
from .oracle import (
    LevelComparison,
    OracleSpectrum,
    VerificationReport,
    compare_spectra,
    fd_eigenvalues,
    fd_eigenvalues_from_callable,
    fd_eigenvector,
    lowest_eigenvalues,
    sturm_count,
)
from .parametric import (
    EnergyDependentForm,
    JacobiBranchConstants,
    LaguerreBranchConstants,
    ParametricCoefficients,
    RootChoice,
    consistency_check,
    quantization_residual,
    quantization_residuals,
    solve_energy,
    solve_jacobi_constants,
    solve_laguerre_constants,
)
from .polynomials import (
    binomial,
    jacobi_eval,
    laguerre_eval,
)
from .potentials import (
    BoundState,
    CoordinateMap,
    Coulomb,
    DeformedRosenMorse,
    FAMILIES,
    GeneralizedMorse,
    KratzerFues,
    Mie,
    NoncentralRadial,
    PoschlTeller,
    PotentialSpec,
    Pseudoharmonic,
    UnitsConfig,
    WoodsSaxon,
    bound_asymptote,
    closed_form_energy,
    default_grid,
    describe_families,
    effective_potential,
    make_potential,
    potential_value,
    spectrum,
    to_parametric,
    wavefunction,
)
from .quadrature import (
    RadialGrid,
    count_nodes,
    simpson_integrate,
)

__version__ = "0.1.0"
