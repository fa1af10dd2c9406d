"""Exception hierarchy shared across the package."""


class SpecboundError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameters(SpecboundError):
    """A potential or configuration parameter violates its invariant."""


class UnsupportedAngularMomentum(InvalidParameters):
    """Nonzero angular momentum requested for a one-dimensional potential."""


class NotJacobiBranch(SpecboundError):
    """Jacobi-branch constants requested for coefficients with c3 = 0."""


class NotLaguerreBranch(SpecboundError):
    """Laguerre-branch constants requested for coefficients with c3 != 0."""


class NegativeDiscriminant(SpecboundError):
    """A branch-constant quadratic has no real root at this trial energy.

    Root finders treat this as "outside the admissible energy range" rather
    than as a hard failure.
    """


class WindowDegenerate(SpecboundError):
    """The admissible energy window is empty (lower edge >= upper edge)."""


class NoBoundState(SpecboundError):
    """No bound level exists for the requested quantum number.

    Finite wells exhaust their spectrum; this signals exhaustion, not a bug.
    """


class ConsistencyViolation(SpecboundError):
    """The polynomial-coefficient identities r2 = 0, r1 + r3 = 0 failed.

    Signals a wrong root choice or a mis-mapped potential.
    """


class DegreeOverflow(SpecboundError):
    """Polynomial degree beyond the supported range."""


class OutOfDomain(SpecboundError):
    """Coordinate outside the potential's physical domain."""


class TooFewSamples(SpecboundError):
    """Quadrature called with fewer than three samples."""


class GridTooCoarse(SpecboundError):
    """Doubling the grid resolution moved an eigenvalue beyond tolerance."""


class GridTooLarge(SpecboundError):
    """The oracle grid has more intervals than it may build a matrix for."""
