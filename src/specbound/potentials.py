"""Catalog of nine exactly solvable potential families.

Each family knows its physical-parameter validation, its change of variable
s(x) that brings the Schrodinger equation into the six-parameter form
handled by :mod:`specbound.parametric`, the energy dependence of the L
coefficients, the root-sign configuration, a closed-form level formula
rederived from the series-termination condition, a sensible default
verification grid, and the Jacobian of its coordinate map, from which the
norm of every state follows in closed form.

Closed forms here are rederived from the termination condition, not copied
from commonly printed variants, several of which carry transcription
errors; see docs/typo-ledger.md.  Every formula in this module is pinned by
the independent finite-difference solver in :mod:`specbound.oracle`.

Conventions: hbar and the particle mass enter through UnitsConfig (both
default 1).  Radial families solve for the full radial factor R(r) with
norm integral over r^2 dr; one-dimensional families use measure 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Union

import numpy as np

from .errors import (
    InvalidParameters,
    NoBoundState,
    OutOfDomain,
    UnsupportedAngularMomentum,
    WindowDegenerate,
)
from .parametric import (
    JACOBI,
    LAGUERRE,
    EnergyDependentForm,
    JacobiBranchConstants,
    LaguerreBranchConstants,
    ParametricCoefficients,
    RootChoice,
    consistency_check,
    solve_energy,
    solve_jacobi_constants,
    solve_laguerre_constants,
)
from .polynomials import jacobi_eval, laguerre_eval
from .quadrature import RadialGrid, golden_section_minimize
# unused here; bench/tracing.py counts quadrature work under this attribute
from .quadrature import simpson_integrate  # noqa: F401

DEFAULT_GRID_POINTS = 4000
#: radial grids carry a denser baseline for the oracle and for Simpson checks
#: of the exact norms: on [0, 80] the hydrogen ground level's Richardson shift
#: is 3.3e-5 at 6000 points (7.5e-5 at 4000), and Simpson recovers its norm to
#: 8e-9 (4e-8 at 4000, above the 1e-8 normalization tolerance)
RADIAL_GRID_POINTS = 6000
RADIAL_DEFAULT_XMAX = 80.0
#: a 1-D grid edge is placed where |V - V_asymptote| drops below this
#: fraction of the well depth
EDGE_TOL_FRACTION = 1e-8
#: on a side with no finite asymptote the edge acts as a hard wall once V
#: exceeds this multiple of the well depth
WALL_FRACTION = 1e4


def _require_finite(spec) -> None:
    """Reject NaN and infinite parameters by name; the range checks after
    this one would let NaN through (every comparison with NaN is false)."""
    for name, value in potential_params(spec).items():
        if not math.isfinite(value):
            raise InvalidParameters(
                f"{spec.family} parameter {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class UnitsConfig:
    """hbar and particle mass; atomic-like units by default."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameters(f"{name} must be finite, got {value!r}")
        if self.hbar <= 0 or self.mass <= 0:
            raise InvalidParameters("hbar and mass must be strictly positive")


@dataclass(frozen=True)
class CoordinateMap:
    """Change of variable from the physical coordinate to s, plus the weight
    used in norm integrals (r^2 for radial problems, 1 in one dimension).

    ``jacobian`` = (C, m, j) declares the norm weight in the s variable,
    measure(x) |dx/ds| = C s^m (1 + c3 s)^j, with c3 from the family's
    parametric form.  It turns every norm integral into a Laguerre or
    Jacobi weight integral with a closed form.
    """

    s_of_x: Callable[[np.ndarray], np.ndarray]
    x_domain: tuple[float, float]
    s_domain: tuple[float, float]
    measure: Callable[[np.ndarray], np.ndarray]
    jacobian: tuple[float, float, float]


def _radial_measure(x):
    return np.asarray(x, dtype=float) ** 2


def _flat_measure(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _identity_radial_map() -> CoordinateMap:
    """s = r with the r^2 measure: the Mie, Kratzer-Fues, Coulomb and
    noncentral substitution."""
    return CoordinateMap(s_of_x=lambda r: np.asarray(r, dtype=float),
                         x_domain=(0.0, math.inf), s_domain=(0.0, math.inf),
                         measure=_radial_measure, jacobian=(1.0, 2.0, 0.0))


# --------------------------------------------------------------------------
# family definitions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralizedMorse:
    """V(x) = V1 exp(-2 a x) - V2 exp(-a x) on the full line."""

    V1: float
    V2: float
    a: float

    family: ClassVar[str] = "morse"
    label: ClassVar[str] = "Generalized Morse"
    radial: ClassVar[bool] = False
    branch: ClassVar[str] = LAGUERRE
    param_units: ClassVar[dict] = {"V1": "energy", "V2": "energy", "a": "1/length"}

    def __post_init__(self):
        _require_finite(self)
        if self.V1 <= 0 or self.V2 <= 0:
            raise InvalidParameters("Morse needs V1 > 0 and V2 > 0 for a bound pocket")
        if self.a <= 0:
            raise InvalidParameters("Morse needs a > 0")

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            v = self.V1 * np.exp(-2 * self.a * x) - self.V2 * np.exp(-self.a * x)
        return v

    def asymptote(self) -> float:
        return 0.0

    def asymptote_sides(self) -> tuple[float, float]:
        return (math.inf, 0.0)

    def well_center(self) -> float:
        return math.log(2 * self.V1 / self.V2) / self.a

    def root_choice(self) -> RootChoice:
        return RootChoice()

    def coordinate_map(self, l, units) -> CoordinateMap:
        root_v1, a = math.sqrt(self.V1), self.a

        def s_of_x(x):
            return root_v1 * np.exp(-a * np.asarray(x, dtype=float))

        # |dx/ds| = 1/(a s)
        return CoordinateMap(s_of_x=s_of_x, x_domain=(-math.inf, math.inf),
                             s_domain=(0.0, math.inf), measure=_flat_measure,
                             jacobian=(1.0 / a, -1.0, 0.0))

    def parametric(self, l, units: UnitsConfig) -> EnergyDependentForm:
        b = 2 * units.mass / (units.hbar**2 * self.a**2)
        lam1 = b
        lam2 = b * self.V2 / math.sqrt(self.V1)

        def coeff_at(energy: float) -> ParametricCoefficients:
            return ParametricCoefficients(c1=1.0, c2=0.0, c3=0.0,
                                          lambda1=lam1, lambda2=lam2,
                                          lambda3=-b * energy)

        return EnergyDependentForm(branch=LAGUERRE, coeff_at=coeff_at,
                                   energy_window=self.energy_window(l, units))

    def energy_window(self, l, units) -> tuple[float, float]:
        v_min = _well_minimum(self)[1]
        return (v_min, 0.0)

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        # level exists while the decay exponent 2 eps = w - (2n + 1) stays positive
        w = math.sqrt(2 * units.mass) * self.V2 / (units.hbar * self.a * math.sqrt(self.V1))
        bracket = w - (2 * n + 1)
        if bracket <= 0:
            raise NoBoundState(f"Morse well holds no level n = {n}")
        return -(units.hbar**2 * self.a**2 / (8 * units.mass)) * bracket**2


@dataclass(frozen=True)
class Mie:
    """V(r) = V0 [ (a/r)^2 / 2 - a/r ]."""

    V0: float
    a: float

    family: ClassVar[str] = "mie"
    label: ClassVar[str] = "Mie"
    radial: ClassVar[bool] = True
    branch: ClassVar[str] = LAGUERRE
    param_units: ClassVar[dict] = {"V0": "energy", "a": "length"}

    def __post_init__(self):
        _require_finite(self)
        if self.V0 <= 0 or self.a <= 0:
            raise InvalidParameters("Mie needs V0 > 0 and a > 0")

    def potential(self, r):
        r = _check_radial_coordinate(r)
        return self.V0 * (0.5 * (self.a / r) ** 2 - self.a / r)

    def asymptote(self) -> float:
        return 0.0

    def root_choice(self) -> RootChoice:
        return RootChoice()

    def coordinate_map(self, l, units) -> CoordinateMap:
        return _identity_radial_map()

    def _lam23(self, l, units):
        lam2 = 2 * units.mass * self.a * self.V0 / units.hbar**2
        lam3 = units.mass * self.a**2 * self.V0 / units.hbar**2 + l * (l + 1)
        return lam2, lam3

    def parametric(self, l, units: UnitsConfig) -> EnergyDependentForm:
        lam2, lam3 = self._lam23(l, units)
        two_m = 2 * units.mass / units.hbar**2

        def coeff_at(energy: float) -> ParametricCoefficients:
            return ParametricCoefficients(c1=2.0, c2=0.0, c3=0.0,
                                          lambda1=-two_m * energy,
                                          lambda2=lam2, lambda3=lam3)

        return EnergyDependentForm(branch=LAGUERRE, coeff_at=coeff_at,
                                   energy_window=self.energy_window(l, units))

    def energy_window(self, l, units) -> tuple[float, float]:
        return (-self.V0 / 2.0, 0.0)

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        lam2, lam3 = self._lam23(l, units)
        d = 2 * n + 1 + math.sqrt(1 + 4 * lam3)
        return -(units.hbar**2 / (2 * units.mass)) * (lam2 / d) ** 2


@dataclass(frozen=True)
class KratzerFues:
    """V(r) = De ((r - re)/r)^2, a well of depth De with minimum at re."""

    De: float
    re: float

    family: ClassVar[str] = "kratzer_fues"
    label: ClassVar[str] = "Kratzer-Fues"
    radial: ClassVar[bool] = True
    branch: ClassVar[str] = LAGUERRE
    param_units: ClassVar[dict] = {"De": "energy", "re": "length"}

    def __post_init__(self):
        _require_finite(self)
        if self.De <= 0 or self.re <= 0:
            raise InvalidParameters("Kratzer-Fues needs De > 0 and re > 0")

    def potential(self, r):
        r = _check_radial_coordinate(r)
        return self.De * ((r - self.re) / r) ** 2

    def asymptote(self) -> float:
        return self.De

    def root_choice(self) -> RootChoice:
        return RootChoice()

    def coordinate_map(self, l, units) -> CoordinateMap:
        return _identity_radial_map()

    def _lam23(self, l, units):
        lam2 = 4 * units.mass * self.De * self.re / units.hbar**2
        lam3 = 2 * units.mass * self.De * self.re**2 / units.hbar**2 + l * (l + 1)
        return lam2, lam3

    def parametric(self, l, units: UnitsConfig) -> EnergyDependentForm:
        lam2, lam3 = self._lam23(l, units)
        two_m = 2 * units.mass / units.hbar**2

        def coeff_at(energy: float) -> ParametricCoefficients:
            return ParametricCoefficients(c1=2.0, c2=0.0, c3=0.0,
                                          lambda1=two_m * (self.De - energy),
                                          lambda2=lam2, lambda3=lam3)

        return EnergyDependentForm(branch=LAGUERRE, coeff_at=coeff_at,
                                   energy_window=self.energy_window(l, units))

    def energy_window(self, l, units) -> tuple[float, float]:
        # V >= 0 everywhere, levels accumulate below the dissociation value De
        return (0.0, self.De)

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        lam2, lam3 = self._lam23(l, units)
        d = 2 * n + 1 + math.sqrt(1 + 4 * lam3)
        return self.De - (units.hbar**2 / (2 * units.mass)) * (lam2 / d) ** 2


@dataclass(frozen=True)
class Coulomb:
    """V(r) = -e2 / r."""

    e2: float

    family: ClassVar[str] = "coulomb"
    label: ClassVar[str] = "Coulomb"
    radial: ClassVar[bool] = True
    branch: ClassVar[str] = LAGUERRE
    param_units: ClassVar[dict] = {"e2": "energy*length"}

    def __post_init__(self):
        _require_finite(self)
        if self.e2 <= 0:
            raise InvalidParameters("Coulomb needs e2 > 0 for binding")

    def potential(self, r):
        r = _check_radial_coordinate(r)
        return -self.e2 / r

    def asymptote(self) -> float:
        return 0.0

    def root_choice(self) -> RootChoice:
        return RootChoice()

    def coordinate_map(self, l, units) -> CoordinateMap:
        return _identity_radial_map()

    def parametric(self, l, units: UnitsConfig) -> EnergyDependentForm:
        lam2 = 2 * units.mass * self.e2 / units.hbar**2
        lam3 = float(l * (l + 1))
        two_m = 2 * units.mass / units.hbar**2

        def coeff_at(energy: float) -> ParametricCoefficients:
            return ParametricCoefficients(c1=2.0, c2=0.0, c3=0.0,
                                          lambda1=-two_m * energy,
                                          lambda2=lam2, lambda3=lam3)

        return EnergyDependentForm(branch=LAGUERRE, coeff_at=coeff_at,
                                   energy_window=self.energy_window(l, units))

    def energy_window(self, l, units) -> tuple[float, float]:
        # the potential has no finite minimum at l = 0: floor the window at
        # four times the lowest level's magnitude instead
        ground = units.mass * self.e2**2 / (2 * units.hbar**2)
        return (-4.0 * ground, 0.0)

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        n0 = n + l + 1
        return -units.mass * self.e2**2 / (2 * units.hbar**2 * n0**2)


@dataclass(frozen=True)
class Pseudoharmonic:
    """V(r) = V0 (r/r0 - r0/r)^2, confining on both sides of r0."""

    V0: float
    r0: float

    family: ClassVar[str] = "pseudoharmonic"
    label: ClassVar[str] = "Pseudoharmonic"
    radial: ClassVar[bool] = True
    branch: ClassVar[str] = LAGUERRE
    param_units: ClassVar[dict] = {"V0": "energy", "r0": "length"}

    def __post_init__(self):
        _require_finite(self)
        if self.V0 <= 0 or self.r0 <= 0:
            raise InvalidParameters("Pseudoharmonic needs V0 > 0 and r0 > 0")

    def potential(self, r):
        r = _check_radial_coordinate(r)
        return self.V0 * (r / self.r0 - self.r0 / r) ** 2

    def asymptote(self) -> float:
        return math.inf

    def root_choice(self) -> RootChoice:
        return RootChoice()

    def coordinate_map(self, l, units) -> CoordinateMap:
        def s_of_x(r):
            return np.asarray(r, dtype=float) ** 2

        # r^2 |dr/ds| = s / (2 sqrt(s))
        return CoordinateMap(s_of_x=s_of_x, x_domain=(0.0, math.inf),
                             s_domain=(0.0, math.inf), measure=_radial_measure,
                             jacobian=(0.5, 0.5, 0.0))

    def _lams(self, l, units):
        lam1 = units.mass * self.V0 / (2 * units.hbar**2 * self.r0**2)
        lam3 = units.mass * self.V0 * self.r0**2 / (2 * units.hbar**2) + l * (l + 1) / 4.0
        return lam1, lam3

    def parametric(self, l, units: UnitsConfig) -> EnergyDependentForm:
        lam1, lam3 = self._lams(l, units)
        half_m = units.mass / (2 * units.hbar**2)

        def coeff_at(energy: float) -> ParametricCoefficients:
            return ParametricCoefficients(c1=1.5, c2=0.0, c3=0.0,
                                          lambda1=lam1,
                                          lambda2=half_m * (energy + 2 * self.V0),
                                          lambda3=lam3)

        return EnergyDependentForm(branch=LAGUERRE, coeff_at=coeff_at,
                                   energy_window=self.energy_window(l, units))

    def energy_window(self, l, units) -> tuple[float, float]:
        # V >= 0 and confining: the spectrum is unbounded above
        return (0.0, math.inf)

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        lam1, lam3 = self._lams(l, units)
        bracket = 2 * n + 1 + 2 * math.sqrt(1.0 / 16.0 + lam3)
        return (2 * units.hbar**2 / units.mass) * math.sqrt(lam1) * bracket - 2 * self.V0


@dataclass(frozen=True)
class NoncentralRadial:
    """Radial equation of the noncentral family: V(r) = alpha/r plus the
    angular separation constant lam acting as an r^-2 barrier.

    The angular problem is not solved here: lam is taken as an input.  With
    lam = hbar^2 l(l+1)/(2m) this reduces exactly to the Coulomb case.
    """

    alpha: float
    lam: float

    family: ClassVar[str] = "noncentral_radial"
    label: ClassVar[str] = "Noncentral (radial part)"
    radial: ClassVar[bool] = True
    branch: ClassVar[str] = LAGUERRE
    param_units: ClassVar[dict] = {"alpha": "energy*length", "lambda": "energy*length^2"}

    def __post_init__(self):
        _require_finite(self)
        if self.alpha >= 0:
            raise InvalidParameters("noncentral radial part needs alpha < 0 for binding")
        if self.lam < 0:
            raise InvalidParameters("separation constant lambda must be >= 0")

    def potential(self, r):
        r = _check_radial_coordinate(r)
        return self.alpha / r

    def separation_barrier(self, r):
        return self.lam / np.asarray(r, dtype=float) ** 2

    def asymptote(self) -> float:
        return 0.0

    def root_choice(self) -> RootChoice:
        return RootChoice()

    def coordinate_map(self, l, units) -> CoordinateMap:
        return _identity_radial_map()

    def parametric(self, l, units: UnitsConfig) -> EnergyDependentForm:
        lam2 = -2 * units.mass * self.alpha / units.hbar**2
        lam3 = 2 * units.mass * self.lam / units.hbar**2
        two_m = 2 * units.mass / units.hbar**2

        def coeff_at(energy: float) -> ParametricCoefficients:
            return ParametricCoefficients(c1=2.0, c2=0.0, c3=0.0,
                                          lambda1=-two_m * energy,
                                          lambda2=lam2, lambda3=lam3)

        return EnergyDependentForm(branch=LAGUERRE, coeff_at=coeff_at,
                                   energy_window=self.energy_window(l, units))

    def energy_window(self, l, units) -> tuple[float, float]:
        ground = units.mass * self.alpha**2 / (2 * units.hbar**2)
        return (-4.0 * ground, 0.0)

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        lam2 = -2 * units.mass * self.alpha / units.hbar**2
        lam3 = 2 * units.mass * self.lam / units.hbar**2
        d = 2 * n + 1 + math.sqrt(1 + 4 * lam3)
        return -(units.hbar**2 / (2 * units.mass)) * (lam2 / d) ** 2


@dataclass(frozen=True)
class DeformedRosenMorse:
    """V(x) = V1/(1 + eta e^(-2ax)) - V2 eta e^(-2ax)/(1 + eta e^(-2ax))^2.

    Asymmetric step of height V1 (right asymptote) with an attractive
    pocket; left asymptote 0.  eta > 0 only translates the profile, so the
    spectrum is eta-independent.
    """

    V1: float
    V2: float
    a: float
    eta: float

    family: ClassVar[str] = "rosen_morse"
    label: ClassVar[str] = "Deformed Rosen-Morse"
    radial: ClassVar[bool] = False
    branch: ClassVar[str] = JACOBI
    param_units: ClassVar[dict] = {"V1": "energy", "V2": "energy",
                                   "a": "1/length", "eta": "dimensionless"}

    def __post_init__(self):
        _require_finite(self)
        if self.V1 < 0:
            raise InvalidParameters("Rosen-Morse step height V1 must be >= 0")
        if self.V2 <= 0:
            raise InvalidParameters("Rosen-Morse needs V2 > 0 for an attractive pocket")
        if self.a <= 0 or self.eta <= 0:
            raise InvalidParameters("Rosen-Morse needs a > 0 and eta > 0")

    def _s(self, x):
        # 1/(e^{2ax} + eta) is e^{-2ax}/(1 + eta e^{-2ax}) in overflow-safe form
        with np.errstate(over="ignore"):
            return 1.0 / (np.exp(2 * self.a * np.asarray(x, dtype=float)) + self.eta)

    def potential(self, x):
        s = self._s(x)
        one_minus = 1.0 - self.eta * s
        return self.V1 * one_minus - self.V2 * self.eta * s * one_minus

    def asymptote(self) -> float:
        return min(0.0, self.V1)

    def asymptote_sides(self) -> tuple[float, float]:
        return (0.0, self.V1)

    def well_center(self) -> float:
        s_star = (self.V1 + self.V2) / (2 * self.V2 * self.eta)
        if not 0 < s_star < 1.0 / self.eta:
            raise WindowDegenerate("potential has no interior minimum (V1 >= V2)")
        return math.log(1.0 / s_star - self.eta) / (2 * self.a)

    def root_choice(self) -> RootChoice:
        # decay toward x -> -infinity needs the negative p root
        return RootChoice(q_sign=+1, p_sign=-1)

    def coordinate_map(self, l, units) -> CoordinateMap:
        # |dx/ds| = 1/(2a s (1 - eta s))
        return CoordinateMap(s_of_x=self._s, x_domain=(-math.inf, math.inf),
                             s_domain=(0.0, 1.0 / self.eta), measure=_flat_measure,
                             jacobian=(0.5 / self.a, -1.0, -1.0))

    def _scaled(self, units):
        c = units.mass / (2 * units.hbar**2 * self.a**2)
        kappa = c * self.V1
        gamma = c * self.V2 * self.eta
        return c, kappa, gamma

    def parametric(self, l, units: UnitsConfig) -> EnergyDependentForm:
        c, kappa, gamma = self._scaled(units)
        eta = self.eta

        def coeff_at(energy: float) -> ParametricCoefficients:
            return ParametricCoefficients(c1=1.0, c2=-2 * eta, c3=-eta,
                                          lambda1=gamma * eta,
                                          lambda2=kappa * eta + gamma,
                                          lambda3=c * (self.V1 - energy))

        return EnergyDependentForm(branch=JACOBI, coeff_at=coeff_at,
                                   energy_window=self.energy_window(l, units))

    def energy_window(self, l, units) -> tuple[float, float]:
        try:
            v_min = _well_minimum(self)[1]
        except WindowDegenerate:
            return (0.0, 0.0)
        return (v_min, 0.0)

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        c, kappa, gamma = self._scaled(units)
        w = 0.5 * (math.sqrt(1 + 4 * gamma / self.eta) - 1.0)
        s_n = w - n
        if s_n <= math.sqrt(kappa):
            raise NoBoundState(f"Rosen-Morse well holds no level n = {n}")
        eps = ((s_n**2 - kappa) / (2 * s_n)) ** 2
        return -eps / c


@dataclass(frozen=True)
class WoodsSaxon:
    """V(x) = -V1/(1 + e^(ax)) - V2 e^(ax)/(1 + e^(ax))^2 on the full line.

    Left asymptote -V1, right asymptote 0; bound states live below -V1 and
    exist only when the V2 pocket is deep enough.
    """

    V1: float
    V2: float
    a: float

    family: ClassVar[str] = "woods_saxon"
    label: ClassVar[str] = "Generalized Woods-Saxon"
    radial: ClassVar[bool] = False
    branch: ClassVar[str] = JACOBI
    param_units: ClassVar[dict] = {"V1": "energy", "V2": "energy", "a": "1/length"}

    def __post_init__(self):
        _require_finite(self)
        if self.V1 < 0:
            raise InvalidParameters("Woods-Saxon step depth V1 must be >= 0")
        if self.V2 <= 0:
            raise InvalidParameters("Woods-Saxon needs V2 > 0 for a pocket below -V1")
        if self.a <= 0:
            raise InvalidParameters("Woods-Saxon needs a > 0")

    def _s(self, x):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(self.a * np.asarray(x, dtype=float)))

    def potential(self, x):
        s = self._s(x)
        return -self.V1 * s - self.V2 * s * (1.0 - s)

    def asymptote(self) -> float:
        return -self.V1

    def asymptote_sides(self) -> tuple[float, float]:
        return (-self.V1, 0.0)

    def well_center(self) -> float:
        s_star = (self.V1 + self.V2) / (2 * self.V2)
        if not 0 < s_star < 1:
            raise WindowDegenerate("potential has no interior minimum (V1 >= V2)")
        return math.log(1.0 / s_star - 1.0) / self.a

    def root_choice(self) -> RootChoice:
        return RootChoice(q_sign=+1, p_sign=-1)

    def coordinate_map(self, l, units) -> CoordinateMap:
        # |dx/ds| = 1/(a s (1 - s))
        return CoordinateMap(s_of_x=self._s, x_domain=(-math.inf, math.inf),
                             s_domain=(0.0, 1.0), measure=_flat_measure,
                             jacobian=(1.0 / self.a, -1.0, -1.0))

    def parametric(self, l, units: UnitsConfig) -> EnergyDependentForm:
        b = 2 * units.mass / (units.hbar**2 * self.a**2)
        lam1 = b * self.V2
        lam2 = b * (self.V1 + self.V2)

        def coeff_at(energy: float) -> ParametricCoefficients:
            return ParametricCoefficients(c1=1.0, c2=-2.0, c3=-1.0,
                                          lambda1=lam1, lambda2=lam2,
                                          lambda3=-b * energy)

        return EnergyDependentForm(branch=JACOBI, coeff_at=coeff_at,
                                   energy_window=self.energy_window(l, units))

    def energy_window(self, l, units) -> tuple[float, float]:
        try:
            v_min = _well_minimum(self)[1]
        except WindowDegenerate:
            return (-self.V1, -self.V1)
        return (v_min, -self.V1)

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        b = 2 * units.mass / (units.hbar**2 * self.a**2)
        big_gamma = b * self.V2
        big_a = b * self.V1
        w = 0.5 * (math.sqrt(1 + 4 * big_gamma) - 1.0)
        s_n = w - n
        if s_n <= math.sqrt(big_a) or s_n <= 0:
            raise NoBoundState(f"Woods-Saxon well holds no level n = {n}")
        eps = ((s_n**2 + big_a) / (2 * s_n)) ** 2
        return -eps / b


@dataclass(frozen=True)
class PoschlTeller:
    """V(x) = -4 V0 eta e^(-2ax) / (1 + eta e^(-2ax))^2.

    For eta = 1 this is the -V0 / cosh^2(ax) well; eta > 0 only shifts it.
    """

    V0: float
    a: float
    eta: float

    family: ClassVar[str] = "poschl_teller"
    label: ClassVar[str] = "Poschl-Teller"
    radial: ClassVar[bool] = False
    branch: ClassVar[str] = JACOBI
    param_units: ClassVar[dict] = {"V0": "energy", "a": "1/length", "eta": "dimensionless"}

    def __post_init__(self):
        _require_finite(self)
        if self.V0 <= 0:
            raise InvalidParameters("Poschl-Teller needs V0 > 0")
        if self.a <= 0 or self.eta <= 0:
            raise InvalidParameters("Poschl-Teller needs a > 0 and eta > 0")

    def _s(self, x):
        with np.errstate(over="ignore"):
            return 1.0 / (np.exp(2 * self.a * np.asarray(x, dtype=float)) + self.eta)

    def potential(self, x):
        s = self._s(x)
        return -4.0 * self.V0 * self.eta * s * (1.0 - self.eta * s)

    def asymptote(self) -> float:
        return 0.0

    def asymptote_sides(self) -> tuple[float, float]:
        return (0.0, 0.0)

    def well_center(self) -> float:
        return math.log(self.eta) / (2 * self.a)

    def root_choice(self) -> RootChoice:
        return RootChoice(q_sign=+1, p_sign=-1)

    def coordinate_map(self, l, units) -> CoordinateMap:
        # |dx/ds| = 1/(2a s (1 - eta s))
        return CoordinateMap(s_of_x=self._s, x_domain=(-math.inf, math.inf),
                             s_domain=(0.0, 1.0 / self.eta), measure=_flat_measure,
                             jacobian=(0.5 / self.a, -1.0, -1.0))

    def parametric(self, l, units: UnitsConfig) -> EnergyDependentForm:
        c = units.mass / (2 * units.hbar**2 * self.a**2)
        gamma = 4 * c * self.V0 * self.eta
        eta = self.eta

        def coeff_at(energy: float) -> ParametricCoefficients:
            return ParametricCoefficients(c1=1.0, c2=-2 * eta, c3=-eta,
                                          lambda1=gamma * eta, lambda2=gamma,
                                          lambda3=-c * energy)

        return EnergyDependentForm(branch=JACOBI, coeff_at=coeff_at,
                                   energy_window=self.energy_window(l, units))

    def energy_window(self, l, units) -> tuple[float, float]:
        v_min = _well_minimum(self)[1]
        return (v_min, 0.0)

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        c = units.mass / (2 * units.hbar**2 * self.a**2)
        gamma_over_eta = 4 * c * self.V0
        w = 0.5 * (math.sqrt(1 + 4 * gamma_over_eta) - 1.0)
        s_n = w - n
        if s_n <= 0:
            raise NoBoundState(f"Poschl-Teller well holds no level n = {n}")
        return -(s_n**2 / 4.0) / c


PotentialSpec = Union[GeneralizedMorse, Mie, KratzerFues, Coulomb, Pseudoharmonic,
                      NoncentralRadial, DeformedRosenMorse, WoodsSaxon, PoschlTeller]

FAMILIES: dict[str, type] = {
    cls.family: cls
    for cls in (GeneralizedMorse, Mie, KratzerFues, Coulomb, Pseudoharmonic,
                NoncentralRadial, DeformedRosenMorse, WoodsSaxon, PoschlTeller)
}

_CASE_ORDER = ["morse", "mie", "kratzer_fues", "coulomb", "pseudoharmonic",
               "noncentral_radial", "rosen_morse", "woods_saxon", "poschl_teller"]


@dataclass(frozen=True)
class BoundState:
    """One solved level: quantum numbers, energy, branch constants at that
    energy, and its exact normalization.

    ``norm_constant`` multiplies psi divided by the peak value of its
    prefactor (s^q e^(-p s) or s^q (1 + c3 s)^(-p)), which keeps the
    constant finite for heavy particles and deep wells; ``wavefunction``
    applies it."""

    potential: PotentialSpec
    units: UnitsConfig
    n: int
    l: int
    energy: float
    constants: JacobiBranchConstants | LaguerreBranchConstants
    coefficients: ParametricCoefficients
    cmap: CoordinateMap
    norm_constant: float


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

def _check_radial_coordinate(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise OutOfDomain("radial coordinate must be strictly positive")
    return r


def _validate_l(spec: PotentialSpec, l: int) -> None:
    if l < 0 or int(l) != l:
        raise InvalidParameters(f"angular momentum must be a nonnegative integer, got {l}")
    if not spec.radial and l != 0:
        raise UnsupportedAngularMomentum(
            f"{spec.family} is one-dimensional; only l = 0 is meaningful")
    if isinstance(spec, NoncentralRadial) and l != 0:
        raise UnsupportedAngularMomentum(
            "noncentral_radial carries its angular part in lambda; call with l = 0")


def _well_minimum(spec) -> tuple[float, float]:
    """Locate the potential minimum (1-D families) by golden-section search
    seeded at the analytic stationary point."""
    x_star = spec.well_center()
    scale = 1.0 / spec.a
    x, v = golden_section_minimize(lambda t: float(spec.potential(t)),
                                   x_star - 4 * scale, x_star + 4 * scale)
    return x, v


def _expand_to_edge(f, start: float, step0: float, direction: int, predicate) -> float:
    """Walk outward from `start` in `direction` until predicate(f(x)) holds,
    then bisect back to the transition point."""
    d = step0
    x_prev = start
    for _ in range(200):
        x = start + direction * d
        if predicate(f(x)):
            lo, hi = x_prev, x
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if predicate(f(mid)):
                    hi = mid
                else:
                    lo = mid
            return hi
        x_prev = x
        d *= 2.0
    raise InvalidParameters("could not locate a grid edge; potential never settles")


def _outer_turning_point(spec, l: int, units: UnitsConfig, energy: float) -> float:
    """Largest radius where V_eff crosses the given energy from below."""
    sample = np.geomspace(1e-3, 1e3, 61)
    v = effective_potential(spec, l, units, sample)
    lo = float(sample[int(np.argmin(v))])
    hi = lo
    for _ in range(120):
        hi *= 2.0
        if float(effective_potential(spec, l, units, np.array([hi]))[0]) >= energy:
            break
    else:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(effective_potential(spec, l, units, np.array([mid]))[0]) >= energy:
            hi = mid
        else:
            lo = mid
    return hi


def default_grid(spec: PotentialSpec, l: int = 0, units: UnitsConfig = UnitsConfig(),
                 n_max: int = 8, n_points: int | None = None) -> RadialGrid:
    """Verification and sampling grid adequate for levels up to n_max.

    Radial families start at the origin (the physical boundary of the
    reduced problem) and extend to three times the outer classical turning
    point of the highest requested level, at least 80; point counts scale
    with the extent so the spacing never coarsens.  The confining
    pseudoharmonic family uses its own turning-point rule.
    One-dimensional families place the edges where the potential has
    settled to its asymptote within 1e-8 of the well depth (or has become
    a hard wall on a side that grows without bound).
    """
    if spec.radial:
        base = RADIAL_GRID_POINTS if n_points is None else n_points
        if isinstance(spec, Pseudoharmonic):
            omega = math.sqrt(8 * spec.V0 / (units.mass * spec.r0**2))
            e_cap = units.hbar * omega * (2 * n_max + 12)
            w = math.sqrt(e_cap / spec.V0)
            r_tp = spec.r0 * (w + math.sqrt(w * w + 4.0)) / 2.0
            return RadialGrid(0.0, 1.5 * r_tp, base)
        e_top = spec.closed_form(n_max, l, units)
        r_max = RADIAL_DEFAULT_XMAX
        if e_top < spec.asymptote():
            r_max = max(r_max, 3.0 * _outer_turning_point(spec, l, units, e_top))
        if n_points is None:
            base = int(round(base * max(1.0, r_max / RADIAL_DEFAULT_XMAX)))
        return RadialGrid(0.0, r_max, base)
    if n_points is None:
        n_points = DEFAULT_GRID_POINTS

    x_star, v_min = _well_minimum(spec)
    left_asym, right_asym = spec.asymptote_sides()
    finite = [v for v in (left_asym, right_asym) if math.isfinite(v)]
    depth = min(finite) - v_min
    if depth <= 0:
        raise WindowDegenerate(f"{spec.family} has no well below its asymptote")
    v = spec.potential
    step0 = 1.0 / spec.a

    def settled(asym):
        return lambda val: abs(val - asym) <= EDGE_TOL_FRACTION * depth

    def walled(val):
        return val >= WALL_FRACTION * depth

    x_lo = _expand_to_edge(v, x_star, step0, -1,
                           settled(left_asym) if math.isfinite(left_asym) else walled)
    x_hi = _expand_to_edge(v, x_star, step0, +1,
                           settled(right_asym) if math.isfinite(right_asym) else walled)
    return RadialGrid(float(x_lo), float(x_hi), n_points)


# --------------------------------------------------------------------------
# module-level operations
# --------------------------------------------------------------------------

def make_potential(family: str, params: dict) -> PotentialSpec:
    """Construct a catalog potential from its family name and parameters.

    The JSON/CLI key "lambda" maps onto the NoncentralRadial attribute
    ``lam`` (the bare name is reserved in Python).
    """
    try:
        cls = FAMILIES[family]
    except KeyError:
        known = ", ".join(_CASE_ORDER)
        raise InvalidParameters(f"unknown potential family {family!r}; known: {known}")
    kwargs = {("lam" if key == "lambda" else key): value for key, value in params.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise InvalidParameters(f"bad parameters for {family}: {exc}")


def potential_params(spec: PotentialSpec) -> dict:
    """Inverse of make_potential: the external-name parameter mapping."""
    out = {}
    for name in spec.param_units:
        attr = "lam" if name == "lambda" else name
        out[name] = getattr(spec, attr)
    return out


def describe_families() -> list[dict]:
    """Descriptor rows for the nine families, in catalog order."""
    rows = []
    for i, name in enumerate(_CASE_ORDER, start=1):
        cls = FAMILIES[name]
        rows.append({
            "case": i,
            "family": name,
            "label": cls.label,
            "parameters": dict(cls.param_units),
            "branch": cls.branch,
            "c3": "c3 = 0" if cls.branch == LAGUERRE else "nonzero c3",
            "supported_l": "l >= 0" if (cls.radial and cls is not NoncentralRadial)
                           else "l = 0",
        })
    return rows


def to_parametric(spec: PotentialSpec, l: int = 0,
                  units: UnitsConfig = UnitsConfig()) -> tuple[EnergyDependentForm, CoordinateMap]:
    """Map a catalog potential onto the six-parameter form at angular
    momentum l, together with its coordinate substitution."""
    _validate_l(spec, l)
    return spec.parametric(l, units), spec.coordinate_map(l, units)


def potential_value(spec: PotentialSpec, x):
    """Evaluate V at a physical coordinate (the radial part for the
    noncentral family)."""
    return spec.potential(x) if np.ndim(x) else float(spec.potential(x))


def effective_potential(spec: PotentialSpec, l: int, units: UnitsConfig, x):
    """Potential entering the reduced one-dimensional eigenproblem: V plus
    the centrifugal barrier for radial families (and the separation barrier
    for the noncentral radial equation)."""
    _validate_l(spec, l)
    x = np.asarray(x, dtype=float)
    v = np.asarray(spec.potential(x), dtype=float)
    if isinstance(spec, NoncentralRadial):
        v = v + spec.separation_barrier(x)
    elif spec.radial and l > 0:
        v = v + units.hbar**2 * l * (l + 1) / (2 * units.mass * x**2)
    return v


def bound_asymptote(spec: PotentialSpec) -> float:
    """Energy ceiling below which states are bound (the lower of the two
    asymptotic potential values)."""
    return spec.asymptote()


def closed_form_energy(spec: PotentialSpec, l: int, units: UnitsConfig, n: int) -> float:
    """Closed-form level rederived from the termination condition.

    Raises NoBoundState when a finite well has exhausted its spectrum.
    """
    _validate_l(spec, l)
    if n < 0:
        raise InvalidParameters("n must be nonnegative")
    return spec.closed_form(n, l, units)


def _prefactor_peak(pc: ParametricCoefficients,
                    constants: JacobiBranchConstants | LaguerreBranchConstants
                    ) -> tuple[float, float]:
    """Where the prefactor of psi peaks, and its log there.

    s^q e^(-p s) peaks at s* = q/p and s^q (1 + c3 s)^(-p) at
    s* = q / (c3 (p - q)); with q = 0 the peak sits at s* = 0 with value 1.
    Dividing psi by this peak keeps it near 1 where the state lives, so
    heavy particles and deep wells neither underflow psi nor overflow its
    norm constant.
    """
    if isinstance(constants, LaguerreBranchConstants):
        q, p = constants.q10, constants.p10
        if q == 0.0:
            return 0.0, 0.0
        s_star = q / p
        return s_star, q * math.log(s_star) - p * s_star
    q, p = constants.q0, constants.p0
    if q == 0.0:
        return 0.0, 0.0
    s_star = q / (pc.c3 * (p - q))
    return s_star, q * math.log(s_star) - p * math.log1p(pc.c3 * s_star)


def _unnormalized_psi(pc: ParametricCoefficients,
                      constants: JacobiBranchConstants | LaguerreBranchConstants,
                      n: int, s: np.ndarray) -> np.ndarray:
    """psi at s, divided by the peak value of its prefactor."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    s_star, _ = _prefactor_peak(pc, constants)
    # the prefactor as exp(t), t <= 0, avoids 0 * inf overflow at large s
    t = np.full_like(s, -np.inf)
    if isinstance(constants, LaguerreBranchConstants):
        q, p, k = constants.q10, constants.p10, constants.k
        y = (2 * p - pc.c2) * s
        pos = s > 0
        t[pos] = -p * (s[pos] - s_star)
        if q != 0.0:
            t[pos] += q * np.log(s[pos] / s_star)
        live = pos & (t > -700.0)
        out[live] = np.exp(t[live]) * np.asarray(laguerre_eval(n, k, y[live]))
        if q == 0.0:
            out[s == 0.0] = float(laguerre_eval(n, k, 0.0))
    else:
        q, p = constants.q0, constants.p0
        base = 1.0 + pc.c3 * s
        z = 1.0 + 2.0 * pc.c3 * s
        pos = (s > 0) & (base > 0)
        t[pos] = -p * np.log(base[pos] / (1.0 + pc.c3 * s_star))
        if q != 0.0:
            t[pos] += q * np.log(s[pos] / s_star)
        live = pos & (t > -700.0)
        out[live] = np.exp(t[live]) * np.asarray(
            jacobi_eval(n, constants.alpha, constants.beta, z[live]))
    return out


def _log_norm_sq(pc: ParametricCoefficients,
                 constants: JacobiBranchConstants | LaguerreBranchConstants,
                 n: int, jacobian: tuple[float, float, float]) -> float:
    """log of the norm integral of s^q e^(-p s) L_n^k(2 p s) (Laguerre) or
    s^q (1 + c3 s)^(-p) P_n^(alpha, beta)(1 + 2 c3 s) (Jacobi), in closed form,
    with the weight C s^m (1 + c3 s)^j of ``CoordinateMap.jacobian``.

    Laguerre: with t = 2 p s and a = 2q + m = k + d the integral is
    C (2p)^-(a+1) int t^a e^-t [L_n^k(t)]^2 dt, and that integral is
    Gamma(n+k+1)/n! times (2n+k+1), 1 or 1/k for d = +1, 0, -1.

    Jacobi (c3 < 0): with z = 1 + 2 c3 s the weight becomes
    (1-z)^(alpha-1) (1+z)^(beta-1) on (-1, 1), and
    int (1-z)^(alpha-1) (1+z)^(beta-1) [P_n]^2 dz
      = 2^(alpha+beta-1) Gamma(n+alpha+1) Gamma(n+beta+1) (alpha+beta)
        / (n! alpha beta Gamma(n+alpha+beta+1));
    the powers of 2 cancel against the substitution, leaving C |c3|^-alpha
    times the Gamma ratio.
    """
    scale, m, j = jacobian
    log_n_fact = math.lgamma(n + 1)
    if isinstance(constants, LaguerreBranchConstants):
        p, k = constants.p10, constants.k
        d = m + 1.0 - pc.c1
        if pc.c2 != 0.0 or d not in (-1.0, 0.0, 1.0):
            raise ValueError(f"no closed-form Laguerre norm for c2 = {pc.c2}, "
                             f"t^(k{d:+g}) weight")
        log_integral = math.lgamma(n + k + 1) - log_n_fact
        if d == 1.0:
            log_integral += math.log(2 * n + k + 1)
        elif d == -1.0:
            log_integral -= math.log(k)
        return math.log(scale) - (k + d + 1) * math.log(2 * p) + log_integral
    alpha, beta = constants.alpha, constants.beta
    if (pc.c3 >= 0.0 or m + 1.0 - pc.c1 != -1.0
            or j + pc.c1 + 1.0 - pc.c2 / pc.c3 != -1.0):
        raise ValueError(f"no closed-form Jacobi norm for c3 = {pc.c3}, weight "
                         f"s^{m:g} (1 + c3 s)^{j:g}")
    return (math.log(scale) - alpha * math.log(-pc.c3)
            + math.lgamma(n + alpha + 1) + math.lgamma(n + beta + 1)
            - math.lgamma(n + alpha + beta + 1) - log_n_fact
            + math.log((alpha + beta) / (alpha * beta)))


def wavefunction(state: BoundState, x):
    """Evaluate the normalized analytic bound state at physical coordinate x.

    Laguerre branch: exp(-p s) s^q L_n^k((2p - c2) s); Jacobi branch:
    (1 + c3 s)^(-p) s^q P_n^(alpha, beta)(1 + 2 c3 s); both at s = s(x),
    divided by the peak of the prefactor and scaled by the stored norm
    constant.
    """
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = state.cmap.x_domain
    if np.any(x_arr < lo) or np.any(x_arr > hi):
        raise OutOfDomain(f"coordinate outside domain [{lo}, {hi}]")
    s = np.asarray(state.cmap.s_of_x(x_arr), dtype=float)
    psi = state.norm_constant * _unnormalized_psi(state.coefficients, state.constants,
                                                  state.n, s)
    return float(psi[0]) if scalar else psi


def spectrum(spec: PotentialSpec, l: int = 0, units: UnitsConfig = UnitsConfig(),
             n_max: int = 0) -> list[BoundState]:
    """All bound states with n <= n_max, in strictly increasing energy.

    Each Jacobi-branch state passes the r2 = 0, r1 + r3 = 0 consistency
    identities at its own energy.  Normalization constants are exact: the
    norm integral of every catalog state is a Laguerre or Jacobi weight
    integral with a closed form, evaluated in log space from the declared
    Jacobian of the coordinate map; no grid is involved.  The list ends
    early when a finite well runs out of levels.
    """
    _validate_l(spec, l)
    if n_max < 0:
        raise InvalidParameters("n_max must be nonnegative")
    form, cmap = to_parametric(spec, l, units)
    lo, hi = form.energy_window
    if not lo < hi:
        return []
    rc = spec.root_choice()

    states: list[BoundState] = []
    floor_e = None
    for n in range(n_max + 1):
        try:
            energy = solve_energy(form, n, rc, above=floor_e)
        except (NoBoundState, WindowDegenerate):
            break
        pc = form.coeff_at(energy)
        if pc.branch == JACOBI:
            constants = solve_jacobi_constants(pc, rc)
            consistency_check(constants)
        else:
            constants = solve_laguerre_constants(pc)
        # norm of psi divided by its prefactor peak, as _unnormalized_psi returns it
        log_norm_sq = (_log_norm_sq(pc, constants, n, cmap.jacobian)
                       - 2.0 * _prefactor_peak(pc, constants)[1])
        states.append(BoundState(potential=spec, units=units, n=n, l=l,
                                 energy=energy, constants=constants,
                                 coefficients=pc, cmap=cmap,
                                 norm_constant=math.exp(-0.5 * log_norm_sq)))
        floor_e = energy + 1e-11 * max(abs(energy), 1.0)
    return states
