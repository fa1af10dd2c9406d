"""Catalog of nine exactly solvable potential families.

Each family knows its physical-parameter validation, its change of variable
s(x) that brings the Schrodinger equation into the six-parameter form
handled by :mod:`specbound.parametric`, the energy dependence of the L
coefficients, the root-sign configuration, a closed-form level formula
rederived from the series-termination condition, a sensible default
verification grid, and the Jacobian of its coordinate map, from which the
norm of every state follows in closed form.

Shared equations have one body each: ``_Family`` (root choice and
energy-dependent form), ``_Well`` (asymptote and window of the 1-D wells),
``_InversePower`` (map, coefficients and levels of C - A/r + B/r^2 for
Mie, Kratzer-Fues, Coulomb and noncentral) and ``_StepWell`` (V, map,
coefficients and well centre of Rosen-Morse, Woods-Saxon and
Poschl-Teller).  Woods-Saxon is the Rosen-Morse well at a/2 and eta = 1
lowered by V1, and Poschl-Teller is the Rosen-Morse well with V1 = 0,
V2 = 4 V0; closed forms stay per family.

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
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, Union

import numpy as np

from .errors import (
    ConsistencyViolation,
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
    window_scan,
)
from .polynomials import jacobi_eval, laguerre_eval
from .quadrature import RadialGrid
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
#: a sampling window ends where psi^2 times the measure has fallen below
#: this fraction of its value at the classical turning point
WINDOW_TAIL = 1e-16
#: doublings of an edge search's outward walk tested per call of its test
WALK_BATCH = 8
#: points an edge search tests per call while it locates the transition
ZOOM_POINTS = 255


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

    ``logs_of_x`` gives (log s, log(1 + c3 s)) in closed form in x, the
    second 0 on the Laguerre branch (c3 = 0); psi's prefactor is built from
    them alone.  Formed from s(x), 1 + c3 s cancels to rounding noise near
    s = -1/c3, and s or 1 + c3 s underflows far out, where a weakly bound
    level still has weight; the closed forms stay finite and exact there.
    """

    s_of_x: Callable[[np.ndarray], np.ndarray]
    x_domain: tuple[float, float]
    measure: Callable[[np.ndarray], np.ndarray]
    jacobian: tuple[float, float, float]
    logs_of_x: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _radial_measure(x):
    return np.asarray(x, dtype=float) ** 2


def _flat_measure(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _radial_logs(power: float):
    """``logs_of_x`` of s = r^power: (power log r, 0), log 0 = -inf."""
    def logs_of_x(r):
        with np.errstate(divide="ignore"):
            log_r = np.log(np.asarray(r, dtype=float))
        return power * log_r, np.zeros_like(log_r)

    return logs_of_x


#: s = r with the r^2 measure: the Mie, Kratzer-Fues, Coulomb and
#: noncentral substitution
_IDENTITY_RADIAL_MAP = CoordinateMap(s_of_x=lambda r: np.asarray(r, dtype=float),
                                     x_domain=(0.0, math.inf), measure=_radial_measure,
                                     jacobian=(1.0, 2.0, 0.0), logs_of_x=_radial_logs(1.0))


# --------------------------------------------------------------------------
# family definitions: four shared bodies, then the nine families
# --------------------------------------------------------------------------

class _Family:
    """Root choice and energy-dependent form of every family.  The form is
    data: a family declares ``_coefficients(l, units)`` = (coefficients,
    slope, energy_terms), each energy term stored as its anchor energy V and
    read as slope (V - E), and ``energy_window(l, units)``."""

    #: the + q root keeps psi finite at s -> 0; + p suits every Laguerre family
    _roots: ClassVar[RootChoice] = RootChoice()

    def root_choice(self) -> RootChoice:
        return self._roots

    def parametric(self, l, units: UnitsConfig) -> EnergyDependentForm:
        """The energy-dependent form at l.

        Raises InvalidParameters, naming the parameters and units, when the
        window or the coefficients at its finite ends overflow (the float
        ``**`` raises, ``*`` gives inf), counting the factor 4 by which the
        termination residual scales them: otherwise every residual is NaN
        and a physical well would be reported as holding no level.
        """
        try:
            form = EnergyDependentForm(*self._coefficients(l, units),
                                       self.energy_window(l, units))
            values = [v for e in form.energy_window if e != math.inf
                      for v in (e, *form.coeff_at(e).__dict__.values()) if v is not None]
        except OverflowError:
            values = [math.inf]
        if not all(math.isfinite(4.0 * v) for v in values):
            raise InvalidParameters(
                f"{self.family} parameters {_named_params(self)} overflow at "
                f"hbar = {units.hbar!r}, mass = {units.mass!r}: the energy window "
                "or the coefficients are not finite")
        return form


class _Well(_Family):
    """One-dimensional well: levels lie between min V and the lower asymptote."""

    radial: ClassVar[bool] = False

    def asymptote(self) -> float:
        return min(self.asymptote_sides())

    def bottom(self) -> float:
        """V at the analytic stationary point ``well_center()``."""
        return float(self.potential(self.well_center()))

    def energy_window(self, l, units) -> tuple[float, float]:
        top = self.asymptote()
        try:
            return (self.bottom(), top)
        except WindowDegenerate:
            return (top, top)


class _Radial(_Family):
    """Radial problem on r > 0: a family supplies its V as ``_v(r)`` on a
    float array of positive r, and ``potential`` checks the domain first."""

    radial: ClassVar[bool] = True

    def potential(self, r):
        return self._v(_check_radial_coordinate(r))


class _InversePower(_Radial):
    """V_eff = C - A/r + B/r^2 in s = r, c1 = 2: a family supplies
    ``_c_lam23(l, units)`` = (C, L2, L3), with the barrier B in L3.  Levels are
    E_n = C - (hbar^2/2m) (L2/d)^2 with d = 2n + 1 + sqrt(1 + 4 L3)."""

    branch: ClassVar[str] = LAGUERRE

    def coordinate_map(self, l, units) -> CoordinateMap:
        return _IDENTITY_RADIAL_MAP

    def radial_center(self, l, units) -> float:
        """Where V_eff is lowest, r = 2B/A (0 without a barrier)."""
        _, lam2, lam3 = self._c_lam23(l, units)
        return 2 * lam3 / lam2

    def _coefficients(self, l, units):
        # L1 = (2m/hbar^2) (C - E)
        c, lam2, lam3 = self._c_lam23(l, units)
        return (ParametricCoefficients(c1=2.0, c2=0.0, c3=0.0, lambda1=c,
                                       lambda2=lam2, lambda3=lam3),
                2 * units.mass / units.hbar**2, ("lambda1",))

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        c, lam2, lam3 = self._c_lam23(l, units)
        d = 2 * n + 1 + math.sqrt(1 + 4 * lam3)
        return c - (units.hbar**2 / (2 * units.mass)) * (lam2 / d) ** 2


class _StepWell(_Well):
    """V = right (1 - eta s) + left eta s - depth eta s (1 - eta s) in
    s = 1/(e^(2ax) + eta): a step from ``left`` (x -> -inf) to ``right``
    (x -> +inf) with a pocket of ``depth``, on the Jacobi branch with
    c1 = 1, c2 = -2 eta, c3 = -eta.  A family supplies ``_shape()`` =
    (left, right, depth, a, eta)."""

    branch: ClassVar[str] = JACOBI
    # decay toward x -> -infinity needs the negative p root
    _roots: ClassVar[RootChoice] = RootChoice(q_sign=+1, p_sign=-1)

    def _s(self, x):
        # 1/(e^{2ax} + eta) is e^{-2ax}/(1 + eta e^{-2ax}) in overflow-safe form
        _, _, _, a, eta = self._shape()
        with np.errstate(over="ignore"):
            return 1.0 / (np.exp(2 * a * np.asarray(x, dtype=float)) + eta)

    def potential(self, x):
        left, right, depth, _, eta = self._shape()
        s = self._s(x)
        one_minus = 1.0 - eta * s
        return right * one_minus + left * eta * s - depth * eta * s * one_minus

    def asymptote_sides(self) -> tuple[float, float]:
        return self._shape()[:2]

    def well_center(self) -> float:
        # e^(2ax*) = 1/s* - eta, s* = (step + depth) / (2 depth eta) with
        # step = right - left, without cancellation
        left, right, depth, a, eta = self._shape()
        step = right - left
        excess = eta * ((depth - step) / (step + depth))
        if not excess > 0:
            raise WindowDegenerate("potential has no interior minimum (V1 >= V2)")
        return math.log(excess) / (2 * a)

    def _logs(self, x):
        """(log s, log(1 - eta s)) in closed form, finite where s or 1 - eta s
        underflows: -log(e^(2ax) + eta) and -log(1 + eta e^(-2ax)).  Both are
        logaddexp forms in d = 2ax - log eta and share log1p(e^(-|d|));
        np.logaddexp itself runs a scalar loop, 5 times slower than these."""
        _, _, _, a, eta = self._shape()
        u = 2 * a * np.asarray(x, dtype=float)
        log_eta = math.log(eta)
        d = u - log_eta
        shared = np.log1p(np.exp(-np.abs(d)))
        return -(np.maximum(u, log_eta) + shared), np.minimum(d, 0.0) - shared

    def coordinate_map(self, l, units) -> CoordinateMap:
        # |dx/ds| = 1/(2a s (1 - eta s)); bound methods, so that the maps and
        # states of equal wells compare equal
        a = self._shape()[3]
        return CoordinateMap(s_of_x=self._s, x_domain=(-math.inf, math.inf),
                             measure=_flat_measure, jacobian=(0.5 / a, -1.0, -1.0),
                             logs_of_x=self._logs)

    def _coefficients(self, l, units):
        # L3 = c (right - E) and, declared, H = c (left - E): the sum
        # L1/c3^2 + L2/c3 + L3 cancels terms of size c depth and
        # c (right - left) down to the binding below the left asymptote, and
        # a weakly bound level loses its digits to it
        left, right, depth, a, eta = self._shape()
        c = units.mass / (2 * units.hbar**2 * a**2)
        return (ParametricCoefficients(c1=1.0, c2=-2 * eta, c3=-eta,
                                       lambda1=c * depth * eta * eta,
                                       lambda2=c * (right - left) * eta + c * depth * eta,
                                       lambda3=right, H=left),
                c, ("lambda3", "H"))


@dataclass(frozen=True)
class GeneralizedMorse(_Well):
    """V(x) = V1 exp(-2 a x) - V2 exp(-a x) on the full line."""

    V1: float
    V2: float
    a: float

    family: ClassVar[str] = "morse"
    label: ClassVar[str] = "Generalized Morse"
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
        with np.errstate(over="ignore", invalid="ignore"):
            return self.V1 * np.exp(-2 * self.a * x) - self.V2 * np.exp(-self.a * x)

    def asymptote_sides(self) -> tuple[float, float]:
        return (math.inf, 0.0)

    def well_center(self) -> float:
        return math.log(2 * self.V1 / self.V2) / self.a

    def coordinate_map(self, l, units) -> CoordinateMap:
        root_v1, a = math.sqrt(self.V1), self.a

        def s_of_x(x):
            return root_v1 * np.exp(-a * np.asarray(x, dtype=float))

        def logs_of_x(x):
            log_s = math.log(root_v1) - a * np.asarray(x, dtype=float)
            return log_s, np.zeros_like(log_s)

        # |dx/ds| = 1/(a s)
        return CoordinateMap(s_of_x=s_of_x, x_domain=(-math.inf, math.inf),
                             measure=_flat_measure, jacobian=(1.0 / a, -1.0, 0.0),
                             logs_of_x=logs_of_x)

    def _coefficients(self, l, units):
        # L3 = b (0 - E)
        b = 2 * units.mass / (units.hbar**2 * self.a**2)
        return (ParametricCoefficients(c1=1.0, c2=0.0, c3=0.0, lambda1=b,
                                       lambda2=b * self.V2 / math.sqrt(self.V1),
                                       lambda3=0.0),
                b, ("lambda3",))

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        # level exists while the decay exponent 2 eps = w - (2n + 1) stays positive
        w = math.sqrt(2 * units.mass) * self.V2 / (units.hbar * self.a * math.sqrt(self.V1))
        bracket = w - (2 * n + 1)
        if bracket <= 0:
            raise NoBoundState(f"Morse well holds no level n = {n}")
        return -(units.hbar**2 * self.a**2 / (8 * units.mass)) * bracket**2


@dataclass(frozen=True)
class Mie(_InversePower):
    """V(r) = V0 [ (a/r)^2 / 2 - a/r ]."""

    V0: float
    a: float

    family: ClassVar[str] = "mie"
    label: ClassVar[str] = "Mie"
    param_units: ClassVar[dict] = {"V0": "energy", "a": "length"}

    def __post_init__(self):
        _require_finite(self)
        if self.V0 <= 0 or self.a <= 0:
            raise InvalidParameters("Mie needs V0 > 0 and a > 0")

    def _v(self, r):
        return self.V0 * (0.5 * (self.a / r) ** 2 - self.a / r)

    def asymptote(self) -> float:
        return 0.0

    def _c_lam23(self, l, units):
        return (0.0, 2 * units.mass * self.a * self.V0 / units.hbar**2,
                units.mass * self.a**2 * self.V0 / units.hbar**2 + l * (l + 1))

    def energy_window(self, l, units) -> tuple[float, float]:
        return (-self.V0 / 2.0, 0.0)


@dataclass(frozen=True)
class KratzerFues(_InversePower):
    """V(r) = De ((r - re)/r)^2, a well of depth De with minimum at re."""

    De: float
    re: float

    family: ClassVar[str] = "kratzer_fues"
    label: ClassVar[str] = "Kratzer-Fues"
    param_units: ClassVar[dict] = {"De": "energy", "re": "length"}

    def __post_init__(self):
        _require_finite(self)
        if self.De <= 0 or self.re <= 0:
            raise InvalidParameters("Kratzer-Fues needs De > 0 and re > 0")

    def _v(self, r):
        return self.De * ((r - self.re) / r) ** 2

    def asymptote(self) -> float:
        return self.De

    def _c_lam23(self, l, units):
        return (self.De, 4 * units.mass * self.De * self.re / units.hbar**2,
                2 * units.mass * self.De * self.re**2 / units.hbar**2 + l * (l + 1))

    def energy_window(self, l, units) -> tuple[float, float]:
        # V >= 0 everywhere, levels accumulate below the dissociation value De
        return (0.0, self.De)


@dataclass(frozen=True)
class Coulomb(_InversePower):
    """V(r) = -e2 / r."""

    e2: float

    family: ClassVar[str] = "coulomb"
    label: ClassVar[str] = "Coulomb"
    param_units: ClassVar[dict] = {"e2": "energy*length"}

    def __post_init__(self):
        _require_finite(self)
        if self.e2 <= 0:
            raise InvalidParameters("Coulomb needs e2 > 0 for binding")

    def _v(self, r):
        return -self.e2 / r

    def asymptote(self) -> float:
        return 0.0

    def _c_lam23(self, l, units):
        return 0.0, 2 * units.mass * self.e2 / units.hbar**2, float(l * (l + 1))

    def energy_window(self, l, units) -> tuple[float, float]:
        # the potential has no finite minimum at l = 0: floor the window at
        # four times the lowest level's magnitude instead
        ground = units.mass * self.e2**2 / (2 * units.hbar**2)
        return (-4.0 * ground, 0.0)

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        n0 = n + l + 1
        return -units.mass * self.e2**2 / (2 * units.hbar**2 * n0**2)


@dataclass(frozen=True)
class Pseudoharmonic(_Radial):
    """V(r) = V0 (r/r0 - r0/r)^2, confining on both sides of r0."""

    V0: float
    r0: float

    family: ClassVar[str] = "pseudoharmonic"
    label: ClassVar[str] = "Pseudoharmonic"
    branch: ClassVar[str] = LAGUERRE
    param_units: ClassVar[dict] = {"V0": "energy", "r0": "length"}

    def __post_init__(self):
        _require_finite(self)
        if self.V0 <= 0 or self.r0 <= 0:
            raise InvalidParameters("Pseudoharmonic needs V0 > 0 and r0 > 0")

    def _v(self, r):
        return self.V0 * (r / self.r0 - self.r0 / r) ** 2

    def asymptote(self) -> float:
        return math.inf

    def coordinate_map(self, l, units) -> CoordinateMap:
        # r^2 |dr/ds| = s / (2 sqrt(s))
        return CoordinateMap(s_of_x=lambda r: np.asarray(r, dtype=float) ** 2,
                             x_domain=(0.0, math.inf), measure=_radial_measure,
                             jacobian=(0.5, 0.5, 0.0), logs_of_x=_radial_logs(2.0))

    def _lams(self, l, units):
        lam1 = units.mass * self.V0 / (2 * units.hbar**2 * self.r0**2)
        lam3 = units.mass * self.V0 * self.r0**2 / (2 * units.hbar**2) + l * (l + 1) / 4.0
        return lam1, lam3

    def radial_center(self, l, units) -> float:
        """Where V_eff = lam1 r^2 + lam3 / r^2 - 2 V0 (scaled) is lowest."""
        lam1, lam3 = self._lams(l, units)
        return (lam3 / lam1) ** 0.25

    def _coefficients(self, l, units):
        # L2 = (m/2hbar^2) (E + 2 V0) = -(m/2hbar^2) (-2 V0 - E)
        lam1, lam3 = self._lams(l, units)
        return (ParametricCoefficients(c1=1.5, c2=0.0, c3=0.0, lambda1=lam1,
                                       lambda2=-2 * self.V0, lambda3=lam3),
                -units.mass / (2 * units.hbar**2), ("lambda2",))

    def energy_window(self, l, units) -> tuple[float, float]:
        # V >= 0 and confining: the spectrum is unbounded above
        return (0.0, math.inf)

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        lam1, lam3 = self._lams(l, units)
        bracket = 2 * n + 1 + 2 * math.sqrt(1.0 / 16.0 + lam3)
        return (2 * units.hbar**2 / units.mass) * math.sqrt(lam1) * bracket - 2 * self.V0


@dataclass(frozen=True)
class NoncentralRadial(_InversePower):
    """Radial equation of the noncentral family: V(r) = alpha/r plus the
    angular separation constant lam acting as an r^-2 barrier.

    The angular problem is not solved here: lam is taken as an input.  With
    lam = hbar^2 l(l+1)/(2m) this reduces exactly to the Coulomb case.
    """

    alpha: float
    lam: float

    family: ClassVar[str] = "noncentral_radial"
    label: ClassVar[str] = "Noncentral (radial part)"
    param_units: ClassVar[dict] = {"alpha": "energy*length", "lambda": "energy*length^2"}

    def __post_init__(self):
        _require_finite(self)
        if self.alpha >= 0:
            raise InvalidParameters("noncentral radial part needs alpha < 0 for binding")
        if self.lam < 0:
            raise InvalidParameters("separation constant lambda must be >= 0")

    def _v(self, r):
        return self.alpha / r

    def separation_barrier(self, r):
        return self.lam / np.asarray(r, dtype=float) ** 2

    def asymptote(self) -> float:
        return 0.0

    def _c_lam23(self, l, units):
        return (0.0, -2 * units.mass * self.alpha / units.hbar**2,
                2 * units.mass * self.lam / units.hbar**2)

    def energy_window(self, l, units) -> tuple[float, float]:
        ground = units.mass * self.alpha**2 / (2 * units.hbar**2)
        return (-4.0 * ground, 0.0)


@dataclass(frozen=True)
class DeformedRosenMorse(_StepWell):
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

    def _shape(self):
        return 0.0, self.V1, self.V2, self.a, self.eta

    def closed_form(self, n: int, l, units: UnitsConfig) -> float:
        c = units.mass / (2 * units.hbar**2 * self.a**2)
        kappa, gamma = c * self.V1, c * self.V2 * self.eta
        w = 0.5 * (math.sqrt(1 + 4 * gamma / self.eta) - 1.0)
        s_n = w - n
        if s_n <= math.sqrt(kappa):
            raise NoBoundState(f"Rosen-Morse well holds no level n = {n}")
        eps = ((s_n**2 - kappa) / (2 * s_n)) ** 2
        return -eps / c


@dataclass(frozen=True)
class WoodsSaxon(_StepWell):
    """V(x) = -V1/(1 + e^(ax)) - V2 e^(ax)/(1 + e^(ax))^2 on the full line.

    Left asymptote -V1, right asymptote 0; bound states live below -V1 and
    exist only when the V2 pocket is deep enough.  It is the Rosen-Morse
    well at a/2 and eta = 1, lowered by V1; the closed form stays its own.
    """

    V1: float
    V2: float
    a: float

    family: ClassVar[str] = "woods_saxon"
    label: ClassVar[str] = "Generalized Woods-Saxon"
    param_units: ClassVar[dict] = {"V1": "energy", "V2": "energy", "a": "1/length"}

    def __post_init__(self):
        _require_finite(self)
        if self.V1 < 0:
            raise InvalidParameters("Woods-Saxon step depth V1 must be >= 0")
        if self.V2 <= 0:
            raise InvalidParameters("Woods-Saxon needs V2 > 0 for a pocket below -V1")
        if self.a <= 0:
            raise InvalidParameters("Woods-Saxon needs a > 0")

    def _shape(self):
        return -self.V1, 0.0, self.V2, self.a / 2, 1.0

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
class PoschlTeller(_StepWell):
    """V(x) = -4 V0 eta e^(-2ax) / (1 + eta e^(-2ax))^2.

    For eta = 1 this is the -V0 / cosh^2(ax) well; eta > 0 only shifts it.
    It is the Rosen-Morse well with V1 = 0 and V2 = 4 V0; the closed form
    stays its own.
    """

    V0: float
    a: float
    eta: float

    family: ClassVar[str] = "poschl_teller"
    label: ClassVar[str] = "Poschl-Teller"
    param_units: ClassVar[dict] = {"V0": "energy", "a": "1/length", "eta": "dimensionless"}

    def __post_init__(self):
        _require_finite(self)
        if self.V0 <= 0:
            raise InvalidParameters("Poschl-Teller needs V0 > 0")
        if math.isinf(4 * self.V0):
            raise InvalidParameters(f"Poschl-Teller needs 4 V0 finite, got V0 = {self.V0!r}")
        if self.a <= 0 or self.eta <= 0:
            raise InvalidParameters("Poschl-Teller needs a > 0 and eta > 0")

    def _shape(self):
        return 0.0, 0.0, 4 * self.V0, self.a, self.eta

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

#: the nine families in catalog order (the case numbers of `specbound list`)
FAMILIES: dict[str, type] = {
    cls.family: cls
    for cls in (GeneralizedMorse, Mie, KratzerFues, Coulomb, Pseudoharmonic,
                NoncentralRadial, DeformedRosenMorse, WoodsSaxon, PoschlTeller)
}


@dataclass(frozen=True)
class BoundState:
    """One solved level: quantum numbers, energy, branch constants at that
    energy, and its exact normalization.

    ``norm_constant`` multiplies psi divided by the peak value of its
    prefactor (s^q e^(-p s) or s^q (1 + c3 s)^(-p)), which keeps the
    constant finite for heavy particles and deep wells; ``wavefunction``
    applies it.  ``cmap`` follows from ``potential``, ``l`` and ``units`` and
    is left out of comparisons: some maps are closures built per call."""

    potential: PotentialSpec
    units: UnitsConfig
    n: int
    l: int
    energy: float
    constants: JacobiBranchConstants | LaguerreBranchConstants
    coefficients: ParametricCoefficients
    cmap: CoordinateMap = field(compare=False)
    norm_constant: float


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

def _check_radial_coordinate(r):
    r = np.asarray(r, dtype=float)
    if (r <= 0).any():
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


def _expand_to_edge(past_edge, start: float, step: float, direction: int) -> float:
    """Walk outward from `start` in `direction`, doubling the step, until
    past_edge(x) holds, then bisect back to the transition point: 200
    doublings at most, then 60 bisection steps between the last point short
    of the edge (lo) and the first past it (hi), each testing 0.5 * (lo +
    hi); the result is the bisection's hi.

    ``past_edge`` takes an array of points.  The walk tests WALK_BATCH
    doublings per call.  The bisection is not run point by point:
    :func:`_first_past` locates the transition, the steps are predicted from
    it, and one call tests every predicted point.  The steps stand up to the
    first that was not predicted, which goes the other way, and the rest are
    predicted again inside the bracket left; a wrong prediction costs calls,
    never the result.  Points past the edge may overflow; their warnings
    are not raised."""
    with np.errstate(all="ignore"):
        lo = start
        for first in range(0, 200, WALK_BATCH):
            x = start + direction * np.ldexp(step, np.arange(first, first + WALK_BATCH))
            past = np.flatnonzero(past_edge(x))
            if past.size:
                i = past[0]
                lo, hi = (x.item(i - 1) if i else lo), x.item(i)
                break
            lo = x.item(-1)
        else:
            raise InvalidParameters("could not locate an edge: the walk never got past it")
        steps = 60
        while steps:
            guess = _first_past(past_edge, lo, hi)
            mids, predicted, ends = [], [], []
            a, b = lo, hi
            for _ in range(steps):
                mid = 0.5 * (a + b)
                beyond = (mid - guess) * direction >= 0
                a, b = (a, mid) if beyond else (mid, b)
                mids.append(mid)
                predicted.append(beyond)
                ends.append((a, b))
            tested = past_edge(np.array(mids))
            wrong = np.flatnonzero(tested != predicted)
            if not wrong.size:
                return b
            j = wrong[0]
            lo, hi = ends[j - 1] if j else (lo, hi)
            lo, hi = (lo, mids[j]) if tested[j] else (mids[j], hi)
            steps -= j + 1
    return hi


def _first_past(past_edge, a: float, b: float) -> float:
    """The first point past the edge, by k-sections from a, short of it,
    toward b, past it: each call of ``past_edge`` tests ZOOM_POINTS points
    evenly spaced across the bracket, which shrinks to the first pair that
    goes from short of the edge to past it, until a and b are adjacent
    floats, or until the bracket stops shrinking (an end at infinity)."""
    even = np.arange(1, ZOOM_POINTS + 1) / (ZOOM_POINTS + 1)
    while math.nextafter(a, b) != b:
        x = a + (b - a) * even
        past = np.flatnonzero(past_edge(x))
        i = past[0] if past.size else ZOOM_POINTS
        bracket = (x.item(i - 1) if i else a, x.item(i) if i < ZOOM_POINTS else b)
        if bracket == (a, b):
            break
        a, b = bracket
    return b


def _climb(spec, l: int, units: UnitsConfig, level: float, direction: int) -> float:
    """Where V_eff, rising from the analytic bottom of the well in
    `direction`, reaches `level`: a classical turning point when `level` is
    an energy.  A radial walk steps from the radius of the bottom or, where
    V_eff has none, from the decay length hbar / sqrt(2m (V_asym - level)).

    l and the radial domain are checked once per search, not per batch of
    probes: an outward walk from r >= 0 probes only r > 0."""
    if spec.radial:
        _validate_l(spec, l)
        start = spec.radial_center(l, units)
        if direction < 0 or not start >= 0:
            raise OutOfDomain("a radial edge search walks outward from r >= 0")
        step = start or units.hbar / math.sqrt(2 * units.mass * (spec.asymptote() - level))
        return _expand_to_edge(lambda r: _radial_v_eff(spec, l, units, r) >= level,
                               start, step, direction)
    return _expand_to_edge(lambda x: spec.potential(x) >= level, spec.well_center(),
                           1.0 / spec.a, direction)


def default_grid(spec: PotentialSpec, l: int = 0, units: UnitsConfig = UnitsConfig(),
                 n_max: int = 8) -> RadialGrid:
    """Verification grid adequate for levels up to n_max: the oracle's grid,
    and the tests' grid for quadrature checks of the analytic states.

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
        if isinstance(spec, Pseudoharmonic):
            omega = math.sqrt(8 * spec.V0 / (units.mass * spec.r0**2))
            e_cap = units.hbar * omega * (2 * n_max + 12)
            w = math.sqrt(e_cap / spec.V0)
            r_tp = spec.r0 * (w + math.sqrt(w * w + 4.0)) / 2.0
            return RadialGrid(0.0, 1.5 * r_tp, RADIAL_GRID_POINTS)
        e_top = spec.closed_form(n_max, l, units)
        r_max = RADIAL_DEFAULT_XMAX
        if e_top < spec.asymptote():
            r_max = max(r_max, 3.0 * _climb(spec, l, units, e_top, +1))
        n_points = int(round(RADIAL_GRID_POINTS * max(1.0, r_max / RADIAL_DEFAULT_XMAX)))
        return RadialGrid(0.0, r_max, n_points)

    sides = spec.asymptote_sides()
    depth = min(v for v in sides if math.isfinite(v)) - spec.bottom()
    if depth <= 0:
        raise WindowDegenerate(f"{spec.family} has no well below its asymptote")
    # V rises from the centre up to its asymptote, or without bound
    left, right = (asym - EDGE_TOL_FRACTION * depth if math.isfinite(asym)
                   else WALL_FRACTION * depth for asym in sides)
    return RadialGrid(_climb(spec, 0, units, left, -1), _climb(spec, 0, units, right, +1),
                      DEFAULT_GRID_POINTS)


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
        known = ", ".join(FAMILIES)
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


def _named_params(spec: PotentialSpec) -> str:
    """The parameters as "V1 = 1.0, V2 = 1e9" for error messages."""
    return ", ".join(f"{k} = {v!r}" for k, v in potential_params(spec).items())


def describe_families() -> list[dict]:
    """Descriptor rows for the nine families, in catalog order."""
    rows = []
    for i, (name, cls) in enumerate(FAMILIES.items(), start=1):
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
    if spec.radial:
        return _radial_v_eff(spec, l, units, _check_radial_coordinate(x))
    return np.asarray(spec.potential(x), dtype=float)


def _radial_v_eff(spec: PotentialSpec, l: int, units: UnitsConfig, r: np.ndarray):
    """:func:`effective_potential` of a radial family on a float array of
    r > 0, without its checks of l and of the domain."""
    v = np.asarray(spec._v(r), dtype=float)
    if isinstance(spec, NoncentralRadial):
        v = v + spec.separation_barrier(r)
    elif l > 0:
        v = v + units.hbar**2 * l * (l + 1) / (2 * units.mass * r**2)
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
                      n: int, x: np.ndarray, cmap: CoordinateMap) -> np.ndarray:
    """psi at x, divided by the peak value of its prefactor.

    The prefactor is exp(t), t <= 0, with t from the map's closed-form logs
    (``CoordinateMap.logs_of_x``) at every point: -p (s - s*) + q (log s -
    log s*) on the Laguerre branch, -p (log(1 + c3 s) - log(1 + c3 s*)) +
    q (log s - log s*) on the Jacobi branch, without the q term at q = 0
    (s* = 0).  So no 0 * inf arises at large s, and the tails hold where s
    or 1 + c3 s underflows.

    Where t <= -700 psi is below 1e-304 of its peak and is set to 0 without
    a polynomial value.  When every sample is live, psi is exp(t) times the
    polynomial at once, with no gather of the live samples and no scatter
    into a zeroed array; each value is the same either way.

    Far out on the Laguerre branch s overflows (the pseudoharmonic r^2 past
    r = 1.3e154, the Morse e^(-ax) below x = -709/a) or is infinite (x =
    inf on the radial maps, x = -inf for Morse), and t = -inf + q inf is
    NaN; either way the sample is dead and psi is 0 there, without a
    warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.asarray(cmap.s_of_x(x), dtype=float)
        log_s, log_base = cmap.logs_of_x(x)
        s_star, _ = _prefactor_peak(pc, constants)
        if isinstance(constants, LaguerreBranchConstants):
            q, p = constants.q10, constants.p10
            t = -p * (s - s_star)
            poly = partial(laguerre_eval, n, constants.k)
            y = (2 * p - pc.c2) * s
        else:
            q, p = constants.q0, constants.p0
            t = -p * (log_base - math.log1p(pc.c3 * s_star))
            poly = partial(jacobi_eval, n, constants.alpha, constants.beta)
            y = 1.0 + 2.0 * pc.c3 * s
        if q != 0.0:
            t = t + q * (log_s - math.log(s_star))
    live = t > -700.0
    if live.all():
        return np.exp(t) * poly(y)
    out = np.zeros_like(s)
    out[live] = np.exp(t[live]) * np.asarray(poly(y[live]))
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

    Raises OutOfDomain for x outside the map's domain; only a finite bound
    is tested (x >= 0 on the radial maps; the 1-D maps take every x).
    """
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = state.cmap.x_domain
    if ((math.isfinite(lo) and (x_arr < lo).any())
            or (math.isfinite(hi) and (x_arr > hi).any())):
        raise OutOfDomain(f"coordinate outside domain [{lo}, {hi}]")
    psi = state.norm_constant * _unnormalized_psi(state.coefficients, state.constants,
                                                  state.n, x_arr, state.cmap)
    return float(psi[0]) if scalar else psi


def sampling_window(state: BoundState) -> tuple[float, float]:
    """Where the state lives: its classical turning points at its energy,
    each moved outward (past a turning point psi decays without a node)
    until psi^2 times the measure has fallen below WINDOW_TAIL of its value
    there.  A radial window starts at the origin."""
    spec, l, units = state.potential, state.l, state.units

    def density(x):
        return state.cmap.measure(x) * wavefunction(state, x) ** 2

    def tail_end(direction):
        x_t = _climb(spec, l, units, state.energy, direction)
        floor = WINDOW_TAIL * density(x_t)
        step = x_t if spec.radial else 1.0 / spec.a
        return _expand_to_edge(lambda x: density(x) <= floor, x_t, step, direction)

    return (0.0 if spec.radial else tail_end(-1)), tail_end(+1)


def spectrum(spec: PotentialSpec, l: int = 0, units: UnitsConfig = UnitsConfig(),
             n_max: int = 0) -> list[BoundState]:
    """All bound states with n <= n_max, in strictly increasing energy.

    The window's scan, with the n-independent core of the residual at each
    of its points, is built once and read by every level's solve.

    Each Jacobi-branch state passes the r2 = 0, r1 + r3 = 0 consistency
    identities at its own energy; a level that fails them (in wells so deep
    that rounding alone leaves |r1 + r3| above CONSISTENCY_RAISE_TOL) raises
    ConsistencyViolation naming the well, the units, n and E.
    Normalization constants are exact: the norm integral of every catalog
    state is a Laguerre or Jacobi weight integral with a closed form,
    evaluated in log space from the declared Jacobian of the coordinate
    map; no grid is involved.  The list ends
    early when a finite well runs out of levels.  A well too deep for
    float64 to resolve its zero-point energy above its bottom raises
    InvalidParameters naming the depth before any level is solved.
    """
    _validate_l(spec, l)
    if n_max < 0:
        raise InvalidParameters("n_max must be nonnegative")
    form, cmap = to_parametric(spec, l, units)
    lo, hi = form.energy_window
    if not lo < hi:
        return []
    rc = spec.root_choice()

    if isinstance(spec, _Well):
        _check_zero_point(spec, units, lo)

    window = window_scan(form, rc)
    states: list[BoundState] = []
    floor_e = None
    for n in range(n_max + 1):
        try:
            energy = solve_energy(form, n, rc, above=floor_e, scan=window)
        except (NoBoundState, WindowDegenerate):
            break
        pc = form.coeff_at(energy)
        if pc.branch == JACOBI:
            constants = solve_jacobi_constants(pc, rc)
            try:
                consistency_check(constants)
            except ConsistencyViolation as exc:
                raise ConsistencyViolation(
                    f"{spec.family} ({_named_params(spec)}) at hbar = {units.hbar!r}, "
                    f"mass = {units.mass!r}: level n = {n} at E = {energy!r} fails the "
                    f"consistency identities, {exc}") from None
        else:
            constants = solve_laguerre_constants(pc)
        # norm of psi divided by its prefactor peak, as _unnormalized_psi returns it
        log_norm_sq = (_log_norm_sq(pc, constants, n, cmap.jacobian)
                       - 2.0 * _prefactor_peak(pc, constants)[1])
        try:
            norm_constant = math.exp(-0.5 * log_norm_sq)
        except OverflowError:
            raise InvalidParameters(
                f"{spec.family} level n = {n} at E = {energy!r} has a norm constant "
                f"e^{-0.5 * log_norm_sq:.6g} beyond floating point") from None
        states.append(BoundState(potential=spec, units=units, n=n, l=l,
                                 energy=energy, constants=constants,
                                 coefficients=pc, cmap=cmap,
                                 norm_constant=norm_constant))
        floor_e = math.nextafter(energy, math.inf)
    return states


def _check_zero_point(spec, units: UnitsConfig, bottom: float) -> None:
    """Raise InvalidParameters, naming the depth, when a well's zero-point
    energy is below 64 ulp of its bottom (``spec.bottom()``, the floor of
    its energy window): float64 cannot place its levels apart there, and
    the scan finds fewer than the well binds.

    The zero-point energy is the harmonic one, (hbar/2) sqrt(V''/m), with
    V'' the second difference of V at the well's analytic stationary point.
    Its step starts at 1e-3 / a and doubles, up to 1 / a, until V has risen
    by 2^20 ulp of the bottom: over a shorter step a shallow pocket on a
    deep step rises by less than the rounding of V.
    """
    x = spec.well_center()
    step, widest, rise = 1e-3 / spec.a, 1.0 / spec.a, 2.0**20 * math.ulp(bottom)
    while step < widest and float(spec.potential(x + step)) - bottom < rise:
        step = min(2.0 * step, widest)
    curvature = (float(spec.potential(x + step)) - 2.0 * bottom
                 + float(spec.potential(x - step))) / (step * step)
    zero_point = 0.5 * units.hbar * math.sqrt(max(curvature, 0.0) / units.mass)
    resolution = 64 * math.ulp(bottom)
    if zero_point < resolution:
        raise InvalidParameters(
            f"{spec.family} well of depth {spec.asymptote() - bottom:.6g} "
            f"({_named_params(spec)}): float64 cannot resolve its zero-point "
            f"energy, about {zero_point:.3g}, "
            f"above the well bottom {bottom!r} (64 ulp = {resolution:.3g})")
