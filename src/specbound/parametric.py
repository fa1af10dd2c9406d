"""Coefficient algebra of the six-parameter equation

    psi'' + (c1 + c2 s) / (s (1 + c3 s)) psi'
          + [-L1 s^2 + L2 s - L3] / (s (1 + c3 s))^2 psi = 0

and the two solution branches it splits into.  With c3 != 0 the polynomial
part of the solution is a Jacobi polynomial in z = 1 + 2 c3 s; with c3 = 0
it is an associated Laguerre polynomial in (2 p1 - c2) s.  In both cases a
power-series termination condition quantizes the energy: the residual of
that condition, as a function of trial energy, vanishes exactly at the
bound levels.

The Jacobi-branch residual is built from first principles, r3 - n(n +
alpha + beta + 1) with r3, alpha, beta evaluated from the coefficient
definitions, rather than from any consolidated single-line formula; the
single-line form is kept only as a cross-check (``compact_jacobi_residual``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyViolation,
    NegativeDiscriminant,
    NoBoundState,
    NotJacobiBranch,
    NotLaguerreBranch,
    WindowDegenerate,
)

JACOBI = "jacobi"
LAGUERRE = "laguerre"

#: threshold above which consistency_check raises instead of reporting
CONSISTENCY_RAISE_TOL = 1e-8

DEFAULT_SCAN_POINTS = 2000


@dataclass(frozen=True)
class ParametricCoefficients:
    """The tuple (c1, c2, c3, L1, L2, L3) at one fixed trial energy.

    ``H`` is the decay term L1/c3^2 + L2/c3 + L3 of the c3 != 0 branch, the
    constant of the p0 quadratic.  A family whose L_i share large terms
    that cancel in that sum declares H directly; left None, it is that sum.
    """

    c1: float
    c2: float
    c3: float
    lambda1: float
    lambda2: float
    lambda3: float
    H: float | None = None

    @property
    def branch(self) -> str:
        return LAGUERRE if self.c3 == 0.0 else JACOBI


@dataclass(frozen=True)
class RootChoice:
    """Sign selection for the two branch-constant quadratics.

    ``q_sign`` and ``p_sign`` pick the +/- root of the q and p quadratics.
    Normalizability at s -> 0 requires the + q root for every catalog case;
    the p root is configured per potential.
    """

    q_sign: int = +1
    p_sign: int = +1

    def __post_init__(self):
        if self.q_sign not in (-1, +1) or self.p_sign not in (-1, +1):
            raise ValueError("root signs must be +1 or -1")


@dataclass(frozen=True)
class JacobiBranchConstants:
    """Derived constants of the c3 != 0 branch at one trial energy."""

    q0: float
    p0: float
    alpha: float
    beta: float
    D: float
    H: float
    r1: float
    r2: float
    r3: float


@dataclass(frozen=True)
class LaguerreBranchConstants:
    """Derived constants of the c3 = 0 branch at one trial energy."""

    q10: float
    p10: float
    k: float
    gamma1: float
    gamma2: float
    gamma3: float


@dataclass(frozen=True)
class EnergyDependentForm:
    """Coefficients as a function of trial energy, plus the window where
    bound states may live.

    The energy enters only through the terms that fix how psi decays at the
    asymptotes, each as ``slope * (V - E)`` with V the potential there.
    ``coefficients`` holds c1, c2, c3 and every coefficient that does not
    depend on E; for each name in ``energy_terms`` it holds that term's
    anchor energy V instead.  ``energy_window`` is an open interval; the
    upper edge may be ``math.inf`` for confining potentials.
    """

    coefficients: ParametricCoefficients
    slope: float
    energy_terms: tuple[str, ...]
    energy_window: tuple[float, float]

    def coeff_at(self, energy: float | np.ndarray) -> ParametricCoefficients:
        """The coefficients at a trial energy, or at every energy of an
        array with the same per-element arithmetic (the residual scan
        evaluates all its trial energies in one call)."""
        values = dict(self.coefficients.__dict__)
        for name in self.energy_terms:
            values[name] = self.slope * (values[name] - energy)
        return ParametricCoefficients(**values)


@dataclass(frozen=True)
class ConsistencyReport:
    r2_abs: float
    r1_plus_r3_abs: float


def _real_sqrt(disc, which):
    """Square root of a branch discriminant at one trial energy; a negative
    discriminant means no bound state there."""
    if disc < 0.0:
        raise NegativeDiscriminant(f"{which} discriminant {disc} < 0")
    return math.sqrt(disc)


def _sqrt_or_nan(disc, which):
    # _real_sqrt elementwise: NaN where negative (the caller silences the warning)
    return np.sqrt(disc)


def _scalar_quotient(num, denom):
    # denom = c2 - 2 p10 vanishes only on the boundary of the admissible
    # regime, where gamma2 is defined only when its numerator vanishes too
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.nan
    return num / denom


def _array_quotient(num, denom):
    # _scalar_quotient elementwise (the caller silences the 0/0 warnings)
    return np.where(denom == 0.0, np.where(num == 0.0, 0.0, np.nan), num / denom)


def _jacobi_core(pc, root_choice, sqrt):
    """(q0, p0, alpha, beta, D, H, r3) of the c3 != 0 branch.

    The arithmetic works on floats and on arrays of trial energies alike;
    ``sqrt`` decides what a negative discriminant does (raise, or NaN).
    """
    c1, c2, c3 = pc.c1, pc.c2, pc.c3
    l1, l2, l3 = pc.lambda1, pc.lambda2, pc.lambda3

    half_q = (1.0 - c1) / 2.0
    q0 = half_q + root_choice.q_sign * sqrt(half_q * half_q + l3, "q")

    ratio = c2 / c3
    big_d = ratio - c1 - 1.0
    big_h = pc.H if pc.H is not None else l1 / c3**2 + l2 / c3 + l3
    p0 = big_d / 2.0 + root_choice.p_sign * sqrt((big_d / 2.0) ** 2 + big_h, "p")

    alpha = 2.0 * q0 + c1 - 1.0
    beta = -2.0 * p0 - c1 + ratio - 1.0
    r3 = (q0 * (q0 - 1) + 2 * p0 * q0 + p0 * (p0 + 1) + 2 * c1 * (q0 + p0)
          - ratio * (q0 + p0) - l1 / c3**2 - 2 * l2 / c3 - 4 * l3)
    return q0, p0, alpha, beta, big_d, big_h, r3


def _laguerre_core(pc, sqrt, quotient):
    """(q10, p10, c2 - 2 p10, gamma2) of the c3 = 0 branch, on floats or
    arrays alike; ``quotient`` handles the c2 - 2 p10 = 0 boundary."""
    c1, c2 = pc.c1, pc.c2
    l1, l2, l3 = pc.lambda1, pc.lambda2, pc.lambda3

    half_q = (1.0 - c1) / 2.0
    q10 = half_q + sqrt(half_q * half_q + l3, "q")
    p10 = c2 / 2.0 + sqrt((c2 / 2.0) ** 2 + l1, "p")

    denom = c2 - 2.0 * p10
    gamma2 = quotient(2 * q10 * p10 - c2 * q10 + c1 * p10 - l2, denom)
    return q10, p10, denom, gamma2


def _residual_core(pc, root_choice, sqrt, quotient):
    """The part of the termination residual that does not depend on n:
    (r3, alpha, beta) on the Jacobi branch, (gamma2,) on the Laguerre
    branch, on floats or arrays alike."""
    if pc.branch == JACOBI:
        _, _, alpha, beta, _, _, r3 = _jacobi_core(pc, root_choice, sqrt)
        return r3, alpha, beta
    return (_laguerre_core(pc, sqrt, quotient)[3],)


def _level_residual(core, n):
    """r3 - n (n + alpha + beta + 1) on the Jacobi branch, gamma2 - n on the
    Laguerre branch: the one expression behind the scalar and the array
    residual, so the two agree bit for bit."""
    if len(core) == 3:
        r3, alpha, beta = core
        return r3 - n * (n + alpha + beta + 1.0)
    return core[0] - n


def solve_jacobi_constants(pc: ParametricCoefficients,
                           root_choice: RootChoice = RootChoice()) -> JacobiBranchConstants:
    """Fix the two free exponents (q0, p0) of the c3 != 0 branch.

    q0 solves q^2 - (1 - c1) q - L3 = 0 and p0 solves p^2 - D p - H = 0
    with D = c2/c3 - c1 - 1 and H = L1/c3^2 + L2/c3 + L3 (or the H the
    coefficients declare).  With both in
    place the polynomial coefficients satisfy r2 = 0 and r1 = -r3
    identically, which this routine also evaluates and returns for
    diagnostics.

    Raises NegativeDiscriminant when either quadratic has no real root
    (no bound state at this trial energy).
    """
    if pc.branch != JACOBI:
        raise NotJacobiBranch("coefficients have c3 = 0")
    q0, p0, alpha, beta, big_d, big_h, r3 = _jacobi_core(pc, root_choice, _real_sqrt)
    c1, ratio, c3 = pc.c1, pc.c2 / pc.c3, pc.c3
    l1, l2 = pc.lambda1, pc.lambda2

    r1 = q0 * (q0 - 1) - 2 * p0 * q0 + p0 * (p0 + 1) + ratio * (q0 - p0) - l1 / c3**2
    r2 = (2 * q0 * (q0 - 1) - 2 * p0 * (p0 + 1) + 2 * c1 * (q0 - p0)
          + 2 * ratio * p0 + 2 * l1 / c3**2 + 2 * l2 / c3)

    return JacobiBranchConstants(q0=q0, p0=p0, alpha=alpha, beta=beta,
                                 D=big_d, H=big_h, r1=r1, r2=r2, r3=r3)


def solve_laguerre_constants(pc: ParametricCoefficients) -> LaguerreBranchConstants:
    """Fix the exponent q10 and decay constant p10 of the c3 = 0 branch.

    q10 is the + root of q(q - 1) + c1 q - L3 = 0 (required for a solution
    regular at the origin) and p10 the + root of p^2 - c2 p - L1 = 0
    (required for decay at infinity).  The series coefficients gamma1 and
    gamma3 then vanish identically; gamma2 is the quantized quantity.
    """
    if pc.branch != LAGUERRE:
        raise NotLaguerreBranch("coefficients have c3 != 0")
    q10, p10, denom, gamma2 = _laguerre_core(pc, _real_sqrt, _scalar_quotient)
    c1, c2 = pc.c1, pc.c2

    k = c1 + 2.0 * q10 - 1.0
    gamma3 = q10 * (q10 - 1) + c1 * q10 - pc.lambda3
    # on the boundary denom = 0 gamma1 vanishes by construction
    gamma1 = 0.0 if denom == 0.0 else (p10**2 - c2 * p10 - pc.lambda1) / denom**2

    return LaguerreBranchConstants(q10=q10, p10=p10, k=k,
                                   gamma1=gamma1, gamma2=gamma2, gamma3=gamma3)


def quantization_residual(form: EnergyDependentForm, n: int, energy: float,
                          root_choice: RootChoice = RootChoice()) -> float:
    """Residual of the series-termination condition at a trial energy.

    Jacobi branch: r3 - n (n + alpha + beta + 1).
    Laguerre branch: gamma2 - n.

    Zero exactly at the bound levels; continuous in the energy wherever the
    branch constants are real.  Raises NegativeDiscriminant where they are
    not.
    """
    if n < 0:
        raise ValueError("quantum number n must be nonnegative")
    return _level_residual(_residual_core(form.coeff_at(energy), root_choice,
                                          _real_sqrt, _scalar_quotient), n)


def quantization_residuals(form: EnergyDependentForm, n: int, energies: np.ndarray,
                           root_choice: RootChoice = RootChoice()) -> np.ndarray:
    """``quantization_residual`` at every energy of an array, in one numpy
    evaluation of the same algebra.

    Each finite value is bit-equal to the scalar residual at that energy.
    The value is NaN where the scalar call raises NegativeDiscriminant or
    returns an infinity.
    """
    if n < 0:
        raise ValueError("quantum number n must be nonnegative")
    energies = np.asarray(energies, dtype=float)
    f = np.asarray(_array_residual(_array_core(form, energies, root_choice), n), dtype=float)
    f[np.isinf(f)] = np.nan
    return f


def _array_core(form, energies, root_choice):
    """``_residual_core`` at every energy of an array, each part broadcast
    to its shape; NaN where a discriminant is negative."""
    with np.errstate(all="ignore"):
        core = _residual_core(form.coeff_at(energies), root_choice,
                              _sqrt_or_nan, _array_quotient)
    return tuple(np.broadcast_to(part, energies.shape) for part in core)


def _array_residual(core, n):
    """Level n's residual on an array core; an infinity where the scalar
    residual is one."""
    with np.errstate(all="ignore"):
        return _level_residual(core, n)


def compact_jacobi_residual(form: EnergyDependentForm, n: int, energy: float,
                            root_choice: RootChoice = RootChoice()) -> float:
    """Single-expression form of the Jacobi-branch termination condition,

        (q0 - p0)^2 + (c2/c3 + 2n - 1)(q0 - p0) + n (n + c2/c3 - 1) - L1/c3^2,

    kept as a cross-check against ``quantization_residual``.  Algebraically
    it equals the negative of the first-principles residual, so the two
    must agree in magnitude at every admissible energy.
    """
    pc = form.coeff_at(energy)
    if pc.branch != JACOBI:
        raise NotJacobiBranch("compact residual only exists on the c3 != 0 branch")
    jc = solve_jacobi_constants(pc, root_choice)
    ratio = pc.c2 / pc.c3
    x = jc.q0 - jc.p0
    return x * x + (ratio + 2 * n - 1) * x + n * (n + ratio - 1) - pc.lambda1 / pc.c3**2


def consistency_check(jc: JacobiBranchConstants) -> ConsistencyReport:
    """Verify the identities r2 = 0 and r1 + r3 = 0 by direct evaluation.

    Raises ConsistencyViolation when either magnitude exceeds 1e-8, which
    signals a wrong root choice or a mis-mapped potential.
    """
    report = ConsistencyReport(r2_abs=abs(jc.r2), r1_plus_r3_abs=abs(jc.r1 + jc.r3))
    if report.r2_abs > CONSISTENCY_RAISE_TOL or report.r1_plus_r3_abs > CONSISTENCY_RAISE_TOL:
        raise ConsistencyViolation(
            f"|r2| = {report.r2_abs:.3e}, |r1 + r3| = {report.r1_plus_r3_abs:.3e}")
    return report


def _residual_or_nan(form, n, energy, root_choice) -> float:
    try:
        value = quantization_residual(form, n, energy, root_choice)
    except NegativeDiscriminant:
        return math.nan
    if math.isinf(value):
        return math.nan
    return value


def _brent(form, n, root_choice, a, b, fa, fb) -> float:
    """Root of the residual in [a, b], whose ends have residuals fa, fb of
    opposite signs, by Brent's method (Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 4).

    b is the best end and c the one across the root.  Each step takes the
    secant or inverse quadratic step from b, or halves [b, c] whenever
    interpolation would not shrink it fast enough.  Stops at the relative
    bracket width 1e-15, on an exact zero or after 200 steps, and returns
    b; the residual's slope is O(1..100) for every catalog case, so that
    leaves |residual| far below the 1e-10 contract.

    A NaN residual (defensive: no catalog input puts one inside a bracket)
    tells neither side of the root, so the bracket keeps its ends.  The
    stretch of NaN trial points, taken as one interval, is widened by each
    of them, and the wider of the bracket's two parts beside it is halved
    (:func:`_beside`) until a finite point moves an end; once an end lies
    across the root from the stretch, interpolation resumes.
    """
    c, fc = a, fa
    d = e = b - a
    stretch = None  # (low, high): the NaN trial points inside [b, c]
    for _ in range(200):
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 0.5e-15 * max(abs(b), abs(c))
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(m) <= tol:
            break
        if stretch is not None:
            x = _beside(stretch, min(b, c), max(b, c), tol)
            if x is None:
                break
        else:
            if abs(e) >= tol and abs(fa) > abs(fb):
                s = fb / fa
                if a == c:
                    p, q = 2.0 * m * s, 1.0 - s
                else:
                    t, r = fa / fc, fb / fc
                    p = s * (2.0 * m * t * (t - r) - (b - a) * (r - 1.0))
                    q = (t - 1.0) * (r - 1.0) * (s - 1.0)
                p, q = (p, -q) if p > 0.0 else (-p, q)
                if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                    e, d = d, p / q
                else:
                    e = d = m
            else:
                e = d = m
            x = b + (d if abs(d) > tol else math.copysign(tol, m))
            if x == b:  # tol below half an ulp of b: only in subnormal brackets
                break
        fx = _residual_or_nan(form, n, x, root_choice)
        if math.isnan(fx):
            stretch = (x, x) if stretch is None else (min(stretch[0], x), max(stretch[1], x))
            continue
        a, fa, b, fb = b, fb, x, fx
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = d = b - a
        if stretch is not None and not min(b, c) < stretch[0] < max(b, c):
            stretch = None
            e = d = b - a
    return b


def _beside(stretch, low, high, tol):
    """The midpoint of the wider of the two parts of [low, high] beside the
    NaN stretch, or None when neither is wider than 2 tol."""
    left, right = stretch[0] - low, high - stretch[1]
    if max(left, right) <= 2.0 * tol:
        return None
    return low + 0.5 * left if left >= right else stretch[1] + 0.5 * right


def _scan_energies(lo, hi, scan_points):
    """The scan points from lo to hi, both included, evenly spaced in
    sqrt(hi - E).

    The points crowd toward hi as the decay exponent sqrt(slope (hi - E))
    does: near hi the energy term anchored there, slope (hi - E), is exact
    (Sterbenz), so a level bound by far less than a uniform spacing still
    falls between two points.  The bottom edge lo, where a deep well's
    ground level lies, is a point itself.
    """
    u = 1.0 - np.arange(scan_points) / (scan_points - 1)
    energies = hi - (hi - lo) * (u * u)
    energies[0] = lo
    return energies


def _scan(form, n, root_choice, lo, hi, scan_points):
    """The scan points of [lo, hi] and level n's residual at all of them in
    one numpy call: a fresh scan, for the windows a level searches after
    the window's own scan (:func:`window_scan`) found no bracket."""
    energies = _scan_energies(lo, hi, scan_points)
    return energies, quantization_residuals(form, n, energies, root_choice)


@dataclass(frozen=True)
class WindowScan:
    """The scan points of an energy window and the part of the residual
    that does not depend on n at each of them (``core``: r3, alpha, beta
    or gamma2), so that a spectrum evaluates it once for all its levels."""

    energies: np.ndarray
    core: tuple[np.ndarray, ...]


def window_scan(form: EnergyDependentForm, root_choice: RootChoice = RootChoice(),
                scan_points: int = DEFAULT_SCAN_POINTS) -> WindowScan:
    """The window's scan: ``scan_points`` energies from the bottom of the
    energy window to its top (to lo + max(1, |lo|) for a window unbounded
    above), evenly spaced in the decay exponent, with the residual's core
    at all of them in one numpy evaluation."""
    lo, hi = form.energy_window
    top = hi if math.isfinite(hi) else lo + max(1.0, abs(lo))
    energies = _scan_energies(lo, top, scan_points)
    return WindowScan(energies, _array_core(form, energies, root_choice))


def _level_scan(form, n, root_choice, floor, window):
    """Level n's first scan: its floor, then the window's scan points above
    the floor, and the residual at each.  The floor takes the place of the
    last window point at or below it and one scalar residual call; every
    point above it only adds the level's term to the window's core, so each
    finite value is bit-equal to the scalar residual.  A value there may be
    an infinity, where the scalar residual is one too; :func:`_first_bracket`
    spans no point whose residual is not finite, so no pass maps it to NaN.
    The points below the floor keep their places with a NaN residual, so
    every level's arrays have the window's length: numpy keeps freed
    buffers of under 1 KiB for reuse by exact size, and arrays of a
    different short length for each level kept about 85 KB more of the
    heap in use."""
    i = int(np.searchsorted(window.energies, floor, side="right")) - 1
    energies = window.energies.copy()
    energies[i] = floor
    f = _array_residual(window.core, n)
    f[:i] = np.nan
    f[i] = _residual_or_nan(form, n, floor, root_choice)
    return energies, f


def _level_scans(form, n, root_choice, lo, hi, scan_points, window):
    """Level n's scans from its floor lo, in order, until one brackets a
    root: the window's scan above lo, then fresh scans.  A floor at or above
    the window scan's last point (a confining window, whose scan ends at
    lo + max(1, |lo|)) skips the window's scan, which would hold the floor
    alone, and starts with the fresh scans.  A window unbounded above is
    scanned from lo over a span that starts at max(1, |lo|) and doubles; a
    finite one over [lo, hi], and again over its top cell while the
    residual is not finite at hi (the inverse power families, where
    c2 - 2 p10 = 0 there).  A floor at the bottom of a window unbounded
    above starts with the doubled span: the window's scan covered the
    first."""
    span = max(1.0, abs(lo))
    if lo < window.energies[-1]:
        yield _level_scan(form, n, root_choice, lo, window)
        if math.isinf(hi) and lo == window.energies[0]:
            span *= 2.0
    for _ in range(64):
        top = hi if math.isfinite(hi) else lo + span
        energies, f = _scan(form, n, root_choice, lo, top, scan_points)
        yield energies, f
        if math.isinf(hi):
            span *= 2.0
        elif math.isnan(f[-1]) and lo < energies[-2] < hi:
            lo = float(energies[-2])  # the top cell
        else:
            return


def _first_bracket(energies, f):
    """First sign-change bracket (a, b, fa, fb) between neighbouring scan
    points, or None.  A residual that is not finite (NaN or an infinity)
    breaks the chain of neighbours, so no bracket spans it; one
    ``np.isfinite`` pass finds them all.  An exact zero at e gives
    (e, e, 0, 0)."""
    valid = np.isfinite(f)
    negative = f < 0.0
    event = f == 0.0
    event[1:] |= valid[1:] & valid[:-1] & (negative[1:] != negative[:-1])
    hits = np.flatnonzero(event)
    if hits.size == 0:
        return None
    i = hits[0]
    if f[i] == 0.0:
        return float(energies[i]), float(energies[i]), 0.0, 0.0
    return float(energies[i - 1]), float(energies[i]), float(f[i - 1]), float(f[i])


def _root_in(form, n, root_choice, bracket) -> float:
    """The root in a bracket (a, b, fa, fb) from the scan: a itself when
    the scan hit an exact zero (a == b), else Brent's refinement of it."""
    a, b, fa, fb = bracket
    return a if a == b else _brent(form, n, root_choice, a, b, fa, fb)


def solve_energy(form: EnergyDependentForm, n: int,
                 root_choice: RootChoice = RootChoice(),
                 scan_points: int = DEFAULT_SCAN_POINTS,
                 above: float | None = None,
                 scan: WindowScan | None = None) -> float:
    """Find the bound-state energy of level n as a root of the residual.

    The level's floor is the bottom of the window or, when given, ``above``,
    which restricts the search to energies strictly above a previous level
    and so enforces the E_0 < E_1 < ... ordering when multiple residual
    roots exist.  The first scan is the floor (one scalar residual call)
    and then the window's ``scan_points`` energies above it, evenly spaced
    in the decay exponent sqrt(hi - E); there the residual adds only the
    n term to the core of ``scan``, the :func:`window_scan` of this form
    and root choice, which a caller that solves many levels builds once.
    Without ``scan`` the same window scan is built here, so the level is
    bit-identical either way.  The first sign change between neighbours
    where both residuals are finite (or an exact zero) is refined by
    Brent's method with scalar ``quantization_residual`` calls, about three
    per level, to machine-relative bracket width.  A root must lie strictly
    below the window's top: a level at the asymptote is not bound.
    Without a bracket the level scans afresh from its floor: a window
    unbounded above (confining potentials) doubles its span, and a residual
    that is not finite at the top (the inverse power families, where
    c2 - 2 p10 = 0 there) has its top cell scanned.

    Raises NoBoundState when no sign change exists in the window,
    WindowDegenerate when the window is empty, and ValueError for n < 0 or
    fewer than two scan points.
    """
    if n < 0:
        raise ValueError("quantum number n must be nonnegative")
    if scan_points < 2:
        raise ValueError("the scan needs both window edges: scan_points >= 2")
    lo, hi = form.energy_window
    if above is not None:
        lo = max(lo, above)
    if not lo < hi:
        raise WindowDegenerate(f"empty energy window ({lo}, {hi})")
    if scan is None:
        scan = window_scan(form, root_choice, scan_points)
    for energies, f in _level_scans(form, n, root_choice, lo, hi, scan_points, scan):
        bracket = _first_bracket(energies, f)
        if bracket is not None:
            root = _root_in(form, n, root_choice, bracket)
            if root < hi:
                return root
            break
    raise NoBoundState(f"no residual root found for n = {n} below {hi}")
