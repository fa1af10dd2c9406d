"""Independent finite-difference verifier.

Discretizes -(hbar^2/2m) u'' + V_eff u = E u on a uniform grid with
Dirichlet ends (radial problems are reduced with u = r R, so their
eigenvalues compare directly to the analytic spectrum).  Eigenvalues come
from Sturm-sequence counts: shared brackets, Laguerre steps on the pivot
recursion once a level is isolated (Li & Zeng, SIAM J. Sci. Comput. 15,
1994), and a final bracket certified by counts.  A count-only sweep stops,
with the exact count, once it has entered the diagonally dominant tail of
the matrix (the classically forbidden region beyond the outer turning
point) with a pivot that keeps every later pivot positive.  There are no
external solver dependencies, so this path shares nothing with the
algebraic route it checks.

Every eigenvalue is computed at two resolutions (h and h/2).  The reported
value is the h^2 Richardson extrapolation of the pair and the relative
movement between the two resolutions doubles as the grid-adequacy check:
when it exceeds 1e-4 the grid is declared too coarse.  The h solve starts
from the eigenvalues of the same V_eff on an 8x coarser grid, and the h/2
solve from the h eigenvalues; each matrix's own Sturm counts confirm or
overrule every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import potentials as pot
from .errors import GridTooCoarse, InvalidParameters
from .quadrature import RadialGrid, simpson_integrate

#: relative eigenvalue movement between the two resolutions above which the
#: grid is rejected
RICHARDSON_TOL = 1e-4
#: Sturm pivots are floored at this magnitude to avoid division blowup
PIVOT_FLOOR = 1e-300
#: width of the count-certified bracket each eigenvalue is refined to
#: (absolute, with a float-spacing guard)
BISECT_TOL = 1e-12
#: relative rounding margin of the diagonal-dominance test that ends a
#: count-only Sturm sweep early
DOMINANCE_MARGIN = 1e-12
#: the seed solve runs on this many times fewer intervals than the h grid
SEED_COARSENING = 8
#: fewest intervals a seed solve runs on; coarser grids seed nothing
SEED_MIN_INTERVALS = 64


@dataclass(frozen=True)
class OracleSpectrum:
    """Bound eigenvalues of the discretized problem, plus grid diagnostics."""

    eigenvalues: tuple[float, ...]
    grid: RadialGrid
    boundary: tuple[str, str]
    effective_potential_includes_centrifugal: bool
    asymptote: float
    richardson_shift: float
    grid_adequate: bool
    #: Sturm sweeps spent on the h and the h/2 matrix
    sturm_sweeps: tuple[int, int]
    #: Sturm sweeps spent on the coarse matrix that seeds the h solve
    seed_sweeps: int


@dataclass(frozen=True)
class LevelComparison:
    n: int
    analytic: float
    oracle: float
    abs_diff: float
    rel_diff: float


@dataclass(frozen=True)
class VerificationReport:
    """Per-level analytic-vs-oracle comparison."""

    levels: tuple[LevelComparison, ...]
    worst_rel_diff: float
    rel_tol: float
    count_analytic: int
    count_oracle: int
    count_discrepancy: bool
    passed: bool


def sturm_count(diag, offdiag, lam: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix strictly
    below lam, from the sign count of the Sturm pivot recursion."""
    diag = [float(v) for v in diag]
    off2 = [float(v) * float(v) for v in offdiag]
    if len(off2) != len(diag) - 1:
        raise InvalidParameters("offdiag must be one element shorter than diag")
    return _sturm(diag, off2, lam, _dominance_floor(diag, off2))


def _dominance_floor(diag: list, off2: list) -> np.ndarray:
    """Suffix minimum of a_i - |b_(i-1)| - |b_i|, less a rounding margin of
    DOMINANCE_MARGIN (|a_i| + |b_(i-1)| + |b_i|).

    At every row from the first one where it is >= lam, T - lam is
    diagonally dominant with a margin that covers the rounding of the
    pivot recursion, so a pivot d > 0 with d^2 >= b_i^2 keeps every later
    pivot positive.  One float64 array per matrix; rows where the value is
    not a number (infinite entries) get -inf and never end a sweep early.
    """
    floor = np.array(diag, dtype=float)
    b = np.array(off2, dtype=float)
    np.sqrt(b, out=b)
    with np.errstate(invalid="ignore", over="ignore"):
        margin = np.abs(floor)
        margin[1:] += b
        margin[:-1] += b
        margin *= DOMINANCE_MARGIN
        floor[1:] -= b
        floor[:-1] -= b
        floor -= margin
    floor[np.isnan(floor)] = -math.inf
    suffix = floor[::-1]
    np.minimum.accumulate(suffix, out=suffix)
    return floor


def _sturm(diag: list, off2: list, lam: float, dominance: np.ndarray) -> int:
    """One count-only sweep of the pivot recursion d_i = (a_i - lam) -
    off2_{i-1} / d_{i-1}: the number of negative pivots.

    The sweep stops early, with the exact count, at the first pivot d_i
    past the row where ``dominance`` (:func:`_dominance_floor`) reaches
    lam that is positive with d_i^2 >= off2_i: no later pivot can be
    negative.
    """
    floor = PIVOT_FLOOR
    rows = iter(diag)
    couplings = iter(off2)
    d = next(rows) - lam
    count = 0
    if d < 0:
        count = 1
        if d > -floor:
            d = -floor
    elif d < floor:
        d = floor
    # pivots 1 .. start - 1 run without the exit test
    start = int(np.searchsorted(dominance, lam))
    for a, b2 in zip(islice(rows, max(start - 1, 0)), couplings):
        d = (a - lam) - b2 / d
        if d < 0:
            count += 1
            if d > -floor:
                d = -floor
        elif d < floor:
            d = floor
    for a, b2 in zip(rows, couplings):
        if d > 0 and d * d >= b2:
            return count
        d = (a - lam) - b2 / d
        if d < 0:
            count += 1
            if d > -floor:
                d = -floor
        elif d < floor:
            d = floor
    return count


def _laguerre_sweep(diag: list, off2: list, lam: float):
    """The count of :func:`_sturm` plus g = sum 1/(lam - e_j) and h = sum
    1/(lam - e_j)^2 over all eigenvalues e_j, in the same sweep.

    g and -h are the first two lam-derivatives of log|det(T - lam)| =
    sum log|d_i|, carried along the pivot recursion as u_i = d_i'/d_i and
    w_i = d_i''/d_i.  A floored pivot makes them non-finite, which the
    caller treats as a refused step.
    """
    floor = PIVOT_FLOOR
    rows = iter(diag)
    d = next(rows) - lam
    count = 0
    if d < 0:
        count = 1
        if d > -floor:
            d = -floor
    elif d < floor:
        d = floor
    u = -1.0 / d
    w = 0.0
    g = u
    h = u * u
    for a, b2 in zip(rows, off2):
        q = b2 / d
        w = q * (w - 2.0 * u * u)
        d = (a - lam) - q
        if d < 0:
            count += 1
            if d > -floor:
                d = -floor
        elif d < floor:
            d = floor
        u = (q * u - 1.0) / d
        w = w / d
        g += u
        h += u * u - w
    return count, g, h


def _laguerre_step(g: float, h: float, n: int, side: int) -> float:
    """Distance from lam to the Laguerre point on ``side`` (+1 above, -1
    below) for a degree-n polynomial with only real roots.

    The point never passes the nearest root on that side, so a step from a
    point with exactly k eigenvalues below it toward level k cannot
    overshoot it.  Returns inf when the derivatives admit no such step.
    """
    disc = math.sqrt(max((n - 1) * (n * h - g * g), 0.0))
    toward = side * g
    if toward <= 0:
        denom = disc - toward
        return n / denom if denom > 0 else math.inf
    # the same quotient, rationalized to avoid cancelling disc - toward
    denom = (n - 1) * h - g * g
    return (disc + toward) / denom if denom > 0 else math.inf


def _width_tol(*ends: float) -> float:
    return max(BISECT_TOL, 4 * math.ulp(max(abs(v) for v in ends)))


def lowest_eigenvalues(diag, offdiag, count: int) -> list[float]:
    """Lowest eigenvalues of a symmetric tridiagonal matrix, each certified
    by Sturm counts to a bracket no wider than max(BISECT_TOL, 4 ulp).
    Matrix-level entry point; the grid solvers build on it."""
    diag = [float(v) for v in diag]
    off2 = [float(v) * float(v) for v in offdiag]
    if len(off2) != len(diag) - 1:
        raise InvalidParameters("offdiag must be one element shorter than diag")
    return _lowest_eigenvalues(diag, off2, count)[0]


def _lowest_eigenvalues(diag: list, off2: list, count: int,
                        seeds=()) -> tuple[list[float], int]:
    """The lowest `count` eigenvalues and the number of Sturm sweeps spent.

    Each value is the midpoint of a bracket [lo, hi] no wider than
    max(BISECT_TOL, 4 ulp) whose ends carry Sturm counts: at most k
    eigenvalues below lo and at least k + 1 below hi, for level k.  Every
    count tightens the brackets of all levels, so a level starts from what
    the sweeps of earlier levels certified.  A level's bracket is bisected
    until it holds exactly one eigenvalue; from there (or from a seed with
    k or k + 1 eigenvalues below it) Laguerre steps, safeguarded by the
    bracket, replace bisection.  Once a step falls below what the sweep can
    resolve, or Laguerre's cubic convergence puts the error left after a
    step of length dist below half the final bracket width (dist (dist /
    gap)^2, gap being the distance to the nearest other seed or solved
    level), count-only probes around the estimate, widened after each miss,
    certify the final bracket.  Count-only sweeps end at the diagonally
    dominant tail of the matrix (:func:`_sturm`).

    ``seeds`` holds optional starting points, one per level.  A seed is used
    only when it lies inside its level's bracket, and its sweep's count
    decides what it is worth: a wrong seed or a wrong convergence estimate
    costs sweeps, never accuracy.
    """
    n = len(diag)
    count = min(count, n)
    dominance = _dominance_floor(diag, off2)
    radius = math.sqrt(max(off2)) if off2 else 0.0
    bottom = min(diag) - 2 * radius  # Gershgorin bounds
    top = max(diag) + 2 * radius
    lo, hi = [bottom] * count, [top] * count
    clo = [0] * count  # eigenvalues below lo[k]
    chi = [n] * count  # eigenvalues below hi[k]
    # a sweep resolves eigenvalues to a few ulp of the matrix norm only
    resolution = _width_tol(bottom, top)
    sweeps = 0
    out: list[float] = []
    for k in range(count):
        seed = seeds[k] if k < len(seeds) else None
        if seed is not None and lo[k] < seed < hi[k]:
            x, kind = seed, "laguerre"
        else:
            x, kind = 0.5 * (lo[k] + hi[k]), "bisect"
        neighbours = out + [v for j, v in enumerate(seeds)
                            if j != k and math.isfinite(v)]
        est = spread = 0.0
        # the last two step lengths: a Laguerre step must be shorter than
        # half the one before last, or bisection takes over
        steps = [hi[k] - lo[k]] * 2
        last_side = 0
        for _ in range(300):
            if hi[k] - lo[k] <= _width_tol(lo[k], hi[k]):
                break
            if kind == "laguerre":
                c, g, h = _laguerre_sweep(diag, off2, x)
            else:
                c = _sturm(diag, off2, x, dominance)
            sweeps += 1
            for j in range(min(c, count)):
                if x < hi[j]:
                    hi[j], chi[j] = x, c
            for j in range(c, count):
                if x > lo[j]:
                    lo[j], clo[j] = x, c
            if kind == "probe":
                if (x < est) == (c > k):  # the level lies beyond this probe
                    est, spread = x, 2 * spread
            elif kind == "laguerre" and c in (k, k + 1):
                side = 1 if c == k else -1
                dist = _laguerre_step(g, h, n, side)
                z = x + side * dist
                if math.isfinite(dist) and (side == -last_side or dist < resolution):
                    # a step across the level, or one the sweep cannot
                    # resolve: z is as good as the derivatives get
                    kind = "probe"
                    est = min(max(z, lo[k]), hi[k])
                    spread = max(0.5 * _width_tol(est), dist)
                elif lo[k] < z < hi[k] and dist < 0.5 * steps[0]:
                    steps = [steps[1], dist]
                    x, last_side = z, side
                    gap = min((abs(z - v) for v in neighbours), default=0.0)
                    if dist**3 >= 0.5 * _width_tol(z) * gap * gap:
                        continue
                    # the step converged: certify z without another sweep
                    kind = "probe"
                    est, spread = z, 0.5 * _width_tol(z)
            if kind == "probe" and lo[k] < est - spread:
                x = est - spread
            elif kind == "probe" and est + spread < hi[k]:
                x = est + spread
            else:
                x = 0.5 * (lo[k] + hi[k])
                steps = [steps[1], 0.5 * (hi[k] - lo[k])]
                last_side = 0
                if kind != "probe":
                    isolated = clo[k] == k and chi[k] == k + 1
                    kind = "laguerre" if isolated else "bisect"
        out.append(0.5 * (lo[k] + hi[k]))
    return out, sweeps


def _operator(v_eff, x_min: float, x_max: float, intervals: int,
              units: pot.UnitsConfig):
    """Grid points, hopping t and diagonal (as a list) of the Dirichlet
    three-point operator on ``intervals`` uniform intervals."""
    x = np.linspace(x_min, x_max, intervals + 1)
    h = (x_max - x_min) / intervals
    t = units.hbar**2 / (2 * units.mass * h * h)
    diag = (2.0 * t + np.asarray(v_eff(x[1:-1]), dtype=float)).tolist()
    return x, t, diag


def _solve(v_eff, x_min: float, x_max: float, intervals: int,
           units: pot.UnitsConfig, count: int, seeds=()):
    """The lowest eigenvalues of the operator on ``intervals`` intervals,
    and the Sturm sweeps spent."""
    _, t, diag = _operator(v_eff, x_min, x_max, intervals, units)
    return _lowest_eigenvalues(diag, [t * t] * (len(diag) - 1), count, seeds)


class _FDResult(tuple):
    """The ``(values, shift)`` pair of :func:`fd_eigenvalues_from_callable`,
    also carrying ``sturm_sweeps`` (the sweeps spent at h and at h/2) and
    ``seed_sweeps`` (those of the coarse seed solve)."""

    def __new__(cls, values, shift: float, sturm_sweeps: tuple[int, int],
                seed_sweeps: int):
        result = super().__new__(cls, (values, shift))
        result.sturm_sweeps = sturm_sweeps
        result.seed_sweeps = seed_sweeps
        return result


def fd_eigenvalues_from_callable(v_eff, grid: RadialGrid,
                                 units: pot.UnitsConfig = pot.UnitsConfig(),
                                 count: int = 3, refine: bool = True):
    """Lowest eigenvalues of -(hbar^2/2m) u'' + v_eff(x) u with Dirichlet
    ends.

    With ``refine`` the values are Richardson-extrapolated from the (h,
    h/2) resolution pair; returns ``(values, shift)`` where shift is the
    largest relative movement between the two resolutions.  With ``refine``
    false the plain single-grid values are returned with shift 0.  The
    pair's ``sturm_sweeps`` attribute holds the Sturm sweeps spent at h and
    at h/2 (0 without ``refine``), and ``seed_sweeps`` those of the seed
    solve.

    The h solve is seeded with the eigenvalues of the same ``v_eff`` on
    SEED_COARSENING times fewer intervals of the same [x_min, x_max], when
    that leaves at least SEED_MIN_INTERVALS; the h/2 solve is seeded with
    the h eigenvalues, which sit within the Richardson movement of their
    h/2 counterparts.  Each matrix's own Sturm counts confirm or overrule
    every seed, so seeds change the sweeps spent, not the values.
    """
    intervals = grid.n_points - 1
    seeds, seed_sweeps = (), 0
    if intervals // SEED_COARSENING >= SEED_MIN_INTERVALS:
        seeds, seed_sweeps = _solve(v_eff, grid.x_min, grid.x_max,
                                    intervals // SEED_COARSENING, units, count)
    base, sweeps = _solve(v_eff, grid.x_min, grid.x_max, intervals, units,
                          count, seeds)
    if not refine:
        return _FDResult(np.asarray(base), 0.0, (sweeps, 0), seed_sweeps)
    fine, fine_sweeps = _solve(v_eff, grid.x_min, grid.x_max, 2 * intervals,
                               units, count, base)
    base = np.asarray(base)
    fine = np.asarray(fine)
    rich = (4.0 * fine - base) / 3.0
    scale = np.maximum(np.abs(rich), 1e-30)
    shift = float(np.max(np.abs(fine - base) / scale))
    return _FDResult(rich, shift, (sweeps, fine_sweeps), seed_sweeps)


def _effective_grid(spec, grid: RadialGrid) -> RadialGrid:
    # A radial offset below one mesh step is indistinguishable from the true
    # r = 0 boundary but biases eigenvalues by O(x_min); snap it to zero.
    if spec.radial and 0.0 < grid.x_min < grid.h:
        return RadialGrid(0.0, grid.x_max, grid.n_points)
    return grid


def fd_eigenvalues(spec, l: int = 0, units: pot.UnitsConfig = pot.UnitsConfig(),
                   grid: RadialGrid | None = None, count: int = 3,
                   strict_grid: bool = True) -> OracleSpectrum:
    """Oracle spectrum for a catalog potential.

    Only eigenvalues below the potential's asymptote are reported (box
    discretization of the continuum produces spurious levels above it).
    Raises GridTooCoarse when the two-resolution check exceeds 1e-4
    relative, unless ``strict_grid`` is false, in which case the inadequacy
    is only flagged on the returned spectrum.
    """
    if grid is None:
        grid = pot.default_grid(spec, l, units, n_max=max(0, count - 1))
    grid = _effective_grid(spec, grid)

    def v_eff(x):
        return pot.effective_potential(spec, l, units, x)

    solved = fd_eigenvalues_from_callable(v_eff, grid, units, count)
    values, shift = solved
    adequate = shift <= RICHARDSON_TOL
    if strict_grid and not adequate:
        raise GridTooCoarse(
            f"eigenvalues moved by {shift:.3e} relative when doubling the resolution")
    asym = pot.bound_asymptote(spec)
    bound = tuple(float(v) for v in values if v < asym)
    return OracleSpectrum(eigenvalues=bound, grid=grid,
                          boundary=("dirichlet", "dirichlet"),
                          effective_potential_includes_centrifugal=spec.radial,
                          asymptote=asym, richardson_shift=shift,
                          grid_adequate=adequate, sturm_sweeps=solved.sturm_sweeps,
                          seed_sweeps=solved.seed_sweeps)


def _tridiag_solve(sub, diag, sup, rhs):
    """Solve a tridiagonal system with partial pivoting (stable even when
    the matrix is nearly singular, as in inverse iteration)."""
    n = len(diag)
    a = np.zeros(n)      # subdiagonal (of current elimination state)
    b = np.array(diag, dtype=float)
    c = np.zeros(n)      # superdiagonal
    d = np.zeros(n)      # second superdiagonal fill-in from pivoting
    a[1:] = sub
    c[:-1] = sup
    r = np.array(rhs, dtype=float)
    for i in range(n - 1):
        if abs(a[i + 1]) > abs(b[i]):
            b[i], a[i + 1] = a[i + 1], b[i]
            c[i], b[i + 1] = b[i + 1], c[i]
            d[i], c[i + 1] = c[i + 1], d[i]
            r[i], r[i + 1] = r[i + 1], r[i]
        pivot = b[i] if b[i] != 0 else PIVOT_FLOOR
        m = a[i + 1] / pivot
        b[i + 1] -= m * c[i]
        c[i + 1] -= m * d[i]
        r[i + 1] -= m * r[i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        acc = r[i]
        if i + 1 < n:
            acc -= c[i] * x[i + 1]
        if i + 2 < n:
            acc -= d[i] * x[i + 2]
        x[i] = acc / (b[i] if b[i] != 0 else PIVOT_FLOOR)
    return x


def fd_eigenvector(spec, l: int, units: pot.UnitsConfig, grid: RadialGrid,
                   index: int, max_iter: int = 20):
    """Grid eigenfunction u(x) of the index-th bound level by inverse
    iteration at the converged grid eigenvalue.

    Returns (x, u) on the full grid (Dirichlet zeros included), normalized
    so the Simpson integral of u^2 is 1, with the first significant lobe
    positive.  Radial problems return the reduced function u = r R.
    """
    grid = _effective_grid(spec, grid)

    def v_eff(x):
        return pot.effective_potential(spec, l, units, x)

    x, t, diag = _operator(v_eff, grid.x_min, grid.x_max, grid.n_points - 1, units)
    off2 = [t * t] * (len(diag) - 1)
    lam = _lowest_eigenvalues(diag, off2, index + 1)[0][index]

    n = len(diag)
    sub = np.full(n - 1, -t)
    shifted = np.asarray(diag) - lam
    rng = np.random.default_rng(20240817)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(max_iter):
        w = _tridiag_solve(sub, shifted, sub, v)
        w /= np.linalg.norm(w)
        residual = np.linalg.norm((np.asarray(diag) * w
                                   + np.concatenate(([0.0], -t * w[:-1]))
                                   + np.concatenate((-t * w[1:], [0.0]))) - lam * w)
        v = w
        if residual < 1e-9 * max(1.0, abs(lam)):
            break
    u = np.zeros(len(x))
    u[1:-1] = v
    u /= math.sqrt(simpson_integrate(u * u, grid.h))
    peak = np.argmax(np.abs(u))
    first_lobe = np.nonzero(np.abs(u) > 0.05 * abs(u[peak]))[0][0]
    if u[first_lobe] < 0:
        u = -u
    return x, u


def compare_spectra(analytic, oracle: OracleSpectrum,
                    rel_tol: float = 1e-5) -> VerificationReport:
    """Pair analytic bound states with oracle eigenvalues by index.

    A count mismatch below the asymptote is flagged, not raised.  The
    relative difference is measured against the analytic value.
    """
    if not analytic:
        raise InvalidParameters("analytic spectrum must be nonempty")
    energies = [state.energy for state in analytic]
    rows = []
    worst = 0.0
    for i, (ea, eo) in enumerate(zip(energies, oracle.eigenvalues)):
        abs_diff = abs(ea - eo)
        rel_diff = abs_diff / max(abs(ea), 1e-300)
        worst = max(worst, rel_diff)
        rows.append(LevelComparison(n=analytic[i].n, analytic=ea, oracle=float(eo),
                                    abs_diff=abs_diff, rel_diff=rel_diff))
    mismatch = len(energies) != len(oracle.eigenvalues)
    return VerificationReport(levels=tuple(rows), worst_rel_diff=worst,
                              rel_tol=rel_tol, count_analytic=len(energies),
                              count_oracle=len(oracle.eigenvalues),
                              count_discrepancy=mismatch,
                              passed=(not mismatch) and worst <= rel_tol)
