"""Independent finite-difference verifier.

Discretizes -(hbar^2/2m) u'' + V_eff u = E u on a uniform grid with
Dirichlet ends (radial problems are reduced with u = r R, so their
eigenvalues compare directly to the analytic spectrum).  Eigenvalues come
from Sturm-sequence counts: shared brackets, Laguerre steps on the pivot
recursion once a level is isolated (Li & Zeng, SIAM J. Sci. Comput. 15,
1994), and a final bracket certified by counts.  There are no external
solver dependencies, so this path shares nothing with the algebraic route
it checks.

Each sweep first reduces T - lam by odd/even (cyclic) reduction in numpy
(Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970): it eliminates the
odd rows, whose block is diagonal, and the Schur complement S(lam) is again
symmetric tridiagonal.  Reduction repeats while the matrix has at least
REDUCE_MIN_ROWS rows and every pivot it eliminates is positive and no
smaller than the loads it puts on its neighbours.  With positive
eliminated pivots, Sylvester's law of inertia gives count(T - lam) =
count(S(lam)), and log|det(T - lam)| is the sum of their logarithms plus
log|det S(lam)|; a Laguerre sweep carries the first two lam-derivatives of
S's entries along.  The pure-Python pivot recursion then runs on S only,
fewer than REDUCE_MIN_ROWS rows once every level is eliminated (1/16 to
1/64 of the h and h/2 matrices).  A count-only sweep reduces the rows before
the diagonally dominant tail of the matrix (the classically forbidden
region beyond the outer turning point) and stops, with the exact count,
once a pivot there keeps every later pivot positive; where that takes more
than EXIT_WINDOW rows, as next to an eigenvalue, it reduces and counts the
rest of the matrix instead.  Reduction changes the cost of a sweep, not its
contract: every level still ends in a count-certified bracket no wider
than max(BISECT_TOL, 4 ulp).

Every eigenvalue is computed at two resolutions (h and h/2).  The reported
value is the h^2 Richardson extrapolation of the pair and the relative
movement between the two resolutions doubles as the grid-adequacy check:
when it exceeds 1e-4 the grid is declared too coarse.  The h solve starts
from the eigenvalues of the same V_eff on an 8x coarser grid, solved only
to converged Laguerre estimates, and the h/2 solve from the h eigenvalues;
each matrix's own Sturm counts confirm or overrule every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice, repeat

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
#: a sweep halves its matrix by odd/even reduction while the matrix has at
#: least this many rows
REDUCE_MIN_ROWS = 256
#: rows a count sweep tests for its early exit before it reduces the rest
#: of the matrix instead
EXIT_WINDOW = 32


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
    diag, off2 = _matrix(diag, offdiag)
    return _sturm(diag, off2, lam, _dominance_floor(diag, off2))


def _matrix(diag, offdiag) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and squared couplings of a symmetric tridiagonal matrix as
    float64 arrays."""
    diag = np.array(diag, dtype=float).reshape(-1)
    off2 = np.array(offdiag, dtype=float).reshape(-1)
    if off2.size != diag.size - 1:
        raise InvalidParameters("offdiag must be one element shorter than diag")
    return diag, off2 * off2


def _dominance_floor(diag, off2) -> np.ndarray:
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


def _levels(rows: int) -> int:
    """Odd/even reduction levels for a matrix of ``rows`` rows: it is
    halved while it has at least REDUCE_MIN_ROWS rows."""
    levels = 0
    while rows >= REDUCE_MIN_ROWS:
        rows = (rows + 1) // 2
        levels += 1
    return levels


def _halve(s: np.ndarray, c2: np.ndarray):
    """One odd/even reduction level of the matrix with diagonal s and
    squared couplings c2: the loads x_i = c2_(i-1)/p_i and y_i = c2_i/p_i
    that each odd row i, of pivot p_i = s_i, puts on the even rows next to
    it, or None when a pivot is not safe to eliminate.

    Rows 0, 2, 4, ... of the Schur complement have diagonal s minus the
    loads from the odd rows on either side, and squared couplings x y.  A
    pivot is safe when p_i > 0 and neither load exceeds it (p_i^2 >= c2_(i-1)
    and p_i^2 >= c2_i): the rounding the loads carry into the complement
    then stays within a few ulp of p_i.
    """
    p = s[1::2]
    if not p.min() > 0:
        return None
    x = c2[0::2] / p
    y = c2[1::2] / p[:c2.size // 2]
    if not ((x <= p).all() and (y <= p[:y.size]).all()):
        return None
    return x, y


def _reduce(s: np.ndarray, c2: np.ndarray, levels: int):
    """Diagonal and squared couplings of the Schur complement left by up to
    ``levels`` odd/even reductions of the matrix (s, c2), stopping at the
    first level with a pivot that is not safe (:func:`_halve`).

    Row 0 and, when len(s) - 1 is a multiple of 2^levels, the last row are
    kept.  The eliminated pivots are positive, so by Sylvester's law of
    inertia the complement has as many negative eigenvalues as the matrix.
    """
    for _ in range(levels):
        loads = _halve(s, c2)
        if loads is None:
            break
        x, y = loads
        s = _loaded(s[0::2].copy(), x, y)
        c2 = x[:y.size] * y
    return s, c2


def _floats(values, start: int, stop: int) -> list:
    """values[start:stop] of a diagonal or of the couplings as a list of
    floats: an array is converted, any other sequence read up to stop."""
    if isinstance(values, np.ndarray):
        return values[start:stop].tolist()
    return list(islice(values, start, stop))


def _pivots(rows, couplings, lam: float, d: float, count: int):
    """The pivot recursion d_i = (a_i - lam) - b2_i / d_(i-1) over ``rows``
    a_i, each with the squared coupling b2_i to the row before, continued
    from pivot d with ``count`` negative pivots; returns the new count and
    the last pivot."""
    floor = PIVOT_FLOOR
    for a, b2 in zip(rows, couplings):
        d = (a - lam) - b2 / d
        if d < 0:
            count += 1
            if d > -floor:
                d = -floor
        elif d < floor:
            d = floor
    return count, d


def _sturm(diag, off2, lam: float, dominance: np.ndarray) -> int:
    """One count-only sweep: the number of negative pivots of T - lam.

    ``dominance`` (:func:`_dominance_floor`) gives the first row from which
    T - lam is diagonally dominant.  The rows before it (the lead) are
    odd/even reduced (:func:`_reduce`) when there are at least
    REDUCE_MIN_ROWS of them; the reduction keeps the lead's last row, so
    the pivot recursion on the complement ends on the lead's last pivot.
    From the dominant row on, the sweep stops, with the exact count, at the
    first pivot d_i that is positive with d_i^2 >= off2_i: no later pivot
    can be negative.  Close to an eigenvalue the pivots can take many rows
    to get there; after EXIT_WINDOW rows the rest of the matrix, with its
    first row shifted by the last pivot, is reduced and counted instead.
    """
    n = len(diag)
    plain = max(int(np.searchsorted(dominance, lam)), 1)
    levels = _levels(plain)
    # 1 + a multiple of 2^levels rows, so that the reduction keeps the last
    lead = 1 + (plain - 1) // (1 << levels) * (1 << levels) if levels else 0
    count, d = 0, 1.0
    with np.errstate(all="ignore"):
        if lead:
            s, c2 = _reduce(np.asarray(diag[:lead], dtype=float) - lam,
                            np.asarray(off2[:lead - 1], dtype=float), levels)
            count, d = _pivots(s.tolist(), [0.0] + c2.tolist(), 0.0, d, count)
        stop = min(plain + EXIT_WINDOW, n)
        rows = _floats(diag, lead, stop)
        # each row's coupling to the row before it, 0 for row 0
        couplings = (_floats(off2, lead - 1, stop - 1) if lead
                     else [0.0] + _floats(off2, 0, stop - 1))
        count, d = _pivots(rows[:plain - lead], couplings, lam, d, count)
        floor = PIVOT_FLOOR
        for a, b2 in zip(rows[plain - lead:], couplings[plain - lead:]):
            if d > 0 and d * d >= b2:
                return count
            d = (a - lam) - b2 / d
            if d < 0:
                count += 1
                if d > -floor:
                    d = -floor
            elif d < floor:
                d = floor
        if stop == n:
            return count
        s = np.asarray(diag[stop:], dtype=float) - lam
        s[0] -= off2[stop - 1] / d
        s, c2 = _reduce(s, np.asarray(off2[stop:], dtype=float), _levels(n - stop))
    return _pivots(s.tolist(), [0.0] + c2.tolist(), 0.0, 1.0, count)[0]


def _laguerre_sweep(diag: np.ndarray, off2: np.ndarray, lam: float):
    """The count of :func:`_sturm` plus g = sum 1/(lam - e_j) and h = sum
    1/(lam - e_j)^2 over all eigenvalues e_j of T, in the same sweep.

    g and -h are the first two lam-derivatives of log|det(T - lam)|.  The
    odd/even reduction splits that into sum log p over the eliminated
    pivots plus log|det S(lam)|, so each level carries the first two
    lam-derivatives of its pivots and of the complement's entries
    (:func:`_reduce_jets`), and :func:`_laguerre_pivots` runs the pivot
    recursion on the complement.  The Laguerre degree stays the order of T.
    """
    with np.errstate(all="ignore"):
        jets, g, h = _reduce_jets(diag - lam, off2, _levels(diag.size))
    s, s1, s2, c2, c21, c22 = (
        part.tolist() if isinstance(part, np.ndarray) else repeat(part)
        for part in jets)
    count, g_s, h_s = _laguerre_pivots(s, s1, s2, chain((0.0,), c2),
                                       chain((0.0,), c21), chain((0.0,), c22))
    return count, g + g_s, h + h_s


def _reduce_jets(s: np.ndarray, c2: np.ndarray, levels: int):
    """:func:`_reduce` of T - lam carrying lam-derivatives.

    Returns the complement's diagonal and squared couplings with their first
    and second lam-derivatives, (s, s', s'', c2, c2', c2''), and the sums
    of p'/p and (p'/p)^2 - p''/p over the eliminated pivots p.  Before the
    first level s' = -1 and the rest are 0; they stay scalars when no level
    is eliminated.
    """
    jets = (s, -1.0, 0.0, c2, 0.0, 0.0)
    g = h = 0.0
    for _ in range(levels):
        loads = _halve(s, c2)
        if loads is None:
            break
        x, y = loads
        s, s1, s2, c2, c21, c22 = jets
        inv = 1.0 / s[1::2]
        right = slice(0, y.size)
        evens = (s.size + 1) // 2
        if isinstance(s1, float):
            # T - lam, p' = -1 and couplings free of lam: (1/p)' = 1/p^2, so
            # x' = x/p, x'' = 2 x/p^2, and the same for y and for c2 = x y
            g -= float(inv.sum())
            h += float(np.dot(inv, inv))
            x1 = x * inv
            y1 = y * inv[right]
            s1 = _loaded(np.full(evens, -1.0), x1, y1)
            x1 *= inv
            y1 *= inv[right]
            s2 = _loaded(np.zeros(evens), x1, y1)
            s2 *= 2.0
            c2 = x[right] * y
            c21 = c2 * inv[right]
            c21 *= 2.0
            c22 = c21 * inv[right]
            c22 *= 3.0
        else:
            v = s1[1::2] * inv
            z = s2[1::2] * inv
            g += float(v.sum())
            h += float(np.dot(v, v) - z.sum())
            # lam-derivatives of x = c2_(i-1)/p and y = c2_i/p
            x1 = c21[0::2] * inv - x * v
            x2 = c22[0::2] * inv - 2.0 * x1 * v - x * z
            y1 = c21[1::2] * inv[right] - y * v[right]
            y2 = c22[1::2] * inv[right] - 2.0 * y1 * v[right] - y * z[right]
            s1 = _loaded(s1[0::2].copy(), x1, y1)
            s2 = _loaded(s2[0::2].copy(), x2, y2)
            xr, x1r = x[right], x1[right]
            c2 = xr * y
            c21 = x1r * y + xr * y1
            c22 = x2[right] * y + 2.0 * x1r * y1 + xr * y2
        s = _loaded(s[0::2].copy(), x, y)
        jets = (s, s1, s2, c2, c21, c22)
    return jets, g, h


def _loaded(even, x, y):
    """The even rows' entries ``even`` less the loads x from the odd row
    after each and y from the odd row before it, in place."""
    even[:x.size] -= x
    even[1:y.size + 1] -= y
    return even


def _laguerre_pivots(diag, diag1, diag2, off2, off21, off22):
    """Count, g and h of the pivot recursion d_i = s_i - c2_i / d_(i-1) on a
    matrix whose entries depend on lam: the diagonal s and the squared
    couplings c2 (each to the row before, 0 for the first row), with their
    first and second lam-derivatives.

    g and -h are the first two lam-derivatives of sum log|d_i|, carried as
    u_i = d_i'/d_i and w_i = d_i''/d_i.  With s' = -1 and s'' = c2' = c2''
    = 0 (an unreduced T - lam) every operation is that of the plain
    recursion.  A floored pivot makes g and h non-finite, which the caller
    treats as a refused step.
    """
    floor = PIVOT_FLOOR
    count = 0
    d, u, w = 1.0, 0.0, 0.0
    g = h = 0.0
    for a, a1, a2, b2, b21, b22 in zip(diag, diag1, diag2, off2, off21, off22):
        inv = 1.0 / d
        r1 = b21 * inv
        q = b2 / d
        # the lam-derivatives of q = c2/d are r1 - q u and
        # c2''/d - 2 r1 u - q (w - 2 u^2)
        curvature = q * (w - 2.0 * u * u)
        w = a2 - b22 * inv + 2.0 * r1 * u + curvature
        u = a1 - r1 + q * u
        d = a - q
        if d < 0:
            count += 1
            if d > -floor:
                d = -floor
        elif d < floor:
            d = floor
        u = u / d
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
    return _lowest_eigenvalues(*_matrix(diag, offdiag), count)[0]


def _lowest_eigenvalues(diag, off2, count: int, seeds=(),
                        certify: bool = True) -> tuple[list[float], int]:
    """The lowest `count` eigenvalues of the matrix with diagonal ``diag``
    and squared couplings ``off2`` (sequences or float arrays), and the
    number of Sturm sweeps spent.

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
    certify the final bracket.  Every sweep runs on the odd/even reduction
    of the matrix (:func:`_sturm`, :func:`_laguerre_sweep`).  Without
    ``certify`` a level stops at its converged Laguerre estimate instead,
    which is all a seed for a finer matrix needs.

    ``seeds`` holds optional starting points, one per level.  A seed is used
    only when it lies inside its level's bracket, and its sweep's count
    decides what it is worth: a wrong seed or a wrong convergence estimate
    costs sweeps, never accuracy.
    """
    diag = np.asarray(diag, dtype=float)
    off2 = np.asarray(off2, dtype=float)
    n = diag.size
    count = min(count, n)
    radius = math.sqrt(off2.max()) if off2.size else 0.0
    bottom = float(diag.min()) - 2 * radius  # Gershgorin bounds
    top = float(diag.max()) + 2 * radius
    dominance = _dominance_floor(diag, off2)
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
            if kind == "probe" and not certify:
                break
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
        out.append(est if kind == "probe" and not certify else 0.5 * (lo[k] + hi[k]))
    return out, sweeps


def _operator(v_eff, x_min: float, x_max: float, intervals: int,
              units: pot.UnitsConfig):
    """Grid points, hopping t and diagonal (a float array) of the Dirichlet
    three-point operator on ``intervals`` uniform intervals."""
    x = np.linspace(x_min, x_max, intervals + 1)
    h = (x_max - x_min) / intervals
    t = units.hbar**2 / (2 * units.mass * h * h)
    diag = 2.0 * t + np.asarray(v_eff(x[1:-1]), dtype=float)
    return x, t, diag


def _solve(v_eff, x_min: float, x_max: float, intervals: int,
           units: pot.UnitsConfig, count: int, seeds=(), certify: bool = True):
    """The lowest eigenvalues of the operator on ``intervals`` intervals,
    and the Sturm sweeps spent."""
    _, t, diag = _operator(v_eff, x_min, x_max, intervals, units)
    return _lowest_eigenvalues(diag, _hopping2(t, diag.size - 1), count, seeds, certify)


def _hopping2(t: float, size: int) -> np.ndarray:
    """The squared coupling t^2 of every row, as a read-only array that
    stores it once."""
    return np.broadcast_to(t * t, (size,))


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
                                    intervals // SEED_COARSENING, units, count,
                                    certify=False)
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
    lam = _lowest_eigenvalues(diag, _hopping2(t, diag.size - 1), index + 1)[0][index]

    n = len(diag)
    sub = np.full(n - 1, -t)
    shifted = diag - lam
    rng = np.random.default_rng(20240817)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(max_iter):
        w = _tridiag_solve(sub, shifted, sub, v)
        w /= np.linalg.norm(w)
        residual = np.linalg.norm((diag * w
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
