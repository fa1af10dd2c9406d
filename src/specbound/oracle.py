"""Independent finite-difference verifier.

Discretizes -(hbar^2/2m) u'' + V_eff u = E u on a uniform grid with
Dirichlet ends (radial problems are reduced with u = r R, so their
eigenvalues compare directly to the analytic spectrum).  Eigenvalues come
from Sturm-sequence counts: shared brackets, Laguerre steps on the pivot
recursion once a level is isolated (Li & Zeng, SIAM J. Sci. Comput. 15,
1994), and a final bracket certified by counts.  There are no external
solver dependencies, so this path shares nothing with the algebraic route
it checks.

Every matrix is kept as a path Laplacian plus a diagonal, T - lam = L(b) +
diag(w): b are the edge weights |offdiag| and w_i = diag_i - b_(i-1) - b_i
- lam.  The operator is built in this form directly, w = V_eff - lam with
every edge t and a Dirichlet ghost edge t at either end, so no sweep ever
adds 2t to a small number.  The pivot recursion runs on the excess of each
pivot over its edge to the next row, delta_i = w_i + b_(i-1) delta_(i-1) /
(b_(i-1) + delta_(i-1)), and a pivot is negative exactly when delta_i <
-b_i.  A count then resolves a level to about 1e-15 where storing 2t + V
resolved it only to a few ulp of 4t (1e-12 to 1e-10), and the Laguerre
estimate and the count transition agree, so the two probes either side of
the estimate normally certify the level.

Each sweep first reduces T - lam by odd/even reduction in numpy, which in
this form is Kron reduction (Dorfler & Bullo, IEEE TCAS-I 60, 2013):
eliminating row k, of pivot p = b_l + b_r + w_k, adds b w_k / p to the w of
each neighbour and joins them by the edge b_l b_r / p, so the Schur
complement S(lam) is again a Laplacian plus a diagonal.  Reduction repeats
while the matrix has at least REDUCE_MIN_ROWS rows and every row it
eliminates has |w_k| < p.  With positive eliminated pivots, Sylvester's law
of inertia gives count(T - lam) = count(S(lam)), and log|det(T - lam)| is
the sum of their logarithms plus log|det S(lam)|; a Laguerre sweep carries
the first two lam-derivatives of S's entries along.  The pure-Python pivot
recursion then runs on S only, fewer than REDUCE_MIN_ROWS rows once every
level is eliminated (1/16 to 1/64 of the h and h/2 matrices); a count
sweep ends on S's last pivot, its last excess plus its last (ghost) edge.
Every level ends in a count-certified bracket no wider than
max(BISECT_TOL, 4 ulp).

Every eigenvalue is computed at two resolutions (h and h/2).  The reported
value is the h^2 Richardson extrapolation of the pair and the relative
movement between the two resolutions doubles as the grid-adequacy check:
when it exceeds 1e-4 the grid is declared too coarse.  The h solve starts
from the eigenvalues of the same V_eff on an 8x coarser grid, solved only
to converged Laguerre estimates, and the h/2 solve from the h eigenvalues;
each matrix's own Sturm counts confirm or overrule every seed.  V_eff is
evaluated once on the h/2 grid, whose odd interior points are the h grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potentials as pot
from .errors import GridTooCoarse, GridTooLarge, InvalidParameters
from .quadrature import RadialGrid, simpson_integrate

#: relative eigenvalue movement between the two resolutions above which the
#: grid is rejected
RICHARDSON_TOL = 1e-4
#: Sturm pivots are floored at this magnitude to avoid division blowup
PIVOT_FLOOR = 1e-300
#: width of the count-certified bracket each eigenvalue is refined to
#: (absolute, with a float-spacing guard)
BISECT_TOL = 1e-12
#: magnitude that infinite matrix entries and the load of a vanishing
#: pivot are clamped to
HUGE = 1e300
#: the seed solve runs on this many times fewer intervals than the h grid
SEED_COARSENING = 8
#: fewest intervals a seed solve runs on; coarser grids seed nothing
SEED_MIN_INTERVALS = 64
#: a sweep halves its matrix by odd/even reduction while the matrix has at
#: least this many rows
REDUCE_MIN_ROWS = 256
#: a Laguerre sweep takes a pivot p and the next row, of diagonal s and
#: squared edge c to p's row, as one 2x2 block pivot when |p s| < BLOCK_PIVOT
#: c; the block's determinant p s - c is then at least (1 - BLOCK_PIVOT) c
BLOCK_PIVOT = (math.sqrt(5.0) - 1.0) / 2.0
#: most intervals of an h grid the oracle builds matrices for; the h/2
#: matrix then has 2^23 rows, 64 MB per float64 array
MAX_INTERVALS = 2**22


@dataclass(frozen=True)
class OracleSpectrum:
    """Bound eigenvalues of the discretized problem, plus grid diagnostics."""

    eigenvalues: tuple[float, ...]
    grid: RadialGrid
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
    pot, edges = _form(diag, offdiag)
    return _sturm(pot, edges, lam)


def _form(diag, offdiag) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric tridiagonal matrix as a path Laplacian plus a diagonal,
    T = L(edges) + diag(pot), both float64 arrays.

    The edge weights are |offdiag|, with a ghost edge of weight 0 at either
    end, and pot_i = diag_i - edges_i - edges_(i+1).  Infinite values are
    clamped to +-HUGE, so that an infinite diagonal entry stays a number:
    such a row splits the matrix, and so does one of weight HUGE.  Finite
    entries are kept as they are.
    """
    diag = np.array(diag, dtype=float).reshape(-1)
    off = np.array(offdiag, dtype=float).reshape(-1)
    if off.size != diag.size - 1:
        raise InvalidParameters("offdiag must be one element shorter than diag")
    edges = np.zeros(diag.size + 1)
    np.abs(off, out=edges[1:-1])
    edges[np.isinf(edges)] = HUGE
    with np.errstate(over="ignore", invalid="ignore"):
        pot = diag - edges[:-1] - edges[1:]
    infinite = np.isinf(pot)
    pot[infinite] = np.copysign(HUGE, pot[infinite])
    return pot, edges


def _edges(t: float, rows: int) -> np.ndarray:
    """The edge weights of the three-point operator on ``rows`` rows: t for
    every edge, the two Dirichlet ghost edges included, as a read-only array
    that stores it once."""
    return np.broadcast_to(float(t), (rows + 1,))


def _levels(rows: int) -> int:
    """Odd/even reduction levels for a matrix of ``rows`` rows: it is
    halved while it has at least REDUCE_MIN_ROWS rows."""
    levels = 0
    while rows >= REDUCE_MIN_ROWS:
        rows = (rows + 1) // 2
        levels += 1
    return levels


def _odd_pivots(w: np.ndarray, e: np.ndarray):
    """The edges to the left and to the right of every odd row k of L(e) +
    diag(w), and the pivots p_k = e_k + e_(k+1) + w_k."""
    odd = w.size // 2
    left = e[1:2 * odd:2]
    right = e[2:2 * odd + 1:2]
    p = left + right
    p += w[1::2]
    return left, right, p


def _halve(w: np.ndarray, e: np.ndarray):
    """One odd/even (Kron) reduction level of L(e) + diag(w), or None when
    a pivot is not safe to eliminate.

    Eliminating odd row k, of pivot p = b_l + b_r + w_k, gives each even
    neighbour the load b w_k / p through its edge b, and joins the two by
    the edge b_l b_r / p.  A pivot is safe when |w_k| < p (w_k > -(b_l +
    b_r) / 2): then p > 0, and no sum in the step cancels more than half
    of its terms.
    """
    left, right, p = _odd_pivots(w, e)
    r = w[1::2] / p
    if not np.abs(r).max() < 1.0:
        return None
    return _joined(w, e, left, right, r, right / p)


def _joined(w, e, left, right, r, right_share):
    """The complement's (w, e) after the odd rows with the given edges,
    load shares r = w_k / p and right edge shares b_r / p are eliminated."""
    load = left * r
    even = _loaded(w[0::2].copy(), load, right * r, np.add)
    edges = np.empty(even.size + 1)
    edges[0], edges[-1] = e[0], e[-1]
    np.multiply(left, right_share, out=edges[1:r.size + 1])
    return even, edges


def _loaded(even, left, right, op):
    """``op`` (np.add or np.subtract) applied in place to the even rows:
    ``left`` to the row before each odd row, ``right`` to the row after it
    (the last odd row's may fall on the ground, past the last row)."""
    head = even[:left.size]
    op(head, left, out=head)
    tail = even[1:]
    op(tail, right[:tail.size], out=tail)
    return even


def _reduce(w: np.ndarray, e: np.ndarray, levels: int):
    """(w, e) of the Schur complement left by up to ``levels`` odd/even
    reductions of L(e) + diag(w), stopping at the first level with a pivot
    that is not safe (:func:`_halve`).

    Row 0 and, when len(w) - 1 is a multiple of 2^levels, the last row are
    kept, with their ghost edges.  The eliminated pivots are positive, so by
    Sylvester's law of inertia the complement has as many negative
    eigenvalues as the matrix.
    """
    for _ in range(levels):
        halved = _halve(w, e)
        if halved is None:
            break
        w, e = halved
    return w, e


def _pivots(rows, edges, d: float):
    """The pivot recursion in excess form over ``rows`` w_i, each with the
    edge b_i to the row before, continued from that row's excess d; returns
    the number of negative pivots and the last excess.

    The excess of row i is delta_i = w_i + b_i delta_(i-1) / p_(i-1), where
    p_(i-1) = b_i + delta_(i-1) is the pivot of the row before, negative
    exactly when delta_(i-1) < -b_i.  A negative pivot above -PIVOT_FLOOR
    counts as -PIVOT_FLOOR and its load b d / p is then capped at HUGE; an
    excess of -inf (a row that split the matrix, whose load is inf / inf)
    leaves the edge b as a ghost edge of the next row.
    """
    floor, huge = PIVOT_FLOOR, HUGE
    count = 0
    for w, b in zip(rows, edges):
        p = b + d
        if p < 0:
            count += 1
            if p > -floor:
                p = -floor
            load = b * (d / p)
            if not load <= huge:
                load = huge if load > 0 else b
            d = w + load
            continue
        if p < floor:
            p = floor
        d = w + b * (d / p)
    return count, d


def _sturm(pot: np.ndarray, edges: np.ndarray, lam: float) -> int:
    """One count-only sweep: the number of negative pivots of T - lam =
    L(edges) + diag(pot - lam) (:func:`_count`)."""
    with np.errstate(all="ignore"):
        return _count(pot, edges, lam, _levels(pot.size))


def _count(pot: np.ndarray, edges: np.ndarray, lam: float, levels: int) -> int:
    """:func:`_sturm` with the matrix's reduction levels (:func:`_levels`),
    under the caller's ``np.errstate``.

    The matrix is odd/even reduced (:func:`_reduce`) and the pivot
    recursion runs on the complement, from row 0's excess w_0 + e_0; its
    last pivot is the last excess plus the last (ghost) edge, which the
    reduction carries when it eliminates the last row.
    """
    w, e = _reduce(pot - lam, edges, levels)
    count, d = _pivots(w[1:].tolist(), e[1:-1].tolist(), float(w[0]) + float(e[0]))
    return count + (d + float(e[-1]) < 0)


def _laguerre_sweep(pot: np.ndarray, edges: np.ndarray, lam: float):
    """The count of :func:`_sturm` plus g = sum 1/(lam - e_j) and h = sum
    1/(lam - e_j)^2 over all eigenvalues e_j of T, in the same sweep
    (:func:`_laguerre`)."""
    with np.errstate(all="ignore"):
        return _laguerre(pot, edges, lam, _levels(pot.size))


def _laguerre(pot: np.ndarray, edges: np.ndarray, lam: float, levels: int):
    """:func:`_laguerre_sweep` with the matrix's reduction levels, under the
    caller's ``np.errstate``.

    g and -h are the first two lam-derivatives of log|det(T - lam)|.  The
    odd/even reduction splits that into sum log p over the eliminated
    pivots plus log|det S(lam)|, so each level carries the first two
    lam-derivatives of its pivots and of the complement's entries
    (:func:`_reduce_jets`), and :func:`_laguerre_pivots` runs the pivot
    recursion on the complement.  The Laguerre degree stays the order of T.
    """
    jets, g, h = _reduce_jets(pot - lam, edges, levels)
    count, g_s, h_s = _laguerre_pivots(*jets)
    return count, g + g_s, h + h_s


def _reduce_jets(w: np.ndarray, e: np.ndarray, levels: int):
    """:func:`_reduce` of T - lam = L(e) + diag(w) carrying lam-derivatives.

    Returns the complement's w and e with the first and second
    lam-derivatives of its diagonal s_i = w_i + e_i + e_(i+1) and of its
    squared edges c = e^2, (w, e, s', s'', c', c''), c' and c'' aligned with
    e; and the sums of p'/p and (p'/p)^2 - p''/p over the eliminated pivots
    p.  Before the first level s' = -1 and the rest are 0; they stay scalars
    when no level is eliminated.  The values follow the Laplacian form
    (:func:`_halve`), the derivatives the loads b^2 / p that the
    elimination takes off the diagonal s.
    """
    s1, s2, c1, c2 = -1.0, 0.0, 0.0, 0.0
    g = h = 0.0
    for _ in range(levels):
        left, right, p = _odd_pivots(w, e)
        # w_k / p as :func:`_halve` rounds it: w_k * (1 / p) can round
        # below 1 when p = w_k < 0 (edges of weight 0), and admit it
        r = w[1::2] / p
        if not np.abs(r).max() < 1.0:
            break
        inv = np.divide(1.0, p, out=p)
        right_share = right * inv
        x = left * left * inv  # the loads b^2 / p on either neighbour
        y = right * right_share
        odd, evens = inv.size, (w.size + 1) // 2
        # the complement first, so that w is freed before the jets are built
        w, e = _joined(w, e, left, right, r, right_share)
        if isinstance(s1, float):
            # T - lam, p' = -1 and edges free of lam: (1/p)' = 1/p^2, so
            # x' = x/p, x'' = 2 x/p^2, and the same for y and for c = x y
            g -= float(inv.sum())
            h += float(np.dot(inv, inv))
            x1 = x * inv
            y1 = y * inv
            s1 = _loaded(np.full(evens, -1.0), x1, y1, np.subtract)
            x1 *= inv
            y1 *= inv
            s2 = _loaded(np.zeros(evens), x1, y1, np.subtract)
            s2 *= 2.0
            c1 = np.zeros(evens + 1)
            inner = c1[1:odd + 1]
            np.multiply(x, y, out=inner)
            inner *= inv
            inner *= 2.0
            c2 = np.zeros(evens + 1)
            np.multiply(inner, inv, out=c2[1:odd + 1])
            c2 *= 3.0
        else:
            v = s1[1::2] * inv
            z = s2[1::2] * inv
            g += float(v.sum())
            h += float(np.dot(v, v) - z.sum())
            # lam-derivatives of x = c_l/p and y = c_r/p:
            # x' = (c_l' - x p')/p and x'' = (c_l'' - 2 x' p' - x p'')/p
            twice_v = v + v
            x1 = c1[1:2 * odd:2] * inv
            x1 -= x * v
            x2 = c2[1:2 * odd:2] * inv
            x2 -= x1 * twice_v
            x2 -= x * z
            y1 = c1[2:2 * odd + 1:2] * inv
            y1 -= y * v
            y2 = c2[2:2 * odd + 1:2] * inv
            y2 -= y1 * twice_v
            y2 -= y * z
            s1 = _loaded(s1[0::2].copy(), x1, y1, np.subtract)
            s2 = _loaded(s2[0::2].copy(), x2, y2, np.subtract)
            # (x y)' and (x y)'' for the squared new edges
            c1 = np.zeros(evens + 1)
            inner = c1[1:odd + 1]
            np.multiply(x1, y, out=inner)
            inner += x * y1
            c2 = np.zeros(evens + 1)
            inner = c2[1:odd + 1]
            np.multiply(x2, y, out=inner)
            inner += x * y2
            x1 *= y1
            inner += x1
            inner += x1
    return (w, e, s1, s2, c1, c2), g, h


def _laguerre_pivots(w, e, s1, s2, c1, c2):
    """Count, g and h of the pivot recursion (:func:`_pivots`) on L(e) +
    diag(w), with the first and second lam-derivatives of its diagonal
    (s1, s2) and of its squared edges (c1, c2, aligned with e), arrays or
    scalars for every row.

    g and -h are the first two lam-derivatives of sum log|p_i| over the
    pivots p_i = s_i - c_i / p_(i-1), carried as u_i = p_i'/p_i and v_i =
    p_i''/p_i.  The count is that of the pivots.  A small pivot p_i, with
    |p_i s_(i+1)| < BLOCK_PIVOT c_(i+1), makes u_i^2 - v_i and the next
    row's term large and of opposite sign, so h would keep only the digits
    that survive their cancellation: its logarithm and p_(i+1)'s enter g
    and h together as log|D|, D = p_i s_(i+1) - c_(i+1) the determinant of
    the 2x2 block of rows i and i+1, and p_(i+2) = s_(i+2) - c_(i+2) p_i / D
    takes its derivatives from the block.  A floored pivot outside a block
    (an edge of weight 0 after it) makes g and h huge or not finite, which
    the caller treats as a refused step.
    """
    rows, edges = w.tolist(), e.tolist()
    a1s, a2s, b1s, b2s = (part.tolist() if isinstance(part, np.ndarray)
                          else [part] * len(edges) for part in (s1, s2, c1, c2))
    floor, huge, alpha, inf = PIVOT_FLOOR, HUGE, BLOCK_PIVOT, math.inf
    count = 0
    g = h = 0.0
    # p_i / D and its lam-derivatives for a block that ends at this row
    block = None
    # the excess of row 0 and the lam-derivatives of its pivot
    d, un, vn = rows[0] + edges[0], a1s[0], a2s[0]
    for w, b, bn, a1, a2, b1, b2 in zip(rows[1:], edges[1:-1], edges[2:], a1s[1:],
                                        a2s[1:], b1s[1:], b2s[1:]):
        p = raw = b + d
        if p < 0:  # as in _pivots
            count += 1
            if p > -floor:
                p = -floor
            load = b * (d / p)
            if not load <= huge:
                load = huge if load > 0 else b
            inv = 1.0 / p
        else:
            if p < floor:
                p = floor
            inv = 1.0 / p
            load = b * (d * inv)
        c = b * b
        if block is not None:
            # p is the second pivot of the block; the next one is s - c m
            m, m1, m2 = block
            block = None
            un = a1 - b1 * m - c * m1
            vn = a2 - b2 * m - 2.0 * b1 * m1 - c * m2
        elif abs(raw * (w + b + bn)) < alpha * c < inf:
            # raw, the pivot as computed (not floored), and this row form
            # the block, whose determinant is D
            s = w + b + bn
            det = raw * s - c
            det1 = un * s + raw * a1 - b1
            det2 = vn * s + 2.0 * un * a1 + raw * a2 - b2
            k = det1 / det
            g += k
            h += k * k - det2 / det
            # m = p / D: m' = (p' - m D') / D, m'' = (p'' - 2 m' D' - m D'') / D
            m = raw / det
            m1 = (un - m * det1) / det
            block = (m, m1, (vn - 2.0 * m1 * det1 - m * det2) / det)
        else:
            u = un * inv
            v = vn * inv
            uu = u * u
            g += u
            h += uu - v
            # the lam-derivatives of q = c/p are r1 - q u and
            # c''/p - 2 r1 u - q (v - 2 u^2)
            q = c * inv
            r1 = b1 * inv
            vn = a2 - b2 * inv + 2.0 * r1 * u + q * (v - 2.0 * uu)
            un = a1 - r1 + q * u
        d = w + load
    p = d + edges[-1]
    if p < 0:
        count += 1
        p = min(p, -floor)
    elif p < floor:
        p = floor
    if block is None:
        u = un / p
        g += u
        h += u * u - vn / p
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


def _width_tol(a: float, b: float = 0.0) -> float:
    """The final bracket width at a level near a and b: BISECT_TOL, or 4
    ulp of the larger magnitude where that is wider."""
    return max(BISECT_TOL, 4 * math.ulp(max(abs(a), abs(b))))


def _half_width(est: float) -> float:
    """How far either side of an estimate its two certifying probes go:
    half the final bracket width, less the rounding of est +- the result,
    so that the two probes leave a bracket no wider than :func:`_width_tol`."""
    return 0.5 * _width_tol(est) - math.ulp(est)


def lowest_eigenvalues(diag, offdiag, count: int) -> list[float]:
    """Lowest eigenvalues of a symmetric tridiagonal matrix, each certified
    by Sturm counts to a bracket no wider than max(BISECT_TOL, 4 ulp).
    Matrix-level entry point; the grid solvers build on it."""
    return _lowest_eigenvalues(*_form(diag, offdiag), count)[0]


def _lowest_eigenvalues(pot, edges, count: int, seeds=(),
                        certify: bool = True) -> tuple[list[float], int]:
    """The lowest `count` eigenvalues of L(edges) + diag(pot) (float
    arrays, :func:`_form`), and the number of Sturm sweeps spent.

    Each value is the midpoint of a bracket [lo, hi] no wider than
    max(BISECT_TOL, 4 ulp) whose ends carry Sturm counts: at most k
    eigenvalues below lo and at least k + 1 below hi, for level k.  Every
    count tightens the brackets of all levels, so a level starts from what
    the sweeps of earlier levels certified.  A level's bracket is bisected
    until it holds exactly one eigenvalue (without seeds, the first count is
    at the lower of the two end rows' potentials, which bounds a well's
    levels far more tightly than the Gershgorin top); from there (or from a
    seed with k or k + 1 eigenvalues below it) Laguerre steps, safeguarded
    by the bracket, replace bisection.  Once a step crosses the level or falls
    below the final bracket width, or Laguerre's cubic convergence puts the
    error left after a step of length dist below half the final bracket
    width (dist (dist / gap)^2, gap being the distance to the nearest other
    seed or solved level), count-only probes either side of the estimate
    (:func:`_half_width`), widened after each miss, certify the final
    bracket.  Every sweep runs on the odd/even reduction of the matrix
    (:func:`_count`, :func:`_laguerre`); the reduction levels and the
    ``np.errstate`` of the sweeps are set up once per matrix.  Without
    ``certify`` a level stops at its converged Laguerre estimate instead,
    which is all a seed for a finer matrix needs; a level there with no
    other seed or solved level (level 0 of a solve without seeds) takes the
    gap its isolating bracket proves, hi - z, or the smaller of hi - z and
    z - lo above level 0.  A certified level without neighbours keeps gap 0
    and steps on, so that its value stays where its counts put it.

    ``seeds`` holds optional starting points, one per level.  A seed is used
    only when it lies inside its level's bracket, and its sweep's count
    decides what it is worth: a wrong seed or a wrong convergence estimate
    costs sweeps, never accuracy.
    """
    n = pot.size
    count = min(count, n)
    levels = _levels(n)
    # L(edges) lies between 0 and twice the diagonal of its edge weights
    bottom = float(pot.min())
    top = float(pot.max()) + 4.0 * float(edges.max())
    lo, hi = [bottom] * count, [top] * count
    clo = [0] * count  # eigenvalues below lo[k]
    chi = [n] * count  # eigenvalues below hi[k]
    sweeps = 0
    out: list[float] = []
    # the lower end potential, where a well's bound levels end
    end = min(float(pot[0]), float(pot[-1]))
    with np.errstate(all="ignore"):
        for k in range(count):
            seed = seeds[k] if k < len(seeds) else None
            if seed is not None and lo[k] < seed < hi[k]:
                x, kind = seed, "laguerre"
            elif k == 0 and len(seeds) == 0 and bottom < end < top:
                x, kind = end, "bisect"
            else:
                x, kind = 0.5 * lo[k] + 0.5 * hi[k], "bisect"
            neighbours = out + [v for j, v in enumerate(seeds)
                                if j != k and math.isfinite(v)]
            est = spread = 0.0
            # the last two step lengths: a Laguerre step must be shorter
            # than half the one before last, or bisection takes over
            before_last = last = hi[k] - lo[k]
            last_side = 0
            for _ in range(300):
                a, b = lo[k], hi[k]
                if b - a <= _width_tol(a, b):
                    break
                if kind == "laguerre":
                    c, g, h = _laguerre(pot, edges, x, levels)
                else:
                    c = _count(pot, edges, x, levels)
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
                elif kind == "laguerre" and (c == k or c == k + 1):
                    side = 1 if c == k else -1
                    dist = _laguerre_step(g, h, n, side)
                    z = x + side * dist
                    tol = _width_tol(z)
                    if math.isfinite(dist) and (side == -last_side or dist < tol):
                        # a step across the level, or one below the final
                        # bracket: z is as good as the derivatives get
                        kind = "probe"
                        est = min(max(z, lo[k]), hi[k])
                        spread = _half_width(est)
                    elif lo[k] < z < hi[k] and dist < 0.5 * before_last:
                        before_last, last = last, dist
                        x, last_side = z, side
                        if neighbours:
                            gap = min(abs(z - v) for v in neighbours)
                        elif not certify and clo[k] == k and chi[k] == k + 1:
                            # the isolated bracket holds no other level
                            gap = hi[k] - z if k == 0 else min(hi[k] - z, z - lo[k])
                        else:
                            gap = 0.0
                        if dist * dist * dist >= 0.5 * tol * gap * gap:
                            continue
                        # the step converged: certify z without another sweep
                        kind = "probe"
                        est, spread = z, _half_width(z)
                if kind == "probe" and not certify:
                    break
                if kind == "probe" and lo[k] < est - spread:
                    x = est - spread
                elif kind == "probe" and est + spread < hi[k]:
                    x = est + spread
                else:
                    x = 0.5 * lo[k] + 0.5 * hi[k]
                    before_last, last = last, 0.5 * (hi[k] - lo[k])
                    last_side = 0
                    if kind != "probe":
                        isolated = clo[k] == k and chi[k] == k + 1
                        kind = "laguerre" if isolated else "bisect"
            mid = 0.5 * lo[k] + 0.5 * hi[k]
            out.append(est if kind == "probe" and not certify else mid)
    return out, sweeps


def _operator(v_eff, x_min: float, x_max: float, intervals: int,
              units: pot.UnitsConfig):
    """Grid points, hopping t and potential (a float array) of the
    Dirichlet three-point operator on ``intervals`` uniform intervals, which
    is L(t) + diag(potential) with ghost edges t at both ends."""
    x = np.linspace(x_min, x_max, intervals + 1)
    return x, _hopping(x_min, x_max, intervals, units), np.array(v_eff(x[1:-1]), dtype=float)


def _hopping(x_min: float, x_max: float, intervals: int, units: pot.UnitsConfig) -> float:
    """The hopping t = hbar^2 / (2 m h^2) of ``intervals`` uniform intervals."""
    h = (x_max - x_min) / intervals
    return units.hbar**2 / (2 * units.mass * h * h)


def _check_intervals(intervals: int) -> None:
    """Refuse an h grid of more than MAX_INTERVALS intervals before any
    array of it is built."""
    if intervals > MAX_INTERVALS:
        raise GridTooLarge(
            f"the oracle grid needs {intervals} intervals at h, above the cap of "
            f"{MAX_INTERVALS}")


def _solve(v_eff, x_min: float, x_max: float, intervals: int,
           units: pot.UnitsConfig, count: int, seeds=(), certify: bool = True):
    """The lowest eigenvalues of the operator on ``intervals`` intervals,
    and the Sturm sweeps spent."""
    _, t, pot = _operator(v_eff, x_min, x_max, intervals, units)
    return _lowest_eigenvalues(pot, _edges(t, pot.size), count, seeds, certify)


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
    ``v_eff`` is called on two arrays, the seed grid and the h/2 grid: the
    h matrix reads the h/2 potential's odd interior points, which are the
    h grid's interior points (``np.linspace`` gives both grids the same
    values there).  Without ``refine`` it is called on the h grid instead.

    Raises GridTooLarge, before building any matrix, when the grid has more
    than MAX_INTERVALS intervals.
    """
    intervals = grid.n_points - 1
    _check_intervals(intervals)
    x_min, x_max = grid.x_min, grid.x_max
    seeds, seed_sweeps = (), 0
    if intervals // SEED_COARSENING >= SEED_MIN_INTERVALS:
        seeds, seed_sweeps = _solve(v_eff, x_min, x_max, intervals // SEED_COARSENING,
                                    units, count, certify=False)
    if not refine:
        base, sweeps = _solve(v_eff, x_min, x_max, intervals, units, count, seeds)
        return _FDResult(np.asarray(base), 0.0, (sweeps, 0), seed_sweeps)
    _, t_half, pot_half = _operator(v_eff, x_min, x_max, 2 * intervals, units)
    pot_h = pot_half[1::2]
    t = _hopping(x_min, x_max, intervals, units)
    base, sweeps = _lowest_eigenvalues(pot_h, _edges(t, pot_h.size), count, seeds)
    fine, fine_sweeps = _lowest_eigenvalues(pot_half, _edges(t_half, pot_half.size),
                                            count, base)
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
    is only flagged on the returned spectrum, and GridTooLarge for a grid of
    more than MAX_INTERVALS intervals.
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
                   index: int):
    """Grid eigenfunction u(x) of the index-th bound level by inverse
    iteration at the converged grid eigenvalue.

    Returns (x, u) on the full grid (Dirichlet zeros included), normalized
    so the Simpson integral of u^2 is 1, with the first significant lobe
    positive.  Radial problems return the reduced function u = r R.
    """
    grid = _effective_grid(spec, grid)
    _check_intervals(grid.n_points - 1)

    def v_eff(x):
        return pot.effective_potential(spec, l, units, x)

    x, t, potential = _operator(v_eff, grid.x_min, grid.x_max, grid.n_points - 1, units)
    lam = _lowest_eigenvalues(potential, _edges(t, potential.size), index + 1)[0][index]
    diag = 2.0 * t + potential

    n = len(diag)
    sub = np.full(n - 1, -t)
    shifted = diag - lam
    rng = np.random.default_rng(20240817)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(20):
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
