"""Self-validation of the finite-difference verifier: Sturm counting against
closed-form tridiagonal spectra, quadrature exactness, node counting, and
oracle-vs-analytic agreement."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specbound import (
    Coulomb,
    DeformedRosenMorse,
    GeneralizedMorse,
    GridTooCoarse,
    GridTooLarge,
    InvalidParameters,
    KratzerFues,
    Mie,
    NoncentralRadial,
    PoschlTeller,
    Pseudoharmonic,
    RadialGrid,
    TooFewSamples,
    UnitsConfig,
    WoodsSaxon,
    compare_spectra,
    count_nodes,
    default_grid,
    effective_potential,
    fd_eigenvalues,
    fd_eigenvalues_from_callable,
    fd_eigenvector,
    lowest_eigenvalues,
    simpson_integrate,
    spectrum,
    sturm_count,
    wavefunction,
)
from specbound import oracle, potentials
from specbound.oracle import (
    _edges,
    _form,
    _laguerre_sweep,
    _levels,
    _lowest_eigenvalues,
    _sturm,
)
from support import CATALOG, CATALOG_IDS

UNITS = UnitsConfig()


# ------------------------------------------------------------- sturm counting

def test_sturm_count_tiny_matrices():
    assert sturm_count([2.0], [], 3.0) == 1
    assert sturm_count([2.0], [], 1.0) == 0
    # eigenvalues of [[2,-1],[-1,2]] are 1 and 3
    assert sturm_count([2.0, 2.0], [-1.0], 1.5) == 1
    assert sturm_count([2.0, 2.0], [-1.0], 0.5) == 0
    assert sturm_count([2.0, 2.0], [-1.0], 3.5) == 2


def test_sturm_count_validates_lengths():
    with pytest.raises(InvalidParameters):
        sturm_count([1.0, 2.0], [0.5, 0.5], 0.0)


def test_sturm_count_discrete_laplacian():
    # closed-form spectrum of the N x N second-difference matrix:
    # 2 t (1 - cos(k pi / (N + 1)))
    n, t = 100, 1.0
    diag = [2.0 * t] * n
    off = [-t] * (n - 1)
    exact = [2 * t * (1 - math.cos((k + 1) * math.pi / (n + 1))) for k in range(n)]
    mid = 0.5 * (exact[49] + exact[50])
    assert sturm_count(diag, off, mid) == 50
    for lam, expect in [(exact[0] - 1e-9, 0), (exact[0] + 1e-9, 1),
                        (exact[-1] + 1e-9, n)]:
        assert sturm_count(diag, off, lam) == expect


def test_bisection_matches_toeplitz_spectrum():
    n, t = 50, 1.0
    values = lowest_eigenvalues([2.0 * t] * n, [-t] * (n - 1), n)
    exact = [2 * t * (1 - math.cos((k + 1) * math.pi / (n + 1))) for k in range(n)]
    assert np.allclose(values, exact, atol=1e-10)



def _assert_lowest_match_eigvalsh(diag, off, count):
    matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    exact = np.linalg.eigvalsh(matrix)[:count]
    values = lowest_eigenvalues(diag, off, count)
    # the certified bracket is at most 1e-12 wide; the rest is rounding in
    # the Sturm recursion and in LAPACK, a few ulp of the matrix norm
    tol = 1e-12 + 64 * np.finfo(float).eps * np.max(np.abs(matrix))
    assert len(values) == len(exact)
    assert np.allclose(values, exact, rtol=0.0, atol=tol)


_entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.lists(_entries, min_size=n, max_size=n),
                        st.lists(_entries, min_size=n - 1, max_size=n - 1),
                        st.integers(1, n))))
def test_lowest_eigenvalues_match_eigvalsh(matrix):
    diag, off, count = matrix
    _assert_lowest_match_eigvalsh(diag, off, count)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=30))
def test_lowest_eigenvalues_repeated_without_coupling(diag):
    # zero off-diagonals give exactly repeated eigenvalues: no bracket ever
    # holds a single one, and every count jumps past some levels
    diag = [float(v) for v in diag]
    _assert_lowest_match_eigvalsh(diag, [0.0] * (len(diag) - 1), len(diag))


@settings(max_examples=50, deadline=None)
@given(st.lists(_entries, min_size=2, max_size=40))
def test_lowest_eigenvalues_whole_spectrum(diag):
    n = len(diag)
    off = [0.5 + 0.1 * i for i in range(n - 1)]
    _assert_lowest_match_eigvalsh(diag, off, n)


_huge = st.floats(1e300, 1e307).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.lists(st.one_of(_huge, _entries), min_size=n, max_size=n),
                        st.lists(_entries, min_size=n - 1, max_size=n - 1))))
def test_finite_diagonal_entries_above_huge_are_kept(matrix):
    # only infinite entries are clamped to HUGE: finite diagonal entries up
    # to 1e307 give the spectrum of the matrix as given
    diag, off = matrix
    assume(max(abs(v) for v in diag) > oracle.HUGE)
    _assert_lowest_match_eigvalsh(diag, off, len(diag))
    exact = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    assert sturm_count(diag, off, 1.1 * float(np.max(np.abs(exact)))) == len(diag)


def test_wrong_seeds_still_give_the_spectrum():
    n, t = 60, 1.0
    pot, edges = _form([2.0 * t] * n, [-t] * (n - 1))
    exact = [2 * t * (1 - math.cos((k + 1) * math.pi / (n + 1))) for k in range(4)]
    gap = exact[1] - exact[0]
    bad_seeds = [
        exact[::-1],                          # every seed at another level
        [1e6, -1e6, 4.0, 0.0],                # outside the spectrum or far off
        [e + 0.5 * gap for e in exact],       # between levels
        [exact[0]] * 4,                       # one seed for all
        [math.nan, math.inf, -math.inf, exact[3]],
        exact[:2],                            # fewer seeds than levels
    ]
    unseeded, *_ = _lowest_eigenvalues(pot, edges, 4)
    assert np.allclose(unseeded, exact, rtol=0.0, atol=1e-12)
    for seeds in bad_seeds:
        values, *_ = _lowest_eigenvalues(pot, edges, 4, seeds=seeds)
        assert np.allclose(values, exact, rtol=0.0, atol=1e-12), seeds
    # seeds sitting exactly on eigenvalues of a decoupled matrix hit the
    # pivot floor
    pot, edges = _form([3.0, 1.0, 2.0, 1.0], [0.0] * 3)
    values, *_ = _lowest_eigenvalues(pot, edges, 4, seeds=[1.0, 1.0, 2.0, 3.0])
    assert np.allclose(values, [1.0, 1.0, 2.0, 3.0], rtol=0.0, atol=1e-12)


def test_sturm_sweep_budget_coulomb():
    # three Coulomb levels on the default grid: 162 sweeps at h and 168 at
    # h/2 with plain bisection from the Gershgorin bounds
    spec = Coulomb(e2=1.0)
    first = fd_eigenvalues(spec, 0, UNITS, count=3)
    at_h, at_half_h = first.sturm_sweeps
    assert at_h <= 50 and at_half_h <= 30
    assert fd_eigenvalues(spec, 0, UNITS, count=3).sturm_sweeps == first.sturm_sweeps


def test_sturm_sweep_budget_pseudoharmonic():
    # three pseudoharmonic levels on the default grid: 33 sweeps at h and 40
    # at h/2 before the sweeps resolved a level to ~1e-15, when counts and
    # Laguerre estimates disagreed by up to 6e-11 and probes had to widen
    spec = Pseudoharmonic(V0=2.0, r0=1.0)
    first = fd_eigenvalues(spec, 0, UNITS, count=3)
    at_h, at_half_h = first.sturm_sweeps
    assert at_h <= 24 and at_half_h <= 14
    assert fd_eigenvalues(spec, 0, UNITS, count=3).sturm_sweeps == first.sturm_sweeps


def test_seed_solve_sweep_budget_coulomb():
    # the h solve starts from the Langer-WKB levels of its own potential, on
    # every grid: a small grid of 399 intervals is seeded too (34 sweeps at
    # h without seeds)
    spec = Coulomb(e2=1.0)
    first = fd_eigenvalues(spec, 0, UNITS, count=3)
    assert first.sturm_sweeps[0] <= 20
    assert fd_eigenvalues(spec, 0, UNITS, count=3).sturm_sweeps == first.sturm_sweeps
    small = fd_eigenvalues(spec, 0, UNITS, grid=RadialGrid(0.0, 40.0, 400), count=3,
                           strict_grid=False)
    assert small.sturm_sweeps[0] <= 20


def test_seed_solves_start_below_the_end_potential(monkeypatch):
    # the nine desk rows' h matrices as `verify --n-max 2` builds them: a
    # solve without seeds counts first at the lower of its end rows'
    # potentials, which bounds every well's levels, when it lies above the
    # lowest row; the nine certified solves take 188 sweeps, and 278 when
    # they bisect from halfway up to the Gershgorin top instead (Morse 23
    # against 6)
    desk = [GeneralizedMorse(V1=100.0, V2=20.0, a=1.0), Mie(V0=5.0, a=1.0),
            KratzerFues(De=10.0, re=1.0), Coulomb(e2=1.0), Pseudoharmonic(V0=2.0, r0=1.0),
            NoncentralRadial(alpha=-1.0, lam=0.0),
            DeformedRosenMorse(V1=4.0, V2=8.0, a=0.5, eta=1.0),
            WoodsSaxon(V1=5.0, V2=10.0, a=1.0), PoschlTeller(V0=10.0, a=1.0, eta=1.0)]
    shifts = []
    count_sweep = oracle._count

    def recorded(pot, edges, lam, *args):
        shifts.append(lam)
        return count_sweep(pot, edges, lam, *args)

    monkeypatch.setattr(oracle, "_count", recorded)
    total = 0
    for spec in desk:
        count = len(spectrum(spec, 0, UNITS, n_max=2))
        grid = oracle._effective_grid(spec, default_grid(spec, 0, UNITS, n_max=count - 1))
        _, t, pot = oracle._operator(lambda x: effective_potential(spec, 0, UNITS, x),
                                     grid.x_min, grid.x_max, grid.n_points - 1, UNITS)
        shifts.clear()
        total += _lowest_eigenvalues(pot, _edges(t, pot.size), count)[1]
        end = min(pot[0], pot[-1])
        if end > pot.min():
            assert shifts[0] == end
        else:
            # the Coulomb row at r = h is the lowest: it bounds no level
            assert spec.family in ("coulomb", "noncentral_radial")
    assert total <= 188


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("the oracle built a matrix")


@pytest.mark.parametrize("spec, l, units, intervals", [
    (Coulomb(e2=0.0954), 2, UnitsConfig(hbar=9.47, mass=0.605), 24075032),
    (NoncentralRadial(alpha=-0.02, lam=0.0308), 0, UnitsConfig(hbar=6.33, mass=0.115),
     125443817),
])
def test_grids_above_the_row_cap_are_refused_before_any_matrix(spec, l, units, intervals,
                                                               monkeypatch):
    # float64 arrays of these h/2 grids would take 0.4 and 2 GB each
    monkeypatch.setattr(oracle, "_operator", _refuse_to_build)
    with pytest.raises(GridTooLarge, match=f"needs {intervals} intervals"):
        fd_eigenvalues(spec, l, units, count=4)
    grid = default_grid(spec, l, units, n_max=3)
    with pytest.raises(GridTooLarge):
        fd_eigenvector(spec, l, units, grid, 0)
    assert grid.n_points - 1 == intervals > oracle.MAX_INTERVALS


def test_row_cap_admits_the_largest_grid_that_passes():
    # verify --hbar 30 (Coulomb e2 = 1) passes on 3644999 intervals
    units = UnitsConfig(hbar=30.0)
    assert default_grid(Coulomb(e2=1.0), 0, units, n_max=2).n_points - 1 == 3644999
    assert 3644999 <= oracle.MAX_INTERVALS
    oracle._check_intervals(oracle.MAX_INTERVALS)


def test_fd_eigenvalues_evaluates_the_potential_on_one_array(monkeypatch):
    # the h/2 grid, whose odd interior points are the h grid's interior
    # points bit for bit; the h solve is seeded from the Langer-WKB levels of
    # that potential, the h/2 solve from the h values
    spec = Coulomb(e2=1.0)
    grid = default_grid(spec, 0, UNITS, n_max=2)
    intervals = grid.n_points - 1
    evaluated = []
    v_eff = potentials.effective_potential

    def recorded(*args):
        evaluated.append(np.array(args[3]))
        return v_eff(*args)

    monkeypatch.setattr(potentials, "effective_potential", recorded)
    solved = fd_eigenvalues(spec, 0, UNITS, grid=grid, count=3)
    assert [x.size for x in evaluated] == [2 * intervals - 1]
    x = np.linspace(grid.x_min, grid.x_max, intervals + 1)
    assert np.array_equal(evaluated[0][1::2], x[1:-1])

    pot = v_eff(spec, 0, UNITS, x[1:-1])
    t = oracle._hopping(grid.x_min, grid.x_max, intervals, UNITS)
    seeds = oracle._wkb_levels(pot + 1.0 / (8.0 * x[1:-1] ** 2), t, 3)
    base, *_ = _lowest_eigenvalues(pot, _edges(t, pot.size), 3, seeds)
    half = np.linspace(grid.x_min, grid.x_max, 2 * intervals + 1)[1:-1]
    pot_half = v_eff(spec, 0, UNITS, half)
    t_half = oracle._hopping(grid.x_min, grid.x_max, 2 * intervals, UNITS)
    fine, *_ = _lowest_eigenvalues(pot_half, _edges(t_half, pot_half.size), 3, base)
    rich = (4.0 * np.asarray(fine) - np.asarray(base)) / 3.0
    assert solved.eigenvalues == tuple(rich.tolist())


@pytest.mark.parametrize("spec, l, units", [
    (Coulomb(e2=1.0), 0, UNITS), (Coulomb(e2=1.0), 1, UNITS),
    (Coulomb(e2=1.0), 0, UnitsConfig(hbar=2.0)), (Mie(V0=5.0, a=1.0), 2, UNITS),
    (KratzerFues(De=10.0, re=1.0), 0, UnitsConfig(mass=0.5)),
    (Pseudoharmonic(V0=2.0, r0=1.0), 1, UNITS),
    (GeneralizedMorse(V1=100.0, V2=20.0, a=1.0), 0, UnitsConfig(mass=4.0)),
    (DeformedRosenMorse(V1=4.0, V2=8.0, a=0.5, eta=1.0), 0, UNITS),
    (WoodsSaxon(V1=5.0, V2=10.0, a=1.0), 0, UNITS),
    (PoschlTeller(V0=10.0, a=1.0, eta=1.0), 0, UnitsConfig(hbar=0.5)),
], ids=lambda v: getattr(v, "family", ""))
def test_h_grid_is_the_odd_interior_of_the_half_grid(spec, l, units):
    # np.linspace forms point j of N intervals as j (span / N) + x_min and
    # point 2j of 2N intervals as 2j (span / 2N) + x_min: the same product
    grid = oracle._effective_grid(spec, default_grid(spec, l, units, n_max=2))
    intervals = grid.n_points - 1
    half = np.linspace(grid.x_min, grid.x_max, 2 * intervals + 1)[1:-1]
    assert np.array_equal(half[1::2], np.linspace(grid.x_min, grid.x_max,
                                                  intervals + 1)[1:-1])


def _excess_loads(pot, edges, lam):
    """The unreduced pivot recursion in excess form over every row of
    L(edges) + diag(pot - lam): for each pivot p = b + delta, with b the
    edge to the next row (the ghost edge after the last row), the tuple
    (p, b, delta, next row's w or None).  A pivot is negative exactly when
    delta < -b; a floored one and an excess of -inf load the next row as
    _sturm does."""
    rows = (np.asarray(pot, dtype=float) - lam).tolist()
    d = rows[0] + float(edges[0])
    for b, w in zip(np.asarray(edges, dtype=float)[1:].tolist(), rows[1:] + [None]):
        p = b + d
        yield p, b, d, w
        if w is None:
            return
        if p < 0:
            load = b if d == -math.inf else min(b * (d / min(p, -1e-300)), 1e300)
        else:
            load = b * (d / max(p, 1e-300))
        d = w + load


def _full_sturm(pot, edges, lam):
    """The pivot recursion over every row: the count the reduction of
    _sturm must reproduce."""
    return sum(p < 0 for p, *_ in _excess_loads(pot, edges, lam))


def _offdiagonals(n, entries=_entries):
    return st.one_of(
        st.lists(entries, min_size=n - 1, max_size=n - 1),
        entries.map(lambda b: [b] * (n - 1)),
        st.just([0.0] * (n - 1)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_sturm_count_matches_full_recursion(data):
    n = data.draw(st.integers(1, 40))
    diag = data.draw(st.lists(_entries, min_size=n, max_size=n))
    off = data.draw(_offdiagonals(n))
    pot, edges = _form(diag, off)
    matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    # shifts on, next to and far from the eigenvalues, the diagonal entries
    # and the potential, where a w = pot - lam changes sign
    anchors = [*np.linalg.eigvalsh(matrix), *diag, *pot, 0.0]
    anchor = float(data.draw(st.sampled_from(anchors)))
    offset = data.draw(st.one_of(st.sampled_from([0.0, 1e-12, -1e-12, 100.0, -100.0]),
                                 st.floats(-1e-12, 1e-12), st.floats(-30.0, 30.0)))
    for lam in (anchor + offset, math.nextafter(anchor, math.inf),
                math.nextafter(anchor, -math.inf)):
        assert _sturm(pot, edges, lam) == _full_sturm(pot, edges, lam)


def test_sturm_count_with_infinite_diagonal_entries():
    # a row with an infinite diagonal is clamped to HUGE and splits the
    # matrix: the counts are those of the blocks on either side
    inf = math.inf
    for diag in ([5.0, inf, -3.0, 10.0], [inf, 1.0, -2.0, 4.0, 9.0],
                 [1.0, -inf, 2.0, 8.0], [2.0, 3.0, inf, -1.0, inf, 0.5, 7.0]):
        pot, edges = _form(diag, [1.0] * (len(diag) - 1))
        eigenvalues = _block_eigenvalues(diag, [1.0] * (len(diag) - 1))
        for lam in (-20.0, -5.0, 0.0, 0.5, 1.0, 3.0, 6.5, 20.0):
            count = _sturm(pot, edges, lam)
            assert count == _full_sturm(pot, edges, lam)
            assert count == int(np.sum(eigenvalues < lam))


@pytest.mark.parametrize("spec, grid", [
    (Coulomb(e2=1.0), RadialGrid(0.0, 80.0, 6000)),
    (GeneralizedMorse(100.0, 20.0, 1.0), RadialGrid(-2.3, 21.4, 4000)),
    (DeformedRosenMorse(4.0, 8.0, 0.5, 1.0), RadialGrid(-30.0, 30.0, 4000)),
])
def test_sturm_count_on_oracle_matrices(spec, grid, monkeypatch):
    pot, edges, _ = _oracle_matrix(spec, grid)
    levels = _lowest_eigenvalues(pot, edges, 2)[0]
    # the ends of the certified bracket rather than its midpoint, where the
    # reduced and the unreduced recursion may round to different counts
    half = 0.5 * oracle._width_tol(levels[0])
    lams = [levels[0] + d for d in (-half, half, 1e-12, -1e-12, 1e-6, -1e-6, 0.1)]
    lams += [float(v) for v in pot[:: pot.size // 7]]
    for lam in lams:
        assert _sturm(pot, edges, lam) == _full_sturm(pot, edges, lam), lam
    # a count between the two lowest levels reduces the whole matrix: the
    # pivot recursion sees fewer than REDUCE_MIN_ROWS rows of it
    read = []
    pivots = oracle._pivots

    def counted(rows, *args):
        read.append(len(rows))
        return pivots(rows, *args)

    monkeypatch.setattr(oracle, "_pivots", counted)
    assert _sturm(pot, edges, 0.5 * (levels[0] + levels[1])) == 1
    assert sum(read) < oracle.REDUCE_MIN_ROWS


def test_oracle_never_calls_the_closed_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called a closed form")

    monkeypatch.setattr(potentials, "closed_form_energy", refuse)
    for family in potentials.FAMILIES.values():
        monkeypatch.setattr(family, "closed_form", refuse)
    spec = Coulomb(e2=1.0)
    grid = RadialGrid(0.0, 80.0, 6000)
    values, shift = fd_eigenvalues_from_callable(
        lambda x: effective_potential(spec, 0, UNITS, x), grid, UNITS, count=3, radial=True)
    assert shift < 1e-4
    for v, exact in zip(values, [-0.5, -0.125, -1.0 / 18.0]):
        assert abs(v - exact) < 1e-5 * abs(exact)
    oracle = fd_eigenvalues(spec, 0, UNITS, grid=grid, count=3)
    assert oracle.eigenvalues == tuple(float(v) for v in values)


@pytest.mark.parametrize("spec, grid", [
    (Coulomb(e2=1.0), RadialGrid(0.0, 40.0, 801)),
    (Pseudoharmonic(V0=2.0, r0=1.0), RadialGrid(0.0, 6.0, 801)),
])
def test_seeded_solves_match_eigvalsh(spec, grid):
    def v_eff(x):
        return effective_potential(spec, 0, UNITS, x)

    def dense(intervals):
        x = np.linspace(grid.x_min, grid.x_max, intervals + 1)
        t = 1.0 / (2 * ((grid.x_max - grid.x_min) / intervals) ** 2)
        pot = v_eff(x[1:-1])
        diag = 2 * t + pot
        off = np.full(diag.size - 1, -t)
        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        return diag.tolist(), (pot, _edges(t, pot.size)), np.linalg.eigvalsh(matrix)[:3]

    def tolerance(diag):
        # the 1e-12 bracket plus rounding of the Sturm recursion and of
        # LAPACK, a few ulp of the matrix norm (the pseudoharmonic barrier
        # puts 5e4 on the diagonal next to r = 0)
        return 1e-12 + 64 * np.finfo(float).eps * max(abs(v) for v in diag)

    # h, seeded from the Langer-WKB levels of its potential
    solved = fd_eigenvalues_from_callable(v_eff, grid, UNITS, count=3, refine=False,
                                          radial=True)
    diag, _, exact = dense(grid.n_points - 1)
    assert np.allclose(solved[0], exact, rtol=0.0, atol=tolerance(diag))
    # h/2, seeded from h
    diag, operator, exact = dense(2 * (grid.n_points - 1))
    values, *_ = _lowest_eigenvalues(*operator, 3, seeds=list(solved[0]))
    assert np.allclose(values, exact, rtol=0.0, atol=tolerance(diag))


def _wkb_bound(spec, l):
    """The measured worst relative error of the Langer-WKB seeds on the
    catalog rows, rounded up: 7.9e-2 on the step wells (Rosen-Morse), 4.8e-3
    on Coulomb at l = 0 (e2 = 2), whose inner turning point lies a few
    rows from the origin, and 3.5e-4 elsewhere (Morse, mass 4)."""
    if spec.family in ("rosen_morse", "woods_saxon", "poschl_teller"):
        return 1e-1
    if spec.family in ("coulomb", "noncentral_radial") and l == 0:
        return 1e-2
    return 1e-3


@pytest.mark.parametrize("spec, l, units", CATALOG, ids=CATALOG_IDS)
def test_wkb_seeds_lie_near_the_certified_levels(spec, l, units):
    count = len(spectrum(spec, l, units, n_max=2))
    grid = oracle._effective_grid(spec, default_grid(spec, l, units, n_max=count - 1))
    x, t, pot = oracle._operator(lambda x: effective_potential(spec, l, units, x),
                                 grid.x_min, grid.x_max, grid.n_points - 1, units)
    v = pot
    if spec.radial:
        v = pot + units.hbar**2 / (8.0 * units.mass) / x[1:-1] ** 2
    seeds = oracle._wkb_levels(v, t, count)
    assert len(seeds) == count
    assert all(math.isfinite(e) for e in seeds)
    assert all(a < b for a, b in zip(seeds, seeds[1:]))
    certified, *_ = _lowest_eigenvalues(pot, _edges(t, pot.size), count)
    for seed, level in zip(seeds, certified):
        assert abs(seed - level) <= _wkb_bound(spec, l) * abs(level)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_seeds_change_sweeps_never_values(data):
    # smooth wells and rough potentials on small grids, radial or not: the
    # WKB-seeded and the unseeded certified solves agree within the widths
    # of their certified brackets
    intervals = data.draw(st.integers(3, 300))
    span = data.draw(st.floats(0.5, 50.0))
    x = np.linspace(0.0, span, intervals + 1)[1:-1]
    if data.draw(st.booleans()):
        depth, width = data.draw(st.floats(-50.0, 50.0)), data.draw(st.floats(0.05, 1.0))
        centre = data.draw(st.floats(0.0, 1.0)) * span
        pot = -depth * np.exp(-((x - centre) / (width * span)) ** 2)
    else:
        pot = np.array(data.draw(st.lists(_entries, min_size=x.size, max_size=x.size)))
    units = UnitsConfig(hbar=data.draw(st.floats(0.1, 10.0)))
    radial = data.draw(st.booleans())
    count = data.draw(st.integers(1, min(6, x.size)))
    t = oracle._hopping(0.0, span, intervals, units)
    seeded, *_ = oracle._seeded_solve(pot, x, t, units, count, radial)
    unseeded, *_ = _lowest_eigenvalues(pot, _edges(t, pot.size), count)
    for a, b in zip(seeded, unseeded):
        assert abs(a - b) <= oracle._width_tol(a, b)


# ------------------------------------------------------------- sweep windows

def _laplacian_matrices(n):
    """(pot, edges) of L(edges) + diag(pot) on n rows: uniform edges t or
    edges within 10% of t, ghost edges included, and a smooth well whose
    tails climb to 20 t, or a rough potential, random in [-t, 20 t]."""
    def matrix(t):
        edges = st.one_of(st.just([t] * (n + 1)),
                          st.lists(st.floats(0.9 * t, 1.1 * t), min_size=n + 1,
                                   max_size=n + 1))
        well = st.tuples(st.floats(0.2, 0.8), st.floats(20.0, 400.0)).map(
            lambda cw: [cw[1] * t * (i / n - cw[0]) ** 2 - t for i in range(n)])
        rough = st.lists(st.floats(-t, 20.0 * t), min_size=n, max_size=n)
        return st.tuples(st.one_of(well, rough), edges).map(
            lambda pe: (np.array(pe[0]), np.array(pe[1])))

    return st.floats(0.5, 10.0).flatmap(matrix)


def _spectrum(pot, edges):
    """Every eigenvalue of L(edges) + diag(pot), from LAPACK."""
    diag = pot + edges[:-1] + edges[1:]
    return np.linalg.eigvalsh(np.diag(diag) - np.diag(edges[1:-1], 1)
                              - np.diag(edges[1:-1], -1))


def _window_counts(pot, edges, lam, start, stop, levels, cut):
    """The two counts of a sweep on the rows [start, stop) (_count): with
    the cut edges as ghost edges, and with them at 0."""
    with np.errstate(all="ignore"):
        return oracle._count(pot[start:stop], edges[start:stop + 1], lam, levels, cut)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_counts_bound_the_matrix_count(data):
    # rows outside the window have pot > lam: the count with the cut edges
    # kept (Dirichlet) is at most the whole matrix's, the count with them
    # at 0 (Neumann) at least; both are the unreduced counts of those two
    # matrices, away from the eigenvalues of all three
    floor = data.draw(st.sampled_from([4, 8, 16]))
    n = data.draw(st.integers(2, 8 * floor))
    pot, edges = data.draw(_laplacian_matrices(n))
    eigenvalues = _spectrum(pot, edges)
    lam = float(data.draw(st.sampled_from(eigenvalues[:max(1, n // 4)].tolist()))
                + data.draw(st.floats(-3.0, 3.0)) * edges.max())
    below = np.flatnonzero(pot <= lam)
    first, last = (int(below[0]), int(below[-1])) if below.size else (n // 2, n // 2)
    start = data.draw(st.integers(0, first))
    stop = data.draw(st.integers(last + 1, n))
    # as many reduction levels as keep the window's last row
    size = stop - start
    with mock.patch.object(oracle, "REDUCE_MIN_ROWS", floor):
        levels = _levels(size)
    while (size - 1) % (1 << levels):
        levels -= 1
    cut = (start > 0, stop < n)
    free = edges[start:stop + 1].copy()
    free[0] = 0.0 if cut[0] else free[0]
    free[-1] = 0.0 if cut[1] else free[-1]
    window = pot[start:stop]
    band = _band([*pot, *edges], [])
    for values in (eigenvalues, _spectrum(window, edges[start:stop + 1]),
                   _spectrum(window, free)):
        assume(np.min(np.abs(values - lam)) > band)
    low, high = _window_counts(pot, edges, lam, start, stop, levels, cut)
    assert low == _full_sturm(window, edges[start:stop + 1], lam)
    assert high == _full_sturm(window, free, lam)
    assert low <= _sturm(pot, edges, lam) <= high


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_oracle_windows_count_as_the_whole_matrix(data):
    # a window the oracle chooses at an energy reaches WINDOW_PHI decay
    # lengths into either tail: at every shift below that energy and at
    # least 1e-9 from an eigenvalue its two counts are the whole matrix's;
    # past 256 rows the window reads every s-th row
    floor = data.draw(st.sampled_from([4, 8, 16]))
    n = data.draw(st.integers(2, 8 * floor) | st.integers(257, 600))
    pot, edges = data.draw(_laplacian_matrices(n))
    eigenvalues = _spectrum(pot, edges)
    k = data.draw(st.integers(0, min(n - 1, 5)))
    energy = float(eigenvalues[k]) + data.draw(st.floats(0.0, 1.0)) * float(
        eigenvalues[k + 1] - eigenvalues[k] if k + 1 < n else edges.max())
    with mock.patch.object(oracle, "REDUCE_MIN_ROWS", floor):
        start, stop, levels, cut = oracle._window(pot, float(edges.max()), energy)
    assert 0 <= start < stop <= n
    assert cut == (start > 0, stop < n)
    assert np.all(pot[:start] >= energy) and np.all(pot[stop:] >= energy)
    inside = eigenvalues[eigenvalues < energy]
    lams = [*(inside - 1e-9), *(inside + 1e-9), *(0.5 * (inside[1:] + inside[:-1])),
            math.nextafter(energy, -math.inf), energy - data.draw(st.floats(0.0, 10.0))]
    for lam in lams:
        if lam >= energy or np.min(np.abs(eigenvalues - lam)) < 1e-9:
            continue
        full = _sturm(pot, edges, lam)
        assert _window_counts(pot, edges, lam, start, stop, levels, cut) == (full, full)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_narrow_windows_change_sweeps_never_values(data):
    # windows that reach only a fraction of a decay length into the tails:
    # their two counts often differ next to a level, whose sweeps then run
    # on the whole matrix, and the values stay LAPACK's within the bracket
    # width and the rounding of the counts
    phi = data.draw(st.sampled_from([0.0, 0.5, 2.0]))
    n = data.draw(st.integers(2, 300))
    pot, edges = data.draw(_laplacian_matrices(n))
    eigenvalues = _spectrum(pot, edges)
    count = min(n, 6)
    offsets = data.draw(st.lists(st.floats(-0.1, 0.1), min_size=count, max_size=count))
    seeds = [float(e) + r * float(edges.max()) for e, r in zip(eigenvalues, offsets)]
    with mock.patch.object(oracle, "WINDOW_PHI", phi):
        values, *_ = _lowest_eigenvalues(pot, edges, count, seeds)
    band = _band([*pot, *edges], [])
    for value, exact in zip(values, eigenvalues):
        assert abs(value - exact) <= oracle._width_tol(value) + band


@pytest.mark.parametrize("spec, l, units", CATALOG, ids=CATALOG_IDS)
def test_windowed_levels_hold_against_whole_matrix_counts(spec, l, units):
    # the h and h/2 solves as fd_eigenvalues_from_callable runs them, levels
    # 0 to 2: each value is certified by counts of the whole matrix at
    # value +- half its final bracket width, and the sweeps ran on fewer
    # rows than the matrices hold
    grid = oracle._effective_grid(spec, default_grid(spec, l, units, n_max=2))
    intervals = grid.n_points - 1
    x, t_half, pot_half = oracle._operator(lambda x: effective_potential(spec, l, units, x),
                                           grid.x_min, grid.x_max, 2 * intervals, units)
    pot = pot_half[1::2]
    t = oracle._hopping(grid.x_min, grid.x_max, intervals, units)
    base, sweeps, rows = oracle._seeded_solve(pot, x[2:-1:2], t, units, 3, spec.radial)
    fine, fine_sweeps, fine_rows = _lowest_eigenvalues(
        pot_half, _edges(t_half, pot_half.size), 3, base)
    for values, potential, hopping in ((base, pot, t), (fine, pot_half, t_half)):
        edges = _edges(hopping, potential.size)
        for k, value in enumerate(values):
            half = 0.5 * oracle._width_tol(value)
            assert _sturm(potential, edges, value - half) == k, (k, value)
            assert _sturm(potential, edges, value + half) == k + 1, (k, value)
    assert rows < sweeps * pot.size and fine_rows < fine_sweeps * pot_half.size


# ------------------------------------------------------ odd/even reduction

EPS = np.finfo(float).eps


def _full_laguerre(pot, edges, lam):
    """The count, g and h of the pivot recursion in excess form over every
    row of T - lam: the unreduced Laguerre sweep the reduced one replaces.
    Each pivot p_i = b_i + delta_i has p_i' = -1 + q u and p_i'' = q (v -
    2 u^2), with q = b_(i-1)^2 / p_(i-1), u and v the previous pivot's
    p'/p and p''/p."""
    floor = 1e-300
    count, g, h = 0, 0.0, 0.0
    u1, u2 = -1.0, 0.0  # p' and p'' of the current pivot
    for p, b, _, w in _excess_loads(pot, edges, lam):
        if p < 0:
            count += 1
            p = min(p, -floor)
        else:
            p = max(p, floor)
        u, v = u1 / p, u2 / p
        g += u
        h += u * u - v
        q = b * b / p
        u1, u2 = -1.0 + q * u, q * (v - 2.0 * u * u)
    return count, g, h


def _block_eigenvalues(diag, off):
    """Eigenvalues of T, with a row of infinite diagonal splitting it: the
    pivot recursion restarts past such a row, and a -inf row adds one
    eigenvalue at -inf."""
    values, start = [], 0
    for i, a in enumerate([*diag, math.inf]):
        if math.isinf(a):
            if i > start:
                block = np.diag(diag[start:i]) + np.diag(off[start:i - 1], 1)
                values.extend(np.linalg.eigvalsh(block + np.triu(block, 1).T))
            if a < 0 and i < len(diag):
                values.append(-math.inf)
            start = i + 1
    return np.sort(values)


def _pivot_zeros(diag, off, levels):
    """For each reduction level, the lowest lam where a pivot it eliminates
    vanishes: just below it every pivot of the level is positive and one is
    tiny.  Level k eliminates row r = 2^k (2m + 1), whose pivot is zero at
    the eigenvalues of the rows strictly between r - 2^k and r + 2^k."""
    zeros = []
    for k in range(levels):
        step = 1 << k
        level = []
        for r in range(step, len(diag), 2 * step):
            lo, hi = r - step + 1, min(r + step, len(diag))
            level.extend(_block_eigenvalues(diag[lo:hi], off[lo:hi - 1]))
        finite = [z for z in level if math.isfinite(z)]
        if finite:
            zeros.append(min(finite))
    return zeros


def _band(diag, off):
    """A few ulp of the matrix's scale: how far from an eigenvalue a Sturm
    count can be decided either way by rounding."""
    finite = [abs(v) for v in [*diag, *off] if math.isfinite(v)]
    return 64 * EPS * 3 * max(finite, default=1.0)


def _assert_count_matches(diag, off, lam, eigenvalues):
    """The reduced count equals the full recursion's, except within a few
    ulp of the matrix's scale of an eigenvalue: there both counts are ones a
    rounding of T can give, and may differ."""
    pot, edges = _form(diag, off)
    got = _sturm(pot, edges, lam)
    want = _full_sturm(pot, edges, lam)
    if got != want:
        band = _band(diag, off)
        below = int(np.sum(eigenvalues < lam - band))
        near = int(np.sum(eigenvalues < lam + band))
        assert below <= min(got, want) and max(got, want) <= near, (lam, got, want)


_specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf])


def _tridiagonals(n, entries=_entries, off_entries=_entries):
    """A diagonal and off-diagonals of order n: uniform random entries, for
    which lam inside the spectrum almost always meets a pivot that is not
    safe to eliminate, or a discretized -t u'' + V u with couplings -t (or
    within 10% of it), which lam in the lower spectrum reduces for several
    levels, as it does the oracle's matrices."""
    general = st.tuples(st.lists(entries, min_size=n, max_size=n),
                        _offdiagonals(n, off_entries))

    def operator(t):
        couplings = st.one_of(
            st.just([-t] * (n - 1)),
            st.lists(st.floats(-1.1 * t, -0.9 * t), min_size=n - 1, max_size=n - 1))
        noise = st.lists(st.floats(-t, t), min_size=n, max_size=n)
        # V random, or a well whose tail is diagonally dominant from its
        # outer turning point on
        well = st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 20.0)).map(
            lambda cw: [cw[1] * t * (i / n - cw[0]) ** 2 for i in range(n)])
        potential = st.one_of(noise, st.tuples(well, noise).map(
            lambda wn: [w + 0.1 * v for w, v in zip(*wn)]))
        return st.tuples(potential.map(lambda v: [2 * t + x for x in v]), couplings)

    return st.one_of(general, st.floats(0.5, 10.0).flatmap(operator))


def _shift(data, diag, off, eigenvalues):
    """A shift at a lower eigenvalue, at any eigenvalue, at a zero of a
    pivot the reduction eliminates, or at a diagonal entry."""
    finite = eigenvalues[np.isfinite(eigenvalues)].tolist()
    kinds = {"low": finite[:max(1, len(finite) // 8)], "any": finite,
             "pivot": _pivot_zeros(diag, off, _levels(len(diag))),
             "diagonal": [a for a in diag if math.isfinite(a)]}
    kind = data.draw(st.sampled_from([k for k, v in kinds.items() if v] or ["zero"]))
    return float(data.draw(st.sampled_from(kinds.get(kind) or [0.0])))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reduced_count_matches_full_recursion(data):
    # small floors so that sizes up to 8 floors run zero to four reduction
    # levels; on an even order the reduction eliminates the last row into
    # the last ghost edge
    floor = data.draw(st.sampled_from([4, 8, 16]))
    n = data.draw(st.integers(1, 8 * floor))
    diag, off = data.draw(_tridiagonals(n, st.one_of(_entries, _entries, _specials)))
    eigenvalues = _block_eigenvalues(diag, off)
    with mock.patch.object(oracle, "REDUCE_MIN_ROWS", floor):
        anchor = _shift(data, diag, off, eigenvalues)
        # on the anchor and one ulp either side, and just outside the
        # rounding band, where the count is no longer ambiguous but the
        # pivots still take the whole tail to settle
        near = 1024 * _band(diag, off)
        for lam in (anchor, math.nextafter(anchor, math.inf),
                    math.nextafter(anchor, -math.inf), anchor - near, anchor + near):
            _assert_count_matches(diag, off, lam, eigenvalues)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduced_laguerre_sweep_is_as_accurate_as_the_full_one(data):
    # g and h against the sums over the eigenvalues: within 1e-9, or no
    # farther than the unreduced sweep, which itself misses h by up to
    # about 1e-7 where a leading pivot is small
    floor = data.draw(st.sampled_from([4, 8, 16]))
    n = data.draw(st.integers(2, 8 * floor))
    diag, off = data.draw(_tridiagonals(n))
    pot, edges = _form(diag, off)
    eigenvalues = _block_eigenvalues(diag, off)
    scale = 3 * max(abs(v) for v in [*diag, *off, 1e-3])
    lam = _shift(data, diag, off, eigenvalues) + data.draw(
        st.sampled_from([-1.0, 1.0])) * 10.0 ** data.draw(st.floats(-5.0, 0.0)) * scale
    assume(np.min(np.abs(lam - eigenvalues)) >= 1e-6 * scale)
    full = _full_laguerre(pot, edges, lam)
    # an exactly zero leading pivot is floored, and g, h are then not finite
    assume(math.isfinite(full[1]) and math.isfinite(full[2]))
    with mock.patch.object(oracle, "REDUCE_MIN_ROWS", floor):
        reduced = _laguerre_sweep(pot, edges, lam)
    _assert_laguerre_accuracy(reduced, full, eigenvalues, lam)


def _assert_laguerre_accuracy(reduced, full, eigenvalues, lam):
    count, g, h = reduced
    full_count, full_g, full_h = full
    r = 1.0 / (lam - eigenvalues)
    exact_g, exact_h = float(r.sum()), float(np.dot(r, r))
    assert count == full_count == int(np.sum(eigenvalues < lam))
    assert abs(g - exact_g) <= 1e-9 * np.abs(r).sum() + 4 * abs(full_g - exact_g)
    assert abs(h - exact_h) <= 1e-9 * exact_h + 4 * abs(full_h - exact_h)


def test_laguerre_sums_hold_past_a_small_pivot():
    # the sixth pivot is -1.6e-4 against edges of 4.96: one pivot at a time,
    # its term of h and the next are 5e8 and of opposite sign while h = 0.59,
    # so g and h hold to 1e-12 only when the two rows are taken as one block
    t = 4.959285146552995
    diag = [2 * t + x for x in [t, -1.0, 3.1995043738325517, t, 1.578125,
                                -1.2486291102631766, 0.0]]
    off = [-t] * 6
    lam = 10.065386065711081
    pot, edges = _form(diag, off)
    eigenvalues = _block_eigenvalues(diag, off)
    r = 1.0 / (lam - eigenvalues)
    count, g, h = _laguerre_sweep(pot, edges, lam)
    assert count == int(np.sum(eigenvalues < lam)) == 3
    assert abs(g - r.sum()) <= 1e-12 * np.abs(r).sum()
    assert abs(h - np.dot(r, r)) <= 1e-12 * np.dot(r, r)


def test_reduced_laguerre_count_with_edges_of_weight_zero():
    # with no edges every pivot is its own w_k < 0 above the spectrum, and
    # w_k * (1 / w_k) rounds to 1 - 2^-53 for some w_k: the safe-pivot test
    # must still refuse them, or the count loses the negative pivots
    diag, off = [0.0, 0.0, 0.0, 0.0, 3.4744233450718234], [0.0] * 4
    pot, edges = _form(diag, off)
    lam = 3 * diag[-1]
    with mock.patch.object(oracle, "REDUCE_MIN_ROWS", 4):
        assert _laguerre_sweep(pot, edges, lam)[0] == _sturm(pot, edges, lam) == 5


_HALF_STEP_MATRICES = [
    (Coulomb(e2=1.0), RadialGrid(0.0, 80.0, 11999)),
    (GeneralizedMorse(100.0, 20.0, 1.0), RadialGrid(-2.3, 21.4, 7999)),
    (DeformedRosenMorse(4.0, 8.0, 0.5, 1.0), RadialGrid(-30.0, 30.0, 7999)),
]


def _oracle_matrix(spec, grid):
    """The oracle's operator on the grid as L(t) + diag(V_eff), and t."""
    x = grid.points()
    t = 1.0 / (2 * grid.h**2)
    pot = effective_potential(spec, 0, UNITS, x[1:-1])
    return pot, _edges(t, pot.size), t


@pytest.mark.parametrize("spec, grid", _HALF_STEP_MATRICES)
def test_reduced_sweeps_on_oracle_matrices(spec, grid):
    # the matrices of test_sturm_count_on_oracle_matrices at h/2, with
    # every eigenvalue from LAPACK as the reference
    linalg = pytest.importorskip("scipy.linalg")
    pot, edges, t = _oracle_matrix(spec, grid)
    diag = 2 * t + pot
    eigenvalues = linalg.eigvalsh_tridiagonal(diag, np.full(pot.size - 1, -t))
    diag_list, off_list = diag.tolist(), [-t] * (pot.size - 1)
    levels = _lowest_eigenvalues(pot, edges, 2)[0]
    lams = [levels[0] + d for d in (0.0, 1e-12, -1e-12, 1e-6, -1e-6, 0.1)]
    lams += [v for level in levels for v in (math.nextafter(level, math.inf),
                                             math.nextafter(level, -math.inf))]
    lams += [float(v) for v in pot[:: pot.size // 7]]
    for lam in lams:
        _assert_count_matches(diag_list, off_list, lam, eigenvalues)
    norm = float(np.max(np.abs(diag)) + 2 * t)
    checked = 0
    for level in levels:
        for rel in (1e-6, -1e-6, 1e-5, -1e-5, 1e-4, -1e-4, 1e-3):
            lam = level + rel * norm
            if np.min(np.abs(lam - eigenvalues)) < 1e-6 * norm:
                continue
            full = _full_laguerre(pot, edges, lam)
            reduced = _laguerre_sweep(pot, edges, lam)
            _assert_laguerre_accuracy(reduced, full, eigenvalues, lam)
            scale = np.abs(1.0 / (lam - eigenvalues)).sum()
            assert abs(reduced[1] - full[1]) <= 1e-9 * scale
            checked += 1
    assert checked >= 6


def test_sweeps_run_the_recursion_on_a_fraction_of_the_rows(monkeypatch):
    # the pure-Python recursion sees the reduced matrix only: about n / 32
    # rows for a Laguerre sweep and for a count next to an eigenvalue
    spec, grid = _HALF_STEP_MATRICES[0]
    pot, edges, _ = _oracle_matrix(spec, grid)
    rows = []
    for name in ("_pivots", "_laguerre_pivots"):
        kernel = getattr(oracle, name)

        def counted(values, *args, kernel=kernel):
            rows.append(len(values))
            return kernel(values, *args)

        monkeypatch.setattr(oracle, name, counted)
    level = _lowest_eigenvalues(pot, edges, 1)[0][0]
    rows.clear()
    _laguerre_sweep(pot, edges, level + 1e-3)
    assert sum(rows) <= pot.size // 16
    rows.clear()
    assert _sturm(pot, edges, level) in (0, 1)
    assert sum(rows) <= pot.size // 16


def _exact_sturm_count(pot, t, lam):
    """The Sturm count of the three-point operator, diagonal 2t + V and
    couplings -t, at lam, in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        shifted = [2 * t + mpmath.mpf(v) - mpmath.mpf(lam) for v in pot.tolist()]
        t2 = t * t
        count, d = 0, None
        for a in shifted:
            d = a if d is None else a - t2 / d
            count += d < 0
    return count


@pytest.mark.parametrize("spec", [Coulomb(e2=1.0), Pseudoharmonic(V0=2.0, r0=1.0)],
                         ids=["coulomb", "pseudoharmonic"])
def test_certified_levels_hold_against_exact_counts(spec):
    # the certified value of each of the three lowest levels at h and at h/2
    # lies within 1e-12 of the exact count transition of the same operator:
    # sweeps that stored 2t + V resolved it only to a few ulp of 4t (they
    # missed by 1.5e-12 on Coulomb and by 5.6e-11 on pseudoharmonic, k = 2)
    def v_eff(x):
        return effective_potential(spec, 0, UNITS, x)

    base = default_grid(spec, 0, UNITS, n_max=2)
    for intervals in (base.n_points - 1, 2 * (base.n_points - 1)):
        grid = RadialGrid(base.x_min, base.x_max, intervals + 1)
        values, _ = fd_eigenvalues_from_callable(v_eff, grid, UNITS, count=3, refine=False)
        h = (grid.x_max - grid.x_min) / intervals
        t = UNITS.hbar**2 / (2 * UNITS.mass * h * h)
        pot = v_eff(np.linspace(grid.x_min, grid.x_max, intervals + 1)[1:-1])
        for k, value in enumerate(values):
            assert _exact_sturm_count(pot, t, value - 1e-12) == k, (intervals, k)
            assert _exact_sturm_count(pot, t, value + 1e-12) == k + 1, (intervals, k)


# ------------------------------------------------------------ scale covariance

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sweeps_are_exactly_covariant_under_power_of_two_scaling(data):
    # s T - s lam has the pivots of T - lam times s, bit for bit: the count
    # is the same and g, h scale by 1/s and 1/s^2 (a floored pivot, which
    # makes g and h huge or not finite, aside).  Entries stay clear of the
    # subnormal range, where scaling rounds.
    normal = _entries.map(lambda v: v if abs(v) > 1e-100 else 0.0)
    floor = data.draw(st.sampled_from([4, 8, 16]))
    n = data.draw(st.integers(1, 8 * floor))
    diag, off = data.draw(_tridiagonals(n, normal, normal))
    lam = data.draw(st.one_of(normal, st.sampled_from(diag)))
    pot, edges = _form(diag, off)
    with mock.patch.object(oracle, "REDUCE_MIN_ROWS", floor):
        count = _sturm(pot, edges, lam)
        sweep = _laguerre_sweep(pot, edges, lam)
        for s in (0.25, 4.0, 1024.0):
            assert _sturm(s * pot, s * edges, s * lam) == count
            c, g, h = _laguerre_sweep(s * pot, s * edges, s * lam)
            assert c == sweep[0]
            if abs(sweep[1]) < 1e100 and sweep[2] < 1e100:
                assert (g, h) == (sweep[1] / s, sweep[2] / (s * s))


@pytest.mark.parametrize("spec, l, grid", [
    (Coulomb(e2=1.0), 1, RadialGrid(0.0, 40.0, 1201)),
    (GeneralizedMorse(100.0, 20.0, 1.0), 0, RadialGrid(-2.3, 21.4, 1201)),
], ids=["coulomb", "morse"])
def test_oracle_spectrum_scales_with_hbar2_over_mass_and_v(spec, l, grid):
    # hbar^2/m and V both times s multiply the operator, and so every
    # eigenvalue, by s.  The counts are exactly covariant; the brackets
    # are not (BISECT_TOL is absolute), so the values agree to the widths
    # of the brackets that certify them
    def v_eff(x):
        return effective_potential(spec, l, UNITS, x)

    base, _ = fd_eigenvalues_from_callable(v_eff, grid, UNITS, count=3)
    for s in (0.25, 4.0, 1024.0):
        units = UnitsConfig(hbar=math.sqrt(s), mass=1.0)
        values, _ = fd_eigenvalues_from_callable(lambda x, s=s: s * v_eff(x), grid,
                                                 units, count=3)
        for v, b in zip(values, base):
            widths = oracle._width_tol(v) + s * oracle._width_tol(b)
            assert abs(v - s * b) <= widths


# ----------------------------------------------------------------- quadrature

def test_simpson_constant_and_cubic_exactness():
    h = 1.0 / 100
    ones = np.ones(101)
    assert simpson_integrate(ones, h) == pytest.approx(1.0, abs=1e-15)
    x = np.linspace(0, 1, 101)
    assert simpson_integrate(x**2, h) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert simpson_integrate(x**3, h) == pytest.approx(0.25, abs=1e-12)


def test_simpson_exponential_tail():
    # composite-rule error bound for this integrand is (h^4/180) * 8 = 4.5e-10,
    # which is where the computed value lands
    x = np.linspace(0, 40, 4001)
    val = simpson_integrate(np.exp(-2 * x), x[1] - x[0])
    assert val == pytest.approx(0.5, abs=5e-10)


def test_simpson_linearity_machine_exact():
    rng = np.random.default_rng(3)
    f = rng.standard_normal(201)
    g = rng.standard_normal(201)
    h = 0.01
    a, b = 2.5, -1.25
    combined = simpson_integrate(a * f + b * g, h)
    split = a * simpson_integrate(f, h) + b * simpson_integrate(g, h)
    assert combined == pytest.approx(split, abs=1e-13 * max(1, abs(split)))


def test_simpson_even_count_trapezoid_tail():
    x = np.linspace(0, 1, 100)
    val = simpson_integrate(x, x[1] - x[0])
    assert val == pytest.approx(0.5, abs=1e-6)


def test_simpson_too_few_samples():
    with pytest.raises(TooFewSamples):
        simpson_integrate([1.0, 2.0], 0.5)


# -------------------------------------------------------------- node counting

def test_count_nodes_basics():
    assert count_nodes(np.ones(50)) == 0
    x = np.linspace(0, 1, 1000)
    assert count_nodes(np.sin(2 * math.pi * x)[1:-1]) == 1
    assert count_nodes(np.sin(6 * math.pi * x)[1:-1]) == 5


def test_count_nodes_ignores_subthreshold_noise():
    y = np.concatenate([np.full(10, 1.0), np.full(3, 1e-12), np.full(10, 1.0)])
    assert count_nodes(y) == 0


# ------------------------------------------------------------- fd eigenvalues

def test_box_levels():
    grid = RadialGrid(0.0, 1.0, 4000)
    values, _ = fd_eigenvalues_from_callable(lambda x: np.zeros_like(x), grid,
                                             UNITS, count=3, refine=False)
    for n, v in enumerate(values):
        exact = (n + 1) ** 2 * math.pi**2 / 2.0
        assert abs(v - exact) / exact < 1e-4


def test_box_monotone_refinement():
    exact = [(n + 1) ** 2 * math.pi**2 / 2.0 for n in range(3)]
    errs = []
    for npts in (500, 999):
        values, _ = fd_eigenvalues_from_callable(
            lambda x: np.zeros_like(x), RadialGrid(0.0, 1.0, npts), UNITS,
            count=3, refine=False)
        errs.append([abs(v - e) for v, e in zip(values, exact)])
    for coarse, fine in zip(errs[0], errs[1]):
        assert fine < coarse


def test_hydrogen_on_spec_grid():
    spec_grid = RadialGrid(1e-4, 80.0, 4000)
    oracle = fd_eigenvalues(Coulomb(e2=1.0), 0, UNITS, grid=spec_grid, count=3)
    exact = [-0.5, -0.125, -1.0 / 18.0]
    for v, e in zip(oracle.eigenvalues, exact):
        assert abs(v - e) / abs(e) < 1e-5
    assert oracle.grid_adequate
    # the sub-mesh offset of the requested grid was snapped to the origin
    assert oracle.grid.x_min == 0.0


def test_grid_too_coarse_raises_and_flags():
    coarse = RadialGrid(0.0, 80.0, 200)
    with pytest.raises(GridTooCoarse):
        fd_eigenvalues(Coulomb(e2=1.0), 0, UNITS, grid=coarse, count=2)
    oracle = fd_eigenvalues(Coulomb(e2=1.0), 0, UNITS, grid=coarse, count=2,
                            strict_grid=False)
    assert not oracle.grid_adequate
    assert oracle.richardson_shift > 1e-4


def test_oracle_counts_only_bound_levels():
    # the Morse desk well holds exactly one level below the asymptote;
    # requesting more must not fabricate any
    spec = GeneralizedMorse(100.0, 20.0, 1.0)
    oracle = fd_eigenvalues(spec, 0, UNITS, count=6)
    assert len(oracle.eigenvalues) == 1
    states = spectrum(spec, 0, UNITS, n_max=8)
    assert len(states) == len(oracle.eigenvalues)


def test_oracle_with_centrifugal_barrier():
    oracle = fd_eigenvalues(Coulomb(e2=1.0), 1, UNITS, count=2)
    for v, exact in zip(oracle.eigenvalues, [-0.125, -1.0 / 18.0]):
        assert abs(v - exact) / abs(exact) < 1e-5
    states = spectrum(Mie(V0=5.0, a=1.0), 1, UNITS, n_max=1)
    oracle = fd_eigenvalues(Mie(V0=5.0, a=1.0), 1, UNITS, count=2)
    report = compare_spectra(states, oracle, rel_tol=1e-5)
    assert report.passed


def test_compare_spectra_pass_and_count_flag():
    states = spectrum(Coulomb(e2=1.0), 0, UNITS, n_max=2)
    oracle = fd_eigenvalues(Coulomb(e2=1.0), 0, UNITS, count=3)
    report = compare_spectra(states, oracle, rel_tol=1e-5)
    assert report.passed and not report.count_discrepancy
    assert report.worst_rel_diff < 1e-5

    short = fd_eigenvalues(Coulomb(e2=1.0), 0, UNITS, count=2)
    report2 = compare_spectra(states, short, rel_tol=1e-5)
    assert report2.count_discrepancy and not report2.passed

    with pytest.raises(InvalidParameters):
        compare_spectra([], oracle)


# ------------------------------------------------------------- eigenvectors

def test_eigenvectors_orthonormal_after_simpson_normalization():
    # grid eigenvectors are exactly orthogonal under the uniform weight; the
    # Simpson-weight defect shrinks as h^4 and needs the finer grid to sit
    # below 1e-8 for the hydrogen pair
    grid = RadialGrid(0.0, 80.0, 8000)
    vectors = [fd_eigenvector(Coulomb(e2=1.0), 0, UNITS, grid, i)[1] for i in range(3)]
    h = grid.h
    for i in range(3):
        assert simpson_integrate(vectors[i] ** 2, h) == pytest.approx(1.0, abs=1e-10)
        for j in range(i + 1, 3):
            assert abs(simpson_integrate(vectors[i] * vectors[j], h)) < 1e-8


def test_morse_analytic_state_matches_grid_eigenvector():
    spec = GeneralizedMorse(100.0, 20.0, 1.0)
    grid = default_grid(spec, 0, UNITS)
    x, u = fd_eigenvector(spec, 0, UNITS, grid, 0)
    st = spectrum(spec, 0, UNITS, n_max=0)[0]
    psi = wavefunction(st, x)
    # mutual normalization on the grid, then pointwise comparison in the
    # window where the state lives
    psi /= math.sqrt(simpson_integrate(psi * psi, grid.h))
    if np.dot(psi, u) < 0:
        psi = -psi
    window = (x >= -2.0) & (x <= 6.0)
    assert np.max(np.abs(psi[window] - u[window])) < 1e-3


@pytest.mark.parametrize("spec, l, units", CATALOG, ids=CATALOG_IDS)
def test_oracle_eigenvector_node_counts(spec, l, units):
    # node theorem on the grid side: the index-th eigenvector has exactly
    # index interior sign changes
    grid = default_grid(spec, l, units, n_max=2)
    for index in range(3):
        _, u = fd_eigenvector(spec, l, units, grid, index)
        assert count_nodes(u[1:-1]) == index


@pytest.mark.parametrize("spec, l, units", CATALOG, ids=CATALOG_IDS)
def test_oracle_eigenvector_matches_lapack(spec, l, units):
    # the same Dirichlet three-point matrix, built here, and its eigenvector
    # from LAPACK, both Simpson-normalized with their signs aligned
    linalg = pytest.importorskip("scipy.linalg")
    grid = default_grid(spec, l, units, n_max=2)
    x = grid.points()
    t = units.hbar**2 / (2 * units.mass * grid.h**2)
    diag = 2 * t + effective_potential(spec, l, units, x[1:-1])
    for index in range(3):
        x_oracle, u = fd_eigenvector(spec, l, units, grid, index)
        assert np.array_equal(x_oracle, x)
        assert np.isfinite(u).all()
        _, vector = linalg.eigh_tridiagonal(diag, np.full(diag.size - 1, -t), select="i",
                                            select_range=(index, index))
        ref = np.zeros_like(u)
        ref[1:-1] = vector[:, 0]
        ref /= math.sqrt(simpson_integrate(ref * ref, grid.h))
        if np.dot(ref, u) < 0:
            ref = -ref
        assert np.max(np.abs(u - ref)) < 1e-10, index


def test_kratzer_ground_state_peaks_near_minimum():
    spec = KratzerFues(De=10.0, re=1.0)
    st = spectrum(spec, 0, UNITS, n_max=0)[0]
    r = np.linspace(0.05, 5.0, 2000)
    density = (wavefunction(st, r) * r) ** 2
    r_peak = r[np.argmax(density)]
    assert 0.7 < r_peak < 1.5
