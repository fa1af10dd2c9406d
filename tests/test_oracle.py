"""Self-validation of the finite-difference verifier: Sturm counting against
closed-form tridiagonal spectra, quadrature exactness, node counting, and
oracle-vs-analytic agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import (
    Coulomb,
    DeformedRosenMorse,
    GeneralizedMorse,
    GridTooCoarse,
    InvalidParameters,
    KratzerFues,
    Mie,
    Pseudoharmonic,
    RadialGrid,
    TooFewSamples,
    UnitsConfig,
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
from specbound import potentials
from specbound.oracle import _dominance_floor, _lowest_eigenvalues, _sturm

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


def test_wrong_seeds_still_give_the_spectrum():
    n, t = 60, 1.0
    diag = [2.0 * t] * n
    off2 = [t * t] * (n - 1)
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
    unseeded, _ = _lowest_eigenvalues(diag, off2, 4)
    assert np.allclose(unseeded, exact, rtol=0.0, atol=1e-12)
    for seeds in bad_seeds:
        values, _ = _lowest_eigenvalues(diag, off2, 4, seeds=seeds)
        assert np.allclose(values, exact, rtol=0.0, atol=1e-12), seeds
    # seeds sitting exactly on eigenvalues of a decoupled matrix hit the
    # pivot floor
    diag = [3.0, 1.0, 2.0, 1.0]
    values, _ = _lowest_eigenvalues(diag, [0.0] * 3, 4, seeds=[1.0, 1.0, 2.0, 3.0])
    assert np.allclose(values, [1.0, 1.0, 2.0, 3.0], rtol=0.0, atol=1e-12)


def test_sturm_sweep_budget_coulomb():
    # three Coulomb levels on the default grid: 162 sweeps at h and 168 at
    # h/2 with plain bisection from the Gershgorin bounds
    spec = Coulomb(e2=1.0)
    first = fd_eigenvalues(spec, 0, UNITS, count=3)
    at_h, at_half_h = first.sturm_sweeps
    assert at_h <= 50 and at_half_h <= 30
    assert fd_eigenvalues(spec, 0, UNITS, count=3).sturm_sweeps == first.sturm_sweeps


def test_seed_solve_sweep_budget_coulomb():
    # the h solve starts from the levels of an 8x coarser grid: the seed
    # solve's sweeps are reported apart from those at h and h/2
    spec = Coulomb(e2=1.0)
    first = fd_eigenvalues(spec, 0, UNITS, count=3)
    assert 0 < first.seed_sweeps <= 40
    assert first.sturm_sweeps[0] <= 20
    again = fd_eigenvalues(spec, 0, UNITS, count=3)
    assert (again.seed_sweeps, again.sturm_sweeps) == (first.seed_sweeps, first.sturm_sweeps)
    # 399 intervals leave 49 for the seed grid, below the 64 it needs
    small = fd_eigenvalues(spec, 0, UNITS, grid=RadialGrid(0.0, 40.0, 400), count=3,
                           strict_grid=False)
    assert small.seed_sweeps == 0


def _full_sturm(diag, off2, lam):
    """The pivot recursion over every row: the count the early exit of
    _sturm must reproduce."""
    count = 0
    d = 1.0
    for i, a in enumerate(diag):
        d = (a - lam) - (off2[i - 1] / d if i else 0.0)
        if d < 0:
            count += 1
            if d > -1e-300:
                d = -1e-300
        elif d < 1e-300:
            d = 1e-300
    return count


def _offdiagonals(n):
    return st.one_of(
        st.lists(_entries, min_size=n - 1, max_size=n - 1),
        _entries.map(lambda b: [b] * (n - 1)),
        st.just([0.0] * (n - 1)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_early_exit_sturm_count_matches_full_recursion(data):
    n = data.draw(st.integers(1, 40))
    diag = data.draw(st.lists(_entries, min_size=n, max_size=n))
    off = data.draw(_offdiagonals(n))
    off2 = [b * b for b in off]
    dominance = _dominance_floor(diag, off2)
    matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    # shifts on, next to and far from the eigenvalues and the thresholds
    anchors = [*np.linalg.eigvalsh(matrix), *dominance[np.isfinite(dominance)], 0.0]
    anchor = float(data.draw(st.sampled_from(anchors)))
    offset = data.draw(st.one_of(st.sampled_from([0.0, 1e-12, -1e-12, 100.0, -100.0]),
                                 st.floats(-1e-12, 1e-12), st.floats(-30.0, 30.0)))
    for lam in (anchor + offset, math.nextafter(anchor, math.inf),
                math.nextafter(anchor, -math.inf)):
        assert _sturm(diag, off2, lam, dominance) == _full_sturm(diag, off2, lam)


def test_early_exit_sturm_with_infinite_diagonal_entries():
    # a row with an infinite diagonal has no dominance margin (inf - inf):
    # no sweep may stop before it on its account
    inf = math.inf
    for diag in ([5.0, inf, -3.0, 10.0], [inf, 1.0, -2.0, 4.0, 9.0],
                 [1.0, -inf, 2.0, 8.0], [2.0, 3.0, inf, -1.0, inf, 0.5, 7.0]):
        off2 = [1.0] * (len(diag) - 1)
        dominance = _dominance_floor(diag, off2)
        for lam in (-20.0, -5.0, 0.0, 0.5, 1.0, 3.0, 6.5, 20.0):
            assert _sturm(diag, off2, lam, dominance) == _full_sturm(diag, off2, lam)


class _CountingRows(list):
    """A diagonal that counts the rows a sweep reads."""

    read = 0

    def __iter__(self):
        for a in list.__iter__(self):
            self.read += 1
            yield a


@pytest.mark.parametrize("spec, grid", [
    (Coulomb(e2=1.0), RadialGrid(0.0, 80.0, 6000)),
    (GeneralizedMorse(100.0, 20.0, 1.0), RadialGrid(-2.3, 21.4, 4000)),
    (DeformedRosenMorse(4.0, 8.0, 0.5, 1.0), RadialGrid(-30.0, 30.0, 4000)),
])
def test_early_exit_sturm_on_oracle_matrices(spec, grid):
    x = grid.points()
    t = 1.0 / (2 * grid.h**2)
    diag = (2 * t + effective_potential(spec, 0, UNITS, x[1:-1])).tolist()
    off2 = [t * t] * (len(diag) - 1)
    dominance = _dominance_floor(diag, off2)
    levels = _lowest_eigenvalues(diag, off2, 2)[0]
    lams = [levels[0] + d for d in (0.0, 1e-12, -1e-12, 1e-6, -1e-6, 0.1)]
    lams += [float(v) for v in dominance[:: len(diag) // 7]]
    for lam in lams:
        assert _sturm(diag, off2, lam, dominance) == _full_sturm(diag, off2, lam), lam
    # a count between the two lowest levels stops once the pivots settle in
    # the classically forbidden tail (half the grid for the centred well)
    rows = _CountingRows(diag)
    assert _sturm(rows, off2, 0.5 * (levels[0] + levels[1]), dominance) == 1
    assert rows.read < 0.6 * len(diag)


def test_oracle_never_calls_the_closed_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called a closed form")

    monkeypatch.setattr(potentials, "closed_form_energy", refuse)
    for family in potentials.FAMILIES.values():
        monkeypatch.setattr(family, "closed_form", refuse)
    spec = Coulomb(e2=1.0)
    grid = RadialGrid(0.0, 80.0, 6000)
    values, shift = fd_eigenvalues_from_callable(
        lambda x: effective_potential(spec, 0, UNITS, x), grid, UNITS, count=3)
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
        diag = 2 * t + v_eff(x[1:-1])
        off = np.full(diag.size - 1, -t)
        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        return diag.tolist(), [t * t] * off.size, np.linalg.eigvalsh(matrix)[:3]

    def tolerance(diag):
        # the 1e-12 bracket plus rounding of the Sturm recursion and of
        # LAPACK, a few ulp of the matrix norm (the pseudoharmonic barrier
        # puts 5e4 on the diagonal next to r = 0)
        return 1e-12 + 64 * np.finfo(float).eps * max(abs(v) for v in diag)

    # h, seeded from the coarse grid
    solved = fd_eigenvalues_from_callable(v_eff, grid, UNITS, count=3, refine=False)
    assert solved.seed_sweeps > 0
    diag, _, exact = dense(grid.n_points - 1)
    assert np.allclose(solved[0], exact, rtol=0.0, atol=tolerance(diag))
    # h/2, seeded from h
    diag, off2, exact = dense(2 * (grid.n_points - 1))
    values, _ = _lowest_eigenvalues(diag, off2, 3, seeds=list(solved[0]))
    assert np.allclose(values, exact, rtol=0.0, atol=tolerance(diag))


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


def test_oracle_eigenvector_node_counts():
    # node theorem on the grid side: the index-th eigenvector has exactly
    # index interior sign changes
    grid = default_grid(Coulomb(e2=1.0), 0, UNITS, n_max=2)
    for index in range(3):
        _, u = fd_eigenvector(Coulomb(e2=1.0), 0, UNITS, grid, index)
        assert count_nodes(u[1:-1]) == index


def test_kratzer_ground_state_peaks_near_minimum():
    spec = KratzerFues(De=10.0, re=1.0)
    st = spectrum(spec, 0, UNITS, n_max=0)[0]
    r = np.linspace(0.05, 5.0, 2000)
    density = (wavefunction(st, r) * r) ** 2
    r_peak = r[np.argmax(density)]
    assert 0.7 < r_peak < 1.5
