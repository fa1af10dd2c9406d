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
    GeneralizedMorse,
    GridTooCoarse,
    InvalidParameters,
    KratzerFues,
    Mie,
    RadialGrid,
    TooFewSamples,
    UnitsConfig,
    compare_spectra,
    count_nodes,
    default_grid,
    fd_eigenvalues,
    fd_eigenvalues_from_callable,
    fd_eigenvector,
    lowest_eigenvalues,
    simpson_integrate,
    spectrum,
    sturm_count,
    wavefunction,
)
from specbound.oracle import _lowest_eigenvalues

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
