"""The array residual and the vectorized scan against their scalar
definitions.

``quantization_residuals`` evaluates the termination residual at many
energies in one numpy call, and ``solve_energy`` scans with the same
algebra: the window's n-independent core once, plus each level's n term.
The scan must find the bracket the scalar loop below finds (the floor,
then the window's points above it), so every energy stays bit-identical;
only the floor and the refinement of the bracket call the scalar
``quantization_residual``.
"""

import math
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import (
    Coulomb,
    DeformedRosenMorse,
    EnergyDependentForm,
    GeneralizedMorse,
    InvalidParameters,
    KratzerFues,
    Mie,
    NegativeDiscriminant,
    NoBoundState,
    NoncentralRadial,
    ParametricCoefficients,
    PoschlTeller,
    Pseudoharmonic,
    RootChoice,
    UnitsConfig,
    WoodsSaxon,
    closed_form_energy,
    quantization_residual,
    quantization_residuals,
    solve_energy,
    spectrum,
    to_parametric,
)
from specbound import parametric, potentials
from specbound.cli import CLOSED_FORM_RTOL

UNITS = UnitsConfig()
SCAN_POINTS = parametric.DEFAULT_SCAN_POINTS
#: scalar residual calls allowed per solved level: refinement only
SCALAR_CALLS_PER_LEVEL = 64

# the desk parameter sets of the acceptance suite
DESK_CASES = [
    GeneralizedMorse(V1=100.0, V2=20.0, a=1.0),
    Mie(V0=5.0, a=1.0),
    KratzerFues(De=10.0, re=1.0),
    Coulomb(e2=1.0),
    Pseudoharmonic(V0=2.0, r0=1.0),
    NoncentralRadial(alpha=-1.0, lam=0.0),
    DeformedRosenMorse(V1=4.0, V2=8.0, a=0.5, eta=1.0),
    WoodsSaxon(V1=5.0, V2=10.0, a=1.0),
    PoschlTeller(V0=10.0, a=1.0, eta=1.0),
]


def _desk_ls(spec):
    if spec.radial and not isinstance(spec, NoncentralRadial):
        return (0, 1, 2)
    return (0,)


def _scalar_or_nan(form, n, energy, rc):
    try:
        value = quantization_residual(form, n, energy, rc)
    except NegativeDiscriminant:
        return math.nan
    return math.nan if math.isinf(value) else value


def _scan_point(lo, hi, i, scan_points):
    """Point i of the closed scan of [lo, hi], evenly spaced in sqrt(hi - E)."""
    u = 1.0 - i / (scan_points - 1)
    return lo if i == 0 else hi - (hi - lo) * (u * u)


def reference_scan(form, n, rc, lo, hi, scan_points, floor=None):
    """The scalar scan: sign-change brackets (a, b, fa, fb) in order, over
    the floor (lo when None) and then the scan points of [lo, hi] above it."""
    floor = lo if floor is None else floor
    points = [_scan_point(lo, hi, i, scan_points) for i in range(scan_points)]
    prev_e = prev_f = None
    for e in [floor] + [p for p in points if p > floor]:
        f = _scalar_or_nan(form, n, e, rc)
        if math.isnan(f):
            prev_e = prev_f = None
            continue
        if f == 0.0:
            yield (e, e, f, f)
        elif prev_f is not None and (prev_f < 0) != (f < 0):
            yield (prev_e, e, prev_f, f)
        prev_e, prev_f = e, f


def _reference_windows(form, n, rc, above):
    """The scans of level n in order, each (lo, top, floor): the window's
    scan from the floor up, then fresh scans from the floor (floor None).
    A window unbounded above doubles its span; a residual that is not
    finite at a finite top has its top cell scanned next."""
    lo, hi = form.energy_window
    floor = lo if above is None else max(lo, above)
    yield lo, (hi if math.isfinite(hi) else lo + max(1.0, abs(lo))), floor
    lo = floor
    for k in range(64):
        yield lo, (lo + max(1.0, abs(lo)) * 2.0**k if math.isinf(hi) else hi), None
        if math.isfinite(hi):
            below_top = _scan_point(lo, hi, SCAN_POINTS - 2, SCAN_POINTS)
            if not (math.isnan(_scalar_or_nan(form, n, hi, rc)) and lo < below_top < hi):
                return
            lo = below_top


def reference_solve(form, n, rc, above=None):
    """solve_energy with the scalar scan; returns (energy, scans)."""
    hi = form.energy_window[1]
    windows = []
    for lo, top, floor in _reference_windows(form, n, rc, above):
        windows.append((lo, top, floor))
        for a, b, fa, fb in reference_scan(form, n, rc, lo, top, SCAN_POINTS, floor):
            root = a if a == b else parametric._root_in(form, n, rc, (a, b, fa, fb))
            return (root if root < hi else None), windows
    return None, windows


def _first_bracket(form, n, rc, lo, hi, scan_points=SCAN_POINTS, floor=None):
    if floor is None:
        return parametric._first_bracket(*parametric._scan(form, n, rc, lo, hi, scan_points))
    # the window's own scan, read from the floor up
    window = parametric.window_scan(form, rc, scan_points)
    assert (window.energies[0], window.energies[-1]) == (lo, hi)
    return parametric._first_bracket(*parametric._level_scan(form, n, rc, floor, window))


def _assert_bit_equal(x, y):
    assert type(x) is type(y) is float
    assert x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _check_against_reference(form, n, rc, above=None):
    expected, windows = reference_solve(form, n, rc, above)
    for lo, hi, floor in windows:
        ref = next(reference_scan(form, n, rc, lo, hi, SCAN_POINTS, floor), None)
        assert _first_bracket(form, n, rc, lo, hi, floor=floor) == ref
        if ref is not None:
            break
    if expected is None:
        with pytest.raises(NoBoundState):
            solve_energy(form, n, rc, above=above)
        return None
    got = solve_energy(form, n, rc, above=above)
    _assert_bit_equal(got, expected)
    return got


# --------------------------------------------------------------------------
# array residual == scalar residual
# --------------------------------------------------------------------------

POSITIVE = st.floats(min_value=0.05, max_value=200.0)
RATE = st.floats(min_value=0.1, max_value=5.0)
SPECS = st.one_of(
    st.builds(GeneralizedMorse, V1=POSITIVE, V2=POSITIVE, a=RATE),
    st.builds(Mie, V0=POSITIVE, a=RATE),
    st.builds(KratzerFues, De=POSITIVE, re=RATE),
    st.builds(Coulomb, e2=POSITIVE),
    st.builds(Pseudoharmonic, V0=POSITIVE, r0=RATE),
    st.builds(NoncentralRadial, alpha=st.floats(min_value=-200.0, max_value=-0.05),
              lam=st.floats(min_value=0.0, max_value=200.0)),
    st.builds(DeformedRosenMorse, V1=st.floats(min_value=0.0, max_value=200.0),
              V2=POSITIVE, a=RATE, eta=RATE),
    st.builds(WoodsSaxon, V1=st.floats(min_value=0.0, max_value=200.0), V2=POSITIVE,
              a=RATE),
    st.builds(PoschlTeller, V0=POSITIVE, a=RATE, eta=RATE),
)


@settings(max_examples=150, deadline=None)
@given(spec=SPECS, data=st.data())
def test_array_residual_is_bit_equal_to_scalar(spec, data):
    l = data.draw(st.integers(0, 3)) if spec.radial and not isinstance(
        spec, NoncentralRadial) else 0
    units = UnitsConfig(hbar=data.draw(st.floats(0.3, 3.0)),
                        mass=data.draw(st.floats(0.3, 3.0)))
    n = data.draw(st.integers(0, 6))
    form, _ = to_parametric(spec, l, units)
    rc = spec.root_choice()
    lo, hi = form.energy_window
    width = hi - lo if math.isfinite(hi) and hi > lo else max(1.0, abs(lo))
    # inside, at the edges of and outside the window, plus arbitrary energies
    fractions = data.draw(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=30))
    energies = [lo + width * f for f in fractions] + [lo, lo + width]
    energies += data.draw(st.lists(st.floats(-1e3, 1e3), max_size=10))
    values = quantization_residuals(form, n, np.array(energies), rc)
    assert values.shape == (len(energies),)
    for energy, value in zip(energies, values):
        try:
            expected = quantization_residual(form, n, energy, rc)
        except NegativeDiscriminant:
            assert math.isnan(value)
            continue
        if math.isfinite(expected):
            _assert_bit_equal(float(value), expected)
        else:
            assert math.isnan(value)


def test_array_residual_marks_negative_discriminants():
    form, _ = to_parametric(Coulomb(e2=1.0), 0, UNITS)
    # L1 = -2E < 0 above the continuum edge: no real p root
    values = quantization_residuals(form, 0, np.array([-0.5, 0.5]))
    assert values[0] == quantization_residual(form, 0, -0.5)
    assert math.isnan(values[1])
    with pytest.raises(NegativeDiscriminant):
        quantization_residual(form, 0, 0.5)
    with pytest.raises(ValueError):
        quantization_residuals(form, -1, np.array([-0.5]))


def test_array_residual_keeps_the_boundary_case():
    # c2 - 2 p10 = 0 at E = 0: gamma2 is 0 when its numerator vanishes
    # too (here L2 = 0) and undefined (NaN) otherwise, as in the scalar form
    # L1 = 2 (0 - E)
    for l2 in (0.0, 2.0):
        form = EnergyDependentForm(ParametricCoefficients(2.0, 0.0, 0.0, 0.0, l2, 0.0),
                                   2.0, ("lambda1",), (-1.0, 0.0))
        scalar = quantization_residual(form, 1, 0.0)
        array = quantization_residuals(form, 1, np.array([0.0, -0.5]))
        if math.isnan(scalar):
            assert math.isnan(array[0])
        else:
            _assert_bit_equal(float(array[0]), scalar)
        _assert_bit_equal(float(array[1]), quantization_residual(form, 1, -0.5))


def test_array_residual_broadcasts_constant_coefficients():
    form = EnergyDependentForm(ParametricCoefficients(2.0, 0.0, 0.0, 0.5, 2.0, 0.0),
                               0.0, (), (-1.0, 0.0))
    values = quantization_residuals(form, 0, np.linspace(-1.0, 0.0, 5))
    assert values.shape == (5,)
    assert np.all(values == quantization_residual(form, 0, -0.5))


# --------------------------------------------------------------------------
# vectorized scan == scalar scan
# --------------------------------------------------------------------------

@pytest.mark.parametrize("spec", DESK_CASES, ids=lambda s: s.family)
def test_scan_matches_scalar_scan_on_desk_cases(spec):
    rc = spec.root_choice()
    for l in _desk_ls(spec):
        form, _ = to_parametric(spec, l, UNITS)
        walked, floor = [], None
        for n in range(4):
            # the floor above the previous level, as spectrum sets it
            energy = _check_against_reference(form, n, rc, above=floor)
            if energy is None:
                break
            walked.append(energy)
            floor = math.nextafter(energy, math.inf)
        assert walked
        assert [s.energy for s in spectrum(spec, l, UNITS, 3)] == walked


def _hand_form(coeff_at, window):
    """A form of a shape no family declares: parametric reads only
    ``coeff_at`` and ``energy_window``."""
    return SimpleNamespace(coeff_at=coeff_at, energy_window=window)


def _nan_stretch_form():
    # the q discriminant 4 (E + 1/2)^2 - 0.3 is negative for |E + 1/2| < 0.274,
    # a NaN stretch inside the window; for n = 1 the residual is negative
    # below it and positive above it, and that sign change is its only one
    def coeff_at(e):
        return ParametricCoefficients(2.0, 0.0, 0.0, -2.0 * e, 3.0,
                                      4.0 * (e + 0.5) * (e + 0.5) - 0.55)
    return _hand_form(coeff_at, (-2.0, -0.01))


def test_scan_matches_scalar_scan_across_a_nan_stretch():
    form = _nan_stretch_form()
    rc = RootChoice()
    energies = np.linspace(-2.0, -0.01, 400)
    values = quantization_residuals(form, 1, energies)
    stretch = np.flatnonzero(np.isnan(values))
    assert stretch.size > 0 and 0 < stretch[0] and stretch[-1] < energies.size - 1
    assert values[stretch[0] - 1] < 0 < values[stretch[-1] + 1]
    assert _check_against_reference(form, 0, rc) < energies[stretch[0]]
    # no bracket may span the stretch: n = 1 has no root on either scan
    assert _first_bracket(form, 1, rc, -2.0, -0.01) is None
    assert _check_against_reference(form, 1, rc) is None
    assert _check_against_reference(form, 2, rc) > energies[stretch[-1]]


def test_scan_expands_unbounded_window_like_scalar_scan():
    spec = Pseudoharmonic(V0=2.0, r0=1.0)
    form, _ = to_parametric(spec, 0, UNITS)
    rc = spec.root_choice()
    for n in range(4):
        energy, windows = reference_solve(form, n, rc)
        # n = 3 lies near 18: the scan edge doubles from 1 five times
        assert energy is not None and energy > windows[0][1]
        _check_against_reference(form, n, rc)
    # an exhausted Morse well: no bracket at all, on both scans
    morse = GeneralizedMorse(V1=100.0, V2=20.0, a=1.0)
    form, _ = to_parametric(morse, 0, UNITS)
    assert _check_against_reference(form, 1, morse.root_choice()) is None


def _gamma2_form(residual, window):
    # c1 = 2, L1 = 1, L3 = 0 give q10 = 0 and p10 = 1, so the n = 0
    # residual is gamma2 = L2/2 - 1 = residual(E) with L2 = 2 residual(E) + 2
    return _hand_form(
        lambda e: ParametricCoefficients(2.0, 0.0, 0.0, 1.0, 2.0 * residual(e) + 2.0, 0.0),
        window)


@pytest.mark.parametrize("slope", [1.0, -1.0])
def test_scan_returns_an_exact_zero_as_the_root(slope):
    # the residual vanishes exactly at the sixth of eight scan points, and at
    # the first, with either sign just before or after it
    lo, hi, points = -1.0, 1.0, 8
    for i in (5, 0):
        exact = _scan_point(lo, hi, i, points)
        form = _gamma2_form(lambda e: slope * (e - exact), (lo, hi))
        bracket = _first_bracket(form, 0, RootChoice(), lo, hi, points)
        assert bracket == next(reference_scan(form, 0, RootChoice(), lo, hi, points))
        assert bracket[0] == bracket[1] == exact
        assert solve_energy(form, 0, scan_points=points) == exact


def test_scan_takes_the_first_of_several_sign_changes():
    form = _gamma2_form(lambda e: (e - 0.2) * (e + 0.3), (-1.0, 1.0))
    assert len(list(reference_scan(form, 0, RootChoice(), -1.0, 1.0, SCAN_POINTS))) == 2
    assert _check_against_reference(form, 0, RootChoice()) == pytest.approx(-0.3, abs=1e-14)


def test_scan_finds_a_root_below_its_first_point():
    # the root sits just above lo, below the first scan point above lo: the
    # scan includes lo itself, so its widest cell brackets the root
    lo, hi, points = -1.0, 1.0, 8
    root = lo + 0.3 * (hi - lo) * 0.5 / points
    assert root < _scan_point(lo, hi, 1, points)
    form = _gamma2_form(lambda e: e - root, (lo, hi))
    assert next(reference_scan(form, 0, RootChoice(), lo, hi, points))[0] == lo
    assert solve_energy(form, 0, scan_points=points) == pytest.approx(root, abs=1e-15)
    # no root above lo: nothing is bracketed there
    above = _gamma2_form(lambda e: e - (lo - 0.5), (lo, hi))
    with pytest.raises(NoBoundState):
        solve_energy(above, 0, scan_points=points)


@pytest.mark.parametrize("spec", [
    GeneralizedMorse(V1=100.0, V2=6e4, a=1.0),
    GeneralizedMorse(V1=100.0, V2=1e9, a=1.0),
    WoodsSaxon(V1=1.0, V2=1e7, a=1.0),
    PoschlTeller(V0=1e7, a=1.0, eta=1.0),
    DeformedRosenMorse(V1=1.0, V2=1e8, a=1.0, eta=1.0),
], ids=lambda s: s.family)
def test_deep_well_keeps_the_level_below_the_first_scan_point(spec):
    # the zero-point energy is below half a uniform scan spacing of the
    # window bottom: the level lies between lo and the next scan point
    form, _ = to_parametric(spec, 0, UNITS)
    lo, hi = form.energy_window
    expected = [closed_form_energy(spec, 0, UNITS, n) for n in range(3)]
    assert expected[0] < lo + 0.5 * (hi - lo) / SCAN_POINTS
    states = spectrum(spec, 0, UNITS, n_max=2)
    assert [s.n for s in states] == [0, 1, 2]
    for state, energy in zip(states, expected):
        assert state.energy == pytest.approx(energy, rel=1e-12, abs=0.0)


def test_deep_morse_wells_keep_every_closed_form_level():
    # deeper than about 3e12 the level spacing is below 1e-11 of |E|: each
    # next level must be searched from just above the last one, or it is
    # skipped.  A refused depth is one whose zero-point energy float64
    # cannot resolve above the bottom.
    for k in range(81):
        spec = GeneralizedMorse(V1=100.0, V2=10.0 ** (10 + k / 8), a=1.0)
        expected = [closed_form_energy(spec, 0, UNITS, n) for n in range(3)]
        try:
            states = spectrum(spec, 0, UNITS, n_max=2)
        except InvalidParameters:
            lo = to_parametric(spec, 0, UNITS)[0].energy_window[0]
            with pytest.raises(InvalidParameters, match="zero-point"):
                potentials._check_zero_point(spec, UNITS, lo)
            continue
        assert [s.n for s in states] == [0, 1, 2], spec
        for state, energy in zip(states, expected):
            assert state.energy == pytest.approx(energy, rel=1e-12, abs=0.0)


def test_array_residual_maps_infinities_to_nan():
    # gamma2 = (2 p10 - L2)/(-2 p10) overflows to -inf for L2 near -DBL_MAX
    # L1 = 2 (0 - E)
    form = EnergyDependentForm(ParametricCoefficients(2.0, 0.0, 0.0, 0.0, -1.7e308, 0.0),
                               2.0, ("lambda1",), (-1.0, 0.0))
    assert quantization_residual(form, 0, -0.005) == -math.inf
    values = quantization_residuals(form, 0, np.array([-0.005, -0.5]))
    assert math.isnan(values[0])
    _assert_bit_equal(float(values[1]), quantization_residual(form, 0, -0.5))


# --------------------------------------------------------------------------
# one window scan per spectrum
# --------------------------------------------------------------------------

@pytest.mark.parametrize("spec, n_max", [
    (PoschlTeller(V0=600.0, a=1.0, eta=1.0), 31),
    (GeneralizedMorse(V1=100.0, V2=240.0, a=1.0), 15),
], ids=["poschl_teller", "morse"])
def test_spectrum_builds_the_array_core_once(spec, n_max, monkeypatch):
    # every level reads the one window scan: the core of the residual (r3,
    # alpha, beta) is evaluated at the window's points once per spectrum
    builds = []
    array_core = parametric._array_core

    def counted(form, energies, root_choice):
        builds.append(energies.size)
        return array_core(form, energies, root_choice)

    monkeypatch.setattr(parametric, "_array_core", counted)
    states = spectrum(spec, 0, UNITS, n_max)
    assert [s.n for s in states] == list(range(n_max + 1))
    assert builds == [SCAN_POINTS]
    # solve_energy alone builds the same scan, and returns the same level
    form, _ = to_parametric(spec, 0, UNITS)
    builds.clear()
    floor = math.nextafter(states[-2].energy, math.inf)
    _assert_bit_equal(solve_energy(form, n_max, spec.root_choice(), above=floor),
                      states[-1].energy)
    assert builds == [SCAN_POINTS]


def test_confining_window_skips_the_scan_below_its_floor(monkeypatch):
    # the window of Pseudoharmonic(2, 1) is (0, inf) and its scan covers
    # [0, 1], below every level (the lowest is 2.12): only n = 0, whose
    # floor is 0, reads it, and every other level starts with a fresh scan
    # instead of a scan that holds its floor alone, so it makes no scalar
    # call for that floor (35 calls became 20).  The array cores are the
    # window's and one per fresh scan; n = 0 starts its fresh scans at
    # [0, 2], since the window's scan was its [0, 1], so there are 19 in
    # all (20 when n = 0 scanned [0, 1] twice)
    spec, n_max = Pseudoharmonic(V0=2.0, r0=1.0), 15
    builds, floors, scalar = [], [], []
    array_core, level_scan = parametric._array_core, parametric._level_scan
    residual = parametric.quantization_residual

    def counted_core(form, energies, root_choice):
        builds.append(energies.size)
        return array_core(form, energies, root_choice)

    def counted_scan(form, n, root_choice, floor, window):
        floors.append((n, floor))
        return level_scan(form, n, root_choice, floor, window)

    def counted_residual(*args):
        scalar.append(args[1])
        return residual(*args)

    monkeypatch.setattr(parametric, "_array_core", counted_core)
    monkeypatch.setattr(parametric, "_level_scan", counted_scan)
    monkeypatch.setattr(parametric, "quantization_residual", counted_residual)
    states = spectrum(spec, 0, UNITS, n_max)
    assert [s.n for s in states] == list(range(n_max + 1))
    for state in states:
        assert state.energy == pytest.approx(closed_form_energy(spec, 0, UNITS, state.n),
                                             rel=CLOSED_FORM_RTOL, abs=0.0)
    assert floors == [(0, 0.0)]
    assert builds == [SCAN_POINTS] * 19
    assert len(scalar) == 20


@pytest.mark.parametrize("f", [
    [2.0, math.inf, 1.0, -1.0, -math.inf, 3.0],
    [1.0, -math.inf, 2.0, -3.0],
    [-math.inf, math.inf, -1.0, 0.5, math.inf],
    [math.inf, -math.inf, math.inf],
], ids=["beside", "false_change", "both_ends", "none"])
def test_infinities_break_the_scan_as_nan_does(f):
    # a residual that is not finite spans no bracket, whether it is NaN
    # or an infinity of either sign beside a sign change
    f = np.array(f)
    energies = np.linspace(-1.0, 0.0, f.size)
    as_nan = f.copy()
    as_nan[np.isinf(f)] = np.nan
    expect = parametric._first_bracket(energies, as_nan)
    assert parametric._first_bracket(energies, f) == expect
    assert (expect is None) == (f.size == 3)


def test_the_floor_splits_its_window_cell():
    # the floor lies inside a cell of the window's scan: level n's first
    # cell runs from the floor to the next window point, so a root there is
    # found, and a root of the residual below the floor, in the same cell,
    # is never returned (the window point below the floor is not scanned)
    lo, hi, points, n = -1.0, 1.0, 8, 2
    below, above = _scan_point(lo, hi, 3, points), _scan_point(lo, hi, 4, points)
    floor, root, early = (below + t * (above - below) for t in (0.5, 0.8, 0.2))
    later = _scan_point(lo, hi, 6, points) + 0.3 * (hi - _scan_point(lo, hi, 6, points))

    def level(residual):
        # gamma2 - n = residual(E)
        form = _gamma2_form(lambda e: residual(e) + n, (lo, hi))
        return form, solve_energy(form, n, above=floor, scan_points=points)

    form, energy = level(lambda e: e - root)
    window = parametric.window_scan(form, RootChoice(), points)
    bracket = parametric._first_bracket(
        *parametric._level_scan(form, n, RootChoice(), floor, window))
    assert bracket[:2] == (floor, above)
    assert energy == pytest.approx(root, abs=1e-15)
    with pytest.raises(NoBoundState):
        level(lambda e: e - early)
    assert level(lambda e: (e - early) * (e - later))[1] == pytest.approx(later, abs=1e-15)


# --------------------------------------------------------------------------
# work count: scalar residual calls are refinement only
# --------------------------------------------------------------------------

@pytest.mark.parametrize("spec", DESK_CASES, ids=lambda s: s.family)
def test_spectrum_scalar_residual_budget(spec, monkeypatch):
    calls = []
    scalar = parametric.quantization_residual

    def counted(*args, **kwargs):
        calls.append(1)
        return scalar(*args, **kwargs)

    monkeypatch.setattr(parametric, "quantization_residual", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        states = spectrum(spec, 0, UNITS, 3)
        counts.append(len(calls))
    assert states
    assert counts[0] == counts[1]
    assert counts[0] <= SCALAR_CALLS_PER_LEVEL * len(states)


def test_scan_finds_a_root_above_its_last_point():
    # the root sits above the last scan point below hi, in the scan's top
    # cell: the scan includes hi itself, so that cell brackets the root
    lo, hi, points = -1.0, 1.0, 8
    below_top = _scan_point(lo, hi, points - 2, points)
    root = hi - 0.3 * (hi - below_top)
    form = _gamma2_form(lambda e: e - root, (lo, hi))
    assert next(reference_scan(form, 0, RootChoice(), lo, hi, points))[1] == hi
    assert solve_energy(form, 0, scan_points=points) == pytest.approx(root, abs=1e-15)
    # a residual that is not finite at hi and in the last ulps below it: the
    # top cell is scanned again, closer to hi
    nan_near_hi = _gamma2_form(
        lambda e: np.where(np.asarray(e) > hi - 1e-15, np.nan, np.asarray(e) - root), (lo, hi))
    assert math.isnan(quantization_residual(nan_near_hi, 0, math.nextafter(hi, lo)))
    assert list(reference_scan(nan_near_hi, 0, RootChoice(), lo, hi, points)) == []
    assert solve_energy(nan_near_hi, 0, scan_points=points) == pytest.approx(root, abs=1e-15)
    # a root at hi itself is a level at the asymptote, not a bound one; a
    # root a few ulp below hi is kept
    with pytest.raises(NoBoundState):
        solve_energy(_gamma2_form(lambda e: e - hi, (lo, hi)), 0, scan_points=points)
    at_top = hi - 8 * math.ulp(hi)
    level = solve_energy(_gamma2_form(lambda e: e - at_top, (lo, hi)), 0, scan_points=points)
    assert at_top - 2 * math.ulp(hi) <= level < hi
    # with a root in each edge cell the lower one is the level
    bottom = lo + 0.3 * (hi - lo) * 0.5 / points
    both = _gamma2_form(lambda e: (e - bottom) * (e - root), (lo, hi))
    assert solve_energy(both, 0, scan_points=points) == pytest.approx(bottom, abs=1e-15)


def test_inverse_power_levels_in_the_top_cell_are_kept():
    # every level is bound by under 2.3e-10 of a 0.007-deep window, inside
    # the scan's top cell, and the residual is NaN at the top (c2 - 2 p10 = 0
    # there): the top cell is scanned again
    spec, units = Mie(V0=0.014, a=0.024), UnitsConfig(hbar=7.86)
    form, _ = to_parametric(spec, 1, units)
    lo, hi = form.energy_window
    assert math.isnan(quantization_residuals(form, 0, np.array([hi]))[0])
    states = spectrum(spec, 1, units, n_max=4)
    assert [s.n for s in states] == [0, 1, 2, 3, 4]
    for state in states:
        expected = closed_form_energy(spec, 1, units, state.n)
        assert expected > _scan_point(lo, hi, SCAN_POINTS - 2, SCAN_POINTS)
        assert abs(state.energy - expected) <= 1e-12 * abs(expected)


def test_a_root_that_rounds_to_the_asymptote_is_not_bound():
    # Woods-Saxon n = 1 at its threshold: the 50-digit level is the
    # asymptote -V1 itself, and the refined root rounds to it
    spec = WoodsSaxon(V1=1.0, V2=4.121320343559645, a=1.0)
    assert _mp_level(spec, UNITS, 1) == -1.0
    form, _ = to_parametric(spec, 0, UNITS)
    with pytest.raises(NoBoundState):
        solve_energy(form, 1, spec.root_choice(), above=math.nextafter(-1.3, 0.0))
    assert [s.n for s in spectrum(spec, 0, UNITS, n_max=2)] == [0]


@pytest.mark.parametrize("V2", [21.22, 21.25, 21.3])
def test_level_bound_by_less_than_half_a_scan_cell_is_kept(V2):
    # Morse n = 1 lies within half a uniform scan spacing of the asymptote
    spec = GeneralizedMorse(V1=100.0, V2=V2, a=1.0)
    form, _ = to_parametric(spec, 0, UNITS)
    lo, hi = form.energy_window
    expected = [closed_form_energy(spec, 0, UNITS, n) for n in range(2)]
    assert expected[1] > hi - 0.5 * (hi - lo) / SCAN_POINTS
    states = spectrum(spec, 0, UNITS, n_max=2)
    assert [s.n for s in states] == [0, 1]
    for state, energy in zip(states, expected):
        assert abs(state.energy - energy) <= CLOSED_FORM_RTOL * abs(energy)


_WELLS = {
    "morse": lambda depth: GeneralizedMorse(V1=100.0, V2=depth, a=1.0),
    "rosen_morse": lambda depth: DeformedRosenMorse(V1=1.0, V2=depth, a=1.0, eta=1.0),
    "woods_saxon": lambda depth: WoodsSaxon(V1=1.0, V2=depth, a=1.0),
    "poschl_teller": lambda depth: PoschlTeller(V0=depth, a=1.0, eta=1.0),
}


def _holds(spec, n):
    try:
        closed_form_energy(spec, 0, UNITS, n)
    except NoBoundState:
        return False
    return True


def _threshold(make, n):
    """The depth at which level n of the well appears, by bisection on the
    closed form."""
    lo, hi = 0.0, 1.0
    while not _holds(make(hi), n):
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _holds(make(mid), n) else (mid, hi)
    return hi


def _mp_level(spec, units, n):
    """Level n of one of the four wells from its closed form at 50 digits on
    the same float parameters, or None where it is not bound: the float64
    closed forms lose digits near a level's threshold.  Woods-Saxon is the
    Rosen-Morse well at a/2 and eta = 1 lowered by V1, and Poschl-Teller the
    Rosen-Morse well with V1 = 0 and V2 = 4 V0; Morse has its own form."""
    with mpmath.workdps(50):
        mp = mpmath.mpf
        hbar, mass = mp(units.hbar), mp(units.mass)
        if isinstance(spec, GeneralizedMorse):
            a = mp(spec.a)
            w = mpmath.sqrt(2 * mass) * mp(spec.V2) / (hbar * a * mpmath.sqrt(mp(spec.V1)))
            bracket = w - (2 * n + 1)
            return float(-(hbar * a) ** 2 / (8 * mass) * bracket**2) if bracket > 0 else None
        if isinstance(spec, WoodsSaxon):
            left, step, depth, a, eta = -mp(spec.V1), mp(spec.V1), mp(spec.V2), mp(spec.a) / 2, 1
        elif isinstance(spec, PoschlTeller):
            left, step, depth, a, eta = 0, 0, 4 * mp(spec.V0), mp(spec.a), mp(spec.eta)
        else:
            left, step, depth, a, eta = 0, mp(spec.V1), mp(spec.V2), mp(spec.a), mp(spec.eta)
        c = mass / (2 * hbar**2 * a**2)
        kappa, gamma = c * step, c * depth * eta
        s_n = (mpmath.sqrt(1 + 4 * gamma / eta) - 1) / 2 - n
        if s_n <= mpmath.sqrt(kappa):
            return None
        return float(left - ((s_n**2 - kappa) / (2 * s_n)) ** 2 / c)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_WELLS)), st.integers(1, 3), st.floats(-12.0, -1.0))
def test_wells_keep_every_level_just_above_its_threshold(family, n, log_excess):
    # level n is bound by far less than a uniform scan cell, down to where
    # float64 barely tells it from the asymptote: every level more than 4 ulp
    # below the asymptote must come back, within 1e-12 of the 50-digit closed
    # form or 100 times the float64 closed form's own error there.  That
    # error counts the shift of the 50-digit level over one ulp of the depth:
    # the realized error of a float64 closed form can fall far below it (at
    # Poschl-Teller V0 = 3.0000000000471534, n = 2 it is 7.5e-12 relative,
    # while one ulp of V0 moves the level by 1.9e-5)
    make = _WELLS[family]
    depth = _threshold(make, n) * (1.0 + 10.0**log_excess)
    spec = make(depth)
    hi = to_parametric(spec, 0, UNITS)[0].energy_window[1]
    exact = [_mp_level(spec, UNITS, m) for m in range(n + 1)]
    kept = [m for m, e in enumerate(exact) if e is not None and e < hi - 4 * math.ulp(hi)]
    states = spectrum(spec, 0, UNITS, n_max=n)
    assert [s.n for s in states][:len(kept)] == kept
    for state in states:
        energy = exact[state.n]
        assert energy is not None
        error = max([abs(closed_form_energy(spec, 0, UNITS, state.n) - energy)]
                    + [abs(_mp_level(make(d), UNITS, state.n) - energy)
                       for d in (math.nextafter(depth, 0.0), math.nextafter(depth, math.inf))])
        assert abs(state.energy - energy) <= max(1e-12 * abs(energy), 100 * error)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_WELLS)), st.integers(1, 2), st.floats(-12.0, -6.0))
def test_levels_at_the_edge_of_resolution_stay_ordered_and_close(family, n, log_excess):
    # a level bound by 1e-24 to 1e-6 of the window: the levels that come
    # back are the lowest ones, ordered, below the asymptote, and within a
    # few ulp of the window's scale of the closed form
    make = _WELLS[family]
    spec = make(_threshold(make, n) * (1.0 + 10.0**log_excess))
    form, _ = to_parametric(spec, 0, UNITS)
    lo, hi = form.energy_window
    states = spectrum(spec, 0, UNITS, n_max=n)
    assert [s.n for s in states] in (list(range(n)), list(range(n + 1)))
    energies = [s.energy for s in states]
    assert energies == sorted(energies) and energies[-1] < hi
    for state in states:
        expected = closed_form_energy(spec, 0, UNITS, state.n)
        assert abs(state.energy - expected) <= 1e-14 * (hi - lo)


def test_weakly_bound_rosen_morse_level_keeps_its_digits():
    # n = 1 is bound by 2.2e-14 below the left asymptote 0, while the sum
    # L1/c3^2 + L2/c3 + L3 cancels terms of size 5 down to that binding: with
    # the declared H = c (left - E) the level is off by 2.6e-9, with the sum
    # by 2.3e-3
    spec = DeformedRosenMorse(V1=1.0, V2=9.242641611383357, a=1.0, eta=1.0)
    states = spectrum(spec, 0, UNITS, n_max=1)
    assert [s.n for s in states] == [0, 1]
    expected = _mp_level(spec, UNITS, 1)
    assert expected == pytest.approx(-2.1920748574395633e-14, rel=1e-15)
    assert abs(states[1].energy - expected) <= 1e-8 * abs(expected)


def test_rosen_morse_level_far_below_its_step_is_kept():
    # the step V1 = 80 is far above the well's depth: a level bound by
    # 2.1e-6 lies within half a uniform scan spacing of the asymptote, where
    # the residual from the summed H was NaN and the level was lost
    spec = DeformedRosenMorse(80.0, 86.05805001468568, 0.25, 1.0)
    units = UnitsConfig(0.5359415813664211, 0.7343350014051897)
    states = spectrum(spec, 0, units, n_max=3)
    assert [s.n for s in states] == [0, 1]
    for state in states:
        expected = _mp_level(spec, units, state.n)
        assert abs(state.energy - expected) <= CLOSED_FORM_RTOL * abs(expected)


# --------------------------------------------------------------------------
# the refiner's guards and its work
# --------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [DESK_CASES[i] for i in (0, 2, 3, 6)],
                         ids=lambda s: s.family)
def test_refiner_steps_past_a_nan_stretch(spec, monkeypatch):
    # the residual is NaN from 1e-14 beyond the root to the bracket end with
    # the larger |residual|, the end the refiner steps away from; the bracket
    # is 1e-3 |root| wide with its root 0.7 of the way up, where the first
    # interpolation steps land beyond the root
    form, _ = to_parametric(spec, 0, UNITS)
    rc = spec.root_choice()
    root = solve_energy(form, 0, rc)
    a = root - 0.7e-3 * abs(root)
    b = a + 1e-3 * abs(root)
    fa, fb = quantization_residual(form, 0, a, rc), quantization_residual(form, 0, b, rc)
    bracket = a, b, fa, fb
    far = a if abs(fa) > abs(fb) else b
    edge = root + math.copysign(1e-14 * abs(root), far - root)
    scalar = parametric.quantization_residual
    hits = []

    def patched(form, n, energy, root_choice=RootChoice()):
        if min(edge, far) < energy < max(edge, far):
            hits.append(energy)
            return math.nan
        return scalar(form, n, energy, root_choice)

    monkeypatch.setattr(parametric, "quantization_residual", patched)
    x = parametric._root_in(form, 0, rc, bracket)
    assert hits
    assert min(a, b) < x < max(a, b)
    assert abs(x - root) <= 1e-15 * abs(root)
    width = 1e-15 * abs(x)
    fx = patched(form, 0, x, rc)
    below, above = (patched(form, 0, x + s * width, rc) for s in (-1.0, 1.0))
    assert fx == 0.0 or (below < 0.0) != (above < 0.0)


@pytest.mark.parametrize("spec", [DESK_CASES[i] for i in (1, 2, 3, 5, 7, 8)],
                         ids=lambda s: s.family)
def test_refiner_keeps_the_root_beside_a_nan_stretch(spec, monkeypatch):
    # the scan's own n = 0 bracket, with the residual NaN from 1e-9 of the
    # way from the root to the end with the smaller |residual| up to that
    # end, the best end the refiner steps from: a trial point in the stretch
    # must not pull the other end across the root (before the guard probed
    # beside the stretch, the refiner returned a point 2.4e-6 to 1e-3
    # relative off the root for all but Mie, whose refinement steps from
    # its other end and never enters the stretch)
    form, _ = to_parametric(spec, 0, UNITS)
    rc = spec.root_choice()
    root = solve_energy(form, 0, rc)
    bracket = parametric._first_bracket(*parametric._scan(form, 0, rc, *form.energy_window,
                                                          SCAN_POINTS))
    a, b, fa, fb = bracket
    near = a if abs(fa) < abs(fb) else b
    edge = root + 1e-9 * (near - root)
    scalar = parametric.quantization_residual
    hits = []

    def patched(form, n, energy, root_choice=RootChoice()):
        if min(edge, near) < energy < max(edge, near):
            hits.append(energy)
            return math.nan
        return scalar(form, n, energy, root_choice)

    monkeypatch.setattr(parametric, "quantization_residual", patched)
    x = parametric._root_in(form, 0, rc, bracket)
    assert hits or isinstance(spec, Mie)
    assert abs(x - root) <= 1e-12 * abs(root)
    assert len(hits) < 100


def test_refiner_returns_an_exact_zero_at_a_trial_point(monkeypatch):
    # a linear residual: the first secant step lands on its root, where the
    # residual is exactly 0
    form = _gamma2_form(lambda e: e - 0.5, (-1.0, 1.25))
    fa, fb = quantization_residual(form, 0, -1.0), quantization_residual(form, 0, 1.25)
    calls = []
    scalar = parametric.quantization_residual

    def counted(*args, **kwargs):
        calls.append(args[2])
        return scalar(*args, **kwargs)

    monkeypatch.setattr(parametric, "quantization_residual", counted)
    assert parametric._root_in(form, 0, RootChoice(), (-1.0, 1.25, fa, fb)) == 0.5
    assert calls == [0.5]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DESK_CASES), st.integers(0, 2), st.integers(0, 5))
def test_refined_levels_match_the_closed_form_in_few_calls(spec, l, n_max):
    # every level within 1e-12 of the closed form, in at most 12 scalar
    # residual calls (bisection took about 38)
    l = l if l in _desk_ls(spec) else 0
    form, _ = to_parametric(spec, l, UNITS)
    rc = spec.root_choice()
    scalar = parametric.quantization_residual
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return scalar(*args, **kwargs)

    floor = None
    with mock.patch.object(parametric, "quantization_residual", counted):
        for n in range(n_max + 1):
            try:
                expected = closed_form_energy(spec, l, UNITS, n)
            except NoBoundState:
                break
            calls.clear()
            energy = solve_energy(form, n, rc, above=floor)
            assert len(calls) <= 12, (n, len(calls))
            assert abs(energy - expected) <= 1e-12 * abs(expected)
            floor = math.nextafter(energy, math.inf)
