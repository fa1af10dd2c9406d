"""Catalog mappings, closed forms, spectra, and wavefunction assembly."""

import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specbound import (
    Coulomb,
    DeformedRosenMorse,
    GeneralizedMorse,
    InvalidParameters,
    KratzerFues,
    Mie,
    NoBoundState,
    NoncentralRadial,
    OutOfDomain,
    PoschlTeller,
    Pseudoharmonic,
    UnitsConfig,
    UnsupportedAngularMomentum,
    WindowDegenerate,
    WoodsSaxon,
    closed_form_energy,
    count_nodes,
    default_grid,
    jacobi_eval,
    laguerre_eval,
    make_potential,
    potential_value,
    simpson_integrate,
    spectrum,
    to_parametric,
    wavefunction,
)
from specbound.potentials import sampling_window
from specbound import potentials
from specbound.parametric import LaguerreBranchConstants

UNITS = UnitsConfig()


# ---------------------------------------------------------------- validation

def test_parameter_validation():
    with pytest.raises(InvalidParameters):
        GeneralizedMorse(V1=-100.0, V2=20.0, a=1.0)
    with pytest.raises(InvalidParameters):
        KratzerFues(De=10.0, re=-1.0)
    with pytest.raises(InvalidParameters):
        PoschlTeller(V0=10.0, a=1.0, eta=0.0)
    with pytest.raises(InvalidParameters):
        NoncentralRadial(alpha=1.0, lam=0.0)
    with pytest.raises(InvalidParameters):
        UnitsConfig(hbar=0.0)


def test_one_dimensional_families_reject_l():
    for spec in (GeneralizedMorse(100, 20, 1), DeformedRosenMorse(4, 8, 0.5, 1),
                 WoodsSaxon(5, 10, 1), PoschlTeller(10, 1, 1),
                 NoncentralRadial(alpha=-1.0, lam=0.0)):
        with pytest.raises(UnsupportedAngularMomentum):
            to_parametric(spec, 1, UNITS)


def test_make_potential_maps_lambda_keyword():
    spec = make_potential("noncentral_radial", {"alpha": -1.0, "lambda": 1.0})
    assert spec.lam == 1.0
    with pytest.raises(InvalidParameters):
        make_potential("nonexistent", {})
    with pytest.raises(InvalidParameters):
        make_potential("coulomb", {"bogus": 1.0})


# ------------------------------------------------------------ potential values

def test_potential_values():
    assert potential_value(Mie(V0=5.0, a=1.0), 1.0) == pytest.approx(-2.5)
    assert potential_value(KratzerFues(De=10.0, re=1.0), 1.0) == 0.0
    morse = GeneralizedMorse(V1=100.0, V2=20.0, a=1.0)
    x_star = math.log(2 * 100.0 / 20.0) / 1.0
    assert potential_value(morse, x_star) == pytest.approx(-20.0**2 / 400.0)
    # the window floor is V at the analytic stationary point, exact here
    assert to_parametric(morse, 0, UNITS)[0].energy_window == (-1.0, 0.0)
    with pytest.raises(OutOfDomain):
        potential_value(Mie(V0=5.0, a=1.0), -1.0)


_depth = st.floats(0.5, 500.0)
_wells = st.one_of(
    st.builds(GeneralizedMorse, V1=_depth, V2=_depth, a=st.floats(0.2, 3.0)),
    st.builds(DeformedRosenMorse, V1=st.floats(0.0, 50.0), V2=_depth,
              a=st.floats(0.2, 3.0), eta=st.floats(0.1, 10.0)),
    st.builds(WoodsSaxon, V1=st.floats(0.0, 50.0), V2=_depth, a=st.floats(0.2, 3.0)),
    st.builds(PoschlTeller, V0=_depth, a=st.floats(0.2, 3.0), eta=st.floats(0.1, 10.0)),
)


@settings(max_examples=200, deadline=None)
@given(_wells)
# V1 = V2: 1/s* - eta rounded to 0 and well_center() raised a math domain error
@example(DeformedRosenMorse(V1=1.2185561670721683, V2=1.2185561670721683, a=1.0, eta=1.203125))
def test_window_bottom_is_v_at_the_analytic_center(spec):
    lo, hi = to_parametric(spec, 0, UNITS)[0].energy_window
    try:
        center = spec.well_center()
    except WindowDegenerate:
        assert lo == hi  # V1 >= V2 steps have no interior minimum
        return
    assert lo == potential_value(spec, center)
    x = center + np.linspace(-4.0, 4.0, 10_000) / spec.a
    v_min = float(np.min(potential_value(spec, x)))
    assert lo <= v_min + 4 * math.ulp(v_min)


def test_poschl_teller_is_sech_squared_well():
    pt = PoschlTeller(V0=10.0, a=1.0, eta=1.0)
    for x in (-1.3, 0.0, 0.8):
        assert potential_value(pt, x) == pytest.approx(-10.0 / math.cosh(x) ** 2, abs=1e-12)


def test_rosen_morse_eta_is_a_translation():
    # eta > 0 only shifts the profile, so the spectrum cannot depend on it
    e1 = spectrum(DeformedRosenMorse(4.0, 8.0, 0.5, 1.0), 0, UNITS, n_max=0)[0].energy
    e2 = spectrum(DeformedRosenMorse(4.0, 8.0, 0.5, 2.5), 0, UNITS, n_max=0)[0].energy
    assert e1 == pytest.approx(e2, rel=1e-12)


# ------------------------------------------------------------- coefficient maps

def test_coulomb_coefficients():
    form, cmap = to_parametric(Coulomb(e2=1.0), 0, UNITS)
    pc = form.coeff_at(-0.3)
    assert (pc.c1, pc.c2, pc.c3) == (2.0, 0.0, 0.0)
    assert pc.lambda1 == pytest.approx(0.6)
    assert pc.lambda2 == pytest.approx(2.0)
    assert pc.lambda3 == 0.0


def test_woods_saxon_coefficients():
    form, _ = to_parametric(WoodsSaxon(5.0, 10.0, 1.0), 0, UNITS)
    pc = form.coeff_at(-5.2)
    assert (pc.c1, pc.c2, pc.c3) == (1.0, -2.0, -1.0)
    assert pc.lambda1 == pytest.approx(20.0)
    assert pc.lambda2 == pytest.approx(30.0)
    assert pc.lambda3 == pytest.approx(10.4)


def test_step_family_coefficients_carry_doubled_c2():
    # the first-derivative coefficient of the transformed equation is
    # (1 - 2 eta s)/(s (1 - eta s)), hence c2 = -2 eta, not -eta
    eta = 1.7
    form, _ = to_parametric(DeformedRosenMorse(4.0, 8.0, 0.5, eta), 0, UNITS)
    pc = form.coeff_at(-0.1)
    assert (pc.c1, pc.c2, pc.c3) == (1.0, -2 * eta, -eta)
    c = 1.0 / (2 * 0.5**2)
    kappa, gamma = c * 4.0, c * 8.0 * eta
    assert pc.lambda1 == pytest.approx(gamma * eta)
    assert pc.lambda2 == pytest.approx(kappa * eta + gamma)
    assert pc.lambda3 == pytest.approx(c * (4.0 + 0.1))


def test_pseudoharmonic_coefficients():
    form, _ = to_parametric(Pseudoharmonic(V0=2.0, r0=1.0), 0, UNITS)
    pc = form.coeff_at(1.0)
    assert pc.c1 == 1.5
    assert pc.lambda1 == pytest.approx(1.0)
    assert pc.lambda2 == pytest.approx(0.5 * (1.0 + 4.0))
    assert pc.lambda3 == pytest.approx(1.0)


def test_morse_coefficient_signs():
    form, _ = to_parametric(GeneralizedMorse(100.0, 20.0, 1.0), 0, UNITS)
    pc = form.coeff_at(-0.4)
    assert (pc.c1, pc.c2, pc.c3) == (1.0, 0.0, 0.0)
    assert pc.lambda1 == pytest.approx(2.0)          # fixed decay scale
    assert pc.lambda2 == pytest.approx(2.0 * 20.0 / 10.0)
    assert pc.lambda3 == pytest.approx(0.8)          # positive for E < 0


@pytest.mark.parametrize("spec", [
    GeneralizedMorse(100.0, 20.0, 1.0), Mie(5.0, 1.0), KratzerFues(10.0, 1.0),
    Coulomb(1.0), Pseudoharmonic(2.0, 1.0), NoncentralRadial(-1.0, 0.0),
    DeformedRosenMorse(4.0, 8.0, 0.5, 1.0), WoodsSaxon(5.0, 10.0, 1.0),
    PoschlTeller(10.0, 1.0, 1.0),
], ids=lambda s: s.family)
def test_equal_wells_give_equal_forms_and_states(spec):
    # each desk well built twice: the forms and the states of the two
    # compare equal, and so do two spectra of one spec
    twin = dataclasses.replace(spec)
    assert twin is not spec
    assert to_parametric(twin, 0, UNITS)[0] == to_parametric(spec, 0, UNITS)[0]
    states = spectrum(spec, 0, UNITS, 2)
    assert states
    assert spectrum(twin, 0, UNITS, 2) == states
    assert spectrum(spec, 0, UNITS, 2) == states


# ------------------------------------------------------------------ spectra

def test_coulomb_spectrum_exact():
    states = spectrum(Coulomb(e2=1.0), 0, UNITS, n_max=2)
    expected = [-0.5, -0.125, -1.0 / 18.0]
    assert len(states) == 3
    for st, e in zip(states, expected):
        assert st.energy == pytest.approx(e, abs=1e-12)


def test_coulomb_degeneracy_in_principal_number():
    e10 = spectrum(Coulomb(e2=1.0), 0, UNITS, n_max=1)[1].energy
    e01 = spectrum(Coulomb(e2=1.0), 1, UNITS, n_max=0)[0].energy
    assert e10 == pytest.approx(e01, abs=1e-12)


def test_noncentral_reduces_to_coulomb():
    for ell in (0, 1, 2):
        lam = ell * (ell + 1) / 2.0
        nc = spectrum(NoncentralRadial(alpha=-1.0, lam=lam), 0, UNITS, n_max=1)
        cb = spectrum(Coulomb(e2=1.0), ell, UNITS, n_max=1)
        for a, b in zip(nc, cb):
            assert a.energy == pytest.approx(b.energy, abs=1e-12)


def test_units_scaling_coulomb():
    units = UnitsConfig(hbar=2.0, mass=0.5)
    st = spectrum(Coulomb(e2=1.0), 0, units, n_max=0)[0]
    assert st.energy == pytest.approx(-0.5 * 1.0 / (4.0 * 2.0), abs=1e-12)
    assert closed_form_energy(Coulomb(1.0), 0, units, 0) == pytest.approx(st.energy,
                                                                          rel=1e-12)


def test_morse_has_single_level_at_desk_parameters():
    spec = GeneralizedMorse(100.0, 20.0, 1.0)
    states = spectrum(spec, 0, UNITS, n_max=8)
    assert len(states) == 1
    w = math.sqrt(2.0) * 20.0 / 10.0
    assert states[0].energy == pytest.approx(-(w - 1) ** 2 / 8.0, rel=1e-12)
    with pytest.raises(NoBoundState):
        closed_form_energy(spec, 0, UNITS, 1)


def test_kratzer_ground_level_is_two():
    # De = 10, re = 1 gives 1 + 4 L3 = 81 and E0 = 10 - 800/100 exactly
    states = spectrum(KratzerFues(10.0, 1.0), 0, UNITS, n_max=1)
    assert states[0].energy == pytest.approx(2.0, rel=1e-12)
    assert states[1].energy == pytest.approx(10.0 - 800.0 / 144.0, rel=1e-12)


def test_poschl_teller_ladder():
    states = spectrum(PoschlTeller(10.0, 1.0, 1.0), 0, UNITS, n_max=6)
    assert [st.n for st in states] == [0, 1, 2, 3]
    for st, e in zip(states, [-8.0, -4.5, -2.0, -0.5]):
        assert st.energy == pytest.approx(e, rel=1e-12)


def test_woods_saxon_desk_level():
    states = spectrum(WoodsSaxon(5.0, 10.0, 1.0), 0, UNITS, n_max=4)
    assert len(states) == 1
    assert states[0].energy == pytest.approx(-5.28125, rel=1e-13)


def test_woods_saxon_shallow_pocket_has_no_levels():
    # V1 >= V2 leaves no pocket below the left asymptote
    assert spectrum(WoodsSaxon(5.0, 2.0, 1.0), 0, UNITS, n_max=3) == []


def test_mie_closed_form_structure():
    spec = Mie(V0=5.0, a=1.0)
    lam2 = 2 * 1.0 * 5.0
    lam3 = 5.0 / 2.0 * 2.0
    for n in range(3):
        expected = -0.5 * (lam2 / (2 * n + 1 + math.sqrt(1 + 4 * lam3))) ** 2
        assert closed_form_energy(spec, 0, UNITS, n) == pytest.approx(expected, rel=1e-14)


def test_pseudoharmonic_ground_energy():
    st = spectrum(Pseudoharmonic(2.0, 1.0), 0, UNITS, n_max=0)[0]
    assert st.energy == pytest.approx(math.sqrt(17.0) - 2.0, rel=1e-12)


def test_spectrum_monotone_increasing():
    for spec, l in [(Mie(5.0, 1.0), 1), (KratzerFues(10.0, 1.0), 2),
                    (Pseudoharmonic(2.0, 1.0), 1)]:
        states = spectrum(spec, l, UNITS, n_max=3)
        energies = [st.energy for st in states]
        assert energies == sorted(energies)
        assert all(b > a for a, b in zip(energies, energies[1:]))


# ------------------------------------------------------------- wavefunctions

def test_coulomb_ground_state_shape():
    st = spectrum(Coulomb(e2=1.0), 0, UNITS, n_max=0)[0]
    # R(r) is proportional to exp(-r) at l = 0, n = 0
    ratio = wavefunction(st, 2.0) / wavefunction(st, 1.0)
    assert ratio == pytest.approx(math.exp(-1.0), rel=1e-12)
    # normalization holds to 1e-8 against a much finer quadrature, i.e. the
    # stored constant reflects the true integral, not just its own grid
    x = np.linspace(0.0, 80.0, 48001)
    psi = wavefunction(st, x)
    assert simpson_integrate(psi * psi * x**2, x[1] - x[0]) == pytest.approx(1.0, abs=1e-8)


def test_wavefunction_boundary_decay():
    st = spectrum(KratzerFues(10.0, 1.0), 0, UNITS, n_max=0)[0]
    # q10 = 4 at these parameters, so R ~ r^4 near the origin
    assert abs(wavefunction(st, 1e-4)) < 1e-12
    assert wavefunction(st, 0.0) == 0.0


def test_wavefunction_out_of_domain():
    st = spectrum(Coulomb(e2=1.0), 0, UNITS, n_max=0)[0]
    with pytest.raises(OutOfDomain):
        wavefunction(st, -1.0)


@pytest.mark.parametrize("spec", [Coulomb(e2=1.0), Pseudoharmonic(2.0, 1.0),
                                  KratzerFues(10.0, 1.0)], ids=lambda s: s.family)
def test_radial_wavefunction_refuses_negative_x(spec):
    st = spectrum(spec, 1, UNITS, n_max=1)[1]
    with pytest.raises(OutOfDomain):
        wavefunction(st, np.array([0.0, 1.0, -1e-300, 2.0]))
    with pytest.raises(OutOfDomain):
        wavefunction(st, -math.inf)
    # the domain's edge itself, and a point far out, are sampled
    assert np.all(np.isfinite(wavefunction(st, np.array([0.0, 1e3]))))


def _masked_wavefunction(state, x):
    """psi with every sample masked: zeros, and exp(t) times the polynomial
    gathered at the samples with t > -700 and scattered back, as psi was
    formed before samples that are all live took a direct product; also
    the mask."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pc, constants, cmap, n = state.coefficients, state.constants, state.cmap, state.n
    s = np.asarray(cmap.s_of_x(x), dtype=float)
    log_s, log_base = cmap.logs_of_x(x)
    s_star, _ = potentials._prefactor_peak(pc, constants)
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
    out = np.zeros_like(s)
    live = t > -700.0
    out[live] = np.exp(t[live]) * np.asarray(poly(y[live]))
    return state.norm_constant * out, live


# the deep wells of the benchmark's spectrum rounds, and Coulomb, with the
# number of their levels that have samples where t <= -700: Morse's on the
# far left of its grid, where s = sqrt(V1) e^(-ax) is huge, and Coulomb's
# low levels far out in their tails
_SAMPLED = [
    (PoschlTeller(V0=600.0, a=1.0, eta=1.0), 31, 0),
    (PoschlTeller(V0=30.0, a=1.0, eta=2.0), 6, 0),
    (WoodsSaxon(V1=5.0, V2=200.0, a=1.0), 13, 0),
    (DeformedRosenMorse(V1=10.0, V2=400.0, a=1.0, eta=1.0), 9, 0),
    (GeneralizedMorse(V1=100.0, V2=240.0, a=1.0), 15, 16),
    (Coulomb(e2=1.0), 40, 14),
]


@pytest.mark.parametrize("spec, n_max, dead_levels", _SAMPLED,
                         ids=lambda v: getattr(v, "family", ""))
def test_wavefunction_is_the_masked_formula(spec, n_max, dead_levels):
    grid = default_grid(spec, 0, UNITS, n_max=n_max)
    u = np.linspace(0.0, 1.0, 2000)
    x = grid.x_min + (grid.x_max - grid.x_min) * (u * u if spec.radial else u)
    states = spectrum(spec, 0, UNITS, n_max=n_max)
    assert len(states) == n_max + 1
    dead = 0
    for st in states:
        expect, live = _masked_wavefunction(st, x)
        dead += not live.all()
        assert np.array_equal(wavefunction(st, x), expect)
        for i in (0, 1, 700, 1500, 1999):
            assert wavefunction(st, float(x[i])) == float(expect[i])
    assert dead == dead_levels


def test_node_counts_match_level_index():
    cases = [
        (Coulomb(e2=1.0), 0, 3),
        (KratzerFues(10.0, 1.0), 0, 3),
        (PoschlTeller(10.0, 1.0, 1.0), 0, 3),
        (Pseudoharmonic(2.0, 1.0), 0, 3),
    ]
    for spec, l, n_max in cases:
        states = spectrum(spec, l, UNITS, n_max=n_max)
        grid = default_grid(spec, l, UNITS, n_max=n_max)
        x = np.linspace(grid.x_min, grid.x_max, 10_000)
        for st in states:
            interior = wavefunction(st, x[1:-1])
            assert count_nodes(interior) == st.n, (spec.family, st.n)


def test_orthogonality_same_family():
    states = spectrum(Coulomb(e2=1.0), 0, UNITS, n_max=2)
    grid = default_grid(Coulomb(e2=1.0), 0, UNITS)
    x = grid.points()
    psis = [wavefunction(st, x) for st in states]
    w = x**2
    for i in range(3):
        for j in range(i + 1, 3):
            overlap = simpson_integrate(psis[i] * psis[j] * w, grid.h)
            assert abs(overlap) < 1e-6


def test_morse_wavefunction_overflow_guard():
    # far into the repulsive wall s is huge; the state must evaluate to 0,
    # not overflow
    st = spectrum(GeneralizedMorse(100.0, 20.0, 1.0), 0, UNITS, n_max=0)[0]
    vals = wavefunction(st, np.array([-200.0, -50.0, 30.0]))
    assert np.all(np.isfinite(vals))
    assert abs(vals[0]) == 0.0


@pytest.mark.parametrize("spec, l, inside, far", [
    (Coulomb(e2=1.0), 1, 5.0, [math.inf]),
    (Mie(V0=5.0, a=1.0), 0, 1.0, [math.inf]),
    (KratzerFues(10.0, 1.0), 2, 1.0, [math.inf]),
    (NoncentralRadial(alpha=-1.0, lam=1.0), 0, 5.0, [math.inf]),
    (Pseudoharmonic(2.0, 1.0), 1, 1.0, [1e200, math.inf]),
    (GeneralizedMorse(100.0, 20.0, 1.0), 0, 2.0, [-math.inf, -1000.0]),
], ids=lambda v: getattr(v, "family", ""))
def test_far_tail_samples_are_zero_without_warnings(spec, l, inside, far):
    # s = inf (x = inf on the radial maps, x = -inf for Morse) made
    # t = -p s + q log s NaN, and s overflows at finite x for the
    # pseudoharmonic r^2 and the Morse e^(-ax): psi is 0 there, with
    # warnings raised as errors
    st = spectrum(spec, l, UNITS, n_max=1)[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = wavefunction(st, np.array([inside, *far]))
        scalars = [wavefunction(st, v) for v in far]
    assert psi[0] != 0.0
    assert psi[1:].tolist() == scalars == [0.0] * len(far)


# ------------------------------------------------------------- edge searches

def _scalar_expand_to_edge(past_edge, start, step, direction):
    """The edge search as one point per test: doublings of the step until
    a point is past the edge, then 60 bisection steps; the reference that
    ``potentials._expand_to_edge`` must reproduce bit for bit."""
    d = step
    x_prev = start
    for _ in range(200):
        x = start + direction * d
        if past_edge(x):
            lo, hi = x_prev, x
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if past_edge(mid):
                    hi = mid
                else:
                    lo = mid
            return hi
        x_prev = x
        d *= 2.0
    raise InvalidParameters("could not locate an edge: the walk never got past it")


def _checked_searches(monkeypatch):
    """Patch the edge search to check every call against the scalar
    reference; returns the list of (new, reference) edges."""
    search, seen = potentials._expand_to_edge, []

    def checked(past_edge, start, step, direction):
        edge = search(past_edge, start, step, direction)
        reference = _scalar_expand_to_edge(past_edge, start, step, direction)
        seen.append((edge, reference))
        return edge

    monkeypatch.setattr(potentials, "_expand_to_edge", checked)
    return seen


# the `verify-catalog` rows of the benchmark: the nine desk wells at l = 0,
# four radial wells at l = 1 and 2, and three rows in other units
_DESK = [GeneralizedMorse(V1=100.0, V2=20.0, a=1.0), Mie(V0=5.0, a=1.0),
         KratzerFues(De=10.0, re=1.0), Coulomb(e2=1.0), Pseudoharmonic(V0=2.0, r0=1.0),
         NoncentralRadial(alpha=-1.0, lam=0.0),
         DeformedRosenMorse(V1=4.0, V2=8.0, a=0.5, eta=1.0),
         WoodsSaxon(V1=5.0, V2=10.0, a=1.0), PoschlTeller(V0=10.0, a=1.0, eta=1.0)]
_CATALOG = ([(spec, 0, UNITS) for spec in _DESK]
            + [(spec, l, UNITS) for l in (1, 2) for spec in _DESK[1:5]]
            + [(Coulomb(e2=1.0), 0, UnitsConfig(hbar=2.0)),
               (KratzerFues(De=10.0, re=1.0), 0, UnitsConfig(mass=0.5)),
               (PoschlTeller(V0=10.0, a=1.0, eta=1.0), 0, UnitsConfig(hbar=0.5)),
               (Coulomb(e2=2.0), 0, UNITS),
               (GeneralizedMorse(V1=100.0, V2=20.0, a=1.0), 0, UnitsConfig(mass=4.0))])


@pytest.mark.parametrize("spec, l, units", _CATALOG,
                         ids=[f"{s.family}-l{l}-{u.hbar:g}-{u.mass:g}" for s, l, u in _CATALOG])
def test_edge_search_is_the_scalar_bisection(spec, l, units, monkeypatch):
    # every grid edge and every sampling window edge of the row, as the
    # oracle and `wavefunction` ask for them
    seen = _checked_searches(monkeypatch)
    states = spectrum(spec, l, units, n_max=2)
    default_grid(spec, l, units, n_max=len(states) - 1)
    for st in states:
        sampling_window(st)
    assert [edge.hex() for edge, _ in seen] == [ref.hex() for _, ref in seen]
    assert len(seen) >= len(states)


@pytest.mark.parametrize("spec, l, units, n_max, intervals", [
    (Coulomb(e2=1.0), 0, UnitsConfig(hbar=30.0), 2, 3644999),
    (Coulomb(e2=0.0954), 2, UnitsConfig(hbar=9.47, mass=0.605), 3, 24075032),
    (NoncentralRadial(alpha=-0.02, lam=0.0308), 0, UnitsConfig(hbar=6.33, mass=0.115), 3,
     125443817),
])
def test_edge_search_keeps_the_row_cap_grids(spec, l, units, n_max, intervals, monkeypatch):
    # the grids that decide the oracle's row cap: the largest that passes
    # and the two that are refused
    seen = _checked_searches(monkeypatch)
    assert default_grid(spec, l, units, n_max=n_max).n_points - 1 == intervals
    assert len(seen) == 1 and seen[0][0].hex() == seen[0][1].hex()


@settings(max_examples=300, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(1e-3, 10.0), st.sampled_from([-1, 1]),
       st.floats(0.0, 50.0), st.floats(0.0, 1e-4), st.integers(1, 10**9),
       st.floats(0.0, 1.0))
def test_edge_search_is_the_scalar_bisection_on_ragged_edges(start, step, direction,
                                                            distance, band, grain, share):
    # an edge whose test flips back and forth in a band around it, as
    # rounding makes a computed potential do: the steps the search predicts
    # from the transition it finds go wrong there, and the result must
    # still be the bisection's own
    edge = start + direction * distance

    def past_edge(x):
        beyond = direction * (np.asarray(x, dtype=float) - edge)
        ragged = (np.abs(beyond) < band) & ((np.asarray(x) * grain) % 1.0 < share)
        return (beyond >= 0) ^ ragged

    expected = _scalar_expand_to_edge(past_edge, start, step, direction)
    assert potentials._expand_to_edge(past_edge, start, step, direction) == expected


def test_edge_search_at_infinity_is_the_scalar_bisection():
    # a walk whose first point past the edge is infinite: every midpoint
    # of the bracket is infinite too, and the edge is inf
    def past_edge(x):
        return np.asarray(x) == math.inf

    assert _scalar_expand_to_edge(past_edge, 0.0, 1e300, 1) == math.inf
    assert potentials._expand_to_edge(past_edge, 0.0, 1e300, 1) == math.inf


def test_edge_search_refuses_a_walk_that_never_gets_past():
    with pytest.raises(InvalidParameters, match="never got past"):
        potentials._expand_to_edge(lambda x: np.zeros(np.shape(x), dtype=bool), 0.0, 1.0, 1)
