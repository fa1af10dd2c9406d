"""Branch constants, quantization residuals, and the energy root finder."""

import math

import numpy as np
import pytest

from specbound import (
    ConsistencyViolation,
    Coulomb,
    EnergyDependentForm,
    GeneralizedMorse,
    JacobiBranchConstants,
    KratzerFues,
    NegativeDiscriminant,
    NoBoundState,
    NotJacobiBranch,
    NotLaguerreBranch,
    ParametricCoefficients,
    RootChoice,
    UnitsConfig,
    WindowDegenerate,
    WoodsSaxon,
    compact_jacobi_residual,
    consistency_check,
    quantization_residual,
    solve_energy,
    solve_jacobi_constants,
    solve_laguerre_constants,
    to_parametric,
)

UNITS = UnitsConfig()


def _ws_coefficients(energy):
    form, _ = to_parametric(WoodsSaxon(V1=5.0, V2=10.0, a=1.0), 0, UNITS)
    return form.coeff_at(energy), form


def test_branch_tagging_is_exact():
    assert ParametricCoefficients(1, 0, 0.0, 1, 1, 1).branch == "laguerre"
    assert ParametricCoefficients(1, 0, -1e-30, 1, 1, 1).branch == "jacobi"


def test_branch_mismatch_raises():
    lag = ParametricCoefficients(2, 0, 0, 1, 1, 0)
    jac = ParametricCoefficients(1, -2, -1, 1, 1, 1)
    with pytest.raises(NotJacobiBranch):
        solve_jacobi_constants(lag)
    with pytest.raises(NotLaguerreBranch):
        solve_laguerre_constants(jac)


def test_jacobi_q0_is_sqrt_lambda3_for_c1_one():
    # the deformed-step family has c1 = 1 so q0 = sqrt(L3)
    eps, kappa = 0.4, 8.0
    pc = ParametricCoefficients(1.0, -1.0, -1.0, 16.0, 24.0, eps + kappa)
    jc = solve_jacobi_constants(pc)
    assert jc.q0 == pytest.approx(math.sqrt(eps + kappa), abs=1e-14)


def test_jacobi_q0_zero_lambda3():
    pc = ParametricCoefficients(1.0, -2.0, -1.0, 0.0, 0.0, 0.0)
    assert solve_jacobi_constants(pc).q0 == 0.0


def test_woods_saxon_trial_energy_constants():
    # at a trial energy, q0 = sqrt(eps) and the plus root gives
    # p0 = +sqrt(eps - A) with A the scaled step depth
    energy = -5.2
    pc, _ = _ws_coefficients(energy)
    eps = -2.0 * energy
    big_a = 2.0 * 5.0
    jc = solve_jacobi_constants(pc, RootChoice(q_sign=+1, p_sign=+1))
    assert jc.q0 == pytest.approx(math.sqrt(eps), abs=1e-13)
    assert jc.p0 == pytest.approx(math.sqrt(eps - big_a), abs=1e-13)
    # the coefficient identities hold for either p root
    assert abs(jc.r2) < 1e-10
    assert abs(jc.r1 + jc.r3) < 1e-10
    jc_minus = solve_jacobi_constants(pc, RootChoice(q_sign=+1, p_sign=-1))
    assert abs(jc_minus.r2) < 1e-10
    assert abs(jc_minus.r1 + jc_minus.r3) < 1e-10


def test_root_substitution_property_randomized():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        c1 = rng.uniform(0.0, 3.0)
        c2 = rng.uniform(-3.0, 3.0)
        c3 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
        lams = rng.uniform(-2.0, 5.0, size=3)
        pc = ParametricCoefficients(c1, c2, c3, *lams)
        try:
            jc = solve_jacobi_constants(pc, RootChoice(
                q_sign=int(rng.choice([-1, 1])), p_sign=int(rng.choice([-1, 1]))))
        except NegativeDiscriminant:
            continue
        checked += 1
        assert abs(jc.q0**2 - (1 - c1) * jc.q0 - pc.lambda3) < 1e-12 * max(1, jc.q0**2)
        assert abs(jc.p0**2 - jc.D * jc.p0 - jc.H) < 1e-12 * max(1, jc.p0**2)
        assert abs(jc.r2) < 1e-9 * max(1.0, abs(jc.r1), abs(jc.r3))
        assert abs(jc.r1 + jc.r3) < 1e-9 * max(1.0, abs(jc.r1), abs(jc.r3))


def test_laguerre_q10_is_angular_momentum_for_c1_two():
    for ell in range(4):
        pc = ParametricCoefficients(2.0, 0.0, 0.0, 1.0, 2.0, float(ell * (ell + 1)))
        lc = solve_laguerre_constants(pc)
        assert lc.q10 == pytest.approx(float(ell), abs=1e-13)
        assert lc.k == pytest.approx(2 * ell + 1, abs=1e-13)


def test_laguerre_all_zero_case():
    lc = solve_laguerre_constants(ParametricCoefficients(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert (lc.q10, lc.p10, lc.k) == (0.0, 0.0, 0.0)


def test_laguerre_gamma1_vanishes_by_construction():
    lc = solve_laguerre_constants(ParametricCoefficients(2.0, 0.0, 0.0, 0.25, 1.0, 0.0))
    assert lc.p10 == pytest.approx(0.5, abs=1e-14)
    assert abs(lc.gamma1) < 1e-14
    rng = np.random.default_rng(99)
    done = 0
    while done < 100:
        c2 = rng.uniform(-4.0, 4.0)
        lam1 = rng.uniform(-(c2 / 2) ** 2 + 1e-6, 9.0)
        pc = ParametricCoefficients(1.0, c2, 0.0, lam1, rng.uniform(-3, 3),
                                    rng.uniform(0, 4))
        lc = solve_laguerre_constants(pc)
        done += 1
        assert abs(lc.gamma1) < 1e-14
        assert abs(lc.gamma3) < 1e-12


def test_laguerre_negative_discriminant():
    with pytest.raises(NegativeDiscriminant):
        solve_laguerre_constants(ParametricCoefficients(1.0, 0.0, 0.0, -1.0, 0.0, 0.0))
    with pytest.raises(NegativeDiscriminant):
        solve_laguerre_constants(ParametricCoefficients(1.0, 0.0, 0.0, 1.0, 0.0, -1.0))


def test_coulomb_residual_values():
    form, _ = to_parametric(Coulomb(e2=1.0), 0, UNITS)
    assert abs(quantization_residual(form, 0, -0.5)) < 1e-12
    assert quantization_residual(form, 0, -0.125) == pytest.approx(1.0, abs=1e-12)


def test_residual_zero_at_every_solved_level():
    form, _ = to_parametric(KratzerFues(De=10.0, re=1.0), 1, UNITS)
    for n in range(4):
        e = solve_energy(form, n)
        assert abs(quantization_residual(form, n, e)) < 1e-10


def test_solve_energy_coulomb_exact():
    form, _ = to_parametric(Coulomb(e2=1.0), 0, UNITS)
    assert solve_energy(form, 0) == pytest.approx(-0.5, abs=1e-12)
    form1, _ = to_parametric(Coulomb(e2=1.0), 1, UNITS)
    assert solve_energy(form1, 0) == pytest.approx(-0.125, abs=1e-12)


def test_solve_energy_needs_both_window_edges():
    form, _ = to_parametric(Coulomb(e2=1.0), 0, UNITS)
    with pytest.raises(ValueError, match="scan_points"):
        solve_energy(form, 0, scan_points=1)


def test_solve_energy_exhausted_well():
    spec = GeneralizedMorse(V1=100.0, V2=20.0, a=1.0)
    form, _ = to_parametric(spec, 0, UNITS)
    solve_energy(form, 0)
    with pytest.raises(NoBoundState):
        solve_energy(form, 1)


def test_solve_energy_degenerate_window():
    # L1 = 2 (0 - E)
    form = EnergyDependentForm(ParametricCoefficients(2.0, 0.0, 0.0, 0.0, 2.0, 0.0),
                               2.0, ("lambda1",), (0.0, 0.0))
    with pytest.raises(WindowDegenerate):
        solve_energy(form, 0)


def test_bracketing_width_relative():
    form, _ = to_parametric(Coulomb(e2=1.0), 0, UNITS)
    e = solve_energy(form, 2)
    # bisection runs to machine-relative width, far below the 1e-12 contract
    assert abs(e - (-1.0 / 18.0)) < 1e-12 * abs(e) * 10


def test_compact_residual_agrees_in_magnitude():
    # the single-line form is the negative of the first-principles residual,
    # so their magnitudes must match at every admissible trial energy
    spec = WoodsSaxon(V1=5.0, V2=10.0, a=1.0)
    form, _ = to_parametric(spec, 0, UNITS)
    rc = RootChoice(q_sign=+1, p_sign=-1)
    for energy in np.linspace(-5.6, -5.01, 25):
        full = quantization_residual(form, 0, energy, rc)
        compact = compact_jacobi_residual(form, 0, energy, rc)
        assert abs(abs(full) - abs(compact)) < 1e-10 * max(1.0, abs(full))
        assert full == pytest.approx(-compact, abs=1e-10 * max(1.0, abs(full)))


def test_compact_residual_logged_for_other_step_families():
    # recorded for diagnosis on the remaining c3 != 0 families, not asserted:
    # the single-line form is historically error-prone there
    from specbound import DeformedRosenMorse, PoschlTeller

    rc = RootChoice(q_sign=+1, p_sign=-1)
    for spec, window in [(DeformedRosenMorse(4.0, 8.0, 0.5, 1.0), (-0.45, -0.05)),
                         (PoschlTeller(10.0, 1.0, 1.0), (-9.0, -0.5))]:
        form, _ = to_parametric(spec, 0, UNITS)
        gaps = []
        for energy in np.linspace(*window, 9):
            full = quantization_residual(form, 0, energy, rc)
            compact = compact_jacobi_residual(form, 0, energy, rc)
            gaps.append(abs(abs(full) - abs(compact)))
        print(f"\n[cross-check] {spec.family}: max |appendix|-vs-|single-line| "
              f"gap {max(gaps):.3e} over {len(gaps)} trial energies")


def test_residual_monotone_within_bracket():
    # no double sign change inside the scan cell the bisection refines
    for spec, l in [(Coulomb(e2=1.0), 0), (KratzerFues(De=10.0, re=1.0), 0)]:
        form, _ = to_parametric(spec, l, UNITS)
        e0 = solve_energy(form, 1)
        lo, hi = form.energy_window
        cell = (hi - lo) / 2000.0
        es = np.linspace(e0 - cell, e0 + cell, 50)
        vals = [quantization_residual(form, 1, float(e)) for e in es]
        flips = sum(1 for a, b in zip(vals, vals[1:]) if (a < 0) != (b < 0))
        assert flips == 1


def test_coefficients_energy_independence_and_determinism():
    form, _ = to_parametric(WoodsSaxon(V1=5.0, V2=10.0, a=1.0), 0, UNITS)
    pc1 = form.coeff_at(-5.3)
    pc2 = form.coeff_at(-5.05)
    assert (pc1.c1, pc1.c2, pc1.c3) == (pc2.c1, pc2.c2, pc2.c3)
    assert form.coeff_at(-5.3) == form.coeff_at(-5.3)


def test_consistency_check_raises_on_bad_constants():
    bad = JacobiBranchConstants(q0=1.0, p0=1.0, alpha=1.0, beta=1.0, D=0.0, H=0.0,
                                r1=0.5, r2=1e-3, r3=0.2)
    with pytest.raises(ConsistencyViolation):
        consistency_check(bad)


def test_all_zero_coefficients_give_vanishing_polynomial():
    # with every L zero and c2/c3 = 2 both exponents collapse to zero and
    # the polynomial coefficients vanish identically
    pc = ParametricCoefficients(1.0, -2.0, -1.0, 0.0, 0.0, 0.0)
    jc = solve_jacobi_constants(pc)
    assert (jc.q0, jc.p0) == (0.0, 0.0)
    assert (jc.r1, jc.r2, jc.r3) == (0.0, 0.0, 0.0)


def test_consistency_check_reports_magnitudes():
    pc, _ = _ws_coefficients(-5.28125)
    jc = solve_jacobi_constants(pc, RootChoice(q_sign=+1, p_sign=-1))
    report = consistency_check(jc)
    assert report.r2_abs < 1e-10
    assert report.r1_plus_r3_abs < 1e-10


def test_root_choice_validation():
    with pytest.raises(ValueError):
        RootChoice(q_sign=2, p_sign=1)
