"""Exact normalization: the closed-form norm of every family against
independent quadrature, and the Jacobian data it rests on.

The norm integrals are computed here in the physical coordinate x, with
s(x), 1 + c3 s(x), the measure and the polynomials evaluated by mpmath at
30 digits, so neither the declared Jacobian nor the package's recurrences
enter the reference value.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from specbound import (
    Coulomb,
    DeformedRosenMorse,
    GeneralizedMorse,
    KratzerFues,
    Mie,
    NoncentralRadial,
    PoschlTeller,
    Pseudoharmonic,
    UnitsConfig,
    WoodsSaxon,
    closed_form_energy,
    default_grid,
    simpson_integrate,
    spectrum,
    to_parametric,
    wavefunction,
)

UNITS = UnitsConfig()
NORM_RTOL = 1e-12


def _mp_s_and_base(spec, x):
    """s(x) and 1 + c3 s(x) at 30 digits, the second in cancellation-free
    form (1 - eta s = e^(2ax) / (e^(2ax) + eta) far on the left)."""
    if isinstance(spec, GeneralizedMorse):
        return mpmath.sqrt(spec.V1) * mpmath.exp(-spec.a * x), mpmath.mpf(1)
    if isinstance(spec, Pseudoharmonic):
        return x * x, mpmath.mpf(1)
    if spec.radial:
        return x, mpmath.mpf(1)
    if isinstance(spec, WoodsSaxon):
        e = mpmath.exp(spec.a * x)
        return 1 / (1 + e), e / (1 + e)
    e = mpmath.exp(2 * spec.a * x)
    return 1 / (e + spec.eta), e / (e + spec.eta)


def _mp_logs(spec, x):
    """log s(x) and log(1 + c3 s(x)) at 30 digits.  For the step wells both
    go through log1p: far out, s = 1/(e^(2ax) + eta) and 1 - eta s =
    1/(1 + eta e^(-2ax)) round to 1/eta and 1 at 30 digits, which would drop
    the small parts of their logs that the test compares."""
    s, base = _mp_s_and_base(spec, x)
    if spec.radial or isinstance(spec, GeneralizedMorse):
        return mpmath.log(s), mpmath.log(base)
    a, eta = (spec.a / 2, 1) if isinstance(spec, WoodsSaxon) else (spec.a, spec.eta)
    e = mpmath.exp(2 * a * x)
    return -mpmath.log(eta) - mpmath.log1p(e / eta), -mpmath.log1p(eta / e)


def _mp_psi(state, x):
    """The textbook, unscaled psi: s^q e^(-p s) L_n^k(2 p s) or
    s^q (1 + c3 s)^(-p) P_n^(alpha, beta)(1 + 2 c3 s)."""
    c, n = state.constants, state.n
    s, base = _mp_s_and_base(state.potential, x)
    if state.coefficients.branch == "laguerre":
        q, p = mpmath.mpf(c.q10), mpmath.mpf(c.p10)
        return s**q * mpmath.exp(-p * s) * mpmath.laguerre(n, c.k, 2 * p * s)
    q, p = mpmath.mpf(c.q0), mpmath.mpf(c.p0)
    return s**q * base ** (-p) * mpmath.jacobi(n, c.alpha, c.beta, 2 * base - 1)


def _mp_norm(state, grid, pieces):
    """Norm integral in x over subintervals of the grid, extended on each
    open side until the integrand has dropped below 1e-40 of its value at
    the grid's edge (infinite limits would send s(x) to e^(e^...))."""
    measure = (lambda x: x * x) if state.potential.radial else (lambda x: 1)

    def integrand(x):
        return _mp_psi(state, x) ** 2 * measure(x)

    def tail_end(x, step):
        floor = 1e-40 * max(abs(integrand(x)), mpmath.mpf(10) ** -300)
        while abs(integrand(x)) > floor:
            x += step
        return x

    width = mpmath.mpf(grid.x_max - grid.x_min)
    points = [mpmath.mpf(v) for v in np.linspace(grid.x_min, grid.x_max, pieces + 1)]
    points.append(tail_end(points[-1] + width, width))
    if not state.potential.radial:
        points.insert(0, tail_end(points[0] - width, -width))
    return mpmath.quad(integrand, points)


NORM_CASES = [
    (GeneralizedMorse(100.0, 20.0, 1.0), 0, 0),
    (GeneralizedMorse(100.0, 240.0, 1.0), 0, 15),
    (Mie(5.0, 1.0), 1, 2),
    (KratzerFues(10.0, 1.0), 2, 1),
    (Coulomb(1.0), 0, 0),
    (Coulomb(1.0), 0, 25),
    (Coulomb(1.0), 0, 40),
    (Coulomb(1.0), 1, 3),
    (Pseudoharmonic(2.0, 1.0), 1, 2),
    (NoncentralRadial(-1.0, 1.0), 0, 2),
    (DeformedRosenMorse(4.0, 8.0, 0.5, 1.0), 0, 0),
    # bound by 0.0127 only: psi^2 decays as e^(0.32 x) on the left
    (DeformedRosenMorse(1.0, 10.0, 1.0, 1.0), 0, 1),
    (WoodsSaxon(5.0, 10.0, 1.0), 0, 0),
    (PoschlTeller(10.0, 1.0, 1.0), 0, 3),
    (PoschlTeller(600.0, 1.0, 1.0), 0, 0),
    (PoschlTeller(600.0, 1.0, 1.0), 0, 15),
    (PoschlTeller(600.0, 1.0, 1.0), 0, 31),
]


@pytest.mark.parametrize("spec, l, n", NORM_CASES,
                         ids=[f"{s.family}-l{l}-n{n}" for s, l, n in NORM_CASES])
def test_closed_form_norm_matches_mpmath(spec, l, n):
    state = spectrum(spec, l, UNITS, n_max=n)[n]
    grid = default_grid(spec, l, UNITS, n_max=n)
    # compare where the normalized state is largest, far from every node
    x = grid.points()[1:-1]
    x0 = float(x[int(np.argmax(np.abs(wavefunction(state, x))))])
    with mpmath.workdps(30):
        scale = wavefunction(state, x0) / _mp_psi(state, mpmath.mpf(x0))
        norm = _mp_norm(state, grid, pieces=2 * n + 8) * scale**2
    assert abs(float(norm) - 1.0) <= NORM_RTOL, float(norm) - 1.0


def test_desk_poschl_teller_n3_is_normalized_on_a_fine_grid():
    # Simpson on the default grid, [-9.9, 9.9] with 4000 points, falls 5e-8
    # short here, above the 1e-8 normalization tolerance
    state = spectrum(PoschlTeller(10.0, 1.0, 1.0), 0, UNITS, n_max=3)[3]
    x = np.linspace(-40.0, 40.0, 400_001)
    psi = wavefunction(state, x)
    assert abs(simpson_integrate(psi * psi, x[1] - x[0]) - 1.0) < 1e-10


def test_heavy_morse_state_is_normalized():
    # at mass 1e6 the textbook psi peaks near e^-1414 and its norm constant
    # near e^+1414: both outside double range unless scaled to the peak
    units = UnitsConfig(mass=1e6)
    spec = GeneralizedMorse(100.0, 20.0, 1.0)
    states = spectrum(spec, 0, units, n_max=2)
    x_star = spec.well_center()
    x = np.linspace(x_star - 0.5, x_star + 0.5, 200_001)
    psis = [wavefunction(st, x) for st in states]
    for st, psi in zip(states, psis):
        assert st.energy == pytest.approx(closed_form_energy(spec, 0, units, st.n),
                                          rel=1e-10)
        assert np.all(np.isfinite(psi))
        assert simpson_integrate(psi * psi, x[1] - x[0]) == pytest.approx(1.0, abs=1e-10)
    assert abs(simpson_integrate(psis[0] * psis[2], x[1] - x[0])) < 1e-10


# the far-left tail of the Jacobi families: 1 + c3 s = 1 - eta s from s(x)
# cancels to rounding once e^(2ax) drops below about 1e-16 eta
WEAK_JACOBI_CASES = [
    # bound by 0.0127: psi^2 decays as e^(0.32 x) on the left
    (DeformedRosenMorse(1.0, 10.0, 1.0, 1.0), 1),
    # bound by 0.0074 below the left asymptote -V1
    (WoodsSaxon(1.0, 4.5, 1.0), 1),
]


@pytest.mark.parametrize("spec, n", WEAK_JACOBI_CASES,
                         ids=[s.family for s, _ in WEAK_JACOBI_CASES])
def test_weakly_bound_jacobi_level_keeps_its_left_tail(spec, n):
    state = spectrum(spec, 0, UNITS, n_max=n)[n]
    x = np.linspace(-200.0, 200.0, 400_001)
    psi = wavefunction(state, x)
    assert abs(simpson_integrate(psi * psi, x[1] - x[0]) - 1.0) < 1e-8
    # pointwise, deep in the tail, against mpmath at 30 digits
    x0 = float(x[int(np.argmax(np.abs(psi)))])
    with mpmath.workdps(30):
        scale = wavefunction(state, x0) / _mp_psi(state, mpmath.mpf(x0))
        for x_far in (-30.0, -60.0, -120.0):
            expected = float(scale * _mp_psi(state, mpmath.mpf(x_far)))
            assert wavefunction(state, x_far) == pytest.approx(expected, rel=1e-9)


def test_jacobi_tails_reach_past_the_overflow_of_the_map():
    # a level bound so weakly that its tails reach past x = 38.95, where
    # e^(2ax) overflows and s underflows, and past x = -38.83, where
    # eta e^(-2ax) overflows and 1 + c3 s underflows
    spec = PoschlTeller(0.13215192124256028, 9.111073309911097, 9.600103659498778)
    units = UnitsConfig(0.9391053389991925, 0.15843283062938884)
    state = spectrum(spec, 0, units)[0]
    u_max = math.log(np.finfo(float).max)
    right = u_max / (2 * spec.a)
    left = (math.log(spec.eta) - u_max) / (2 * spec.a)
    s_tiny = math.log(1.0 / np.finfo(float).tiny) / (2 * spec.a)
    x = np.array([left - 1000.0, left - 1.0, left + 1.0, s_tiny - 0.01, s_tiny + 0.01,
                  right - 1.0, right + 1.0, right + 1000.0])
    psi = wavefunction(state, x)
    assert np.all(psi > 0.0)
    with mpmath.workdps(30):
        scale = wavefunction(state, 0.0) / _mp_psi(state, mpmath.mpf(0))
        expected = [float(scale * _mp_psi(state, mpmath.mpf(v))) for v in x]
    np.testing.assert_allclose(psi, expected, rtol=1e-9, atol=0.0)


def test_morse_tail_reaches_past_the_underflow_of_the_map():
    # n = 1 is bound by 1.15e-7 only: psi^2 decays as e^(-9.6e-4 x) on the
    # right, far past x = 745.13, where s = 10 e^(-x) underflows to 0
    spec = GeneralizedMorse(100.0, 21.22, 1.0)
    state = spectrum(spec, 0, UNITS, n_max=1)[1]
    x = np.linspace(-5.0, 4e4, 400_001)
    psi = wavefunction(state, x)
    assert abs(simpson_integrate(psi * psi, x[1] - x[0]) - 1.0) < 1e-8
    x0 = float(x[int(np.argmax(np.abs(psi)))])
    x_far = np.array([700.0, 746.0, 1000.0, 1e4])
    with mpmath.workdps(30):
        scale = wavefunction(state, x0) / _mp_psi(state, mpmath.mpf(x0))
        expected = [float(scale * _mp_psi(state, mpmath.mpf(v))) for v in x_far]
    np.testing.assert_allclose(wavefunction(state, x_far), expected, rtol=1e-9, atol=0.0)


def _overflow_points(spec):
    """Where e^(2ax) overflows (s underflows) and where eta e^(-2ax)
    overflows (1 + c3 s underflows), for a step well in s = 1/(e^(2ax) + eta)."""
    _, _, _, a, eta = spec._shape()
    u_max = math.log(np.finfo(float).max)
    return (math.log(eta) - u_max) / (2 * a), u_max / (2 * a)


LOG_CASES = [
    (GeneralizedMorse(100.0, 20.0, 0.5), [-700.0 / 0.5, -20.0, 0.0, 1.7, 20.0, 800.0 / 0.5]),
    (Mie(5.0, 1.0), [0.0, 1e-300, 1e-3, 0.3, 1.7, 80.0, 1e150]),
    (KratzerFues(10.0, 1.0), [0.0, 1e-300, 0.3, 1.7, 1e150]),
    (Coulomb(1.0), [0.0, 1e-300, 0.3, 1.7, 1e5, 1e150]),
    (Pseudoharmonic(2.0, 1.0), [0.0, 1e-300, 0.3, 1.7, 1e5, 1e200]),
    (NoncentralRadial(-1.0, 1.0), [0.0, 1e-300, 0.3, 1.7, 1e150]),
    (DeformedRosenMorse(4.0, 8.0, 0.5, 2.0), [-400.0, -20.0, -1.0, 0.0, 1.0, 20.0, 400.0]),
    (WoodsSaxon(5.0, 10.0, 0.25), [-400.0, -20.0, -1.0, 0.0, 1.0, 20.0, 400.0]),
    (PoschlTeller(10.0, 2.0, 0.5), [-400.0, -20.0, -1.0, 0.0, 1.0, 20.0, 400.0]),
]


@pytest.mark.parametrize("spec, points", LOG_CASES, ids=[c[0].family for c in LOG_CASES])
def test_coordinate_map_logs_are_closed_form(spec, points):
    """(log s, log(1 + c3 s)) against 30-digit mpmath, past the overflow
    points of the step wells and past the underflow of the Morse s."""
    _, cmap = to_parametric(spec, 0, UNITS)
    x = np.array(points)
    if spec.branch == "jacobi":
        x = np.concatenate([x, [v + d for v in _overflow_points(spec) for d in (-1.0, 0.0, 1.0)]])
    log_s, log_base = cmap.logs_of_x(x)
    with mpmath.workdps(30):
        expected = np.array([[float(v) for v in _mp_logs(spec, mpmath.mpf(p))] for p in x])
    # logs near the smallest normal float (log s -> 0 where Woods-Saxon's
    # s -> 1, log(1 + c3 s) -> 0 on the right) are compared to within it:
    # next to the overflow points the rounding of 2ax alone moves them by up
    # to 6e-14 relative, and below it no relative precision is left
    tiny = np.finfo(float).tiny
    np.testing.assert_allclose(log_s, expected[:, 0], rtol=1e-14, atol=tiny)
    np.testing.assert_allclose(log_base, expected[:, 1], rtol=1e-14, atol=tiny)


def test_laguerre_maps_give_a_zero_log_base():
    x = np.array([0.0, 0.3, 1.7, 900.0])
    for spec in (GeneralizedMorse(100.0, 20.0, 1.0), Mie(5.0, 1.0), KratzerFues(10.0, 1.0),
                 Coulomb(1.0), Pseudoharmonic(2.0, 1.0), NoncentralRadial(-1.0, 1.0)):
        form, cmap = to_parametric(spec, 0, UNITS)
        assert form.coeff_at(-0.1).c3 == 0.0
        assert np.array_equal(cmap.logs_of_x(x)[1], np.zeros_like(x))


# --------------------------------------------------- Jacobian certificates

_x = sp.Symbol("x", real=True)
_r = sp.Symbol("r", positive=True)


def _exact(value):
    return sp.nsimplify(value, rational=True)


CERTIFICATE_CASES = [
    (GeneralizedMorse(100.0, 20.0, 0.5),
     lambda p: sp.sqrt(_exact(p.V1)) * sp.exp(-_exact(p.a) * _x), _x, 1),
    (Mie(5.0, 1.0), lambda p: _r, _r, _r**2),
    (KratzerFues(10.0, 1.0), lambda p: _r, _r, _r**2),
    (Coulomb(1.0), lambda p: _r, _r, _r**2),
    (Pseudoharmonic(2.0, 1.0), lambda p: _r**2, _r, _r**2),
    (NoncentralRadial(-1.0, 1.0), lambda p: _r, _r, _r**2),
    (DeformedRosenMorse(4.0, 8.0, 0.5, 2.0),
     lambda p: 1 / (sp.exp(2 * _exact(p.a) * _x) + _exact(p.eta)), _x, 1),
    (WoodsSaxon(5.0, 10.0, 0.25),
     lambda p: 1 / (1 + sp.exp(_exact(p.a) * _x)), _x, 1),
    (PoschlTeller(10.0, 2.0, 0.5),
     lambda p: 1 / (sp.exp(2 * _exact(p.a) * _x) + _exact(p.eta)), _x, 1),
]


@pytest.mark.parametrize("spec, s_of, var, measure", CERTIFICATE_CASES,
                         ids=[c[0].family for c in CERTIFICATE_CASES])
def test_declared_jacobian_is_measure_times_dx_ds(spec, s_of, var, measure):
    """measure(x) |dx/ds| = C s^m (1 + c3 s)^j, symbolically, with (C, m, j)
    from the coordinate map and c3 from the parametric form."""
    form, cmap = to_parametric(spec, 0, UNITS)
    c3 = _exact(form.coeff_at(-0.1).c3)
    scale, m, j = (_exact(v) for v in cmap.jacobian)
    s = s_of(spec)
    declared = scale * s**m * (1 + c3 * s) ** j
    # s(x) is monotone, so the ratio is the constant sign of dx/ds
    ratio = sp.simplify(measure / sp.diff(s, var) / declared)
    assert ratio in (1, -1), ratio
    # the symbolic s(x) and measure are the ones the package evaluates
    for value in (0.3, 1.7):
        point = float(sp.N(s.subs(var, value), 20))
        assert float(cmap.s_of_x(value)) == pytest.approx(point, rel=1e-14)
        assert float(cmap.measure(value)) == pytest.approx(
            float(sp.sympify(measure).subs(var, value)), rel=1e-14)


# ------------------------------------------------ coefficient certificates

_s = sp.Symbol("s", positive=True)


def _rosen_morse_v(p, x):
    e = _exact(p.eta) * sp.exp(-2 * _exact(p.a) * x)
    return _exact(p.V1) / (1 + e) - _exact(p.V2) * e / (1 + e) ** 2


def _woods_saxon_v(p, x):
    e = sp.exp(_exact(p.a) * x)
    return -_exact(p.V1) / (1 + e) - _exact(p.V2) * e / (1 + e) ** 2


def _poschl_teller_v(p, x):
    e = _exact(p.eta) * sp.exp(-2 * _exact(p.a) * x)
    return -4 * _exact(p.V0) * e / (1 + e) ** 2


def _jacobi_x_of_s(p):
    # inverse of s = 1/(e^(2ax) + eta)
    return sp.log(1 / _s - _exact(p.eta)) / (2 * _exact(p.a))


# (spec, x(s), V(x)): the inverse substitution and the potential as printed
# in each family's docstring
COEFFICIENT_CASES = [
    (GeneralizedMorse(100.0, 20.0, 0.5),
     lambda p: -sp.log(_s / sp.sqrt(_exact(p.V1))) / _exact(p.a),
     lambda p, x: (_exact(p.V1) * sp.exp(-2 * _exact(p.a) * x)
                   - _exact(p.V2) * sp.exp(-_exact(p.a) * x))),
    (Mie(5.0, 1.5), lambda p: _s,
     lambda p, r: _exact(p.V0) * ((_exact(p.a) / r) ** 2 / 2 - _exact(p.a) / r)),
    (KratzerFues(10.0, 1.5), lambda p: _s,
     lambda p, r: _exact(p.De) * ((r - _exact(p.re)) / r) ** 2),
    (Coulomb(1.25), lambda p: _s, lambda p, r: -_exact(p.e2) / r),
    (Pseudoharmonic(2.0, 1.5), lambda p: sp.sqrt(_s),
     lambda p, r: _exact(p.V0) * (r / _exact(p.r0) - _exact(p.r0) / r) ** 2),
    (NoncentralRadial(-1.0, 0.75), lambda p: _s, lambda p, r: _exact(p.alpha) / r),
    (DeformedRosenMorse(4.0, 8.0, 0.5, 2.0), _jacobi_x_of_s, _rosen_morse_v),
    (WoodsSaxon(5.0, 10.0, 0.25),
     lambda p: sp.log(1 / _s - 1) / _exact(p.a), _woods_saxon_v),
    (PoschlTeller(10.0, 2.0, 0.5), _jacobi_x_of_s, _poschl_teller_v),
]


def _barrier(spec, l, hbar, mass, r):
    """The r^-2 part of V_eff: the separation term of the noncentral
    family, the centrifugal barrier of the other radial families."""
    if isinstance(spec, NoncentralRadial):
        return _exact(spec.lam) / r**2
    if spec.radial:
        return hbar**2 * l * (l + 1) / (2 * mass * r**2)
    return 0


def _polynomial_coefficients(expr, degree):
    """Exact coefficients of s^0 .. s^degree; fails unless expr is a
    polynomial in s of at most that degree."""
    poly = sp.Poly(sp.cancel(expr), _s)
    assert poly.degree() <= degree, poly
    coeffs = list(reversed(poly.all_coeffs()))
    return coeffs + [sp.Integer(0)] * (degree + 1 - len(coeffs))


_E = sp.Symbol("E", real=True)


def _affine_in_energy(expr):
    """(constant, coefficient of E) of an exact expression; fails unless it
    is affine in the trial energy E."""
    poly = sp.Poly(sp.expand(expr), _E)
    assert poly.degree() <= 1, poly
    return float(poly.coeff_monomial(1)), float(poly.coeff_monomial(_E))


@pytest.mark.parametrize("hbar, mass, l", [("1", "1", 0), ("7/10", "5/2", 2)],
                         ids=["unit", "scaled"])
@pytest.mark.parametrize("spec, x_of, v_of", COEFFICIENT_CASES,
                         ids=[c[0].family for c in COEFFICIENT_CASES])
def test_declared_coefficients_follow_from_the_schrodinger_equation(
        spec, x_of, v_of, hbar, mass, l):
    """Substituting x(s) into psi'' + (2/r) psi' [radial only] + k^2 (E - V_eff) psi
    = 0, with k^2 = 2m/hbar^2 and E a symbol, and clearing s (1 + c3 s) from
    the psi' coefficient and its square from the psi coefficient must give
    exactly c1 + c2 s and -L1 s^2 + L2 s - L3 of the declared form: each
    declared energy term is slope (anchor - E), every other slot the declared
    constant."""
    if not spec.radial or isinstance(spec, NoncentralRadial):
        l = 0
    hbar, mass = sp.Rational(hbar), sp.Rational(mass)
    form, cmap = to_parametric(spec, l, UnitsConfig(float(hbar), float(mass)))
    declared = form.coefficients
    x = x_of(spec)
    # the symbolic map inverts the package's s(x), and V is the package's V
    for x0 in (0.3, 1.7):
        s0 = float(cmap.s_of_x(x0))
        assert float(x.subs(_s, s0)) == pytest.approx(x0, rel=1e-13)
        assert float(v_of(spec, sp.Float(x0, 30))) == pytest.approx(
            float(spec.potential(x0)), rel=1e-13)

    def expected(name, sign):
        # (constant, coefficient of E) of sign times the declared slot
        value = getattr(declared, name)
        if name in form.energy_terms:
            return sign * form.slope * value, -sign * form.slope
        return sign * value, 0.0

    x_s = sp.diff(x, _s)
    friction = 2 / x if spec.radial else 0
    q = 2 * mass / hbar**2 * (_E - v_of(spec, x) - _barrier(spec, l, hbar, mass, x))
    w = _s * (1 + _exact(declared.c3) * _s)
    # psi_xx = psi_ss / x_s^2 - psi_s x_ss / x_s^3, so dividing the equation
    # by 1/x_s^2 leaves psi_ss + (friction x_s - x_ss / x_s) psi_s + q x_s^2 psi
    first = _polynomial_coefficients((friction * x_s - sp.diff(x_s, _s) / x_s) * w, 1)
    zeroth = _polynomial_coefficients(q * x_s**2 * w**2, 2)
    assert [float(c) for c in first] == pytest.approx([declared.c1, declared.c2],
                                                      rel=1e-13, abs=1e-13)
    for coeff, name, sign in zip(zeroth, ("lambda3", "lambda2", "lambda1"), (-1, 1, -1)):
        assert _affine_in_energy(coeff) == pytest.approx(expected(name, sign),
                                                         rel=1e-13, abs=1e-13), name
    if declared.c3 != 0.0:
        # every step well declares its decay term H, and it is minus the
        # exact polynomial at s = -1/c3, -L1/c3^2 - L2/c3 - L3
        at_pole = sp.cancel(q * x_s**2 * w**2).subs(_s, -1 / _exact(declared.c3))
        assert _affine_in_energy(-at_pole) == pytest.approx(expected("H", 1),
                                                            rel=1e-13, abs=1e-13)
