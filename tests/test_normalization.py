"""Exact normalization: the closed-form norm of every family against
independent quadrature, and the Jacobian data it rests on.

The norm integrals are computed here in the physical coordinate x, with
s(x), 1 + c3 s(x), the measure and the polynomials evaluated by mpmath at
30 digits, so neither the declared Jacobian nor the package's recurrences
enter the reference value.
"""

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
