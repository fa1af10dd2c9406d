"""Families that are the same equation give the same levels.

Poschl-Teller is the Rosen-Morse well with V1 = 0 and V2 = 4 V0, and
Kratzer-Fues is the Mie potential of depth 2 De shifted up by De.  Each
pair has its own closed forms and its own parameter maps, so agreement of
the residual roots and of the closed forms checks both sides.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import (
    DeformedRosenMorse,
    KratzerFues,
    Mie,
    NoBoundState,
    PoschlTeller,
    UnitsConfig,
    closed_form_energy,
    spectrum,
)

N_MAX = 4
RTOL = 1e-12

units_st = st.builds(UnitsConfig,
                     hbar=st.floats(0.5, 2.0), mass=st.floats(0.5, 2.0))


def _closed_forms(spec, l, units):
    levels = []
    for n in range(N_MAX + 1):
        try:
            levels.append(closed_form_energy(spec, l, units, n))
        except NoBoundState:
            break
    return levels


@settings(max_examples=40, deadline=None)
@given(V0=st.floats(0.5, 200.0), a=st.floats(0.2, 3.0), eta=st.floats(0.1, 10.0),
       units=units_st)
def test_poschl_teller_is_rosen_morse_without_step(V0, a, eta, units):
    pt = PoschlTeller(V0, a, eta)
    rm = DeformedRosenMorse(0.0, 4 * V0, a, eta)
    assert [s.energy for s in spectrum(pt, 0, units, N_MAX)] == pytest.approx(
        [s.energy for s in spectrum(rm, 0, units, N_MAX)], rel=RTOL, abs=0.0)
    assert _closed_forms(pt, 0, units) == pytest.approx(
        _closed_forms(rm, 0, units), rel=RTOL, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(De=st.floats(0.5, 200.0), re=st.floats(0.3, 3.0), l=st.integers(0, 2),
       units=units_st)
def test_kratzer_fues_is_shifted_mie(De, re, l, units):
    kf = KratzerFues(De, re)
    mie = Mie(2 * De, re)
    assert [s.energy for s in spectrum(kf, l, units, N_MAX)] == pytest.approx(
        [De + s.energy for s in spectrum(mie, l, units, N_MAX)], rel=0.0, abs=RTOL * De)
    assert _closed_forms(kf, l, units) == pytest.approx(
        [De + e for e in _closed_forms(mie, l, units)], rel=0.0, abs=RTOL * De)
