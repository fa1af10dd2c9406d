"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured margins.  Run with `pytest tests/test_acceptance.py -v -s`.

Criteria and tolerances:
  1. Coulomb exactness: solver absolute error < 1e-12 for the first five
     levels; finite-difference oracle on [1e-4, 80] x 4000 within 1e-5
     relative for the lowest three; under 5 s.
  2. Nine-family three-way agreement at desk parameters: closed form vs
     residual root < 1e-10 relative, residual root vs oracle < 1e-5
     relative, first min(3, available) levels; under 60 s total.
  3. Coefficient identities |r2| and |r1 + r3| < 1e-10 at every solved
     Jacobi-branch level.
  4. Special-function suite: recurrence vs sum < 1e-10 on 100 random
     Jacobi and 100 random Laguerre queries (the Laguerre tolerance carries
     the alternating sum's own roundoff floor), symmetry and origin-value
     identities, operator residuals < 1e-4 for n <= 10; under 5 s.
  5. Node theorem: every produced state (n <= 4, all nine families) shows
     exactly n interior sign changes on a 10^4-point sample.
  6. Orthogonality < 1e-6 for distinct levels at the same l.
  7. Degeneracy and reduction identities at 1e-12.
  8. Oracle self-validation: box levels within 1e-4 relative, Sturm
     bisection within 1e-10 of the Toeplitz closed form.
  9. CLI contract: exit codes 0/2/3/4 and config round-trip.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from specbound import (
    Coulomb,
    DeformedRosenMorse,
    GeneralizedMorse,
    JacobiBranchConstants,
    KratzerFues,
    Mie,
    NoncentralRadial,
    PoschlTeller,
    Pseudoharmonic,
    RadialGrid,
    UnitsConfig,
    WoodsSaxon,
    binomial,
    closed_form_energy,
    count_nodes,
    default_grid,
    fd_eigenvalues,
    fd_eigenvalues_from_callable,
    jacobi_eval,
    laguerre_eval,
    lowest_eigenvalues,
    simpson_integrate,
    solve_energy,
    spectrum,
    to_parametric,
    wavefunction,
)
from specbound.cli import main as cli_main
from specbound.cli import RunConfig
from support import jacobi_sum_oracle, laguerre_sum_oracle, ode_residual_check

UNITS = UnitsConfig()

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


@pytest.fixture(scope="module")
def desk_results():
    """States to n = 4 plus oracle eigenvalues for each desk case, computed
    once and timed for the criterion-2 budget."""
    out = {}
    t0 = time.perf_counter()
    for spec in DESK_CASES:
        states = spectrum(spec, 0, UNITS, n_max=4)
        oracle = fd_eigenvalues(spec, 0, UNITS, count=min(3, len(states)))
        out[spec.family] = {"spec": spec, "states": states, "oracle": oracle}
    out["_elapsed"] = time.perf_counter() - t0
    return out


def _announce(index, detail):
    print(f"\n[ACCEPTANCE] criterion {index}: PASS  ({detail})")


def test_criterion_1_coulomb_exactness():
    t0 = time.perf_counter()
    form, _ = to_parametric(Coulomb(e2=1.0), 0, UNITS)
    worst_abs = 0.0
    for n in range(5):
        n0 = n + 1
        e = solve_energy(form, n)
        worst_abs = max(worst_abs, abs(e + 1.0 / (2 * n0**2)))
    assert worst_abs < 1e-12

    oracle = fd_eigenvalues(Coulomb(e2=1.0), 0, UNITS,
                            grid=RadialGrid(1e-4, 80.0, 4000), count=3)
    worst_rel = 0.0
    for v, exact in zip(oracle.eigenvalues, [-0.5, -0.125, -1.0 / 18.0]):
        worst_rel = max(worst_rel, abs(v - exact) / abs(exact))
    assert worst_rel < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(1, f"solver {worst_abs:.1e} abs, oracle {worst_rel:.1e} rel, {elapsed:.2f} s")


def test_criterion_2_nine_case_three_way(desk_results):
    worst_closed = worst_oracle = 0.0
    for spec in DESK_CASES:
        data = desk_results[spec.family]
        states = data["states"][:3]
        assert states, f"{spec.family} produced no levels"
        oracle = data["oracle"]
        assert oracle.grid_adequate
        for st, eo in zip(states, oracle.eigenvalues):
            closed = closed_form_energy(spec, 0, UNITS, st.n)
            rel_c = abs(closed - st.energy) / abs(st.energy)
            rel_o = abs(st.energy - eo) / abs(st.energy)
            worst_closed = max(worst_closed, rel_c)
            worst_oracle = max(worst_oracle, rel_o)
            assert rel_c < 1e-10, (spec.family, st.n, rel_c)
            assert rel_o < 1e-5, (spec.family, st.n, rel_o)
        assert len(oracle.eigenvalues) == min(3, len(data["states"])), spec.family
    elapsed = desk_results["_elapsed"]
    assert elapsed < 60.0
    _announce(2, f"closed-form {worst_closed:.1e} rel, oracle {worst_oracle:.1e} rel, "
                 f"{elapsed:.1f} s for all nine")


def test_criterion_3_jacobi_consistency_identities(desk_results):
    worst = 0.0
    checked = 0
    for spec in DESK_CASES:
        for st in desk_results[spec.family]["states"]:
            if isinstance(st.constants, JacobiBranchConstants):
                checked += 1
                jc = st.constants
                assert abs(jc.r2) < 1e-10, (spec.family, st.n)
                assert abs(jc.r1 + jc.r3) < 1e-10, (spec.family, st.n)
                worst = max(worst, abs(jc.r2), abs(jc.r1 + jc.r3))
    assert checked >= 6  # three Jacobi families with their solved levels
    _announce(3, f"{checked} Jacobi levels, worst identity residual {worst:.1e}")


def test_criterion_4_special_function_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(0, 16))
        a, b = rng.uniform(-0.9, 3.0, size=2)
        z = rng.uniform(-1.0, 1.0)
        ref = jacobi_sum_oracle(n, a, b, z)
        assert abs(jacobi_eval(n, a, b, z) - ref) < 1e-10 * max(1.0, abs(ref))
    for _ in range(100):
        n = int(rng.integers(0, 16))
        k = rng.uniform(-0.9, 5.0)
        z = rng.uniform(0.0, 30.0)
        ref = laguerre_sum_oracle(n, k, z)
        cond, fact = 0.0, 1.0
        for m in range(n + 1):
            if m:
                fact *= m
            cond += abs(binomial(n + k, n - m)) * z**m / fact
        assert abs(laguerre_eval(n, k, z) - ref) < 1e-10 * max(1.0, abs(ref)) \
            + 32 * 2.22e-16 * cond
    for n in range(16):
        a = rng.uniform(-0.9, 3.0)
        z = rng.uniform(0.0, 1.0)
        assert abs(jacobi_eval(n, a, a, -z) - (-1) ** n * jacobi_eval(n, a, a, z)) \
            < 1e-12 * max(1.0, abs(jacobi_eval(n, a, a, z)))
        for k in range(11):
            expect = binomial(n + k, n)
            assert abs(laguerre_eval(n, float(k), 0.0) - expect) <= 1e-10 * max(1.0, expect)
    for n in range(11):
        res_j = ode_residual_check("jacobi", n, 0.31, alpha=0.6, beta=-0.2)
        assert res_j < 1e-4 * max(1.0, abs(jacobi_eval(n, 0.6, -0.2, 0.31)))
        res_l = ode_residual_check("laguerre", n, 1.4, k=0.8)
        assert res_l < 1e-4 * max(1.0, abs(laguerre_eval(n, 0.8, 1.4)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(4, f"200 random queries plus identities, {elapsed:.2f} s")


def test_criterion_5_node_theorem(desk_results):
    counted = 0
    for spec in DESK_CASES:
        states = desk_results[spec.family]["states"]
        grid = default_grid(spec, 0, UNITS, n_max=4)
        x = np.linspace(grid.x_min, grid.x_max, 10_000)
        for st in states:
            psi = wavefunction(st, x[1:-1])
            nodes = count_nodes(psi)
            assert nodes == st.n, (spec.family, st.n, nodes)
            counted += 1
    assert counted >= 20
    _announce(5, f"{counted} states, every node count equals its level index")


def test_criterion_6_orthogonality(desk_results):
    worst = 0.0
    pairs = 0
    for spec in DESK_CASES:
        states = desk_results[spec.family]["states"]
        if len(states) < 2:
            continue
        grid = default_grid(spec, 0, UNITS, n_max=4)
        x = grid.points()
        weight = states[0].cmap.measure(x)
        psis = [wavefunction(st, x) for st in states]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                overlap = abs(simpson_integrate(psis[i] * psis[j] * weight, grid.h))
                worst = max(worst, overlap)
                pairs += 1
                assert overlap < 1e-6, (spec.family, i, j, overlap)
    assert pairs >= 10
    _announce(6, f"{pairs} level pairs, worst overlap {worst:.1e}")


def test_criterion_7_degeneracy_and_reduction():
    form_l0, _ = to_parametric(Coulomb(e2=1.0), 0, UNITS)
    form_l1, _ = to_parametric(Coulomb(e2=1.0), 1, UNITS)
    e_n1_l0 = solve_energy(form_l0, 1)
    e_n0_l1 = solve_energy(form_l1, 0)
    assert abs(e_n1_l0 - e_n0_l1) < 1e-12

    worst = abs(e_n1_l0 - e_n0_l1)
    for ell in (0, 1, 2):
        lam = ell * (ell + 1) / 2.0
        form_nc, _ = to_parametric(NoncentralRadial(alpha=-1.0, lam=lam), 0, UNITS)
        form_cb, _ = to_parametric(Coulomb(e2=1.0), ell, UNITS)
        for n in range(2):
            diff = abs(solve_energy(form_nc, n) - solve_energy(form_cb, n))
            worst = max(worst, diff)
            assert diff < 1e-12
    _announce(7, f"worst identity deviation {worst:.1e}")


def test_criterion_8_oracle_self_validation():
    values, _ = fd_eigenvalues_from_callable(
        lambda x: np.zeros_like(x), RadialGrid(0.0, 1.0, 4000), UNITS,
        count=3, refine=False)
    worst_box = 0.0
    for n, v in enumerate(values):
        exact = (n + 1) ** 2 * math.pi**2 / 2.0
        worst_box = max(worst_box, abs(v - exact) / exact)
    assert worst_box < 1e-4

    n, t = 50, 1.0
    spectrum_sturm = lowest_eigenvalues([2 * t] * n, [-t] * (n - 1), n)
    exact = [2 * t * (1 - math.cos((k + 1) * math.pi / (n + 1))) for k in range(n)]
    worst_toeplitz = max(abs(a - b) for a, b in zip(spectrum_sturm, exact))
    assert worst_toeplitz < 1e-10
    _announce(8, f"box {worst_box:.1e} rel, Toeplitz {worst_toeplitz:.1e} abs")


def test_criterion_9_cli_contract(tmp_path):
    def run(args):
        out = io.StringIO()
        return cli_main(args, out=out), out.getvalue()

    code, _ = run(["verify", "--potential", "coulomb", "--param", "e2=1",
                   "--n-max", "1"])
    assert code == 0
    code, _ = run(["spectrum", "--potential", "morse",
                   "--param", "V1=-5", "--param", "V2=1", "--param", "a=1"])
    assert code == 2
    code, _ = run(["spectrum", "--potential", "morse",
                   "--param", "V1=100", "--param", "V2=1", "--param", "a=1"])
    assert code == 3
    code, _ = run(["verify", "--potential", "coulomb", "--param", "e2=1",
                   "--grid", "0,80,200"])
    assert code == 4

    config = RunConfig(potential=Coulomb(e2=1.0), units=UnitsConfig(),
                       l=0, n_max=2, grid=RadialGrid(0.0, 80.0, 4000),
                       output_format="json", rel_tol=1e-5)
    rebuilt = RunConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict())))
    assert rebuilt == config
    _announce(9, "exit codes 0/2/3/4 and config round-trip")
