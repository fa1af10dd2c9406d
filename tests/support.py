"""Test-only cross-checks and shared cases.

No runtime path calls these: the explicit finite sums and the defining
differential operators that check the polynomial recurrences, the
single-expression Jacobi residual that checks the first-principles one,
and the `verify-catalog` rows of the benchmark.
"""

from specbound import (
    Coulomb,
    DeformedRosenMorse,
    GeneralizedMorse,
    KratzerFues,
    Mie,
    NoncentralRadial,
    NotJacobiBranch,
    PoschlTeller,
    Pseudoharmonic,
    RootChoice,
    UnitsConfig,
    WoodsSaxon,
    binomial,
    jacobi_eval,
    laguerre_eval,
    solve_jacobi_constants,
)
from specbound.parametric import JACOBI
from specbound.polynomials import _check_degree, _jacobi_sum

#: the explicit sums grow factorially and are capped at this degree
MAX_SUM_DEGREE = 20


def jacobi_sum_oracle(n: int, alpha: float, beta: float, z: float) -> float:
    """Explicit-sum evaluation of P_n^(alpha, beta)(z).

    P_n = sum_m C(n+alpha, n-m) C(n+beta, m) ((z-1)/2)^m ((z+1)/2)^(n-m).
    Capped at n <= 20 because the terms grow factorially.
    """
    _check_degree(n, MAX_SUM_DEGREE)
    return _jacobi_sum(n, alpha, beta, z)


def laguerre_sum_oracle(n: int, k: float, z: float) -> float:
    """Explicit-sum evaluation of L_n^k(z).

    L_n^k = sum_m (-1)^m C(n+k, n-m) z^m / m!.
    """
    _check_degree(n, MAX_SUM_DEGREE)
    total = 0.0
    fact = 1.0
    for m in range(n + 1):
        if m > 0:
            fact *= m
        total += (-1) ** m * binomial(n + k, n - m) * z**m / fact
    return total


def ode_residual_check(kind: str, n: int, z: float, *, alpha: float = 0.0,
                       beta: float = 0.0, k: float = 0.0, h: float = 1e-5) -> float:
    """Apply the defining second-order operator to the recurrence-built
    polynomial with central finite differences and return |residual|.

    For ``kind="jacobi"`` the operator is
        (1 - z^2) y'' + [beta - alpha - (alpha + beta + 2) z] y' + n(n + alpha + beta + 1) y
    and for ``kind="laguerre"``
        z y'' + (k + 1 - z) y' + n y.

    The sign of the first-derivative coefficient is the one under which the
    recurrence-built polynomials actually annihilate the operator; this
    routine is the empirical arbiter for that convention.
    """
    if kind == "jacobi":
        def f(t):
            return jacobi_eval(n, alpha, beta, t)
        y = f(z)
        d1 = (f(z + h) - f(z - h)) / (2 * h)
        d2 = (f(z + h) - 2 * y + f(z - h)) / h**2
        res = (1 - z**2) * d2 + (beta - alpha - (alpha + beta + 2) * z) * d1 \
            + n * (n + alpha + beta + 1) * y
    elif kind == "laguerre":
        def f(t):
            return laguerre_eval(n, k, t)
        y = f(z)
        d1 = (f(z + h) - f(z - h)) / (2 * h)
        d2 = (f(z + h) - 2 * y + f(z - h)) / h**2
        res = z * d2 + (k + 1 - z) * d1 + n * y
    else:
        raise ValueError(f"unknown polynomial kind {kind!r}")
    return abs(res)


def compact_jacobi_residual(form, n: int, energy: float,
                            root_choice: RootChoice = RootChoice()) -> float:
    """Single-expression form of the Jacobi-branch termination condition,

        (q0 - p0)^2 + (c2/c3 + 2n - 1)(q0 - p0) + n (n + c2/c3 - 1) - L1/c3^2,

    kept as a cross-check against ``quantization_residual``.  Algebraically
    it equals the negative of the first-principles residual, so the two
    must agree in magnitude at every admissible energy.
    """
    pc = form.coeff_at(energy)
    if pc.branch != JACOBI:
        raise NotJacobiBranch("compact residual only exists on the c3 != 0 branch")
    jc = solve_jacobi_constants(pc, root_choice)
    ratio = pc.c2 / pc.c3
    x = jc.q0 - jc.p0
    return x * x + (ratio + 2 * n - 1) * x + n * (n + ratio - 1) - pc.lambda1 / pc.c3**2


UNITS = UnitsConfig()

# the `verify-catalog` rows of the benchmark: the nine desk wells at l = 0,
# four radial wells at l = 1 and 2, and three rows in other units
DESK = [GeneralizedMorse(V1=100.0, V2=20.0, a=1.0), Mie(V0=5.0, a=1.0),
        KratzerFues(De=10.0, re=1.0), Coulomb(e2=1.0), Pseudoharmonic(V0=2.0, r0=1.0),
        NoncentralRadial(alpha=-1.0, lam=0.0),
        DeformedRosenMorse(V1=4.0, V2=8.0, a=0.5, eta=1.0),
        WoodsSaxon(V1=5.0, V2=10.0, a=1.0), PoschlTeller(V0=10.0, a=1.0, eta=1.0)]
CATALOG = ([(spec, 0, UNITS) for spec in DESK]
           + [(spec, l, UNITS) for l in (1, 2) for spec in DESK[1:5]]
           + [(Coulomb(e2=1.0), 0, UnitsConfig(hbar=2.0)),
              (KratzerFues(De=10.0, re=1.0), 0, UnitsConfig(mass=0.5)),
              (PoschlTeller(V0=10.0, a=1.0, eta=1.0), 0, UnitsConfig(hbar=0.5)),
              (Coulomb(e2=2.0), 0, UNITS),
              (GeneralizedMorse(V1=100.0, V2=20.0, a=1.0), 0, UnitsConfig(mass=4.0))])
CATALOG_IDS = [f"{s.family}-l{l}-{u.hbar:g}-{u.mass:g}" for s, l, u in CATALOG]
