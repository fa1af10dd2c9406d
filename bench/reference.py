"""Output checks that do not rely on the program's own verdicts.

- textbook energies for the families that have one;
- ``scipy.linalg.eigh_tridiagonal`` (LAPACK bisection) on finite-difference
  matrices built here, for the oracle values and for the families without
  a textbook form;
- node count n on each level's wavefunction samples;
- unit norm and orthogonality of neighbouring levels from composite
  Gauss-Legendre quadrature, independent of the program's Simpson rule;
- strictly increasing levels below the asymptote.

scipy serves only as this reference; it is imported after the timed
region of a run.
"""

from __future__ import annotations

import math

import numpy as np

#: textbook energy vs closed form or residual root (the program's own
#: closed-form tolerance)
TEXTBOOK_RTOL = 1e-10
#: analytic level vs a finite-difference reference (the program's
#: analytic-vs-oracle contract)
FD_RTOL = 1e-5
#: oracle value vs LAPACK on the same matrices; both bisect to ~1e-12
#: absolute and the Richardson step amplifies that by 5/3
ORACLE_ATOL = 1e-9
NORM_TOL = 1e-7
#: the program's own orthogonality tolerance
OVERLAP_TOL = 1e-6
#: samples below this fraction of the peak are tails, not lobes
NODE_FLOOR = 1e-8
GAUSS_NODES = 16
GAUSS_PANELS = 400


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def asymptote(spec) -> float:
    """Energy below which levels are bound, from the potential's formula."""
    family = spec.family
    if family == "kratzer_fues":
        return spec.De
    if family == "pseudoharmonic":
        return math.inf
    if family == "woods_saxon":
        return -spec.V1
    if family == "rosen_morse":
        return min(0.0, spec.V1)
    return 0.0


def _coulomb_level(e2: float, l: int, n: int, hbar: float, mass: float) -> float:
    return -mass * e2**2 / (2 * hbar**2 * (n + l + 1) ** 2)


def textbook_levels(spec, l: int, hbar: float, mass: float, n_max: int):
    """Textbook energies E_0..E_k (k <= n_max, fewer for an exhausted well),
    or None for a family without a textbook form."""
    family = spec.family
    if family == "coulomb":
        return [_coulomb_level(spec.e2, l, n, hbar, mass) for n in range(n_max + 1)]
    if family == "noncentral_radial":
        # lambda = hbar^2 L(L+1)/(2m) with integer L is Coulomb at l = L
        big_l = (-1.0 + math.sqrt(1.0 + 8.0 * mass * spec.lam / hbar**2)) / 2.0
        if abs(big_l - round(big_l)) > 1e-12:
            return None
        return [_coulomb_level(-spec.alpha, round(big_l), n, hbar, mass)
                for n in range(n_max + 1)]
    if family == "poschl_teller":
        # -V0 sech^2(a (x - x0)): E_n = -(hbar a)^2/(2m) (lambda - 1 - n)^2
        lam_1 = (-1.0 + math.sqrt(1.0 + 8.0 * mass * spec.V0 / (hbar * spec.a) ** 2)) / 2.0
        scale = (hbar * spec.a) ** 2 / (2 * mass)
        return [-scale * (lam_1 - n) ** 2 for n in range(n_max + 1) if lam_1 - n > 0]
    if family == "morse":
        # D (e^{-2a(x-xe)} - 2 e^{-a(x-xe)}) with D = V2^2 / (4 V1)
        depth = spec.V2**2 / (4.0 * spec.V1)
        omega = spec.a * math.sqrt(2.0 * depth / mass)
        lam = math.sqrt(2.0 * mass * depth) / (spec.a * hbar)
        out = []
        for n in range(n_max + 1):
            if n >= lam - 0.5:
                break
            quantum = hbar * omega * (n + 0.5)
            out.append(-depth + quantum - quantum**2 / (4.0 * depth))
        return out
    if family == "pseudoharmonic":
        # 3-D oscillator with an extra inverse-square term
        omega = math.sqrt(2.0 * spec.V0 / (mass * spec.r0**2))
        root = math.sqrt((l + 0.5) ** 2 + 2.0 * mass * spec.V0 * spec.r0**2 / hbar**2)
        return [hbar * omega * (2 * n + 1 + root) - 2.0 * spec.V0 for n in range(n_max + 1)]
    return None


def _v_eff(spec, l: int, hbar: float, mass: float, x: np.ndarray) -> np.ndarray:
    v = np.asarray(spec.potential(x), dtype=float)
    if spec.family == "noncentral_radial":
        v = v + spec.lam / x**2
    elif spec.radial and l > 0:
        v = v + hbar**2 * l * (l + 1) / (2 * mass * x**2)
    return v


def _fd_lowest(spec, l, hbar, mass, x_min, x_max, n_points, count):
    from scipy.linalg import eigh_tridiagonal

    x = np.linspace(x_min, x_max, n_points)
    h = (x_max - x_min) / (n_points - 1)
    t = hbar**2 / (2 * mass * h * h)
    diag = 2.0 * t + _v_eff(spec, l, hbar, mass, x[1:-1])
    off = np.full(diag.size - 1, -t)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, count - 1))


def fd_reference(spec, l, hbar, mass, grid, count, refine_factor=1):
    """Richardson-extrapolated lowest eigenvalues of the Dirichlet
    finite-difference operator on ``grid`` (optionally with its interval
    count multiplied by ``refine_factor``) and on half its spacing."""
    intervals = (grid.n_points - 1) * refine_factor
    base = _fd_lowest(spec, l, hbar, mass, grid.x_min, grid.x_max, intervals + 1, count)
    fine = _fd_lowest(spec, l, hbar, mass, grid.x_min, grid.x_max, 2 * intervals + 1, count)
    return (4.0 * fine - base) / 3.0


def check_levels(energies, spec) -> None:
    """Strictly increasing and below the asymptote."""
    top = asymptote(spec)
    require(all(e < top for e in energies), f"level at or above the asymptote {top}")
    require(all(b > a for a, b in zip(energies, energies[1:])), "levels not increasing")


def check_close(value: float, ref: float, rtol: float, what: str) -> None:
    require(abs(value - ref) <= rtol * abs(ref),
            f"{what}: {value!r} vs reference {ref!r} (rel {abs(value - ref) / abs(ref):.2e})")


def count_sign_changes(samples: np.ndarray) -> int:
    y = np.asarray(samples, dtype=float)
    kept = y[np.abs(y) > NODE_FLOOR * np.max(np.abs(y))]
    return int(np.count_nonzero(np.sign(kept[1:]) != np.sign(kept[:-1])))


def gauss_rule(radial: bool, lo: float, hi: float):
    """Nodes x and weights w (measure included) of composite Gauss-Legendre
    on [lo, hi], so that sum(w * f(x) * g(x)) is the overlap of f and g.
    Radial integrals run in u = sqrt(r), which spreads the nodes evenly
    over the oscillations near the origin."""
    t, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    a, b = (math.sqrt(lo), math.sqrt(hi)) if radial else (lo, hi)
    edges = np.linspace(a, b, GAUSS_PANELS + 1)
    half = 0.5 * np.diff(edges)
    u = ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * t[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    if radial:
        x = u * u
        return x, weights * 2.0 * u * x * x  # dr = 2u du, measure r^2
    return u, weights
