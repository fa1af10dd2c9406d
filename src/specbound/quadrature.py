"""Uniform grids, composite Simpson quadrature, node counting, and a
golden-section minimizer.  Shared by the potential catalog (well-depth
location, default grids) and the finite-difference verifier; Simpson is
also the tests' independent check of the closed-form norms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, TooFewSamples

MIN_GRID_POINTS = 100
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RadialGrid:
    """Uniform 1-D discretization, spacing h = (x_max - x_min)/(n_points - 1).

    ``n_points`` counts all samples including the two boundary nodes, where
    Dirichlet conditions apply.  For radial problems x_min may be 0: the
    boundary node then sits exactly on the origin, which is the physical
    boundary of the reduced radial problem.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise InvalidParameters(f"grid needs x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < MIN_GRID_POINTS:
            raise InvalidParameters(f"grid needs at least {MIN_GRID_POINTS} points")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


def simpson_integrate(samples, h: float) -> float:
    """Composite Simpson rule over uniformly spaced samples.

    Needs at least 3 samples.  An even sample count leaves one panel over;
    that last panel is integrated with the trapezoid rule.
    """
    y = np.asarray(samples, dtype=float)
    n = y.size
    if n < 3:
        raise TooFewSamples(f"Simpson needs >= 3 samples, got {n}")
    if n % 2 == 1:
        core, tail = y, 0.0
    else:
        core = y[:-1]
        tail = 0.5 * h * (y[-2] + y[-1])
    total = core[0] + core[-1] + 4.0 * core[1:-1:2].sum() + 2.0 * core[2:-2:2].sum()
    return float(h / 3.0 * total + tail)


def count_nodes(samples, threshold: float | None = None) -> int:
    """Count strict sign changes among samples with magnitude above threshold.

    Sub-threshold samples (the tails of a decaying state, and the zeros
    themselves) are dropped before counting, so a zero crossing sampled
    very close to the axis still counts exactly once.  Default threshold is
    1e-8 of the peak magnitude.
    """
    y = np.asarray(samples, dtype=float)
    if y.size == 0:
        return 0
    if threshold is None:
        threshold = 1e-8 * float(np.max(np.abs(y)))
    kept = y[np.abs(y) > threshold]
    if kept.size < 2:
        return 0
    signs = np.sign(kept)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def golden_section_minimize(f, a: float, b: float, tol: float = 1e-12,
                            max_iter: int = 200) -> tuple[float, float]:
    """Minimize a unimodal function on [a, b]; returns (x_min, f(x_min))."""
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if abs(b - a) <= tol * (1.0 + abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)
