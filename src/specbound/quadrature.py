"""Uniform grids, composite Simpson quadrature and node counting.  The
grid type is shared by the potential catalog (default grids) and the
finite-difference verifier; Simpson and node counting are the tests'
independent checks of the closed-form norms and of the level indices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, TooFewSamples

MIN_GRID_POINTS = 100


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
        for name in ("x_min", "x_max"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameters(f"grid bound {name} must be finite, "
                                        f"got {getattr(self, name)!r}")
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

