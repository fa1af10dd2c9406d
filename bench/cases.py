"""Fixed input lists of the three workloads.

Every workload is a closed loop over one of these lists: a run executes
whole rounds, each round runs every case once, and the seed only permutes
the order of the cases inside a round.  The work per round therefore does
not depend on the seed, which is what makes medians of different seeds
comparable, and the share of failed cases is the same in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from specbound import potentials as pot

VERIFY_N_MAX = 2
#: wavefunction samples per level in the spectrum workloads
SAMPLES = 2000


@dataclass(frozen=True)
class VerifyCase:
    """One `specbound verify` row; ``expect_exit`` is 4 for the rows that
    fail on every run because of a known program fault."""

    family: str
    params: tuple[tuple[str, float], ...]
    l: int = 0
    hbar: float = 1.0
    mass: float = 1.0
    expect_exit: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv())

    def argv(self) -> list[str]:
        args = ["verify", "--potential", self.family]
        for name, value in self.params:
            args += ["--param", f"{name}={value!r}"]
        for flag, value, default in (("--l", self.l, 0), ("--hbar", self.hbar, 1.0),
                                     ("--mass", self.mass, 1.0)):
            if value != default:
                args += [flag, repr(value)]
        return args + ["--n-max", str(VERIFY_N_MAX)]

    def spec(self):
        return pot.make_potential(self.family, dict(self.params))

    def units(self) -> pot.UnitsConfig:
        return pot.UnitsConfig(hbar=self.hbar, mass=self.mass)


@dataclass(frozen=True)
class SpectrumCase:
    """One `spectrum` call plus sampling of every level it returns."""

    family: str
    params: tuple[tuple[str, float], ...]
    l: int
    n_max: int
    hbar: float = 1.0
    mass: float = 1.0

    @property
    def key(self) -> str:
        params = " ".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family} {params} l={self.l} n_max={self.n_max}"

    def spec(self):
        return pot.make_potential(self.family, dict(self.params))

    def units(self) -> pot.UnitsConfig:
        return pot.UnitsConfig(hbar=self.hbar, mass=self.mass)


def _row(family: str, l: int = 0, hbar: float = 1.0, mass: float = 1.0,
         expect_exit: int = 0, **params: float) -> VerifyCase:
    return VerifyCase(family, tuple(params.items()), l, hbar, mass, expect_exit)


# the nine desk parameter sets of the acceptance suite (DESK_CASES), at l = 0
_DESK = [
    dict(family="morse", V1=100.0, V2=20.0, a=1.0),
    dict(family="mie", V0=5.0, a=1.0),
    dict(family="kratzer_fues", De=10.0, re=1.0),
    dict(family="coulomb", e2=1.0),
    dict(family="pseudoharmonic", V0=2.0, r0=1.0),
    dict(family="noncentral_radial", alpha=-1.0, lam=0.0),
    dict(family="rosen_morse", V1=4.0, V2=8.0, a=0.5, eta=1.0),
    dict(family="woods_saxon", V1=5.0, V2=10.0, a=1.0),
    dict(family="poschl_teller", V0=10.0, a=1.0, eta=1.0),
]

VERIFY_CATALOG = (
    [_row(**row) for row in _DESK]
    + [_row(**row, l=l) for l in (1, 2) for row in _DESK[1:5]]
    + [
        _row("coulomb", e2=1.0, hbar=2.0),
        _row("kratzer_fues", De=10.0, re=1.0, mass=0.5),
        _row("poschl_teller", V0=10.0, a=1.0, eta=1.0, hbar=0.5),
        # Richardson shift 1.33e-4 on the fixed 80-unit radial grid, above
        # the 1e-4 limit, although the levels agree to 1.6e-8
        _row("coulomb", e2=2.0, expect_exit=4),
        # n = 2 is bound by 0.0135 only; the 1-D grid edge cuts its tail
        _row("morse", V1=100.0, V2=20.0, a=1.0, mass=4.0, expect_exit=4),
    ]
)


def _spec(family: str, l: int, n_max: int, **params: float) -> SpectrumCase:
    return SpectrumCase(family, tuple(params.items()), l, n_max)


SPECTRUM_RADIAL = [
    # 756k-point default grid: normalization dominates
    _spec("coulomb", 0, 40, e2=1.0),
    _spec("coulomb", 1, 15, e2=1.0),
    # lambda = l(l+1)/2 makes these Coulomb at l = 1 and l = 3
    _spec("noncentral_radial", 0, 20, alpha=-1.0, lam=1.0),
    _spec("noncentral_radial", 0, 12, alpha=-2.0, lam=6.0),
    _spec("mie", 1, 10, V0=50.0, a=1.0),
    _spec("mie", 3, 10, V0=50.0, a=1.0),
    _spec("kratzer_fues", 1, 10, De=50.0, re=1.0),
    _spec("kratzer_fues", 2, 10, De=50.0, re=1.0),
    _spec("pseudoharmonic", 0, 15, V0=2.0, r0=1.0),
    _spec("pseudoharmonic", 2, 15, V0=2.0, r0=1.0),
]

# deep wells; n_max stops where the remaining levels are still bound well
# enough that their tails end inside the 4000-point default grid
SPECTRUM_WELLS = [
    _spec("poschl_teller", 0, 31, V0=600.0, a=1.0, eta=1.0),
    _spec("poschl_teller", 0, 6, V0=30.0, a=1.0, eta=2.0),
    _spec("woods_saxon", 0, 13, V1=5.0, V2=200.0, a=1.0),
    _spec("rosen_morse", 0, 9, V1=10.0, V2=400.0, a=1.0, eta=1.0),
    _spec("morse", 0, 15, V1=100.0, V2=240.0, a=1.0),
]

WORKLOADS = {
    "verify-catalog": VERIFY_CATALOG,
    "spectrum-radial": SPECTRUM_RADIAL,
    "spectrum-wells": SPECTRUM_WELLS,
}


def round_orders(workload: str, seed: int):
    """Endless sequence of rounds: each a seed-determined permutation of
    the workload's case list."""
    cases = WORKLOADS[workload]
    rng = random.Random(seed)
    while True:
        yield rng.sample(cases, len(cases))
