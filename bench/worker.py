"""One workload in one process: build the inputs, run whole rounds for the
requested time, then check every output.

Started by run.py with numpy's thread pools pinned to one thread.  Prints
``ready`` once the first case can run, and as its last line one JSON
object with the raw figures of the run.  With ``--trace 1`` it also writes
its spans to bench/out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from specbound import cli, potentials
from specbound.errors import SpecboundError

import cases
import reference as ref
import yardstick

HERE = Path(__file__).resolve().parent


def prepare_verify(case: cases.VerifyCase) -> list[str]:
    return case.argv()


def run_verify(case: cases.VerifyCase, argv: list[str]):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def sample_points(spec, grid) -> np.ndarray:
    """Radial samples are spaced evenly in sqrt(r), which resolves the
    short lobes of high levels near the origin; 1-D samples are uniform."""
    u = np.linspace(0.0, 1.0, cases.SAMPLES)
    if spec.radial:
        return grid.x_min + (grid.x_max - grid.x_min) * u * u
    return grid.x_min + (grid.x_max - grid.x_min) * u


def prepare_spectrum(case: cases.SpectrumCase):
    """The sample points span the grid that `spectrum` normalizes on.  They
    are built once, before any timing or tracing, so that the layer figures
    hold only the program's own calls."""
    spec, units = case.spec(), case.units()
    grid = potentials.default_grid(spec, case.l, units, n_max=case.n_max)
    return spec, units, grid, sample_points(spec, grid)


def run_spectrum(case: cases.SpectrumCase, prepared):
    # module attributes, not the names re-exported by the package, so that
    # the traced run sees these calls
    spec, units, grid, x = prepared
    states = potentials.spectrum(spec, case.l, units, n_max=case.n_max)
    return states, grid, x, [potentials.wavefunction(st, x) for st in states]


class Outcome(NamedTuple):
    """What one case execution delivered: its exit code (or the error it
    raised), levels, and a digest that later executions of the same case
    must reproduce exactly."""

    exit: int | str
    levels: int
    digest: str

    @property
    def failed(self) -> bool:
        return self.exit != cli.EXIT_OK


def verify_outcome(result) -> Outcome:
    code, text = result
    levels = len(json.loads(text)["levels"]) if code == cli.EXIT_OK else 0
    return Outcome(code, levels, f"{code}:{text}")


def spectrum_outcome(result) -> Outcome:
    states, grid, x, psis = result
    h = hashlib.sha256(repr([(s.n, s.energy, s.norm_constant) for s in states]).encode())
    h.update(repr(grid).encode())
    for psi in psis:
        h.update(np.ascontiguousarray(psi).tobytes())
    return Outcome(cli.EXIT_OK, len(states), h.hexdigest())


# ---------------------------------------------------------------------------
# independent checks of a case's first output
# ---------------------------------------------------------------------------

def check_verify(case: cases.VerifyCase, result) -> None:
    report = json.loads(result[1])
    spec, l, units = case.spec(), case.l, case.units()
    levels = report["levels"]
    ref.require([lv["n"] for lv in levels] == list(range(len(levels))), "level indices")
    roots = [lv["residual_root"] for lv in levels]
    ref.check_levels(roots, spec)

    textbook = ref.textbook_levels(spec, l, units.hbar, units.mass, cases.VERIFY_N_MAX)
    if textbook is not None:
        ref.require(len(levels) == len(textbook),
                    f"{len(levels)} levels, textbook has {len(textbook)}")
        for lv, e in zip(levels, textbook):
            ref.check_close(lv["closed_form"], e, ref.TEXTBOOK_RTOL, f"closed form n={lv['n']}")
            ref.check_close(lv["residual_root"], e, ref.TEXTBOOK_RTOL, f"root n={lv['n']}")
    else:
        # no textbook form: the level count and values come from LAPACK on a
        # grid four times finer than the program's
        grid = potentials.default_grid(spec, l, units, n_max=cases.VERIFY_N_MAX)
        fd = ref.fd_reference(spec, l, units.hbar, units.mass, grid,
                              cases.VERIFY_N_MAX + 1, refine_factor=4)
        bound = [e for e in fd if e < ref.asymptote(spec)]
        ref.require(len(levels) == len(bound),
                    f"{len(levels)} levels, finite differences give {len(bound)}")
        for lv, e in zip(levels, bound):
            ref.check_close(lv["residual_root"], e, ref.FD_RTOL, f"root n={lv['n']}")
            ref.check_close(lv["closed_form"], lv["residual_root"], ref.TEXTBOOK_RTOL,
                            f"closed form n={lv['n']}")

    # the oracle's values against LAPACK on the same matrices: the grid the
    # oracle picks for len(levels) eigenvalues, at h and h/2
    grid = potentials.default_grid(spec, l, units, n_max=len(levels) - 1)
    same = ref.fd_reference(spec, l, units.hbar, units.mass, grid, len(levels))
    for lv, e in zip(levels, same):
        ref.require(abs(lv["oracle"] - e) <= ref.ORACLE_ATOL * max(1.0, abs(e)),
                    f"oracle n={lv['n']}: {lv['oracle']!r} vs LAPACK {e!r}")


def check_spectrum(case: cases.SpectrumCase, result) -> None:
    states, grid, x, psis = result
    spec, units = case.spec(), case.units()
    energies = [st.energy for st in states]
    ref.require([st.n for st in states] == list(range(len(states))), "level indices")
    ref.check_levels(energies, spec)
    textbook = ref.textbook_levels(spec, case.l, units.hbar, units.mass, case.n_max)
    if textbook is None:
        textbook = ref.fd_reference(spec, case.l, units.hbar, units.mass, grid,
                                    case.n_max + 1, refine_factor=4)
        rtol = ref.FD_RTOL
    else:
        rtol = ref.TEXTBOOK_RTOL
    ref.require(len(states) == case.n_max + 1 and len(textbook) >= len(states),
                f"{len(states)} levels for n_max = {case.n_max}")
    for st, e in zip(states, textbook):
        ref.check_close(st.energy, e, rtol, f"energy n={st.n}")

    width = grid.x_max - grid.x_min
    lo, hi = (0.0, grid.x_max + width) if spec.radial else (grid.x_min - width,
                                                            grid.x_max + width)
    nodes_x, weights = ref.gauss_rule(spec.radial, lo, hi)
    previous = None
    for st, psi in zip(states, psis):
        ref.require(psi.shape == x.shape and np.all(np.isfinite(psi)), f"samples n={st.n}")
        nodes = ref.count_sign_changes(psi)
        ref.require(nodes == st.n, f"level n={st.n} has {nodes} nodes")
        at_nodes = potentials.wavefunction(st, nodes_x)
        norm = float(np.sum(weights * at_nodes * at_nodes))
        ref.require(abs(norm - 1.0) <= ref.NORM_TOL, f"level n={st.n} norm {norm!r}")
        if previous is not None:
            overlap = float(np.sum(weights * at_nodes * previous))
            ref.require(abs(overlap) <= ref.OVERLAP_TOL, f"levels n={st.n - 1}, {st.n} "
                        f"overlap {overlap:.2e}")
        previous = at_nodes


WORKLOADS = {
    "verify-catalog": (prepare_verify, run_verify, verify_outcome, check_verify),
    "spectrum-radial": (prepare_spectrum, run_spectrum, spectrum_outcome, check_spectrum),
    "spectrum-wells": (prepare_spectrum, run_spectrum, spectrum_outcome, check_spectrum),
}


def expected_exit(case) -> int:
    """Only the verify rows of known program faults may exit non-zero."""
    return case.expect_exit if isinstance(case, cases.VerifyCase) else cli.EXIT_OK


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    prepare, run, outcome_of, check = WORKLOADS[args.workload]
    rounds_iter = cases.round_orders(args.workload, args.seed)
    first_round = next(rounds_iter)
    inputs = {case.key: prepare(case) for case in first_round}
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    first: dict[str, tuple] = {}  # case key -> (case, result, outcome)
    problems: list[str] = []
    scaled_case_s: list[float] = []
    attempted = failed = levels = rounds = 0
    timed = scaled = 0.0
    speed_before = yardstick.sample()
    order = first_round
    while True:
        for case in order:
            if tracer:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = run(case, inputs[case.key])
            except SpecboundError as exc:
                result = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
            speed_after = yardstick.sample()
            dt_scaled = dt * yardstick.REFERENCE_S / (0.5 * (speed_before + speed_after))
            speed_before = speed_after
            timed += dt
            scaled += dt_scaled
            scaled_case_s.append(dt_scaled)
            attempted += 1
            if isinstance(result, SpecboundError):
                outcome = Outcome(f"raised {result!r}", 0, f"error:{result!r}")
            else:
                outcome = outcome_of(result)
            failed += outcome.failed
            levels += outcome.levels
            if case.key not in first:
                first[case.key] = (case, result, outcome)
            elif outcome.digest != first[case.key][2].digest:
                problems.append(f"{case.key}: output differs from its first execution")
        rounds += 1
        if timed >= args.seconds:
            break
        order = next(rounds_iter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for case, result, outcome in first.values():
        if outcome.exit != expected_exit(case):
            problems.append(f"{case.key}: exit {outcome.exit}, expected {expected_exit(case)}")
        elif outcome.failed:
            # a known fault, counted as failed; the checks speak of the rest
            print(f"failed (known fault): {case.key}", file=sys.stderr)
        else:
            try:
                check(case, result)
            except ref.CheckFailed as exc:
                problems.append(f"{case.key}: {exc}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    out = {"correct": not problems, "attempted": attempted, "failed": failed,
           "rounds": rounds, "levels": levels, "timed_s": timed, "scaled_s": scaled}
    if tracer:
        from tracing import layer_metrics, self_shares
        out["layers"] = layer_metrics(tracer, rounds, timed / rounds)
        out["shares"] = self_shares(tracer, timed)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        out["levels_per_s"] = levels / scaled
        out["case_s.p50"] = statistics.median(scaled_case_s)
        out["peak_rss_mb"] = peak_rss_mb
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
