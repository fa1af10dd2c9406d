"""In-memory spans around calls into specbound's public functions.

The tracer replaces module attributes with timing wrappers, under the
names the callers look them up by (``potentials.solve_energy`` is what
``potentials.spectrum`` calls), so no file of the program changes.  Each
span keeps its name, start, end and parent; a layer's self time is its
duration minus the time its child spans cover.  Hot, tiny functions get a
counting wrapper without a span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from specbound import cli, oracle, parametric, potentials


def _rows(args, kwargs, result):
    # interior rows of the h matrix plus, when refining, the h/2 matrix
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    refine = args[4] if len(args) > 4 else kwargs.get("refine", True)
    rows = grid.n_points - 2
    return rows + (2 * (grid.n_points - 1) - 1 if refine else 0)


def _points(arg_index):
    def count(args, kwargs, result):
        return int(np.size(args[arg_index]))
    return count


# (module, attribute, span name, work counter name, work count)
SPANNED = [
    (cli, "main", "cli.main", None, None),
    (potentials, "spectrum", "potentials.spectrum", None, None),
    (potentials, "wavefunction", "potentials.wavefunction", None, None),
    (potentials, "closed_form_energy", "potentials.closed_form_energy", None, None),
    (potentials, "default_grid", "potentials.default_grid", "potentials.grid_points",
     lambda args, kwargs, result: result.n_points),
    (potentials, "effective_potential", "potentials.effective_potential", None, None),
    (potentials, "solve_energy", "parametric.solve_energy", "parametric.levels_solved",
     lambda args, kwargs, result: 1),
    (potentials, "laguerre_eval", "polynomials.laguerre_eval", "polynomials.points",
     _points(2)),
    (potentials, "jacobi_eval", "polynomials.jacobi_eval", "polynomials.points",
     _points(3)),
    (potentials, "simpson_integrate", "quadrature.simpson_integrate",
     "quadrature.simpson_samples", _points(0)),
    (oracle, "fd_eigenvalues", "oracle.fd_eigenvalues", None, None),
    (oracle, "fd_eigenvalues_from_callable", "oracle.fd_eigenvalues_from_callable",
     "oracle.matrix_rows", _rows),
    (oracle, "compare_spectra", "oracle.compare_spectra", None, None),
]
COUNTED = [
    (parametric, "quantization_residual", "parametric.residual_evals"),
]


class Tracer:
    """Records spans while ``enabled``; install() patches the program's
    module attributes for the rest of the process."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def install(self) -> None:
        for module, attr, name, counter, work in SPANNED:
            setattr(module, attr, self._spanned(getattr(module, attr), name, counter, work))
        for module, attr, counter in COUNTED:
            setattr(module, attr, self._counted(getattr(module, attr), counter))

    def _spanned(self, fn, name, counter, work):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                counts[counter] += work(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child_time):
            inclusive[name] += end - start
            self_time[name] += end - start - covered
        return inclusive, self_time

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def layer_metrics(tracer: Tracer, rounds: int, round_s: float) -> dict:
    """Per-layer metrics per round, as named in BENCHMARK.json."""
    inclusive, self_time = tracer.totals()
    counts = tracer.counts

    def per_round(value):
        return value / rounds

    levels = counts["parametric.levels_solved"]
    values = {
        "trace.round_s": (round_s, "s/round"),
        "cli.self_s": (per_round(self_time["cli.main"]), "s/round"),
        "oracle.fd_eigenvalues_s": (per_round(inclusive["oracle.fd_eigenvalues"]), "s/round"),
        "oracle.matrix_rows": (per_round(counts["oracle.matrix_rows"]), "count/round"),
        "oracle.compare_spectra_s": (per_round(inclusive["oracle.compare_spectra"]),
                                     "s/round"),
        "potentials.effective_potential_s": (
            per_round(inclusive["potentials.effective_potential"]), "s/round"),
        "parametric.solve_energy_s": (per_round(inclusive["parametric.solve_energy"]),
                                      "s/round"),
        "parametric.residual_evals": (per_round(counts["parametric.residual_evals"]),
                                      "count/round"),
        "parametric.residual_evals_per_level": (
            counts["parametric.residual_evals"] / levels if levels else 0.0, "count/level"),
        "potentials.default_grid_s": (per_round(inclusive["potentials.default_grid"]),
                                      "s/round"),
        "potentials.grid_points": (per_round(counts["potentials.grid_points"]),
                                   "count/round"),
        "potentials.spectrum.self_s": (per_round(self_time["potentials.spectrum"]),
                                       "s/round"),
        "polynomials.eval_s": (per_round(inclusive["polynomials.laguerre_eval"]
                                         + inclusive["polynomials.jacobi_eval"]), "s/round"),
        "polynomials.points": (per_round(counts["polynomials.points"]), "count/round"),
        "quadrature.simpson_s": (per_round(inclusive["quadrature.simpson_integrate"]),
                                 "s/round"),
        "quadrature.simpson_samples": (per_round(counts["quadrature.simpson_samples"]),
                                       "count/round"),
        "potentials.wavefunction_s": (per_round(inclusive["potentials.wavefunction"]),
                                      "s/round"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def self_shares(tracer: Tracer, total_s: float) -> dict:
    """Each span name's self time as a share of the timed wall time; the
    remainder is time outside every span (the benchmark's own loop)."""
    _, self_time = tracer.totals()
    return {name: t / total_s for name, t in sorted(self_time.items(),
                                                    key=lambda kv: -kv[1])}
