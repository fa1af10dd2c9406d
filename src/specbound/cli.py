"""Command-line interface.

    specbound list [--format json|csv]
    specbound spectrum      --potential coulomb --param e2=1 --l 0 --n-max 3
    specbound wavefunction  --potential coulomb --param e2=1 --n 0 --samples 1000
    specbound verify        --potential coulomb --param e2=1 --n-max 2

Exit codes: 0 success, 2 invalid parameters, 3 no bound state (exhausted
spectrum or missing level), 4 verification failure or inadequate grid.
Runs are reproducible from any report: the report header echoes the fully
resolved configuration.  JSON is the default output format; the
SPECBOUND_DEFAULT_FORMAT environment variable overrides that default.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import oracle as orc
from . import potentials as pot
from .errors import (
    GridTooCoarse,
    GridTooLarge,
    InvalidParameters,
    NoBoundState,
    SpecboundError,
    WindowDegenerate,
)
from .parametric import quantization_residual
from .quadrature import RadialGrid

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_BOUND_STATE = 3
EXIT_VERIFY_FAILED = 4

FORMAT_ENV_VAR = "SPECBOUND_DEFAULT_FORMAT"
#: fixed tolerance for the closed-form vs residual-root leg of verify
CLOSED_FORM_RTOL = 1e-10
DEFAULT_REL_TOL = 1e-5
DEFAULT_SAMPLES = 1000


def _fmt(value: float) -> str:
    """Render a float with 17 significant digits (round-trippable)."""
    return format(float(value), ".17g")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; serializes to/from the JSON config."""

    potential: pot.PotentialSpec
    units: pot.UnitsConfig
    l: int = 0
    n_max: int = 2
    grid: RadialGrid | None = None
    output_format: str = "json"
    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise InvalidParameters(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")

    def to_json_dict(self) -> dict:
        out = {
            "potential": {
                "family": self.potential.family,
                "params": pot.potential_params(self.potential),
            },
            "units": {"hbar": self.units.hbar, "mass": self.units.mass},
            "l": self.l,
            "n_max": self.n_max,
            "rel_tol": self.rel_tol,
            "output_format": self.output_format,
        }
        if self.grid is not None:
            out["grid"] = {"x_min": self.grid.x_min, "x_max": self.grid.x_max,
                           "n_points": self.grid.n_points}
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "RunConfig":
        try:
            spec = pot.make_potential(data["potential"]["family"],
                                      data["potential"].get("params", {}))
        except KeyError as exc:
            raise InvalidParameters(f"config missing key: {exc}")
        units_d = data.get("units", {})
        units = pot.UnitsConfig(hbar=float(units_d.get("hbar", 1.0)),
                                mass=float(units_d.get("mass", 1.0)))
        grid = None
        if data.get("grid") is not None:
            g = data["grid"]
            if isinstance(g, (list, tuple)):
                grid = RadialGrid(float(g[0]), float(g[1]), int(g[2]))
            else:
                grid = RadialGrid(float(g["x_min"]), float(g["x_max"]),
                                  int(g["n_points"]))
        return RunConfig(potential=spec, units=units,
                         l=int(data.get("l", 0)), n_max=int(data.get("n_max", 2)),
                         grid=grid,
                         output_format=str(data.get("output_format", "json")),
                         rel_tol=float(data.get("rel_tol", DEFAULT_REL_TOL)))


def _default_format() -> str:
    env = os.environ.get(FORMAT_ENV_VAR, "").strip().lower()
    return env if env in ("json", "csv") else "json"


def _parse_params(items) -> dict:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise InvalidParameters(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise InvalidParameters(f"--param value for {key!r} is not a number: {value!r}")
    return params


def _parse_grid(text: str) -> RadialGrid:
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidParameters("--grid expects xmin,xmax,npts")
    return RadialGrid(float(parts[0]), float(parts[1]), int(parts[2]))


def _config_from_args(args) -> RunConfig:
    base: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
        if "runs" in base:
            raise InvalidParameters("a multi-run config is only valid for `verify`")
    return _merge_config(base, args)


def _merge_config(base: dict, args) -> RunConfig:
    merged = dict(base)
    if getattr(args, "potential", None):
        merged["potential"] = {"family": args.potential,
                               "params": _parse_params(args.param)}
    elif "potential" not in merged:
        raise InvalidParameters("no potential given (use --potential or --config)")
    units = dict(merged.get("units", {}))
    if getattr(args, "hbar", None) is not None:
        units["hbar"] = args.hbar
    if getattr(args, "mass", None) is not None:
        units["mass"] = args.mass
    merged["units"] = units
    for attr, key in (("l", "l"), ("n_max", "n_max"), ("rel_tol", "rel_tol")):
        value = getattr(args, attr, None)
        if value is not None:
            merged[key] = value
    if getattr(args, "grid", None):
        g = _parse_grid(args.grid)
        merged["grid"] = {"x_min": g.x_min, "x_max": g.x_max, "n_points": g.n_points}
    if getattr(args, "format", None):
        merged["output_format"] = args.format
    elif "output_format" not in merged:
        merged["output_format"] = _default_format()
    return RunConfig.from_json_dict(merged)


def _emit_table(fmt: str, header: list[str], rows: list[list], out) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    else:
        widths = [max(len(h), 22) for h in header]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
        for row in rows:
            cells = [_fmt(v) if isinstance(v, float) else str(v) for v in row]
            out.write("  ".join(c.ljust(w) for c, w in zip(cells, widths)) + "\n")


def _state_pq(state: pot.BoundState) -> tuple[float, float]:
    c = state.constants
    if hasattr(c, "p10"):
        return c.p10, c.q10
    return c.p0, c.q0


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_list(args, out) -> int:
    rows = pot.describe_families()
    if args.format == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
        return EXIT_OK
    header = ["case", "family", "label", "branch", "c3", "parameters", "supported_l"]
    table = []
    for r in rows:
        params = ";".join(f"{k}:{v}" for k, v in r["parameters"].items())
        table.append([r["case"], r["family"], r["label"], r["branch"], r["c3"],
                      params, r["supported_l"]])
    _emit_table("csv" if args.format == "csv" else "text", header, table, out)
    return EXIT_OK


def cmd_spectrum(args, out) -> int:
    config = _config_from_args(args)
    states = pot.spectrum(config.potential, config.l, config.units,
                          n_max=config.n_max)
    if not states:
        print("no bound states exist for these parameters", file=sys.stderr)
        return EXIT_NO_BOUND_STATE
    form, _ = pot.to_parametric(config.potential, config.l, config.units)
    rc = config.potential.root_choice()
    rows = []
    for st in states:
        residual = quantization_residual(form, st.n, st.energy, rc)
        p, q = _state_pq(st)
        rows.append([st.n, st.l, st.energy, residual,
                     st.coefficients.branch, p, q])
    if config.output_format == "json":
        payload = {
            "config": config.to_json_dict(),
            "levels": [{"n": r[0], "l": r[1], "energy": r[2], "residual": r[3],
                        "branch": r[4], "p": r[5], "q": r[6]} for r in rows],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        _emit_table(config.output_format, ["n", "l", "energy", "residual", "branch", "p", "q"],
                    rows, out)
    return EXIT_OK


def cmd_wavefunction(args, out) -> int:
    config = _config_from_args(args)
    n = args.n
    if n is None or n < 0:
        raise InvalidParameters("wavefunction needs --n >= 0")
    if args.samples < 1:
        raise InvalidParameters(f"--samples must be >= 1, got {args.samples}")
    states = pot.spectrum(config.potential, config.l, config.units, n_max=n)
    if len(states) <= n:
        print(f"level (n={n}, l={config.l}) does not exist", file=sys.stderr)
        return EXIT_NO_BOUND_STATE
    state = states[n]
    x_min, x_max = ((config.grid.x_min, config.grid.x_max) if config.grid
                    else pot.sampling_window(state))
    x = np.linspace(x_min, x_max, args.samples)
    psi = pot.wavefunction(state, x)
    weighted = psi * psi * state.cmap.measure(x)
    rows = [[float(xi), float(pi), float(wi)] for xi, pi, wi in zip(x, psi, weighted)]
    if config.output_format == "json":
        payload = {
            "config": config.to_json_dict(),
            "level": {"n": state.n, "l": state.l, "energy": state.energy,
                      "norm_constant": state.norm_constant},
            "samples": [{"x": r[0], "psi": r[1], "psi_squared_weighted": r[2]}
                        for r in rows],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        _emit_table(config.output_format, ["x", "psi", "psi_squared_weighted"], rows, out)
    return EXIT_OK


def _verify_single(config: RunConfig) -> dict:
    states = pot.spectrum(config.potential, config.l, config.units,
                          n_max=config.n_max)
    if not states:
        raise NoBoundState("no bound states exist for these parameters")
    spectrum_oracle = orc.fd_eigenvalues(config.potential, config.l, config.units,
                                         grid=config.grid, count=len(states),
                                         strict_grid=False)
    report = orc.compare_spectra(states, spectrum_oracle, rel_tol=config.rel_tol)
    levels = []
    closed_ok = True
    for st, row in zip(states, report.levels):
        closed = pot.closed_form_energy(config.potential, config.l, config.units, st.n)
        rel_closed = abs(closed - st.energy) / max(abs(st.energy), 1e-300)
        closed_ok = closed_ok and rel_closed <= CLOSED_FORM_RTOL
        levels.append({
            "n": st.n,
            "closed_form": closed,
            "residual_root": st.energy,
            "oracle": row.oracle,
            "rel_closed_vs_root": rel_closed,
            "rel_root_vs_oracle": row.rel_diff,
        })
    passed = (report.passed and closed_ok and spectrum_oracle.grid_adequate)
    return {
        "config": config.to_json_dict(),
        "grid_adequate": spectrum_oracle.grid_adequate,
        "richardson_shift": spectrum_oracle.richardson_shift,
        "count_analytic": report.count_analytic,
        "count_oracle": report.count_oracle,
        "count_discrepancy": report.count_discrepancy,
        "worst_rel_root_vs_oracle": report.worst_rel_diff,
        "rel_tol": config.rel_tol,
        "closed_form_tol": CLOSED_FORM_RTOL,
        "levels": levels,
        "passed": passed,
    }


def _emit_verify_report(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
        return
    header = ["n", "closed_form", "residual_root", "oracle",
              "rel_closed_vs_root", "rel_root_vs_oracle"]
    rows = [[lv["n"], lv["closed_form"], lv["residual_root"], lv["oracle"],
             lv["rel_closed_vs_root"], lv["rel_root_vs_oracle"]]
            for lv in report["levels"]]
    out.write(f"# config: {json.dumps(report['config'])}\n")
    out.write(f"# grid_adequate: {report['grid_adequate']}"
              f" richardson_shift: {_fmt(report['richardson_shift'])}\n")
    _emit_table(fmt, header, rows, out)
    out.write(f"# passed: {report['passed']}\n")


def cmd_verify(args, out) -> int:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            raw = json.load(fh)
        if "runs" in raw:
            reports = []
            for run in raw["runs"]:
                config = _merge_config(run, argparse.Namespace(
                    potential=None, param=None, hbar=None, mass=None, l=None,
                    n_max=None, rel_tol=None, grid=None, format=args.format))
                reports.append(_verify_single(config))
            passed = all(r["passed"] for r in reports)
            fmt = args.format or _default_format()
            if fmt == "json":
                json.dump({"runs": reports, "passed": passed}, out, indent=2)
                out.write("\n")
            else:
                for r in reports:
                    _emit_verify_report(r, fmt, out)
            return EXIT_OK if passed else EXIT_VERIFY_FAILED
    config = _config_from_args(args)
    report = _verify_single(config)
    _emit_verify_report(report, config.output_format, out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--potential", help="family name (see `specbound list`)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="potential parameter, repeatable")
    p.add_argument("--l", type=int, default=None, help="angular momentum")
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--grid", default=None, metavar="XMIN,XMAX,NPTS")
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    p.add_argument("--config", default=None, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specbound",
        description="Bound-state spectra for nine solvable potential families, "
                    "with closed-form, root-finding, and finite-difference routes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="describe the nine potential families")
    p_list.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_list.set_defaults(func=cmd_list)

    p_spec = sub.add_parser("spectrum", help="solve bound levels")
    _add_common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_wf = sub.add_parser("wavefunction", help="sample a normalized bound state")
    _add_common(p_wf)
    p_wf.add_argument("--n", type=int, default=None, help="level index")
    p_wf.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_wf.set_defaults(func=cmd_wavefunction)

    p_ver = sub.add_parser("verify", help="three-way closed-form / root / oracle check")
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: parse_args
    leaves a parser as it was, so every call can share it."""
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    # argparse reads a value that starts with "-" as an option, so a grid
    # that starts below 0 is joined to its flag: --grid=-1,6,1000
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--grid":
            argv[i:i + 2] = [f"--grid={argv[i + 1]}"]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except (NoBoundState, WindowDegenerate) as exc:
        print(f"no bound state: {exc}", file=sys.stderr)
        return EXIT_NO_BOUND_STATE
    except GridTooCoarse as exc:
        print(f"grid too coarse: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except GridTooLarge as exc:
        print(f"grid too large: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (SpecboundError, OSError, json.JSONDecodeError,
            KeyError, IndexError, TypeError, ValueError) as exc:
        # malformed flags or config shapes all map onto the same exit code
        print(f"invalid run: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
