"""CLI contract: subcommands, exit codes, output formats, config round-trip."""

import csv
import io
import json

import numpy as np
import pytest

from specbound import (
    Coulomb,
    GeneralizedMorse,
    RadialGrid,
    UnitsConfig,
    closed_form_energy,
    count_nodes,
)
from specbound.cli import (
    EXIT_INVALID,
    EXIT_NO_BOUND_STATE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    RunConfig,
    main,
)


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


# ----------------------------------------------------------------------- list

def test_list_has_nine_rows_with_branch_tags():
    code, text = run_cli(["list"])
    assert code == EXIT_OK
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) == 10  # header plus nine families
    assert sum("c3 = 0" in ln for ln in lines) == 6
    assert sum("nonzero c3" in ln for ln in lines) == 3


def test_list_json_array():
    code, text = run_cli(["list", "--format", "json"])
    assert code == EXIT_OK
    rows = json.loads(text)
    assert len(rows) == 9
    assert [r["case"] for r in rows] == list(range(1, 10))
    assert rows[0]["family"] == "morse"
    assert rows[3]["c3"] == "c3 = 0"
    assert rows[8]["c3"] == "nonzero c3"


# ------------------------------------------------------------------- spectrum

def test_spectrum_coulomb_csv():
    code, text = run_cli(["spectrum", "--potential", "coulomb", "--param", "e2=1",
                          "--l", "0", "--n-max", "2", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["n", "l", "energy", "residual", "branch", "p", "q"]
    assert all(len(r) == 7 for r in rows)
    energies = [float(r[2]) for r in rows[1:]]
    assert energies == pytest.approx([-0.5, -0.125, -1 / 18], abs=1e-12)
    # 17-significant-digit numbers round-trip through text
    for r in rows[1:]:
        assert float(r[2]) == pytest.approx(float(format(float(r[2]), ".17g")), abs=0)


def test_spectrum_json_echoes_config():
    code, text = run_cli(["spectrum", "--potential", "coulomb", "--param", "e2=1",
                          "--n-max", "1", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["config"]["potential"]["family"] == "coulomb"
    assert payload["config"]["potential"]["params"] == {"e2": 1.0}
    assert len(payload["levels"]) == 2
    assert abs(payload["levels"][0]["residual"]) < 1e-10


@pytest.mark.parametrize("argv, spec, units", [
    # a Bohr radius of 1e-6, far below any default grid step
    (["--potential", "coulomb", "--param", "e2=1", "--hbar", "1e-3"],
     Coulomb(e2=1.0), UnitsConfig(hbar=1e-3)),
    # the textbook psi is near e^-1414 at its peak
    (["--potential", "morse", "--param", "V1=100", "--param", "V2=20",
      "--param", "a=1", "--mass", "1e6"],
     GeneralizedMorse(100.0, 20.0, 1.0), UnitsConfig(mass=1e6)),
], ids=["coulomb-hbar-1e-3", "morse-mass-1e6"])
def test_spectrum_extreme_units_match_closed_form(argv, spec, units):
    code, text = run_cli(["spectrum", *argv, "--format", "json"])
    assert code == EXIT_OK
    levels = json.loads(text)["levels"]
    assert [lv["n"] for lv in levels] == [0, 1, 2]
    for lv in levels:
        exact = closed_form_energy(spec, 0, units, lv["n"])
        assert lv["energy"] == pytest.approx(exact, rel=1e-10)


def test_spectrum_exhausted_exit_code():
    # a Morse pocket too shallow for even one level
    code, _ = run_cli(["spectrum", "--potential", "morse",
                       "--param", "V1=100", "--param", "V2=1", "--param", "a=1"])
    assert code == EXIT_NO_BOUND_STATE


def test_shallow_pocket_on_a_deep_step_holds_no_level(capsys):
    # the pocket is 2.5e-11 deep below -V1 = -1: over the zero-point rule's
    # first step of 1e-3 it rises by less than the rounding of V, which read
    # as a zero curvature and refused the well as unresolvable (exit 2)
    code, _ = run_cli(["spectrum", "--potential", "woods_saxon", "--param", "V1=0.99999",
                       "--param", "V2=1", "--param", "a=1"])
    assert code == EXIT_NO_BOUND_STATE
    assert "zero-point" not in capsys.readouterr().err


def test_invalid_parameters_exit_code():
    code, _ = run_cli(["spectrum", "--potential", "morse",
                       "--param", "V1=-5", "--param", "V2=1", "--param", "a=1"])
    assert code == EXIT_INVALID
    code, _ = run_cli(["spectrum", "--potential", "unknown_family"])
    assert code == EXIT_INVALID
    code, _ = run_cli(["spectrum", "--potential", "poschl_teller",
                       "--param", "V0=10", "--param", "a=1", "--param", "eta=1",
                       "--l", "2"])
    assert code == EXIT_INVALID



# one valid parameter set per family (the acceptance desk cases)
DESK_PARAMS = {
    "morse": {"V1": 100.0, "V2": 20.0, "a": 1.0},
    "mie": {"V0": 5.0, "a": 1.0},
    "kratzer_fues": {"De": 10.0, "re": 1.0},
    "coulomb": {"e2": 1.0},
    "pseudoharmonic": {"V0": 2.0, "r0": 1.0},
    "noncentral_radial": {"alpha": -1.0, "lambda": 0.0},
    "rosen_morse": {"V1": 4.0, "V2": 8.0, "a": 0.5, "eta": 1.0},
    "woods_saxon": {"V1": 5.0, "V2": 10.0, "a": 1.0},
    "poschl_teller": {"V0": 10.0, "a": 1.0, "eta": 1.0},
}
NON_FINITE_CASES = (
    [(family, name) for family, params in DESK_PARAMS.items() for name in params]
    + [("coulomb", "hbar"), ("coulomb", "mass")]
)


@pytest.mark.parametrize("family,name", NON_FINITE_CASES)
def test_non_finite_parameter_is_invalid_and_named(family, name, capsys):
    for bad in ("nan", "inf", "-inf"):
        args = ["spectrum", "--potential", family]
        for key, value in DESK_PARAMS[family].items():
            args += ["--param", f"{key}={bad}" if key == name else f"{key}={value!r}"]
        if name in ("hbar", "mass"):
            args.append(f"--{name}={bad}")
        code, _ = run_cli(args)
        assert code == EXIT_INVALID, (args, code)
        assert f"{name} must be finite" in capsys.readouterr().err


# --------------------------------------------------------------- wavefunction

def test_wavefunction_ground_state_nodeless():
    code, text = run_cli(["wavefunction", "--potential", "coulomb", "--param", "e2=1",
                          "--n", "0", "--samples", "500", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["x", "psi", "psi_squared_weighted"]
    psi = [float(r[1]) for r in rows[1:]]
    kept = [p for p in psi if abs(p) > 1e-8 * max(abs(v) for v in psi)]
    flips = sum(1 for a, b in zip(kept, kept[1:]) if (a < 0) != (b < 0))
    assert flips == 0
    assert max(psi) > 0


def test_wavefunction_second_excited_has_two_sign_changes():
    code, text = run_cli(["wavefunction", "--potential", "coulomb", "--param", "e2=1",
                          "--n", "2", "--samples", "2000", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    psi = [float(r[1]) for r in rows[1:]]
    kept = [p for p in psi if abs(p) > 1e-8 * max(abs(v) for v in psi)]
    flips = sum(1 for a, b in zip(kept, kept[1:]) if (a < 0) != (b < 0))
    assert flips == 2


@pytest.mark.parametrize("args, n", [
    (["--potential", "coulomb", "--param", "e2=1", "--hbar", "1e-3"], 1),
    (["--potential", "morse", "--param", "V1=100", "--param", "V2=20", "--param", "a=1",
      "--mass", "1e6"], 3),
    # tails past the points where the Jacobi map's exponentials overflow
    (["--potential", "poschl_teller", "--param", "V0=0.13215192124256028",
      "--param", "a=9.111073309911097", "--param", "eta=9.600103659498778",
      "--hbar", "0.9391053389991925", "--mass", "0.15843283062938884"], 0),
])
def test_wavefunction_samples_the_window_of_the_state(args, n):
    # without --grid the samples span the state itself: at hbar = 1e-3 the
    # Bohr radius is 1e-6, and a fixed 80-unit grid held one nonzero sample
    code, text = run_cli(["wavefunction", *args, "--n", str(n)])
    assert code == EXIT_OK
    samples = json.loads(text)["samples"]
    x = np.array([s["x"] for s in samples])
    psi = np.array([s["psi"] for s in samples])
    weighted = np.array([s["psi_squared_weighted"] for s in samples])
    trapezoid = float(np.sum(np.diff(x) * (weighted[1:] + weighted[:-1]) / 2))
    assert trapezoid == pytest.approx(1.0, abs=1e-3)
    assert count_nodes(psi) == n
    for end, density in ((x[0], weighted[0]), (x[-1], weighted[-1])):
        if end != 0.0:  # the radial origin is a boundary, not a tail
            assert density <= 1e-12 * weighted.max()


def test_wavefunction_grid_may_start_below_zero():
    # argparse would read "-1,6,1000" as an option and exit 2
    code, text = run_cli(["wavefunction", "--potential", "morse", "--param", "V1=100",
                          "--param", "V2=20", "--param", "a=1", "--n", "0",
                          "--grid", "-1,6,1000"])
    assert code == EXIT_OK
    x = [s["x"] for s in json.loads(text)["samples"]]
    assert (x[0], x[-1], len(x)) == (-1.0, 6.0, 1000)


def test_wavefunction_missing_level_exit_code():
    code, _ = run_cli(["wavefunction", "--potential", "morse",
                       "--param", "V1=100", "--param", "V2=20", "--param", "a=1",
                       "--n", "3"])
    assert code == EXIT_NO_BOUND_STATE


# --------------------------------------------------------------------- verify

def test_verify_coulomb_passes():
    code, text = run_cli(["verify", "--potential", "coulomb", "--param", "e2=1",
                          "--n-max", "2", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(text)
    assert report["passed"] is True
    assert report["grid_adequate"] is True
    assert report["worst_rel_root_vs_oracle"] < 1e-5
    assert {lv["n"] for lv in report["levels"]} == {0, 1, 2}


def test_verify_coarse_grid_fails_with_flag():
    code, text = run_cli(["verify", "--potential", "coulomb", "--param", "e2=1",
                          "--n-max", "1", "--grid", "0,80,200", "--format", "json"])
    assert code == EXIT_VERIFY_FAILED
    report = json.loads(text)
    assert report["grid_adequate"] is False


@pytest.mark.parametrize("args, intervals", [
    (["--potential", "coulomb", "--param", "e2=0.0954", "--hbar", "9.47", "--mass", "0.605",
      "--l", "2", "--n-max", "3"], 24075032),
    (["--potential", "noncentral_radial", "--param", "alpha=-0.02", "--param", "lambda=0.0308",
      "--hbar", "6.33", "--mass", "0.115", "--n-max", "3"], 125443817),
])
def test_verify_refuses_a_grid_above_the_row_cap(args, intervals, capsys):
    code, text = run_cli(["verify", *args])
    assert code == EXIT_VERIFY_FAILED and text == ""
    assert f"needs {intervals} intervals at h" in capsys.readouterr().err


@pytest.mark.parametrize("V2", ["21.22", "21.25", "21.3"])
def test_verify_does_not_pass_on_one_of_two_morse_levels(V2):
    # n = 1 is bound by less than half a scan cell; the residual route
    # returns it, so verify either confirms both levels or fails on the
    # count, and never passes with one
    code, text = run_cli(["verify", "--potential", "morse", "--param", "V1=100",
                          "--param", f"V2={V2}", "--param", "a=1", "--n-max", "2",
                          "--format", "json"])
    report = json.loads(text)
    assert report["count_analytic"] == 2
    if code == EXIT_OK:
        assert [lv["n"] for lv in report["levels"]] == [0, 1]
    else:
        assert code == EXIT_VERIFY_FAILED
        assert report["count_discrepancy"] is True and report["count_oracle"] == 1


def test_verify_sweep_config(tmp_path):
    sweep = {
        "runs": [
            {"potential": {"family": "coulomb", "params": {"e2": 1.0}}, "n_max": 1},
            {"potential": {"family": "poschl_teller",
                           "params": {"V0": 10.0, "a": 1.0, "eta": 1.0}}, "n_max": 2},
        ]
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    code, text = run_cli(["verify", "--config", str(path), "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["passed"] is True
    assert len(payload["runs"]) == 2


def test_config_file_round_trip(tmp_path):
    config = RunConfig(potential=Coulomb(e2=1.0),
                       units=UnitsConfig(hbar=1.0, mass=1.0),
                       l=1, n_max=3, grid=RadialGrid(0.0, 60.0, 2000),
                       output_format="csv", rel_tol=2e-5)
    data = config.to_json_dict()
    rebuilt = RunConfig.from_json_dict(json.loads(json.dumps(data)))
    assert rebuilt == config


def test_config_file_drives_run(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "potential": {"family": "coulomb", "params": {"e2": 1.0}},
        "l": 0, "n_max": 1, "output_format": "csv",
    }))
    code, text = run_cli(["spectrum", "--config", str(path)])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    assert float(rows[1][2]) == pytest.approx(-0.5, abs=1e-12)


def test_malformed_config_exits_invalid(tmp_path):
    bad_shape = tmp_path / "bad.json"
    bad_shape.write_text(json.dumps({"potential": "coulomb"}))
    code, _ = run_cli(["spectrum", "--config", str(bad_shape)])
    assert code == EXIT_INVALID
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    code, _ = run_cli(["spectrum", "--config", str(not_json)])
    assert code == EXIT_INVALID
    code, _ = run_cli(["spectrum", "--config", str(tmp_path / "missing.json")])
    assert code == EXIT_INVALID


def test_env_var_sets_default_format(monkeypatch):
    monkeypatch.setenv("SPECBOUND_DEFAULT_FORMAT", "csv")
    code, text = run_cli(["spectrum", "--potential", "coulomb", "--param", "e2=1",
                          "--n-max", "0"])
    assert code == EXIT_OK
    assert text.splitlines()[0] == "n,l,energy,residual,branch,p,q"


def test_exit_codes_are_restricted_set():
    samples = [
        ["list"],
        ["spectrum", "--potential", "coulomb", "--param", "e2=1"],
        ["spectrum", "--potential", "coulomb", "--param", "e2=-1"],
        ["spectrum", "--potential", "morse", "--param", "V1=100",
         "--param", "V2=1", "--param", "a=1"],
        ["verify", "--potential", "coulomb", "--param", "e2=1",
         "--grid", "0,80,200"],
        ["--bogus-flag"],
    ]
    for argv in samples:
        code, _ = run_cli(argv)
        assert code in (0, 2, 3, 4), argv


# ------------------------------------------------------- run-level validation

COULOMB = ["--potential", "coulomb", "--param", "e2=1"]


@pytest.mark.parametrize("grid, name", [("0,inf,1000", "x_max"), ("-inf,5,1000", "x_min"),
                                        ("nan,5,1000", "x_min"), ("0,nan,1000", "x_max")])
@pytest.mark.parametrize("command", ["wavefunction", "verify"])
def test_non_finite_grid_bound_is_invalid_and_named(command, grid, name, capsys):
    level = ["--n", "0"] if command == "wavefunction" else []
    code, text = run_cli([command, *COULOMB, *level, f"--grid={grid}"])
    assert code == EXIT_INVALID
    assert text == ""
    assert f"grid bound {name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [[0.0, float("inf"), 1000],
                                  {"x_min": float("-inf"), "x_max": 5.0, "n_points": 1000}])
def test_non_finite_grid_bound_in_config_is_invalid(tmp_path, grid, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"potential": {"family": "coulomb", "params": {"e2": 1.0}},
                                "grid": grid}))
    for command in (["verify"], ["wavefunction", "--n", "0"]):
        code, _ = run_cli([*command, "--config", str(path)])
        assert code == EXIT_INVALID
        assert "grid bound x_" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_rel_tol_must_be_finite_and_positive(tmp_path, value, capsys):
    code, _ = run_cli(["verify", *COULOMB, "--rel-tol", value])
    assert code == EXIT_INVALID
    assert "rel_tol must be finite and > 0" in capsys.readouterr().err
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"potential": {"family": "coulomb", "params": {"e2": 1.0}},
                                "rel_tol": float(value)}))
    code, _ = run_cli(["verify", "--config", str(path)])
    assert code == EXIT_INVALID
    assert "rel_tol must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_wavefunction_needs_at_least_one_sample(samples, capsys):
    code, text = run_cli(["wavefunction", *COULOMB, "--n", "0", "--samples", samples])
    assert code == EXIT_INVALID
    assert text == ""
    assert "--samples must be >= 1" in capsys.readouterr().err


def test_wavefunction_single_sample():
    code, text = run_cli(["wavefunction", *COULOMB, "--n", "0", "--samples", "1"])
    assert code == EXIT_OK
    assert len(json.loads(text)["samples"]) == 1


def test_poschl_teller_depth_must_stay_finite_as_rosen_morse(capsys):
    # V0 = 1e308 is finite, but the well is solved as Rosen-Morse with V2 = 4 V0
    code, _ = run_cli(["spectrum", "--potential", "poschl_teller", "--param", "V0=1e308",
                       "--param", "a=1", "--param", "eta=1"])
    assert code == EXIT_INVALID
    assert "4 V0 finite, got V0 = 1e+308" in capsys.readouterr().err


@pytest.mark.parametrize("family, params, named", [
    ("coulomb", ["e2=1e200"], "e2 = 1e+200"),
    ("noncentral_radial", ["alpha=-1e200", "lambda=0"], "alpha = -1e+200"),
    ("morse", ["V1=100", "V2=1e308", "a=1"], "V2 = 1e+308"),
    ("rosen_morse", ["V1=1", "V2=1e308", "a=1", "eta=1"], "V2 = 1e+308"),
    ("woods_saxon", ["V1=1", "V2=1e308", "a=1"], "V2 = 1e+308"),
])
def test_overflowing_parameter_is_invalid_and_named(family, params, named, capsys):
    # finite parameters whose energy window or coefficients overflow: the float
    # ** raised OverflowError (exit 1), and inf windows read as "no bound states"
    args = ["spectrum", "--potential", family]
    for param in params:
        args += ["--param", param]
    code, text = run_cli(args)
    assert code == EXIT_INVALID
    assert text == ""
    err = capsys.readouterr().err
    assert named in err and "overflow" in err


@pytest.mark.parametrize("family, params, n_max", [
    ("rosen_morse", ["V1=1", "V2=1e33", "a=1", "eta=1"], 0),
    ("rosen_morse", ["V1=1", "V2=1e40", "a=1", "eta=1"], 0),
    ("woods_saxon", ["V1=1", "V2=1e40", "a=1"], 0),
    ("poschl_teller", ["V0=1e40", "a=1", "eta=1"], 0),
    ("morse", ["V1=100", "V2=1e64", "a=1"], 0),
    ("morse", ["V1=100", "V2=1e40", "a=1"], 2),
    ("rosen_morse", ["V1=1", "V2=1e100", "a=1", "eta=1"], 0),
    ("morse", ["V1=100", "V2=4.2e18", "a=1"], 2),
    ("morse", ["V1=100", "V2=7.5e19", "a=1"], 2),
])
def test_unresolvable_zero_point_is_invalid_and_named(family, params, n_max, capsys):
    # wells that bind, but whose zero-point energy is below the rounding of
    # their bottom: the scan found no level and the run exited 3, or (Morse
    # at 1e40) found n = 0 only, at the bottom, and dropped n = 1 and 2; the
    # rest failed a level's consistency check (Rosen-Morse at 1e33) or its
    # norm constant overflowed (Rosen-Morse at 1e100, Morse at 4.2e18 and
    # 7.5e19) before the zero-point was named
    args = ["spectrum", "--potential", family, "--n-max", str(n_max)]
    for param in params:
        args += ["--param", param]
    code, text = run_cli(args)
    assert code == EXIT_INVALID
    assert text == ""
    err = capsys.readouterr().err
    assert "depth" in err and "cannot resolve its zero-point energy" in err


@pytest.mark.parametrize("family, params, named", [
    ("rosen_morse", ["V1=1", "V2=1e9", "a=1", "eta=1"], "V2 = 1000000000.0"),
    ("woods_saxon", ["V1=1", "V2=1e8", "a=1"], "V2 = 100000000.0"),
])
def test_deep_jacobi_consistency_exit_names_the_well(family, params, named, capsys):
    # r1 + r3 of a deep Jacobi well rounds above the absolute consistency
    # bound: the exit stays 2, and the message names the well, the units and
    # the level, not only |r2| and |r1 + r3|
    args = ["spectrum", "--potential", family, "--n-max", "2"]
    for param in params:
        args += ["--param", param]
    code, text = run_cli(args)
    assert code == EXIT_INVALID
    assert text == ""
    err = capsys.readouterr().err
    for part in (family, named, "a = 1.0", "hbar = 1.0", "mass = 1.0", "level n = 1",
                 "at E = -", "|r1 + r3| = "):
        assert part in err, part


@pytest.mark.parametrize("family, depth, params, threshold", [
    ("morse", "V2", ["V1=100", "a=1"], 1.41e15),
    ("rosen_morse", "V2", ["V1=1", "a=1", "eta=1"], 1.99e28),
    ("woods_saxon", "V2", ["V1=1", "a=1"], 4.96e27),
    ("poschl_teller", "V0", ["a=1", "eta=1"], 4.96e27),
])
def test_every_depth_past_the_zero_point_threshold_is_invalid(family, depth, params,
                                                              threshold, capsys):
    # the zero-point rule decides before any level is solved, so refusal
    # is monotone in the depth: 40 decades past the threshold, all refused
    def run(value):
        args = ["spectrum", "--potential", family, "--n-max", "2",
                "--param", f"{depth}={value!r}"]
        for param in params:
            args += ["--param", param]
        code, _ = run_cli(args)
        return code, capsys.readouterr().err

    below = run(threshold / 1.01)
    assert "zero-point" not in below[1]
    for k in range(321):
        code, err = run(threshold * 10.0 ** (k / 8))
        assert code == EXIT_INVALID, (k, err)
        assert "cannot resolve its zero-point energy" in err


def test_main_reuses_one_parser_across_calls():
    # main builds its parser once per process; later calls with other
    # subcommands and repeated --param flags must read as first calls do
    from specbound import cli

    morse = ["--potential", "morse", "--param", "V1=100", "--param", "V2=20",
             "--param", "a=1"]
    argvs = [
        ["spectrum", *morse, "--n-max", "0"],
        ["list", "--format", "json"],
        ["spectrum", *COULOMB, "--n-max", "1", "--format", "csv"],
        ["wavefunction", *COULOMB, "--n", "0", "--samples", "5"],
        ["spectrum", "--potential", "coulomb"],  # no --param left over
        ["spectrum", *morse, "--n-max", "0"],
        ["verify", *COULOMB, "--n-max", "1"],
    ]
    first = []
    for argv in argvs:
        cli._parser.cache_clear()
        first.append(run_cli(argv))
    cli._parser.cache_clear()
    assert [run_cli(argv) for argv in argvs] == first
    assert first[4][0] == EXIT_INVALID
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
