"""CLI contract: subcommands, exit codes, output formats, config round-trip."""

import csv
import io
import json

import pytest

from specbound import (
    Coulomb,
    GeneralizedMorse,
    RadialGrid,
    UnitsConfig,
    closed_form_energy,
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
