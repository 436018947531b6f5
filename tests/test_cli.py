import json

import pytest

from qground.cli import main

# the stable key set of `solve --json` output (schema version 1)
SOLVE_JSON_KEYS = {
    "schema", "dim", "p", "delta", "omega", "regime", "mass_regime",
    "shooting_height", "u_height", "ode_residual", "equivalence_residual",
    "pohozaev_residual", "nehari_residual", "m_omega", "iterations",
    "tail_rate_fit", "tail_kind", "tail_amplitude", "tail_match_radius",
    "mass", "dirichlet", "quasi_grad", "potential", "beta", "energy",
    "m_star", "delta_omega",
}


class TestSolveCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        code = main(["solve", "--dim", "3", "--p", "3", "--delta", "0",
                     "--omega", "1", "--out", str(tmp_path)])
        assert code == 0
        root = tmp_path / "solve-N3-p3-d0-w1"
        assert (root / "u.csv").exists()
        assert (root / "v.csv").exists()
        report = json.loads((root / "solve.json").read_text())
        assert report["pohozaev_residual"] < 1e-6
        assert (root / "u.csv").read_text().startswith("r,value,dvalue")

    def test_json_schema_golden(self, tmp_path, capsys):
        code = main(["solve", "--dim", "3", "--p", "3", "--delta", "1",
                     "--omega", "1", "--out", str(tmp_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert set(payload.keys()) == SOLVE_JSON_KEYS

    def test_fraction_exponent_detected_critical(self, tmp_path, capsys):
        code = main(["solve", "--dim", "5", "--p", "7/3", "--delta", "1",
                     "--omega", "0.25", "--out", str(tmp_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "critical"

    def test_existence_bound_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--dim", "3", "--p", "11", "--delta", "1",
                     "--omega", "1", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "existence bound" in err

    def test_bad_flags_exit_code(self, capsys):
        assert main(["solve", "--dim", "3"]) == 2
        assert main(["solve", "--dim", "3", "--p", "x/y", "--omega", "1"]) == 2


class TestSweepCommand:
    def test_sweep_layout_and_determinism(self, tmp_path, capsys):
        args = ["sweep", "--dim", "3", "--p", "3", "--delta", "0",
                "--omega-ladder", "1.0:0.25:0.5", "--out", str(tmp_path),
                "--tag", "demo"]
        assert main(args) == 0
        branch = tmp_path / "demo" / "branch.csv"
        assert branch.exists()
        first = branch.read_bytes()
        header = first.decode().splitlines()[0]
        assert header == "omega,M,Mprime_fd,Mprime_res,T,beta,Qgrad,E,m_omega,lambda"
        assert (tmp_path / "demo" / "points" / "1.json").exists()
        assert main(args) == 0
        assert branch.read_bytes() == first

    def test_env_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QG_OUT_DIR", str(tmp_path / "envroot"))
        code = main(["sweep", "--dim", "3", "--p", "3", "--delta", "0",
                     "--omega-ladder", "1.0:0.5:0.5", "--tag", "envy"])
        assert code == 0
        assert (tmp_path / "envroot" / "envy" / "branch.csv").exists()


class TestSpectrumCommand:
    def test_spectrum_json(self, tmp_path, capsys):
        code = main(["spectrum", "--dim", "3", "--p", "3", "--delta", "1",
                     "--omega", "1", "--out", str(tmp_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["negative_count_radial"] == 1
        assert payload["matrix_L"]["det"] < 0
        root = tmp_path / "spectrum-N3-p3-d1-w1"
        assert (root / "spectrum.json").exists()


class TestFitCommand:
    def test_refit_stored_branch(self, tmp_path, capsys):
        main(["sweep", "--dim", "3", "--p", "3", "--delta", "0",
              "--omega-ladder", "1.0:0.125:0.5", "--out", str(tmp_path),
              "--tag", "fitme"])
        capsys.readouterr()
        code = main(["fit", "--branch", str(tmp_path / "fitme" / "branch.csv"),
                     "--dim", "3", "--p", "3", "--delta", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # M ~ omega^{-1/2} for the delta = 0, N = 3, p = 3 branch
        assert payload["mass_fit"]["exponent"] == pytest.approx(-0.5, abs=1e-6)

    @pytest.mark.parametrize("content", [
        None,                                  # no file at all
        "omega,M\n1.0,2.0\n",                  # columns missing
        "omega,M,Mprime_fd,Mprime_res,T,beta,Qgrad,E,m_omega,lambda\n"
        "1.0,abc,nan,nan,1,1,1,1,nan,nan\n",   # a cell that is no number
        "omega,M,Mprime_fd,Mprime_res,T,beta,Qgrad,E,m_omega,lambda\n"
        "1.0,2.0\n",                           # a short row
        "omega,M,Mprime_fd,Mprime_res,T,beta,Qgrad,E,m_omega,lambda\n",
    ], ids=["missing", "columns", "cell", "short-row", "no-points"])
    def test_bad_branch_csv_is_a_typed_error(self, tmp_path, capsys, content):
        path = tmp_path / "branch.csv"
        if content is not None:
            path.write_text(content)
        code = main(["fit", "--branch", str(path), "--dim", "3", "--p", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err


class TestVerifyCommand:
    def test_reduced_ladder_runs_and_reports(self, tmp_path, capsys):
        # a deliberately short ladder: the machinery must run end to end and
        # the exit code must mirror the recorded gates
        code = main(["verify", "--regime", "super", "--dim", "5", "--p", "3",
                     "--omega-ladder", "0.0625:0.00390625:0.5",
                     "--out", str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert (code == 0) == payload["passed"]
        assert payload["passed"] == all(g["pass"] for g in payload["gates"].values())
        fits = tmp_path / "verify-super" / "fits.json"
        assert fits.exists()
        assert json.loads(fits.read_text())["regime"] == "super"
