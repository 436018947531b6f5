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

    def test_fractional_p_tag_is_one_directory(self, tmp_path, capsys):
        code = main(["solve", "--dim", "3", "--p", "7/3", "--delta", "1",
                     "--omega", "1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "solve-N3-p7_3-d1-w1" / "solve.json").exists()

    def test_existence_bound_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--dim", "3", "--p", "11", "--delta", "1",
                     "--omega", "1", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "existence bound" in err

    def test_bad_flags_exit_code(self, capsys):
        assert main(["solve", "--dim", "3"]) == 2
        assert main(["solve", "--dim", "3", "--p", "x/y", "--omega", "1"]) == 2

    def test_huge_resolution_exit_code(self, tmp_path, capsys):
        # rejected before the grid is allocated
        code = main(["solve", "--dim", "3", "--p", "3", "--omega", "1",
                     "--resolution", "100000000000", "--out", str(tmp_path)])
        assert code == 2
        assert "resolution" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--omega", "nan"], ["--omega", "inf"],
        ["--omega", "1", "--delta", "nan"],
    ])
    def test_non_finite_values_exit_code(self, tmp_path, capsys, flags):
        code = main(["solve", "--dim", "3", "--p", "3", *flags,
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_solver_failure_is_exit_three(self, tmp_path, capsys):
        # p near 1 with delta > 0: the height monitor never changes sign, a
        # typed solver failure, told apart from a failed gate (exit 1)
        code = main(["solve", "--dim", "3", "--p", "21/20", "--delta", "1",
                     "--omega", "1", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "does not change sign" in err

    def test_failed_gate_is_exit_three(self, tmp_path, capsys):
        # N = 2, p = 47/4 at resolution 1024 misses the Nehari gate: no
        # profile is written
        code = main(["solve", "--dim", "2", "--p", "47/4", "--delta", "1",
                     "--omega", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "Nehari residual" in capsys.readouterr().err
        assert not (tmp_path / "solve-N2-p47_4-d1-w1").exists()

    def test_unwritable_out_is_exit_two(self, tmp_path, capsys):
        # --out names a file, so the output directory cannot be made
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["solve", "--dim", "3", "--p", "3", "--delta", "1",
                     "--omega", "1", "--out", str(blocker)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


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

    def test_failed_gates_are_sweep_failures(self, tmp_path, capsys):
        code = main(["sweep", "--dim", "2", "--p", "47/4", "--delta", "1",
                     "--omega-ladder", "1:0.25:0.5", "--out", str(tmp_path),
                     "--tag", "gates"])
        assert code == 1
        assert "(3 failures)" in capsys.readouterr().out
        rows = (tmp_path / "gates" / "branch.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.split(",")[1:] == ["nan"] * 9 for row in rows)

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

    def test_zero_mass_has_no_mprime(self, tmp_path, capsys, monkeypatch,
                                     zero_mass53):
        # M' lives along omega > 0; the zero-mass solve is the fixture's
        from qground import cli

        def solved(params, cfg):
            assert params == zero_mass53.params
            return zero_mass53

        monkeypatch.setattr(cli, "solve_ground_state", solved)
        code = main(["spectrum", "--dim", "5", "--p", "3", "--delta", "1",
                     "--omega", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "omega > 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


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

    @staticmethod
    def _branch_csv(path, masses):
        rows = [f"{w!r},{m!r},nan,nan,1,1,1,1,nan,nan"
                for w, m in zip((1.0, 0.5, 0.25), masses)]
        path.write_text("omega,M,Mprime_fd,Mprime_res,T,beta,Qgrad,E,"
                        "m_omega,lambda\n" + "\n".join(rows) + "\n")

    def test_failed_point_mass_is_rejected(self, tmp_path, capsys):
        # a failed sweep point stores M = nan
        path = tmp_path / "branch.csv"
        self._branch_csv(path, (2.0, float("nan"), 4.0))
        code = main(["fit", "--branch", str(path), "--dim", "3", "--p", "3",
                     "--delta", "0"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_three_point_fit_is_strict_json(self, tmp_path, capsys):
        # AICc is infinite for three points; it must not print as Infinity
        path = tmp_path / "branch.csv"
        self._branch_csv(path, (2.0, 2.0 * 2 ** 0.5, 4.0))
        code = main(["fit", "--branch", str(path), "--dim", "3", "--p", "3",
                     "--delta", "0", "--out", str(tmp_path / "out")])
        assert code == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        for text in (capsys.readouterr().out,
                     (tmp_path / "out" / "fits.json").read_text()):
            payload = json.loads(text, parse_constant=reject)
            assert payload["mass_fit"]["aicc"] is None
            assert payload["mass_fit"]["exponent"] == pytest.approx(-0.5)


#: reduced ladders per regime, with the gates (value, pass) they give: the
#: ladders are too short for the asymptotic windows, so some gates fail.
#: The values are frozen from the current height root-find; moving a height
#: within its 1e-13 bracket moves the residual-type values (the energy
#: identities, the Q-mass intercept) by up to 2e-4 relative, the correction
#: coefficient by 1e-6 and the other values by up to 1e-9, with every flag
#: unchanged
VERIFY_CASES = {
    "sub": (["--dim", "3", "--p", "2",
             "--omega-ladder", "0.015625:0.0009765625:0.5"], {
        "correction_coefficient_5pct": (0.0029101095079758425, True),
        "intercept_matches_Q_mass": (9.374294678310164e-07, True),
        "mprime_sign_near_zero": (2095.9159120046706, True),
        "energy_identity_1pct": (1.1964807108988388e-06, True),
    }, "expansion"),
    "crit": (["--dim", "3", "--p", "5", "--resolution", "1024",
              "--omega-ladder", "0.0625:0.00006103515625:0.5"], {
        "mass_slope": (-0.6368417760529368, False),
        "lambda_slope": (-0.2819963168607267, False),
        "level_gap_slope": (0.28844822301636563, True),
        "mprime_negative_and_diverging": (None, True),
        "bubble_distance_1e-2": (0.059191797870402074, False),
        "energy_limit_3pct": (0.019278422804876398, True),
        "energy_identity_1pct": (4.7062778042930096e-08, True),
    }, "critical"),
    "super": (["--dim", "5", "--p", "3",
               "--omega-ladder", "0.0625:0.00390625:0.5"], {
        "omega_mass_to_zero_monotone": (None, True),
        "mass_limit_2pct": (0.8950547812647782, False),
        "det_L_negative": (-2459596599439.246, True),
        "energy_limit_3pct": (0.00501888598609802, True),
        "energy_identity_1pct": (7.392929102915253e-07, True),
    }, "supercritical"),
}


class TestVerifyCommand:
    @pytest.mark.parametrize("regime", sorted(VERIFY_CASES))
    def test_reduced_ladder_runs_and_reports(self, regime, tmp_path, capsys):
        # a deliberately short ladder: the machinery must run end to end,
        # the gates must keep their names, values and flags, and the exit
        # code must mirror the recorded gates
        flags, expected, block = VERIFY_CASES[regime]
        code = main(["verify", "--regime", regime, *flags,
                     "--out", str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert (code == 0) == payload["passed"]
        assert payload["passed"] == all(g["pass"] for g in payload["gates"].values())
        assert set(payload["gates"]) == set(expected)
        for name, (value, passed) in expected.items():
            gate = payload["gates"][name]
            assert gate["pass"] is passed, name
            if value is None:
                assert gate["value"] is None, name
            else:
                assert gate["value"] == pytest.approx(value, rel=1e-12), name
        fits = json.loads((tmp_path / f"verify-{regime}" / "fits.json").read_text())
        assert fits["regime"] == regime
        assert set(fits) == {"schema", "regime", "gates", block, "energy",
                             "passed"}

    def test_failed_resolvent_fails_the_sign_gate(self, tmp_path, capsys,
                                                  monkeypatch):
        from qground import spectra
        from qground.errors import NearSingular

        def singular(*args, **kwargs):
            raise NearSingular("forced")

        monkeypatch.setattr(spectra, "mprime_resolvent", singular)
        flags, _, _ = VERIFY_CASES["sub"]
        code = main(["verify", "--regime", "sub", *flags,
                     "--out", str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["gates"]["mprime_sign_near_zero"] == {
            "value": None, "pass": False}

    def test_regime_checked_before_the_sweep(self, tmp_path, capsys,
                                             monkeypatch):
        from qground import branch

        def no_sweep(plan):
            raise AssertionError("swept a ladder outside the regime")

        monkeypatch.setattr(branch, "run_sweep", no_sweep)
        code = main(["verify", "--regime", "crit", "--dim", "2", "--p", "3",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_critical_regime_needs_dim_three(self, tmp_path, capsys):
        code = main(["verify", "--regime", "crit", "--dim", "2",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "N >= 3" in err
