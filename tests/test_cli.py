import csv
import json

import numpy as np
import pytest

from ietidg.cli import (ExperimentSpec, build_parser, largest_rise, main, run_growth_study,
                        run_solve)
from ietidg.domains import domain_to_config, grid_domain, save_domain, t_domain
from ietidg.errors import ConfigError


class TestSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(degrees=[], refinements=[1])
        with pytest.raises(ConfigError):
            ExperimentSpec(delta=-1.0)
        with pytest.raises(ConfigError):
            ExperimentSpec(tol=2.0)

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["--builtin", "slider", "3", "0.3", "--degree", "1 2", "--refine", "1,2",
             "--delta", "10", "--check-oracle", "--csv", "out.csv"]
        )
        assert args.builtin == ["slider", "3", "0.3"]
        assert args.delta == 10.0
        assert args.check_oracle


class TestRunSolve:
    def test_tdomain_row(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        spec = ExperimentSpec(builtin=("tdomain",), degrees=[2], refinements=[1],
                              csv_path=str(csv_path), json_path=str(json_path))
        results = run_solve(spec)
        assert len(results) == 1
        assert results[0]["iterations"] >= 1
        assert results[0]["kappa"] >= 1.0
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0][0] == "domain"
        assert len(rows) == 2
        blob = json.loads(json_path.read_text())
        assert blob[0]["domain"] == "tdomain"

    def test_check_oracle(self):
        spec = ExperimentSpec(builtin=("grid", "2"), degrees=[2], refinements=[1],
                              tol=1e-10, check_oracle=True)
        results = run_solve(spec)
        assert results[0]["oracle_rel_inf_error"] <= 1e-6

    def test_jump_sweep(self):
        spec = ExperimentSpec(builtin=("tdomain",), degrees=[2], refinements=[1],
                              jump_exponents=[0, 2, 4])
        results = run_solve(spec)
        assert len(results) == 3
        kappas = [r["kappa"] for r in results]
        assert max(kappas) / min(kappas) <= 2.0

    def test_manufactured_mode(self):
        spec = ExperimentSpec(builtin=("grid", "2"), degrees=[2], refinements=[2],
                              manufactured=True, tol=1e-10)
        results = run_solve(spec)
        assert results[0]["l2_error"] < 1e-2

    def test_manufactured_with_jumps_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(builtin=("tdomain",), manufactured=True, jump_exponents=[0, 1])

    def test_slide_sweep(self):
        spec = ExperimentSpec(builtin=("slider", "3"), degrees=[2], refinements=[2],
                              slide_offsets=[0.2, 0.3, 0.5])
        results = run_solve(spec)
        assert len(results) == 3
        assert {r["slide_offset"] for r in results} == {0.2, 0.3, 0.5}
        assert all(r["kappa"] >= 1.0 and r["converged"] for r in results)

    def test_slide_sweep_needs_slider(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(builtin=("tdomain",), slide_offsets=[0.2])

    def test_config_file_with_jumps_rejected(self, tmp_path):
        path = tmp_path / "dom.json"
        save_domain(t_domain(degree=2, refinements=1), str(path))
        with pytest.raises(ConfigError, match="jump exponents do not apply to config-file domains"):
            ExperimentSpec(config_path=str(path), jump_exponents=[0, 3])

    def test_config_file_domain(self, tmp_path):
        path = tmp_path / "dom.json"
        save_domain(t_domain(degree=2, refinements=1), str(path))
        spec = ExperimentSpec(config_path=str(path), degrees=[2], refinements=[1])
        results = run_solve(spec)
        assert results[0]["K"] == 5

    def test_bit_reproducible_csv(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            spec = ExperimentSpec(builtin=("tdomain",), degrees=[1, 2], refinements=[1],
                                  csv_path=str(path))
            run_solve(spec)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestGrowthStudy:
    def test_requires_four_levels(self):
        spec = ExperimentSpec(builtin=("slider", "3", "0.3"), degrees=[2],
                              refinements=[1, 2, 3])
        with pytest.raises(ConfigError):
            run_growth_study(spec)

    def test_fit_and_spread(self):
        spec = ExperimentSpec(builtin=("slider", "3", "0.3"), degrees=[2],
                              refinements=[1, 2, 3, 4])
        study = run_growth_study(spec)
        assert len(study) == 1
        row = study[0]
        assert row["fit_constant"] > 0
        assert row["ratio_spread"] >= 1.0
        assert len(row["kappas"]) == 4
        assert max(row["ratios"]) / min(row["ratios"]) <= 3.0

    def test_largest_rise_hand_computed(self):
        # [2, 4, 0.5, 1]: the rises over i < j are 4/2 = 2, 0.5/2, 1/2, 0.5/4,
        # 1/4 and 1/0.5 = 2; the fall from 4 to 0.5 makes the spread 8 but
        # is no rise
        assert largest_rise([2.0, 4.0, 0.5, 1.0]) == pytest.approx(2.0)
        assert largest_rise([2.0, 0.5, 3.0, 1.0]) == pytest.approx(6.0)
        assert largest_rise([3.0, 2.0, 1.0]) == pytest.approx(2.0 / 3.0)

    def test_conforming_grid_levels_finite(self):
        spec = ExperimentSpec(builtin=("grid", "2"), degrees=[2],
                              refinements=[1, 2, 3, 4])
        study = run_growth_study(spec)
        assert all(np.isfinite(k) and k >= 1.0 for k in study[0]["kappas"])

    def test_penalty_doubling_insensitive(self):
        iterations = {}
        for delta in (12.0, 24.0):
            spec = ExperimentSpec(builtin=("tdomain",), degrees=[2], refinements=[2],
                                  delta=delta)
            iterations[delta] = run_solve(spec)[0]["iterations"]
        assert abs(iterations[24.0] - iterations[12.0]) <= 0.3 * iterations[12.0]


class TestMain:
    def test_exit_ok(self, capsys, tmp_path):
        code = main(["--builtin", "tdomain", "--degree", "2", "--refine", "1",
                     "--csv", str(tmp_path / "r.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "tdomain" in out and "kappa" in out

    def test_exit_config_error(self, capsys):
        assert main(["--builtin", "moebius"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("builtin,message", [
        (["grid", "abc"], "builtin grid: argument 'abc' is not an integer"),
        (["grid", "2.0"], "builtin grid: argument '2.0' is not an integer"),
        (["slider", "3", "x"], "builtin slider: argument 'x' is not a number"),
        (["slider", "2.5", "0.3"], "builtin slider: argument '2.5' is not an integer"),
        (["tdomain", "3"], "builtin tdomain: surplus argument(s) ['3']"),
        (["grid", "2", "3"], "builtin grid: surplus argument(s) ['3']"),
    ], ids=["grid_abc", "grid_float", "slider_offset", "slider_count", "tdomain_surplus",
            "grid_surplus"])
    def test_malformed_builtin_argument(self, capsys, builtin, message):
        assert main(["--builtin", *builtin]) == 2
        assert "configuration error: " + message in capsys.readouterr().err

    @pytest.mark.parametrize("builtin", [["grid", "2"], ["slider", "3", "0.3"]],
                             ids=["grid", "slider"])
    def test_jump_exponents_need_tdomain(self, capsys, builtin):
        # only the T-domain has jump patches; elsewhere the exponent would be ignored
        assert main(["--builtin", *builtin, "--degree", "1", "--refine", "0",
                     "--jump-exponents", "0 3"]) == 2
        assert ("configuration error: builtin %s takes no jump exponent (only tdomain does)"
                % builtin[0]) in capsys.readouterr().err

    def test_slide_offsets_with_slider_offset_rejected(self, capsys):
        assert main(["--builtin", "slider", "3", "0.9", "--slide-offsets", "0.2",
                     "--degree", "1", "--refine", "0"]) == 2
        assert ("configuration error: slide offsets replace the slider's offset argument '0.9'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_max_iter_must_be_positive(self, capsys, max_iter):
        assert main(["--builtin", "tdomain", "--degree", "1", "--max-iter", max_iter]) == 2
        assert ("configuration error: maximum iteration count must be at least 1, got %s"
                % max_iter) in capsys.readouterr().err

    def test_unconverged_solve_exits_nonzero(self, capsys, tmp_path):
        # r=0 has no multipliers and converges at once; r=1 needs more than one step
        path = tmp_path / "partial.csv"
        code = main(["--builtin", "tdomain", "--degree", "1", "--refine", "0 1",
                     "--max-iter", "1", "--tol", "1e-12", "--csv", str(path)])
        assert code == 3
        assert "numerical failure: PCG did not converge in 1 iterations" in capsys.readouterr().err
        rows = list(csv.reader(path.read_text().splitlines()))
        assert len(rows) == 2 and rows[1][:3] == ["tdomain", "1", "0"]

    def test_exit_numerical_failure(self, capsys):
        assert main(["--builtin", "tdomain", "--delta", "0.001"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_exit_sliver_patch(self, capsys):
        assert main(["--builtin", "slider", "3", "0.01", "--degree", "2", "--refine", "2"]) == 3
        assert "patch 3: torn block is not SPD" in capsys.readouterr().err

    def test_growth_flag_output(self, capsys):
        code = main(["--builtin", "slider", "3", "0.3", "--degree", "2",
                     "--refine", "1 2 3 4", "--growth"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spread" in out
        assert "rise=" in out

    def test_growth_json(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "growth.json"
        dumps = []
        original = json.dump

        def counted(*args, **kwargs):
            dumps.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(json, "dump", counted)
        code = main(["--builtin", "tdomain", "--degree", "1 2", "--refine", "0 1 2 3",
                     "--growth", "--json", str(path)])
        assert code == 0
        assert len(dumps) == 1  # the file is written once
        blob = json.loads(path.read_text())
        assert set(blob) == {"cases", "growth"}
        assert sorted((c["p"], c["r"]) for c in blob["cases"]) == [
            (p, r) for p in (1, 2) for r in (0, 1, 2, 3)]
        assert [row["p"] for row in blob["growth"]] == [1, 2]

    def test_config_without_geometry(self, capsys, tmp_path):
        config = domain_to_config(t_domain(degree=2, refinements=1))
        del config["patches"][2]["geometry"]
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'geometry'" in err

    def test_config_cut_short(self, capsys, tmp_path):
        path = tmp_path / "dom.json"
        save_domain(t_domain(degree=2, refinements=1), str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert main(["--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_file_missing(self, capsys, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_config_wrong_type(self, capsys, tmp_path):
        config = domain_to_config(t_domain(degree=2, refinements=1))
        config["interfaces"][1]["range_k"] = 0.4
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path)]) == 2
        assert "interfaces[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["overlap", "infinite_alpha"])
    def test_config_rejected_before_solving(self, capsys, tmp_path, defect):
        config = domain_to_config(grid_domain(2, degree=1, refinements=1))
        if defect == "overlap":
            config["interfaces"].append({"k": 0, "side_k": "east", "range_k": [0.25, 0.75],
                                         "l": 1, "side_l": "west", "range_l": [0.25, 0.75]})
        else:
            config["patches"][1]["alpha"] = float("inf")
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path)]) == 2
        assert "configuration error:" in capsys.readouterr().err

    LENIENT = {
        "degree": ("patches", 0, "space", "degree", 2.5,
                   "patches[0]: spline degree must be a positive integer, got 2.5"),
        "degree_bool": ("patches", 0, "space", "degree", True,
                        "patches[0]: spline degree must be a positive integer, got True"),
        "alpha_string": ("patches", 1, None, "alpha", "1",
                         "patches[1]: alpha must be a number, got '1'"),
        "alpha_bool": ("patches", 1, None, "alpha", True,
                       "patches[1]: alpha must be a number, got True"),
        "reversed": ("interfaces", 0, None, "reversed", "yes",
                     "interfaces[0]: reversed must be true or false, got 'yes'"),
    }

    @pytest.mark.parametrize("defect", sorted(LENIENT))
    def test_lenient_entries_rejected(self, capsys, tmp_path, defect):
        # each of these used to be accepted: degree 2.5 ran as p=2 and true as
        # p=1, alpha went through float(), and "yes" as reversed failed as an
        # interface mismatch
        group, index, sub, key, value, message = self.LENIENT[defect]
        config = domain_to_config(grid_domain(2, degree=2, refinements=1))
        entry = config[group][index]
        (entry[sub] if sub else entry)[key] = value
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and message in err

    @pytest.mark.parametrize("value", [2.5, True, -1, "2"])
    def test_refinements_must_be_a_nonnegative_integer(self, capsys, tmp_path, value):
        # a space without explicit knots used to pass refinements through int():
        # 2.5 built the r=2 space and true the r=1 space
        config = domain_to_config(grid_domain(2, degree=2, refinements=1))
        space = config["patches"][1]["space"]
        del space["knots_u"], space["knots_v"]
        space["refinements"] = value
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert ("configuration error: patches[1]: refinements must be a non-negative "
                "integer, got %r" % (value,)) in err

    def test_overflowing_jump_exponent(self, capsys):
        # 10^400 does not fit a float; the case ends as a configuration error
        code = main(["--builtin", "tdomain", "--degree", "1", "--jump-exponents", "0 400"])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "jump exponent 400 overflows" in err

    def test_partial_csv_preserved_on_failure(self, tmp_path):
        path = tmp_path / "partial.csv"
        code = main(["--builtin", "tdomain", "--degree", "2", "--refine", "1",
                     "--delta", "0.001", "--csv", str(path)])
        assert code == 3
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0][0] == "domain"  # header written before the failure

    def test_rows_of_finished_cases_kept_on_failure(self, tmp_path):
        # 10^-400 underflows to a zero coefficient, so the second case fails
        path = tmp_path / "partial.csv"
        code = main(["--builtin", "tdomain", "--degree", "1", "--jump-exponents", "0 -400",
                     "--csv", str(path)])
        assert code == 2
        rows = list(csv.reader(path.read_text().splitlines()))
        assert len(rows) == 2 and rows[1][0] == "tdomain"
