import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ietidg
from ietidg import cli
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
        spec = ExperimentSpec(config_path=str(path))
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


def _fold_patch_0(config):
    """Swap two corners of patch 0's bilinear map, so that its Jacobian changes sign."""
    control = config["patches"][0]["geometry"]["control_points"]
    control[1][0], control[1][1] = control[1][1], control[1][0]


@pytest.fixture
def solves(monkeypatch):
    """The list of domains that the CLI hands to ``solve_ieti``, one per solve."""
    calls = []

    def counted(domain, *args, **kwargs):
        calls.append(domain.name)
        return ietidg.solve_ieti(domain, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_ieti", counted)
    return calls


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

    def test_negative_refinement_rejected(self, capsys):
        assert main(["--builtin", "tdomain", "--degree", "1", "--refine", "-1"]) == 2
        assert ("configuration error: refinement level must be non-negative"
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

    def test_unconverged_solve_reported_once(self):
        # the library logs the failure too; the CLI alone may write to stderr
        env = dict(os.environ, PYTHONPATH=str(Path(ietidg.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "ietidg.cli", "--builtin", "tdomain", "--degree", "1",
             "--refine", "1", "--max-iter", "1", "--tol", "1e-12"],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 3
        assert run.stderr == "numerical failure: PCG did not converge in 1 iterations\n"

    @pytest.mark.parametrize("degree", ["63", "64", "70"])
    def test_degree_beyond_gauss_rules_rejected(self, capsys, degree):
        # the error measure integrates with p + 2 Gauss points, and gauss_rule gives at most 64;
        # it used to end in a ValueError traceback (exit 1)
        assert main(["--builtin", "tdomain", "--degree", degree, "--refine", "0"]) == 2
        assert ("configuration error: spline degree %s exceeds 62" % degree) in capsys.readouterr().err

    def test_infinite_penalty_rejected(self, capsys):
        # it used to fail later as "Factor is exactly singular" (exit 3)
        assert main(["--builtin", "tdomain", "--degree", "1", "--delta", "inf"]) == 2
        assert ("configuration error: penalty parameter must be positive and finite"
                in capsys.readouterr().err)

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
        assert "rise=" in out

    @pytest.mark.parametrize("argv,message", [
        (["--builtin", "tdomain", "--degree", "1", "--refine", "0 1 2 3", "--jump-exponents", "0 2"],
         "one series per degree"),
        (["--builtin", "slider", "3", "--degree", "1", "--refine", "0 1 2 3",
          "--slide-offsets", "0.3 0.5"], "one series per degree"),
        (["--builtin", "tdomain", "--degree", "1", "--refine", "1 1 2 3"],
         "each once, got [1, 1, 2, 3]"),
        (["--builtin", "tdomain", "--degree", "1 1", "--refine", "0 1 2 3"],
         "give each degree once, got [1, 1]"),
    ], ids=["two_jumps", "two_offsets", "repeated_level", "repeated_degree"])
    def test_growth_rejects_mixed_series(self, capsys, solves, argv, message):
        # one degree's ratios must come from one case refined level by level;
        # interleaved cases, repeated levels or a repeated degree would feed largest_rise a mix
        assert main([*argv, "--growth"]) == 2
        assert message in capsys.readouterr().err
        assert solves == []

    def test_growth_rejects_config_file(self, capsys, tmp_path, solves):
        # a config file fixes the refinement, so it gives no series of levels
        path = tmp_path / "t.json"
        save_domain(t_domain(degree=2, refinements=1), str(path))
        assert main(["--config", str(path), "--growth"]) == 2
        assert ("configuration error: growth study needs a built-in family: "
                "a config file fixes the refinement" in capsys.readouterr().err)
        assert solves == []

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
        "patch_k_bool": ("interfaces", 0, None, "k", True,
                         "interfaces[0]: patch index k must be an integer, got True"),
        "patch_l_bool": ("interfaces", 0, None, "l", True,
                         "interfaces[0]: patch index l must be an integer, got True"),
        "patch_l_float": ("interfaces", 0, None, "l", 1.0,
                          "interfaces[0]: patch index l must be an integer, got 1.0"),
        "range_end_bool": ("interfaces", 0, None, "range_k", [False, 1],
                           "interfaces[0]: interface range (False, 1) must be"),
        "knot_nan": ("patches", 0, "space", "knots_u", [0, 0, 0, float("nan"), 1, 1, 1],
                     "patches[0]: knots must be finite and non-decreasing"),
        "knots_string": ("patches", 0, "space", "knots_u", "000111",
                         "patches[0]: knots must be a list of numbers, got '000111'"),
        "geometry_knots_string": ("patches", 0, "geometry", "knots_u", "000111",
                                  "patches[0]: knots must be a list of numbers, got '000111'"),
        "knots_of_strings": ("patches", 0, "space", "knots_v", ["0", "0", "0", "1", "1", "1"],
                             "patches[0]: knots must be a list of numbers, "
                             "got ['0', '0', '0', '1', '1', '1']"),
        "control_nan": ("patches", 0, "geometry", "control_points",
                        [[[0, 0], [0, 1]], [[1, 0], [1, float("nan")]]],
                        "patches[0]: control points must be finite"),
        "dirichlet_empty": ("patches", 0, None, "dirichlet_sides", "",
                            "patches[0]: dirichlet_sides must be a list of side names, got ''"),
        "dirichlet_dict": ("patches", 0, None, "dirichlet_sides", {"west": 1, "south": 0},
                           "patches[0]: dirichlet_sides must be a list of side names, "
                           "got {'west': 1, 'south': 0}"),
        "dirichlet_string": ("patches", 0, None, "dirichlet_sides", "north",
                             "patches[0]: dirichlet_sides must be a list of side names, got 'north'"),
    }

    @pytest.mark.parametrize("defect", sorted(LENIENT))
    def test_lenient_entries_rejected(self, capsys, tmp_path, defect):
        # each of these used to be accepted or misreported: degree 2.5 ran as
        # p=2 and true as p=1, alpha went through float(), "yes" as reversed
        # failed as an interface mismatch, "l": true ran as patch 1, "k": true
        # gave "invalid patches (1, 1)", 1.0 as a patch index a malformed entry,
        # the range [false, 1] ran as (0, 1), a NaN knot surfaced as a failed
        # reduction, the knots "000111" failed as too short and a list of
        # digit strings ran as numbers, a NaN control point passed the
        # bijectivity check, and dirichlet_sides "" ran with no Dirichlet side,
        # a dict as its keys and "north" failed as the unknown sides
        # ['h', 'n', 'o', 'r', 't']
        group, index, sub, key, value, message = self.LENIENT[defect]
        config = domain_to_config(grid_domain(2, degree=2, refinements=1))
        entry = config[group][index]
        (entry[sub] if sub else entry)[key] = value
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and message in err

    @pytest.mark.parametrize("key,value,message", [
        ("interfaces", {}, "interfaces must be a list, got {}"),
        ("interfaces", None, "interfaces must be a list, got None"),
        ("patches", "abc", "patches must be a list, got 'abc'"),
        ("name", 5, "name must be a string, got 5"),
    ], ids=["interfaces_dict", "interfaces_null", "patches_string", "name_number"])
    def test_top_level_keys_rejected(self, capsys, tmp_path, key, value, message):
        # {} as interfaces used to solve the patches decoupled, null failed naming
        # the last patch, "abc" as patches failed on string indices, and the
        # name 5 was accepted
        config = domain_to_config(grid_domain(2, degree=2, refinements=1))
        config[key] = value
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path)]) == 2
        assert "configuration error: config: " + message in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    def test_unwritable_output_path(self, capsys, tmp_path, flag):
        # a missing directory used to end in a FileNotFoundError traceback
        path = tmp_path / "missing" / "out"
        assert main(["--builtin", "grid", "2", "--refine", "0", flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and str(path) in err

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

    @pytest.mark.parametrize("argv", [
        ["--builtin", "grid", "2", "--refine", "0"],
        ["--builtin", "grid", "2", "--degree", "1", "--refine", "0 1 2 3", "--growth"],
    ], ids=["solve", "growth"])
    def test_unwritable_json_fails_before_solving(self, capsys, tmp_path, solves, argv):
        # the JSON path used to be opened only after every case had solved
        path = tmp_path / "missing" / "out.json"
        assert main(argv + ["--json", str(path)]) == 2
        assert capsys.readouterr().err.startswith("cannot write output: ")
        assert solves == []

    @pytest.mark.parametrize("flag,values", [("--degree", "2 3"), ("--refine", "0 1")])
    def test_config_with_several_levels_fails_before_solving(self, capsys, tmp_path, solves,
                                                             flag, values):
        # the second level used to be rejected only after the first had solved
        path = tmp_path / "dom.json"
        save_domain(grid_domain(2, degree=2, refinements=0), str(path))
        assert main(["--config", str(path), flag, values]) == 2
        assert ("configuration error: config-file domains fix degree and refinement"
                in capsys.readouterr().err)
        assert solves == []

    @pytest.mark.parametrize("flags", [["--degree", "3", "--refine", "4"], ["--degree", "2"],
                                       ["--refine", "0"]], ids=["both", "degree", "refine"])
    def test_config_with_degree_or_refine_fails_before_solving(self, capsys, tmp_path, solves,
                                                               flags):
        # a config file fixes both; the row used to report the refinement asked for
        path = tmp_path / "dom.json"
        save_domain(grid_domain(2, degree=2, refinements=0), str(path))
        assert main(["--config", str(path)] + flags) == 2
        assert ("configuration error: config-file domains fix degree and refinement"
                in capsys.readouterr().err)
        assert solves == []

    def test_config_reports_unknown_refinement(self, capsys, tmp_path):
        path = tmp_path / "dom.json"
        save_domain(grid_domain(2, degree=2, refinements=0), str(path))
        out_json, out_csv = tmp_path / "out.json", tmp_path / "out.csv"
        assert main(["--config", str(path), "--json", str(out_json), "--csv", str(out_csv)]) == 0
        assert " p=2 r=-1 " in capsys.readouterr().out
        entry, = json.loads(out_json.read_text())
        assert (entry["p"], entry["r"]) == (2, -1)
        header, row = out_csv.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["r"] == "-1"

    @pytest.mark.parametrize("argv,message", [
        (["--builtin", "grid", "0"], "grid size must be >= 1"),
        (["--builtin", "slider", "1"], "slider needs at least two patches per row"),
        (["--builtin", "slider", "3", "1.5"], "slide offset must be in (0, 1)"),
        (["--degree", "2,x"], "cannot parse list '2,x'"),
    ], ids=["grid_zero", "slider_one_patch", "slider_offset_range", "degree_list"])
    def test_bad_command_line_value(self, capsys, solves, argv, message):
        assert main(argv + ["--refine", "0"]) == 2
        assert "configuration error: " + message in capsys.readouterr().err
        assert solves == []

    BAD_CONFIG = {
        "no_patches": (lambda c: c.update(patches=[]),
                       "config: domain needs at least one patch"),
        "control_net_shape": (
            lambda c: c["patches"][0]["geometry"].update(control_points=[[[0, 0], [0, 1]]]),
            "patches[0]: control net shape (1, 2, 2) does not match spaces (2, 2, 2)"),
        "interface_to_patch_7": (lambda c: c["interfaces"][0].update(l=7),
                                 "config: interface references invalid patches (0, 7)"),
        "knots_too_short": (lambda c: c["patches"][0]["space"].update(knots_u=[0, 0, 1]),
                            "patches[0]: knot vector too short for degree 1"),
        "not_bijective": (_fold_patch_0,
                          "config: patch 0: geometry map is not bijective"),
    }

    @pytest.mark.parametrize("defect", sorted(BAD_CONFIG))
    def test_bad_config_file(self, capsys, tmp_path, solves, defect):
        edit, message = self.BAD_CONFIG[defect]
        config = domain_to_config(grid_domain(2, degree=1, refinements=1))
        edit(config)
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path)]) == 2
        assert "configuration error: " + message in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize("flag,field", [("--check-oracle", " oracle_err="),
                                            ("--manufactured", " l2=")])
    def test_optional_output_column(self, capsys, flag, field):
        assert main(["--builtin", "grid", "2", "--degree", "1", "--refine", "1", flag]) == 0
        assert field in capsys.readouterr().out

    def test_check_oracle_without_free_dofs(self, capsys):
        # one patch with every dof on the Dirichlet boundary: both solutions are empty
        assert main(["--builtin", "grid", "1", "--degree", "1", "--refine", "0",
                     "--check-oracle"]) == 0
        out = capsys.readouterr().out
        assert " dofs=0 " in out and " oracle_err=0.000e+00" in out
