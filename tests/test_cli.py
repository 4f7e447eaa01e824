import csv
import io
import json
import math

import pytest

from edgeplasmon.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def case_a_cfg(**extra):
    cfg = {
        "medium": {"eps_r": 1.0, "mu_r": 1.0, "omega": 1.0e12},
        "sheet": {"tensor": {"xx": [0.0, 0.2], "yy": [0.0, 0.2],
                             "nondimensional": True}},
        "problem": {"variant": "single"},
        "solve": {"q_guesses": [[12.0, 0.0]]},
    }
    cfg.update(extra)
    return cfg


def two_sheet_cfg(**extra):
    """Isotropic left sheet, sheet B on the right."""
    cfg = {
        "problem": {"variant": "two-sheet",
                    "sheet_left": {"tensor": {"xx": [0.0005, 0.05], "yy": [0.0005, 0.05],
                                              "nondimensional": True}},
                    "sheet_right": {"tensor": {"xx": [0.001, 0.1], "yy": [0.002, 0.2],
                                               "nondimensional": True}}},
    }
    cfg.update(extra)
    return cfg


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no rows in output: {text!r}"
    return rows


class TestConfigErrors:
    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, "solve")
        assert code == 2 and "config" in err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", "--config", str(path))
        assert code == 2 and "line" in err

    def test_zero_re_guess_names_field(self, tmp_path, capsys):
        cfg = case_a_cfg()
        cfg["solve"]["q_guesses"] = [[0.0, 5.0]]
        code, _, err = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 2
        assert "q_guesses[0]" in err and "Re q" in err

    def test_tensor_and_model_exclusive(self, tmp_path, capsys):
        cfg = case_a_cfg()
        cfg["sheet"]["model"] = {"kind": "drude", "weight_xx": 1, "weight_yy": 1}
        code, _, err = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 2 and "exactly one" in err

    def test_bad_complex_pair(self, tmp_path, capsys):
        cfg = case_a_cfg()
        cfg["sheet"]["tensor"]["xx"] = [0.2]
        code, _, err = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 2 and "[re, im]" in err

    def test_model_missing_parameter(self, tmp_path, capsys):
        cfg = case_a_cfg(sheet={"model": {"kind": "magneto_hydrodynamic", "b0": 3.575}})
        code, _, err = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 2
        assert err.startswith("config error: sheet.model") and "n0" in err

    def test_non_numeric_permittivity(self, tmp_path, capsys):
        cfg = case_a_cfg(problem={"variant": "interface", "eps_r1": "abc", "eps_r2": 1.0})
        code, _, err = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 2
        assert err.startswith("config error: problem") and "abc" in err


class TestSolveCommand:
    def test_case_a(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, case_a_cfg()))
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["re_q"]) - 12.172) / 12.172 < 0.005
        assert row["nu_k"] == "0"
        assert row["classification"] == "discrete-epp"

    def test_case_d_rotation_key(self, tmp_path, capsys):
        cfg = {
            "sheet": {"tensor": {"xx": [0.001, 0.1], "yy": [0.002, 0.2],
                                 "nondimensional": True},
                      "rotation_phi_pi": 0.166},
            "solve": {"q_guesses": [[16.0, 0.1]]},
        }
        code, out, _ = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["re_q"]) - 16.438) / 16.438 < 0.01
        assert abs(float(row["im_q"]) - 0.164) / 0.164 < 0.01

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = case_a_cfg()
        cfg["solve"]["q_guesses"] = [[8.0, 0.0]]  # inside the bulk continuum
        code, out, _ = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 1
        assert parse_csv(out)[0]["classification"] == "no-solution"

    def test_double_root_writes_its_rows(self, tmp_path, capsys):
        # sigma_yy = sigma_xy = sigma_yx = 0: the discriminant vanishes for
        # every q, so each guess is a NO_SOLUTION row rather than an abort
        cfg = {"sheet": {"tensor": {"xx": [0.001, 0.2], "yy": [0, 0]}},
               "solve": {"q_guesses": [[12, 0.1], [30, 0.3]]}}
        code, out, _ = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 1
        rows = parse_csv(out)
        assert [r["classification"] for r in rows] == ["no-solution"] * 2

    def test_determinism_excluding_wall_ms(self, tmp_path, capsys):
        path = write_cfg(tmp_path, case_a_cfg())
        _, out1, _ = run_cli(capsys, "solve", "--config", path)
        _, out2, _ = run_cli(capsys, "solve", "--config", path)

        def strip_wall(text):
            rows = parse_csv(text)
            for r in rows:
                r.pop("wall_ms")
            return rows

        assert strip_wall(out1) == strip_wall(out2)

    def test_json_format_round_trip(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, case_a_cfg()),
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["nu_k"] == 0
        assert rows[0]["re_q"] == pytest.approx(12.171985, rel=1e-5)

    def test_seventeen_digit_output(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "solve", "--config",
                            write_cfg(tmp_path, case_a_cfg()))
        re_q = parse_csv(out)[0]["re_q"]
        assert float(re_q) == float(format(float(re_q), ".17g"))
        assert len(re_q.replace(".", "").replace("-", "").lstrip("0")) >= 15

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, case_a_cfg()),
                               "--out", str(out_path))
        assert code == 0 and out == ""
        assert "re_q" in out_path.read_text()


class TestIndexCommand:
    def test_appendix_point(self, tmp_path, capsys):
        cfg = {
            "sheet": {"tensor": {"xx": [0.001, 0.1], "yy": [0.002, 0.2],
                                 "nondimensional": True},
                      "rotation_phi_pi": 0.166},
            "index": {"q_values": [[0.75 * 16.438, 0.75 * 0.164]]},
        }
        code, out, _ = run_cli(capsys, "index", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 0
        row = parse_csv(out)[0]
        assert row["nu_k"] == "-1"
        assert (row["n_plus"], row["n_minus"]) == ("0", "3")
        assert (row["nstar_plus"], row["nstar_minus"]) == ("1", "0")
        assert row["conjecture_rhs"] == "-1"
        assert row["conjecture_agrees"] == "true"
        assert row["nu_k_star"] == "0"

    def test_two_sheet_marginal_count_covers_every_sheet(self, tmp_path, capsys):
        # the left sheet's census quartic has two marginal roots at +-iq; the
        # row's census is the right sheet's, with none, but n_marginal is
        # the count that left conjecture_agrees empty
        cfg = two_sheet_cfg(index={"q_values": [[0.75 * 16.438, 0.75 * 0.164]]})
        code, out, _ = run_cli(capsys, "index", "--config", write_cfg(tmp_path, cfg))
        assert code == 0
        row = parse_csv(out)[0]
        assert row["conjecture_agrees"] == ""
        assert row["n_marginal"] == "2"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_point_keeps_its_row(self, tmp_path, capsys, jobs):
        # sigma_xx = 0: every point fails, and each still writes its row
        cfg = {
            "sheet": {"tensor": {"xx": [0.0, 0.0], "yy": [0.0, 0.2],
                                 "nondimensional": True}},
            "index": {"q_values": [[12.0, 0.1], [-12.0, 0.1]]},
        }
        code, out, _ = run_cli(capsys, "index", "--config",
                               write_cfg(tmp_path, cfg), "--jobs", jobs)
        assert code == 1
        rows = parse_csv(out)
        assert [r["re_q"] for r in rows] == ["12", "-12"]
        for row in rows:
            assert row["conjecture_agrees"].startswith("error: ")
            assert "sigma_xx" in row["conjecture_agrees"]
            assert row["nu_k"] == row["n_plus"] == row["conjecture_rhs"] == ""


class TestSweepCommand:
    def test_transition_annotation(self, tmp_path, capsys):
        cfg = {
            "sheet": {"tensor": {"xx": [0.001, 0.1], "yy": [0.002, 0.2],
                                 "nondimensional": True}},
            "sweep": {"phis_pi": [0.4], "q_factors": [0.75, 0.85, 1.0],
                      "q_base": [21.657, 0.217]},
        }
        code, out, _ = run_cli(capsys, "sweep", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 0
        rows = parse_csv(out)
        assert [r["nu_k"] for r in rows] == ["0", "-1", "0"]
        assert rows[1]["index_transition"] == "nu 0->-1"
        assert rows[2]["index_transition"] == "nu -1->0"

    def test_dual_index_column(self, tmp_path, capsys):
        # the passive sheet on which the census conjecture fails: nu* = 1
        cfg = {
            "sheet": {"tensor": {"xx": [0.1938, -0.2335], "xy": [0.2292, 0.0461],
                                 "yx": [0.1549, 0.1317], "yy": [0.1998, 0.2649],
                                 "nondimensional": True}},
            "sweep": {"phis_pi": [0.0], "q_factors": [1.0, 1.5, 2.5],
                      "q_base": [-16.27, -0.68]},
        }
        code, out, _ = run_cli(capsys, "sweep", "--config", write_cfg(tmp_path, cfg))
        assert code == 0
        assert out.splitlines()[0].split(",")[4:6] == ["nu_k", "nu_k_star"]
        rows = [r for r in parse_csv(out) if r["n_marginal"] == "0"]
        assert rows and "1" in [r["nu_k_star"] for r in rows]
        for r in rows:
            assert int(r["nu_k"]) + int(r["nu_k_star"]) == float(r["conjecture_rhs"])

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        cfg = {
            "sheet": {"tensor": {"xx": [0.001, 0.1], "yy": [0.002, 0.2],
                                 "nondimensional": True}},
            "sweep": {"phis_pi": [0.0, 0.4], "q_factors": [0.85, 1.0],
                      "q_base": [21.657, 0.217]},
        }
        path = write_cfg(tmp_path, cfg)
        _, serial, _ = run_cli(capsys, "sweep", "--config", path)
        _, parallel, _ = run_cli(capsys, "sweep", "--config", path, "--jobs", "2")

        def strip(text):
            rows = parse_csv(text)
            for r in rows:
                r.pop("wall_ms")
            return rows

        assert strip(serial) == strip(parallel)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_point_keeps_the_other_rows(self, tmp_path, capsys, jobs):
        # q_factor 0 gives Re q = 0 at that point only; the index transition
        # is still annotated across the failed row
        cfg = {
            "sheet": {"tensor": {"xx": [0.001, 0.1], "yy": [0.002, 0.2],
                                 "nondimensional": True}},
            "sweep": {"phis_pi": [0.4], "q_factors": [0.75, 0.0, 0.85],
                      "q_base": [21.657, 0.217]},
        }
        code, out, _ = run_cli(capsys, "sweep", "--config",
                               write_cfg(tmp_path, cfg), "--jobs", jobs)
        assert code == 1
        rows = parse_csv(out)
        assert [r["q_factor"] for r in rows] == ["0.75", "0", "0.84999999999999998"]
        assert rows[1]["conjecture_agrees"].startswith("error: Re q = 0")
        assert [r["nu_k"] for r in rows] == ["0", "", "-1"]
        assert [r["index_transition"] for r in rows] == ["", "", "nu 0->-1"]
        assert rows[0]["conjecture_agrees"] == rows[2]["conjecture_agrees"] == "true"

    def test_config_error_is_not_a_row_error(self, tmp_path, capsys):
        cfg = {
            "sheet": {"model": {"kind": "unknown"}},
            "sweep": {"phis_pi": [0.4], "q_factors": [0.75],
                      "q_base": [16.438, 0.164]},
        }
        code, _, err = run_cli(capsys, "sweep", "--config", write_cfg(tmp_path, cfg))
        assert code == 2 and "unknown model" in err

    def test_two_sheet_config_is_refused(self, tmp_path, capsys):
        # phis_pi rotates the top-level sheet, which a two-sheet problem
        # does not read: every phi would give the same rows
        cfg = two_sheet_cfg(sweep={"phis_pi": [0.0, 0.4, 0.8], "q_factors": [0.75],
                                   "q_base": [16.438, 0.164]})
        code, out, err = run_cli(capsys, "sweep", "--config", write_cfg(tmp_path, cfg))
        assert code == 2 and out == ""
        assert "two-sheet" in err and "phis_pi" in err


class TestFieldCommand:
    def test_profile_rows(self, tmp_path, capsys):
        cfg = case_a_cfg()
        cfg["field"] = {"q_guess": [12.0, 0.0], "x_values": [-0.05, 0.05, 0.2]}
        code, out, _ = run_cli(capsys, "field", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        assert [r["accuracy_flag"] for r in rows] == ["false"] * 3
        phi_on_sheet = complex(float(rows[1]["re_phi"]), float(rows[1]["im_phi"]))
        assert abs(phi_on_sheet) < 1.0  # decays away from phi0 = 1


class TestAsymptoteCommand:
    def test_magneto_chain(self, tmp_path, capsys):
        cfg = {
            "medium": {"eps_r": 1.0, "mu_r": 1.0, "omega": 2 * math.pi * 1e9},
            "sheet": {"model": {"kind": "magneto_hydrodynamic",
                                "n0": 1.18e15, "b0": 3.575}},
        }
        code, out, _ = run_cli(capsys, "asymptote", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["abs_f_full"]) < 0.05
        assert float(row["rel_err_f_plus"]) < 0.02


class TestValidateCommand:
    def test_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 10
