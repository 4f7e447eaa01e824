import csv
import dataclasses
import io
import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from edgeplasmon import cli, selfcheck, spectrum
from edgeplasmon.branches import Sheet
from edgeplasmon.cli import main
from edgeplasmon.wiener_hopf import NonzeroIndexError


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


# the passive sheet on which the census conjecture fails (nu* = 1 at q)
COUNTEREXAMPLE_TENSOR = {"xx": [0.1938, -0.2335], "xy": [0.2292, 0.0461],
                         "yx": [0.1549, 0.1317], "yy": [0.1998, 0.2649],
                         "nondimensional": True}
COUNTEREXAMPLE_Q = [-16.27, -0.68]


# sheet B rotated by 0.166 pi (case D)
D_SHEET = {"tensor": {"xx": [0.001, 0.1], "yy": [0.002, 0.2], "nondimensional": True},
           "rotation_phi_pi": 0.166}


def strip_wall(rows):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no rows in output: {text!r}"
    return rows


def sweep_cfg(**sweep):
    return case_a_cfg(sweep={"phis_pi": [0.0], "q_factors": [1.0], "q_base": [12.0, 0.0],
                             **sweep})


def equal_sheets_cfg():
    cfg = two_sheet_cfg(solve={"q_guesses": [[12.0, 0.0]]}, index={"q_values": [[12.0, 0.0]]})
    cfg["problem"]["sheet_right"] = cfg["problem"]["sheet_left"]
    return cfg


DRUDE_SHEET = {"model": {"kind": "drude", "weight_xx": 1e12, "weight_yy": 2e12, "tau": 1e-12}}


class TestConfigErrors:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        path = write_cfg(tmp_path, sweep_cfg())
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", path, "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["solve", "index"])
    def test_active_sheet_is_refused(self, tmp_path, capsys, command):
        # Re sigma_xx < 0: the Hermitian part has a negative eigenvalue
        cfg = case_a_cfg(index={"q_values": [[12.0, 0.0]]})
        cfg["sheet"]["tensor"]["xx"] = [-0.01, 0.2]
        code, out, err = run_cli(capsys, command, "--config", write_cfg(tmp_path, cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error: sheet: not passive")
        cfg = two_sheet_cfg(index={"q_values": [[12.0, 0.0]]},
                            solve={"q_guesses": [[12.0, 0.0]]})
        cfg["problem"]["sheet_left"]["tensor"]["xx"] = [-0.0005, 0.05]
        code, out, err = run_cli(capsys, command, "--config", write_cfg(tmp_path, cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error: problem.sheet_left: not passive")

    @pytest.mark.parametrize("command", ["solve", "index"])
    @pytest.mark.parametrize("sheet, where", [
        (5, "sheet: expected an object"),
        ({"model": "drude"}, "sheet.model: expected an object"),
    ], ids=["number", "model-string"])
    def test_sheet_of_the_wrong_type(self, tmp_path, capsys, command, sheet, where):
        cfg = case_a_cfg(sheet=sheet, index={"q_values": [[12.0, 0.0]]})
        code, out, err = run_cli(capsys, command, "--config", write_cfg(tmp_path, cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {where}")

    @pytest.mark.parametrize("command", ["solve", "index", "sweep"])
    @pytest.mark.parametrize("cfg, where", [
        ([1], "config: expected an object"),
        (case_a_cfg(medium=5, index={"q_values": [[12.0, 0.0]]},
                    sweep={"phis_pi": [0.0], "q_factors": [1.0], "q_base": [12.0, 0.0]}),
         "medium: expected an object"),
    ], ids=["list", "medium-number"])
    def test_section_of_the_wrong_type(self, tmp_path, capsys, command, cfg, where):
        code, out, err = run_cli(capsys, command, "--config", write_cfg(tmp_path, cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {where}")

    @pytest.mark.parametrize("command", ["field", "asymptote"])
    def test_command_section_of_the_wrong_type(self, tmp_path, capsys, command):
        code, out, err = run_cli(capsys, command, "--config",
                                 write_cfg(tmp_path, case_a_cfg(**{command: 5})))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {command}: expected an object")

    @pytest.mark.parametrize("command", ["solve", "index"])
    def test_rotation_of_the_wrong_type(self, tmp_path, capsys, command):
        cfg = case_a_cfg(index={"q_values": [[12.0, 0.0]]})
        cfg["sheet"]["rotation_phi_pi"] = "x"
        code, out, err = run_cli(capsys, command, "--config", write_cfg(tmp_path, cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error: sheet.rotation_phi_pi")

    def test_tolerance_of_the_wrong_type(self, tmp_path, capsys):
        cfg = case_a_cfg()
        cfg["solve"]["tol"] = "x"
        code, out, err = run_cli(capsys, "solve", "--config", write_cfg(tmp_path, cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error: solve.tol")

    def test_non_numeric_permittivity(self, tmp_path, capsys):
        cfg = case_a_cfg(problem={"variant": "interface", "eps_r1": "abc", "eps_r2": 1.0})
        code, _, err = run_cli(capsys, "solve", "--config",
                               write_cfg(tmp_path, cfg))
        assert code == 2
        assert err.startswith("config error: problem") and "abc" in err

    @pytest.mark.parametrize("command, cfg, where", [
        ("sweep", case_a_cfg(sweep={"phis_pi": [0.0], "q_factors": [1.0]}), "sweep.q_base"),
        ("sweep", sweep_cfg(phis_pi=5), "sweep.phis_pi"),
        ("sweep", sweep_cfg(phis_pi=[0, "x"]), "sweep.phis_pi[1]"),
        ("solve", case_a_cfg(solve={"omegas": 3, "q_guesses": [[12.0, 0.0]]}),
         "solve.omegas"),
        ("solve", case_a_cfg(solve={"omegas": [1, "x"], "q_guesses": [[12.0, 0.0]]}),
         "solve.omegas[1]"),
        ("solve", case_a_cfg(solve={"q_guesses": 3}), "solve.q_guesses"),
        ("field", case_a_cfg(field={"q": [12.0, 0.0], "x_values": 5}), "field.x_values"),
        ("field", case_a_cfg(field={"q": [12.0, 0.0], "x_values": [0.1],
                                    "target_error": "x"}), "field.target_error"),
        ("asymptote", case_a_cfg(asymptote={"eps_sum": "x"}), "asymptote.eps_sum"),
        ("solve", equal_sheets_cfg(), "problem: two-sheet problem requires sigma_L != sigma_R"),
        ("index", equal_sheets_cfg(), "problem: two-sheet problem requires sigma_L != sigma_R"),
        ("sweep", sweep_cfg(q_base=[0.0, 0.2]), "sweep.q_base: Re q = 0"),
        ("solve", case_a_cfg(sheet=DRUDE_SHEET, solve={"omegas": [1e12, -1],
                                                       "q_guesses": [[20.0, 0.2]]}),
         "solve.omegas[1]"),
    ], ids=["sweep-no-q_base", "phis_pi-number", "phis_pi-string-entry", "omegas-number",
            "omegas-string-entry", "q_guesses-number", "x_values-number",
            "target_error-string", "eps_sum-string", "solve-equal-sheets",
            "index-equal-sheets", "q_base-zero-real-part", "negative-omega"])
    def test_config_error(self, tmp_path, capsys, command, cfg, where):
        code, out, err = run_cli(capsys, command, "--config", write_cfg(tmp_path, cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {where}")

    def test_no_row_runs_before_a_config_error(self, tmp_path, capsys, monkeypatch):
        calls = []
        real_solve = cli.solve
        monkeypatch.setattr(cli, "solve", lambda *a, **k: calls.append(a) or real_solve(*a, **k))
        cfg = case_a_cfg(sheet=DRUDE_SHEET, solve={"omegas": [1e12, -1],
                                                   "q_guesses": [[20.0, 0.2]]})
        code, out, _ = run_cli(capsys, "solve", "--config", write_cfg(tmp_path, cfg))
        assert (code, out, calls) == (2, "", [])


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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_census_keeps_the_other_rows(self, tmp_path, capsys, jobs):
        # the census quartic at q = 1e80 is not finite: that guess is a
        # NO_SOLUTION row, and the root from the other guess is unchanged;
        # with two processes each guess is a block, one of them in a child
        def rows(guesses, jobs="1"):
            cfg = {"sheet": D_SHEET, "solve": {"q_guesses": guesses}}
            code, out, _ = run_cli(capsys, "solve", "--config", write_cfg(tmp_path, cfg),
                                   "--jobs", jobs)
            return code, strip_wall(parse_csv(out))

        code, both = rows([[16.4, 0.16], [1e80, 0]], jobs)
        assert code == 1
        assert rows([[16.4, 0.16], [1e80, 0]]) == (code, both)
        assert both[1]["classification"] == "no-solution"
        assert both[1]["nu_k"] == ""
        assert rows([[16.4, 0.16]]) == (0, both[:1])
        assert both[0]["classification"] == "discrete-epp"

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

    def test_dual_index_of_the_counterexample(self, tmp_path, capsys):
        # nu* = 1 at q and -1 at -q, from the index identity
        q = COUNTEREXAMPLE_Q
        cfg = {"sheet": {"tensor": COUNTEREXAMPLE_TENSOR},
               "index": {"q_values": [q, [-q[0], -q[1]]]}}
        code, out, _ = run_cli(capsys, "index", "--config", write_cfg(tmp_path, cfg))
        assert code == 0
        rows = parse_csv(out)
        assert [r["nu_k_star"] for r in rows] == ["1", "-1"]
        assert [r["n_marginal"] for r in rows] == ["0", "0"]

    @staticmethod
    def count_phase_passes(monkeypatch):
        """(sheet, rows) of every phase pass the CLI runs."""
        passes = []
        phase_winding = spectrum.phase_winding

        def counted(problems, sheet, **kwargs):
            result = phase_winding(problems, sheet, **kwargs)
            passes.append((sheet, len(result[3])))
            return result

        monkeypatch.setattr(spectrum, "phase_winding", counted)
        monkeypatch.setattr(cli, "phase_winding", counted)
        return passes

    def test_one_phase_pass_per_row(self, tmp_path, capsys, monkeypatch):
        # the rows of a block share one phase pass on P, and a census with
        # no marginal zero gives nu* without a pass on P*
        passes = self.count_phase_passes(monkeypatch)
        q = [0.75 * 16.438, 0.75 * 0.164]
        cfg = {"sheet": {"tensor": {"xx": [0.001, 0.1], "yy": [0.002, 0.2],
                                    "nondimensional": True},
                         "rotation_phi_pi": 0.166},
               "index": {"q_values": [q, [-q[0], -q[1]], [1.3 * q[0], 1.3 * q[1]]]}}
        code, out, _ = run_cli(capsys, "index", "--config", write_cfg(tmp_path, cfg),
                               "--jobs", "1")
        assert code == 0
        assert [r["n_marginal"] for r in parse_csv(out)] == ["0", "0", "0"]
        assert passes == [(Sheet.FIRST, 3)]

    def test_marginal_row_takes_the_dual_phase_pass(self, tmp_path, capsys, monkeypatch):
        # a census with a marginal zero cannot give nu*: that row, and only
        # that row, falls back to the winding of P*
        passes = self.count_phase_passes(monkeypatch)
        census = spectrum._census

        def marginal_at_q(block):
            return [tuple(dataclasses.replace(rep, n_marginal=1) for rep in reps)
                    if prob.q == complex(*COUNTEREXAMPLE_Q) else reps
                    for prob, reps in zip(block.problems, census(block))]

        monkeypatch.setattr(spectrum, "_census", marginal_at_q)
        q = COUNTEREXAMPLE_Q
        cfg = {"sheet": {"tensor": COUNTEREXAMPLE_TENSOR},
               "index": {"q_values": [q, [-q[0], -q[1]]]}}
        code, out, _ = run_cli(capsys, "index", "--config", write_cfg(tmp_path, cfg),
                               "--jobs", "1")
        assert code == 0
        rows = parse_csv(out)
        assert [(r["n_marginal"], r["conjecture_agrees"]) for r in rows] == [
            ("1", ""), ("0", "false")]
        assert [r["nu_k_star"] for r in rows] == ["1", "-1"]
        assert passes == [(Sheet.FIRST, 2), (Sheet.SECOND, 1)]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_census_failures_keep_the_other_rows(self, tmp_path, capsys, jobs):
        # q = 1e80: the census quartic is not finite; q = 1e-170: q^2
        # rounds to 0 and a phase-grid node lands on the branch point
        good = [0.75 * 16.438, 0.75 * 0.164]

        def rows(q_values):
            cfg = {"sheet": D_SHEET, "index": {"q_values": q_values}}
            code, out, _ = run_cli(capsys, "index", "--config", write_cfg(tmp_path, cfg),
                                   "--jobs", jobs)
            return code, strip_wall(parse_csv(out))

        code, got = rows([[1e80, 0], good, [1e-170, 0]])
        assert code == 1
        assert got[0]["conjecture_agrees"].startswith(
            "error: census quartic not finite at q = 1e+80")
        assert got[2]["conjecture_agrees"] == "error: xi^2 + q^2 = 0: branch point of the kernel"
        assert got[0]["nu_k"] == got[2]["nu_k"] == ""
        assert rows([good]) == (0, got[1:2])
        assert (got[1]["nu_k"], got[1]["n_plus"], got[1]["n_minus"]) == ("-1", "0", "3")

    def test_marginal_row_whose_dual_pass_fails(self, tmp_path, capsys):
        # on the lossless capacitive diag(-0.2i, -0.2i), P = 1 + w/10 has no
        # zero but P* = 1 - w/10 vanishes on the axis at real q, where the
        # census is marginal: the row's P* pass fails, and the other rows
        # of its block, marginal too (at +-iq), keep their P* pass
        def rows(q_values):
            cfg = {"sheet": {"tensor": {"xx": [0, -0.2], "yy": [0, -0.2]}},
                   "index": {"q_values": q_values}}
            code, out, _ = run_cli(capsys, "index", "--config", write_cfg(tmp_path, cfg),
                                   "--jobs", "1")
            return code, strip_wall(parse_csv(out))

        code, got = rows([[3, 0], [3, 1], [-3, 0.5]])
        assert code == 1
        assert got[0]["conjecture_agrees"].startswith("error: symbol modulus")
        assert "on the real axis" in got[0]["conjecture_agrees"]
        assert [r["n_marginal"] for r in got[1:]] == ["2", "2"]
        assert rows([[3, 1], [-3, 0.5]]) == (0, got[1:])

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


def in_child() -> bool:
    return multiprocessing.parent_process() is not None


def echo_block(block):
    return [(os.getpid(), point) for point in block]


def raise_in_child(block):
    if in_child():
        raise ZeroDivisionError(f"block {block}")
    return list(block)


def exit_in_child(block):
    if in_child():
        os._exit(3)
    return list(block)


def raise_beside_a_large_child_result(block):
    if in_child():
        return ["x" * 100_000]      # more than a pipe buffer (64 KiB)
    time.sleep(0.2)                 # the child is now blocked writing it
    raise ValueError("the first block failed")


class TestDispatch:
    def test_caller_runs_the_first_block(self):
        rows = cli._dispatch(echo_block, list(range(5)), 3)
        assert [point for _, point in rows] == list(range(5))
        pids = [pid for pid, _ in rows]
        assert pids[:2] == [os.getpid()] * 2
        assert len(set(pids)) == 3
        assert multiprocessing.active_children() == []

    def test_exception_in_a_child_reaches_the_caller(self):
        with pytest.raises(ZeroDivisionError, match=r"block \[2\]"):
            cli._dispatch(raise_in_child, [1, 2], 2)
        assert multiprocessing.active_children() == []

    def test_child_that_exits_without_sending(self):
        with pytest.raises(RuntimeError, match="code 3"):
            cli._dispatch(exit_in_child, [1, 2, 3], 3)
        assert multiprocessing.active_children() == []

    def test_child_that_exits_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        index_rows = cli._index_rows

        def exiting_index_rows(points):
            exit_in_child(points)
            return index_rows(points)

        monkeypatch.setattr(cli, "_index_rows", exiting_index_rows)
        cfg = case_a_cfg(index={"q_values": [[12.0, 0.0], [13.0, 0.0]]})
        code, out, err = run_cli(capsys, "index", "--config", write_cfg(tmp_path, cfg),
                                 "--jobs", "2")
        assert code == 1 and out == ""
        assert err.startswith("numerical failure:") and "code 3" in err
        assert multiprocessing.active_children() == []

    def test_failing_first_block_beside_a_blocked_child(self):
        with pytest.raises(ValueError, match="first block"):
            cli._dispatch(raise_beside_a_large_child_result, [1, 2], 2)
        assert multiprocessing.active_children() == []

    def test_at_most_one_child_per_block_past_the_first(self, tmp_path, capsys, monkeypatch):
        started = []

        class Counted(multiprocessing.Process):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(multiprocessing, "Process", Counted)
        cfg = case_a_cfg(index={"q_values": [[12.0, 0.0], [13.0, 0.0], [14.0, 0.0]]})
        code, out, _ = run_cli(capsys, "index", "--config", write_cfg(tmp_path, cfg),
                               "--jobs", "8")
        assert code == 0 and len(parse_csv(out)) == 3
        assert len(started) == 2
        assert multiprocessing.active_children() == []


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

    def test_residual_failure_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NonzeroIndexError(1)

        monkeypatch.setattr(cli, "residual", fail)
        cfg = {"medium": {"eps_r": 1.0, "mu_r": 1.0, "omega": 2 * math.pi * 1e9},
               "sheet": {"model": {"kind": "magneto_hydrodynamic",
                                   "n0": 1.18e15, "b0": 3.575}}}
        code, out, err = run_cli(capsys, "asymptote", "--config", write_cfg(tmp_path, cfg))
        assert code == 1 and out == ""
        assert err.startswith("numerical failure:")


class TestValidateCommand:
    def test_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 10

    def test_wrong_split_fails(self, monkeypatch):
        # offset Phi above the axis only, as a wrong split would: an offset
        # on both sides cancels in both checks, a one-sided one must not
        exact = selfcheck.cauchy_transform

        def shifted(kernel, xi0):
            return exact(kernel, xi0) + np.where(np.imag(xi0) > 0, 123 + 45j, 0)

        monkeypatch.setattr(selfcheck, "cauchy_transform", shifted)
        status = {name: ok for name, ok, _ in selfcheck.run_all()}
        assert not status["boundary factorization exp(Q+ + Q-) = P"]
        assert not status["Plemelj boundary values"]
