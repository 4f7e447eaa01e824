"""Batch front door: JSON config in, CSV/JSON rows out.

Commands: solve | sweep | index | field | asymptote | validate.
Exit codes: 0 success, 1 numerical failure, 2 configuration error.
Complex numbers in configs are [re, im] pairs; rotation angles are given
in multiples of pi under keys ending in _pi.  All numeric output is
printed with 17 significant digits so doubles round-trip losslessly.
Wavenumbers are reported in nondimensional units (q/k0).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import math
import sys
import time
import warnings

import numpy as np

from . import conductivity as cond
from .conductivity import AmbientMedium, ConductivityTensor
from .dispersion import (
    Classification,
    LongwaveParams,
    f_pm,
    f_pm_mellin,
    longwave_q,
    residual,
    solve,
)
from .kernel import Problem
from .spectrum import conjecture_check, dual_winding_index
from .wiener_hopf import build_log_kernel
from .field import phi_profile

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


NUMERICAL_ERRORS = (ValueError, RuntimeError)  # exit 1, or an index row error


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    # free text (error annotations) must not break the CSV framing
    return str(value).replace(",", ";").replace("\n", " ")


def _complex_pair(node, where: str) -> complex:
    if (not isinstance(node, (list, tuple)) or len(node) != 2
            or not all(isinstance(v, (int, float)) for v in node)):
        raise ConfigError(f"{where}: expected a [re, im] pair, got {node!r}")
    return complex(float(node[0]), float(node[1]))


def _parse_medium(node) -> AmbientMedium:
    if node is None:
        return AmbientMedium.vacuum(omega=1.0)
    try:
        if "eps_r" in node or "mu_r" in node:
            return AmbientMedium.relative(
                float(node.get("eps_r", 1.0)), float(node.get("mu_r", 1.0)),
                float(node.get("omega", 1.0)))
        if "epsilon" in node:
            return AmbientMedium(float(node["epsilon"]), float(node["mu"]),
                                 float(node.get("omega", 1.0)))
        return AmbientMedium.vacuum(omega=float(node.get("omega", 1.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"medium: {exc}") from exc


def _parse_sheet(node, medium: AmbientMedium, where: str = "sheet") -> ConductivityTensor:
    if node is None:
        raise ConfigError(f"{where}: missing sheet specification")
    has_tensor = "tensor" in node
    has_model = "model" in node
    if has_tensor == has_model:
        raise ConfigError(
            f"{where}: exactly one of 'tensor' or 'model' must be given")
    if has_tensor:
        t = node["tensor"]
        try:
            sigma = ConductivityTensor(
                xx=_complex_pair(t["xx"], f"{where}.tensor.xx"),
                xy=_complex_pair(t.get("xy", [0, 0]), f"{where}.tensor.xy"),
                yx=_complex_pair(t.get("yx", [0, 0]), f"{where}.tensor.yx"),
                yy=_complex_pair(t["yy"], f"{where}.tensor.yy"),
                nondimensional=bool(t.get("nondimensional", True)),
            )
        except KeyError as exc:
            raise ConfigError(f"{where}.tensor: missing entry {exc}") from exc
    else:
        m = node["model"]
        kind = m.get("kind")
        if kind not in ("magneto_hydrodynamic", "drude"):
            raise ConfigError(f"{where}.model.kind: unknown model {kind!r}")
        try:
            if kind == "magneto_hydrodynamic":
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    sigma = cond.magneto_hydrodynamic(
                        omega=medium.omega, n0=float(m["n0"]), b0=float(m["b0"]),
                        tau=float(m["tau"]) if "tau" in m else None)
            else:
                sigma = cond.drude(medium.omega, float(m["weight_xx"]),
                                   float(m["weight_yy"]),
                                   float(m.get("tau", math.inf)))
        except KeyError as exc:
            raise ConfigError(f"{where}.model: missing parameter {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.model: {exc}") from exc
    if not sigma.nondimensional:
        sigma = cond.nondimensionalize(sigma, medium)
    phi_pi = node.get("rotation_phi_pi")
    if phi_pi is not None:
        sigma = cond.rotate(sigma, float(phi_pi) * math.pi)
    return sigma


def _parse_problem(cfg, medium: AmbientMedium, q: complex) -> Problem:
    node = cfg.get("problem", {"variant": "single"})
    variant = node.get("variant", "single")
    if variant == "single":
        sigma = _parse_sheet(cfg.get("sheet"), medium)
        return Problem.single_sheet(sigma, q)
    if variant == "interface":
        sigma = _parse_sheet(cfg.get("sheet"), medium)
        try:
            return Problem.interface(sigma, q, float(node["eps_r1"]),
                                     float(node["eps_r2"]))
        except KeyError as exc:
            raise ConfigError(f"problem: interface needs eps_r1/eps_r2 ({exc})") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem: interface eps_r1/eps_r2: {exc}") from exc
    if variant in ("two-sheet", "two_sheet"):
        left = _parse_sheet(node.get("sheet_left"), medium, "problem.sheet_left")
        right = _parse_sheet(node.get("sheet_right"), medium, "problem.sheet_right")
        return Problem.two_sheet(left, right, q)
    raise ConfigError(f"problem.variant: unknown variant {variant!r}")


def _q_guesses(node, key="q_guesses"):
    try:
        raw = node[key]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"missing '{key}' list") from exc
    out = []
    for i, pair in enumerate(raw):
        q = _complex_pair(pair, f"{key}[{i}]")
        if q.real == 0.0:
            raise ConfigError(f"{key}[{i}]: Re q = 0 is not admissible (sg(q) undefined)")
        out.append(q)
    if not out:
        raise ConfigError(f"'{key}' must be nonempty")
    return out


# ---------------------------------------------------------------------------
# row emission
# ---------------------------------------------------------------------------


def _write_rows(rows, columns, out, fmt: str):
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([{c: row[c] for c in columns} for row in rows],
                          default=float, indent=1) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


SOLVE_COLUMNS = ["omega", "re_q", "im_q", "nu_k", "n_plus", "n_minus",
                 "nstar_plus", "nstar_minus", "abs_residual", "classification",
                 "iterations", "wall_ms"]


def _solve_row(cfg, omega: float, guess: complex) -> dict:
    medium = _parse_medium({**(cfg.get("medium") or {}), "omega": omega})
    problem = _parse_problem(cfg, medium, guess)
    tol = float(cfg.get("solve", {}).get("tol", 1e-10))
    t0 = time.perf_counter()
    sol = solve(problem, guess, tol=tol)
    wall_ms = int(round(1000.0 * (time.perf_counter() - t0)))
    census = sol.census
    return {
        "omega": omega,
        "re_q": sol.q.real, "im_q": sol.q.imag,
        "nu_k": sol.nu_k_at_solution if sol.nu_k_at_solution is not None else "",
        "n_plus": census.n_plus if census else "",
        "n_minus": census.n_minus if census else "",
        "nstar_plus": census.n_star_plus if census else "",
        "nstar_minus": census.n_star_minus if census else "",
        "abs_residual": abs(sol.residual),
        "classification": sol.classification.value,
        "iterations": sol.iterations,
        "wall_ms": wall_ms,
        "_ok": sol.classification is Classification.DISCRETE_EPP,
    }


def cmd_solve(cfg, args) -> int:
    omegas = cfg.get("solve", {}).get("omegas") or [_parse_medium(cfg.get("medium")).omega]
    guesses = _q_guesses(cfg.get("solve", {}))
    points = [(float(w), g) for w in omegas for g in guesses]
    rows = _dispatch(_solve_row, cfg, points, args.jobs)
    _write_rows(rows, SOLVE_COLUMNS, args.out, args.format)
    return EXIT_OK if all(r.pop("_ok", False) for r in rows) else EXIT_NUMERICAL


INDEX_COLUMNS = ["omega", "re_q", "im_q", "nu_k", "nu_k_star", "n_plus",
                 "n_minus", "nstar_plus", "nstar_minus", "n_marginal",
                 "conjecture_rhs", "conjecture_agrees", "wall_ms"]


def _index_row(cfg, omega: float, q: complex) -> dict:
    """One index row; a numerical failure at this point leaves the row's
    fields empty and puts the error in ``conjecture_agrees``."""
    t0 = time.perf_counter()
    try:
        medium = _parse_medium({**(cfg.get("medium") or {}), "omega": omega})
        problem = _parse_problem(cfg, medium, q)
        res = conjecture_check(problem)
        nu_star = dual_winding_index(problem)
        row = {
            "nu_k": res.nu_k, "nu_k_star": nu_star,
            "n_plus": res.report.n_plus, "n_minus": res.report.n_minus,
            "nstar_plus": res.report.n_star_plus,
            "nstar_minus": res.report.n_star_minus,
            "n_marginal": res.n_marginal,
            "conjecture_rhs": res.rhs,
            "conjecture_agrees": "" if res.agrees is None else res.agrees,
            "_ok": True,
        }
    except ConfigError:
        raise
    except NUMERICAL_ERRORS as exc:
        row = {**dict.fromkeys(INDEX_COLUMNS, ""), "conjecture_agrees": f"error: {exc}",
               "_ok": False}
    row.update({"omega": omega, "re_q": q.real, "im_q": q.imag,
                "wall_ms": int(round(1000.0 * (time.perf_counter() - t0)))})
    return row


def cmd_index(cfg, args) -> int:
    node = cfg.get("index", {})
    qs = _q_guesses(node, key="q_values")
    omega = _parse_medium(cfg.get("medium")).omega
    points = [(omega, q) for q in qs]
    rows = _dispatch(_index_row, cfg, points, args.jobs)
    ok = all(r.pop("_ok", False) for r in rows)
    _write_rows(rows, INDEX_COLUMNS, args.out, args.format)
    return EXIT_OK if ok else EXIT_NUMERICAL


SWEEP_COLUMNS = ["phi_pi", "q_factor", "re_q", "im_q", "nu_k", "nu_k_star", "n_plus",
                 "n_minus", "nstar_plus", "nstar_minus", "n_marginal",
                 "conjecture_rhs", "conjecture_agrees", "index_transition",
                 "wall_ms"]


def _sweep_point(cfg, phi_pi: float, factor: float) -> dict:
    sweep = cfg["sweep"]
    base_q = _complex_pair(sweep["q_base"], "sweep.q_base")
    q = factor * base_q
    medium = _parse_medium(cfg.get("medium"))
    sheet_cfg = dict(cfg.get("sheet", {}))
    sheet_cfg["rotation_phi_pi"] = phi_pi
    cfg_local = dict(cfg)
    cfg_local["sheet"] = sheet_cfg
    row = _index_row(cfg_local, medium.omega, q)
    row.update({"phi_pi": phi_pi, "q_factor": factor, "index_transition": ""})
    return row


def cmd_sweep(cfg, args) -> int:
    node = cfg.get("sweep")
    if not node:
        raise ConfigError("missing 'sweep' section")
    try:
        phis = [float(p) for p in node["phis_pi"]]
        factors = [float(f) for f in node["q_factors"]]
    except KeyError as exc:
        raise ConfigError(f"sweep: missing {exc}") from exc
    if (cfg.get("problem") or {}).get("variant") in ("two-sheet", "two_sheet"):
        raise ConfigError("sweep: phis_pi rotates the top-level 'sheet', which a "
                          "two-sheet problem does not use; run 'index' with "
                          "rotation_phi_pi set on each problem sheet instead")
    points = [(p, f) for p in phis for f in factors]
    rows = _dispatch(_sweep_point, cfg, points, args.jobs)
    # annotate index transitions along each constant-phi line, across failed rows
    last: dict[float, int] = {}
    for row in rows:
        phi, nu = row["phi_pi"], row["nu_k"]
        if nu != "" and last.get(phi, nu) != nu:
            row["index_transition"] = f"nu {last[phi]}->{nu}"
        if nu != "":
            last[phi] = nu
    ok = all(r.pop("_ok", False) for r in rows)
    _write_rows(rows, SWEEP_COLUMNS, args.out, args.format)
    return EXIT_OK if ok else EXIT_NUMERICAL


FIELD_COLUMNS = ["x", "re_phi", "im_phi", "error_estimate", "accuracy_flag"]


def cmd_field(cfg, args) -> int:
    node = cfg.get("field")
    if not node:
        raise ConfigError("missing 'field' section")
    medium = _parse_medium(cfg.get("medium"))
    xs = node.get("x_values")
    if not xs:
        raise ConfigError("field.x_values must be a nonempty list")
    xs = np.asarray([float(x) for x in xs])
    if "q" in node:
        q = _complex_pair(node["q"], "field.q")
        problem = _parse_problem(cfg, medium, q)
    else:
        guess = _complex_pair(node.get("q_guess", [0, 0]), "field.q_guess")
        if guess.real == 0.0:
            raise ConfigError("field: supply 'q' or a 'q_guess' with Re != 0")
        problem = _parse_problem(cfg, medium, guess)
        sol = solve(problem, guess)
        if not sol.converged:
            sys.stderr.write(f"field: dispersion solve failed: {sol.message}\n")
            return EXIT_NUMERICAL
        problem = problem.with_q(sol.q)
    kernel = build_log_kernel(problem)
    prof = phi_profile(problem, kernel, xs,
                       target_error=float(node.get("target_error", 1e-4)))
    rows = [{"x": float(x), "re_phi": v.real, "im_phi": v.imag,
             "error_estimate": e, "accuracy_flag": bool(f)}
            for x, v, e, f in zip(prof.x, prof.phi, prof.error_estimate,
                                  prof.accuracy_flag)]
    _write_rows(rows, FIELD_COLUMNS, args.out, args.format)
    return EXIT_OK


ASYMPTOTE_COLUMNS = ["re_q_longwave", "im_q_longwave", "abs_f_full",
                     "re_q_breve", "im_q_breve", "rel_err_f_plus",
                     "rel_err_f_minus"]


def cmd_asymptote(cfg, args) -> int:
    medium = _parse_medium(cfg.get("medium"))
    sigma = _parse_sheet(cfg.get("sheet"), medium)
    node = cfg.get("asymptote", {})
    eps_sum = float(node.get("eps_sum", 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q_lw = longwave_q(sigma, eps_sum=eps_sum)
    if eps_sum == 2.0:
        problem = Problem.single_sheet(sigma, q_lw)
    else:
        problem = Problem.interface(sigma, q_lw, eps_sum / 2.0, eps_sum / 2.0)
    try:
        kernel = build_log_kernel(problem)
        f_full = abs(residual(problem, kernel=kernel))
    except Exception as exc:  # classification errors surface in the row
        sys.stderr.write(f"asymptote: residual failed: {exc}\n")
        return EXIT_NUMERICAL
    lw = LongwaveParams.from_problem(problem)
    fs = f_pm(kernel)
    fm = f_pm_mellin(lw)
    rows = [{
        "re_q_longwave": q_lw.real, "im_q_longwave": q_lw.imag,
        "abs_f_full": f_full,
        "re_q_breve": lw.q_breve.real, "im_q_breve": lw.q_breve.imag,
        "rel_err_f_plus": abs(fs[0] - fm[0]) / max(abs(fs[0]), 1e-300),
        "rel_err_f_minus": abs(fs[1] - fm[1]) / max(abs(fs[1]), 1e-300),
    }]
    _write_rows(rows, ASYMPTOTE_COLUMNS, args.out, args.format)
    return EXIT_OK


def cmd_validate(cfg, args) -> int:
    """Built-in invariant suite; exit 0 when every check passes."""
    from . import selfcheck

    results = selfcheck.run_all(verbose=args.verbose)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}{'' if ok else '  ' + detail}")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _dispatch(fn, cfg, points, jobs: int):
    """Run fn(cfg, *point) for each point, preserving input order.  The pool
    takes about four chunks per worker: a round trip per row costs more
    than an index row."""
    if jobs <= 1 or len(points) <= 1:
        return [fn(cfg, *p) for p in points]
    chunksize = math.ceil(len(points) / (4 * jobs))
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(functools.partial(fn, cfg), *zip(*points), chunksize=chunksize))


COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "index": cmd_index,
    "field": cmd_field,
    "asymptote": cmd_asymptote,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeplasmon",
        description="Edge plasmon-polariton dispersion, index and field profiles "
                    "on semi-infinite anisotropic 2D sheets.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=False, help="JSON configuration file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = {}
    if args.command != "validate" or args.config:
        if not args.config:
            sys.stderr.write("error: --config is required for this command\n")
            return EXIT_CONFIG
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            sys.stderr.write(f"error: cannot read config: {exc}\n")
            return EXIT_CONFIG
        except json.JSONDecodeError as exc:
            sys.stderr.write(f"error: config parse failure at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}\n")
            return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
