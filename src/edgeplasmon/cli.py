"""Batch front door: JSON config in, CSV/JSON rows out.

Commands: solve | sweep | index | field | asymptote | validate.
Exit codes: 0 success, 1 numerical failure, 2 configuration error.
Each command parses and checks the whole config before any row runs, so
a configuration error never follows partial work; the rows then only do
numerics, and a row's error is a numerical failure at its point.
Complex numbers in configs are [re, im] pairs; rotation angles are given
in multiples of pi under keys ending in _pi.  All numeric output is
printed with 17 significant digits so doubles round-trip losslessly.
Wavenumbers are reported in nondimensional units (q/k0).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import multiprocessing
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
from .branches import Sheet
from .kernel import Problem
from .spectrum import ConjectureResult, conjecture_block, phase_winding
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


def _real(value, where: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{where}: expected a positive number, got {value!r}")
    return float(value)


def _reals(node, where: str, positive: bool = False) -> list[float]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{where}: expected a nonempty list of numbers, got {node!r}")
    return [_real(v, f"{where}[{i}]", positive) for i, v in enumerate(node)]


def _complex_pair(node, where: str) -> complex:
    if not isinstance(node, (list, tuple)) or len(node) != 2:
        raise ConfigError(f"{where}: expected a [re, im] pair, got {node!r}")
    return complex(_real(node[0], f"{where}[0]"), _real(node[1], f"{where}[1]"))


def _q(node, where: str) -> complex:
    q = _complex_pair(node, where)
    if q.real == 0.0:
        raise ConfigError(f"{where}: Re q = 0 is not admissible (sg(q) undefined)")
    return q


def _qs(node, where: str) -> list[complex]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{where}: expected a nonempty list of [re, im] pairs, got {node!r}")
    return [_q(pair, f"{where}[{i}]") for i, pair in enumerate(node)]


def _mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object, got {node!r}")
    return node


def _parse_medium(node, omega: float | None = None) -> AmbientMedium:
    """The config's medium, at ``omega`` when given (one frequency of a batch)."""
    node = _mapping({} if node is None else node, "medium")
    if omega is None:
        omega = _real(node.get("omega", 1.0), "medium.omega")
    if "eps_r" in node or "mu_r" in node:
        make = functools.partial(AmbientMedium.relative,
                                 _real(node.get("eps_r", 1.0), "medium.eps_r"),
                                 _real(node.get("mu_r", 1.0), "medium.mu_r"))
    elif "epsilon" in node:
        make = functools.partial(AmbientMedium, _real(node.get("epsilon"), "medium.epsilon"),
                                 _real(node.get("mu"), "medium.mu"))
    else:
        make = AmbientMedium.vacuum
    try:
        return make(omega=omega)
    except ValueError as exc:
        raise ConfigError(f"medium: {exc}") from exc


def _parse_sheet(node, medium: AmbientMedium, where: str = "sheet") -> ConductivityTensor:
    if node is None:
        raise ConfigError(f"{where}: missing sheet specification")
    _mapping(node, where)
    has_tensor = "tensor" in node
    has_model = "model" in node
    if has_tensor == has_model:
        raise ConfigError(
            f"{where}: exactly one of 'tensor' or 'model' must be given")
    if has_tensor:
        t = _mapping(node["tensor"], f"{where}.tensor")
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
        m = _mapping(node["model"], f"{where}.model")
        kind = m.get("kind")
        if kind not in ("magneto_hydrodynamic", "drude"):
            raise ConfigError(f"{where}.model.kind: unknown model {kind!r}")
        names = ("n0", "b0") if kind == "magneto_hydrodynamic" else ("weight_xx", "weight_yy")
        params = [_real(m.get(k), f"{where}.model.{k}") for k in names]
        tau = _real(m["tau"], f"{where}.model.tau") if "tau" in m else None
        try:
            if kind == "magneto_hydrodynamic":
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    sigma = cond.magneto_hydrodynamic(medium.omega, *params, tau=tau)
            else:
                sigma = cond.drude(medium.omega, *params, math.inf if tau is None else tau)
        except ValueError as exc:
            raise ConfigError(f"{where}.model: {exc}") from exc
    if not sigma.nondimensional:
        sigma = cond.nondimensionalize(sigma, medium)
    phi_pi = node.get("rotation_phi_pi")
    if phi_pi is not None:
        sigma = cond.rotate(sigma, _real(phi_pi, f"{where}.rotation_phi_pi") * math.pi)
    if not sigma.is_passive():
        raise ConfigError(f"{where}: not passive")
    return sigma


def _parse_problem(cfg, medium: AmbientMedium, q: complex) -> Problem:
    """The config's problem at a q the caller has checked; a problem the
    package refuses (a two-sheet config with sigma_L = sigma_R, say) is a
    configuration error."""
    node = _mapping(cfg.get("problem", {"variant": "single"}), "problem")
    variant = node.get("variant", "single")
    if variant == "single":
        make = functools.partial(Problem.single_sheet, _parse_sheet(cfg.get("sheet"), medium))
    elif variant == "interface":
        make = functools.partial(Problem.interface, _parse_sheet(cfg.get("sheet"), medium),
                                 eps_r1=_real(node.get("eps_r1"), "problem.eps_r1"),
                                 eps_r2=_real(node.get("eps_r2"), "problem.eps_r2"))
    elif variant in ("two-sheet", "two_sheet"):
        make = functools.partial(
            Problem.two_sheet,
            _parse_sheet(node.get("sheet_left"), medium, "problem.sheet_left"),
            _parse_sheet(node.get("sheet_right"), medium, "problem.sheet_right"))
    else:
        raise ConfigError(f"problem.variant: unknown variant {variant!r}")
    try:
        return make(q)
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc


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


def _solve_row(problem: Problem, omega: float, guess: complex, tol: float) -> dict:
    t0 = time.perf_counter()
    sol = solve(problem.with_q(guess), guess, tol=tol)
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


def _solve_rows(points, tol: float) -> list[dict]:
    return [_solve_row(*point, tol) for point in points]


def cmd_solve(cfg, args) -> int:
    node = _mapping(cfg.get("solve", {}), "solve")
    guesses = _qs(node.get("q_guesses"), "solve.q_guesses")
    tol = _real(node.get("tol", 1e-10), "solve.tol")
    omegas = (_reals(node["omegas"], "solve.omegas", positive=True) if "omegas" in node
              else [_parse_medium(cfg.get("medium")).omega])
    problems = {w: _parse_problem(cfg, _parse_medium(cfg.get("medium"), w), guesses[0])
                for w in omegas}
    points = [(problems[w], w, g) for w in omegas for g in guesses]
    rows = _dispatch(functools.partial(_solve_rows, tol=tol), points, args.jobs)
    _write_rows(rows, SOLVE_COLUMNS, args.out, args.format)
    return EXIT_OK if all(r.pop("_ok", False) for r in rows) else EXIT_NUMERICAL


INDEX_COLUMNS = ["omega", "re_q", "im_q", "nu_k", "nu_k_star", "n_plus",
                 "n_minus", "nstar_plus", "nstar_minus", "n_marginal",
                 "conjecture_rhs", "conjecture_agrees", "wall_ms"]


def _index_rows(points) -> list[dict]:
    """The index rows of one block of (problem, omega, q) points, computed
    together: one ``conjecture_block``, then the P* phase pass
    (``phase_winding`` on the second sheet) for the rows whose census has
    a marginal zero, where the census cannot give nu*.  A numerical failure
    at one point (Re q = 0 included) leaves that row's fields empty and puts
    the error in ``conjecture_agrees``; the other rows go on.  Every row's
    ``wall_ms`` is the block's time over its number of rows."""
    t0 = time.perf_counter()
    results: list = [None] * len(points)
    problems = {}
    for i, (problem, _, q) in enumerate(points):
        try:
            problems[i] = problem.with_q(q)
        except NUMERICAL_ERRORS as exc:
            results[i] = exc
    for i, res in zip(problems, conjecture_block(problems.values())):
        results[i] = res
    marginal = [i for i in problems
                if isinstance(results[i], ConjectureResult) and results[i].nu_star is None]
    duals = (phase_winding([problems[i] for i in marginal], Sheet.SECOND, keep_nodes=False)[3]
             if marginal else [])
    nu_star = dict(zip(marginal, duals))
    rows = []
    for i, res in enumerate(results):
        star = nu_star.get(i)
        if isinstance(star, Exception):
            res = star
        if isinstance(res, Exception):
            row = {**dict.fromkeys(INDEX_COLUMNS, ""),
                   "conjecture_agrees": f"error: {res}", "_ok": False}
        else:
            row = {
                "nu_k": res.nu_k, "nu_k_star": res.nu_star if star is None else star,
                "n_plus": res.report.n_plus, "n_minus": res.report.n_minus,
                "nstar_plus": res.report.n_star_plus,
                "nstar_minus": res.report.n_star_minus,
                "n_marginal": res.n_marginal,
                "conjecture_rhs": res.rhs,
                "conjecture_agrees": "" if res.agrees is None else res.agrees,
                "_ok": True,
            }
        _, omega, q = points[i]
        row.update({"omega": omega, "re_q": q.real, "im_q": q.imag})
        rows.append(row)
    wall_ms = int(round(1000.0 * (time.perf_counter() - t0) / max(len(points), 1)))
    for row in rows:
        row["wall_ms"] = wall_ms
    return rows


def cmd_index(cfg, args) -> int:
    qs = _qs(_mapping(cfg.get("index", {}), "index").get("q_values"), "index.q_values")
    medium = _parse_medium(cfg.get("medium"))
    problem = _parse_problem(cfg, medium, qs[0])
    rows = _dispatch(_index_rows, [(problem, medium.omega, q) for q in qs], args.jobs)
    ok = all(r.pop("_ok", False) for r in rows)
    _write_rows(rows, INDEX_COLUMNS, args.out, args.format)
    return EXIT_OK if ok else EXIT_NUMERICAL


SWEEP_COLUMNS = ["phi_pi", "q_factor", "re_q", "im_q", "nu_k", "nu_k_star", "n_plus",
                 "n_minus", "nstar_plus", "nstar_minus", "n_marginal",
                 "conjecture_rhs", "conjecture_agrees", "index_transition",
                 "wall_ms"]


def cmd_sweep(cfg, args) -> int:
    node = _mapping(cfg.get("sweep"), "sweep")
    phis = _reals(node.get("phis_pi"), "sweep.phis_pi")
    factors = _reals(node.get("q_factors"), "sweep.q_factors")
    base_q = _q(node.get("q_base"), "sweep.q_base")
    if _mapping(cfg.get("problem", {}), "problem").get("variant") in ("two-sheet", "two_sheet"):
        raise ConfigError("sweep: phis_pi rotates the top-level 'sheet', which a "
                          "two-sheet problem does not use; run 'index' with "
                          "rotation_phi_pi set on each problem sheet instead")
    medium = _parse_medium(cfg.get("medium"))
    sheet = _mapping(cfg.get("sheet", {}), "sheet")
    problems = {p: _parse_problem({**cfg, "sheet": {**sheet, "rotation_phi_pi": p}},
                                  medium, base_q) for p in phis}
    grid = [(p, f) for p in phis for f in factors]
    rows = _dispatch(_index_rows, [(problems[p], medium.omega, f * base_q) for p, f in grid],
                     args.jobs)
    # annotate index transitions along each constant-phi line, across failed rows
    last: dict[float, int] = {}
    for row, (phi, factor) in zip(rows, grid):
        row.update({"phi_pi": phi, "q_factor": factor, "index_transition": ""})
        nu = row["nu_k"]
        if nu != "" and last.get(phi, nu) != nu:
            row["index_transition"] = f"nu {last[phi]}->{nu}"
        if nu != "":
            last[phi] = nu
    ok = all(r.pop("_ok", False) for r in rows)
    _write_rows(rows, SWEEP_COLUMNS, args.out, args.format)
    return EXIT_OK if ok else EXIT_NUMERICAL


FIELD_COLUMNS = ["x", "re_phi", "im_phi", "error_estimate", "accuracy_flag"]


def cmd_field(cfg, args) -> int:
    node = _mapping(cfg.get("field"), "field")
    xs = np.asarray(_reals(node.get("x_values"), "field.x_values"))
    target_error = _real(node.get("target_error", 1e-4), "field.target_error")
    key = "q" if "q" in node else "q_guess"
    q = _q(node.get(key), f"field.{key}")
    problem = _parse_problem(cfg, _parse_medium(cfg.get("medium")), q)
    if key == "q_guess":
        sol = solve(problem, q)
        if not sol.converged:
            sys.stderr.write(f"field: dispersion solve failed: {sol.message}\n")
            return EXIT_NUMERICAL
        problem = problem.with_q(sol.q)
    kernel = build_log_kernel(problem)
    prof = phi_profile(problem, kernel, xs, target_error=target_error)
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
    node = _mapping(cfg.get("asymptote", {}), "asymptote")
    eps_sum = _real(node.get("eps_sum", 2.0), "asymptote.eps_sum", positive=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q_lw = longwave_q(sigma, eps_sum=eps_sum)
    if eps_sum == 2.0:
        problem = Problem.single_sheet(sigma, q_lw)
    else:
        problem = Problem.interface(sigma, q_lw, eps_sum / 2.0, eps_sum / 2.0)
    kernel = build_log_kernel(problem)
    f_full = abs(residual(problem, kernel=kernel))
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

    results = selfcheck.run_all()
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}{'' if ok else '  ' + detail}")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _run_block(block_fn, block, conn):
    """A child's work: send block_fn(block), or the exception it raised."""
    try:
        result = block_fn(block)
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def _dispatch(block_fn, points, jobs: int):
    """Split the points into ``jobs`` contiguous blocks, run block_fn(block)
    on each and return the rows in input order.  The caller computes the
    first block itself while each other block runs in its own child
    process, which sends back its rows, or the exception its block raised,
    over a one-way pipe; so at most len(blocks) - 1 children start, and
    none when there is one block.  A block pass costs less per row than a
    round trip to a child, so each child gets a single block.  A child
    that exits without sending is a RuntimeError.  No child outlives the
    call: on an error the children still running are terminated (one may
    be blocked writing a result larger than the pipe buffer, and a forked
    child holds a copy of the read end, so closing the caller's would not
    end that write), then the read ends are closed and every child is
    joined."""
    size = max(math.ceil(len(points) / jobs), 1)
    blocks = [points[i:i + size] for i in range(0, len(points), size)]
    if len(blocks) <= 1:
        return block_fn(points)
    children = []
    try:
        for block in blocks[1:]:
            receive, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_run_block, args=(block_fn, block, send))
            child.start()
            send.close()
            children.append((child, receive))
        rows = block_fn(blocks[0])
        for k, (child, receive) in enumerate(children, 1):
            try:
                result = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"the process of block {k + 1} of {len(blocks)} exited "
                                   f"with code {child.exitcode} before sending its rows") from None
            if isinstance(result, Exception):
                raise result
            rows.extend(result)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            receive.close()
            child.join()
    return rows


COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "index": cmd_index,
    "field": cmd_field,
    "asymptote": cmd_asymptote,
    "validate": cmd_validate,
}


def _process_count(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text!r}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeplasmon",
        description="Edge plasmon-polariton dispersion, index and field profiles "
                    "on semi-infinite anisotropic 2D sheets.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=False, help="JSON configuration file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--jobs", type=_process_count, default=1,
                        help="processes, this one included")
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
        return COMMANDS[args.command](_mapping(cfg, "config"), args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
