"""Built-in invariant suite behind the `validate` CLI command.

Each check is a cheap, self-contained verification of a module-level
invariant (the full oracle-grade comparisons live in the test suite).
"""

from __future__ import annotations

import math

import numpy as np

from .branches import Sheet, sheet_sqrt
from .conductivity import ConductivityTensor, rotate
from .dispersion import residual, solve, vm_isotropic_residual
from .kernel import Problem, p_of_xi
from .spectrum import conjecture_check, quadratic_roots, winding_index
from .wiener_hopf import build_log_kernel, cauchy_transform

_CASE_A = ConductivityTensor.diagonal(0.2j, 0.2j, nondimensional=True)
_CASE_B = ConductivityTensor.diagonal(0.001 + 0.1j, 0.002 + 0.2j, nondimensional=True)


def _check_rotation():
    rng = np.random.default_rng(7)
    sig = ConductivityTensor(0.01 + 0.3j, 0.002 - 0.05j, -0.001 + 0.02j, 0.02 + 0.6j,
                             nondimensional=True)
    worst = 0.0
    for _ in range(32):
        p1, p2 = rng.uniform(0, math.pi, size=2)
        lhs = rotate(rotate(sig, p1), (p2 % math.pi)).as_matrix()
        rhs = rotate(sig, (p1 + p2) % math.pi).as_matrix()
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        r = rotate(sig, p1)
        worst = max(worst, abs(r.trace - sig.trace), abs(r.det - sig.det),
                    abs(r.off_diff - sig.off_diff))
    return worst < 1e-13, f"worst deviation {worst:.2e}"


def _check_sheet_sqrt():
    rng = np.random.default_rng(11)
    xi = rng.normal(size=512) + 1j * rng.normal(size=512)
    q = 1.5 - 0.3j
    w_pos = sheet_sqrt(xi, q, Sheet.FIRST)
    w_neg = sheet_sqrt(-xi, q, Sheet.FIRST)
    w2 = sheet_sqrt(xi, q, Sheet.SECOND)
    parity = float(np.max(np.abs(w_pos - w_neg)))
    sheets = float(np.max(np.abs(w_pos + w2)))
    signs = bool(np.all(w_pos.real >= 0))
    ok = parity == 0.0 and sheets == 0.0 and signs
    return ok, f"parity {parity:.1e}, sheet sum {sheets:.1e}"


def _check_vieta():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(64):
        sig = ConductivityTensor(
            *(rng.normal(scale=0.1) + 1j * abs(rng.normal(scale=0.2)) for _ in range(4)),
            nondimensional=True)
        q = rng.normal() + 1j * rng.normal(scale=0.2)
        if abs(q.real) < 0.2 or sig.xx == 0:
            continue
        r = quadratic_roots(sig, q)
        s = r.xi_plus + r.xi_minus + q * sig.off_sum / sig.xx
        p = r.xi_plus * r.xi_minus - q * q * sig.yy / sig.xx
        scale = max(abs(r.xi_plus), abs(r.xi_minus), 1.0)
        worst = max(worst, abs(s) / scale, abs(p) / scale**2)
    return worst < 1e-12, f"worst Vieta residual {worst:.2e}"


def _check_quartic_identity():
    prob = Problem.single_sheet(_CASE_B, 13.9 + 0.14j)
    r = quadratic_roots(prob.sigma_eff, prob.q)
    ksp = prob.ksp
    xi = np.linspace(-30, 30, 101) + 0.37j
    lhs = -ksp**2 * (xi**2 + prob.q**2) * p_of_xi(prob, xi, Sheet.FIRST) \
        * p_of_xi(prob, xi, Sheet.SECOND)
    rhs = ((xi - r.xi_plus) * (xi - r.xi_minus))**2 - ksp**2 * (xi**2 + prob.q**2)
    worst = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    return worst < 1e-12, f"worst relative deviation {worst:.2e}"


def _check_index_reflection():
    qs = [0.85 * (21.657 + 0.217j), 16.0 + 1.0j, 9.0 + 0.4j]
    sig = rotate(_CASE_B, 0.4 * math.pi)
    for q in qs:
        p = Problem.single_sheet(sig, q)
        if winding_index(p) != -winding_index(p.with_q(-q)):
            return False, f"nu(-q) != -nu(q) at q = {q}"
    return True, ""


def _check_conjecture():
    sig = rotate(_CASE_B, 0.166 * math.pi)
    for fac in (0.6, 0.75, 1.0, 1.4):
        res = conjecture_check(Problem.single_sheet(sig, fac * (16.438 + 0.164j)))
        if res.agrees is False:
            return False, f"conjecture fails at factor {fac}: nu={res.nu_k} rhs={res.rhs}"
    return True, ""


def _check_factorization():
    prob = Problem.single_sheet(_CASE_A, 12.171985)
    kernel = build_log_kernel(prob)
    x = np.linspace(-25.0, 25.0, 21)
    # Q_+(x + i delta) + Q_-(x - i delta) = Phi(x + i delta) - Phi(x - i delta)
    above, below = np.split(cauchy_transform(
        kernel, np.concatenate([x + 1e-4j, x - 1e-4j])), 2)
    p_ref = p_of_xi(prob, x, Sheet.FIRST)
    worst = float(np.max(np.abs(np.exp(above - below) - p_ref) / np.abs(p_ref)))
    return worst < 1e-2, f"worst relative factorization error {worst:.2e}"


def _check_plemelj():
    prob = Problem.single_sheet(_CASE_B, 13.93 + 0.14j)
    kernel = build_log_kernel(prob)
    x = np.array([-8.0, 1.5, 11.0])
    # Phi(x + i delta) - Phi(x - i delta) -> L(x), and the mean -> PV Phi(x)
    above, below, pv = np.split(cauchy_transform(
        kernel, np.concatenate([x + 1e-8j, x - 1e-8j, x + 0j])), 3)
    jump = float(np.max(np.abs(above - below - kernel.log_values(x))))
    mean = float(np.max(np.abs(0.5 * (above + below) - pv)))
    return (max(jump, mean) < 1e-8,
            f"worst jump error {jump:.2e}, worst mean error {mean:.2e}")


def _check_two_sheet_reduction():
    zero = ConductivityTensor.diagonal(0.0, 0.0, nondimensional=True)
    q = 12.171985
    single = residual(Problem.single_sheet(_CASE_A, q))
    two = residual(Problem.two_sheet(zero, _CASE_A, q))
    # A = C+ e^{-Q+} + C- e^{Q-} vanishes together with F
    ok = abs(two) < 1e-6 and abs(single) < 1e-6
    return ok, f"|F|={abs(single):.2e}, |A|={abs(two):.2e}"


def _check_vm_match():
    sig = ConductivityTensor(0.15j, -0.05j, 0.05j, 0.15j, nondimensional=True)
    sol = solve(Problem.single_sheet(sig, 14.0 - 3.0j), 14.0 - 3.0j)
    if not sol.converged:
        return False, "general solver did not converge"
    vm = vm_isotropic_residual(Problem.single_sheet(sig, sol.q))
    return abs(vm) < 1e-6, f"|tanh-form residual at general root| = {abs(vm):.2e}"


CHECKS = [
    ("rotation group law and invariants", _check_rotation),
    ("sheet_sqrt parity and sheet pairing", _check_sheet_sqrt),
    ("quadratic-root Vieta identities", _check_vieta),
    ("dual-symbol quartic reconstruction", _check_quartic_identity),
    ("index reflection nu(-q) = -nu(q)", _check_index_reflection),
    ("index conjecture census agreement", _check_conjecture),
    ("boundary factorization exp(Q+ + Q-) = P", _check_factorization),
    ("Plemelj boundary values", _check_plemelj),
    ("two-sheet reduction to single sheet", _check_two_sheet_reduction),
    ("isotropic tanh-form cross-check", _check_vm_match),
]


def run_all():
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
