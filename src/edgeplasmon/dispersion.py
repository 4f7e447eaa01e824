"""EPP dispersion relation: residual, complex root solving, classification,
and the long-wavelength asymptotics.

The discrete dispersion relation (zero-index symbols only) is

    F(q) = Q_+(xi^+) + Q_-(xi^-) - ln(-C^+/C^-) = 0,

with the principal log branch (which sends -C^+/C^- = 1 to 0, as the
long-wavelength limit requires).  For two coplanar sheets the residual is
the exponential form A(q) = C^+ e^{-Q_+(xi^+)} + C^- e^{Q_-(xi^-)}, which
avoids re-introducing a log branch.

In the long-wavelength limit the integrals f^+- = +-2 pi i sg(q) Q_+-(xi^+-)
are the series values at the roots (``f_pm``); their Mellin expansion
(``f_pm_mellin``) is the closed form that links the relation to the
q ln q magnetoplasmon law (``longwave_q``).
"""

from __future__ import annotations

import dataclasses
import enum
import math
import warnings

import numpy as np

from .branches import BranchPointError, principal_log, sign_q
from .conductivity import (
    AmbientMedium,
    ConductivityTensor,
    ValidityReport,
    nondimensionalize,
    validity_check,
)
from .kernel import Problem, Variant
from .quadrature import QuadratureError, adaptive_gk_to_infinity
from .spectrum import (
    CensusOverflowError,
    DegenerateQuadraticError,
    DoubleRootError,
    RealAxisZeroError,
    SpectrumReport,
    quadratic_roots,
)
from .wiener_hopf import NonzeroIndexError, UnwrappedLogKernel, build_log_kernel

__all__ = [
    "Classification",
    "DispersionSolution",
    "LongwaveParams",
    "classify",
    "f_pm",
    "f_pm_mellin",
    "longwave_q",
    "residual",
    "solve",
    "trace_curve",
    "vm_isotropic_residual",
]


class Classification(enum.Enum):
    DISCRETE_EPP = "discrete-epp"
    CONTINUUM_REGION = "continuum-region"
    NO_SOLUTION = "no-solution"


# what makes the residual undefined at a q: nonzero index, real-axis zero of the symbol,
# unresolved series, sigma_xx = 0, xi^+ = xi^-, census overflow, a node on a branch point
RESIDUAL_FAILURES = (NonzeroIndexError, RealAxisZeroError, QuadratureError,
                     DegenerateQuadraticError, DoubleRootError, CensusOverflowError,
                     BranchPointError)


def residual(problem: Problem, *, kernel: UnwrappedLogKernel | None = None) -> complex:
    """Dispersion residual at problem.q: F for single-sheet/interface,
    A(q) for two-sheet.  Raises ``NonzeroIndexError`` (carrying ``nu_k``)
    when nu_K != 0, where no discrete dispersion relation exists."""
    if kernel is None:
        kernel = build_log_kernel(problem)
    roots, phi_p, phi_m = kernel.root_constants()
    if problem.variant is Variant.TWO_SHEET:
        return complex(roots.c_plus * np.exp(-phi_p)
                       + roots.c_minus * np.exp(-phi_m))
    # Q_+(xi^+) = Phi(xi^+), Q_-(xi^-) = -Phi(xi^-)
    return complex(phi_p - phi_m - principal_log(-roots.c_plus / roots.c_minus))


def vm_isotropic_residual(problem: Problem, *, rtol: float = 1e-11) -> complex:
    """Independent tanh-form residual for sigma_xy = -sigma_yx, sigma_xx = sigma_yy:

        (i sigma_yx / sigma_xx) sg(q) tanh(T) + 1,
        T = (1/pi) Int_0^inf ln(1 + (i/2) sigma_xx q sg(q) sqrt(1+z^2)) / (1+z^2) dz.

    Used only to cross-validate the general residual on gyrotropic
    isotropic tensors; shares no code with the Q_+- quadrature path.
    """
    sig = problem.sigma_eff
    if abs(sig.xy + sig.yx) > 1e-13 * max(sig.frobenius, 1e-300) or \
            abs(sig.xx - sig.yy) > 1e-13 * max(sig.frobenius, 1e-300):
        raise ValueError("tanh form requires sigma_xy = -sigma_yx and sigma_xx = sigma_yy")
    q = complex(problem.q)
    sg = sign_q(q)
    amp = 0.5j * sig.xx * q * sg

    def integrand(z):
        z = np.asarray(z, dtype=float)
        root = np.sqrt(1.0 + z * z)
        return principal_log(1.0 + amp * root) / (1.0 + z * z)

    res = adaptive_gk_to_infinity(integrand, 60.0, rtol=rtol,
                                  initial=[0.5, 1.0, 2.0, 5.0, 15.0])
    t_val = res.value / math.pi
    return complex(1j * sig.yx / sig.xx * sg * np.tanh(t_val) + 1.0)


@dataclasses.dataclass(frozen=True)
class DispersionSolution:
    q: complex
    residual: complex
    iterations: int
    nu_k_at_solution: int | None
    classification: Classification
    validity: ValidityReport
    census: SpectrumReport | None = None
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.classification is Classification.DISCRETE_EPP


def solve(problem: Problem, q_guess: complex, *, tol: float = 1e-10,
          maxiter: int = 60) -> DispersionSolution:
    """Damped complex secant iteration on the dispersion residual, with
    Muller's three-point step near the root.

    Once three iterates exist, the step goes to the root nearer the last
    iterate of the quadratic through them (D. E. Muller, MTAC 10 (1956)
    208), but only when neither that step nor the secant step through the
    last two is longer than 0.3 |q|; otherwise it is the secant step,
    clamped at 0.3 |q|.  Either step is accepted only where the residual
    is defined and |F| is below its value at the last iterate; otherwise
    it is halved, up to seven times.  When no trial point lowers
    |F|, the defined one of least |F| is taken; when none is defined, the
    iteration path is blocked.  For two sheets this keeps the first step
    off the jumps of A(q), where a zero of the left sheet crosses the real
    axis and Q_+- change branch.

    Returns the root reached from the supplied guess (Re q keeps the
    guess's sign; the relation is not symmetric under q -> -q unless
    sigma_xy = sigma_yx, and crossing Re q = 0 is a failure).  On success
    nu_K = 0 at the root (a residual exists only there) and the bulk census
    at the root is attached.  A residual that cannot be evaluated (nonzero
    index, real-axis zero of the symbol, unresolved series, sigma_xx = 0,
    coincident roots) gives NO_SOLUTION and the reason.
    """
    q_guess = complex(q_guess)
    want_sign = sign_q(q_guess)
    validity = validity_check(problem.sigma)
    n_eval = 0
    index_flips: list[str] = []

    def f_at(q):
        nonlocal n_eval
        n_eval += 1
        kernel = build_log_kernel(problem.with_q(q))
        return residual(kernel.problem, kernel=kernel), kernel

    def no_solution(q, f, message, nu_k=None):
        return DispersionSolution(
            q=q, residual=f, iterations=n_eval, nu_k_at_solution=nu_k,
            classification=Classification.NO_SOLUTION, validity=validity,
            message=message)

    q0, q1 = q_guess, q_guess * (1.0 + 1e-4)
    try:
        f0, _ = f_at(q0)
        f1, kernel1 = f_at(q1)      # kernel1: the kernel of the residual at q1
    except RESIDUAL_FAILURES as exc:
        return no_solution(q_guess, complex(math.nan, math.nan),
                           f"residual undefined at the guess: {exc}",
                           getattr(exc, "nu_k", None))

    q_back = f_back = None      # the iterate before q0, once there is one
    it = 0
    while it < maxiter:
        if abs(f1) < tol:
            break
        denom = f1 - f0
        if denom == 0:
            return no_solution(q1, f1, "secant stalled (flat residual)")
        step = -f1 * (q1 - q0) / denom
        max_step = 0.3 * abs(q1)
        if q_back is not None and abs(step) <= max_step:
            three_point = _muller_step((q_back, q0, q1), (f_back, f0, f1))
            if abs(three_point) <= max_step:
                step = three_point
        if abs(step) > max_step:
            step *= max_step / abs(step)
        q_next = q1 + step
        # do not cross Re q = 0: sg(q) and the branch structure change there
        best = None
        for _ in range(8):
            if q_next.real * want_sign > 0:
                try:
                    f_next, kernel = f_at(q_next)
                except (NonzeroIndexError, RealAxisZeroError) as exc:
                    index_flips.append(f"q={q_next:.6g}: {exc}")
                except RESIDUAL_FAILURES as exc:
                    # the other failures (an unresolved series, coincident
                    # roots) are not an index boundary the step crossed;
                    # halving would only repeat them
                    return no_solution(q1, f1,
                                       f"residual undefined at q={q_next:.6g}: {exc}")
                else:
                    if best is None or abs(f_next) < abs(best[1]):
                        best = (q_next, f_next, kernel)
                    if abs(f_next) < abs(f1):
                        break
            step *= 0.5
            q_next = q1 + step
        if best is None:
            return no_solution(q1, f1,
                               "iteration path blocked: " + "; ".join(index_flips[-3:]))
        q_back, f_back = q0, f0
        q0, f0 = q1, f1
        q1, f1, kernel1 = best
        it += 1

    if abs(f1) >= tol:
        return no_solution(q1, f1, f"no convergence in {maxiter} iterations "
                                   f"(|F| = {abs(f1):.3e})")

    # f1 was evaluated, so nu_K = 0 at q1 (a residual raises otherwise); the
    # census is that of the first signed sheet (the right one for two sheets)
    census = kernel1.census[0]
    message = "index flips on path: " + "; ".join(index_flips) if index_flips else ""
    return DispersionSolution(
        q=q1, residual=f1, iterations=n_eval, nu_k_at_solution=0,
        classification=Classification.DISCRETE_EPP, validity=validity, census=census,
        message=message)


def _muller_step(qs, fs) -> complex:
    """Step from the last of three points to the root, nearer it, of the
    quadratic through (q_k, f_k); nan when the points do not define one
    (two of them coincide) or the quadratic has no root."""
    (q0, q1, q2), (f0, f1, f2) = qs, fs
    h1, h2 = q1 - q0, q2 - q1
    if h1 == 0 or h2 == 0 or h1 + h2 == 0:
        return complex(math.nan, math.nan)
    d1, d2 = (f1 - f0) / h1, (f2 - f1) / h2
    a = (d2 - d1) / (h1 + h2)
    b = a * h2 + d2
    root = complex(np.sqrt(b * b - 4.0 * a * f2))
    den = b + root if abs(b + root) >= abs(b - root) else b - root
    return -2.0 * f2 / den if den != 0 else complex(math.nan, math.nan)


def classify(problem: Problem, *, tol: float = 1e-8) -> Classification:
    """Region classification at fixed (q, omega).

    nu_K > 0: continuum of admissible q (CONTINUUM_REGION); nu_K < 0: no
    nontrivial solution (NO_SOLUTION); nu_K = 0: discrete EPP iff the
    residual vanishes at this q.  Where the residual is undefined
    (``RESIDUAL_FAILURES``) the result is NO_SOLUTION, as from ``solve``.
    """
    try:
        kernel = build_log_kernel(problem)
        if kernel.nu_k > 0:
            return Classification.CONTINUUM_REGION
        f = residual(problem, kernel=kernel)    # nu_K < 0 raises here
    except RESIDUAL_FAILURES:
        return Classification.NO_SOLUTION
    return (Classification.DISCRETE_EPP if abs(f) < tol
            else Classification.NO_SOLUTION)


def trace_curve(problem_factory, omegas, q_seed: complex, *, tol: float = 1e-10,
                maxiter: int = 60) -> list[DispersionSolution]:
    """Continuation in omega: each converged root seeds the next solve.

    ``problem_factory(omega)`` must return the Problem template at that
    frequency (its q field is replaced by the running guess).  A solve
    that fails leaves a break annotation and restarts from the original
    seed at the next frequency.
    """
    out: list[DispersionSolution] = []
    guess = complex(q_seed)
    for omega in omegas:
        problem = problem_factory(omega)
        sol = solve(problem, guess, tol=tol, maxiter=maxiter)
        if sol.converged:
            guess = sol.q
        else:
            sol = dataclasses.replace(
                sol, message=(sol.message + "; continuation broken, reseeding")
                .lstrip("; "))
            guess = complex(q_seed)
        out.append(sol)
    return out


# ---------------------------------------------------------------------------
# Long-wavelength expansion
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class LongwaveParams:
    """Scaled variables of the small-q expansion: q_breve and alpha^+- with
    xi^+- = q alpha^+-."""

    q_breve: complex
    alpha_plus: complex
    alpha_minus: complex
    sg: int

    @classmethod
    def from_problem(cls, problem: Problem) -> "LongwaveParams":
        q = complex(problem.q)
        roots = quadratic_roots(problem.sigma, q)
        sg = sign_q(q)
        return cls(
            q_breve=0.5j * problem.sigma_eff.xx * q * sg,
            alpha_plus=roots.xi_plus / q,
            alpha_minus=roots.xi_minus / q,
            sg=sg,
        )


def f_pm(kernel: UnwrappedLogKernel) -> tuple[complex, complex]:
    """(f^+, f^-) with f^+- = +-2 pi i sg(q) Q_+-(xi^+-) = 2 pi i sg(q) Phi(xi^+-),
    read from the kernel's series (``root_constants``)."""
    _, phi_p, phi_m = kernel.root_constants()
    factor = 2j * math.pi * sign_q(kernel.problem.q)
    return factor * phi_p, factor * phi_m


def f_pm_mellin(lw: LongwaveParams) -> tuple[complex, complex]:
    """Leading small-q_breve asymptotics from the Mellin residue at s = 2:

    f^+- ~ -2 q_breve {alpha^-+ ln(2/q_breve) - alpha^+-}.

    The formula is stated for Re q > 0 with the superscripts switched for
    Re q < 0 when the alpha labels are held fixed; here the labels follow
    the half-plane assignment (alpha^+- themselves swap under q -> -q), so
    the same expression applies for either sign and the reflection rule
    f^+-(-q) = f^-+(q) comes out automatically.  Verified against the
    series values (``f_pm``) for both signs of Re q.
    """
    qb = lw.q_breve
    big_l = complex(principal_log(2.0 / qb))
    ap, am = lw.alpha_plus, lw.alpha_minus
    f_plus = -2.0 * qb * (am * big_l - ap)
    f_minus = -2.0 * qb * (ap * big_l - am)
    return complex(f_plus), complex(f_minus)


def longwave_q(sigma: ConductivityTensor, medium: AmbientMedium | None = None,
               *, eps_sum: float = 2.0, tol: float = 1e-13,
               maxiter: int = 200) -> complex:
    """Small-|q_breve| EPP wavenumber from the log-transcendental relation

        -(1/2 pi) [sigma_d q / eps_sum] [ln(2/q_breve) + 1] = 1,
        q_breve = i sigma_xx q sg(q) / eps_sum,

    (nondimensional units; eps_sum = eps_r1 + eps_r2 = 2 in a uniform
    medium), solved by fixed-point iteration on the log factor.  Requires
    sigma_xy != sigma_yx; only sigma_xx and sigma_xy - sigma_yx enter.

    A dimensional tensor is nondimensionalized through ``medium`` and the
    returned wavenumber is then in rad/m.  An iteration that has not met
    ``tol`` after ``maxiter`` steps (it can wander) raises ``ValueError``.
    """
    dimensional = not sigma.nondimensional
    if dimensional:
        if medium is None:
            raise ValueError("dimensional tensor requires a medium")
        sigma = nondimensionalize(sigma, medium)
    sig_d = complex(sigma.off_diff)
    if sig_d == 0:
        raise ValueError(
            "sigma_xy = sigma_yx: no long-wavelength expansion; "
            "use the general solver (solve) for this regime")
    if abs(sig_d / sigma.xx) < 1.0:
        warnings.warn(
            "|sigma_xy - sigma_yx| < |sigma_xx|: outside the long-wavelength "
            "regime, result may be inaccurate", stacklevel=2)

    log_factor = 5.0 + 0.0j
    q = -2.0 * math.pi * eps_sum / (sig_d * (log_factor + 1.0))
    for _ in range(maxiter):
        sg = sign_q(q)
        q_breve = 1j * complex(sigma.xx) * q * sg / eps_sum
        log_factor = complex(principal_log(2.0 / q_breve))
        q_new = -2.0 * math.pi * eps_sum / (sig_d * (log_factor + 1.0))
        step, q = abs(q_new - q), q_new
        if step <= tol * abs(q):
            break
    else:
        raise ValueError(f"long-wavelength iteration not converged in {maxiter} iterations")
    if dimensional:
        return complex(q) * medium.k0
    return complex(q)
