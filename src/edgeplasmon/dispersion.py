"""EPP dispersion relation: residual, complex root solving, classification,
and the long-wavelength asymptotics with a direct-quadrature oracle.

The discrete dispersion relation (zero-index symbols only) is

    F(q) = Q_+(xi^+) + Q_-(xi^-) - ln(-C^+/C^-) = 0,

with the principal log branch (which sends -C^+/C^- = 1 to 0, as the
long-wavelength limit requires).  For two coplanar sheets the residual is
the exponential form A(q) = C^+ e^{-Q_+(xi^+)} + C^- e^{Q_-(xi^-)}, which
avoids re-introducing a log branch.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import warnings

import numpy as np

from .branches import principal_log, sign_q
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
    DegenerateQuadraticError,
    RealAxisZeroError,
    SpectrumReport,
    bulk_zeros,
    quadratic_roots,
)
from .wiener_hopf import NonzeroIndexError, UnwrappedLogKernel, build_log_kernel

__all__ = [
    "Classification",
    "DispersionSolution",
    "IndexClassificationError",
    "LongwaveParams",
    "classify",
    "f_pm_direct",
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


class IndexClassificationError(RuntimeError):
    """The dispersion relation does not exist at this (q, omega): nu_K != 0."""

    def __init__(self, nu_k: int):
        super().__init__(f"nu_K = {nu_k} != 0: no discrete dispersion relation here")
        self.nu_k = nu_k


# what makes the residual undefined at a q: nonzero index, real-axis zero
# of the symbol, unresolved series, sigma_xx = 0
RESIDUAL_FAILURES = (IndexClassificationError, RealAxisZeroError, QuadratureError,
                     DegenerateQuadraticError)


def residual(problem: Problem, *, kernel: UnwrappedLogKernel | None = None) -> complex:
    """Dispersion residual at problem.q: F for single-sheet/interface,
    A(q) for two-sheet.  Raises IndexClassificationError when nu_K != 0."""
    if kernel is None:
        kernel = build_log_kernel(problem)
    try:
        roots, coeffs, phi_p, phi_m = kernel.root_constants()
    except NonzeroIndexError as exc:
        raise IndexClassificationError(exc.nu_k) from exc
    if problem.variant is Variant.TWO_SHEET:
        return complex(coeffs.c_plus * np.exp(-phi_p.value)
                       + coeffs.c_minus * np.exp(-phi_m.value))
    # Q_+(xi^+) = Phi(xi^+), Q_-(xi^-) = -Phi(xi^-)
    return complex(phi_p.value - phi_m.value
                   - principal_log(-coeffs.c_plus / coeffs.c_minus))


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


def _validity_of(problem: Problem) -> ValidityReport:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validity_check(problem.sigma)


def solve(problem: Problem, q_guess: complex, *, tol: float = 1e-10,
          maxiter: int = 60) -> DispersionSolution:
    """Damped complex secant iteration on the dispersion residual.

    Returns the root reached from the supplied guess (Re q keeps the
    guess's sign; the relation is not symmetric under q -> -q unless
    sigma_xy = sigma_yx, and crossing Re q = 0 is a failure).  On success
    the index and the bulk census are re-verified at the root.  A residual
    that cannot be evaluated (nonzero index, real-axis zero of the symbol,
    unresolved series, sigma_xx = 0) gives NO_SOLUTION and the reason.
    """
    q_guess = complex(q_guess)
    want_sign = sign_q(q_guess)
    validity = _validity_of(problem)

    kernel = None

    def f_at(q):
        nonlocal kernel
        kernel = build_log_kernel(problem.with_q(q))
        return residual(kernel.problem, kernel=kernel)

    n_eval = 0
    index_flips: list[str] = []

    def f_guarded(q):
        nonlocal n_eval
        n_eval += 1
        return f_at(q)

    q0, q1 = q_guess, q_guess * (1.0 + 1e-4)
    try:
        f0 = f_guarded(q0)
        f1 = f_guarded(q1)
    except RESIDUAL_FAILURES as exc:
        return DispersionSolution(
            q=q_guess, residual=complex(math.nan, math.nan), iterations=n_eval,
            nu_k_at_solution=getattr(exc, "nu_k", None),
            classification=Classification.NO_SOLUTION, validity=validity,
            message=f"residual undefined at the guess: {exc}")

    it = 0
    while it < maxiter:
        if abs(f1) < tol:
            break
        denom = f1 - f0
        if denom == 0:
            return DispersionSolution(
                q=q1, residual=f1, iterations=n_eval, nu_k_at_solution=None,
                classification=Classification.NO_SOLUTION, validity=validity,
                message="secant stalled (flat residual)")
        step = -f1 * (q1 - q0) / denom
        max_step = 0.3 * abs(q1)
        if abs(step) > max_step:
            step *= max_step / abs(step)
        q_next = q1 + step
        # do not cross Re q = 0: sg(q) and the branch structure change there
        tries = 0
        while tries < 8:
            if q_next.real * want_sign > 0:
                try:
                    f_next = f_guarded(q_next)
                    break
                except (IndexClassificationError, RealAxisZeroError) as exc:
                    index_flips.append(f"q={q_next:.6g}: {exc}")
                except QuadratureError as exc:
                    # an unresolved series means the residual cannot be
                    # resolved here, not that the step crossed an index
                    # boundary; halving would only repeat it
                    return DispersionSolution(
                        q=q1, residual=f1, iterations=n_eval, nu_k_at_solution=None,
                        classification=Classification.NO_SOLUTION, validity=validity,
                        message=f"residual undefined at q={q_next:.6g}: {exc}")
            step *= 0.5
            q_next = q1 + step
            tries += 1
        else:
            return DispersionSolution(
                q=q1, residual=f1, iterations=n_eval, nu_k_at_solution=None,
                classification=Classification.NO_SOLUTION, validity=validity,
                message="iteration path blocked: " + "; ".join(index_flips[-3:]))
        q0, f0, q1, f1 = q1, f1, q_next, f_next
        it += 1

    if abs(f1) >= tol:
        return DispersionSolution(
            q=q1, residual=f1, iterations=n_eval, nu_k_at_solution=None,
            classification=Classification.NO_SOLUTION, validity=validity,
            message=f"no convergence in {maxiter} iterations (|F| = {abs(f1):.3e})")

    # re-verify index and census at the root, on the kernel of the last
    # residual, which was evaluated at q1
    root_problem = kernel.problem
    nu = kernel.nu_k
    if problem.variant is Variant.TWO_SHEET:
        _, right = root_problem.sides()
        census = bulk_zeros(right)
    else:
        census = bulk_zeros(root_problem)
    classification = (Classification.DISCRETE_EPP if nu == 0
                      else Classification.NO_SOLUTION)
    message = "" if nu == 0 else f"converged but nu_K = {nu} at the root"
    if index_flips:
        message = (message + "; " if message else "") + \
            "index flips on path: " + "; ".join(index_flips)
    return DispersionSolution(
        q=q1, residual=f1, iterations=n_eval, nu_k_at_solution=nu,
        classification=classification, validity=validity, census=census,
        message=message)


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
    """Scaled variables of the small-q expansion: q_breve, alpha^+- with
    xi^+- = q alpha^+-, and the rational factor A(zeta)."""

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

    def a_of(self, zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return ((zeta - self.alpha_plus) * (zeta - self.alpha_minus)
                / np.sqrt(1.0 + zeta * zeta))


def _f_single(lw: LongwaveParams, alpha: complex, rtol: float) -> tuple[complex, float]:
    """One of the f integrals: Int_0^inf {z[lg(z)-lg(-z)] + a[lg(z)+lg(-z)]}
    / (z^2 - a^2) dz with lg(z) = Log(1 + q_breve A(z))."""
    qb = lw.q_breve

    def num(z):
        lg_p = principal_log(1.0 + qb * lw.a_of(z))
        lg_m = principal_log(1.0 + qb * lw.a_of(-z))
        return z * (lg_p - lg_m) + alpha * (lg_p + lg_m)

    # constant subtraction when the pole z = +-alpha approaches the ray
    pole = alpha if alpha.real >= 0 else -alpha
    subtract = abs(pole.imag) < 0.25 * (1.0 + abs(pole.real))
    c = complex(num(np.array([abs(pole.real)]))[0]) if subtract else 0.0

    def integrand(z):
        z = np.asarray(z, dtype=float)
        return (num(z) - c) / (z * z - alpha * alpha)

    z_big = max(10.0, 4.0 * abs(alpha)) / max(abs(qb), 1e-6)
    z_big = min(z_big, 1e8)
    seeds = np.array(sorted({0.5, 1.0, 2.0, abs(alpha), 2 * abs(alpha),
                             abs(pole.real) or 0.5,
                             min(1.0 / max(abs(qb), 1e-12), 0.5 * z_big)}))
    res = adaptive_gk_to_infinity(integrand, z_big, rtol=rtol,
                                  initial=seeds[seeds < z_big])
    value = res.value
    if subtract:
        if alpha.imag == 0:
            raise ValueError("alpha exactly on the ray; integral needs deformation")
        value += c * (1j * math.pi * math.copysign(1.0, alpha.imag) / (2.0 * alpha))
    return complex(value), res.error


def f_pm_direct(lw: LongwaveParams, *, rtol: float = 1e-10) -> tuple[complex, complex]:
    """(f^+, f^-) by direct quadrature; f^+- = +-2 pi i sg(q) Q_+-(xi^+-)."""
    fp, _ = _f_single(lw, lw.alpha_plus, rtol)
    fm, _ = _f_single(lw, lw.alpha_minus, rtol)
    return fp, fm


def f_pm_mellin(lw: LongwaveParams) -> tuple[complex, complex]:
    """Leading small-q_breve asymptotics from the Mellin residue at s = 2:

    f^+- ~ -2 q_breve {alpha^-+ ln(2/q_breve) - alpha^+-}.

    The formula is stated for Re q > 0 with the superscripts switched for
    Re q < 0 when the alpha labels are held fixed; here the labels follow
    the half-plane assignment (alpha^+- themselves swap under q -> -q), so
    the same expression applies for either sign and the reflection rule
    f^+-(-q) = f^-+(q) comes out automatically.  Verified against the
    direct quadrature for both signs of Re q.
    """
    qb = lw.q_breve
    big_l = complex(principal_log(2.0 / qb))
    ap, am = lw.alpha_plus, lw.alpha_minus
    f_plus = -2.0 * qb * (am * big_l - ap)
    f_minus = -2.0 * qb * (ap * big_l - am)
    return complex(f_plus), complex(f_minus)


def q_sum_asymptotic(lw: LongwaveParams) -> complex:
    """Q_+(xi^+) + Q_-(xi^-) ~ (1/i pi) q_breve (alpha^+ - alpha^-)[ln(2/q_breve) + 1]."""
    fp, fm = f_pm_mellin(lw)
    return complex(lw.sg * (fp - fm) / (2j * math.pi))


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
    returned wavenumber is then in rad/m.
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
        if abs(q_new - q) <= tol * abs(q_new):
            q = q_new
            break
        q = q_new
    if dimensional:
        return complex(q) * medium.k0
    return complex(q)
