"""Zeros of the symbol: quadratic roots xi^+- with their splitting
coefficients C^+-, the bulk-SPP zero census on both Riemann sheets, and the winding index.

The index nu_K is the winding number of P(xi) along the real axis.  The
census counts zeros of P on the first sheet (N^+/N^- by half-plane) and on
the second sheet (N*^+/N*^-).  P P* = 1 + num^2/(4(xi^2 + q^2)) has the
census quartic as numerator and its poles +-iq one in each half-plane, so
nu_K + nu* = (N^+ - N^-)/2 + (N*^+ - N*^-)/2, nu* the index of P*, wherever
no zero is marginal: the census conjecture (nu_K alone) is nu* = 0.
``ConjectureResult.nu_star`` reads nu* from that identity, so an index row
needs one phase pass, on P; the phase pass on P* (``dual_winding_index``)
serves only rows with a marginal zero.

The census zeros also tell where the winding can change, so they seed
the phase pass: 256 nodes uniform in theta, xi = scale tan(theta/2),
plus nodes at each zero's real part and its distance from the axis on
either side.  A census computed once per problem serves both.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

from .branches import Sheet, sheet_sqrt, sign_q, unwrapped_angle
from .conductivity import ConductivityTensor
from .kernel import Problem, Variant, _compose, p_of_xi

__all__ = [
    "AssignmentRule",
    "ConjectureResult",
    "DegenerateQuadraticError",
    "DoubleRootError",
    "HalfPlane",
    "QuadraticRoots",
    "RealAxisZeroError",
    "SpectrumReport",
    "ZeroRecord",
    "bulk_zeros",
    "conjecture_check",
    "dual_winding_index",
    "phase_winding",
    "problem_scale",
    "quadratic_roots",
    "unwrapped_phase_grid",
    "winding_index",
]

# |Im xi| below this (relative to |xi|) means the root pair sits on the real
# axis and the half-plane assignment falls back to the sign of Re.
IM_TIE_BAND = 1e-9

REAL_AXIS_MIN_MODULUS = 1e-8

# a phase grid refined past this many nodes means a zero next to the axis
PHASE_GRID_MAX_NODES = 400_000

MARGINAL_BAND = 1e-8
CLASSIFY_RESIDUAL = 1e-6


class DegenerateQuadraticError(ValueError):
    """sigma_xx = 0: the formulation requires a nondegenerate quadratic."""


class DoubleRootError(ValueError):
    """Discriminant root D = 0: xi^+ = xi^- and the splitting is singular."""


class RealAxisZeroError(ValueError):
    """The symbol vanishes on the integration contour; index undefined."""


class AssignmentRule(enum.Enum):
    """How the xi^+/xi^- labels were decided.

    BY_IM: xi^+ is the upper-half-plane root.  This is the generic rule:
    Q_+ is evaluated at xi^+ and is analytic in the upper half-plane, and
    the x > 0 residue calculus closes around xi^+ there.  (The sign of
    Re xi alone does not label the roots: both can share a Re sign.)
    BY_RE is the fallback when both roots sit on the real axis within the
    tie band.
    """

    BY_IM = "by-im"
    BY_RE = "by-re"


@dataclasses.dataclass(frozen=True)
class QuadraticRoots:
    """Roots of sigma_xx xi^2 + (sigma_xy+sigma_yx) q xi + sigma_yy q^2 and
    their splitting coefficients.

    ``disc`` is the discriminant root D actually used by the assignment;
    C^+- = (1/2){1 +- sg(q) (s_xy - s_yx)/D} are built from this same
    value, so each C^+- stays paired with its xi^+-.  C^- is 1 - C^+, so
    the pair sums to one exactly in floating point.
    """

    xi_plus: complex
    xi_minus: complex
    disc: complex
    rule: AssignmentRule
    c_plus: complex
    c_minus: complex


def quadratic_roots(sigma: ConductivityTensor, q: complex) -> QuadraticRoots:
    """xi^+- with a deterministic half-plane assignment, and C^+-.

    xi^+- = -q[(s_xy+s_yx) +- sg(q) D]/(2 s_xx),
    D = sqrt((s_xy+s_yx)^2 - 4 s_xx s_yy).

    The branch of D is fixed by requiring Im xi^+ > 0 > Im xi^-; only when
    both roots are within IM_TIE_BAND of the real axis does the sign of Re
    decide instead.  A branch flip of D swaps the labels and is recorded
    through ``disc``, from which C^+- are computed.
    """
    q = complex(q)
    sg = sign_q(q)
    sxx = complex(sigma.xx)
    if sxx == 0:
        raise DegenerateQuadraticError(
            "degenerate quadratic; formulation requires sigma_xx != 0")
    s_plus = complex(sigma.off_sum)
    disc = np.sqrt(complex(s_plus * s_plus - 4.0 * sxx * complex(sigma.yy)))
    disc = complex(disc)
    if disc == 0:
        raise DoubleRootError("coincident roots xi^+ = xi^-; splitting singular")

    def pair(d):
        return (-q * (s_plus + sg * d) / (2.0 * sxx),
                -q * (s_plus - sg * d) / (2.0 * sxx))

    xp, xm = pair(disc)
    scale = max(abs(xp), abs(xm))
    if abs(xp.imag) <= IM_TIE_BAND * scale and abs(xm.imag) <= IM_TIE_BAND * scale:
        rule = AssignmentRule.BY_RE
        if xp.real < xm.real:
            disc = -disc
            xp, xm = pair(disc)
        if not xp.real > xm.real:
            raise DoubleRootError("roots not separable by Re or Im sign")
    else:
        rule = AssignmentRule.BY_IM
        if xp.imag < xm.imag:
            disc = -disc
            xp, xm = pair(disc)
    c_plus = 0.5 * (1.0 + sg * complex(sigma.off_diff) / disc)
    return QuadraticRoots(xi_plus=xp, xi_minus=xm, disc=disc, rule=rule,
                          c_plus=c_plus, c_minus=1.0 - c_plus)


# ---------------------------------------------------------------------------
# Winding index
# ---------------------------------------------------------------------------


def _roots_or_none(sigma: ConductivityTensor, q: complex):
    try:
        return quadratic_roots(sigma, q)
    except (DegenerateQuadraticError, DoubleRootError):
        return None


def problem_scale(problem: Problem) -> float:
    """Characteristic wavenumber scale: max of |q|, |xi^+-|, |k_sp|, 1."""
    scale = max(abs(problem.q), 1.0)
    for _, prob in problem.signed_sheets():
        sig = prob.sigma_eff
        if sig.frobenius == 0:
            continue
        r = _roots_or_none(sig, prob.q)
        if r is not None:
            scale = max(scale, abs(r.xi_plus), abs(r.xi_minus))
        if sig.xx != 0:
            scale = max(scale, abs(2j / sig.xx))
    return scale


# the phase grid spans |xi| <= PHASE_GRID_END times the problem scale and
# starts from PHASE_GRID_START nodes uniform in theta, xi = scale tan(theta/2)
PHASE_GRID_END = 100.0
PHASE_GRID_START = 256

# start nodes at Re xi_z + |Im xi_z| times these, around each census zero
ZERO_SEED_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


@functools.cache
def _unit_phase_grid() -> np.ndarray:
    """Starting nodes of ``unwrapped_phase_grid`` per unit scale: the
    PHASE_GRID_START nodes tan(theta_j/2), theta_j = pi (2j + 1 - N)/N, inside
    +-PHASE_GRID_END, then +-PHASE_GRID_END as the end nodes (254 + 2).
    Uniform in theta, they are dense where |xi| is near the scale and
    sparse in the tails, where P varies on the scale of |xi| itself.  Built
    on first use, so importing the package does no numerical work."""
    n = PHASE_GRID_START
    inner = np.tan(0.5 * math.pi * (2.0 * np.arange(n) + 1.0 - n) / n)
    inner = inner[np.abs(inner) < PHASE_GRID_END]
    grid = np.concatenate([[-PHASE_GRID_END], inner, [PHASE_GRID_END]])
    grid.flags.writeable = False
    return grid


def unwrapped_phase_grid(
    pfun,
    scale: float,
    *,
    max_step_rad: float = 0.5 * math.pi,
    zeros=(),
):
    """Sample arg of ``pfun`` on |xi| <= 100 ``scale``, continuously unwrapped.

    ``pfun`` must be vectorized over a real array.  The start nodes are the
    unit grid times ``scale``, plus Re z + |Im z| {0, +-1, +-2} around each
    of the complex ``zeros`` with |Re z| below the end (the census zeros of
    the symbol: a feature as narrow as a zero's distance from the axis then
    has nodes on it).  The grid is refined until adjacent phase steps are
    below ``max_step_rad`` and log-modulus steps below 0.7, which both makes
    the unwrap (``unwrapped_angle``) exact and lets callers pin log
    branches by interpolation.  Returns (nodes, unwrapped_phase,
    values_at_nodes).
    """
    xs = scale * _unit_phase_grid()
    z = np.asarray(zeros, dtype=complex)
    z = z[np.abs(z.real) < xs[-1]]
    if z.size:
        seeds = (z.real[:, None] + np.abs(z.imag)[:, None] * ZERO_SEED_OFFSETS).ravel()
        xs = np.unique(np.concatenate([xs, seeds[np.abs(seeds) < xs[-1]]]))
    vals = pfun(xs)
    while True:
        mod = np.abs(vals)
        if mod.min() < REAL_AXIS_MIN_MODULUS:
            raise RealAxisZeroError(
                f"symbol modulus {mod.min():.3e} on the real axis; "
                "index/splitting undefined (zero on contour)")
        ang = unwrapped_angle(vals)
        bad = np.abs(ang[1:] - ang[:-1]) > max_step_rad
        # refine through sharp modulus dips too, where the phase turns fastest
        log_mod = np.log(mod)
        bad |= np.abs(log_mod[1:] - log_mod[:-1]) > 0.7
        if not bad.any():
            break
        if xs.size > PHASE_GRID_MAX_NODES:
            raise RealAxisZeroError(
                "phase refinement diverged; symbol too close to a real-axis zero")
        # only the midpoints are new: evaluate them and merge in order
        mids = 0.5 * (xs[:-1][bad] + xs[1:][bad])
        xs = np.concatenate([xs, mids])
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        vals = np.concatenate([vals, pfun(mids)])[order]
    return xs, ang, vals


def _census_zeros(problem: Problem) -> np.ndarray:
    """The roots of every signed sheet's census quartic (``bulk_zeros``
    without their attribution): the seeds of the phase grid.  A sheet with
    sigma_xx = 0 has no census and adds none."""
    out = [_census_quartic(prob) for _, prob in problem.signed_sheets()
           if prob.quad_coeffs()[0] != 0]
    return np.concatenate(out) if out else np.zeros(0, dtype=complex)


def phase_winding(problem: Problem, sheet: Sheet, *, zeros=None):
    """arg P on the given sheet, unwrapped on [-m, m] with m = 100 times
    the problem scale, and its winding number.

    ``zeros`` are the census zeros of every signed sheet, which seed the
    phase grid (``unwrapped_phase_grid``); when None they are solved here
    (``_census_zeros``).  Returns (nodes, unwrapped_phase, winding, scale).
    Raises RealAxisZeroError when P has a zero or a pole on the axis, or
    when the phase change is not close to a whole number of turns (tail not
    converged, or a zero near the axis).
    """
    scale = problem_scale(problem)
    if zeros is None:
        zeros = _census_zeros(problem)

    def pfun(x):
        try:
            return p_of_xi(problem, x, sheet)
        except ZeroDivisionError as exc:
            # a pole of P^R/P^L on the axis leaves the index as undefined as a zero
            raise RealAxisZeroError(f"{exc}; index undefined (pole on contour)") from exc

    xs, ang, _ = unwrapped_phase_grid(pfun, scale, zeros=zeros)
    turns = (ang[-1] - ang[0]) / (2.0 * math.pi)
    nu = round(turns)
    if abs(turns - nu) > 0.2:
        raise RealAxisZeroError(
            f"phase change {turns:.3f} turns is not close to an integer; "
            "tail not converged or symbol near a real-axis zero")
    return xs, ang, int(nu), scale


def winding_index(problem: Problem) -> int:
    """Krein index: winding number of P(xi) (the ratio P^R/P^L for two sheets)."""
    return phase_winding(problem, Sheet.FIRST)[2]


def dual_winding_index(problem: Problem) -> int:
    """Winding of the second-sheet (dual) symbol P*."""
    return phase_winding(problem, Sheet.SECOND)[2]


# ---------------------------------------------------------------------------
# Bulk-SPP zero census
# ---------------------------------------------------------------------------


class HalfPlane(enum.Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclasses.dataclass(frozen=True)
class ZeroRecord:
    location: complex
    sheet: Sheet
    half_plane: HalfPlane
    marginal: bool
    residual: float


@dataclasses.dataclass(frozen=True)
class SpectrumReport:
    zeros: tuple[ZeroRecord, ...]
    n_plus: int
    n_minus: int
    n_star_plus: int
    n_star_minus: int
    n_marginal: int

    @property
    def conjecture_rhs(self) -> float:
        return (0.5 * (self.n_plus - self.n_minus)
                + 0.5 * (self.n_star_plus - self.n_star_minus))

    def counts(self) -> tuple[int, int, int, int]:
        return (self.n_plus, self.n_minus, self.n_star_plus, self.n_star_minus)

    def upper_first_sheet(self) -> tuple[ZeroRecord, ...]:
        return tuple(z for z in self.zeros
                     if z.sheet is Sheet.FIRST and z.half_plane is HalfPlane.UPPER
                     and not z.marginal)


def _census_quartic(problem: Problem) -> np.ndarray:
    """Roots of (a xi^2 + b xi + c)^2 + 4 xi^2 + 4 q^2 (``quad_coeffs``,
    a != 0): the eigenvalues of the companion matrix that ``np.roots``
    builds, without its coefficient trimming."""
    a, b, c = problem.quad_coeffs()
    q = complex(problem.q)
    coeffs = np.array([a * a, 2.0 * a * b, b * b + 2.0 * a * c + 4.0, 2.0 * b * c,
                       c * c + 4.0 * q * q])
    companion = np.eye(4, k=-1, dtype=complex)
    companion[0, :] = -coeffs[1:] / coeffs[0]
    return np.linalg.eigvals(companion)


def bulk_zeros(problem: Problem) -> SpectrumReport:
    """Census of the zeros of P (first sheet) and P* (second sheet).

    Clearing the square root from P = 0 gives the quartic
    N_eff(xi)^2 + 4 (xi^2 + q^2) = 0 whose roots are exactly the zeros of
    P * P*; each root is attributed to the sheet whose symbol it satisfies
    better, P or its dual P* (the root w taken as -w), all roots at once.
    Roots within MARGINAL_BAND of the real axis or of the branch points
    +-iq are flagged marginal and excluded from the counts.
    """
    if problem.variant is Variant.TWO_SHEET:
        raise ValueError("two-sheet census applies per side; use problem.signed_sheets()")
    q = complex(problem.q)
    a, b, c = problem.quad_coeffs()
    if a == 0 and b == 0 and c == 0:
        return SpectrumReport(zeros=(), n_plus=0, n_minus=0,
                              n_star_plus=0, n_star_minus=0, n_marginal=0)
    if a == 0:
        raise DegenerateQuadraticError(
            "degenerate quadratic; formulation requires sigma_xx != 0")
    roots = _census_quartic(problem)

    band = MARGINAL_BAND * np.maximum(np.abs(roots), 1.0)
    marginal = ((np.abs(roots.imag) < band) | (np.abs(roots - 1j * q) < band)
                | (np.abs(roots + 1j * q) < band))
    # |P| and |P*| at the other roots, from one root w (P* takes -w); a
    # marginal root may sit on +-iq, where the square root is not defined,
    # so it keeps a nan residual
    res = np.full((2, roots.size), math.nan)
    if not marginal.all():
        xi = roots[~marginal]
        w = sheet_sqrt(xi, q, Sheet.FIRST)
        both = _compose(problem, np.concatenate([xi, xi]), np.concatenate([w, -w]))[0]
        res[:, ~marginal] = np.abs(both).reshape(2, -1)
    second = res[1] < res[0]
    residual = np.minimum(res[0], res[1])
    # a sound quartic root always satisfies one sheet; treat numerical
    # failures as marginal rather than miscounting
    flagged = ~(residual <= CLASSIFY_RESIDUAL)
    upper = flagged | (roots.imag > 0)
    records = tuple(
        ZeroRecord(r, Sheet.SECOND if s2 else Sheet.FIRST,
                   HalfPlane.UPPER if up else HalfPlane.LOWER, f, e)
        for r, s2, up, f, e in zip(roots.tolist(), second.tolist(), upper.tolist(),
                                   flagged.tolist(), residual.tolist()))
    # (N+, N-, N*+, N*-): the report's fields in order
    census = np.bincount((2 * second + ~upper)[~flagged], minlength=4).tolist()
    return SpectrumReport(records, *census, n_marginal=int(np.count_nonzero(flagged)))


@dataclasses.dataclass(frozen=True)
class ConjectureResult:
    nu_k: int
    rhs: float
    agrees: bool | None  # None when marginal zeros make the census indeterminate
    report: SpectrumReport
    n_marginal: int      # marginal zeros of all sheets; nonzero makes agrees None

    @property
    def nu_star(self) -> int | None:
        """Index of the dual symbol P* from nu_K + nu* = rhs; None when a
        marginal zero leaves the census short (``dual_winding_index`` then).
        With all four roots of each quartic counted, rhs is an integer."""
        return None if self.n_marginal else int(self.rhs) - self.nu_k


def conjecture_check(problem: Problem) -> ConjectureResult:
    """Compare the winding index against the half-integer census combination.

    The combination is the signed sum over the sheets (right minus left for
    two sheets); ``report`` is the census of the first signed sheet, and
    ``n_marginal`` counts the marginal zeros of every sheet.  The census
    comes first: its zeros seed the phase pass.
    """
    reports = [(sign, bulk_zeros(prob)) for sign, prob in problem.signed_sheets()]
    nu = phase_winding(problem, Sheet.FIRST,
                       zeros=[z.location for _, rep in reports for z in rep.zeros])[2]
    rhs = sum(sign * rep.conjecture_rhs for sign, rep in reports)
    marginal = sum(rep.n_marginal for _, rep in reports)
    agrees = None if marginal else rhs == nu
    return ConjectureResult(nu_k=nu, rhs=rhs, agrees=agrees, report=reports[0][1],
                            n_marginal=marginal)
