"""The Wiener-Hopf symbol P(xi; q) and its variants.

For a homogeneous sheet in nondimensional units (lengths in 1/k0,
conductivities in sqrt(eps/mu)) the symbol reads

    P(xi) = 1 + (i/2) f [s_xx xi^2 + (s_xy + s_yx) q xi + s_yy q^2]
                    / sqrt(xi^2 + q^2),        Re sqrt > 0,

where f is a kernel factor: 1 for a sheet in a uniform medium, and
2/(eps_r1 + eps_r2) when the sheet sits at the interface of two dielectric
half-spaces (then k0 and the conductivity scale refer to vacuum).  The
second Riemann sheet (Re sqrt < 0) gives the dual symbol P*.

Every symbol is one product over signed sheets (``Problem.signed_sheets``),

    P = Prod_sheets (1 + (i/2) num_sheet / w)^sign,

with one root w for all sheets: the sheet itself with sign +1, or for two
coplanar sheets the right one (+1) and the left one (-1), so P = P^R / P^L.
A sheet whose numerator is zero (a pure Hall sheet among them) has the
factor 1; the census (``spectrum._census``) refuses s_xx = 0 otherwise.
``_compose`` is the one evaluation of that product, from the scalars of
``symbol_terms``: for one problem in ``p_of_xi`` and ``dp_dxi``, and for a
block of problems, each point with its own problem's scalars, in the
``spectrum`` block passes.
"""

from __future__ import annotations

import dataclasses
import enum
import functools

import numpy as np

from .branches import Sheet, sheet_root, sheet_sqrt
from .conductivity import ConductivityTensor

__all__ = ["Problem", "Variant", "dp_dxi", "khat", "p_of_xi"]


# the one message of a sheet with s_xx = 0 and a nonzero numerator
SIGMA_XX_ZERO = "sigma_xx = 0: degenerate quadratic; the symbol has no ln|xi| tail law"


class DegenerateQuadraticError(ValueError):
    """sigma_xx = 0: the formulation requires a nondegenerate quadratic."""


class Variant(enum.Enum):
    SINGLE_SHEET = "single"
    INTERFACE = "interface"
    TWO_SHEET = "two-sheet"


@dataclasses.dataclass(frozen=True)
class Problem:
    """One (sheet configuration, q) evaluation point, fully nondimensional.

    ``sigma`` is the tensor entering the symbol: the sheet tensor for
    SINGLE_SHEET / INTERFACE, the difference sigma_R - sigma_L for
    TWO_SHEET (that difference is what xi^+-, C^+- and the splitting see).
    """

    sigma: ConductivityTensor
    q: complex
    variant: Variant = Variant.SINGLE_SHEET
    kernel_factor: float = 1.0
    sigma_left: ConductivityTensor | None = None
    sigma_right: ConductivityTensor | None = None

    def __post_init__(self):
        if complex(self.q).real == 0.0:
            raise ValueError("Re q = 0: sg(q) undefined, supply a nonzero real part")
        if not self.kernel_factor > 0:
            raise ValueError("kernel_factor must be positive")
        if not self.sigma.nondimensional:
            raise ValueError("Problem requires a nondimensional tensor")
        if self.variant is Variant.TWO_SHEET:
            if self.sigma_left is None or self.sigma_right is None:
                raise ValueError("two-sheet problem requires both side tensors")
            if self.sigma_left.isclose(self.sigma_right, tol=1e-14):
                raise ValueError("two-sheet problem requires sigma_L != sigma_R")

    # -- constructors -------------------------------------------------

    @classmethod
    def single_sheet(cls, sigma: ConductivityTensor, q: complex) -> "Problem":
        return cls(sigma=sigma, q=complex(q))

    @classmethod
    def interface(cls, sigma: ConductivityTensor, q: complex,
                  eps_r1: float, eps_r2: float) -> "Problem":
        if eps_r1 <= 0 or eps_r2 <= 0:
            raise ValueError("relative permittivities must be positive")
        return cls(sigma=sigma, q=complex(q), variant=Variant.INTERFACE,
                   kernel_factor=2.0 / (eps_r1 + eps_r2))

    @classmethod
    def two_sheet(cls, sigma_left: ConductivityTensor, sigma_right: ConductivityTensor,
                  q: complex) -> "Problem":
        diff = ConductivityTensor.from_matrix(
            sigma_right.as_matrix() - sigma_left.as_matrix(), nondimensional=True
        )
        return cls(sigma=diff, q=complex(q), variant=Variant.TWO_SHEET,
                   sigma_left=sigma_left, sigma_right=sigma_right)

    # -- derived quantities -------------------------------------------

    def with_q(self, q: complex) -> "Problem":
        return dataclasses.replace(self, q=complex(q))

    @property
    def sigma_eff(self) -> ConductivityTensor:
        """Kernel-factor-scaled tensor; the symbol is built from this one."""
        if self.kernel_factor == 1.0:
            return self.sigma
        return self.sigma.scaled(self.kernel_factor)

    @property
    def ksp(self) -> complex:
        """Nondimensional TM bulk-SPP wavenumber 2i/sigma_xx (kernel-factor scaled)."""
        sxx = self.sigma_eff.xx
        if sxx == 0:
            raise DegenerateQuadraticError(SIGMA_XX_ZERO)
        return 2j / sxx

    def signed_sheets(self) -> tuple[tuple[int, "Problem"], ...]:
        """(sign, single-sheet problem) per factor P_sheet^sign of the symbol:
        ((1, self),), or the right (+1) then the left (-1) sheet of a
        two-sheet problem, so that the product is P^R/P^L.  A sheet whose
        numerator (``symbol_terms``) is zero is kept (its factor is 1)."""
        if self.variant is not Variant.TWO_SHEET:
            return ((1, self),)
        return self._sheet_pair

    @functools.cached_property
    def _sheet_pair(self) -> tuple[tuple[int, "Problem"], ...]:
        """The two-sheet ``signed_sheets``, built once per problem.  Not a
        field, so equality, hashing and ``with_q`` do not see it; a single
        sheet is not cached, which would tie it in a cycle with itself."""
        right, left = (dataclasses.replace(self, variant=Variant.SINGLE_SHEET, sigma=sigma,
                                           sigma_left=None, sigma_right=None)
                       for sigma in (self.sigma_right, self.sigma_left))
        return ((1, right), (-1, left))


def khat(xi, q: complex):
    """Fourier transform of the quasi-electrostatic kernel: (1/2)(xi^2+q^2)^(-1/2)."""
    return 0.5 / sheet_sqrt(xi, q, Sheet.FIRST)


def symbol_terms(problem: Problem):
    """(q^2, ((sign, a, b, c), ...)): the scalars of P, with the numerator
    s_xx xi^2 + (s_xy + s_yx) q xi + s_yy q^2 of each signed sheet's
    ``sigma_eff``, all Python products as ``_compose`` takes them."""
    q = complex(problem.q)
    sheets = [(sign, side.sigma_eff) for sign, side in problem.signed_sheets()]
    return q * q, tuple([(sign, s.xx, s.off_sum * q, s.yy * q * q) for sign, s in sheets])


def _compose(terms, xi, w, derivative: bool = False):
    """(P, dP/dxi) of P = Prod_sheets (1 + (i/2) num/w)^sign, num = a xi^2 +
    b xi + c, with the root w and ``terms`` = (q^2, ((sign, a, b, c), ...))
    from ``symbol_terms``: scalars for one problem, or for a block of
    problems arrays with each problem's scalars gathered per point.  dP/dxi
    is None unless ``derivative``; it needs w^2 = xi^2 + q^2.  A zero of a
    divisor sheet raises ZeroDivisionError with ``at``, the mask of the
    points where it vanishes."""
    q2, sheets = terms
    p = dp = None
    for sign, a, b, c in sheets:
        num = a * xi * xi + b * xi + c
        f = 1.0 + 0.5j * num / w
        df = (0.5j * (2.0 * a * xi + b - num * xi / (xi * xi + q2)) / w
              if derivative else None)
        if p is None:
            # the +1 sheet comes first; a later one divides
            p, dp = f, df
            continue
        if not f.all():
            exc = ZeroDivisionError("P^L vanishes at the evaluation point")
            exc.at = f == 0
            raise exc
        if derivative:
            dp = (dp * f - p * df) / (f * f)
        p = p / f
    return p, dp


def p_of_xi(problem: Problem, xi, sheet: Sheet = Sheet.FIRST):
    """Evaluate the symbol (or, second sheet, its dual) at xi; vectorized.

    For TWO_SHEET this is the ratio P^R/P^L; a zero of P^L raises.
    """
    xi = np.asarray(xi, dtype=complex)
    terms = symbol_terms(problem)
    out = _compose(terms, xi, sheet_root(xi, terms[0], sheet))[0]
    return out[()] if out.ndim == 0 else out


def dp_dxi(problem: Problem, xi):
    """dP/dxi on the first sheet, away from the branch points; vectorized.

    For TWO_SHEET this is the derivative of the ratio P^R/P^L.
    """
    xi = np.asarray(xi, dtype=complex)
    terms = symbol_terms(problem)
    out = _compose(terms, xi, sheet_root(xi, terms[0], Sheet.FIRST), True)[1]
    return out[()] if out.ndim == 0 else out
