"""The Wiener-Hopf symbol P(xi; q) and its variants.

For a homogeneous sheet in nondimensional units (lengths in 1/k0,
conductivities in sqrt(eps/mu)) the symbol reads

    P(xi) = 1 + (i/2) f [s_xx xi^2 + (s_xy + s_yx) q xi + s_yy q^2]
                    / sqrt(xi^2 + q^2),        Re sqrt > 0,

where f is a kernel factor: 1 for a sheet in a uniform medium, and
2/(eps_r1 + eps_r2) when the sheet sits at the interface of two dielectric
half-spaces (then k0 and the conductivity scale refer to vacuum).  The
second Riemann sheet (Re sqrt < 0) gives the dual symbol P*.  For two
coplanar sheets the relevant symbol is the ratio P^R / P^L.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .branches import Sheet, sheet_sqrt
from .conductivity import ConductivityTensor

__all__ = ["Problem", "Variant", "dlogp_dxi", "dp_dxi", "khat", "p_left_right", "p_of_xi"]


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
            raise ValueError("sigma_xx = 0: SPP wavenumber undefined")
        return 2j / sxx

    def quad_coeffs(self) -> tuple[complex, complex, complex]:
        """Coefficients (a, b, c) of the numerator a xi^2 + b xi + c."""
        s = self.sigma_eff
        q = complex(self.q)
        return s.xx, s.off_sum * q, s.yy * q * q

    def sides(self) -> tuple["Problem", "Problem"]:
        """Per-side single-sheet problems of a two-sheet configuration."""
        if self.variant is not Variant.TWO_SHEET:
            raise ValueError("sides() applies to two-sheet problems only")
        left = dataclasses.replace(
            self, variant=Variant.SINGLE_SHEET, sigma=self.sigma_left,
            sigma_left=None, sigma_right=None)
        right = dataclasses.replace(
            self, variant=Variant.SINGLE_SHEET, sigma=self.sigma_right,
            sigma_left=None, sigma_right=None)
        return left, right


def khat(xi, q: complex):
    """Fourier transform of the quasi-electrostatic kernel: (1/2)(xi^2+q^2)^(-1/2)."""
    return 0.5 / sheet_sqrt(xi, q, Sheet.FIRST)


def _num_and_root(sigma_eff: ConductivityTensor, q: complex, xi, sheet: Sheet):
    """Numerator sigma_xx xi^2 + (sigma_xy + sigma_yx) q xi + sigma_yy q^2 and
    the sheet's square root (xi^2 + q^2)^(1/2), so P = 1 + (i/2) num/root."""
    w = sheet_sqrt(xi, q, sheet)
    num = sigma_eff.xx * xi * xi + sigma_eff.off_sum * q * xi + sigma_eff.yy * q * q
    return num, w


def _p_single(sigma_eff: ConductivityTensor, q: complex, xi, sheet: Sheet):
    xi = np.asarray(xi, dtype=complex)
    num, w = _num_and_root(sigma_eff, q, xi, sheet)
    out = 1.0 + 0.5j * num / w
    return out[()] if np.ndim(out) == 0 else out


def _p_dp_single(sigma_eff: ConductivityTensor, q: complex, xi):
    """(P, dP/dxi) of one sheet on the first Riemann sheet, from one root."""
    num, w = _num_and_root(sigma_eff, q, xi, Sheet.FIRST)
    dnum = 2.0 * sigma_eff.xx * xi + sigma_eff.off_sum * q
    return 1.0 + 0.5j * num / w, 0.5j * (dnum - num * xi / (xi * xi + q * q)) / w


def p_of_xi(problem: Problem, xi, sheet: Sheet = Sheet.FIRST):
    """Evaluate the symbol (or, second sheet, its dual) at xi; vectorized.

    For TWO_SHEET this is the ratio P^R/P^L; a zero of P^L raises.
    """
    q = complex(problem.q)
    if problem.variant is Variant.TWO_SHEET:
        pl, pr = p_left_right(problem, xi, sheet)
        if np.any(pl == 0):
            raise ZeroDivisionError("P^L vanishes at the evaluation point")
        return pr / pl
    return _p_single(problem.sigma_eff, q, xi, sheet)


def _sides_p_dp(problem: Problem, xi):
    """((P^L, P^L'), (P^R, P^R')) of a two-sheet problem on the first sheet."""
    q = complex(problem.q)
    kf = problem.kernel_factor
    return (_p_dp_single(problem.sigma_left.scaled(kf), q, xi),
            _p_dp_single(problem.sigma_right.scaled(kf), q, xi))


def dp_dxi(problem: Problem, xi):
    """dP/dxi on the first sheet, away from the branch points; vectorized.

    For TWO_SHEET this is the derivative of the ratio P^R/P^L.
    """
    xi = np.asarray(xi, dtype=complex)
    if problem.variant is Variant.TWO_SHEET:
        (pl, dl), (pr, dr) = _sides_p_dp(problem, xi)
        out = (dr * pl - pr * dl) / (pl * pl)
    else:
        out = _p_dp_single(problem.sigma_eff, complex(problem.q), xi)[1]
    return out[()] if out.ndim == 0 else out


def dlogp_dxi(problem: Problem, xi):
    """d ln P/dxi on the first sheet, away from the branch points; vectorized.

    For TWO_SHEET this is d ln P^R/dxi - d ln P^L/dxi.
    """
    xi = np.asarray(xi, dtype=complex)
    if problem.variant is Variant.TWO_SHEET:
        (pl, dl), (pr, dr) = _sides_p_dp(problem, xi)
        out = dr / pr - dl / pl
    else:
        p, dp = _p_dp_single(problem.sigma_eff, complex(problem.q), xi)
        out = dp / p
    return out[()] if out.ndim == 0 else out


def p_left_right(problem: Problem, xi, sheet: Sheet = Sheet.FIRST):
    """(P^L, P^R) for a two-sheet problem."""
    if problem.variant is not Variant.TWO_SHEET:
        raise ValueError("p_left_right applies to two-sheet problems only")
    q = complex(problem.q)
    kf = problem.kernel_factor
    pl = _p_single(problem.sigma_left.scaled(kf), q, xi, sheet)
    pr = _p_single(problem.sigma_right.scaled(kf), q, xi, sheet)
    return pl, pr
