"""Surface-conductivity tensors, ambient media, and nondimensionalization.

All solver-facing code works in nondimensional units: wavenumbers are
measured in k0 = omega*sqrt(eps*mu) and conductivities in sqrt(eps/mu)
(the ambient admittance).  This module is the only place where SI values
enter or leave.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

__all__ = [
    "AmbientMedium",
    "ConductivityTensor",
    "ValidityReport",
    "magneto_hydrodynamic",
    "drude",
    "nondimensionalize",
    "redimensionalize",
    "rotate",
    "validity_check",
]

# CODATA 2022 values (as in scipy.constants), inlined because importing
# scipy.constants costs about 0.2 s on every import of the package.
EPSILON_0 = 8.8541878188e-12    # F/m
MU_0 = 1.25663706127e-06        # N/A^2
ELEMENTARY_CHARGE = 1.602176634e-19   # C
ELECTRON_MASS = 9.1093837139e-31      # kg

NONRETARDED_WARN_RATIO = 0.5  # omega*mu*sigma#/k0 above this flags a marginal regime


@dataclasses.dataclass(frozen=True)
class ConductivityTensor:
    """2x2 surface conductivity (SI siemens, or dimensionless when flagged)."""

    xx: complex
    xy: complex
    yx: complex
    yy: complex
    nondimensional: bool = False

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.xx, self.xy], [self.yx, self.yy]], dtype=complex)

    @classmethod
    def from_matrix(cls, m, nondimensional: bool = False) -> "ConductivityTensor":
        m = np.asarray(m, dtype=complex)
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1], nondimensional)

    @classmethod
    def diagonal(cls, xx, yy, nondimensional: bool = False) -> "ConductivityTensor":
        return cls(complex(xx), 0.0, 0.0, complex(yy), nondimensional)

    def scaled(self, factor) -> "ConductivityTensor":
        return ConductivityTensor(
            factor * self.xx, factor * self.xy, factor * self.yx, factor * self.yy,
            self.nondimensional,
        )

    @property
    def trace(self) -> complex:
        return self.xx + self.yy

    @property
    def det(self) -> complex:
        return self.xx * self.yy - self.xy * self.yx

    @property
    def off_sum(self) -> complex:
        """sigma_xy + sigma_yx, the anisotropy combination entering xi^+-."""
        return self.xy + self.yx

    @property
    def off_diff(self) -> complex:
        """sigma_xy - sigma_yx, the gyrotropic combination entering C^+-."""
        return self.xy - self.yx

    @property
    def frobenius(self) -> float:
        """sigma# = sqrt(sum |sigma_ll'|^2)."""
        return math.sqrt(
            abs(self.xx) ** 2 + abs(self.xy) ** 2
            + abs(self.yx) ** 2 + abs(self.yy) ** 2
        )

    def hermitian_eigenvalues(self) -> np.ndarray:
        m = self.as_matrix()
        return np.linalg.eigvalsh(0.5 * (m + m.conj().T))

    def is_passive(self, tol: float = 1e-12) -> bool:
        """Positive semidefinite Hermitian part (non-active material)."""
        ev = self.hermitian_eigenvalues()
        return bool(np.all(ev >= -tol * max(self.frobenius, 1e-300)))

    def isclose(self, other: "ConductivityTensor", tol: float = 0.0) -> bool:
        scale = max(self.frobenius, other.frobenius, 1e-300)
        d = self.as_matrix() - other.as_matrix()
        return bool(np.max(np.abs(d)) <= tol * scale)


@dataclasses.dataclass(frozen=True)
class AmbientMedium:
    """Homogeneous isotropic ambient medium and the working frequency."""

    epsilon: float = EPSILON_0
    mu: float = MU_0
    omega: float = 1.0

    def __post_init__(self):
        if not (self.epsilon > 0 and self.mu > 0):
            raise ValueError("invalid medium: require epsilon > 0 and mu > 0")
        if not self.omega > 0:
            raise ValueError("invalid medium: require omega > 0")

    @classmethod
    def vacuum(cls, omega: float) -> "AmbientMedium":
        return cls(EPSILON_0, MU_0, omega)

    @classmethod
    def relative(cls, eps_r: float, mu_r: float, omega: float) -> "AmbientMedium":
        return cls(eps_r * EPSILON_0, mu_r * MU_0, omega)

    @property
    def k0(self) -> float:
        return self.omega * math.sqrt(self.epsilon * self.mu)

    @property
    def admittance(self) -> float:
        """sqrt(eps/mu), the conductivity scale."""
        return math.sqrt(self.epsilon / self.mu)


@dataclasses.dataclass(frozen=True)
class ValidityReport:
    """Nonretarded-regime diagnostics for a (sigma, medium) pair."""

    sigma_sharp: float
    nonretarded_ratio: float
    warnings: tuple[str, ...] = ()
    scale_length: float | None = None

    @property
    def ok(self) -> bool:
        return not self.warnings


def rotate(sigma: ConductivityTensor, phi: float) -> ConductivityTensor:
    """Rotate the tensor in-plane: U(phi) sigma U(-phi) with
    U(phi) = [[cos phi, sin phi], [-sin phi, cos phi]].

    With this orientation a diagonal tensor diag(a, b) acquires
    off-diagonals (b - a) sin(phi) cos(phi); it is the orientation that
    reproduces the published zero-census and index values for rotated
    Drude sheets (the opposite sense mirrors xi -> -xi and flips the
    index sign).  The similarity transform is pi-periodic, so angles
    outside [0, pi) are reduced mod pi (with a warning).  Trace,
    determinant and xy - yx are preserved exactly.
    """
    phi = float(phi)
    if not 0.0 <= phi < math.pi:
        reduced = phi % math.pi
        warnings.warn(
            f"rotation angle {phi:g} reduced mod pi to {reduced:g} "
            "(the transform is pi-periodic)",
            stacklevel=2,
        )
        phi = reduced
    c, s = math.cos(phi), math.sin(phi)
    xx, xy, yx, yy = sigma.xx, sigma.xy, sigma.yx, sigma.yy
    return ConductivityTensor(
        xx=c * c * xx + c * s * (xy + yx) + s * s * yy,
        xy=-c * s * (xx - yy) + c * c * xy - s * s * yx,
        yx=-c * s * (xx - yy) - s * s * xy + c * c * yx,
        yy=s * s * xx - c * s * (xy + yx) + c * c * yy,
        nondimensional=sigma.nondimensional,
    )


def drude(omega: float, weight_xx: float, weight_yy: float, tau: float = math.inf) -> ConductivityTensor:
    """Diagonal Drude tensor sigma_ll = i*D_ll / (omega + i/tau).

    D_ll is the Drude weight per axis (SI: S/s).  tau = inf gives the
    collisionless limit sigma = i*D/omega.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    denom = omega + 1j / tau if math.isfinite(tau) else complex(omega)
    return ConductivityTensor.diagonal(1j * weight_xx / denom, 1j * weight_yy / denom)


def magneto_hydrodynamic(
    omega: float,
    n0: float,
    b0: float,
    charge: float = ELEMENTARY_CHARGE,
    mass: float = ELECTRON_MASS,
    tau: float | None = None,
) -> ConductivityTensor:
    """Conductivity of a magnetized electron fluid (local linear response).

    sigma = -(i e^2 n0 / (m omega_c^2)) [[omega, -i*omega_c], [i*omega_c, omega]]
    with omega_c = charge*B0/mass: the omega << |omega_c| limit of the
    collisionless Drude-magneto response i e^2 n0 omega / (m (omega^2 -
    omega_c^2)) and its Hall companion.  Valid for 1/tau << omega <<
    |omega_c|; a warning is emitted outside that window.
    """
    omega_c = charge * b0 / mass
    if omega_c == 0.0:
        raise ValueError("cyclotron frequency vanishes; model undefined")
    if omega <= 0:
        raise ValueError("omega must be positive")
    if abs(omega_c) / omega < 10.0:
        warnings.warn(
            f"|omega_c/omega| = {abs(omega_c) / omega:.3g} < 10: outside the "
            "low-frequency validity window of the hydrodynamic model",
            stacklevel=2,
        )
    if tau is not None and omega * tau < 10.0:
        warnings.warn(
            f"omega*tau = {omega * tau:.3g} < 10: collisions are not negligible",
            stacklevel=2,
        )
    pref = -1j * charge**2 * n0 / (mass * omega_c**2)
    return ConductivityTensor(
        xx=pref * omega,
        xy=pref * (-1j * omega_c),
        yx=pref * (1j * omega_c),
        yy=pref * omega,
    )


def nondimensionalize(sigma: ConductivityTensor, medium: AmbientMedium) -> ConductivityTensor:
    """sigma_bar = sigma / sqrt(eps/mu).  Round-trips with redimensionalize."""
    if sigma.nondimensional:
        raise ValueError("tensor is already nondimensional")
    out = sigma.scaled(1.0 / medium.admittance)
    return dataclasses.replace(out, nondimensional=True)


def redimensionalize(sigma: ConductivityTensor, medium: AmbientMedium) -> ConductivityTensor:
    """Inverse of nondimensionalize."""
    if not sigma.nondimensional:
        raise ValueError("tensor is not nondimensional")
    out = sigma.scaled(medium.admittance)
    return dataclasses.replace(out, nondimensional=False)


def validity_check(sigma: ConductivityTensor, medium: AmbientMedium | None = None) -> ValidityReport:
    """Quasi-electrostatic validity diagnostics.

    The nonretarded reduction needs omega*mu*sigma#/k0 << 1 with
    sigma# the Frobenius norm of the tensor.  In nondimensional units that
    ratio is simply sigma_bar#, so a medium is only required for tensors
    carrying SI units.
    """
    sharp = sigma.frobenius
    notes: list[str] = []
    if sigma.nondimensional:
        ratio = sharp
        length = None
    else:
        if medium is None:
            raise ValueError("dimensional tensor requires a medium")
        ratio = medium.omega * medium.mu * sharp / medium.k0
        length = medium.omega * medium.mu * sharp / medium.k0**2
    if ratio > NONRETARDED_WARN_RATIO:
        notes.append(
            f"omega*mu*sigma#/k0 = {ratio:.3g} exceeds {NONRETARDED_WARN_RATIO}: "
            "nonretarded approximation is marginal"
        )
    return ValidityReport(
        sigma_sharp=sharp,
        nonretarded_ratio=ratio,
        warnings=tuple(notes),
        scale_length=length,
    )
