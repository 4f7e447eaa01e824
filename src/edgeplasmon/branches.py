"""Branch-correct elementary complex functions shared by kernel and quadrature code.

Everything downstream (symbol evaluation, zero census, Cauchy integrals)
depends on one choice of Riemann sheet for sqrt(xi^2 + q^2), one principal-log
convention and one phase unwrap, so they live here and nowhere else.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "BranchPointError",
    "Sheet",
    "principal_log",
    "sheet_sqrt",
    "sign_q",
    "unwrapped_angle",
]


class BranchPointError(ValueError):
    """Raised when an evaluation lands on a branch point of sqrt(xi^2 + q^2)."""


class Sheet(enum.Enum):
    """Riemann sheet of sqrt(xi^2 + q^2).

    FIRST:  Re sqrt > 0, fields decay away from the sheet plane.
    SECOND: Re sqrt < 0, exponentially growing bulk modes.
    """

    FIRST = 1
    SECOND = 2


def _clean_imag(z):
    # Map -0.0 imaginary parts to +0.0 so values on the negative real axis
    # land on the Im > 0 side of the cut (principal convention Im in (-pi, pi]).
    z = np.asarray(z, dtype=complex)
    fix = z.imag == 0.0
    if np.any(fix):
        z = np.where(fix, z.real.astype(complex), z)
    return z


def sheet_sqrt(xi, q, sheet: Sheet = Sheet.FIRST):
    """sqrt(xi^2 + q^2) on the requested Riemann sheet.

    Computed as the principal square root followed by a sign fix, which
    guarantees evenness in xi and the exact sheet condition Re w > 0
    (FIRST) or Re w < 0 (SECOND).  The tie Re w = 0 (lossless sheets with
    real q put the value on the cut) is resolved to Im w > 0 on the first
    sheet, so that xi^+ = +i|q| sits in the upper half-plane.
    """
    z = _clean_imag(np.asarray(xi, dtype=complex) ** 2 + complex(q) ** 2)
    if np.any(z == 0):
        raise BranchPointError("xi^2 + q^2 = 0: branch point of the kernel")
    w = np.sqrt(z)
    # principal sqrt already has Re >= 0; resolve Re == 0 toward Im > 0
    flip = (w.real == 0.0) & (w.imag < 0.0)
    if np.any(flip):
        w = np.where(flip, -w, w)
    if sheet is Sheet.SECOND:
        w = -w
    return w[()] if w.ndim == 0 else w


def sign_q(q: complex) -> int:
    """sg(q): +1 for Re q > 0, -1 for Re q < 0."""
    re = complex(q).real
    if re > 0.0:
        return 1
    if re < 0.0:
        return -1
    raise ValueError("sg(q) undefined; supply q with nonzero real part")


def principal_log(w):
    """Natural log with Im in (-pi, pi]; negative reals map to +i*pi."""
    w = _clean_imag(w)
    if np.any(w == 0):
        raise ValueError("log of zero")
    out = np.log(w)
    return out[()] if out.ndim == 0 else out


def unwrapped_angle(w):
    """arg w along a 1-D sequence, continued across the cut: each step of
    the principal angle is taken to the nearest whole turn, and the turns
    are summed.  Agrees with np.unwrap(np.angle(w)) wherever no step is an
    odd multiple of pi beyond +-pi."""
    ang = np.angle(w)
    ang[1:] -= 2.0 * np.pi * np.cumsum(np.round(np.diff(ang) / (2.0 * np.pi)))
    return ang
