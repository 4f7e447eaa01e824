"""Branch-correct elementary complex functions shared by kernel and quadrature code.

Everything downstream (symbol evaluation, zero census, Cauchy integrals)
depends on one choice of Riemann sheet for sqrt(xi^2 + q^2), one principal-log
convention and one phase unwrap, so they live here and nowhere else.

The principal log comes in two forms with the same branch, cut and
signed-zero behaviour (the imaginary part is atan2(Im w, Re w) in both).
``principal_log`` is numpy's complex log, accurate relative to |ln w| even
where ln w is tiny.  ``log_polar`` is ln|w| + i arg w: accurate in absolute
terms only (a few ulp of max(1, |ln w|)), but an order of magnitude
faster on arguments near the unit circle, so Phi's per-point kernels
(the zero logs, the kink's atanh and the growth log) use it.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "BranchPointError",
    "Sheet",
    "log_polar",
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


def sheet_sqrt(xi, q, sheet: Sheet = Sheet.FIRST):
    """sqrt(xi^2 + q^2) on the requested Riemann sheet.

    The principal square root, which has Re w >= 0, then the sheet's sign:
    this gives evenness in xi and the exact sheet condition Re w > 0
    (FIRST) or Re w < 0 (SECOND).  Adding 0.0 turns a -0.0 imaginary part
    into +0.0, so the tie Re w = 0 (lossless sheets with real q put the
    value on the cut) goes to Im w > 0 on the first sheet, and
    xi^+ = +i|q| sits in the upper half-plane.
    """
    xi = np.asarray(xi, dtype=complex)
    q = complex(q)
    z = xi * xi + q * q + 0.0
    if np.any(z == 0):
        raise BranchPointError("xi^2 + q^2 = 0: branch point of the kernel")
    w = np.sqrt(z)
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
    """Natural log with Im in (-pi, pi]; negative reals map to +i*pi (adding
    0.0 turns a -0.0 imaginary part into +0.0)."""
    w = np.asarray(w, dtype=complex) + 0.0
    if np.any(w == 0):
        raise ValueError("log of zero")
    # np.log, not log_polar: callers need relative accuracy for tiny logs
    # (the real part of ln(1 + 1e-8 i) is 5e-17, which ln|w| rounds to 0)
    out = np.log(w)
    return out[()] if out.ndim == 0 else out


def log_polar(w):
    """ln|w| + i arg w: the principal log on np.log's branch, cut and signed
    zeros, to a few ulp of max(1, |ln w|) in absolute terms (not relative
    to a tiny ln w), at a fraction of np.log's cost near |w| = 1.  No
    tie-break is applied: a -0.0 imaginary part gives -i pi on the cut."""
    w = np.asarray(w, dtype=complex)
    out = np.empty(w.shape, dtype=complex)
    np.log(np.abs(w), out=out.real)
    np.arctan2(w.imag, w.real, out=out.imag)
    return out[()] if out.ndim == 0 else out


def unwrapped_angle(w):
    """arg w along a 1-D sequence, continued across the cut: each step of
    the principal angle is taken to the nearest whole turn, and the turns
    are summed.  Agrees with np.unwrap(np.angle(w)) wherever no step is an
    odd multiple of pi beyond +-pi."""
    ang = np.angle(w)
    ang[1:] -= 2.0 * np.pi * np.cumsum(np.round(np.diff(ang) / (2.0 * np.pi)))
    return ang
