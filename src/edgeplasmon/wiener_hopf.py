"""Additive Wiener-Hopf factorization of the log-symbol.

For a zero-index symbol, ln P(xi) splits as Q_+(xi) + Q_-(xi) with

    Q_+-(xi) = +- (1/2 pi i) Int ln P(xi') / (xi' - xi) dxi'     (+- Im xi > 0),

so both split functions are values of the same Cauchy transform
Phi(xi0) = (1/2 pi i) Int L(xi')/(xi'-xi0) dxi' of the continuously
unwrapped log L = ln|P| + i arg P:  Q_+ = Phi above the axis and
Q_- = -Phi below it.  The branch of L is pinned by continuous unwrapping
along the real axis plus the requirement that L match the principal
large-xi form (ln of i*sigma_xx*xi/2 for a single sheet), which is what
makes the dispersion-relation logarithms land on the branch the edge
condition needs.  L grows like ln|xi|; the integral is symmetric at
infinity.

Phi has one representation per kernel, a spectral series on Weideman's
rational basis (``CauchyTable``; J.A.C. Weideman, Math. Comp. 64 (1995)
745).  The map xi = kappa tan(theta/2) takes the real axis onto the circle
rho = e^{i theta} = (kappa + i xi)/(kappa - i xi) and the upper half-plane
into |rho| < 1, so a Fourier series in theta splits term by term: rho^n is
a plus function for n > 0 and a minus function for n < 0.  Three parts of
L are split in closed form instead: its ln|xi| growth; the kink at
theta = pi of its part odd in sqrt(xi^2 + q^2), b/|xi| + e sgn(xi)/xi^2
+ ...; and one log per first-sheet zero of P.  N doubles until the FFT
coefficients of the smooth remainder beyond N/4 sum below ``SERIES_TOL``,
and the coefficients left out bound Phi's error.  When |q| is far below
the problem scale, the structure of sqrt(xi^2 + q^2) at |q| is carried by
a few more series of the same kind, one per factor of up to 16 in scale, so
that N stays bounded as |q|/scale -> 0.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .branches import Sheet, log_polar, principal_log, sheet_sqrt, unwrapped_angle
from .kernel import Problem, _compose, p_of_xi
from .quadrature import QuadratureError
from .spectrum import (
    DegenerateQuadraticError,
    RealAxisZeroError,
    bulk_zeros,
    phase_winding,
    quadratic_roots,
    split_coefficients,
)

__all__ = [
    "NonzeroIndexError",
    "SplitHalf",
    "UnwrappedLogKernel",
    "boundary_split_q",
    "build_log_kernel",
    "cauchy_transform",
    "split_q",
]

TWO_PI = 2.0 * math.pi


class NonzeroIndexError(RuntimeError):
    """Symbol has nonzero winding index nu_K: ln P has no additive split, and
    there is no discrete dispersion relation at this q.  Raised by
    ``CauchyTable.build``, so by every route to Phi."""

    def __init__(self, nu_k: int):
        super().__init__(f"nu_K = {nu_k} != 0: no discrete dispersion relation here")
        self.nu_k = nu_k


class SplitHalf(enum.Enum):
    PLUS = "+"
    MINUS = "-"


class UnwrappedLogKernel:
    """Continuously unwrapped ln P along the real axis.

    Stores an adaptive phase grid on [-m, m] (steps < pi/2) from which the
    2-pi branch of arg P at any real point is recovered by interpolation;
    moduli and principal phases are always evaluated exactly from the
    symbol, so the series accuracy is not limited by the grid.
    """

    def __init__(self, problem: Problem, grid: np.ndarray, phase: np.ndarray,
                 scale: float, nu_k: int, tail_const: complex, trivial: bool = False):
        self.problem = problem
        self.grid = grid
        self.phase = phase
        self.scale = scale
        self.nu_k = nu_k
        self.tail_const = tail_const      # L ~ p ln(zeta) + tail_const, p in {-1, 0, 1}
        self.trivial = trivial
        self._cache: dict = {}

    # -- symbol evaluations on the real axis ----------------------------

    def log_values(self, zeta):
        """L(zeta) = ln|P| + i * (unwrapped arg P), vectorized over real zeta."""
        zeta = np.asarray(zeta, dtype=float)
        if self.trivial:
            return np.zeros(zeta.shape, dtype=complex)
        vals = p_of_xi(self.problem, zeta, Sheet.FIRST)
        pa = np.angle(vals)
        ref = np.interp(zeta, self.grid, self.phase,
                        left=self.phase[0], right=self.phase[-1])
        n = np.round((ref - pa) / TWO_PI)
        out = np.log(np.abs(vals)) + 1j * (pa + TWO_PI * n)
        return out[()] if out.ndim == 0 else out

    # -- memoized derived objects ---------------------------------------

    def memo(self, key, build):
        """``build()``, computed once per kernel and key.

        A memoized value must not refer back to the kernel: the kernel
        would then sit in a reference cycle and outlive its last user
        until a cyclic garbage collection.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def root_constants(self):
        """(roots, coeffs, phi_plus, phi_minus) at xi^+-, computed once."""
        return self.memo("root_constants", self._root_constants)

    def _root_constants(self):
        # the table first: it raises NonzeroIndexError, which callers
        # classify, before quadratic_roots can raise DoubleRootError
        self.cauchy_table()
        roots = quadratic_roots(self.problem.sigma, self.problem.q)
        coeffs = split_coefficients(self.problem.sigma, self.problem.q)
        phi_p, phi_m = cauchy_transform(self, [roots.xi_plus, roots.xi_minus])
        return roots, coeffs, complex(phi_p), complex(phi_m)

    def cauchy_table(self) -> "CauchyTable":
        """The spectral series of Phi, built once per kernel."""
        return self.memo("table", lambda: CauchyTable.build(self))


def _signed_sheets(problem: Problem) -> list[tuple[int, Problem]]:
    """The nonzero sheets of ``problem.signed_sheets()``, whose logs enter L
    with their signs."""
    out = [(sign, prob) for sign, prob in problem.signed_sheets()
           if prob.sigma.frobenius != 0]
    if any(prob.sigma_eff.xx == 0 for _, prob in out):
        raise DegenerateQuadraticError(
            "sigma_xx = 0: symbol does not follow the ln(kappa xi) tail law")
    return out


def _tail_constant(sheets) -> complex:
    """Constant of the large-zeta law L ~ p ln zeta + constant."""
    if len(sheets) == 2:
        (_, right), (_, left) = sheets
        return complex(principal_log(right.sigma_eff.xx / left.sigma_eff.xx))
    return sum((sign * complex(principal_log(0.5j * prob.sigma_eff.xx))
                for sign, prob in sheets), 0j)


def build_log_kernel(problem: Problem) -> UnwrappedLogKernel:
    """Construct the unwrapped log-symbol for one (sheet, q) configuration.

    The phase is unwrapped continuously on [-m, m] (``phase_winding``,
    which also gives the winding index stored on the kernel), then the
    global 2-pi-i branch constant is fixed by matching L(m) against the
    analytic tail law.

    Raises ``DegenerateQuadraticError`` (a ``ValueError``) when a nonzero
    sheet has sigma_xx = 0, where L has no ln|xi| tail law, and
    ``RealAxisZeroError`` when P vanishes on or next to the real axis.
    """
    sheets = _signed_sheets(problem)
    tail_const = _tail_constant(sheets)
    xs, theta, nu, scale = phase_winding(problem, Sheet.FIRST)
    if not sheets:
        # P = 1: zero phase, zero index
        return UnwrappedLogKernel(problem, xs, theta, scale, nu, tail_const, trivial=True)

    # fix the global branch against the right tail alone: arg P(m) must
    # approach Im tail_const (mod 2 pi); this stays well defined for
    # nonzero winding, where the two tails differ by 2 pi nu
    drift = theta[-1] - tail_const.imag
    k = round(drift / TWO_PI)
    if abs(drift - TWO_PI * k) > 1.0:
        raise RealAxisZeroError(
            f"failed to close the phase normalization (tail drift {drift:.3f} "
            "rad); symbol tails not converged at the cutoff")
    theta = theta - TWO_PI * k

    return UnwrappedLogKernel(problem, xs, theta, scale, nu, tail_const)


# ---------------------------------------------------------------------------
# Split-function values
# ---------------------------------------------------------------------------


def cauchy_transform(kernel: UnwrappedLogKernel, xi0):
    """Phi(xi0) = (1/2 pi i) Int L(z)/(z - xi0) dz over the real axis.

    Q_+(xi0) = Phi(xi0) for Im xi0 > 0 and Q_-(xi0) = -Phi(xi0) for
    Im xi0 < 0.  On the axis the principal-value transform is returned
    (used by the Plemelj boundary formulas).  The values come from the
    kernel's spectral series, ``kernel.cauchy_table().phi``; the table's
    ``error_estimate`` bounds their error.  One point gives a complex, a
    sequence of points an array.  Raises ``NonzeroIndexError`` when
    nu_K != 0.
    """
    values = kernel.cauchy_table().phi(xi0)
    return complex(values[0]) if np.ndim(xi0) == 0 else values


def split_q(kernel: UnwrappedLogKernel, xi0: complex, half: SplitHalf) -> complex:
    """Split-function value Q_+(xi0) or Q_-(xi0).

    PLUS requires Im xi0 > 0 and MINUS requires Im xi0 < 0 (each split
    function is evaluated in its own half-plane of analyticity); points on
    the axis are directed to ``boundary_split_q``.  Raises
    ``NonzeroIndexError`` when nu_K != 0.
    """
    xi0 = complex(xi0)
    if xi0.imag == 0.0:
        raise ValueError(
            "evaluation point on the real axis; use boundary_split_q for "
            "Plemelj boundary values")
    if half is SplitHalf.PLUS and xi0.imag < 0:
        raise ValueError("Q_+ is evaluated in the upper half-plane (Im xi0 > 0)")
    if half is SplitHalf.MINUS and xi0.imag > 0:
        raise ValueError("Q_- is evaluated in the lower half-plane (Im xi0 < 0)")
    sign = 1.0 if half is SplitHalf.PLUS else -1.0
    return sign * cauchy_transform(kernel, xi0)


def boundary_split_q(kernel: UnwrappedLogKernel, x: float, half: SplitHalf) -> complex:
    """Plemelj boundary value on the real axis:

    Q_+-(x -+/+ i0) = L(x)/2 +- (1/2 pi i) PV Int L(z)/(z - x) dz.

    Raises ``NonzeroIndexError`` when nu_K != 0.
    """
    x = float(x)
    pv = cauchy_transform(kernel, complex(x))
    half_l = 0.5 * complex(kernel.log_values(np.array([x]))[0])
    sign = 1.0 if half is SplitHalf.PLUS else -1.0
    return half_l + sign * pv


# ---------------------------------------------------------------------------
# The spectral series of Phi
# ---------------------------------------------------------------------------

# Phi's absolute error target, and the range of N
SERIES_TOL = 1e-13
SERIES_N_MIN = 256
SERIES_N_MAX = 1 << 16

# Branch points +-iq well inside the scales of the sheets: below |q| =
# ROOT_TOP min 2/|sigma_xx|, the root's structure is peeled off in levels
# whose branch-point radii grow from |q| to that top radius by ratios of at
# most ROOT_RATIO, each level on its own map; ROOT_ORDER sets how closely
# the stand-in roots follow the true one at large |xi|.
ROOT_TOP = 0.1
ROOT_RATIO = 16.0
ROOT_ORDER = 8

# Order J of the closed-form kink split: the remainder's coefficients then
# fall like n^-(J+3), and the four reference roots need N = 256.
KINK_ORDER = 7
KINK_SAMPLES = 64

# Up to this many points the power sums are one matrix product
POWERS_MAX_POINTS = 64

# Below |r| = DEEP_RADIUS the kink is summed from its first KINK_TERMS
# coefficients (|r|^KINK_TERMS < 1e-19): its closed form's r^-J terms
# would lose up to |r|^-J in rounding there.
DEEP_RADIUS = 0.7
KINK_TERMS = 128


def _c(n):
    """Fourier coefficients of cos(theta/2) on (-pi, pi)."""
    n = np.asarray(n, dtype=float)
    return (2.0 / math.pi) * (-1.0) ** n / (1.0 - 4.0 * n * n)


def _c_plus(r):
    """Sum_{n>0} c_n r^n = ((1 + r) atanh(sqrt(-r))/sqrt(-r) - 1)/pi, for
    DEEP_RADIUS <= |r| <= 1, r != -1.  atanh(u) is ln((1 + u)/(1 - u))/2 on
    the same cuts; with |u| >= 0.84 the ratio stays away from 1, so the
    absolute accuracy of ``log_polar`` loses nothing."""
    u = np.sqrt(-r)
    return (0.5 * (1.0 + r) * log_polar((1.0 + u) / (1.0 - u)) / u - 1.0) / math.pi


def _kink_taylor(sheets, kappa: float) -> np.ndarray:
    """Taylor coefficients pi_0..pi_J in u = xi/(xi^2 + kappa^2) at xi = inf
    of A = sqrt(xi^2 + kappa^2) Sum_sheets sign atanh(y).

    Each sheet's log is ln(1 + X) = ln(X^2 - 1)/2 + atanh(y), y = 1/X, and
    only atanh(y), odd in sqrt(xi^2 + q^2), has a kink at theta = pi.  In
    w = 1/xi, y = -2i w sqrt(1 + q^2 w^2)/(a2 + a1 w + a0 w^2) (``quad_coeffs``);
    A is analytic in u for |u| < 1/(2 kappa), kappa the problem scale, and
    an FFT on |u| = 1/(4 kappa) gives pi_0 = b = -2i/s_xx, pi_1 = e, ...
    np.arctanh stays here: the 64 arguments y are small, where the log
    ratio of ``_c_plus`` would cancel.
    """
    u = np.exp(2j * math.pi * np.arange(KINK_SAMPLES) / KINK_SAMPLES) / (4.0 * kappa)
    w = 2.0 * u / (1.0 + np.sqrt(1.0 - 4.0 * (kappa * u) ** 2))
    atanh = np.zeros(u.shape, dtype=complex)
    for sign, prob in sheets:
        a2, a1, a0 = prob.quad_coeffs()
        atanh += sign * np.arctanh(-2j * w * np.sqrt(1.0 + (prob.q * w) ** 2)
                                   / (a2 + a1 * w + a0 * w * w))
    order = np.arange(KINK_ORDER + 1)
    coeffs = np.fft.fft(np.sqrt(1.0 + (kappa * w) ** 2) * atanh / w) / KINK_SAMPLES
    return coeffs[order] * (4.0 * kappa) ** order


@functools.cache
def _kink_matrices():
    """Constant maps from tau_m, m = -J..J: SIN (columns k = 0..J) gives
    the tau_m of sin(theta)^k; PI the Pi_n, n = -J+1..J, with
    Pi_n = Sum_{m>=n} tau_m c_{m-n} (n >= 1), -Sum_{m<n} tau_m c_{n-m}
    (n <= 0); DEEP kappa f_n, n = 1..KINK_TERMS; C0 kappa f_0; AT_PI
    kappa Sum_{n>0} f_n (-1)^n, from c_+(-1) = -1/pi.  Built on first use,
    so importing the package does no numerical work."""
    j = KINK_ORDER
    m = np.arange(-j, j + 1)
    theta = TWO_PI * np.arange(2 * j + 2) / (2 * j + 2)
    sin = np.exp(-1j * np.outer(m, theta)) @ np.sin(theta)[:, None] ** np.arange(j + 1) / theta.size
    n = np.arange(-j + 1, j + 1)[:, None]
    pi = np.where(n >= 1, _c(m - n) * (m >= n), -_c(n - m) * (m < n))
    at_pi = -(-1.0) ** m / math.pi + (-1.0) ** n[:, 0] @ pi
    return sin, pi, _c(np.arange(1, KINK_TERMS + 1)[:, None] - m), _c(m), at_pi


class _KinkSplit:
    """Closed-form split of f(xi) = (xi^2 + kappa^2)^(-1/2) Sum_k pi_k u^k,
    u = xi/(xi^2 + kappa^2) = sin(theta)/(2 kappa), on the map of its own
    kappa.  On the circle f = cos(theta/2) T(rho)/kappa with the Laurent
    polynomial T = Sum_{|m|<=J} tau_m rho^m, so f_n = Sum_m tau_m c_{n-m}/kappa
    and Sum_{n>0} f_n r^n = [T(r) c_+(r) + Pi(r)]/kappa (``_kink_matrices``).
    The n < 0 side is the same with tau reversed.
    """

    def __init__(self, pis: np.ndarray, kappa: float):
        self.pis, self.kappa = pis, kappa
        sin, pi_map, deep, c0, at_pi = _kink_matrices()
        tau = sin @ (pis / (2.0 * kappa) ** np.arange(pis.size))
        self.f0 = complex(c0 @ tau) / kappa
        self.at_pi, self.sides = {}, {}     # at_pi[s] = Sum_{n>0} f_{s n} (-1)^n
        for sign, t in ((1, tau), (-1, tau[::-1])):
            self.at_pi[sign] = complex(at_pi @ t) / kappa
            self.sides[sign] = (t[::-1], (pi_map @ t)[::-1], deep @ t / kappa)

    def values(self, xi: np.ndarray) -> np.ndarray:
        """f on the real axis."""
        rr = xi * xi + self.kappa ** 2
        return np.polyval(self.pis[::-1], xi / rr) / np.sqrt(rr)

    def plus_sum(self, r: np.ndarray, sign: int) -> np.ndarray:
        """Sum_{n>0} f_{sign n} r^n for |r| <= 1, r != -1."""
        t, pi_n, deep = self.sides[sign]
        out = np.empty(r.shape, dtype=complex)
        near = np.abs(r) >= DEEP_RADIUS
        # a branch with no points is skipped: the root pair xi+- is often
        # all near or all deep
        if near.any():
            rn = r[near]
            out[near] = ((np.polyval(t, rn) * _c_plus(rn) + np.polyval(pi_n, rn) * rn)
                         * rn ** -KINK_ORDER / self.kappa)
        if not near.all():
            out[~near] = r[~near, None] ** np.arange(1, KINK_TERMS + 1) @ deep
        return out


def _rho(kappa, z):
    return (kappa + 1j * z) / (kappa - 1j * z)


def _zero_log(z, zero):
    """weight ln((z - xi_z)/(z - pole)): a pure minus function for a zero
    above the axis (pole i kappa), a pure plus function below it."""
    location, weight, pole = zero
    return weight * log_polar((z - location) / (z - pole))


def _root_radii(q: complex, top: float) -> list[float]:
    """Branch-point radii kappa_0 = |q| < ... < kappa_m = top of the levels,
    in equal ratios of at most ROOT_RATIO; [|q|] when |q| is not below top."""
    ratio = top / abs(q)
    m = math.ceil(math.log(ratio) / math.log(ROOT_RATIO)) if ratio > 1.0 else 0
    return [abs(q) * ratio ** (j / m) for j in range(m + 1)] if m else [abs(q)]


def _stand_in_root(xi, q: complex, kappa: float):
    """sqrt(xi^2 + q^2) to order ROOT_ORDER in t = (q^2 - kappa^2)/(xi^2 +
    kappa^2) about sqrt(xi^2 + kappa^2): singular only at +-i kappa, and
    off the true root by O(|xi|^(-2 ROOT_ORDER - 1)) at large |xi|."""
    rr = xi * xi + kappa * kappa
    binom = np.cumprod([1.0] + [(0.5 - k) / (k + 1) for k in range(ROOT_ORDER)])
    return np.sqrt(rr) * np.polyval(binom[::-1], (q * q - kappa * kappa) / rr)


def _log_ratio(problem: Problem, xi, w_num, w_den):
    """ln P(w_num)/P(w_den), P the symbol with the root (xi^2 + q^2)^(1/2)
    replaced by w, along the sorted real xi, unwrapped from 0 at xi = -inf,
    where both roots agree."""
    ratio = _compose(problem, xi, w_num)[0] / _compose(problem, xi, w_den)[0]
    return np.log(np.abs(ratio)) + 1j * unwrapped_angle(ratio)


def _fft_series(values, kappa: float):
    """FFT coefficients a_n of values(nodes) on the map of kappa, N doubled
    from SERIES_N_MIN until the coefficients beyond N/4 sum below
    SERIES_TOL, or to the rounding floor (below 100x the target and no
    longer halving).  Returns (nodes, a, tail, alias) with tail[K] =
    Sum_{|n| > K} |a_n| and alias = tail[N/4]."""
    n, prev = SERIES_N_MIN, math.inf
    while True:
        nodes = kappa * np.tan(0.5 * math.pi * (2.0 * np.arange(n) + 1.0 - n) / n)
        k = np.fft.fftfreq(n, 1.0 / n)
        a = np.fft.fft(values(nodes)) * (-1.0) ** k * np.exp(-1j * math.pi * k / n) / n
        by_order = np.bincount(np.abs(k).astype(int), weights=np.abs(a))
        tail = np.append(np.cumsum(by_order[::-1])[-2::-1], 0.0)
        alias = tail[n // 4]
        if alias <= SERIES_TOL or 0.5 * prev < alias <= 100.0 * SERIES_TOL:
            return nodes, a, tail, alias
        if n >= SERIES_N_MAX:
            raise QuadratureError(
                f"spectral series of L not resolved at N = {n}: coefficients "
                f"beyond N/4 sum to {alias:.3e} > {SERIES_TOL:.1e}")
        n, prev = 2 * n, alias


class _Series:
    """Sum_{n>0} a_{s n} r^n, r = rho(s xi0), on the map of kappa, cut at
    the fewest terms that meet the target (N/4 at the rounding floor).
    ``coeffs`` holds the rows a_n and a_-n, n = 1..order; ``half0`` = a_0/2
    and ``at_pi`` = Sum_{n>0} (a_-n - a_n) (-1)^n/2 enter the constants;
    ``error`` sums the coefficients left out and the aliasing proxy."""

    def __init__(self, kappa: float, a: np.ndarray, tail: np.ndarray, alias: float):
        n = a.size
        order = max(1, int(np.argmax(tail <= SERIES_TOL)) if alias <= SERIES_TOL else n // 4)
        a_pos, a_neg = a[1:order + 1], a[-1:-order - 1:-1]
        self.kappa, self.half0 = kappa, 0.5 * a[0]
        self.at_pi = 0.5 * (a_neg - a_pos) @ (-1.0) ** np.arange(1, order + 1)
        self.coeffs = {1: a_pos, -1: a_neg}
        self.error = float(tail[order] + alias)


def _power_sums(row: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Sum_{n=1}^{K} row[n-1] r^n: by Horner over a batch of points, by
    one product with the powers of r for a few (where the K steps of the
    loop would cost more than the arithmetic)."""
    if r.size <= POWERS_MAX_POINTS:
        return row @ np.cumprod(np.broadcast_to(r, (row.size, r.size)), axis=0)
    acc = np.zeros(r.size, dtype=complex)
    for coef in row[::-1]:
        acc += coef
        acc *= r
    return acc


class CauchyTable:
    """The spectral series of Phi for one kernel.

    With s = 1 above the axis and s = -1 below it, r = rho(s xi0) (|r| <= 1)
    and a_n the FFT coefficients of the smooth remainder of L,

        Phi = s [Sum_{n>0} a_{s n} r^n + K_s + (p/2) ln(xi0 + s i kappa)]
              + C_s + s Sum_{zeros of the other side} l_z(xi0),

    each point on its own side only, and the mean of both sides on the
    axis (the principal value).  K_s are the kink's closed-form sums (on
    the map of the problem scale; the series' kappa, sqrt(kappa_m scale),
    balances the branch points at +-i kappa_m against it) and l_z the zero
    logs; C_s = s (a_0 + f_0 + c)/2 + S - i pi p/4 holds the regularization
    at infinity S = (Sum_{n<0} - Sum_{n>0}) (a_n + f_n) (-1)^n/2.  Two
    sheets take the difference of the sheets' laws; the trivial kernel has
    no terms at all.

    kappa_m is |q| unless |q| is below ROOT_TOP times the smallest 2/|s_xx|
    of the sheets.  One map cannot resolve both the root's branch points
    +-iq and the scale there (N would grow like sqrt(scale/|q|)), so the
    root's structure is peeled off in levels: L = L_top + Sum_j D_j, D_j =
    ln P(w_j) - ln P(w_j+1), where w_0 is the true root and w_j
    (``_stand_in_root``) has its branch points at +-i kappa_j, the radii
    rising geometrically to kappa_m = ROOT_TOP min 2/|s_xx|
    (``_root_radii``).  Each D_j has its structure between kappa_j and
    kappa_j+1 and vanishes at infinity, so it is a plain series on the map
    of sqrt(kappa_j kappa_j+1); L_top = L - ln P(w_0)/P(w_m) is the series
    above, less the zeros of P inside kappa_m, which the levels carry; Phi
    is the sum of all of them.  Every series then takes N = 256 to 1024 on
    the magnetoplasmon sheet, whatever |q|/scale.

    ``nodes`` are the N collocation points kappa tan(theta_j/2), theta_j =
    -pi + 2 pi (j + 1/2)/N, of the top series; ``tail_z`` is empty.
    ``error_estimate`` sums, over the series, the coefficients left out of
    the evaluation and those beyond N/4 (the aliasing proxy).
    """

    tail_z = np.zeros(0)

    def __init__(self, nodes, series, kink, zeros, p, consts):
        self.nodes, self.series, self.kink, self.zeros = nodes, series, kink, zeros
        self.kappa = series[0].kappa
        self.p, self.consts = p, consts
        self.error_estimate = sum(part.error for part in series)

    @classmethod
    def build(cls, kernel: UnwrappedLogKernel) -> "CauchyTable":
        if kernel.nu_k != 0:
            raise NonzeroIndexError(kernel.nu_k)
        problem, scale = kernel.problem, kernel.scale
        q = complex(problem.q)
        sheets = _signed_sheets(problem)
        radii = _root_radii(q, ROOT_TOP * min(
            (2.0 / abs(prob.sigma_eff.xx) for _, prob in sheets), default=0.0))
        kappa = math.sqrt(radii[-1] * scale)
        p, c = sum(sign for sign, _ in sheets), kernel.tail_const
        kink = _KinkSplit(_kink_taylor(sheets, scale), scale)
        # zeros inside the top radius are zeros of P(w_0) alone: the levels
        # carry them
        inner = radii[-1] if len(radii) > 1 else 0.0
        zeros = [(rec.location, sign, math.copysign(kappa, rec.location.imag) * 1j)
                 for sign, prob in sheets for rec in bulk_zeros(prob).zeros
                 if rec.sheet is Sheet.FIRST and not rec.marginal
                 and abs(rec.location) > inner]

        def root(xi, j):
            return sheet_sqrt(xi, q, Sheet.FIRST) if j == 0 else _stand_in_root(xi, q, radii[j])

        def remainder(nodes):
            rem = (kernel.log_values(nodes) - c - kink.values(nodes)
                   - 0.5 * p * np.log(nodes * nodes + kappa ** 2))
            if len(radii) > 1:
                rem -= _log_ratio(problem, nodes, root(nodes, 0), root(nodes, len(radii) - 1))
            for zero in zeros:
                rem -= _zero_log(nodes, zero)
            return rem

        nodes, a, tail, alias = _fft_series(remainder, kappa)
        series = [_Series(kappa, a, tail, alias)]
        for j in range(len(radii) - 1):
            def level(xi, j=j):
                return _log_ratio(problem, xi, root(xi, j), root(xi, j + 1))
            kappa_j = math.sqrt(radii[j] * radii[j + 1])
            series.append(_Series(kappa_j, *_fft_series(level, kappa_j)[1:]))

        half0 = sum(part.half0 for part in series) + 0.5 * (kink.f0 + c)
        s_inf = sum(part.at_pi for part in series) + 0.5 * (kink.at_pi[-1] - kink.at_pi[1])
        consts = {s: s * half0 + s_inf - 0.25j * math.pi * p for s in (1, -1)}
        return cls(nodes, series, kink, zeros, p, consts)

    def _side(self, z, s):
        """Phi above (s = 1) or below (s = -1) the axis, or its boundary
        value on it from that side, with every series summed at rho(s z)."""
        out = sum(_power_sums(part.coeffs[s], _rho(part.kappa, s * z))
                  for part in self.series)
        out += self.kink.plus_sum(_rho(self.kink.kappa, s * z), s)
        out = s * (out + 0.5 * self.p * log_polar(z + s * 1j * self.kappa)) + self.consts[s]
        for zero in self.zeros:
            if s * zero[0].imag < 0:
                out += s * _zero_log(z, zero)
        return out

    def phi(self, xi0):
        """Phi at a batch of points anywhere in the plane: each point on
        its own side, and the principal value (the mean of both sides) on
        the axis."""
        xi0 = np.atleast_1d(np.asarray(xi0, dtype=complex))
        z = xi0.ravel()
        vals = np.empty(z.size, dtype=complex)
        for s, m in ((1, z.imag > 0), (-1, z.imag < 0)):
            if m.any():
                vals[m] = self._side(z[m], s)
        axis = z.imag == 0
        if axis.any():
            vals[axis] = 0.5 * (self._side(z[axis], 1) + self._side(z[axis], -1))
        return vals.reshape(xi0.shape)
