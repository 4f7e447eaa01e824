"""Additive Wiener-Hopf factorization of the log-symbol.

For a zero-index symbol, ln P(xi) splits as Q_+(xi) + Q_-(xi) with

    Q_+-(xi) = +- (1/2 pi i) Int ln P(xi') / (xi' - xi) dxi'     (+- Im xi > 0),

so both split functions are values of the same Cauchy transform
Phi(xi0) = (1/2 pi i) Int L(xi')/(xi'-xi0) dxi' of the continuously
unwrapped log L = ln|P| + i arg P:  Q_+ = Phi above the axis and
Q_- = -Phi below it.  The branch of L is pinned by continuous unwrapping
along the series' own nodes, from the principal large-xi form (ln of
i*sigma_xx*xi/2 for a single sheet) at xi -> -inf, which is what makes
the dispersion-relation logarithms land on the branch the edge
condition needs; the whole turns it ends on are the index nu_K, and
nu_K != 0 stops the series before any FFT.  L grows like ln|xi|; the
integral is symmetric at infinity.

Phi has one representation per kernel, a spectral series on Weideman's
rational basis (``CauchyTable``; J.A.C. Weideman, Math. Comp. 64 (1995)
745).  The map xi = kappa tan(theta/2) takes the real axis onto the circle
rho = e^{i theta} = (kappa + i xi)/(kappa - i xi) and the upper half-plane
into |rho| < 1, so a Fourier series in theta splits term by term: rho^n is
a plus function for n > 0 and a minus function for n < 0.  The map scale
kappa is free; the series takes kappa = min(scale, 2 sqrt(|q| scale)),
between the branch points +-iq and the problem scale (``MAP_SPREAD``),
which resolves the reference roots, the two-sheet one included, at
N = 256.  Three parts of
L are split in closed form instead: its ln|xi| growth; the kink at
theta = pi of its part odd in sqrt(xi^2 + q^2), b/|xi| + e sgn(xi)/xi^2
+ ...; and one log per first-sheet zero of P.  N doubles until the FFT
coefficients of the smooth remainder beyond N/4 sum below ``SERIES_TOL``,
or, while that sum is below 100 ``SERIES_TOL``, until what they hold
above the series' own rounding floor does (``_fft_series``): the 3N/4
coefficients there, at the rounding level, can sum to about
``SERIES_TOL`` by themselves.  The coefficients left out, those at the
floor included, bound Phi's error.  When |q| is far below
the problem scale, the structure of sqrt(xi^2 + q^2) at |q| is carried by
a few more series of the same kind, one per factor of up to 16 in scale, so
that N stays bounded as |q|/scale -> 0.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .branches import Sheet, log_polar, principal_log, sheet_sqrt, unwrapped_angle
from .kernel import Problem, _compose, p_of_xi, symbol_terms
from .quadrature import QuadratureError
from .spectrum import (
    PHASE_STEP_MAX,
    DegenerateQuadraticError,
    DoubleRootError,
    SpectrumReport,
    _axis_check,
    _Block,
    _census,
    _one,
    problem_scale,
    quadratic_roots,
)

__all__ = [
    "NonzeroIndexError",
    "UnwrappedLogKernel",
    "build_log_kernel",
    "cauchy_transform",
]

TWO_PI = 2.0 * math.pi


class NonzeroIndexError(RuntimeError):
    """Symbol has nonzero winding index nu_K: ln P has no additive split, and
    there is no discrete dispersion relation at this q.  Raised by
    ``CauchyTable.build``, so by every route to Phi."""

    def __init__(self, nu_k: int):
        super().__init__(f"nu_K = {nu_k} != 0: no discrete dispersion relation here")
        self.nu_k = nu_k


class UnwrappedLogKernel:
    """Continuously unwrapped ln P along the real axis.

    The series forms L at its own nodes, where its 2-pi turns and
    ``nu_k`` come from (``_turns``).  ``sheets`` holds the (sign, a, b, c)
    of each signed sheet (``symbol_terms``), and ``census`` its
    ``bulk_zeros`` report: the zeros that the series subtracts and around
    which the field contour puts its panel edges.  The logs in L are
    those of the sheets with a != 0: the census refuses any other sheet
    whose numerator is not zero.
    """

    def __init__(self, problem: Problem, scale: float, tail_const: complex,
                 census: tuple[SpectrumReport, ...], sheets: tuple):
        self.problem = problem
        self.census = census
        self.sheets = sheets
        self.scale = scale
        self.tail_const = tail_const      # L ~ p ln(zeta) + tail_const, p in {-1, 0, 1}
        self._cache: dict = {}

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
        """(roots, Phi(xi^+), Phi(xi^-)), computed once: ``roots`` is the
        ``QuadraticRoots`` of the problem, C^+- included."""
        return self.memo("root_constants", self._root_constants)

    def _root_constants(self):
        try:
            roots = quadratic_roots(self.problem.sigma, self.problem.q)
        except (DegenerateQuadraticError, DoubleRootError):
            # NonzeroIndexError, which callers classify, comes first
            self.cauchy_table()
            raise
        # the table is built inside the one cauchy_transform call, so each
        # root_constants call reaches it, nu_K != 0 included
        phi_p, phi_m = cauchy_transform(self, [roots.xi_plus, roots.xi_minus])
        return roots, complex(phi_p), complex(phi_m)

    def cauchy_table(self) -> "CauchyTable":
        """The spectral series of Phi, built once per kernel."""
        return self.memo("table", lambda: CauchyTable.build(self))

    @property
    def nu_k(self) -> int:
        """The winding index nu_K: the whole turns of L on the series'
        nodes, which the table build counts before any FFT."""
        try:
            self.cauchy_table()
        except NonzeroIndexError as exc:
            return exc.nu_k
        return 0

    def first_sheet_zeros(self) -> list[tuple[complex, int]]:
        """(location, sign) of every non-marginal first-sheet zero in the
        census: the zeros of P_sheet, which enter P with the sheet's sign."""
        return [(rec.location, sign)
                for (sign, *_), rep in zip(self.sheets, self.census)
                for rec in rep.zeros if rec.sheet is Sheet.FIRST and not rec.marginal]


def _tail_constant(sheets) -> complex:
    """Constant of the large-zeta law L ~ p ln zeta + constant."""
    if len(sheets) == 2:
        (_, right, *_), (_, left, *_) = sheets
        return complex(principal_log(right / left))
    return sum((sign * complex(principal_log(0.5j * a)) for sign, a, *_ in sheets), 0j)


def build_log_kernel(problem: Problem) -> UnwrappedLogKernel:
    """Construct the unwrapped log-symbol for one (sheet, q) configuration.

    The problem is a block of one row, whose census roots are solved once:
    the census of each signed sheet comes first and is kept on the kernel
    with the sheets, and P is evaluated once on the nodes seeded at the
    same roots (``spectrum._axis_check``), where a zero or a pole of P
    next to the axis shows.  L itself, its branch and nu_K come with the
    series (``CauchyTable.build``).

    Raises ``DegenerateQuadraticError`` (a ``ValueError``) when the census
    refuses a sheet with sigma_xx = 0, where L has no ln|xi| tail law,
    ``CensusOverflowError`` when a census quartic is not finite,
    ``BranchPointError`` when a seed node is a branch point (q^2 = 0), and
    ``RealAxisZeroError`` when P or P^L vanishes on or next to the real
    axis (a zero or a pole on the contour).
    """
    block = _Block([problem])
    census = _one(_census(block)[0])
    sheets = block.terms[0][1]
    scale = problem_scale(problem)
    _axis_check(block, scale)
    return UnwrappedLogKernel(problem, scale, _tail_constant([s for s in sheets if s[1] != 0]),
                              census, sheets)


# ---------------------------------------------------------------------------
# Split-function values
# ---------------------------------------------------------------------------


def cauchy_transform(kernel: UnwrappedLogKernel, xi0):
    """Phi(xi0) = (1/2 pi i) Int L(z)/(z - xi0) dz over the real axis: the
    one evaluator of the split functions.

    Q_+(xi0) = Phi(xi0) for Im xi0 > 0 and Q_-(xi0) = -Phi(xi0) for
    Im xi0 < 0.  On the axis the principal value PV(x) is returned; the
    Plemelj formulas Phi(x +- i0) = PV(x) +- L(x)/2 then give the boundary
    values Q_+-(x +- i0) = L(x)/2 +- PV(x), whose sum is L(x).  The values
    come from the kernel's spectral series, ``kernel.cauchy_table().phi``;
    the table's ``error_estimate`` bounds their error.  One point gives a
    complex, a sequence of points an array.  Raises ``NonzeroIndexError``
    when nu_K != 0.
    """
    values = kernel.cauchy_table().phi(xi0)
    return complex(values[0]) if np.ndim(xi0) == 0 else values


# ---------------------------------------------------------------------------
# The spectral series of Phi
# ---------------------------------------------------------------------------

# Phi's absolute error target, and the range of N
SERIES_TOL = 1e-13
SERIES_N_MIN = 256
SERIES_N_MAX = 1 << 16
# a coefficient beyond N/4 counts against SERIES_TOL by what it holds above
# this many times the series' rounding floor (``_above_floor``), and only
# while their plain sum stays below FLOOR_ALIAS_MAX: a slowly decaying tail
# is flat enough to pass for a floor, but not small enough
FLOOR_MARGIN = 4.0
FLOOR_ALIAS_MAX = 100.0 * SERIES_TOL

# Branch points +-iq well inside the scales of the sheets: below |q| =
# ROOT_TOP min 2/|sigma_xx|, the root's structure is peeled off in levels
# whose branch-point radii grow from |q| to that top radius by ratios of at
# most ROOT_RATIO, each level on its own map; ROOT_ORDER sets how closely
# the stand-in roots follow the true one at large |xi|.
ROOT_TOP = 0.1
ROOT_RATIO = 16.0
ROOT_ORDER = 8
# With no levels the top series' map sits at MAP_SPREAD times the geometric
# mean sqrt(|q| scale), at most the scale, which resolves the same series
# with fewer nodes; with levels it stays at sqrt(kappa_m scale), where the
# wider map needed more.
MAP_SPREAD = 2.0

# Order J of the closed-form kink split: the remainder's coefficients then
# fall like n^-(J+3), and the four reference roots need N = 256.
KINK_ORDER = 7
KINK_SAMPLES = 64

# Up to this many points of a side the power sums are taken from the
# powers of r, and up to ONE_PASS_POINTS points Phi takes both sides in
# one pass, where the per-call work outweighs the per-point work
POWERS_MAX_POINTS = 64
ONE_PASS_POINTS = 1024

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


def _kink_taylor(sheets, q: complex, kappa: float) -> np.ndarray:
    """Taylor coefficients pi_0..pi_J in v = 2 kappa xi/(xi^2 + kappa^2) at
    xi = inf of A = sqrt(xi^2 + kappa^2) Sum_sheets sign atanh(y).

    Each sheet's log is ln(1 + X) = ln(X^2 - 1)/2 + atanh(y), y = 1/X, and
    only atanh(y), odd in sqrt(xi^2 + q^2), has a kink at theta = pi.  In
    w = 1/xi, y = -2i w sqrt(1 + q^2 w^2)/(a2 + a1 w + a0 w^2) (``sheets``);
    A is analytic in v for |v| < 1, kappa the problem scale, and an FFT on
    |v| = 1/2 gives pi_0 = b = -2i/s_xx, pi_1 = e/(2 kappa), ...: taken in
    v, the coefficients carry no power of kappa, which would overflow at
    large |q|.
    np.arctanh stays here: the 64 arguments y are small, where the log
    ratio of ``_c_plus`` would cancel.
    """
    circle, powers_of_two = _kink_samples()
    u = circle / (4.0 * kappa)
    w = 2.0 * u / (1.0 + np.sqrt(1.0 - 4.0 * (kappa * u) ** 2))
    atanh = np.zeros(u.shape, dtype=complex)
    for sign, a2, a1, a0 in sheets:
        atanh += sign * np.arctanh(-2j * w * np.sqrt(1.0 + (q * w) ** 2)
                                   / (a2 + a1 * w + a0 * w * w))
    coeffs = np.fft.fft(np.sqrt(1.0 + (kappa * w) ** 2) * atanh / w) / KINK_SAMPLES
    return coeffs[:KINK_ORDER + 1] * powers_of_two


@functools.cache
def _kink_samples():
    """The unit circle of ``_kink_taylor``'s KINK_SAMPLES points and 2^k,
    k = 0..J.  Built on first use, so importing the package does no
    numerical work."""
    circle = np.exp(2j * math.pi * np.arange(KINK_SAMPLES) / KINK_SAMPLES)
    return _frozen(circle), _frozen(2.0 ** np.arange(KINK_ORDER + 1))


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a cached constant must not be changed."""
    array.flags.writeable = False
    return array


@functools.cache
def _kink_matrices():
    """One constant map from pi_0..pi_J to every constant of ``_KinkSplit``,
    by rows: kappa f_0; kappa Sum_{n>0} f_{s n} (-1)^n for s = 1, -1, from
    c_+(-1) = -1/pi; kappa f_{s n}, n = 1..KINK_TERMS, for s = 1, -1; then
    per s the Horner columns of ``_KinkSplit.plus_sum``, highest power
    first, each the pair (T, r Pi).  Each row is linear in the tau_m,
    m = -J..J, and ``sin`` maps pi_k to the tau_m of sin(theta)^k; the side
    s = -1 takes tau reversed, and Pi_n = Sum_{m>=n} tau_m c_{m-n} (n >= 1),
    -Sum_{m<n} tau_m c_{n-m} (n <= 0), n = -J+1..J.  Built on first use,
    so importing the package does no numerical work."""
    j = KINK_ORDER
    m = np.arange(-j, j + 1)
    theta = TWO_PI * np.arange(2 * j + 2) / (2 * j + 2)
    sin = np.exp(-1j * np.outer(m, theta)) @ np.sin(theta)[:, None] ** np.arange(j + 1) / theta.size
    n = np.arange(-j + 1, j + 1)[:, None]
    pi = np.where(n >= 1, _c(m - n) * (m >= n), -_c(n - m) * (m < n))
    at_pi = -(-1.0) ** m / math.pi + (-1.0) ** n[:, 0] @ pi
    deep = _c(np.arange(1, KINK_TERMS + 1)[:, None] - m)
    # the columns of T and r Pi: the zero row makes Pi's Horner pass end
    # with the factor r
    near = np.stack([np.eye(m.size)[::-1], np.vstack([pi[::-1], np.zeros(m.size)])],
                    axis=1).reshape(-1, m.size)
    # a row for s = -1 is the row for s = 1 on tau reversed
    from_tau = np.vstack([_c(m), at_pi, at_pi[::-1], deep, deep[:, ::-1], near, near[:, ::-1]])
    return _frozen(from_tau @ sin)


class _KinkSplit:
    """Closed-form split of f(xi) = (xi^2 + kappa^2)^(-1/2) Sum_k pi_k v^k,
    v = 2 kappa xi/(xi^2 + kappa^2) = sin(theta), on the map of its own
    kappa.  On the circle f = cos(theta/2) T(rho)/kappa with the Laurent
    polynomial T = Sum_{|m|<=J} tau_m rho^m, so f_n = Sum_m tau_m c_{n-m}/kappa
    and Sum_{n>0} f_n r^n = [T(r) c_+(r) + Pi(r)]/kappa (``_kink_matrices``).
    The n < 0 side is the same with tau reversed.  Every constant is a row
    of one product with pi/kappa.
    """

    def __init__(self, pis: np.ndarray, kappa: float):
        self.pis, self.kappa = pis, kappa
        rows = _kink_matrices() @ (pis / kappa)
        deep_end = 3 + 2 * KINK_TERMS
        self.f0 = complex(rows[0])
        # at_pi[s] = Sum_{n>0} f_{s n} (-1)^n
        self.at_pi = {1: complex(rows[1]), -1: complex(rows[2])}
        self.deep = {1: rows[3:3 + KINK_TERMS], -1: rows[3 + KINK_TERMS:deep_end]}
        # per side, the columns (T, r Pi)/kappa of each Horner step
        self.near = rows[deep_end:].reshape(2, 2 * KINK_ORDER + 1, 2, 1)

    def values(self, xi: np.ndarray) -> np.ndarray:
        """f on the real axis."""
        rr = xi * xi + self.kappa ** 2
        return np.polyval(self.pis[::-1], 2.0 * self.kappa * xi / rr) / np.sqrt(rr)

    def plus_sum(self, r: np.ndarray, n_up: int) -> np.ndarray:
        """Sum_{n>0} f_{s n} r^n for |r| <= 1, r != -1, with s = 1 for the
        first n_up points and s = -1 for the others."""
        out = np.empty(r.shape, dtype=complex)
        near = np.abs(r) >= DEEP_RADIUS
        # a branch with no points is skipped: the root pair xi+- is often
        # all near or all deep
        if near.any():
            rn = r[near]
            # named, not a temporary: numpy swaps the factors of a product
            # with a large temporary on its right, and a complex product's
            # last bit depends on their order
            c_plus = _c_plus(rn)
            # T and r Pi of both sides in one Horner pass, the first k
            # points with the coefficients of s = 1
            k = np.count_nonzero(near[:n_up])
            acc = np.empty((2, rn.size), dtype=complex)
            sides = [(view, columns) for view, columns
                     in zip((acc[:, :k], acc[:, k:]), self.near) if view.size]
            for view, columns in sides:
                view[:] = columns[0]
            for j in range(1, 2 * KINK_ORDER + 1):
                acc *= rn
                for view, columns in sides:
                    view += columns[j]
            out[near] = (c_plus * acc[0] + acc[1]) * rn ** -KINK_ORDER
        for sign, part in ((1, slice(0, n_up)), (-1, slice(n_up, r.size))):
            deep = ~near[part]
            if deep.any():
                out[part][deep] = _power_sums(self.deep[sign], r[part][deep])
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
    terms = symbol_terms(problem)
    ratio = _compose(terms, xi, w_num)[0] / _compose(terms, xi, w_den)[0]
    return np.log(np.abs(ratio)) + 1j * unwrapped_angle(ratio)


def _turns(reduced: np.ndarray):
    """The turns n of L = ln|P| + i (arg P + 2 pi n) at the sorted nodes:
    ``reduced``, arg P less the phase of the series' closed-form parts,
    continued by ``unwrapped_angle``'s rule (each step to the nearest
    whole turn) from the turn nearest 0 at xi -> -inf.  None (unresolved
    at this N) while a step stays above PHASE_STEP_MAX or the end is more
    than 0.2 off a whole turn; ``NonzeroIndexError`` at nu_K != 0."""
    n = np.empty(reduced.shape)
    n[0] = -round(reduced[0] / TWO_PI)
    n[1:] = np.rint((reduced[:-1] - reduced[1:]) / TWO_PI)
    n.cumsum(out=n)
    phase = reduced + TWO_PI * n
    turns = phase[-1] / TWO_PI
    nu = round(turns)
    if np.abs(phase[1:] - phase[:-1]).max() > PHASE_STEP_MAX or abs(turns - nu) > 0.2:
        return None
    if nu:
        raise NonzeroIndexError(nu)
    return n


def _fft_series(values, kappa: float):
    """FFT coefficients a_n of values(nodes) on the map of kappa, N doubled
    from SERIES_N_MIN while values(nodes) is None (L's turns unresolved),
    then until the coefficients beyond N/4 sum below SERIES_TOL, or,
    while that sum is below FLOOR_ALIAS_MAX, until what they hold above
    the rounding floor does (``_above_floor``).  Returns (nodes, a, tail,
    alias) with tail[K] = Sum_{|n| > K} |a_n| and alias = tail[N/4]."""
    n = SERIES_N_MIN
    while True:
        unit, twiddle, order = _fft_constants(n)
        nodes = kappa * unit
        vals = values(nodes)
        why = "L's turns unresolved (a phase step above pi/2, or an end off a whole turn)"
        if vals is not None:
            a = np.fft.fft(vals) * twiddle
            mag = np.abs(a)
            by_order = np.bincount(order, weights=mag)
            tail = np.append(np.cumsum(by_order[::-1])[-2::-1], 0.0)
            alias = tail[n // 4]
            if alias <= SERIES_TOL or (alias <= FLOOR_ALIAS_MAX
                                       and _above_floor(mag, order, n) <= SERIES_TOL):
                return nodes, a, tail, alias
            why = f"coefficients beyond N/4 sum to {alias:.3e} > {SERIES_TOL:.1e}"
        if n >= SERIES_N_MAX:
            raise QuadratureError(f"spectral series of L not resolved at N = {n}: {why}")
        n *= 2


@functools.cache
def _fft_constants(n: int):
    """The q-independent parts of an N-point series: the unit nodes
    tan(theta_j/2), the factor (-1)^k e^{-i pi k/N}/N that takes the FFT
    of the node values to a_k, and |k|.  Built on first use, once per N."""
    k = np.fft.fftfreq(n, 1.0 / n)
    unit = np.tan(0.5 * math.pi * (2.0 * np.arange(n) + 1.0 - n) / n)
    twiddle = (-1.0) ** k * np.exp(-1j * math.pi * k / n) / n
    return _frozen(unit), _frozen(twiddle), _frozen(np.abs(k).astype(int))


def _above_floor(mag: np.ndarray, order: np.ndarray, n: int) -> float:
    """Sum_{|k| > N/4} max(|a_k| - FLOOR_MARGIN floor, 0), with the floor
    the median |a_k| over 3N/8 < |k| <= N/2.  The 3N/4 coefficients beyond
    N/4 of a resolved two-sheet series are at the rounding level, a few
    1e-16 each, and their plain sum sits on SERIES_TOL at every N; what
    stands above the floor does not, so N is set by the problem rather
    than by the last bits of its values.  The median is taken by
    ``np.partition``: ``np.median`` imports ``numpy.ma``."""
    high = mag[order > 3 * n // 8]
    floor = np.partition(high, high.size // 2)[high.size // 2]
    return float(np.maximum(mag[order > n // 4] - FLOOR_MARGIN * floor, 0.0).sum())


class _Series:
    """Sum_{n>0} a_{s n} r^n, r = rho(s xi0), on the map of kappa, cut at
    the fewest terms that meet the target (N/4 when N stopped on the
    rounding floor).
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

    def plus_sum(self, r: np.ndarray, n_up: int) -> np.ndarray:
        """Sum_{n>0} a_{s n} r^n, with s = 1 for the first n_up points and
        s = -1 for the others."""
        out = np.empty(r.size, dtype=complex)
        out[:n_up] = _power_sums(self.coeffs[1], r[:n_up])
        out[n_up:] = _power_sums(self.coeffs[-1], r[n_up:])
        return out


def _power_sums(row: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Sum_{n=1}^{K} row[n-1] r^n: by Horner over a batch of points, from
    the powers of r for a few (where the K steps of the loop would cost
    more than the arithmetic).  Either way each point's sum is reduced on
    its own, in an order that does not depend on the other points."""
    if row.size == 1:
        # numpy broadcasts a one-term row through another complex-product
        # loop for one point than for many, which rounds differently; the
        # product in real arithmetic rounds the same for any batch
        c, out = row[0], np.empty(r.shape, dtype=complex)
        out.real = c.real * r.real - c.imag * r.imag
        out.imag = c.real * r.imag + c.imag * r.real
        return out
    if r.size <= POWERS_MAX_POINTS:
        powers = np.empty((r.size, row.size), dtype=complex)
        powers[:] = r[:, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        powers *= row
        return powers.sum(axis=1)
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
    the map of the problem scale) and l_z the zero logs.  The series' kappa
    lies between the branch points at +-i kappa_m and the scale: without
    levels min(scale, MAP_SPREAD sqrt(|q| scale)), which takes N = 256 at
    the reference roots and at the two-sheet root (512 at sqrt(|q| scale));
    with levels sqrt(kappa_m scale), where the wider map raised N from 1024
    to 2048 on the magnetoplasmon sheet.  C_s = s (a_0 + f_0 + c)/2 + S
    - i pi p/4 holds the regularization at infinity S = (Sum_{n<0} -
    Sum_{n>0}) (a_n + f_n) (-1)^n/2.  Two sheets take the difference of
    the sheets' laws.

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
        problem, scale = kernel.problem, kernel.scale
        q = complex(problem.q)
        sheets = [s for s in kernel.sheets if s[1] != 0]
        radii = _root_radii(q, ROOT_TOP * min((2.0 / abs(a) for _, a, *_ in sheets),
                                              default=0.0))
        kappa = (math.sqrt(radii[-1] * scale) if len(radii) > 1
                 else min(scale, MAP_SPREAD * math.sqrt(radii[0] * scale)))
        p, c = sum(sign for sign, *_ in sheets), kernel.tail_const
        kink = _KinkSplit(_kink_taylor(sheets, q, scale), scale)
        # zeros inside the top radius are zeros of P(w_0) alone: the levels
        # carry them
        inner = radii[-1] if len(radii) > 1 else 0.0
        zeros = [(loc, sign, math.copysign(kappa, loc.imag) * 1j)
                 for loc, sign in kernel.first_sheet_zeros() if abs(loc) > inner]

        def root(xi, j):
            return sheet_sqrt(xi, q, Sheet.FIRST) if j == 0 else _stand_in_root(xi, q, radii[j])

        def remainder(nodes):
            vals = p_of_xi(problem, nodes)
            pa = np.angle(vals)
            parts = [kink.values(nodes)]
            if len(radii) > 1:
                parts.append(_log_ratio(problem, nodes, root(nodes, 0), root(nodes, len(radii) - 1)))
            parts += [_zero_log(nodes, zero) for zero in zeros]
            # L's turns: None, or raises, unless they resolve to nu_K = 0
            n = _turns(pa - sum(part.imag for part in parts) - c.imag)
            if n is None:
                return None
            rem = (np.log(np.abs(vals)) + 1j * (pa + TWO_PI * n) - c - parts[0]
                   - 0.5 * p * np.log(nodes * nodes + kappa ** 2))
            for part in parts[1:]:
                rem -= part
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

    def phi(self, xi0):
        """Phi at a batch of points anywhere in the plane: each point on
        its own side, and the principal value (the mean of both sides) on
        the axis.  A batch of up to ONE_PASS_POINTS points takes one pass
        for both sides, a larger one a pass per side."""
        xi0 = np.atleast_1d(np.asarray(xi0, dtype=complex))
        z = xi0.ravel()
        above, below = z.imag > 0, z.imag < 0
        on_axis = ~(above | below)
        z_axis = z[on_axis]
        vals = np.empty(z.size, dtype=complex)
        if z.size <= ONE_PASS_POINTS:
            # the points above, on the axis, below and on the axis again:
            # the first n_up of them on the side above
            n_above, n_up = np.count_nonzero(above), z.size - np.count_nonzero(below)
            out = self._pass(np.concatenate([z[above], z_axis, z[below], z_axis]), n_up)
            vals[above], vals[below] = out[:n_above], out[n_up:z.size]
            axis_up, axis_down = out[n_above:n_up], out[z.size:]
        else:
            # a pass per side, on arrays half the size
            vals[above] = self._pass(z[above], np.count_nonzero(above))
            vals[below] = self._pass(z[below], 0)
            axis_up, axis_down = np.split(self._pass(np.tile(z_axis, 2), z_axis.size), 2)
        vals[on_axis] = 0.5 * (axis_up + axis_down)
        return vals.reshape(xi0.shape)

    def _pass(self, zs, n_up):
        """Phi at the points zs, the first n_up on side s = 1 (above the
        axis, or on it from above) and the others on side s = -1, in one
        pass: one rho map per series, one ``log_polar`` and one zero log
        per zero, with the sums of each side taken apart from the other
        side's."""
        if not zs.size:
            return zs.copy()
        up, down = slice(0, n_up), slice(n_up, zs.size)
        w = zs.copy()           # s z
        w[down] *= -1.0
        first, *rest = self.series
        out = first.plus_sum(_rho(first.kappa, w), n_up)
        for part in rest:
            out += part.plus_sum(_rho(part.kappa, w), n_up)
        r = _rho(self.kink.kappa, w)
        del w                   # the kink's sums hold the most temporaries
        out += self.kink.plus_sum(r, n_up)
        shifted = zs.copy()     # z + s i kappa
        shifted[up] += 1j * self.kappa
        shifted[down] -= 1j * self.kappa
        out += 0.5 * self.p * log_polar(shifted)
        out[down] *= -1.0
        out[up] += self.consts[1]
        out[down] += self.consts[-1]
        for zero in self.zeros:
            # a zero above the axis enters the side below, one below the side above
            s, side = (-1, down) if zero[0].imag > 0 else (1, up)
            out[side] += s * _zero_log(zs[side], zero)
        return out
