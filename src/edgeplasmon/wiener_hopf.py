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
condition needs.

The transform is evaluated two ways: a pointwise adaptive form used by
``split_q`` and the dispersion residual (linear subtraction of L near the
pole, exact closed forms for the subtracted part, tail folded to a finite
interval; the main interval and the tail of one or several points, such
as the pair xi^+- of a residual, are integrated in one adaptive pass
that shares every evaluation of L), and a reusable
fixed-node table (``CauchyTable``) for batch evaluations along shifted
contours (field profiles, boundary-factorization sweeps).  The table
sums the same subtracted quadrature in expanded form, as real matrix
products of pole kernels 1/(t_j - z_i) against node moments fixed at
build time; nodes within a rounding-relevant distance of a point keep
their subtracted term, so the expansion adds no large partial sums.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import weakref

import numpy as np

from .branches import Sheet, principal_log
from .kernel import Problem, Variant, dlogp_dxi, p_of_xi
from .quadrature import adaptive_gk, gk_nodes_weights
from .spectrum import (
    RealAxisZeroError,
    phase_winding,
    quadratic_roots,
    split_coefficients,
)

__all__ = [
    "NonzeroIndexError",
    "SplitHalf",
    "SplitValue",
    "UnwrappedLogKernel",
    "boundary_split_q",
    "build_log_kernel",
    "cauchy_transform",
    "lambda_pm",
    "q_asymptotic",
    "split_q",
]

TWO_PI = 2.0 * math.pi


class NonzeroIndexError(RuntimeError):
    """Symbol has nonzero winding index: ln P is not single valued as a loop."""

    def __init__(self, nu_k: int):
        super().__init__(
            f"nu_K = {nu_k} != 0: the additive factorization does not apply; "
            "use the index classification instead")
        self.nu_k = nu_k


class SplitHalf(enum.Enum):
    PLUS = "+"
    MINUS = "-"


@dataclasses.dataclass(frozen=True)
class SplitValue:
    value: complex
    half: SplitHalf
    eval_point: complex
    quadrature_error_estimate: float


class UnwrappedLogKernel:
    """Continuously unwrapped ln P along the real axis.

    Stores an adaptive phase grid on [-m, m] (steps < pi/2) from which the
    2-pi branch of arg P at any real point is recovered by interpolation;
    moduli and principal phases are always evaluated exactly from the
    symbol, so quadrature accuracy is not limited by the grid.
    """

    def __init__(self, problem: Problem, grid: np.ndarray, phase: np.ndarray,
                 m_cutoff: float, scale: float, nu_k: int,
                 tail_const: complex, trivial: bool = False):
        self.problem = problem
        self.grid = grid
        self.phase = phase
        self.m_cutoff = m_cutoff
        self.scale = scale
        self.nu_k = nu_k
        self.tail_const = tail_const      # L ~ p ln(zeta) + tail_const, p in {-1, 0, 1}
        self.trivial = trivial
        self._cache: dict = {}

    # -- symbol evaluations on (a neighborhood of) the real axis --------

    def p_on_axis(self, zeta):
        return p_of_xi(self.problem, zeta, Sheet.FIRST)

    def dlog_on_axis(self, zeta):
        """d/dzeta ln P(zeta): single valued, no unwrap needed."""
        if self.trivial:
            return np.zeros_like(np.asarray(zeta, dtype=complex))
        return dlogp_dxi(self.problem, zeta)

    def phase_at(self, zeta):
        """Unwrapped arg P at real zeta (grid-pinned; tail-pinned beyond m)."""
        return self.log_values(zeta).imag

    def log_values(self, zeta):
        """L(zeta) = ln|P| + i * (unwrapped arg P), vectorized over real zeta."""
        zeta = np.asarray(zeta, dtype=float)
        if self.trivial:
            return np.zeros(zeta.shape, dtype=complex)
        vals = self.p_on_axis(zeta)
        pa = np.angle(vals)
        ref = np.interp(zeta, self.grid, self.phase,
                        left=self.phase[0], right=self.phase[-1])
        n = np.round((ref - pa) / TWO_PI)
        out = np.log(np.abs(vals)) + 1j * (pa + TWO_PI * n)
        return out[()] if out.ndim == 0 else out

    @property
    def base_value(self) -> complex:
        """L at xi = 0."""
        return complex(self.log_values(np.array([0.0]))[0])

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
        if self.nu_k != 0:
            raise NonzeroIndexError(self.nu_k)
        roots = quadratic_roots(self.problem.sigma, self.problem.q)
        coeffs = split_coefficients(self.problem.sigma, self.problem.q)
        phi_p, phi_m = cauchy_transform(self, [roots.xi_plus, roots.xi_minus])
        return roots, coeffs, phi_p, phi_m

    def cauchy_table(self) -> "CauchyTable":
        return self.memo("table", lambda: CauchyTable.build(self))


def _tail_constant(problem: Problem) -> complex:
    """Constant of the large-zeta law L ~ p ln zeta + constant."""
    if problem.variant is Variant.TWO_SHEET:
        left, right = problem.sides()
        lz = left.sigma.frobenius == 0
        rz = right.sigma.frobenius == 0
        if lz and rz:
            return 0.0 + 0.0j
        if lz:
            return complex(principal_log(0.5j * right.sigma_eff.xx))
        if rz:
            return -complex(principal_log(0.5j * left.sigma_eff.xx))
        lxx, rxx = left.sigma_eff.xx, right.sigma_eff.xx
        if lxx == 0 or rxx == 0:
            raise ValueError("two-sheet tail undefined: a nonzero side has sigma_xx = 0")
        return complex(principal_log(rxx / lxx))
    sxx = problem.sigma_eff.xx
    if problem.sigma.frobenius == 0:
        return 0.0 + 0.0j
    if sxx == 0:
        raise ValueError("sigma_xx = 0: symbol does not follow the ln(kappa xi) tail law")
    return complex(principal_log(0.5j * sxx))


def build_log_kernel(problem: Problem) -> UnwrappedLogKernel:
    """Construct the unwrapped log-symbol for one (sheet, q) configuration.

    The phase is unwrapped continuously on [-m, m] (``phase_winding``,
    which also gives the winding index stored on the kernel), then the
    global 2-pi-i branch constant is fixed by matching L(m) against the
    analytic tail law.
    """
    tail_const = _tail_constant(problem)
    xs, theta, nu, scale = phase_winding(problem, Sheet.FIRST)
    if problem.variant is not Variant.TWO_SHEET and problem.sigma.frobenius == 0:
        # P = 1: zero phase, zero index
        return UnwrappedLogKernel(problem, xs, theta, xs[-1], scale, nu, tail_const,
                                  trivial=True)

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

    return UnwrappedLogKernel(problem, xs, theta, xs[-1], scale, nu, tail_const)


# ---------------------------------------------------------------------------
# Cauchy transform of L: pointwise adaptive evaluation
# ---------------------------------------------------------------------------


def _span_for(kernel: UnwrappedLogKernel, xi0: complex) -> float:
    return max(64.0 * kernel.scale, 4.0 * abs(xi0))


def _closed_terms(span: float, xi0: np.ndarray, t0: np.ndarray,
                  c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Int_{-span}^{span} (c0 + c1 (z - t0))/(z - xi0) dz, vectorized over
    points; continuous off the axis, principal value exactly on it."""
    on_axis = xi0.imag == 0.0
    log_term = np.where(
        on_axis,
        np.log(np.abs(span - xi0.real)) - np.log(np.abs(span + xi0.real)),
        np.log(np.where(on_axis, 1.0, span - xi0))
        - np.log(np.where(on_axis, 1.0, -span - xi0)),
    )
    return c0 * log_term + c1 * (2.0 * span + (xi0 - t0) * log_term)


def cauchy_transform(kernel: UnwrappedLogKernel, xi0, *,
                     rtol: float = 1e-11) -> SplitValue | list[SplitValue]:
    """Phi(xi0) = (1/2 pi i) Int L(z)/(z - xi0) dz over the real axis.

    Q_+(xi0) = Phi(xi0) for Im xi0 > 0 and Q_-(xi0) = -Phi(xi0) for
    Im xi0 < 0.  On the axis the principal-value transform is returned
    (used by the Plemelj boundary formulas).  L is subtracted linearly
    about t0 = Re xi0 so near-axis points (boundary-value probes, low-loss
    roots) cost no more than well-separated ones.

    ``xi0`` may be one point, which gives one ``SplitValue``, or a
    sequence of points, which gives a list of them.  All points are
    integrated in one adaptive pass over s in [-1, 2] that shares every
    evaluation of L: s in [-1, 1] is the main interval z = span s, and
    s in (1, 2] the tail |z| > span folded onto u = 2 - s by z = +-span/u.
    Each point meets its own tolerance and gets its own error estimate.
    """
    points = np.atleast_1d(np.asarray(xi0, dtype=complex))
    if kernel.trivial:
        values, errors = np.zeros(points.size, dtype=complex), np.zeros(points.size)
    else:
        span = max(_span_for(kernel, complex(x)) for x in points)
        t0 = np.clip(points.real, -0.75 * span, 0.75 * span)
        c0 = kernel.log_values(t0)
        c1 = kernel.dlog_on_axis(t0.astype(complex))
        xc, t0c, c0c, c1c = (v[:, None] for v in (points, t0, c0, c1))

        def integrand(s):
            tail = s > 1.0
            main = ~tail
            z = span * s[main]
            u = 2.0 - s[tail]
            zeta = span / u
            lz, lp, lm = np.split(kernel.log_values(np.concatenate([z, zeta, -zeta])),
                                  [z.size, z.size + zeta.size])
            out = np.empty((points.size, s.size), dtype=complex)
            out[:, main] = (lz - c0c - c1c * (z - t0c)) / (z - xc) * span
            out[:, tail] = ((zeta * (lp - lm) + xc * (lp + lm))
                            / (zeta * zeta - xc * xc) * (span / (u * u)))
            return out.T

        scale = kernel.scale
        seeds = np.concatenate([
            [-4.0 * scale, -scale, 0.0, scale, 4.0 * scale],
            (t0[:, None] + scale * np.array([-1.0, -0.1, 0.0, 0.1, 1.0])).ravel(),
            points.real]) / span
        breaks = np.concatenate([seeds[np.abs(seeds) < 1.0], [1.0],
                                 2.0 - np.geomspace(1e-10, 0.5, 12)])
        res = adaptive_gk(integrand, -1.0, 2.0, rtol=rtol, atol=1e-14,
                          initial=np.unique(breaks))
        values = (res.value + _closed_terms(span, points, t0, c0, c1)) / (2j * math.pi)
        errors = res.error / TWO_PI
    out = [SplitValue(complex(v), SplitHalf.PLUS if x.imag >= 0 else SplitHalf.MINUS,
                      complex(x), float(e))
           for v, x, e in zip(values, points, errors)]
    return out[0] if np.ndim(xi0) == 0 else out


def split_q(kernel: UnwrappedLogKernel, xi0: complex, half: SplitHalf,
            *, rtol: float = 1e-11) -> SplitValue:
    """Split-function value Q_+(xi0) or Q_-(xi0) by Cauchy quadrature.

    PLUS requires Im xi0 > 0 and MINUS requires Im xi0 < 0 (each split
    function is evaluated in its own half-plane of analyticity); points on
    the axis are directed to ``boundary_split_q``.
    """
    if kernel.nu_k != 0:
        raise NonzeroIndexError(kernel.nu_k)
    xi0 = complex(xi0)
    if xi0.imag == 0.0:
        raise ValueError(
            "evaluation point on the real axis; use boundary_split_q for "
            "Plemelj boundary values")
    if half is SplitHalf.PLUS and xi0.imag < 0:
        raise ValueError("Q_+ is evaluated in the upper half-plane (Im xi0 > 0)")
    if half is SplitHalf.MINUS and xi0.imag > 0:
        raise ValueError("Q_- is evaluated in the lower half-plane (Im xi0 < 0)")
    phi = cauchy_transform(kernel, xi0, rtol=rtol)
    sign = 1.0 if half is SplitHalf.PLUS else -1.0
    return SplitValue(sign * phi.value, half, xi0, phi.quadrature_error_estimate)


def boundary_split_q(kernel: UnwrappedLogKernel, x: float, half: SplitHalf,
                     *, rtol: float = 1e-11) -> SplitValue:
    """Plemelj boundary value on the real axis:

    Q_+-(x -+/+ i0) = L(x)/2 +- (1/2 pi i) PV Int L(z)/(z - x) dz.
    """
    if kernel.nu_k != 0:
        raise NonzeroIndexError(kernel.nu_k)
    x = float(x)
    pv = cauchy_transform(kernel, complex(x), rtol=rtol)
    half_l = 0.5 * complex(kernel.log_values(np.array([x]))[0])
    sign = 1.0 if half is SplitHalf.PLUS else -1.0
    return SplitValue(half_l + sign * pv.value, half, complex(x),
                      pv.quadrature_error_estimate)


def q_asymptotic(problem: Problem, xi: complex, half: SplitHalf) -> complex:
    """Leading large-xi law: Q_+(xi) ~ (1/2) ln(sigma_xx xi / 2) and
    Q_-(xi) ~ (1/2) ln(-sigma_xx xi / 2) (nondimensional units)."""
    sxx = problem.sigma_eff.xx
    if sxx == 0:
        raise ValueError("sigma_xx = 0: no logarithmic tail")
    arg = 0.5 * sxx * complex(xi)
    if half is SplitHalf.MINUS:
        arg = -arg
    return 0.5 * complex(principal_log(arg))


# ---------------------------------------------------------------------------
# Lambda splitting
# ---------------------------------------------------------------------------

_ROOT_SERIES_BAND = 1e-6


def _phi_derivative(kernel: UnwrappedLogKernel, xi0: complex, *, rtol=1e-10) -> complex:
    h = 1e-5 * kernel.scale
    a, b = cauchy_transform(kernel, [xi0 + h, xi0 - h], rtol=rtol)
    return (a.value - b.value) / (2.0 * h)


def lambda_pm(problem: Problem, kernel: UnwrappedLogKernel, xi: complex,
              half: SplitHalf, *, rtol: float = 1e-10) -> complex:
    """The splitting functions

    Lambda_+(xi) = -C+ [e^{-Q+(xi)} - e^{-Q+(xi+)}]/(xi - xi+)
                   + C- [e^{Q-(xi-)} - e^{-Q+(xi)}]/(xi - xi-),
    Lambda_-(xi) = +C- [e^{Q-(xi)} - e^{Q-(xi-)}]/(xi - xi-)
                   - C+ [e^{-Q+(xi+)} - e^{Q-(xi)}]/(xi - xi+),

    with removable singularities at xi = xi^+- handled by a series limit.
    Natural half-plane evaluation uses e^{-+Q_+-(xi)} = e^{-Phi(xi)}; on
    the opposite side (needed only within a thin strip, e.g. boundary
    probes at xi -+ i delta) the analytic continuation across the axis is
    e^{-Q+} -> e^{-Phi}/P and e^{Q-} -> P e^{-Phi}, P being single valued.
    """
    xi = complex(xi)
    roots, coeffs, phi_p, phi_m = kernel.root_constants()
    xp, xm = roots.xi_plus, roots.xi_minus
    cp, cm = coeffs.c_plus, coeffs.c_minus
    a = np.exp(-phi_p.value)   # e^{-Q_+(xi^+)}
    b = np.exp(-phi_m.value)   # e^{+Q_-(xi^-)}

    if xi.imag == 0.0:
        raise ValueError("Lambda evaluation needs an off-axis point; shift by "
                         "+-i*delta for boundary probes")
    natural_upper = xi.imag > 0

    phi = cauchy_transform(kernel, xi, rtol=rtol).value
    e_phi = np.exp(-phi)
    if half is SplitHalf.PLUS:
        # f = e^{-Q_+(xi)} continued across the axis if needed
        f = e_phi if natural_upper else e_phi / p_of_xi(problem, xi, Sheet.FIRST)
        if abs(xi - xp) < _ROOT_SERIES_BAND * kernel.scale:
            term_p = cp * _phi_derivative(kernel, xp) * a
        else:
            term_p = -cp * (f - a) / (xi - xp)
        term_m = cm * (b - f) / (xi - xm)
        return complex(term_p + term_m)
    # f = e^{+Q_-(xi)}
    f = e_phi if not natural_upper else e_phi * p_of_xi(problem, xi, Sheet.FIRST)
    if abs(xi - xm) < _ROOT_SERIES_BAND * kernel.scale:
        # d/dxi e^{Q_-} at xi^-: Q_-' = -Phi'
        term_m = cm * (-_phi_derivative(kernel, xm)) * b
    else:
        term_m = cm * (f - b) / (xi - xm)
    term_p = -cp * (a - f) / (xi - xp)
    return complex(term_m + term_p)


# ---------------------------------------------------------------------------
# Batched Cauchy transform on fixed nodes
# ---------------------------------------------------------------------------


# Elements per fill buffer of _pole_sums: the two float64 buffers of a
# block (1 MB together) stay in a core's L2 cache between their fill and
# the matrix product that reads them.
POLE_SUM_BLOCK = 1 << 16

# A table node j is near a point z when w_j > NEAR_POLE_RATIO |t_j - z|.
# Its term is left out of the expanded sums and added in subtracted form,
# so no expanded term exceeds NEAR_POLE_RATIO |L|.  At this ratio at most
# one node, a neighbour of Re z in the sorted nodes, is near any point:
# Kronrod-15 node gaps exceed 2 w/NEAR_POLE_RATIO.
NEAR_POLE_RATIO = 100.0


def _pole_sums(nodes: np.ndarray, z: np.ndarray, moments: np.ndarray,
               skip: tuple[np.ndarray, np.ndarray] | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """S[i, k] = Sum_j W[j, k] / (nodes[j] - z[i]) for real nodes and complex
    z, at z and at conj(z).

    ``moments`` holds the complex columns W as reals, [Re W, Im W].  With
    d = t - Re z, 1/(t - z) = (d + i Im z)/(d^2 + Im z^2): its real part
    and 1/(d^2 + Im z^2) are filled block by block into two real buffers,
    each multiplied by ``moments``, and Im z is applied per row afterwards.
    Neither buffer depends on the sign of Im z, so the sums at conj(z) come
    from the same products with that factor negated, bit for bit what a
    separate call at conj(z) returns.  ``skip`` = (point indices,
    ascending; node indices) names pairs left out of the sums.
    """
    k = moments.shape[1] // 2
    re_s = np.empty((z.size, 2 * k))
    im_s = np.empty((z.size, 2 * k))
    rows = max(1, min(z.size, POLE_SUM_BLOCK // nodes.size))
    re_k = np.empty((rows, nodes.size))
    inv = np.empty((rows, nodes.size))
    for start in range(0, z.size, rows):
        sl = slice(start, min(start + rows, z.size))
        n = sl.stop - start
        d, den = re_k[:n], inv[:n]
        np.subtract(nodes, z.real[sl, None], out=d)
        np.multiply(d, d, out=den)
        den += np.square(z.imag[sl, None])
        np.reciprocal(den, out=den)
        d *= den
        if skip is not None:
            lo, hi = np.searchsorted(skip[0], (start, sl.stop))
            cells = (skip[0][lo:hi] - start, skip[1][lo:hi])
            d[cells] = 0.0
            den[cells] = 0.0
        np.matmul(den, moments, out=im_s[sl])
        np.matmul(d, moments, out=re_s[sl])
    im_s *= z.imag[:, None]
    re_a, re_b, im_a, im_b = re_s[:, :k], re_s[:, k:], im_s[:, :k], im_s[:, k:]
    return (re_a - im_b) + 1j * (re_b + im_a), (re_a + im_b) + 1j * (re_b - im_a)


def _as_real_columns(columns: np.ndarray) -> np.ndarray:
    return np.column_stack([columns.real, columns.imag])


class CauchyTable:
    """Fixed discretization of the Cauchy transform for batch evaluation.

    Same subtraction scheme as ``cauchy_transform`` but with nodes built
    once per kernel: a panelized main interval [-span, span] plus folded
    log-spaced tail nodes.  Accuracy is validated in the test suite
    against the pointwise adaptive route, and ``phi`` against the dense
    subtracted sum over the same nodes.

    ``phi`` evaluates the same discrete sums in expanded form.  With
    K_ij = w_j/(t_j - z_i) the subtracted main sum is linear in c0, c1:

        Sum_j w_j (L_j - c0 - c1 (t_j - t0))/(t_j - z)
            = K.L - c0 K.1 - c1 (Sum_j w_j + (z - t0) K.1),

    since w (t - t0)/(t - z) = w + (z - t0) w/(t - z) term by term.  K.L
    and K.1 come from real matrix products against the node moments
    [w L, w] stored at build time (``_pole_sums``).  The folded tail,
    Sum_k [w tau (L+ - L-) + z w (L+ + L-)]/(tau^2 - z^2), is the same
    kind of sum over the nodes tau^2 at the point z^2.

    Rounding: an expanded term w_j L_j/(t_j - z) is as large as w|L|/delta
    at |Im z| = delta, where the subtracted numerator is near zero, and
    the summation error of the large partial sums stays in the result
    (above 1e-9 for a point within 1e-9 kappa of a node of the widest
    panels at delta = 1e-7 kappa).  Nodes that near a point are therefore
    summed in subtracted form (``NEAR_POLE_RATIO``); every other term is
    below NEAR_POLE_RATIO |L|.

    A table holds its kernel by a weak reference, so the kernel that
    memoizes it must stay alive while the table is used.
    """

    def __init__(self, kernel, span, nodes, weights, lvals, moments,
                 tail_z, tail_moments):
        # a strong reference back to the kernel that memoizes the table
        # would keep both alive until a cyclic garbage collection
        self.kernel = weakref.proxy(kernel)
        self.span = span
        self.nodes = nodes                  # ascending
        self.weights = weights
        self.lvals = lvals
        self.moments = moments              # [w L, w], real columns
        self.tail_z = tail_z
        self.tail_moments = tail_moments    # [w tau (L+ - L-), w (L+ + L-)], real columns

    @classmethod
    def build(cls, kernel: UnwrappedLogKernel) -> "CauchyTable":
        scale = kernel.scale
        span = 64.0 * scale
        width = scale / 24.0
        inner_edge = 8.0 * scale
        n_inner = int(np.ceil(2.0 * inner_edge / width))
        edges = [np.linspace(-inner_edge, inner_edge, n_inner + 1)]
        # geometric panels out to the span on both sides
        grow = inner_edge
        right = [inner_edge]
        while grow < span:
            grow = min(grow * 1.2, span)
            right.append(grow)
        right = np.asarray(right)
        edges = np.unique(np.concatenate([-right[::-1], edges[0], right]))

        nodes, weights = (v.ravel() for v in gk_nodes_weights(edges[:-1], edges[1:]))
        lvals = kernel.log_values(nodes)

        # folded tail: zeta = span/u on dyadic u-panels down to u ~ 1e-12
        u_edges = 2.0 ** -np.arange(0, 41, dtype=float)
        u_nodes, u_w = (v.ravel() for v in gk_nodes_weights(u_edges[1:], u_edges[:-1]))
        tail_z = span / u_nodes
        tail_w = u_w * span / (u_nodes * u_nodes)
        tail_lp = kernel.log_values(tail_z)
        tail_lm = kernel.log_values(-tail_z)
        tail_moments = _as_real_columns(np.column_stack(
            [tail_w * tail_z * (tail_lp - tail_lm), tail_w * (tail_lp + tail_lm)]))
        moments = _as_real_columns(np.column_stack([weights * lvals, weights]))
        return cls(kernel, span, nodes, weights, lvals, moments, tail_z, tail_moments)

    def _near_pairs(self, xi0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point, node) index pairs with w_j > NEAR_POLE_RATIO |t_j - z_i|,
        points ascending."""
        last = self.nodes.size - 1
        right = np.searchsorted(self.nodes, xi0.real).clip(1, last)
        cand = np.stack([right - 1, right], axis=1)
        near = self.weights[cand] > NEAR_POLE_RATIO * np.abs(self.nodes[cand] - xi0[:, None])
        rows, col = np.nonzero(near)
        return rows, cand[rows, col]

    def phi(self, xi0, *, conjugate: bool = False):
        """Phi at a batch of off-axis points (PV on the axis), vectorized.

        Valid while Re xi0 stays inside ~3/4 of the table span, where the
        pole subtraction is anchored; use ``cauchy_transform`` for far
        points (it sizes its own interval).  With ``conjugate`` it returns
        (Phi(xi0), Phi(conj xi0)) from the same pole sums: the mirrored
        side of a contour costs only its closed and near-node terms, and
        its values equal those of a separate call bit for bit.
        """
        xi0 = np.atleast_1d(np.asarray(xi0, dtype=complex))
        kernel = self.kernel
        if kernel.trivial:
            out = np.zeros(xi0.shape, dtype=complex)
            return (out, out.copy()) if conjugate else out
        span = self.span
        far = np.abs(xi0.real) > 0.78 * span
        if far.any() and np.any(np.abs(xi0.imag[far]) < np.abs(xi0.real[far])):
            raise ValueError(
                "CauchyTable.phi: near-axis point beyond 3/4 of the table "
                "span; enlarge the table or use cauchy_transform")
        t0 = np.clip(xi0.real, -0.75 * span, 0.75 * span)
        c0 = kernel.log_values(t0)
        c1 = kernel.dlog_on_axis(t0.astype(complex))
        near_i, near_j = self._near_pairs(xi0)
        # a node equal to an on-axis point is a near pair: its 1/0 cell is skipped
        with np.errstate(divide="ignore", invalid="ignore"):
            k_sums = _pole_sums(self.nodes, xi0, self.moments, skip=(near_i, near_j))
        tail_sums = _pole_sums(self.tail_z * self.tail_z, xi0 * xi0, self.tail_moments)
        # near pairs: the subtracted numerator, plus the c1 w_j that Sum_j w_j
        # below counts for a node missing from K.1
        t, w, c1_near = self.nodes[near_j], self.weights[near_j], c1[near_i]
        num = self.lvals[near_j] - c0[near_i] - c1_near * (t - t0[near_i])
        points = (xi0, np.conj(xi0)) if conjugate else (xi0,)
        sides = []
        for z, pole, tail in zip(points, k_sums, tail_sums):
            k_l, k_1 = pole.T
            t_p, t_s = tail.T
            main = k_l - c0 * k_1 - c1 * (self.weights.sum() + (z - t0) * k_1)
            dt = t - z[near_i]
            # at a node equal to an on-axis point the fraction's limit is 0
            frac = np.divide(num, dt, out=np.zeros_like(num), where=dt != 0)
            np.add.at(main, near_i, w * (c1_near + frac))
            closed = _closed_terms(span, z, t0, c0, c1)
            sides.append((main + closed + t_p + z * t_s) / (2j * math.pi))
        return tuple(sides) if conjugate else sides[0]
