"""Near-edge potential: Fourier inversion profiles, bulk-SPP residue
decomposition, and the closed-form edge limits.

With the splitting in hand, the potential on either side of the edge is

    phi(x<0) = (phi0/2 pi i) Int Lambda_+(xi) e^{Q_+(xi)} e^{i xi x} dxi,
    phi(x>0) = (phi0/2 pi i) Int Lambda_-(xi) e^{-Q_-(xi)} e^{i xi x} dxi,

normalized to phi0 = 1.  The 1/(xi - xi^+-) partial-fraction pieces of
Lambda are integrated in closed form (they give the C^+ e^{i xi^+ x} /
-C^- e^{i xi^- x} terms); the remainder decays algebraically and is
integrated on a contour shifted off the axis by a small delta.

Both routines use one real-axis contour per kernel: t - i delta with
delta = 1e-7 kappa, GK15 panels on [-span, span], span = max(40 kappa,
3|q|), graded in two parts (``_panel_nodes``).  The inner part, [-inner,
inner] with inner = max(4 kappa, twice the farthest census zero or
bracket pole), holds the structure of P: panels at most kappa/4 wide
(and at most 3/max|x| for a profile, ``_panel_width``), with panel edges
added around the census zeros kept on the kernel, and around the
bracket poles xi^+- nearer the axis than that width, at their distance
from the axis times 0, +-1, +-2, ..., +-16; below kappa, edges at
+-(|q|/4) 1.25^k resolve the branch points +-iq when |q| < kappa.
Beyond +-inner, where s_- is smooth, the edge limit's contour (panels
kappa/4 wide) grows its panels by 1.25 each out to +-span; a narrower
profile contour stops at +-inner.  One ``CauchyTable.phi`` call gives
Phi on every node and s_- = bracket e^{Phi}; the x < 0 integrand
e^{+Q_+} = P e^{Phi} continues from above the axis to the same nodes
(nothing in the 2 delta strip stops it), so s_+ = s_- P takes one
``p_of_xi`` call, on the inner nodes, made by the first x < 0 profile.
Both, with Int |s_+-| per panel, are memoized on the kernel, so
whichever routine runs second reuses them.
One side integral, ``_contour_integral``, serves both signs of x (the
edge limit is x = 0): the edge limit integrates every panel and adds
two-term algebraic tails fitted at +-span, whose samples share the
contour's ``CauchyTable.phi`` call, a profile integrates the inner
panels and adds the rays from +-inner - i delta into the half-plane
where e^{i xi x} decays, which take one call for all its x.  Its one
error rule adds the moduli of the panels' embedded-rule misses, the
tails' errors, and Phi's error carried through s_+-.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .kernel import Problem, Variant, dp_dxi, p_of_xi
from .quadrature import gk_nodes_weights, gk_panel_sums
from .spectrum import SpectrumReport
from .wiener_hopf import UnwrappedLogKernel, cauchy_transform

__all__ = [
    "EdgeLimits",
    "FieldProfile",
    "SppDecomposition",
    "SppMode",
    "edge_limits",
    "phi_profile",
    "spp_decomposition",
]

TWO_PI_I = 2j * math.pi
# the roundings of a closed-form limit, per unit of its terms' moduli
ROUNDING = 4.0 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# Edge limits (closed contour algebra)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EdgeLimits:
    """phi(0+), phi(0-) (phi0 = 1), the divergence coefficient and the
    limits' error estimates (Phi's error and, for phi(0-), roundings).

    ``divergence_coefficient`` is A = C^+ e^{-Q_+(xi^+)} + C^- e^{Q_-(xi^-)},
    the prefactor of the divergent edge integral; its vanishing *is* the
    dispersion relation, so |A| doubles as an alternative residual.  The
    reported limits are the convergent parts; they equal phi0 exactly when
    A = 0.
    """

    phi_plus: complex
    phi_minus: complex
    divergence_coefficient: complex
    phi_plus_error: float = 0.0
    phi_minus_error: float = 0.0


def _constants(kernel: UnwrappedLogKernel):
    """(xi^+, xi^-, C^+, C^-, a, b) with a = e^{-Q_+(xi^+)}, b = e^{Q_-(xi^-)}."""
    roots, phi_p, phi_m = kernel.root_constants()
    return (roots.xi_plus, roots.xi_minus, roots.c_plus, roots.c_minus,
            complex(np.exp(-phi_p)), complex(np.exp(-phi_m)))


def _bracket(consts, xi):
    """C^+ a/(xi - xi^+) + C^- b/(xi - xi^-), the pole part of s_+-."""
    xp, xm, cp, cm, a, b = consts
    return cp * a / (xi - xp) + cm * b / (xi - xm)


def edge_limits(problem: Problem, kernel: UnwrappedLogKernel) -> EdgeLimits:
    """Edge limits of phi by the closed-form contour evaluations.

    Single sheet: phi(0+) = C^+ + C^- evaluated through the actual
    quadrature route (the convergent integral is computed numerically, so
    this genuinely exercises the analytic structure of e^{-Q_-}), and

        phi(0-) = -[C^+ xi^- a + C^- xi^+ b] (1/a - 1/b) / (xi^+ - xi^-).

    Two coplanar sheets: the convergent parts of the displayed limits,
    phi(0+-) = 1 -+ A xi^-+ e^{-+Q_-+(xi^-+)} / (xi^+ - xi^-) ... with the
    divergent portion carrying the prefactor A.
    """
    consts = _constants(kernel)
    xp, xm, cp, cm, a, b = consts
    div_coeff = cp * a + cm * b
    # the closed forms take Phi(xi^+-) through a/b = e^{Phi(xi^-) - Phi(xi^+)}
    # alone: an error dPhi in each Phi moves a limit by 2 dPhi |d limit /
    # d ln(a/b)| to first order.  phi(0-) adds its roundings, 4 eps times its
    # terms' moduli: on a mirror-symmetric sheet the first-order term is 0
    phi_err = 2.0 * kernel.cauchy_table().error_estimate

    if problem.variant is Variant.TWO_SHEET:
        phi_plus = 1.0 + div_coeff * xm * (1.0 / b) / (xp - xm)
        phi_minus = 1.0 - div_coeff * xp * (1.0 / a) / (xp - xm)
        # phi(0+) = 1 + xm (C^+ a/b + C^-)/(xp - xm), phi(0-) = 1 - xp (C^+ +
        # C^- b/a)/(xp - xm)
        plus_err = phi_err * abs(xm * cp * a / (b * (xp - xm)))
        terms = np.array([1.0, xp * cp / (xp - xm), xp * cm * b / (a * (xp - xm))])
        minus_err = phi_err * abs(terms[2]) + ROUNDING * np.abs(terms).sum()
        return EdgeLimits(complex(phi_plus), complex(phi_minus), complex(div_coeff),
                          phi_plus_error=plus_err, phi_minus_error=float(minus_err))

    phi_minus = -(cp * xm * a + cm * xp * b) * (1.0 / a - 1.0 / b) / (xp - xm)
    # phi(0-) = (C^+ xm a/b + C^- xp - C^+ xm - C^- xp b/a)/(xp - xm)
    terms = np.array([cp * xm * a / b, cm * xp * b / a, cp * xm, cm * xp]) / (xp - xm)
    minus_err = phi_err * abs(terms[0] + terms[1]) + ROUNDING * np.abs(terms).sum()

    # phi(0+) = C^+ - (1/2 pi i) Int [C^+ a/(xi-xi^+) + C^- b/(xi-xi^-)]
    # e^{-Q_-(xi)} dxi, whose closed-down evaluation is C^+ + C^-; computing
    # the integral numerically cross-checks the splitting.
    contour = _field_contour(kernel, _panel_width(kernel))
    integral, err = _contour_integral(kernel.cauchy_table(), contour, contour.s_minus, 0.0,
                                      contour.tails)
    phi_plus = cp - complex(integral) / TWO_PI_I
    return EdgeLimits(complex(phi_plus), complex(phi_minus), complex(div_coeff),
                      phi_plus_error=err, phi_minus_error=float(minus_err))


# ---------------------------------------------------------------------------
# SPP residue decomposition
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SppMode:
    wavenumber: complex
    amplitude: complex


@dataclasses.dataclass(frozen=True)
class SppDecomposition:
    """Residue (bulk-SPP) content of phi for x > 0.

    phi_res(x) = sum_l amplitude_l e^{i xi_l x} over the upper-half-plane
    first-sheet zeros xi_l of the symbol.  The explicit C^+ e^{i xi^+ x}
    term of the x > 0 representation is cancelled identically by the
    residue of the integrand's pole at xi^+ (P(xi^+) = 1 and
    e^{Q_+(xi^+)} e^{-Q_+(xi^+)} = 1), so it does not appear here; the
    cancelled pair is recorded for reference.
    """

    modes: tuple[SppMode, ...]
    explicit_wavenumber: complex
    explicit_amplitude: complex
    census: SpectrumReport

    def residue_field(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for mode in self.modes:
            out += mode.amplitude * np.exp(1j * mode.wavenumber * x)
        return out

    @property
    def slowest_decay_rate(self) -> float:
        """min Im xi_l: the decay rate of the longest-lived residue mode."""
        if not self.modes:
            return math.inf
        return min(m.wavenumber.imag for m in self.modes)


DEGENERATE_POLE_BAND = 1e-6


def spp_decomposition(problem: Problem, kernel: UnwrappedLogKernel) -> SppDecomposition:
    """Per-mode amplitudes of the bulk-SPP residue sum for x > 0.

    Residue of the inversion integrand at a simple zero xi_l of P:

        amplitude_l = -[C^- b/(xi_l - xi^-) + C^+ a/(xi_l - xi^+)]
                      e^{Q_+(xi_l)} / P'(xi_l),

    where a = e^{-Q_+(xi^+)}, b = e^{Q_-(xi^-)}.  Only Im xi_l > 0 modes
    contribute on the sheet side.
    """
    if problem.variant is Variant.TWO_SHEET:
        raise ValueError("residue decomposition implemented for single-sheet "
                         "and interface variants")
    consts = _constants(kernel)
    xp, _, cp, *_ = consts
    census = kernel.census[0]
    upper = census.upper_first_sheet()
    locs = [z.location for z in upper]
    scale = kernel.scale
    for i, z in enumerate(locs):
        if abs(z - xp) < DEGENERATE_POLE_BAND * scale:
            raise ValueError(f"SPP zero {z:.6g} degenerate with xi^+; "
                             "residue decomposition singular")
        for w in locs[i + 1:]:
            if abs(z - w) < DEGENERATE_POLE_BAND * scale:
                raise ValueError("coincident SPP zeros; residue decomposition singular")
    zs = np.array(locs, dtype=complex)
    e_qp = np.exp(cauchy_transform(kernel, zs))   # e^{Q_+(xi_l)}, Im xi_l > 0
    amps = -_bracket(consts, zs) * e_qp / dp_dxi(problem, zs)
    modes = sorted((SppMode(wavenumber=z, amplitude=complex(amp)) for z, amp in zip(locs, amps)),
                   key=lambda m: m.wavenumber.imag)
    return SppDecomposition(
        modes=tuple(modes),
        explicit_wavenumber=xp,
        explicit_amplitude=cp,
        census=census,
    )


# ---------------------------------------------------------------------------
# Fourier-inversion profiles
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FieldProfile:
    x: np.ndarray
    phi: np.ndarray
    error_estimate: np.ndarray
    accuracy_flag: np.ndarray          # True where error exceeds the target


def _e_power(power: float, cut: float) -> float:
    """Int_cut^inf t^(-power) dt for power > 1."""
    return cut ** (1.0 - power) / (power - 1.0)


def _fit_tail(samples, cut: float):
    """(Int_c^inf fit, its error, |A| e(1.5) + |B| e(2.5) >= Int |fit|) for
    s(t) ~ A t^-1.5 + B t^-2.5 fitted to the samples of s at 0.8c and c.
    The second term matters where A nearly vanishes (at dispersion roots A
    is the residual A(q) itself).  The error comes from the fit's miss at
    the third sample, at 0.9c, taken to come from a term D t^-3.5, whose
    tail integral the same fit misses by a fixed multiple of its miss there
    (about 77 c)."""
    power = 1.5
    t = cut * np.array([0.8, 1.0, 0.9])

    def fit(s):
        # A + B/t = s t^power at the first two samples, in closed form,
        # and the fit's miss at the third
        a1, a2 = s[0] * t[0] ** power, s[1] * t[1] ** power
        coef_b = (a1 - a2) * t[0] * t[1] / (t[1] - t[0])
        coef_a = a2 - coef_b / t[1]
        return coef_a, coef_b, s[2] - coef_a * t[2] ** -power - coef_b * t[2] ** -(power + 1.0)

    coef_a, coef_b, resid = fit(samples)
    e_a, e_b = _e_power(power, cut), _e_power(power + 1.0, cut)
    # the same fit of the unit next-order term: its checkpoint miss and
    # the error of its fitted tail integral
    n_a, n_b, miss = fit(t ** -(power + 2.0))
    tail_miss = _e_power(power + 2.0, cut) - (n_a * e_a + n_b * e_b)
    return (complex(coef_a * e_a + coef_b * e_b), float(abs(resid * tail_miss / miss)),
            float(abs(coef_a) * e_a + abs(coef_b) * e_b))


def _abs_panels(vals: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Int |f| over each GK15 panel from the values of f at its nodes."""
    return gk_panel_sums(np.abs(vals).reshape(half.size, -1), half)[0]


def _abs_integral(vals: np.ndarray, half: np.ndarray) -> float:
    """Int |f| over GK15 panels from the values of f at their nodes."""
    return float(_abs_panels(vals, half).sum())


# panel edges at Re xi_z + |Im xi_z| times these, around each census zero
ZERO_EDGE_OFFSETS = np.array([-16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0])
# the inner part of the field contour spans at least INNER_SPAN kappa (and
# twice the farthest census zero or bracket pole); beyond it the panel
# edges grow by EDGE_GROWTH per panel out to the span, as they do from
# |q|/4 up to kappa around the branch points +-iq
INNER_SPAN = 4.0
EDGE_GROWTH = 1.25


def _sorted_edges(edges: np.ndarray) -> np.ndarray:
    """The edges sorted, a repeated edge taken once (np.unique imports
    numpy.ma on first use)."""
    edges = np.sort(edges)
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


def _grown(start: float, stop: float) -> np.ndarray:
    """start EDGE_GROWTH^k for k = 0, 1, ..., below stop."""
    edges = start * EDGE_GROWTH ** np.arange(math.ceil(math.log(stop / start, EDGE_GROWTH)))
    return edges[edges < stop]


def _panel_nodes(span: float, max_width: float, kernel: UnwrappedLogKernel):
    """The graded tiling of [-span, span]: its GK15 nodes, 15 per panel
    in order with the inner panels first, the panel half widths, the end
    of the inner part and its number of panels.

    The inner part, [-inner, inner] with inner = max(4 kappa, 2 max|c|)
    over the census zeros and the bracket poles c (at most the span; two
    sheets' bracket poles can lie beyond kappa), holds every singularity
    of the integrand, so the profile's rays from +-inner clear them.  It
    has uniform panels at most ``max_width`` wide, plus edges at Re c +
    |Im c| {0, +-1, +-2, +-4, +-8, +-16} around each non-marginal
    first-sheet census zero c of every signed sheet, and around each
    bracket pole nearer the axis than ``max_width``: a zero, a pole of
    P^R/P^L or a pole of the bracket at distance d from the axis makes a
    peak of width d there, which these panels resolve where the uniform
    tiling is coarse.  When |q| < kappa, edges at +-(|q|/4) 1.25^k below
    kappa resolve the branch points +-iq.  Beyond +-inner, where s_-
    decays smoothly like t^-1.5, the edges grow as +-inner 1.25^k out to
    +-span (the edge limit alone reads those panels, and
    ``_field_contour`` keeps them on its contour only).
    """
    scale = kernel.scale
    zeros = np.array([loc for loc, _ in kernel.first_sheet_zeros()], dtype=complex)
    roots = kernel.root_constants()[0]
    poles = np.array([roots.xi_plus, roots.xi_minus])
    inner = min(max(INNER_SPAN * scale, 2.0 * np.abs(np.append(zeros, poles)).max()), span)
    centres = np.concatenate([zeros, poles[np.abs(poles.imag) < max_width]])
    marks = (centres.real[:, None] + np.abs(centres.imag)[:, None] * ZERO_EDGE_OFFSETS).ravel()
    marks = marks[np.abs(marks) < span]
    q = abs(kernel.problem.q)
    near = _grown(0.25 * q, scale) if q < scale else np.empty(0)
    uniform = np.linspace(-inner, inner, int(np.ceil(2.0 * inner / max_width)) + 1)
    mid = _sorted_edges(np.concatenate([uniform, near, -near, marks[np.abs(marks) < inner]]))
    grown = np.append(_grown(inner, span), span)
    right = _sorted_edges(np.concatenate([grown, marks[marks >= inner]]))
    left = -_sorted_edges(np.concatenate([grown, -marks[marks <= -inner]]))[::-1]
    lo = np.concatenate([mid[:-1], left[:-1], right[:-1]])
    hi = np.concatenate([mid[1:], left[1:], right[1:]])
    nodes, _ = gk_nodes_weights(lo, hi)
    return nodes.ravel(), 0.5 * (hi - lo), inner, mid.size - 1


def _panel_width(kernel: UnwrappedLogKernel, xmax: float = 0.0) -> float:
    """The widest inner field-contour panel: kappa/4, and for a profile
    out to |x| = xmax at most 3/xmax, over which e^{i t x} turns 3
    radians."""
    width = kernel.scale / 4.0
    return width if xmax == 0.0 else min(width, 3.0 / xmax)


@dataclasses.dataclass(frozen=True)
class _Contour:
    """The graded real-axis field contour t - i delta, Phi there, and s_-
    = bracket e^{Phi} with Int |s_-| per panel.  A profile integrates the
    ``n_inner`` panels of [-inner, inner], which come first; the edge
    limit's contour (panels kappa/4 wide) also has the outer panels out to
    the span and the fitted tails beyond it, which the edge limit alone
    reads."""

    span: float
    inner: float
    delta: float
    nodes: np.ndarray          # t, GK15 nodes
    half: np.ndarray           # panel half widths
    n_inner: int               # panels on [-inner, inner]
    phi_below: np.ndarray      # Phi(t - i delta)
    s_minus: tuple             # (s_- values, Int |s_-| per panel)
    tails: list | None         # ``_fit_tail`` beyond +span and -span, or None

    @property
    def inner_nodes(self) -> int:
        """The number of nodes on the inner panels."""
        return self.n_inner * (self.nodes.size // self.half.size)


def _field_contour(kernel: UnwrappedLogKernel, width: float) -> _Contour:
    """The contour with inner panels at most ``width`` wide, memoized on
    the kernel: ``edge_limits`` and ``phi_profile`` share it whenever
    their widths agree.  A narrower contour serves profiles alone and
    stops at +-inner.  It takes one ``CauchyTable.phi`` call, which on
    the edge limit's contour also takes s_- at the samples of its fitted
    tails, 0.8, 1 and 0.9 span at either end (``_fit_tail``), without
    oscillation (the x -> 0+ limit is taken)."""
    def build():
        # the error of the edge limits' fitted tails falls like span^-2.5:
        # on sheet D at its root |phi(0+) - 1| is 1.6e-4 at 20 kappa,
        # 4.7e-5 at 32 kappa and 2.7e-5 at 40 kappa
        span = max(40.0 * kernel.scale, 3.0 * abs(kernel.problem.q))
        delta = 1e-7 * kernel.scale
        nodes, half, inner, n_inner = _panel_nodes(span, max_width=width, kernel=kernel)
        full = width == _panel_width(kernel)
        if not full:
            nodes, half = nodes[:n_inner * (nodes.size // half.size)], half[:n_inner]
        n = nodes.size
        t = span * np.array([0.8, 1.0, 0.9]) if full else np.empty(0)
        xi = np.concatenate([nodes, t, -t]) - 1j * delta
        below = kernel.cauchy_table().phi(xi)
        # e^{-Q_-} = e^{+Phi} below the axis
        minus = _bracket(_constants(kernel), xi) * np.exp(below)
        tails = [_fit_tail(minus[n:n + 3], span), _fit_tail(minus[n + 3:], span)] if full else None
        return _Contour(span, inner, delta, nodes, half, n_inner, below[:n],
                        (minus[:n], _abs_panels(minus[:n], half)), tails)

    return kernel.memo(("field_contour", width), build)


def _s_plus(problem: Problem, kernel: UnwrappedLogKernel, width: float):
    """(s_+ values, Int |s_+| per panel) = s_- P on the inner nodes of
    the contour ``_field_contour(kernel, width)``, memoized on the kernel
    and built with one ``p_of_xi`` call: e^{+Q_+} = P e^{+Phi} continues
    from above the axis to the contour (nothing in the 2 delta strip
    stops it)."""
    contour = _field_contour(kernel, width)

    def build():
        n = contour.inner_nodes
        plus = contour.s_minus[0][:n] * p_of_xi(problem, contour.nodes[:n] - 1j * contour.delta)
        return plus, _abs_panels(plus, contour.half[:contour.n_inner])

    return kernel.memo(("field_s_plus", width), build)


def _vertical_panels(length: float, struct: float):
    """GK15 nodes and half widths of dyadic panels on [0, length], refined
    toward 0 until the first panel is shorter than the integrand's
    structural scale."""
    levels = int(np.clip(math.ceil(math.log2(length / (0.25 * struct))), 6, 26))
    edges = np.concatenate(([0.0], length * 2.0 ** -np.arange(levels, -1.0, -1.0)))
    nodes, _ = gk_nodes_weights(edges[:-1], edges[1:])
    return nodes.ravel(), 0.5 * np.diff(edges)


def _rotated_tails(prob: Problem, table, consts, contour: _Contour,
                   x_values) -> list[list[tuple[complex, float, float]]]:
    """Per x, the tails Int s(xi) e^(i xi x) dxi beyond the contour's
    inner part with their embedded-rule errors and Int |integrand|, each
    along the vertical ray from +-inner - i delta where e^(i xi x) decays
    (upward for x > 0, downward for x < 0).  Beyond +-inner, at least
    twice the farthest census zero or bracket pole and four times kappa
    >= |q|, the integrand has no zeros, poles or branch points, so it
    continues across the real axis: for x > 0, e^{-Q_-} -> e^{Phi}/P above it, and
    for x < 0, e^{+Q_+} = P e^{Phi} below it.  Exponential decay makes
    the truncation error negligible for every |x|.  An x's two rays
    share their panels, and all rays take one ``CauchyTable.phi`` call
    and one ``p_of_xi`` call."""
    inner, delta = contour.inner, contour.delta
    rays = [(end - 1j * delta, x, *ray) for x in x_values
            for ray in [_vertical_panels(45.0 / abs(x), struct=inner)] for end in (inner, -inner)]
    xi = np.concatenate([end + 1j * np.sign(x) * s_nodes for end, x, s_nodes, _ in rays])
    x_at = np.concatenate([np.full(s_nodes.size, x) for _, x, s_nodes, _ in rays])
    factor = np.exp(table.phi(xi))
    crossed = np.sign(xi.imag) == np.sign(x_at)
    if crossed.any():
        p = p_of_xi(prob, xi[crossed])
        f = factor[crossed]
        factor[crossed] = np.where(x_at[crossed] > 0, f / p, f * p)
    vals = _bracket(consts, xi) * factor * np.exp(1j * xi * x_at)
    out, start = [], 0
    for end, x, s_nodes, s_half in rays:
        ray = vals[start:start + s_nodes.size]
        start += s_nodes.size
        panels, diff = gk_panel_sums(ray.reshape(s_half.size, -1), s_half)
        # the tail before -inner is minus the ray integral from it
        out.append((1j * np.sign(x) * np.sign(end.real) * complex(panels.sum()),
                    float(np.abs(diff).sum()), _abs_integral(ray, s_half)))
    return [out[i:i + 2] for i in range(0, len(out), 2)]


def _contour_integral(table, contour: _Contour, s, x: float, tails):
    """Int s(xi) e^(i xi x) dxi along the contour, for s = (values, Int
    |s| per panel) of s_- (x >= 0) or s_+ (x < 0), on every panel for x =
    0 and the inner ones otherwise, plus the (value, error, Int
    |integrand|) ``tails``, and its error over 2 pi: the panels'
    embedded-rule misses in modulus, the tails' errors, and Phi's error
    through s, which an error dPhi moves by |s| dPhi."""
    s_vals, s_abs = s
    if x == 0.0:
        s_int = float(s_abs.sum())
    else:
        s_vals, s_abs = s_vals[:contour.inner_nodes], s_abs[:contour.n_inner]
        # e^{i xi x} = e^{i t x} e^{delta x} on the contour; named, as
        # s_vals * np.exp(...) lets numpy swap the factors (last-bit moves)
        osc = np.exp(1j * contour.nodes[:s_vals.size] * x + contour.delta * x)
        s_vals = s_vals * osc
        s_int = float(s_abs.sum()) * math.exp(contour.delta * x)
    panels, diff = gk_panel_sums(s_vals.reshape(s_abs.size, -1), contour.half[:s_abs.size])
    integral, err = panels.sum(), float(np.abs(diff).sum())
    for value, tail_err, tail_abs in tails:
        integral += value
        err += tail_err
        s_int += tail_abs
    return integral, (err + table.error_estimate * s_int) / (2.0 * math.pi)


def phi_profile(problem: Problem, kernel: UnwrappedLogKernel, x_values,
                *, target_error: float = 1e-4) -> FieldProfile:
    """Potential phi(x) near the edge, phi0 = 1, x in units of 1/k0.

    x > 0 (on the sheet):  phi = C^+ e^{i xi^+ x} - (1/2 pi i) Int s_-(xi)
    e^{i xi x} dxi with s_- = [C^- b/(xi-xi^-) + C^+ a/(xi-xi^+)] e^{-Q_-};
    x < 0: phi = C^- e^{i xi^- x} + (1/2 pi i) Int s_+(xi) e^{i xi x} dxi
    with s_+ = [C^+ a/(xi-xi^+) + C^- b/(xi-xi^-)] e^{Q_+}.  Both integrals
    run along the contour delta below the axis; beyond the panelized
    span the path turns into the half-plane where the oscillation decays
    exponentially.  Per-point error estimates (embedded Gauss rule and
    Phi's error through s_+-) drive the accuracy flags.  ``x_values`` is
    a 1-D sequence of finite, nonzero x, possibly empty: ``ValueError``
    otherwise.
    """
    x_values = np.asarray(x_values, dtype=float)
    if x_values.ndim != 1:
        raise ValueError(f"the profile takes a 1-D sequence of x, not shape {x_values.shape}")
    if np.any(x_values == 0.0):
        raise ValueError("x = 0 is handled by edge_limits, not the profile")
    if not np.isfinite(x_values).all():
        raise ValueError("the profile takes finite x only")
    phi = np.empty(x_values.shape, dtype=complex)
    err = np.empty(x_values.shape, dtype=float)
    if not x_values.size:
        return FieldProfile(x=x_values, phi=phi, error_estimate=err, accuracy_flag=err > target_error)
    consts = _constants(kernel)
    xp, xm, cp, cm, *_ = consts
    table = kernel.cauchy_table()
    width = _panel_width(kernel, np.abs(x_values).max())
    contour = _field_contour(kernel, width)
    s_plus = _s_plus(problem, kernel, width) if (x_values < 0).any() else None
    tails = _rotated_tails(problem, table, consts, contour, x_values)
    for i, x in enumerate(x_values):
        s = contour.s_minus if x > 0 else s_plus
        integral, err[i] = _contour_integral(table, contour, s, x, tails[i])
        if x > 0:
            # Lambda_- e^{-Q_-} = C^+/(xi-xi^+) + C^-/(xi-xi^-) - s_-
            phi[i] = cp * np.exp(1j * xp * x) - integral / TWO_PI_I
        else:
            # Lambda_+ e^{+Q_+} = -C^+/(xi-xi^+) - C^-/(xi-xi^-) + s_+
            phi[i] = cm * np.exp(1j * xm * x) + integral / TWO_PI_I
    return FieldProfile(x=x_values, phi=phi, error_estimate=err,
                        accuracy_flag=err > target_error)
