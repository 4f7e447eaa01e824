"""Near-edge potential: Fourier inversion profiles, bulk-SPP residue
decomposition, and the closed-form edge limits.

With the splitting in hand, the potential on either side of the edge is

    phi(x<0) = (phi0/2 pi i) Int Lambda_+(xi) e^{Q_+(xi)} e^{i xi x} dxi,
    phi(x>0) = (phi0/2 pi i) Int Lambda_-(xi) e^{-Q_-(xi)} e^{i xi x} dxi,

normalized to phi0 = 1.  The 1/(xi - xi^+-) partial-fraction pieces of
Lambda are integrated in closed form (they give the C^+ e^{i xi^+ x} /
-C^- e^{i xi^- x} terms); the remainder decays algebraically and is
integrated on a contour shifted off the axis by a small delta.  Beyond
the panelized span the profile contour turns into the half-plane where
e^{i xi x} decays; the x -> 0 edge integral instead adds its fitted
algebraic tails in closed form.

Both routines use one real-axis contour per kernel: t -+ i delta with
delta = 1e-7 kappa, GK15 panels on [-span, span], span = max(40 kappa,
3|q|), at most kappa/8 wide (and at most 3/max|x| for a profile), with
the kernel's phase grid adding panel edges.  One ``CauchyTable.phi``
call on the points of both sides gives Phi there (x > 0 and the edge
limits use the lower side, x < 0 the upper one), memoized on the
kernel, so whichever of ``edge_limits`` and ``phi_profile`` runs second
reuses it.  Both add Phi's error estimate, carried through s_+-.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .kernel import Problem, Variant, dp_dxi, p_of_xi
from .quadrature import gk_nodes_weights, gk_panel_sums
from .spectrum import SpectrumReport, bulk_zeros
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


# ---------------------------------------------------------------------------
# Edge limits (closed contour algebra)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EdgeLimits:
    """phi(0+), phi(0-) (phi0 = 1) and the divergence coefficient.

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


def _constants(kernel: UnwrappedLogKernel):
    """(xi^+, xi^-, C^+, C^-, a, b) with a = e^{-Q_+(xi^+)}, b = e^{Q_-(xi^-)}."""
    roots, coeffs, phi_p, phi_m = kernel.root_constants()
    return (roots.xi_plus, roots.xi_minus, coeffs.c_plus, coeffs.c_minus,
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

    if problem.variant is Variant.TWO_SHEET:
        phi_plus = 1.0 + div_coeff * xm * (1.0 / b) / (xp - xm)
        phi_minus = 1.0 - div_coeff * xp * (1.0 / a) / (xp - xm)
        return EdgeLimits(complex(phi_plus), complex(phi_minus), complex(div_coeff))

    phi_minus = -(cp * xm * a + cm * xp * b) * (1.0 / a - 1.0 / b) / (xp - xm)

    # phi(0+) = C^+ - (1/2 pi i) Int [C^+ a/(xi-xi^+) + C^- b/(xi-xi^-)]
    # e^{-Q_-(xi)} dxi, whose closed-down evaluation is C^+ + C^-; computing
    # the integral numerically cross-checks the splitting.
    contour = _field_contour(kernel, kernel.scale / 8.0)
    table = kernel.cauchy_table()
    span, delta = contour.span, contour.delta

    def s_minus(t):
        xi = t - 1j * delta
        # e^{-Q_-} = e^{+Phi} below the axis
        return _bracket(consts, xi) * np.exp(table.phi(xi))

    s_vals = _bracket(consts, contour.nodes - 1j * delta) * np.exp(contour.phi_below)
    panels, diff = gk_panel_sums(s_vals.reshape(contour.half.size, -1), contour.half)
    integral = complex(panels.sum())
    # two-term power tails, no oscillation (x -> 0+ limit already taken)
    fit_r = _fit_tail(s_minus, span, 1.5)
    fit_l = _fit_tail(lambda t: s_minus(-t), span, 1.5)
    integral += _tail_value(fit_r[:2], 1.5, span)
    integral += _tail_value(fit_l[:2], 1.5, span)
    # an error dPhi moves s_- = bracket e^{Phi} by |s_-| dPhi
    phi_err = table.error_estimate * _abs_integral(s_vals, contour.half)
    err = (float(np.abs(diff).sum()) + fit_r[2] + fit_l[2] + phi_err) / (2.0 * math.pi)
    phi_plus = cp - integral / TWO_PI_I
    return EdgeLimits(complex(phi_plus), complex(phi_minus), complex(div_coeff),
                      phi_plus_error=err)


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
    census = bulk_zeros(problem)
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
    modes = []
    for z in locs:
        e_qp = np.exp(cauchy_transform(kernel, z))   # e^{Q_+(xi_l)}, Im z > 0
        amp = -_bracket(consts, z) * e_qp / dp_dxi(problem, z)
        modes.append(SppMode(wavenumber=z, amplitude=complex(amp)))
    modes.sort(key=lambda m: m.wavenumber.imag)
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
    residue_part: np.ndarray | None = None


def _e_power(power: float, cut: float) -> float:
    """Int_cut^inf t^(-power) dt for power > 1."""
    if power <= 1.0:
        raise ValueError("divergent tail: power <= 1")
    return cut ** (1.0 - power) / (power - 1.0)


def _fit_tail(s_fun, cut: float, power: float):
    """Two-term amplitude fit s(t) ~ A t^-power + B t^-(power+1) on [0.8c, c].

    Returns (A, B, tail_error).  The fit absorbs the next-order term, which
    matters when the leading amplitude nearly vanishes (at dispersion
    roots the leading coefficient is the residual A(q) itself).
    tail_error estimates the error of the fitted tail integral from the
    fit's miss at an interior checkpoint: the miss is taken to come from
    a next-order term D t^-(power+2), whose tail integral the same fit
    misses by a fixed multiple of its checkpoint miss (about 77 c).
    """
    t1, t2, t3 = 0.8 * cut, cut, 0.9 * cut
    s1, s2, s3 = s_fun(np.array([t1, t2, t3]))
    m = np.array([[t1 ** -power, t1 ** -(power + 1.0)],
                  [t2 ** -power, t2 ** -(power + 1.0)]], dtype=complex)
    coef_a, coef_b = np.linalg.solve(m, np.array([s1, s2]))
    resid = abs(s3 - coef_a * t3 ** -power - coef_b * t3 ** -(power + 1.0))
    # the same fit of the unit next-order term: its checkpoint miss and
    # the error of its fitted tail integral
    nxt = power + 2.0
    n_a, n_b = np.linalg.solve(m.real, np.array([t1 ** -nxt, t2 ** -nxt]))
    miss = t3 ** -nxt - n_a * t3 ** -power - n_b * t3 ** -(power + 1.0)
    tail_miss = _e_power(nxt, cut) - _tail_value((n_a, n_b), power, cut)
    return complex(coef_a), complex(coef_b), float(resid * abs(tail_miss / miss))


def _abs_integral(vals: np.ndarray, half: np.ndarray) -> float:
    """Int |f| over GK15 panels from the values of f at their nodes."""
    return float(gk_panel_sums(np.abs(vals).reshape(half.size, -1), half)[0].sum())


def _tail_value(coefs, power: float, cut: float) -> complex:
    a_c, b_c = coefs
    return a_c * _e_power(power, cut) + b_c * _e_power(power + 1.0, cut)


def _panel_nodes(span: float, max_width: float, kernel: UnwrappedLogKernel):
    """GK15 nodes tiling [-span, span], 15 per panel in order, and the
    panel half widths.

    The kernel's adaptive phase grid contributes panel edges, so sharp
    symbol features (near-axis zeros) are resolved even where the uniform
    oscillation-capped tiling is coarse.
    """
    n_panels = int(np.ceil(2.0 * span / max_width))
    edges = np.linspace(-span, span, n_panels + 1)
    if not kernel.trivial:
        g = kernel.grid
        inner = g[(g > -span) & (g < span)][::4]
        edges = np.unique(np.concatenate([edges, inner]))
    nodes, _ = gk_nodes_weights(edges[:-1], edges[1:])
    return nodes.ravel(), 0.5 * np.diff(edges)


@dataclasses.dataclass(frozen=True)
class _Contour:
    """The real-axis field contour t -+ i delta and Phi on both sides."""

    span: float
    delta: float
    nodes: np.ndarray          # t, GK15 nodes of [-span, span]
    half: np.ndarray           # panel half widths
    phi_below: np.ndarray      # Phi(t - i delta)
    phi_above: np.ndarray      # Phi(t + i delta)


def _field_contour(kernel: UnwrappedLogKernel, width: float) -> _Contour:
    """The contour with panels at most ``width`` wide, memoized on the
    kernel: ``edge_limits`` and ``phi_profile`` share it whenever their
    widths agree, and one ``CauchyTable.phi`` call gives both sides."""
    def build():
        # the error of the edge limits' fitted tails falls like span^-2.5:
        # on sheet D at its root |phi(0+) - 1| is 1.6e-4 at 20 kappa,
        # 4.7e-5 at 32 kappa and 2.7e-5 at 40 kappa
        span = max(40.0 * kernel.scale, 3.0 * abs(kernel.problem.q))
        delta = 1e-7 * kernel.scale
        nodes, half = _panel_nodes(span, max_width=width, kernel=kernel)
        below, above = np.split(kernel.cauchy_table().phi(
            np.concatenate([nodes - 1j * delta, nodes + 1j * delta])), 2)
        return _Contour(span, delta, nodes, half, below, above)

    return kernel.memo(("field_contour", width), build)


def _vertical_panels(length: float, struct: float):
    """GK15 nodes and half widths of dyadic panels on [0, length], refined
    toward 0 until the first panel is shorter than the integrand's
    structural scale."""
    levels = int(np.clip(math.ceil(math.log2(length / (0.25 * struct))), 6, 26))
    edges = np.concatenate(([0.0], length * 2.0 ** -np.arange(levels, -1.0, -1.0)))
    nodes, _ = gk_nodes_weights(edges[:-1], edges[1:])
    return nodes.ravel(), 0.5 * np.diff(edges)


def _rotated_tail(prob: Problem, table, consts, end: complex,
                  x: float) -> tuple[complex, float, float]:
    """Tail Int s(xi) e^(i xi x) dxi from xi = end out to infinity, taken
    along the vertical ray where e^(i xi x) decays (upward for x > 0,
    downward for x < 0).

    Beyond the span the symbol has no zeros, so the integrand continues
    analytically across the real axis: for x > 0, e^{-Q_-} -> e^{Phi}/P
    above it, and for x < 0, e^{+Q_+} -> P e^{Phi} below it.  Exponential
    decay makes the truncation error negligible for every |x|.  Returns
    the tail, its embedded-rule error and Int |integrand|.
    """
    rot = 1.0 if x > 0 else -1.0
    length = 45.0 / abs(x)
    s_nodes, s_half = _vertical_panels(length, struct=abs(end.real))
    xi = end + 1j * rot * s_nodes
    factor = np.exp(table.phi(xi))
    crossed = xi.imag * rot > 0
    if crossed.any():
        p = p_of_xi(prob, xi[crossed])
        factor[crossed] = factor[crossed] / p if x > 0 else factor[crossed] * p
    vals = _bracket(consts, xi) * factor * np.exp(1j * xi * x)
    panels, diff = gk_panel_sums(vals.reshape(s_half.size, -1), s_half)
    return (1j * rot * complex(panels.sum()), float(np.abs(diff).sum()),
            _abs_integral(vals, s_half))


def phi_profile(problem: Problem, kernel: UnwrappedLogKernel, x_values,
                *, target_error: float = 1e-4,
                include_residue: bool = False) -> FieldProfile:
    """Potential phi(x) near the edge, phi0 = 1, x in units of 1/k0.

    x > 0 (on the sheet):  phi = C^+ e^{i xi^+ x} - (1/2 pi i) Int s_-(xi)
    e^{i xi x} dxi with s_- = [C^- b/(xi-xi^-) + C^+ a/(xi-xi^+)] e^{-Q_-};
    x < 0: phi = C^- e^{i xi^- x} + (1/2 pi i) Int s_+(xi) e^{i xi x} dxi
    with s_+ = [C^+ a/(xi-xi^+) + C^- b/(xi-xi^-)] e^{Q_+}.  The integrals
    run along contours shifted off the axis by delta; beyond the panelized
    span the path turns into the half-plane where the oscillation decays
    exponentially.  Per-point error estimates (embedded Gauss rule and
    Phi's error through s_+-) drive the accuracy flags.
    """
    x_values = np.asarray(x_values, dtype=float)
    if np.any(x_values == 0.0):
        raise ValueError("x = 0 is handled by edge_limits, not the profile")
    consts = _constants(kernel)
    xp, xm, cp, cm, *_ = consts
    table = kernel.cauchy_table()
    xmax = np.abs(x_values).max(initial=0.0)
    width = kernel.scale / 8.0 if xmax == 0.0 else min(kernel.scale / 8.0, 3.0 / xmax)
    contour = _field_contour(kernel, width)
    nodes, half, delta = contour.nodes, contour.half, contour.delta
    # e^{-Q_-} = e^{+Phi} below the axis (x > 0); e^{+Q_+} = e^{+Phi} above it (x < 0)
    s_vals, s_abs = {}, {}
    for side, phi_v in ((1.0, contour.phi_below), (-1.0, contour.phi_above)):
        if np.any(x_values * side > 0):
            xi = nodes - 1j * side * delta
            s_vals[side] = _bracket(consts, xi) * np.exp(phi_v)
            s_abs[side] = _abs_integral(s_vals[side], half)

    phi = np.empty(x_values.shape, dtype=complex)
    err = np.empty(x_values.shape, dtype=float)
    for i, x in enumerate(x_values):
        side = 1.0 if x > 0 else -1.0
        # contour factor e^{i xi x} = e^{i t x} e^{side * delta * x}
        osc = np.exp(1j * nodes * x + delta * side * x)
        panels, diff = gk_panel_sums((s_vals[side] * osc).reshape(half.size, -1), half)
        tails = [_rotated_tail(problem, table, consts, end - 1j * side * delta, x)
                 for end in (contour.span, -contour.span)]
        integral = panels.sum() + tails[0][0] - tails[1][0]
        if side > 0:
            # Lambda_- e^{-Q_-} = C^+/(xi-xi^+) + C^-/(xi-xi^-) - s_-
            phi[i] = cp * np.exp(1j * xp * x) - integral / TWO_PI_I
        else:
            # Lambda_+ e^{+Q_+} = -C^+/(xi-xi^+) - C^-/(xi-xi^-) + s_+
            phi[i] = cm * np.exp(1j * xm * x) + integral / TWO_PI_I
        # |e^{i xi x}| = e^{side delta x} on the contour
        s_int = s_abs[side] * math.exp(side * delta * x) + tails[0][2] + tails[1][2]
        err[i] = (abs(diff.sum()) + tails[0][1] + tails[1][1]
                  + table.error_estimate * s_int) / (2.0 * math.pi)

    flags = err > target_error
    residue = None
    if include_residue:
        residue = spp_decomposition(problem, kernel).residue_field(x_values)
    return FieldProfile(x=x_values, phi=phi, error_estimate=err,
                        accuracy_flag=flags, residue_part=residue)
