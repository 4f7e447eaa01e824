"""Vectorized adaptive Gauss-Kronrod quadrature.

The integrand is evaluated on whole batches of nodes (numpy arrays), and
the worst segments are bisected until the global error estimate meets the
tolerance.  Complex-valued integrands are handled natively, and so are
vector integrands: k integrals over the same interval that share every
integrand evaluation, each held to its own tolerance.  The same
Kronrod-15 panels with their embedded Gauss-7 error serve fixed-node
callers (the field contours), and ``adaptive_gk_to_infinity`` folds
[0, inf) onto a finite interval for the independent residual checks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadResult",
    "adaptive_gk",
    "adaptive_gk_to_infinity",
    "gk_nodes_weights",
    "gk_panel_sums",
]

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 weights aligned with every other Kronrod node (indices 1,3,...,13).
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


class QuadratureError(RuntimeError):
    """Adaptive refinement hit the segment cap before reaching tolerance,
    or the integrand was not finite."""


@dataclasses.dataclass(frozen=True)
class QuadResult:
    value: complex | np.ndarray     # length-k arrays for a vector integrand
    error: float | np.ndarray
    n_eval: int
    n_segments: int


def gk_nodes_weights(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod-15 nodes and weights mapped to [a, b].

    ``a`` and ``b`` may be arrays of panel ends; the result then has one
    row of 15 nodes (weights) per panel.
    """
    half = 0.5 * (np.asarray(b) - np.asarray(a))
    mid = 0.5 * (np.asarray(a) + np.asarray(b))
    return mid[..., None] + half[..., None] * _XK, half[..., None] * _WK


def gk_panel_sums(vals: np.ndarray, half) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod sums of panels and their differences from the embedded Gauss-7 sums.

    ``vals`` holds integrand values at the nodes of ``gk_nodes_weights``,
    15 per panel along the last axis, and ``half`` the panel half widths.
    Returns (Kronrod sum, Kronrod - Gauss) per panel; the difference is
    the embedded error estimate, kept signed so callers choose how to add
    it up.
    """
    ik = (vals * _WK).sum(axis=-1) * half
    ig = (vals[..., 1::2] * _WG).sum(axis=-1) * half
    return ik, ik - ig


def _eval_segments(f, lo, hi):
    """Kronrod estimates and errors for a batch of segments: shape (n_seg,),
    or (k, n_seg) for a vector integrand."""
    nodes, _ = gk_nodes_weights(lo, hi)
    vals = np.asarray(f(nodes.ravel()))
    # components first, so every row sums its own 15 contiguous values
    vals = vals.T.reshape(vals.shape[1:] + nodes.shape)
    half = 0.5 * (hi - lo)
    ik, diff = gk_panel_sums(vals, half)
    diff = np.abs(diff)
    # quadpack-style rescaled error estimate
    resabs = (np.abs(vals) * _WK).sum(axis=-1) * np.abs(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            resabs > 0, np.minimum(1.0, (200.0 * diff / np.maximum(resabs, 1e-300)) ** 1.5), 0.0
        )
    err = np.where(resabs > 0, resabs * scaled, diff)
    err = np.maximum(err, diff * 1e-6)
    return ik, err, nodes.size


def adaptive_gk(
    f,
    a: float,
    b: float,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-14,
    initial: np.ndarray | None = None,
    max_segments: int = 4000,
) -> QuadResult:
    """Integrate vectorized ``f`` over [a, b] to the requested tolerance.

    ``f`` maps n nodes to n values, or to an (n, k) array for k integrals
    computed in one pass; each component k then meets its own tolerance
    max(atol, rtol |I_k|), a segment is bisected by its largest
    error-to-tolerance ratio over the components, and ``value`` and
    ``error`` are length-k arrays.  ``initial`` may supply interior
    breakpoints (sorted, within (a, b)) so known features (near-singular
    points, oscillation scales) are resolved from the start.
    """
    if initial is not None and len(initial) > 0:
        pts = np.asarray(initial, dtype=float)
        pts = pts[(pts > a) & (pts < b)]
        edges = np.unique(np.concatenate(([a], pts, [b])))
    else:
        edges = np.linspace(a, b, 9)
    lo, hi = edges[:-1], edges[1:]
    vals, errs, n_eval = _eval_segments(f, lo, hi)

    while True:
        total = vals.sum(axis=-1)
        tol = np.maximum(atol, rtol * np.abs(total))
        err_total = errs.sum(axis=-1)
        if np.all(err_total <= tol):
            break
        if len(lo) >= max_segments:
            i = np.argmax(err_total / tol)
            raise QuadratureError(
                f"quadrature stalled at {len(lo)} segments, error "
                f"{err_total.flat[i]:.3e} > {tol.flat[i]:.3e}"
            )
        # bisect every segment holding more than its proportional error
        # share; a vector integrand compares errors in units of tolerance
        if errs.ndim == 1:
            score, unit = errs, tol
        else:
            score, unit = (errs / tol[:, None]).max(axis=0), 1.0
        worst = score > max(unit / max(len(lo), 1), 0.25 * score.max())
        if not np.any(worst):
            worst = score == score.max()
            if not np.any(worst):
                # only a nan score selects no segment for bisection
                raise QuadratureError(f"integrand is not finite on [{a:.6g}, {b:.6g}]")
        lo_w, hi_w = lo[worst], hi[worst]
        mid_w = 0.5 * (lo_w + hi_w)
        new_lo = np.concatenate([lo[~worst], lo_w, mid_w])
        new_hi = np.concatenate([hi[~worst], mid_w, hi_w])
        keep_vals, keep_errs = vals[..., ~worst], errs[..., ~worst]
        add_vals, add_errs, n_more = _eval_segments(
            f, np.concatenate([lo_w, mid_w]), np.concatenate([mid_w, hi_w])
        )
        n_eval += n_more
        lo, hi = new_lo, new_hi
        vals = np.concatenate([keep_vals, add_vals], axis=-1)
        errs = np.concatenate([keep_errs, add_errs], axis=-1)

    if vals.ndim == 1:
        total, err_total = complex(total), float(err_total)
    return QuadResult(value=total, error=err_total, n_eval=n_eval, n_segments=len(lo))


def adaptive_gk_to_infinity(f, cut: float, *, rtol: float, initial) -> QuadResult:
    """Integrate vectorized ``f`` over [0, inf) in one adaptive pass.

    The pass runs over s in [0, 2] with z = cut s for s <= 1 and
    z = cut/(2 - s) beyond, so [cut, inf) is folded onto (1, 2].
    ``initial`` holds breakpoints in z within (0, cut); the fold gets
    log-spaced breakpoints toward s = 2, where z grows without bound.
    """
    def integrand(s):
        main = s <= 1.0
        z = np.where(main, cut * s, cut / (2.0 - s))
        jac = np.where(main, cut, z / (2.0 - s))
        return (np.asarray(f(z)).T * jac).T

    breaks = np.concatenate([np.asarray(initial, dtype=float) / cut, [1.0],
                             2.0 - np.geomspace(1e-8, 0.5, 10)])
    return adaptive_gk(integrand, 0.0, 2.0, rtol=rtol, initial=np.unique(breaks))
