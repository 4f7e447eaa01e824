"""Independent references for Phi and for the long-wavelength f+-.

``adaptive_phi`` is the pointwise adaptive Cauchy integral:
Phi(xi0) = (1/2 pi i) Int L(z)/(z - xi0) dz, integrated directly from the
kernel's log values with linear subtraction of L about t0 = Re xi0, exact
closed forms for the subtracted part, and the tail |z| > span folded onto
a finite interval with the pair +-z summed (the symmetric integral at
infinity).  All points are integrated in one adaptive pass that shares
every evaluation of L; each meets its own tolerance.  It shares no code
with the spectral series beyond ``log_values``.

``direct_f_pm`` integrates f^+- = +-2 pi i sg(q) Q_+-(xi^+-) in the scaled
long-wavelength variables straight from the symbol, sharing no code with
the kernel at all.
"""

import math

import mpmath as mp
import numpy as np

from edgeplasmon.branches import Sheet, principal_log
from edgeplasmon.kernel import dp_dxi, p_of_xi
from edgeplasmon.quadrature import adaptive_gk, adaptive_gk_to_infinity
from edgeplasmon.spectrum import bulk_zeros

TWO_PI = 2.0 * math.pi


def _subtracted_integral(span, xi0, t0, c0, c1):
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


def adaptive_phi(kernel, xi0, rtol=1e-13, chunk=64):
    """(values, error estimates) of Phi at the points xi0 (PV on the axis)."""
    points = np.atleast_1d(np.asarray(xi0, dtype=complex))
    values = np.empty(points.size, dtype=complex)
    errors = np.empty(points.size)
    if kernel.trivial:
        return np.zeros(points.size, dtype=complex), np.zeros(points.size)
    for start in range(0, points.size, chunk):
        sl = slice(start, start + chunk)
        values[sl], errors[sl] = _adaptive_chunk(kernel, points[sl], rtol)
    return values, errors


def _adaptive_chunk(kernel, points, rtol):
    scale = kernel.scale
    span = max(max(64.0 * scale, 4.0 * abs(x)) for x in points)
    t0 = np.clip(points.real, -0.75 * span, 0.75 * span)
    c0 = kernel.log_values(t0)
    t0c = t0.astype(complex)
    c1 = dp_dxi(kernel.problem, t0c) / p_of_xi(kernel.problem, t0c)
    xc, t0c, c0c, c1c = (v[:, None] for v in (points, t0, c0, c1))

    def integrand(s):
        tail = s > 1.0
        main = ~tail
        z = span * s[main]
        # beyond zeta = span 1e14 the tail is below rounding; nodes there
        # can round to s = 2 under deep bisection
        u = np.maximum(2.0 - s[tail], 1e-14)
        zeta = span / u
        lz, lp, lm = np.split(kernel.log_values(np.concatenate([z, zeta, -zeta])),
                              [z.size, z.size + zeta.size])
        out = np.empty((points.size, s.size), dtype=complex)
        out[:, main] = (lz - c0c - c1c * (z - t0c)) / (z - xc) * span
        out[:, tail] = ((zeta * (lp - lm) + xc * (lp + lm))
                        / (zeta * zeta - xc * xc) * (span / (u * u)) * (u > 1e-14))
        return out.T

    seeds = np.concatenate([
        [-4.0 * scale, -scale, 0.0, scale, 4.0 * scale],
        (t0[:, None] + scale * np.array([-1.0, -0.1, 0.0, 0.1, 1.0])).ravel(),
        points.real]) / span
    breaks = np.concatenate([seeds[np.abs(seeds) < 1.0], [1.0],
                             2.0 - np.geomspace(1e-10, 0.5, 12)])
    res = adaptive_gk(integrand, -1.0, 2.0, rtol=rtol, atol=1e-15,
                      initial=np.unique(breaks), max_segments=20000)
    values = (res.value + _subtracted_integral(span, points, t0, c0, c1)) / (2j * math.pi)
    return values, res.error / (2.0 * math.pi)


def mp_phi(kernel, z, dps=30):
    """Phi(z) off the axis to ``dps`` digits by ``mpmath.quad`` on a single
    sheet: the pair +-t of the symmetric integral is summed over t > 0,
    with breakpoints at the near-pole, at the near-axis zeros of P and on
    the kernel's scale.  The 2-pi branch of arg P at each t comes from the
    kernel's unwrapped phase grid, moduli and principal phases from P in
    ``dps``-digit arithmetic."""
    prob = kernel.problem
    with mp.workdps(dps):
        sxx, s_off, syy = (mp.mpc(v) for v in (prob.sigma_eff.xx, prob.sigma_eff.off_sum,
                                                prob.sigma_eff.yy))
        q, zz = mp.mpc(prob.q), mp.mpc(z)

        def log_p(t):
            p = 1 + 0.5j * (sxx * t * t + s_off * q * t + syy * q * q) / mp.sqrt(t * t + q * q)
            ref = float(np.interp(float(t), kernel.grid, kernel.phase,
                                  left=kernel.phase[0], right=kernel.phase[-1]))
            arg = mp.arg(p)
            return mp.log(abs(p)) + 1j * (arg + 2 * mp.pi * round((ref - float(arg)) / TWO_PI))

        def f(t):
            return (log_p(t) * (t + zz) - log_p(-t) * (t - zz)) / (t * t - zz * zz)

        scale = kernel.scale
        marks = {0.0, 0.25 * scale, scale, 4.0 * scale, 16.0 * scale, 64.0 * scale}
        features = [(abs(complex(z).real), abs(complex(z).imag))]
        features += [(abs(r.location.real), abs(r.location.imag))
                     for r in bulk_zeros(prob).zeros if r.sheet is Sheet.FIRST]
        for centre, dist in features:
            marks.add(centre)
            for k in range(12):
                step = dist * 8.0 ** k
                if step > 4.0 * scale:
                    break
                marks.update({centre - step, centre + step})
        pts = sorted(m for m in marks if m >= 0.0)
        return complex(mp.quad(f, pts + [mp.inf]) / (2j * mp.pi))


def _a_of(lw, zeta):
    """The rational factor A(zeta) = (zeta - alpha^+)(zeta - alpha^-)/sqrt(1 + zeta^2)
    of the scaled symbol P = 1 + q_breve A(zeta)."""
    zeta = np.asarray(zeta, dtype=complex)
    return ((zeta - lw.alpha_plus) * (zeta - lw.alpha_minus)
            / np.sqrt(1.0 + zeta * zeta))


def _f_single(lw, alpha: complex, rtol: float) -> tuple[complex, float]:
    """One of the f integrals: Int_0^inf {z[lg(z)-lg(-z)] + a[lg(z)+lg(-z)]}
    / (z^2 - a^2) dz with lg(z) = Log(1 + q_breve A(z)), and its error estimate."""
    qb = lw.q_breve

    def num(z):
        lg_p = principal_log(1.0 + qb * _a_of(lw, z))
        lg_m = principal_log(1.0 + qb * _a_of(lw, -z))
        return z * (lg_p - lg_m) + alpha * (lg_p + lg_m)

    # constant subtraction when the pole z = +-alpha approaches the ray
    pole = alpha if alpha.real >= 0 else -alpha
    subtract = abs(pole.imag) < 0.25 * (1.0 + abs(pole.real))
    c = complex(num(np.array([abs(pole.real)]))[0]) if subtract else 0.0

    def integrand(z):
        z = np.asarray(z, dtype=float)
        return (num(z) - c) / (z * z - alpha * alpha)

    z_big = max(10.0, 4.0 * abs(alpha)) / max(abs(qb), 1e-6)
    z_big = min(z_big, 1e8)
    seeds = np.array(sorted({0.5, 1.0, 2.0, abs(alpha), 2 * abs(alpha),
                             abs(pole.real) or 0.5,
                             min(1.0 / max(abs(qb), 1e-12), 0.5 * z_big)}))
    res = adaptive_gk_to_infinity(integrand, z_big, rtol=rtol,
                                  initial=seeds[seeds < z_big])
    value = res.value
    if subtract:
        if alpha.imag == 0:
            raise ValueError("alpha exactly on the ray; integral needs deformation")
        value += c * (1j * math.pi * math.copysign(1.0, alpha.imag) / (2.0 * alpha))
    return complex(value), res.error


def direct_f_pm(lw, rtol=1e-10):
    """((f^+, f^-), (error^+, error^-)) by direct adaptive quadrature of
    the f integrals, for ``LongwaveParams`` lw."""
    (fp, ep), (fm, em) = (_f_single(lw, alpha, rtol)
                          for alpha in (lw.alpha_plus, lw.alpha_minus))
    return (fp, fm), (ep, em)
