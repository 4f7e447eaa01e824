"""The spectral series of Phi against independent references: 30-digit
``mpmath`` quadrature at the reference roots, next to a near-axis zero of
the symbol and at |q| far below the problem scale, and the adaptive
Cauchy integral over random passive tensors, also at small |q|; and the
x < 0 field integrand continued below the axis against its upper side
over random passive tensors."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from edgeplasmon import Problem, build_log_kernel, edge_limits, field, phi_profile
from edgeplasmon.field import _field_contour, _panel_width
from edgeplasmon.spectrum import RealAxisZeroError
from cauchy_oracle import adaptive_phi, mp_phi
from conftest import MAGNETO_SIGMA, TWO_SHEET_LEFT, TWO_SHEET_ROOT, make_sigma
from test_field import ANISOTROPIC_SIGMA, NEAR_ROOT_Q, assert_continuation_holds
from test_spectrum import random_passive_tensor


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "two_sheet"])
def test_root_values_against_mpmath(name, root_kernels):
    # Phi(xi^+-) enters the dispersion residual directly; a two-sheet
    # series stops on its rounding floor, and its estimate must still
    # bound the error
    if name == "two_sheet":
        kernel = build_log_kernel(Problem.two_sheet(TWO_SHEET_LEFT, make_sigma("A"),
                                                    TWO_SHEET_ROOT))
    else:
        kernel = root_kernels[name]
    roots, phi_p, phi_m = kernel.root_constants()
    for value, point in ((phi_p, roots.xi_plus), (phi_m, roots.xi_minus)):
        true = abs(value - mp_phi(kernel, point))
        assert true < 1e-12, f"{name} at {point}: {true:.2e}"
        assert true <= kernel.cauchy_table().error_estimate


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "two_sheet"])
def test_phi_minus_error_bounds_the_closed_form_at_mpmath_values(name, root_kernels):
    # phi(0-) is a closed form in C^+-, xi^+- and a, b = e^{-Phi(xi^+-)}:
    # with mpmath's Phi(xi^+-) it moves by no more than phi_minus_error
    if name == "two_sheet":
        kernel = build_log_kernel(Problem.two_sheet(TWO_SHEET_LEFT, make_sigma("A"),
                                                    TWO_SHEET_ROOT))
    else:
        kernel = root_kernels[name]
    roots, _, _ = kernel.root_constants()
    xp, xm, cp, cm = roots.xi_plus, roots.xi_minus, roots.c_plus, roots.c_minus
    a, b = (np.exp(-mp_phi(kernel, point)) for point in (xp, xm))
    if name == "two_sheet":
        true = 1.0 - (cp * a + cm * b) * xp / (a * (xp - xm))
    else:
        true = -(cp * xm * a + cm * xp * b) * (1.0 / a - 1.0 / b) / (xp - xm)
    limits = edge_limits(kernel.problem, kernel)
    assert abs(limits.phi_minus - true) <= limits.phi_minus_error < 1e-10


def test_near_axis_zero_against_mpmath():
    # the field contour of ANISOTROPIC_SIGMA at its root passes 0.153 below
    # the first-sheet zero at -24.606+0.153i; the adaptive oracle is off by
    # ~2.3e-10 there (within its own estimate), the series is not
    kernel = build_log_kernel(Problem.single_sheet(ANISOTROPIC_SIGMA, NEAR_ROOT_Q[0]))
    contour = _field_contour(kernel, _panel_width(kernel))
    table = kernel.cauchy_table()
    for i in np.argsort(np.abs(contour.nodes + 24.606))[:3]:
        z = contour.nodes[i] - 1j * contour.delta
        true = abs(contour.phi_below[i] - mp_phi(kernel, z))
        assert true < 1e-12, f"at {z}: {true:.2e}"
        assert true <= table.error_estimate


@st.composite
def zero_index_kernels(draw):
    """Kernels of random passive tensors (tests/test_spectrum.py) at a
    random q, in each problem variant, kept where nu_K = 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    variant = draw(st.sampled_from(["single", "interface", "two-sheet"]))
    sigma = random_passive_tensor(rng)
    q = complex(rng.uniform(2.0, 30.0) * rng.choice([-1.0, 1.0]), rng.normal(scale=0.5))
    if variant == "single":
        prob = Problem.single_sheet(sigma, q)
    elif variant == "interface":
        prob = Problem.interface(sigma, q, 1.0, rng.uniform(1.0, 12.0))
    else:
        prob = Problem.two_sheet(random_passive_tensor(rng), sigma, q)
    try:
        kernel = build_log_kernel(prob)
    except RealAxisZeroError:
        kernel = None
    assume(kernel is not None and kernel.nu_k == 0)
    return kernel, rng


@settings(max_examples=45, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(zero_index_kernels())
def test_random_tensor_series_properties(case):
    kernel, rng = case
    kappa = kernel.scale
    table = kernel.cauchy_table()
    # Plemelj: the jump of Phi across the axis tends to L (the offset
    # leaves delta |Phi'|, large only next to a near-axis zero)
    x = rng.uniform(-4.0, 4.0, 40) * kappa
    below, above = table.phi(x - 1e-12j * kappa), table.phi(x + 1e-12j * kappa)
    jump = above - below
    assert np.abs(jump - kernel.log_values(x)).max() < 1e-9
    # off the axis the series agrees with the adaptive Cauchy integral
    pts = (rng.uniform(-3.0, 3.0, 12) + 1j * rng.uniform(0.01, 2.0, 12)
           * rng.choice([-1.0, 1.0], 12)) * kappa
    ref, _ = adaptive_phi(kernel, pts)
    assert np.abs(table.phi(pts) - ref).max() < 1e-10
    assert table.error_estimate < 1e-10
    assert math.isfinite(table.error_estimate)


@settings(max_examples=45, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(zero_index_kernels())
def test_random_tensor_rays_from_the_inner_part(case):
    # the profile's rays start at the ends of the contour's inner part:
    # the same profile from rays at +-40 kappa, the uniform tiling's ends,
    # agrees within the sum of both estimates, at q off the roots, for
    # |x| from 1e-4 to 10 over the problem scale on both sides
    kernel, rng = case
    xs = 10.0 ** rng.uniform(-4.0, 1.0, 4) * rng.choice([-1.0, 1.0], 4) / kernel.scale
    prof = phi_profile(kernel.problem, kernel, xs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "INNER_SPAN", 40.0)
        far = build_log_kernel(kernel.problem)
        ref = phi_profile(far.problem, far, xs)
        assert _field_contour(far, _panel_width(far, np.abs(xs).max())).inner >= 40.0 * far.scale
    assert np.all(np.abs(prof.phi - ref.phi) <= prof.error_estimate + ref.error_estimate), xs


@settings(max_examples=45, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(zero_index_kernels())
def test_random_tensor_continuation_below_the_axis(case):
    # s_+ = s_- P below the axis against e^{Q_+} above it, at q off the
    # roots (the identity holds at any q), for |x| from 1e-4 to 10 over
    # the problem scale
    kernel, rng = case
    assert_continuation_holds(kernel, -np.sort(10.0 ** rng.uniform(-4.0, 1.0, 3)) / kernel.scale)


def test_small_q_against_mpmath():
    # |q| = 1e-7 of the scale: four levels below the top series; points on
    # the scale of q, between the scales and on the problem scale
    kernel = build_log_kernel(Problem.single_sheet(MAGNETO_SIGMA, 1e-3))
    table = kernel.cauchy_table()
    assert len(table.series) > 4
    for z in (1e-3j, 3e-3 - 1e-4j, 0.5 + 0.2j, 100.0 + 10.0j):
        true = abs(complex(table.phi(np.array([z]))[0]) - mp_phi(kernel, z))
        assert true < 1e-12, f"at {z}: {true:.2e}"
        assert true <= table.error_estimate


@st.composite
def small_q_kernels(draw):
    """Zero-index kernels as above, at |q| from 1e-7 to 0.1 of the scale
    2/|sigma_xx|."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    variant = draw(st.sampled_from(["single", "interface", "two-sheet"]))
    sigma = random_passive_tensor(rng)
    size = 10.0 ** rng.uniform(-7.0, -1.0) * 2.0 / abs(sigma.xx)
    q = complex(size * rng.choice([-1.0, 1.0]), rng.normal(scale=0.1) * size)
    if variant == "single":
        prob = Problem.single_sheet(sigma, q)
    elif variant == "interface":
        prob = Problem.interface(sigma, q, 1.0, rng.uniform(1.0, 12.0))
    else:
        prob = Problem.two_sheet(random_passive_tensor(rng), sigma, q)
    try:
        kernel = build_log_kernel(prob)
    except RealAxisZeroError:
        kernel = None
    assume(kernel is not None and kernel.nu_k == 0)
    return kernel, rng


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_q_kernels())
def test_small_q_series_against_adaptive(case):
    # the levels resolve the scale of q and the problem scale together
    kernel, rng = case
    table = kernel.cauchy_table()
    pts = np.concatenate([
        (rng.uniform(-3.0, 3.0, 6) + 1j * rng.uniform(0.01, 2.0, 6)
         * rng.choice([-1.0, 1.0], 6)) * size
        for size in (abs(kernel.problem.q), kernel.scale)])
    ref, _ = adaptive_phi(kernel, pts)
    assert np.abs(table.phi(pts) - ref).max() < 1e-10
    assert table.error_estimate < 1e-10
