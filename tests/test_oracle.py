"""The spectral series of Phi against independent references: 30-digit
``mpmath`` quadrature at the reference roots, next to a near-axis zero of
the symbol and at |q| far below the problem scale, and the adaptive
Cauchy integral over random passive tensors, also at small |q|."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from edgeplasmon import ConductivityTensor, Problem, build_log_kernel
from edgeplasmon.field import _field_contour
from edgeplasmon.spectrum import RealAxisZeroError
from cauchy_oracle import adaptive_phi, mp_phi
from test_field import ANISOTROPIC_SIGMA, NEAR_ROOT_Q
from test_spectrum import random_passive_tensor


@pytest.mark.parametrize("name", "ABCD")
def test_root_values_against_mpmath(name, root_kernels):
    # Phi(xi^+-) enters the dispersion residual directly
    kernel = root_kernels[name]
    for split in kernel.root_constants()[2:]:
        true = abs(split.value - mp_phi(kernel, split.eval_point))
        assert true < 1e-12, f"{name} at {split.eval_point}: {true:.2e}"
        assert true <= split.quadrature_error_estimate


def test_near_axis_zero_against_mpmath():
    # the field contour of ANISOTROPIC_SIGMA at its root passes 0.153 below
    # the first-sheet zero at -24.606+0.153i; the adaptive oracle is off by
    # ~2.3e-10 there (within its own estimate), the series is not
    kernel = build_log_kernel(Problem.single_sheet(ANISOTROPIC_SIGMA, NEAR_ROOT_Q[0]))
    contour = _field_contour(kernel, kernel.scale / 8.0)
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


MAGNETO_SIGMA = ConductivityTensor(-2e-4j, -0.02 - 2e-7j, 0.02 + 2e-7j, -2e-4j,
                                   nondimensional=True)


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
