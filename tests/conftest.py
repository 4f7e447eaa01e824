"""Shared reference configurations.

The four workhorse sheets: an isotropic lossless Drude sheet (A), an
anisotropic lossy one (B), and two rotations of B (C at 0.4 pi, D at
0.166 pi).  Reference wavenumbers are the published four-digit values;
solved roots and kernels are session-cached since several modules probe
the same configurations.
"""

import math

import numpy as np
import pytest

from edgeplasmon import (
    ConductivityTensor,
    Problem,
    build_log_kernel,
    rotate,
    solve,
)

CASE_REFERENCE_Q = {
    "A": 12.172 + 0.0j,
    "B": 13.928 + 0.140j,
    "C": 21.657 + 0.217j,
    "D": 16.438 + 0.164j,
}


# the two-sheet genuine mode: a weak isotropic left sheet against sheet A,
# a leaky joint-boundary mode; and the mode of sheet A at an interface with
# eps_r1 = eps_r2 = 2.  The roots are those the solver converged to.
TWO_SHEET_LEFT = ConductivityTensor.diagonal(0.05j + 0.0005, 0.05j + 0.0005,
                                             nondimensional=True)
TWO_SHEET_ROOT = 10.130399992286975 + 0.8674088676379806j
INTERFACE_ROOT = 24.343970647319406 + 0.0j
# the magnetoplasmon sheet, whose scale 2/|s_xx| = 1e4 lies far above |q|,
# and the root the solver converges to from 44.15
MAGNETO_SIGMA = ConductivityTensor(-2e-4j, -0.02 - 2e-7j, 0.02 + 2e-7j, -2e-4j,
                                   nondimensional=True)
MAGNETO_ROOT = 44.150349402338456 - 0.0005137276885023112j


def make_sigma(name: str) -> ConductivityTensor:
    if name == "A":
        return ConductivityTensor.diagonal(0.2j, 0.2j, nondimensional=True)
    base = ConductivityTensor.diagonal(0.001 + 0.1j, 0.002 + 0.2j,
                                       nondimensional=True)
    if name == "B":
        return base
    if name == "C":
        return rotate(base, 0.4 * math.pi)
    if name == "D":
        return rotate(base, 0.166 * math.pi)
    raise KeyError(name)


@pytest.fixture(scope="session")
def sigmas():
    return {name: make_sigma(name) for name in "ABCD"}


@pytest.fixture(scope="session")
def solutions(sigmas):
    """High-accuracy dispersion roots for the four cases."""
    out = {}
    for name, sigma in sigmas.items():
        guess = CASE_REFERENCE_Q[name]
        sol = solve(Problem.single_sheet(sigma, guess), guess)
        assert sol.converged, f"case {name} failed to converge: {sol.message}"
        out[name] = sol
    return out


@pytest.fixture(scope="session")
def root_problems(sigmas, solutions):
    return {name: Problem.single_sheet(sigmas[name], solutions[name].q)
            for name in sigmas}


@pytest.fixture(scope="session")
def root_kernels(root_problems):
    return {name: build_log_kernel(prob) for name, prob in root_problems.items()}


def assert_close(actual, expected, tol, what=""):
    scale = max(abs(expected), 1e-300)
    err = abs(actual - expected) / scale
    assert err <= tol, f"{what}: {actual} vs {expected} (rel err {err:.3e} > {tol:g})"


def series_log(kernel, x):
    """The series' L at real x: the jump Phi(x + i0) - Phi(x - i0)."""
    x = np.asarray(x, dtype=float)
    table = kernel.cauchy_table()
    return table.phi(x + 1e-300j) - table.phi(x - 1e-300j)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
