import math
import os
import subprocess
import sys

import numpy as np

from edgeplasmon.quadrature import (
    adaptive_gk,
    adaptive_gk_to_infinity,
    gk_nodes_weights,
    gk_panel_sums,
)


def test_vector_integrand_shares_nodes():
    # e^{a x} on [0, 1] for two rates: one pass against two
    rates = np.array([1.0, 30.0])
    exact = np.expm1(rates) / rates
    joint = adaptive_gk(lambda x: np.exp(np.outer(x, rates)), 0.0, 1.0, rtol=1e-12)
    assert joint.value.shape == joint.error.shape == (2,)
    assert np.all(np.abs(joint.value - exact) <= np.maximum(1e-14, 1e-12 * np.abs(exact)))
    separate = [adaptive_gk(lambda x, a=a: np.exp(a * x), 0.0, 1.0, rtol=1e-12)
                for a in rates]
    assert isinstance(joint.n_eval, int) and isinstance(joint.n_segments, int)
    assert joint.n_eval <= sum(r.n_eval for r in separate)
    for r, want in zip(separate, exact):
        assert isinstance(r.value, complex) and isinstance(r.error, float)
        assert abs(r.value - want) <= 1e-12 * want


def test_each_component_meets_its_own_tolerance():
    # the small component is resolved to 1e-10 of itself, not of the sum:
    # a tolerance shared with the constant would allow 1.5e-7 of it
    joint = adaptive_gk(lambda x: np.column_stack([np.ones_like(x), 1e-3 * np.sqrt(x)]),
                        0.0, 1.0, rtol=1e-10)
    want = np.array([1.0, 1e-3 * 2.0 / 3.0])
    assert np.all(np.abs(joint.value - want) <= 1e-10 * want)
    assert np.all(joint.error <= 1e-10 * want)


def test_nan_integrand_raises_instead_of_spinning():
    # a nan error estimate once selected no segment for bisection and the
    # loop never ended; run in a subprocess so a hang fails on the timeout
    code = ("import numpy as np\n"
            "from edgeplasmon.quadrature import QuadratureError, adaptive_gk\n"
            "try:\n"
            "    adaptive_gk(lambda x: np.where(x > 0.3, np.nan, x), 0.0, 1.0)\n"
            "except QuadratureError as exc:\n"
            "    print('raised:', exc)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=30)
    assert out.stdout.startswith("raised: integrand is not finite")


def test_panel_arrays_integrate_degree_20_exactly():
    # Kronrod-15 is exact through degree 22; the embedded Gauss-7 rule is
    # not, so its differences are nonzero
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=21)
    edges = np.array([-1.3, -0.2, 0.05, 0.9, 2.0])
    nodes, weights = gk_nodes_weights(edges[:-1], edges[1:])
    assert nodes.shape == weights.shape == (4, 15)
    for (a, b), row_n, row_w in zip(zip(edges[:-1], edges[1:]), nodes, weights):
        one_n, one_w = gk_nodes_weights(a, b)
        assert np.array_equal(row_n, one_n) and np.array_equal(row_w, one_w)
    antideriv = np.polyint(coeffs)
    exact = np.polyval(antideriv, edges[-1]) - np.polyval(antideriv, edges[0])
    assert abs((np.polyval(coeffs, nodes) * weights).sum() - exact) <= 1e-13 * abs(exact)
    panels, diff = gk_panel_sums(np.polyval(coeffs, nodes), 0.5 * np.diff(edges))
    assert abs(panels.sum() - exact) <= 1e-13 * abs(exact)
    assert np.all(np.abs(diff) > 0)


def test_semi_infinite_range_in_one_pass():
    res = adaptive_gk_to_infinity(lambda z: 1.0 / (1.0 + z * z), 5.0, rtol=1e-12,
                                  initial=[1.0, 2.0])
    assert abs(res.value - 0.5 * math.pi) <= 1e-12 * math.pi
    assert res.error <= 1e-12 * math.pi


def test_roundoff_floor_ends_cancelling_integrals():
    # integrals of O(1e4..1e6) values that cancel to 0: the Kronrod sums
    # cannot resolve them below a few ulp of Int |f|, and the absolute
    # floor atol = 1e-14 once bisected them to the segment cap instead
    for f, a, b, abs_int in ((lambda x: 1e6 * (x - 0.5), 0.0, 1.0, 2.5e5),
                             (lambda x: 1e4 * np.sin(x), -3.0, 3.0, 2e4 * (1.0 - math.cos(3.0)))):
        res = adaptive_gk(f, a, b)
        assert res.n_segments == 8          # the initial panels, none bisected
        assert abs(res.value) <= res.error <= 100.0 * np.finfo(float).eps * abs_int


def test_roundoff_floor_per_component():
    # a vector integrand holds each component to its own floor: the
    # cancelling one ends at its round-off, the other keeps rtol
    res = adaptive_gk(lambda x: np.column_stack([1e6 * (x - 0.5), np.exp(x)]), 0.0, 1.0,
                      rtol=1e-12)
    assert abs(res.value[0]) <= res.error[0] <= 1e-8
    assert abs(res.value[1] - math.expm1(1.0)) <= 1e-12 * math.expm1(1.0)
    assert res.error[1] <= 1e-12 * math.expm1(1.0)
