import numpy as np

from edgeplasmon.quadrature import adaptive_gk


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
