import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplasmon import BranchPointError, Sheet, principal_log, sheet_sqrt, sign_q
from edgeplasmon.branches import log_polar, unwrapped_angle


class TestSheetSqrt:
    def test_at_origin_of_xi(self):
        q = 3.0 + 0.1j
        assert sheet_sqrt(0.0, q, Sheet.FIRST) == pytest.approx(q)

    def test_near_lossless_branch(self):
        # principal sqrt then sign fix: xi=4, q ~ 3i gives ~sqrt(7) with Re > 0
        w = sheet_sqrt(4.0, 3j * (1 + 1e-9j), Sheet.FIRST)
        assert w.real == pytest.approx(np.sqrt(7.0), rel=1e-9)
        assert w.real > 0

    def test_second_sheet_is_negation(self):
        rng = np.random.default_rng(0)
        xi = rng.normal(size=100) + 1j * rng.normal(size=100)
        w1 = sheet_sqrt(xi, 2.0 - 0.5j, Sheet.FIRST)
        w2 = sheet_sqrt(xi, 2.0 - 0.5j, Sheet.SECOND)
        assert np.all(w1 + w2 == 0)

    def test_branch_point_raises(self):
        with pytest.raises(BranchPointError):
            sheet_sqrt(3j, 3.0, Sheet.FIRST)

    def test_cut_tie_break_upper(self):
        # lossless with real q puts xi^2+q^2 on the negative reals; pick Im > 0
        w = sheet_sqrt(1.0, 2j, Sheet.FIRST)  # xi^2+q^2 = -3
        assert w == pytest.approx(1j * np.sqrt(3.0))
        # signed zeros in xi and q that leave xi^2 + q^2 = -3 - 0j or -5 - 0j
        for xi, q, want in ((complex(1.0, -0.0), complex(-0.0, 2.0), 3.0),
                            (complex(-0.0, 3.0), complex(2.0, -0.0), 5.0)):
            assert sheet_sqrt(xi, q, Sheet.FIRST) == 1j * np.sqrt(want)
            assert sheet_sqrt(xi, q, Sheet.SECOND) == -1j * np.sqrt(want)
            assert sheet_sqrt(np.array([xi, -xi]), q)[1] == 1j * np.sqrt(want)

    @given(st.complex_numbers(max_magnitude=50, allow_nan=False),
           st.complex_numbers(min_magnitude=1e-3, max_magnitude=50, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_parity_and_sheet_condition(self, xi, q):
        if xi ** 2 + q ** 2 == 0:
            return
        w = sheet_sqrt(xi, q, Sheet.FIRST)
        assert sheet_sqrt(-xi, q, Sheet.FIRST) == w
        assert w.real > 0 or (w.real == 0 and w.imag > 0)
        assert w * w == pytest.approx(xi ** 2 + q ** 2, rel=1e-12)

    def test_parity_bulk_random(self, rng):
        xi = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
        q = 1.3 - 0.2j
        diff = sheet_sqrt(xi, q) - sheet_sqrt(-xi, q)
        assert np.max(np.abs(diff)) == 0.0


class TestSignQ:
    @pytest.mark.parametrize("q,expected", [(12.172, 1), (-12.172, -1),
                                            (0.5 - 8j, 1), (-1e-12 + 5j, -1)])
    def test_values(self, q, expected):
        assert sign_q(q) == expected

    def test_imaginary_axis_rejected(self):
        with pytest.raises(ValueError, match="sg\\(q\\) undefined"):
            sign_q(0.140j)


class TestPrincipalLog:
    def test_unity(self):
        assert principal_log(1.0) == 0.0

    def test_negative_real_maps_to_plus_i_pi(self):
        # ln(-1) = i*pi, the branch the dispersion relation relies on
        assert principal_log(-1.0) == pytest.approx(1j * np.pi)
        assert principal_log(complex(-1.0, -0.0)) == pytest.approx(1j * np.pi)

    def test_generic_value(self):
        w = np.exp(2.0) * np.exp(0.3j)
        assert principal_log(w) == pytest.approx(2.0 + 0.3j)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            principal_log(0.0)

    @given(st.floats(-10, 10), st.floats(-np.pi * 0.999, np.pi))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, re, im):
        z = complex(re, im)
        assert principal_log(np.exp(z)) == pytest.approx(z, abs=1e-12)

    def test_tiny_log_keeps_relative_accuracy(self):
        # why principal_log stays on np.log: ln|1 + 1e-8 i| = 5e-17 (less
        # 1.25e-33), while |1 + 1e-8 i| rounds to 1, so ln|w| gives 0
        w = 1.0 + 1e-8j
        assert abs(principal_log(w).real - 5e-17) <= 1e-15 * 5e-17
        assert log_polar(w).real == 0.0


def _mp_abs_error_in_ulps(w, got):
    """|got - ln w| against a 30-digit mpmath log, in ulps of max(1, |ln w|)."""
    with mpmath.workdps(30):
        ref = mpmath.log(mpmath.mpc(w.real, w.imag))
        err = abs(mpmath.mpc(got.real, got.imag) - ref)
        return float(err) / np.spacing(max(1.0, float(abs(ref))))


class TestLogPolar:
    def test_against_mpmath(self, rng):
        # moduli 1 +- 10^-k, where ln|w| is tiny and np.log is slowest, and
        # random moduli over the whole float range
        k = np.arange(1, 13)
        mods = np.concatenate([1.0 + 10.0 ** -k, 1.0 - 10.0 ** -k,
                               10.0 ** rng.uniform(-300.0, 300.0, 40)])
        w = mods * np.exp(1j * rng.uniform(-np.pi, np.pi, mods.size))
        got = log_polar(w)
        ulps = [_mp_abs_error_in_ulps(wi, gi) for wi, gi in zip(w, got)]
        assert max(ulps) <= 3.0, f"{max(ulps):.2f} ulp at w = {w[int(np.argmax(ulps))]}"

    def test_cut_and_signed_zeros_as_np_log(self):
        # the negative real axis from both sides: Im = +-pi by the sign of
        # the zero, bit for bit as np.log, and no tie-break
        x = np.array([1e-300, 0.5, 1.0, 3.0, 1e300])
        for zero in (0.0, -0.0):
            w = (-x).astype(complex)
            w.imag = zero
            got, want = log_polar(w), np.log(w)
            assert got.imag.tobytes() == want.imag.tobytes()
            assert np.all(got.imag == math.copysign(math.pi, zero))
            np.testing.assert_allclose(got.real, want.real, rtol=0, atol=1e-300)
        # the signed zeros of the positive axis and the imaginary axis too
        for w in (complex(2.0, -0.0), complex(-0.0, 2.0), complex(-0.0, -2.0)):
            assert np.array([log_polar(w)]).imag.tobytes() == np.log(np.array([w])).imag.tobytes()

    def test_scalar_in_scalar_out(self):
        assert log_polar(-1.0) == pytest.approx(1j * np.pi)
        assert np.ndim(log_polar(2.0 + 1.0j)) == 0


class TestUnwrappedAngle:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 3000), st.floats(0.01, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_unwrap(self, seed, n, spread):
        # random walks of the phase, steps of up to a few radians, with
        # random moduli; the principal angle jumps at every crossing of the cut
        rng = np.random.default_rng(seed)
        phase = np.cumsum(rng.normal(scale=spread, size=n))
        w = rng.uniform(0.1, 10.0, size=n) * np.exp(1j * phase)
        np.testing.assert_allclose(unwrapped_angle(w), np.unwrap(np.angle(w)),
                                   rtol=0, atol=1e-12)

    def test_recovers_a_slow_phase(self):
        phase = np.linspace(-3.0, 40.0, 4001)    # starts on the principal branch
        assert np.abs(unwrapped_angle(np.exp(1j * phase)) - phase).max() < 1e-12
