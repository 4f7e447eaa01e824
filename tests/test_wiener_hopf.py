import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from edgeplasmon import (
    ConductivityTensor,
    NonzeroIndexError,
    Problem,
    build_log_kernel,
    cauchy_transform,
    p_of_xi,
    quadratic_roots,
    residual,
    solve,
)
from edgeplasmon import wiener_hopf
from edgeplasmon.branches import Sheet, principal_log
from edgeplasmon.field import _field_contour, _panel_width, _vertical_panels
from edgeplasmon.quadrature import QuadratureError
from edgeplasmon.selfcheck import grid_log
from edgeplasmon.spectrum import RealAxisZeroError, unwrapped_phase_grid
from cauchy_oracle import adaptive_phi, mp_phi
from conftest import (INTERFACE_ROOT, MAGNETO_ROOT, MAGNETO_SIGMA, TWO_SHEET_LEFT, TWO_SHEET_ROOT,
                      make_sigma, series_log)
from test_spectrum import random_passive_tensor


class TestLogKernel:
    def test_trivial_sheet(self):
        k = build_log_kernel(Problem.single_sheet(
            ConductivityTensor.diagonal(0, 0, nondimensional=True), 4.0))
        assert k.nu_k == 0
        assert np.all(series_log(k, np.linspace(-9, 9, 11)) == 0)

    def test_exp_log_reproduces_symbol(self, root_problems, root_kernels, rng):
        prob, kernel = root_problems["A"], root_kernels["A"]
        zeta = rng.uniform(-100.0 * kernel.scale, 100.0 * kernel.scale, size=1000)
        lv = series_log(kernel, zeta)
        pv = p_of_xi(prob, zeta)
        assert np.max(np.abs(np.exp(lv) - pv) / np.abs(pv)) < 1e-12

    def test_phase_steps_below_half_pi(self, root_problems):
        _, phase, _, _ = unwrapped_phase_grid([root_problems["C"]], Sheet.FIRST)
        steps = np.abs(np.diff(phase))
        assert steps.max() < 0.5 * math.pi

    def test_zero_index_phase_closure(self, root_kernels):
        # nu_K = 0: the unwrapped phase at +X returns to its -X value;
        # the O(1/X) tail drift vanishes at large probing radius
        kernel = root_kernels["C"]
        big = 1e5 * kernel.scale
        phase = series_log(kernel, [big, -big]).imag
        gap = abs(phase[0] - phase[1])
        assert gap < 1e-3

    def test_base_value_and_tail_branch(self, root_problems, root_kernels):
        # case A: P real negative on the whole axis, phase pinned at +pi
        kernel = root_kernels["A"]
        base = complex(series_log(kernel, [0.0])[0])
        p0 = complex(p_of_xi(root_problems["A"], 0.0))
        assert base.imag == pytest.approx(math.pi)
        assert math.exp(base.real) == pytest.approx(abs(p0), rel=1e-13)

    def test_nu_recorded(self):
        prob = Problem.single_sheet(make_sigma("C"), 0.85 * (21.657 + 0.217j))
        assert build_log_kernel(prob).nu_k == -1


class TestSplitQ:
    def test_zero_sheet_splits_to_zero(self):
        kernel = build_log_kernel(Problem.single_sheet(
            ConductivityTensor.diagonal(0, 0, nondimensional=True), 4.0))
        assert cauchy_transform(kernel, 2.0 + 1.0j) == 0

    def test_case_a_dispersion_sum(self, root_kernels):
        # Q+(xi+) + Q-(xi-) = ln(-C+/C-) = i pi at the reference root
        kernel = root_kernels["A"]
        prob = kernel.problem
        r = quadratic_roots(prob.sigma, prob.q)
        qp = cauchy_transform(kernel, r.xi_plus)
        qm = -cauchy_transform(kernel, r.xi_minus)
        assert qp + qm == pytest.approx(1j * math.pi, abs=1e-3)
        assert kernel.cauchy_table().error_estimate < 1e-8

    def test_nonzero_index_refused(self):
        kernel = build_log_kernel(
            Problem.single_sheet(make_sigma("C"), 0.85 * (21.657 + 0.217j)))
        with pytest.raises(NonzeroIndexError):
            cauchy_transform(kernel, 2j)

    def test_magneto_small_q_breve_limit(self):
        # |Q_+-(xi^+-)| -> 0 as |q_breve| -> 0
        sbar = ConductivityTensor(
            -2e-4j, -0.02 - 2e-7j, 0.02 + 2e-7j, -2e-4j, nondimensional=True)
        prev = None
        for q in (200.0, 20.0, 2.0):
            prob = Problem.single_sheet(sbar, q)
            kernel = build_log_kernel(prob)
            r = quadratic_roots(sbar, q)
            mag = np.abs(cauchy_transform(kernel, [r.xi_plus, r.xi_minus])).max()
            if prev is not None:
                assert mag < prev
            prev = mag
        assert prev < 1e-3

    @pytest.mark.parametrize("q", [0.1, 1e-3])
    def test_magneto_small_q_breve_resolves(self, q):
        # q_breve = |q s_xx|/2 = 1e-5 and 1e-7, |q| far below the scale
        # 2/|s_xx| = 1e4: the series peels the branch points +-iq off in
        # levels, so N stays at 1024 (one map needed N = 262144 at q = 0.1
        # and could not be resolved below it)
        sbar = ConductivityTensor(
            -2e-4j, -0.02 - 2e-7j, 0.02 + 2e-7j, -2e-4j, nondimensional=True)
        q_breve = 1e-4 * q
        prob = Problem.single_sheet(sbar, q)
        start = time.perf_counter()
        kernel = build_log_kernel(prob)
        r = quadratic_roots(sbar, q)
        splits = [cauchy_transform(kernel, r.xi_plus),
                  -cauchy_transform(kernel, r.xi_minus)]
        f = residual(prob)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"{elapsed:.3f} s"
        table = kernel.cauchy_table()
        assert table.nodes.size <= 1024 and len(table.series) > 1
        assert np.isfinite(f)
        ref, _ = adaptive_phi(kernel, [r.xi_plus, r.xi_minus])
        assert table.error_estimate < 1e-11
        for split, sign, want in zip(splits, (1, -1), ref):
            assert abs(split - sign * want) < 1e-11
            assert abs(split) < 20.0 * q_breve

    def test_analyticity_probe(self, root_kernels):
        # Q_+ at a point equals its Cauchy reconstruction from a circle
        kernel = root_kernels["C"]
        r = quadratic_roots(kernel.problem.sigma, kernel.problem.q)
        z0 = r.xi_plus
        radius = 0.25 * kernel.scale
        angles = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
        ring = z0 + radius * np.exp(1j * angles)
        vals = np.array([cauchy_transform(kernel, z) for z in ring])
        recon = np.mean(vals)  # mean over the circle = center value
        direct = cauchy_transform(kernel, z0)
        assert abs(recon - direct) < 1e-6


class TestCauchyTransformBatch:
    """Several points in one call against one call per point."""

    def test_root_pair_matches_single_points(self, root_kernels):
        for name, kernel in root_kernels.items():
            r = quadratic_roots(kernel.problem.sigma, kernel.problem.q)
            pair = cauchy_transform(kernel, [r.xi_plus, r.xi_minus])
            assert pair.shape == (2,)
            for got, x in zip(pair, (r.xi_plus, r.xi_minus)):
                one = cauchy_transform(kernel, x)
                assert isinstance(one, complex)
                assert abs(got - one) <= 1e-12, f"case {name} at {x}"
            assert 0.0 < kernel.cauchy_table().error_estimate < 1e-8

    def test_mixed_off_axis_and_principal_value(self, root_kernels):
        kernel = root_kernels["B"]
        pts = [7.7 - 0.3j, -2.4 + 0j]
        batch = cauchy_transform(kernel, pts)
        for got, x in zip(batch, pts):
            assert abs(got - cauchy_transform(kernel, x)) <= 1e-12

    def test_trivial_kernel_batch(self):
        kernel = build_log_kernel(Problem.single_sheet(
            ConductivityTensor.diagonal(0, 0, nondimensional=True), 4.0))
        assert list(cauchy_transform(kernel, [1j, -2.0])) == [0, 0]

    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "magneto"])
    def test_one_pass_equals_the_point_calls_bit_for_bit(self, name, root_kernels):
        # points above, below and on the axis, the root pair among them,
        # near the axis and deep in both half-planes (where the kink is
        # summed as a series), and on the levels of a small |q|: both sides
        # share one pass, but each side's sums are taken on their own, so a
        # point's value does not depend on the other points of its call
        if name == "magneto":
            sbar = ConductivityTensor(
                -2e-4j, -0.02 - 2e-7j, 0.02 + 2e-7j, -2e-4j, nondimensional=True)
            kernel = build_log_kernel(Problem.single_sheet(sbar, 0.1))
        else:
            kernel = root_kernels[name]
        r = quadratic_roots(kernel.problem.sigma, kernel.problem.q)
        kappa = kernel.scale
        pts = np.array([r.xi_plus, r.xi_minus, 0.3 * kappa + 1e-7j * kappa,
                        -1.5 * kappa - 1e-7j * kappa, 4.0 * kappa + 0j, -0.7 * kappa + 0j,
                        0.2 * kappa + 1.1j * kappa, -0.1 * kappa - 0.9j * kappa,
                        30.0 * kappa + 2j * kappa, 1e-3 * kappa + 0j, -1e-3j * kappa])
        table = kernel.cauchy_table()
        single = np.array([table.phi(z)[0] for z in pts])
        assert np.array_equal(table.phi(pts), single)
        assert np.array_equal(table.phi(pts[::-1]), single[::-1])
        assert np.array_equal(table.phi(pts[:2]), single[:2])

    def test_one_term_power_sums_do_not_depend_on_the_batch(self, rng):
        # a series cut at order 1 has a one-term row: its sums too must
        # give each point the same bits alone as among 64 others
        row = rng.normal(size=1) + 1j * rng.normal(size=1)
        r = 0.9 * np.exp(2j * math.pi * rng.uniform(size=64)) * rng.uniform(size=64)
        batch = wiener_hopf._power_sums(row, r)
        assert np.array_equal(batch, [wiener_hopf._power_sums(row, r[i:i + 1])[0]
                                      for i in range(r.size)])
        assert np.allclose(batch, row[0] * r, rtol=1e-15)

    def test_one_residual_reaches_phi_once(self, monkeypatch):
        # each residual takes Phi at the root pair in one cauchy_transform
        # call, nu_K != 0 included (the table is built inside it), so
        # counting those calls counts residuals
        calls = []
        transform = wiener_hopf.cauchy_transform

        def counting(kernel, xi0):
            calls.append(np.size(xi0))
            return transform(kernel, xi0)

        monkeypatch.setattr(wiener_hopf, "cauchy_transform", counting)
        residual(Problem.single_sheet(make_sigma("B"), 13.9 + 0.14j))
        assert calls == [2]
        with pytest.raises(NonzeroIndexError):
            residual(Problem.single_sheet(make_sigma("C"), 0.87 * (21.657 + 0.217j)))
        assert calls == [2, 2]


class TestBoundaryValues:
    def test_plemelj_sum_is_log_symbol(self, root_kernels):
        # Q_+(x + i0) + Q_-(x - i0) = Phi(x + i0) - Phi(x - i0) = L(x), and
        # the mean of the two sides is the principal value; both are
        # approached linearly in the offset delta
        kernel = root_kernels["B"]
        x = np.array([-17.3, -2.0, 0.7, 9.4, 23.1])
        for delta, tol in ((1e-6, 1e-7), (1e-8, 1e-9)):
            above = cauchy_transform(kernel, x + 1j * delta)
            below = cauchy_transform(kernel, x - 1j * delta)
            pv = cauchy_transform(kernel, x + 0j)
            assert np.abs(above - below - grid_log(kernel)(x)).max() < tol
            assert np.abs(0.5 * (above + below) - pv).max() < tol

    def test_boundary_matches_off_axis_limit(self, root_kernels):
        kernel = root_kernels["B"]
        x = 5.5
        # Q_+(x + i0) = L(x)/2 + PV(x)
        qb = 0.5 * complex(grid_log(kernel)(x)) + cauchy_transform(kernel, complex(x))
        seq = [cauchy_transform(kernel, x + 1j * d) for d in (1e-3, 1e-5, 1e-7)]
        errs = [abs(v - qb) for v in seq]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    def test_factorization_tightens_with_delta(self, root_problems, root_kernels):
        # Plemelj limit: the defect of exp(Q+(x+id) + Q-(x-id)) against P(x)
        # shrinks linearly in the offset d
        prob, kernel = root_problems["B"], root_kernels["B"]
        xs = np.linspace(-2.2 * abs(prob.q), 2.2 * abs(prob.q), 40)
        errs = {}
        for delta in (1e-4, 1e-5, 1e-6):
            worst = 0.0
            for x in xs:
                qp = cauchy_transform(kernel, x + 1j * delta)
                qm = -cauchy_transform(kernel, x - 1j * delta)
                p_ref = complex(p_of_xi(prob, x))
                worst = max(worst, abs(np.exp(qp + qm) - p_ref) / abs(p_ref))
            errs[delta] = worst
        assert errs[1e-4] < 1e-2
        assert errs[1e-5] < 0.15 * errs[1e-4]
        assert errs[1e-6] < 0.15 * errs[1e-5]


class TestQAsymptotic:
    def test_quadrature_approaches_log_law(self, root_kernels, root_problems):
        # |Q_+(iR) - asymptote| * R/(ln R + 1) stays bounded as R grows,
        # the asymptote being the large-xi law Q_+(xi) ~ (1/2) ln(sigma_xx xi/2)
        kernel, prob = root_kernels["B"], root_problems["B"]
        bounds = []
        for r_mag in (1e2, 1e3, 1e4):
            direct = cauchy_transform(kernel, 1j * r_mag)
            asym = 0.5 * complex(principal_log(0.5 * prob.sigma_eff.xx * 1j * r_mag))
            bounds.append(abs(direct - asym) * r_mag / (math.log(r_mag) + 1.0))
        assert max(bounds) < 50.0
        assert bounds[2] < 4.0 * bounds[0] + 1.0


class TestLambda:
    def test_reconstruction_identity_on_grid(self, root_problems, root_kernels):
        # -i[Lambda_+ + Lambda_-] = (q s_yx + xi s_xx) K-hat e^{-Q_+} on a
        # thousand-point grid parallel to the real axis
        prob, kernel = root_problems["C"], root_kernels["C"]
        roots, phi_p, phi_m = kernel.root_constants()
        a, b = np.exp(-phi_p), np.exp(-phi_m)
        table = kernel.cauchy_table()
        delta = 1e-6 * kernel.scale
        xi = np.linspace(-3 * abs(prob.q), 3 * abs(prob.q), 1000) + 1j * delta
        phi = table.phi(xi)
        e_mqp = np.exp(-phi)               # e^{-Q_+}, upper side
        p_here = p_of_xi(prob, xi)
        e_qm = p_here * e_mqp              # e^{+Q_-} continued upward
        lam_p = (-roots.c_plus * (e_mqp - a) / (xi - roots.xi_plus)
                 + roots.c_minus * (b - e_mqp) / (xi - roots.xi_minus))
        lam_m = (roots.c_minus * (e_qm - b) / (xi - roots.xi_minus)
                 - roots.c_plus * (a - e_qm) / (xi - roots.xi_plus))
        lhs = -1j * (lam_p + lam_m)
        sig = prob.sigma_eff
        rhs = (prob.q * sig.yx + xi * sig.xx) * (0.5 / np.sqrt(
            xi * xi + prob.q * prob.q)) * e_mqp
        rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-12)
        assert rel.max() < 1e-8


class TestCPlus:
    def test_against_mpmath_series(self, rng):
        # the near branch of the kink sums: Sum_{n>0} c_n r^n for
        # 0.7 <= |r| < 1, c_n = (2/pi)(-1)^n/(1 - 4n^2), summed in mpmath
        # until |r|^n drops below 1e-22
        radii = np.concatenate([[0.7, 0.8, 0.9, 0.95, 0.99, 0.995],
                                rng.uniform(0.7, 0.995, 10)])
        r = np.concatenate([radii * np.exp(1j * rng.uniform(-np.pi, np.pi, radii.size)),
                            [0.7, 0.9, -0.7, -0.9, 0.8j, -0.8j]])
        got = wiener_hopf._c_plus(r)
        with mpmath.workdps(30):
            for ri, gi in zip(r, got):
                rr = mpmath.mpc(ri.real, ri.imag)
                power, acc = mpmath.mpf(1), mpmath.mpc(0)
                for n in range(1, int(math.log(1e-22) / math.log(abs(ri))) + 2):
                    power *= -rr
                    acc += power / (1 - 4 * n * n)
                err = abs(mpmath.mpc(gi.real, gi.imag) - 2 * acc / mpmath.pi)
                assert err <= 4e-16, f"at r = {ri}: {float(err):.2e}"


class TestSeriesLength:
    """N is set by the problem, not by the last bits of q: the beyond-N/4
    sum of a two-sheet series sits near SERIES_TOL at every N, and what
    stands above its rounding floor does not.  The final N of each series
    fixes its sequence of doublings from SERIES_N_MIN.  The top series'
    map, at 2 sqrt(|q| scale) up to the scale, resolves every reference
    root at N = 256, the two-sheet root included."""

    @staticmethod
    def _problem(case, q):
        if case == "interface":
            return Problem.interface(make_sigma("A"), q, 2.0, 2.0)
        if case == "two_sheet":
            return Problem.two_sheet(TWO_SHEET_LEFT, make_sigma("A"), q)
        if case == "magneto":
            return Problem.single_sheet(MAGNETO_SIGMA, q)
        return Problem.single_sheet(make_sigma(case), q)

    @staticmethod
    def _sizes(problem, monkeypatch):
        """(table, the final N of each series) of a fresh build."""
        sizes = []
        fft_series = wiener_hopf._fft_series

        def recording(values, kappa):
            out = fft_series(values, kappa)
            sizes.append(out[0].size)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(wiener_hopf, "_fft_series", recording)
            table = build_log_kernel(problem).cauchy_table()
        return table, sizes

    @pytest.mark.parametrize("case", ["A", "B", "C", "D", "interface", "two_sheet"])
    def test_same_n_over_ulp_moves_of_q(self, case, solutions, monkeypatch):
        root = {"interface": INTERFACE_ROOT, "two_sheet": TWO_SHEET_ROOT}.get(case)
        root = solutions[case].q if root is None else root
        sizes, estimates = [], []
        for k in range(-20, 21):
            re = root.real + k * np.spacing(root.real)
            table, n = self._sizes(self._problem(case, complex(re, root.imag)), monkeypatch)
            sizes.append(n)
            estimates.append(table.error_estimate)
        assert all(n == [256] for n in sizes), sizes
        # at the root itself; ulp moves of a two-sheet q reach 4.8e-13
        assert estimates[20] <= 2e-13

    @pytest.mark.parametrize("case", ["B", "D"])
    def test_below_the_root(self, case, solutions, monkeypatch):
        # at 0.3 q_root the map of sqrt(|q| scale) needed N = 512
        _, sizes = self._sizes(self._problem(case, 0.3 * solutions[case].q), monkeypatch)
        assert sizes == [256]

    def test_magnetoplasmon_root_keeps_its_levels(self, monkeypatch):
        # |q| = 44 far below the scale 1e4: the top series and two levels,
        # each on the map of its own radii
        _, sizes = self._sizes(self._problem("magneto", MAGNETO_ROOT), monkeypatch)
        assert len(sizes) == 3 and max(sizes) <= 1024, sizes

    def test_slow_decay_is_not_a_floor(self):
        # a pole 0.01 off the axis: |a_n| ~ 0.99^n is flat within the floor
        # margin over (N/4, N/2] at N = 256, with a beyond-N/4 sum of 35
        nodes, _, _, alias = wiener_hopf._fft_series(lambda xi: 1.0 / (xi - (1.0 + 0.01j)), 1.0)
        assert nodes.size > wiener_hopf.SERIES_N_MIN
        assert alias <= wiener_hopf.FLOOR_ALIAS_MAX

    def test_kink_is_not_a_floor(self):
        # |a_n| ~ n^-2 from the kink of |xi - 1/2| never meets the target;
        # flat within the floor margin, it would pass for a floor at N = 512
        with pytest.raises(QuadratureError, match=f"not resolved at N = {wiener_hopf.SERIES_N_MAX}"):
            wiener_hopf._fft_series(lambda xi: np.abs(xi - 0.5) / (1.0 + xi * xi), 1.0)


class TestCauchyTable:
    """The series against the independent adaptive Cauchy integral."""

    def test_matches_pointwise_adaptive(self, root_kernels, rng):
        kernel = root_kernels["C"]
        table = kernel.cauchy_table()
        pts = (rng.uniform(-30, 30, 24)
               + 1j * np.concatenate([rng.uniform(0.01, 8, 12),
                                      -rng.uniform(0.01, 8, 12)]))
        ref, _ = adaptive_phi(kernel, pts)
        err = np.abs(table.phi(pts) - ref)
        assert err.max() < 1e-11, f"series mismatch at {pts[err.argmax()]}"

    def test_near_axis_points(self, root_kernels):
        kernel = root_kernels["B"]
        table = kernel.cauchy_table()
        for delta in (1e-4, 1e-6):
            z = 7.7 + 1j * delta
            ref, _ = adaptive_phi(kernel, [z])
            assert abs(complex(table.phi(np.array([z]))[0]) - ref[0]) < 1e-11


class TestCauchyTableOracle:
    """CauchyTable.phi against the adaptive oracle at the points the field
    routines use.  The oracle's own error reaches 1e-13 near the axis, so
    the series' error estimate is checked against mpmath instead
    (test_oracle.py)."""

    TOL = 1e-11

    @pytest.fixture(params=["B", "C"])
    def kernel(self, request, root_kernels):
        return root_kernels[request.param]

    def _check(self, kernel, pts):
        table = kernel.cauchy_table()
        assert table.tail_z.size == 0
        ref, _ = adaptive_phi(kernel, pts)
        got = table.phi(pts)
        assert got.shape == pts.shape
        err = np.abs(got - ref)
        assert err.max() <= self.TOL, f"max |diff| {err.max():.3e} at {pts[err.argmax()]}"

    def _check_refined(self, kernel, pts, monkeypatch):
        # the denser point sets, where the oracle's adaptive pass can stall
        # next to the axis, against the series at twice the nodes and a
        # tenth of the target
        table = kernel.cauchy_table()
        with monkeypatch.context() as patch:
            patch.setattr(wiener_hopf, "SERIES_N_MIN", 2 * table.nodes.size)
            patch.setattr(wiener_hopf, "SERIES_TOL", 0.1 * wiener_hopf.SERIES_TOL)
            ref = build_log_kernel(kernel.problem).cauchy_table().phi(pts)
        err = np.abs(table.phi(pts) - ref)
        assert err.max() <= self.TOL, f"max |diff| {err.max():.3e} at {pts[err.argmax()]}"

    @staticmethod
    def _contour_points(kernel, rng, n_grid, n_picked):
        kappa = kernel.scale
        delta = 1e-7 * kappa
        t = kernel.cauchy_table().nodes
        inside = t[np.abs(t) < 40.0 * kappa]
        # real parts on collocation nodes and within 1e-9 kappa of them
        picked = rng.choice(inside, n_picked, replace=False)
        k = n_picked // 3
        near = np.concatenate([picked[:k], picked[k:] + rng.uniform(-1e-9, 1e-9, n_picked - k) * kappa])
        xs = np.concatenate([np.linspace(-40.0 * kappa, 40.0 * kappa, n_grid), near])
        return np.concatenate([xs + 1j * delta, xs - 1j * delta])

    def test_near_axis_contours(self, kernel, rng, monkeypatch):
        self._check(kernel, self._contour_points(kernel, rng, 161, 40))
        self._check_refined(kernel, self._contour_points(kernel, rng, 601, 150), monkeypatch)

    def test_rotated_tail_rays(self, kernel, monkeypatch):
        # the vertical rays of field._rotated_tails from the ends of the
        # field contour's inner part
        contour = _field_contour(kernel, _panel_width(kernel))
        inner, delta = contour.inner, contour.delta
        rays = []
        for x in (0.05, -0.07, 0.35, -0.4):
            s_nodes, _ = _vertical_panels(45.0 / abs(x), struct=inner)
            rot = 1.0 if x > 0 else -1.0
            for end in (inner, -inner):
                rays.append(end - 1j * rot * delta + 1j * rot * s_nodes)
        rays = np.concatenate(rays)
        self._check(kernel, rays[::7])
        self._check_refined(kernel, rays, monkeypatch)

    def test_on_axis_principal_value(self, kernel, rng, monkeypatch):
        t = kernel.cauchy_table().nodes
        inside = np.flatnonzero(np.abs(t[:-1]) < 40.0 * kernel.scale)
        j = rng.choice(inside, 60, replace=False)
        self._check(kernel, 0.5 * (t[j] + t[j + 1]) + 0j)
        j = rng.choice(inside, 200, replace=False)
        self._check_refined(kernel, 0.5 * (t[j] + t[j + 1]) + 0j, monkeypatch)

    def test_on_axis_point_at_a_node(self, kernel):
        table = kernel.cauchy_table()
        x = table.nodes[table.nodes.size // 3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = complex(table.phi(x + 0j)[0])
        assert abs(got - adaptive_phi(kernel, [x])[0][0]) <= self.TOL

    def test_far_points(self, kernel):
        # no span limits the series: near-axis points far out, and points
        # deep in both half-planes, where the kink is summed as a series
        kappa = kernel.scale
        pts = np.array([300.0 * kappa + 1e-7j * kappa, -90.0 * kappa - 1e-7j * kappa,
                        0.9 * kappa + 2e-3j, 1j * kappa, -1.2j * kappa, 0.1 + 0.5j * kappa])
        self._check(kernel, pts)

    def test_trivial_kernel_gives_zero(self):
        kernel = build_log_kernel(Problem.single_sheet(
            ConductivityTensor.diagonal(0, 0, nondimensional=True), 4.0))
        table = kernel.cauchy_table()
        out = table.phi(np.array([1.0 + 1e-7j, -3.0, 2.0 - 5.0j]))
        assert np.array_equal(out, np.zeros(3, dtype=complex))
        assert table.error_estimate == 0.0


@st.composite
def level_free_problems(draw):
    """A random passive tensor (tests/test_spectrum.py), alone or, in three
    draws of ten, the right sheet beside another, at a q of either sign
    with |q| from 0.1 to 5 times its 2/|sigma_xx|: at or above ROOT_TOP
    times the scale of the sheets, so the table has no root levels."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = random_passive_tensor(rng)
    size = 10.0 ** rng.uniform(-1.0, math.log10(5.0)) * 2.0 / abs(sigma.xx)
    q = complex(size * rng.choice([-1.0, 1.0]), rng.normal(scale=0.1) * size)
    if rng.uniform() < 0.3:
        return Problem.two_sheet(random_passive_tensor(rng), sigma, q), rng
    return Problem.single_sheet(sigma, q), rng


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(level_free_problems())
def test_map_scale_against_the_geometric_mean_map(case):
    # the top series on the map of min(scale, 2 sqrt(|q| scale)) against
    # the same table on the map of sqrt(|q| scale): on the axis (principal
    # values), next to it and off it, within the sum of both estimates
    problem, rng = case
    try:
        kernel = build_log_kernel(problem)
    except RealAxisZeroError:
        assume(False)
    assume(kernel.nu_k == 0)
    table = kernel.cauchy_table()
    scale, size = kernel.scale, abs(problem.q)
    assert len(table.series) == 1
    assert table.kappa == min(scale, wiener_hopf.MAP_SPREAD * math.sqrt(size * scale))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wiener_hopf, "MAP_SPREAD", 1.0)
        mean_map = build_log_kernel(problem).cauchy_table()
    assert mean_map.kappa == math.sqrt(size * scale)
    x = rng.uniform(-4.0, 4.0, 12) * scale
    pts = np.concatenate([x, x + 1e-9j * scale, x - 1e-9j * scale,
                          (rng.uniform(-3.0, 3.0, 12) + 1j * rng.uniform(0.01, 2.0, 12)
                           * rng.choice([-1.0, 1.0], 12)) * scale])
    gap = np.abs(table.phi(pts) - mean_map.phi(pts)).max()
    assert gap <= table.error_estimate + mean_map.error_estimate


ZERO_SHEET = ConductivityTensor.diagonal(0, 0, nondimensional=True)


@st.composite
def sheets_near_their_scale(draw):
    """A random passive tensor (tests/test_spectrum.py) and a real q of
    either sign within 0.6 to 1.4 of the SPP wavenumber 2/|sigma_xx|."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = random_passive_tensor(rng)
    q = rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4) * 2.0 / abs(sigma.xx)
    return sigma, complex(q), rng


class TestZeroLeftSheet:
    """Problem.two_sheet(zero, sigma) is Problem.single_sheet(sigma): the
    zero sheet's factor of P is 1, so Phi and the roots must agree within
    their error estimates."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(sheets_near_their_scale())
    def test_same_phi(self, case):
        sigma, q, rng = case
        single = Problem.single_sheet(sigma, q)
        try:
            kernel = build_log_kernel(single)
        except RealAxisZeroError:
            with pytest.raises(RealAxisZeroError):
                build_log_kernel(Problem.two_sheet(ZERO_SHEET, sigma, q))
            assume(False)
        two = build_log_kernel(Problem.two_sheet(ZERO_SHEET, sigma, q))
        assert two.nu_k == kernel.nu_k
        assume(kernel.nu_k == 0)
        tables = kernel.cauchy_table(), two.cauchy_table()
        assert tables[0].nodes.size == tables[1].nodes.size
        # on the axis (principal values), next to it and off it, both sides
        x = rng.uniform(-4.0, 4.0, 12) * kernel.scale
        pts = np.concatenate([x, x + 1e-9j * kernel.scale,
                              (rng.uniform(-3.0, 3.0, 12) + 1j * rng.uniform(0.01, 2.0, 12)
                               * rng.choice([-1.0, 1.0], 12)) * kernel.scale])
        gap = np.abs(tables[0].phi(pts) - tables[1].phi(pts)).max()
        assert gap <= tables[0].error_estimate + tables[1].error_estimate

    @settings(max_examples=12, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(sheets_near_their_scale())
    def test_same_root(self, case):
        # the two-sheet residual is the exponential form A(q), whose secant
        # path differs from that of F: from the same far guess it can end
        # in a nu_K != 0 pocket, or at a zero of A on another branch of
        # F's log.  So the two-sheet solve starts 0.1 % off the single
        # root; both stop at |residual| < 1e-10, about 1e-10 of |q|
        sigma, q, _ = case
        one = solve(Problem.single_sheet(sigma, q), q)
        assume(one.converged)
        guess = one.q * (1.0 + 1e-3j)
        two = solve(Problem.two_sheet(ZERO_SHEET, sigma, guess), guess)
        assert two.converged, two.message
        assert abs(two.q - one.q) <= 1e-8 * abs(one.q)


# sigma_xx = sigma_yy = 0 and sigma_xy = -sigma_yx: its numerator is zero,
# so its factor of P is 1, and it enters the two-sheet problem only
# through the difference tensor, that is through xi^+- and C^+-
HALL_LEFT = ConductivityTensor(0, 0.02, -0.02, 0, nondimensional=True)
HALL_ROOT = 12.5753008 + 0.1142138j


class TestHallOnlyLeftSheet:
    @pytest.mark.parametrize("q", [HALL_ROOT, -9.3 + 0.05j])
    def test_kernel_is_the_right_sheet_kernel(self, q):
        two = build_log_kernel(Problem.two_sheet(HALL_LEFT, make_sigma("B"), q))
        one = build_log_kernel(Problem.single_sheet(make_sigma("B"), q))
        assert HALL_LEFT.is_passive()
        two_grid, one_grid = (unwrapped_phase_grid([k.problem], Sheet.FIRST) for k in (two, one))
        assert np.array_equal(two_grid[0], one_grid[0])
        assert np.array_equal(two_grid[1], one_grid[1])
        roots = quadratic_roots(two.problem.sigma, q)
        pts = [roots.xi_plus, roots.xi_minus]
        phi = cauchy_transform(one, pts)
        assert np.array_equal(cauchy_transform(two, pts), phi)
        # the residual is the right sheet's split at the difference's roots
        assert residual(two.problem, kernel=two) == complex(
            roots.c_plus * np.exp(-phi[0]) + roots.c_minus * np.exp(-phi[1]))

    def test_solve_and_mpmath(self):
        sol = solve(Problem.two_sheet(HALL_LEFT, make_sigma("B"), 13.0), 13.0)
        assert sol.converged, sol.message
        assert abs(sol.residual) < 1e-10
        assert abs(sol.q - HALL_ROOT) < 1e-6
        kernel = build_log_kernel(Problem.two_sheet(HALL_LEFT, make_sigma("B"), sol.q))
        roots, phi_p, phi_m = kernel.root_constants()
        for value, point in ((phi_p, roots.xi_plus), (phi_m, roots.xi_minus)):
            assert abs(value - mp_phi(kernel, point)) < 1e-12
