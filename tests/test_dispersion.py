import math
import warnings

import numpy as np
import pytest
from scipy import constants

from edgeplasmon import (
    AmbientMedium,
    Classification,
    ConductivityTensor,
    DoubleRootError,
    LongwaveParams,
    NonzeroIndexError,
    Problem,
    classify,
    f_pm,
    f_pm_mellin,
    longwave_q,
    magneto_hydrodynamic,
    nondimensionalize,
    quadratic_roots,
    residual,
    solve,
    split_coefficients,
    trace_curve,
    vm_isotropic_residual,
)
from edgeplasmon import dispersion
from edgeplasmon.branches import principal_log
from edgeplasmon.quadrature import QuadratureError
from edgeplasmon.wiener_hopf import CauchyTable, build_log_kernel
from cauchy_oracle import direct_f_pm
from conftest import CASE_REFERENCE_Q, make_sigma


def magneto_sbar(ratio=100.0, omega=2 * math.pi * 1e9, n0=1.18e15):
    """Nondimensional magneto-hydrodynamic tensor at |omega_c/omega| = ratio."""
    b0 = ratio * omega * constants.m_e / constants.e
    med = AmbientMedium.vacuum(omega)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return nondimensionalize(
            magneto_hydrodynamic(omega=omega, n0=n0, b0=b0), med), med


class TestResidual:
    def test_small_at_published_roots(self):
        for name, q in CASE_REFERENCE_Q.items():
            f = residual(Problem.single_sheet(make_sigma(name), q))
            assert abs(f) < 1e-2, f"case {name}: |F| = {abs(f)}"

    def test_index_error_carries_nu(self):
        with pytest.raises(NonzeroIndexError) as exc:
            residual(Problem.single_sheet(make_sigma("C"),
                                          0.85 * (21.657 + 0.217j)))
        assert exc.value.nu_k == -1

    def test_reflection_asymmetry(self):
        # F(q) - F(-q) = -[ln(-C+/C-)(q) - ln(-C+/C-)(-q)]: the Q-sum side
        # of the relation is reflection invariant, the log side is not
        sbar, _ = magneto_sbar(ratio=40.0)
        q = 30.0
        f_p = residual(Problem.single_sheet(sbar, q))
        f_m = residual(Problem.single_sheet(sbar, -q))
        def log_term(qq):
            c = split_coefficients(sbar, qq)
            return complex(principal_log(-c.c_plus / c.c_minus))
        expected = -(log_term(q) - log_term(-q))
        assert f_p - f_m == pytest.approx(expected, abs=1e-8)

    def test_two_sheet_reduction_residual(self):
        zero = ConductivityTensor.diagonal(0, 0, nondimensional=True)
        q = 12.171985323659703
        a_val = residual(Problem.two_sheet(zero, make_sigma("A"), q))
        assert abs(a_val) < 1e-9


class TestSolve:
    def test_reference_roots(self, solutions):
        tol = {"A": 0.005, "B": 0.01, "C": 0.01, "D": 0.01}
        for name, sol in solutions.items():
            ref = CASE_REFERENCE_Q[name]
            assert abs(sol.q - ref) / abs(ref) < tol[name]
            assert abs(sol.residual) < 1e-10
            assert sol.nu_k_at_solution == 0
            assert sol.classification is Classification.DISCRETE_EPP

    def test_mirror_root_for_symmetric_tensor(self, solutions):
        # sigma_xy = sigma_yx: if q solves, so does -q
        sol = solve(Problem.single_sheet(make_sigma("C"), -20.0 - 0.2j),
                    -20.0 - 0.2j)
        assert sol.converged
        assert sol.q == pytest.approx(-solutions["C"].q, rel=1e-8)

    def test_no_solution_reported(self):
        # a guess in the continuum-boundary region of the lossless sheet
        sol = solve(Problem.single_sheet(make_sigma("A"), 8.0), 8.0)
        assert sol.classification is Classification.NO_SOLUTION
        assert "undefined" in sol.message or "blocked" in sol.message

    def test_quadrature_stall_is_classified(self):
        # a fuzzed passive tensor whose residual quadrature stalled on the
        # secant path while the main interval, with an integral near 0,
        # had a tolerance of its own; any classified result with a reason
        sigma = ConductivityTensor(
            8.272235546181581e-05 + 0.22738122556957482j,
            -6.165810675334501e-06 - 0.07540526128244206j,
            -6.165810675334501e-06 + 0.04150899273059509j,
            1.6118453392545493e-06 + 0.004430523848386819j,
            nondimensional=True)
        q = -11.33996405995937 - 0.11339964059959369j
        sol = solve(Problem.single_sheet(sigma, q), q)
        assert sol.classification is Classification.NO_SOLUTION
        assert sol.message

    @pytest.mark.parametrize("fail_at, where", [(1, "at the guess"), (3, "at q=")])
    def test_quadrature_error_is_classified(self, monkeypatch, fail_at, where):
        # one series per residual kernel: call 3 is the first secant step
        calls = 0
        build = CauchyTable.build

        def unresolved_build(kernel):
            nonlocal calls
            calls += 1
            if calls >= fail_at:
                raise QuadratureError("spectral series of L not resolved")
            return build(kernel)

        monkeypatch.setattr(CauchyTable, "build", unresolved_build)
        sol = solve(Problem.single_sheet(make_sigma("A"), 12.0), 12.0)
        assert sol.classification is Classification.NO_SOLUTION
        assert sol.message.startswith("residual undefined " + where)
        assert "not resolved" in sol.message

    def test_sheet_without_sigma_xx_is_classified(self):
        # diag(0, 0.2i) is passive but its symbol has no ln|xi| tail law,
        # so there is no dispersion relation of this form
        prob = Problem.single_sheet(
            ConductivityTensor.diagonal(0, 0.2j, nondimensional=True), 10 + 0.1j)
        sol = solve(prob, 10 + 0.1j)
        assert sol.classification is Classification.NO_SOLUTION
        assert "sigma_xx = 0" in sol.message
        assert classify(prob) is Classification.NO_SOLUTION
        with pytest.raises(ValueError, match="sigma_xx = 0"):
            build_log_kernel(prob)

    def test_root_reuses_the_last_residual_kernel(self, monkeypatch):
        built = []

        def counting_build(prob, **kwargs):
            built.append(prob.q)
            return build_log_kernel(prob, **kwargs)

        monkeypatch.setattr(dispersion, "build_log_kernel", counting_build)
        sol = solve(Problem.single_sheet(make_sigma("B"), 13.9 + 0.14j), 13.9 + 0.14j)
        assert sol.converged
        assert len(built) == sol.iterations
        assert built[-1] == sol.q

    def test_validity_report_attached(self, solutions):
        rep = solutions["A"].validity
        assert rep.nonretarded_ratio == pytest.approx(0.2 * math.sqrt(2))

    def test_reference_root_against_independent_quadrature(self, solutions):
        # frozen from a 30-digit mpmath bisection of the reduced real-valued
        # relation (1/pi) Int_0^inf ln|1 - 0.1 q sqrt(1+t^2)|/(1+t^2) dt = 0,
        # which the lossless isotropic dispersion relation collapses to
        assert abs(solutions["A"].q - 12.17198532366108768) < 5e-9

    def test_two_sheet_genuine_mode(self):
        # weak isotropic left sheet against the reference right sheet: a
        # leaky joint-boundary mode (q below the left sheet's SPP scale)
        left = ConductivityTensor.diagonal(0.05j + 0.0005, 0.05j + 0.0005,
                                           nondimensional=True)
        right = make_sigma("A")
        roots = []
        for guess in (12.0, 18.0):
            sol = solve(Problem.two_sheet(left, right, guess), guess)
            assert sol.converged
            assert abs(sol.residual) < 1e-10
            roots.append(sol.q)
        assert roots[0] == pytest.approx(roots[1], rel=1e-9)
        assert roots[0].imag > 0.1  # leaky: radiates into left-sheet SPPs
        from edgeplasmon import build_log_kernel, edge_limits
        prob = Problem.two_sheet(left, right, roots[0])
        el = edge_limits(prob, build_log_kernel(prob))
        assert abs(el.phi_plus - 1.0) < 1e-9
        assert abs(el.phi_minus - 1.0) < 1e-9


class TestClassify:
    def test_three_regions(self, solutions):
        sigma = make_sigma("C")
        q_sol = solutions["C"].q
        assert classify(Problem.single_sheet(sigma, q_sol)) \
            is Classification.DISCRETE_EPP
        assert classify(Problem.single_sheet(sigma, 0.85 * q_sol)) \
            is Classification.NO_SOLUTION
        assert classify(Problem.single_sheet(sigma, -0.85 * q_sol)) \
            is Classification.CONTINUUM_REGION

    def test_zero_index_off_root(self, solutions):
        assert classify(Problem.single_sheet(make_sigma("C"),
                                             1.3 * solutions["C"].q)) \
            is Classification.NO_SOLUTION

    def test_real_axis_zero_as_solve_classifies_it(self):
        # the lossless sheet at q = 5 has a zero of P on the real axis: no
        # dispersion relation there, for classify as for solve
        prob = Problem.single_sheet(make_sigma("A"), 5.0)
        sol = solve(prob, 5.0)
        assert sol.classification is Classification.NO_SOLUTION
        assert "on the real axis" in sol.message
        assert classify(prob) is Classification.NO_SOLUTION

    def test_index_refused_before_double_root(self):
        # sigma_xy = sigma_yx = 2 sigma_xx and sigma_yy = 4 sigma_xx make the
        # discriminant exactly 0, so quadratic_roots raises DoubleRootError;
        # nu_K != 0 must still be refused first, with its index
        sig = ConductivityTensor(0.001 + 0.1j, 0.002 + 0.2j, 0.002 + 0.2j,
                                 0.004 + 0.4j, nondimensional=True)
        with pytest.raises(DoubleRootError):
            quadratic_roots(sig, 14 + 0.1j)
        prob = Problem.single_sheet(sig, 14 + 0.1j)
        sol = solve(prob, prob.q)
        assert sol.classification is Classification.NO_SOLUTION
        assert sol.nu_k_at_solution == -1
        assert sol.message.startswith("residual undefined at the guess: nu_K = -1")
        assert classify(prob) is Classification.NO_SOLUTION
        assert classify(prob.with_q(-14 - 0.1j)) is Classification.CONTINUUM_REGION

    def test_double_root_is_no_solution(self):
        # sigma_xy = sigma_yx = sigma_yy = 0 at nu_K = 0: the residual is
        # undefined for coincident roots, a NO_SOLUTION with its reason
        prob = Problem.single_sheet(
            ConductivityTensor.diagonal(0.001 + 0.2j, 0, nondimensional=True), 12 + 0.1j)
        assert build_log_kernel(prob).nu_k == 0
        with pytest.raises(DoubleRootError):
            residual(prob)
        sol = solve(prob, prob.q)
        assert sol.classification is Classification.NO_SOLUTION
        assert sol.message == ("residual undefined at the guess: "
                               "coincident roots xi^+ = xi^-; splitting singular")
        assert classify(prob) is Classification.NO_SOLUTION

    def test_unresolved_series_as_solve_classifies_it(self, solutions, monkeypatch):
        def unresolved_build(kernel):
            raise QuadratureError("spectral series of L not resolved")

        monkeypatch.setattr(CauchyTable, "build", unresolved_build)
        prob = Problem.single_sheet(make_sigma("C"), solutions["C"].q)
        assert solve(prob, prob.q).classification is Classification.NO_SOLUTION
        assert classify(prob) is Classification.NO_SOLUTION


class TestTraceCurve:
    def test_constant_tensor_family(self, solutions):
        sigma = make_sigma("B")
        sols = trace_curve(lambda w: Problem.single_sheet(sigma, 14.0),
                           [1.0, 2.0, 3.0, 4.0, 5.0], 14.0)
        qs = [s.q for s in sols]
        assert all(s.converged for s in sols)
        assert np.allclose(qs, qs[0], rtol=1e-12)

    def test_drude_family_matches_cold_start(self):
        # sigma ~ 1/omega: continuation against from-scratch solves
        base = make_sigma("B")
        omegas = [1.0, 1.1, 1.25, 1.45]

        def factory(w):
            return Problem.single_sheet(base.scaled(1.0 / w), 14.0)

        sols = trace_curve(factory, omegas, 14.0)
        assert all(s.converged for s in sols)
        for w, sol in zip(omegas, sols):
            cold = solve(factory(w), 14.0 * w)
            assert abs(sol.q - cold.q) / abs(cold.q) < 1e-8

    def test_break_annotation_at_index_transition(self, solutions):
        # family engineered so the continued guess lands in a nu = -1 pocket
        sigma_c = make_sigma("C")
        scales = {1: 1.0, 2: 0.85, 3: 1.0}

        def factory(w):
            return Problem.single_sheet(sigma_c.scaled(scales[w]), 20.0)

        sols = trace_curve(factory, [1, 2, 3], 20.0 + 0.2j)
        assert sols[0].converged
        assert not sols[1].converged
        assert "continuation broken" in sols[1].message
        assert sols[1].nu_k_at_solution == -1
        assert sols[2].converged  # reseeded from the original guess


class TestIsotropicCrossCheck:
    def test_tanh_form_agrees_with_general_solver(self):
        sigma = ConductivityTensor(0.15j + 0.001, -0.05j - 0.0005,
                                   0.05j + 0.0005, 0.15j + 0.001,
                                   nondimensional=True)
        sol = solve(Problem.single_sheet(sigma, 14.0 - 3.0j), 14.0 - 3.0j)
        assert sol.converged

        def vm(q):
            return vm_isotropic_residual(Problem.single_sheet(sigma, q))

        # polish the tanh-form root independently and compare
        q0, q1 = sol.q * 1.02, sol.q * 0.99
        f0, f1 = vm(q0), vm(q1)
        for _ in range(40):
            if abs(f1) < 1e-12:
                break
            q0, f0, q1 = q1, f1, q1 - f1 * (q1 - q0) / (f1 - f0)
            f1 = vm(q1)
        assert abs(q1 - sol.q) / abs(sol.q) < 1e-6

    def test_requires_gyrotropic_isotropic_form(self):
        with pytest.raises(ValueError, match="tanh form"):
            vm_isotropic_residual(Problem.single_sheet(make_sigma("B"), 14.0))


class TestLongwave:
    def test_monotone_improvement_with_gyrotropy(self):
        prev = None
        for ratio in (10.0, 30.0, 100.0):
            sbar, _ = magneto_sbar(ratio=ratio)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                q_lw = longwave_q(sbar)
            f = abs(residual(Problem.single_sheet(sbar, q_lw)))
            if prev is not None:
                assert f < prev
            prev = f
        assert prev < 0.05

    def test_symmetric_tensor_rejected(self):
        with pytest.raises(ValueError, match="general solver"):
            longwave_q(make_sigma("C"))

    def test_monotonicity_in_gyrotropy(self):
        # doubling sigma_xy - sigma_yx at fixed sigma_xx shrinks |q|
        sbar, _ = magneto_sbar(ratio=50.0)
        doubled = ConductivityTensor(sbar.xx, 2 * sbar.xy, 2 * sbar.yx, sbar.yy,
                                     nondimensional=True)
        assert abs(longwave_q(doubled)) < abs(longwave_q(sbar))

    def test_magnetoplasmon_frequency_inversion(self):
        # omega(q) = (e^2 n0 / (2 pi m eps omega_c)) q [ln(4 eps omega_c^2 m
        # /(e^2 n0 q)) + 1]: the solved q must reproduce the driving omega
        omega = 2 * math.pi * 1e9
        ratio, n0 = 100.0, 1.18e15
        sbar, med = magneto_sbar(ratio=ratio, omega=omega, n0=n0)
        q = abs(longwave_q(sbar) * med.k0)
        omega_c = ratio * omega
        pref = constants.e**2 * n0 / (2 * math.pi * constants.m_e
                                      * constants.epsilon_0 * omega_c)
        log_term = math.log(4 * constants.epsilon_0 * omega_c**2 * constants.m_e
                            / (constants.e**2 * n0 * q)) + 1.0
        assert pref * q * log_term == pytest.approx(omega, rel=1e-10)

    def test_interface_rescaling(self):
        # eps_sum enters q_breve and the prefactor: the eps_sum = 4 root of
        # the same tensor doubles the eps_sum = 2 root to leading order
        sbar, _ = magneto_sbar(ratio=100.0)
        q2 = longwave_q(sbar, eps_sum=2.0)
        q4 = longwave_q(sbar, eps_sum=4.0)
        assert abs(q4 / q2) == pytest.approx(2.0, rel=0.1)


class TestFPm:
    def problem(self, q):
        sbar, _ = magneto_sbar(ratio=100.0)
        return Problem.single_sheet(sbar, q)

    def test_direct_matches_split_route(self):
        # the series values against the independent direct quadrature, within
        # the sum of both error estimates (the series bounds Phi, f = 2 pi i Phi)
        prob = self.problem(40.0)
        kernel = build_log_kernel(prob)
        fd, fd_err = direct_f_pm(LongwaveParams.from_problem(prob))
        bound = 2 * math.pi * kernel.cauchy_table().error_estimate
        for series, direct, err in zip(f_pm(kernel), fd, fd_err):
            assert abs(series - direct) <= bound + err

    def test_mellin_error_scaling(self):
        sbar, _ = magneto_sbar(ratio=100.0)
        rels = []
        for qb in (1e-2, 1e-3, 1e-4):
            prob = self.problem(complex(qb / (0.5j * complex(sbar.xx))))
            fs = f_pm(build_log_kernel(prob))
            fm = f_pm_mellin(LongwaveParams.from_problem(prob))
            rels.append(abs(fs[0] - fm[0]) / abs(fs[0]))
        assert rels[1] <= 0.02
        # shrink at least as fast as |q_breve ln q_breve|
        assert rels[1] / rels[0] <= abs(1e-3 * math.log(1e-3)) \
            / abs(1e-2 * math.log(1e-2))
        assert rels[2] / rels[1] <= abs(1e-4 * math.log(1e-4)) \
            / abs(1e-3 * math.log(1e-3))

    def test_reflection_rule(self):
        # f^+-(-q) = f^-+(q): the alpha labels swap with the half-plane
        # assignment and carry the values across
        prob_p, prob_m = self.problem(40.0 + 0.4j), self.problem(-40.0 - 0.4j)
        fs_p = f_pm(build_log_kernel(prob_p))
        fs_m = f_pm(build_log_kernel(prob_m))
        assert fs_m[0] == pytest.approx(fs_p[1], rel=1e-8)
        assert fs_m[1] == pytest.approx(fs_p[0], rel=1e-8)
        fm_p = f_pm_mellin(LongwaveParams.from_problem(prob_p))
        fm_m = f_pm_mellin(LongwaveParams.from_problem(prob_m))
        assert fm_m[0] == pytest.approx(fm_p[1], rel=1e-12)

    def test_degenerate_alphas_annihilate_leading_term(self):
        # Q+(xi+) + Q-(xi-) = sg (f+ - f-)/(2 pi i) has no leading term
        # when alpha^+ = alpha^-
        lw = LongwaveParams(q_breve=1e-3, alpha_plus=0.3 + 1j,
                            alpha_minus=0.3 + 1j, sg=1)
        fp, fm = f_pm_mellin(lw)
        assert fp - fm == 0

    def test_combined_sum_matches_q_expansion(self):
        # Q+(xi+) + Q-(xi-) ~ (1/i pi) q_breve (a+ - a-)[ln(2/q_breve) + 1]
        sbar, _ = magneto_sbar(ratio=100.0)
        qb = 1e-3
        prob = self.problem(complex(qb / (0.5j * complex(sbar.xx))))
        lw = LongwaveParams.from_problem(prob)
        fs, fm = f_pm(build_log_kernel(prob)), f_pm_mellin(lw)
        sum_series = lw.sg * (fs[0] - fs[1]) / (2j * math.pi)
        sum_mellin = lw.sg * (fm[0] - fm[1]) / (2j * math.pi)
        qbl = lw.q_breve
        assert sum_mellin == pytest.approx(
            lw.sg * qbl * (lw.alpha_plus - lw.alpha_minus)
            * (principal_log(2 / qbl) + 1) / (1j * math.pi), rel=1e-12)
        assert sum_mellin == pytest.approx(sum_series, rel=2e-2)
