import cmath
import math
import sys
import types
import warnings

import numpy as np
import pytest
from scipy import constants

from edgeplasmon import (
    AmbientMedium,
    BranchPointError,
    Classification,
    ConductivityTensor,
    DoubleRootError,
    LongwaveParams,
    NonzeroIndexError,
    Problem,
    RealAxisZeroError,
    classify,
    f_pm,
    f_pm_mellin,
    longwave_q,
    magneto_hydrodynamic,
    nondimensionalize,
    quadratic_roots,
    residual,
    solve,
    trace_curve,
    vm_isotropic_residual,
)
from edgeplasmon import dispersion, wiener_hopf
from edgeplasmon.branches import principal_log
from edgeplasmon.quadrature import QuadratureError
from edgeplasmon.wiener_hopf import CauchyTable, build_log_kernel
from cauchy_oracle import direct_f_pm
from conftest import (CASE_REFERENCE_Q, INTERFACE_ROOT, TWO_SHEET_LEFT, TWO_SHEET_ROOT,
                      make_sigma)
from test_spectrum import POLE_LEFT, POLE_RIGHT


# the roots of sheets A-D to 17 digits, frozen from the solver (the
# benchmark's reference roots)
FROZEN_ROOTS = {
    "A": 12.171985323661607 + 0.0j,
    "B": 13.927609728644148 + 0.13927609731699217j,
    "C": 21.65652120766199 + 0.21656521213883617j,
    "D": 16.43769927047608 + 0.1643769926791393j,
}


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
            c = quadratic_roots(sbar, qq)
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
        # every step near the end crosses into a nu_K = -1 region
        assert sol.message.startswith("iteration path blocked: ")
        assert "nu_K = -1" in sol.message
        assert sol.iterations == 37

    @pytest.mark.parametrize("name, factor", [("C", 0.87), ("D", 0.765)])
    def test_pocket_guesses_are_classified_with_their_index(self, solutions, name, factor):
        # nu_K = -1 pockets below the roots of C and D, +1 at -q: no residual
        # at the guess, so no step is tried
        for sign, nu in ((1, -1), (-1, 1)):
            guess = sign * factor * solutions[name].q
            sol = solve(Problem.single_sheet(make_sigma(name), guess), guess)
            assert sol.classification is Classification.NO_SOLUTION
            assert sol.nu_k_at_solution == nu
            assert sol.iterations == 1
            assert sol.message.startswith(f"residual undefined at the guess: nu_K = {nu}")

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

    @staticmethod
    def _synthetic(monkeypatch, f):
        """Make ``solve`` see the residual f(q); returns the list of the q
        at which it is evaluated."""
        evaluated = []

        def fake_build(prob):
            evaluated.append(prob.q)
            return types.SimpleNamespace(problem=prob, census=(None,))

        monkeypatch.setattr(dispersion, "build_log_kernel", fake_build)
        monkeypatch.setattr(dispersion, "residual", lambda prob, kernel: complex(f(prob.q)))
        return evaluated

    def test_trial_step_that_raises_the_residual_is_halved(self, monkeypatch):
        # secant on atan(q - 100) from 103 overshoots: the step lands at
        # 90.5, where |F| = 1.47 > |F(q1)| = 1.25, and so does its half, at
        # 96.8; the quarter step, at 99.9, lowers |F|
        evaluated = self._synthetic(monkeypatch, lambda q: cmath.atan(q - 100.0))
        prob = Problem.single_sheet(make_sigma("A"), 103.0)
        sol = solve(prob, 103.0, maxiter=1)
        q1 = 103.0 * (1.0 + 1e-4)
        step = evaluated[2] - q1
        assert step.real == pytest.approx(-12.5, abs=0.1)
        assert evaluated[3:] == pytest.approx([q1 + step / 2, q1 + step / 4], rel=1e-14)
        assert sol.q == evaluated[-1] and sol.iterations == 5
        assert solve(prob, 103.0).q == pytest.approx(100.0, abs=1e-10)

    def test_least_residual_trial_is_taken_when_the_halvings_run_out(self, monkeypatch):
        # |F| = |1 + (q - 100)^2| is least at q0 = 100; every trial of the
        # step from q1 = 100.01 lies above |F(q1)|, so the last and nearest
        # trial, 99.78, is taken, and the iteration goes on from there
        evaluated = self._synthetic(monkeypatch, lambda q: 1.0 + (q - 100.0) ** 2)
        sol = solve(Problem.single_sheet(make_sigma("A"), 100.0), 100.0, maxiter=1)
        assert len(evaluated) == 2 + 8 and sol.iterations == 10
        trials = np.array(evaluated[2:]) - evaluated[1]
        assert trials[1:] == pytest.approx(trials[:-1] / 2, rel=1e-12)
        assert all(abs(1.0 + (q - 100.0) ** 2) > abs(1.0 + 0.01 ** 2)
                   for q in evaluated[2:])
        assert sol.q == evaluated[-1]
        assert sol.message.startswith("no convergence in 1 iterations")

    @staticmethod
    def _quadratic_root(qs, fs):
        """The root nearer qs[-1] of the quadratic through (qs, fs), from
        its Vandermonde system and np.roots."""
        coeffs = np.linalg.solve(np.vander(np.array(qs), 3), np.array(fs))
        roots = np.roots(coeffs)
        return complex(roots[np.argmin(np.abs(roots - qs[-1]))])

    def test_three_point_step_once_three_iterates_exist(self, monkeypatch):
        # tanh(q - 10) from 11: the first step is the secant step and
        # lowers |F|; the next evaluation is the root of the quadratic
        # through the three iterates, not the secant point of the last two
        f = lambda q: cmath.tanh(q - 10.0)
        evaluated = self._synthetic(monkeypatch, f)
        sol = solve(Problem.single_sheet(make_sigma("A"), 11.0), 11.0)
        q0, q1, q2, q3 = evaluated[:4]
        assert q2 == pytest.approx(q1 - f(q1) * (q1 - q0) / (f(q1) - f(q0)), rel=1e-14)
        assert abs(f(q2)) < abs(f(q1))
        assert q3 == pytest.approx(self._quadratic_root([q0, q1, q2], [f(q0), f(q1), f(q2)]),
                                   rel=1e-9)
        secant = q2 - f(q2) * (q2 - q1) / (f(q2) - f(q1))
        assert abs(q3 - secant) > 0.1
        assert sol.converged and sol.q == pytest.approx(10.0, abs=1e-10)

    def test_secant_step_where_it_is_clamped(self, monkeypatch):
        # sqrt(q) - sqrt(10) from 20: at the second step the secant step is
        # longer than 0.3 |q| and the three-point step is not; the clamped
        # secant step is taken, as from a far guess before
        f = lambda q: cmath.sqrt(q) - math.sqrt(10.0)
        evaluated = self._synthetic(monkeypatch, f)
        solve(Problem.single_sheet(make_sigma("A"), 20.0), 20.0, maxiter=2)
        q0, q1, q2, q3 = evaluated[:4]
        limit = 0.3 * abs(q2)
        secant = -f(q2) * (q2 - q1) / (f(q2) - f(q1))
        three_point = self._quadratic_root([q0, q1, q2], [f(q0), f(q1), f(q2)]) - q2
        assert abs(secant) > limit > abs(three_point)
        assert q3 == pytest.approx(q2 + secant * limit / abs(secant), rel=1e-14)

    def test_three_point_step_that_raises_the_residual_is_halved(self, monkeypatch):
        # (1 + 0.2i)(q - 10) + 0.16 sin(4.1 (q - 10)) from 11.8: the
        # quadratic through the first three iterates puts its root where |F|
        # is larger than at the last iterate, so that step is halved, and
        # the half step lowers |F|
        f = lambda q: (1.0 + 0.2j) * (q - 10.0) + 0.16 * cmath.sin(4.1 * (q - 10.0))
        evaluated = self._synthetic(monkeypatch, f)
        sol = solve(Problem.single_sheet(make_sigma("A"), 11.8), 11.8)
        q0, q1, q2, q3, q4 = evaluated[:5]
        assert q3 == pytest.approx(self._quadratic_root([q0, q1, q2], [f(q0), f(q1), f(q2)]),
                                   rel=1e-9)
        assert abs(f(q3)) > abs(f(q2)) > abs(f(q4))
        assert q4 == pytest.approx(q2 + 0.5 * (q3 - q2), rel=1e-14)
        assert sol.converged and sol.q == pytest.approx(10.0, abs=1e-10)

    def test_five_percent_guesses_of_the_reference_sheets(self):
        # q_ref (1 +- 0.05) on sheets A-D: 56 residuals in all with the
        # secant step alone, 49 with the three-point step near the root
        total = 0
        for name, root in FROZEN_ROOTS.items():
            for factor in (0.95, 1.05):
                guess = factor * CASE_REFERENCE_Q[name]
                sol = solve(Problem.single_sheet(make_sigma(name), guess), guess)
                assert sol.converged
                assert abs(sol.q - root) <= 1e-8 * abs(root)
                total += sol.iterations
        assert total <= 49

    def test_magnetoplasmon_solves_from_far_and_small_guesses(self):
        # the three-point step is kept to the local regime: from above the
        # root and from far below it, no solve takes more residuals than
        # with the secant step alone (10, 17, 28 and 46)
        sbar = ConductivityTensor(
            -2e-4j, -0.02 - 2e-7j, 0.02 + 2e-7j, -2e-4j, nondimensional=True)
        sols = [solve(Problem.single_sheet(sbar, q), q) for q in (200.0, 2.0, 0.1, 1e-3)]
        assert all(sol.converged for sol in sols)
        assert all(sol.iterations <= most for sol, most in zip(sols, (10, 17, 28, 46)))
        assert all(abs(sol.q - sols[0].q) <= 1e-8 * abs(sols[0].q) for sol in sols)

    @pytest.mark.parametrize("guess", [11.4, 12.0, 12.566, 12.6])
    def test_two_sheet_solve_from_the_real_axis(self, guess):
        # from 12 on, the first step, clamped at 0.3 |q|, lands past
        # Im q = 1.32, where the left sheet's zeros at +-38.18 cross the
        # real axis and A(q) jumps; |A| is larger there, so it is halved
        sol = solve(Problem.two_sheet(TWO_SHEET_LEFT, make_sigma("A"), guess), guess)
        assert sol.converged
        assert abs(sol.q - TWO_SHEET_ROOT) <= 1e-10 * abs(TWO_SHEET_ROOT)
        assert sol.iterations <= 11

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
        right = make_sigma("A")
        roots = []
        for guess in (12.0, 18.0):
            sol = solve(Problem.two_sheet(TWO_SHEET_LEFT, right, guess), guess)
            assert sol.converged
            assert abs(sol.residual) < 1e-10
            roots.append(sol.q)
        assert roots[0] == pytest.approx(roots[1], rel=1e-9)
        assert roots[0].imag > 0.1  # leaky: radiates into left-sheet SPPs
        from edgeplasmon import build_log_kernel, edge_limits
        prob = Problem.two_sheet(TWO_SHEET_LEFT, right, roots[0])
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

    @pytest.mark.parametrize("q, reason", [
        (1e80, "census quartic not finite at q = 1e+80"),
        (1e-170, "xi^2 + q^2 = 0: branch point of the kernel")])
    def test_census_overflow_and_branch_point_node(self, q, reason):
        # |q| = 1e80 overflows the census quartic; at |q| = 1e-170 q^2
        # rounds to 0, so the census zero xi = 0 is a phase-grid node on
        # the branch point: no residual, a NO_SOLUTION with its reason; the
        # same for a tensor of numpy scalars (from_matrix), whose quartic
        # overflows in numpy arithmetic
        for sigma in (make_sigma("D"),
                      ConductivityTensor.from_matrix(make_sigma("D").as_matrix(),
                                                     nondimensional=True)):
            prob = Problem.single_sheet(sigma, q)
            sol = solve(prob, q)
            assert sol.classification is Classification.NO_SOLUTION
            assert sol.message.startswith("residual undefined at the guess: " + reason)
            assert classify(prob) is Classification.NO_SOLUTION

    @pytest.mark.parametrize("q", [1e44, 1e60, 1e76, 1e77])
    def test_large_q_is_classified_without_warnings(self, q):
        # the kink's Taylor coefficients are carried in v = 2 kappa u, and
        # the census quartic is checked before it is normalized: no
        # overflow RuntimeWarning on the way to the classified result
        prob = Problem.single_sheet(make_sigma("D"), q)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve(prob, q)
            assert classify(prob) is Classification.NO_SOLUTION
        assert sol.classification is Classification.NO_SOLUTION
        if q < 1e77:
            assert sol.message.startswith("no convergence in 60 iterations")
        else:
            assert sol.message.startswith(
                "residual undefined at the guess: census quartic not finite")

    def test_unresolved_series_as_solve_classifies_it(self, solutions, monkeypatch):
        def unresolved_build(kernel):
            raise QuadratureError("spectral series of L not resolved")

        monkeypatch.setattr(CauchyTable, "build", unresolved_build)
        prob = Problem.single_sheet(make_sigma("C"), solutions["C"].q)
        assert solve(prob, prob.q).classification is Classification.NO_SOLUTION
        assert classify(prob) is Classification.NO_SOLUTION


class TestKernelRoute:
    """build_log_kernel, residual, solve and classify reach each outcome
    without the phase pass: P on the census seeds, then L's turns on the
    series' nodes.  The phase pass raises in every package module that
    binds it."""

    @pytest.fixture(autouse=True)
    def refuse_the_phase_pass(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the phase pass was called")

        for name, module in list(sys.modules.items()):
            if name.startswith("edgeplasmon") and hasattr(module, "unwrapped_phase_grid"):
                monkeypatch.setattr(module, "unwrapped_phase_grid", refused)

    @pytest.mark.parametrize("prob", [
        Problem.single_sheet(make_sigma("D"), FROZEN_ROOTS["D"]),
        Problem.interface(make_sigma("A"), INTERFACE_ROOT, 2.0, 2.0),
        Problem.two_sheet(TWO_SHEET_LEFT, make_sigma("A"), TWO_SHEET_ROOT),
    ], ids=["D", "interface", "two_sheet"])
    def test_roots(self, prob):
        kernel = build_log_kernel(prob)
        assert kernel.nu_k == 0
        assert abs(residual(prob, kernel=kernel)) < 1e-8
        assert classify(prob) is Classification.DISCRETE_EPP
        sol = solve(prob, prob.q * 1.01)
        assert sol.converged and abs(sol.q - prob.q) < 1e-8 * abs(prob.q)

    @pytest.mark.parametrize("q", [-2.0, -2.1, -1.7, 2.3])
    def test_poles_on_the_axis(self, q):
        # the lossless left sheet's real zeros, poles of P^R/P^L, on seeds
        prob = Problem.two_sheet(POLE_LEFT, POLE_RIGHT, q)
        with pytest.raises(RealAxisZeroError, match="pole on contour"):
            build_log_kernel(prob)
        sol = solve(prob, q)
        assert sol.classification is Classification.NO_SOLUTION
        assert sol.message.startswith("residual undefined at the guess: ")
        assert "pole on contour" in sol.message
        assert classify(prob) is Classification.NO_SOLUTION

    def test_a_pole_that_no_seed_hits(self, monkeypatch):
        # the phase pass bisects onto this pole until adjacent floats; the
        # kernel finds P^L below REAL_AXIS_MIN_MODULUS on the seeds, with
        # no series built, so no doubling towards SERIES_N_MAX
        def no_series(*args):
            raise AssertionError("a series was built")

        monkeypatch.setattr(wiener_hopf, "_fft_series", no_series)
        prob = Problem.two_sheet(POLE_LEFT, POLE_RIGHT, -2.105890119346925)
        with pytest.raises(RealAxisZeroError, match="pole on contour"):
            build_log_kernel(prob)
        sol = solve(prob, prob.q)
        assert sol.classification is Classification.NO_SOLUTION
        assert "pole on contour" in sol.message
        assert classify(prob) is Classification.NO_SOLUTION

    def test_branch_point_at_a_seed(self):
        # q^2 rounds to 0: a seed node lands on the branch point
        prob = Problem.single_sheet(make_sigma("D"), 1e-170)
        with pytest.raises(BranchPointError):
            build_log_kernel(prob)
        sol = solve(prob, prob.q)
        assert sol.classification is Classification.NO_SOLUTION
        assert sol.message == ("residual undefined at the guess: "
                               "xi^2 + q^2 = 0: branch point of the kernel")
        assert classify(prob) is Classification.NO_SOLUTION

    @pytest.mark.parametrize("name, factor", [("C", 0.87), ("D", 0.765)])
    @pytest.mark.parametrize("sign, nu", [(1, -1), (-1, 1)])
    def test_pockets(self, name, factor, sign, nu):
        # the four nu_K != 0 pockets of the benchmark's dispersion batch
        prob = Problem.single_sheet(make_sigma(name), sign * factor * FROZEN_ROOTS[name])
        kernel = build_log_kernel(prob)
        assert kernel.nu_k == nu
        with pytest.raises(NonzeroIndexError) as exc:
            residual(prob, kernel=kernel)
        assert exc.value.nu_k == nu
        sol = solve(prob, prob.q)
        assert (sol.classification, sol.nu_k_at_solution) == (Classification.NO_SOLUTION, nu)
        assert classify(prob) is (Classification.CONTINUUM_REGION if nu > 0
                                  else Classification.NO_SOLUTION)


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

    def test_iteration_that_does_not_settle_raises(self):
        # a passive gyrotropic tensor with |sigma_d/sigma_xx| > 1, so no
        # warning: its iterates at 200, 5000 and 5001 steps are 12.44 -
        # 29.49i, 19.01 - 13.76i and -61.59 - 44.19i, no root of the relation
        sxx = 0.1278049019091093 - 0.21398536990874187j
        sxy = 0.09564813429199612 - 0.0915097379888608j
        sigma = ConductivityTensor(sxx, sxy, -sxy, sxx, nondimensional=True)
        assert sigma.is_passive() and abs(sigma.off_diff / sigma.xx) >= 1.0
        for maxiter in (200, 5000):
            with pytest.raises(ValueError, match="not converged in"):
                longwave_q(sigma, maxiter=maxiter)

    def test_dimensional_tensor_through_the_medium(self):
        # an SI tensor is nondimensionalized through the medium and the
        # root comes back in rad/m; without a medium it has no units to take
        omega = 2 * math.pi * 1e9
        med = AmbientMedium.vacuum(omega)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sigma = magneto_hydrodynamic(omega=omega, n0=1.18e15,
                                         b0=100.0 * omega * constants.m_e / constants.e)
        assert not sigma.nondimensional
        assert longwave_q(sigma, med) == longwave_q(nondimensionalize(sigma, med)) * med.k0
        with pytest.raises(ValueError, match="requires a medium"):
            longwave_q(sigma)

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
