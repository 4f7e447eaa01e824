import gc
import math
import weakref

import numpy as np
import pytest

from edgeplasmon import (
    ConductivityTensor,
    Problem,
    build_log_kernel,
    edge_limits,
    phi_profile,
    spp_decomposition,
)
from edgeplasmon import wiener_hopf
from edgeplasmon.field import _e_power, _field_contour
from edgeplasmon.wiener_hopf import CauchyTable
from cauchy_oracle import adaptive_phi
from conftest import make_sigma

# a strongly anisotropic sheet whose symbol dips sharply near the axis
ANISOTROPIC_SIGMA = ConductivityTensor(
    0.00758834 + 0.13428145j, -0.00539091 + 0.05977965j,
    0.00717298 + 0.05977965j, 0.00666203 + 0.07213536j,
    nondimensional=True)

# q within 1e-9 relative of the root of ANISOTROPIC_SIGMA near 18.6 at which
# a contour panel edge under the sharp peak of s_-(t) near t = -24.59 was
# once lost (phi_plus_error ~ 1e-2, |phi(0+) - phi(0-)| ~ 1.2e-4)
NEAR_ROOT_Q = (
    48.54517881326049 + 7.80268360488206j,
    48.54517884835899 + 7.8026835755645205j,
    48.54517884006949 + 7.802683628958937j,
    48.54517879970316 + 7.802683632566909j,
    48.5451788396524 + 7.802683654041642j,
    48.54517884725514 + 7.802683628688954j,
    48.54517879294491 + 7.802683622853255j,
)


class TestTailIntegrals:
    def test_algebraic_limit(self):
        assert _e_power(1.5, 25.0) == pytest.approx(2.0 / math.sqrt(25.0))


class TestEdgeLimits:
    def test_limits_at_roots(self, root_problems, root_kernels):
        for name in "ABCD":
            el = edge_limits(root_problems[name], root_kernels[name])
            assert abs(el.phi_plus - 1.0) < 1e-3, name
            assert abs(el.phi_minus - 1.0) < 1e-3, name
            assert abs(el.divergence_coefficient) < 1e-3, name

    def test_divergence_discriminates_off_root(self, root_problems):
        # D at 0.8 root sits in the nu = -1 pocket where the coefficient is
        # undefined (an even stronger discrimination, covered elsewhere)
        for name, factor in (("B", 0.8), ("C", 0.8), ("D", 0.85), ("A", 0.9)):
            prob = root_problems[name]
            off = prob.with_q(factor * prob.q)
            kern = build_log_kernel(off)
            el = edge_limits(off, kern)
            assert abs(el.divergence_coefficient) > 1e-2, name

    def test_divergence_root_equals_residual_root(self, root_problems, solutions):
        # |A| and |F| vanish at the same q: polish a root of A by secant and
        # compare with the F-root
        prob = root_problems["C"]

        def a_of(q):
            kern = build_log_kernel(prob.with_q(q))
            return edge_limits(prob.with_q(q), kern).divergence_coefficient

        q0, q1 = solutions["C"].q * 1.01, solutions["C"].q * 0.996
        f0, f1 = a_of(q0), a_of(q1)
        for _ in range(30):
            if abs(f1) < 1e-13:
                break
            q0, f0, q1 = q1, f1, q1 - f1 * (q1 - q0) / (f1 - f0)
            f1 = a_of(q1)
        assert abs(q1 - solutions["C"].q) / abs(solutions["C"].q) < 1e-8

    def test_strongly_anisotropic_regression(self):
        # heavily damped mode on a strongly anisotropic sheet whose symbol
        # dips sharply near the axis; the contour panels must inherit the
        # kernel's adaptive grid to resolve it (fixed-width tiling once
        # left a 4e-3 continuity defect here)
        from edgeplasmon import solve
        sol = solve(Problem.single_sheet(ANISOTROPIC_SIGMA, 18.6), 18.6)
        assert sol.converged
        prob = Problem.single_sheet(ANISOTROPIC_SIGMA, sol.q)
        el = edge_limits(prob, build_log_kernel(prob))
        assert abs(el.phi_plus - el.phi_minus) < 1e-4
        assert el.phi_plus_error < 1e-4

    @pytest.mark.parametrize("q", NEAR_ROOT_Q, ids=lambda q: f"{q.real:.14f}")
    def test_strongly_anisotropic_near_root(self, q):
        # the accuracy must not hang on which kernel-grid nodes become
        # panel edges as q moves within the solver's rounding of the root
        prob = Problem.single_sheet(ANISOTROPIC_SIGMA, q)
        el = edge_limits(prob, build_log_kernel(prob))
        assert abs(el.phi_plus - el.phi_minus) < 1e-4
        assert el.phi_plus_error < 1e-4

    def test_anisotropic_contour_resolves_near_axis_zero(self):
        # P has a first-sheet zero at -24.606+0.153i, 0.153 above the field
        # contour of ANISOTROPIC_SIGMA at its root; fixed kappa/24 quadrature
        # panels once missed it and left Phi off by up to 2.8e-6 near
        # t = -24.6 (the oracle's own error there is ~2.3e-10)
        kernel = build_log_kernel(Problem.single_sheet(ANISOTROPIC_SIGMA, NEAR_ROOT_Q[0]))
        contour = _field_contour(kernel, kernel.scale / 8.0)
        t = contour.nodes
        pick = np.concatenate([np.arange(0, t.size, 97),
                               np.flatnonzero(np.abs(t + 24.6) < 1.0)[::3]])
        ref, _ = adaptive_phi(kernel, t[pick] - 1j * contour.delta)
        assert np.abs(contour.phi_below[pick] - ref).max() < 1e-9

    def test_error_estimate_bounds_true_error(self, root_problems, root_kernels):
        # the closed-down value of phi(0+) is C^+ + C^- = 1
        for name in "ABCD":
            kern = root_kernels[name]
            _, coeffs, _, _ = kern.root_constants()
            el = edge_limits(root_problems[name], kern)
            true = abs(el.phi_plus - (coeffs.c_plus + coeffs.c_minus))
            assert true <= el.phi_plus_error < 1e-4, name

    def test_shares_one_contour_pass_with_the_profile(self, root_problems,
                                                      monkeypatch):
        # one phi pass over the real-axis contour, for both sides, whichever
        # of edge_limits and phi_profile runs first
        calls = []
        phi = CauchyTable.phi

        def counted(table, xi0):
            calls.append(np.size(xi0))
            return phi(table, xi0)

        monkeypatch.setattr(CauchyTable, "phi", counted)
        prob = root_problems["C"]
        for first_limits in (True, False):
            calls.clear()
            kern = build_log_kernel(prob)
            if first_limits:
                edge_limits(prob, kern)
            phi_profile(prob, kern, [-0.4, -0.07, 0.1, 0.35])
            if not first_limits:
                edge_limits(prob, kern)
            nodes = _field_contour(kern, kern.scale / 8.0).nodes.size
            contour = [n for n in calls if n == 2 * nodes]
            assert len(contour) == 1
            assert sum(calls) - contour[0] < 0.1 * contour[0]

    def test_kernel_freed_without_cycle_collection(self, root_problems):
        # kernel -> memo -> table must not point back at the kernel, or the
        # kernel and its memoized arrays wait for a cyclic collection
        prob = root_problems["C"]
        gc.disable()
        try:
            kern = build_log_kernel(prob)
            edge_limits(prob, kern)
            phi_profile(prob, kern, [-0.4, 0.35])
            ref = weakref.ref(kern)
            del kern
            assert ref() is None
        finally:
            gc.enable()

    def test_two_sheet_limits(self):
        zero = ConductivityTensor.diagonal(0, 0, nondimensional=True)
        two = Problem.two_sheet(zero, make_sigma("A"), 12.171985323659703)
        kern = build_log_kernel(two)
        el = edge_limits(two, kern)
        assert abs(el.divergence_coefficient) < 1e-8
        assert el.phi_plus == pytest.approx(1.0, abs=1e-7)
        assert el.phi_minus == pytest.approx(1.0, abs=1e-7)


class TestSppDecomposition:
    def test_case_b_modes(self, root_problems, root_kernels):
        dec = spp_decomposition(root_problems["B"], root_kernels["B"])
        assert len(dec.modes) == 2
        for mode in dec.modes:
            assert mode.wavenumber.imag > 0  # decaying toward +x
        # wavenumbers are exactly the census zeros (shared computation)
        census_locs = {z.location for z in dec.census.upper_first_sheet()}
        assert {m.wavenumber for m in dec.modes} == census_locs

    def test_empty_census_empty_sum(self, root_problems, root_kernels):
        # case A has no nonmarginal upper zeros beyond... it has one mode;
        # use a weak sheet far from resonance instead
        prob = Problem.single_sheet(
            ConductivityTensor.diagonal(0.01j, 0.01j, nondimensional=True),
            250.0)
        kern = build_log_kernel(prob)
        dec = spp_decomposition(prob, kern)
        census_upper = dec.census.upper_first_sheet()
        assert len(dec.modes) == len(census_upper)
        assert dec.explicit_amplitude == pytest.approx(0.5)

    def test_two_sheet_rejected(self):
        zero = ConductivityTensor.diagonal(0, 0, nondimensional=True)
        two = Problem.two_sheet(zero, make_sigma("A"), 12.17)
        kern = build_log_kernel(two)
        with pytest.raises(ValueError, match="single-sheet"):
            spp_decomposition(two, kern)


class TestPhiProfile:
    def test_rejects_zero(self, root_problems, root_kernels):
        with pytest.raises(ValueError, match="edge_limits"):
            phi_profile(root_problems["A"], root_kernels["A"], [0.0, 0.1])

    def test_case_a_decay_and_edge_approach(self, root_problems, root_kernels):
        prob, kern = root_problems["A"], root_kernels["A"]
        xs = np.array([-2.0, -1.5, 1.5, 2.0, 1e-4])
        prof = phi_profile(prob, kern, xs)
        assert np.all(np.abs(prof.phi[:4]) < 1e-3)   # decay far from the edge
        assert abs(prof.phi[4] - 1.0) < 1e-3         # phi -> phi0 on the sheet
        assert not prof.accuracy_flag.any()

    def test_edge_extrapolation_matches_closed_form(self, root_problems,
                                                    root_kernels):
        # outside the sheet phi approaches phi0 like sqrt(|x|)(1 + O(ln x));
        # fit {1, sqrt(e), sqrt(e) ln e} over e in {1e-4, 1e-5, 1e-6}
        prob, kern = root_problems["A"], root_kernels["A"]
        eps = np.array([1e-4, 1e-5, 1e-6])
        prof = phi_profile(prob, kern, -eps)
        basis = np.stack([np.ones(3), np.sqrt(eps), np.sqrt(eps) * np.log(eps)],
                         axis=1)
        coef = np.linalg.solve(basis, prof.phi)
        el = edge_limits(prob, kern)
        assert abs(coef[0] - el.phi_plus) < 1e-3

    def test_case_b_envelope_decay(self, root_problems, root_kernels):
        # the two residue modes beat (period 2 pi / |Re(xi_1 - xi_2)|), so
        # |phi| oscillates; the envelope decays: compare points one beat apart
        prob, kern = root_problems["B"], root_kernels["B"]
        dec = spp_decomposition(prob, kern)
        rate = dec.slowest_decay_rate
        beat = 2.0 * math.pi / abs(dec.modes[0].wavenumber.real
                                   - dec.modes[1].wavenumber.real)
        x0 = 5.0 / rate + np.linspace(0.0, beat, 5, endpoint=False)
        xs = np.concatenate([x0, x0 + beat])
        prof = phi_profile(prob, kern, xs)
        mags = np.abs(prof.phi)
        assert np.all(mags[5:] < mags[:5])

    def test_residue_part_dominates_after_transient(self, root_problems,
                                                    root_kernels):
        prob, kern = root_problems["B"], root_kernels["B"]
        xs = np.array([0.3, 0.5, 0.7])
        prof = phi_profile(prob, kern, xs, include_residue=True)
        diff = np.abs(prof.phi - prof.residue_part)
        # the branch-cut remainder decays faster than the slowest residue mode
        dec_rate = spp_decomposition(prob, kern).slowest_decay_rate
        measured = -np.diff(np.log(diff)) / np.diff(xs)
        assert np.all(measured > dec_rate)

    @pytest.mark.parametrize("name, x", [("A", -0.07), ("C", -1e-5)])
    def test_error_estimate_bounds_series_error(self, name, x, root_problems,
                                                monkeypatch):
        # the estimate carries Phi's error through s_+; the reference
        # profile comes from the series at twice the nodes and a tenth of
        # the tail target
        prob = root_problems[name]
        kern = build_log_kernel(prob)
        prof = phi_profile(prob, kern, [x])
        monkeypatch.setattr(wiener_hopf, "SERIES_N_MIN", 2 * kern.cauchy_table().nodes.size)
        monkeypatch.setattr(wiener_hopf, "SERIES_TOL", 0.1 * wiener_hopf.SERIES_TOL)
        ref = phi_profile(prob, build_log_kernel(prob), [x])
        assert abs(prof.phi[0] - ref.phi[0]) <= prof.error_estimate[0] < 1e-10

    def test_error_flags_fire_with_tight_target(self, root_problems, root_kernels):
        prob, kern = root_problems["A"], root_kernels["A"]
        prof = phi_profile(prob, kern, np.array([0.2]), target_error=1e-16)
        assert prof.accuracy_flag.all()
