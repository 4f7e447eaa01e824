import gc
import math
import os
import subprocess
import sys
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
from edgeplasmon import field, wiener_hopf
from edgeplasmon.field import _e_power, _field_contour, _panel_width
from edgeplasmon.quadrature import gk_panel_sums
from edgeplasmon.wiener_hopf import CauchyTable
from cauchy_oracle import adaptive_phi
from conftest import (INTERFACE_ROOT, MAGNETO_ROOT, MAGNETO_SIGMA, TWO_SHEET_LEFT,
                      TWO_SHEET_ROOT, make_sigma)

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


# a two-sheet draw of tests/test_oracle.py's zero_index_kernels (seed 46)
# at q off its roots: its bracket pole xi^+ = 21.41 - 0.021i lies 0.021
# below the axis (xi^- = -14.84 - 0.20i)
POLE_NEAR_AXIS = Problem.two_sheet(
    ConductivityTensor(0.005077206583227478 + 0.20497545392167665j,
                       -0.012309607436317923 - 0.05699363192169503j,
                       0.011283586076805366 - 0.05699363192169503j,
                       0.003755482612087013 + 0.05813669892919088j, nondimensional=True),
    ConductivityTensor(0.004931008337863431 + 0.04808065289748681j,
                       0.07194011712555759 - 0.030708077834861257j,
                       -0.07100657282808706 - 0.030708077834861257j,
                       0.002809344731044378 + 0.1876609842307185j, nondimensional=True),
    19.61843346838294 + 0.044037570668147855j)


# profile points of the continuation tests, from far out to the edge
CONTINUATION_X = (-2.0, -0.4, -0.07, -1e-3, -1e-5)


def upper_side_profile(kernel, xs):
    """phi(x < 0) and its error estimate from the contour's upper side:
    s_+ = bracket e^{Phi(t + i delta)} on the profile contour's inner
    panels and rays from +-inner + i delta downward, where e^{Q_+} crosses
    the axis as P e^{Phi}.  The profile takes s_+ = s_- P below the axis
    instead."""
    table, consts = kernel.cauchy_table(), field._constants(kernel)
    _, xm, _, cm, *_ = consts
    contour = _field_contour(kernel, _panel_width(kernel, np.abs(xs).max()))
    inner, delta = contour.inner, contour.delta
    t, half = contour.nodes[:contour.inner_nodes], contour.half[:contour.n_inner]
    s_up = field._bracket(consts, t + 1j * delta) * np.exp(table.phi(t + 1j * delta))
    phi, err = [], []
    for x in xs:
        vals = s_up * np.exp(1j * t * x - delta * x)
        panels, diff = gk_panel_sums(vals.reshape(half.size, -1), half)
        total, miss = panels.sum(), np.abs(diff).sum()
        s_abs = field._abs_integral(vals, half)
        s_nodes, s_half = field._vertical_panels(45.0 / abs(x), struct=inner)
        for end in (inner, -inner):
            xi = end + 1j * delta - 1j * s_nodes
            factor = np.exp(table.phi(xi))
            below = xi.imag < 0
            factor[below] *= field.p_of_xi(kernel.problem, xi[below])
            ray = field._bracket(consts, xi) * factor * np.exp(1j * xi * x)
            panels, diff = gk_panel_sums(ray.reshape(s_half.size, -1), s_half)
            # the tail beyond +inner is the ray integral, before -inner minus it
            total += -1j * np.sign(end) * panels.sum()
            miss += np.abs(diff).sum()
            s_abs += field._abs_integral(ray, s_half)
        phi.append(cm * np.exp(1j * xm * x) + total / (2j * math.pi))
        err.append((miss + table.error_estimate * s_abs) / (2.0 * math.pi))
    return np.array(phi), np.array(err)


def assert_continuation_holds(kernel, xs):
    """The profile below the axis agrees with the upper side's within the
    sum of both error estimates.  The upper side's panels and rays are
    the profile's, so its estimate tracks the profile's own (within 1e-3
    over the random draws of test_oracle.py) and is held below twice it."""
    prof = phi_profile(kernel.problem, kernel, xs)
    ref, ref_err = upper_side_profile(kernel, xs)
    assert np.all(ref_err <= 2.0 * prof.error_estimate), (ref_err, prof.error_estimate)
    assert np.all(np.abs(prof.phi - ref) <= prof.error_estimate + ref_err), xs


# profile points of the panel-width test: both sides, at the edge, near it
# and where the 3/|x| oscillation cap takes over from kappa/4
PANEL_TEST_X = (1e-5, -1e-5, -0.07, 0.35, 2.0, -2.0)


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
        # dips sharply near the axis; the contour panels must take edges
        # around the census zeros to resolve it (fixed-width tiling once
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
        # the accuracy must not hang on where the panel edges fall as q
        # moves within the solver's rounding of the root
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
        contour = _field_contour(kernel, _panel_width(kernel))
        t = contour.nodes
        pick = np.concatenate([np.arange(0, t.size, 97),
                               np.flatnonzero(np.abs(t + 24.6) < 1.0)[::3]])
        ref, _ = adaptive_phi(kernel, t[pick] - 1j * contour.delta)
        assert np.abs(contour.phi_below[pick] - ref).max() < 1e-9

    def test_error_estimate_bounds_true_error(self, root_problems, root_kernels):
        # the closed-down value of phi(0+) is C^+ + C^- = 1
        for name in "ABCD":
            kern = root_kernels[name]
            roots, _, _ = kern.root_constants()
            el = edge_limits(root_problems[name], kern)
            true = abs(el.phi_plus - (roots.c_plus + roots.c_minus))
            assert true <= el.phi_plus_error < 1e-4, name

    def test_shares_one_contour_pass_with_the_profile(self, root_problems,
                                                      monkeypatch):
        # one phi pass over the real-axis contour, below the axis only,
        # whichever of edge_limits and phi_profile runs first; besides it,
        # Phi(xi^+-), the six fit samples and the rays of all x
        calls = []
        phi = CauchyTable.phi

        def counted(table, xi0):
            calls.append(np.size(xi0))
            return phi(table, xi0)

        monkeypatch.setattr(CauchyTable, "phi", counted)
        prob = root_problems["C"]
        xs = [-0.4, -0.07, 0.1, 0.35]
        for first_limits in (True, False):
            calls.clear()
            kern = build_log_kernel(prob)
            if first_limits:
                edge_limits(prob, kern)
            phi_profile(prob, kern, xs)
            if not first_limits:
                edge_limits(prob, kern)
            contour = _field_contour(kern, _panel_width(kern))
            rays = sum(2 * field._vertical_panels(45.0 / abs(x), struct=contour.inner)[0].size
                       for x in xs)
            assert sorted(calls) == sorted([2, contour.nodes.size, 6, rays])

    def test_one_phi_call_for_both_fitted_tails(self, root_problems, monkeypatch):
        # once the contour exists, the edge limits reach Phi once, at the
        # three fit samples of each end together
        calls = []
        phi = CauchyTable.phi

        def counted(table, xi0):
            calls.append(np.size(xi0))
            return phi(table, xi0)

        prob = root_problems["C"]
        kern = build_log_kernel(prob)
        _field_contour(kern, _panel_width(kern))
        monkeypatch.setattr(CauchyTable, "phi", counted)
        edge_limits(prob, kern)
        assert calls == [6]

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

    def test_magnetoplasmon_root(self):
        # |q| = 44 lies far below the scale kappa = 1e4: panel edges from
        # |q|/4 up to kappa resolve the branch points +-iq, which kappa/4
        # panels once missed (phi(0+) = 1.306 with phi_plus_error 4.5)
        prob = Problem.single_sheet(MAGNETO_SIGMA, MAGNETO_ROOT)
        el = edge_limits(prob, build_log_kernel(prob))
        assert abs(el.phi_plus - 1.0) <= el.phi_plus_error <= 1e-4

    def test_two_sheet_limits(self):
        zero = ConductivityTensor.diagonal(0, 0, nondimensional=True)
        two = Problem.two_sheet(zero, make_sigma("A"), 12.171985323659703)
        kern = build_log_kernel(two)
        el = edge_limits(two, kern)
        assert abs(el.divergence_coefficient) < 1e-8
        assert el.phi_plus == pytest.approx(1.0, abs=1e-7)
        assert el.phi_minus == pytest.approx(1.0, abs=1e-7)

    def test_two_sheet_phi_plus_error_bounds_series_error(self, monkeypatch):
        # both two-sheet limits come from Phi(xi^+-): the table's error
        # estimate, carried through phi(0+), bounds its change when the
        # table is built at twice the nodes
        from edgeplasmon import solve
        sol = solve(Problem.two_sheet(TWO_SHEET_LEFT, make_sigma("A"), 12.0), 12.0)
        assert sol.converged
        prob = Problem.two_sheet(TWO_SHEET_LEFT, make_sigma("A"), sol.q)
        kern = build_log_kernel(prob)
        limits = edge_limits(prob, kern)
        assert 0.0 < limits.phi_plus_error < 1e-10
        monkeypatch.setattr(wiener_hopf, "SERIES_N_MIN", 2 * kern.cauchy_table().nodes.size)
        ref = edge_limits(prob, build_log_kernel(prob))
        assert abs(limits.phi_plus - ref.phi_plus) <= limits.phi_plus_error


class TestFieldContour:
    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "two-sheet"])
    def test_panels_within_the_error_estimates(self, name, root_problems, monkeypatch):
        # the contour's panels against panels 8 times narrower: phi and
        # phi(0+) move by no more than their own error estimates.  The
        # two-sheet problem has the left sheet's zeros, poles of P^R/P^L,
        # at +-(38.70 + 0.19i), near the contour
        if name == "two-sheet":
            prob = Problem.two_sheet(TWO_SHEET_LEFT, make_sigma("A"), TWO_SHEET_ROOT)
            xs = PANEL_TEST_X + (-0.1, -1e-3)
        else:
            prob, xs = root_problems[name], PANEL_TEST_X
        kern = build_log_kernel(prob)
        limits = edge_limits(prob, kern)
        profiles = [phi_profile(prob, kern, [x]) for x in xs]
        panel_nodes = field._panel_nodes
        monkeypatch.setattr(field, "_panel_nodes", lambda span, max_width, kernel:
                            panel_nodes(span, max_width / 8.0, kernel))
        ref_kern = build_log_kernel(prob)
        ref_limits = edge_limits(prob, ref_kern)
        assert abs(limits.phi_plus - ref_limits.phi_plus) <= limits.phi_plus_error
        for x, prof in zip(xs, profiles):
            ref = phi_profile(prob, ref_kern, [x])
            assert not prof.accuracy_flag.any(), x
            assert abs(prof.phi[0] - ref.phi[0]) <= prof.error_estimate[0], x

    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "interface", "anisotropic",
                                      "two-sheet"])
    def test_x_below_zero_continues_from_the_upper_side(self, name, root_problems):
        # e^{Q_+} above the axis and P e^{Phi} below it are one analytic
        # function in between: the profile's x < 0 integral on the lower
        # side matches the upper side's.  ANISOTROPIC_SIGMA has a zero of P
        # 0.153 above the axis, the two-sheet problem poles of P at
        # +-(38.70 + 0.19i)
        if name == "interface":
            prob = Problem.interface(make_sigma("A"), INTERFACE_ROOT, 2.0, 2.0)
        elif name == "anisotropic":
            prob = Problem.single_sheet(ANISOTROPIC_SIGMA, NEAR_ROOT_Q[0])
        elif name == "two-sheet":
            prob = Problem.two_sheet(TWO_SHEET_LEFT, make_sigma("A"), TWO_SHEET_ROOT)
        else:
            prob = root_problems[name]
        assert_continuation_holds(build_log_kernel(prob), CONTINUATION_X)

    def test_one_phi_call_for_all_rotated_tails(self, root_problems, monkeypatch):
        # on a kernel whose contour is built, a profile reaches Phi once and
        # P once, for the two rotated tails of every x together; its other
        # P call builds s_+ on the inner nodes
        phi_calls, p_calls = [], []
        phi, p_of_xi = CauchyTable.phi, field.p_of_xi

        def counted_phi(table, xi0):
            phi_calls.append(np.size(xi0))
            return phi(table, xi0)

        def counted_p(problem, xi):
            p_calls.append(np.size(xi))
            return p_of_xi(problem, xi)

        monkeypatch.setattr(CauchyTable, "phi", counted_phi)
        monkeypatch.setattr(field, "p_of_xi", counted_p)
        prob = root_problems["C"]
        kern = build_log_kernel(prob)
        edge_limits(prob, kern)
        phi_calls.clear()
        xs = [-0.4, -0.07, 1e-3, 0.1, 0.35]
        phi_profile(prob, kern, xs)
        contour = _field_contour(kern, _panel_width(kern))
        rays = sum(2 * field._vertical_panels(45.0 / abs(x), struct=contour.inner)[0].size
                   for x in xs)
        assert phi_calls == [rays]
        assert len(p_calls) == 2 and p_calls[0] == contour.inner_nodes

    def test_graded_tiling(self, root_kernels):
        # uniform panels on the inner part, at least 4 kappa; beyond it
        # panels 1.25 times wider each out to the span, which the edge
        # limit alone reads (5 130 Phi points on the uniform tiling)
        kern = root_kernels["C"]
        contour = _field_contour(kern, _panel_width(kern))
        assert contour.nodes.size <= 1500
        assert contour.inner >= 4.0 * kern.scale
        inner = contour.nodes[:contour.inner_nodes]
        assert np.abs(inner).max() < contour.inner
        assert np.all(2.0 * contour.half[:contour.n_inner] <= _panel_width(kern) * (1 + 1e-12))
        assert 2.0 * contour.half[contour.n_inner:].max() <= 0.25 * contour.span
        assert np.abs(contour.nodes).max() < contour.span
        # a narrower profile contour has the inner panels alone
        narrow = _field_contour(kern, _panel_width(kern, 2.0))
        assert narrow.nodes.size == narrow.inner_nodes

    def test_s_plus_built_on_the_first_x_below_zero(self, root_problems, monkeypatch):
        # the edge limits and x > 0 read s_- alone; the first x < 0 profile
        # builds s_+ = s_- P on the inner nodes with one P call, which
        # later profiles reuse
        p_calls = []
        p_of_xi = field.p_of_xi

        def counted_p(problem, xi):
            p_calls.append(np.size(xi))
            return p_of_xi(problem, xi)

        monkeypatch.setattr(field, "p_of_xi", counted_p)
        prob = root_problems["C"]
        kern = build_log_kernel(prob)
        edge_limits(prob, kern)
        assert p_calls == []
        contour = _field_contour(kern, _panel_width(kern))
        inner_nodes = contour.inner_nodes
        phi_profile(prob, kern, [0.1, 0.35])
        assert inner_nodes not in p_calls
        phi_profile(prob, kern, [-0.4, 0.1])
        assert p_calls.count(inner_nodes) == 1
        assert field._s_plus(prob, kern, _panel_width(kern))[0].size == inner_nodes
        assert p_calls.count(inner_nodes) == 1
        phi_profile(prob, kern, [-0.07])
        assert p_calls.count(inner_nodes) == 1

    def test_bracket_pole_near_the_axis(self, monkeypatch):
        # a bracket pole 0.021 below the contour makes a peak of that width:
        # panel edges around it keep the profile unflagged (the estimates
        # read 0.67-0.70 without them), and panels an eighth as wide move
        # it by no more than its estimate
        xs = [-0.3, -0.01, 0.01, 0.3]
        prof = phi_profile(POLE_NEAR_AXIS, build_log_kernel(POLE_NEAR_AXIS), xs)
        assert not prof.accuracy_flag.any()
        panel_nodes = field._panel_nodes
        monkeypatch.setattr(field, "_panel_nodes", lambda span, max_width, kernel:
                            panel_nodes(span, max_width / 8.0, kernel))
        ref = phi_profile(POLE_NEAR_AXIS, build_log_kernel(POLE_NEAR_AXIS), xs)
        assert np.all(np.abs(prof.phi - ref.phi) <= prof.error_estimate)

    def test_one_set_of_ray_panels_per_x(self, root_problems, monkeypatch):
        # the rays from both ends of an x's side share their panels
        calls = []
        vertical_panels = field._vertical_panels

        def counted(length, struct):
            calls.append(length)
            return vertical_panels(length, struct)

        monkeypatch.setattr(field, "_vertical_panels", counted)
        prob = root_problems["C"]
        xs = [-0.4, -0.07, 0.1, 0.35]
        phi_profile(prob, build_log_kernel(prob), xs)
        assert calls == [45.0 / abs(x) for x in xs]

    def test_field_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use (about 12 ms); the
        # contour's panel edges are merged with a sort instead
        code = ("import sys\n"
                "from edgeplasmon import Problem, build_log_kernel, edge_limits, phi_profile\n"
                "from edgeplasmon import ConductivityTensor, rotate\n"
                "b = ConductivityTensor.diagonal(0.001 + 0.1j, 0.002 + 0.2j, nondimensional=True)\n"
                "prob = Problem.single_sheet(rotate(b, 1.2566370614359172), 21.657 + 0.217j)\n"
                "kern = build_log_kernel(prob)\n"
                "edge_limits(prob, kern)\n"
                "phi_profile(prob, kern, [-0.2, -0.05, 0.05, 0.2])\n"
                "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env=os.environ.copy(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestSppDecomposition:
    def test_case_b_modes(self, root_problems, root_kernels):
        dec = spp_decomposition(root_problems["B"], root_kernels["B"])
        assert len(dec.modes) == 2
        for mode in dec.modes:
            assert mode.wavenumber.imag > 0  # decaying toward +x
        # wavenumbers are exactly the census zeros (shared computation)
        census_locs = {z.location for z in dec.census.upper_first_sheet()}
        assert {m.wavenumber for m in dec.modes} == census_locs

    def test_amplitudes_match_the_one_point_residues(self, root_problems, root_kernels):
        # the residues, taken at all zeros in one call per factor, against
        # the residue formula at each zero alone
        for name in "ABCD":
            prob, kern = root_problems[name], root_kernels[name]
            consts = field._constants(kern)
            for mode in spp_decomposition(prob, kern).modes:
                z = mode.wavenumber
                ref = (-field._bracket(consts, z) * np.exp(wiener_hopf.cauchy_transform(kern, z))
                       / field.dp_dxi(prob, z))
                assert abs(mode.amplitude - ref) <= 1e-15 * abs(ref), name

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
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite x"):
                phi_profile(root_problems["A"], root_kernels["A"], [0.1, x])

    def test_input_shapes(self, root_problems, root_kernels):
        # an empty x gives an empty profile; a scalar or 2-D x is refused
        prob, kern = root_problems["A"], root_kernels["A"]
        prof = phi_profile(prob, kern, [])
        assert prof.x.shape == prof.phi.shape == prof.error_estimate.shape == (0,)
        assert prof.accuracy_flag.shape == (0,) and prof.accuracy_flag.dtype == bool
        for xs in (0.1, [[0.1, -0.1]]):
            with pytest.raises(ValueError, match="1-D"):
                phi_profile(prob, kern, xs)

    @pytest.mark.parametrize("name", "ABCD")
    @pytest.mark.parametrize("x", [2.0, -2.0])
    def test_error_estimate_holds_the_panel_misses_in_modulus(self, name, x, root_problems,
                                                              root_kernels):
        # the estimate adds the moduli of the contour panels' embedded-rule
        # misses, as the edge limits and the rotated tails do; their signed
        # sum can cancel to far below its terms (5.2e-17 against 1.9e-13 on
        # A at x = -2).  A profile integrates the inner panels
        prob, kern = root_problems[name], root_kernels[name]
        prof = phi_profile(prob, kern, [x])
        contour = _field_contour(kern, _panel_width(kern, abs(x)))
        side = 1.0 if x > 0 else -1.0
        s = contour.s_minus if x > 0 else field._s_plus(prob, kern, _panel_width(kern, abs(x)))
        n = contour.inner_nodes
        osc = np.exp(1j * contour.nodes[:n] * x + contour.delta * side * x)
        vals = s[0][:n] * osc
        half = contour.half[:contour.n_inner]
        _, diff = gk_panel_sums(vals.reshape(half.size, -1), half)
        assert prof.error_estimate[0] >= np.abs(diff).sum() / (2.0 * math.pi)

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
        prof = phi_profile(prob, kern, xs)
        diff = np.abs(prof.phi - spp_decomposition(prob, kern).residue_field(xs))
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

    def test_magnetoplasmon_profile(self):
        # |q| = 44 far below kappa = 1e4: the profile on the inner part
        # (+-4 kappa, 21 600 nodes at 3/0.05 wide) and rays from its ends;
        # the uniform tiling to +-40 kappa took 200 010 nodes and left
        # estimates of 2.8e-6
        prob = Problem.single_sheet(MAGNETO_SIGMA, MAGNETO_ROOT)
        kern = build_log_kernel(prob)
        xs = [-0.05, -0.01, 0.01, 0.05]
        prof = phi_profile(prob, kern, xs)
        assert not prof.accuracy_flag.any()
        assert np.all(prof.error_estimate < 1e-8)
        assert _field_contour(kern, _panel_width(kern, 0.05)).nodes.size <= 22_000

    def test_two_sheet_profile_resolves_the_left_sheet_poles(self, monkeypatch):
        # the left sheet's zeros at +-(38.70 + 0.19i) are poles of P^R/P^L,
        # where |P| peaks at 666 on the axis; panel edges around them keep
        # the x < 0 estimate at ~1e-10 (edges from the phase grid left it
        # at 1.1e-4, flagged).  The reference takes panels an eighth as wide.
        from edgeplasmon import solve
        sol = solve(Problem.two_sheet(TWO_SHEET_LEFT, make_sigma("A"), 12.0), 12.0)
        assert sol.converged
        prob = Problem.two_sheet(TWO_SHEET_LEFT, make_sigma("A"), sol.q)
        xs = [-0.1, -1e-3, -1e-4]
        prof = phi_profile(prob, build_log_kernel(prob), xs)
        assert not prof.accuracy_flag.any()
        panel_nodes = field._panel_nodes
        monkeypatch.setattr(field, "_panel_nodes", lambda span, max_width, kernel:
                            panel_nodes(span, max_width / 8.0, kernel))
        ref = phi_profile(prob, build_log_kernel(prob), xs)
        assert np.all(np.abs(prof.phi - ref.phi) <= prof.error_estimate)
