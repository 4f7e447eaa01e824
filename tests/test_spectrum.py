import contextlib
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

from edgeplasmon import (
    AssignmentRule,
    BranchPointError,
    CensusOverflowError,
    ConductivityTensor,
    DegenerateQuadraticError,
    DoubleRootError,
    Problem,
    RealAxisZeroError,
    Sheet,
    build_log_kernel,
    bulk_zeros,
    conjecture_check,
    dual_winding_index,
    quadratic_roots,
    winding_index,
)
from edgeplasmon import spectrum
from edgeplasmon.spectrum import (
    CLASSIFY_RESIDUAL,
    EVAL_RUN,
    MARGINAL_BAND,
    PHASE_GRID_START,
    HalfPlane,
    conjecture_block,
    problem_scale,
    unwrapped_phase_grid,
)
from edgeplasmon.kernel import p_of_xi
from conftest import make_sigma


def random_passive_tensor(rng):
    """Physically admissible sheet: rotated lossy Drude diagonal + Hall part."""
    from edgeplasmon import rotate

    diag = ConductivityTensor.diagonal(
        complex(abs(rng.normal(scale=0.01)), rng.uniform(0.02, 0.3)),
        complex(abs(rng.normal(scale=0.01)), rng.uniform(0.02, 0.3)),
        nondimensional=True)
    rot = rotate(diag, rng.uniform(0, np.pi))
    hall = rng.normal(scale=0.05)
    return ConductivityTensor(rot.xx, rot.xy - hall, rot.yx + hall, rot.yy,
                              nondimensional=True)


class TestQuadraticRoots:
    def test_lossless_reference_tie_break(self):
        # D = 0.4, xi^+- = +-i q on the imaginary axis, assigned by Im sign
        r = quadratic_roots(make_sigma("A"), 12.172)
        assert r.disc == pytest.approx(0.4)
        assert r.xi_plus == pytest.approx(12.172j)
        assert r.xi_minus == pytest.approx(-12.172j)
        assert r.rule is AssignmentRule.BY_IM

    def test_problem_scale_is_that_of_the_labelled_roots(self, rng):
        # the scale takes max |xi^+-| from the unlabelled pair: bit for bit
        # the value the labelled roots give, and without the roots where
        # the pair is degenerate (D = 0)
        def labelled_scale(problem):
            scale = max(abs(problem.q), 1.0)
            for _, prob in problem.signed_sheets():
                sig = prob.sigma_eff
                if sig.frobenius == 0:
                    continue
                try:
                    r = quadratic_roots(sig, prob.q)
                    scale = max(scale, abs(r.xi_plus), abs(r.xi_minus))
                except (DegenerateQuadraticError, DoubleRootError):
                    pass
                if sig.xx != 0:
                    scale = max(scale, abs(2j / sig.xx))
            return scale

        double = ConductivityTensor(0.1j, 0.1j, 0.1j, 0.1j, nondimensional=True)
        with pytest.raises(DoubleRootError):
            quadratic_roots(double, 12.0)
        probs = [Problem.single_sheet(double, 12.0 + 0.1j),
                 Problem.two_sheet(double, make_sigma("C"), -7.0)]
        for _ in range(200):
            sigma = random_passive_tensor(rng)
            q = complex(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 40.0), rng.normal())
            probs += [Problem.single_sheet(sigma, q),
                      Problem.interface(sigma, q, 1.0, rng.uniform(1.0, 6.0)),
                      Problem.two_sheet(random_passive_tensor(rng), sigma, q)]
        for prob in probs:
            assert problem_scale(prob) == labelled_scale(prob)

    def test_symmetric_roots_when_off_sum_zero(self):
        r = quadratic_roots(make_sigma("B"), 13.928 + 0.140j)
        assert r.xi_plus == pytest.approx(-r.xi_minus)
        assert r.xi_plus.imag > 0 > r.xi_minus.imag

    def test_case_c_roots_satisfy_numerator(self):
        sigma = make_sigma("C")
        q = 21.657 + 0.217j
        r = quadratic_roots(sigma, q)
        for xi in (r.xi_plus, r.xi_minus):
            val = sigma.xx * xi ** 2 + sigma.off_sum * q * xi + sigma.yy * q ** 2
            assert abs(val) < 1e-10

    def test_half_plane_invariant(self, rng):
        # either Re xi+ > 0 > Re xi- or Im xi+ > 0 > Im xi-; with loss the
        # upper-half assignment always applies
        for _ in range(200):
            sigma = random_passive_tensor(rng)
            q = complex(rng.normal(scale=15), rng.normal(scale=1))
            if abs(q.real) < 0.5 or sigma.xx == 0:
                continue
            try:
                r = quadratic_roots(sigma, q)
            except DoubleRootError:
                continue
            re_rule = r.xi_plus.real > 0 > r.xi_minus.real
            im_rule = r.xi_plus.imag > 0 > r.xi_minus.imag
            assert re_rule or im_rule

    def test_vieta(self, rng):
        for _ in range(100):
            sigma = random_passive_tensor(rng)
            q = complex(rng.normal(scale=10), rng.normal(scale=2))
            if abs(q.real) < 0.5:
                continue
            r = quadratic_roots(sigma, q)
            scale = max(abs(r.xi_plus), abs(r.xi_minus))
            assert abs(r.xi_plus + r.xi_minus
                       + q * sigma.off_sum / sigma.xx) < 1e-12 * scale
            assert abs(r.xi_plus * r.xi_minus
                       - q * q * sigma.yy / sigma.xx) < 1e-12 * scale ** 2

    def test_real_pair_is_labelled_by_re(self):
        # the lossless passive diag(0.2i, -0.2i) has real roots +-q: the
        # sign of Re labels them, and C^+- = 1/2 as sigma_xy = sigma_yx
        r = quadratic_roots(ConductivityTensor.diagonal(0.2j, -0.2j, nondimensional=True), 3.0)
        assert r.rule is AssignmentRule.BY_RE
        assert r.xi_plus.imag == r.xi_minus.imag == 0.0
        assert r.xi_plus.real > 0 and r.xi_minus == -r.xi_plus
        assert r.xi_plus == pytest.approx(3.0)
        assert r.c_plus == r.c_minus == 0.5

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateQuadraticError):
            quadratic_roots(ConductivityTensor(0, 0.1j, 0.1j, 0.2j,
                                               nondimensional=True), 5.0)
        with pytest.raises(DoubleRootError):
            # off_sum^2 = 4 xx yy  ->  D = 0
            quadratic_roots(ConductivityTensor(0.1j, 0.1j, 0.1j, 0.1j,
                                               nondimensional=True), 5.0)


class TestSplitCoefficients:
    def test_symmetric_tensor_gives_half(self):
        c = quadratic_roots(make_sigma("C"), 21.657 + 0.217j)
        assert c.c_plus == pytest.approx(0.5)
        assert c.c_minus == pytest.approx(0.5)

    def test_sum_is_one_exactly(self, rng):
        for _ in range(50):
            sigma = random_passive_tensor(rng)
            q = complex(rng.normal(scale=10), rng.normal())
            if abs(q.real) < 0.5:
                continue
            c = quadratic_roots(sigma, q)
            assert c.c_plus + c.c_minus == 1.0

    def test_magneto_ratio_near_minus_one(self):
        # strong gyrotropy: -C+/C- close to 1, i.e. C+/C- close to -1
        from edgeplasmon import magneto_hydrodynamic, nondimensionalize, AmbientMedium
        from scipy import constants
        omega = 2 * math.pi * 1e9
        b0 = 100.0 * omega * constants.m_e / constants.e
        med = AmbientMedium.vacuum(omega)
        sbar = nondimensionalize(
            magneto_hydrodynamic(omega=omega, n0=1.18e15, b0=b0), med)
        r = quadratic_roots(sbar, 40.0)
        assert abs(r.c_plus / r.c_minus + 1.0) < 0.05
        # pairing consistency: C coupled to the same disc as the roots
        t = (2 * r.c_plus - 1.0) * r.disc
        assert t == pytest.approx(sbar.off_diff)


def census_by_back_substitution(problem, roots):
    """The census root by root: marginal test, then |P| and |P*| from two
    scalar symbol evaluations; [(location, sheet, half, marginal, residual)]
    and the counts (N+, N-, N*+, N*-, marginal)."""
    q = complex(problem.q)
    records, counts = [], dict.fromkeys(
        [(Sheet.FIRST, HalfPlane.UPPER), (Sheet.FIRST, HalfPlane.LOWER),
         (Sheet.SECOND, HalfPlane.UPPER), (Sheet.SECOND, HalfPlane.LOWER)], 0)
    n_marginal = 0
    for root in roots:
        r = complex(root)
        scale = max(abs(r), 1.0)
        marginal = abs(r.imag) < MARGINAL_BAND * scale
        for bp in (1j * q, -1j * q):
            marginal = marginal or abs(r - bp) < MARGINAL_BAND * scale
        if marginal:
            n_marginal += 1
            records.append((r, Sheet.FIRST, HalfPlane.UPPER, True, math.nan))
            continue
        res1 = abs(p_of_xi(problem, r, Sheet.FIRST))
        res2 = abs(p_of_xi(problem, r, Sheet.SECOND))
        sheet = Sheet.FIRST if res1 <= res2 else Sheet.SECOND
        residual = min(res1, res2)
        if residual > CLASSIFY_RESIDUAL:
            n_marginal += 1
            records.append((r, sheet, HalfPlane.UPPER, True, residual))
            continue
        half = HalfPlane.UPPER if r.imag > 0 else HalfPlane.LOWER
        counts[(sheet, half)] += 1
        records.append((r, sheet, half, False, residual))
    return records, (*counts.values(), n_marginal)


def assert_census_matches_back_substitution(prob):
    rep = bulk_zeros(prob)
    records, counts = census_by_back_substitution(prob, [z.location for z in rep.zeros])
    assert (*rep.counts(), rep.n_marginal) == counts
    for z, (loc, sheet, half, marginal, residual) in zip(rep.zeros, records):
        assert (z.location, z.sheet, z.half_plane, z.marginal) == (loc, sheet, half, marginal)
        if math.isnan(residual):
            assert math.isnan(z.residual)
        else:
            assert z.residual == pytest.approx(residual, rel=1e-12, abs=0)


# a quartic root of this sheet sits on the branch point +iq
BRANCH_POINT_SIGMA = ConductivityTensor(0.01 + 0.2j, 0.05, 0.05, 0.01 + 0.1j,
                                        nondimensional=True)
BRANCH_POINT_Q = 10.0 + 0.1j


class TestBulkZeros:
    def test_case_b_census(self):
        rep = bulk_zeros(Problem.single_sheet(make_sigma("B"), 13.928 + 0.140j))
        assert rep.counts() == (2, 2, 0, 0)
        assert rep.n_marginal == 0

    def test_case_c_census(self):
        rep = bulk_zeros(Problem.single_sheet(make_sigma("C"), 21.657 + 0.217j))
        assert rep.counts() == (1, 1, 1, 1)

    def test_case_d_scaled_census(self):
        rep = bulk_zeros(Problem.single_sheet(make_sigma("D"),
                                              0.75 * (16.438 + 0.164j)))
        assert rep.counts() == (0, 3, 1, 0)

    def test_lossless_marginal_branch_points(self):
        # isotropic sheet: two quartic roots coincide with the branch points
        rep = bulk_zeros(Problem.single_sheet(make_sigma("A"), 12.172))
        assert rep.n_marginal == 2
        assert rep.counts() == (1, 1, 0, 0)
        assert sum(rep.counts()) + rep.n_marginal == 4

    def test_residuals_satisfy_symbol(self):
        prob = Problem.single_sheet(make_sigma("C"), 18.0 + 0.3j)
        rep = bulk_zeros(prob)
        for z in rep.zeros:
            if z.marginal:
                continue
            assert abs(p_of_xi(prob, z.location, z.sheet)) < 1e-8

    def test_reflection_of_zero_set(self):
        prob = Problem.single_sheet(make_sigma("C"), 18.0 + 0.3j)
        plus = sorted((z.location for z in bulk_zeros(prob).zeros),
                      key=lambda w: (round(w.real, 7), round(w.imag, 7)))
        minus = sorted((-z.location for z in
                        bulk_zeros(prob.with_q(-prob.q)).zeros),
                       key=lambda w: (round(w.real, 7), round(w.imag, 7)))
        assert np.allclose(plus, minus, rtol=1e-9)

    @pytest.mark.parametrize("variant", ["single", "interface"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_back_substitution(self, data, variant):
        assert_census_matches_back_substitution(data.draw(problems(variant)))

    @pytest.mark.parametrize("prob", [
        Problem.single_sheet(make_sigma("A"), 12.172),    # marginal at +-iq
        Problem.single_sheet(BRANCH_POINT_SIGMA, BRANCH_POINT_Q),
        Problem.single_sheet(make_sigma("D"), 0.75 * (16.438 + 0.164j)),
    ], ids=["lossless", "branch-point", "D-pocket"])
    def test_matches_back_substitution_at_marginal_roots(self, prob):
        assert_census_matches_back_substitution(prob)

    def test_root_on_a_branch_point(self):
        # one quartic root falls on +iq, where the square root is undefined:
        # it is marginal, and the other three are still attributed
        rep = bulk_zeros(Problem.single_sheet(BRANCH_POINT_SIGMA, BRANCH_POINT_Q))
        assert rep.counts() == (2, 0, 0, 1) and rep.n_marginal == 1
        (marginal,) = [z for z in rep.zeros if z.marginal]
        assert marginal.location == pytest.approx(1j * BRANCH_POINT_Q, rel=1e-12)
        assert math.isnan(marginal.residual)

    def test_symmetric_census_for_even_symbol(self, rng):
        for _ in range(20):
            xx = complex(rng.normal(scale=0.02), abs(rng.normal(scale=0.15)))
            yy = complex(rng.normal(scale=0.02), abs(rng.normal(scale=0.15)))
            q = complex(rng.normal(scale=12), rng.normal(scale=0.5))
            if abs(q.real) < 1.0 or abs(xx) < 1e-3:
                continue
            prob = Problem.single_sheet(
                ConductivityTensor.diagonal(xx, yy, nondimensional=True), q)
            rep = bulk_zeros(prob)
            if rep.n_marginal:
                continue
            assert rep.n_plus == rep.n_minus
            assert rep.n_star_plus == rep.n_star_minus


@st.composite
def problems(draw, variant):
    # Im q / Re q above the loss ratio with |q| below the SPP wavenumber
    # 2/|sigma_xx| puts zeros of P across the axis: the nonzero-index pockets
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = random_passive_tensor(rng)
    q = (draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.3, 1.5)) * 2.0
         / abs(sigma.xx) * complex(1.0, draw(st.floats(0.0, 0.15))))
    if variant == "single":
        return Problem.single_sheet(sigma, q)
    if variant == "interface":
        return Problem.interface(sigma, q, draw(st.floats(1.0, 6.0)),
                                 draw(st.floats(1.0, 6.0)))
    return Problem.two_sheet(random_passive_tensor(rng), sigma, q)


# the passive sheet on which the census conjecture fails (nu* = 1 at
# COUNTEREXAMPLE_Q with no marginal zero)
COUNTEREXAMPLE = np.array([[0.1938 - 0.2335j, 0.2292 + 0.0461j],
                           [0.1549 + 0.1317j, 0.1998 + 0.2649j]])
COUNTEREXAMPLE_Q = -16.27 - 0.68j


def near_counterexample(rng):
    """A single sheet with each entry of COUNTEREXAMPLE moved by at most
    0.02, at q = f COUNTEREXAMPLE_Q with f in [0.8, 3]; None when the
    moved tensor is not passive."""
    radius, turn = 0.02 * np.sqrt(rng.uniform(size=(2, 2))), rng.uniform(size=(2, 2))
    move = radius * np.exp(2j * math.pi * turn)
    sigma = ConductivityTensor.from_matrix(COUNTEREXAMPLE + move, nondimensional=True)
    if not sigma.is_passive():
        return None
    return Problem.single_sheet(sigma, rng.uniform(0.8, 3.0) * COUNTEREXAMPLE_Q)


def _pocket_problem(variant):
    """A problem of each variant whose index is -1."""
    q = 0.85 * (21.657 + 0.217j)
    if variant == "single":
        return Problem.single_sheet(make_sigma("C"), q)
    if variant == "interface":
        return Problem.interface(make_sigma("C"), q, 1.0, 1.0)
    zero = ConductivityTensor.diagonal(0, 0, nondimensional=True)
    return Problem.two_sheet(zero, make_sigma("C"), q)


def _check_kernel_index_and_reflection(prob):
    # the log-kernel's index is the winding index, and q -> -q maps
    # P(xi) to P(-xi), which reverses the winding
    nu = winding_index(prob)
    assert build_log_kernel(prob).nu_k == nu
    assert winding_index(prob.with_q(-prob.q)) == -nu
    return nu


class TestWindingIndex:
    @pytest.mark.parametrize("variant", ["single", "interface", "two-sheet"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_kernel_index_and_reflection(self, variant, data):
        prob = data.draw(problems(variant))
        try:
            nu = _check_kernel_index_and_reflection(prob)
        except RealAxisZeroError:
            reject()
        event(f"nu = {nu}")

    @pytest.mark.parametrize("variant", ["single", "interface", "two-sheet"])
    def test_kernel_index_and_reflection_in_a_pocket(self, variant):
        assert _check_kernel_index_and_reflection(_pocket_problem(variant)) == -1

    def test_pole_on_axis_is_a_real_axis_error(self):
        # a lossless left sheet: P^L has real zeros, poles of P^R/P^L on the
        # axis (near +-99.98 at q = -2), and the census zeros seed phase-grid
        # nodes on them whatever q is
        left = ConductivityTensor.diagonal(0.02j, 0.02j, nondimensional=True)
        right = ConductivityTensor.diagonal(0.02j, 0.02 + 0.02j, nondimensional=True)
        for q in (-2.0, -2.1, -1.7, 2.3):
            prob = Problem.two_sheet(left, right, q)
            with pytest.raises(RealAxisZeroError, match="pole on contour"):
                winding_index(prob)
            with pytest.raises(RealAxisZeroError, match="pole on contour"):
                build_log_kernel(prob)

    def test_zero_for_empty_sheet(self):
        prob = Problem.single_sheet(
            ConductivityTensor.diagonal(0, 0, nondimensional=True), 3.0)
        assert winding_index(prob) == 0

    def test_case_c_values(self):
        sigma = make_sigma("C")
        q_sol = 21.657 + 0.217j
        assert winding_index(Problem.single_sheet(sigma, q_sol)) == 0
        assert winding_index(Problem.single_sheet(sigma, 0.85 * q_sol)) == -1
        assert winding_index(Problem.single_sheet(sigma, -0.85 * q_sol)) == 1

    def test_reflection_property(self):
        sigma = make_sigma("D")
        for q in (16.438 + 0.164j, 0.75 * (16.438 + 0.164j), 8.0 + 0.5j):
            nu = winding_index(Problem.single_sheet(sigma, q))
            assert winding_index(Problem.single_sheet(sigma, -q)) == -nu

    def test_stable_under_refinement(self, monkeypatch):
        prob = Problem.single_sheet(make_sigma("C"), 0.85 * (21.657 + 0.217j))
        for step in (0.5 * math.pi, 0.25 * math.pi):
            monkeypatch.setattr(spectrum, "PHASE_STEP_MAX", step)
            xs, ang, (nu,), _ = unwrapped_phase_grid([prob], Sheet.FIRST)
            assert round((ang[-1] - ang[0]) / (2 * math.pi)) == nu == -1
            assert np.all(np.diff(xs) > 0)

    def test_real_axis_zero_detected(self):
        # lossless sheet with q below the SPP wavenumber: symbol vanishes on axis
        with pytest.raises(RealAxisZeroError):
            winding_index(Problem.single_sheet(make_sigma("A"), 8.0))

    def test_dual_index_zero_on_reference_cases(self):
        for name, q in (("C", 0.85 * (21.657 + 0.217j)),
                        ("D", 0.75 * (16.438 + 0.164j))):
            assert dual_winding_index(
                Problem.single_sheet(make_sigma(name), q)) == 0


def dense_winding(problem, sheet):
    """Winding of P (or P*) on [-m, m] from 48 001 uniform nodes, each step
    of arg P taken from P(x_k+1)/P(x_k) and the steps above pi/4 bisected
    until none is left: a reference that shares nothing with the seeded
    phase grid but the symbol."""
    end = 100.0 * problem_scale(problem)
    xs = np.linspace(-end, end, 48_001)
    vals = p_of_xi(problem, xs, sheet)
    for _ in range(60):
        steps = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(steps) > 0.25 * math.pi
        if not bad.any():
            return round(steps.sum() / (2.0 * math.pi))
        mids = 0.5 * (xs[:-1][bad] + xs[1:][bad])
        order = np.argsort(np.concatenate([xs, mids]))
        xs = np.concatenate([xs, mids])[order]
        vals = np.concatenate([vals, p_of_xi(problem, mids, sheet)])[order]
    raise AssertionError("dense reference grid not resolved")


def assert_indices_match_dense_grid(prob):
    try:
        nu, nu_star = winding_index(prob), dual_winding_index(prob)
    except RealAxisZeroError:
        reject()
    assert nu == dense_winding(prob, Sheet.FIRST)
    assert nu_star == dense_winding(prob, Sheet.SECOND)
    event(f"nu = {nu}, nu* = {nu_star}")


class TestSeededPhaseGrid:
    # the phase grid starts from 256 theta-uniform nodes plus nodes around
    # the census zeros; its indices must be those of a dense grid
    @pytest.mark.parametrize("variant", ["single", "interface", "two-sheet"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_indices_match_a_dense_grid(self, variant, data):
        assert_indices_match_dense_grid(data.draw(problems(variant)))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_indices_match_a_dense_grid_near_the_counterexample(self, seed):
        prob = near_counterexample(np.random.default_rng(seed))
        if prob is None:
            reject()
        assert_indices_match_dense_grid(prob)

    @pytest.mark.parametrize("factor,nu", [(1.11, 0), (1.115, -1)])
    def test_zero_next_to_the_axis(self, factor, nu):
        # sheet C at these q has a first-sheet zero within 1e-4 scale of the
        # axis, above it at 1.11 and below it at 1.115 (nu flips between)
        prob = Problem.single_sheet(make_sigma("C"), factor * (16.438 + 0.164j))
        gap = min(abs(z.location.imag) for z in bulk_zeros(prob).zeros
                  if z.sheet is Sheet.FIRST)
        assert gap < 1e-4 * problem_scale(prob)
        assert winding_index(prob) == dense_winding(prob, Sheet.FIRST) == nu
        assert conjecture_check(prob).nu_k == nu
        assert dual_winding_index(prob) == dense_winding(prob, Sheet.SECOND)


class TestConjecture:
    def test_appendix_points(self):
        res = conjecture_check(Problem.single_sheet(
            make_sigma("C"), 0.85 * (21.657 + 0.217j)))
        assert res.nu_k == -1 and res.rhs == -1 and res.agrees is True
        res = conjecture_check(Problem.single_sheet(
            make_sigma("D"), 0.75 * (16.438 + 0.164j)))
        assert res.nu_k == -1 and res.rhs == -1 and res.agrees is True

    def test_marginal_gives_indeterminate(self):
        res = conjecture_check(Problem.single_sheet(make_sigma("A"), 12.172))
        assert res.agrees is None
        assert res.report.n_marginal == 2

    def test_two_sheet_index_difference(self):
        # nu for the ratio equals nu_R - nu_L; with a vacuum left sheet it
        # reduces to the right sheet's index
        zero = ConductivityTensor.diagonal(0, 0, nondimensional=True)
        q = 0.85 * (21.657 + 0.217j)
        two = Problem.two_sheet(zero, make_sigma("C"), q)
        assert winding_index(two) == -1
        (_, right), _ = two.signed_sheets()
        assert winding_index(right) == -1

    def test_zero_side_census(self):
        # the signed census sum: a vacuum left sheet leaves the right
        # sheet's, a vacuum right sheet gives minus the left sheet's
        zero = ConductivityTensor.diagonal(0, 0, nondimensional=True)
        q = 0.85 * (21.657 + 0.217j)
        single = conjecture_check(Problem.single_sheet(make_sigma("C"), q))
        right = conjecture_check(Problem.two_sheet(zero, make_sigma("C"), q))
        left = conjecture_check(Problem.two_sheet(make_sigma("C"), zero, q))
        assert (single.nu_k, single.rhs) == (-1, -1)
        assert (right.nu_k, right.rhs, right.agrees) == (-1, -1, True)
        assert (left.nu_k, left.rhs, left.agrees) == (1, 1, True)
        assert right.report == single.report
        assert left.report.counts() == (0, 0, 0, 0)


class TestIndexIdentity:
    # P P* = 1 + num^2/(4(xi^2 + q^2)) is rational: its numerator is the
    # census quartic and its poles +-iq lie one in each half-plane, so the
    # argument principle gives nu + nu* = (N^+ - N^-)/2 + (N*^+ - N*^-)/2
    # whenever no zero is marginal (right minus left for two sheets).  The
    # conjecture nu = that sum is the same as nu* = 0.
    @pytest.mark.parametrize("variant", ["single", "interface", "two-sheet"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_index_plus_dual_index_is_the_census(self, variant, data):
        prob = data.draw(problems(variant))
        try:
            res = conjecture_check(prob)
            nu_star = dual_winding_index(prob)
        except RealAxisZeroError:
            reject()
        if res.agrees is None:
            assert res.n_marginal > 0 and res.nu_star is None
            reject()
        event(f"nu* = {nu_star}")
        assert res.nu_k + nu_star == res.rhs
        assert res.nu_star == nu_star

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_index_plus_dual_index_near_the_counterexample(self, seed):
        # the strategy above draws nu* = 0 only; around the counterexample
        # nu* = 1 is common
        prob = near_counterexample(np.random.default_rng(seed))
        if prob is None:
            reject()
        try:
            res = conjecture_check(prob)
            nu_star = dual_winding_index(prob)
        except RealAxisZeroError:
            reject()
        if res.agrees is None:
            assert res.n_marginal > 0 and res.nu_star is None
            reject()
        event(f"nu* = {nu_star}")
        assert res.nu_k + nu_star == res.rhs
        assert res.nu_star == nu_star

    def test_dual_index_one_occurs_near_the_counterexample(self):
        found = []
        for seed in range(32):
            prob = near_counterexample(np.random.default_rng(seed))
            if prob is None:
                continue
            res = conjecture_check(prob)
            nu_star = dual_winding_index(prob)
            if res.report.n_marginal == 0:
                assert res.nu_k + nu_star == res.rhs
                assert res.nu_star == nu_star
                found.append(nu_star)
            else:
                assert res.nu_star is None
        assert 1 in found and 0 in found

    def test_holds_where_the_conjecture_fails(self):
        # a passive sheet with nu* = 1 and no marginal zero
        sigma = ConductivityTensor.from_matrix(COUNTEREXAMPLE, nondimensional=True)
        prob = Problem.single_sheet(sigma, COUNTEREXAMPLE_Q)
        res, nu_star = conjecture_check(prob), dual_winding_index(prob)
        assert res.report.counts() == (1, 1, 2, 0) and res.report.n_marginal == 0
        assert (res.nu_k, nu_star, res.agrees) == (0, 1, False)
        assert res.nu_k + nu_star == res.rhs
        assert res.nu_star == nu_star
        assert conjecture_check(prob.with_q(-prob.q)).nu_star == -1


# a lossless left sheet puts zeros of P^L, poles of P^R/P^L, on the axis
POLE_LEFT = ConductivityTensor.diagonal(0.02j, 0.02j, nondimensional=True)
POLE_RIGHT = ConductivityTensor.diagonal(0.02j, 0.02 + 0.02j, nondimensional=True)


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _row_summary(result):
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    if isinstance(result, str):
        return result
    return (result.nu_k, result.rhs, result.agrees, result.report.counts(),
            result.n_marginal, result.nu_star,
            tuple((z.location.real.hex(), z.location.imag.hex(), z.sheet, z.half_plane,
                   z.marginal, repr(z.residual)) for z in result.report.zeros))


@contextlib.contextmanager
def recorded_evaluations():
    """The (xi, rows, values) of every ``pfun`` call of the phase passes
    run in the ``with`` statement, in order; a call that raises is not
    recorded."""
    calls = []
    symbol = spectrum._Block.symbol

    def recording(block, sheet):
        pfun = symbol(block, sheet)

        def recorded(xi, rows):
            vals = pfun(xi, rows)
            calls.append((xi, rows, vals))
            return vals
        return recorded

    with mock.patch.object(spectrum._Block, "symbol", recording):
        yield calls


def _row_points(calls, row):
    """The points and values of one row in the recorded calls, in order."""
    return (np.concatenate([xi[rows == row] for xi, rows, _ in calls]),
            np.concatenate([vals[rows == row] for _, rows, vals in calls]))


def assert_rows_do_not_depend_on_their_block(probs):
    """Each row of a block gives what its one-row call gives: nu, the
    census and its zeros bit for bit, nu* from the P* pass, and the error
    text of a row that fails.  A row that does not fail evaluates P at the
    same points, in the same order and to the same values, in the block
    and alone.  Returns the number of rows that fail."""
    block = [_row_summary(r) for r in conjecture_block(probs)]
    duals = [r if isinstance(r, int) else f"{type(r).__name__}: {r}"
             for r in unwrapped_phase_grid(probs, Sheet.SECOND)[2]]
    with recorded_evaluations() as calls:
        windings = unwrapped_phase_grid(probs, Sheet.FIRST)[2]
    for row, (prob, got, dual) in enumerate(zip(probs, block, duals)):
        assert got == _row_summary(_outcome(conjecture_check, prob))
        assert dual == _outcome(dual_winding_index, prob)
        if isinstance(windings[row], Exception):
            continue
        with recorded_evaluations() as alone:
            nodes, _, (nu,), _ = unwrapped_phase_grid([prob], Sheet.FIRST)
        assert nu == windings[row]
        points, values = _row_points(calls, row)
        alone_points, alone_values = _row_points(alone, 0)
        assert np.array_equal(points, alone_points)
        assert np.array_equal(values, alone_values)
        # the one-row pass ends on every point it evaluated, in order
        assert np.array_equal(nodes, np.sort(alone_points))
    return sum(isinstance(g, str) for g in block)


# |q| where the census quartic overflows, and where q^2 rounds to 0 so that
# the census zero xi = 0 seeds a phase-grid node on the branch point
Q_OVERFLOW = 1e80
Q_UNDERFLOW = 1e-170


class TestCensusFailures:
    def test_census_quartic_that_is_not_finite(self):
        # a tensor of numpy scalars (from_matrix) builds its quartic in
        # numpy arithmetic: its overflow is the same classified error, with
        # no RuntimeWarning on the way
        for sigma in (make_sigma("D"),
                      ConductivityTensor.from_matrix(make_sigma("D").as_matrix(),
                                                     nondimensional=True)):
            prob = Problem.single_sheet(sigma, Q_OVERFLOW)
            for call in (bulk_zeros, winding_index, dual_winding_index, conjecture_check,
                         build_log_kernel):
                with pytest.raises(CensusOverflowError, match="census quartic not finite"):
                    call(prob)

    def test_branch_point_on_the_phase_grid(self):
        prob = Problem.single_sheet(make_sigma("D"), Q_UNDERFLOW)
        assert [z.location for z in bulk_zeros(prob).zeros if z.marginal] == [0j, 0j]
        for call in (winding_index, conjecture_check, build_log_kernel):
            with pytest.raises(BranchPointError, match="branch point"):
                call(prob)


class TestBlocks:
    # CLI index and sweep rows run as blocks: one stacked census, one phase
    # pass over flat (row, xi) nodes; a row must not see its neighbours

    @pytest.mark.parametrize("variant", ["single", "interface", "two-sheet"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_a_row_does_not_depend_on_its_block(self, variant, data):
        probs = [data.draw(problems(variant)) for _ in range(data.draw(st.integers(1, 5)))]
        if variant == "two-sheet":
            probs += [Problem.two_sheet(POLE_LEFT, POLE_RIGHT, q) for q in (-2.0, -2.1)]
        elif variant == "single":
            # sigma_xx = 0 fails the census; a census root on +iq is marginal
            probs += [Problem.single_sheet(ConductivityTensor.diagonal(0, 0.2j, nondimensional=True),
                                           12.0 + 0.1j),
                      Problem.single_sheet(BRANCH_POINT_SIGMA, BRANCH_POINT_Q)]
        failed = assert_rows_do_not_depend_on_their_block(data.draw(st.permutations(probs)))
        event(f"{failed} error rows of {len(probs)}")

    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_a_row_does_not_depend_on_its_block_near_the_counterexample(self, seeds):
        probs = [near_counterexample(np.random.default_rng(seed)) for seed in seeds]
        probs = [p for p in probs if p is not None]
        if not probs:
            reject()
        failed = assert_rows_do_not_depend_on_their_block(probs)
        event(f"{failed} error rows of {len(probs)}")

    def test_rows_must_have_as_many_signed_sheets(self):
        # one flat pass composes the same sheets at every node
        single = Problem.single_sheet(make_sigma("D"), 12.0 + 0.1j)
        pair = Problem.two_sheet(make_sigma("C"), make_sigma("D"), 12.0 + 0.1j)
        with pytest.raises(ValueError, match="same number of signed sheets"):
            spectrum._Block([single, pair])

    def test_pole_rows_fail_alone(self):
        probs = [Problem.two_sheet(POLE_LEFT, POLE_RIGHT, -2.0),
                 Problem.two_sheet(make_sigma("C"), make_sigma("D"), 12.0 + 0.1j),
                 Problem.two_sheet(POLE_LEFT, POLE_RIGHT, -2.1)]
        results = conjecture_block(probs)
        assert "pole on contour" in str(results[0]) and "pole on contour" in str(results[2])
        assert results[1].nu_k == conjecture_check(probs[1]).nu_k

    def test_a_pole_that_no_node_hits_ends_its_row(self):
        # bisection narrows the step around the pole to adjacent floats,
        # where a midpoint repeats an end: the row fails there instead of
        # refining for ever.  Run in a child process, so that a regression
        # fails on the timeout instead of hanging the suite
        code = ("import sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import pytest\n"
                "from edgeplasmon import Classification, Problem, RealAxisZeroError, solve\n"
                "from edgeplasmon import winding_index\n"
                "from test_spectrum import POLE_LEFT, POLE_RIGHT, make_sigma\n"
                "from test_spectrum import assert_rows_do_not_depend_on_their_block\n"
                "prob = Problem.two_sheet(POLE_LEFT, POLE_RIGHT, -2.105890119346925)\n"
                "with pytest.raises(RealAxisZeroError, match='phase refinement diverged'):\n"
                "    winding_index(prob)\n"
                "sol = solve(prob, prob.q)\n"
                "assert sol.classification is Classification.NO_SOLUTION\n"
                "assert 'phase refinement diverged' in sol.message\n"
                "good = [Problem.two_sheet(make_sigma('C'), make_sigma('D'), q)\n"
                "        for q in (11.0 + 0.1j, 12.0 + 0.1j)]\n"
                "assert assert_rows_do_not_depend_on_their_block(\n"
                "    [good[0], prob, good[1]]) == 1\n")
        subprocess.run([sys.executable, "-c", code, os.path.dirname(__file__)],
                       env=os.environ.copy(), check=True, timeout=60)

    @pytest.mark.parametrize("variant", ["single", "two-sheet"])
    def test_a_census_that_is_not_finite_fails_its_row_alone(self, variant):
        # one non-finite companion matrix makes eigvals refuse the stack;
        # solved matrix by matrix, only that row fails, on both passes
        q_d = 16.438 + 0.164j
        make = ((lambda q: Problem.single_sheet(make_sigma("D"), q)) if variant == "single"
                else (lambda q: Problem.two_sheet(make_sigma("C"), make_sigma("D"), q)))
        probs = [make(q) for q in (0.75 * q_d, Q_OVERFLOW, q_d, -0.75 * q_d)]
        results = conjecture_block(probs)
        assert isinstance(results[1], CensusOverflowError)
        assert isinstance(unwrapped_phase_grid(probs, Sheet.SECOND)[2][1], CensusOverflowError)
        assert all(not isinstance(r, Exception) for r in results[:1] + results[2:])
        assert assert_rows_do_not_depend_on_their_block(probs) == 1

    def test_a_block_solves_its_census_once(self, monkeypatch):
        # one eigvals stack per block serves the census and the phase pass,
        # and a two-sheet kernel solves both sheets' quartics in one stack
        stacks = []
        eigvals = np.linalg.eigvals

        def counted(a):
            stacks.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        q_d = 16.438 + 0.164j
        conjecture_block([Problem.single_sheet(make_sigma("D"), f * q_d) for f in (0.75, 1, -1)])
        assert stacks == [(3, 4, 4)]
        stacks.clear()
        kernel = build_log_kernel(Problem.two_sheet(make_sigma("C"), make_sigma("D"), 12 + 0.1j))
        assert stacks == [(2, 4, 4)]
        assert len(kernel.census) == 2

    def test_the_node_cap_stops_its_row_alone(self, monkeypatch):
        # A, C and C at 0.85 q_C and 0.75 q_D: the first two finish on
        # their 276 start nodes, 0.75 q_D refines to 281 nodes and 0.85 q_C
        # to 288, past a cap of 280
        monkeypatch.setattr(spectrum, "PHASE_GRID_MAX_NODES", 280)
        probs = [Problem.single_sheet(make_sigma(c), q) for c, q in (
            ("A", 12.172), ("D", 0.75 * (16.438 + 0.164j)), ("C", 21.657 + 0.217j),
            ("C", 0.85 * (21.657 + 0.217j)))]
        windings = unwrapped_phase_grid(probs, Sheet.FIRST)[2]
        assert windings[:3] == [0, -1, 0]
        assert "phase refinement diverged" in str(windings[3])
        assert assert_rows_do_not_depend_on_their_block(probs) == 1

    def test_pole_rows_in_a_later_evaluation_run(self):
        # more start nodes than one evaluation run holds: the pole rows at
        # the end fail inside a later run, and the rows before them go on
        qs = np.linspace(11.0, 13.0, 16) + 0.1j
        probs = [Problem.two_sheet(make_sigma("C"), make_sigma("D"), q) for q in qs]
        probs += [Problem.two_sheet(POLE_LEFT, POLE_RIGHT, q) for q in (-2.0, -2.1)]
        assert len(probs) * PHASE_GRID_START > EVAL_RUN
        results = conjecture_block(probs)
        assert all("pole on contour" in str(r) for r in results[-2:])
        assert all(isinstance(r.nu_k, int) for r in results[:-2])
        assert assert_rows_do_not_depend_on_their_block(probs) == 2

    def test_the_phase_pass_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use (about 14 ms); the start
        # nodes are merged with a sort instead.  np.median imports it too:
        # the two-sheet series takes its rounding floor with np.partition
        code = ("import sys\n"
                "from edgeplasmon import Problem, build_log_kernel, conjecture_check, rotate\n"
                "from edgeplasmon import ConductivityTensor, solve\n"
                "b = ConductivityTensor.diagonal(0.001 + 0.1j, 0.002 + 0.2j, nondimensional=True)\n"
                "prob = Problem.single_sheet(rotate(b, 1.2566370614359172), 21.657 + 0.217j)\n"
                "build_log_kernel(prob)\n"
                "conjecture_check(prob.with_q(0.85 * prob.q))\n"
                "a = ConductivityTensor.diagonal(0.2j, 0.2j, nondimensional=True)\n"
                "left = ConductivityTensor.diagonal(0.0005 + 0.05j, 0.0005 + 0.05j,"
                " nondimensional=True)\n"
                "assert solve(Problem.two_sheet(left, a, 12.0), 12.0).converged\n"
                "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env=os.environ.copy(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
