import math

import numpy as np
import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

from edgeplasmon import (
    AssignmentRule,
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
    split_coefficients,
    winding_index,
)
from edgeplasmon.spectrum import (
    CLASSIFY_RESIDUAL,
    MARGINAL_BAND,
    HalfPlane,
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
        c = split_coefficients(make_sigma("C"), 21.657 + 0.217j)
        assert c.c_plus == pytest.approx(0.5)
        assert c.c_minus == pytest.approx(0.5)

    def test_sum_is_one_exactly(self, rng):
        for _ in range(50):
            sigma = random_passive_tensor(rng)
            q = complex(rng.normal(scale=10), rng.normal())
            if abs(q.real) < 0.5:
                continue
            c = split_coefficients(sigma, q)
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
        c = split_coefficients(sbar, 40.0)
        assert abs(c.c_plus / c.c_minus + 1.0) < 0.05
        # pairing consistency: C coupled to the same disc as the roots
        r = quadratic_roots(sbar, 40.0)
        t = (2 * c.c_plus - 1.0) * r.disc
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
        # a lossless left sheet whose P^L vanishes at a phase-grid node
        left = ConductivityTensor.diagonal(0.02j, 0.02j, nondimensional=True)
        right = ConductivityTensor.diagonal(0.02j, 0.02 + 0.02j, nondimensional=True)
        prob = Problem.two_sheet(left, right, -2.0)
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

    def test_stable_under_refinement(self):
        prob = Problem.single_sheet(make_sigma("C"), 0.85 * (21.657 + 0.217j))
        from edgeplasmon.spectrum import problem_scale
        scale = problem_scale(prob)

        def pfun(x):
            return p_of_xi(prob, x, Sheet.FIRST)

        for step in (0.5 * math.pi, 0.25 * math.pi):
            xs, ang, _ = unwrapped_phase_grid(pfun, scale, max_step_rad=step)
            assert round((ang[-1] - ang[0]) / (2 * math.pi)) == -1

    def test_real_axis_zero_detected(self):
        # lossless sheet with q below the SPP wavenumber: symbol vanishes on axis
        with pytest.raises(RealAxisZeroError):
            winding_index(Problem.single_sheet(make_sigma("A"), 8.0))

    def test_dual_index_zero_on_reference_cases(self):
        for name, q in (("C", 0.85 * (21.657 + 0.217j)),
                        ("D", 0.75 * (16.438 + 0.164j))):
            assert dual_winding_index(
                Problem.single_sheet(make_sigma(name), q)) == 0


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
        left, right = two.sides()
        assert winding_index(right) == -1


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
            reject()
        event(f"nu* = {nu_star}")
        assert res.nu_k + nu_star == res.rhs

    def test_holds_where_the_conjecture_fails(self):
        # a passive sheet with nu* = 1 and no marginal zero
        sigma = ConductivityTensor(0.1938 - 0.2335j, 0.2292 + 0.0461j,
                                   0.1549 + 0.1317j, 0.1998 + 0.2649j,
                                   nondimensional=True)
        prob = Problem.single_sheet(sigma, -16.27 - 0.68j)
        res, nu_star = conjecture_check(prob), dual_winding_index(prob)
        assert res.report.counts() == (1, 1, 2, 0) and res.report.n_marginal == 0
        assert (res.nu_k, nu_star, res.agrees) == (0, 1, False)
        assert res.nu_k + nu_star == res.rhs
