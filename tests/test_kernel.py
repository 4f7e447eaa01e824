import numpy as np
import pytest

from edgeplasmon import (
    BranchPointError,
    ConductivityTensor,
    Problem,
    Sheet,
    Variant,
    dp_dxi,
    khat,
    p_of_xi,
    quadratic_roots,
)
from conftest import make_sigma


class TestKhat:
    def test_at_origin(self):
        assert khat(0.0, 5.0 - 0.1j) == pytest.approx(0.5 / (5.0 - 0.1j))

    def test_three_four_five(self):
        assert khat(4.0, 3.0) == pytest.approx(0.1)

    def test_large_xi_decay(self):
        xi = np.array([1e3, 1e5, 1e7])
        vals = khat(xi, 2.0)
        assert vals == pytest.approx(0.5 / xi, rel=1e-5)

    def test_branch_point(self):
        with pytest.raises(BranchPointError):
            khat(2j, 2.0)


class TestSymbol:
    def test_empty_sheet(self):
        prob = Problem.single_sheet(
            ConductivityTensor.diagonal(0, 0, nondimensional=True), 3.0)
        xi = np.linspace(-20, 20, 41)
        assert np.all(p_of_xi(prob, xi) == 1.0)

    def test_vanishes_nowhere_but_one_at_quadratic_roots(self):
        # numerator polynomial vanishes at its own roots: P(xi^+-) = 1
        prob = Problem.single_sheet(make_sigma("C"), 21.657 + 0.217j)
        r = quadratic_roots(prob.sigma, prob.q)
        for xi in (r.xi_plus, r.xi_minus):
            assert complex(p_of_xi(prob, xi)) == pytest.approx(1.0, abs=1e-10)

    def test_evenness_when_off_sum_vanishes(self):
        prob = Problem.single_sheet(make_sigma("B"), 13.928 + 0.140j)
        xi = np.linspace(-40, 40, 201) + 0.3j
        assert np.max(np.abs(p_of_xi(prob, xi) - p_of_xi(prob, -xi))) < 1e-14

    def test_case_b_has_four_symmetric_first_sheet_zeros(self):
        from edgeplasmon import bulk_zeros
        prob = Problem.single_sheet(make_sigma("B"), 13.928 + 0.140j)
        rep = bulk_zeros(prob)
        assert (rep.n_plus, rep.n_minus) == (2, 2)
        locs = sorted((z.location for z in rep.zeros if not z.marginal),
                      key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        assert locs[0] == pytest.approx(-locs[-1], rel=1e-9)

    def test_sigma_to_zero_limit(self):
        sigma = make_sigma("B")
        xi = np.linspace(-15, 15, 31) + 0.5j
        for t in (1e-2, 1e-4, 1e-6):
            prob = Problem.single_sheet(sigma.scaled(t), 9.0 + 0.1j)
            assert np.max(np.abs(p_of_xi(prob, xi) - 1.0)) < 40.0 * t

    def test_large_xi_growth_rate(self):
        prob = Problem.single_sheet(make_sigma("B"), 13.928 + 0.140j)
        xi = np.array([1e4, 1e6, 1e8])
        dev = np.abs(np.abs(p_of_xi(prob, xi))
                     / (np.abs(prob.sigma.xx) * xi / 2.0) - 1.0)
        assert dev[0] > dev[1] > dev[2]  # converges like 1/|xi|
        assert dev[2] < 1e-6

    def test_dual_symbol_quartic_reconstruction(self):
        # -ksp^2 (xi^2+q^2) P P* = [(xi-xi+)(xi-xi-)]^2 - ksp^2 (xi^2+q^2);
        # the printed single-power variant is dimensionally inconsistent and
        # fails pointwise, the squared form holds to rounding.
        prob = Problem.single_sheet(make_sigma("C"), 21.657 + 0.217j)
        r = quadratic_roots(prob.sigma_eff, prob.q)
        ksp = prob.ksp
        xi = np.linspace(-35, 35, 113) + 0.41j
        w2 = xi ** 2 + prob.q ** 2
        lhs = -ksp ** 2 * w2 * p_of_xi(prob, xi, Sheet.FIRST) \
            * p_of_xi(prob, xi, Sheet.SECOND)
        rhs = ((xi - r.xi_plus) * (xi - r.xi_minus)) ** 2 - ksp ** 2 * w2
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12
        single_power = (xi - r.xi_plus) * (xi - r.xi_minus) - ksp ** 2 * w2
        assert np.max(np.abs(lhs - single_power) / np.abs(lhs)) > 0.5


class TestProblem:
    def test_rejects_imaginary_q(self):
        with pytest.raises(ValueError, match="Re q = 0"):
            Problem.single_sheet(make_sigma("A"), 0.4j)

    def test_rejects_dimensional_tensor(self):
        s = ConductivityTensor.diagonal(1e-4j, 1e-4j, nondimensional=False)
        with pytest.raises(ValueError, match="nondimensional"):
            Problem.single_sheet(s, 10.0)

    def test_spp_wavenumber_scale(self):
        # the nondimensional TM bulk-SPP wavenumber 2i/sigma_xx; the
        # reference sheet with sigma_xx = 0.2i gives exactly 10
        prob = Problem.single_sheet(make_sigma("A"), 12.172)
        assert prob.ksp == pytest.approx(10.0)
        interf = Problem.interface(make_sigma("A"), 12.172, 2.0, 2.0)
        assert interf.ksp == pytest.approx(20.0)

    def test_interface_kernel_factor(self):
        prob = Problem.interface(make_sigma("A"), 12.0, 1.0, 3.0)
        assert prob.kernel_factor == pytest.approx(0.5)
        # G-hat replaces K-hat: bracket scaled by 2/(e1+e2)
        xi = np.linspace(-9, 9, 19) + 0.2j
        manual = 1.0 + 1j * (make_sigma("A").xx * (xi ** 2 + prob.q ** 2)) \
            / (1.0 + 3.0) / np.sqrt(xi ** 2 + prob.q ** 2)
        assert p_of_xi(prob, xi) == pytest.approx(manual)

    def test_interface_unit_permittivities_match_single_sheet(self):
        single = Problem.single_sheet(make_sigma("C"), 20.0 + 0.2j)
        interf = Problem.interface(make_sigma("C"), 20.0 + 0.2j, 1.0, 1.0)
        xi = np.linspace(-25, 25, 51) + 0.1j
        assert np.array_equal(p_of_xi(single, xi), p_of_xi(interf, xi))


ZERO = ConductivityTensor.diagonal(0, 0, nondimensional=True)


class TestDerivative:
    @pytest.mark.parametrize("variant", ["single", "interface", "two-sheet",
                                         "zero-left", "zero-right"])
    def test_against_central_difference(self, variant, rng):
        q = 21.657 + 0.217j
        prob = {
            "single": Problem.single_sheet(make_sigma("C"), q),
            "interface": Problem.interface(make_sigma("C"), q, 1.0, 4.0),
            "two-sheet": Problem.two_sheet(make_sigma("B"), make_sigma("C"), q),
            "zero-left": Problem.two_sheet(ZERO, make_sigma("A"), q),
            "zero-right": Problem.two_sheet(make_sigma("A"), ZERO, q),
        }[variant]
        # off-axis points well away from the branch points +-iq and the cut
        xi = rng.uniform(-40.0, 40.0, 200) + 1j * rng.uniform(-5.0, 5.0, 200)
        h = 1e-4
        diff = (p_of_xi(prob, xi + h) - p_of_xi(prob, xi - h)) / (2.0 * h)
        got = dp_dxi(prob, xi)
        assert np.max(np.abs(got - diff) / np.abs(got)) < 1e-7


class TestTwoSheet:
    def test_left_vacuum_ratio_reduces_to_single(self):
        two = Problem.two_sheet(ZERO, make_sigma("A"), 12.0)
        single = Problem.single_sheet(make_sigma("A"), 12.0)
        xi = np.linspace(-30, 30, 61) + 0.05j
        for sheet in Sheet:
            assert np.array_equal(p_of_xi(two, xi, sheet), p_of_xi(single, xi, sheet))

    def test_right_vacuum_ratio_is_the_reciprocal(self):
        two = Problem.two_sheet(make_sigma("A"), ZERO, 12.0)
        single = Problem.single_sheet(make_sigma("A"), 12.0)
        xi = np.linspace(-30, 30, 61) + 0.05j
        for sheet in Sheet:
            assert np.array_equal(p_of_xi(two, xi, sheet), 1.0 / p_of_xi(single, xi, sheet))

    def test_difference_tensor(self):
        two = Problem.two_sheet(make_sigma("B"), make_sigma("A"), 11.0)
        expected = make_sigma("A").as_matrix() - make_sigma("B").as_matrix()
        assert two.sigma.as_matrix() == pytest.approx(expected)
        assert two.variant is Variant.TWO_SHEET

    def test_equal_sheets_rejected(self):
        with pytest.raises(ValueError, match="sigma_L != sigma_R"):
            Problem.two_sheet(make_sigma("A"), make_sigma("A"), 12.0)

    def test_signed_sheets(self):
        two = Problem.two_sheet(make_sigma("B"), make_sigma("A"), 11.0)
        (s_right, right), (s_left, left) = two.signed_sheets()
        assert (s_right, s_left) == (1, -1)
        assert left.variant is right.variant is Variant.SINGLE_SHEET
        assert left.sigma.isclose(make_sigma("B"), 0)
        assert right.sigma.isclose(make_sigma("A"), 0)
        single = Problem.single_sheet(make_sigma("A"), 11.0)
        assert single.signed_sheets() == ((1, single),)

    def test_signed_sheets_built_once(self):
        # the two sheets are built once per problem, and the cache is not
        # a field: equality, hashing, repr and with_q see only the fields
        two = Problem.two_sheet(make_sigma("B"), make_sigma("A"), 11.0)
        fresh = Problem.two_sheet(make_sigma("B"), make_sigma("A"), 11.0)
        repr_before = repr(two)
        sheets = two.signed_sheets()
        assert two.signed_sheets() is sheets
        assert two == fresh and hash(two) == hash(fresh) and repr(two) == repr_before
        moved = two.with_q(12.0)
        assert moved != two and moved == fresh.with_q(12.0)
        assert [side.q for _, side in moved.signed_sheets()] == [12.0, 12.0]
        assert [side.q for _, side in two.signed_sheets()] == [11.0, 11.0]
