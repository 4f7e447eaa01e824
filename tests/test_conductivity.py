import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import constants

from edgeplasmon import conductivity as cond
from edgeplasmon import (
    AmbientMedium,
    ConductivityTensor,
    magneto_hydrodynamic,
    nondimensionalize,
    redimensionalize,
    rotate,
    validity_check,
)
from edgeplasmon.conductivity import drude


class TestRotate:
    def test_identity(self):
        s = ConductivityTensor.diagonal(1.0 + 2j, 3.0 - 1j)
        r = rotate(s, 0.0)
        assert r.as_matrix() == pytest.approx(s.as_matrix())

    def test_axis_swap(self):
        s = ConductivityTensor.diagonal(1.0 + 2j, 3.0 - 1j)
        r = rotate(s, math.pi / 2)
        assert r.xx == pytest.approx(s.yy)
        assert r.yy == pytest.approx(s.xx)
        assert abs(r.xy) < 1e-15 and abs(r.yx) < 1e-15

    def test_diagonal_entry_formula(self):
        # U(phi) = [[c, s], [-s, c]] gives xy = yx = (b - a) sin cos for
        # diag(a, b); this orientation is pinned by the published census
        # values (see the acceptance suite), not the mirror-image one.
        a, b = 0.001 + 0.1j, 0.002 + 0.2j
        phi = 0.4 * math.pi
        r = rotate(ConductivityTensor.diagonal(a, b), phi)
        expected = (b - a) * math.sin(phi) * math.cos(phi)
        assert r.xy == pytest.approx(expected)
        assert r.yx == pytest.approx(expected)
        assert r.xy == pytest.approx(2.938926261462365e-4 + 2.938926261462365e-2j)

    def test_angle_reduced_mod_pi(self):
        s = ConductivityTensor.diagonal(1.0j, 2.0j)
        with pytest.warns(UserWarning, match="reduced mod pi"):
            r = rotate(s, 1.3 * math.pi)
        assert r.as_matrix() == pytest.approx(rotate(s, 0.3 * math.pi).as_matrix())

    def test_group_law_and_invariants(self, rng):
        s = ConductivityTensor(0.01 + 0.3j, 0.002 - 0.05j, -0.001 + 0.02j,
                               0.02 + 0.6j)
        for _ in range(50):
            p1, p2 = rng.uniform(0, math.pi, size=2)
            lhs = rotate(rotate(s, p1), p2 % math.pi).as_matrix()
            rhs = rotate(s, (p1 + p2) % math.pi).as_matrix()
            assert np.max(np.abs(lhs - rhs)) < 1e-13
            r = rotate(s, p1)
            assert abs(r.trace - s.trace) < 1e-13
            assert abs(r.det - s.det) < 1e-13
            assert abs(r.off_diff - s.off_diff) < 1e-13


class TestMagnetoHydrodynamic:
    def params_for_ratio(self, ratio, omega=2 * math.pi * 1e9, n0=1.18e15):
        b0 = ratio * omega * constants.m_e / constants.e
        return dict(omega=omega, n0=n0, b0=b0)

    def test_antisymmetry_and_diagonal(self):
        s = magneto_hydrodynamic(**self.params_for_ratio(50.0))
        assert s.xy + s.yx == 0
        assert s.xx == s.yy

    def test_gyrotropy_ratio_matches_cyclotron_ratio(self):
        # |(s_xy - s_yx)/D| = |omega_c/omega| with D = sqrt(-4 s_xx^2)
        s = magneto_hydrodynamic(**self.params_for_ratio(100.0))
        d = np.sqrt(complex(s.off_sum ** 2 - 4 * s.xx * s.yy))
        assert abs(s.off_diff / d) == pytest.approx(100.0, rel=1e-12)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="cyclotron frequency vanishes"):
            magneto_hydrodynamic(omega=1e10, n0=1e15, b0=0.0)

    def test_regime_warnings(self):
        with pytest.warns(UserWarning, match="validity window"):
            magneto_hydrodynamic(**self.params_for_ratio(2.0))
        with pytest.warns(UserWarning, match="collisions"):
            magneto_hydrodynamic(**self.params_for_ratio(50.0), tau=1e-12)

    def test_passive(self):
        s = magneto_hydrodynamic(**self.params_for_ratio(40.0))
        assert s.is_passive(tol=1e-9)


class TestPhysicalConstants:
    def test_inlined_codata_values_match_scipy(self):
        assert cond.EPSILON_0 == constants.epsilon_0
        assert cond.MU_0 == constants.mu_0
        assert cond.ELEMENTARY_CHARGE == constants.e
        assert cond.ELECTRON_MASS == constants.m_e

    def test_package_import_does_not_load_scipy(self):
        code = ("import sys, edgeplasmon, edgeplasmon.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "[]"


class TestNondimensionalize:
    def test_definition(self):
        med = AmbientMedium.vacuum(omega=1e12)
        scale = math.sqrt(constants.epsilon_0 / constants.mu_0)
        s = ConductivityTensor.diagonal(0.2j * scale, 0.2j * scale)
        sbar = nondimensionalize(s, med)
        assert sbar.nondimensional
        assert sbar.xx == pytest.approx(0.2j, rel=1e-14)

    def test_round_trip(self):
        med = AmbientMedium.relative(2.25, 1.0, omega=3e11)
        s = ConductivityTensor(1e-4 + 2e-3j, -3e-5j, 3e-5j, 2e-4 + 4e-3j)
        back = redimensionalize(nondimensionalize(s, med), med)
        assert np.max(np.abs(back.as_matrix() - s.as_matrix())) < 1e-15 * s.frobenius

    def test_invalid_medium(self):
        with pytest.raises(ValueError):
            AmbientMedium(epsilon=-1.0, mu=constants.mu_0, omega=1.0)


class TestValidityCheck:
    def test_zero_tensor(self):
        rep = validity_check(ConductivityTensor.diagonal(0, 0, nondimensional=True))
        assert rep.sigma_sharp == 0 and rep.nonretarded_ratio == 0
        assert rep.ok

    def test_reference_sheet(self):
        rep = validity_check(ConductivityTensor.diagonal(0.2j, 0.2j,
                                                         nondimensional=True))
        assert rep.sigma_sharp == pytest.approx(0.2 * math.sqrt(2.0))
        assert rep.nonretarded_ratio == pytest.approx(0.28284271247461906)
        assert rep.ok

    def test_threshold_boundary(self):
        # entries summing |s|^2 = 1 -> ratio 1, warning fires
        v = 0.5
        rep = validity_check(ConductivityTensor(v, v, v, v, nondimensional=True))
        assert rep.nonretarded_ratio == pytest.approx(1.0)
        assert not rep.ok and "marginal" in rep.warnings[0]

    def test_dimensional_ratio(self):
        med = AmbientMedium.vacuum(omega=1e12)
        s = redimensionalize(
            ConductivityTensor.diagonal(0.1j, 0.1j, nondimensional=True), med)
        rep = validity_check(s, med)
        assert rep.nonretarded_ratio == pytest.approx(0.1 * math.sqrt(2.0), rel=1e-12)
        assert rep.scale_length == pytest.approx(rep.nonretarded_ratio / med.k0)


class TestPassivity:
    @pytest.mark.parametrize("b,d,ok", [(0.0, 0.0, True), (0.01, 0.02, True),
                                        (-1e-6, 0.02, False)])
    def test_drude_type(self, b, d, ok):
        s = ConductivityTensor.diagonal(1j * 0.1 + b, 1j * 0.3 + d)
        assert s.is_passive() is ok

    def test_drude_constructor_is_passive(self):
        s = drude(1e12, 5e4, 8e4, tau=1e-11)
        assert s.is_passive()
        assert s.xy == 0 and s.yx == 0
