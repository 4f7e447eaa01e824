"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time
import warnings

import numpy as np
from scipy import constants

from edgeplasmon import (
    AmbientMedium,
    ConductivityTensor,
    LongwaveParams,
    NonzeroIndexError,
    Problem,
    RealAxisZeroError,
    build_log_kernel,
    bulk_zeros,
    edge_limits,
    f_pm_direct,
    f_pm_mellin,
    longwave_q,
    magneto_hydrodynamic,
    nondimensionalize,
    p_of_xi,
    residual,
    solve,
    vm_isotropic_residual,
    winding_index,
)
from conftest import make_sigma


def report(num, detail):
    print(f"\nACCEPTANCE CRITERION {num:>2}: PASS  ({detail})")


def test_criterion_01_reference_case(solutions):
    """Remark-5(i) sheet: q = 12.172 within 0.5%, nu_K = 0, solve < 30 s."""
    t0 = time.perf_counter()
    sol = solve(Problem.single_sheet(make_sigma("A"), 12.0), 12.0)
    wall = time.perf_counter() - t0
    assert sol.converged
    rel = abs(sol.q - 12.172) / 12.172
    assert rel < 0.005
    assert sol.nu_k_at_solution == 0
    assert wall < 30.0
    report(1, f"q = {sol.q.real:.6f}, rel err {rel:.2e}, {wall:.2f} s")


def test_criterion_02_anisotropic_case(solutions):
    sol = solutions["B"]
    ref = 13.928 + 0.140j
    re_err = abs(sol.q.real - ref.real) / abs(ref.real)
    im_err = abs(sol.q.imag - ref.imag) / abs(ref.imag)
    assert re_err < 0.01 and im_err < 0.01
    census = sol.census
    assert census.counts() == (2, 2, 0, 0)
    assert sol.nu_k_at_solution == 0
    report(2, f"q = {sol.q:.6f}, census {census.counts()}")


def test_criterion_03_rotated_case(solutions):
    sol = solutions["C"]
    ref = 21.657 + 0.217j
    re_err = abs(sol.q.real - ref.real) / abs(ref.real)
    im_err = abs(sol.q.imag - ref.imag) / abs(ref.imag)
    assert re_err < 0.01 and im_err < 0.01
    assert sol.census.counts() == (1, 1, 1, 1)
    assert sol.nu_k_at_solution == 0
    report(3, f"q = {sol.q:.6f}, census {sol.census.counts()}")


def test_criterion_04_appendix_b_case(solutions):
    sol = solutions["D"]
    ref = 16.438 + 0.164j
    re_err = abs(sol.q.real - ref.real) / abs(ref.real)
    im_err = abs(sol.q.imag - ref.imag) / abs(ref.imag)
    assert re_err < 0.01 and im_err < 0.01
    assert sol.nu_k_at_solution == 0
    scaled = Problem.single_sheet(make_sigma("D"), 0.75 * sol.q)
    nu = winding_index(scaled)
    census = bulk_zeros(scaled)
    assert nu == -1
    assert census.counts() == (0, 3, 1, 0)
    report(4, f"q = {sol.q:.6f}; at 0.75 q: nu = {nu}, census {census.counts()}")


def test_criterion_05_appendix_a_case(solutions):
    q_sol = solutions["C"].q
    sigma = make_sigma("C")
    plus = Problem.single_sheet(sigma, 0.85 * q_sol)
    assert winding_index(plus) == -1
    assert bulk_zeros(plus).counts() == (0, 2, 1, 1)
    minus = Problem.single_sheet(sigma, -0.85 * q_sol)
    assert winding_index(minus) == 1
    report(5, "nu(-0.85 q) = +1, nu(0.85 q) = -1, census (0,2,1,1)")


def test_criterion_06_conjecture_sweep(solutions):
    """>= 200 (tensor, q) points: nu equals the census half-integer
    combination at every non-marginal point; nu(-q) = -nu(q) throughout."""
    t0 = time.perf_counter()
    base = ConductivityTensor.diagonal(0.001 + 0.1j, 0.002 + 0.2j,
                                       nondimensional=True)
    from edgeplasmon import rotate

    q_base = solutions["D"].q
    factors = np.linspace(0.3, 2.0, 21)
    checked = skipped = 0
    for phi_over_pi in np.arange(0.0, 0.95, 0.1):
        sigma = rotate(base, phi_over_pi * math.pi) if phi_over_pi else base
        for fac in factors:
            q = fac * q_base
            prob = Problem.single_sheet(sigma, q)
            try:
                nu = winding_index(prob)
                nu_m = winding_index(prob.with_q(-q))
                census = bulk_zeros(prob)
            except RealAxisZeroError:
                skipped += 1  # continuum boundary: symbol zero on the contour
                continue
            assert nu_m == -nu, f"reflection fails at phi={phi_over_pi}pi, q={q}"
            if census.n_marginal:
                skipped += 1
                continue
            assert census.conjecture_rhs == nu, \
                f"conjecture fails at phi={phi_over_pi}pi, q={q}: " \
                f"nu={nu}, census={census.counts()}"
            checked += 1
    wall = time.perf_counter() - t0
    assert checked >= 200
    assert wall < 600.0
    report(6, f"{checked} points agree ({skipped} marginal/boundary skipped), "
              f"{wall:.1f} s single-worker")


def test_criterion_07_factorization_identity(root_problems, root_kernels):
    """exp(Q+(x+i d) + Q-(x-i d)) reproduces P(x) to 1e-2 at d = 1e-4,
    at least 10x better at d = 1e-5, over 1000 grid points."""
    details = []
    for name in ("A", "C"):
        prob, kernel = root_problems[name], root_kernels[name]
        table = kernel.cauchy_table()
        xs = np.linspace(-3.0 * abs(prob.q), 3.0 * abs(prob.q), 1000)
        p_ref = p_of_xi(prob, xs)
        errs = {}
        for delta in (1e-4, 1e-5):
            q_sum = table.phi(xs + 1j * delta) - table.phi(xs - 1j * delta)
            errs[delta] = float(np.max(np.abs(np.exp(q_sum) - p_ref)
                                       / np.abs(p_ref)))
        assert errs[1e-4] < 1e-2, name
        assert errs[1e-5] <= errs[1e-4] / 10.0, name
        details.append(f"{name}: {errs[1e-4]:.2e} -> {errs[1e-5]:.2e}")
    report(7, "; ".join(details))


def test_criterion_08_isotropic_cross_check():
    """General residual and the independent tanh form locate the same root."""
    sigma = ConductivityTensor(0.15j + 0.001, -0.05j - 0.0005,
                               0.05j + 0.0005, 0.15j + 0.001,
                               nondimensional=True)
    sol = solve(Problem.single_sheet(sigma, 14.0 - 3.0j), 14.0 - 3.0j)
    assert sol.converged

    def vm(q):
        return vm_isotropic_residual(Problem.single_sheet(sigma, q))

    q0, q1 = sol.q * 1.02, sol.q * 0.99
    f0, f1 = vm(q0), vm(q1)
    for _ in range(50):
        if abs(f1) < 1e-12:
            break
        q0, f0, q1 = q1, f1, q1 - f1 * (q1 - q0) / (f1 - f0)
        f1 = vm(q1)
    rel = abs(q1 - sol.q) / abs(sol.q)
    assert rel < 1e-6
    report(8, f"roots agree to {rel:.2e}")


def magneto_sbar(ratio, omega=2 * math.pi * 1e9, n0=1.18e15):
    b0 = ratio * omega * constants.m_e / constants.e
    med = AmbientMedium.vacuum(omega)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return nondimensionalize(
            magneto_hydrodynamic(omega=omega, n0=n0, b0=b0), med)


def test_criterion_09_long_wavelength():
    sbar = magneto_sbar(100.0)
    q_lw = longwave_q(sbar)
    f_full = abs(residual(Problem.single_sheet(sbar, q_lw)))
    assert f_full < 0.05
    rels = []
    for qb in (1e-2, 1e-3, 1e-4):
        q = complex(qb / (0.5j * complex(sbar.xx)))
        lw = LongwaveParams.from_problem(Problem.single_sheet(sbar, q))
        fd, fm = f_pm_direct(lw), f_pm_mellin(lw)
        rels.append(max(abs(fd[0] - fm[0]) / abs(fd[0]),
                        abs(fd[1] - fm[1]) / abs(fd[1])))
    assert rels[1] <= 0.02
    shrink = abs(1e-3 * math.log(1e-3)) / abs(1e-2 * math.log(1e-2))
    assert rels[1] / rels[0] <= shrink
    assert rels[2] / rels[1] <= abs(1e-4 * math.log(1e-4)) / abs(1e-3 * math.log(1e-3))
    report(9, f"|F| = {f_full:.2e} at q = {q_lw.real:.3f}; "
              f"Mellin rel errs {rels[0]:.1e}, {rels[1]:.1e}, {rels[2]:.1e}")


def test_criterion_10_edge_continuity(root_problems, root_kernels):
    details = []
    for name in "ABCD":
        prob, kernel = root_problems[name], root_kernels[name]
        el = edge_limits(prob, kernel)
        gap = abs(el.phi_plus - el.phi_minus)
        assert gap < 1e-3, name
        assert abs(el.divergence_coefficient) < 1e-3, name
        off = prob.with_q(0.8 * prob.q)
        try:
            el_off = edge_limits(off, build_log_kernel(off))
            disc = abs(el_off.divergence_coefficient)
            assert disc > 1e-2, name
            tag = f"{disc:.2f}"
        except (RealAxisZeroError, NonzeroIndexError) as exc:
            # 0.8 q leaves the discrete region entirely (continuum boundary
            # for the lossless sheet, nu = -1 pocket for case D): no
            # dispersion relation exists there, which is discrimination a
            # fortiori; check the coefficient at 0.9 q instead.
            near = prob.with_q(0.9 * prob.q)
            el_off = edge_limits(near, build_log_kernel(near))
            assert abs(el_off.divergence_coefficient) > 1e-2, name
            tag = f"{type(exc).__name__} at 0.8q, {abs(el_off.divergence_coefficient):.2f} at 0.9q"
        details.append(f"{name}: gap {gap:.1e}, off-root {tag}")
    report(10, "; ".join(details))


def test_criterion_11_two_sheet_reduction(solutions):
    zero = ConductivityTensor.diagonal(0, 0, nondimensional=True)
    sol = solve(Problem.two_sheet(zero, make_sigma("A"), 12.0), 12.0)
    assert sol.converged
    rel = abs(sol.q - solutions["A"].q) / abs(solutions["A"].q)
    assert rel < 1e-6
    report(11, f"A(q) root matches single-sheet root to {rel:.2e}")


def test_criterion_12_interface_variant(solutions):
    sigma = make_sigma("A")
    # eps_r1 = eps_r2 = 1: kernel factor 1, bit-identical to uniform medium
    uniform = solve(Problem.single_sheet(sigma, 12.0), 12.0)
    same = solve(Problem.interface(sigma, 12.0, 1.0, 1.0), 12.0)
    assert same.q == uniform.q
    shifted = solve(Problem.interface(sigma, 24.0, 2.0, 2.0), 24.0)
    assert shifted.converged
    # q_breve = i sigma_xx q sg / (eps_sum): the eps_sum = 4 problem maps to
    # the uniform one under q -> q * eps_sum / 2
    predicted = 2.0 * solutions["A"].q
    rel = abs(shifted.q - predicted) / abs(predicted)
    assert rel < 0.05
    report(12, f"eps_sum=2 exact; eps_sum=4 root {shifted.q.real:.4f} vs "
               f"predicted {predicted.real:.4f} (rel {rel:.1e})")
