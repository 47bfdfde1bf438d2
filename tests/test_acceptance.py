"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here, not configurable.
"""

from dataclasses import replace

import numpy as np
import pytest
from helpers import (discrete_dissipator_superop, quantum_jump_matrix, random_rq,
                     steady_state_cramer)

from fanosolve import (DiscretizationSpec, FanoParams, LineshapeDecomposition,
                       build_effective_liouvillian, build_full_lindbladian,
                       build_general, build_heff, decompose, fano_model, fano_profile,
                       two_band_demo_model, general_steady_state, lineshape_sweep,
                       observable, oracle_steady_state, poles, steady_state,
                       survival_probability,
                       three_level_model, transport_rate, two_continua_model,
                       weak_field_rate)
from fanosolve.superop import hamiltonian_superop


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_01_fano_identities():
    for q in (0.5, 1.0, 3.0):
        assert fano_profile(-q, q) == 0.0
        assert abs(fano_profile(1.0 / q, q) - (1 + q * q)) < 1e-12
        for eps in (1e6, -1e6):
            assert abs(fano_profile(eps, q) - 1.0) < 1e-5
    report(1, "profile zero at -q, maximum 1+q^2 at 1/q, unit asymptote")


def test_criterion_02_decomposition_roundtrip():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        rq = random_rq(rng)
        dec = decompose(rq)
        eps = rng.uniform(-50, 50, size=100)
        direct = rq(eps)
        resid = np.abs(dec(eps) - direct) / (1.0 + np.abs(direct))
        worst = max(worst, resid.max())
    assert worst < 1e-10
    # the printed shortcut c0 = a0 - a1*Delta (without the a2*Delta^2 term)
    # does not satisfy the identity once the axis shift is nonzero
    rq = random_rq(np.random.default_rng(7))
    dec = decompose(rq)
    delta = rq.b1 / (2 * rq.b2)
    sigma2 = rq.b0 / rq.b2 - delta**2
    c2 = rq.a2 * sigma2
    bad_c0 = rq.a0 - rq.a1 * delta
    bad_d = bad_c0 / c2 - dec.q**2
    bad = LineshapeDecomposition(dec.Delta, dec.sigma, dec.K_den, dec.c2,
                                 dec.q, bad_d)
    eps = np.linspace(-20, 20, 41)
    bad_resid = np.max(np.abs(bad(eps) - rq(eps)) / (1.0 + np.abs(rq(eps))))
    assert bad_resid > 1e-6
    report(2, f"1000 random round-trips, worst residual {worst:.2e} "
              "(full-substitution c0; the truncated variant fails)")


def test_criterion_03_scattering_rate_law():
    q, om = 1.0, 0.01
    worst = 0.0
    for eps in np.linspace(-5, 5, 101):
        if abs(eps + q) <= 0.1:
            continue
        p = FanoParams(eps, q, om)
        slope = -(survival_probability(p, 50.0) - survival_probability(p, 10.0)) / 40.0
        ref = weak_field_rate(eps, q, om)
        rel = abs(slope - ref) / ref
        worst = max(worst, rel)
    assert worst < 0.02
    report(3, f"finite-difference ionization rate matches the weak-field "
              f"formula, worst deviation {worst * 100:.2f}%")


def test_criterion_04_pole_algebra():
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        p = FanoParams(rng.uniform(-10, 10), rng.uniform(-5, 5),
                       rng.uniform(0, 3))
        pd = poles(p)
        if pd.degenerate:
            continue
        assert abs(pd.z1 + pd.z2 + pd.omega0) < 1e-12 * max(1.0, abs(pd.omega0))
        det = (-1j * p.Omega**2) * (-p.epsilon - 1j) - (p.Omega * (p.q - 1j)) ** 2
        assert abs(pd.z1 * pd.z2 - det) < 1e-12 * max(1.0, abs(det))
        assert abs(pd.a1 + pd.a2 - 1.0) < 1e-12
    # branch swap: relabeling the square root leaves the survival invariant
    ts = np.linspace(0.0, 30.0, 7)
    for _ in range(200):
        p = FanoParams(rng.uniform(-10, 10), rng.uniform(-5, 5),
                       rng.uniform(0, 3))
        pd = poles(p)
        if pd.degenerate:
            continue
        u = pd.a1 * np.exp(-1j * pd.z1 * ts) + pd.a2 * np.exp(-1j * pd.z2 * ts)
        v = pd.a2 * np.exp(-1j * pd.z2 * ts) + pd.a1 * np.exp(-1j * pd.z1 * ts)
        assert np.abs(np.abs(u) ** 2 - np.abs(v) ** 2).max() < 1e-12
    report(4, "Vieta identities, unit residue sum and branch-swap invariance "
              "over 10^4 draws")


def test_criterion_05_rate_hierarchy():
    pd = poles(FanoParams(0.0, 1.0, 0.01))
    ratio = pd.Gamma0 / pd.Gamma1
    assert ratio < 1e-3
    report(5, f"Gamma0/Gamma1 = {ratio:.2e} at Omega = 0.01")


def test_criterion_06_liouvillian_structure():
    rng = np.random.default_rng(6)
    worst_dec = 0.0
    worst_cramer = 0.0
    for _ in range(1000):
        p = FanoParams(rng.uniform(-10, 10), rng.uniform(-3, 3),
                       rng.uniform(0.01, 2.0), rng.uniform(0, 1),
                       Gamma_cg=rng.uniform(0.1, 3.0),
                       Gamma_ce=rng.uniform(0.0, 2.0),
                       gamma_eg=rng.uniform(0, 2))
        eff = build_effective_liouvillian(p)
        rhs = (hamiltonian_superop(build_heff(p)) + quantum_jump_matrix(p)
               + discrete_dissipator_superop(p))
        scale = max(1.0, np.abs(eff.matrix).max())
        worst_dec = max(worst_dec, np.abs(eff.matrix - rhs).max() / scale)
        a = steady_state(p)
        b = steady_state_cramer(p)
        worst_cramer = max(worst_cramer, np.abs(a.rho - b.rho).max(),
                           abs(a.continuum_pops[0] - b.continuum_pops[0]))
    assert worst_dec < 1e-14
    assert worst_cramer < 1e-10
    report(6, f"decomposition identity to {worst_dec:.1e}, Cramer vs "
              f"appended-constraint solve to {worst_cramer:.1e} over 10^3 draws")


def test_criterion_07_lineshape_form_and_dephasing():
    rng = np.random.default_rng(7)
    fit_eps = np.linspace(-10, 10, 11)
    worst = 0.0
    for _ in range(20):
        p = FanoParams(0.0, rng.uniform(-3, 3), rng.uniform(0.1, 0.5),
                       rng.uniform(0, 0.5), Gamma_cg=rng.uniform(0.5, 2.0),
                       gamma_eg=rng.uniform(0, 2))
        sw = lineshape_sweep(p, fit_eps)
        held = rng.uniform(-10, 10, size=50)
        ref = lineshape_sweep(p, held)
        worst = max(worst, sw.fit.held_out_residual(held, ref.values))
    assert worst < 1e-8
    eps = np.linspace(-10, 10, 41)
    base = dict(epsilon=0.0, q=1.5, Omega=0.1, Gamma_e=0.2)
    d0 = lineshape_sweep(FanoParams(**base, gamma_eg=0.0), eps).decomposition.D
    d10 = lineshape_sweep(FanoParams(**base, gamma_eg=10.0), eps).decomposition.D
    assert d10 > d0
    report(7, f"11-point rational fit predicts 50 held-out points to "
              f"{worst:.1e}; Lorentzian weight grows with dephasing "
              f"({d0:.3f} -> {d10:.3f})")


def test_criterion_08_transport():
    rs = [transport_rate(FanoParams(0.4, 1.0, 0.05, 0.1, Gamma_cg=gc))
          for gc in (0.01, 1.0, 100.0)]
    spread = max(abs(r - rs[0]) for r in rs) / abs(rs[0])
    assert spread < 1e-10

    q, om = 1.0, 0.01
    worst = 0.0
    for eps in np.linspace(-5, 5, 101):
        r = transport_rate(FanoParams(eps, q, om, Gamma_e=0.0))
        ref = weak_field_rate(eps, q, om)
        if abs(eps + q) > 0.05:
            rel = abs(r - ref) / ref
            worst = max(worst, rel)
            assert rel < 0.01
        else:
            # at the profile zero the reference vanishes; the residual is
            # the next order in the field
            assert r < 5e-8

    consts = []
    for om in (0.1, 0.03, 0.01):
        worst_abs = max(abs(transport_rate(FanoParams(e, q, om, 0.0))
                            - weak_field_rate(e, q, om))
                        for e in np.linspace(-5, 5, 21))
        consts.append(worst_abs / (om**4 * (1 + q * q) ** 2))
    stability = max(consts) / min(consts)
    assert stability < 1.5
    report(8, f"rate Gamma_c-invariant to {spread:.1e}, matches the "
              f"scattering law to {worst * 100:.2f}%, quartic error constant "
              f"stable within x{stability:.2f}")


def test_criterion_09_recipe_specializations():
    # beta-split quantum jump
    p = FanoParams(0.0, 1.0, 0.3, Gamma_cg=0.75, Gamma_ce=0.25)
    gel = build_general(fano_model(p), omega_L=0.0)
    row = 2.0 * np.array([0.09, 0.3, 0.3, 1.0])
    ref = np.zeros((4, 4))
    ref[0], ref[3] = 0.75 * row, 0.25 * row
    assert np.abs(gel.Ltilde - ref).max() < 1e-14

    # three levels on one continuum
    q1, q2, om, beta, delta, eps = 1.5, 0.8, 0.2, 1.25, 4.0, 0.6
    gel = build_general(three_level_model(q1, q2, om, beta, delta), omega_L=eps)
    ref_h = np.array([
        [-1j * om**2, (q1 - 1j) * om, (q2 - 1j) * om / beta],
        [(q1 - 1j) * om, -eps - 1j, -1j / beta],
        [(q2 - 1j) * om / beta, -1j / beta, -eps + delta - 1j / beta**2]])
    assert np.abs(gel.heff - ref_h).max() < 1e-14
    row9 = 2.0 * np.array([om**2, om, om / beta, om, 1, 1 / beta,
                           om / beta, 1 / beta, 1 / beta**2])
    assert np.abs(gel.Ltilde[0] - row9).max() < 1e-14
    assert np.abs(gel.Ltilde[1:]).max() == 0.0

    # one level on two continua
    q, om1, om2, g1sq, gc1, gc2 = 0.9, 0.25, 0.4, 0.3, 1.3, 0.7
    gel = build_general(two_continua_model(q, om1, om2, g1sq, gc1, gc2),
                        omega_L=0.5)
    g2sq = 1 - g1sq
    ref_h = np.array([
        [-1j * (g1sq * om1**2 + g2sq * om2**2),
         q - 1j * (g1sq * om1 + g2sq * om2)],
        [q - 1j * (g1sq * om1 + g2sq * om2), -0.5 - 1j]])
    assert np.abs(gel.heff - ref_h).max() < 1e-14
    ref_j = np.zeros((4, 4))
    for gsq, om_n in ((g1sq, om1), (g2sq, om2)):
        ref_j[0] += gsq * 2.0 * np.array([om_n**2, om_n, om_n, 1.0])
    assert np.abs(gel.Ltilde - ref_j).max() < 1e-14
    for a, (gsq, om_n, gc) in enumerate(((g1sq, om1, gc1), (g2sq, om2, gc2))):
        ref_c = (2.0 * gsq / gc) * np.array([om_n**2, om_n, om_n, 1.0])
        assert np.abs(gel.C_coeffs[a] - ref_c).max() < 1e-14
    report(9, "all closed-form special-case operators reproduced entrywise "
              "to 1e-14")


def test_criterion_10_oracle_equivalence():
    # Gamma_c = 2 keeps the unit grid spacing of the reference ladder well
    # inside the continuum linewidth (spacing/linewidth resolution is what
    # controls the discretization error; see the convergence study).
    base = FanoParams(0.0, 1.0, 0.05, Gamma_e=0.1, Gamma_cg=2.0)
    eps_points = np.array([-4.0, -2.0, -1.5, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0])
    ladder = [DiscretizationSpec(50.0, 51), DiscretizationSpec(100.0, 101),
              DiscretizationSpec(200.0, 201)]
    mean_errors = []
    ref_rung = (np.nan, np.nan)
    for spec in ladder:
        errs_nc, errs_r = [], []
        for eps in eps_points:
            p = replace(base, epsilon=eps)
            ss = steady_state(p)
            fl = build_full_lindbladian(fano_model(p), spec, omega_L=eps)
            sol = oracle_steady_state(fl)
            nc = sum(sol.reduced.continuum_pops)
            errs_nc.append(abs(nc - ss.continuum_pops[0]) / ss.continuum_pops[0])
            r = observable(fano_model(p), "transport_rate", sol.reduced.rho,
                           sol.reduced.continuum_pops)
            errs_r.append(abs(r - transport_rate(p)) / transport_rate(p))
        mean_errors.append(np.mean(errs_nc))
        ref_rung = (max(errs_nc), max(errs_r))
    # finest rung (the reference spec): both observables within 2e-2 everywhere
    assert ref_rung[0] < 2e-2 and ref_rung[1] < 2e-2
    # ladder: mean population error decreases monotonically
    assert mean_errors[0] > mean_errors[1] > mean_errors[2]
    report(10, f"reference discretization agrees to "
               f"(nc {ref_rung[0] * 100:.2f}%, r {ref_rung[1] * 100:.2f}%) "
               f"at 9 detunings; ladder errors "
               + " > ".join(f"{e * 100:.2f}%" for e in mean_errors))


def test_criterion_11_two_resonance_demonstration():
    model = two_band_demo_model()
    grid = np.linspace(5.0, 25.0, 401)
    tot = np.empty_like(grid)
    for k, om in enumerate(grid):
        ss = general_steady_state(build_general(model, omega_L=float(om)))
        assert np.all(ss.populations >= -1e-10)
        assert np.all(ss.populations <= 1 + 1e-10)
        assert min(ss.continuum_pops) >= -1e-12
        assert abs(ss.total - 1.0) < 1e-10
        tot[k] = sum(ss.continuum_pops)
    peaks = np.flatnonzero((tot[1:-1] > tot[:-2]) & (tot[1:-1] > tot[2:])) + 1
    assert len(peaks) == 2
    step = grid[1] - grid[0]
    off = int(round(1.5 / step))
    asyms = []
    for pk in peaks:
        lo, hi = tot[pk - off], tot[pk + off]
        asym = abs(hi - lo) / max(hi, lo)
        asyms.append(asym)
        assert asym > 0.05
    report(11, f"two asymmetric resonances at omega_L = "
               f"{grid[peaks[0]]:.2f}, {grid[peaks[1]]:.2f} "
               f"(shoulder contrasts {asyms[0]:.2f}, {asyms[1]:.2f}); "
               "all populations physical and normalized")
