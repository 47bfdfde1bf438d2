import logging
from dataclasses import replace

import numpy as np
import pytest
from helpers import (basis_jump, dephasing_diagonal, spectator_model, svd_gap,
                     two_lu_separation)

from fanosolve import (OBSERVABLES, Continuum, DiscretizationSpec, FanoParams, GeneralModel,
                       SteadyStateError, absorption_rate, build_full_lindbladian,
                       build_general, build_heff, continuum_coherences, fano_model,
                       two_band_demo_model, general_steady_state, general_sweep,
                       observable, steady_state, three_level_model, two_continua_model)
from fanosolve.models import _discrete_lindblad
from fanosolve.superop import (_stationary_solve, decay_table, hamiltonian_superop,
                               lindblad_superop, trace_row, vec)


class TestRecipeSpecializations:
    def test_two_level_matches_single_resonance(self):
        p = FanoParams(0.7, 1.3, 0.2, Gamma_e=0.15, Gamma_cg=0.8, Gamma_ce=0.4,
                       gamma_eg=0.3)
        gel = build_general(fano_model(p), omega_L=p.epsilon)
        np.testing.assert_allclose(gel.heff, build_heff(p), rtol=0, atol=1e-15)
        np.testing.assert_allclose(gel.C_coeffs[0],
                                   (2 / 1.2) * np.array([0.04, 0.2, 0.2, 1.0]),
                                   rtol=0, atol=1e-15)

    def test_quantum_jump_beta_split(self):
        p = FanoParams(0.0, 1.0, 0.3, Gamma_cg=0.75, Gamma_ce=0.25)
        gel = build_general(fano_model(p), omega_L=0.0)
        row = 2.0 * np.array([0.09, 0.3, 0.3, 1.0])
        ref = np.zeros((4, 4))
        ref[0] = 0.75 * row
        ref[3] = 0.25 * row
        assert np.abs(gel.Ltilde - ref).max() < 1e-14

    def test_three_level_heff(self):
        q1, q2, om, beta, delta, eps = 1.5, 0.8, 0.2, 1.25, 4.0, 0.6
        gel = build_general(three_level_model(q1, q2, om, beta, delta),
                            omega_L=eps)
        ref = np.array([
            [-1j * om**2, (q1 - 1j) * om, (q2 - 1j) * om / beta],
            [(q1 - 1j) * om, -eps - 1j, -1j / beta],
            [(q2 - 1j) * om / beta, -1j / beta, -eps + delta - 1j / beta**2],
        ])
        assert np.abs(gel.heff - ref).max() < 1e-14

    def test_three_level_jump_row(self):
        q1, q2, om, beta = 1.5, 0.8, 0.2, 1.25
        gel = build_general(three_level_model(q1, q2, om, beta, 4.0), omega_L=0.0)
        row = 2.0 * np.array([om**2, om, om / beta,
                              om, 1.0, 1.0 / beta,
                              om / beta, 1.0 / beta, 1.0 / beta**2])
        assert np.abs(gel.Ltilde[0] - row).max() < 1e-14
        assert np.abs(gel.Ltilde[1:]).max() == 0.0

    def test_two_continua_operators(self):
        q, om1, om2, g1sq = 0.9, 0.25, 0.4, 0.3
        gc1, gc2 = 1.3, 0.7
        gel = build_general(two_continua_model(q, om1, om2, g1sq, gc1, gc2),
                            omega_L=0.5)
        g2sq = 1.0 - g1sq
        decay = g1sq * om1**2 + g2sq * om2**2
        offd = q - 1j * (g1sq * om1 + g2sq * om2)
        ref_h = np.array([[-1j * decay, offd], [offd, -0.5 - 1j]])
        assert np.abs(gel.heff - ref_h).max() < 1e-14
        ref_jump = np.zeros((4, 4))
        for gsq, om in ((g1sq, om1), (g2sq, om2)):
            ref_jump[0] += gsq * 2.0 * np.array([om**2, om, om, 1.0])
        assert np.abs(gel.Ltilde - ref_jump).max() < 1e-14
        for a, (gsq, om, gc) in enumerate(((g1sq, om1, gc1), (g2sq, om2, gc2))):
            ref_c = (2.0 * gsq / gc) * np.array([om**2, om, om, 1.0])
            assert np.abs(gel.C_coeffs[a] - ref_c).max() < 1e-14

    def test_invalid_model_rejected(self):
        m = fano_model(FanoParams(0.0, 1.0, 0.1))
        bad = GeneralModel(energies=m.energies, photon_indices=m.photon_indices,
                           dipoles=m.dipoles,
                           continua=(Continuum(density=1 / np.pi,
                                               couplings=(0.1, 1.0),
                                               relax_rates=(0.0, 0.0)),))
        with pytest.raises(ValueError, match="total relaxation rate"):
            build_general(bad)


class TestGeneralSteadyState:
    def test_no_field_ground_projector(self):
        p = FanoParams(0.0, 0.0, 0.0, Gamma_e=0.5)
        ss = general_steady_state(build_general(fano_model(p), omega_L=0.0))
        np.testing.assert_allclose(ss.rho, np.diag([1.0, 0.0]), atol=1e-12)
        assert ss.continuum_pops[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("v", [0.05, 0.1])
    def test_degenerate_kernel_rejected(self, v):
        # at v = 0.05 the two smallest singular values are at rounding level
        # (one exactly zero); both couplings leave the bordered matrix singular
        with pytest.raises(SteadyStateError, match="kernel dimension"):
            general_steady_state(build_general(spectator_model(v), omega_L=0.0))

    def test_hermiticity_preservation(self):
        gel = build_general(two_band_demo_model(), omega_L=10.0)
        L = gel.matrix
        rng = np.random.default_rng(22)
        n = gel.n_levels
        for _ in range(20):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rho = a + a.conj().T
            out = (L @ vec(rho)).reshape(n, n).T
            assert np.abs(out - out.conj().T).max() < 1e-13 * max(
                1.0, np.abs(out).max())

    def test_permutation_equivariance(self):
        m = two_band_demo_model()
        perm = [2, 0, 1]
        inv = np.argsort(perm)
        dip = m.dipoles[np.ix_(perm, perm)]
        m2 = GeneralModel(
            energies=tuple(m.energies[i] for i in perm),
            photon_indices=tuple(m.photon_indices[i] for i in perm),
            dipoles=dip,
            continua=tuple(
                Continuum(density=c.density,
                          couplings=tuple(c.couplings[i] for i in perm),
                          relax_rates=tuple(c.relax_rates[i] for i in perm))
                for c in m.continua),
            jumps=tuple((int(inv[a]), int(inv[b]), g) for a, b, g in m.jumps),
        )
        s1 = general_steady_state(build_general(m, omega_L=11.0))
        s2 = general_steady_state(build_general(m2, omega_L=11.0))
        np.testing.assert_allclose(s2.rho, s1.rho[np.ix_(perm, perm)], atol=1e-12)
        np.testing.assert_allclose(s2.continuum_pops, s1.continuum_pops, atol=1e-13)

    def test_scaling_invariance(self):
        m = two_band_demo_model()
        s = 3.7
        m2 = GeneralModel(
            energies=tuple(e * s for e in m.energies),
            photon_indices=m.photon_indices,
            dipoles=m.dipoles * s,
            continua=tuple(
                Continuum(density=c.density / s,
                          couplings=tuple(v * s for v in c.couplings),
                          relax_rates=tuple(g * s for g in c.relax_rates))
                for c in m.continua),
            jumps=tuple((a, b, g * s) for a, b, g in m.jumps),
        )
        s1 = general_steady_state(build_general(m, omega_L=12.0))
        s2 = general_steady_state(build_general(m2, omega_L=12.0 * s))
        np.testing.assert_allclose(s2.rho, s1.rho, atol=1e-12)
        np.testing.assert_allclose(s2.continuum_pops, s1.continuum_pops, atol=1e-13)


def random_general_model(rng) -> GeneralModel:
    """Three levels on two continua with random couplings, rates and energies."""
    dip = rng.uniform(-1, 1, (3, 3))
    dip = dip + dip.T
    np.fill_diagonal(dip, 0.0)
    conts = tuple(Continuum(density=1 / np.pi, couplings=tuple(rng.uniform(-1, 1, 3)),
                            relax_rates=tuple(rng.uniform(0, 1, 3))) for _ in range(2))
    return GeneralModel(energies=tuple(rng.uniform(-5, 5, 3)), photon_indices=(0, 1, 1),
                        dipoles=dip.astype(complex), continua=conts,
                        jumps=((1, 0, rng.uniform(0, 0.5)), (2, 0, rng.uniform(0, 0.5))))


@pytest.mark.parametrize("omega_L", [np.nan, np.inf])
def test_non_finite_omega_rejected(omega_L):
    with pytest.raises(ValueError, match="omega_L must be finite"):
        build_general(two_band_demo_model(), omega_L=omega_L)


def random_channel_model(rng) -> GeneralModel:
    """N <= 3 levels with complex dipoles, a self-jump, repeated jumps and dephasings."""
    n = int(rng.integers(1, 4))
    dip = np.triu(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)), 1)
    jumps = [(int(rng.integers(n)),) * 2 + (rng.uniform(0, 1),)]
    dephasings = []
    if n > 1:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        twice = pairs[rng.integers(len(pairs))]
        jumps += [(*twice, rng.uniform(0, 1)), (*twice, rng.uniform(0, 1))]
        for k in rng.integers(len(pairs), size=3):
            jumps.append((*pairs[k], rng.uniform(0, 1)))
            dephasings.append((*pairs[rng.integers(len(pairs))], rng.uniform(0, 1)))
    cont = Continuum(density=rng.uniform(0.1, 1.0), couplings=rng.uniform(-1, 1, n),
                     relax_rates=[rng.uniform(0.2, 2.0), *rng.uniform(0, 1, n - 1)],
                     dephase_rates=rng.uniform(0, 1, n))
    return GeneralModel(energies=rng.uniform(-3, 3, n),
                        photon_indices=rng.integers(0, 3, n), dipoles=dip + dip.conj().T,
                        continua=(cont,), jumps=jumps, dephasings=dephasings)


class TestRateForm:
    def test_matches_textbook_superoperators(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            m = random_channel_model(rng)
            n = m.n_levels
            h, gains, deph = _discrete_lindblad(m, rng.uniform(-3, 3))
            w = rng.uniform(-1, 1, (n, n))
            h = h - 1j * w @ w.T  # an anti-Hermitian part, as in H_eff
            ref = hamiltonian_superop(h)
            for frm, to, rate in m.jumps:
                ref += basis_jump(frm, to, rate, n)
            for i, j, rate in m.dephasings:
                ref += dephasing_diagonal(i, j, rate, n)
            gen = lindblad_superop(h, gains, decay_table(gains, deph))
            assert np.abs(gen - ref).max() < 1e-14

    def test_oracle_reads_the_same_levels(self):
        rng = np.random.default_rng(52)
        spec = DiscretizationSpec(bandwidth=10.0, levels_per_continuum=5)
        for _ in range(50):
            m = random_channel_model(rng)
            omega_L = rng.uniform(-3, 3)
            gel = build_general(m, omega_L)
            fl = build_full_lindbladian(m, spec, omega_L)
            nd = m.n_levels
            assert np.array_equal(fl.gains[:, :nd], gel.gains)
            assert np.array_equal(fl.decay[:nd, :nd], gel.decay)
            herm = 0.5 * (gel.heff + gel.heff.conj().T)
            assert np.abs(fl.hamiltonian[:nd, :nd] - herm).max() < 1e-15


class TestKernelCertificate:
    def test_estimate_tracks_svd_gap(self):
        rng = np.random.default_rng(43)
        models = [random_general_model(rng) for _ in range(200)]
        models += [spectator_model(0.1, g) for g in (1e-9, 1e-7, 1e-5, 1e-3)]
        for m in models:
            gel = build_general(m, omega_L=rng.uniform(-5, 5))
            row = trace_row(3)
            _, sep = _stationary_solve(gel.matrix, row + gel.C_coeffs.sum(axis=0), row)
            assert 0.1 < sep / svd_gap(gel.matrix) < 10

    def test_one_lu_certificate_matches_two_lu(self):
        rng = np.random.default_rng(44)
        row = trace_row(3)
        for _ in range(200):
            gel = build_general(random_general_model(rng), omega_L=rng.uniform(-5, 5))
            _, sep = _stationary_solve(gel.matrix, row + gel.C_coeffs.sum(axis=0), row)
            assert sep == pytest.approx(two_lu_separation(gel.matrix, row), rel=1e-2)

    def test_vanishing_normalization_named(self):
        gel = build_general(two_band_demo_model(), omega_L=10.35)
        row = trace_row(3)
        x, _ = _stationary_solve(gel.matrix, row, row)
        norm = gel.C_coeffs[0] - (gel.C_coeffs[0] @ x) * row
        with pytest.raises(SteadyStateError, match="normalization vanishes on the kernel"):
            _stationary_solve(gel.matrix, norm, row)

    @pytest.mark.parametrize("conts, jumps", [
        (((1 / np.pi, 1.0, 1.0),), ()),
        (((1 / np.pi, 1.0, 1.0),), ((0, 0, 0.5),)),
        (((0.5, 0.7, 0.3),), ((0, 0, 2.0),)),
        (((0.2, 1.5, 4.0), (3.0, 0.1, 0.05)), ()),
    ], ids=["unit", "self_jump", "scaled_self_jump", "two_continua"])
    def test_one_level_models_solve(self, conts, jumps):
        # the 1 x 1 generator is exactly zero; the continuum weight alone
        # fixes rho_00 = 1 / (1 + C) with C = sum_a 2 pi n_a V_a^2 / Gamma_a
        model = GeneralModel(
            energies=(0.0,), photon_indices=(0,), dipoles=np.zeros((1, 1)),
            continua=tuple(Continuum(density=n, couplings=(v,), relax_rates=(g,))
                           for n, v, g in conts),
            jumps=jumps)
        c = np.array([2 * np.pi * n * v**2 / g for n, v, g in conts])
        ss = general_steady_state(build_general(model, omega_L=0.3))
        rho, pops = general_sweep(model, [-1.0, 0.0, 2.0])
        for r, p in [(ss.rho, ss.continuum_pops), *zip(rho, pops)]:
            assert abs(r[0, 0] - 1 / (1 + c.sum())) < 1e-14
            np.testing.assert_allclose(p, c / (1 + c.sum()), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("g", [1e-12, 1e-11, 1e-10])
    def test_weakly_relaxing_spectator_rejected(self, g):
        # the kernel is one-dimensional only by g, within 1e6 rounding units
        with pytest.raises(SteadyStateError, match="kernel dimension"):
            general_steady_state(build_general(spectator_model(0.1, g), omega_L=0.0))


class TestGeneralSweep:
    @pytest.mark.parametrize("model, grid", [
        (two_band_demo_model(), np.linspace(5.0, 25.0, 41)),
        (three_level_model(1.0, -2.0, 0.2, 0.7, 3.0, Gamma_c=0.5),
         np.linspace(-5.0, 8.0, 27)),
    ], ids=["two_band_demo", "three_level"])
    def test_matches_per_point_solver(self, model, grid):
        rho, pops = general_sweep(model, grid)
        assert rho.shape == grid.shape + (model.n_levels,) * 2
        assert pops.shape == grid.shape + (model.n_continua,)
        for k, om in enumerate(grid):
            ref = general_steady_state(build_general(model, omega_L=float(om)))
            assert np.abs(rho[k] - ref.rho).max() < 1e-12
            assert np.abs(pops[k] - ref.continuum_pops).max() < 1e-12

    def test_degenerate_point_named(self):
        with pytest.raises(SteadyStateError, match="at sweep point 0"):
            general_sweep(spectator_model(), [0.0, 1.0])

    def test_continuum_dephasing_notice_once(self, caplog):
        m = fano_model(FanoParams(0.0, 1.0, 0.1, gamma_kg=0.5))
        with caplog.at_level(logging.INFO, logger="fanosolve"):
            general_sweep(m, np.linspace(-3.0, 3.0, 13))
        assert sum("ignored" in rec.message for rec in caplog.records) == 1


class TestTwoBandDemo:
    def test_two_asymmetric_resonances(self):
        m = two_band_demo_model()
        grid = np.linspace(5.0, 25.0, 401)
        tot = np.empty_like(grid)
        for k, om in enumerate(grid):
            ss = general_steady_state(build_general(m, omega_L=float(om)))
            assert np.all(ss.populations >= -1e-10)
            assert np.all(ss.populations <= 1 + 1e-10)
            assert min(ss.continuum_pops) >= -1e-12
            assert abs(ss.total - 1.0) < 1e-10
            tot[k] = sum(ss.continuum_pops)
        peaks = np.flatnonzero((tot[1:-1] > tot[:-2]) & (tot[1:-1] > tot[2:])) + 1
        assert len(peaks) == 2
        assert abs(grid[peaks[1]] - grid[peaks[0]]) > 3.0
        # asymmetry: unequal shoulders a fixed distance off each maximum
        step = grid[1] - grid[0]
        off = int(round(1.5 / step))
        for pk in peaks:
            lo, hi = tot[pk - off], tot[pk + off]
            assert abs(hi - lo) / max(hi, lo) > 0.05


class TestContinuumCoherences:
    def test_zero_without_drive(self):
        p = FanoParams(0.0, 0.0, 0.0, Gamma_e=0.2)
        m = fano_model(p)
        gel = build_general(m, omega_L=0.0)
        ss = general_steady_state(gel)
        w = continuum_coherences(m, ss.rho)
        np.testing.assert_allclose(w, 0.0, atol=1e-13)

    def test_matches_single_resonance_formula(self):
        p = FanoParams(0.4, 1.2, 0.3, Gamma_e=0.2, gamma_eg=0.1)
        m = fano_model(p)
        gel = build_general(m, omega_L=p.epsilon)
        ss = general_steady_state(gel)
        w = continuum_coherences(m, ss.rho)
        # single-resonance closed form in reference-coupling units
        ref = 1j * (ss.rho[1, 0] + p.Omega * ss.rho[0, 0])
        assert abs(w[0, 0] - ref) < 1e-12

    def test_weak_field_absorption_tracks_population(self):
        p0 = FanoParams(0.0, 1.0, 0.01, Gamma_e=0.0)
        eps = np.linspace(-6, 6, 25)
        absn, pops = [], []
        for e in eps:
            p = replace(p0, epsilon=e)
            ss = steady_state(p)
            absn.append(absorption_rate(p, ss))
            pops.append(ss.continuum_pops[0])
        absn = np.array(absn) / max(absn)
        pops = np.array(pops) / max(pops)
        assert np.abs(absn - pops).max() < 0.02


def photon_return_flux(model, rho, pops):
    """Photons carried away per unit time by the jumps and the continuum relaxation."""
    p = np.asarray(model.photon_indices, dtype=float)
    levels = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    flux = sum(rate * (p[f] - p[t]) * levels[..., f] for f, t, rate in model.jumps)
    for a, c in enumerate(model.continua):
        flux = flux + pops[..., a] * np.dot(c.relax_rates, c.photon_index - p)
    return flux


class TestObservables:
    def test_two_level_absorption_is_the_closed_form(self):
        # the single-resonance formula the general absorption replaced
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = FanoParams(rng.uniform(-10, 10), rng.uniform(-3, 3), rng.uniform(0, 2),
                           Gamma_e=rng.uniform(0, 1), Gamma_cg=rng.uniform(0.1, 3),
                           Gamma_ce=rng.uniform(0, 2), gamma_eg=rng.uniform(0, 2))
            ss = steady_state(p)
            got = observable(fano_model(p), "absorption", ss.rho, ss.continuum_pops)
            rho_gg, rho_eg = ss.rho[0, 0], ss.rho[1, 0]
            ref = 2.0 * p.Omega * np.imag(p.q * rho_eg + 1j * (rho_eg + p.Omega * rho_gg))
            assert abs(got - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("model, grid", [
        (fano_model(FanoParams(0.0, 1.2, 0.3, Gamma_e=0.1, Gamma_cg=1.5, Gamma_ce=0.5,
                               gamma_eg=0.2)), np.linspace(-8, 8, 81)),
        (three_level_model(1.0, -0.5, 0.3, 0.7, 0.8), np.linspace(-6, 6, 81)),
        (two_continua_model(1.3, 0.2, 0.4, 0.3, Gamma_c1=0.5, Gamma_c2=2.0),
         np.linspace(-6, 6, 81)),
        (two_band_demo_model(), np.linspace(5, 25, 201)),
    ], ids=["fano", "three_level", "two_continua", "two_band_demo"])
    def test_absorption_equals_photon_return_flux(self, model, grid):
        rho, pops = general_sweep(model, grid)
        flux = photon_return_flux(model, rho, pops)
        got = observable(model, "absorption", rho, pops)
        assert got.shape == grid.shape
        assert np.abs(got - flux).max() <= 1e-12 * np.abs(flux).max()

    def test_stack_matches_single_states(self):
        m = two_band_demo_model()
        grid = np.array([9.0, 10.3, 20.4])
        rho, pops = general_sweep(m, grid)
        for name in OBSERVABLES:
            values = observable(m, name, rho, pops)
            for k, om in enumerate(grid):
                ss = general_steady_state(build_general(m, omega_L=om))
                one = observable(m, name, ss.rho, ss.continuum_pops)
                assert one == pytest.approx(values[k], rel=1e-12)
