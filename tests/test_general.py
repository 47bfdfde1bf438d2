import logging

import numpy as np
import pytest

from fanosolve import (Continuum, FanoParams, GeneralModel, SteadyStateError,
                       absorption_rate, build_effective_liouvillian,
                       build_general, continuum_coherences, fano_model,
                       two_band_demo_model, general_steady_state, general_sweep,
                       steady_state, three_level_model, two_continua_model)
from fanosolve.superop import vec


class TestRecipeSpecializations:
    def test_two_level_matches_single_resonance(self):
        p = FanoParams(0.7, 1.3, 0.2, Gamma_e=0.15, Gamma_cg=0.8, Gamma_ce=0.4,
                       gamma_eg=0.3)
        eff = build_effective_liouvillian(p)
        gel = build_general(fano_model(p), omega_L=p.epsilon)
        assert np.abs(gel.matrix - eff.matrix).max() < 1e-14
        np.testing.assert_allclose(gel.heff, eff.heff, atol=1e-15)
        np.testing.assert_allclose(gel.C_coeffs[0], eff.C, atol=1e-15)

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

    def test_matches_single_resonance_solver(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = FanoParams(rng.uniform(-5, 5), rng.uniform(-2, 2),
                           rng.uniform(0.01, 1.0), rng.uniform(0, 0.5),
                           Gamma_cg=rng.uniform(0.2, 2.0),
                           Gamma_ce=rng.uniform(0.0, 1.0),
                           gamma_eg=rng.uniform(0, 1))
            a = steady_state(p)
            b = general_steady_state(build_general(fano_model(p), omega_L=p.epsilon))
            assert np.abs(a.rho - b.rho).max() < 1e-12
            assert abs(a.continuum_pops[0] - b.continuum_pops[0]) < 1e-12

    @pytest.mark.parametrize("v", [0.05, 0.1])
    def test_degenerate_kernel_rejected(self, v):
        # at v = 0.05 the two smallest singular values are at rounding level
        # (one exactly zero), which must not read as infinite separation
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


def spectator_model(v: float = 0.1) -> GeneralModel:
    """A fully decoupled spectator level leaves a two-dimensional kernel."""
    dip = np.zeros((3, 3), dtype=complex)
    dip[0, 1] = dip[1, 0] = v
    return GeneralModel(
        energies=(0.0, 0.0, 2.0), photon_indices=(0, 1, 1), dipoles=dip,
        continua=(Continuum(density=1 / np.pi, couplings=(v, 1.0, 0.0),
                            relax_rates=(1.0, 0.0, 0.0)),))


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
        w = continuum_coherences(gel, ss, m)
        np.testing.assert_allclose(w, 0.0, atol=1e-13)

    def test_matches_single_resonance_formula(self):
        p = FanoParams(0.4, 1.2, 0.3, Gamma_e=0.2, gamma_eg=0.1)
        m = fano_model(p)
        gel = build_general(m, omega_L=p.epsilon)
        ss = general_steady_state(gel)
        w = continuum_coherences(gel, ss, m)
        # single-resonance closed form in reference-coupling units
        ref = 1j * (ss.rho[1, 0] + p.Omega * ss.rho[0, 0])
        assert abs(w[0, 0] - ref) < 1e-12

    def test_weak_field_absorption_tracks_population(self):
        p0 = FanoParams(0.0, 1.0, 0.01, Gamma_e=0.0)
        eps = np.linspace(-6, 6, 25)
        absn, pops = [], []
        for e in eps:
            p = p0.with_epsilon(e)
            ss = steady_state(p)
            absn.append(absorption_rate(p, ss))
            pops.append(ss.continuum_pops[0])
        absn = np.array(absn) / max(absn)
        pops = np.array(pops) / max(pops)
        assert np.abs(absn - pops).max() < 0.02
