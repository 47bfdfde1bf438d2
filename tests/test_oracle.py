import numpy as np
import pytest
import scipy.sparse as sp

from fanosolve import (Continuum, DiscretizationSpec, FanoParams, GeneralModel,
                       SteadyStateError, build_full_lindbladian,
                       build_general, convergence_study, fano_model,
                       general_steady_state, oracle_steady_state, steady_state,
                       three_level_model, transport_rate, two_band_demo_model)
from fanosolve.oracle import transport_rate_oracle
from fanosolve.superop import trace_row, vec

# reference single-resonance parameters; Gamma_c = 2 keeps the level spacing
# of the coarse grids well inside the continuum linewidth
P_REF = FanoParams(epsilon=0.0, q=1.0, Omega=0.05, Gamma_e=0.1, Gamma_cg=2.0)


def small_fl(p=P_REF, mk=41, w=40.0, offset=0.0):
    spec = DiscretizationSpec(bandwidth=w, levels_per_continuum=mk,
                              grid_offset=offset)
    return build_full_lindbladian(fano_model(p), spec, omega_L=p.epsilon)


class TestSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            DiscretizationSpec(bandwidth=-1.0, levels_per_continuum=11)
        with pytest.raises(ValueError):
            DiscretizationSpec(bandwidth=10.0, levels_per_continuum=2)
        assert DiscretizationSpec(10.0, 11).spacing == pytest.approx(1.0)

    @pytest.mark.parametrize("kw", [dict(bandwidth=np.nan), dict(bandwidth=np.inf),
                                    dict(grid_offset=np.nan), dict(grid_offset=np.inf)],
                             ids=["bandwidth-nan", "bandwidth-inf",
                                  "grid_offset-nan", "grid_offset-inf"])
    def test_non_finite_rejected(self, kw):
        args = {"bandwidth": 10.0, "levels_per_continuum": 11, **kw}
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be .*finite"):
            DiscretizationSpec(**args)

    def test_dimension_cap(self):
        spec = DiscretizationSpec(bandwidth=10.0, levels_per_continuum=100,
                                  dimension_cap=100)
        with pytest.raises(ValueError, match="GB"):
            build_full_lindbladian(fano_model(P_REF), spec)


class TestGenerator:
    def test_trace_annihilation_rows(self):
        fl = small_fl()
        resid = trace_row(fl.n_total) @ fl.matrix
        assert np.abs(resid).max() < 1e-12 * np.abs(fl.matrix.data).max()

    def test_trace_of_generator_action(self):
        fl = small_fl(FanoParams(0.3, 1.2, 0.2, Gamma_e=0.1, Gamma_cg=1.0,
                                 Gamma_ce=0.5, gamma_eg=0.3, gamma_kg=0.2,
                                 gamma_ke=0.1), mk=15, w=15.0)
        n = fl.n_total
        rng = np.random.default_rng(31)
        scale = np.abs(fl.matrix.data).max()
        for _ in range(100):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rho = a + a.conj().T
            out = fl.matrix @ vec(rho)
            tr = out.reshape(n, n).T.trace()
            assert abs(tr) < 1e-12 * scale * np.abs(rho).max() * n

    def test_pure_commutator_spectrum(self):
        # no dissipation at all: the generator is -i[H, .] with a purely
        # imaginary spectrum (construction only; steady-state solvers
        # reject such models as degenerate)
        m = fano_model(FanoParams(0.5, 1.0, 0.1))
        m = GeneralModel(energies=m.energies, photon_indices=m.photon_indices,
                         dipoles=m.dipoles,
                         continua=(Continuum(density=1 / np.pi,
                                             couplings=(0.1, 1.0),
                                             relax_rates=(0.0, 0.0)),))
        spec = DiscretizationSpec(bandwidth=10.0, levels_per_continuum=9)
        fl = build_full_lindbladian(m, spec, omega_L=0.5)
        evals = np.linalg.eigvals(fl.matrix.toarray())
        assert np.abs(evals.real).max() < 1e-10

    def test_hamiltonian_structure(self):
        fl = small_fl(mk=11, w=10.0)
        h = fl.hamiltonian
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
        de = 1.0
        vd = np.sqrt(de / np.pi)
        assert h[1, 2] == pytest.approx(vd)          # excited-band coupling
        assert h[0, 2] == pytest.approx(P_REF.Omega * vd)  # drive to the band


class TestSteadyState:
    def test_ground_projector_without_drive(self):
        fl = small_fl(FanoParams(0.0, 1.0, 0.0, Gamma_e=0.5, Gamma_cg=1.0),
                      mk=11, w=10.0)
        sol = oracle_steady_state(fl)
        assert sol.rho[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sum(sol.reduced.continuum_pops) == pytest.approx(0.0, abs=1e-12)

    def test_residual_and_diagnostics(self):
        fl = small_fl()
        sol = oracle_steady_state(fl)
        assert sol.residual < 1e-10
        assert sol.min_eigenvalue > -1e-9
        assert sol.kernel_separation > 1e6
        assert abs(np.real(np.trace(sol.rho)) - 1.0) < 1e-12

    def test_matches_plain_sparse_solve(self):
        # same steady state as LU with a replaced trace row, no elimination
        fl = small_fl(mk=21, w=20.0)
        sol = oracle_steady_state(fl)
        n = fl.n_total
        L = fl.matrix.tolil()
        L[0] = trace_row(n)
        rhs = np.zeros(n * n, dtype=complex)
        rhs[0] = 1.0
        x = sp.linalg.splu(L.tocsc()).solve(rhs)
        rho = x.reshape(n, n).T
        rho = 0.5 * (rho + rho.conj().T)
        assert np.abs(rho - sol.rho).max() < 1e-12

    def test_degenerate_kernel_rejected(self):
        # drive off and continuum relaxing only to the excited state leaves
        # the ground population disconnected
        p = FanoParams(0.0, 1.0, 0.0, Gamma_e=0.0, Gamma_cg=0.0, Gamma_ce=1.0)
        fl = small_fl(p, mk=11, w=10.0)
        with pytest.raises(SteadyStateError):
            oracle_steady_state(fl)

    def test_agreement_with_effective_solution(self):
        # W = 100 leaves ~1% of Lorentzian tail outside the band; 2e-2 is
        # the documented tolerance of this discretization class
        ss = steady_state(P_REF)
        fl = small_fl(P_REF, mk=201, w=100.0)
        sol = oracle_steady_state(fl)
        nc = sum(sol.reduced.continuum_pops)
        assert nc == pytest.approx(ss.continuum_pops[0], rel=2e-2)
        r = transport_rate_oracle(fl, sol)
        assert r == pytest.approx(transport_rate(P_REF), rel=2e-2)
        assert np.abs(sol.reduced.rho - ss.rho).max() < 1e-2

    def test_grid_offset_within_discretization_error(self):
        ss = steady_state(P_REF)
        ncs = []
        for off in (0.0, 0.5):
            sol = oracle_steady_state(small_fl(P_REF, mk=101, w=50.0, offset=off))
            ncs.append(sum(sol.reduced.continuum_pops))
        err = max(abs(nc - ss.continuum_pops[0]) for nc in ncs)
        assert abs(ncs[0] - ncs[1]) <= 2.0 * err + 1e-12

    def test_dephasing_insensitivity_is_wideband_only(self):
        # the discretized model does feel gamma_kg through the band-edge
        # tails of the broadened coherences, at the level of the widened
        # linewidth over the bandwidth
        base = FanoParams(0.0, 1.0, 0.05, Gamma_e=0.1, Gamma_cg=2.0)
        noisy = FanoParams(0.0, 1.0, 0.05, Gamma_e=0.1, Gamma_cg=2.0,
                           gamma_kg=5.0, gamma_ke=5.0)
        nc = [sum(oracle_steady_state(small_fl(p, mk=201, w=200.0))
                  .reduced.continuum_pops) for p in (base, noisy)]
        assert nc[1] == pytest.approx(nc[0], rel=0.05)


class TestAbsorptionOracle:
    def test_photon_rate_matches_discretized_return_flux(self):
        # analytic absorption (dipole-weighted coherences) against the
        # dissipative return flux of the brute-force model
        from fanosolve import absorption_rate
        p = FanoParams(0.4, 1.2, 0.15, Gamma_e=0.1, Gamma_cg=1.5,
                       Gamma_ce=0.5, gamma_eg=0.2)
        rate = absorption_rate(p)
        sol = oracle_steady_state(small_fl(p, mk=201, w=100.0))
        flux = (p.Gamma_cg * sum(sol.reduced.continuum_pops)
                + 2 * p.Gamma_e * np.real(sol.reduced.rho[1, 1]))
        assert flux == pytest.approx(rate, rel=2e-2)


class TestTransportOracle:
    def test_gamma_c_independence_within_discretization_error(self):
        # r is exactly Gamma_c-free in the wideband limit.  Each rate needs
        # its own adequate grid: spacing below the continuum linewidth and a
        # band wide enough for the Lorentzian tails.
        grids = {0.1: (50.0, 1001), 1.0: (100.0, 401), 10.0: (400.0, 401)}
        rs = []
        for gc, (w, mk) in grids.items():
            p = FanoParams(0.0, 1.0, 0.05, Gamma_e=0.0, Gamma_cg=gc)
            fl = small_fl(p, mk=mk, w=w)
            rs.append(transport_rate_oracle(fl, oracle_steady_state(fl)))
        ref = transport_rate(FanoParams(0.0, 1.0, 0.05, Gamma_e=0.0))
        for r in rs:
            assert r == pytest.approx(ref, rel=0.04)
        spread = (max(rs) - min(rs)) / min(rs)
        assert spread < 0.05

    def test_fano_zero_floor(self):
        p = FanoParams(-1.0, 1.0, 0.05, Gamma_e=0.0, Gamma_cg=2.0)
        floor = steady_state(p).continuum_pops[0]
        sol = oracle_steady_state(small_fl(p, mk=201, w=100.0))
        assert sum(sol.reduced.continuum_pops) < 10.0 * floor


class TestConvergence:
    def test_error_decreases_along_ladder(self):
        ss = steady_state(P_REF)
        ladder = [DiscretizationSpec(50.0, 51), DiscretizationSpec(100.0, 101),
                  DiscretizationSpec(200.0, 201)]
        study = convergence_study(fano_model(P_REF), ladder, P_REF.epsilon,
                                  ss.continuum_pops[0], transport_rate(P_REF))
        assert study.decreasing
        assert study.nc_errors[-1] < 2e-2
        assert np.isfinite(study.fitted_order) or len(ladder) < 2

    def test_three_level_model_agreement(self):
        model = three_level_model(q1=1.5, q2=0.8, Omega=0.1, beta=1.25,
                                  delta=5.0, Gamma_c=2.0)
        gel = build_general(model, omega_L=0.5)
        ss = general_steady_state(gel)
        spec = DiscretizationSpec(bandwidth=100.0, levels_per_continuum=201)
        fl = build_full_lindbladian(model, spec, omega_L=0.5)
        sol = oracle_steady_state(fl)
        nc = sum(sol.reduced.continuum_pops)
        assert nc == pytest.approx(sum(ss.continuum_pops), rel=5e-2)

    def test_two_band_demo_agreement(self):
        # on resonance with the first excited level; the bands sit 10 units
        # below the dressed levels in the rotating frame, so the bandwidth
        # must cover that offset plus tails
        m = two_band_demo_model()
        om = 10.35
        ss = general_steady_state(build_general(m, omega_L=om))
        spec = DiscretizationSpec(bandwidth=60.0, levels_per_continuum=201)
        fl = build_full_lindbladian(m, spec, omega_L=om)
        sol = oracle_steady_state(fl)
        for got, ref in zip(sol.reduced.continuum_pops, ss.continuum_pops):
            assert got == pytest.approx(ref, rel=2e-2)
        assert np.abs(sol.reduced.rho - ss.rho).max() < 2e-2
