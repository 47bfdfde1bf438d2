import os
import re
import subprocess
import sys

import numpy as np
import pytest
from helpers import (kronecker_elimination, kronecker_generator, rate_matrix, realify,
                     retained_positions, spectator_model, splu_steady_state, svd_gap,
                     two_lu_separation)
from hypothesis import given, settings
from hypothesis import strategies as st

import fanosolve
from fanosolve import (Continuum, DiscretizationSpec, FanoParams, GeneralModel,
                       SteadyStateError, build_full_lindbladian,
                       build_general, convergence_study, fano_model,
                       general_steady_state, observable, oracle_steady_state,
                       steady_state, three_level_model, transport_rate,
                       two_band_demo_model, two_continua_model)
from fanosolve import oracle
from fanosolve.oracle import _eigenvalue_floor, _generator_action, _retained_system
from fanosolve.superop import _stationary_solve, trace_row, vec

# reference single-resonance parameters; Gamma_c = 2 keeps the level spacing
# of the coarse grids well inside the continuum linewidth
P_REF = FanoParams(epsilon=0.0, q=1.0, Omega=0.05, Gamma_e=0.1, Gamma_cg=2.0)


def oracle_rate(p, sol):
    """Transport rate of the discretized steady state of the single resonance."""
    return observable(fano_model(p), "transport_rate", sol.reduced.rho,
                      sol.reduced.continuum_pops)


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

    @pytest.mark.parametrize("omega_L", [np.nan, np.inf])
    def test_non_finite_omega_rejected(self, omega_L):
        spec = DiscretizationSpec(bandwidth=10.0, levels_per_continuum=11)
        with pytest.raises(ValueError, match="omega_L must be finite"):
            build_full_lindbladian(fano_model(P_REF), spec, omega_L)

    def test_dimension_cap(self):
        # (2 + 1500)**2 > 2e6: refused before anything is allocated; the
        # estimate counts two real 6004 x 6004 matrices
        spec = DiscretizationSpec(bandwidth=10.0, levels_per_continuum=1500)
        with pytest.raises(ValueError, match=r"~0\.6 GB"):
            build_full_lindbladian(fano_model(P_REF), spec)


class TestGenerator:
    def test_trace_annihilation_rows(self):
        fl = small_fl()
        gen = kronecker_generator(fl)
        resid = trace_row(fl.n_total) @ gen
        assert np.abs(resid).max() < 1e-12 * np.abs(gen.data).max()

    def test_trace_of_generator_action(self):
        fl = small_fl(FanoParams(0.3, 1.2, 0.2, Gamma_e=0.1, Gamma_cg=1.0,
                                 Gamma_ce=0.5, gamma_eg=0.3, gamma_kg=0.2,
                                 gamma_ke=0.1), mk=15, w=15.0)
        n = fl.n_total
        rng = np.random.default_rng(31)
        gen = kronecker_generator(fl)
        scale = np.abs(gen.data).max()
        for _ in range(100):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rho = a + a.conj().T
            out = gen @ vec(rho)
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
        evals = np.linalg.eigvals(kronecker_generator(fl).toarray())
        assert np.abs(evals.real).max() < 1e-10

    def test_hamiltonian_structure(self):
        fl = small_fl(mk=11, w=10.0)
        h = fl.hamiltonian
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
        de = 1.0
        vd = np.sqrt(de / np.pi)
        assert h[1, 2] == pytest.approx(vd)          # excited-band coupling
        assert h[0, 2] == pytest.approx(P_REF.Omega * vd)  # drive to the band


@st.composite
def discretized_models(draw):
    """Random N <= 3, M <= 2 models with every kind of channel, plus a grid and a drive."""
    nd = draw(st.integers(1, 3))
    rate = st.floats(0.0, 1.0)
    coupling = st.floats(0.1, 1.0).flatmap(lambda v: st.sampled_from([v, -v]))
    dip = np.zeros((nd, nd), dtype=complex)
    for i in range(nd):
        for j in range(i):
            dip[i, j] = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
            dip[j, i] = np.conj(dip[i, j])
    continua = tuple(
        Continuum(density=draw(st.floats(0.1, 1.0)),
                  couplings=[draw(coupling) for _ in range(nd)],
                  relax_rates=[draw(st.floats(0.2, 2.0))] + [draw(rate) for _ in range(nd - 1)],
                  dephase_rates=draw(st.none() | st.lists(rate, min_size=nd, max_size=nd)),
                  center=draw(st.floats(-3, 3)), photon_index=draw(st.integers(0, 2)))
        for _ in range(draw(st.integers(1, 2))))
    pairs = [(i, j) for i in range(nd) for j in range(nd) if i != j]
    channels = st.lists(st.sampled_from(pairs), max_size=4) if pairs else st.just([])
    model = GeneralModel(
        energies=[1.5 * i + draw(st.floats(-0.5, 0.5)) for i in range(nd)],
        photon_indices=[draw(st.integers(0, 2)) for _ in range(nd)], dipoles=dip,
        continua=continua,
        jumps=[(i, j, draw(rate)) for i, j in draw(channels)],
        dephasings=[(i, j, draw(rate)) for i, j in draw(channels)])
    spec = DiscretizationSpec(bandwidth=draw(st.floats(4.0, 20.0)),
                              levels_per_continuum=draw(st.integers(5, 9)),
                              grid_offset=draw(st.floats(-0.5, 0.5)))
    return build_full_lindbladian(model, spec, omega_L=draw(st.floats(-3, 3)))


class TestDirectAssembly:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(fl=discretized_models())
    def test_matches_kronecker_elimination(self, fl):
        gen, norm_row, null_row, _ = _retained_system(fl)
        ref_schur, ref_t, ref_null = kronecker_elimination(fl)
        # Hermiticity: the rows of rho[j, i] are the conjugates of those of rho[i, j]
        mirror = retained_positions(fl)[1]
        paired = ref_schur[np.ix_(mirror, mirror)]
        assert np.abs(paired - ref_schur.conj()).max() <= 1e-15 * np.abs(ref_schur).max()
        ref_gen, ref_norm, ref_null = realify(ref_schur, ref_t, ref_null, fl)
        assert gen.dtype == norm_row.dtype == np.float64
        assert gen.flags.f_contiguous  # LAPACK's order: its working copy is no transpose
        assert np.abs(gen - ref_gen).max() <= 1e-13 * np.abs(ref_gen).max()
        assert np.abs(norm_row - ref_norm).max() <= 1e-13 * np.abs(ref_norm).max()
        assert np.array_equal(null_row, ref_null)
        try:
            sol = oracle_steady_state(fl)
        except SteadyStateError as exc:
            if "not positive" in str(exc):
                # pairwise dephasing rates need not form a completely positive map;
                # the message carries the exact eigenvalue (3 digits)
                ref = np.linalg.eigvalsh(splu_steady_state(fl))[0]
                assert ref < -1e-9
                reported = float(re.search(r"min eigenvalue (\S+)\)", str(exc)).group(1))
                assert reported == pytest.approx(ref, rel=6e-3)
            else:  # a dark superposition of levels degenerate in the rotating frame
                assert svd_gap(ref_schur) < 1e7
        else:
            assert np.abs(sol.rho - splu_steady_state(fl)).max() < 1e-12
            # accepted only where eigvalsh accepts, with a floor under its value
            exact = np.linalg.eigvalsh(sol.rho)[0]
            assert exact >= -1e-9 and sol.eigenvalue_floor <= exact + 1e-15

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(fl=discretized_models())
    def test_generator_action_matches_kronecker(self, fl):
        n = fl.n_total
        rng = np.random.default_rng(n)
        r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        L = kronecker_generator(fl)
        ref = (L @ vec(r)).reshape(n, n).T
        scale = np.abs(L.data).max() * np.abs(r).max()
        assert np.abs(_generator_action(fl, r) - ref).max() <= 1e-14 * scale


def test_storage_order_leaves_solve_unchanged():
    gen, norm_row, null_row, _ = _retained_system(small_fl())
    x, sep = _stationary_solve(gen, norm_row, null_row)
    x_c, sep_c = _stationary_solve(np.ascontiguousarray(gen), norm_row, null_row)
    assert x.tobytes() == x_c.tobytes() and sep == sep_c


def test_perturbed_continuum_coherence_fails_residual(monkeypatch):
    # perturbed after the shared solve has checked the Schur residual: the
    # full-generator residual must catch the wrong rho[c, a]
    fl = small_fl()
    lead = fl.n_discrete ** 2  # first real coordinate of rho[c, a]
    solve = oracle._stationary_solve

    def perturbed(*args):
        x, sep = solve(*args)
        x[lead] += 1e-6
        return x, sep

    monkeypatch.setattr(oracle, "_stationary_solve", perturbed)
    with pytest.raises(SteadyStateError, match="steady-state residual"):
        oracle_steady_state(fl)


def spectrum_state(n, lam_min, rng):
    """Trace-1 Hermitian ``U diag(lam) U^H``: lam_min, many zeros, a few positive weights."""
    lam = np.zeros(n)
    lam[0] = lam_min
    k = max(1, n // 10)
    lam[-k:] = rng.uniform(0.5, 1.5, k)
    lam[-k:] *= (1.0 - lam_min) / lam[-k:].sum()
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rho = (u * lam) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


class TestEigenvalueFloor:
    """The shifted Cholesky certificate decides positivity exactly as ``eigvalsh``."""

    @pytest.mark.parametrize("n", [5, 60, 300])
    @pytest.mark.parametrize("lam_min", [1e-12, 0.0, -1e-11, -1e-10, -5e-10, -9e-10,
                                         -1.1e-9, -1e-6])
    def test_same_decision_as_eigvalsh(self, n, lam_min, monkeypatch):
        rho = spectrum_state(n, lam_min, np.random.default_rng(n))
        exact = float(np.linalg.eigvalsh(rho)[0])
        ran = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(oracle.np.linalg, "eigvalsh",
                            lambda a: ran.append(True) or eigvalsh(a))
        try:
            floor = _eigenvalue_floor(rho)
        except SteadyStateError as exc:
            assert exact < -1e-9
            assert f"(min eigenvalue {exact:.2e})" in str(exc)
        else:
            assert exact >= -1e-9
            assert floor <= exact + 10 * n * np.finfo(float).eps
            if ran:
                assert floor == exact
        if lam_min != -1e-10:  # at minus the shift either path may be taken
            assert bool(ran) == (lam_min < -1e-10)

    @pytest.mark.parametrize("n, tried", [(1000, True), (2004, False)])
    def test_large_n_goes_straight_to_eigvalsh(self, n, tried, monkeypatch):
        # a zero-stride view: len() is n, no n x n matrix is built
        rho = np.broadcast_to(np.zeros(1, dtype=complex), (n, n))
        called = []

        def not_positive_definite(a):
            called.append(True)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(oracle.np.linalg, "cholesky", not_positive_definite)
        monkeypatch.setattr(oracle.np.linalg, "eigvalsh", lambda a: np.array([-3e-10]))
        assert _eigenvalue_floor(rho) == -3e-10
        assert bool(called) == tried

    def test_fano_rung_needs_no_eigvalsh(self, monkeypatch):
        def boom(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(oracle.np.linalg, "eigvalsh", boom)
        fl = build_full_lindbladian(fano_model(P_REF), DiscretizationSpec(150.0, 151),
                                    P_REF.epsilon)
        sol = oracle_steady_state(fl)
        assert -2e-10 < sol.eigenvalue_floor < 0
        assert sol.residual < 1e-10


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
        assert sol.eigenvalue_floor > -1e-9
        assert sol.kernel_separation > 1e6
        assert abs(np.real(np.trace(sol.rho)) - 1.0) < 1e-12

    def test_matches_plain_sparse_solve(self):
        # same steady state as LU with a replaced trace row, no elimination
        fl = small_fl(mk=21, w=20.0)
        sol = oracle_steady_state(fl)
        assert np.abs(splu_steady_state(fl) - sol.rho).max() < 1e-12

    def test_degenerate_kernel_rejected(self):
        # drive off and continuum relaxing only to the excited state leaves
        # the ground population disconnected
        p = FanoParams(0.0, 1.0, 0.0, Gamma_e=0.0, Gamma_cg=0.0, Gamma_ce=1.0)
        fl = small_fl(p, mk=11, w=10.0)
        with pytest.raises(SteadyStateError, match="kernel dimension"):
            oracle_steady_state(fl)

    @pytest.mark.parametrize("mk", [331, 334], ids=["1995-unknowns", "2013-unknowns"])
    def test_weakly_relaxing_spectator_rejected(self, mk):
        # the spectator level relaxes at 1e-12: certified the same way on
        # both sides of 2000 retained unknowns
        spec = DiscretizationSpec(bandwidth=mk - 1.0, levels_per_continuum=mk)
        fl = build_full_lindbladian(spectator_model(0.1, 1e-12), spec)
        with pytest.raises(SteadyStateError, match="kernel dimension"):
            oracle_steady_state(fl)

    def test_separation_reported_at_every_rung(self):
        # two levels on two continua: 412, 1212 and 2412 retained unknowns
        m = two_continua_model(q=1.0, Omega1=0.1, Omega2=0.2, gamma1_sq=0.4,
                               Gamma_c1=2.0, Gamma_c2=1.5)
        for mk in (51, 151, 301):
            fl = build_full_lindbladian(m, DiscretizationSpec(mk - 1.0, mk), 0.3)
            assert 1e6 < oracle_steady_state(fl).kernel_separation < np.inf

    @pytest.mark.parametrize("mk", [51, 151, 301])
    def test_one_lu_certificate_matches_two_lu(self, mk):
        m = two_continua_model(q=1.0, Omega1=0.1, Omega2=0.2, gamma1_sq=0.4,
                               Gamma_c1=2.0, Gamma_c2=1.5)
        fl = build_full_lindbladian(m, DiscretizationSpec(mk - 1.0, mk), 0.3)
        gen, norm_row, null_row, _ = _retained_system(fl)
        x, sep = _stationary_solve(gen, norm_row, null_row)
        assert x.dtype == np.float64  # a real generator is solved in real arithmetic
        assert sep == pytest.approx(two_lu_separation(gen, null_row), rel=1e-2)

    def test_real_solve_matches_complex_solve(self):
        # the same kernel, scale and certificate in real and complex arithmetic,
        # for the oracle's system and a classical rate matrix, either sign
        rates = rate_matrix(6)
        gen, norm_row, null_row, _ = _retained_system(small_fl(mk=21, w=20.0))
        for g, norm, null in ((gen, norm_row, null_row), (rates, np.ones(6), np.ones(6))):
            for sign in (1.0, -1.0):
                x, sep = _stationary_solve(sign * g, norm, null)
                xc, sep_c = _stationary_solve(sign * g.astype(complex), norm, null)
                assert x.dtype == np.float64
                assert np.abs(x - xc).max() <= 1e-12 * np.abs(xc).max()
                assert sep == pytest.approx(sep_c, rel=1e-6)

    def test_agreement_with_effective_solution(self):
        # W = 100 leaves ~1% of Lorentzian tail outside the band; 2e-2 is
        # the documented tolerance of this discretization class
        ss = steady_state(P_REF)
        fl = small_fl(P_REF, mk=201, w=100.0)
        sol = oracle_steady_state(fl)
        nc = sum(sol.reduced.continuum_pops)
        assert nc == pytest.approx(ss.continuum_pops[0], rel=2e-2)
        r = oracle_rate(P_REF, sol)
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


# Peak memory of one certified solve of the 1608-unknown retained system (a
# two-level model on one 401-level comb).  A freed copy of the generator
# lifts the high-water mark to the generator plus one copy first, so the
# growth across the call counts what the solve holds beyond that: LAPACK's
# working copy fits under it; a second copy of the generator does not.
_MEMORY_FLOOR = """
import resource
import sys
from fanosolve import DiscretizationSpec, FanoParams, build_full_lindbladian, fano_model
from fanosolve.oracle import _retained_system
from fanosolve.superop import _stationary_solve

p = FanoParams(epsilon=0.0, q=1.0, Omega=0.05, Gamma_e=0.1, Gamma_cg=2.0)
fl = build_full_lindbladian(fano_model(p), DiscretizationSpec(400.0, 401))
gen, norm_row, null_row, _ = _retained_system(fl)
spare = gen.copy()
del spare
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
_stationary_solve(gen, norm_row, null_row)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss in bytes or KiB
print(gen.shape[0], (after - before) * unit / gen.nbytes)
"""


def test_solve_holds_one_copy_of_the_generator():
    src = os.path.dirname(os.path.dirname(fanosolve.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", _MEMORY_FLOOR], capture_output=True,
                         text=True, timeout=120, env=env, check=True)
    d, growth = res.stdout.split()
    assert int(d) == 1608
    assert float(growth) <= 0.75


_NO_SCIPY = """
import os
import sys
from fanosolve.cli import main

assert main(["oracle", "--config", sys.argv[1], "--out", os.devnull]) == 0
assert main(["steady", "--q", "1", "--omega", "0.1", "--eps", "-3:3:41",
             "--out", os.devnull, "--summary", os.devnull]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_runs_without_scipy():
    src = os.path.dirname(os.path.dirname(fanosolve.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = os.path.join(os.path.dirname(__file__), "data", "golden", "two_band.yaml")
    res = subprocess.run([sys.executable, "-c", _NO_SCIPY, cfg], capture_output=True,
                         text=True, timeout=120, env=env, check=True)
    assert res.stdout.splitlines()[-1] == "[]"


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
            rs.append(oracle_rate(p, oracle_steady_state(fl)))
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
        study = convergence_study(fano_model(P_REF), ladder, P_REF.epsilon)
        # the study derives its reference from the effective solution itself
        assert study.nc_reference == ss.continuum_pops[0]
        assert study.r_reference == transport_rate(P_REF)
        assert study.decreasing
        assert study.nc_errors[-1] < 2e-2

    def test_diagnostics_kept_per_rung(self):
        ladder = [DiscretizationSpec(25.0, 26), DiscretizationSpec(50.0, 51)]
        model = fano_model(P_REF)
        study = convergence_study(model, ladder, P_REF.epsilon)
        for k, spec in enumerate(ladder):
            sol = oracle_steady_state(build_full_lindbladian(model, spec, P_REF.epsilon))
            assert study.residuals[k] == pytest.approx(sol.residual, rel=1e-6)
            assert study.eigenvalue_floors[k] == pytest.approx(sol.eigenvalue_floor, abs=1e-14)
            assert study.kernel_separations[k] == pytest.approx(sol.kernel_separation, rel=1e-6)
        assert study.residuals.shape == study.kernel_separations.shape == (2,)

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
