import logging

import numpy as np
import pytest
from helpers import (cramer_system, discrete_dissipator_superop, quantum_jump_matrix,
                     rate_matrix, steady_state_cramer, svd_gap, two_lu_separation)

from fanosolve import (FanoParams, SteadyStateError, absorption_rate,
                       build_effective_liouvillian, build_heff, lineshape_sweep,
                       steady_state, transport_rate, weak_field_rate)
from fanosolve.superop import _stationary_solve, hamiltonian_superop, trace_row


def random_params(rng, n, beta_lt_1=False):
    for _ in range(n):
        gcg = rng.uniform(0.1, 3.0)
        gce = rng.uniform(0.0, 2.0) if beta_lt_1 else 0.0
        yield FanoParams(epsilon=rng.uniform(-10, 10), q=rng.uniform(-3, 3),
                         Omega=rng.uniform(0.0, 2.0), Gamma_e=rng.uniform(0, 1),
                         Gamma_cg=gcg, Gamma_ce=gce, gamma_eg=rng.uniform(0, 2))


def state_vec(ss):
    return np.array([ss.rho[0, 0], ss.rho[1, 0], ss.rho[0, 1], ss.rho[1, 1]])


class TestBuild:
    def test_closed_form_matrix_beta_one(self):
        p = FanoParams(0.7, 1.3, 0.2, Gamma_e=0.15, Gamma_cg=1.0, gamma_eg=0.3)
        K = 1 + 1.3j
        Om, Ge = 0.2, 0.15
        A = -Ge - Om**2 - 0.7j - 0.3 - 1
        ref = np.array([
            [0, K * Om, K.conjugate() * Om, 2 * Ge + 2],
            [-K.conjugate() * Om, A, 0, -K * Om],
            [-K * Om, 0, A.conjugate(), -K.conjugate() * Om],
            [0, -K * Om, -K.conjugate() * Om, -2 - 2 * Ge],
        ])
        np.testing.assert_allclose(build_effective_liouvillian(p).matrix, ref,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("beta", [1.0, 0.3])
    def test_closed_form_matrix_general_beta(self, beta):
        # the general-beta rows of the liouville module docstring, entry by entry
        p = FanoParams(0.7, 1.3, 0.2, Gamma_e=0.15, Gamma_cg=beta, Gamma_ce=1 - beta,
                       gamma_eg=0.3)
        K = 1 + 1.3j
        W, Ge, b = 0.2, 0.15, beta
        A = -Ge - W**2 - 0.7j - 0.3 - 1
        ref = np.array([
            [2 * W**2 * (b - 1), (2 * b - 1 + 1.3j) * W, (2 * b - 1 - 1.3j) * W, 2 * b + 2 * Ge],
            [-K.conjugate() * W, A, 0, -K * W],
            [-K * W, 0, A.conjugate(), -K.conjugate() * W],
            [2 * W**2 * (1 - b), (1 - 2 * b - 1.3j) * W, (1 - 2 * b + 1.3j) * W,
             2 * (1 - b) - 2 - 2 * Ge],
        ])
        np.testing.assert_allclose(build_effective_liouvillian(p).matrix, ref,
                                   rtol=0, atol=1e-15)

    def test_A_substitution(self):
        p = FanoParams(0.0, 1.0, 0.1, Gamma_e=0.0, gamma_eg=0.0)
        assert build_effective_liouvillian(p).matrix[1, 1] == pytest.approx(-1.01)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(11)
        for p in random_params(rng, 200, beta_lt_1=True):
            eff = build_effective_liouvillian(p)
            rhs = (hamiltonian_superop(build_heff(p)) + quantum_jump_matrix(p)
                   + discrete_dissipator_superop(p))
            assert np.abs(eff.matrix - rhs).max() < 1e-14 * max(
                1.0, np.abs(eff.matrix).max())

    def test_coherence_conjugation_symmetry(self):
        # swapping the two coherence components conjugates the generator
        perm = np.array([0, 2, 1, 3])
        rng = np.random.default_rng(12)
        for p in random_params(rng, 50, beta_lt_1=True):
            L = build_effective_liouvillian(p).matrix
            np.testing.assert_allclose(L[np.ix_(perm, perm)], L.conj(),
                                       rtol=0, atol=1e-15)

    def test_population_rows_cancel(self):
        rng = np.random.default_rng(13)
        for p in random_params(rng, 50, beta_lt_1=True):
            L = build_effective_liouvillian(p).matrix
            np.testing.assert_allclose(L[0] + L[3], 0.0, atol=1e-15)

    def test_continuum_dephasing_ignored_bitwise(self, caplog):
        base = dict(epsilon=0.3, q=1.0, Omega=0.2, Gamma_e=0.1, gamma_eg=0.4)
        sweeps = []
        for gk in (0.0, 5.0):
            p = FanoParams(**base, gamma_kg=gk, gamma_ke=gk)
            with caplog.at_level(logging.INFO, logger="fanosolve"):
                sw = lineshape_sweep(p, np.linspace(-5, 5, 21))
            sweeps.append(sw.values)
        assert sweeps[0].tobytes() == sweeps[1].tobytes()
        # one notice per sweep, not one per point: the generator is built once
        assert sum("ignored" in rec.message for rec in caplog.records) == 1

    def test_zero_gamma_c_rejected(self):
        with pytest.raises(ValueError):
            build_effective_liouvillian(
                FanoParams(0.0, 1.0, 0.1, Gamma_cg=0.0, Gamma_ce=0.0))


class TestCramer:
    def test_closed_form_system_beta_one(self):
        p = FanoParams(-1.2, 0.8, 0.3, Gamma_e=0.2, Gamma_cg=1.0, gamma_eg=0.1)
        sys_ = cramer_system(p)
        K = 1 + 0.8j
        Om = 0.3
        A = -0.2 - 0.09 + 1.2j - 0.1 - 1
        M_ref = np.array([[0, K * Om, K.conjugate() * Om],
                          [-K.conjugate() * Om, A, 0],
                          [-K * Om, 0, A.conjugate()]])
        b_ref = np.array([-(2 * 0.2 + 2), K * Om, K.conjugate() * Om])
        np.testing.assert_allclose(sys_.M, M_ref, atol=1e-15)
        np.testing.assert_allclose(sys_.b, b_ref, atol=1e-15)

    def test_cramer_matches_nullspace_solution(self):
        rng = np.random.default_rng(14)
        for p in random_params(rng, 1000, beta_lt_1=True):
            if p.Omega == 0:
                continue
            a = state_vec(steady_state(p))
            b = state_vec(steady_state_cramer(p))
            assert np.abs(a - b).max() < 1e-10


class TestSteadyState:
    def test_dark_state_without_drive(self):
        ss = steady_state(FanoParams(0.0, 1.0, 0.0, Gamma_e=1.0))
        np.testing.assert_allclose(ss.rho, np.diag([1.0, 0.0]), atol=1e-14)
        assert ss.continuum_pops[0] == pytest.approx(0.0, abs=1e-14)

    def test_kernel_residual(self):
        rng = np.random.default_rng(15)
        for p in random_params(rng, 300, beta_lt_1=True):
            eff = build_effective_liouvillian(p)
            v = state_vec(steady_state(p))
            assert np.abs(eff.matrix @ v).max() < 1e-12

    def test_positivity_and_normalization_bulk(self):
        rng = np.random.default_rng(16)
        for p in random_params(rng, 10_000, beta_lt_1=True):
            ss = steady_state(p)
            assert ss.populations.min() >= -1e-10
            assert ss.continuum_pops[0] >= -1e-10
            assert abs(ss.total - 1.0) < 1e-10

    def test_degenerate_kernel_rejected(self):
        # no drive and relaxation only into the excited/continuum loop:
        # the ground population decouples and the kernel is two-dimensional
        p = FanoParams(0.0, 1.0, 0.0, Gamma_e=0.0, Gamma_cg=0.0, Gamma_ce=1.0)
        with pytest.raises(SteadyStateError, match="kernel dimension"):
            steady_state(p)

    def test_separation_estimate_tracks_svd_gap(self):
        rng = np.random.default_rng(17)
        for p in random_params(rng, 500, beta_lt_1=True):
            eff = build_effective_liouvillian(p)
            _, sep = _stationary_solve(eff.matrix, trace_row(2) + eff.C_coeffs[0], trace_row(2))
            assert 0.1 < sep / svd_gap(eff.matrix) < 10

    def test_one_lu_certificate_matches_two_lu(self):
        rng = np.random.default_rng(18)
        params = list(random_params(rng, 300, beta_lt_1=True))
        params.append(FanoParams(0.0, 1.0, 1e7, Gamma_cg=0.0, Gamma_ce=1.0))  # saturated
        for p in params:
            eff = build_effective_liouvillian(p)
            _, sep = _stationary_solve(eff.matrix, trace_row(2) + eff.C_coeffs[0], trace_row(2))
            assert sep == pytest.approx(two_lu_separation(eff.matrix, trace_row(2)), rel=1e-2)

    @pytest.mark.parametrize("row", [np.array([1.0, 0.3, 0.3, -1.0]), np.zeros(4)],
                             ids=["orthogonal", "zero"])
    def test_vanishing_normalization_named(self, row):
        # a normalization row that vanishes on the kernel leaves the
        # trace-bordered certificate clean but the normalized solve singular
        L = build_effective_liouvillian(FanoParams(0.3, 1.2, 0.2, Gamma_e=0.1)).matrix
        x, _ = _stationary_solve(L, trace_row(2), trace_row(2))
        with pytest.raises(SteadyStateError, match="normalization vanishes on the kernel"):
            _stationary_solve(L, row - (row @ x) * trace_row(2), trace_row(2))

    def test_singular_point_of_stack_named(self):
        good = build_effective_liouvillian(FanoParams(0.0, 1.0, 0.1, Gamma_e=0.1)).matrix
        dark = build_effective_liouvillian(
            FanoParams(0.0, 1.0, 0.0, Gamma_cg=0.0, Gamma_ce=1.0)).matrix
        with pytest.raises(SteadyStateError, match="at sweep point 2: kernel dimension"):
            _stationary_solve(np.stack([good, good, dark, good]), trace_row(2), trace_row(2))


def input_cases():
    """(gen, norm_row, null_row, error match or None) for every exit of the solve."""
    tr = trace_row(2)
    good = build_effective_liouvillian(FanoParams(0.3, 1.2, 0.2, Gamma_e=0.1)).matrix
    dark = build_effective_liouvillian(
        FanoParams(0.0, 1.0, 0.0, Gamma_cg=0.0, Gamma_ce=1.0)).matrix
    x, _ = _stationary_solve(good, tr, tr)
    row = np.array([1.0, 0.3, 0.3, -1.0])
    split = np.zeros((4, 4))  # two disconnected rate blocks: a 2-D kernel
    split[:2, :2] = split[2:, 2:] = rate_matrix(2)
    leaky = rate_matrix(4)
    leaky[0] += 1.0  # row 0 no longer cancels: the residual check fails
    nan = good.copy()
    nan[1, 1] = np.nan
    ones = np.ones(4)
    return {
        "real": (rate_matrix(4), ones, ones, None),
        "complex": (good, tr, tr, None),
        "fortran": (np.asfortranarray(rate_matrix(4)), ones, ones, None),
        "stack": (np.stack([good, dark + 0.1 * good]), tr, tr, None),
        "real-degenerate": (split, ones, ones, "kernel dimension"),
        "complex-degenerate": (dark, tr, tr, "kernel dimension"),
        "stack-degenerate": (np.stack([good, good, dark, good]), tr, tr,
                             "at sweep point 2: kernel dimension"),
        "norm-singular": (good, np.zeros(4), tr, "vanishes on the kernel$"),
        "norm-weight": (good, row - (row @ x) * tr, tr, r"vanishes on the kernel \(weight"),
        "residual": (leaky, ones, ones, "steady-state residual"),
        "non-finite": (nan, tr, tr, "non-finite entries"),
    }


class TestInputUnchanged:
    # row 0 of the generator is bordered in place: it must be restored bit
    # for bit on every return and every raise

    @pytest.mark.parametrize("case", ["real", "complex", "fortran", "stack", "real-degenerate",
                                      "complex-degenerate", "stack-degenerate",
                                      "norm-singular", "norm-weight", "residual",
                                      "non-finite"])
    def test_generator_restored(self, case):
        gen, norm_row, null_row, match = input_cases()[case]
        before = gen.copy()
        if match is None:
            _stationary_solve(gen, norm_row, null_row)
        else:
            with pytest.raises(SteadyStateError, match=match):
                _stationary_solve(gen, norm_row, null_row)
        assert gen.tobytes() == before.tobytes()

    @pytest.mark.parametrize("case", ["real", "complex", "fortran", "stack"])
    def test_read_only_generator_solves(self, case):
        gen, norm_row, null_row, _ = input_cases()[case]
        x, sep = _stationary_solve(gen, norm_row, null_row)
        gen.setflags(write=False)
        x_ro, sep_ro = _stationary_solve(gen, norm_row, null_row)
        assert np.array_equal(x_ro, x) and np.array_equal(sep_ro, sep)

    def test_read_only_copy_keeps_storage_order(self, monkeypatch):
        gen, norm_row, null_row, _ = input_cases()["fortran"]
        gen.setflags(write=False)
        orders = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: orders.append(a.flags.f_contiguous) or solve(a, b))
        _stationary_solve(gen, norm_row, null_row)
        assert orders == [True]


class TestTransport:
    def test_gamma_c_invariance(self):
        vals = [transport_rate(FanoParams(0.4, 1.0, 0.05, 0.1, Gamma_cg=gc))
                for gc in (0.01, 1.0, 100.0)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-10 * abs(vals[0])

    def test_weak_field_recovers_scattering_rate(self):
        q, Om = 1.0, 0.01
        for eps in np.linspace(-5, 5, 41):
            r = transport_rate(FanoParams(eps, q, Om, Gamma_e=0.0))
            w = weak_field_rate(eps, q, Om)
            if abs(eps + q) > 0.05:
                assert r == pytest.approx(w, rel=0.01)

    def test_fano_zero_floor(self):
        r = transport_rate(FanoParams(-1.0, 1.0, 0.01, Gamma_e=0.0))
        assert r < 5e-8

    def test_error_scaling_order_omega4(self):
        q = 1.0
        consts = []
        for om in (0.1, 0.03, 0.01):
            worst = max(abs(transport_rate(FanoParams(e, q, om, 0.0))
                            - weak_field_rate(e, q, om))
                        for e in np.linspace(-5, 5, 21))
            consts.append(worst / (om**4 * (1 + q**2) ** 2))
        assert max(consts) / min(consts) < 1.5

    def test_saturated_ground_state_rejected(self):
        # beta = 0 re-excites everything through the excited state; at an
        # absurd drive the ground population drops below resolution
        p = FanoParams(0.0, 1.0, 1e7, Gamma_e=0.0, Gamma_cg=0.0, Gamma_ce=1.0)
        with pytest.raises(SteadyStateError):
            transport_rate(p)


class TestAbsorption:
    def test_flux_balance_identity(self):
        # photon absorption equals the dissipative return flux into g
        rng = np.random.default_rng(17)
        for p in random_params(rng, 300, beta_lt_1=True):
            ss = steady_state(p)
            lhs = absorption_rate(p, ss)
            rhs = (p.beta * p.Gamma_c * ss.continuum_pops[0]
                   + 2 * p.Gamma_e * np.real(ss.rho[1, 1]))
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_weak_field_fano_shape(self):
        p = FanoParams(0.0, 2.0, 0.01, Gamma_e=0.0)
        sw = lineshape_sweep(p, np.linspace(-8, 8, 33), observable="absorption")
        ref = weak_field_rate(sw.epsilons, 2.0, 0.01)
        np.testing.assert_allclose(sw.values, ref, rtol=2e-3, atol=1e-9)


class TestSweep:
    def test_rational_quadratic_form_held_out(self):
        rng = np.random.default_rng(18)
        fit_eps = np.linspace(-10, 10, 11)
        held = rng.uniform(-10, 10, size=50)
        for _ in range(10):
            p = FanoParams(0.0, rng.uniform(-3, 3), rng.uniform(0.1, 0.5),
                           rng.uniform(0, 0.5), Gamma_cg=1.0,
                           gamma_eg=rng.uniform(0, 2))
            sw = lineshape_sweep(p, fit_eps)
            ref = lineshape_sweep(p, held)
            assert sw.fit is not None
            assert sw.fit.held_out_residual(held, ref.values) < 1e-8

    def test_dephasing_grows_lorentzian_weight(self):
        eps = np.linspace(-10, 10, 41)
        base = dict(epsilon=0.0, q=1.5, Omega=0.1, Gamma_e=0.2)
        d0 = lineshape_sweep(FanoParams(**base, gamma_eg=0.0), eps).decomposition.D
        d10 = lineshape_sweep(FanoParams(**base, gamma_eg=10.0), eps).decomposition.D
        assert d10 > d0
        assert d0 >= -1e-10

    def test_near_pure_fano_without_dephasing(self):
        p = FanoParams(0.0, 1.0, 0.05, Gamma_e=0.0, gamma_eg=0.0)
        dec = lineshape_sweep(p, np.linspace(-10, 10, 41)).decomposition
        assert dec.D / (dec.q**2 + dec.D) < 0.05

    def test_zero_drive_gives_zeros(self):
        sw = lineshape_sweep(FanoParams(0.0, 1.0, 0.0, Gamma_e=0.5),
                             np.linspace(-5, 5, 11))
        np.testing.assert_allclose(sw.values, 0.0, atol=1e-15)

    def test_beta_below_one_still_rational_quadratic(self):
        # branching to the excited state keeps the exact quadratic/quadratic
        # form; the fit residual stays at float noise and is reported
        p = FanoParams(0.0, 1.0, 0.3, Gamma_e=0.1, Gamma_cg=0.5, Gamma_ce=0.5)
        sw = lineshape_sweep(p, np.linspace(-10, 10, 41))
        assert sw.fit_residual < 1e-9

    def test_transport_observable_sweep(self):
        p = FanoParams(0.0, 1.0, 0.05, Gamma_e=0.1)
        sw = lineshape_sweep(p, np.linspace(-5, 5, 11), observable="transport_rate")
        assert np.all(sw.values >= 0)

    def test_unknown_observable(self, monkeypatch):
        # the message lists the observables of fanosolve.general.OBSERVABLES
        with pytest.raises(ValueError, match=r"continuum_pop.*transport_rate.*absorption"):
            lineshape_sweep(FanoParams(0, 1, 0.1), np.linspace(-1, 1, 7),
                            observable="bogus")

        # ... and the name is checked before anything is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("general_sweep called for an unknown observable")

        monkeypatch.setattr("fanosolve.liouville.general_sweep", no_solve)
        with pytest.raises(ValueError, match=r"continuum_pop.*transport_rate.*absorption"):
            lineshape_sweep(FanoParams(0, 1, 0.1), np.linspace(-1, 1, 20001),
                            observable="bogus")
