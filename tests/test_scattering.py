import numpy as np
import pytest
from scipy.linalg import expm

from fanosolve import (FanoParams, build_heff, fano_profile, ionization_sweep,
                       poles, survival_probability, weak_field_rate)
from fanosolve.scattering import survival_rate

# exact two-pole confluence: the radicand (2+i)^2 - 2(1+2i) - 1 vanishes
EP_PARAMS = FanoParams(epsilon=2.0, q=0.0, Omega=1.0)
# the q = 1 exceptional point: Omega = sqrt(2) - 1, epsilon = 2 sqrt(2) - 2
EP_Q1 = (2.0 * np.sqrt(2.0) - 2.0, 1.0, np.sqrt(2.0) - 1.0)


def random_params(rng, n):
    for _ in range(n):
        yield FanoParams(epsilon=rng.uniform(-10, 10), q=rng.uniform(-5, 5),
                         Omega=rng.uniform(0, 3))


class TestHeff:
    def test_decoupled_ground_state(self):
        h = build_heff(FanoParams(2.0, 1.0, 0.0))
        np.testing.assert_allclose(h, np.diag([0.0, -2.0 - 1j]))

    def test_direct_substitution(self):
        h = build_heff(FanoParams(0.0, 1.0, 0.1))
        ref = np.array([[-0.01j, 0.1 - 0.1j], [0.1 - 0.1j, -1j]])
        np.testing.assert_allclose(h, ref, atol=1e-15)

    def test_eigenvalues_decay(self):
        rng = np.random.default_rng(3)
        for p in random_params(rng, 300):
            evals = np.linalg.eigvals(build_heff(p))
            assert np.all(evals.imag <= 1e-14)


class TestPoles:
    def test_omega_zero_limit(self):
        pd = poles(FanoParams(2.5, 1.0, 0.0))
        assert pd.z1 == pytest.approx(0.0)
        assert pd.z2 == pytest.approx(-2.5 - 1j)
        assert pd.a1 == pytest.approx(1.0)
        assert pd.a2 == pytest.approx(0.0)

    def test_characteristic_polynomial(self):
        rng = np.random.default_rng(5)
        for p in random_params(rng, 500):
            pd = poles(p)
            h = build_heff(p)
            scale = max(1.0, np.abs(h).max() ** 2)
            for z in (pd.z1, pd.z2):
                assert abs(np.linalg.det(z * np.eye(2) - h)) < 1e-12 * scale

    def test_vieta_and_residue_sum(self):
        rng = np.random.default_rng(6)
        for p in random_params(rng, 500):
            pd = poles(p)
            det = np.linalg.det(build_heff(p))
            assert abs(pd.z1 + pd.z2 + pd.omega0) < 1e-12 * max(1, abs(pd.omega0))
            assert abs(pd.z1 * pd.z2 - det) < 1e-12 * max(1, abs(det))
            assert abs(pd.a1 + pd.a2 - 1) < 1e-12

    def test_rate_relations_and_branch(self):
        rng = np.random.default_rng(7)
        for p in random_params(rng, 300):
            pd = poles(p)
            assert pd.omega.imag >= 0
            assert pd.Gamma0 <= pd.Gamma2
            assert pd.Gamma0 >= -1e-13
            assert pd.Gamma1 == pytest.approx(1 + p.Omega**2)
            assert pd.Gamma0 + pd.Gamma2 == pytest.approx(2 * pd.Gamma1)
            assert -2 * pd.z1.imag == pytest.approx(pd.Gamma0, abs=1e-12)

    def test_weak_field_gamma0(self):
        # slow rate approaches the Fano rate with O(Omega^4) error
        p = FanoParams(0.0, 1.0, 0.01)
        pd = poles(p)
        ref = 2 * p.Omega**2 * (p.epsilon + p.q) ** 2 / (1 + p.epsilon**2)
        assert abs(pd.Gamma0 - ref) <= 5e-4 * (1 + p.q**2) * ref

    def test_branch_swap_leaves_survival_invariant(self):
        rng = np.random.default_rng(8)
        for p in random_params(rng, 100):
            pd = poles(p)
            if pd.degenerate:
                continue
            t = np.linspace(0.0, 20.0, 7)
            u = pd.a1 * np.exp(-1j * pd.z1 * t) + pd.a2 * np.exp(-1j * pd.z2 * t)
            swapped = pd.a2 * np.exp(-1j * pd.z2 * t) + pd.a1 * np.exp(-1j * pd.z1 * t)
            np.testing.assert_allclose(np.abs(u) ** 2, np.abs(swapped) ** 2,
                                       rtol=0, atol=1e-12)


class TestSurvival:
    def test_initial_value(self):
        assert survival_probability(FanoParams(1.0, 2.0, 0.5), 0.0) == pytest.approx(1.0)

    def test_no_coupling(self):
        for t in (0.0, 5.0, 500.0):
            assert survival_probability(FanoParams(1.0, 2.0, 0.0), t) == pytest.approx(1.0)

    def test_matches_matrix_exponential(self):
        p = FanoParams(0.0, 1.0, 0.01)
        h = build_heff(p)
        for t in (1.0, 10.0, 100.0):
            ref = abs(expm(-1j * h * t)[0, 0]) ** 2
            assert survival_probability(p, t) == pytest.approx(ref, abs=1e-12)

    def test_three_exponential_form(self):
        p = FanoParams(0.0, 1.0, 0.01)
        pd = poles(p)
        t = 100.0
        three = (abs(pd.a1) ** 2 * np.exp(-pd.Gamma0 * t)
                 + abs(pd.a2) ** 2 * np.exp(-pd.Gamma2 * t)
                 + 2 * np.real(pd.a1 * np.conj(pd.a2)
                               * np.exp(-1j * pd.omega.real * t)) * np.exp(-pd.Gamma1 * t))
        assert survival_probability(p, t) == pytest.approx(three, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(9)
        for p in random_params(rng, 200):
            s = survival_probability(p, rng.uniform(0, 50))
            assert -1e-12 <= s <= 1 + 1e-9

    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("entry", [
        survival_probability,
        survival_rate,
        lambda p, t: ionization_sweep([p.epsilon], [0.0, t], q=p.q, Omega=p.Omega),
    ], ids=["survival_probability", "survival_rate", "ionization_sweep"])
    def test_negative_time_rejected(self, entry, t):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            entry(FanoParams(0.0, 1.0, 0.1), t)

    def test_degenerate_pole_handled(self):
        pd = poles(EP_PARAMS)
        assert pd.degenerate
        assert np.isnan(pd.a1) and np.isnan(pd.a2)
        h = build_heff(EP_PARAMS)
        for t in (0.5, 2.0, 10.0):
            ref = abs(expm(-1j * h * t)[0, 0]) ** 2
            assert survival_probability(EP_PARAMS, t) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("ep", [(2.0, 0.0, 1.0), EP_Q1], ids=["q0", "q1"])
    def test_exceptional_point_walk_matches_expm(self, ep):
        # walk onto the confluence, where a two-pole sum divides by omega -> 0
        eps0, q, Om = ep
        walk = [eps0 + d for d in (1e-2, 1e-6, 1e-10, 1e-12, 1e-14, 0.0)]
        ts = np.array([0.5, 2.0, 10.0])
        swept = ionization_sweep(walk, ts, q=q, Omega=Om)
        for j, eps in enumerate(walk):
            p = FanoParams(eps, q, Om)
            h = build_heff(p)
            for i, t in enumerate(ts):
                u = expm(-1j * h * t)
                u00, du00 = u[0, 0], (-1j * h @ u)[0, 0]
                ref_s = abs(u00) ** 2
                ref_rate = 2.0 * np.real(np.conj(u00) * du00)
                assert abs(survival_probability(p, t) - ref_s) < 1e-12
                assert abs(survival_rate(p, t) - ref_rate) < 1e-12
                assert abs(swept[i, j] - (1.0 - ref_s)) < 1e-12

    def test_rate_is_derivative(self):
        p = FanoParams(0.4, 1.5, 0.3)
        t = 3.0
        h = 1e-6
        num = (survival_probability(p, t + h) - survival_probability(p, t - h)) / (2 * h)
        assert survival_rate(p, t) == pytest.approx(num, rel=1e-7)


class TestWeakFieldRate:
    def test_fano_zero(self):
        assert weak_field_rate(-2.0, 2.0, 0.01) == 0.0

    def test_reference_point(self):
        assert weak_field_rate(0.0, 1.0, 0.01) == pytest.approx(2e-4)

    def test_finite_difference_consistency(self):
        # secant slope of P(t) over t in [10, 50] against the rate formula
        q, Om = 1.0, 0.01
        for eps in np.linspace(-5, 5, 41):
            if abs(eps + q) <= 0.1:
                continue
            p = FanoParams(eps, q, Om)
            slope = -(survival_probability(p, 50.0) - survival_probability(p, 10.0)) / 40.0
            assert slope == pytest.approx(weak_field_rate(eps, q, Om), rel=0.02)


class TestIonizationSweep:
    def test_shape_and_range(self):
        eps = np.linspace(-10, 10, 21)
        times = np.array([10.0, 100.0, 300.0])
        p = ionization_sweep(eps, times, q=1.0, Omega=0.01)
        assert p.shape == (3, 21)
        assert np.all(p >= 0) and np.all(p <= 1)

    def test_monotone_in_time(self):
        # Nondecreasing after the interference transient has died out; at
        # T ~ 10 the decaying cross term can still undercut the slow growth
        # near the profile zero by ~1e-8.
        eps = np.linspace(-10, 10, 41)
        for Om in (0.01, 0.1, 5.0):
            p = ionization_sweep(eps, np.array([10.0, 20.0, 50.0, 100.0, 300.0]),
                                 q=1.0, Omega=Om)
            assert np.all(np.diff(p, axis=0) >= -1e-7)
            p_late = ionization_sweep(eps, np.array([30.0, 100.0, 300.0]),
                                      q=1.0, Omega=Om)
            assert np.all(np.diff(p_late, axis=0) >= -1e-12)

    def test_long_time_saturation(self):
        eps = np.linspace(-10, 10, 11)
        p = ionization_sweep(eps, np.array([1e6]), q=1.0, Omega=0.05)
        np.testing.assert_allclose(p, 1.0, atol=1e-6)

    def test_weak_field_profile_tracks_fano(self):
        # Peak-normalized P(T) follows the profile once T >> 1; the T = 10
        # snapshot still carries ~7% of transient (documented, looser bound).
        eps = np.linspace(-10, 10, 161)
        f = fano_profile(eps, 1.0)
        f = f / f.max()
        p = ionization_sweep(eps, np.array([10.0, 20.0, 50.0, 100.0, 300.0]),
                             q=1.0, Omega=0.01)
        for i, tol in enumerate([0.10, 0.05, 0.05, 0.05, 0.05]):
            prof = p[i] / p[i].max()
            assert np.abs(prof - f).max() < tol

    def test_strong_field_profile_is_flat(self):
        eps = np.linspace(-10, 10, 81)
        p = ionization_sweep(eps, np.array([1.0]), q=1.0, Omega=5.0)[0]
        assert p.max() / p.min() < 1.5


def test_rate_hierarchy_weak_field():
    # slow pole well separated; the two fast rates share the O(1) scale
    pd = poles(FanoParams(0.0, 1.0, 0.01))
    assert pd.Gamma0 / pd.Gamma1 < 1e-3
    assert pd.Gamma0 / pd.Gamma2 < 1e-3
    assert 1.0 <= pd.Gamma2 / pd.Gamma1 < 2.5
