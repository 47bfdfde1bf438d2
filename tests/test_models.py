import numpy as np
import pytest

from fanosolve import ComplexQ, Continuum, DensityMatrixP, FanoParams, GeneralModel, validate_model


def two_level_model(**kw):
    dip = np.zeros((2, 2), dtype=complex)
    dip[0, 1] = dip[1, 0] = 0.05
    defaults = dict(
        energies=(0.0, 0.0),
        photon_indices=(0, 1),
        dipoles=dip,
        continua=(Continuum(density=1 / np.pi, couplings=(0.05, 1.0),
                            relax_rates=(1.0, 0.0)),),
    )
    defaults.update(kw)
    return GeneralModel(**defaults)


class TestFanoParams:
    def test_rates_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="Omega"):
            FanoParams(0.0, 1.0, -0.1)
        with pytest.raises(ValueError, match="Gamma_e"):
            FanoParams(0.0, 1.0, 0.1, Gamma_e=-1)

    @pytest.mark.parametrize("name", ["epsilon", "q", "Omega", "Gamma_e", "Gamma_cg",
                                      "Gamma_ce", "gamma_eg", "gamma_kg", "gamma_ke"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, name, value):
        kw = dict(epsilon=0.0, q=1.0, Omega=0.1)
        kw[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FanoParams(**kw)

    def test_epsilon_and_q_any_sign(self):
        FanoParams(-3.0, -2.0, 0.0)

    def test_beta(self):
        p = FanoParams(0.0, 1.0, 0.1, Gamma_cg=0.3, Gamma_ce=0.1)
        assert p.beta == pytest.approx(0.75)
        assert p.Gamma_c == pytest.approx(0.4)
        with pytest.raises(ValueError):
            FanoParams(0.0, 1.0, 0.1, Gamma_cg=0.0, Gamma_ce=0.0).beta

    def test_with_epsilon(self):
        p = FanoParams(0.0, 1.0, 0.1, gamma_eg=2.0)
        p2 = p.with_epsilon(4.0)
        assert p2.epsilon == 4.0 and p2.gamma_eg == 2.0


class TestComplexQ:
    def test_modulus(self):
        assert ComplexQ(3.0, 4.0).abs2 == pytest.approx(25.0)

    def test_negative_imag_rejected(self):
        with pytest.raises(ValueError):
            ComplexQ(1.0, -0.5)


class TestValidateModel:
    def test_valid_model_has_no_violations(self):
        assert validate_model(two_level_model()) == []

    def test_zero_relaxation_continuum(self):
        m = two_level_model(continua=(Continuum(density=1 / np.pi,
                                                couplings=(0.05, 1.0),
                                                relax_rates=(0.0, 0.0)),))
        assert any("total relaxation rate is zero" in v for v in validate_model(m))

    def test_non_hermitian_dipoles(self):
        dip = np.zeros((2, 2), dtype=complex)
        dip[0, 1] = 1.0
        dip[1, 0] = 2.0
        m = two_level_model(dipoles=dip)
        assert any("not Hermitian" in v for v in validate_model(m))

    def test_diagonal_dipole_rejected(self):
        dip = np.zeros((2, 2), dtype=complex)
        dip[0, 0] = 1.0
        m = two_level_model(dipoles=dip)
        assert any("diagonal" in v for v in validate_model(m))

    def test_bad_jump_reference(self):
        m = two_level_model(jumps=((5, 0, 0.1),))
        assert any("missing level" in v for v in validate_model(m))

    @pytest.mark.parametrize("field, kw", [
        ("energies", dict(energies=(0.0, np.nan))),
        ("dipole", dict(dipoles=np.array([[0, np.inf], [np.inf, 0]]))),
        ("density", dict(continua=(Continuum(density=np.nan, couplings=(0.05, 1.0),
                                             relax_rates=(1.0, 0.0)),))),
        ("density", dict(continua=(Continuum(density=np.inf, couplings=(0.05, 1.0),
                                             relax_rates=(1.0, 0.0)),))),
        ("couplings", dict(continua=(Continuum(density=1.0, couplings=(np.nan, 1.0),
                                               relax_rates=(1.0, 0.0)),))),
        ("relax_rates", dict(continua=(Continuum(density=1.0, couplings=(0.05, 1.0),
                                                 relax_rates=(1.0, np.nan)),))),
        ("dephase_rates", dict(continua=(Continuum(density=1.0, couplings=(0.05, 1.0),
                                                   relax_rates=(1.0, 0.0),
                                                   dephase_rates=(np.inf, 0.0)),))),
        ("jump", dict(jumps=((1, 0, np.nan),))),
        ("dephasing", dict(dephasings=((0, 1, np.inf),))),
    ])
    def test_non_finite_entries_flagged(self, field, kw):
        problems = validate_model(two_level_model(**kw))
        assert any(field in msg and "finite" in msg for msg in problems), problems


class TestDensityMatrixP:
    def test_valid_state(self):
        rho = np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.2]])
        s = DensityMatrixP(rho, (0.1,))
        assert s.check() == []
        assert s.total == pytest.approx(1.0)

    def test_violations_reported(self):
        rho = np.array([[0.7, 0.3j], [0.0, 0.2]])
        s = DensityMatrixP(rho, (0.4,))
        msgs = s.check()
        assert any("Hermitian" in m for m in msgs)
        assert any("normalization" in m for m in msgs)
