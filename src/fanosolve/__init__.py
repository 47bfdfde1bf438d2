"""Beutler-Fano lineshapes of driven discrete-continuum quantum systems.

Two exact routes to the same family of asymmetric profiles:

- :mod:`fanosolve.scattering`: Hilbert-space resolvent poles, ground-state
  survival and ionization probability of the driven resonance.
- :mod:`fanosolve.liouville` / :mod:`fanosolve.general`: Liouville-space
  steady states with Markovian dissipation, from the single resonance to
  arbitrary level/continuum structures, including continuum populations and
  the stationary transport rate.

:mod:`fanosolve.oracle` validates both against a brute-force discretized
bath, and :mod:`fanosolve.lineshape` handles the rational-quadratic to
Fano-plus-Lorentzian equivalence used to summarize every sweep.
"""

from .models import (ComplexQ, Continuum, DensityMatrixP, FanoParams,
                     GeneralModel, validate_model)
from .lineshape import (LineshapeDecomposition, RationalQuadratic, decompose,
                        fano_complex_q, fano_profile, fit_rational_quadratic)
from .scattering import (PoleData, build_heff, ionization_sweep, poles,
                         survival_probability, weak_field_rate)
from .liouville import (SteadyStateError, absorption_rate, build_effective_liouvillian,
                        lineshape_sweep, steady_state, transport_rate)
from .general import (OBSERVABLES, GeneralEffectiveLiouvillian, build_general,
                      continuum_coherences, fano_model, two_band_demo_model,
                      general_steady_state, general_sweep, observable,
                      three_level_model, two_continua_model)
from .oracle import (ConvergenceStudy, DiscretizationSpec, FullLindbladian,
                     build_full_lindbladian, convergence_study,
                     oracle_steady_state)

__version__ = "0.1.0"

__all__ = [
    "ComplexQ", "Continuum", "DensityMatrixP", "FanoParams", "GeneralModel",
    "validate_model",
    "LineshapeDecomposition", "RationalQuadratic", "decompose",
    "fano_complex_q", "fano_profile", "fit_rational_quadratic",
    "PoleData", "build_heff", "ionization_sweep", "poles",
    "survival_probability", "weak_field_rate",
    "SteadyStateError", "absorption_rate",
    "build_effective_liouvillian", "lineshape_sweep", "steady_state",
    "transport_rate",
    "GeneralEffectiveLiouvillian", "build_general", "continuum_coherences",
    "fano_model", "two_band_demo_model", "general_steady_state", "general_sweep",
    "OBSERVABLES", "observable", "three_level_model", "two_continua_model",
    "ConvergenceStudy", "DiscretizationSpec", "FullLindbladian",
    "build_full_lindbladian", "convergence_study", "oracle_steady_state",
    "__version__",
]
