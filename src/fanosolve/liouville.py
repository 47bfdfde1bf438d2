"""Dissipative steady state of the single resonance.

The single resonance is the general recipe's two-level, one-continuum model
(:func:`fanosolve.general.fano_model`), solved in the rotating frame at
``omega_L = epsilon``.  Eliminating the flat continuum leaves a closed
generator on the four components (gg, eg, ge, ee) of the discrete-subspace
density matrix.  With ``K = 1 + iq`` and
``A = -Gamma_e - Omega^2 - i epsilon - gamma_eg - 1`` it reads

    L_eff = [[ 2 W^2 (b-1),  (2b-1+iq) W,  (2b-1-iq) W,  2b + 2 Ge ],
             [ -K* W,         A,            0,           -K  W     ],
             [ -K  W,         0,            A*,          -K* W     ],
             [ 2 W^2 (1-b),  (1-2b-iq) W,  (1-2b+iq) W,  2(1-b) - 2 - 2 Ge ]]

(W = Omega, b = beta, Ge = Gamma_e), which for beta = 1 reduces to the
standard closed-form matrix with first row ``[0, K W, K* W, 2 Ge + 2]`` and
last row ``[0, -K W, -K* W, -2 - 2 Ge]``.  The decomposition
``L_eff = hamiltonian_superop(H_eff) + L_QJ + TLS dissipators`` with the
scattering H_eff holds entrywise; the quantum-jump matrix L_QJ returns the
continuum flux to the populations, fraction beta to gg and 1-beta to ee.
The ee diagonal necessarily carries ``-2 Gamma_e`` (the gg and ee rows of
the generator cancel exactly, so one population row is redundant and can
carry the normalization instead).  The test suite checks this closed form
entry by entry against the general build.

The integrated continuum population follows from the steady state through
the coefficient vector ``C = (2/Gamma_c) [Omega^2, Omega, Omega, 1]``,
which is the flux-balance normalization (the jump row divided by the total
continuum relaxation rate); it is validated against the brute-force
discretized solver in the test suite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .general import (OBSERVABLES, GeneralEffectiveLiouvillian, build_general,
                      fano_model, general_steady_state, general_sweep)
from .general import observable as _observable
from .lineshape import FitResult, LineshapeDecomposition, decompose, fit_rational_quadratic
from .models import DensityMatrixP, FanoParams
from .superop import SteadyStateError

__all__ = [
    "build_effective_liouvillian",
    "steady_state",
    "SteadyStateError",
    "transport_rate",
    "absorption_rate",
    "SweepResult",
    "lineshape_sweep",
]

logger = logging.getLogger("fanosolve")


def build_effective_liouvillian(p: FanoParams) -> GeneralEffectiveLiouvillian:
    """The 4x4 effective Liouvillian: :func:`fano_model` built at ``omega_L = epsilon``.

    Continuum-level pure dephasings (``gamma_kg``, ``gamma_ke``) do not
    enter: in the wideband limit they only shift widths of eliminated
    coherences.  They are accepted and ignored with a logged notice.
    """
    return build_general(fano_model(p), omega_L=p.epsilon)


def steady_state(p: FanoParams) -> DensityMatrixP:
    """Unique steady state of the effective generator, trace-plus-continuum normalized.

    Raises :class:`SteadyStateError` when the kernel is not one-dimensional,
    e.g. with all relaxation channels and the drive switched off.
    """
    return general_steady_state(build_effective_liouvillian(p))


def transport_rate(p: FanoParams) -> float:
    """Stationary ground-to-continuum transfer rate ``r = Gamma_c n_c / rho_gg``.

    Independent of the continuum relaxation rate, which only sets the time
    scale on which the stationary regime is reached.  Undefined for a fully
    saturated ground state.
    """
    ss = steady_state(p)
    return float(_observable(fano_model(p), "transport_rate", ss.rho, ss.continuum_pops))


def absorption_rate(p: FanoParams, ss: DensityMatrixP | None = None) -> float:
    """Stationary photon absorption rate of the driven system.

    :func:`fanosolve.general.observable` of :func:`fano_model`, here
    ``2 Omega Im[q rho_eg + i(rho_eg + Omega rho_gg)]``, from the steady
    state ``ss`` if given.  At steady state this equals the total
    dissipative return flux into the ground state, ``beta Gamma_c n_c + 2
    Gamma_e rho_ee`` (checked in the tests), and at weak field it reduces
    to the Fano rate.
    """
    if ss is None:
        ss = steady_state(p)
    return float(_observable(fano_model(p), "absorption", ss.rho, ss.continuum_pops))


@dataclass(frozen=True)
class SweepResult:
    """Detuning sweep of one steady-state observable plus its rational fit.

    ``fit`` and ``decomposition`` are None when the fit was not attempted
    (fewer than 6 distinct points or all values zero) or failed, and
    ``fit_residual`` is then NaN, else the largest relative misfit over the
    sweep.  Every observable of the single resonance is an exact rational
    quadratic in the detuning, branching beta < 1 included, so the residual
    stays at float noise; a larger value flags a failed fit.
    """

    epsilons: np.ndarray
    values: np.ndarray
    fit: FitResult | None = None
    decomposition: LineshapeDecomposition | None = None

    @property
    def fit_residual(self) -> float:
        return self.fit.max_rel_residual if self.fit is not None else np.nan


def lineshape_sweep(p: FanoParams, epsilons,
                    observable: str = "continuum_pop") -> SweepResult:
    """Sweep the detuning and summarize the lineshape.

    ``observable`` is one of :data:`fanosolve.general.OBSERVABLES`, computed
    by :func:`fanosolve.general.observable`; another name raises
    ``ValueError`` before anything is solved.  When the grid has at least
    six distinct points, the sweep is least-squares fitted by a rational
    quadratic and decomposed into (Delta, sigma, q, D); fit failure is
    recorded, not raised.  All points are certified and solved in one
    batched call; a failing point raises :class:`SteadyStateError` naming
    its index, and non-finite ``epsilons`` raise ``ValueError``.
    """
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}, got {observable!r}")
    epsilons = np.asarray(epsilons, dtype=float)
    if not np.all(np.isfinite(epsilons)):
        raise ValueError("epsilons must be finite")
    model = fano_model(p)
    values = _observable(model, observable, *general_sweep(model, epsilons))

    fit_res = None
    dec = None
    if np.unique(epsilons).size >= 6 and np.any(values != 0):
        try:
            fit_res = fit_rational_quadratic(epsilons, values)
            dec = decompose(fit_res.rq)
        except ValueError as exc:
            logger.info("lineshape fit failed: %s", exc)
    return SweepResult(epsilons, values, fit_res, dec)
