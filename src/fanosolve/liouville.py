"""Dissipative steady state of the single resonance: 4x4 effective Liouvillian.

Eliminating the flat continuum from the Lindblad dynamics leaves a closed
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
carry the normalization instead).

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

from .lineshape import FitResult, LineshapeDecomposition, decompose, fit_rational_quadratic
from .models import DensityMatrixP, FanoParams
from .superop import SteadyStateError, _stationary_solve, trace_row, transport_rate_from

__all__ = [
    "EffectiveLiouvillian4",
    "build_effective_liouvillian",
    "steady_state",
    "SteadyStateError",
    "transport_rate",
    "absorption_rate",
    "SweepResult",
    "lineshape_sweep",
]

logger = logging.getLogger("fanosolve")


@dataclass(frozen=True)
class EffectiveLiouvillian4:
    """Effective generator on (gg, eg, ge, ee) and its continuum contraction.

    ``matrix`` is the full 4x4 generator and ``C`` the coefficient vector
    contracting the steady state into the integrated continuum population.
    """

    matrix: np.ndarray
    C: np.ndarray


def build_effective_liouvillian(p: FanoParams) -> EffectiveLiouvillian4:
    """Assemble the 4x4 effective Liouvillian for the given parameters.

    Built entrywise from the closed-form matrix elements; the test suite
    checks it against the independent superoperator construction
    ``hamiltonian_superop(H_eff) + L_QJ + jump(e->g, 2 Gamma_e) +
    dephasing(gamma_eg)`` to 1e-14.

    Continuum-level pure dephasings (``gamma_kg``, ``gamma_ke``) do not
    enter: in the wideband limit they only shift widths of eliminated
    coherences.  They are accepted and ignored with a logged notice.
    """
    if p.gamma_kg != 0 or p.gamma_ke != 0:
        logger.info(
            "continuum pure dephasings gamma_kg=%g, gamma_ke=%g have no effect "
            "on the wideband effective generator and are ignored",
            p.gamma_kg, p.gamma_ke,
        )
    if p.Gamma_c <= 0:
        raise ValueError("Gamma_cg + Gamma_ce must be positive")
    q, Om, Ge, geg, beta = p.q, p.Omega, p.Gamma_e, p.gamma_eg, p.beta
    K = 1.0 + 1j * q
    A = -Ge - Om**2 - 1j * p.epsilon - geg - 1.0

    L = np.zeros((4, 4), dtype=complex)
    L[0] = [2.0 * Om**2 * (beta - 1.0), (2 * beta - 1 + 1j * q) * Om,
            (2 * beta - 1 - 1j * q) * Om, 2.0 * beta + 2.0 * Ge]
    L[1] = [-K.conjugate() * Om, A, 0.0, -K * Om]
    L[2] = [-K * Om, 0.0, A.conjugate(), -K.conjugate() * Om]
    L[3] = [2.0 * Om**2 * (1.0 - beta), (1 - 2 * beta - 1j * q) * Om,
            (1 - 2 * beta + 1j * q) * Om, 2.0 * (1.0 - beta) - 2.0 - 2.0 * Ge]

    C = (2.0 / p.Gamma_c) * np.array([Om**2, Om, Om, 1.0])
    return EffectiveLiouvillian4(L, C)


def _as_density(vec4: np.ndarray, nc: float) -> DensityMatrixP:
    rho = np.array([[vec4[0], vec4[2]], [vec4[1], vec4[3]]], dtype=complex)
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrixP(rho, (nc,))


def steady_state(p: FanoParams) -> DensityMatrixP:
    """Unique steady state of the effective generator, trace-plus-continuum normalized.

    Uses the certified kernel solve shared by every solver, with the
    normalization row ``trace + C``.  Raises :class:`SteadyStateError` when
    the kernel is not one-dimensional, e.g. with all relaxation channels and
    the drive switched off.
    """
    eff = build_effective_liouvillian(p)
    x, _ = _stationary_solve(eff.matrix, trace_row(2) + eff.C, trace_row(2))
    return _as_density(x, float(np.real(eff.C @ x)))


def transport_rate(p: FanoParams) -> float:
    """Stationary ground-to-continuum transfer rate ``r = Gamma_c n_c / rho_gg``.

    Independent of the continuum relaxation rate, which only sets the time
    scale on which the stationary regime is reached.  Undefined for a fully
    saturated ground state.
    """
    ss = steady_state(p)
    return float(transport_rate_from([p.Gamma_c], ss.continuum_pops, ss.rho[0, 0].real))


def _absorption(p: FanoParams, rho_gg, rho_eg):
    return 2.0 * p.Omega * np.imag(p.q * rho_eg + 1j * (rho_eg + p.Omega * rho_gg))


def absorption_rate(p: FanoParams, ss: DensityMatrixP | None = None) -> float:
    """Stationary photon absorption rate of the driven system.

    Dipole-weighted imaginary part of the optical coherences,
    ``2 Omega Im[q rho_eg + i(rho_eg + Omega rho_gg)]``.  At steady state
    this equals the total dissipative return flux into the ground state,
    ``beta Gamma_c n_c + 2 Gamma_e rho_ee`` (checked in the tests), and at
    weak field it reduces to the Fano rate.
    """
    if ss is None:
        ss = steady_state(p)
    return float(_absorption(p, ss.rho[0, 0], ss.rho[1, 0]))


_OBSERVABLES = ("continuum_pop", "transport_rate", "absorption")


@dataclass(frozen=True)
class SweepResult:
    """Detuning sweep of one steady-state observable plus its rational fit.

    ``decomposition`` and the fit fields are None when the fit was not
    attempted (fewer than 6 points) or failed; ``fit_residual`` is the
    largest relative misfit over the sweep.  Every observable of the single
    resonance is an exact rational quadratic in the detuning, branching
    beta < 1 included, so the residual stays at float noise; a larger value
    flags a failed fit.
    """

    epsilons: np.ndarray
    values: np.ndarray
    observable: str
    fit: FitResult | None = None
    decomposition: LineshapeDecomposition | None = None

    @property
    def fit_residual(self) -> float:
        return self.fit.max_rel_residual if self.fit is not None else np.nan


def lineshape_sweep(p: FanoParams, epsilons,
                    observable: str = "continuum_pop") -> SweepResult:
    """Sweep the detuning and summarize the lineshape.

    ``observable`` is one of ``continuum_pop``, ``transport_rate`` or
    ``absorption``.  When the grid has at least six distinct points, the
    sweep is least-squares fitted by a rational quadratic and
    decomposed into (Delta, sigma, q, D); fit failure is recorded, not
    raised.  All points are certified and solved in one batched call; a
    failing point raises :class:`SteadyStateError` naming its index, and
    non-finite ``epsilons`` raise ``ValueError``.
    """
    if observable not in _OBSERVABLES:
        raise ValueError(f"observable must be one of {_OBSERVABLES}")
    epsilons = np.asarray(epsilons, dtype=float)
    if not np.all(np.isfinite(epsilons)):
        raise ValueError("epsilons must be finite")
    # the detuning enters only the eg and ge diagonals: L(eps) = L(0) + eps D
    eff = build_effective_liouvillian(p.with_epsilon(0.0))
    stack = eff.matrix + epsilons[..., None, None] * np.diag([0.0, -1j, 1j, 0.0])
    x, _ = _stationary_solve(stack, trace_row(2) + eff.C, trace_row(2))
    nc = np.real(x @ eff.C)
    rho_gg = x[..., 0].real
    if observable == "continuum_pop":
        values = nc
    elif observable == "transport_rate":
        values = transport_rate_from([p.Gamma_c], nc[..., None], rho_gg)
    else:
        values = _absorption(p, rho_gg, 0.5 * (x[..., 1] + x[..., 2].conj()))

    fit_res = None
    dec = None
    if np.unique(epsilons).size >= 6 and np.any(values != 0):
        try:
            fit_res = fit_rational_quadratic(epsilons, values)
            dec = decompose(fit_res.rq)
        except ValueError as exc:
            logger.info("lineshape fit failed: %s", exc)
    return SweepResult(epsilons, values, observable, fit_res, dec)
