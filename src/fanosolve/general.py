"""Arbitrary discrete-continuum structures: the general effective Liouvillian.

For N discrete levels coupled to M flat continua with Markovian channels,
eliminating every continuum leaves, in the rotating frame,

    H_eff = H0 - i sum_a n_a pi V_i^(a) V_j^(a) |i><j|
    Ltilde = sum_a sum_b [2 Gamma_b^(a) / sum_l Gamma_l^(a)]
             n_a pi V_i^(a) V_j^(a) |bb>><<ij|
    C^(a)_ij = 2 pi n_a V_i^(a) V_j^(a) / sum_l Gamma_l^(a)

plus the discrete-manifold dissipators, in the rate form the discretized
validator shares, with the integrated population of continuum a given by
``sum_ij C^(a)_ij rho_ij`` and the normalization ``trace(rho) + sum_a
n_c^(a) = 1``.  The jump matrix returns exactly the flux removed by the
anti-Hermitian part of H_eff (entrywise trace-flow closure), and the C
coefficients are that same flux divided by the total relaxation rate of
the continuum: flux balance at stationarity.

Canned constructors cover the standard special cases: the single resonance
(the model every :mod:`fanosolve.liouville` solve builds), three discrete
levels on one continuum, one level on two continua, and a ready-made
three-level two-continuum demonstration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .models import (Continuum, DensityMatrixP, FanoParams, GeneralModel,
                     _discrete_lindblad, validate_model)
from .superop import (SteadyStateError, _stationary_solve, decay_table, hamiltonian_superop,
                      lindblad_superop, trace_row, unvec, vec)

__all__ = [
    "GeneralEffectiveLiouvillian",
    "build_general",
    "general_steady_state",
    "general_sweep",
    "continuum_coherences",
    "OBSERVABLES",
    "observable",
    "fano_model",
    "three_level_model",
    "two_continua_model",
    "two_band_demo_model",
]

logger = logging.getLogger("fanosolve")


@dataclass(frozen=True)
class GeneralEffectiveLiouvillian:
    """Effective generator of a :class:`GeneralModel` in the rotating frame.

    ``matrix = lindblad_superop(heff, gains, decay) + Ltilde`` in the flat
    basis of :mod:`fanosolve.superop` (bra index slow, i.e. (gg, e1 g, ...,
    g e1, ...) for the level order of the model), with the discrete rates
    in the form of :class:`fanosolve.oracle.FullLindbladian`.
    ``C_coeffs[a]`` contracts the vectorized steady state into the
    population of continuum a.
    """

    heff: np.ndarray
    Ltilde: np.ndarray
    gains: np.ndarray
    decay: np.ndarray
    C_coeffs: np.ndarray
    n_levels: int

    @property
    def matrix(self) -> np.ndarray:
        return lindblad_superop(self.heff, self.gains, self.decay) + self.Ltilde


def build_general(model: GeneralModel, omega_L: float = 0.0) -> GeneralEffectiveLiouvillian:
    """Assemble H_eff, the jump matrix, discrete dissipators and C coefficients.

    ``omega_L`` is the drive frequency; level i is shifted by
    ``-photon_indices[i] * omega_L`` (rotating frame).  Raises
    ``ValueError`` with the full violation list if the model is invalid,
    and names ``omega_L`` if it is not finite.
    Continuum-level pure dephasings are ignored here (wideband) with a
    logged notice; the discretized validator applies them.
    """
    problems = validate_model(model)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))
    heff, gains, deph = _discrete_lindblad(model, omega_L)
    n = model.n_levels
    ltilde = np.zeros((n * n, n * n))
    c_coeffs = np.zeros((model.n_continua, n * n))
    for a, cont in enumerate(model.continua):
        if cont.dephase_rates is not None and any(g != 0 for g in cont.dephase_rates):
            logger.info("continuum %d: pure dephasings against the discrete levels "
                        "do not affect the wideband effective generator; ignored", a)
        v = np.asarray(cont.couplings)
        width = cont.density * np.pi * np.outer(v, v)
        heff -= 1j * width
        gtot = sum(cont.relax_rates)
        wvec = 2.0 * vec(width).real  # flux row over flat (i, j)
        for b, gb in enumerate(cont.relax_rates):
            if gb:
                ltilde[b * (n + 1)] += (gb / gtot) * wvec  # row of rho[b, b]
        c_coeffs[a] = (2.0 / gtot) * vec(width).real

    return GeneralEffectiveLiouvillian(heff, ltilde, gains, decay_table(gains, deph),
                                       c_coeffs, n)


def _solve(gen: np.ndarray, gel: GeneralEffectiveLiouvillian):
    """Hermitian steady states and continuum populations of a generator or a stack."""
    n = gel.n_levels
    x, _ = _stationary_solve(gen, trace_row(n) + gel.C_coeffs.sum(axis=0), trace_row(n))
    rho = unvec(x, n)
    return (0.5 * (rho + np.swapaxes(rho.conj(), -1, -2)),
            np.real(x @ gel.C_coeffs.T))


def general_steady_state(gel: GeneralEffectiveLiouvillian) -> DensityMatrixP:
    """Kernel of the effective generator, normalized with the continuum populations.

    Uses the certified kernel solve shared by every solver, with the
    normalization row ``trace + sum_a C^(a)``.  A degenerate steady state
    (e.g. relaxation into a manifold without internal dissipation) raises
    :class:`SteadyStateError` naming the kernel dimension.
    """
    rho, pops = _solve(gel.matrix, gel)
    return DensityMatrixP(rho, tuple(pops))


def general_sweep(model: GeneralModel, omegas):
    """Steady states ``(rho, continuum_pops)`` over a drive-frequency sweep.

    The generator is affine in the drive, ``L(omega_L) = L(0) + omega_L *
    hamiltonian_superop(-diag(photon_indices))``, so the model is assembled
    once and all points are solved in one call; the results have shapes
    ``omegas.shape + (N, N)`` and ``omegas.shape + (M,)``.  A failing point
    raises :class:`SteadyStateError` naming its index; non-finite
    ``omegas`` raise ``ValueError``.
    """
    omegas = np.asarray(omegas, dtype=float)
    if not np.all(np.isfinite(omegas)):
        raise ValueError("omegas must be finite")
    gel = build_general(model)
    shift = hamiltonian_superop(-np.diag(np.asarray(model.photon_indices, dtype=float)))
    return _solve(gel.matrix + omegas[..., None, None] * shift, gel)


def continuum_coherences(model: GeneralModel, rho) -> np.ndarray:
    """Coupling-weighted coherence integrals between each continuum and each level.

    Entry (a, j) reconstructs the integral of the continuum-a coherence
    against discrete level j at stationarity from the first-order (and, by
    the single-pole rule, exact) elimination formula: every surviving
    integral contributes the same energy-independent constant, leaving
    ``i n_a pi sum_i V_i^(a) rho_ij`` in reference-coupling units.  ``rho``
    is one state or a stack, shape ``(..., N, N)``; the result has shape
    ``(..., M, N)``.  The absorption rate of :func:`observable` reads them.
    """
    v = np.array([c.couplings for c in model.continua])  # (M, N)
    dens = np.array([c.density for c in model.continua])
    return 1j * np.pi * dens[:, None] * (v @ rho)


#: Stationary observables of :func:`observable`.
OBSERVABLES = ("continuum_pop", "transport_rate", "absorption")


def observable(model: GeneralModel, name: str, rho, pops) -> np.ndarray:
    """Stationary observable of a state or a stack, ``rho (..., N, N)``, ``pops (..., M)``.

    ``continuum_pop`` is ``sum_a n_a``; ``transport_rate`` is ``sum_a
    Gamma_a n_a / rho_gg`` (``Gamma_a`` the total relaxation rate of
    continuum a; ``rho_gg <= 1e-12`` raises :class:`SteadyStateError`);
    ``absorption`` is ``-i sum_ij (p_j - p_i) d_ij rho_ji + 2 sum_a sum_i
    (p_a - p_i) V_i^(a) Im K_ai`` (p the photon indices, d the dipoles, K
    the :func:`continuum_coherences`), which at steady state equals the
    photon-weighted return flux of the jumps and the continuum relaxation.
    Other names raise ``ValueError`` listing :data:`OBSERVABLES`.
    """
    pops = np.asarray(pops, dtype=float)
    if name == "continuum_pop":
        return pops.sum(axis=-1)
    if name == "transport_rate":
        rho_gg = np.real(rho[..., 0, 0])
        if not np.all(rho_gg > 1e-12):
            raise SteadyStateError("rho_gg = 0 at steady state; transfer rate undefined")
        return pops @ np.array([sum(c.relax_rates) for c in model.continua]) / rho_gg
    if name == "absorption":
        p = np.asarray(model.photon_indices, dtype=float)
        p_a = np.array([c.photon_index for c in model.continua], dtype=float)
        v = np.array([c.couplings for c in model.continua])
        direct = -1j * np.einsum("ij,...ji->...", (p - p[:, None]) * model.dipoles, rho)
        band = np.einsum("ai,...ai->...", (p_a[:, None] - p) * v,
                         continuum_coherences(model, rho).imag)
        return direct.real + 2.0 * band
    raise ValueError(f"observable must be one of {OBSERVABLES}, got {name!r}")


# ---------------------------------------------------------------------------
# canned constructors


def fano_model(p: FanoParams) -> GeneralModel:
    """Single resonance as a two-level, one-continuum general model.

    Reference units: density ``1/pi`` and excited-state coupling 1, so the
    continuum half width is exactly 1.  The ground level couples to the band
    through the drive, strength ``Omega``; the direct two-level drive is
    ``q * Omega`` and the laser enters through ``omega_L = epsilon``.
    """
    dip = np.zeros((2, 2), dtype=complex)
    dip[0, 1] = dip[1, 0] = p.q * p.Omega
    deph = ((0, 1, p.gamma_eg),) if p.gamma_eg else ()
    cont = Continuum(
        density=1.0 / np.pi,
        couplings=(p.Omega, 1.0),
        relax_rates=(p.Gamma_cg, p.Gamma_ce),
        dephase_rates=(p.gamma_kg, p.gamma_ke),
    )
    return GeneralModel(
        energies=(0.0, 0.0),
        photon_indices=(0, 1),
        dipoles=dip,
        continua=(cont,),
        jumps=((1, 0, 2.0 * p.Gamma_e),) if p.Gamma_e else (),
        dephasings=deph,
    )


def three_level_model(q1: float, q2: float, Omega: float, beta: float,
                      delta: float, Gamma_c: float = 1.0) -> GeneralModel:
    """Ground state plus two excited levels sharing one continuum.

    ``beta = V_1 / V_2`` is the coupling ratio of the two excited levels to
    the band and ``delta`` their splitting, both in units of the level-1
    width.  Sweep by passing ``omega_L = epsilon`` to :func:`build_general`.
    """
    dip = np.zeros((3, 3), dtype=complex)
    dip[0, 1] = dip[1, 0] = q1 * Omega
    dip[0, 2] = dip[2, 0] = q2 * Omega / beta
    cont = Continuum(
        density=1.0 / np.pi,
        couplings=(Omega, 1.0, 1.0 / beta),
        relax_rates=(Gamma_c, 0.0, 0.0),
    )
    return GeneralModel(
        energies=(0.0, 0.0, delta),
        photon_indices=(0, 1, 1),
        dipoles=dip,
        continua=(cont,),
    )


def two_continua_model(q: float, Omega1: float, Omega2: float, gamma1_sq: float,
                       Gamma_c1: float = 1.0, Gamma_c2: float = 1.0) -> GeneralModel:
    """One excited level coupled to two continua.

    ``gamma1_sq = V_1^2 / (V_1^2 + V_2^2)`` is the fractional width carried
    by the first band; units are set by the total width, so the two
    couplings are ``sqrt(gamma1_sq)`` and ``sqrt(1 - gamma1_sq)``.  The
    drives of the two band transitions are ``Omega1`` and ``Omega2``; the
    direct level drive is ``q`` (total-width units).
    """
    if not 0.0 < gamma1_sq < 1.0:
        raise ValueError("gamma1_sq must lie strictly between 0 and 1")
    g1 = np.sqrt(gamma1_sq)
    g2 = np.sqrt(1.0 - gamma1_sq)
    dip = np.zeros((2, 2), dtype=complex)
    dip[0, 1] = dip[1, 0] = q
    conts = (
        Continuum(density=1.0 / np.pi, couplings=(Omega1 * g1, g1),
                  relax_rates=(Gamma_c1, 0.0), label="1"),
        Continuum(density=1.0 / np.pi, couplings=(Omega2 * g2, g2),
                  relax_rates=(Gamma_c2, 0.0), label="2"),
    )
    return GeneralModel(
        energies=(0.0, 0.0),
        photon_indices=(0, 1),
        dipoles=dip,
        continua=conts,
    )


def two_band_demo_model() -> GeneralModel:
    """Three levels, two continua: the canned demonstration parameter set.

    Level energies 0, 10, 20; drives 0.3 and 0.4 to the excited levels with
    no direct excited-excited coupling; relaxation 0.04 and 0.05 back to the
    ground state; band couplings (0.05, 0.1, 0.2) and (0.1, 0.3, 0.02) with
    band relaxation rates 0.5 and 0.7 towards the ground state.  Densities
    are ``1/pi`` so widths are plain coupling products.
    """
    dip = np.zeros((3, 3), dtype=complex)
    dip[0, 1] = dip[1, 0] = 0.3
    dip[0, 2] = dip[2, 0] = 0.4
    conts = (
        Continuum(density=1.0 / np.pi, couplings=(0.05, 0.1, 0.2),
                  relax_rates=(0.5, 0.0, 0.0), label="A"),
        Continuum(density=1.0 / np.pi, couplings=(0.1, 0.3, 0.02),
                  relax_rates=(0.7, 0.0, 0.0), label="B"),
    )
    return GeneralModel(
        energies=(0.0, 10.0, 20.0),
        photon_indices=(0, 1, 1),
        dipoles=dip,
        continua=conts,
        jumps=((1, 0, 0.04), (2, 0, 0.05)),
    )
