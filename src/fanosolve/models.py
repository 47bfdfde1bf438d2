"""Dimensionless parameter sets, model descriptions and density-matrix containers.

All quantities are dimensionless: energies and rates are measured in a
declared reference width ``gamma_ref = n * pi * V_ref**2`` and times in its
inverse.  Which continuum/coupling defines the reference is a statement about
the input numbers (recorded in configuration files), not something the
solvers ever need to know.

Objects defined here are frozen value types and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "FanoParams",
    "ComplexQ",
    "Continuum",
    "GeneralModel",
    "DensityMatrixP",
    "validate_model",
]


@dataclass(frozen=True)
class FanoParams:
    """Single-resonance parameters of the driven discrete-continuum system.

    Attributes
    ----------
    epsilon : float
        Laser detuning from the discrete resonance, in units of the
        continuum-induced half width ``gamma = n*pi*V**2``.
    q : float
        Fano asymmetry parameter, the ratio of the discrete to the
        continuum excitation pathway amplitudes.
    Omega : float
        Reduced Rabi coupling of the ground-continuum transition,
        ``Omega = mu_c * F / (2 V)``.  Nonnegative.
    Gamma_e : float
        Excited-to-ground relaxation half width.  The corresponding
        population jump rate is ``2 * Gamma_e``, mirroring the continuum
        channel whose half width is 1 and population rate 2.
    Gamma_cg, Gamma_ce : float
        Continuum population relaxation (jump) rates towards the ground and
        the excited state.  Their ratio defines the branching
        ``beta = Gamma_cg / (Gamma_cg + Gamma_ce)``.
    gamma_eg : float
        Pure-dephasing rate of the ground-excited coherence.
    gamma_kg, gamma_ke : float
        Pure-dephasing rates of continuum-ground and continuum-excited
        coherences.  Accepted for completeness; the effective (wideband)
        solvers are insensitive to them and ignore them with a logged
        notice.  Only the brute-force discretized solver feels them.
    """

    epsilon: float
    q: float
    Omega: float
    Gamma_e: float = 0.0
    Gamma_cg: float = 1.0
    Gamma_ce: float = 0.0
    gamma_eg: float = 0.0
    gamma_kg: float = 0.0
    gamma_ke: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("Omega", "Gamma_e", "Gamma_cg", "Gamma_ce",
                     "gamma_eg", "gamma_kg", "gamma_ke"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    @property
    def Gamma_c(self) -> float:
        """Total continuum relaxation rate ``Gamma_cg + Gamma_ce``."""
        return self.Gamma_cg + self.Gamma_ce

    @property
    def beta(self) -> float:
        """Ground-state branching fraction of the continuum relaxation."""
        tot = self.Gamma_c
        if tot <= 0:
            raise ValueError("beta undefined: Gamma_cg + Gamma_ce must be positive")
        return self.Gamma_cg / tot

    def with_epsilon(self, epsilon: float) -> "FanoParams":
        """Copy of these parameters at a different detuning (sweep helper)."""
        return replace(self, epsilon=float(epsilon))


@dataclass(frozen=True)
class ComplexQ:
    """Complex asymmetry parameter ``qbar = q + i*q_i`` of a generalized profile."""

    q: float
    q_i: float = 0.0

    def __post_init__(self):
        if self.q_i < 0:
            raise ValueError("q_i must be nonnegative")

    @property
    def abs2(self) -> float:
        """Squared modulus ``q**2 + q_i**2``."""
        return self.q * self.q + self.q_i * self.q_i


@dataclass(frozen=True)
class Continuum:
    """One flat (wideband) continuum and its couplings to the discrete levels.

    ``density`` is the density of states n; ``couplings[i]`` is the coupling
    V_i of discrete level i to this continuum, radiative couplings included
    (for a field-driven channel the caller folds F/2 into the number).
    ``relax_rates[b]`` is the population jump rate from any continuum state
    towards discrete level b.  ``dephase_rates[b]``, when present, is the
    pure-dephasing rate of continuum coherences against level b; the
    effective solvers ignore it (wideband), the discretized one applies it.
    ``center`` locates the band (used only by the discretized validator,
    the wideband solution is insensitive to it) and ``photon_index`` counts
    the photons absorbed to reach the band from the ground manifold.
    """

    density: float
    couplings: tuple[float, ...]
    relax_rates: tuple[float, ...]
    dephase_rates: tuple[float, ...] | None = None
    center: float = 0.0
    photon_index: int = 1
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(v) for v in self.couplings))
        object.__setattr__(self, "relax_rates", tuple(float(v) for v in self.relax_rates))
        if self.dephase_rates is not None:
            object.__setattr__(self, "dephase_rates",
                               tuple(float(v) for v in self.dephase_rates))


@dataclass(frozen=True)
class GeneralModel:
    """N discrete levels coupled to M flat continua with Markovian channels.

    ``energies[i]`` and ``photon_indices[i]`` describe level i; a rotating
    frame at the drive frequency ``omega_L`` shifts level i by
    ``-photon_indices[i] * omega_L``.  ``dipoles`` is the Hermitian matrix of
    direct couplings among discrete levels (radiative and electronic alike,
    field amplitude already folded in); its diagonal must vanish, level
    energies live only in ``energies``.  ``jumps`` holds population
    relaxation channels ``(from_level, to_level, rate)`` within the discrete
    manifold and ``dephasings`` pure-dephasing entries ``(i, j, rate)``.
    """

    energies: tuple[float, ...]
    photon_indices: tuple[int, ...]
    dipoles: np.ndarray
    continua: tuple[Continuum, ...]
    jumps: tuple[tuple[int, int, float], ...] = ()
    dephasings: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(self, "photon_indices",
                           tuple(int(p) for p in self.photon_indices))
        dip = np.array(self.dipoles, dtype=complex)
        dip.setflags(write=False)
        object.__setattr__(self, "dipoles", dip)
        object.__setattr__(self, "continua", tuple(self.continua))
        object.__setattr__(self, "jumps",
                           tuple((int(a), int(b), float(g)) for a, b, g in self.jumps))
        object.__setattr__(self, "dephasings",
                           tuple((int(a), int(b), float(g)) for a, b, g in self.dephasings))

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    @property
    def n_continua(self) -> int:
        return len(self.continua)


#: Hermiticity tolerance for the dipole matrix.
_HERM_TOL = 1e-12


def validate_model(model: GeneralModel) -> list[str]:
    """Check every structural invariant of a :class:`GeneralModel`.

    Returns a list of human-readable violations; an empty list means the
    model is admissible.  Diagnostic only, never raises.
    """
    out: list[str] = []
    n = model.n_levels
    if n < 1:
        out.append("model must have at least one discrete level")
    if model.n_continua < 1:
        out.append("model must have at least one continuum")
    if len(model.photon_indices) != n:
        out.append("photon_indices length does not match the number of levels")

    if not np.all(np.isfinite(model.energies)):
        out.append("level energies must be finite")
    dip = model.dipoles
    if not np.all(np.isfinite(dip)):
        out.append("dipole matrix entries must be finite")
    elif dip.shape != (n, n):
        out.append(f"dipole matrix shape {dip.shape} does not match {n} levels")
    else:
        if np.max(np.abs(dip - dip.conj().T), initial=0.0) > _HERM_TOL:
            out.append("dipole matrix not Hermitian")
        if np.max(np.abs(np.diag(dip)), initial=0.0) > 0:
            out.append("dipole matrix diagonal must be zero; "
                       "level energies belong in `energies`")

    for a, cont in enumerate(model.continua):
        if not 0 < cont.density < math.inf:
            out.append(f"continuum {a}: density of states must be positive and finite")
        for name in ("couplings", "relax_rates", "dephase_rates"):
            if not np.all(np.isfinite(getattr(cont, name) or ())):
                out.append(f"continuum {a}: {name} must be finite")
        if len(cont.couplings) != n:
            out.append(f"continuum {a}: expected {n} couplings, got {len(cont.couplings)}")
        if len(cont.relax_rates) != n:
            out.append(f"continuum {a}: expected {n} relax_rates, "
                       f"got {len(cont.relax_rates)}")
        if any(g < 0 for g in cont.relax_rates):
            out.append(f"continuum {a}: relaxation rates must be nonnegative")
        if sum(cont.relax_rates) <= 0:
            out.append(f"continuum {a}: total relaxation rate is zero")
        if cont.dephase_rates is not None:
            if len(cont.dephase_rates) != n:
                out.append(f"continuum {a}: expected {n} dephase_rates")
            if any(g < 0 for g in cont.dephase_rates):
                out.append(f"continuum {a}: dephasing rates must be nonnegative")

    for a, b, g in model.jumps:
        if not (0 <= a < n and 0 <= b < n):
            out.append(f"jump ({a}->{b}) references a missing level")
        if not 0 <= g < math.inf:
            out.append(f"jump ({a}->{b}) needs a finite nonnegative rate, got {g}")
    for i, j, g in model.dephasings:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            out.append(f"dephasing ({i},{j}) must reference two distinct levels")
        if not 0 <= g < math.inf:
            out.append(f"dephasing ({i},{j}) needs a finite nonnegative rate, got {g}")
    return out


@dataclass(frozen=True)
class DensityMatrixP:
    """Discrete-subspace density matrix plus the integrated continuum populations.

    ``rho[i, j]`` refers to the discrete levels only; ``continuum_pops[a]``
    is the total population integrated over continuum a.  A physical steady
    state satisfies ``trace(rho) + sum(continuum_pops) == 1``.
    """

    rho: np.ndarray
    continuum_pops: tuple[float, ...]

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "continuum_pops",
                           tuple(float(p) for p in self.continuum_pops))

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.rho))

    @property
    def total(self) -> float:
        """Trace plus continuum populations; 1 for a normalized state."""
        return float(np.real(np.trace(self.rho)) + sum(self.continuum_pops))

    def check(self, herm_tol: float = 1e-10, pop_floor: float = -1e-10,
              norm_tol: float = 1e-10) -> list[str]:
        """Return violated state invariants (empty list when physical)."""
        out = []
        if np.max(np.abs(self.rho - self.rho.conj().T), initial=0.0) > herm_tol:
            out.append("rho is not Hermitian")
        if np.min(self.populations, initial=0.0) < pop_floor:
            out.append("negative discrete population")
        if min(self.continuum_pops, default=0.0) < pop_floor:
            out.append("negative continuum population")
        if abs(self.total - 1.0) > norm_tol:
            out.append(f"normalization error {self.total - 1.0:.3e}")
        return out
