"""Hilbert-space solution of the driven discrete-continuum scattering problem.

In units of the continuum-induced width (``gamma = n*pi*V**2``, times in
``1/gamma``) the ground/excited dynamics after eliminating the flat
continuum is generated by the non-Hermitian 2x2 effective Hamiltonian

    H_eff = [[-i Omega^2,   Omega (q - i)],
             [Omega (q - i), -epsilon - i]].

The ground-state survival amplitude is a two-pole sum
``U_gg(t) = a1 exp(-i z1 t) + a2 exp(-i z2 t)`` whose poles are the
eigenvalues of ``H_eff``; everything observable (ionization probability,
weak-field rate, rate hierarchy) follows from the pole data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import FanoParams

__all__ = [
    "build_heff",
    "PoleData",
    "poles",
    "survival_probability",
    "survival_rate",
    "weak_field_rate",
    "ionization_sweep",
]


def build_heff(p: FanoParams) -> np.ndarray:
    """Effective 2x2 Hamiltonian on the (ground, excited) subspace."""
    w = p.Omega * (p.q - 1j)
    return np.array([[-1j * p.Omega**2, w],
                     [w, -p.epsilon - 1j]], dtype=complex)


@dataclass(frozen=True)
class PoleData:
    """Poles and residues of the ground-ground resolvent element.

    ``z1`` is the slow pole (decay rate ``Gamma0``), ``z2`` the fast one
    (``Gamma2``); the square-root branch of ``omega = z1 - z2`` is fixed to
    ``Im(omega) >= 0`` so the labels are deterministic.  ``a1 + a2 = 1``.
    At an exact confluence (``omega == 0``, an exceptional point) the
    residues diverge: ``degenerate`` is set and they are NaN.  The survival
    functions do not use the residues and stay accurate through it.
    """

    z1: complex
    z2: complex
    omega0: complex
    omega: complex
    a1: complex
    a2: complex
    Gamma0: float
    Gamma1: float
    Gamma2: float
    degenerate: bool = False


def _pole_pair(epsilon, q: float, Omega: float):
    """``(omega0, omega, z1, z2)`` on the ``Im(omega) >= 0`` branch; arrays over epsilon."""
    omega0 = epsilon + 1j * (1.0 + Omega**2)
    radicand = ((epsilon + 1j) ** 2
                - 2.0 * Omega**2 * (1.0 - 2.0 * q**2 + 1j * (4.0 * q + epsilon))
                - Omega**4)
    omega = np.sqrt(radicand)
    flip = (omega.imag < 0) | ((omega.imag == 0) & (omega.real < 0))
    omega = np.where(flip, -omega, omega)
    return omega0, omega, -(omega0 - omega) / 2.0, -(omega0 + omega) / 2.0


def poles(p: FanoParams) -> PoleData:
    """Resolvent poles ``z_{1,2} = -(omega0 -+ omega)/2`` and their residues.

    ``omega0 = epsilon + i(1 + Omega^2)`` and ``omega`` is the square root
    of ``(epsilon+i)^2 - 2 Omega^2 [1 - 2q^2 + i(4q + epsilon)] - Omega^4``.
    Either square-root determination describes the same dynamics (it only
    swaps the pole labels); the branch with ``Im(omega) >= 0`` is chosen so
    that ``Gamma0 <= Gamma2`` always holds.
    """
    omega0, omega, z1, z2 = (complex(w) for w in _pole_pair(p.epsilon, p.q, p.Omega))
    inv = 1.0 / omega if omega else complex("nan")
    gamma1 = 1.0 + p.Omega**2
    return PoleData(z1, z2, omega0, omega,
                    (z1 + p.epsilon + 1j) * inv, -(z2 + p.epsilon + 1j) * inv,
                    gamma1 - omega.imag, gamma1, gamma1 + omega.imag,
                    degenerate=omega == 0)


def _survival(p: FanoParams, epsilon, t):
    """``|U_gg|^2`` and its time derivative at the q and Omega of ``p``.

    ``epsilon`` (in place of ``p.epsilon``) and ``t`` broadcast together.
    With ``e1 = exp(-i z1 t)`` and ``e2 = e1 exp(i omega t)`` the amplitude
    is ``(e1 + e2)/2 + (epsilon + i - omega0/2)(e1 - e2)/omega``; the
    divided difference is evaluated as ``-i t e1 expm1(x)/x`` at
    ``x = i omega t``, finite through ``omega = 0`` and, as ``Re x <= 0``,
    free of overflow at long times.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):
        raise ValueError("t must be finite and nonnegative")
    epsilon = np.asarray(epsilon, dtype=float)
    if not np.all(np.isfinite(epsilon)):
        raise ValueError("epsilon must be finite")
    omega0, omega, z1, z2 = _pole_pair(epsilon, p.q, p.Omega)
    e1 = np.exp(-1j * z1 * t)
    x = 1j * omega * t
    e2 = e1 * np.exp(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        dd = np.where(x == 0, 1.0, np.expm1(x) / x)
    c = epsilon + 1j
    u = 0.5 * (e1 + e2) - 1j * t * (c - omega0 / 2.0) * e1 * dd
    du = -1j * (z1 * u + (z2 + c) * e2)
    return np.abs(u) ** 2, 2.0 * np.real(np.conj(u) * du)


def _scalar(out):
    return out if out.ndim else float(out)


def survival_probability(p: FanoParams, t):
    """Probability ``|U_gg(t)|**2`` of remaining in the ground state.

    Finite ``t >= 0`` in units of the inverse reference width; accepts arrays.
    The ionization probability is ``P(t) = 1 - survival_probability(p, t)``.
    """
    return _scalar(_survival(p, p.epsilon, t)[0])


def survival_rate(p: FanoParams, t):
    """Time derivative ``d|U_gg|^2/dt`` (so ``dP/dt`` is its negative)."""
    return _scalar(_survival(p, p.epsilon, t)[1])


def weak_field_rate(epsilon, q, Omega):
    """Weak-field ionization rate ``2 Omega^2 (epsilon + q)^2 / (1 + epsilon^2)``.

    Valid fragmentation rate for ``Omega^2 (1 + q^2) << 1`` on the window
    ``1 << t << 1/Gamma0``; callers own that check.
    """
    epsilon = np.asarray(epsilon, dtype=float)
    return _scalar(2.0 * Omega**2 * (epsilon + q) ** 2 / (1.0 + epsilon**2))


def ionization_sweep(epsilons, times, q: float, Omega: float) -> np.ndarray:
    """Ionization probability ``P = 1 - |U_gg|^2`` on a (time, detuning) grid.

    Returns an array of shape ``(len(times), len(epsilons))`` with values in
    [0, 1], evaluated for the whole grid at once.
    """
    s, _ = _survival(FanoParams(0.0, q, Omega), epsilons, np.reshape(times, (-1, 1)))
    return 1.0 - s

