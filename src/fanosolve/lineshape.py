"""Fano profiles and the rational-quadratic / Fano-plus-Lorentzian equivalence.

A ratio of two quadratics in the detuning with a root-free denominator is
the same thing as a Fano profile plus a Lorentzian on a shifted and rescaled
detuning axis, or equivalently a Fano profile with a complex asymmetry
parameter.  This module provides the profile functions, the exact
change-of-variables decomposition, and a linear least-squares fit used to
test whether solver output belongs to this family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ComplexQ

__all__ = [
    "fano_profile",
    "fano_complex_q",
    "RationalQuadratic",
    "LineshapeDecomposition",
    "decompose",
    "FitResult",
    "fit_rational_quadratic",
]


def fano_profile(epsilon, q):
    """Fano profile ``(epsilon + q)**2 / (epsilon**2 + 1)``.

    Vanishes exactly at ``epsilon = -q``, peaks at ``1 + q**2`` at
    ``epsilon = 1/q`` and tends to 1 far from resonance.  Accepts scalars or
    arrays in ``epsilon``.
    """
    epsilon = np.asarray(epsilon, dtype=float)
    out = (epsilon + q) ** 2 / (epsilon**2 + 1.0)
    return out if out.ndim else float(out)


def fano_complex_q(eps_eff, qbar: ComplexQ):
    """Generalized profile ``|eps_eff + qbar|**2 / (eps_eff**2 + 1)``.

    Equals ``fano_profile(eps_eff, qbar.q) + qbar.q_i**2/(eps_eff**2 + 1)``;
    the imaginary part of the asymmetry adds a Lorentzian pedestal that
    lifts the interference zero.
    """
    eps_eff = np.asarray(eps_eff, dtype=float)
    out = ((eps_eff + qbar.q) ** 2 + qbar.q_i**2) / (eps_eff**2 + 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RationalQuadratic:
    """Ratio of quadratics ``(a0 + a1 e + a2 e^2) / (b0 + b1 e + b2 e^2)``."""

    a0: float
    a1: float
    a2: float
    b0: float
    b1: float
    b2: float

    def __call__(self, epsilon):
        epsilon = np.asarray(epsilon, dtype=float)
        num = self.a0 + epsilon * (self.a1 + epsilon * self.a2)
        den = self.b0 + epsilon * (self.b1 + epsilon * self.b2)
        out = num / den
        return out if out.ndim else float(out)

    def violations(self) -> list[str]:
        """Invariant check: b2 nonzero and a root-free denominator."""
        out = []
        if self.b2 == 0:
            out.append("b2 must be nonzero")
        elif self.b1**2 - 4.0 * self.b0 * self.b2 >= 0:
            out.append("denominator has real roots (b1^2 >= 4 b0 b2)")
        return out


@dataclass(frozen=True)
class LineshapeDecomposition:
    """Fano-plus-Lorentzian form of a rational quadratic.

    On the shifted, rescaled axis ``eps_eff = (epsilon + Delta) / sigma`` the
    curve reads ``c2 * ((eps_eff + q)**2 + D) / (K_den * (eps_eff**2 + 1))``.
    ``D >= 0`` corresponds to a complex asymmetry ``q + i*sqrt(D)``;
    ``pure_lorentzian`` marks the degenerate case a2 == 0 where q is
    undefined.
    """

    Delta: float
    sigma: float
    K_den: float
    c2: float
    q: float
    D: float
    pure_lorentzian: bool = False

    def __call__(self, epsilon):
        epsilon = np.asarray(epsilon, dtype=float)
        ep = (epsilon + self.Delta) / self.sigma
        out = self.c2 * ((ep + self.q) ** 2 + self.D) / (self.K_den * (ep**2 + 1.0))
        return out if out.ndim else float(out)

    @property
    def complex_q(self) -> ComplexQ:
        """Equivalent complex asymmetry parameter (requires D >= 0)."""
        if self.pure_lorentzian:
            raise ValueError("degenerate decomposition has no asymmetry parameter")
        if self.D < 0:
            raise ValueError(f"D = {self.D} < 0 has no complex-q representation")
        return ComplexQ(self.q, math.sqrt(self.D))


def decompose(rq: RationalQuadratic) -> LineshapeDecomposition:
    """Rewrite a rational quadratic as a Fano profile plus a Lorentzian.

    The change of variables is ``epsilon = sigma * eps_eff - Delta`` with
    ``Delta = b1/(2 b2)`` and ``sigma**2 = b0/b2 - b1**2/(4 b2**2)``.  The
    numerator coefficients follow by full substitution,
    ``c0 = a0 - a1 Delta + a2 Delta**2`` (the quadratic term in Delta is
    required for the reconstruction identity to hold),
    ``c1 = a1 sigma - 2 a2 sigma Delta`` and ``c2 = a2 sigma**2``, giving
    ``q = c1/(2 c2)`` and ``D = c0/c2 - q**2``.

    Raises ``ValueError`` when the denominator has real roots.  A vanishing
    a2 yields a decomposition flagged ``pure_lorentzian`` (q, D undefined).
    """
    bad = rq.violations()
    if bad:
        raise ValueError("; ".join(bad))
    delta = rq.b1 / (2.0 * rq.b2)
    sigma2 = rq.b0 / rq.b2 - delta**2
    sigma = math.sqrt(sigma2)
    k_den = rq.b0 - rq.b1**2 / (4.0 * rq.b2)

    c2 = rq.a2 * sigma2
    c1 = rq.a1 * sigma - 2.0 * rq.a2 * sigma * delta
    c0 = rq.a0 - rq.a1 * delta + rq.a2 * delta**2
    if rq.a2 == 0:
        return LineshapeDecomposition(delta, sigma, k_den, 0.0,
                                      math.nan, math.nan, pure_lorentzian=True)
    q = c1 / (2.0 * c2)
    d = c0 / c2 - q**2
    return LineshapeDecomposition(delta, sigma, k_den, c2, q, d)


def _max_rel_misfit(pred, values) -> float:
    """Largest misfit relative to each sample, floored at 1e-9 of the largest."""
    values = np.asarray(values, dtype=float)
    scale = np.max(np.abs(values), initial=0.0)
    return float(np.max(np.abs(pred - values) / np.maximum(np.abs(values), 1e-9 * scale)))


@dataclass(frozen=True)
class FitResult:
    """Least-squares rational-quadratic fit and its quality diagnostics.

    ``max_rel_residual`` is the largest relative misfit over the fitted samples.
    """

    rq: RationalQuadratic
    max_rel_residual: float
    cond: float

    def held_out_residual(self, epsilon, values) -> float:
        """The misfit of :attr:`max_rel_residual`, on extra samples."""
        return _max_rel_misfit(self.rq(epsilon), values)


def fit_rational_quadratic(epsilon, values) -> FitResult:
    """Fit samples with a rational quadratic, b2 normalized to 1.

    Linearizes ``v * (b0 + b1 e + b2 e^2) = a0 + a1 e + a2 e^2`` with
    ``b2 = 1`` (the ratio has a projective scale freedom) and solves the
    resulting least-squares problem with column equilibration.  Needs at
    least six distinct abscissae.  Raises ``ValueError`` on singular normal
    equations, reporting the condition number.

    Returns the coefficients together with the largest relative residual
    over the input samples; a poor residual signals data outside the model
    class and is reported, never hidden.
    """
    epsilon = np.asarray(epsilon, dtype=float).ravel()
    values = np.asarray(values, dtype=float).ravel()
    if epsilon.shape != values.shape:
        raise ValueError("epsilon and values must have matching shapes")
    if np.unique(epsilon).size < 6:
        raise ValueError("need at least 6 distinct epsilon samples")
    if not (np.all(np.isfinite(epsilon)) and np.all(np.isfinite(values))):
        raise ValueError("samples must be finite")

    # unknowns x = (a0, a1, a2, b0, b1);  rhs = v * e^2  (from b2 = 1)
    cols = np.column_stack([
        np.ones_like(epsilon), epsilon, epsilon**2,
        -values, -values * epsilon,
    ])
    rhs = values * epsilon**2
    scale = np.linalg.norm(cols, axis=0)
    scale[scale == 0] = 1.0
    sol, _, rank, sv = np.linalg.lstsq(cols / scale, rhs, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if rank < 5 or cond > 1e13:
        raise ValueError(f"singular normal equations (condition number {cond:.3e})")
    a0, a1, a2, b0, b1 = sol / scale
    rq = RationalQuadratic(a0, a1, a2, b0, b1, 1.0)
    return FitResult(rq, _max_rel_misfit(rq(epsilon), values), cond)
