"""Vectorization helpers shared by the effective and brute-force generators.

Convention, fixed project-wide
------------------------------
A density matrix element ``rho_ij = <i|rho|j>`` maps to the flat component
``j * N + i`` (bra index slow), so for two levels (g, e) the vector reads
``(rho_gg, rho_eg, rho_ge, rho_ee)``.  The generator of the coherent part of
the evolution under a (possibly non-Hermitian) effective Hamiltonian H is

    hamiltonian_superop(H) = -i (H (x) 1  -  1 (x) conj(H)),

with ``(x)`` the Kronecker product in the flat-index order above.  This is
the phase convention under which the single-resonance effective Liouvillian
takes the standard closed form with ``A = -Gamma_e - Omega^2 - i epsilon
- gamma_eg - 1`` on the (eg, eg) diagonal; the alternative convention is its
elementwise conjugate with the two coherence labels swapped and carries
identical populations and observables.

Dissipation enters through :func:`jump_superop` (population relaxation
``from -> to`` at a given rate) and :func:`dephasing_superop` (pure decay of
the (i, j) coherence pair), both trace annihilating.

Every solver finds its steady state with the same certified kernel solve,
:func:`_stationary_solve`, and reports the stationary transfer rate through
:func:`transport_rate_from`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SteadyStateError",
    "flat_index",
    "vec",
    "unvec",
    "hamiltonian_superop",
    "jump_superop",
    "dephasing_superop",
    "trace_row",
    "transport_rate_from",
]

#: Required ratio of the two smallest singular values for a one-dimensional kernel.
_KERNEL_SEP = 1e6
#: Largest generator, in unknowns, whose kernel is certified by a full SVD.
_SVD_LIMIT = 2000


class SteadyStateError(RuntimeError):
    """No unique physical steady state for the requested parameters."""


def flat_index(ket: int, bra: int, n: int) -> int:
    """Flat position of rho[ket, bra] in the vectorized density matrix."""
    return bra * n + ket


def vec(rho: np.ndarray) -> np.ndarray:
    """Vectorize with the bra index slow (column stacking); leading axes stack."""
    return np.swapaxes(rho, -1, -2).reshape(*np.shape(rho)[:-2], -1)


def unvec(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.swapaxes(np.reshape(x, (*np.shape(x)[:-1], n, n)), -1, -2)


def _kron(a, b, sparse: bool):
    if sparse:
        return sp.kron(sp.csr_matrix(a), sp.csr_matrix(b), format="csr")
    return np.kron(np.asarray(a), np.asarray(b))


def hamiltonian_superop(h: np.ndarray, sparse: bool = False):
    """Coherent part ``-i (H (x) 1 - 1 (x) conj(H))`` of the generator.

    For Hermitian H this is the commutator superoperator; an anti-Hermitian
    part of H (continuum-induced decay) shows up as loss that a jump term
    must restore for the physical trace bookkeeping to close.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    eye = sp.identity(n, format="csr") if sparse else np.eye(n)
    return -1j * (_kron(h, eye, sparse) - _kron(eye, h.conj(), sparse))


def jump_superop(c: np.ndarray, rate: float, sparse: bool = False):
    """Relaxation generator for a jump operator c at the given rate.

    ``rate * (c (x) conj(c) - (1/2)(c^dag c (x) 1 + 1 (x) (c^dag c)^T))`` in
    the project convention; for the real basis-state jumps used throughout
    this equals the textbook form.
    """
    c = np.asarray(c, dtype=complex)
    n = c.shape[0]
    cc = c.conj().T @ c
    eye = sp.identity(n, format="csr") if sparse else np.eye(n)
    out = _kron(c, c.conj(), sparse) - 0.5 * (_kron(cc, eye, sparse)
                                              + _kron(eye, cc.T, sparse))
    return rate * out


def basis_jump_superop(from_state: int, to_state: int, rate: float, n: int,
                       sparse: bool = False):
    """Jump ``|to><from|`` between basis states at the given population rate."""
    c = np.zeros((n, n))
    c[to_state, from_state] = 1.0
    return jump_superop(c, rate, sparse=sparse)


def dephasing_superop(i: int, j: int, rate: float, n: int, sparse: bool = False):
    """Pure decay of the (i, j) and (j, i) coherences at the given rate.

    Diagonal generator subtracting ``rate`` from exactly those two flat
    components; populations and other coherences are untouched.
    """
    d = np.zeros(n * n)
    d[flat_index(i, j, n)] = -rate
    d[flat_index(j, i, n)] = -rate
    return sp.diags(d, format="csr") if sparse else np.diag(d)


def trace_row(n: int) -> np.ndarray:
    """Row vector extracting the trace from a vectorized density matrix."""
    row = np.zeros(n * n)
    row[(np.arange(n)) * n + np.arange(n)] = 1.0
    return row


def _first(bad: np.ndarray, batched: bool) -> tuple[int, str]:
    """Flat index of the first flagged point and its label for messages."""
    k = int(np.argmax(bad.ravel()))
    return k, (f" at sweep point {k}" if batched else "")


def _stationary_solve(gen: np.ndarray, norm_row: np.ndarray):
    """Certified one-dimensional kernel of a trace-annihilating generator.

    ``gen`` is one dense generator or a stack of them, shape ``(..., d, d)``;
    ``norm_row`` (shape ``(d,)``) is the normalization, ``norm_row @ x = 1``.
    Up to ``_SVD_LIMIT`` unknowns the kernel is certified one-dimensional by
    the singular values: the two smallest must be ``_KERNEL_SEP`` apart and
    the second must sit above rounding (``d * eps * s_max``).  Row 0, the
    gg population row, is redundant (the population rows of a
    trace-annihilating generator sum to zero), so it is replaced by the
    normalization and the whole stack solved at once.  The scaled residual
    ``max|gen x| / (max|gen| max|x|)`` of every point must not exceed 1e-8.

    Returns ``(x, separation)``: the normalized kernel vectors, shape
    ``(..., d)``, and the singular-value ratio ``s[-2] / s[-1]`` per point
    (NaN where the SVD was skipped for size).  Raises
    :class:`SteadyStateError`, naming the first failing point of a stack,
    for non-finite entries, a degenerate kernel or a large residual.
    """
    gen = np.asarray(gen, dtype=complex)
    d = gen.shape[-1]
    batched = gen.ndim > 2
    scale = np.abs(gen).max(axis=(-2, -1))
    bad = ~np.isfinite(scale)
    if np.any(bad):
        k, at = _first(bad, batched)
        raise SteadyStateError(f"generator has non-finite entries{at}")

    sep = np.full(gen.shape[:-2], np.nan)
    if d <= _SVD_LIMIT:
        s = np.linalg.svd(gen, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            sep = s[..., -2] / s[..., -1]
        floor = np.maximum(_KERNEL_SEP * s[..., -1], d * np.finfo(float).eps * s[..., 0])
        bad = s[..., -2] <= floor
        if np.any(bad):
            k, at = _first(bad, batched)
            sk = s.reshape(-1, d)[k]
            null_dim = int(np.sum(sk <= floor.ravel()[k]))
            raise SteadyStateError(
                f"steady state degenerate{at}: kernel dimension {null_dim} > 1 "
                f"(smallest singular values {sk[-2]:.1e} and {sk[-1]:.1e}; "
                "relaxation towards a manifold without internal dissipation)")

    a = gen.copy()
    a[..., 0, :] = norm_row
    rhs = np.zeros(gen.shape[:-1] + (1,), dtype=complex)
    rhs[..., 0, 0] = 1.0
    try:
        x = np.linalg.solve(a, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(f"no unique steady state: {exc}") from exc

    with np.errstate(divide="ignore", invalid="ignore"):
        resid = (np.abs(gen @ x[..., None])[..., 0].max(axis=-1)
                 / (scale * np.abs(x).max(axis=-1)))
    bad = ~(resid <= 1e-8)
    if np.any(bad):
        k, at = _first(bad, batched)
        raise SteadyStateError(f"steady-state residual {resid.ravel()[k]:.2e}{at}; "
                               "kernel degenerate or ill-conditioned")
    return x, sep


def transport_rate_from(relax_totals, continuum_pops, rho_gg):
    """Stationary ground-to-continuum transfer rate ``sum_a Gamma_a n_a / rho_gg``.

    ``relax_totals[a]`` is the total relaxation rate of continuum a and
    ``continuum_pops`` the integrated continuum populations, shape
    ``(..., M)``; ``rho_gg`` has the leading shape, so a whole sweep goes in
    one call.  Undefined for a fully saturated ground state
    (``rho_gg <= 1e-12``).
    """
    rho_gg = np.asarray(rho_gg, dtype=float)
    if not np.all(rho_gg > 1e-12):
        raise SteadyStateError("rho_gg = 0 at steady state; transfer rate undefined")
    pops = np.asarray(continuum_pops, dtype=float)
    return pops @ np.asarray(relax_totals, dtype=float) / rho_gg
