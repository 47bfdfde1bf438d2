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

Every model writes its dissipation in one rate form: jump gains
``gains[t, f]`` and the decay table of :func:`decay_table`, from which
:func:`lindblad_superop` builds the dense generator.

Every solver finds its steady state with the same certified kernel solve,
:func:`_stationary_solve`, and reads its observables through
:func:`fanosolve.general.observable`.  The kernel is certified
one-dimensional the same way at every size: the generator bordered with
its left null vector (the trace row) must be well conditioned.  One LU
factorization, of the generator bordered with the normalization, serves
both the steady state and the certificate: a few fixed probe columns ride
along with the normalization right-hand side, and a rank-one
(Sherman-Morrison) update carries their solution over to the
trace-bordered matrix.  Row 0 of the caller's generator is bordered in
place and restored afterwards, so the solve makes no copy of it.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "SteadyStateError",
    "vec",
    "unvec",
    "hamiltonian_superop",
    "jump_superop",
    "decay_table",
    "lindblad_superop",
    "trace_row",
]

#: Required kernel separation, in units of ``eps * s`` (see :func:`_stationary_solve`).
_KERNEL_SEP = 1e6


class SteadyStateError(RuntimeError):
    """No unique physical steady state for the requested parameters."""


def vec(rho: np.ndarray) -> np.ndarray:
    """Vectorize with the bra index slow (column stacking); leading axes stack."""
    return np.swapaxes(rho, -1, -2).reshape(*np.shape(rho)[:-2], -1)


def unvec(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.swapaxes(np.reshape(x, (*np.shape(x)[:-1], n, n)), -1, -2)


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Coherent part ``-i (H (x) 1 - 1 (x) conj(H))`` of the generator.

    For Hermitian H this is the commutator superoperator; an anti-Hermitian
    part of H (continuum-induced decay) shows up as loss that a jump term
    must restore for the physical trace bookkeeping to close.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    eye = np.eye(n)
    # the two Kronecker products, by broadcasting over (i, k, j, l)
    out = (h[:, None, :, None] * eye[None, :, None, :]
           - eye[:, None, :, None] * h.conj()[None, :, None, :])
    return -1j * out.reshape(n * n, n * n)


def jump_superop(c: np.ndarray, rate: float):
    """Relaxation generator for a jump operator c at the given rate.

    ``rate * (c (x) conj(c) - (1/2)(c^dag c (x) 1 + 1 (x) (c^dag c)^T))`` in
    the project convention; for the real basis-state jumps used throughout
    this equals the textbook form.
    """
    c = np.asarray(c, dtype=complex)
    cc = c.conj().T @ c
    eye = np.eye(c.shape[0])
    return rate * (np.kron(c, c.conj()) - 0.5 * (np.kron(cc, eye) + np.kron(eye, cc.T)))


def decay_table(gains: np.ndarray, deph: np.ndarray) -> np.ndarray:
    """Decay rate of each ``rho[i, j]``: ``0.5 (loss_i + loss_j) + deph[i, j]``.

    ``gains[t, f]`` is the jump rate from state f to state t, so the loss of
    state f is its column sum; ``deph`` is the symmetric dephasing table.
    """
    loss = gains.sum(axis=0)
    return 0.5 * np.add.outer(loss, loss) + deph


def lindblad_superop(h: np.ndarray, gains: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """Dense generator ``hamiltonian_superop(H) + gains - diag(vec(decay))``.

    ``gains[t, f]`` enters the (tt, ff) entry; the result equals the basis
    jumps' :func:`jump_superop` terms plus pure dephasing.
    """
    n = h.shape[0]
    out = hamiltonian_superop(h)
    pops = np.arange(n) * (n + 1)  # flat positions of the populations
    out[np.ix_(pops, pops)] += gains
    out[np.diag_indices(n * n)] -= vec(decay)
    return out


def trace_row(n: int) -> np.ndarray:
    """Row vector extracting the trace from a vectorized density matrix."""
    return np.eye(n).ravel()


@functools.lru_cache(maxsize=16)
def _probes(d: int) -> np.ndarray:
    """Four fixed, seeded Gaussian probe columns of the kernel certificate."""
    return np.random.default_rng(0).standard_normal((d, 4))


def _first(bad: np.ndarray, batched: bool) -> tuple[int, str]:
    """Flat index of the first flagged point and its label for messages."""
    k = int(np.argmax(bad.ravel()))
    return k, (f" at sweep point {k}" if batched else "")


def _reject_degenerate(sep: np.ndarray, batched: bool) -> None:
    """Raise for the first point whose kernel separation misses ``_KERNEL_SEP``."""
    bad = ~(sep >= _KERNEL_SEP)
    if np.any(bad):
        k, at = _first(bad, batched)
        raise SteadyStateError(
            f"steady state degenerate{at}: kernel dimension > 1 (separation estimate "
            f"{sep.ravel()[k]:.1e} below {_KERNEL_SEP:.0e}; relaxation towards a "
            "manifold without internal dissipation)")


def _stationary_solve(gen: np.ndarray, norm_row: np.ndarray, null_row: np.ndarray):
    """Certified one-dimensional kernel of a trace-annihilating generator.

    ``gen`` is one dense generator or a stack of them, shape ``(..., d, d)``,
    real or complex (a real one is factorized in real arithmetic);
    ``norm_row @ x = 1`` is the normalization and ``null_row`` the exact
    left null vector (the trace), both of shape ``(d,)``.  Row 0, the gg
    population row, is redundant (the population rows sum to zero), so
    ``B_norm``, the generator with ``norm_row`` in row 0, is factorized
    once and solved against ``[e0 | P]`` for k fixed probe columns P;
    column 0 is the steady state x.  ``B_norm`` is ``gen`` itself: row 0
    is overwritten in place and restored before the call returns or
    raises (a read-only ``gen`` is copied in its own order; LAPACK's working
    copy of a column-major ``gen`` is a straight copy, not a transpose).  The
    scale s is ``max|gen|``, or ``max|norm_row|`` where the generator is
    exactly zero (one level).  The certificate bounds the trace-bordered
    matrix ``B_null`` (``null_row`` scaled to s in row 0), which is
    nonsingular exactly when the kernel is one-dimensional.  As ``B_null =
    B_norm + e0 v^T`` with ``v = s null_row - norm_row``, Sherman-Morrison
    gives ``B_null^-1 P = Z - x (v.Z) / (1 + v.x)`` from ``Z = B_norm^-1 P``,
    and ``sqrt(k) / |B_null^-1 P|_F``, an estimate of ``1 / |B_null^-1|_F <=
    sigma_min(B_null)``, must reach ``_KERNEL_SEP * eps * s`` (a non-finite
    estimate counts as 0).  The normalization must not cancel on the kernel,
    ``1 / (|norm_row| . |x|) >= 1e-8``, and the scaled residual
    ``max|gen x| / (s max|x|)`` must not exceed 1e-8.  Known limit: a
    normalization that vanishes on the kernel, at s near 1e14, can read as
    "kernel dimension > 1"; the order stays, as x also blows up on a true
    two-dimensional kernel, which a weight-first order would misname.

    Returns ``(x, separation)``: the normalized kernel vectors, shape
    ``(..., d)``, and the estimate in units of ``eps * s``.  Raises
    :class:`SteadyStateError`, naming the first failing point of a stack,
    for non-finite entries, a degenerate kernel, a normalization that
    vanishes on the kernel or a large residual.
    """
    gen = np.asarray(gen)
    gen = gen.astype(np.result_type(gen, np.asarray(norm_row), float), copy=False)
    batched = gen.ndim > 2
    if np.iscomplexobj(gen):
        scale = np.abs(gen).max(axis=(-2, -1))
    else:  # no d x d temporary
        scale = np.maximum(gen.max(axis=(-2, -1)), -gen.min(axis=(-2, -1)))
    bad = ~np.isfinite(scale)
    if np.any(bad):
        k, at = _first(bad, batched)
        raise SteadyStateError(f"generator has non-finite entries{at}")
    scale = np.where(scale > 0, scale, np.abs(norm_row).max())

    d = gen.shape[-1]
    gen = gen if gen.flags.writeable else gen.copy(order="K")
    row0 = gen[..., 0, :].copy()
    v = scale[..., None] * null_row - norm_row
    try:
        gen[..., 0, :] = norm_row  # now B_norm
        s = np.linalg.solve(gen, np.concatenate([np.eye(d, 1), _probes(d)], axis=1))
    except np.linalg.LinAlgError:  # exactly singular somewhere in the stack
        singular = np.linalg.slogdet(gen)[0] == 0
        gen[..., 0, :] += v  # now B_null
        _reject_degenerate(np.where(np.linalg.slogdet(gen)[0] == 0, 0.0, np.inf), batched)
        k, at = _first(singular, batched)
        raise SteadyStateError(f"no unique steady state{at}: "
                               "normalization vanishes on the kernel") from None
    finally:
        gen[..., 0, :] = row0
    x, z = s[..., 0], s[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vx = np.sum(v * x, axis=-1)[..., None, None]
        y = z - x[..., None] * ((v[..., None, :] @ z) / (1.0 + vx))
        sep = (np.sqrt(z.shape[-1]) / np.linalg.norm(y, axis=(-2, -1))
               / (np.finfo(float).eps * scale))
        sep = np.where(np.isfinite(sep), sep, 0.0)
        _reject_degenerate(sep, batched)

        weight = 1.0 / (np.abs(x) @ np.abs(norm_row))
        bad = ~(weight >= 1e-8)
        if np.any(bad):
            k, at = _first(bad, batched)
            raise SteadyStateError(
                f"no unique steady state{at}: normalization vanishes on the kernel "
                f"(weight {weight.ravel()[k]:.1e} below 1e-08)")

        resid = (np.abs(gen @ x[..., None])[..., 0].max(axis=-1)
                 / (scale * np.abs(x).max(axis=-1)))
    bad = ~(resid <= 1e-8)
    if np.any(bad):
        k, at = _first(bad, batched)
        raise SteadyStateError(f"steady-state residual {resid.ravel()[k]:.2e}{at}; "
                               "kernel degenerate or ill-conditioned")
    return x, sep
