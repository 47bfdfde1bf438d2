"""Shared test utilities, including the cross-check paths of the 4x4 solver."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from fanosolve import (Continuum, DensityMatrixP, FanoParams, GeneralModel,
                       RationalQuadratic, SteadyStateError, build_effective_liouvillian)
from fanosolve.superop import _probes, jump_superop, trace_row, vec


def random_rq(rng):
    """Random rational quadratic with a root-free denominator."""
    delta = rng.uniform(-5, 5)
    sigma = rng.uniform(0.3, 3.0)
    b2 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    b1 = 2 * delta * b2
    b0 = (sigma**2 + delta**2) * b2
    a = rng.uniform(-3, 3, size=3)
    return RationalQuadratic(a[0], a[1], a[2], b0, b1, b2)


def basis_jump(frm: int, to: int, rate: float, n: int) -> np.ndarray:
    """Textbook generator of the jump ``|to><from|`` at the given rate."""
    c = np.zeros((n, n))
    c[to, frm] = 1.0
    return jump_superop(c, rate)


def dephasing_diagonal(i: int, j: int, rate: float, n: int) -> np.ndarray:
    """Pure decay of the (i, j) and (j, i) coherences: a diagonal generator."""
    d = np.zeros((n, n))
    d[i, j] = d[j, i] = -rate
    return np.diag(vec(d))


def discrete_dissipator_superop(p: FanoParams) -> np.ndarray:
    """Two-level-system dissipators: e->g jump (rate 2 Gamma_e) plus dephasing."""
    return basis_jump(1, 0, 2.0 * p.Gamma_e, 2) + dephasing_diagonal(0, 1, p.gamma_eg, 2)


def quantum_jump_matrix(p: FanoParams) -> np.ndarray:
    """L_QJ of the single resonance: continuum flux, fraction beta to gg, 1 - beta to ee."""
    row = 2.0 * np.array([p.Omega**2, p.Omega, p.Omega, 1.0])
    return np.outer([p.beta, 0.0, 0.0, 1.0 - p.beta], row)


@dataclass(frozen=True)
class CramerSystem:
    """3x3 reduction ``M v = b`` of the kernel problem.

    Unknowns ``v = (rho'_gg, rho'_eg, rho'_ge)`` with ``rho'_ee = 1``; rows
    are the gg, eg and ge rows of the effective Liouvillian (its ee row is
    the exact negative of the gg row, hence redundant).  For beta = 1 this
    is the standard closed-form system ``M = [[0, K W, K* W], [-K* W, A, 0],
    [-K W, 0, A*]]``, ``b = (-2 Gamma_e - 2, K W, K* W)``.
    """

    M: np.ndarray
    b: np.ndarray


def cramer_system(p: FanoParams) -> CramerSystem:
    L = build_effective_liouvillian(p).matrix
    return CramerSystem(L[:3, :3].copy(), -L[:3, 3].copy())


def _normalize(vec4: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, float]:
    nc = float(np.real(C @ vec4))
    z = float(np.real(vec4[0] + vec4[3])) + nc
    if not np.isfinite(z) or abs(z) < 1e-300:
        raise SteadyStateError("steady state has vanishing total weight")
    vec4 = vec4 / z
    return vec4, nc / z


def steady_state_cramer(p: FanoParams) -> DensityMatrixP:
    """Steady state via Cramer determinants; cross-check of :func:`steady_state`.

    ``(rho'_gg, rho'_eg, rho'_ge, rho'_ee) = (det M1, det M2, det M3, det M)``
    up to the common normalization.  Rejects ``det(M) = 0`` (either no
    steady state or a degenerate kernel).
    """
    eff = build_effective_liouvillian(p)
    sys_ = cramer_system(p)
    det_m = np.linalg.det(sys_.M)
    scale = np.max(np.abs(sys_.M), initial=0.0) ** 3
    if abs(det_m) <= 1e-14 * max(scale, 1e-300):
        raise SteadyStateError("det(M) = 0: no unique steady state")
    vec4 = np.empty(4, dtype=complex)
    for i in range(3):
        mi = sys_.M.copy()
        mi[:, i] = sys_.b
        vec4[i] = np.linalg.det(mi)
    vec4[3] = det_m
    vec4, nc = _normalize(vec4, eff.C_coeffs[0])
    rho = np.array([[vec4[0], vec4[2]], [vec4[1], vec4[3]]], dtype=complex)
    return DensityMatrixP(0.5 * (rho + rho.conj().T), (nc,))


def spectator_model(v: float = 0.1, g: float = 0.0) -> GeneralModel:
    """Three levels, the third a spectator with no coupling but a jump to 0 at rate g.

    At ``g = 0`` the spectator population is conserved and the kernel is
    two-dimensional; a small ``g`` separates the kernel only by about g.
    """
    dip = np.zeros((3, 3), dtype=complex)
    dip[0, 1] = dip[1, 0] = v
    return GeneralModel(
        energies=(0.0, 0.0, 2.0), photon_indices=(0, 1, 1), dipoles=dip,
        continua=(Continuum(density=1 / np.pi, couplings=(v, 1.0, 0.0),
                            relax_rates=(1.0, 0.0, 0.0)),),
        jumps=((2, 0, g),) if g else ())


def svd_gap(gen: np.ndarray) -> float:
    """Exact kernel separation ``s[-2] / (eps max|gen|)``, the certificate's reference."""
    s = np.linalg.svd(gen, compute_uv=False)
    return s[-2] / (np.finfo(float).eps * np.abs(gen).max())


def rate_matrix(n: int, seed: int = 5) -> np.ndarray:
    """Real classical rate matrix: columns sum to zero, left null vector ones(n)."""
    rates = np.random.default_rng(seed).uniform(0.1, 1.0, (n, n))
    return rates - np.diag(rates.sum(axis=0))


def two_lu_separation(gen: np.ndarray, null_row: np.ndarray) -> float:
    """Kernel separation from an LU of the trace-bordered matrix of its own.

    ``sqrt(k) / |B_null^-1 P|_F`` in units of ``eps max|gen|``, with
    ``B_null`` (``null_row`` scaled to ``max|gen|`` in row 0) factorized
    separately; the reference for the solver's rank-one update.
    """
    scale = np.abs(gen).max()
    b = np.array(gen)
    b[0] = scale * null_row
    y = np.linalg.solve(b, _probes(gen.shape[-1]))
    return np.sqrt(y.shape[-1]) / np.linalg.norm(y) / (np.finfo(float).eps * scale)


def kronecker_generator(fl) -> sp.csr_matrix:
    """Sparse Kronecker generator of a discretized model, ``(N + sum M_k)**2`` square.

    ``-i (H (x) 1 - 1 (x) conj(H))`` plus the jump gains on the (tt, ff)
    entries minus the decay table on the diagonal, in the flat basis of
    :mod:`fanosolve.superop`: the reference that the oracle never forms.
    """
    n = fl.n_total
    hs, eye = sp.csr_matrix(fl.hamiltonian), sp.identity(n, format="csr")
    to, frm = np.nonzero(fl.gains)
    gain = sp.coo_matrix((fl.gains[to, frm], (to * n + to, frm * n + frm)),
                         shape=(n * n, n * n))
    return (-1j * (sp.kron(hs, eye) - sp.kron(eye, hs.conj())) + gain
            - sp.diags(vec(fl.decay))).tocsr()


def kronecker_elimination(fl):
    """Schur complement, eliminated trace row and retained trace of the generator.

    The reference for the oracle's direct assembly: every flat index whose
    ket and bra are both continuum states is eliminated through the
    diagonal block of :func:`kronecker_generator`.
    """
    L = kronecker_generator(fl)
    n, nd = fl.n_total, fl.n_discrete
    bra, ket = np.divmod(np.arange(n * n), n)
    in_q = (bra >= nd) & (ket >= nd)
    iq, ir = np.flatnonzero(in_q), np.flatnonzero(~in_q)
    lqq = L[iq][:, iq]
    assert (lqq - sp.diags(lqq.diagonal())).count_nonzero() == 0
    dq = lqq.diagonal()
    g = L[iq][:, ir]
    schur = L[ir][:, ir].toarray() - (L[ir][:, iq] @ (sp.diags(1.0 / dq) @ g)).toarray()
    t = trace_row(n)
    return schur, t[ir] - (t[iq] / dq) @ g, t[ir]


def retained_positions(fl) -> tuple[np.ndarray, np.ndarray]:
    """Flat position of each retained ``rho[i, j]`` and of each one's mirror.

    Returns an ``(n, n)`` map (-1 where eliminated) and, per position, the
    position of ``rho[j, i]``; positions follow :func:`kronecker_elimination`.
    """
    n, nd = fl.n_total, fl.n_discrete
    bra, ket = np.divmod(np.arange(n * n), n)
    keep = (bra < nd) | (ket < nd)
    bra, ket = bra[keep], ket[keep]
    where = np.full((n, n), -1)
    where[ket, bra] = np.arange(ket.size)
    return where, where[bra, ket]


def realify(schur, t_row, null_row, fl):
    """Real form of a complex retained system, built by index pairing.

    The real coordinates are the populations, then ``(Re, Im)`` of each
    lower element: ``rho[i, a]`` with ``i > a`` in ``np.tril_indices``
    order, then ``rho[c, a]`` ordered by (a, c).  With ``rho = T y`` the
    rows are the real and imaginary parts of the rows of ``schur T`` in the
    same order.  Returns the real matrix, the real part of ``t_row T`` (its
    imaginary part must be rounding) and ``null_row T``.
    """
    n, nd = fl.n_total, fl.n_discrete
    where, mirror = retained_positions(fl)
    li, la = np.tril_indices(nd, -1)
    lower = [*zip(li, la)] + [(c, a) for a in range(nd) for c in range(nd, n)]
    d = mirror.size
    tmat = np.zeros((d, d), dtype=complex)
    src, imag = np.empty(d, dtype=int), np.zeros(d, dtype=bool)
    for a in range(nd):
        tmat[where[a, a], a] = 1.0
        src[a] = where[a, a]
    for k, (i, j) in enumerate(lower):
        re, im = nd + 2 * k, nd + 2 * k + 1
        tmat[where[i, j], [re, im]] = 1.0, 1j
        tmat[where[j, i], [re, im]] = 1.0, -1j
        src[re] = src[im] = where[i, j]
        imag[im] = True
    st = (schur @ tmat)[src]
    gen = np.where(imag[:, None], st.imag, st.real)
    norm = t_row @ tmat
    assert np.abs(norm.imag).max() <= 1e-12 * np.abs(norm.real).max()
    return gen, norm.real, (null_row @ tmat).real


def splu_steady_state(fl) -> np.ndarray:
    """Hermitian steady state of :func:`kronecker_generator` by sparse LU, trace in row 0."""
    n = fl.n_total
    L = kronecker_generator(fl).tolil()
    L[0] = trace_row(n)
    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = 1.0
    rho = sp.linalg.splu(L.tocsc()).solve(rhs).reshape(n, n).T
    return 0.5 * (rho + rho.conj().T)
