"""Brute-force validator: discretize the continua and solve the full Lindbladian.

No wideband limit, no projection: each continuum is replaced by a finite
comb of levels over a band of width W, spacing ``dE = W / (M_k - 1)``, with
couplings rescaled as ``V * sqrt(n * dE)`` so that the induced width
``n pi V^2`` is reproduced as ``dE -> 0``.  Every discretized state carries
the continuum's relaxation (and optional dephasing) rates verbatim.  The
resulting generator is an honest finite-dimensional Lindblad operator whose
steady state can be compared against the effective (wideband) solution;
:func:`convergence_study` quantifies the agreement along a refinement
ladder.

The steady-state solve exploits one structural fact without approximation:
continuum states never couple to each other, so the continuum-continuum
block of the sparse generator is diagonal and can be eliminated exactly
(Schur complement), leaving a small dense kernel problem closed by the
trace constraint.  The eliminated solver is cross-checked against a plain
sparse LU with a replaced trace row in the test suite.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .models import DensityMatrixP, GeneralModel, validate_model
from .superop import SteadyStateError, _stationary_solve, trace_row, transport_rate_from

__all__ = [
    "DiscretizationSpec",
    "FullLindbladian",
    "build_full_lindbladian",
    "OracleSolution",
    "oracle_steady_state",
    "transport_rate_oracle",
    "ConvergenceStudy",
    "convergence_study",
]

logger = logging.getLogger("fanosolve")


@dataclass(frozen=True)
class DiscretizationSpec:
    """How to chop each continuum into levels.

    ``bandwidth`` W and ``levels_per_continuum`` M_k define a uniform grid
    of M_k levels spanning ``[center - W/2, center + W/2]``;
    ``grid_offset`` shifts the comb by that fraction of a spacing (used to
    check that observables do not depend on where the grid points fall).
    ``dimension_cap`` bounds the superoperator dimension
    ``(N + sum M_k)**2``.
    """

    bandwidth: float
    levels_per_continuum: int
    grid_offset: float = 0.0
    dimension_cap: int = 2_000_000

    def __post_init__(self):
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        if not math.isfinite(self.grid_offset):
            raise ValueError(f"grid_offset must be finite, got {self.grid_offset}")
        if self.levels_per_continuum < 3:
            raise ValueError("need at least 3 levels per continuum")

    @property
    def spacing(self) -> float:
        return self.bandwidth / (self.levels_per_continuum - 1)


@dataclass(frozen=True)
class FullLindbladian:
    """Sparse generator of the discretized model plus basis bookkeeping."""

    matrix: sp.csr_matrix
    hamiltonian: np.ndarray
    n_discrete: int
    n_total: int
    continuum_slices: tuple[slice, ...]
    total_relax_rates: tuple[float, ...]


def build_full_lindbladian(model: GeneralModel, spec: DiscretizationSpec,
                           omega_L: float = 0.0) -> FullLindbladian:
    """Assemble the exact Lindbladian of the discretized model.

    The Hamiltonian carries the rotating-frame level energies, the direct
    dipole couplings, the discretized bands and their couplings; population
    relaxation and pure dephasing enter in Lindblad form.  The result
    annihilates the trace by construction (checked in tests).  Raises
    ``ValueError`` when the model is invalid or the superoperator dimension
    would exceed the cap (the message carries a memory estimate).  A model
    without relaxation is buildable (the generator is then a pure
    commutator); its steady state is degenerate and the solver will say so.
    """
    problems = [v for v in validate_model(model)
                if "total relaxation rate is zero" not in v]
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))

    nd = model.n_levels
    mk = spec.levels_per_continuum
    ntot = nd + mk * model.n_continua
    dim = ntot * ntot
    if dim > spec.dimension_cap:
        est_gb = dim * 16 * 30 / 1e9  # ~30 stored entries per row is typical here
        raise ValueError(
            f"superoperator dimension {dim} exceeds cap {spec.dimension_cap} "
            f"(estimated memory ~{est_gb:.1f} GB)")

    h = np.zeros((ntot, ntot), dtype=complex)
    h[:nd, :nd] = model.dipoles
    h[np.diag_indices(nd)] = np.asarray(model.energies) - omega_L * np.asarray(
        model.photon_indices, dtype=float)

    slices = []
    jump_from, jump_to, jump_rate = [], [], []
    deph_pairs: list[tuple[int, int, float]] = []
    off = nd
    for cont in model.continua:
        sl = slice(off, off + mk)
        slices.append(sl)
        de = spec.bandwidth / (mk - 1)
        grid = (cont.center - omega_L * cont.photon_index
                + np.linspace(-spec.bandwidth / 2, spec.bandwidth / 2, mk)
                + spec.grid_offset * de)
        idx = np.arange(off, off + mk)
        h[idx, idx] = grid
        vd = np.asarray(cont.couplings) * np.sqrt(cont.density * de)
        for i in range(nd):
            if vd[i]:
                h[i, idx] = vd[i]
                h[idx, i] = vd[i]
        for b, gb in enumerate(cont.relax_rates):
            if gb:
                jump_from.extend(idx.tolist())
                jump_to.extend([b] * mk)
                jump_rate.extend([gb] * mk)
        if cont.dephase_rates is not None:
            for b, gk in enumerate(cont.dephase_rates):
                if gk:
                    deph_pairs.extend((int(k), b, gk) for k in idx)
        off += mk

    for src, dst, rate in model.jumps:
        if rate:
            jump_from.append(src)
            jump_to.append(dst)
            jump_rate.append(rate)
    deph_pairs.extend(model.dephasings)

    eye = sp.identity(ntot, format="csr")
    hs = sp.csr_matrix(h)
    L = -1j * (sp.kron(hs, eye, format="csr") - sp.kron(eye, hs.conj(), format="csr"))

    # Jump gains: rate at flat (to,to) <- (from,from); losses are diagonal.
    if jump_rate:
        jf = np.asarray(jump_from)
        jt = np.asarray(jump_to)
        jr = np.asarray(jump_rate, dtype=float)
        gain = sp.coo_matrix((jr, (jt * ntot + jt, jf * ntot + jf)),
                             shape=(dim, dim)).tocsr()
        loss = np.zeros(ntot)
        np.add.at(loss, jf, jr)
        L = L + gain - sp.diags(0.5 * np.add.outer(loss, loss).ravel())

    if deph_pairs:
        d = np.zeros(dim)
        for i, j, g in deph_pairs:
            d[j * ntot + i] -= g
            d[i * ntot + j] -= g
        L = L + sp.diags(d)

    totals = tuple(float(sum(c.relax_rates)) for c in model.continua)
    return FullLindbladian(L.tocsr(), h, nd, ntot, tuple(slices), totals)


@dataclass(frozen=True)
class OracleSolution:
    """Steady state of the discretized model with solve diagnostics.

    ``reduced`` carries the discrete block and per-continuum population
    sums.  ``residual`` is the scaled infinity norm of ``L rho``;
    ``min_eigenvalue`` reports the most negative eigenvalue of the full
    density matrix (small negative values are a finite-discretization
    artifact, tolerated down to -1e-9 and reported rather than hidden);
    ``kernel_separation`` is the ratio of the two smallest singular values
    of the eliminated generator (large means a clean one-dimensional
    kernel; NaN when the eliminated system is too large for the SVD and the
    check was skipped).
    """

    rho: np.ndarray
    reduced: DensityMatrixP
    residual: float
    min_eigenvalue: float
    kernel_separation: float


def _schur_parts(fl: FullLindbladian):
    """Split flat indices into continuum-continuum pairs and the rest."""
    n = fl.n_total
    nd = fl.n_discrete
    s, f = np.divmod(np.arange(n * n), n)
    in_q = (s >= nd) & (f >= nd)
    iq = np.flatnonzero(in_q)
    ir = np.flatnonzero(~in_q)
    return iq, ir


def oracle_steady_state(fl: FullLindbladian) -> OracleSolution:
    """Steady state of the full generator via exact block elimination.

    The continuum-continuum block is verified to be diagonal and eliminated
    exactly; the remaining dense system (the Schur complement) goes through
    the certified kernel solve shared by every solver, with the
    correspondingly eliminated trace row as normalization.  Violations of
    positivity beyond -1e-9 or a degenerate kernel raise
    :class:`SteadyStateError`.
    """
    L = fl.matrix
    n = fl.n_total
    iq, ir = _schur_parts(fl)

    lqq = L[iq][:, iq]
    off_diag = lqq - sp.diags(lqq.diagonal())
    if off_diag.nnz:
        raise SteadyStateError("continuum-continuum block is not diagonal; "
                               "model outside the eliminable class")
    dq = lqq.diagonal()
    if np.min(np.abs(dq)) == 0:
        raise SteadyStateError("undamped continuum coherence; steady state not unique")

    e_rr = L[ir][:, ir].toarray()
    f_rq = L[ir][:, iq]
    g_qr = L[iq][:, ir]
    schur = e_rr - (f_rq @ (sp.diags(1.0 / dq) @ g_qr)).toarray()

    t_full = trace_row(n)
    t_row = t_full[ir] - (t_full[iq] / dq) @ g_qr
    # flat index 0, the gg population row the shared solve replaces, is ir[0]
    xr, sep = _stationary_solve(schur, t_row)

    x = np.zeros(n * n, dtype=complex)
    x[ir] = xr
    x[iq] = -(g_qr @ xr) / dq
    # the shared solve checked the Schur residual; this also covers x[iq]
    scale = max(np.abs(L.data).max(), 1.0)
    residual = float(np.max(np.abs(L @ x)) / scale)
    if not np.isfinite(residual) or residual > 1e-8:
        raise SteadyStateError(f"steady-state residual {residual:.2e}")

    rho = x.reshape(n, n).T
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.real(np.trace(rho))
    evals = np.linalg.eigvalsh(rho)
    min_eig = float(evals[0])
    if min_eig < -1e-9:
        raise SteadyStateError(f"steady state not positive (min eigenvalue {min_eig:.2e})")
    if min_eig < 0:
        logger.info("oracle steady state has small negative eigenvalue %.2e "
                    "(finite-discretization artifact)", min_eig)

    nd = fl.n_discrete
    pops = tuple(float(np.real(np.trace(rho[sl, sl]))) for sl in fl.continuum_slices)
    reduced = DensityMatrixP(rho[:nd, :nd], pops)
    return OracleSolution(rho, reduced, residual, min_eig, float(sep))


def transport_rate_oracle(fl: FullLindbladian, sol: OracleSolution) -> float:
    """Ground-to-continuum transfer rate from the discretized steady state."""
    return float(transport_rate_from(fl.total_relax_rates, sol.reduced.continuum_pops,
                                     sol.rho[0, 0].real))


@dataclass(frozen=True)
class ConvergenceStudy:
    """Error of the effective solution against the discretized one per rung."""

    bandwidths: np.ndarray
    levels: np.ndarray
    nc_oracle: np.ndarray
    nc_reference: float
    r_oracle: np.ndarray
    r_reference: float
    fitted_order: float

    @property
    def nc_errors(self) -> np.ndarray:
        return np.abs(self.nc_oracle - self.nc_reference) / abs(self.nc_reference)

    @property
    def r_errors(self) -> np.ndarray:
        return np.abs(self.r_oracle - self.r_reference) / abs(self.r_reference)

    @property
    def decreasing(self) -> bool:
        """Strict decrease of the population error along the ladder."""
        e = self.nc_errors
        return bool(np.all(np.diff(e) < 0))


def convergence_study(model: GeneralModel, specs, omega_L: float,
                      nc_reference: float, r_reference: float) -> ConvergenceStudy:
    """Run the discretized solver along a refinement ladder.

    ``specs`` is an iterable of :class:`DiscretizationSpec` ordered from
    coarse to fine; the reference values come from the effective (wideband)
    solution.  The fitted order is the log-log slope of the population
    error against whichever resolution parameter the ladder varies (NaN for
    a single rung or an exactly vanishing error); non-convergence is
    visible in the numbers, never asserted away.
    """
    specs = list(specs)
    if len(specs) < 1:
        raise ValueError("need at least one discretization spec")
    ws, mks, ncs, rs = [], [], [], []
    for spec in specs:
        fl = build_full_lindbladian(model, spec, omega_L)
        sol = oracle_steady_state(fl)
        ws.append(spec.bandwidth)
        mks.append(spec.levels_per_continuum)
        ncs.append(float(np.sum(sol.reduced.continuum_pops)))
        rs.append(transport_rate_oracle(fl, sol))

    ncs = np.asarray(ncs)
    errs = np.abs(ncs - nc_reference) / abs(nc_reference)
    spacings = np.array([s.spacing for s in specs])
    widths = np.array([s.bandwidth for s in specs])
    # order in the parameter that actually varies along the ladder: grid
    # spacing if it changes, else the inverse bandwidth
    order = np.nan
    if len(specs) >= 2 and np.all(errs > 0):
        if np.any(np.diff(spacings) != 0):
            order = float(np.polyfit(np.log(spacings), np.log(errs), 1)[0])
        elif np.any(np.diff(widths) != 0):
            order = float(np.polyfit(np.log(1.0 / widths), np.log(errs), 1)[0])
    return ConvergenceStudy(np.asarray(ws, dtype=float), np.asarray(mks),
                            ncs, nc_reference, np.asarray(rs), r_reference, order)
