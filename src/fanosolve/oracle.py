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

The steady-state solve exploits two structural facts without
approximation: continuum states couple only to discrete levels (the
Hamiltonian has an arrow shape) and no jump ends in a continuum state, so
the continuum-continuum block of the generator is diagonal and can be
eliminated exactly (Schur complement), leaving a dense kernel problem over
the coherences and populations with a discrete index, closed by the trace
constraint.  The generator preserves Hermiticity, so that retained system
is real in the real and imaginary parts of the lower-triangle elements:
it is assembled directly from the Hamiltonian and the rates as a real
matrix of the same size and solved with one real LU, a quarter of the
flops and half the bytes of the complex system, stored column-major so
that LAPACK's working copy is no transpose.  One Cholesky factorization
of ``rho + tau I`` certifies positivity.  The discrete levels are described
as in :mod:`fanosolve.general`, and no superoperator is ever formed.
"""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass

import numpy as np

from .general import build_general, general_steady_state, observable
from .models import DensityMatrixP, GeneralModel, _discrete_lindblad, validate_model
from .superop import SteadyStateError, _stationary_solve, decay_table

__all__ = [
    "DiscretizationSpec",
    "FullLindbladian",
    "build_full_lindbladian",
    "OracleSolution",
    "oracle_steady_state",
    "ConvergenceStudy",
    "convergence_study",
]

logger = logging.getLogger("fanosolve")

#: Largest superoperator dimension ``(N + sum M_k)**2`` that is accepted.
_DIMENSION_CAP = 2_000_000


@dataclass(frozen=True)
class DiscretizationSpec:
    """How to chop each continuum into levels.

    ``bandwidth`` W and ``levels_per_continuum`` M_k define a uniform grid
    of M_k levels spanning ``[center - W/2, center + W/2]``;
    ``grid_offset`` shifts the comb by that fraction of a spacing (used to
    check that observables do not depend on where the grid points fall).
    """

    bandwidth: float
    levels_per_continuum: int
    grid_offset: float = 0.0

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
    """Discretized model: Hamiltonian, dissipation rates and basis bookkeeping.

    ``hamiltonian`` is arrow shaped: the discrete block, a diagonal comb per
    continuum and the couplings between them.  ``gains[t, f]`` is the
    population jump rate from state f to discrete level t (no jump ends in
    a continuum state) and ``decay[i, j]`` the decay rate of ``rho[i, j]``:
    half the summed jump losses of i and j plus pure dephasing.
    """

    hamiltonian: np.ndarray
    gains: np.ndarray
    decay: np.ndarray
    n_discrete: int
    n_total: int
    continuum_slices: tuple[slice, ...]


def build_full_lindbladian(model: GeneralModel, spec: DiscretizationSpec,
                           omega_L: float = 0.0) -> FullLindbladian:
    """Assemble the Hamiltonian and the Lindblad rates of the discretized model.

    The Hamiltonian carries the rotating-frame level energies, the direct
    dipole couplings, the discretized bands and their couplings; population
    relaxation and pure dephasing enter in Lindblad form.  The generator
    annihilates the trace by construction (checked in tests).  Raises
    ``ValueError`` when the model is invalid, ``omega_L`` is not finite or
    the superoperator dimension would exceed the cap (the message carries a
    memory estimate).  A model without relaxation is buildable (the
    generator is then a pure commutator); its steady state is degenerate
    and the solver will say so.
    """
    problems = [v for v in validate_model(model)
                if "total relaxation rate is zero" not in v]
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))
    h_d, gains_d, deph_d = _discrete_lindblad(model, omega_L)

    nd = model.n_levels
    mk = spec.levels_per_continuum
    nc = mk * model.n_continua
    ntot = nd + nc
    dim = ntot * ntot
    if dim > _DIMENSION_CAP:
        # the solve holds two real d x d matrices: the retained system
        # (bordered in place) and LAPACK's working copy
        est_gb = 2 * 8 * (dim - nc ** 2) ** 2 / 1e9
        raise ValueError(
            f"superoperator dimension {dim} exceeds cap {_DIMENSION_CAP} "
            f"(estimated memory ~{est_gb:.1f} GB)")

    # the discrete tables, padded with the continuum states
    h, deph = np.pad(h_d, (0, nc)), np.pad(deph_d, (0, nc))
    gains = np.pad(gains_d, ((0, 0), (0, nc)))

    slices = []
    off = nd
    for cont in model.continua:
        sl = slice(off, off + mk)
        slices.append(sl)
        de = spec.spacing
        grid = (cont.center - omega_L * cont.photon_index
                + np.linspace(-spec.bandwidth / 2, spec.bandwidth / 2, mk)
                + spec.grid_offset * de)
        h[sl, sl] = np.diag(grid)
        vd = np.asarray(cont.couplings) * np.sqrt(cont.density * de)
        h[:nd, sl] = vd[:, None]
        h[sl, :nd] = vd
        gains[:, sl] = np.asarray(cont.relax_rates)[:, None]
        if cont.dephase_rates is not None:
            deph[sl, :nd] += cont.dephase_rates
            deph[:nd, sl] += np.asarray(cont.dephase_rates)[:, None]
        off += mk

    decay = decay_table(gains, deph)
    return FullLindbladian(h, gains, decay, nd, ntot, tuple(slices))


@dataclass(frozen=True)
class OracleSolution:
    """Steady state of the discretized model with solve diagnostics.

    ``reduced`` carries the discrete block and per-continuum population
    sums.  ``residual`` is the scaled infinity norm of ``L rho``;
    ``eigenvalue_floor`` bounds the smallest eigenvalue of the full density
    matrix from below, exactly where ``eigvalsh`` ran (small negative values
    are a finite-discretization artifact, tolerated down to -1e-9);
    ``kernel_separation`` estimates how far the eliminated generator is
    from a second kernel dimension, in units of ``eps * max|gen|`` of the
    real retained system (large means a clean one-dimensional kernel; at
    least 1e6 once accepted).  It is an estimate from the trace-bordered
    certificate of the shared kernel solve, finite at every size.
    """

    rho: np.ndarray
    reduced: DensityMatrixP
    residual: float
    eigenvalue_floor: float
    kernel_separation: float


def _pair_part(x, y, out, imag: bool) -> None:
    """Entries ``u + i w`` of one lower element in the real or imaginary part of equations.

    ``rho[i, a] = u + i w`` and ``rho[a, i] = u - i w``, so the coefficients
    x of ``rho[i, a]`` and y of ``rho[a, i]`` enter the real part of an
    equation as ``conj(x) + y`` and its imaginary part as ``i (conj(x) -
    y)``; ``out`` is a complex view of the real rows.
    """
    np.conjugate(x, out=out)
    if imag:
        out -= y
        out *= 1j
    else:
        out += y


def _retained_system(fl: FullLindbladian):
    """Real Schur complement and eliminated trace row over the retained unknowns.

    The retained unknowns are every ``rho[i, j]`` with a discrete index.  No
    jump ends in a continuum state and the comb is diagonal, so the
    equation of ``rho[c, c']`` involves only itself, at ``dq[c, c'] = -i
    (h_c'c' - conj h_cc) - decay_cc'``, and ``rho[c, a]``, ``rho[a, c']``
    through the couplings.  Eliminating it leaves fill-in between each pair
    of discrete levels that is a rank-one product over ``dq``; population
    relaxing from continuum state c to level t enters row (t, t) as the
    eliminated trace of ``rho[c, c]``.

    The generator preserves Hermiticity, so the equations of ``rho[a, i]``
    are the conjugates of those of ``rho[i, a]``, and the system is real in
    real coordinates: the populations, then the real and imaginary parts of
    each lower element, ``rho[i, a]`` with ``i > a`` in ``np.tril_indices``
    order and then ``rho[c, a]`` ordered by (a, c).  The rows are the real
    and imaginary parts of the equations of the same elements, so row 0 is
    still the gg population.  ``gen`` is column-major, LAPACK's order, so
    its working copy is no transpose.  The few rows and columns of discrete
    elements are assembled row-wise as complex equations and copied in; the
    rest is written into complex views of ``gen``'s columns.  Returns
    ``(gen, norm_row, null_row, dq)``: the float64 ``d x d`` generator, the
    real eliminated trace row, the retained trace (1 on the populations) and
    ``dq``.
    """
    h = fl.hamiltonian
    nd, n = fl.n_discrete, fl.n_total
    nc = n - nd
    d = nd * (n + nc)
    hdd, hdc, hcd = h[:nd, :nd], h[:nd, nd:], h[nd:, :nd]
    comb = np.diag(h)[nd:]
    dq = -1j * (comb[None, :] - comb.conj()[:, None]) - fl.decay[nd:, nd:]
    if np.min(np.abs(dq)) == 0:
        raise SteadyStateError("undamped continuum coherence; steady state not unique")
    inv = 1.0 / dq
    dr, mr = np.arange(nd), np.arange(nc)
    li, la = np.tril_indices(nd, -1)
    lead = nd + 2 * li.size  # first real coordinate of the continuum elements

    def realify(coef, x, y, out, imag):
        """Write the real (or imaginary) part of equations into real rows ``out``.

        ``coef[..., k, l]`` holds the coefficients of the discrete
        ``rho[k, l]``; x and y, those of ``rho[c, a]`` and ``rho[a, c]``
        ordered by (a, c), or None when the caller writes these columns.
        """
        out[..., :nd] = (coef.imag if imag else coef.real)[..., dr, dr]
        uw = out[..., nd:].view(complex)
        _pair_part(coef[..., li, la], coef[..., la, li], uw[..., :li.size], imag)
        if x is not None:
            _pair_part(x, y, uw[..., li.size:].reshape(x.shape), imag)

    # the eliminated trace: rho[c, c] in terms of rho[c, a] and rho[a, c]
    dqd = np.diag(dq)[:, None]
    tx, ty = (1j * hcd / dqd).T, (-1j * hcd.conj() / dqd).T

    # complex equations of the discrete rho[i, a], indexed [a, i, ...]
    coef = np.zeros((nd, nd, nd, nd), dtype=complex)  # of the discrete rho[k, l]
    x = np.zeros((nd, nd, nd, nc), dtype=complex)     # of rho[c, a'], [a', c]
    y = np.zeros_like(x)                              # of rho[b, c], [b, c]
    coef[dr[:, None], dr, dr, dr[:, None]] -= fl.decay[:nd, :nd].T
    coef[dr, :, :, dr] += 1j * hdd.conj()
    x[dr, :, dr] += 1j * hdc.conj()
    coef[:, dr, dr, :] -= 1j * hdd[:, None, :]
    y[:, dr, dr, :] -= 1j * hdc[:, None, :]
    coef[dr[:, None], dr[:, None], dr, dr] += fl.gains[:, :nd]
    relax = fl.gains[:, nd:]  # continuum population relaxing to level t
    x[dr, dr] += relax[:, None, :] * tx
    y[dr, dr] += relax[:, None, :] * ty

    gen = np.empty((d, d), order="F")
    strip = np.empty((lead, d))  # the rows of the discrete elements
    realify(coef[dr, dr], x[dr, dr], y[dr, dr], strip[:nd], False)
    lower = coef[la, li], x[la, li], y[la, li]
    realify(*lower, strip[nd::2], False)
    realify(*lower, strip[nd + 1::2], True)
    gen[:lead] = strip

    # rows of rho[c, a], [a, c]: rho[b, a] enters through the couplings ...
    strip = np.empty((d - lead, lead))
    coef_c = np.zeros((nd, nc, nd, nd), dtype=complex)  # [a, c, k, l]
    coef_c[dr, :, :, dr] = 1j * hcd.conj()
    for k in (0, 1):
        realify(coef_c, None, None, strip[k::2].reshape(nd, nc, lead), k == 1)
    gen[lead:, :lead] = strip
    # ... rho[b, c'] through the fill-in from eliminating rho[c, c'], dense: the
    # columns of u and w (rho[c', b] = u + i w) pair the rows of rho[c, a] as P, -i P
    u, w = (gen.T[lead + k::2, lead:].view(complex).reshape(nd, nc, nd, nc) for k in (0, 1))
    for s in range(0, nc, 64):  # [b, c', a, c], a few c' at a time
        t = inv.T[s:s + 64, None, :] * hdc.T[s:s + 64, :, None]
        np.multiply(t, -hcd.conj().T[:, None, None, :], out=u[:, s:s + 64])
        np.multiply(u[:, s:s + 64], -1j, out=w[:, s:s + 64])
    # ... and rho[c, b] diagonally: decay, comb, couplings and fill-in
    pairs = (hdc.T[:, :, None] * hcd[:, None, :]).reshape(nc, nd * nd)  # [c, (a, b)]
    diag = (inv @ pairs).reshape(nc, nd, nd) - 1j * hdd
    diag[:, dr, dr] += 1j * comb.conj()[:, None] - fl.decay[nd:, :nd]
    diag = diag.transpose(0, 2, 1)  # [c, b, a]
    u[:, mr, :, mr] += diag
    w[:, mr, :, mr] += 1j * diag

    norm_row = np.empty((2, d))
    realify(np.eye(nd), tx, ty, norm_row[0], False)
    realify(np.eye(nd), tx, ty, norm_row[1], True)
    # the trace of a Hermitian rho is real: the imaginary part is rounding
    assert np.abs(norm_row[1]).max() <= 1e-12 * np.abs(norm_row[0]).max()
    null_row = np.zeros(d)
    null_row[:nd] = 1.0
    return gen, norm_row[0], null_row, dq


def _generator_action(fl: FullLindbladian, r: np.ndarray) -> np.ndarray:
    """``L(r)``: off its diagonal, H is nonzero only in its first nd rows and columns."""
    h, nd = fl.hamiltonian, fl.n_discrete
    hd, hcd = np.diag(h), h[nd:, :nd]
    hdx = h[:nd] - np.eye(nd, len(hd)) * hd  # the discrete rows off the diagonal
    rh, hr = r * hd, hd.conj()[:, None] * r  # r H^T and conj(H) r
    rh[:, :nd] += r @ hdx.T
    rh[:, nd:] += r[:, :nd] @ hcd.T
    hr[:nd] += hdx.conj() @ r
    hr[nd:] += hcd.conj() @ r[:nd]
    lr = -1j * (rh - hr) - fl.decay * r
    lr[np.diag_indices(nd)] += fl.gains @ np.diag(r)
    return lr


def _eigenvalue_floor(rho: np.ndarray) -> float:
    """Certified lower bound on the smallest eigenvalue of a Hermitian ``rho`` of trace 1.

    A completed Cholesky factorization of ``A = rho + tau I`` has ``R^H R = A + E``,
    ``|E| <= g |R^H||R|``, ``g = gamma_{n+1}`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, Thm 10.3), so ``||E||_2 <= g ||R||_F^2 <= g tr A / (1 - g)``
    and ``lambda_min(rho) >= -(tau + slack)``, ``slack = n (n + 1) eps tr A`` being 2n
    times that bound.  It is tried where this clears -1e-9 by another ``slack``, the
    rounding of ``eigvalsh``; otherwise ``eigvalsh`` decides and gives the exact value.
    """
    n, tau = len(rho), 1e-10
    slack = n * (n + 1) * np.finfo(float).eps * (1.0 + n * tau)
    if tau + 2 * slack <= 1e-9:
        with contextlib.suppress(np.linalg.LinAlgError):  # else eigvalsh decides
            np.linalg.cholesky(rho + tau * np.eye(n))
            return -(tau + slack)
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -1e-9:
        raise SteadyStateError(f"steady state not positive (min eigenvalue {min_eig:.2e})")
    if min_eig < 0:
        logger.info("oracle steady state has small negative eigenvalue %.2e", min_eig)
    return min_eig


def oracle_steady_state(fl: FullLindbladian) -> OracleSolution:
    """Steady state of the discretized model via exact block elimination.

    The continuum-continuum block is diagonal by construction and is
    eliminated exactly: the remaining dense system (the Schur complement)
    and the correspondingly eliminated trace row are assembled directly
    from the Hamiltonian and the rates, then go through the certified
    kernel solve shared by every solver; the retained trace is the Schur
    complement's left null vector.  The eliminated block is rebuilt from
    the solution, and the residual of the full generator is evaluated on
    ``rho`` without forming it.  An eigenvalue below -1e-9 (see
    :func:`_eigenvalue_floor`) or a degenerate kernel raises :class:`SteadyStateError`.
    """
    h = fl.hamiltonian
    nd, n = fl.n_discrete, fl.n_total
    gen, norm_row, null_row, dq = _retained_system(fl)
    xr, sep = _stationary_solve(gen, norm_row, null_row)
    li, la = np.tril_indices(nd, -1)
    z = xr[nd::2] + 1j * xr[nd + 1::2]  # the lower elements
    zc = z[li.size:].reshape(nd, n - nd)

    r = np.empty((n, n), dtype=complex)
    r[np.diag_indices(nd)] = xr[:nd]
    r[li, la], r[la, li] = z[:li.size], z[:li.size].conj()
    r[nd:, :nd], r[:nd, nd:] = zc.T, zc.conj()
    hcd = h[nd:, :nd]
    r[nd:, nd:] = 1j * (r[nd:, :nd] @ hcd.T - hcd.conj() @ r[:nd, nd:]) / dq

    # the shared solve checked the Schur residual; this also covers rho[c, c']
    lr = _generator_action(fl, r)
    # scale: the largest generator entry (diagonal, Hamiltonian, jump gains)
    hd = np.diag(h)
    entries = -1j * (hd[None, :] - hd.conj()[:, None]) - fl.decay
    entries[np.diag_indices(nd)] += np.diag(fl.gains)
    off_gains = fl.gains - np.eye(nd, n) * np.diag(fl.gains)[:, None]
    scale = max(np.abs(entries).max(), np.abs(h - np.diag(hd)).max(),
                off_gains.max(), 1.0)
    residual = float(np.max(np.abs(lr)) / scale)
    if not np.isfinite(residual) or residual > 1e-8:
        raise SteadyStateError(f"steady-state residual {residual:.2e}")

    rho = 0.5 * (r + r.conj().T)
    rho /= np.real(np.trace(rho))
    pops = tuple(float(np.real(np.trace(rho[sl, sl]))) for sl in fl.continuum_slices)
    reduced = DensityMatrixP(rho[:nd, :nd], pops)
    return OracleSolution(rho, reduced, residual, _eigenvalue_floor(rho), float(sep))


@dataclass(frozen=True)
class ConvergenceStudy:
    """Error of the effective solution against the discretized one per rung.

    The errors are reported rung by rung, with no fitted convergence order:
    a ladder that widens the band at a fixed spacing has an error of the
    form ``a/W + b``, not a power law.  ``residuals``, ``eigenvalue_floors`` and
    ``kernel_separations`` are each rung's solve diagnostics (:class:`OracleSolution`).
    """

    bandwidths: np.ndarray
    levels: np.ndarray
    nc_oracle: np.ndarray
    nc_reference: float
    r_oracle: np.ndarray
    r_reference: float
    residuals: np.ndarray
    eigenvalue_floors: np.ndarray
    kernel_separations: np.ndarray

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


def convergence_study(model: GeneralModel, specs, omega_L: float) -> ConvergenceStudy:
    """Run the discretized solver along a refinement ladder.

    ``specs`` is an iterable of :class:`DiscretizationSpec` ordered from
    coarse to fine.  The reference is the effective (wideband) steady
    state, ``general_steady_state(build_general(model, omega_L))``, and
    both sides' continuum population and transport rate come from
    :func:`fanosolve.general.observable`.  Non-convergence is visible in
    the per-rung errors, never asserted away.
    """
    specs = list(specs)
    if len(specs) < 1:
        raise ValueError("need at least one discretization spec")

    def nc_and_r(state: DensityMatrixP) -> list[float]:
        return [float(observable(model, name, state.rho, state.continuum_pops))
                for name in ("continuum_pop", "transport_rate")]

    nc_reference, r_reference = nc_and_r(general_steady_state(build_general(model, omega_L)))
    values, diags = [], []
    for spec in specs:
        sol = oracle_steady_state(build_full_lindbladian(model, spec, omega_L))
        values.append(nc_and_r(sol.reduced))
        diags.append((sol.residual, sol.eigenvalue_floor, sol.kernel_separation))

    ncs, rs = np.array(values).T
    return ConvergenceStudy(np.array([s.bandwidth for s in specs], dtype=float),
                            np.array([s.levels_per_continuum for s in specs]),
                            ncs, nc_reference, rs, r_reference, *np.array(diags).T)
