"""Command-line front end: sweeps to CSV, lineshape summaries to JSON.

Subcommands
-----------
scatter    ionization probability P(T) and rate over a detuning grid
steady     dissipative steady-state observable over a detuning grid
general    continuum populations of a configured model over a drive sweep
decompose  fit a sampled lineshape and emit its Fano-plus-Lorentzian summary
oracle     discretized-bath convergence table for a configured model

All numbers are dimensionless: energies and rates in units of the reference
width ``gamma = n*pi*V**2``, times in ``1/gamma``.  Output is deterministic:
fixed 17-significant-digit CSV plus JSON summaries, so identical invocations
produce identical bytes.  ``--seed`` only feeds randomized utilities (the
held-out split in ``decompose``), never the physics.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import __version__
from .config import load_config
from .general import OBSERVABLES, general_sweep
from .lineshape import decompose, fit_rational_quadratic
from .liouville import SteadyStateError, lineshape_sweep
from .models import FanoParams
from .oracle import convergence_study
from .scattering import _survival

__all__ = ["main"]

_UNITS_COMMENT = "# energies and rates in n*pi*V^2 units; times in 1/(n*pi*V^2)"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(path, text: str) -> None:
    """Write text to ``path``, or to stdout for None or ``-``."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_csv(path, header: list[str], rows) -> None:
    lines = [_UNITS_COMMENT, ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _emit(path, "\n".join(lines) + "\n")


def _write_json(path, summary: dict) -> None:
    _emit(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _decomposition(dec) -> dict:
    """JSON fields of a :class:`LineshapeDecomposition`."""
    return {"Delta": dec.Delta, "sigma": dec.sigma, "K_den": dec.K_den,
            "c2": dec.c2, "q": dec.q, "D": dec.D}


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"values must be finite, got {text!r}")
    return value


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:npoints' into a uniform grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:npoints, got {text!r}")
    start, stop, npts = _finite(parts[0]), _finite(parts[1]), int(parts[2])
    if npts < 1:
        raise argparse.ArgumentTypeError("npoints must be at least 1")
    return np.linspace(start, stop, npts)


def _parse_list(text: str) -> np.ndarray:
    return np.array([_finite(v) for v in text.split(",")])


def _fano_params(args) -> FanoParams:
    if not 0.0 <= args.beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {args.beta}")
    if not 0.0 < args.gamma_c < np.inf:
        raise ValueError(f"gamma_c must be positive and finite, got {args.gamma_c}")
    return FanoParams(epsilon=0.0, q=args.q, Omega=args.omega, Gamma_e=args.gamma_e,
                      Gamma_cg=args.gamma_c * args.beta,
                      Gamma_ce=args.gamma_c * (1.0 - args.beta),
                      gamma_eg=args.gamma_eg)


def cmd_scatter(args) -> int:
    s, ds = _survival(FanoParams(0.0, args.q, args.omega), args.eps, args.t[:, None])
    p_grid = 1.0 - s
    e_grid, t_grid = np.meshgrid(args.eps, args.t)
    _write_csv(args.out, ["epsilon", "T", "P", "dP_dt"],
               np.column_stack([e_grid.ravel(), t_grid.ravel(), p_grid.ravel(),
                                -ds.ravel()]))
    last = p_grid[-1]
    lo = last.min()
    ratio = last.max() / lo if lo > 0 else float("inf")
    print(f"profile max/min ratio at T={args.t[-1]:g}: {_fmt(ratio)}")
    return 0


def cmd_steady(args) -> int:
    p = _fano_params(args)
    sweep = lineshape_sweep(p, args.eps, observable=args.observable)
    _write_csv(args.out, ["epsilon", args.observable],
               zip(sweep.epsilons, sweep.values))
    summary: dict = {"observable": args.observable,
                     "q": args.q, "Omega": args.omega,
                     "Gamma_e": args.gamma_e, "gamma_eg": args.gamma_eg,
                     "Gamma_cg": p.Gamma_cg, "Gamma_ce": p.Gamma_ce}
    if sweep.fit is not None:
        summary["fit_residual"] = sweep.fit.max_rel_residual
        dec = sweep.decomposition
        if dec is not None and not dec.pure_lorentzian:
            summary["decomposition"] = {**_decomposition(dec),
                                        "residual": sweep.fit.max_rel_residual}
    else:
        summary["fit_residual"] = None
    _write_json(args.summary, summary)
    return 0


def cmd_general(args) -> int:
    cfg = load_config(args.config)
    model = cfg.model
    grid = cfg.sweep.grid()
    labels = [c.label or str(a) for a, c in enumerate(model.continua)]
    header = (["omega_L"] + [f"pop_continuum_{lbl}" for lbl in labels]
              + ["pop_continuum_total"]
              + [f"pop_level_{i}" for i in range(model.n_levels)])
    rho, pops = general_sweep(model, grid)
    rows = np.column_stack([grid, pops, pops.sum(axis=1),
                            np.real(np.diagonal(rho, axis1=-2, axis2=-1))])
    out = args.out or cfg.run.output
    _write_csv(out, header, rows)
    return 0


def cmd_decompose(args) -> int:
    if args.skiprows is None:  # the leading '#' lines and one non-numeric header line
        with open(args.input, encoding="utf-8") as fh:
            head = re.match(r"(#.*\n)*([^-+.\d\s].*\n)?", fh.read())
        args.skiprows = head.group().count("\n")
    data = np.loadtxt(args.input, delimiter=",", comments="#", skiprows=args.skiprows)
    if data.ndim != 2 or data.shape[1] < 2:
        raise SystemExit("input must be a CSV of (epsilon, value) rows")
    eps, vals = data[:, 0], data[:, 1]
    n = eps.size
    held = max(0, min(args.held_out, n - 6))
    idx = np.random.default_rng(args.seed).permutation(n)
    fit_idx, held_idx = idx[: n - held], idx[n - held:]
    fit = fit_rational_quadratic(eps[fit_idx], vals[fit_idx])
    out: dict = {"coefficients": {"a0": fit.rq.a0, "a1": fit.rq.a1, "a2": fit.rq.a2,
                                  "b0": fit.rq.b0, "b1": fit.rq.b1, "b2": fit.rq.b2},
                 "fit_residual": fit.max_rel_residual,
                 "condition_number": fit.cond}
    if held:
        out["held_out_residual"] = fit.held_out_residual(eps[held_idx], vals[held_idx])
    try:
        dec = decompose(fit.rq)
        if not dec.pure_lorentzian:
            out["decomposition"] = _decomposition(dec)
    except ValueError as exc:
        out["decomposition_error"] = str(exc)
    _write_json(args.out, out)
    return 0


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    ladder = cfg.run.oracle
    if not ladder:
        raise SystemExit("config has no run.oracle ladder")
    study = convergence_study(cfg.model, ladder, cfg.sweep.start)
    rows = zip(study.bandwidths, study.levels, study.nc_oracle,
               np.full_like(study.nc_oracle, study.nc_reference),
               study.nc_errors, study.r_oracle, study.r_errors)
    _write_csv(args.out, ["bandwidth", "levels", "nc_oracle", "nc_reference",
                          "nc_rel_error", "r_oracle", "r_rel_error"], rows)
    print(f"monotone decrease: {study.decreasing}; "
          f"worst residual {study.residuals.max():.2e}, "
          f"min eigenvalue >= {study.eigenvalue_floors.min():.2e}, "
          f"min kernel separation {study.kernel_separations.min():.2e}")
    return 0


def _add_fano_flags(sub, with_dissipation: bool = True):
    sub.add_argument("--q", type=float, required=True,
                     help="asymmetry parameter q = mu_e / (n pi mu_c)")
    sub.add_argument("--omega", type=float, required=True,
                     help="reduced Rabi coupling Omega = mu_c F / (2 V)")
    if with_dissipation:
        sub.add_argument("--gamma-e", type=float, default=0.0,
                         help="excited->ground relaxation half width Gamma_e")
        sub.add_argument("--gamma-c", type=float, default=1.0,
                         help="total continuum relaxation rate Gamma_c")
        sub.add_argument("--beta", type=float, default=1.0,
                         help="branching: Gamma_cg = beta Gamma_c, "
                              "Gamma_ce = (1 - beta) Gamma_c")
        sub.add_argument("--gamma-eg", type=float, default=0.0,
                         help="pure dephasing rate gamma_eg of the g-e coherence")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fanosolve",
        description="Beutler-Fano lineshapes: scattering and dissipative solvers. "
                    "All quantities in units of the reference width n*pi*V^2.")
    ap.add_argument("--version", action="version", version=f"fanosolve {__version__}")
    sp = ap.add_subparsers(dest="command", required=True)

    sc = sp.add_parser("scatter", help="ionization probability P(T; epsilon)")
    _add_fano_flags(sc, with_dissipation=False)
    sc.add_argument("--t", type=_parse_list, required=True,
                    help="comma-separated interaction times T in 1/(n pi V^2)")
    sc.add_argument("--eps", type=_parse_grid, default=np.linspace(-10, 10, 401),
                    help="detuning grid epsilon start:stop:npoints")
    sc.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sc.set_defaults(func=cmd_scatter)

    st = sp.add_parser("steady", help="dissipative steady-state lineshape")
    _add_fano_flags(st)
    st.add_argument("--eps", type=_parse_grid, default=np.linspace(-10, 10, 401),
                    help="detuning grid epsilon start:stop:npoints")
    st.add_argument("--observable", default="continuum_pop",
                    choices=OBSERVABLES,
                    help="columns to emit: integrated continuum population, "
                         "transfer rate r, or photon absorption rate")
    st.add_argument("--out", default=None, help="CSV output path (default stdout)")
    st.add_argument("--summary", default=None,
                    help="JSON path for the lineshape decomposition "
                         "(Delta, sigma, q, D, residual); default stdout")
    st.set_defaults(func=cmd_steady)

    ge = sp.add_parser("general", help="continuum populations of a configured model")
    ge.add_argument("--config", required=True, help="YAML model configuration")
    ge.add_argument("--out", default=None,
                    help="CSV output path (default: run.output from the config)")
    ge.set_defaults(func=cmd_general)

    de = sp.add_parser("decompose", help="fit a sampled lineshape, emit its summary")
    de.add_argument("--input", required=True,
                    help="CSV of (epsilon, value) samples")
    de.add_argument("--out", default=None, help="JSON output path (default stdout)")
    de.add_argument("--held-out", type=int, default=0,
                    help="number of samples reserved for a held-out residual")
    de.add_argument("--skiprows", type=int, default=None,
                    help="rows to skip (default: the '#' lines and a non-numeric header)")
    de.add_argument("--seed", type=int, default=0,
                    help="seed for the held-out split only; physics is untouched")
    de.set_defaults(func=cmd_decompose)

    orc = sp.add_parser("oracle", help="discretized-bath convergence table")
    orc.add_argument("--config", required=True,
                     help="YAML model configuration with a run.oracle ladder")
    orc.add_argument("--out", default=None, help="CSV output path (default stdout)")
    orc.set_defaults(func=cmd_oracle)

    # Let grid values like "-10:10:401" and lists like "-1,0,1" follow their
    # flag with a space; no option name starts with a digit, so anything of
    # the form -<digit>... is a value.
    matcher = re.compile(r"^-\d")
    for parser in [ap] + list(sp.choices.values()):
        parser._negative_number_matcher = matcher
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SteadyStateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
