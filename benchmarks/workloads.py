"""Seeded inputs and independent output checks of the benchmark workloads.

Each workload draws a pool of input slots from the run's seed during
set-up: argv lists for ``fanosolve.cli.main`` and, where a command reads a
model, a YAML config written next to the slot's output files.  Requests
cycle through the pool; every request is checked after it ran, against a
reference computed here by a different route than the one the program
took.  ``perturbations`` spoil one output file each so the self-test can
show that a wrong answer is counted as a failure.

Each workload also names a reference kernel: a fixed piece of work of the
same kind as its requests, which the worker runs between requests to
measure the host's speed at that moment (see ``worker.py``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import yaml

from fanosolve.general import build_general, fano_model, general_steady_state
from fanosolve.models import Continuum, FanoParams, GeneralModel
from fanosolve.scattering import build_heff
from fanosolve.superop import trace_row
from spec import ORACLE_LADDER


class CheckFailed(Exception):
    """A request's output disagrees with the reference."""


class PythonKernel:
    """Python-level calls on 4x4 matrices, like the per-point sweep loops."""

    ref_ms = 4.0

    def __init__(self):
        self.solve = np.linalg.solve  # bound now: tracing rebinds numpy.linalg
        self.a = 3.0 * np.eye(4, dtype=complex) + 0.1
        self.b = np.ones(4, dtype=complex)

    def __call__(self) -> float:
        """Milliseconds taken by one fixed batch of work."""
        t0 = time.perf_counter()
        s = 0.0
        for i in range(300):
            s += float(self.solve(self.a, self.b)[0].real) * i
            repr(s)
            for j in range(40):
                s += 0.5 * j
        return (time.perf_counter() - t0) * 1e3


class DenseKernel:
    """A 500x500 complex LU solve on the process's BLAS threads, like the
    oracle's dense elimination; the median of three.

    It shares the BLAS thread count with the program, so a run with fewer
    threads reads as a slower host: compare such runs by wall time.
    """

    ref_ms = 10.0

    def __init__(self):
        self.solve = np.linalg.solve
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((500, 500)) + 1j * rng.standard_normal((500, 500))
        self.b = np.ones(500, dtype=complex)

    def __call__(self) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self.solve(self.a, self.b)
            times.append((time.perf_counter() - t0) * 1e3)
        return sorted(times)[1]


@dataclass
class Slot:
    index: int
    params: dict
    argvs: list
    files: dict


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_csv(path: str, columns: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
    if data.shape[1] != columns or not np.all(np.isfinite(data)):
        raise CheckFailed(f"{os.path.basename(path)}: expected {columns} finite "
                          f"columns, got shape {data.shape}")
    return data


def _perturb_csv(path: str, index, scale: float = 1.0, shift: float = 0.0) -> None:
    """Rewrite a CSV output with ``data[index]`` scaled and shifted."""
    with open(path, encoding="utf-8") as fh:
        head = [fh.readline(), fh.readline()]
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
    data[index] = data[index] * scale + shift
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(head)
        fh.writelines(",".join(format(v, ".17g") for v in row) + "\n" for row in data)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _reference_state(model: GeneralModel, omega_l: float):
    """Steady state by a constrained dense solve, not the program's SVD route.

    One population row of the trace-preserving generator is redundant; it is
    replaced by the normalization ``trace + sum_a n_a = 1``.  Returns the
    density matrix and the continuum populations after checking the scaled
    residual and the normalization to 1e-10.
    """
    gel = build_general(model, omega_L=omega_l)
    gen = gel.matrix
    n = gel.n_levels
    a = gen.copy()
    a[0] = trace_row(n) + gel.C_coeffs.sum(axis=0)
    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = 1.0
    x = np.linalg.solve(a, rhs)
    resid = np.max(np.abs(gen @ x)) / np.max(np.abs(gen))
    pops = np.real(gel.C_coeffs @ x)
    rho = x.reshape(n, n).T
    norm = float(np.real(np.trace(rho)) + pops.sum())
    _require(resid <= 1e-10, f"reference residual {resid:.1e} at omega_L={omega_l}")
    _require(abs(norm - 1.0) <= 1e-10, f"reference normalization {norm!r}")
    return rho, pops


class FanoLineshape:
    """The README's single-resonance job: steady sweep, decompose, scatter."""

    name = "fano_lineshape"
    pool = 60
    kernel = PythonKernel
    observables = ("continuum_pop", "transport_rate", "absorption")
    grid = "-10:10:401"
    times = "10,100,300"

    def make_slots(self, rng, workdir: str) -> list[Slot]:
        slots = []
        for j in range(self.pool):
            d = os.path.join(workdir, f"slot{j}")
            os.makedirs(d, exist_ok=True)
            p = {"q": rng.uniform(-3, 3), "Omega": rng.uniform(0.02, 0.3),
                 "Gamma_e": rng.uniform(0, 0.5), "gamma_eg": rng.uniform(0, 2),
                 "beta": rng.uniform(0.3, 1.0),
                 "observable": self.observables[j % 3]}
            files = {k: os.path.join(d, f) for k, f in
                     (("steady", "steady.csv"), ("summary", "steady.json"),
                      ("decompose", "decompose.json"), ("scatter", "scatter.csv"))}
            fano = ["--q", _fmt(p["q"]), "--omega", _fmt(p["Omega"])]
            argvs = [
                ["steady", *fano, "--gamma-e", _fmt(p["Gamma_e"]),
                 "--gamma-eg", _fmt(p["gamma_eg"]), "--gamma-c", "1",
                 "--beta", _fmt(p["beta"]), "--eps", self.grid,
                 "--observable", p["observable"], "--out", files["steady"],
                 "--summary", files["summary"]],
                ["decompose", "--input", files["steady"], "--skiprows", "2",
                 "--held-out", "20", "--seed", str(j), "--out", files["decompose"]],
                ["scatter", *fano, "--t", self.times, "--eps", self.grid,
                 "--out", files["scatter"]],
            ]
            slots.append(Slot(j, p, argvs, files))
        return slots

    def _params(self, p: dict, eps: float) -> FanoParams:
        return FanoParams(epsilon=eps, q=p["q"], Omega=p["Omega"],
                          Gamma_e=p["Gamma_e"], Gamma_cg=p["beta"],
                          Gamma_ce=1.0 - p["beta"], gamma_eg=p["gamma_eg"])

    def _steady_reference(self, p: dict, eps: float) -> float:
        fp = self._params(p, eps)
        ss = general_steady_state(build_general(fano_model(fp), omega_L=eps))
        nc = float(np.sum(ss.continuum_pops))
        rho_gg, rho_ee = float(np.real(ss.rho[0, 0])), float(np.real(ss.rho[1, 1]))
        if p["observable"] == "continuum_pop":
            return nc
        if p["observable"] == "transport_rate":
            return fp.Gamma_c * nc / rho_gg
        # absorption equals the dissipative return flux into the ground state
        return fp.Gamma_cg * nc + 2.0 * fp.Gamma_e * rho_ee

    def check(self, slot: Slot, rng) -> None:
        p, f = slot.params, slot.files
        eps_grid = np.linspace(-10, 10, 401)
        steady = _read_csv(f["steady"], 2)
        _require(np.array_equal(steady[:, 0], eps_grid), "steady: wrong detuning grid")
        for i in rng.choice(eps_grid.size, 8, replace=False):
            ref = self._steady_reference(p, eps_grid[i])
            err = abs(steady[i, 1] - ref) / max(abs(ref), 1e-300)
            _require(err <= 1e-8, f"steady {p['observable']} at eps={eps_grid[i]}: "
                                  f"{steady[i, 1]!r} vs reference {ref!r}")
        with open(f["summary"], encoding="utf-8") as fh:
            summary = json.load(fh)
        _require(summary["observable"] == p["observable"], "summary: wrong observable")
        _require(summary["fit_residual"] is not None
                 and summary["fit_residual"] <= 1e-8,
                 f"summary: fit residual {summary['fit_residual']}")
        with open(f["decompose"], encoding="utf-8") as fh:
            dec = json.load(fh)
        _require(dec.get("held_out_residual", np.inf) <= 1e-8,
                 f"decompose: held-out residual {dec.get('held_out_residual')}")

        scatter = _read_csv(f["scatter"], 4)
        _require(scatter.shape[0] == 3 * eps_grid.size, "scatter: wrong row count")
        for i in rng.choice(scatter.shape[0], 12, replace=False):
            eps, t, prob, rate = scatter[i]
            heff = build_heff(FanoParams(epsilon=eps, q=p["q"], Omega=p["Omega"]))
            u = scipy.linalg.expm(-1j * heff * t)
            u_gg = u[0, 0]
            du_gg = -1j * (heff @ u)[0, 0]
            prob_ref = 1.0 - abs(u_gg) ** 2
            rate_ref = -2.0 * float(np.real(np.conj(u_gg) * du_gg))
            _require(abs(prob - prob_ref) <= 1e-9 and abs(rate - rate_ref) <= 1e-9,
                     f"scatter at eps={eps}, T={t}: P={prob!r}, dP/dt={rate!r} vs "
                     f"expm {prob_ref!r}, {rate_ref!r}")

    def perturbations(self):
        def steady(slot):
            _perturb_csv(slot.files["steady"], np.s_[:, 1], scale=1 + 1e-6)

        def held_out(slot):
            path = slot.files["decompose"]
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["held_out_residual"] = 1e-6
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

        def scatter(slot):
            _perturb_csv(slot.files["scatter"], np.s_[:, 2], shift=1e-6)

        return {"steady value": steady, "held-out residual": held_out,
                "scatter probability": scatter}


#: Parameters of the two-band demonstration model (demos/two_band_demo.yaml).
_TWO_BAND = {
    "energies": (0.0, 10.0, 20.0),
    "photon_indices": (0, 1, 1),
    "dipoles": {(0, 1): 0.3, (0, 2): 0.4},
    "continua": (((0.05, 0.1, 0.2), (0.5, 0.0, 0.0), "A"),
                 ((0.1, 0.3, 0.02), (0.7, 0.0, 0.0), "B")),
    "jumps": ((1, 0, 0.04), (2, 0, 0.05)),
}


def _model_doc(energies, photons, dipoles, continua, jumps, omega_l) -> dict:
    """Config document for a model; ``omega_l`` is a number or a sweep dict."""
    doc = {
        "levels": [{"energy": float(e), "photon_index": int(k)}
                   for e, k in zip(energies, photons)],
        "dipoles": [{"i": i, "j": j, "value": float(v)}
                    for (i, j), v in dipoles.items()],
        "continua": [{"density": 1.0 / np.pi,
                      "couplings": [float(v) for v in c],
                      "relax_rates": [float(g) for g in r], "label": lbl}
                     for c, r, lbl in continua],
        "field": {"omega_L": omega_l},
    }
    if jumps:
        doc["dissipators"] = {"jumps": [{"from": a, "to": b, "rate": float(g)}
                                        for a, b, g in jumps]}
    return doc


def _model(energies, photons, dipoles, continua, jumps) -> GeneralModel:
    n = len(energies)
    dip = np.zeros((n, n), dtype=complex)
    for (i, j), v in dipoles.items():
        dip[i, j] = dip[j, i] = v
    conts = tuple(Continuum(density=1.0 / np.pi, couplings=c, relax_rates=r,
                            label=lbl) for c, r, lbl in continua)
    return GeneralModel(energies=tuple(energies), photon_indices=tuple(photons),
                        dipoles=dip, continua=conts, jumps=tuple(jumps))


def _write_yaml(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


class TwoBandGeneral:
    """``general --config`` on seeded perturbations of the two-band demo."""

    name = "two_band_general"
    pool = 8
    kernel = PythonKernel
    sweep = (5.0, 25.0, 801)

    def make_slots(self, rng, workdir: str) -> list[Slot]:
        slots = []
        for j in range(self.pool):
            d = os.path.join(workdir, f"slot{j}")
            os.makedirs(d, exist_ok=True)

            def jitter(x, rel=0.2):
                return float(x) * (1.0 + rng.uniform(-rel, rel))

            energies = (0.0,) + tuple(jitter(e, 0.05) for e in _TWO_BAND["energies"][1:])
            dipoles = {k: jitter(v) for k, v in _TWO_BAND["dipoles"].items()}
            continua = tuple((tuple(jitter(v) for v in c), tuple(jitter(g) for g in r), lbl)
                             for c, r, lbl in _TWO_BAND["continua"])
            jumps = tuple((a, b, jitter(g)) for a, b, g in _TWO_BAND["jumps"])
            parts = (energies, _TWO_BAND["photon_indices"], dipoles, continua, jumps)
            start, stop, points = self.sweep
            files = {"config": os.path.join(d, "model.yaml"),
                     "out": os.path.join(d, "sweep.csv")}
            _write_yaml(files["config"], _model_doc(
                *parts, {"start": start, "stop": stop, "points": points}))
            argvs = [["general", "--config", files["config"], "--out", files["out"]]]
            slots.append(Slot(j, {"model": _model(*parts)}, argvs, files))
        return slots

    def check(self, slot: Slot, rng) -> None:
        model = slot.params["model"]
        n, m = model.n_levels, model.n_continua
        data = _read_csv(slot.files["out"], 1 + m + 1 + n)
        _require(np.array_equal(data[:, 0], np.linspace(*self.sweep)),
                 "general: wrong drive grid")
        conts, total, levels = data[:, 1:1 + m], data[:, 1 + m], data[:, 2 + m:]
        _require(np.max(np.abs(conts.sum(axis=1) - total)) <= 1e-12,
                 "general: continuum total is not the sum of its parts")
        norm_err = np.max(np.abs(levels.sum(axis=1) + total - 1.0))
        _require(norm_err <= 1e-10, f"general: trace + sum n_c deviates by {norm_err:.1e}")
        for i in rng.choice(data.shape[0], 12, replace=False):
            rho, pops = _reference_state(model, data[i, 0])
            ref = np.concatenate([pops, np.real(np.diag(rho))])
            got = np.concatenate([conts[i], levels[i]])
            err = np.max(np.abs(got - ref))
            _require(err <= 1e-10, f"general at omega_L={data[i, 0]}: populations "
                                   f"differ from the reference by {err:.1e}")

    def perturbations(self):
        def level(slot):
            _perturb_csv(slot.files["out"], np.s_[:, -1], scale=1 + 1e-6)
        return {"level population": level}


class OracleLadder:
    """``oracle --config`` on seeded ground + excited level, two-continua models."""

    name = "oracle_ladder"
    pool = 8
    kernel = DenseKernel

    def make_slots(self, rng, workdir: str) -> list[Slot]:
        slots = []
        for j in range(self.pool):
            d = os.path.join(workdir, f"slot{j}")
            os.makedirs(d, exist_ok=True)
            q = rng.uniform(-2, 2)
            eps = rng.uniform(-2, 2)
            g1sq = rng.uniform(0.3, 0.7)
            continua = []
            for k, gsq in enumerate((g1sq, 1.0 - g1sq)):
                g = np.sqrt(gsq)
                continua.append(((rng.uniform(0.05, 0.3) * g, g),
                                 (rng.uniform(1.5, 3.0), 0.0), str(k + 1)))
            jumps = ((1, 0, 2.0 * rng.uniform(0.05, 0.3)),)  # excited-state decay
            parts = ((0.0, 0.0), (0, 1), {(0, 1): q}, tuple(continua), jumps)
            doc = _model_doc(*parts, float(eps))
            doc["run"] = {"oracle": [{"bandwidth": float(mk - 1), "levels_per_continuum": mk}
                                     for mk in ORACLE_LADDER]}
            files = {"config": os.path.join(d, "model.yaml"),
                     "out": os.path.join(d, "ladder.csv")}
            _write_yaml(files["config"], doc)
            argvs = [["oracle", "--config", files["config"], "--out", files["out"]]]
            slots.append(Slot(j, {"model": _model(*parts), "omega_L": float(eps)},
                              argvs, files))
        return slots

    def check(self, slot: Slot, rng) -> None:
        model = slot.params["model"]
        data = _read_csv(slot.files["out"], 7)
        _require(np.array_equal(data[:, 1], ORACLE_LADDER), "oracle: wrong ladder")
        rho, pops = _reference_state(model, slot.params["omega_L"])
        nc_ref = float(pops.sum())
        rates = [sum(c.relax_rates) for c in model.continua]
        r_ref = float(np.dot(rates, pops)) / float(np.real(rho[0, 0]))
        _require(np.all(np.abs(data[:, 3] - nc_ref) <= 1e-10 * nc_ref),
                 "oracle: nc_reference differs from the effective solution")
        nc_err = (data[:, 2] - nc_ref) / nc_ref
        r_err = np.abs(data[:, 5] - r_ref) / r_ref
        _require(abs(nc_err[-1]) < 2e-2 and r_err[-1] < 2e-2,
                 f"oracle: finest-rung errors nc {nc_err[-1]:.2e}, r {r_err[-1]:.2e}")
        # The ladder refines the bandwidth at a fixed unit spacing, so its
        # limit is the reference plus a spacing error of up to ~5e-3: the
        # signed error goes like a/W + b, and |error| can grow along the
        # ladder or dip through zero.  Convergence is judged on the
        # successive changes, which shrink like 1/W.  Where a ~ 0 the
        # changes are set by terms of a few 1e-5 that do not follow 1/W
        # (seed 338262062 slot 7: errors 4.0e-5, 5.9e-5, 6.2e-6), so a
        # change below 1e-3, a twentieth of the 2e-2 tolerance, passes.
        steps = np.abs(np.diff(nc_err))
        _require(steps[-1] < steps[0] or steps[-1] < 1e-3,
                 f"oracle: nc does not settle along the ladder: {data[:, 2]} "
                 f"(relative errors {nc_err})")

    def computed_counts(self) -> dict:
        """Per-rung sizes of the dense eliminated system, from the model shape.

        Computed, not measured: retained unknowns ``(N + M mk)^2 - (M mk)^2``,
        the bytes of the dense complex Schur complement and the ~8/3 n^3 real
        flops of its complex LU.
        """
        n_levels = n_continua = 2
        out = {}
        for r, mk in enumerate(ORACLE_LADDER):
            n = (n_levels + n_continua * mk) ** 2 - (n_continua * mk) ** 2
            out[f"computed.rung{r}.retained_unknowns"] = n
            out[f"computed.rung{r}.schur_bytes"] = 16 * n * n
            out[f"computed.rung{r}.lu_flops"] = 8 * n**3 / 3
        return out

    def perturbations(self):
        def finest(slot):
            _perturb_csv(slot.files["out"], np.s_[-1, 2], scale=1.05)
        return {"finest-rung population": finest}


WORKLOADS = {w.name: w for w in (FanoLineshape(), TwoBandGeneral(), OracleLadder())}
