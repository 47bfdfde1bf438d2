"""YAML model configuration: strict loading, saving and sweep descriptions.

A configuration file has the sections ``units`` (a free-text
``reference`` stating which coupling defines the reference width; written
for the reader, key-checked on loading and otherwise ignored),
``levels``, ``dipoles``, ``continua``, ``dissipators``, ``field`` (the
drive frequency or a sweep of it) and ``run`` (output path, optional
discretization ladder, each rung's ``grid_offset`` kept when nonzero).
Unknown keys anywhere are rejected so typos cannot silently change a model.
Saving and re-loading a model reproduces every finite float bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .models import Continuum, GeneralModel, validate_model
from .oracle import DiscretizationSpec

__all__ = ["SweepSpec", "RunSpec", "ModelConfig", "load_config", "save_model"]


class ConfigError(ValueError):
    """Malformed configuration file."""


@dataclass(frozen=True)
class SweepSpec:
    """Drive-frequency sweep: either a single point or a uniform grid."""

    start: float
    stop: float
    points: int

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class RunSpec:
    output: str | None = None
    oracle: tuple[DiscretizationSpec, ...] = ()


@dataclass(frozen=True)
class ModelConfig:
    model: GeneralModel
    sweep: SweepSpec
    run: RunSpec


def _check_keys(mapping: dict, allowed: set[str], where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _as_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _parse_model(doc: dict) -> GeneralModel:
    levels = doc.get("levels")
    if not levels:
        raise ConfigError("missing or empty `levels` section")
    energies, photons = [], []
    for k, lv in enumerate(levels):
        _check_keys(lv, {"energy", "photon_index", "label"}, f"levels[{k}]")
        energies.append(float(lv["energy"]))
        photons.append(int(lv.get("photon_index", 0)))
    n = len(energies)

    dip = np.zeros((n, n), dtype=complex)
    for k, entry in enumerate(doc.get("dipoles", []) or []):
        _check_keys(entry, {"i", "j", "value"}, f"dipoles[{k}]")
        i, j = int(entry["i"]), int(entry["j"])
        val = _as_complex(entry["value"], f"dipoles[{k}]")
        dip[i, j] = val
        dip[j, i] = val.conjugate()

    conts = []
    for k, entry in enumerate(doc.get("continua", []) or []):
        if "pump_rates" in entry:
            # Incoherent injection into a flat band has a divergent total rate.
            raise ConfigError(f"continua[{k}]: incoherent pumping into the continuum "
                              "diverges in the wideband approximation and is not supported")
        _check_keys(entry, {"density", "couplings", "relax_rates", "dephase_rates",
                            "center", "photon_index", "label"},
                    f"continua[{k}]")
        conts.append(Continuum(
            density=float(entry["density"]),
            couplings=tuple(float(v) for v in entry["couplings"]),
            relax_rates=tuple(float(v) for v in entry["relax_rates"]),
            dephase_rates=(tuple(float(v) for v in entry["dephase_rates"])
                           if entry.get("dephase_rates") is not None else None),
            center=float(entry.get("center", 0.0)),
            photon_index=int(entry.get("photon_index", 1)),
            label=str(entry.get("label", "")),
        ))

    jumps, dephasings = [], []
    diss = doc.get("dissipators", {}) or {}
    _check_keys(diss, {"jumps", "dephasings"}, "dissipators")
    for k, entry in enumerate(diss.get("jumps", []) or []):
        _check_keys(entry, {"from", "to", "rate"}, f"dissipators.jumps[{k}]")
        jumps.append((int(entry["from"]), int(entry["to"]), float(entry["rate"])))
    for k, entry in enumerate(diss.get("dephasings", []) or []):
        _check_keys(entry, {"i", "j", "rate"}, f"dissipators.dephasings[{k}]")
        dephasings.append((int(entry["i"]), int(entry["j"]), float(entry["rate"])))

    return GeneralModel(
        energies=tuple(energies),
        photon_indices=tuple(photons),
        dipoles=dip,
        continua=tuple(conts),
        jumps=tuple(jumps),
        dephasings=tuple(dephasings),
    )


def _parse_field(doc: dict) -> SweepSpec:
    # Drive amplitudes live inside the couplings/dipoles of the model, so
    # the field section carries only the frequency (or a sweep of it).
    fld = doc.get("field")
    if not fld:
        raise ConfigError("missing `field` section")
    _check_keys(fld, {"omega_L"}, "field")
    om = fld.get("omega_L")
    if isinstance(om, dict):
        _check_keys(om, {"start", "stop", "points"}, "field.omega_L")
        sweep = SweepSpec(float(om["start"]), float(om["stop"]), int(om["points"]))
    elif isinstance(om, (int, float)):
        sweep = SweepSpec(float(om), float(om), 1)
    else:
        raise ConfigError("field.omega_L must be a number or {start, stop, points}")
    if not np.isfinite([sweep.start, sweep.stop]).all():
        raise ConfigError(f"field.omega_L must be finite, got {om!r}")
    return sweep


def _parse_run(doc: dict) -> RunSpec:
    run = doc.get("run", {}) or {}
    _check_keys(run, {"output", "oracle"}, "run")
    ladder = []
    oracle = run.get("oracle")
    if oracle is not None:
        if isinstance(oracle, dict):
            oracle = [oracle]
        for k, rung in enumerate(oracle):
            _check_keys(rung, {"bandwidth", "levels_per_continuum", "grid_offset"},
                        f"run.oracle[{k}]")
            kwargs = {"bandwidth": float(rung["bandwidth"]),
                      "levels_per_continuum": int(rung["levels_per_continuum"])}
            if "grid_offset" in rung:
                kwargs["grid_offset"] = float(rung["grid_offset"])
            ladder.append(DiscretizationSpec(**kwargs))
    return RunSpec(output=run.get("output"), oracle=tuple(ladder))


def load_config(path: str) -> ModelConfig:
    """Load and strictly validate a model configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(doc, {"units", "levels", "dipoles", "continua", "dissipators",
                      "field", "run"}, "top level")
    if isinstance(doc.get("units"), dict):
        _check_keys(doc["units"], {"reference"}, "units")
    model = _parse_model(doc)
    problems = validate_model(model)
    if problems:
        raise ConfigError(f"{path}: invalid model: " + "; ".join(problems))
    return ModelConfig(model=model, sweep=_parse_field(doc), run=_parse_run(doc))


def save_model(model: GeneralModel, path: str, sweep: SweepSpec | None = None,
               run: RunSpec | None = None, units: str = "") -> None:
    """Write a model (plus optional sweep/run sections) as a config file."""
    doc: dict = {}
    if units:
        doc["units"] = {"reference": units}
    doc["levels"] = [{"energy": float(e), "photon_index": int(p)}
                     for e, p in zip(model.energies, model.photon_indices)]
    dipoles = []
    n = model.n_levels
    for i in range(n):
        for j in range(i + 1, n):
            val = complex(model.dipoles[i, j])
            if val != 0:
                entry = {"i": i, "j": j,
                         "value": (float(val.real) if val.imag == 0
                                   else [float(val.real), float(val.imag)])}
                dipoles.append(entry)
    if dipoles:
        doc["dipoles"] = dipoles
    conts = []
    for cont in model.continua:
        entry = {
            "density": float(cont.density),
            "couplings": [float(v) for v in cont.couplings],
            "relax_rates": [float(v) for v in cont.relax_rates],
        }
        if cont.dephase_rates is not None:
            entry["dephase_rates"] = [float(v) for v in cont.dephase_rates]
        if cont.center:
            entry["center"] = float(cont.center)
        if cont.photon_index != 1:
            entry["photon_index"] = int(cont.photon_index)
        if cont.label:
            entry["label"] = cont.label
        conts.append(entry)
    doc["continua"] = conts
    diss = {}
    if model.jumps:
        diss["jumps"] = [{"from": a, "to": b, "rate": float(g)}
                         for a, b, g in model.jumps]
    if model.dephasings:
        diss["dephasings"] = [{"i": i, "j": j, "rate": float(g)}
                              for i, j, g in model.dephasings]
    if diss:
        doc["dissipators"] = diss
    if sweep is not None:
        if sweep.points == 1:
            doc["field"] = {"omega_L": float(sweep.start)}
        else:
            doc["field"] = {"omega_L": {"start": float(sweep.start),
                                        "stop": float(sweep.stop),
                                        "points": int(sweep.points)}}
    if run is not None:
        rd: dict = {}
        if run.output:
            rd["output"] = run.output
        if run.oracle:
            rd["oracle"] = [{"bandwidth": float(s.bandwidth),
                             "levels_per_continuum": int(s.levels_per_continuum),
                             **({"grid_offset": float(s.grid_offset)}
                                if s.grid_offset else {})}
                            for s in run.oracle]
        doc["run"] = rd
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False, default_flow_style=None)
