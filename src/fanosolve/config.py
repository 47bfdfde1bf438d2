"""YAML model configuration: strict loading, saving and sweep descriptions.

Sections: ``units`` (a free-text ``reference``, otherwise ignored),
``levels``, ``dipoles``, ``continua``, ``dissipators`` (``jumps``,
``dephasings``), ``field`` (the drive frequency ``omega_L`` or a sweep of
it) and ``run`` (output path, oracle ladder).  Each entry kind is one table
from key to converter and default, read by both loading and saving.
Unknown or missing keys, wrong types, non-integral integers and
out-of-range indices raise a ``ConfigError`` naming the key path
(``levels[1].energy``); a null optional value takes its default.  Saving
leaves defaults out; re-loading reproduces every finite float bit-exactly.
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

    def __post_init__(self):
        if self.points < 1:
            raise ValueError(f"points must be at least 1, got {self.points}")

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


def _int(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _floats(value) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    return [float(v) for v in value]


def _complex(value) -> complex:
    if isinstance(value, (int, float, complex)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ValueError(f"expected a number or [re, im] pair, got {value!r}")


REQUIRED = object()  # the default of a key that must be given
# One table per entry kind: key -> (converter, default or REQUIRED).
_LEVEL = {"energy": (float, REQUIRED), "photon_index": (_int, 0), "label": (str, "")}
_DIPOLE = {"i": (_int, REQUIRED), "j": (_int, REQUIRED), "value": (_complex, REQUIRED)}
_CONTINUUM = {"density": (float, REQUIRED), "couplings": (_floats, REQUIRED),
              "relax_rates": (_floats, REQUIRED), "dephase_rates": (_floats, None),
              "center": (float, 0.0), "photon_index": (_int, 1), "label": (str, "")}
_JUMP = {"from": (_int, REQUIRED), "to": (_int, REQUIRED), "rate": (float, REQUIRED)}
_DEPHASING = {"i": (_int, REQUIRED), "j": (_int, REQUIRED), "rate": (float, REQUIRED)}
_SWEEP = {"start": (float, REQUIRED), "stop": (float, REQUIRED), "points": (_int, REQUIRED)}
_RUNG = {"bandwidth": (float, REQUIRED), "levels_per_continuum": (_int, REQUIRED),
         "grid_offset": (float, 0.0)}


def _check_keys(mapping, allowed, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping, got {mapping!r}")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)} in {where}")


def _read(table: dict, entry, where: str, build=dict):
    """Check one entry against ``table``, convert it and pass it to ``build``."""
    _check_keys(entry, table, where)
    values = {}
    for key, (convert, default) in table.items():
        if entry.get(key) is None and default is not REQUIRED:
            values[key] = default
        elif key not in entry:
            raise ConfigError(f"{where}.{key}: missing")
        else:
            try:
                values[key] = convert(entry[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where}.{key}: {exc}") from None
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _entries(section: dict, key: str, prefix: str = "") -> list:
    """``(path, entry)`` pairs of a list section; a missing or null one has none."""
    entries = section.get(key) or []
    if not isinstance(entries, list):
        raise ConfigError(f"{prefix}{key}: expected a list, got {entries!r}")
    return [(f"{prefix}{key}[{k}]", entry) for k, entry in enumerate(entries)]


def _parse_model(doc: dict) -> GeneralModel:
    levels = [_read(_LEVEL, lv, where) for where, lv in _entries(doc, "levels")]
    if not levels:
        raise ConfigError("missing or empty `levels` section")
    n = len(levels)
    dip = np.zeros((n, n), dtype=complex)
    for where, entry in _entries(doc, "dipoles"):
        d = _read(_DIPOLE, entry, where)
        for key in ("i", "j"):
            if not 0 <= d[key] < n:
                raise ConfigError(f"{where}.{key}: no level {d[key]} among {n} levels")
        dip[d["i"], d["j"]] = d["value"]
        dip[d["j"], d["i"]] = d["value"].conjugate()

    conts = []
    for where, entry in _entries(doc, "continua"):
        if isinstance(entry, dict) and "pump_rates" in entry:
            # Incoherent injection into a flat band has a divergent total rate.
            raise ConfigError(f"{where}: incoherent pumping into the continuum "
                              "diverges in the wideband approximation and is not supported")
        conts.append(_read(_CONTINUUM, entry, where, Continuum))

    diss = doc.get("dissipators") or {}
    _check_keys(diss, ("jumps", "dephasings"), "dissipators")
    return GeneralModel(
        energies=tuple(lv["energy"] for lv in levels),
        photon_indices=tuple(lv["photon_index"] for lv in levels),
        dipoles=dip,
        continua=tuple(conts),
        jumps=tuple(tuple(_read(_JUMP, e, where).values())
                    for where, e in _entries(diss, "jumps", "dissipators.")),
        dephasings=tuple(tuple(_read(_DEPHASING, e, where).values())
                         for where, e in _entries(diss, "dephasings", "dissipators.")),
    )


def _parse_field(doc: dict) -> SweepSpec:
    # Drive amplitudes live inside the couplings/dipoles of the model, so
    # the field section carries only the frequency (or a sweep of it).
    fld = doc.get("field")
    if fld is None:
        raise ConfigError("missing `field` section")
    _check_keys(fld, ("omega_L",), "field")
    om = fld.get("omega_L")
    if isinstance(om, dict):
        sweep = _read(_SWEEP, om, "field.omega_L", SweepSpec)
    elif isinstance(om, (int, float)):
        sweep = SweepSpec(float(om), float(om), 1)
    else:
        raise ConfigError("field.omega_L must be a number or {start, stop, points}")
    if not np.isfinite([sweep.start, sweep.stop]).all():
        raise ConfigError(f"field.omega_L must be finite, got {om!r}")
    return sweep


def _parse_run(doc: dict) -> RunSpec:
    run = doc.get("run") or {}
    _check_keys(run, ("output", "oracle"), "run")
    output = run.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"run.output: expected a path, got {output!r}")
    if isinstance(run.get("oracle"), dict):
        run = {"oracle": [run["oracle"]]}
    return RunSpec(output=output, oracle=tuple(
        _read(_RUNG, rung, where, DiscretizationSpec)
        for where, rung in _entries(run, "oracle", "run.")))


def load_config(path: str) -> ModelConfig:
    """Load and strictly validate a model configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(doc, ("units", "levels", "dipoles", "continua", "dissipators",
                      "field", "run"), "top level")
    if isinstance(doc.get("units"), dict):
        _check_keys(doc["units"], ("reference",), "units")
    model = _parse_model(doc)
    problems = validate_model(model)
    if problems:
        raise ConfigError(f"{path}: invalid model: " + "; ".join(problems))
    return ModelConfig(model=model, sweep=_parse_field(doc), run=_parse_run(doc))


def _dump(table: dict, values: dict) -> dict:
    """One entry of ``table``, converted as on loading, without its default values."""
    entry = {}
    for key, (convert, default) in table.items():
        if key in values and (default is REQUIRED or values[key] != default):
            value = convert(values[key])
            if isinstance(value, complex):
                value = [value.real, value.imag] if value.imag else value.real
            entry[key] = value
    return entry


def _pruned(doc: dict) -> dict:
    """``doc`` without its empty sections."""
    doc = {k: _pruned(v) if isinstance(v, dict) else v for k, v in doc.items()}
    return {k: v for k, v in doc.items() if v not in (None, "", [], {})}


def save_model(model: GeneralModel, path: str, sweep: SweepSpec | None = None,
               run: RunSpec | None = None, units: str = "") -> None:
    """Write a model (plus optional sweep/run sections) as a config file."""
    n, dip, run = model.n_levels, model.dipoles, run or RunSpec()
    doc = {
        "units": {"reference": units},
        "levels": [_dump(_LEVEL, dict(zip(_LEVEL, level)))
                   for level in zip(model.energies, model.photon_indices)],
        "dipoles": [_dump(_DIPOLE, {"i": i, "j": j, "value": dip[i, j]})
                    for i in range(n) for j in range(i + 1, n) if dip[i, j] != 0],
        "continua": [_dump(_CONTINUUM, vars(cont)) for cont in model.continua],
        "dissipators": {"jumps": [_dump(_JUMP, dict(zip(_JUMP, e))) for e in model.jumps],
                        "dephasings": [_dump(_DEPHASING, dict(zip(_DEPHASING, e)))
                                       for e in model.dephasings]},
        "field": None if sweep is None else {"omega_L": (
            float(sweep.start) if sweep.points == 1 else _dump(_SWEEP, vars(sweep)))},
        "run": {"output": run.output,
                "oracle": [_dump(_RUNG, vars(spec)) for spec in run.oracle]},
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(_pruned(doc), fh, sort_keys=False, default_flow_style=None)
