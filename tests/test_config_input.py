"""Config input: every bad entry is a ConfigError naming its key path, and
``save_model`` then ``load_config`` reproduces any valid model bit-exactly.

The property tests call only ``load_config`` and ``save_model``; no solver.
"""

import copy
import pathlib
import re
import string

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fanosolve.cli import main
from fanosolve.config import (ConfigError, ModelConfig, RunSpec, SweepSpec, load_config,
                              save_model)
from fanosolve.models import Continuum, GeneralModel
from fanosolve.oracle import DiscretizationSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The demo config, and the golden one, which adds a two-rung oracle ladder.
BASES = {name: yaml.safe_load((ROOT / name).read_text(encoding="utf-8"))
         for name in ("demos/two_band_demo.yaml", "tests/data/golden/two_band.yaml")}
DROP = object()


def _edited(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the node at ``path`` set to ``value`` or dropped."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _path(path: tuple) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


# Item by item: a missing key, an index out of range, a wrong type, a
# non-integral integer, an empty sweep and out-of-range oracle rungs.
@pytest.mark.parametrize("path, value, message", [
    (("levels", 1, "energy"), DROP, r"levels\[1\]\.energy: missing"),
    (("continua", 0, "density"), DROP, r"continua\[0\]\.density: missing"),
    (("dissipators", "jumps", 0, "rate"), DROP, r"dissipators\.jumps\[0\]\.rate: missing"),
    (("dipoles", 1, "j"), 3, r"dipoles\[1\]\.j: no level 3 among 3 levels"),
    (("levels",), [1.0, 2.0], r"levels\[0\]: expected a mapping, got 1\.0"),
    (("dipoles",), {"i": 0, "j": 1, "value": 0.3}, r"dipoles: expected a list"),
    (("levels", 1, "photon_index"), 1.7,
     r"levels\[1\]\.photon_index: expected an integer, got 1\.7"),
    (("run", "oracle", 0, "levels_per_continuum"), 20.5,
     r"run\.oracle\[0\]\.levels_per_continuum: expected an integer, got 20\.5"),
    (("field", "omega_L", "points"), 0, r"field\.omega_L: points must be at least 1, got 0"),
    (("levels", 0, "energy"), "abc",
     r"levels\[0\]\.energy: could not convert string to float: 'abc'"),
    (("run", "oracle", 1, "bandwidth"), -1,
     r"run\.oracle\[1\]: bandwidth must be positive and finite, got -1\.0"),
    (("run", "oracle", 1, "levels_per_continuum"), 2,
     r"run\.oracle\[1\]: need at least 3 levels per continuum"),
], ids=["energy", "density", "rate", "dipole-index", "levels-numbers", "dipoles-mapping",
        "photon-index", "levels-per-continuum", "points", "energy-text", "rung-bandwidth",
        "rung-levels"])
def test_bad_entry_named(tmp_path, capsys, path, value, message):
    cfg, out = tmp_path / "m.yaml", tmp_path / "g.csv"
    cfg.write_text(yaml.safe_dump(_edited(BASES["tests/data/golden/two_band.yaml"],
                                          path, value)), encoding="utf-8")
    assert main(["general", "--config", str(cfg), "--out", str(out)]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_yaml_syntax_error_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "cut.yaml"
    cfg.write_text("levels:\n- {energy: 0.0, photon_index: 0\n", encoding="utf-8")
    assert main(["general", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}: invalid YAML" in err and "line 3" in err


def _sites(node, path=()):
    """``(path, value)`` of every mapping value and list item below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _sites(value, path + (key,))


def _mutations():
    """Every ``(base, path, new value, entry path)``: a dropped key, a wrong type,
    an index out of range or a non-integral integer.  The entry of a key below
    the top level is the mapping that holds it; a number in a list of numbers
    is reported at its list."""
    out = []
    for name, doc in BASES.items():
        n = len(doc["levels"])
        for path, value in _sites(doc):
            in_entry = isinstance(path[-1], str) and len(path) > 1
            in_numbers = isinstance(path[-1], int) and not isinstance(value, dict)
            entry = _path(path[:-1] if in_entry or in_numbers else path)
            values = ["abc", [1.0, 2.0], {"x": 1}, None, True]
            if isinstance(path[-1], str):
                values.append(DROP)
            if isinstance(value, int) and not isinstance(value, bool):
                values.append(value + 0.5)
                if path[-1] in ("i", "j", "from", "to"):
                    values += [n, -1]
            out += [(name, path, v, entry) for v in values]
    return out


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from(_mutations()))
def test_mutated_config_loads_or_names_its_entry(tmp_path_factory, mutation):
    name, path, value, entry = mutation
    cfg = tmp_path_factory.getbasetemp() / "mutated.yaml"
    cfg.write_text(yaml.safe_dump(_edited(BASES[name], path, value)), encoding="utf-8")
    try:
        assert isinstance(load_config(str(cfg)), ModelConfig)
    except ConfigError as exc:
        assert "invalid model:" in str(exc) or entry in str(exc), (mutation, str(exc))


finite = st.floats(allow_nan=False, allow_infinity=False)
rate = st.floats(min_value=0.0, max_value=1e300)
label = st.text(string.ascii_letters + string.digits + " _-.:#'", max_size=6)


@st.composite
def configs(draw):
    """A valid model, sweep and run, with numpy scalars where a caller may pass them."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    vector = st.lists(finite, min_size=n, max_size=n)
    rates = st.lists(rate, min_size=n, max_size=n)
    dip = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            dip[i, j] = complex(draw(finite), draw(st.sampled_from([0.0, draw(finite)])))
            dip[j, i] = np.conj(dip[i, j])
    continua = []
    for _ in range(m):
        relax = draw(rates)
        relax[0] = relax[0] or 1.0  # a positive total relaxation rate
        continua.append(Continuum(
            density=np.float64(draw(st.floats(min_value=1e-300, max_value=1e300))),
            couplings=draw(vector), relax_rates=relax,
            dephase_rates=draw(st.none() | rates), center=draw(finite),
            photon_index=draw(st.integers(0, 3)), label=draw(label)))
    level = st.integers(0, n - 1)
    model = GeneralModel(
        energies=draw(vector),
        photon_indices=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        dipoles=dip, continua=tuple(continua),
        jumps=draw(st.lists(st.tuples(level, level, rate), max_size=3)),
        dephasings=[(i, j, g) for i, j, g in draw(st.lists(st.tuples(level, level, rate),
                                                           max_size=3)) if i != j])
    start, points = draw(finite), draw(st.integers(1, 1000))
    sweep = SweepSpec(np.float64(start), np.float64(start if points == 1 else draw(finite)),
                      np.int64(points))
    ladder = st.builds(DiscretizationSpec,
                       st.floats(min_value=1e-300, max_value=1e300).map(np.float64),
                       st.integers(3, 1000).map(np.int64), st.sampled_from([0.0, 0.25, -1.5]))
    run = RunSpec(output=draw(st.none() | label.filter(bool)),
                  oracle=tuple(draw(st.lists(ladder, max_size=3))))
    return model, sweep, run, draw(label)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(configs())
def test_save_then_load_is_bit_exact(tmp_path_factory, config):
    # Exact float equality; only the sign of a zero at its default may change.
    model, sweep, run, units = config
    path = tmp_path_factory.getbasetemp() / "saved.yaml"
    save_model(model, str(path), sweep=sweep, run=run, units=units)
    cfg = load_config(str(path))
    got = cfg.model
    assert (got.energies, got.photon_indices, got.continua, got.jumps, got.dephasings) == \
        (model.energies, model.photon_indices, model.continua, model.jumps, model.dephasings)
    assert np.array_equal(got.dipoles, model.dipoles)
    assert (cfg.sweep, cfg.run) == (sweep, run)
