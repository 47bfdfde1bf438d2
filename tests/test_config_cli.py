import json
import subprocess
import sys

import numpy as np
import pytest

from fanosolve import FanoParams, fano_model, two_band_demo_model
from fanosolve.cli import main
from fanosolve.config import (ConfigError, RunSpec, SweepSpec, load_config,
                              save_model)
from fanosolve.models import Continuum, GeneralModel
from fanosolve.oracle import DiscretizationSpec


def models_equal(a: GeneralModel, b: GeneralModel) -> bool:
    if a.energies != b.energies or a.photon_indices != b.photon_indices:
        return False
    if not np.array_equal(a.dipoles, b.dipoles):
        return False
    if a.jumps != b.jumps or a.dephasings != b.dephasings:
        return False
    if len(a.continua) != len(b.continua):
        return False
    for ca, cb in zip(a.continua, b.continua):
        if (ca.density, ca.couplings, ca.relax_rates, ca.dephase_rates,
                ca.center, ca.photon_index) != \
           (cb.density, cb.couplings, cb.relax_rates, cb.dephase_rates,
                cb.center, cb.photon_index):
            return False
    return True


def test_shipped_demo_config_matches_builtin():
    import pathlib
    path = pathlib.Path(__file__).parent.parent / "demos" / "two_band_demo.yaml"
    cfg = load_config(str(path))
    assert models_equal(cfg.model, two_band_demo_model())
    assert cfg.sweep.points == 801


class TestConfigRoundTrip:
    def test_two_band_demo_bit_exact(self, tmp_path):
        m = two_band_demo_model()
        path = tmp_path / "m.yaml"
        save_model(m, str(path), sweep=SweepSpec(5.0, 25.0, 101),
                   run=RunSpec(observable="continuum_pop", output="x.csv"),
                   units="level-1 coupling to continuum A")
        cfg = load_config(str(path))
        assert models_equal(cfg.model, m)
        assert cfg.sweep == SweepSpec(5.0, 25.0, 101)
        assert cfg.run.observable == "continuum_pop"

    def test_awkward_floats_bit_exact(self, tmp_path):
        dip = np.zeros((2, 2), dtype=complex)
        dip[0, 1] = 0.1 + (1.0 / 3.0) * 1j
        dip[1, 0] = np.conj(dip[0, 1])
        m = GeneralModel(
            energies=(0.0, 0.30000000000000004),
            photon_indices=(0, 1),
            dipoles=dip,
            continua=(Continuum(density=1 / np.pi, couplings=(2e-7, 1.0),
                                relax_rates=(0.123456789012345678, 0.0),
                                dephase_rates=(0.0, 5.55e-10), center=1e-3),),
            jumps=((1, 0, 1e-100),),
            dephasings=((0, 1, 7.7),),
        )
        path = tmp_path / "m.yaml"
        save_model(m, str(path), sweep=SweepSpec(0.0, 0.0, 1))
        cfg = load_config(str(path))
        assert models_equal(cfg.model, m)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("levels:\n  - {energy: 0.0, typo_key: 1}\n"
                        "continua: []\nfield: {omega_L: 0.0}\n")
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(str(path))

    def test_invalid_model_rejected_at_load(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "levels:\n- {energy: 0.0}\n- {energy: 1.0, photon_index: 1}\n"
            "continua:\n- {density: 0.3, couplings: [0.1, 1.0], "
            "relax_rates: [0.0, 0.0]}\n"
            "field: {omega_L: 0.0}\n")
        with pytest.raises(ConfigError, match="total relaxation rate"):
            load_config(str(path))

    def test_continuum_pumping_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "levels:\n- {energy: 0.0}\n- {energy: 1.0, photon_index: 1}\n"
            "continua:\n- {density: 0.3, couplings: [0.05, 1.0], "
            "relax_rates: [1.0, 0.0], pump_rates: [0.1, 0.0]}\n"
            "field: {omega_L: 0.0}\n")
        with pytest.raises(ConfigError, match="diverges in the wideband approximation"):
            load_config(str(path))

    def test_oracle_ladder_parsed(self, tmp_path):
        m = fano_model(FanoParams(0.0, 1.0, 0.05, Gamma_cg=2.0))
        path = tmp_path / "m.yaml"
        save_model(m, str(path), sweep=SweepSpec(0.0, 0.0, 1),
                   run=RunSpec(oracle=(DiscretizationSpec(50.0, 51),
                                       DiscretizationSpec(100.0, 101))))
        cfg = load_config(str(path))
        assert len(cfg.run.oracle) == 2
        assert cfg.run.oracle[1].levels_per_continuum == 101


class TestScatterCommand:
    def test_row_count_and_range(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["scatter", "--q", "1", "--omega", "0.01",
                   "--t", "10,100,300", "--eps", "-10:10:41",
                   "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("epsilon")]
        assert len(rows) == 3 * 41
        p = np.array([float(r.split(",")[2]) for r in rows])
        assert np.all((p >= 0) & (p <= 1))

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scatter", "--q", "1", "--omega", "0.1", "--t", "1,10",
                "--eps", "-5:5:21"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--q", "nan"), ("--omega", "inf"),
                                             ("--t", "-5,1"), ("--t", "1,nan")],
                             ids=["q-nan", "omega-inf", "t-negative", "t-nan"])
    def test_bad_input_exits_1(self, tmp_path, capsys, flag, value):
        opts = {"--q": "1", "--omega": "0.1", "--t": "1,10", flag: value}
        argv = ["scatter", "--eps", "-1:1:5", "--out", str(tmp_path / "s.csv")]
        for item in opts.items():
            argv.extend(item)
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_flat_profile_summary(self, tmp_path, capsys):
        main(["scatter", "--q", "1", "--omega", "5", "--t", "1",
              "--eps", "-10:10:41", "--out", str(tmp_path / "s.csv")])
        msg = capsys.readouterr().out
        assert "max/min ratio" in msg
        ratio = float(msg.rsplit(":", 1)[1])
        assert ratio < 1.5


class TestSteadyCommand:
    def test_summary_schema(self, tmp_path):
        out = tmp_path / "st.csv"
        summ = tmp_path / "st.json"
        rc = main(["steady", "--q", "1", "--omega", "0.05", "--gamma-e", "0.1",
                   "--eps", "-10:10:21", "--out", str(out), "--summary", str(summ)])
        assert rc == 0
        doc = json.loads(summ.read_text())
        dec = doc["decomposition"]
        assert set(dec) >= {"Delta", "sigma", "q", "D", "residual"}
        assert doc["fit_residual"] < 1e-9

    def test_transport_gamma_c_invariance(self, tmp_path):
        cols = []
        for gc in ("0.1", "10"):
            out = tmp_path / f"r{gc}.csv"
            main(["steady", "--q", "1", "--omega", "0.05", "--gamma-c", gc,
                  "--observable", "transport_rate", "--eps", "-5:5:11",
                  "--out", str(out), "--summary", str(tmp_path / "x.json")])
            rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
            cols.append(np.array([float(r[1]) for r in rows]))
        np.testing.assert_allclose(cols[0], cols[1], rtol=1e-10)

    def test_beta_half_runs_and_reports_residual(self, tmp_path):
        summ = tmp_path / "b.json"
        rc = main(["steady", "--q", "1", "--omega", "0.3", "--gamma-c", "1",
                   "--beta", "0.5", "--eps", "-8:8:21",
                   "--out", str(tmp_path / "b.csv"), "--summary", str(summ)])
        assert rc == 0
        doc = json.loads(summ.read_text())
        assert "fit_residual" in doc and doc["fit_residual"] is not None


class TestGeneralCommand:
    def test_two_band_config_run(self, tmp_path):
        cfg = tmp_path / "two_band_demo.yaml"
        save_model(two_band_demo_model(), str(cfg), sweep=SweepSpec(8.0, 12.0, 9),
                   run=RunSpec(observable="continuum_pop"))
        out = tmp_path / "g.csv"
        rc = main(["general", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        assert header[0] == "omega_L"
        assert "pop_continuum_total" in header
        data = np.array([[float(v) for v in l.split(",")] for l in lines[2:]])
        assert data.shape[0] == 9
        total_col = header.index("pop_continuum_total")
        assert np.all(data[:, total_col] >= 0)

    def test_output_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "m.yaml"
        save_model(fano_model(FanoParams(0.0, 1.0, 0.05)), str(cfg),
                   sweep=SweepSpec(-2.0, 2.0, 5),
                   run=RunSpec(output="from_config.csv"))
        assert main(["general", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config.csv").exists()


class TestDecomposeCommand:
    def test_fit_generated_profile(self, tmp_path):
        eps = np.linspace(-6.1, 5.9, 25)  # grid avoids the profile zero
        vals = (eps + 1.0) ** 2 / (eps**2 + 1.0)
        src = tmp_path / "samples.csv"
        src.write_text("\n".join(f"{e},{v}" for e, v in zip(eps, vals)))
        out = tmp_path / "dec.json"
        rc = main(["decompose", "--input", str(src), "--out", str(out),
                   "--held-out", "5", "--seed", "3"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["fit_residual"] < 1e-9
        assert doc["held_out_residual"] < 1e-8
        assert doc["decomposition"]["q"] == pytest.approx(1.0, abs=1e-6)


class TestOracleCommand:
    def test_convergence_table(self, tmp_path, capsys):
        m = fano_model(FanoParams(0.0, 1.0, 0.05, Gamma_e=0.1, Gamma_cg=2.0))
        cfg = tmp_path / "m.yaml"
        save_model(m, str(cfg), sweep=SweepSpec(0.0, 0.0, 1),
                   run=RunSpec(oracle=(DiscretizationSpec(25.0, 26),
                                       DiscretizationSpec(50.0, 51))))
        out = tmp_path / "conv.csv"
        rc = main(["oracle", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[0] == "bandwidth"
        assert len(lines) == 4
        assert "fitted error order" in capsys.readouterr().out

    def test_missing_ladder_errors(self, tmp_path):
        cfg = tmp_path / "m.yaml"
        save_model(fano_model(FanoParams(0.0, 1.0, 0.05)), str(cfg),
                   sweep=SweepSpec(0.0, 0.0, 1))
        with pytest.raises(SystemExit):
            main(["oracle", "--config", str(cfg)])


class TestCliPlumbing:
    def test_help_documents_symbols(self, capsys):
        with pytest.raises(SystemExit):
            main(["steady", "--help"])
        text = capsys.readouterr().out
        for symbol in ("q", "Omega", "Gamma_e", "gamma_eg", "Gamma_cg"):
            assert symbol in text

    def test_units_header_line(self, tmp_path):
        out = tmp_path / "u.csv"
        main(["scatter", "--q", "1", "--omega", "0.1", "--t", "1",
              "--eps", "0:1:3", "--out", str(out)])
        assert out.read_text().splitlines()[0].startswith("# energies and rates")

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("nonsense: true\n")
        assert main(["general", "--config", str(bad)]) == 1

    def test_subprocess_entry_point(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "fanosolve", "steady", "--q", "1",
             "--omega", "0.05", "--eps", "-1:1:7",
             "--out", str(tmp_path / "o.csv"), "--summary", "-"],
            capture_output=True, text=True, timeout=120)
        assert res.returncode == 0
        assert (tmp_path / "o.csv").exists()

    def test_grid_parser_errors(self):
        with pytest.raises(SystemExit):
            main(["steady", "--q", "1", "--omega", "0.05", "--eps", "oops"])
