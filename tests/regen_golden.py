"""Rewrite the golden output corpus in ``tests/data/golden``.

Every case is one ``fanosolve`` command run in process through
``cli.main``; ``test_golden.py`` reruns the same commands and compares
their output with the files written here.  Regenerate only for an
intended change of the outputs, and say in the commit which outputs moved
and why.  Run from the repository root:

    PYTHONPATH=src python tests/regen_golden.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib

import yaml

from fanosolve.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"
DEMO_CONFIG = GOLDEN.parents[2] / "demos" / "two_band_demo.yaml"

#: Single-resonance parameter sets; ``b`` adds branching and dephasing.
FANO = {
    "a": ["--q", "1.3", "--omega", "0.2", "--gamma-e", "0.15"],
    "b": ["--q", "-0.8", "--omega", "0.25", "--gamma-e", "0.1",
          "--beta", "0.6", "--gamma-eg", "0.7"],
}
STEADY_OBSERVABLES = ("continuum_pop", "transport_rate", "absorption")


def cases(out: pathlib.Path) -> list[tuple[list[str], list[str]]]:
    """``(argv, output file names)`` of every case, writing into ``out``.

    Inputs (the model configuration and the sampled lineshape that
    ``decompose`` fits) are always read from the corpus.
    """
    out_cases = []
    for tag, flags in FANO.items():
        for obs in STEADY_OBSERVABLES:
            stem = f"steady_{obs}_{tag}"
            out_cases.append((["steady", *flags, "--eps", "-10:10:101", "--observable", obs,
                               "--out", str(out / f"{stem}.csv"),
                               "--summary", str(out / f"{stem}.json")],
                              [f"{stem}.csv", f"{stem}.json"]))
    out_cases += [
        (["decompose", "--input", str(GOLDEN / "steady_continuum_pop_b.csv"),
          "--skiprows", "2", "--held-out", "20", "--seed", "3",
          "--out", str(out / "decompose.json")], ["decompose.json"]),
        (["scatter", *FANO["a"][:4], "--t", "10,100", "--eps", "-10:10:41",
          "--out", str(out / "scatter.csv")], ["scatter.csv"]),
        (["general", "--config", str(GOLDEN / "two_band.yaml"),
          "--out", str(out / "general.csv")], ["general.csv"]),
        (["oracle", "--config", str(GOLDEN / "two_band.yaml"),
          "--out", str(out / "oracle.csv")], ["oracle.csv"]),
    ]
    return out_cases


def run(argv: list[str]) -> None:
    """Run one command in process, discarding what it prints."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    if status != 0:
        raise RuntimeError(f"fanosolve {' '.join(argv)} exited with {status}")


def write_config() -> None:
    """The two-band demonstration model on a 101-point sweep with a two-rung ladder."""
    doc = yaml.safe_load(DEMO_CONFIG.read_text(encoding="utf-8"))
    doc["field"] = {"omega_L": {"start": 5.0, "stop": 25.0, "points": 101}}
    doc["run"] = {"oracle": [{"bandwidth": 50.0, "levels_per_continuum": 51},
                             {"bandwidth": 100.0, "levels_per_continuum": 101}]}
    (GOLDEN / "two_band.yaml").write_text(yaml.safe_dump(doc, sort_keys=False),
                                          encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    write_config()
    for argv, _ in cases(GOLDEN):
        run(argv)
    print(f"wrote {sum(len(names) for _, names in cases(GOLDEN))} files to {GOLDEN}")
