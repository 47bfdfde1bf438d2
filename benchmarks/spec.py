"""Names the benchmark promises: workloads, metrics and the traced layers.

Kept free of third-party imports so that ``bench.py`` can check
``BENCHMARK.json`` against it before anything else is loaded.
"""

from __future__ import annotations

RUN_SECONDS = 50

#: Gated workload name -> why it is in the benchmark (one line each).
WORKLOADS = {
    "fano_lineshape": "single-resonance steady+decompose+scatter job: per-point "
                      "Python work (401 steady_state, 1604 poles calls) dominates; "
                      "general and oracle idle",
    "oracle_ladder": "oracle --config ladder with 412/1212/2412 retained unknowns "
                     "straddling the 2000-unknown SVD certification limit: dense "
                     "kernels and memory dominate",
}

#: Workloads that run on request but are not gated.  two_band_general (the
#: general solver's 801-point sweep, ~0.75 s a request) spreads ~0.07 over
#: 30 s runs, but a third gated workload only fits the time allowed for all
#: runs at 30 s, where oracle_ladder's tail over ~11 requests spread 0.20.
INFORMATIONAL_WORKLOADS = {
    "two_band_general": "general --config on a perturbed two-band demo, 801 drive "
                        "points: per-point superoperator rebuilds and O(n^4) vdot "
                        "loops in the other sweep solver",
}

#: (name, unit, better, bound) of each end-to-end metric.  Request latency
#: and throughput are at reference host speed (``worker.py``): on a shared
#: 2-core host the CPU speed switches by up to 1.5x within seconds, which
#: moved the wall-time median of a Python-bound run by up to a half between
#: runs.  Set-up time is wall time.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("request_p50_ms", "ms", "lower", 0.25),
    ("request_tail_ms", "ms", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_rate", "ratio", "higher", 0.01),
]

#: Public functions wrapped in the traced run, as ``<module>.<function>``
#: inside the ``fanosolve`` package.
TRACED_FUNCTIONS = [
    "cli.main",
    "scattering.ionization_sweep",
    "scattering.survival_rate",
    "scattering.poles",
    "liouville.lineshape_sweep",
    "liouville.steady_state",
    "liouville.build_effective_liouvillian",
    "liouville.absorption_rate",
    "lineshape.fit_rational_quadratic",
    "lineshape.decompose",
    "general.build_general",
    "general.general_steady_state",
    "superop.jump_superop",
    "superop.hamiltonian_superop",
    "config.load_config",
    "oracle.convergence_study",
    "oracle.build_full_lindbladian",
    "oracle.oracle_steady_state",
]

#: ``numpy.linalg`` kernels, each with the traced callers it is attributed to.
KERNELS = {
    "solve": ["liouville.steady_state", "oracle.oracle_steady_state"],
    "svd": ["general.general_steady_state", "oracle.oracle_steady_state"],
    "eigvalsh": ["oracle.oracle_steady_state"],
    "lstsq": ["lineshape.fit_rational_quadratic"],
}

#: Rungs of the oracle ladder (levels per continuum, unit grid spacing).
ORACLE_LADDER = (51, 151, 301)

ROOT_SPAN = "harness.request"


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, all per traced request."""
    out = []
    for fn in TRACED_FUNCTIONS:
        out += [(f"{fn}.calls", "calls/req"), (f"{fn}.self_ms", "ms/req")]
    out.append(("lineshape.fit_rational_quadratic.failures", "calls/req"))
    for kern, callers in KERNELS.items():
        out += [(f"kernel.{kern}.calls", "calls/req"),
                (f"kernel.{kern}.self_ms", "ms/req")]
        for caller in callers:
            out += [(f"kernel.{kern}.under.{caller}.calls", "calls/req"),
                    (f"kernel.{kern}.under.{caller}.self_ms", "ms/req")]
    for r in range(len(ORACLE_LADDER)):
        out += [(f"computed.rung{r}.retained_unknowns", "count"),
                (f"computed.rung{r}.schur_bytes", "bytes"),
                (f"computed.rung{r}.lu_flops", "flop"),
                (f"oracle.rung{r}.svd_calls", "calls/req"),
                (f"oracle.rung{r}.steady_state_ms", "ms/req")]
    out += [(f"{ROOT_SPAN}.self_ms", "ms/req"),
            ("wall.request_p50_ms", "ms"),
            ("host.kernel_ms", "ms"),
            ("trace.untraced_p50_ms", "ms"),
            ("trace.traced_p50_ms", "ms"),
            ("trace.overhead_ms", "ms")]
    return out


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this benchmark implements."""
    return {
        "command": ["python3", "benchmarks/bench.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in per_layer_metrics()],
    }
