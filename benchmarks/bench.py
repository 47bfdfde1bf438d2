"""fanosolve benchmark: CLI workloads, request-level metrics, traced layers.

Run from the root of a source checkout::

    python3 benchmarks/bench.py --workload fano_lineshape --seed 1 --seconds 50 --trace 0
    python3 benchmarks/bench.py --workload oracle_ladder --trace 1 --blas-threads 1
    python3 benchmarks/bench.py --selftest

One client drives ``fanosolve.cli.main`` in-process as a closed loop, in a
fresh worker process per run (``worker.py``), with fanosolve imported from
``./src``.  Inputs are drawn from ``--seed`` during set-up; every request's
output is checked against an independent reference off the clock, and a
request fails if it exits nonzero, raises or fails its check.

``--trace 0`` prints the end-to-end metrics: set-up time (median of seven
fresh interpreters that import fanosolve and draw the inputs, after one
warm-up), median and tail request latency with their sample counts,
throughput, the worker's peak RSS, and the success rate (one minus the
error rate).  Latency and throughput are given at reference host speed:
each request's wall time is scaled by the speed the workload's reference
kernel measured around it (see ``worker.py``); the wall-time figures are
printed beside them.  The tail is the highest percentile with at least ten
requests beyond it; with fewer than eleven requests it is the fastest one
and the count beyond is printed.  ``--trace 1`` prints the per-layer
metrics of a separate traced run (see ``tracing.py``).

BLAS threads keep their default unless ``--blas-threads`` sets
``OPENBLAS_NUM_THREADS`` for the worker.  That run, like the
``two_band_general`` workload, is informational, not gated; it slows the
dense reference kernel too, so compare it by ``wall.request_p50_ms``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, outputs
and span dumps go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

from spec import (END_TO_END, INFORMATIONAL_WORKLOADS, ORACLE_LADDER, RUN_SECONDS,
                  WORKLOADS, benchmark_json, per_layer_metrics)

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".bench_work"
SETUP_REPEATS = 7
TIMEOUT_S = 170
_DEADLINE = time.monotonic() + TIMEOUT_S  # a run must end within 180 s


def _time_left() -> float:
    return max(1.0, _DEADLINE - time.monotonic())


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, subdir: str, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--dir", os.path.join(WORK, subdir), *extra]


def _env(blas_threads: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def time_setup(cmd: list[str], env: dict) -> float:
    """Seconds from process start until the worker reports its inputs ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd + ["--setup-only"], stdout=subprocess.PIPE, env=env,
                          text=True) as proc:
        try:
            ready = select.select([proc.stdout], [], [], _time_left())[0]
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=_time_left())
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up exited {proc.returncode}")
    return elapsed


def last_json(cmd: list[str], env: dict | None = None,
              timeout: float = TIMEOUT_S) -> dict:
    """Run ``cmd`` to completion and parse the last line of its output."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{os.path.basename(cmd[1])} exited {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, requests beyond) of the highest percentile with
    at least ten requests beyond it, falling back to the fastest request."""
    lat = sorted(latencies)
    k = max(0, len(lat) - 11)
    return lat[k], 100.0 * (k + 1) / len(lat), len(lat) - 1 - k


def end_to_end(report: dict, setups: list[float]) -> tuple[dict, list[str]]:
    lat, wall = report["latencies_ms"], report["wall_ms"]
    tail_ms, tail_pct, beyond = tail(lat)
    attempted, failed = report["attempted"], len(report["failures"])
    slowdown = sum(wall) / sum(lat)  # wall time over reference-speed time
    window = report["window_s"] / slowdown
    values = {
        "setup_s": statistics.median(setups),
        "request_p50_ms": statistics.median(lat),
        "request_tail_ms": tail_ms,
        "throughput_rps": sum(report["ok"]) / window,
        "peak_rss_mb": report["peak_rss_mb"],
        "success_rate": 1.0 - failed / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "request_p50_ms": f"n={len(lat)}; wall {statistics.median(wall):.4g} ms",
        "request_tail_ms": f"p{tail_pct:.2f}, {beyond} requests beyond, n={len(lat)}; "
                           f"wall {tail(wall)[0]:.4g} ms",
        "throughput_rps": f"{sum(report['ok'])} requests in {window:.2f} s at "
                          f"reference speed, {report['window_s']:.2f} s wall",
        "peak_rss_mb": "worker process",
        "success_rate": f"error_rate {failed / attempted:.4g} = {failed}/{attempted}",
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    lines = [f"{name:<16} {values[name]:.6g} {units[name]}  ({notes[name]})"
             for name in values]
    lines.append(f"reference kernel: median {statistics.median(report['kernel_ms']):.4g} ms "
                 f"vs {report['kernel_ref_ms']:g} ms reference; requests took "
                 f"{slowdown:.3f} x their reference-speed time")
    return {n: {"value": v, "unit": units[n]} for n, v in values.items()}, lines


def per_layer(report: dict) -> tuple[dict, list[str]]:
    layers = report["per_layer"]
    metrics = {n: {"value": layers[n], "unit": u} for n, u in per_layer_metrics()}
    lines = [f"{n:<60} {m['value']:.6g} {m['unit']}"
             for n, m in metrics.items() if m["value"]]
    lines.append(f"traced requests: {report['traced_requests']}; "
                 f"spans written to {report['trace_file']}")
    l3 = report["env"].get("L3", "")
    l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") else None
    for r in range(len(ORACLE_LADDER)):
        n = layers[f"computed.rung{r}.retained_unknowns"]
        schur = layers[f"computed.rung{r}.schur_bytes"]
        if n:
            share = f" = {schur / l3_bytes:.2f} x L3 ({l3})" if l3_bytes else ""
            lines.append(f"rung {r} (computed): {n} retained unknowns, dense Schur "
                         f"{schur / 2**20:.1f} MiB{share}, LU "
                         f"{layers[f'computed.rung{r}.lu_flops']:.3g} flop; "
                         f"traced SVD calls {layers[f'oracle.rung{r}.svd_calls']:g}")
    return metrics, lines


def run(args) -> int:
    if not os.path.isfile(os.path.join("src", "fanosolve", "__init__.py")):
        raise BenchError("no src/fanosolve in the current directory; run from a checkout")
    env = _env(args.blas_threads)
    cmd = _worker(args.workload, args.seed, "run",
                  "--seconds", str(args.seconds), "--trace", str(args.trace))
    setups = []
    if not args.trace:
        setup_cmd = _worker(args.workload, args.seed, "setup")
        time_setup(setup_cmd, env)  # warm-up: byte-code and file caches
        setups = [time_setup(setup_cmd, env) for _ in range(SETUP_REPEATS)]
    report = last_json(cmd, env, _time_left())
    if args.trace:
        metrics, lines = per_layer(report)
    else:
        metrics, lines = end_to_end(report, setups)
    failed = len(report["failures"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{report['attempted']} requests, {failed} failed")
    print("environment: " + json.dumps(report["env"], sort_keys=True))
    for line in lines:
        print(line)
    for f in report["failures"]:
        print("FAILED " + json.dumps(f), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def selftest() -> int:
    """Reduced-size check of the benchmark's own promises; exit 0 if all hold."""
    problems = []
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            if json.load(fh) != benchmark_json():
                problems.append("BENCHMARK.json differs from spec.benchmark_json()")
    except OSError as exc:
        problems.append(f"BENCHMARK.json: {exc}")
    expected = {0: {n: u for n, u, _, _ in END_TO_END}, 1: dict(per_layer_metrics())}
    for workload in [*WORKLOADS, *INFORMATIONAL_WORKLOADS]:
        for trace in (0, 1):
            try:
                result = last_json([sys.executable, os.path.abspath(__file__),
                                    "--workload", workload, "--seed", "1",
                                    "--seconds", "1", "--trace", str(trace)])
                got = {n: m["unit"] for n, m in result["metrics"].items()
                       if isinstance(m["value"], (int, float))}
                if got != expected[trace]:
                    problems.append(f"{workload} trace {trace}: metric names or units "
                                    f"differ: {sorted(set(got) ^ set(expected[trace]))}")
                if not result["correct"] or result["attempted"] < 1:
                    problems.append(f"{workload} trace {trace}: not correct")
            except (BenchError, KeyError, ValueError) as exc:
                problems.append(f"{workload} trace {trace}: no result ({exc})")
        try:
            detected = last_json(_worker(workload, 1, "perturb", "--perturb-check"),
                                 _env(None))["detected"]
            problems += [f"{workload}: perturbed {label} not counted as a failure"
                         for label, ok in detected.items() if not ok]
        except (BenchError, KeyError, ValueError) as exc:
            problems.append(f"{workload}: perturbation check gave no result ({exc})")
    for p in problems:
        print("SELFTEST FAIL: " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted([*WORKLOADS, *INFORMATIONAL_WORKLOADS]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=None,
                    help="set OPENBLAS_NUM_THREADS for the worker (informational runs)")
    ap.add_argument("--selftest", action="store_true",
                    help="check BENCHMARK.json, metric names and units, and that "
                         "spoiled outputs count as failures")
    args = ap.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            ap.error("--workload is required")
        return run(args)
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
