"""One benchmark run of one workload, in a fresh process.

Started by ``bench.py`` with ``src`` on ``PYTHONPATH``.  It imports
fanosolve, draws the workload's inputs from the seed, prints ``ready``, and
then (unless ``--setup-only``) drives ``fanosolve.cli.main`` as a closed
loop with one client: the next request starts when the previous one and
its output check are done.  Check time is taken off the clock.  The last
line of standard output is a JSON report for ``bench.py``.

The host's speed drifts by up to 1.5x within seconds, so between requests,
also off the clock, the worker runs the workload's reference kernel.  Each
request's wall time is reported as measured and also scaled to reference
speed: multiplied by the kernel's reference time over the mean of the
kernel times just before and just after the request.

With ``--trace 1`` the first half of the window runs untraced and the
second half traced, so the tracing overhead is measured in the same run.
``--perturb-check`` instead spoils each kind of output once and reports
whether the check counted it as a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy
import yaml

from spec import per_layer_metrics
from tracing import Tracer
from workloads import WORKLOADS, CheckFailed


def _import_program():
    """Import fanosolve from ``./src`` of the checkout, and nothing else."""
    import fanosolve
    import fanosolve.cli

    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(fanosolve.__file__).startswith(src):
        raise SystemExit(f"fanosolve imported from {fanosolve.__file__}, not {src}")
    return fanosolve.cli


class Runner:
    """Runs requests, checks their outputs and counts failures."""

    def __init__(self, cli, workload, slots, seed: int):
        self.cli = cli
        self.workload = workload
        self.slots = slots
        self.seed = seed
        self.kernel = workload.kernel()
        self.kernel_ms: list[float] = []
        self.attempted = 0
        self.failures: list[dict] = []

    def slot(self, rid: int):
        return self.slots[rid % len(self.slots)]

    def execute(self, rid: int, tracer=None) -> str | None:
        """Run request ``rid``; return why it failed, or None."""
        out, err = io.StringIO(), io.StringIO()
        span = tracer.request_span(rid) if tracer else contextlib.nullcontext()
        argv = None
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                for argv in self.slot(rid).argvs:
                    # looked up on the module at each call, so tracing sees it
                    rc = self.cli.main(argv)
                    if rc != 0:
                        return f"{argv[0]} exited {rc}: {err.getvalue().strip()}"
        except (Exception, SystemExit) as exc:
            return f"{argv[0] if argv else 'request'} raised {exc!r}"
        return None

    def check(self, rid: int) -> str | None:
        try:
            self.workload.check(self.slot(rid), np.random.default_rng([self.seed, rid]))
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            return f"check: {exc}"
        return None

    def record(self, rid: int, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            slot = self.slot(rid)
            self.failures.append({"request": rid, "slot": slot.index, "seed": self.seed,
                                  "argv": slot.argvs, "error": error})
        return error is None

    def run(self, rid: int, tracer=None) -> tuple[float, bool, float]:
        """(latency in s, success, check time in s) of request ``rid``."""
        t0 = time.perf_counter()
        error = self.execute(rid, tracer)
        latency = time.perf_counter() - t0
        if error is None:
            error = self.check(rid)
        return latency, self.record(rid, error), time.perf_counter() - t0 - latency

    def closed_loop(self, seconds: float, rid: int, tracer=None):
        """Requests until ``seconds`` of request time have passed.

        Returns wall and reference-speed latencies in ms, the success of
        each request, the request time in s and the next request id.
        """
        wall, scaled, ok = [], [], []
        before = self.kernel()
        off_clock = 0.0
        t_start = time.perf_counter()
        while time.perf_counter() - t_start - off_clock < seconds:
            latency, success, check_s = self.run(rid, tracer)
            t0 = time.perf_counter()
            after = self.kernel()
            off_clock += check_s + time.perf_counter() - t0
            wall.append(latency * 1e3)
            scaled.append(latency * 1e3 * self.kernel.ref_ms / (0.5 * (before + after)))
            ok.append(success)
            self.kernel_ms.append(after)
            before = after
            rid += 1
        return wall, scaled, ok, time.perf_counter() - t_start - off_clock, rid


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "pyyaml": yaml.__version__}
    with contextlib.suppress(OSError):
        env["cpu"] = next((line.split(":", 1)[1].strip()
                           for line in _read("/proc/cpuinfo").splitlines()
                           if line.startswith("model name")), None)
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        with contextlib.suppress(OSError):
            level, kind, size = (_read(os.path.join(index, f)).strip()
                                 for f in ("level", "type", "size"))
            if kind != "Instruction":
                env[f"L{level}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = _blas_threads()
    env["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True, help="directory for inputs and outputs")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--perturb-check", action="store_true")
    args = ap.parse_args(argv)

    cli = _import_program()
    workload = WORKLOADS[args.workload]
    os.makedirs(args.dir, exist_ok=True)
    slots = workload.make_slots(np.random.default_rng(args.seed), args.dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(cli, workload, slots, args.seed)
    if args.perturb_check:
        detected = {}
        for rid, (label, spoil) in enumerate(workload.perturbations().items()):
            clean = runner.record(rid, runner.execute(rid) or runner.check(rid))
            spoil(runner.slot(rid))
            before = len(runner.failures)
            runner.record(rid, runner.check(rid))
            detected[label] = clean and len(runner.failures) == before + 1
        print(json.dumps({"detected": detected}))
        return 0

    report = {"env": environment()}
    runner.run(0)  # warm-up: checked and counted, not timed
    if args.trace:
        tracer = Tracer()
        wall, untraced, _, _, rid = runner.closed_loop(args.seconds / 2, 1)
        _, traced, _, _, _ = runner.closed_loop(args.seconds / 2, rid, tracer)
        layers = tracer.summarize()
        layers["wall.request_p50_ms"] = statistics.median(wall)
        layers["host.kernel_ms"] = statistics.median(runner.kernel_ms)
        layers["trace.untraced_p50_ms"] = statistics.median(untraced)
        layers["trace.traced_p50_ms"] = statistics.median(traced)
        layers["trace.overhead_ms"] = (layers["trace.traced_p50_ms"]
                                       - layers["trace.untraced_p50_ms"])
        layers.update({name: 0 for name, _ in per_layer_metrics()
                       if name.startswith("computed.")})
        if hasattr(workload, "computed_counts"):
            layers.update(workload.computed_counts())
        trace_path = os.path.join(os.path.dirname(args.dir), f"trace-{args.workload}.tsv")
        tracer.write(trace_path)
        report.update(per_layer=layers, traced_requests=len(traced), trace_file=trace_path)
    else:
        wall, scaled, ok, window, _ = runner.closed_loop(args.seconds, 1)
        report.update(wall_ms=wall, latencies_ms=scaled, ok=ok, window_s=window,
                      kernel_ms=runner.kernel_ms, kernel_ref_ms=runner.kernel.ref_ms)
    report.update(attempted=runner.attempted, failures=runner.failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
