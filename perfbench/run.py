"""Benchmark of sivodmr's field-recovery chain.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src``.
Workloads: invert_survey, spectrum_roundtrip, forward_map (see
perfbench/README.md).  One caller drives sivodmr in a closed loop, in
whole rounds of operations, for about ``--seconds``.  Every output
is checked against the reference model in ``reference.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with spans at sivodmr's layer boundaries, and prints
the per-layer metrics with the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
PROBE_KERNEL_S = 0.1  # busy time whose kernel passes (10) bracket each set-up probe


def cap_threads() -> dict:
    """Set every numeric thread pool to one thread, before numpy is imported.

    Only the 92 001-point fit uses a second BLAS thread.  With two it was no
    faster on two vCPUs, burned up to 1.9 CPUs, and left the run exposed to
    host contention on both; a single caller with one thread measures the
    program, not the scheduler.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: 1 for var in THREAD_VARS}


def probe_env() -> dict:
    env = dict(os.environ)
    env.pop("ODMR_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_probe(argv: list[str], env: dict, wait_line: str | None) -> tuple[float, list[str]]:
    """Seconds from spawning ``argv`` to its line ``wait_line`` (or its exit)."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        lines, elapsed = [], None
        try:
            for line in proc.stdout:
                lines.append(line.strip())
                if elapsed is None and line.strip() == wait_line:
                    elapsed = time.perf_counter() - t0
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if elapsed is None:
        elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"probe {argv[1:]} exited with {code}")
    return elapsed, lines


def setup_samples(mode: str, env: dict, grid: bool) -> tuple[list, list, list]:
    """setup_s samples from fresh interpreters, scaled (see hostclock.py)
    and raw, and raw grid_s samples if asked."""
    from hostclock import HostClock

    setup, raw, grid_s = [], [], []
    argv = [sys.executable, str(HERE / "probe.py"), mode] + (["--grid"] if grid else [])
    for _ in range(SETUP_SAMPLES):
        clock = HostClock()
        clock.sample(PROBE_KERNEL_S)
        seconds, lines = run_probe(argv, env, "ready")
        clock.sample(PROBE_KERNEL_S)
        setup.append(seconds / clock.slowness())
        raw.append(seconds)
        if grid:
            grid_s.append(json.loads(lines[-1])["grid_s"])
    return setup, raw, grid_s


def import_samples(env: dict) -> list[float]:
    """`python -c "import sivodmr.cli"` wall times, spawn to exit."""
    argv = [sys.executable, "-c", "import sivodmr.cli"]
    return [run_probe(argv, env, None)[0] for _ in range(SETUP_SAMPLES)]


class Phase:
    """Outcome of whole rounds of one workload.

    Times are scaled to the reference host of hostclock.py, round by round:
    ``latencies`` and the rates hold scaled figures; ``raw_latencies`` and
    ``busy_s`` hold raw ones.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.rounds: list[tuple[int, float, float]] = []  # (passed, busy s, slowness)
        self.wrong: list[str] = []

    def p50_ms(self) -> float:
        """Median scaled time of the operations that passed; when none passed
        (a broken program), the raw mean time of those attempted, so the run
        still reports its wrong results."""
        return statistics.median(self.latencies or [self.busy_s / self.attempted]) * 1e3

    def round_rates(self, scaled: bool = True) -> list[float]:
        return [n / busy * (slow if scaled else 1.0) for n, busy, slow in self.rounds]

    def ops_per_s(self) -> float:
        """Median over rounds of the operations passed per scaled busy second.

        Every round holds the same operations, so the median keeps a round
        the host disturbed out of the figure.
        """
        return statistics.median(self.round_rates())


def timed_op(wl, op):
    """(seconds, output, reason) of one operation; reason is None when right."""
    t0 = time.perf_counter()
    try:
        out = wl.run(op)
    except Exception as err:  # a raising operation is reported, not fatal
        return time.perf_counter() - t0, err, f"{type(err).__name__}: {err}"
    dt = time.perf_counter() - t0
    return dt, out, wl.check(op, out)


def measure(wl, rng, seconds: float, tracer=None) -> Phase:
    """Run whole rounds for about ``seconds``; time each operation.

    A new round starts while more than half a mean round is left, so runs
    end near ``seconds`` whatever the round length.  For a workload whose
    times are host-scaled, the host clock is sampled after every operation
    and scales the round's times.
    """
    from hostclock import HostClock

    phase = Phase()
    start = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed * (1.0 + 0.5 / rounds) >= seconds:
            break
        rounds += 1
        clock = HostClock() if wl.host_scaled else None
        passed, busy = [], 0.0
        for op in wl.round(rng):
            if tracer is not None:
                tracer.op = phase.attempted
            dt, out, reason = timed_op(wl, op)
            if tracer is not None:
                tracer.op = None
            if clock is not None:
                clock.sample(dt)
            phase.attempted += 1
            busy += dt
            if reason is None:
                passed.append(dt)
            elif op.fault and wl.is_fault(out, reason):
                phase.failed += 1
            else:
                phase.wrong.append(reason)
        slow = clock.slowness() if clock is not None else 1.0
        phase.busy_s += busy
        phase.latencies += [dt / slow for dt in passed]
        phase.raw_latencies += passed
        phase.rounds.append((len(passed), busy, slow))
    return phase


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["invert_survey", "spectrum_roundtrip", "forward_map"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    caps = cap_threads()
    if not (SRC / "sivodmr" / "__init__.py").is_file():
        print(f"error: no sivodmr sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ODMR_CONFIG", None)
    sys.path.insert(0, str(SRC))

    import numpy as np

    import sivodmr
    if Path(sivodmr.__file__).resolve().parent != SRC / "sivodmr":
        print(f"error: sivodmr imported from {sivodmr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"environment: nproc={nproc} numpy={np.__version__} "
          f"python={platform.python_version()} thread caps: "
          + " ".join(f"{k}={v}" for k, v in caps.items()))

    env = probe_env()
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        kind = workloads.WORKLOADS[args.workload]
        setup, setup_raw, grid_s = setup_samples(kind.probe, env, grid=bool(args.trace))
        api = workloads.program_api()
        wl = kind(api, workdir)
        rng = np.random.default_rng(args.seed)
        if args.trace:
            result = traced_run(wl, rng, args.seconds, api, env, grid_s, workdir)
        else:
            wl.warm()
            phase = measure(wl, rng, args.seconds)
            result = end_to_end(phase, setup, setup_raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    for line in result["lines"]:
        print(line)
    print(json.dumps(result["json"]))
    return 0 if result["json"]["correct"] else 1


def _result(lines, metrics, attempted, failed, wrong) -> dict:
    lines = lines + [f"wrong: {w}" for w in wrong[:10]]
    return {"lines": lines, "json": {"correct": not wrong, "attempted": attempted,
                                     "failed": failed, "metrics": metrics}}


def _metric_lines(metrics: dict) -> list[str]:
    return [f"  {name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]


def end_to_end(phase: Phase, setup: list[float], setup_raw: list[float]) -> dict:
    lat = phase.latencies
    metrics = {
        "ops_per_s": {"value": phase.ops_per_s(), "unit": "1/s"},
        "op_p50_ms": {"value": phase.p50_ms(), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
    }
    lines = [f"ops: attempted={phase.attempted} failed={phase.failed} completed={len(lat)} "
             f"busy_s={phase.busy_s:.3f} rounds={len(phase.rounds)}",
             "round rates (1/s), raw: " + " ".join(f"{r:.4f}" for r in phase.round_rates(False)),
             "round rates (1/s), scaled: " + " ".join(f"{r:.4f}" for r in phase.round_rates()),
             "host slowness per round: " + " ".join(f"{r[2]:.4f}" for r in phase.rounds),
             "setup_s samples, raw: " + " ".join(f"{v:.4f}" for v in setup_raw),
             "setup_s samples, scaled: " + " ".join(f"{v:.4f}" for v in setup)]
    if lat:
        lines.append(f"op_p50_ms, raw: {statistics.median(phase.raw_latencies) * 1e3:.4f}")
    if len(lat) >= 100:
        lines.append(f"op_p90_ms = {percentile(lat, 90) * 1e3!r} ms (n={len(lat)})")
    else:
        lines.append(f"op_p90_ms not reported: {len(lat)} operations, fewer than 100")
    lines += ["end-to-end metrics:"] + _metric_lines(metrics)
    return _result(lines, metrics, phase.attempted, phase.failed, phase.wrong)


LAYER_UNITS = {
    "spin_model.table_calls": "count/op",
    "spin_model.table_fields": "count/op",
    "spin_model.table_ms": "ms/op",
    "spin_model.us_per_field": "us",
    "spin_model.pair_ms": "ms/call",
    "spin_model.sweep_limit_errors": "count/run",
    "inversion.grid_s": "s",
    "inversion.invert_ms": "ms/call",
    "inversion.self_ms": "ms/call",
    "inversion.flagged": "count/run",
    "spectrum.synth_ms": "ms/call",
    "fitting.fit_ms": "ms/call",
    "fitting.iterations": "count/fit",
    "fitting.us_per_point_iter": "us",
    "io.write_ms": "ms/call",
    "io.read_ms": "ms/call",
    "io.csv_bytes": "bytes",
    "cli.import_s": "s",
    "cli.simulate_s": "s",
    "cli.fit_s": "s",
    "cli.invert_s": "s",
    "trace.untraced_op_p50_ms": "ms",
    "trace.op_p50_ms": "ms",
    "trace.overhead_pct": "%",
}


def traced_run(wl, rng, seconds, api, env, grid_s, workdir) -> dict:
    """Half the time untraced, half traced, then one traced CLI session.

    The closing in-process CLI session gives every layer at least one call
    on every workload; it is checked but not counted as an operation.
    """
    import tracing
    import workloads

    chain = workloads.CliSession(api, workdir)
    chain.warm()
    wl.warm()
    untraced = measure(wl, rng, seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install(api)
    traced = measure(wl, rng, seconds / 2.0, tracer=tracer)
    wrong = untraced.wrong + traced.wrong
    op = workloads.ChainOp(*chain.fields[0], int(rng.integers(0, 2**31)))
    reason = timed_op(chain, op)[2]
    if reason is not None:
        wrong.append(f"closing CLI session: {reason}")
    probes = {"grid_s": statistics.median(grid_s),
              "import_s": statistics.median(import_samples(env))}
    values = tracing.layer_metrics(tracer, traced.attempted, probes)
    p50_untraced = untraced.p50_ms()
    p50_traced = traced.p50_ms()
    values["trace.untraced_op_p50_ms"] = p50_untraced
    values["trace.op_p50_ms"] = p50_traced
    values["trace.overhead_pct"] = (p50_traced / p50_untraced - 1.0) * 100.0
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in LAYER_UNITS.items()}
    lines = [f"ops: untraced attempted={untraced.attempted} failed={untraced.failed}; "
             f"traced attempted={traced.attempted} failed={traced.failed}",
             f"tracing overhead: op_p50_ms {p50_traced:.4f} traced vs {p50_untraced:.4f} "
             f"untraced ({values['trace.overhead_pct']:+.2f} %)",
             "inversion.flagged by reason: " + json.dumps(tracing.flagged_reasons(tracer))]
    lines += ["per-layer metrics:"] + _metric_lines(metrics)
    return _result(lines, metrics, untraced.attempted + traced.attempted,
                   untraced.failed + traced.failed, wrong)


if __name__ == "__main__":
    sys.exit(main())
