"""Closed-loop benchmark of the braidmat command line.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one op at a time, in this one process: each op is one CLI
command run in process through ``braidmat.cli.main(argv)`` on inputs
generated from ``--seed`` (see workloads.py).  Every op's output is
checked outside the timed region.  The package is imported from the
``src`` directory next to this one; without it the run exits with 2.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of ``import braidmat`` plus
  the first ``load_config`` and ``BraidFamily.create`` (setup_probe.py);
* ``throughput_ops_per_s``: ops per second of timed op time;
* ``op_p50_ms``: median op latency;
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

The lines before the result also give ``failed_ratio``, the worst
``max_residual_ratio`` of the verify checks, the negative-control tally,
and ``op_p90_ms`` where at least 100 ops ran (so that ten lie beyond it).

``--trace 1`` runs every op twice, once plain and once with span
wrappers installed (tracing.py), requires byte-identical outputs, and
reports per-layer metrics: ``<span>.calls`` and ``<span>.s`` /
``<span>.self_s`` per op, the first (cold) ``BraidFamily.create`` and
its RSS growth, ``verify.checks_per_op``, ``verify.max_residual_ratio``
and ``trace.overhead_ratio``.  Spans are written to
``benchmarks/.out/spans-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_RUNS = 15
SETUP_TIMEOUT_S = 60

# op_p90_ms is printed only when at least ten ops lie beyond it.
P90_MIN_OPS = 100

# Per-layer metrics computed here rather than from span totals per op.
SPECIAL_PER_LAYER = frozenset({
    "braid.BraidFamily.create.s",
    "braid.BraidFamily.create.rss_delta_mb",
    "verify.checks_per_op",
    "verify.max_residual_ratio",
    "trace.overhead_ratio",
})


def span_metrics() -> list[tuple[str, str, str, str]]:
    """The per-layer metrics of BENCHMARK.json taken from span totals, as
    (metric name, span name, field, unit): each name is ``<span>.<field>``
    with field ``calls``, ``s`` or ``self_s``."""
    from tracing import SPAN_NAMES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = []
    for metric in spec["per_layer"]:
        if metric["name"] in SPECIAL_PER_LAYER:
            continue
        span, field = metric["name"].rsplit(".", 1)
        if span not in SPAN_NAMES or field not in ("calls", "s", "self_s"):
            raise ValueError(f"per-layer metric {metric['name']!r} names no traced span")
        out.append((metric["name"], span, field, metric["unit"]))
    return out


def _rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> dict:
    """BLAS vendor and version from numpy's build record, and the thread
    count the loaded OpenBLAS reports (None where it cannot be read)."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"vendor": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


class Runner:
    """Runs ops of one workload and tallies their checked outcomes."""

    def __init__(self, workload, seed: int, work_dir: Path):
        from workloads import OpStream

        self.workload = workload
        self.stream = OpStream(workload, seed, work_dir)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.negatives = 0
        self.negatives_as_expected = 0
        self.checks: list[int] = []
        self.residual_ratio = 0.0

    def execute(self, op, main) -> tuple[int | None, float, bytes]:
        """Run one op through ``main``; return exit code, seconds, output."""
        out_path = self.stream.out_path
        out_path.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = main(op.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an op that raises counts as failed
                print(f"op {op.index} raised {exc!r}", file=err)
                code = None
            elapsed = perf_counter() - start
        out = out_path.read_bytes() if out_path.exists() else b""
        if code not in (0, 1):
            self.failures.append(f"op {op.index}: {err.getvalue().strip()[-300:]}")
        return code, elapsed, out

    def record(self, op, code: int | None, out: bytes, repeat: bytes) -> None:
        """Check one op's output; ``repeat`` is the output of a second run
        of the same op, which must be byte-identical."""
        from workloads import Outcome, check_output

        self.attempted += 1
        try:
            outcome = check_output(self.workload, op, code, out,
                                   self.stream.config_path)
        except Exception as exc:  # malformed output is a wrong outcome
            outcome = Outcome(False, f"output check raised {exc!r}")
        if outcome.ok and repeat != out:
            outcome = Outcome(False, "repeated op gave different output bytes")
        if op.negative:
            self.negatives += 1
            self.negatives_as_expected += outcome.ok
        if self.workload.command == "verify":
            self.checks.append(outcome.checks)
            if not op.negative:
                self.residual_ratio = max(self.residual_ratio, outcome.residual_ratio)
        if not outcome.ok:
            self.failed += 1
            self.failures.append(f"op {op.index}: {outcome.reason}")


def measure_setup(config_path: Path) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
             str(config_path)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, list[float]]:
    from braidmat import cli

    first = runner.stream.next()
    setup = measure_setup(runner.stream.config_path)
    # the first op fills the caches; it runs twice to check bit-identity
    code, _, out = runner.execute(first, cli.main)
    _, _, repeat = runner.execute(first, cli.main)
    runner.record(first, code, out, repeat)
    latencies: list[float] = []
    while sum(latencies) < seconds:
        op = runner.stream.next()
        code, elapsed, out = runner.execute(op, cli.main)
        latencies.append(elapsed)
        runner.record(op, code, out, out)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }, latencies


def run_traced(runner: Runner, seconds: float, spans_path: Path,
               env: dict) -> tuple[dict, int]:
    from braidmat import BraidFamily, cli
    from tracing import Tracer

    tracer = Tracer()
    first = runner.stream.next()
    with tracer.installed():
        rss_before = _rss_mb()
        BraidFamily.create(cli.load_config(runner.stream.config_path))
        rss_delta = _rss_mb() - rss_before
    create = tracer.first("braid.BraidFamily.create")

    def both(op, traced_first: bool):
        """Run ``op`` plain and traced, in the given order."""
        runs = {}
        for traced in (traced_first, not traced_first):
            tracer.op = op.index
            if traced:
                with tracer.installed():
                    runs[traced] = runner.execute(op, cli.main)
            else:
                runs[traced] = runner.execute(op, cli.main)
        return runs[False], runs[True]

    (code, _, out), (_, _, traced_out) = both(first, False)
    runner.record(first, code, out, traced_out)
    plain_s = traced_s = 0.0
    ops: set[int] = set()
    while plain_s + traced_s < seconds:
        op = runner.stream.next()
        (code, plain, out), (_, traced, traced_out) = both(op, op.index % 2 == 0)
        runner.record(op, code, out, traced_out)
        plain_s += plain
        traced_s += traced
        ops.add(op.index)
    tracer.write(spans_path, env)

    totals = tracer.summary(ops)
    metrics = {}
    for name, span, field, unit in span_metrics():
        entry = totals.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[name] = (entry[field] / len(ops), unit)
    metrics["braid.BraidFamily.create.s"] = (create[5] - create[4], "s")
    metrics["braid.BraidFamily.create.rss_delta_mb"] = (rss_delta, "MB")
    checks = runner.checks
    metrics["verify.checks_per_op"] = (
        sum(checks) / len(checks) if checks else 0.0, "checks/op")
    metrics["verify.max_residual_ratio"] = (runner.residual_ratio, "1")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "1")
    return metrics, len(ops)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "braidmat" / "__init__.py").is_file():
        print(f"error: braidmat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                     dir=BENCH_DIR / ".work"))
    try:
        runner = Runner(workload, args.seed, work_dir)
        if args.trace:
            spans = BENCH_DIR / ".out" / f"spans-{workload.name}-seed{args.seed}.json"
            metrics, timed = run_traced(runner, args.seconds, spans, env)
        else:
            metrics, latencies = run_untraced(runner, args.seconds)
            timed = len(latencies)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{timed} timed ops, {runner.attempted} attempted, {runner.failed} failed")
    summary = dict(metrics)
    if not args.trace and timed >= P90_MIN_OPS:
        summary["op_p90_ms"] = (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms")
    summary["failed_ratio"] = (runner.failed / runner.attempted, "1")
    if workload.command == "verify" and not args.trace:
        summary["max_residual_ratio"] = (runner.residual_ratio, "1")
    if workload.negative_every:
        summary["negative_controls"] = (runner.negatives, "ops")
        summary["negative_controls_failed_as_expected"] = (
            runner.negatives_as_expected, "ops")
    for name, (value, unit) in summary.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    for failure in runner.failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
