"""Smoke test of the benchmark itself.

Run from the repository root:  python3 -m pytest -q benchmarks/test_smoke.py

Each workload runs for one second (the shortest run the benchmark allows)
untraced and traced; the result line must carry exactly the metrics
BENCHMARK.json declares, with their units, and no op may fail.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def parse(stdout: str) -> tuple[dict, dict]:
    """Result line, and the "  name value unit" summary lines by name."""
    lines = stdout.splitlines()
    summary = {}
    for line in lines[:-1]:
        if line.startswith("  ") and not line.strip().startswith("FAILED"):
            name, value, unit = line.split()
            summary[name] = (float(value), unit)
    return json.loads(lines[-1]), summary


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_reports_declared_metrics(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result, summary = parse(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2  # the warm-up op and one timed op
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
    assert summary["failed_ratio"] == (0.0, "1")
    if workload.startswith("verify-"):
        if not trace:
            assert 0.0 < summary["max_residual_ratio"][0] < 1.0
        else:
            checks = result["metrics"]["verify.checks_per_op"]["value"]
            assert checks == {"verify-n8-unitary": 45, "verify-n5-real": 16}[workload]
            assert result["metrics"]["verify.check_braid.calls"]["value"] > 0
    if workload == "verify-n5-real":
        count, _ = summary["negative_controls"]
        assert count >= 1
        assert summary["negative_controls_failed_as_expected"][0] == count


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    done = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_checks_catch_wrong_outputs(tmp_path):
    from workloads import WORKLOADS as DEFS, OpStream, check_output

    build = DEFS["build-n16-real"]
    stream = OpStream(build, 3, tmp_path)
    op = stream.next()
    from braidmat.cli import main

    assert main(op.argv) == 0
    payload = json.loads(stream.out_path.read_bytes())
    assert check_output(build, op, 0, stream.out_path.read_bytes(),
                        stream.config_path).ok
    payload["entries"][0][0] = math.nextafter(payload["entries"][0][0], 2.0)
    assert not check_output(build, op, 0, json.dumps(payload).encode(),
                            stream.config_path).ok
    assert not check_output(build, op, 2, b"", stream.config_path).ok


def test_build_check_catches_wrong_fast_path(tmp_path, monkeypatch):
    """A wrong ``BraidFamily.matrix`` round-trips against itself; the
    comparison with ``matrix_from_basis`` must still catch it."""
    from braidmat import BraidFamily
    from braidmat.cli import main
    from workloads import WORKLOADS as DEFS, OpStream, check_output

    original = BraidFamily.matrix
    monkeypatch.setattr(BraidFamily, "matrix",
                        lambda self, theta: original(self, theta) * (1 + 1e-9))
    build = DEFS["build-n16-real"]
    stream = OpStream(build, 3, tmp_path)
    op = stream.next()
    assert main(op.argv) == 0
    outcome = check_output(build, op, 0, stream.out_path.read_bytes(),
                           stream.config_path)
    assert not outcome.ok and "matrix_from_basis" in outcome.reason

    verify = DEFS["verify-n5-real"]
    stream = OpStream(verify, 3, tmp_path)
    ops = [stream.next() for _ in range(verify.negative_every)]
    negative = ops[-1]
    assert negative.negative and not any(o.negative for o in ops[:-1])
    assert main(negative.argv) == 1
    out = stream.out_path.read_bytes()
    assert check_output(verify, negative, 1, out, stream.config_path).ok
    report = json.loads(out)
    for check in report["checks"]:
        check["passed"] = True
    report["passed"] = True
    # a negative control that reports success is a wrong outcome
    assert not check_output(verify, negative, 1, json.dumps(report).encode(),
                            stream.config_path).ok
