"""Workload definitions, the seeded input generator and the output checks.

Every op is one CLI command.  Its config file, spectral parameter and
suite seed are drawn from the workload seed with numpy's Philox
generator, in a fixed order, so the same seed gives the same op
sequence; the program only ever sees the generated files and arguments.
Output checks read what the op wrote and never run inside a timed region.

Each workload keeps a single N: mixing sizes in one workload makes the
latency distribution multimodal and its median jump between runs.
BENCHMARK.json gives the reason for each workload.  Known gaps: N=32 is
left out, because the eager projector basis built by
``BraidFamily.create`` would need about 8 GB there; ``period`` is not a
workload, because it takes about 2 ms at N=16.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from braidmat import (
    BraidFamily,
    block_structure,
    canonical_keys,
    degenerate_classes,
    load_config,
    matrix_from_json,
)

PARAM_RANGE = 2.0
THETA_RANGE = 1.0

# Entangle records are Schmidt data of unit vectors.
NORM_TOL = 1e-12
# A built matrix against the slower projector-sum reference path.
REFERENCE_RTOL = 1e-12
REFERENCE_ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" | "entangle" | "build"
    dim: int
    mode: str
    samples: int = 0  # verify only
    # every k-th op is a negative control (verify only; 0 = none)
    negative_every: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-n8-unitary", "verify", 8, "unitary", samples=4),
        Workload("verify-n5-real", "verify", 5, "real", samples=3, negative_every=10),
        Workload("entangle-n16", "entangle", 16, "unitary"),
        Workload("build-n16-real", "build", 16, "real"),
    )
}


@dataclass(frozen=True)
class Op:
    index: int
    argv: list[str]
    theta: float
    negative: bool


class OpStream:
    """Deterministic sequence of ops for one workload and seed."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.rng = np.random.Generator(np.random.Philox(seed))
        self.keys = canonical_keys(workload.dim)
        self.config_path = work_dir / "config.json"
        self.out_path = work_dir / "out.json"
        self.index = 0

    def next(self) -> Op:
        """Draw the next op and write its config file."""
        w = self.workload
        values = self.rng.uniform(-PARAM_RANGE, PARAM_RANGE, size=len(self.keys))
        theta = float(self.rng.uniform(-THETA_RANGE, THETA_RANGE))
        suite_seed = int(self.rng.integers(0, 2**31))
        config = {
            "N": w.dim,
            "mode": w.mode,
            "parameters": [
                {"i": i, "j": j, "epsilon": "+" if eps > 0 else "-", "value": float(v)}
                for (i, j, eps), v in zip(self.keys, values)
            ],
        }
        negative = bool(w.negative_every) and self.index % w.negative_every == (
            w.negative_every - 1
        )
        if negative:
            # Shift one raw grid entry away from its mirror partner; the
            # braid identity then fails for every sample of the suite.
            config["symmetry_overrides"] = [
                {"i": 1, "j": 1, "epsilon": "+", "value": float(values[0]) + 1.0}
            ]
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        cfg, out = str(self.config_path), str(self.out_path)
        if w.command == "verify":
            argv = ["verify", "--config", cfg, "--suite", "all",
                    "--samples", str(w.samples), "--seed", str(suite_seed),
                    "--report", out]
        else:
            argv = [w.command, "--config", cfg, f"--theta={theta!r}", "--out", out]
        op = Op(self.index, argv, theta, negative)
        self.index += 1
        return op


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    checks: int = 0  # verify: checks in the report
    residual_ratio: float = 0.0  # verify positive controls: worst residual/tol


def check_output(workload: Workload, op: Op, code: int | None, out: bytes,
                 config_path: Path) -> Outcome:
    """Check one op's exit code and output; ``code`` None means it raised."""
    expected = 1 if op.negative else 0
    if code != expected:
        return Outcome(False, f"exit code {code}, expected {expected}")
    payload = json.loads(out)
    if workload.command == "verify":
        return _check_verify(op, payload)
    if workload.command == "entangle":
        return _check_entangle(workload, op, payload, config_path)
    return _check_build(workload, op, payload, config_path)


def _check_verify(op: Op, report: dict) -> Outcome:
    checks = report["checks"]
    if op.negative:
        braid_failed = any(c["name"] == "braid" and not c["passed"] for c in checks)
        if report["passed"] or not braid_failed:
            return Outcome(False, "negative control has no failing braid check",
                           len(checks))
        return Outcome(True, checks=len(checks))
    if not report["passed"]:
        failing = sorted({c["name"] for c in checks if not c["passed"]})
        return Outcome(False, f"positive control failed checks {failing}",
                       len(checks))
    worst = max(c["residual"] / c["tolerance"] for c in checks)
    return Outcome(True, checks=len(checks), residual_ratio=worst)


def _check_entangle(workload: Workload, op: Op, payload: dict,
                    config_path: Path) -> Outcome:
    dim = workload.dim
    records = payload["records"]
    if len(records) != dim * dim:
        return Outcome(False, f"{len(records)} records, expected {dim * dim}")
    for rec in records:
        norm = sum(s * s for s in rec["singular_values"])
        if abs(norm - 1.0) > NORM_TOL:
            return Outcome(False, f"record {rec['a']},{rec['b']}: sum s^2 = {norm!r}")
        if not 0.0 <= rec["entropy"] <= 1.0:
            return Outcome(False, f"record {rec['a']},{rec['b']}: entropy "
                                  f"{rec['entropy']!r}")
        if rec["schmidt_rank"] not in (1, 2):
            return Outcome(False, f"record {rec['a']},{rec['b']}: rank "
                                  f"{rec['schmidt_rank']}")
    if dim % 2 == 0 and payload["exceptional"]:
        if not degenerate_classes(load_config(config_path), op.theta):
            return Outcome(False, "exceptional states at even N on a generic draw")
    return Outcome(True)


def _check_build(workload: Workload, op: Op, payload: dict,
                 config_path: Path) -> Outcome:
    built = matrix_from_json(payload)
    family = BraidFamily.create(load_config(config_path))
    expected = family.matrix(op.theta)
    if built.tobytes() != expected.astype(complex).tobytes():
        return Outcome(False, "matrix does not round-trip bit-for-bit")
    # matrix() also produced the output, so check it against an independent path
    reference = family.matrix_from_basis(op.theta)
    if not np.allclose(built, reference, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL):
        worst = float(np.max(np.abs(built - reference)))
        return Outcome(False, f"matrix differs from matrix_from_basis by {worst!r}")
    if not block_structure(built, workload.dim).conforms:
        return Outcome(False, "matrix breaks the diagonal/antidiagonal pattern")
    return Outcome(True)
