"""Command-line interface.

All commands read JSON configs and emit JSON; exit codes are stable:
0 success / all checks passed, 1 verification failure, 2 usage or
config error.  Angles accept decimal literals or simple fractions of
pi such as "pi/4", "-pi/2", or "3pi/8".
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from pathlib import Path

from .braid import BraidFamily
from .config import ReferenceConfig, load_config
from .entangle import detect_period, exceptional_scan, scan_products
from .errors import BraidmatError, ConfigError
from .linalg import matrix_to_json
from .verify import SUITES, check_composition_law, reference_checks, run_suite

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Decimal literal or pi fraction ("0.5", "pi", "pi/4", "-3pi/8");
    NaN and infinite values are refused."""
    try:
        value = float(text)
    except ValueError:
        value = _parse_pi_fraction(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle {text!r} is not a finite number")
    return value


def _parse_pi_fraction(text: str) -> float:
    match = _ANGLE_RE.match(text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"cannot parse angle {text!r}; use a decimal or a pi fraction like pi/4"
        )
    sign = -1.0 if match.group(1) == "-" else 1.0
    numerator = float(match.group(2)) if match.group(2) else 1.0
    denominator = float(match.group(3)) if match.group(3) else 1.0
    if denominator == 0.0:
        raise argparse.ArgumentTypeError(f"zero denominator in angle {text!r}")
    return sign * numerator * math.pi / denominator


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _require_braid_config(config, command: str):
    if isinstance(config, ReferenceConfig):
        raise ConfigError(
            f"'{command}' needs a braid-family config, not a reference config"
        )
    return config


def cmd_build(args: argparse.Namespace) -> int:
    params = _require_braid_config(load_config(args.config), "build")
    family = BraidFamily.create(params)
    _emit(matrix_to_json(family.matrix(args.theta)), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    start = time.perf_counter()
    report = run_suite(
        config, suite=args.suite, samples=args.samples, seed=args.seed, tol=args.tol
    )
    elapsed = time.perf_counter() - start
    # wall time goes to stderr so the report itself stays bit-reproducible
    print(f"suite '{args.suite}' finished in {elapsed:.2f}s", file=sys.stderr)
    _emit(report.to_json(), args.report)
    return 0 if report.passed else 1


def cmd_entangle(args: argparse.Namespace) -> int:
    params = _require_braid_config(load_config(args.config), "entangle")
    family = BraidFamily.create(params)
    records = scan_products(family, args.theta)
    exceptional = exceptional_scan(family, args.theta)
    payload = {
        "records": [r.to_json() for r in records],
        "exceptional": [[a, b] for a, b in exceptional],
    }
    _emit(payload, args.out)
    return 0


def cmd_period(args: argparse.Namespace) -> int:
    params = _require_braid_config(load_config(args.config), "period")
    _emit(detect_period(params).to_json(), None)
    return 0


def cmd_reference(args: argparse.Namespace) -> int:
    n = ReferenceConfig(args.n).n
    checks = reference_checks(n)
    checks.append(check_composition_law(n, args.z1, args.z2))
    payload = {
        "n": n,
        "checks": [c.to_json() for c in checks],
        "passed": all(c.passed for c in checks),
    }
    _emit(payload, None)
    return 0 if payload["passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidmat",
        description="Build, verify, and analyze multiparameter braid matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="evaluate the braid matrix at theta")
    build.add_argument("--config", required=True, help="braid-family config JSON")
    build.add_argument("--theta", type=parse_angle, default=0.0)
    build.add_argument("--out", default=None, help="output file (default stdout)")
    build.set_defaults(func=cmd_build)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--config", required=True)
    verify.add_argument("--suite", choices=SUITES, default="all")
    verify.add_argument("--samples", type=int, default=20)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--tol", type=float, default=1e-10)
    verify.add_argument("--report", default=None, help="report file (default stdout)")
    verify.set_defaults(func=cmd_verify)

    entangle = sub.add_parser(
        "entangle", help="Schmidt data of all mapped product basis states"
    )
    entangle.add_argument("--config", required=True, help="unitary-mode config JSON")
    entangle.add_argument("--theta", type=parse_angle, required=True)
    entangle.add_argument("--out", default=None)
    entangle.set_defaults(func=cmd_entangle)

    period = sub.add_parser(
        "period", help="theta-period of a unitary family with rational exponents"
    )
    period.add_argument("--config", required=True)
    period.set_defaults(func=cmd_period)

    reference = sub.add_parser(
        "reference", help="reference-family construction and composition checks"
    )
    reference.add_argument("--n", type=int, required=True, help="half-dimension")
    reference.add_argument("--z1", type=parse_angle, required=True)
    reference.add_argument("--z2", type=parse_angle, required=True)
    reference.set_defaults(func=cmd_reference)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BraidmatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
