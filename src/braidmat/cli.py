"""Command-line interface.

All commands read JSON configs and emit JSON; exit codes are stable:
0 success / all checks passed, 1 verification failure, 2 usage or
config error.  Angles accept decimal literals or simple fractions of
pi such as "pi/4", "-pi/2", or "3pi/8".
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

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


def _scalar_text(value) -> str | None:
    """JSON text of a scalar, or None for a list, tuple or dict.

    Follows json's order: the three constants, then isinstance str, int
    and float, so subclasses (numpy.float64 in verify reports, IntEnum)
    print through the base type's __repr__, as json does.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_rows(rows, indent: str) -> tuple[str, list] | None:
    """The %r template of one row at ``indent`` and the items of all rows,
    when ``rows`` is a list of equal-length rows of exact finite floats;
    otherwise None.

    ``%r`` is float.__repr__ only for exact floats, and prints NaN and
    infinities as Python does, not as JSON does; a finite sum proves every
    item finite, and an overflowing one falls back to the general path.
    """
    widths = set(map(len, rows))
    flat = list(chain.from_iterable(rows))
    if len(widths) != 1 or set(map(type, flat)) != {float} or not math.isfinite(sum(flat)):
        return None
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(["%r"] * widths.pop()) + indent + "]", flat


def _record_texts(records, keys: tuple, indent: str) -> list[str]:
    """Texts of dicts that all have the key order ``keys``, formatted
    column by column: each key's values across the records are one
    ``_item_texts`` call, and one template per record puts them back."""
    inner = indent + "  "
    columns = [_item_texts(column, inner) for column in zip(*map(dict.values, records))]
    heads = [encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys]
    record = "{" + inner + ("," + inner).join(heads) + indent + "}"
    return list(map(record.__mod__, zip(*columns)))


def _item_texts(items, indent: str) -> list[str]:
    """JSON texts of ``items`` at ``indent``.  Items that are all exact
    finite floats, all exact ints, all equal-length rows of such floats,
    or all dicts with one key order are formatted in one pass; anything
    else goes item by item."""
    kinds = set(map(type, items))
    if kinds == {float} and math.isfinite(sum(items)):
        return list(map(float.__repr__, items))
    if kinds == {int}:
        return list(map(int.__repr__, items))
    if kinds <= {list, tuple} and (rows := _float_rows(items, indent)):
        return list(map(rows[0].__mod__, map(tuple, items)))
    if kinds == {dict}:
        orders = set(map(tuple, items))
        if len(orders) == 1 and (keys := orders.pop()):
            return _record_texts(items, keys, indent)
    texts = list(map(_scalar_text, items))
    if None in texts:
        texts = [_json_text(item, indent) if text is None else text
                 for text, item in zip(texts, items)]
    return texts


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the acyclic
    payloads the commands emit; dict keys must be strings.

    A list of equal-length rows of floats (``build``'s ``entries``) is
    laid out by one template and one ``%``.  Every other container goes
    through ``_item_texts``, which formats a list of same-key dicts
    (``entangle``'s records, ``verify``'s checks) column by column: all
    of one key's values at once, so that a column of floats, of ints or
    of float rows costs one pass instead of one call per number.
    """
    text = _scalar_text(value)
    if text is not None:
        return text
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    if isinstance(value, dict):
        keys = list(map(encode_basestring_ascii, value))  # TypeError unless str
        texts = _item_texts(value.values(), inner)
        body = ("," + inner).join(map(": ".join, zip(keys, texts)))
        return "{" + inner + body + indent + "}"
    rows = None
    if set(map(type, value)) <= {list, tuple}:
        rows = _float_rows(value, inner)
    if rows:
        template, flat = rows
        body = ("," + inner).join([template] * len(value)) % tuple(flat)
    else:
        body = ("," + inner).join(_item_texts(value, inner))
    return "[" + inner + body + indent + "]"


def _emit(payload: dict, out: str | None) -> None:
    text = _json_text(payload)
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
    family = _require_braid_config(load_config(args.config), "build")
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
    _emit(report, args.report)
    return 0 if report["passed"] else 1


def cmd_entangle(args: argparse.Namespace) -> int:
    family = _require_braid_config(load_config(args.config), "entangle")
    payload = {
        "records": scan_products(family, args.theta),
        "exceptional": [[a, b] for a, b in exceptional_scan(family, args.theta)],
    }
    _emit(payload, args.out)
    return 0


def cmd_period(args: argparse.Namespace) -> int:
    family = _require_braid_config(load_config(args.config), "period")
    _emit(detect_period(family), None)
    return 0


def cmd_reference(args: argparse.Namespace) -> int:
    n = ReferenceConfig(args.n).n
    checks = reference_checks(n)
    checks.append(check_composition_law(n, args.z1, args.z2))
    payload = {"n": n, "checks": checks, "passed": all(c["passed"] for c in checks)}
    _emit(payload, None)
    return 0 if payload["passed"] else 1


@functools.cache
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
    except (BraidmatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
