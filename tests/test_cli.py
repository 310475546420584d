import json
import math
import tracemalloc

import numpy as np
import pytest

from braidmat import canonical_keys, matrix_from_json
from braidmat.cli import main, parse_angle


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def braid_config(dim=2, mode="unitary", parameters=None, **extra):
    if parameters is None:
        parameters = [
            {"i": 1, "j": 1, "epsilon": "+", "value": 1.0},
            {"i": 1, "j": 1, "epsilon": "-", "value": -1.0},
        ]
    return {"N": dim, "mode": mode, "parameters": parameters, **extra}


# ------------------------------------------------------------ angles


def test_parse_angle_forms():
    assert parse_angle("0.25") == 0.25
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
    assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_angle("3pi/8") == pytest.approx(3 * math.pi / 8)
    assert parse_angle("2pi") == pytest.approx(2 * math.pi)
    assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)


def test_parse_angle_rejects_junk():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("tau/4")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("pi/0")


@pytest.mark.parametrize(
    "text",
    ["inf", "-inf", "nan", "1e400", "9" * 400 + "pi"],
    ids=["inf", "-inf", "nan", "overflow", "overflowing-pi-fraction"],
)
def test_parse_angle_rejects_non_finite(text):
    import argparse

    with pytest.raises(argparse.ArgumentTypeError, match="not a finite number"):
        parse_angle(text)


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["build", "entangle", "reference"])
def test_non_finite_angle_exits_two(tmp_path, capsys, command, value):
    if command == "reference":
        argv = ["reference", "--n", "1", "--z1", value, "--z2", "0.5"]
    else:
        config = write_config(tmp_path, braid_config())
        argv = [command, "--config", config, "--theta", value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not a finite number" in capsys.readouterr().err


# ------------------------------------------------------------ build


def test_build_identity_at_zero(tmp_path):
    config = write_config(tmp_path, braid_config(mode="real"))
    out = tmp_path / "matrix.json"
    code = main(["build", "--config", config, "--theta", "0", "--out", str(out)])
    assert code == 0
    matrix = matrix_from_json(json.loads(out.read_text()))
    assert np.array_equal(matrix, np.eye(4))


def test_build_pi_fraction(tmp_path):
    config = write_config(tmp_path, braid_config())
    out = tmp_path / "matrix.json"
    assert main(["build", "--config", config, "--theta", "pi/2", "--out", str(out)]) == 0
    matrix = matrix_from_json(json.loads(out.read_text()))
    assert np.abs(matrix - 1j * np.fliplr(np.eye(4))).max() < 1e-15


def test_build_writes_stdout_by_default(tmp_path, capsys):
    config = write_config(tmp_path, braid_config(mode="real"))
    assert main(["build", "--config", config, "--theta", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 4


def test_build_dim4_block_pattern(tmp_path):
    # built matrix dumped by the CLI conforms to the block layout
    from braidmat import block_structure

    config = write_config(
        tmp_path,
        braid_config(
            dim=4,
            mode="real",
            parameters=[
                {"i": 1, "j": 1, "epsilon": "+", "value": 0.3},
                {"i": 1, "j": 2, "epsilon": "-", "value": -0.6},
                {"i": 2, "j": 1, "epsilon": "+", "value": 0.9},
                {"i": 2, "j": 2, "epsilon": "-", "value": 0.2},
            ],
        ),
    )
    out = tmp_path / "matrix.json"
    assert main(["build", "--config", config, "--theta", "1", "--out", str(out)]) == 0
    matrix = matrix_from_json(json.loads(out.read_text()))
    assert block_structure(matrix, 4).conforms


def test_build_rejects_central_violation(tmp_path, capsys):
    config = write_config(
        tmp_path,
        braid_config(
            dim=3,
            mode="real",
            parameters=[{"i": 2, "j": 2, "epsilon": "+", "value": 0.5}],
        ),
    )
    assert main(["build", "--config", config, "--theta", "1"]) == 2
    assert "central" in capsys.readouterr().err


def test_build_rejects_noncanonical_key(tmp_path, capsys):
    config = write_config(
        tmp_path,
        braid_config(
            dim=4,
            mode="real",
            parameters=[{"i": 3, "j": 1, "epsilon": "+", "value": 0.5}],
        ),
    )
    assert main(["build", "--config", config, "--theta", "1"]) == 2
    assert "canonical" in capsys.readouterr().err


def test_build_rejects_side_length_over_the_limit(tmp_path, capsys):
    config = write_config(tmp_path, braid_config(dim=65))
    assert main(["build", "--config", config]) == 2
    assert "side length 65 exceeds the limit 64" in capsys.readouterr().err


def test_build_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["build", "--config", str(path), "--theta", "0"]) == 2
    assert "JSON" in capsys.readouterr().err


def test_build_missing_file(tmp_path, capsys):
    assert main(["build", "--config", str(tmp_path / "nope.json"), "--theta", "0"]) == 2
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------ verify


def test_verify_all_passes(tmp_path):
    config = write_config(tmp_path, braid_config())
    report_path = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--config",
            config,
            "--suite",
            "all",
            "--samples",
            "3",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["N"] == 2
    assert report["seed"] == 42


def test_verify_negative_control_exits_one(tmp_path):
    config = write_config(
        tmp_path,
        braid_config(
            dim=4,
            mode="real",
            parameters=[{"i": 1, "j": 2, "epsilon": "+", "value": 0.4}],
            symmetry_overrides=[{"i": 1, "j": 3, "epsilon": "+", "value": 1.6}],
        ),
    )
    assert main(["verify", "--config", config, "--suite", "braid", "--samples", "2"]) == 1


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
def test_verify_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    # an infinite tolerance would let this negative control pass
    config = write_config(
        tmp_path,
        braid_config(
            dim=4,
            mode="real",
            parameters=[{"i": 1, "j": 2, "epsilon": "+", "value": 0.4}],
            symmetry_overrides=[{"i": 1, "j": 3, "epsilon": "+", "value": 1.6}],
        ),
    )
    argv = ["verify", "--config", config, "--suite", "braid", "--samples", "2"]
    assert main(argv + ["--tol", tol]) == 2
    assert "tol must be a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "-42"])
def test_verify_negative_seed_exits_two(tmp_path, capsys, seed):
    config = write_config(tmp_path, braid_config())
    assert main(["verify", "--config", config, "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert f"seed must be a non-negative integer, got {seed}" in err


def test_verify_unitarity_on_real_mode_exits_one(tmp_path):
    config = write_config(tmp_path, braid_config(mode="real"))
    assert (
        main(["verify", "--config", config, "--suite", "unitarity", "--samples", "1"])
        == 1
    )


def test_verify_reports_are_bit_identical(tmp_path):
    config = write_config(tmp_path, braid_config())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert (
            main(
                [
                    "verify",
                    "--config",
                    config,
                    "--suite",
                    "braid",
                    "--samples",
                    "2",
                    "--report",
                    str(out),
                ]
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_rejects_unknown_suite(tmp_path):
    config = write_config(tmp_path, braid_config())
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", config, "--suite", "everything"])
    assert exc.value.code == 2


def test_verify_reference_config(tmp_path):
    config = write_config(tmp_path, {"reference": True, "n": 1})
    assert main(["verify", "--config", config, "--samples", "3"]) == 0


@pytest.mark.parametrize("suite", ["braid", "exponential"])
def test_verify_n17_decides_both_ways(tmp_path, suite):
    # the N = 17 triple space (4913-dimensional) is past the kron cap:
    # the identity must still pass, and a negative control still fail
    keys = canonical_keys(17)
    values = np.random.default_rng(17).uniform(-2, 2, len(keys))
    parameters = [
        {"i": i, "j": j, "epsilon": "+" if eps > 0 else "-", "value": float(v)}
        for (i, j, eps), v in zip(keys, values)
    ]
    override = {"i": 1, "j": 17, "epsilon": "+", "value": float(values[0]) + 1.0}
    report_path = tmp_path / "report.json"
    for expected, extra in ((0, {}), (1, {"symmetry_overrides": [override]})):
        config = write_config(tmp_path, braid_config(17, "unitary", parameters, **extra))
        argv = ["verify", "--config", config, "--suite", suite, "--samples", "1"]
        assert main(argv + ["--report", str(report_path)]) == expected
        checks = json.loads(report_path.read_text())["checks"]
        assert [c["name"] for c in checks] == [suite, suite]
        assert all(c["residual"] is not None for c in checks)


# ------------------------------------------------------------ entangle


def test_entangle_output(tmp_path):
    config = write_config(tmp_path, braid_config())
    out = tmp_path / "records.json"
    code = main(
        ["entangle", "--config", config, "--theta", "pi/4", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"records", "exceptional"}
    assert payload["exceptional"] == []
    first = payload["records"][0]
    assert (first["a"], first["b"]) == (1, 1)
    assert first["entropy"] == pytest.approx(1.0, abs=1e-9)
    assert len(payload["records"]) == 4


def test_entangle_emits_no_negative_zero(tmp_path):
    # rank-1 states have entropy -(1 * log2 1) = -0.0 before the clamp
    parameters = [
        {"i": 1, "j": 1, "epsilon": "+", "value": 1.0},
        {"i": 1, "j": 2, "epsilon": "-", "value": -0.7},
    ]
    config = write_config(tmp_path, braid_config(5, parameters=parameters))
    out = tmp_path / "records.json"
    assert main(["entangle", "--config", config, "--theta", "0.9", "--out", str(out)]) == 0
    text = out.read_text()
    assert "-0.0" not in text
    records = json.loads(text)["records"]
    assert sum(r["schmidt_rank"] == 1 for r in records) > 9
    assert all(math.copysign(1, r["entropy"]) == 1 for r in records)


ULPS = 4 * np.finfo(float).eps

# N = 3: class (1, 1) is the one off the centre lines; |1,2> and |3,2>
# (class (1, 2)) sit on the centre column and |2,1>, |2,3> (class (2, 1))
# on the centre row
GOLDEN_N3 = braid_config(3, parameters=[
    {"i": 1, "j": 1, "epsilon": "+", "value": 1},
    {"i": 1, "j": 1, "epsilon": "-", "value": 0},
    {"i": 1, "j": 2, "epsilon": "+", "value": 1},
    {"i": 1, "j": 2, "epsilon": "-", "value": -1},
    {"i": 2, "j": 1, "epsilon": "+", "value": 0.5},
    {"i": 2, "j": 1, "epsilon": "-", "value": 0.5},
])


def golden_entangle(rank_two, exceptional):
    """The N = 3 payload: the states in ``rank_two`` have moduli
    cos(pi/8) and sin(pi/8), every other one the single value 1.0.  Floats
    compare to within a few ulps, since they come through libm."""
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    pair = [c, s], -(c * c * math.log2(c * c) + s * s * math.log2(s * s)), 2
    product = [1.0, 0.0], 0.0, 1
    records = []
    for a in range(1, 4):
        for b in range(1, 4):
            values, entropy, rank = pair if (a, b) in rank_two else product
            records.append({
                "a": a, "b": b,
                "singular_values": pytest.approx(values, rel=0, abs=ULPS),
                "entropy": pytest.approx(entropy, rel=0, abs=ULPS),
                "schmidt_rank": rank,
            })
    return {"records": records, "exceptional": [list(state) for state in exceptional]}


@pytest.mark.parametrize("theta, expected", [
    # at pi/4 class (1, 1) (m+ - m- = 1) has moduli cos(pi/8), sin(pi/8);
    # on the centre column class (1, 2) maps |1,2> to (d|1> + e|3>) (x) |2>,
    # a product with the single value hypot(|d|, |e|) = 1 although |d| = |e|;
    # class (2, 1) has m+ = m-, so its antidiagonal coefficient vanishes
    ("pi/4", golden_entangle({(1, 1), (1, 3), (3, 1), (3, 3)},
                             [(2, 1), (2, 2), (2, 3)])),
    # theta = 0 is the identity: every image is its own basis state
    ("0", golden_entangle(set(), [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)])),
])
def test_entangle_golden_n3(tmp_path, theta, expected):
    config = write_config(tmp_path, GOLDEN_N3)
    out = tmp_path / "records.json"
    assert main(["entangle", "--config", config, "--theta", theta, "--out", str(out)]) == 0
    text = out.read_text()
    payload = json.loads(text)
    assert payload == expected
    assert text == json.dumps(payload, indent=2) + "\n"


def test_entangle_at_n64_writes_two_values_per_record(tmp_path):
    # with the values padded to length N the same command peaked at 27.7 MB
    dim = 64
    parameters = [
        {"i": i, "j": j, "epsilon": "+" if e > 0 else "-",
         "value": (-1) ** k * (0.37 + 0.211 * k)}
        for k, (i, j, e) in enumerate(canonical_keys(dim))
    ]
    config = write_config(tmp_path, braid_config(dim, parameters=parameters))
    out = tmp_path / "records.json"
    argv = ["entangle", "--config", config, "--theta", "0.9", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    records = json.loads(out.read_text())["records"]
    assert len(records) == dim * dim
    assert sum(len(r["singular_values"]) for r in records) == 2 * dim * dim
    assert peak < 12 * 2**20


@pytest.mark.parametrize("command", ["build", "entangle"])
def test_phase_past_two_to_the_52_exits_two(tmp_path, capsys, command):
    # max|m| * |theta| = 5e299, a phase with no fractional bits: without the
    # guard this printed a meaningless entropy of 0.84
    parameters = [{"i": 1, "j": 1, "epsilon": "+", "value": 0.5}]
    config = write_config(tmp_path, braid_config(4, parameters=parameters))
    assert main([command, "--config", config, "--theta", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds 2**52 in unitary mode" in captured.err


def test_verify_phase_past_two_to_the_52_fails_with_the_reason(tmp_path):
    parameters = [{"i": 1, "j": 1, "epsilon": "+", "value": 1e308}]
    config = write_config(tmp_path, braid_config(4, parameters=parameters))
    report_path = tmp_path / "report.json"
    argv = ["verify", "--config", config, "--samples", "0", "--report", str(report_path)]
    assert main(argv) == 1
    failed = [c for c in json.loads(report_path.read_text())["checks"] if not c["passed"]]
    assert sorted(c["name"] for c in failed) == [
        "braid", "exponential", "factorization", "unitarity"
    ]
    for check in failed:
        assert check["residual"] is None
        error = check["context"]["error"]
        # the exponential's norm cap fires before R(theta) is built
        reason = "matrix 1-norm" if check["name"] == "exponential" else "exceeds 2**52"
        assert reason in error


def test_entangle_rejects_real_mode(tmp_path, capsys):
    config = write_config(tmp_path, braid_config(mode="real"))
    assert main(["entangle", "--config", config, "--theta", "0.5"]) == 2
    assert "unitary" in capsys.readouterr().err


# ------------------------------------------------------------ period


def test_period_stdout(tmp_path, capsys):
    config = write_config(
        tmp_path,
        braid_config(
            parameters=[
                {"i": 1, "j": 1, "epsilon": "+", "value": "1/2"},
                {"i": 1, "j": 1, "epsilon": "-", "value": "1/3"},
            ]
        ),
    )
    assert main(["period", "--config", config]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["periodic"] is True
    assert payload["commensurate"] is True
    assert payload["period"] == pytest.approx(12 * math.pi, abs=1e-9)


def test_period_float_config_unknown(tmp_path, capsys):
    config = write_config(
        tmp_path,
        braid_config(
            parameters=[{"i": 1, "j": 1, "epsilon": "+", "value": 0.5}]
        ),
    )
    assert main(["period", "--config", config]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["commensurate"] is None
    assert payload["periodic"] is False


# ------------------------------------------------------------ reference


def test_reference_command(tmp_path, capsys):
    assert main(["reference", "--n", "1", "--z1", "0.5", "--z2", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    composition = [c for c in payload["checks"] if c["name"] == "composition"][0]
    assert composition["context"]["z3"] == pytest.approx(4.0 / 3.0)
    assert composition["context"]["scalar"] == pytest.approx(0.75)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_reference_rejects_nonpositive_n(capsys, n):
    assert main(["reference", "--n", n, "--z1", "0.5", "--z2", "0.5"]) == 2
    err = capsys.readouterr().err
    assert f"reference half-dimension must be >= 1, got {n}" in err


def test_reference_rejects_side_length_over_the_limit(capsys):
    assert main(["reference", "--n", "33", "--z1", "0.5", "--z2", "0.5"]) == 2
    assert "reference side length 66 exceeds 64" in capsys.readouterr().err


def test_reference_config_rejected_for_build(tmp_path, capsys):
    config = write_config(tmp_path, {"reference": True, "n": 1})
    assert main(["build", "--config", config, "--theta", "0"]) == 2
    assert "braid-family" in capsys.readouterr().err


# ------------------------------------------------------------ parser


def test_one_parser_serves_successive_commands(tmp_path, capsys):
    """The parser is built once per process; calls with other commands
    and flags in between give the same outputs as a freshly built one."""
    from braidmat.cli import _build_parser

    config = write_config(tmp_path, braid_config(dim=3))
    runs = [
        ["verify", "--config", config, "--suite", "braid", "--samples", "2",
         "--seed", "5", "--tol", "1e-9"],
        ["build", "--config", config, "--theta", "pi/4"],
        ["verify", "--config", config, "--samples", "1"],
        ["entangle", "--config", config, "--theta", "0.3"],
        ["reference", "--n", "2", "--z1", "0.5", "--z2", "0.25"],
    ]

    def outputs():
        results = []
        for argv in runs:
            code = main(argv)
            results.append((code, capsys.readouterr().out))
        return results

    assert _build_parser() is _build_parser()
    shared = outputs()
    fresh = []
    for argv in runs:
        _build_parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr().out))
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0, 0, 0, 0]
