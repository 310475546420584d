import json

import numpy as np
import pytest

from braidmat import (
    ConfigError,
    ReferenceConfig,
    SizeLimitError,
    make_parameters,
    parse_config,
)
from braidmat.braid import MAX_SIDE
from braidmat.cli import main


def config(**changes):
    obj = {
        "N": 4,
        "mode": "real",
        "parameters": [{"i": 1, "j": 2, "epsilon": "+", "value": 0.4}],
    }
    obj.update(changes)
    return obj


def run_verify(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    argv = ["verify", "--config", str(path), "--suite", "braid", "--samples", "1"]
    return main(argv)


# ------------------------------------------------------------ non-finite values


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("field", ["parameters", "symmetry_overrides"])
def test_non_finite_values_exit_two(tmp_path, capsys, literal, field):
    # Python's json accepts these literals; 1e400 decodes to inf
    entry = '{"i": 1, "j": 2, "epsilon": "+", "value": %s}' % literal
    text = '{"N": 4, "mode": "real", "%s": [%s]}' % (field, entry)
    assert run_verify(tmp_path, text) == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), 10**400, "10**400", "1/0"]
)
def test_make_parameters_rejects_non_finite_and_unparsable(value):
    with pytest.raises(ConfigError):
        make_parameters(4, "real", {(1, 1, +1): value})
    with pytest.raises(ConfigError):
        make_parameters(4, "real", {}, overrides=((1, 3, +1, value),))


def test_override_values_are_stored_as_floats():
    # a rational override string and its float give the same parameter set
    a, b = (
        parse_config(
            config(symmetry_overrides=[{"i": 1, "j": 3, "epsilon": "+", "value": v}])
        )
        for v in ("1/2", 0.5)
    )
    assert a.overrides == b.overrides == ((1, 3, 1, 0.5),)
    assert a.digest() == b.digest()
    assert np.array_equal(a.exponents, b.exponents)


# ------------------------------------------------------------ integer fields


@pytest.mark.parametrize("raw", [4.7, 4.0, True, "4", None])
def test_side_length_must_be_an_integer(raw):
    with pytest.raises(ConfigError, match="'N' must be an integer"):
        parse_config(config(N=raw))


def test_side_length_true_exits_two(tmp_path, capsys):
    assert run_verify(tmp_path, json.dumps(config(N=True))) == 2
    assert "'N' must be an integer, got True" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj",
    [
        {"reference": True, "n": 1.5},
        {"reference": True, "n": True},
        config(parameters=[{"i": 1.9, "j": 2, "epsilon": "+", "value": 0.4}]),
        config(parameters=[{"i": 1, "j": False, "epsilon": "+", "value": 0.4}]),
    ],
)
def test_other_integer_fields_are_not_truncated(obj):
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config(obj)


@pytest.mark.parametrize("missing", ["N", "mode"])
def test_missing_required_field(missing):
    obj = config()
    del obj[missing]
    with pytest.raises(ConfigError, match=f"requires .*'{missing}'"):
        parse_config(obj)


def test_side_length_limit():
    assert make_parameters(MAX_SIDE, "real", {}).dim == 64 == MAX_SIDE
    with pytest.raises(SizeLimitError, match="exceeds the limit 64"):
        make_parameters(MAX_SIDE + 1, "real", {})
    assert ReferenceConfig(MAX_SIDE // 2).n == 32
    with pytest.raises(ConfigError, match="side length 66 exceeds 64"):
        ReferenceConfig(MAX_SIDE // 2 + 1)


def test_valid_config_still_parses():
    params = parse_config(config())
    assert params.dim == 4 and params.value(1, 2, +1) == 0.4
