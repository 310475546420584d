"""The command-line JSON writer against its oracle, ``json.dumps(indent=2)``.

Every command emits through ``cli._json_text``; its text must equal
``json.dumps(payload, indent=2)`` byte for byte, for the payloads the
commands build and for hand-picked scalars and containers;
``tests/test_properties.py`` draws arbitrary nested ones.
"""

import enum
import json
import math

import numpy as np
import pytest

from braidmat import canonical_keys, cli
from braidmat.cli import _json_text, main


def oracle(payload) -> str:
    return json.dumps(payload, indent=2)


# ------------------------------------------------------------ scalars


class Level(enum.IntEnum):
    LOW = 3


SCALARS = [
    0.0, -0.0, 1.0, -2.5, 0.1, 1e308, -1e308, 1e-308, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e16, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
    np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf),
    0, -1, 2**63, -(2**63) - 1, 10**40, Level.LOW,
    True, False, None,
    "", "plain", "café θ → \U0001d54f", "\x00\x1f\t\n\"\\/\x7f",
    "\ud800",
]


@pytest.mark.parametrize("value", SCALARS, ids=repr)
def test_scalars_match_json(value):
    assert _json_text(value) == oracle(value)
    assert _json_text([value]) == oracle([value])
    assert _json_text({"k": value}) == oracle({"k": value})


@pytest.mark.parametrize(
    "payload",
    [[], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], []], [(), ()], ((1.0, 2.0),)],
    ids=repr,
)
def test_empty_containers_and_tuples(payload):
    assert _json_text(payload) == oracle(payload)


@pytest.mark.parametrize(
    "rows",
    [
        [[0.5, -0.0], [1e308, 5e-324]],
        [[0.5, 1.0], [2.0]],  # ragged
        [[0.5, math.nan], [1.0, 2.0]],
        [[0.5, math.inf], [1.0, -math.inf]],
        [[1e308, 1e308], [1e308, 1e308]],  # finite items whose sum overflows
        [[0.5, 1], [1.0, 2.0]],
        [[0.5, True], [1.0, 2.0]],
        [[0.5, np.float64(0.25)], [1.0, 2.0]],
        [(0.5, 1.5), [1.0, 2.0]],
        [[0.5, 1.5], {"a": 1.0}],
        [[0.5, 1.5], 2.0],
        [[[0.5]], [[1.0]]],
    ],
    ids=[
        "plain", "ragged", "nan", "inf", "overflowing-sum", "int", "bool",
        "float64", "tuple-row", "dict-row", "scalar-row", "nested",
    ],
)
def test_float_rows_match_json(rows):
    assert _json_text(rows) == oracle(rows)
    assert _json_text({"entries": rows}) == oracle({"entries": rows})


RECORDS = {
    "single": [{"a": 1, "x": 0.5, "v": [0.5, 1.5]}],
    "ints-floats": [{"a": 1, "x": 0.5}, {"a": -(2**70), "x": -0.0}],
    "bool-in-int-column": [{"a": True}, {"a": 2}],
    "intenum-in-int-column": [{"a": Level.LOW}, {"a": 2}],
    "nan": [{"x": 0.5}, {"x": math.nan}],
    "inf": [{"x": math.inf}, {"x": -math.inf}],
    "float64": [{"x": 0.5}, {"x": np.float64(0.25)}],
    "none": [{"x": 0.5}, {"x": None}],
    "overflowing-sum": [{"x": 1e308}, {"x": 1e308}],
    "list-and-tuple-rows": [{"v": [0.5, 1.0]}, {"v": (2.0, -0.0)}],
    "ragged-rows": [{"v": [0.5, 1.0]}, {"v": [2.0]}],
    "empty-rows": [{"v": []}, {"v": []}],
    "nan-row": [{"v": [0.5, math.nan]}, {"v": [1.0, 2.0]}],
    "int-rows": [{"t": (1, 2)}, {"t": (3, 4)}],
    "strings": [{"s": "x"}, {"s": "caf\u00e9"}],
    "permuted-keys": [{"a": 1, "b": 2.0}, {"b": 3.0, "a": 4}],
    "other-keys": [{"a": 1}, {"a": 1, "b": 2}],
    "empty-records": [{}, {}],
    "nested": [{"d": {"p": 1, "q": 0.5}}, {"d": {"p": 2, "q": 1.5}}],
    "nested-permuted": [{"d": {"p": 1, "q": 0.5}}, {"d": {"q": 1.5, "p": 2}}],
    "percent-keys": [{"%": 1, "%s": 0.5, "a%%d": "%d"}, {"%": 2, "%s": 1.5, "a%%d": "%"}],
    "tuple-of-records": ({"a": 1, "x": 0.5}, {"a": 2, "x": 1.5}),
}


@pytest.mark.parametrize("records", RECORDS.values(), ids=RECORDS.keys())
def test_records_match_json(records):
    assert _json_text(records) == oracle(records)
    assert _json_text({"records": records}) == oracle({"records": records})
    assert _json_text([records, records]) == oracle([records, records])


def test_non_string_keys_and_unknown_types_raise_type_error():
    with pytest.raises(TypeError):
        _json_text({1: 2.0})
    # json.dumps turns these keys into strings; the writer refuses them
    for records in ([{1: 2.0}, {1: 3.0}], [{"a": 1}, {1: 2}], [{"a": {1: 2}}, {"a": {1: 3}}]):
        with pytest.raises(TypeError):
            _json_text(records)
    for value in (np.int64(3), {1.0}, object(), 1j):
        with pytest.raises(TypeError):
            oracle(value)
        with pytest.raises(TypeError):
            _json_text([value])


# ------------------------------------------------------------ commands


def capture_payloads(monkeypatch):
    """Record every payload the commands pass to ``_emit``."""
    seen = []
    emit = cli._emit

    def recording(payload, out):
        seen.append(payload)
        emit(payload, out)

    monkeypatch.setattr(cli, "_emit", recording)
    return seen


def write_config(tmp_path, dim, mode, centre=False):
    """A random config with one symmetry override: on row (N+1)/2, or on
    the odd-N centre itself when ``centre`` is set."""
    rng = np.random.default_rng(100 * dim + len(mode))
    half = (dim + 1) // 2
    parameters = [
        {"i": i, "j": j, "epsilon": "+" if eps > 0 else "-",
         "value": float(rng.uniform(-2, 2))}
        for i, j, eps in canonical_keys(dim)
    ]
    config = {"N": dim, "mode": mode, "parameters": parameters,
              "symmetry_overrides": [{"i": half, "j": half if centre else 1,
                                    "epsilon": "-", "value": 0.25}]}
    path = tmp_path / f"n{dim}-{mode}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("mode", ["real", "unitary"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_every_command_emits_json_dumps_text(tmp_path, capsys, monkeypatch, dim, mode):
    config = write_config(tmp_path, dim, mode)
    out = tmp_path / "out.json"
    runs = [
        ["build", "--config", config, "--theta", "0.37", "--out", str(out)],
        ["verify", "--config", config, "--samples", "1", "--seed", "9",
         "--report", str(out)],
        ["entangle", "--config", config, "--theta", "pi/4", "--out", str(out)],
        ["period", "--config", config],
        ["reference", "--n", str(dim), "--z1", "0.5", "--z2", "-0.25"],
    ]
    seen = capture_payloads(monkeypatch)
    emitted = 0
    for argv in runs:
        out.unlink(missing_ok=True)
        capsys.readouterr()
        if main(argv) == 2:  # entangle and period need unitary mode
            assert mode == "real" and argv[0] in ("entangle", "period")
            continue
        emitted += 1
        if str(out) in argv:
            text = out.read_text(encoding="utf-8")
        else:
            text = capsys.readouterr().out
        assert text == oracle(seen[-1]) + "\n"
    assert emitted == len(seen) == (5 if mode == "unitary" else 3)


def test_build_n16_emits_json_dumps_text(tmp_path, monkeypatch):
    config = write_config(tmp_path, 16, "real")
    out = tmp_path / "out.json"
    seen = capture_payloads(monkeypatch)
    assert main(["build", "--config", config, "--theta", "-0.61", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == oracle(seen[0]) + "\n"


@pytest.mark.parametrize(
    ("dim", "centre"), [(16, False), (9, True)], ids=["n16", "n9-centre-override"]
)
def test_entangle_emits_json_dumps_text(tmp_path, monkeypatch, dim, centre):
    config = write_config(tmp_path, dim, "unitary", centre=centre)
    out = tmp_path / "out.json"
    seen = capture_payloads(monkeypatch)
    assert main(["entangle", "--config", config, "--theta", "0.83", "--out", str(out)]) == 0
    assert len(seen[0]["records"]) == dim * dim
    assert out.read_text(encoding="utf-8") == oracle(seen[0]) + "\n"


def test_verify_n8_report_emits_json_dumps_text(tmp_path, monkeypatch):
    config = write_config(tmp_path, 8, "unitary")
    out = tmp_path / "out.json"
    seen = capture_payloads(monkeypatch)
    argv = ["verify", "--config", config, "--samples", "2", "--seed", "3", "--report", str(out)]
    assert main(argv) == 1  # the override is a negative control
    assert out.read_text(encoding="utf-8") == oracle(seen[0]) + "\n"
