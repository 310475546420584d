import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import braidmat
from braidmat import braid, verify
from braidmat import (
    BraidFamily,
    CheckResult,
    ConfigError,
    DomainError,
    ModeError,
    ReferenceConfig,
    canonical_keys,
    check_braid,
    check_composition_law,
    check_exponential,
    check_factorization,
    check_unitarity,
    make_parameters,
    reference_checks,
    run_suite,
)
from test_oracles import dagger, dense_reference_residuals, max_abs_diff


def random_family(dim, mode, seed):
    rng = np.random.default_rng(seed)
    keys = canonical_keys(dim)
    params = make_parameters(dim, mode, dict(zip(keys, rng.uniform(-2, 2, len(keys)))))
    return BraidFamily.create(params)


# ------------------------------------------------------------ braid


def test_braid_trivial_at_zero():
    family = random_family(4, "real", 0)
    assert check_braid(family, 0.0, 0.0).residual == 0.0


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("mode", ["real", "unitary"])
def test_braid_residual_small(dim, mode):
    rng = np.random.default_rng(dim * 100)
    family = random_family(dim, mode, dim)
    for _ in range(3):
        theta, theta_prime = rng.uniform(-1, 1, 2)
        result = check_braid(family, theta, theta_prime)
        assert result.passed
        assert result.residual <= 1e-10


def test_braid_negative_control():
    # decoupling one mirror image violates the design constraint and
    # must visibly break the exchange identity
    family = random_family(4, "real", 1)
    p = family
    overrides = p.overrides + ((1, 3, +1, 1.9),)
    broken = BraidFamily.create(
        make_parameters(p.dim, p.mode, p.values, overrides=overrides)
    )
    result = check_braid(broken, 0.63, -0.41)
    assert not result.passed
    assert result.residual > 1e-3


def test_import_builds_no_slot_layout():
    # the per-N slot layout is built by the first exchange check at that
    # N, never at import; the names span tracers wrap stay attributes
    src = str(Path(braidmat.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import braidmat\n"
        "from braidmat import verify\n"
        "assert verify._slot_layout.cache_info().currsize == 0\n"
        "names = ('kron', 'matrix_exponential', 'check_braid', 'check_unitarity',\n"
        "         'check_factorization', 'check_exponential',\n"
        "         'check_composition_law')\n"
        "assert all(callable(getattr(verify, name)) for name in names)\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True
    )


def test_slot_layout_is_built_once_per_side_length_and_read_only():
    family = random_family(5, "real", 10)
    check_braid(family, 0.3, 0.2)
    layout = verify._slot_layout(5)
    check_exponential(family, 0.4)
    assert verify._slot_layout(5) is layout
    index12, index23, merges = layout
    assert index12.shape == index23.shape == (4, 5, 5)
    # at odd N each of the six slot pairs meets on one line of columns
    assert [(g, h, len(positions)) for g, h, positions in merges] == [
        (g, h, 5) for g in range(1, 4) for h in range(g)
    ]
    arrays = [index12, index23] + [positions for *_, positions in merges]
    assert not any(a.flags.writeable for a in arrays)
    assert verify._slot_layout(4)[2] == ()


# ------------------------------------------------------------ unitarity


def test_unitarity_at_zero():
    family = random_family(4, "unitary", 2)
    assert check_unitarity(family, 0.0).residual == 0.0


def test_unitarity_random():
    family = random_family(4, "unitary", 3)
    result = check_unitarity(family, 0.7)
    assert result.residual <= 1e-12
    assert result.context["theta_reversal_residual"] <= 1e-13


def test_unitarity_rejects_real_mode():
    family = random_family(4, "real", 4)
    with pytest.raises(ModeError):
        check_unitarity(family, 0.5)


def test_real_mode_unitarity_defect_scale():
    # negative control: the nonunitary family misses unitarity by a
    # hyperbolic factor, here sinh(2) = 2 cosh(1) sinh(1)
    params = make_parameters(2, "real", {(1, 1, +1): 1.0, (1, 1, -1): -1.0})
    r = BraidFamily.create(params).matrix(1.0)
    defect = max_abs_diff(dagger(r) @ r, np.eye(4))
    assert abs(defect - math.sinh(2.0)) < 1e-12


# ------------------------------------------------------------ factorization


def test_factorization_trivial():
    family = random_family(4, "real", 5)
    assert check_factorization(family, 0.0, 0.0).residual == 0.0


@pytest.mark.parametrize("mode", ["real", "unitary"])
def test_factorization_random(mode):
    family = random_family(4, mode, 6)
    result = check_factorization(family, 0.3, 0.5)
    assert result.residual <= 1e-11
    assert result.context["inverse_residual"] <= 1e-11


def test_inverse_as_sign_flip():
    family = random_family(6, "real", 7)
    r = family.matrix(0.8) @ family.matrix(-0.8)
    assert float(np.abs(r - np.eye(36)).max()) <= 1e-11


# ------------------------------------------------------------ exponential


def test_exponential_at_zero():
    family = random_family(2, "real", 8)
    assert check_exponential(family, 0.0).residual <= 1e-15


def test_exponential_closed_form_dim2():
    params = make_parameters(2, "real", {(1, 1, +1): 1.0, (1, 1, -1): -1.0})
    result = check_exponential(BraidFamily.create(params), 1.0)
    assert result.residual <= 1e-11


def test_exponential_dim6_unitary():
    family = random_family(6, "unitary", 9)
    result = check_exponential(family, 2.0)
    assert result.residual <= 1e-10
    assert result.context["exp_exchange_residual"] <= 1e-10


# ------------------------------------------------------------ composition


def test_composition_trivial():
    assert check_composition_law(1, 0.0, 0.0).residual == 0.0


def test_composition_half_half():
    result = check_composition_law(1, 0.5, 0.5)
    assert result.passed
    assert result.context["z3"] == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert result.context["scalar"] == pytest.approx(0.75, abs=1e-15)
    assert result.residual <= 1e-13


def test_composition_second_point():
    result = check_composition_law(2, 0.2, 0.3)
    assert result.context["z3"] == pytest.approx(0.5 / 0.94, abs=1e-15)
    assert result.residual <= 1e-13


def test_composition_pole():
    with pytest.raises(DomainError):
        check_composition_law(1, 2.0, 0.5)


# ------------------------------------------------------------ CheckResult


def test_check_result_passed_definition():
    assert CheckResult("x", 1e-11, 1e-10).passed
    assert CheckResult("x", 1e-10, 1e-10).passed  # boundary counts as pass
    assert not CheckResult("x", 2e-10, 1e-10).passed
    assert not CheckResult("x", math.nan, 1e-10).passed


def test_check_result_json_maps_nan_to_null():
    obj = CheckResult("x", math.nan, 1e-10, {"error": "boom"}).to_json()
    assert obj["residual"] is None
    assert obj["passed"] is False
    assert json.dumps(obj)  # serializable as strict JSON


# ------------------------------------------------------------ run_suite


def braid_config(dim, mode, seed=0):
    rng = np.random.default_rng(seed)
    keys = canonical_keys(dim)
    return make_parameters(dim, mode, dict(zip(keys, rng.uniform(-2, 2, len(keys)))))


def test_run_suite_all_passes():
    report = run_suite(braid_config(2, "unitary"), suite="all", samples=5)
    assert report.passed
    assert report.dim == 2
    names = {c.name for c in report.checks}
    assert {
        "braid",
        "unitarity",
        "theta_reversal",
        "factorization",
        "exponential",
        "composition",
        "projectors_complete",
        "reference_projectors",
    } <= names


def test_run_suite_real_mode_all_skips_unitarity():
    report = run_suite(braid_config(2, "real"), suite="all", samples=2)
    assert report.passed
    assert "unitarity" not in {c.name for c in report.checks}


def test_run_suite_explicit_unitarity_on_real_mode_fails():
    report = run_suite(braid_config(2, "real"), suite="unitarity", samples=2)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert failed
    assert all("mode" in c.context.get("error", "") for c in failed)


def test_run_suite_negative_control_fails():
    p = braid_config(4, "real")
    overrides = p.overrides + ((1, 3, +1, 1.5),)
    config = make_parameters(p.dim, p.mode, p.values, overrides=overrides)
    report = run_suite(config, suite="braid", samples=3)
    assert not report.passed


def test_run_suite_odd_dim_composition_fails_when_explicit():
    report = run_suite(braid_config(3, "unitary"), suite="composition", samples=1)
    assert not report.passed
    # odd side "all" simply omits the inapplicable check
    report_all = run_suite(braid_config(3, "unitary"), suite="all", samples=1)
    assert report_all.passed
    assert "composition" not in {c.name for c in report_all.checks}


def test_run_suite_is_deterministic():
    first = run_suite(braid_config(4, "unitary"), suite="all", samples=3)
    second = run_suite(braid_config(4, "unitary"), suite="all", samples=3)
    assert json.dumps(first.to_json()) == json.dumps(second.to_json())


def test_run_suite_seed_changes_draws():
    first = run_suite(braid_config(4, "real"), suite="braid", samples=2, seed=1)
    second = run_suite(braid_config(4, "real"), suite="braid", samples=2, seed=2)
    assert json.dumps(first.to_json()) != json.dumps(second.to_json())


def test_run_suite_projectors_draws_no_samples(monkeypatch):
    # no per-sample check runs under "projectors", so nothing is drawn
    calls = []
    original = verify.make_parameters

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "make_parameters", counting)
    config = braid_config(4, "unitary")
    report = run_suite(config, suite="projectors", samples=50)
    assert calls == []
    expected = run_suite(config, suite="projectors", samples=0)
    assert json.dumps(report.to_json()) == json.dumps(expected.to_json())


def test_run_suite_braid_dim8():
    report = run_suite(braid_config(8, "real"), suite="braid", samples=2)
    assert report.passed


def test_run_suite_reference_config():
    report = run_suite(ReferenceConfig(n=1), suite="all", samples=4)
    assert report.passed
    assert report.mode == "reference"
    assert report.dim == 2


def test_run_suite_reference_rejects_braid_suite():
    with pytest.raises(ConfigError):
        run_suite(ReferenceConfig(n=1), suite="braid")


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ConfigError):
        run_suite(braid_config(2, "real"), suite="everything")


def test_report_json_schema():
    report = run_suite(braid_config(2, "unitary"), suite="braid", samples=1)
    obj = report.to_json()
    assert set(obj) == {"N", "mode", "suite", "seed", "tolerance", "checks", "passed"}
    assert obj["N"] == 2
    assert obj["mode"] == "unitary"
    assert obj["suite"] == "braid"
    assert obj["seed"] == 42
    assert obj["tolerance"] == 1e-10
    assert obj["passed"] is True
    for check in obj["checks"]:
        assert set(check) == {"name", "residual", "tolerance", "passed", "context"}
        assert "parameter_digest" in check["context"]


def test_tolerance_schedule():
    report = run_suite(braid_config(2, "unitary"), suite="all", samples=1)
    tol = {c.name: c.tolerance for c in report.checks}
    assert tol["braid"] == 1e-10
    assert tol["exponential"] == 1e-10
    assert tol["factorization"] == pytest.approx(1e-11)
    assert tol["unitarity"] == pytest.approx(1e-12)
    assert tol["theta_reversal"] == pytest.approx(1e-13)
    assert tol["composition"] == pytest.approx(1e-13)
    assert tol["projectors_idempotent"] == 1e-14


def test_reference_checks_report_the_construction_residuals():
    # reference_checks reuses the residuals measured while the orbit blocks
    # were built; the dense oracle pair gives the same bits
    for n in (1, 2, 3):
        assert [c.residual for c in reference_checks(n)] == dense_reference_residuals(n)


@pytest.mark.parametrize("dim", [4, 5])
def test_per_sample_checks_never_build_a_dense_matrix(monkeypatch, dim):
    def refuse(self, theta):
        raise AssertionError("dense braid matrix built")

    params = random_family(dim, "unitary", 20 + dim)
    monkeypatch.setattr(BraidFamily, "matrix", refuse)
    for suite in ("braid", "unitarity", "factorization", "exponential"):
        report = run_suite(params, suite=suite, samples=2)
        assert report.passed, suite
        assert len(report.checks) == 3 * (2 if suite == "unitarity" else 1)


def test_projector_and_composition_checks_stay_small_at_n64():
    # no N^2 x N^2 array: one complex one takes 268 MB at N = 64, and the
    # dense projector and reference checks allocated several
    verify.projector_family.cache_clear()
    braid._reference_regrouping.cache_clear()
    params = make_parameters(64, "unitary", {})
    tracemalloc.start()
    try:
        report = run_suite(params, suite="projectors")
        composition = check_composition_law(32, 0.3, -0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and composition.passed
    assert len(report.checks) == 11
    assert peak < 16 * 2**20
