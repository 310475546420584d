"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
the heavy random sampling (criteria 1, 4, 5, 6) is shared through a
module-scoped fixture and uses counter-based seeding, so the whole module
is deterministic.
"""

import math
import time

import numpy as np
import pytest

from braidmat import (
    BraidFamily,
    ModeError,
    canonical_keys,
    check_braid,
    check_composition_law,
    check_exponential,
    check_factorization,
    check_unitarity,
    degenerate_classes,
    detect_period,
    exceptional_scan,
    make_parameters,
    projector_checks,
    reference_checks,
    run_suite,
    scan_products,
)
from test_oracles import (
    dagger,
    dense_generator,
    max_abs_diff,
    members,
    reference_projectors,
)

SAMPLED_DIMS = (2, 4, 6, 8)
SETS_PER_DIM = 20
PAIRS_PER_SET = 5

BRAID_TOL = 1e-10
PROJECTOR_TOL = 1e-14
UNITARITY_TOL = 1e-12
REVERSAL_TOL = 1e-13
FACTORIZATION_TOL = 1e-11
EXPONENTIAL_TOL = 1e-10
POWER_TOL = 1e-12
REFERENCE_PAIR_TOL = 1e-14
REFERENCE_GEN_TOL = 1e-13
COMPOSITION_TOL = 1e-13
PERIOD_TOL = 1e-10
ENTROPY_TOL = 1e-9


def verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {description}{': ' + detail if detail else ''}")


def random_parameters(dim, mode, rng):
    keys = canonical_keys(dim)
    return make_parameters(dim, mode, dict(zip(keys, rng.uniform(-2.0, 2.0, len(keys)))))


def generic_parameters(dim):
    keys = canonical_keys(dim)
    values = {key: ((-1) ** k) * (0.37 + 0.211 * k) for k, key in enumerate(keys)}
    return make_parameters(dim, "unitary", values)


@pytest.fixture(scope="module")
def sampled():
    """Shared random-sampling pass over both modes and all even dims."""
    stats = {
        "braid": [],
        "unitarity": [],
        "reversal": [],
        "factorization": [],
        "exponential": [],
        "elapsed": 0.0,
    }
    start = time.perf_counter()
    for dim in SAMPLED_DIMS:
        for mode in ("real", "unitary"):
            rng = np.random.Generator(np.random.Philox(1000 + dim))
            for _ in range(SETS_PER_DIM):
                family = BraidFamily.create(random_parameters(dim, mode, rng))
                pairs = rng.uniform(-1.0, 1.0, (PAIRS_PER_SET, 2))
                for theta, theta_prime in pairs:
                    stats["braid"].append(
                        check_braid(family, theta, theta_prime)["residual"]
                    )
                    stats["factorization"].append(
                        check_factorization(family, theta, theta_prime)["residual"]
                    )
                    if mode == "unitary":
                        result = check_unitarity(family, theta)
                        stats["unitarity"].append(result["residual"])
                        stats["reversal"].append(
                            result["context"]["theta_reversal_residual"]
                        )
                stats["exponential"].append(
                    check_exponential(family, pairs[0][0])["residual"]
                )
    stats["elapsed"] = time.perf_counter() - start
    return stats


def test_criterion_1_braid_equation(sampled):
    worst = max(sampled["braid"])
    count = len(sampled["braid"])
    ok = worst <= BRAID_TOL
    verdict(
        1,
        "braid equation over random sampling",
        ok,
        f"{count} checks, worst residual {worst:.2e}, "
        f"sampling pass took {sampled['elapsed']:.1f}s",
    )
    assert ok


def test_criterion_2_projector_algebra():
    worst = 0.0
    for dim in (2, 3, 4, 5, 6, 8):
        for result in projector_checks(dim, tol=PROJECTOR_TOL):
            worst = max(worst, result["residual"])
            assert result["passed"], (dim, result["name"], result["residual"])
    ok = worst <= PROJECTOR_TOL
    verdict(2, "projector algebra for N in {2,3,4,5,6,8}", ok, f"worst {worst:.2e}")
    assert ok


def test_criterion_3_parameter_counts():
    expected = {2: 2, 3: 6, 4: 8, 5: 16, 6: 18, 7: 30, 8: 32, 9: 48}
    got = {dim: len(canonical_keys(dim)) for dim in expected}
    ok = got == expected
    verdict(3, "free-parameter counts up to N=9", ok, f"{got}")
    assert ok
    for dim, count in expected.items():
        formula = dim * dim // 2 if dim % 2 == 0 else (dim + 3) * (dim - 1) // 2
        assert count == formula


def test_criterion_4_unitarity(sampled):
    worst = max(sampled["unitarity"])
    worst_reversal = max(sampled["reversal"])
    ok = worst <= UNITARITY_TOL and worst_reversal <= REVERSAL_TOL
    verdict(
        4,
        "unitarity and adjoint-as-theta-reversal",
        ok,
        f"product {worst:.2e}, reversal {worst_reversal:.2e}",
    )
    assert worst <= UNITARITY_TOL
    assert worst_reversal <= REVERSAL_TOL


def test_criterion_5_factorization(sampled):
    worst = max(sampled["factorization"])
    ok = worst <= FACTORIZATION_TOL
    verdict(5, "factorization in the spectral parameter", ok, f"worst {worst:.2e}")
    assert ok


def test_criterion_6_exponential_form(sampled):
    worst = max(sampled["exponential"])
    worst_power = 0.0
    for dim in SAMPLED_DIMS:
        rng = np.random.Generator(np.random.Philox(2000 + dim))
        params = random_parameters(dim, "real", rng)
        family = BraidFamily.create(params)
        x = dense_generator(family)
        power = np.eye(dim * dim)
        for k in range(1, 6):
            power = power @ x
            expected = np.zeros_like(power)
            for key, member in members(family.basis):
                expected += params.value(key.i, key.j, key.epsilon) ** k * member
            worst_power = max(worst_power, max_abs_diff(power, expected))
    ok = worst <= EXPONENTIAL_TOL and worst_power <= POWER_TOL
    verdict(
        6,
        "exponential-generator form",
        ok,
        f"build-vs-exp {worst:.2e}, generator powers {worst_power:.2e}",
    )
    assert worst <= EXPONENTIAL_TOL
    assert worst_power <= POWER_TOL


def test_criterion_7_reference_family():
    worst_pair, worst_gen, worst_comp = 0.0, 0.0, 0.0
    for n in (1, 2, 3):
        # the library's orbit-block residuals and the dense oracle pair
        library_pair, library_gen = (c["residual"] for c in reference_checks(n))
        plus, minus, rot = reference_projectors(n)
        eye = np.eye((2 * n) ** 2)
        worst_pair = max(
            worst_pair,
            library_pair,
            max_abs_diff(plus @ plus, plus),
            max_abs_diff(minus @ minus, minus),
            float(np.abs(plus @ minus).max()),
            max_abs_diff(plus + minus, eye),
        )
        worst_gen = max(
            worst_gen,
            library_gen,
            float(np.abs((-1j * (plus - minus)).imag).max()),
            max_abs_diff(rot @ rot, -eye),
        )
    rng = np.random.Generator(np.random.Philox(3000))
    z_pairs = [(0.5, 0.5)] + [tuple(rng.uniform(-0.9, 0.9, 2)) for _ in range(40)]
    for z1, z2 in z_pairs:
        result = check_composition_law(1, z1, z2, tol=COMPOSITION_TOL)
        worst_comp = max(worst_comp, result["residual"])
    half = check_composition_law(1, 0.5, 0.5, tol=COMPOSITION_TOL)
    z3_ok = abs(half["context"]["z3"] - 4.0 / 3.0) < 1e-14
    ok = (
        worst_pair <= REFERENCE_PAIR_TOL
        and worst_gen <= REFERENCE_GEN_TOL
        and worst_comp <= COMPOSITION_TOL
        and z3_ok
    )
    verdict(
        7,
        "reference family and composition law",
        ok,
        f"pair {worst_pair:.2e}, generator {worst_gen:.2e}, "
        f"composition {worst_comp:.2e}, z3(0.5,0.5)={half['context']['z3']:.6f}",
    )
    assert worst_pair <= REFERENCE_PAIR_TOL
    assert worst_gen <= REFERENCE_GEN_TOL
    assert worst_comp <= COMPOSITION_TOL
    assert z3_ok


def test_criterion_8_exceptional_states():
    theta = 0.9
    outcomes = {}
    for dim in (2, 3, 4, 5, 6):
        family = BraidFamily.create(generic_parameters(dim))
        assert degenerate_classes(family, theta) == []  # genericity holds
        outcomes[dim] = exceptional_scan(family, theta)
    expected = {2: [], 4: [], 6: [], 3: [(2, 2)], 5: [(3, 3)]}
    scan_ok = all(outcomes[dim] == expected[dim] for dim in outcomes)
    params = make_parameters(2, "unitary", {(1, 1, +1): 1.0, (1, 1, -1): -1.0})
    records = scan_products(BraidFamily.create(params), math.pi / 4)
    entropy = [r for r in records if (r["a"], r["b"]) == (1, 1)][0]["entropy"]
    entropy_ok = abs(entropy - 1.0) <= ENTROPY_TOL
    ok = scan_ok and entropy_ok
    verdict(
        8,
        "exceptional-state dichotomy and maximal entropy point",
        ok,
        f"scans {outcomes}, entropy {entropy:.12f}",
    )
    assert scan_ok
    assert entropy_ok


def test_criterion_9_periodicity():
    integer = make_parameters(2, "unitary", {(1, 1, +1): 1, (1, 1, -1): 2})
    fractional = make_parameters(2, "unitary", {(1, 1, +1): "1/2", (1, 1, -1): "1/3"})
    res_int = detect_period(integer)
    res_frac = detect_period(fractional)
    period_ok = (
        abs(res_int.period - 2 * math.pi) < 1e-12
        and abs(res_frac.period - 12 * math.pi) < 1e-9
    )
    # detect_period checks the claimed period at two theta base points
    residual_ok = (
        len(res_int.verification_residuals) == 2
        and len(res_frac.verification_residuals) == 2
        and max(res_int.verification_residuals) <= PERIOD_TOL
        and max(res_frac.verification_residuals) <= PERIOD_TOL
    )
    ok = period_ok and residual_ok
    verdict(
        9,
        "theta-periodicity from commensurate exponents",
        ok,
        f"periods ({res_int.period:.6f}, {res_frac.period:.6f}), "
        f"residuals <= {max(res_int.verification_residuals + res_frac.verification_residuals):.2e}",
    )
    assert period_ok
    assert residual_ok


def test_criterion_10_negative_controls():
    rng = np.random.Generator(np.random.Philox(4000))
    p = random_parameters(4, "real", rng)
    overrides = p.overrides + ((1, 3, +1, 1.8),)
    broken = make_parameters(p.dim, p.mode, p.values, overrides=overrides)
    braid_residual = check_braid(BraidFamily.create(broken), 0.63, -0.41)["residual"]
    braid_ok = braid_residual > 1e-3
    real_params = make_parameters(2, "real", {(1, 1, +1): 1.0, (1, 1, -1): -1.0})
    real_family = BraidFamily.create(real_params)
    r = real_family.matrix(1.0)
    defect = max_abs_diff(dagger(r) @ r, np.eye(4))
    with pytest.raises(ModeError):
        check_unitarity(real_family, 1.0)
    report = run_suite(real_params, suite="unitarity", samples=1)
    unitarity_ok = defect > 0.1 and not report["passed"]
    ok = braid_ok and unitarity_ok
    verdict(
        10,
        "negative controls stay red",
        ok,
        f"broken-symmetry braid residual {braid_residual:.2e}, "
        f"real-mode unitarity defect {defect:.3f}",
    )
    assert braid_ok
    assert unitarity_ok
