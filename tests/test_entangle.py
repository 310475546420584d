import math
import tracemalloc

import numpy as np
import pytest

from braidmat import (
    AccuracyError,
    BraidFamily,
    ModeError,
    canonical_keys,
    degenerate_classes,
    detect_period,
    exceptional_scan,
    make_parameters,
    scan_products,
)


def generic_params(dim, seed=0):
    # deterministic, mutually incommensurate-looking values; genericity is
    # asserted where it matters via degenerate_classes
    keys = canonical_keys(dim)
    values = {
        key: ((-1) ** idx) * (0.37 + 0.211 * idx) for idx, key in enumerate(keys)
    }
    return make_parameters(dim, "unitary", values)


def generic_family(dim):
    return BraidFamily.create(generic_params(dim))


def is_positive_zero(x):
    """True for 0.0 and False for -0.0, which compares equal to it."""
    return x == 0.0 and math.copysign(1.0, x) == 1.0


def record_of(family, a, b, theta):
    """Record of |a,b> from the full scan, which lists states in (a, b) order."""
    return scan_products(family, theta)[(a - 1) * family.dim + (b - 1)]


# ------------------------------------------------------------ records


def test_identity_theta_preserves_products():
    family = generic_family(3)
    record = record_of(family, 2, 3, 0.0)
    assert record["schmidt_rank"] == 1
    assert is_positive_zero(record["entropy"])
    assert record["singular_values"][0] == pytest.approx(1.0, abs=1e-15)


def test_dim2_maximal_entanglement_at_quarter_pi():
    params = make_parameters(2, "unitary", {(1, 1, +1): 1.0, (1, 1, -1): -1.0})
    record = record_of(BraidFamily.create(params), 1, 1, math.pi / 4)
    assert record["schmidt_rank"] == 2
    np.testing.assert_allclose(
        record["singular_values"], [1 / math.sqrt(2)] * 2, atol=1e-14
    )
    assert record["entropy"] == pytest.approx(1.0, abs=1e-9)


def test_odd_central_state_is_conserved():
    family = generic_family(3)
    for theta in (0.4, 1.7, -2.9):
        record = record_of(family, 2, 2, theta)
        assert record["schmidt_rank"] == 1
        assert is_positive_zero(record["entropy"])


def test_real_mode_rejected():
    params = make_parameters(2, "real", {(1, 1, +1): 1.0})
    family = BraidFamily.create(params)
    with pytest.raises(ModeError):
        scan_products(family, 0.5)
    with pytest.raises(ModeError):
        exceptional_scan(family, 0.5)


def test_index_range_checked():
    # one record per state |a,b>, a and b in 1..N, in (a, b) order
    records = scan_products(generic_family(3), 0.5)
    expected = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    assert [(r["a"], r["b"]) for r in records] == expected


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_norm_preservation_and_rank_bound(dim):
    family = generic_family(dim)
    for record in scan_products(family, 0.9):
        squares = sum(v * v for v in record["singular_values"])
        assert abs(squares - 1.0) <= 1e-10
        assert record["schmidt_rank"] in (1, 2)


def test_scan_at_the_size_cap_allocates_no_dense_matrix():
    # the dense 4096 x 4096 complex matrix at N = 64 alone takes 268 MB
    family = generic_family(64)
    tracemalloc.start()
    try:
        records = scan_products(family, 0.9)
        exceptional = exceptional_scan(family, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 64 * 64
    assert exceptional == []
    assert peak < 32 * 2**20


def test_entropy_even_in_theta():
    family = generic_family(4)
    for a, b in [(1, 1), (2, 3), (4, 2)]:
        forward = record_of(family, a, b, 1.3)["entropy"]
        backward = record_of(family, a, b, -1.3)["entropy"]
        assert forward == pytest.approx(backward, abs=1e-12)


# ------------------------------------------------------------ exceptional scan


@pytest.mark.parametrize("dim", [2, 4])
def test_even_generic_scan_is_empty(dim):
    family = generic_family(dim)
    theta = 0.9
    assert degenerate_classes(family, theta) == []
    assert exceptional_scan(family, theta) == []


@pytest.mark.parametrize("dim", [3, 5])
def test_odd_generic_scan_finds_only_center(dim):
    family = generic_family(dim)
    theta = 0.9
    center = (dim + 1) // 2
    assert degenerate_classes(family, theta) == []
    assert exceptional_scan(family, theta) == [(center, center)]


def test_theta_zero_everything_exceptional():
    for dim in (2, 3):
        family = generic_family(dim)
        assert len(exceptional_scan(family, 0.0)) == dim * dim


def test_accidental_conservation_is_flagged_and_found():
    # one class with m+ - m- = 2*pi/theta: its antisymmetric coefficient
    # vanishes at theta, so its four basis states become exceptional
    theta = 0.8
    delta = 2.0 * math.pi / theta
    values = {
        (1, 1, +1): delta / 2, (1, 1, -1): -delta / 2,
        (1, 2, +1): 0.31, (1, 2, -1): -0.47,
        (2, 1, +1): 0.53, (2, 1, -1): 0.19,
        (2, 2, +1): -0.61, (2, 2, -1): 0.07,
    }
    family = BraidFamily.create(make_parameters(4, "unitary", values))
    flagged = degenerate_classes(family, theta)
    assert ((1, 1), "conserved") in flagged
    found = exceptional_scan(family, theta)
    assert set(found) == {(1, 1), (1, 4), (4, 1), (4, 4)}


def test_swap_degeneracy_is_flagged_and_found():
    # m+ - m- = pi/theta kills the symmetric coefficient instead: states
    # map onto their mirrored basis partner, again a basis product
    theta = 0.8
    delta = math.pi / theta
    values = {
        (1, 1, +1): delta, (1, 1, -1): 0.0,
        (1, 2, +1): 0.31, (1, 2, -1): -0.47,
        (2, 1, +1): 0.53, (2, 1, -1): 0.19,
        (2, 2, +1): -0.61, (2, 2, -1): 0.07,
    }
    family = BraidFamily.create(make_parameters(4, "unitary", values))
    assert ((1, 1), "swapped") in degenerate_classes(family, theta)
    assert (1, 1) in exceptional_scan(family, theta)


# ------------------------------------------------------------ periodicity


def test_period_integers():
    params = make_parameters(2, "unitary", {(1, 1, +1): 1, (1, 1, -1): 2})
    result = detect_period(params)
    assert result["periodic"] and result["commensurate"] and not result["degenerate"]
    assert result["period"] == pytest.approx(2.0 * math.pi, abs=1e-12)
    # brute-force confirmation and minimality probe
    family = BraidFamily.create(params)
    period = result["period"]
    full = np.abs(family.matrix(0.37 + period) - family.matrix(0.37)).max()
    half = np.abs(family.matrix(0.37 + period / 2) - family.matrix(0.37)).max()
    assert full <= 1e-10
    assert half > 0.1


def test_period_rationals():
    params = make_parameters(2, "unitary", {(1, 1, +1): "1/2", (1, 1, -1): "1/3"})
    period = detect_period(params)["period"]
    assert period == pytest.approx(12.0 * math.pi, abs=1e-9)
    family = BraidFamily.create(params)
    assert np.abs(family.matrix(1.51 + period) - family.matrix(1.51)).max() <= 1e-10


def test_period_negative_rationals():
    params = make_parameters(2, "unitary", {(1, 1, +1): "-1/2", (1, 1, -1): "1/3"})
    assert detect_period(params)["period"] == pytest.approx(12.0 * math.pi, abs=1e-9)


def test_period_floats_are_not_rationalized():
    params = make_parameters(2, "unitary", {(1, 1, +1): 0.5, (1, 1, -1): 1.0})
    result = detect_period(params)
    assert result["commensurate"] is None
    assert not result["periodic"]
    assert result["period"] is None


def test_period_degenerate_all_zero():
    params = make_parameters(2, "unitary", {})
    result = detect_period(params)
    assert result["degenerate"]
    assert result["periodic"]
    assert result["period"] == 0.0
    assert result["commensurate"]


def test_period_requires_unitary_mode():
    params = make_parameters(2, "real", {(1, 1, +1): 1})
    with pytest.raises(ModeError):
        detect_period(params)


def test_period_json_shape():
    params = make_parameters(2, "unitary", {(1, 1, +1): 1, (1, 1, -1): 2})
    obj = detect_period(params)
    assert list(obj) == ["periodic", "period", "commensurate", "degenerate"]


def test_period_extreme_rationals_raise_rather_than_lie():
    # the verification tolerance cannot be met once the period exceeds
    # double precision's reach; the detector must refuse, not guess
    params = make_parameters(
        2, "unitary", {(1, 1, +1): "1/999983", (1, 1, -1): "1/999979"}
    )
    with pytest.raises(AccuracyError):
        detect_period(params)
