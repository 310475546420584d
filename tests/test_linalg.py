import math

import numpy as np
import pytest

from braidmat import (
    AccuracyError,
    BraidFamily,
    DimensionError,
    SizeLimitError,
    make_parameters,
    matrix_exponential,
    matrix_from_json,
    matrix_to_json,
)
from braidmat.linalg import kron, schmidt_coefficients
from test_oracles import dagger, dense_generator, max_abs_diff


def series_exp(a, terms=80):
    """Independent oracle: direct summation of the exponential series."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def unit(a, b, dim):
    m = np.zeros((dim, dim))
    m[a, b] = 1.0
    return m


# ---------------------------------------------------------------- kron


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_matrix_unit_placement():
    out = kron(unit(0, 1, 2), unit(0, 1, 2))
    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0
    assert np.array_equal(out, expected)


def test_kron_diagonal():
    out = kron(np.diag([2.0, 3.0]), np.eye(2))
    assert np.array_equal(out, np.diag([2.0, 2.0, 3.0, 3.0]))


def test_kron_size_cap():
    with pytest.raises(SizeLimitError):
        kron(np.eye(100), np.eye(100))


def test_kron_associative_exact():
    # dyadic entries make every product exact, so associativity is exact
    rng = np.random.default_rng(11)
    mats = [
        np.round(rng.uniform(-1, 1, (d, d)) * 256) / 256 for d in (2, 3, 2)
    ]
    a, b, c = mats
    assert max_abs_diff(kron(kron(a, b), c), kron(a, kron(b, c))) == 0.0


def test_kron_mixed_product_property():
    rng = np.random.default_rng(12)
    a, c = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    b, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
    for m in (a, b, c, d):
        m /= np.abs(m).max()
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert max_abs_diff(lhs, rhs) < 1e-13


# ---------------------------------------------------------------- dagger
# the dense adjoint oracle of test_oracles.py (the library works on blocks)


def test_dagger_identity():
    assert np.array_equal(dagger(np.eye(3)), np.eye(3))


def test_dagger_involution():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(dagger(dagger(m)), m)


def test_dagger_imaginary_identity():
    assert np.array_equal(dagger(1j * np.eye(2)), -1j * np.eye(2))


def test_dagger_reverses_products():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    # exact for real matrices; the complex BLAS kernel reassociates the
    # imaginary part, leaving a few ulps
    assert np.array_equal(dagger(a @ b), dagger(b) @ dagger(a))
    ac = a + 1j * rng.standard_normal((6, 6))
    bc = b + 1j * rng.standard_normal((6, 6))
    lhs = dagger(ac @ bc)
    rhs = dagger(bc) @ dagger(ac)
    assert max_abs_diff(lhs, rhs) <= 8 * np.finfo(float).eps * np.abs(lhs).max()


# ---------------------------------------------------------------- max_abs_diff


def test_max_abs_diff_zero_on_equal():
    m = np.arange(9.0).reshape(3, 3)
    assert max_abs_diff(m, m) == 0.0


def test_max_abs_diff_identity_vs_zero():
    assert max_abs_diff(np.eye(2), np.zeros((2, 2))) == 1.0


def test_max_abs_diff_construction_paths():
    # same braid matrix through the closed form and the projector sum
    params = make_parameters(
        4, "real", {(1, 1, +1): 1.1, (1, 2, -1): -0.7, (2, 2, +1): 0.4}
    )
    family = BraidFamily.create(params)
    assert max_abs_diff(family.matrix(0.8), family.matrix_from_basis(0.8)) <= 1e-14


def test_max_abs_diff_dimension_mismatch():
    with pytest.raises(DimensionError):
        max_abs_diff(np.eye(2), np.eye(3))


# ---------------------------------------------------------------- matrix_exponential


def test_exp_zero_is_identity():
    assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_exp_diagonal():
    out = matrix_exponential(np.diag([1.0, 2.0]))
    assert max_abs_diff(out, np.diag([math.e, math.e**2])) < 1e-14


def test_exp_matches_series_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a *= 5.0 / np.abs(a).sum(axis=0).max()
        expected = series_exp(a)
        scale = max(1.0, float(np.abs(expected).max()))
        assert max_abs_diff(matrix_exponential(a), expected) / scale < 1e-12


def test_exp_of_generator_matches_direct_build():
    params = make_parameters(2, "real", {(1, 1, +1): 1.0, (1, 1, -1): -1.0})
    family = BraidFamily.create(params)
    theta = 0.85
    x = dense_generator(family)
    assert max_abs_diff(matrix_exponential(theta * x), family.matrix(theta)) < 1e-10


def test_exp_inverse_property():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8))
    a *= 10.0 / np.abs(a).sum(axis=0).max()
    prod = matrix_exponential(a) @ matrix_exponential(-a)
    assert max_abs_diff(prod, np.eye(8)) < 1e-10


def test_exp_norm_guard():
    with pytest.raises(AccuracyError):
        matrix_exponential(200.0 * np.eye(2))


# ---------------------------------------------------------------- schmidt


def test_schmidt_product_state():
    v = np.zeros(4)
    v[0] = 1.0  # |0> (x) |0>
    np.testing.assert_allclose(schmidt_coefficients(v, 2, 2), [1.0, 0.0], atol=1e-15)


def test_schmidt_bell_state():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    np.testing.assert_allclose(
        schmidt_coefficients(v, 2, 2), [1 / math.sqrt(2)] * 2, atol=1e-15
    )


def test_schmidt_braid_column():
    # image of |1,1> under the maximally entangling unitary evaluation
    params = make_parameters(2, "unitary", {(1, 1, +1): 1.0, (1, 1, -1): -1.0})
    v = BraidFamily.create(params).matrix(math.pi / 4)[:, 0]
    np.testing.assert_allclose(
        schmidt_coefficients(v, 2, 2), [1 / math.sqrt(2)] * 2, atol=1e-14
    )


def test_schmidt_squares_sum_to_norm():
    rng = np.random.default_rng(6)
    for dim_a, dim_b in [(2, 2), (3, 5), (8, 8)]:
        v = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
        values = schmidt_coefficients(v, dim_a, dim_b)
        assert values.tolist() == sorted(values, reverse=True)
        assert abs((values**2).sum() - np.vdot(v, v).real) < 1e-12 * np.vdot(v, v).real


def test_schmidt_dimension_mismatch():
    with pytest.raises(DimensionError):
        schmidt_coefficients(np.ones(5), 2, 2)


# ---------------------------------------------------------------- JSON


def test_matrix_json_roundtrip_exact():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    again = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(again, m)


def test_matrix_json_schema():
    obj = matrix_to_json(np.eye(2))
    assert obj["dim"] == 2
    assert len(obj["entries"]) == 4
    assert obj["entries"][0] == [1.0, 0.0]


def test_matrix_json_rejects_malformed():
    with pytest.raises(DimensionError):
        matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(DimensionError):
        matrix_from_json({"entries": []})


@pytest.mark.parametrize("dim", [1, 3, 16])
def test_matrix_to_json_matches_the_per_entry_loop(dim):
    """The array encoder against the per-entry loop it replaced, bit for
    bit, and the round trip: signed zeros, real input, transposed
    (non-contiguous) input and int entries included."""
    rng = np.random.default_rng(40 + dim)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m[0, 0] = complex(-0.0, -0.0)
    for a in (m, m.T, m.real, np.eye(dim, dtype=int)):
        c = a.astype(complex)
        entries = matrix_to_json(a)["entries"]
        expected = [[float(z.real), float(z.imag)] for z in c.ravel()]
        assert np.array(entries).tobytes() == np.array(expected).tobytes()
        assert all(type(x) is float for pair in entries for x in pair)
        again = matrix_from_json({"dim": dim, "entries": entries})
        assert again.tobytes() == c.tobytes()
