import numpy as np
import pytest

from braidmat import DimensionError, ProjectorKey, projector_family
from test_oracles import (
    braid_term,
    dagger,
    image_vector,
    max_abs_diff,
    members,
    mirror_index,
)

ALGEBRA_TOL = 1e-14


def unit(a, b, dim):
    """dim x dim matrix with a single 1 in row a, column b (1-based)."""
    m = np.zeros((dim, dim))
    m[a - 1, b - 1] = 1.0
    return m


def kron_units(a, b, c, d, dim):
    return np.kron(unit(a, b, dim), unit(c, d, dim))


def member(dim, kind, i, j, epsilon):
    return dict(members(projector_family(dim, kind)))[ProjectorKey(i, j, epsilon)]


def test_mirror_index():
    assert [mirror_index(i, 4) for i in range(1, 5)] == [4, 3, 2, 1]
    assert mirror_index(2, 3) == 2  # odd center is self-mirrored
    with pytest.raises(IndexError):
        mirror_index(5, 4)


def test_pair_projector_hand_expansion():
    # (|1,1> + |2,2>)/sqrt(2) for side length 2: four entries of 1/2
    expected = np.zeros((4, 4))
    for r, c in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[r, c] = 0.5
    assert np.array_equal(member(2, "unified", 1, 1, +1), expected)


def test_pair_projector_sign_sum_is_diagonal():
    total = member(2, "unified", 1, 1, +1) + member(2, "unified", 1, 1, -1)
    assert np.array_equal(total, np.diag([1.0, 0.0, 0.0, 1.0]))


def test_pair_projector_unit_trace():
    for dim in (2, 4):
        for _, m in members(projector_family(dim, "unified")):
            assert np.trace(m) == 1.0


def test_braid_term_regroups_into_pair_projector():
    total = braid_term(1, 1, +1, 2) + braid_term(2, 2, +1, 2)
    assert np.array_equal(total, member(2, "unified", 1, 1, +1))


def test_braid_term_central_element():
    total = braid_term(2, 2, +1, 3) + braid_term(2, 2, -1, 3)
    assert np.array_equal(total, kron_units(2, 2, 2, 2, 3))
    assert np.array_equal(total, member(3, "unified", 2, 2, +1))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_braid_term_completeness(dim):
    total = np.zeros((dim * dim, dim * dim))
    for eps in (+1, -1):
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                total = total + braid_term(i, j, eps, dim)
    assert np.array_equal(total, np.eye(dim * dim))


def test_phased_projector_hand_expansion():
    # j = 1, mirrored j = 2, alternating factor (-1)^2 = +1
    expected = 0.5 * (
        kron_units(1, 1, 1, 1, 2)
        + kron_units(2, 2, 2, 2, 2)
        + 1j * (kron_units(1, 2, 1, 2, 2) - kron_units(2, 1, 2, 1, 2))
    )
    assert np.array_equal(member(2, "Q", 1, 1, +1), expected)


def test_phased_projector_idempotent():
    for dim in (2, 4):
        for _, q in members(projector_family(dim, "Q")):
            assert max_abs_diff(q @ q, q) <= ALGEBRA_TOL


def test_phased_family_completeness():
    total = sum(m for _, m in members(projector_family(4, "Q")))
    assert max_abs_diff(total, np.eye(16)) <= ALGEBRA_TOL


# ------------------------------------------------------------- families


def available_kinds(dim):
    return ["unified"] + (["Q"] if dim % 2 == 0 else [])


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 8])
def test_family_algebra(dim):
    for kind in available_kinds(dim):
        fam = projector_family(dim, kind)
        dense = [m for _, m in members(fam)]
        assert len(dense) == dim * dim
        for m in dense:
            assert max_abs_diff(m @ m, m) <= ALGEBRA_TOL
            assert abs(complex(np.trace(m)) - 1.0) <= ALGEBRA_TOL
        for a_idx, a in enumerate(dense):
            for b_idx, b in enumerate(dense):
                if a_idx != b_idx:
                    assert float(np.abs(a @ b).max()) <= ALGEBRA_TOL
        assert max_abs_diff(sum(dense), np.eye(dim * dim)) <= ALGEBRA_TOL


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_p_family_real_symmetric(dim):
    # at even N the "unified" family is the paper's sign-pair family P
    fam = projector_family(dim, "unified")
    for _, m in members(fam):
        assert m.dtype == np.float64
        assert np.array_equal(m, m.T)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_q_family_hermitian_exact(dim):
    fam = projector_family(dim, "Q")
    for _, m in members(fam):
        assert np.array_equal(dagger(m), m)


def test_family_key_counts():
    assert len(projector_family(2, "Q")) == 4
    assert len(projector_family(4, "Q")) == 16
    for dim in (2, 3, 4, 5):
        assert len(projector_family(dim, "unified")) == dim * dim


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_image_vectors_form_orthonormal_basis(dim):
    for kind in available_kinds(dim):
        fam = projector_family(dim, kind)
        vectors = np.stack([image_vector(dim, kind, k) for k in fam.keys])
        gram = vectors.conj() @ vectors.T
        assert max_abs_diff(gram, np.eye(dim * dim)) <= ALGEBRA_TOL


@pytest.mark.parametrize("kind", ["unified", "Q"])
def test_members_are_outer_products_of_image_vectors(kind):
    fam = projector_family(4, kind)
    for key, m in members(fam):
        v = image_vector(4, kind, key)
        assert max_abs_diff(m, np.outer(v, v.conj())) <= ALGEBRA_TOL


def test_parity_requirements():
    with pytest.raises(DimensionError):
        projector_family(3, "Q")
    with pytest.raises(DimensionError):
        projector_family(5, "Q")
    with pytest.raises(DimensionError):
        projector_family(1, "unified")
    with pytest.raises(ValueError, match="unknown family kind 'P'"):
        projector_family(4, "P")
